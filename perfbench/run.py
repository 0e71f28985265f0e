"""qftcost benchmark: one closed-loop client running one seeded workload.

    python3 perfbench/run.py --workload compile_qft --seed 1 --seconds 10 --trace 0

After one untimed warm-up pass, the client runs the workload's job list in
whole passes, one job at a time in this one process, until the jobs have
taken --seconds of time scaled by the calibration (see calibrate.py); each
job's output is checked against an independent reference outside the job's
timing.
With --trace 0 it reports the end-to-end metrics; with --trace 1 it
alternates untraced passes with passes whose layer calls are wrapped in
spans, and reports per-layer metrics.  The last line of stdout is the JSON
result; the lines above it are the readable report and the run record.
"""
from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if __package__ in (None, ""):  # run as a script: make the perfbench package importable
    sys.path.insert(0, str(ROOT))
from perfbench import calibrate, spans  # noqa: E402
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
WORKLOADS = ("compile_qft", "compile_elementary", "cost_curves", "verify_dft")
#: Program modules each workload loads; importing them is part of set-up.
PROGRAM_MODULES = {"compile_elementary": ("qftcost", "qftcost.cli")}
#: OpenBLAS threads; one client, so one thread (never more than nproc).
BLAS_THREADS = 1
#: Set-ups measured per run (this process plus fresh child processes).
SETUP_SAMPLES = 5
#: Percentiles the tail is chosen from: the highest with >= 10 samples beyond it.
TAIL_LADDER = (50, 75, 90, 95, 99, 99.5, 99.9)
TAIL_BEYOND = 10
COMPILE_WORKLOADS = ("compile_qft", "compile_elementary")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="only time one set-up and print it (used for setup_s)")
    return parser.parse_args(argv)


def pin_blas() -> None:
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)


def set_up(workload: str, seed: int):
    """Import the program, generate the inputs and warm up; returns the
    workload, its jobs and the seconds all of that took."""
    start = time.perf_counter()
    for name in PROGRAM_MODULES.get(workload, ("qftcost",)):
        importlib.import_module(name)
    import_s = time.perf_counter() - start
    qftcost = sys.modules["qftcost"]
    if not Path(qftcost.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"perfbench: imported qftcost from {qftcost.__file__}, not {SRC}")
    from perfbench import jobs

    start = time.perf_counter()
    wl = jobs.make_workload(workload, str(OUT_DIR / f"tmp-{os.getpid()}"))
    job_list = wl.jobs(seed)
    for job in wl.warmup_jobs():
        try:
            wl.check(job, wl.run(job))
        except Exception:  # noqa: BLE001 - a broken path fails the timed jobs instead
            pass
    setup_s = import_s + time.perf_counter() - start
    return wl, job_list, setup_s * calibrate.speed_factor()


class Pass:
    """Latencies, failures and output facts of one pass over the job list."""

    def __init__(self, kernel: str) -> None:
        self.kernel = kernel
        self.raw: list[float] = []
        self.samples: list[float] = [calibrate.sample(kernel)]  # before each job, and after the last
        self.problems: list[str] = []
        self.facts: dict[int, dict] = {}
        self.check_s = 0.0

    @property
    def latencies(self) -> list[float]:
        """Job times scaled to the calibration's reference speed."""
        return calibrate.scale(self.raw, self.samples)

    @property
    def job_s(self) -> float:
        return math.fsum(self.latencies)


def run_pass(wl, job_list, recorder=None, label: str = "") -> Pass:
    result = Pass(wl.calibration)
    for job in job_list:
        if recorder is not None:
            recorder.job_id = f"{label}j{job.id}"
            span = recorder.begin(spans.JOB_SPAN)
        start = time.perf_counter()
        try:
            output, error = wl.run(job), None
        except Exception as exc:  # noqa: BLE001 - a failing job is counted, not fatal
            output, error = None, f"{type(exc).__name__}: {exc}"
        result.raw.append(time.perf_counter() - start)
        if recorder is not None:
            recorder.end(span)
        result.samples.append(calibrate.sample(result.kernel))
        start = time.perf_counter()
        if error is None:
            try:
                problems, facts = wl.check(job, output)
            except Exception as exc:  # noqa: BLE001 - an unreadable output is a failure
                problems, facts = [f"check raised {type(exc).__name__}: {exc}"], {}
        else:
            problems, facts = [error], {}
        result.check_s += time.perf_counter() - start
        if problems:
            result.problems.append(f"job {job.id} {job}: {'; '.join(problems)}")
        else:
            result.facts[job.id] = facts
    return result


def nondeterministic(passes: list[Pass]) -> list[str]:
    """Jobs whose output facts differ from their first successful pass."""
    first: dict[int, dict] = {}
    problems = []
    for p in passes:
        for job_id, facts in p.facts.items():
            if first.setdefault(job_id, facts) != facts:
                problems.append(f"job {job_id} output changed between passes")
    return problems


def tail(latencies: list[float]):
    """(percentile, value, samples beyond) for the highest ladder percentile
    that leaves at least TAIL_BEYOND samples beyond it (nearest rank)."""
    ordered = sorted(latencies)
    count = len(ordered)
    best = TAIL_LADDER[0]
    for p in TAIL_LADDER:
        if count - math.ceil(p / 100 * count) >= TAIL_BEYOND:
            best = p
    rank = max(1, math.ceil(best / 100 * count))
    return best, ordered[rank - 1], count - rank


def output_totals(workload: str, p: Pass) -> dict[str, float]:
    """Generated code size and hardware time over one pass's compiled outputs."""
    if workload not in COMPILE_WORKLOADS:
        return {"out_gates": 0, "out_swaps": 0, "hw_time_s": 0.0}
    facts = list(p.facts.values())
    return {"out_gates": sum(f["gates"] for f in facts),
            "out_swaps": sum(f["swaps"] for f in facts),
            "hw_time_s": math.fsum(f["hw_time_s"] for f in facts)}


def setup_sample(workload: str, seed: int) -> float:
    """One set-up in a fresh interpreter, so the import is cold each time."""
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
         "--workload", workload, "--seed", str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]


def run_until(seconds: float, one_round):
    """Call one_round() until the job time it reports adds up to seconds."""
    spent = 0.0
    while spent < seconds:
        spent += one_round()


def measure(args, wl, job_list, setup_s: float) -> tuple[dict, dict, list[Pass]]:
    passes: list[Pass] = []

    def one_pass() -> float:
        passes.append(run_pass(wl, job_list))
        return passes[-1].job_s

    run_until(args.seconds, one_pass)
    latencies = [t for p in passes for t in p.latencies]
    setups = [setup_s] + [setup_sample(args.workload, args.seed)
                          for _ in range(SETUP_SAMPLES - 1)]
    percentile, tail_s, beyond = tail(latencies)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "jobs_per_s": (len(latencies) / math.fsum(latencies), "1/s"),
        "job_p50_s": (statistics.median(latencies), "s"),
        "job_tail_s": (tail_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    notes = {"job_tail_s": f"p{percentile:g}, {beyond} of {len(latencies)} samples beyond",
             "setup_s": f"median of {len(setups)} set-ups"}
    return metrics, notes, passes


def measure_traced(args, wl, job_list) -> tuple[dict, dict, list[Pass]]:
    recorder = spans.SpanRecorder()
    plain: list[Pass] = []
    traced: list[Pass] = []
    self_times: list[dict] = []
    counts: list[dict] = []

    def one_round() -> float:
        plain.append(run_pass(wl, job_list))
        first = len(recorder.spans)
        recorder.counts.clear()
        restore = spans.install_layer_spans(recorder)
        try:
            traced.append(run_pass(wl, job_list, recorder, f"p{len(traced)}"))
        finally:
            restore()
        self_times.append(recorder.self_times(first))
        counts.append(dict(recorder.counts))
        return plain[-1].job_s + traced[-1].job_s

    run_until(args.seconds, one_round)
    OUT_DIR.mkdir(exist_ok=True)
    recorder.write(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl")
    notes = {}
    if any(c != counts[0] for c in counts):
        traced[-1].problems.append("layer counts changed between traced passes")
    metrics = {metric: (statistics.median(t.get(span, 0.0) for t in self_times), "s")
               for span, metric in spans.LAYER_SPANS.items()}
    c = counts[0]
    inserted, removed = c.get("route.swaps_inserted", 0), c.get("route.swaps_removed", 0)
    metrics.update({
        "route.swaps_inserted": (inserted, "count"),
        "route.swaps_removed": (removed, "count"),
        "route.cancel_yield": (removed / inserted if inserted else 0.0, "ratio"),
        "cost.curve_rows": (c.get("cost.curve_rows", 0), "count"),
        "cost.gates_costed": (c.get("cost.gates_costed", 0), "count"),
        "circuit.json_mb": (c.get("circuit.json_bytes", 0) / 1e6, "MB"),
        "synth.gates_out": (c.get("synth.gates_out", 0), "count"),
        "simulate.amp_updates": (c.get("simulate.amp_updates", 0), "count"),
        "bench.check_s": (statistics.median(p.check_s for p in plain + traced), "s"),
        "bench.trace_overhead": (statistics.median(p.job_s for p in plain)
                                 / statistics.median(p.job_s for p in traced), "ratio"),
    })
    # self times are unscaled, so shares are of the unscaled traced job time
    job_s = statistics.median(math.fsum(p.raw) for p in traced)
    for span, metric in spans.LAYER_SPANS.items():
        notes[metric] = f"{metrics[metric][0] / job_s:6.1%} of traced job time"
    covered = sum(metrics[m][0] for m in spans.LAYER_SPANS.values())
    notes["bench.trace_overhead"] = (
        f"layer self times + remainder = {covered:.4f} s; traced pass job time {job_s:.4f} s")
    return metrics, notes, plain + traced


def git_commit() -> str:
    """HEAD's commit id read from .git, or 'unknown' outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_record(args) -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        openblas = "unknown"
    src_lines = sum(len(p.read_text().splitlines()) for p in SRC.rglob("*.py"))
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "python": platform.python_version(),
            "numpy": numpy.__version__, "openblas": openblas, "nproc": nproc,
            "blas_threads": BLAS_THREADS, "git_commit": git_commit(),
            "src_lines": src_lines}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "qftcost" / "__init__.py").is_file():
        print(f"perfbench: no qftcost sources at {SRC / 'qftcost'}; "
              "run from the root of a qftcost checkout", file=sys.stderr)
        return 2
    pin_blas()
    sys.path.insert(0, str(SRC))
    wl, job_list, setup_s = set_up(args.workload, args.seed)
    try:
        if args.setup_probe:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        # one untimed pass first, so the allocator and caches reach steady
        # state (the first pass of verify_dft runs about 20% slower)
        warm = run_pass(wl, job_list)
        if args.trace:
            metrics, notes, passes = measure_traced(args, wl, job_list)
        else:
            metrics, notes, passes = measure(args, wl, job_list, setup_s)
    finally:
        wl.close()

    checked = [warm] + passes
    problems = [msg for p in checked for msg in p.problems] + nondeterministic(checked)
    attempted = sum(len(p.raw) for p in checked)
    totals = output_totals(args.workload, warm)
    if args.trace:
        metrics.update({k: (v, "s" if k == "hw_time_s" else "count") for k, v in totals.items()})
    record = run_record(args)

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
          f"{len(passes)} timed passes of {len(job_list)} jobs after a warm-up pass, "
          "scaled job seconds per pass "
          + " ".join(f"{p.job_s:.3f}" for p in passes))
    for name, (value, unit) in metrics.items():
        note = notes.get(name, "")
        print(f"  {name:28s} {value:>14.6g} {unit:6s} {note}")
    if not args.trace:
        print(f"  {'fail_ratio':28s} {len(problems) / attempted:>14.6g} {'ratio':6s} "
              f"{len(problems)} of {attempted} jobs")
        for name, value in totals.items():
            shown = f"{value:>14.6g}" if args.workload in COMPILE_WORKLOADS else f"{'n/a':>14s}"
            print(f"  {name:28s} {shown} {'s' if name == 'hw_time_s' else 'count':6s} "
                  "one pass over the compiled outputs")
    for msg in problems[:20]:
        print(f"  FAILED {msg}")
    print("run " + json.dumps(record))

    result = {"correct": not problems, "attempted": attempted, "failed": len(problems),
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"run": record, "totals": totals, **result}, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
