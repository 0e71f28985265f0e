"""Tests of the benchmark itself: its checks catch corrupted outputs, failures
are counted, deterministic figures repeat across runs of one seed, and it
refuses to run without the program's sources.

    PYTHONPATH=src python3 -m pytest perfbench/tests -q
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from qftcost import circuit as q_circuit  # noqa: E402
from qftcost import route as q_route  # noqa: E402

from perfbench import jobs, run, spans  # noqa: E402
from perfbench.jobs import Job  # noqa: E402

DETERMINISTIC = ("out_gates", "out_swaps", "hw_time_s", "route.swaps_inserted",
                 "route.swaps_removed", "cost.curve_rows", "cost.gates_costed",
                 "synth.gates_out", "circuit.json_mb", "simulate.amp_updates")


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


def drop_one_swap(c):
    gates = list(c.gates)
    del gates[next(i for i, g in enumerate(gates) if g.kind.value == "Swap")]
    return q_circuit.Circuit(c.num_qubits, tuple(gates), c.stage)


@pytest.mark.parametrize("n,strategy", [(8, "move-target"), (12, "meet:5"), (10, "move-control")])
def test_compile_check_catches_a_dropped_swap(n, strategy):
    wl = jobs.CompileQft()
    job = wl._prepare(0, Job(0, "compile", n, n, False, strategy, probe_seed=3))
    routed_swaps, reduced, report, loaded = wl.run(job)
    assert wl.check(job, (routed_swaps, reduced, report, loaded))[0] == []
    broken = drop_one_swap(loaded)
    problems, _ = wl.check(job, (routed_swaps, broken, report, broken))
    assert problems


def test_elementary_check_catches_a_dropped_swap(tmp_path):
    wl = jobs.CompileElementary(str(tmp_path / "work"))
    job = Job(0, "cli", 6, 6, True, "meet:3", probe_seed=5)
    output = wl.run(job)
    assert wl.check(job, output)[0] == []
    routed = Path(wl.files[1])
    data = json.loads(routed.read_text())
    data["gates"].remove(next(g for g in data["gates"] if g["kind"] == "Swap"))
    routed.write_text(json.dumps(data))
    assert wl.check(job, output)[0]
    wl.close()


def test_curve_check_catches_a_perturbed_row():
    wl = jobs.CostCurves()
    job = wl._prepare(0, Job(0, "curve", 40, 7, lo=3, mode="duration", policy="tau0"))
    csv = wl.run(job)
    assert wl.check(job, csv)[0] == []
    lines = csv.split("\n")
    cells = lines[10].split(",")
    cells[1] += "1"  # one more digit: a different exact cost
    lines[10] = ",".join(cells)
    assert wl.check(job, "\n".join(lines))[0]


def test_verify_check_catches_a_wrong_verdict():
    wl = jobs.VerifyDft()
    job = wl._prepare(0, Job(0, "dense", 5, 5, False, level="xor", probe_seed=2))
    circuit, (u, ok, lam) = wl.run(job)
    assert ok is False and wl.check(job, (circuit, (u, ok, lam)))[0] == []
    assert wl.check(job, (circuit, (u, True, 1.0)))[0]


def test_a_job_that_goes_wrong_is_counted_as_failed(monkeypatch):
    wl = jobs.CompileQft()
    job_list = [wl._prepare(i, Job(i, "compile", 8, 8, False, "move-target", probe_seed=i))
                for i in range(3)]
    original = q_route.cancel_swaps

    def lossy(routed):
        reduced = original(routed)
        return q_route.RoutedCircuit(drop_one_swap(reduced.circuit), reduced.swap_count - 1,
                                     reduced.logical_to_physical)

    monkeypatch.setattr(q_route, "cancel_swaps", lossy)
    result = run.run_pass(wl, job_list)
    assert len(result.latencies) == 3 and len(result.problems) == 3

    def broken(routed):
        raise RuntimeError("boom")

    monkeypatch.setattr(q_route, "cancel_swaps", broken)
    result = run.run_pass(wl, job_list)
    assert len(result.problems) == 3 and "boom" in result.problems[0]


def test_tail_takes_the_highest_percentile_with_ten_samples_beyond():
    assert run.tail([float(i) for i in range(1, 101)]) == (90, 90.0, 10)
    assert run.tail([float(i) for i in range(1, 100)])[0] == 75
    assert run.tail([float(i) for i in range(1, 201)])[0] == 95


def test_self_times_add_up_to_the_job():
    recorder = spans.SpanRecorder()
    job = recorder.begin("bench.job")
    inner = recorder.begin("route.route_lnn")
    time.sleep(0.01)
    leaf = recorder.begin("cost.curve_csv")
    time.sleep(0.01)
    recorder.end(leaf)
    recorder.end(inner)
    recorder.end(job)
    selfs = recorder.self_times()
    assert sum(selfs.values()) == pytest.approx(recorder.spans[0][2] - recorder.spans[0][1])
    assert selfs["cost.curve_csv"] >= 0.01 and selfs["route.route_lnn"] >= 0.01


def test_layer_wrappers_are_removed_after_a_traced_pass():
    before = (q_route.cancel_swaps, q_circuit.Circuit.__dict__["from_json"])
    restore = spans.install_layer_spans(spans.SpanRecorder())
    assert q_route.cancel_swaps is not before[0]
    restore()
    assert (q_route.cancel_swaps, q_circuit.Circuit.__dict__["from_json"]) == before


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_deterministic_figures_repeat_for_one_seed(workload):
    results = []
    for _ in range(2):
        done = bench("--workload", workload, "--seed", "7", "--seconds", "0.1", "--trace", "1")
        assert done.returncode == 0, done.stderr
        results.append(json.loads(done.stdout.strip().splitlines()[-1]))
    for result in results:
        assert result["correct"] and result["failed"] == 0
    first, second = ({k: r["metrics"][k]["value"] for k in DETERMINISTIC} for r in results)
    assert first == second


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = bench("--workload", "compile_qft", "--seed", "1", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path)
    assert done.returncode != 0
    assert "correct" not in done.stdout
