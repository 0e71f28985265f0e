"""The benchmark's workloads: seeded job lists, job runners and checks.

Each workload is a fixed mix of 25 job shapes in four cost tiers: 8 small
jobs, 9 medium ones of about the same cost, 3 large and 5 of the largest.
The seed draws each job's details inside its shape (bit reversal, strategy,
meet point, AQFT cutoff, curve range, probe states) and the job order,
within ranges narrow enough that every seed carries about the same work.
With 25 jobs a pass and 4 to 7 passes, the median falls inside the medium
tier and the 90th percentile inside the top tier, so neither lands on a
boundary between two unlike jobs, and run-to-run noise does not move them.

Runners call qftcost through module attributes looked up at call time, so
the layer wrappers in ``spans`` see the benchmark's own calls too.  Checks
use only ``reference`` and the job's own specification, never the layer
under test.
"""
from __future__ import annotations

import hashlib
import json
import os
import random
import shutil
from collections import Counter
from dataclasses import dataclass, field, replace
from fractions import Fraction

import numpy as np
from click.testing import CliRunner

from qftcost import circuit as q_circuit
from qftcost import cli as q_cli
from qftcost import cost as q_cost
from qftcost import route as q_route
from qftcost import simulate as q_sim
from qftcost import synth as q_synth

from perfbench import reference as ref

#: Hardware model defaults of the CLI: t_R = 1 ms, 1 s per pi rotation.
T_RES = 1e-3
T_REF = 1.0
#: Largest width whose compiled output is simulated against the FFT.
PROBE_MAX_N = 10
#: Residual allowed between a simulated output and its reference.
TOLERANCE = 1e-9


@dataclass(frozen=True)
class Job:
    """One unit of work; fields a workload does not use keep their defaults."""

    id: int
    kind: str
    n: int
    m: int = 0
    bit_reversal: bool = False
    strategy: str = ""
    level: str = "logical"
    lo: int = 0
    mode: str = ""
    policy: str = ""
    probe_seed: int = 0
    #: Program objects built from the fields at set-up (models, states).
    inputs: dict = field(default_factory=dict, compare=False, repr=False)


class JobFailed(Exception):
    """A CLI command exited non-zero."""


def gate_tuples(gates) -> list[tuple]:
    """qftcost gates as reference tuples (kind, qubits, numerator, log2den)."""
    return [
        (g.kind.value, g.qubits, *((g.angle.numerator, g.angle.log2_denominator)
                                   if g.angle is not None else (None, None)))
        for g in gates
    ]


def json_gate_tuples(gates: list[dict]) -> list[tuple]:
    """Circuit-JSON gates as reference tuples, parsed without qftcost."""
    out = []
    for g in gates:
        angle = g.get("angle")
        out.append((g["kind"], tuple(g["q"]),
                    *((int(angle["num"]), angle["log2den"]) if angle else (None, None))))
    return out


def check_nearest_neighbour(n: int, gates: list[tuple]) -> list[str]:
    for kind, qubits, _, _ in gates:
        if any(not 0 <= q < n for q in qubits):
            return [f"{kind} on {qubits} is outside the {n}-qubit register"]
        if len(qubits) == 2 and abs(qubits[0] - qubits[1]) != 1:
            return [f"{kind} on {qubits} is not nearest-neighbour"]
    return []


def check_probe(n: int, gates: list[tuple], want_gates, bit_reversal: bool, seed: int) -> list[str]:
    """Simulate the gates on a random state and compare with the FFT (exact
    QFT) or with the AQFT written out from its definition."""
    x = ref.random_state(np.random.default_rng(seed), n)
    got = ref.simulate(n, gates, x)
    want = ref.dft(x, bit_reversal) if want_gates is None else ref.simulate(n, want_gates, x)
    residual = ref.phase_residual(got, want)
    return [] if residual <= TOLERANCE else [f"probe residual {residual:.3g}"]


def _meet_or(rng: random.Random, n: int, strategy: str) -> str:
    return f"meet:{rng.randint(2 * n // 5, 3 * n // 5)}" if strategy == "meet" else strategy


def _digest(text: str) -> str:
    return hashlib.sha1(text.encode()).hexdigest()


class Workload:
    """A named job mix with a runner and a check for its jobs."""

    name = ""
    #: The calibration kernel whose slowdowns track this workload's jobs.
    calibration = "interpreter"

    def jobs(self, seed: int) -> list[Job]:
        raise NotImplementedError

    def warmup_jobs(self) -> list[Job]:
        raise NotImplementedError

    def run(self, job: Job):
        raise NotImplementedError

    def check(self, job: Job, output) -> tuple[list[str], dict]:
        """(problems, facts): facts are the output's deterministic figures."""
        raise NotImplementedError

    def close(self) -> None:
        pass


class CompileQft(Workload):
    """Library pipeline build_aqft -> route_lnn -> cancel_swaps -> circuit_cost
    -> JSON round trip on logical QFT/AQFT jobs."""

    name = "compile_qft"
    STRATEGIES = ("move-target", "move-control", "meet")
    #: (width, cutoff, strategy, bit reversal).  Cutoff None is the exact
    #: QFT, "half" an AQFT with m = n/2 +- 1 from the seed, an int a fixed m.
    #: None strategies and bit reversals, and the point of a bare "meet",
    #: come from the seed; the medium tier draws nothing that moves its cost.
    #: Widths 8 and 10 get the state-vector probe.
    SHAPES = (
        (8, None, None, None), (8, None, None, None), (10, None, None, None),
        (10, None, None, None), (12, None, "move-control", None),
        (12, None, "move-target", None), (12, None, "meet", None),
        (14, None, "move-control", None),
        (16, None, "move-target", False), (16, None, "move-target", True),
        (20, None, "move-control", False), (20, None, "move-control", True),
        (14, None, "meet:7", False), (14, None, "meet:7", True),
        (20, 10, "move-target", False), (20, 10, "meet:10", False),
        (21, None, "move-control", False),
        (18, None, "move-target", None), (16, None, "meet", None),
        (24, "half", "move-target", None),
        (22, None, "move-target", False), (20, None, "meet", False), (20, None, "meet", True),
        (20, None, "meet", None), (23, None, "move-target", False),
    )

    def __init__(self) -> None:
        # fixed pulses (H, Swap) take t_R, so swaps cost hardware time
        self.model = q_cost.HardwareModel(t_resolution=T_RES, t_ref=T_REF,
                                          fixed_gate_time=T_RES)

    def _job(self, rng, n, m, strategy, bit_reversal) -> Job:
        return Job(0, "compile", n, m, bit_reversal, _meet_or(rng, n, strategy),
                   probe_seed=rng.getrandbits(32))

    def jobs(self, seed: int) -> list[Job]:
        rng = random.Random(f"{self.name}:{seed}")
        specs = [self._job(rng, n,
                           n // 2 + rng.randint(-1, 1) if cutoff == "half" else cutoff or n,
                           strategy or rng.choice(self.STRATEGIES),
                           rng.random() < 0.5 if bit_reversal is None else bit_reversal)
                 for n, cutoff, strategy, bit_reversal in self.SHAPES]
        rng.shuffle(specs)
        return [self._prepare(i, j) for i, j in enumerate(specs)]

    def warmup_jobs(self) -> list[Job]:
        rng = random.Random(self.name)
        return [self._prepare(i, self._job(rng, 6, 6, s, False))
                for i, s in enumerate(self.STRATEGIES)]

    def _prepare(self, index: int, job: Job) -> Job:
        return replace(job, id=index, inputs={"strategy": parse_strategy(job.strategy)})

    def run(self, job: Job):
        logical = q_synth.build_aqft(job.n, job.m, job.bit_reversal)
        routed = q_route.route_lnn(logical, job.inputs["strategy"])
        reduced = q_route.cancel_swaps(routed)
        report = q_cost.circuit_cost(reduced.circuit, self.model)
        loaded = q_circuit.Circuit.from_json(reduced.circuit.to_json())
        return routed.swap_count, reduced.circuit, report, loaded

    def check(self, job: Job, output) -> tuple[list[str], dict]:
        routed_swaps, reduced, report, loaded = output
        n, m = job.n, job.m
        gates = gate_tuples(loaded.gates)
        kinds = Counter(g[0] for g in gates)
        swaps = kinds["Swap"]
        problems = check_nearest_neighbour(n, gates)
        if loaded != reduced:
            problems.append("JSON round trip changed the circuit")
        if loaded.num_qubits != n:
            problems.append(f"width {loaded.num_qubits} != {n}")
        if (kinds["H"], kinds["CPhase"]) != (n, ref.cphase_count(n, m)) or set(kinds) - {
                "H", "CPhase", "Swap"}:
            problems.append(f"gate census {dict(kinds)}")
        want_routed = ref.logical_routed_swaps(n, m, job.bit_reversal)
        if routed_swaps != want_routed:
            problems.append(f"routed swaps {routed_swaps} != {want_routed}")
        if swaps > routed_swaps:
            problems.append(f"cancellation added swaps ({routed_swaps} -> {swaps})")
        if (job.strategy == "move-target" and m == n and not job.bit_reversal
                and swaps != ref.paper_reduced_swaps(n)):
            problems.append(f"{swaps} swaps, paper's (n-1)(n-2) = {ref.paper_reduced_swaps(n)}")
        classes, smallest = ref.price_tau_n(n, gates, Fraction(1))
        if classes["controlled_rotation"] != ref.rotation_cost(n, m, "tauN"):
            problems.append("controlled-rotation cost differs from the closed form")
        if report.breakdown != classes:
            problems.append(f"breakdown {report.breakdown} != {classes}")
        total = sum(classes.values(), Fraction(0))
        if report.total_relative != total:
            problems.append(f"total_relative {report.total_relative} != {total}")
        seconds = float(total * Fraction(T_RES))
        if abs(report.total_seconds - seconds) > 1e-12 * seconds:
            problems.append(f"total_seconds {report.total_seconds} != {seconds}")
        if report.feasible != (smallest >= 1):
            problems.append(f"feasible={report.feasible}")
        if n <= PROBE_MAX_N:
            want = None if m == n else ref.aqft_gates(n, m, job.bit_reversal)
            problems += check_probe(n, gates, want, job.bit_reversal, job.probe_seed)
        facts = {"gates": len(gates), "swaps": swaps, "hw_time_s": report.total_seconds,
                 "gates_digest": _digest(repr(gates))}
        return problems, facts


class CompileElementary(Workload):
    """The user's CLI pipeline on files, run in-process through click:
    build N --lower elementary [--bit-reversal] -> route --reduce -> cost."""

    name = "compile_elementary"
    #: (width, bit reversal); None is drawn from the seed, as is every
    #: strategy.  The medium tier (9 to 11) draws nothing that moves its cost.
    SHAPES = tuple((n, None) for n in (6, 6, 6, 6, 8, 8, 8, 8)) + tuple(
        (n, False) for n in (9, 9, 10, 10, 10, 10, 10, 11, 11)) + tuple(
        (n, None) for n in (12, 14, 16, 24, 24, 24, 24, 32))
    STRATEGIES = ("move-target", "move-control", "meet")

    def __init__(self, workdir: str) -> None:
        os.makedirs(workdir, exist_ok=True)
        self.workdir = workdir
        self.files = [os.path.join(workdir, f) for f in ("built.json", "routed.json", "cost.json")]
        self.runner = CliRunner()

    def jobs(self, seed: int) -> list[Job]:
        rng = random.Random(f"{self.name}:{seed}")
        specs = [Job(0, "cli", n, n, rng.random() < 0.5 if bit_reversal is None else bit_reversal,
                     _meet_or(rng, n, rng.choice(self.STRATEGIES)),
                     probe_seed=rng.getrandbits(32)) for n, bit_reversal in self.SHAPES]
        rng.shuffle(specs)
        return [replace(job, id=i) for i, job in enumerate(specs)]

    def warmup_jobs(self) -> list[Job]:
        return [Job(0, "cli", 4, 4, True, "move-target", probe_seed=1)]

    def _invoke(self, args: list[str]):
        result = self.runner.invoke(q_cli.main, args)
        if result.exit_code != 0:
            raise JobFailed(f"qftcost {' '.join(args)} exited {result.exit_code}: "
                            f"{result.output[-300:]!r}") from result.exception
        return result

    def run(self, job: Job):
        built, routed, costed = self.files
        self._invoke(["build", str(job.n), "--lower", "elementary",
                      *(["--bit-reversal"] if job.bit_reversal else []), "-o", built])
        result = self._invoke(["route", built, "--reduce", "--strategy", job.strategy,
                               "-o", routed])
        self._invoke(["cost", routed, "--policy", "tauN", "-o", costed])
        return result.stdout

    def check(self, job: Job, output) -> tuple[list[str], dict]:
        n = job.n
        with open(self.files[1]) as fh:
            routed_text = fh.read()
        with open(self.files[2]) as fh:
            cost = json.load(fh)
        circuit = json.loads(routed_text)
        gates = json_gate_tuples(circuit["gates"])
        kinds = Counter(g[0] for g in gates)
        swaps = kinds["Swap"]
        problems = check_nearest_neighbour(n, gates)
        if (circuit["n"], circuit["stage"]) != (n, "reduced"):
            problems.append(f"header n={circuit['n']} stage={circuit['stage']}")
        want_routed = ref.elementary_routed_swaps(n, job.bit_reversal)
        want_report = {"n": n, "strategy": job.strategy, "measured": want_routed,
                       "paper_naive": ref.paper_naive_swaps(n),
                       "paper_reduced": ref.paper_reduced_swaps(n), "reduced_measured": swaps}
        if json.loads(output) != want_report:
            problems.append(f"route report {output.strip()} != {want_report}")
        if swaps > want_routed:
            problems.append(f"cancellation added swaps ({want_routed} -> {swaps})")
        if (kinds["Ising"] != ref.elementary_ising_count(n, job.bit_reversal)
                or set(kinds) - {"H", "Ry", "Rz", "Phi", "Ising", "Swap"}):
            problems.append(f"gate census {dict(kinds)}")
        classes, smallest = ref.price_tau_n(n, gates, Fraction(0))
        got = {k: Fraction(v) for k, v in cost["breakdown"].items()}
        if got != classes:
            problems.append(f"breakdown {cost['breakdown']} != {classes}")
        if classes["controlled_rotation"] != Fraction(kinds["Ising"] << (n - 1), 4):
            problems.append("controlled-rotation cost is not pi/4 per Ising step")
        total = Fraction(cost["total_relative"])
        if total != sum(classes.values(), Fraction(0)):
            problems.append(f"total_relative {cost['total_relative']}")
        if cost["feasible"] != (smallest >= 1):
            problems.append(f"feasible={cost['feasible']}")
        if n <= PROBE_MAX_N:
            problems += check_probe(n, gates, None, job.bit_reversal, job.probe_seed)
        # hardware time with fixed pulses (H, Ry, Swap) taking t_R each
        fixed = sum(kinds[k] for k in ref.FIXED_KINDS)
        facts = {"gates": len(gates), "swaps": swaps,
                 "hw_time_s": float((total + fixed) * Fraction(T_RES)),
                 "json": _digest(routed_text)}
        return problems, facts

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)


class CostCurves(Workload):
    """cost_curve + curve_csv for qft and aqft:M rows under both unit
    policies and both control modes."""

    name = "cost_curves"
    #: (aqft?, mode, policy, range top); None policies are drawn from the
    #: seed, tops move by up to 4 and aqft:M takes M in 30..34.
    SHAPES = tuple((aqft, "intensity", policy, high) for aqft in (False, True)
                   for policy in ("tau0", "tauN") for high in (256, 512)) + (
        (False, "duration", "tau0", 128), (False, "duration", "tauN", 128),
        (False, "duration", "tau0", 120), (False, "duration", "tauN", 120),
        (True, "duration", "tau0", 256), (True, "duration", "tauN", 256),
        (True, "duration", "tau0", 288), (True, "duration", "tauN", 288),
        (True, "duration", None, 272),
        (False, "duration", "tau0", 224), (False, "duration", "tauN", 224),
        (True, "duration", None, 512),
        (False, "duration", "tau0", 320), (False, "duration", "tauN", 320),
        (False, "duration", "tau0", 312), (False, "duration", "tauN", 328),
        (False, "duration", None, 320),
    )

    def _job(self, rng, aqft: bool, mode: str, policy: str | None, high: int) -> Job:
        return Job(0, "curve", high + rng.randint(-4, 4), rng.randint(30, 34) if aqft else 0,
                   lo=rng.randint(1, 8), mode=mode,
                   policy=policy or rng.choice(("tau0", "tauN")))

    def jobs(self, seed: int) -> list[Job]:
        rng = random.Random(f"{self.name}:{seed}")
        specs = [self._job(rng, *shape) for shape in self.SHAPES]
        rng.shuffle(specs)
        return [self._prepare(i, j) for i, j in enumerate(specs)]

    def warmup_jobs(self) -> list[Job]:
        return [self._prepare(i, Job(0, "curve", 16, m, lo=2, mode=mode, policy=policy))
                for i, (m, mode, policy) in enumerate(
                    [(0, "duration", "tau0"), (4, "duration", "tauN"),
                     (0, "intensity", "tau0"), (4, "intensity", "tauN")])]

    def _prepare(self, index: int, job: Job) -> Job:
        policy = {"tau0": q_cost.UnitPolicy.TAU_ZERO, "tauN": q_cost.UnitPolicy.TAU_N_MINUS_ONE}
        model = q_cost.HardwareModel(mode=q_cost.ControlMode(job.mode),
                                     unit_policy=policy[job.policy],
                                     t_resolution=T_RES, t_ref=T_REF)
        return replace(job, id=index, inputs={"model": model})

    def run(self, job: Job):
        kind = "aqft" if job.m else "qft"
        rows = q_cost.cost_curve(job.lo, job.n, job.inputs["model"], kind, job.m or None)
        return q_cost.curve_csv(rows, job.inputs["model"], kind)

    def check(self, job: Job, output) -> tuple[list[str], dict]:
        lines = output.split("\n")
        kind = "aqft" if job.m else "qft"
        problems = []
        if lines[0] != ref.CSV_HEADER or lines[-1] != "":
            problems.append("bad CSV header or missing final newline")
        rows = lines[1:-1]
        if len(rows) != job.n - job.lo + 1:
            problems.append(f"{len(rows)} rows for range {job.lo}:{job.n}")
        for n, row in zip(range(job.lo, job.n + 1), rows):
            cost, feasible, n_b = ref.curve_row(n, job.m or n, job.mode, job.policy,
                                                T_RES, T_REF)
            want = [str(n), cost, str(feasible).lower(), n_b, job.policy, job.mode, kind]
            cells = row.split(",")
            if len(cells) != 7 or "e" in cells[1].lower():
                problems.append(f"row {row!r}")
                break
            cells[1] = Fraction(cells[1])
            if cells != want:
                problems.append(f"row {row!r}, want cost {cost}")
                break
        return problems, {"rows": len(rows), "csv": _digest(output)}


class VerifyDft(Workload):
    """Dense checks (circuit_unitary against dft_matrix with
    equal_up_to_global_phase) at n = 5..10, and state-vector runs
    (apply_circuit) at n = 12..17 checked against numpy's FFT."""

    name = "verify_dft"
    calibration = "array"
    #: (dense or state, lowering level, width).  The logical n = 10 dense
    #: job is the largest and sets the memory peak.
    SHAPES = (
        ("dense", "logical", 5), ("dense", "logical", 6), ("dense", "logical", 7),
        ("dense", "xor", 5), ("dense", "xor", 6), ("dense", "xor", 7),
        ("dense", "elementary", 5), ("dense", "elementary", 6),
        ("state", "logical", 15), ("state", "xor", 13), ("state", "xor", 13),
        ("dense", "logical", 8), ("dense", "logical", 8), ("dense", "logical", 8),
        ("state", "logical", 16), ("state", "elementary", 12), ("state", "elementary", 12),
        ("dense", "logical", 9), ("dense", "elementary", 8), ("state", "elementary", 14),
        ("state", "logical", 17), ("state", "logical", 17), ("state", "logical", 17),
        ("state", "logical", 17), ("dense", "logical", 10),
    )
    #: Dense jobs built without bit reversal, whose known verdict is a mismatch.
    MISMATCHES = 3

    def jobs(self, seed: int) -> list[Job]:
        rng = random.Random(f"{self.name}:{seed}")
        dense = [i for i, shape in enumerate(self.SHAPES) if shape[0] == "dense"]
        mismatch = set(rng.sample(dense, self.MISMATCHES))
        specs = [Job(0, kind, n, n, i not in mismatch, level=level,
                     probe_seed=rng.getrandbits(32))
                 for i, (kind, level, n) in enumerate(self.SHAPES)]
        rng.shuffle(specs)
        return [self._prepare(i, j) for i, j in enumerate(specs)]

    def warmup_jobs(self) -> list[Job]:
        return [self._prepare(0, Job(0, "dense", 4, 4, True, level="elementary", probe_seed=1)),
                self._prepare(1, Job(1, "state", 6, 6, True, level="xor", probe_seed=2))]

    def _prepare(self, index: int, job: Job) -> Job:
        inputs = {"level": q_synth.LoweringLevel(job.level)}
        if job.kind == "state":
            inputs["state"] = ref.random_state(np.random.default_rng(job.probe_seed), job.n)
        return replace(job, id=index, inputs=inputs)

    def run(self, job: Job):
        circuit = q_synth.lower_circuit(
            q_synth.build_aqft(job.n, job.n, job.bit_reversal), job.inputs["level"])
        if job.kind == "state":
            return circuit, q_sim.apply_circuit(circuit, job.inputs["state"])
        u = q_sim.circuit_unitary(circuit)
        ok, lam = q_sim.equal_up_to_global_phase(u, q_sim.dft_matrix(job.n))
        return circuit, (u, ok, lam)

    def check(self, job: Job, output) -> tuple[list[str], dict]:
        circuit, result = output
        n = job.n
        gates = gate_tuples(circuit.gates)
        problems = []
        if job.kind == "state":
            x = job.inputs["state"]
            residual = ref.phase_residual(result, ref.dft(x))
            if residual > TOLERANCE:
                problems.append(f"state residual {residual:.3g} against the FFT")
            return problems, {"amp_updates": len(gates) << n}
        u, ok, lam = result
        if ok != job.bit_reversal:
            problems.append(f"verdict {ok}, known answer {job.bit_reversal}")
        # the built circuit is a QFT, and circuit_unitary applies it faithfully
        x = ref.random_state(np.random.default_rng(job.probe_seed), n)
        simulated = ref.simulate(n, gates, x)
        if ref.phase_residual(simulated, ref.dft(x, job.bit_reversal)) > TOLERANCE:
            problems.append("built circuit is not the QFT")
        if np.linalg.norm(u @ x - simulated) > TOLERANCE:
            problems.append("circuit_unitary disagrees with the reference simulator")
        if ok and (abs(abs(lam) - 1) > TOLERANCE
                   or np.linalg.norm(u @ x - lam * ref.dft(x)) > TOLERANCE):
            problems.append(f"reported phase {lam} does not map the DFT onto the unitary")
        return problems, {"verdict": bool(ok), "amp_updates": len(gates) << (2 * n)}


def parse_strategy(name: str):
    if name.startswith("meet:"):
        return q_route.MeetAt(int(name.split(":", 1)[1]))
    return {"move-target": q_route.RoutingStrategy.MOVE_TARGET_TO_CONTROL,
            "move-control": q_route.RoutingStrategy.MOVE_CONTROL_TO_TARGET}[name]


def make_workload(name: str, workdir: str) -> Workload:
    if name == "compile_elementary":
        return CompileElementary(workdir)
    return {"compile_qft": CompileQft, "cost_curves": CostCurves, "verify_dft": VerifyDft}[name]()
