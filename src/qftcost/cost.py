"""Hardware time-cost models: duration vs intensity control, unit-time
policies, the time-resolution bound, and field-intensity feasibility.

All relative costs are exact rationals (every angle is a dyadic multiple
of pi), so closed-form totals can be checked by integer equality at any
width.  Floating point enters only at the seconds/tesla boundary.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from .circuit import QUBIT_CAP, Circuit, DyadicAngle, Gate, GateKind
from .errors import CapacityError, InfeasibleModelError

#: Width cap for closed-form cost rows: the circuit width cap.
CLOSED_FORM_N_CAP = QUBIT_CAP


class ControlMode(Enum):
    DURATION = "duration"
    INTENSITY = "intensity"


class UnitPolicy(Enum):
    TAU_ZERO = "tau0"  # t_unit = time of a full pi rotation
    TAU_N_MINUS_ONE = "tauN"  # t_unit = time of the smallest QFT rotation


#: Gate kinds whose duration tracks the rotation angle in duration mode.
_ANGLE_COST_KINDS = frozenset(
    {GateKind.CPHASE, GateKind.ISING, GateKind.RZ, GateKind.GLOBAL_PHASE}
)

_BREAKDOWN_CLASS = {
    GateKind.CPHASE: "controlled_rotation",
    GateKind.ISING: "controlled_rotation",
    GateKind.RZ: "single_qubit_rotation",
    GateKind.GLOBAL_PHASE: "single_qubit_rotation",
    GateKind.H: "fixed_gates",
    GateKind.XOR: "fixed_gates",
    GateKind.RY: "fixed_gates",
    GateKind.SWAP: "swap",
}


@dataclass(frozen=True)
class HardwareModel:
    """Control mode, reference durations, and the time-resolution bound.

    t_ref is the seconds needed to rotate a phase by pi at the reference
    field intensity; t_resolution is the smallest controllable duration.
    Angle-free gates (and Ry pulses) take fixed_gate_time seconds.
    """

    mode: ControlMode = ControlMode.DURATION
    unit_policy: UnitPolicy = UnitPolicy.TAU_N_MINUS_ONE
    t_resolution: float = 1e-3
    t_ref: float = 1.0
    fixed_gate_time: float = 0.0

    def __post_init__(self) -> None:
        if not all(
            math.isfinite(x)
            for x in (self.t_resolution, self.t_ref, self.fixed_gate_time)
        ):
            raise ValueError("t_resolution, t_ref and fixed_gate_time must be finite")
        if self.t_resolution <= 0 or self.t_ref <= 0:
            raise ValueError("t_resolution and t_ref must be positive")
        if self.fixed_gate_time < 0:
            raise ValueError("fixed_gate_time must be non-negative")

    def unit_angle_fraction(self, n: int) -> Fraction:
        """The unit angle as an exact fraction of pi."""
        if self.unit_policy is UnitPolicy.TAU_ZERO:
            return Fraction(1)
        if n < 1:
            raise ValueError("circuit width required for this policy")
        return Fraction(1, 1 << (n - 1))

    def t_unit_seconds(self, n: int) -> float:
        """Physical seconds per cost unit.

        For the smallest-rotation policy the field intensity is assumed
        tuned so the unit rotation, the logical n-qubit QFT's smallest
        rotation pi/2^(n-1), takes exactly the resolution time.  That is
        the fastest schedule that resolves every logical QFT pulse; the
        shorter Rz(theta/2) and Phi(theta/4) pulses of a lowered circuit
        can fall below t_R.
        """
        if self.mode is ControlMode.INTENSITY:
            return self.t_ref
        if self.unit_policy is UnitPolicy.TAU_N_MINUS_ONE:
            return self.t_resolution
        return self.t_ref


@dataclass(frozen=True)
class CostReport:
    """Exact relative cost with per-gate-class breakdown and feasibility."""

    total_relative: Fraction
    total_seconds: float
    breakdown: dict[str, Fraction]
    feasible: bool
    n_b: int | None
    intensity_ratio: int | None

    def to_json_dict(self) -> dict:
        return {
            "total_relative": dyadic_decimal_str(self.total_relative),
            "total_seconds": self.total_seconds,
            "breakdown": {
                k: dyadic_decimal_str(v) for k, v in self.breakdown.items()
            },
            "feasible": self.feasible,
            "n_b": self.n_b,
            "intensity_ratio": str(self.intensity_ratio)
            if self.intensity_ratio is not None
            else None,
        }


def dyadic_decimal_str(x: Fraction) -> str:
    """Exact terminating decimal of a rational with power-of-two denominator;
    any other rational (a fixed pulse that is no power-of-two multiple of
    t_unit) as an exact "p/q"."""
    den = x.denominator
    k = den.bit_length() - 1
    if den != 1 << k:
        return str(x)
    scaled = abs(x.numerator) * 5**k
    sign = "-" if x.numerator < 0 else ""
    if k == 0:
        return f"{sign}{scaled}"
    digits = str(scaled).rjust(k + 1, "0")
    return f"{sign}{digits[:-k]}.{digits[-k:]}"


def gate_duration(gate: Gate, model: HardwareModel, n: int) -> Fraction:
    """Duration of one gate in units of t_unit (exact rational)."""
    if model.mode is ControlMode.INTENSITY:
        return Fraction(1)
    if gate.kind in _ANGLE_COST_KINDS:
        # physical duration follows the magnitude of the rotation,
        # with the angle reduced to (-pi, pi] first
        magnitude = abs(gate.angle.reduced_fraction_of_pi())
        return magnitude / model.unit_angle_fraction(n)
    if model.fixed_gate_time == 0.0:
        return Fraction(0)
    return _fixed_pulse(model, n)


def _fixed_pulse(model: HardwareModel, n: int) -> Fraction:
    """Duration of one fixed-time pulse (H, Xor, Ry, Swap) in t_unit."""
    return Fraction(model.fixed_gate_time) / Fraction(model.t_unit_seconds(n))


def _n_b(tau0_seconds: float, t_resolution: float) -> int:
    """Largest n with tau0 / 2^(n-1) >= t_R, by exact integer comparison;
    0 when even a full pi rotation is too fast."""
    return int(Fraction(tau0_seconds) / Fraction(t_resolution)).bit_length()


def _resolvable(shortest: Fraction | None, model: HardwareModel, n: int) -> bool:
    """The feasibility rule: every positive pulse lasts at least t_R, given
    the shortest positive pulse in t_unit (None when there is none)."""
    t_unit = Fraction(model.t_unit_seconds(n))
    return shortest is None or shortest * t_unit >= Fraction(model.t_resolution)


def circuit_cost(circuit: Circuit, model: HardwareModel) -> CostReport:
    """Exact total duration of a circuit with per-class breakdown.

    One integer pass over the gates, then one exact pricing step.  Every
    angle is num*pi/2^b: the pass reduces num into (-2^b, 2^b] (the angle
    into (-pi, pi]), adds its magnitude into an int keyed by (breakdown
    class, b), keeps the smallest positive magnitude per b, and counts the
    fixed pulses (H, Xor, Ry, Swap) per class; in intensity mode it counts
    every gate per class.  Pricing builds one Fraction per distinct
    (class, b), divided by the unit angle, and adds count * the fixed
    pulse, so the totals equal the sum of gate_duration over the gates.

    feasible is _resolvable on the circuit's shortest positive pulse.
    Under tau_n-1 the intensity is tuned so that the *logical* QFT's
    smallest rotation pi/2^(n-1) takes t_R, so lowered Rz(theta/2) and
    Phi(theta/4) pulses can fall below t_R.  n_b is the width bound of the
    logical QFT at t_ref (see max_feasible_qubits).
    """
    n = circuit.num_qubits
    intensity = model.mode is ControlMode.INTENSITY
    pulses = dict.fromkeys(_BREAKDOWN_CLASS.values(), 0)  # unit or fixed pulses
    angle_sums: dict[tuple[str, int], int] = {}  # reduced |num| per (class, b)
    minima: dict[int, int] = {}  # smallest positive reduced |num| per b
    for g in circuit.gates:
        cls = _BREAKDOWN_CLASS[g.kind]
        if intensity or g.kind not in _ANGLE_COST_KINDS:
            pulses[cls] += 1
            continue
        b = g.angle.log2_denominator
        magnitude = abs(g.angle.reduced_numerator())
        angle_sums[cls, b] = angle_sums.get((cls, b), 0) + magnitude
        if magnitude and (b not in minima or magnitude < minima[b]):
            minima[b] = magnitude

    if intensity:
        pulse = Fraction(1)
    elif model.fixed_gate_time == 0.0:
        pulse = Fraction(0)
    else:
        pulse = _fixed_pulse(model, n)
    breakdown = {cls: count * pulse for cls, count in pulses.items()}
    unit = model.unit_angle_fraction(n)
    for (cls, b), magnitude in angle_sums.items():
        breakdown[cls] += Fraction(magnitude, 1 << b) / unit
    shortest = [Fraction(magnitude, 1 << b) / unit for b, magnitude in minima.items()]
    if pulse and any(pulses.values()):
        shortest.append(pulse)
    total = sum(breakdown.values(), Fraction(0))
    return CostReport(
        total_relative=total,
        total_seconds=float(total * Fraction(model.t_unit_seconds(n))),
        breakdown=breakdown,
        feasible=_resolvable(min(shortest, default=None), model, n),
        n_b=None if intensity else _n_b(model.t_ref, model.t_resolution),
        intensity_ratio=1 << (n - 1) if intensity else None,
    )


def _aqft_rotation_sum(n: int, m: int) -> Fraction:
    """Controlled-rotation angle total of AQFT(n, m), in units of pi.

    sum_{d=1..K} (n-d) * 2^-d = n - 2 - (n-K-2) * 2^-K with K = min(m, n) - 1,
    so K = n - 1 (the exact QFT) gives n - 2 + 2^(1-n).
    """
    k = min(m, n) - 1
    return n - 2 - Fraction(n - k - 2, 1 << k)


def qft_cost_closed_form(
    n: int, policy: UnitPolicy = UnitPolicy.TAU_N_MINUS_ONE
) -> Fraction:
    """Closed-form controlled-rotation cost of the exact n-qubit QFT.

    The AQFT form shared with cost_curve at m = n:
    Unit tau_0:   n + 2^(1-n) - 2
    Unit tau_n-1: (n-2)*2^(n-1) + 1
    n = 1 gives 0 (no controlled rotations at all).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    unit = HardwareModel(unit_policy=policy)
    return _aqft_rotation_sum(n, n) / unit.unit_angle_fraction(n)


def max_feasible_qubits(model: HardwareModel) -> int:
    """Largest n with t_ref / 2^(n-1) >= t_R, by exact integer comparison.
    InfeasibleModelError when even pi, the longest rotation, is unresolvable
    (t_ref < t_R, except under tau_n-1, which tunes the intensity to t_R)."""
    pi = gate_duration(Gate.rz(0, DyadicAngle(1, 0)), model, 1)
    if not _resolvable(pi, model, 1):
        raise InfeasibleModelError(
            f"tau0 = {model.t_ref} s is below the resolution {model.t_resolution} s"
        )
    return _n_b(model.t_ref, model.t_resolution)


def paper_naive_swap_count(n: int) -> int:
    """The paper's O(n^3) naive swap total for the n-qubit QFT."""
    return (n - 1) * n * (2 * n - 1) // 6


def paper_reduced_swap_count(n: int) -> int:
    """The paper's O(n^2) swap total after chain sharing."""
    return (n - 1) * (n - 2)


#: Largest field intensity (T) taken as attainable.
MAX_FIELD_TESLA = 1e2


def intensity_requirement(n: int, b_min: float) -> dict:
    """Field needed for the largest rotation when the smallest uses b_min;
    feasible says whether it stays within MAX_FIELD_TESLA."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if b_min <= 0:
        raise ValueError("b_min must be positive")
    try:
        b_max = math.ldexp(b_min, n - 1)
    except OverflowError:  # beyond the float range (n > 1024 at b_min = 1 T)
        b_max = math.inf
    return {"b_max": b_max, "ratio": 1 << (n - 1), "feasible": b_max <= MAX_FIELD_TESLA}


@dataclass(frozen=True)
class CurveRow:
    n: int
    relative_cost: Fraction
    feasible: bool
    n_b: int | None


def cost_curve(
    n_min: int,
    n_max: int,
    model: HardwareModel,
    circuit_kind: str = "qft",
    aqft_m: int | None = None,
) -> list[CurveRow]:
    """Cost rows for n in [n_min, n_max], each an O(1) exact closed form.

    circuit_kind "qft" and "aqft" cost QFT/AQFT(n, m) (m = n for "qft");
    "qft_routed_reduced" costs the QFT after move-target LNN routing and
    swap cancellation, without bit reversal, whose chain sharing leaves
    the paper's (n-1)(n-2) swaps.  With K = min(m, n) - 1 and s swaps
    (s = 0 unless routed):
      duration:  (n - 2 - (n-K-2)*2^-K) / unit angle, plus n Hadamard and
                 s swap pulses of fixed_gate_time each;
      intensity: n + K*n - K*(K+1)/2 + s gates at one unit each.
    Feasibility is _resolvable, circuit_cost's rule, on the circuit
    a row describes.  k_limit is that predicate in closed form, computed
    once per curve so that no row pays for it: a row is feasible iff
    K < k_limit.  Intensity rows are feasible iff t_ref >= t_R; duration
    rows are all infeasible when 0 < fixed_gate_time < t_R, else always
    feasible under tau_n-1, otherwise when the smallest rotation
    t_ref / 2^K meets t_R (K < n_b) or there is none (K = 0).
    tests/test_cost.py checks every row against the per-distance sum and
    against materialized (and routed) circuits.
    """
    if n_min < 1 or n_min > n_max:
        raise ValueError(f"bad range {n_min}:{n_max}")
    if circuit_kind not in ("qft", "aqft", "qft_routed_reduced"):
        raise ValueError(f"unknown circuit_kind {circuit_kind!r}")
    if n_max > CLOSED_FORM_N_CAP:
        raise CapacityError(
            f"n_max={n_max} exceeds cap {CLOSED_FORM_N_CAP} for {circuit_kind}"
        )
    if circuit_kind == "aqft":
        if aqft_m is None:
            raise ValueError("aqft curves need aqft_m")
        if aqft_m < 1:
            raise ValueError(f"aqft_m must be >= 1, got {aqft_m}")

    intensity = model.mode is ControlMode.INTENSITY
    routed = circuit_kind == "qft_routed_reduced"
    n_b = None if intensity else _n_b(model.t_ref, model.t_resolution)
    # a row is feasible iff K < k_limit
    if intensity:
        k_limit = math.inf if model.t_ref >= model.t_resolution else 0
    elif 0.0 < model.fixed_gate_time < model.t_resolution:
        k_limit = 0  # the Hadamard pulses are too short
    elif model.unit_policy is UnitPolicy.TAU_N_MINUS_ONE:
        k_limit = math.inf  # intensity is tuned down with n; every pulse >= t_R
    else:
        k_limit = max(n_b, 1)  # K = 0 leaves no rotation pulse to resolve
    rows: list[CurveRow] = []
    for n in range(n_min, n_max + 1):
        m = min(aqft_m, n) if circuit_kind == "aqft" else n
        k = m - 1
        swaps = paper_reduced_swap_count(n) if routed else 0
        if intensity:
            cost = Fraction(n + k * n - k * (k + 1) // 2 + swaps)  # one unit per gate
        else:
            cost = _aqft_rotation_sum(n, m) / model.unit_angle_fraction(n)
            if model.fixed_gate_time > 0.0:
                # the Hadamard and swap pulses
                cost += (n + swaps) * _fixed_pulse(model, n)
        rows.append(CurveRow(n, cost, k < k_limit, n_b))
    return rows


def curve_csv(
    rows: list[CurveRow], model: HardwareModel, circuit_kind: str
) -> str:
    """Render curve rows as CSV (exact decimal cost strings)."""
    lines = ["n,relative_cost,feasible,n_b,policy,mode,circuit"]
    for r in rows:
        n_b = "" if r.n_b is None else str(r.n_b)
        lines.append(
            f"{r.n},{dyadic_decimal_str(r.relative_cost)},"
            f"{str(r.feasible).lower()},{n_b},"
            f"{model.unit_policy.value},{model.mode.value},{circuit_kind}"
        )
    return "\n".join(lines) + "\n"
