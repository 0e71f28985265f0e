"""Independent references for checking benchmark job outputs.

Nothing here imports qftcost.  Expected values come from the paper's closed
forms, from counting gates by hand, from numpy's FFT, or from a small
state-vector simulator written against the gate definitions of the circuit
IR (qubit 0 is the most significant bit of a basis index).

A gate is a tuple ``(kind, qubits, numerator, log2_denominator)`` with the
IR's kind names; the angle is ``numerator * pi / 2**log2_denominator`` and
both angle fields are None for angle-free kinds.
"""
from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

CSV_HEADER = "n,relative_cost,feasible,n_b,policy,mode,circuit"

#: Kinds whose duration follows the rotation angle in duration mode.
ANGLE_COST_KINDS = frozenset({"CPhase", "Ising", "Rz", "Phi"})
#: Kinds that take a fixed pulse time.
FIXED_KINDS = frozenset({"H", "Ry", "Xor", "Swap"})


# -- closed forms --------------------------------------------------------
def cutoff(n: int, m: int) -> int:
    """Largest control-target distance kept by AQFT(n, m)."""
    return min(m, n) - 1


def cphase_count(n: int, m: int) -> int:
    """Controlled phases in AQFT(n, m): sum over d = 1..K of (n - d)."""
    k = cutoff(n, m)
    return k * n - k * (k + 1) // 2


def intensity_cost(n: int, m: int) -> int:
    """Intensity-mode cost of AQFT(n, m): one unit per gate, n + K*n - K(K+1)/2."""
    return n + cphase_count(n, m)


def rotation_cost(n: int, m: int, policy: str) -> Fraction:
    """Controlled-rotation cost of AQFT(n, m) in units of the policy's angle.

    The exact QFT uses the paper's forms (tau0: n + 2^(1-n) - 2, tauN:
    (n-2)*2^(n-1) + 1); a cutoff uses n - 2 - (n-K-2)*2^-K, scaled by
    2^(n-1) under tauN.
    """
    if m >= n:
        if policy == "tau0":
            return n + Fraction(2, 1 << n) - 2
        return Fraction((n - 2) * (1 << (n - 1)) + 1)
    k = cutoff(n, m)
    tau0 = n - 2 - Fraction(n - k - 2, 1 << k)
    return tau0 if policy == "tau0" else tau0 * (1 << (n - 1))


def paper_naive_swaps(n: int) -> int:
    return (n - 1) * n * (2 * n - 1) // 6


def paper_reduced_swaps(n: int) -> int:
    """The paper's swap count for the QFT after shared swap chains cancel."""
    return (n - 1) * (n - 2)


def _bit_reversal_distances(n: int) -> list[int]:
    return [n - 1 - 2 * i for i in range(n // 2)]


def logical_routed_swaps(n: int, m: int, bit_reversal: bool) -> int:
    """Swaps after routing AQFT(n, m): 2(d-1) around each distance-d gate,
    and each bit-reversal swap is kept as one more adjacent swap."""
    total = sum((n - d) * 2 * (d - 1) for d in range(2, cutoff(n, m) + 1))
    if bit_reversal:
        total += sum(2 * (d - 1) + 1 for d in _bit_reversal_distances(n))
    return total


def elementary_routed_swaps(n: int, bit_reversal: bool) -> int:
    """Swaps after routing the elementary-lowered QFT: each controlled phase
    becomes two Ising steps and each bit-reversal swap three, all on the
    original pair of registers."""
    total = sum((n - d) * 4 * (d - 1) for d in range(2, n))
    if bit_reversal:
        total += sum(6 * (d - 1) for d in _bit_reversal_distances(n))
    return total


def elementary_ising_count(n: int, bit_reversal: bool) -> int:
    return 2 * cphase_count(n, n) + (3 * (n // 2) if bit_reversal else 0)


def duration_n_b(t_ref: float, t_res: float) -> int:
    """Largest n whose smallest QFT rotation t_ref / 2^(n-1) still meets t_res."""
    n = 0
    while Fraction(t_ref) / (1 << n) >= Fraction(t_res):
        n += 1
    return n


def curve_row(n: int, m: int, mode: str, policy: str, t_res: float, t_ref: float):
    """(relative cost, feasible, n_b cell) of one cost-curve row; fixed pulses free."""
    if mode == "intensity":
        return Fraction(intensity_cost(n, m)), Fraction(t_ref) >= Fraction(t_res), ""
    smallest = Fraction(t_ref) / (1 << cutoff(n, m))
    feasible = policy == "tauN" or smallest >= Fraction(t_res)
    return rotation_cost(n, m, policy), feasible, str(duration_n_b(t_ref, t_res))


def reduced_turns(numerator: int, log2_denominator: int) -> Fraction:
    """Angle / pi reduced modulo 2 into (-1, 1]."""
    f = Fraction(numerator, 1 << log2_denominator)
    return f - 2 * math.ceil((f - 1) / 2)


def price_tau_n(n: int, gates, fixed_relative: Fraction):
    """Duration-mode cost per gate class with the tauN unit pi / 2^(n-1), and
    the shortest positive gate duration (None when every gate is free)."""
    classes = {"controlled_rotation": Fraction(0), "single_qubit_rotation": Fraction(0),
               "fixed_gates": Fraction(0), "swap": Fraction(0)}
    scale = 1 << (n - 1)
    smallest = None
    durations: dict[tuple[int, int], Fraction] = {}  # angles repeat across gates
    for kind, _, num, log2den in gates:
        if kind in ANGLE_COST_KINDS:
            d = durations.get((num, log2den))
            if d is None:
                d = durations[num, log2den] = abs(reduced_turns(num, log2den)) * scale
            key = "controlled_rotation" if kind in ("CPhase", "Ising") else "single_qubit_rotation"
        else:
            d = fixed_relative
            key = "swap" if kind == "Swap" else "fixed_gates"
        classes[key] += d
        if d > 0 and (smallest is None or d < smallest):
            smallest = d
    return classes, smallest


# -- state-vector reference ---------------------------------------------
def aqft_gates(n: int, m: int, bit_reversal: bool) -> list[tuple]:
    """AQFT(n, m) written out from its definition: H on each target j, then
    phases pi/2^(k-j) controlled by k for 0 < k - j < m, then the optional
    bit-reversal swaps."""
    gates: list[tuple] = []
    for j in range(n):
        gates.append(("H", (j,), None, None))
        for k in range(j + 1, min(n, j + m)):
            gates.append(("CPhase", (j, k), 1, k - j))
    if bit_reversal:
        gates += [("Swap", (i, n - 1 - i), None, None) for i in range(n // 2)]
    return gates


def simulate(n: int, gates, state: np.ndarray) -> np.ndarray:
    """Apply gates (first acts first) to a copy of a 2^n state vector."""
    psi = np.array(state, dtype=complex)
    idx = np.arange(1 << n)
    bit = [((idx >> (n - 1 - q)) & 1).astype(bool) for q in range(n)]
    mask = [1 << (n - 1 - q) for q in range(n)]
    for kind, qubits, num, log2den in gates:
        theta = 0.0 if num is None else math.ldexp(float(num), -log2den) * math.pi
        q = qubits[0]
        if kind in ("H", "Ry"):
            lo = idx[~bit[q]]
            hi = lo | mask[q]
            a, b = psi[lo], psi[hi]
            if kind == "H":
                psi[lo], psi[hi] = (a + b) / math.sqrt(2.0), (a - b) / math.sqrt(2.0)
            else:
                c, s = math.cos(theta / 2), math.sin(theta / 2)
                psi[lo], psi[hi] = c * a + s * b, c * b - s * a
        elif kind == "Rz":
            psi *= np.where(bit[q], np.exp(-0.5j * theta), np.exp(0.5j * theta))
        elif kind == "Phi":
            psi *= np.exp(1j * theta)
        elif kind == "CPhase":
            psi[bit[q] & bit[qubits[1]]] *= np.exp(1j * theta)
        elif kind == "Ising":
            psi *= np.where(bit[q] == bit[qubits[1]], np.exp(1j * theta), np.exp(-1j * theta))
        elif kind == "Xor":  # flip the target q where the control is 1
            sel = idx[bit[qubits[1]] & ~bit[q]]
            psi[sel], psi[sel | mask[q]] = psi[sel | mask[q]], psi[sel]
        elif kind == "Swap":
            a, b = qubits
            sel = idx[bit[a] & ~bit[b]]
            partner = sel ^ mask[a] ^ mask[b]
            psi[sel], psi[partner] = psi[partner], psi[sel]
        else:
            raise ValueError(f"unknown gate kind {kind!r}")
    return psi


def dft(state: np.ndarray, bit_reversal: bool = True) -> np.ndarray:
    """The QFT's action, F[c, x] = exp(2 pi i c x / N) / sqrt(N), via numpy's
    FFT; without the bit-reversal swaps the output index is bit-reversed."""
    out = np.fft.ifft(state) * math.sqrt(len(state))
    if bit_reversal:
        return out
    n = len(state).bit_length() - 1
    rev = [int(format(i, f"0{n}b")[::-1], 2) for i in range(len(state))] if n else [0]
    return out[rev]


def phase_residual(got: np.ndarray, want: np.ndarray) -> float:
    """Distance between got and want after the best global phase on want."""
    inner = np.vdot(want, got)
    lam = inner / abs(inner) if abs(inner) > 0 else 1.0
    return float(np.linalg.norm(got - lam * want))


def random_state(rng: np.random.Generator, n: int) -> np.ndarray:
    x = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    return x / np.linalg.norm(x)
