"""QFT/AQFT construction and lowering to the spin-hardware gate set.

Lowering targets the practical elementary set {H, Ry, Rz, Phi, Ising}:
controlled phases expand through XOR + Rz + Phi, and XOR itself expands
into single-qubit rotations around an Ising evolution.  The lowering level
is the only knob: the XOR level keeps XOR as an ideal gate, and the
elementary level expands every XOR into its physical sequence.
"""
from __future__ import annotations

from enum import Enum

from .circuit import QUBIT_CAP, Circuit, DyadicAngle, Gate, GateKind
from .errors import CapacityError


class LoweringLevel(Enum):
    LOGICAL = "logical"
    XOR = "xor"
    ELEMENTARY = "elementary"


_HALF_PI = DyadicAngle.pi_over_pow2(1)
_QUARTER_PI = DyadicAngle.pi_over_pow2(2)


def build_qft(n: int, include_bit_reversal: bool = False) -> Circuit:
    """QFT circuit on n qubits: per target j, H_j then controlled phases
    pi/2^(k-j) from each control k > j; optionally the final bit-reversal
    swaps.
    """
    return build_aqft(n, n, include_bit_reversal)


def build_aqft(n: int, m: int, include_bit_reversal: bool = False) -> Circuit:
    """Approximate QFT: drop controlled phases with control-target distance
    >= m.  m = n reproduces the exact QFT."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if n > QUBIT_CAP:
        raise CapacityError(f"n={n} exceeds qubit cap {QUBIT_CAP}")
    if not 1 <= m <= n:
        raise ValueError(f"m must be in [1, {n}], got {m}")
    gates: list[Gate] = []
    for j in range(n):
        gates.append(Gate.h(j))
        for k in range(j + 1, min(n, j + m)):
            gates.append(Gate.cphase(j, k, DyadicAngle.pi_over_pow2(k - j)))
    if include_bit_reversal:
        for i in range(n // 2):
            gates.append(Gate.swap(i, n - 1 - i))
    return Circuit(n, tuple(gates))


def lower_xor(j: int, k: int) -> Circuit:
    """Physical XOR(target=j, control=k) from Ry/Rz around an Ising step,
    as a circuit max(j, k) + 1 qubits wide.

    The product equals XOR up to a global phase (expected exp(-i*pi/4)).
    """
    return Circuit(
        max(j, k) + 1,
        (
            Gate.ry(j, _HALF_PI),
            Gate.ising(j, k, _QUARTER_PI),
            Gate.rz(j, -_HALF_PI),
            Gate.rz(k, -_HALF_PI),
            Gate.ry(j, -_HALF_PI),
        ),
        stage="lowered",
    )


def lower_cphase(
    j: int, k: int, theta: DyadicAngle, physical: bool = False
) -> Circuit:
    """Controlled phase C(target=j, control=k; theta) from two XORs, Rz
    pulses of theta/2, and a theta/4 phase shift, as a circuit
    max(j, k) + 1 qubits wide.

    With ideal XORs (the XOR lowering level) the product equals C(theta)
    exactly; with physical XORs (physical=True, the elementary level)
    equality holds up to a global phase.
    """
    half = theta.half()
    xor = lower_xor(j, k).gates if physical else (Gate.xor(j, k),)
    return Circuit(
        max(j, k) + 1,
        xor
        + (Gate.rz(j, half),)
        + xor
        + (Gate.rz(j, -half), Gate.phi(k, theta.quarter()), Gate.rz(k, -half)),
        stage="lowered",
    )


def lower_swap(j: int, k: int, physical: bool = False) -> Circuit:
    """Swap from three alternating XORs: ideal ones (the XOR lowering
    level), or with physical=True (the elementary level) their physical
    sequences, exact up to a global phase; max(j, k) + 1 qubits wide."""
    if physical:
        down, up = lower_xor(k, j).gates, lower_xor(j, k).gates
    else:
        down, up = (Gate.xor(k, j),), (Gate.xor(j, k),)
    return Circuit(max(j, k) + 1, down + up + down, stage="lowered")


def lower_circuit(circuit: Circuit, level: LoweringLevel) -> Circuit:
    """Expand a circuit gate by gate to the requested lowering level."""
    if level is LoweringLevel.LOGICAL:
        return circuit
    physical = level is LoweringLevel.ELEMENTARY
    n = circuit.num_qubits
    gates: list[Gate] = []
    for g in circuit:
        if g.kind is GateKind.CPHASE:
            gates.extend(lower_cphase(*g.qubits, g.angle, physical))
        elif g.kind is GateKind.SWAP:
            gates.extend(lower_swap(*g.qubits, physical))
        elif g.kind is GateKind.XOR and physical:
            gates.extend(lower_xor(*g.qubits))
        else:
            gates.append(g)
    return Circuit(n, tuple(gates), stage="lowered")
