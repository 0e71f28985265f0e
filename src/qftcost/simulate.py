"""Dense unitary / state-vector oracle for small circuits.

Basis convention: for an n-qubit register, qubit 0 is the MOST significant
bit of the basis index.  For two-qubit gate matrices the target qubit is
the more significant bit of the 4x4 block ordering.
"""
from __future__ import annotations

import cmath
import math

import numpy as np

from .circuit import Circuit, Gate, GateKind
from .errors import CapacityError

#: Largest width for which full 2^n x 2^n unitaries are built.
MATRIX_QUBIT_CAP = 12
#: Largest width for the state-vector path.
STATE_QUBIT_CAP = 20

_H = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / math.sqrt(2.0)


def _base_matrix(gate: Gate) -> np.ndarray:
    """The 2x2 or 4x4 matrix of a gate (target = more significant bit)."""
    kind = gate.kind
    if kind is GateKind.H:
        return _H
    if kind is GateKind.RY:
        t = gate.angle.radians / 2.0
        c, s = math.cos(t), math.sin(t)
        return np.array([[c, s], [-s, c]], dtype=complex)
    if kind is GateKind.RZ:
        p = cmath.exp(0.5j * gate.angle.radians)
        return np.array([[p, 0.0], [0.0, p.conjugate()]], dtype=complex)
    if kind is GateKind.GLOBAL_PHASE:
        p = cmath.exp(1j * gate.angle.radians)
        return np.array([[p, 0.0], [0.0, p]], dtype=complex)
    if kind is GateKind.CPHASE:
        p = cmath.exp(1j * gate.angle.radians)
        return np.diag([1.0, 1.0, 1.0, p]).astype(complex)
    if kind is GateKind.ISING:
        p = cmath.exp(1j * gate.angle.radians)
        q = p.conjugate()
        return np.diag([p, q, q, p]).astype(complex)
    if kind is GateKind.XOR:
        # flips the target (high bit) when the control (low bit) is 1
        m = np.zeros((4, 4), dtype=complex)
        m[0, 0] = m[2, 2] = 1.0
        m[3, 1] = m[1, 3] = 1.0
        return m
    if kind is GateKind.SWAP:
        m = np.zeros((4, 4), dtype=complex)
        m[0, 0] = m[3, 3] = 1.0
        m[1, 2] = m[2, 1] = 1.0
        return m
    raise ValueError(f"unknown gate kind {kind}")


def _apply_gate(gate: Gate, array: np.ndarray, n: int) -> np.ndarray:
    """Apply a gate to array of shape (2^n, cols); qubit j <-> tensor axis j."""
    cols = array.shape[1]
    tensor = array.reshape((2,) * n + (cols,))
    mat = _base_matrix(gate)
    if len(gate.qubits) == 1:
        (q,) = gate.qubits
        out = np.tensordot(mat, tensor, axes=([1], [q]))
        out = np.moveaxis(out, 0, q)
    else:
        qt, qc = gate.qubits
        m4 = mat.reshape(2, 2, 2, 2)  # (t_out, c_out, t_in, c_in)
        out = np.tensordot(m4, tensor, axes=([2, 3], [qt, qc]))
        out = np.moveaxis(out, [0, 1], [qt, qc])
    return np.ascontiguousarray(out).reshape(1 << n, cols)


def gate_unitary(gate: Gate, n: int) -> np.ndarray:
    """Embed a gate into the full 2^n-dimensional unitary."""
    return circuit_unitary(Circuit(n, (gate,)))


def circuit_unitary(circuit: Circuit) -> np.ndarray:
    """Ordered product of gate unitaries (later gates multiply on the left)."""
    n = circuit.num_qubits
    if n > MATRIX_QUBIT_CAP:
        raise CapacityError(f"n={n} exceeds matrix cap {MATRIX_QUBIT_CAP}")
    u = np.eye(1 << n, dtype=complex)
    for g in circuit:
        u = _apply_gate(g, u, n)
    return u


def apply_circuit(circuit: Circuit, state: np.ndarray) -> np.ndarray:
    """Apply a circuit to a state vector via per-gate updates."""
    n = circuit.num_qubits
    if n > STATE_QUBIT_CAP:
        raise CapacityError(f"n={n} exceeds state cap {STATE_QUBIT_CAP}")
    state = np.asarray(state, dtype=complex)
    if state.shape != (1 << n,):
        raise ValueError(
            f"state has dimension {state.shape}, expected ({1 << n},)"
        )
    col = state.reshape(-1, 1)
    for g in circuit:
        col = _apply_gate(g, col, n)
    return col.reshape(-1)


def dft_matrix(n: int) -> np.ndarray:
    """The DFT matrix with base N = 2^n: F[c, x] = exp(2*pi*i*c*x/N)/sqrt(N)."""
    if n > MATRIX_QUBIT_CAP:
        raise CapacityError(f"n={n} exceeds matrix cap {MATRIX_QUBIT_CAP}")
    dim = 1 << n
    idx = np.arange(dim)
    return np.exp(2j * np.pi * np.outer(idx, idx) / dim) / math.sqrt(dim)


def equal_up_to_global_phase(
    a: np.ndarray, b: np.ndarray, tol: float = 1e-10
) -> tuple[bool, complex | None]:
    """Whether a == lambda * b for some unit-modulus lambda.

    Returns (True, lambda) on success, (False, None) otherwise.  Lambda is
    recovered from the largest-magnitude entry of b^dagger a, which stays
    away from near-zero divisions.
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch {a.shape} vs {b.shape}")
    m = b.conj().T @ a
    flat = int(np.argmax(np.abs(m)))
    pivot = m.flat[flat]
    if abs(pivot) == 0.0:
        return (False, None)
    lam = pivot / abs(pivot)
    if np.linalg.norm(a - lam * b) <= tol:
        return (True, complex(lam))
    return (False, None)
