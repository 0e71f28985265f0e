"""Simulator oracle tests: gate matrices, unitarity, DFT, phase equivalence."""
import cmath
import math
import random

import numpy as np
import pytest

from qftcost.circuit import Circuit, DyadicAngle, Gate, GateKind, angle_canonicalize
from qftcost.errors import CapacityError
from qftcost.simulate import (
    apply_circuit,
    circuit_unitary,
    dft_matrix,
    equal_up_to_global_phase,
    gate_unitary,
)

PI = DyadicAngle(1, 0)
HALF_PI = DyadicAngle(1, 1)
QUARTER_PI = DyadicAngle(1, 2)


def random_circuit(rng, n, length=20):
    one_qubit = [GateKind.H, GateKind.RY, GateKind.RZ, GateKind.GLOBAL_PHASE]
    kinds = list(GateKind) if n >= 2 else one_qubit
    gates = []
    for _ in range(length):
        kind = rng.choice(kinds)
        angle = None
        if kind not in (GateKind.H, GateKind.XOR, GateKind.SWAP):
            angle = angle_canonicalize(rng.randrange(-64, 65), rng.randrange(0, 7))
        if kind in (GateKind.CPHASE, GateKind.ISING, GateKind.XOR, GateKind.SWAP):
            a, b = rng.sample(range(n), 2)
            gates.append(Gate(kind, (a, b), angle))
        else:
            gates.append(Gate(kind, (rng.randrange(n),), angle))
    return Circuit(n, tuple(gates))


class TestGateUnitary:
    def test_rz_zero_is_identity(self):
        u = gate_unitary(Gate.rz(0, DyadicAngle.zero()), 1)
        assert np.allclose(u, np.eye(2))

    def test_cphase_pi_is_cz(self):
        u = gate_unitary(Gate.cphase(0, 1, PI), 2)
        assert np.allclose(u, np.diag([1, 1, 1, -1]))

    def test_ising_quarter_pi_matrix(self):
        u = gate_unitary(Gate.ising(0, 1, QUARTER_PI), 2)
        p = cmath.exp(1j * math.pi / 4)
        assert np.allclose(u, np.diag([p, p.conjugate(), p.conjugate(), p]))

    def test_hadamard(self):
        u = gate_unitary(Gate.h(0), 1)
        assert np.allclose(u, np.array([[1, 1], [1, -1]]) / math.sqrt(2))

    def test_ry_sign_convention(self):
        # rows [cos, sin; -sin, cos] with half-angle argument
        u = gate_unitary(Gate.ry(0, HALF_PI), 1)
        c = s = math.cos(math.pi / 4)
        assert np.allclose(u, np.array([[c, s], [-s, c]]))

    def test_xor_flips_target_on_control(self):
        # qubit 0 (target) is the most significant bit
        u = gate_unitary(Gate.xor(0, 1), 2)
        expected = np.zeros((4, 4))
        expected[0, 0] = expected[2, 2] = 1  # control 0: no-op
        expected[3, 1] = expected[1, 3] = 1  # control 1: flip high bit
        assert np.allclose(u, expected)

    def test_embedding_identity_on_untouched_qubits(self):
        u = gate_unitary(Gate.h(1), 3)
        expected = np.kron(np.kron(np.eye(2), gate_unitary(Gate.h(0), 1)), np.eye(2))
        assert np.allclose(u, expected)

    def test_over_cap_raises(self):
        with pytest.raises(CapacityError):
            gate_unitary(Gate.h(0), 13)

    def test_all_gate_kinds_unitary(self):
        rng = random.Random(7)
        for _ in range(100):
            c = random_circuit(rng, 3, length=1)
            u = gate_unitary(c.gates[0], 3)
            assert np.linalg.norm(u.conj().T @ u - np.eye(8)) < 1e-12


class TestCircuitUnitary:
    def test_empty_is_identity(self):
        assert np.allclose(circuit_unitary(Circuit(3)), np.eye(8))

    def test_single_h(self):
        c = Circuit(1, (Gate.h(0),))
        assert np.allclose(circuit_unitary(c), gate_unitary(Gate.h(0), 1))

    def test_xor_involution(self):
        c = Circuit(2, (Gate.xor(0, 1), Gate.xor(0, 1)))
        assert np.allclose(circuit_unitary(c), np.eye(4))

    def test_unitarity_random_circuits(self):
        rng = random.Random(1)
        for _ in range(300):
            n = rng.randrange(1, 7)
            u = circuit_unitary(random_circuit(rng, n))
            assert np.linalg.norm(u.conj().T @ u - np.eye(1 << n)) <= 1e-10

    def test_composition(self):
        rng = random.Random(2)
        for _ in range(30):
            n = rng.randrange(1, 6)
            c1 = random_circuit(rng, n, 8)
            c2 = random_circuit(rng, n, 8)
            combined = Circuit(n, c1.gates + c2.gates)
            u = circuit_unitary(c2) @ circuit_unitary(c1)
            assert np.linalg.norm(circuit_unitary(combined) - u) <= 1e-12


class TestApply:
    def test_identity_circuit(self):
        state = np.zeros(8)
        state[0] = 1.0
        assert np.allclose(apply_circuit(Circuit(3), state), state)

    def test_qft_on_zero_gives_uniform(self):
        from qftcost.synth import build_qft

        for n in range(1, 6):
            state = np.zeros(1 << n)
            state[0] = 1.0
            out = apply_circuit(build_qft(n, True), state)
            assert np.allclose(out, np.full(1 << n, 1 / math.sqrt(1 << n)))

    def test_two_qubit_qft_on_one(self):
        # oracle: direct DFT action on |x=1>, N=4 -> (1, i, -1, -i)/2
        from qftcost.synth import build_qft

        state = np.zeros(4)
        state[1] = 1.0
        out = apply_circuit(build_qft(2, True), state)
        assert np.allclose(out, np.array([1, 1j, -1, -1j]) / 2, atol=1e-12)

    def test_matches_unitary_columns(self):
        rng = random.Random(3)
        for _ in range(50):
            n = rng.randrange(1, 7)
            c = random_circuit(rng, n)
            u = circuit_unitary(c)
            i = rng.randrange(1 << n)
            e = np.zeros(1 << n)
            e[i] = 1.0
            assert np.linalg.norm(apply_circuit(c, e) - u[:, i]) <= 1e-12

    def test_norm_preserved(self):
        rng = random.Random(4)
        for _ in range(50):
            n = rng.randrange(1, 6)
            c = random_circuit(rng, n)
            v = np.array([rng.gauss(0, 1) + 1j * rng.gauss(0, 1) for _ in range(1 << n)])
            v /= np.linalg.norm(v)
            assert abs(np.linalg.norm(apply_circuit(c, v)) - 1.0) <= 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            apply_circuit(Circuit(2), np.zeros(3))


class TestDftMatrix:
    def test_n1_is_hadamard(self):
        assert np.allclose(dft_matrix(1), gate_unitary(Gate.h(0), 1))

    def test_n2_entry(self):
        # oracle: exp(2*pi*i*1*1/4)/sqrt(4) = i/2
        assert np.isclose(dft_matrix(2)[1, 1], 0.5j)

    def test_unitary(self):
        for n in range(1, 8):
            f = dft_matrix(n)
            assert np.linalg.norm(f.conj().T @ f - np.eye(1 << n)) <= 1e-12


class TestGlobalPhaseEquivalence:
    def test_recovers_injected_phase(self):
        u = dft_matrix(3)
        lam = cmath.exp(1j * math.pi / 7)
        ok, rec = equal_up_to_global_phase(lam * u, u, 1e-10)
        assert ok and abs(rec - lam) < 1e-12

    def test_distinct_matrices(self):
        ok, rec = equal_up_to_global_phase(np.eye(2), gate_unitary(Gate.h(0), 1), 1e-10)
        assert (ok, rec) == (False, None)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            equal_up_to_global_phase(np.eye(2), np.eye(4))

    def test_equivalence_relation(self):
        rng = random.Random(5)
        tol = 1e-10
        us = [circuit_unitary(random_circuit(rng, 3, 10)) for _ in range(5)]
        phased = [cmath.exp(1j * rng.uniform(0, 6)) * u for u in us]
        for u, v in zip(us, phased):
            assert equal_up_to_global_phase(u, u, tol)[0]  # reflexive
            assert equal_up_to_global_phase(u, v, tol)[0]
            assert equal_up_to_global_phase(v, u, tol)[0]  # symmetric
        # transitive within 3x tolerance slack
        w = cmath.exp(0.3j) * phased[0]
        assert equal_up_to_global_phase(us[0], w, 3 * tol)[0]
