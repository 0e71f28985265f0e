"""Synthesis and lowering tests: QFT/AQFT structure, XOR and controlled-phase
decompositions, whole-circuit lowering."""
import cmath
import math
import random

import numpy as np
import pytest

from qftcost.circuit import Circuit, DyadicAngle, Gate, GateKind, angle_canonicalize
from qftcost.simulate import (
    circuit_unitary,
    dft_matrix,
    equal_up_to_global_phase,
    gate_unitary,
)
from qftcost.synth import (
    LoweringLevel,
    build_aqft,
    build_qft,
    lower_circuit,
    lower_cphase,
    lower_swap,
    lower_xor,
)

SQRT_MINUS_I = cmath.exp(-1j * math.pi / 4)


class TestBuildQft:
    def test_n1_is_single_hadamard(self):
        c = build_qft(1)
        assert c.gates == (Gate.h(0),)

    def test_n3_census(self):
        c = build_qft(3)
        counts = c.gate_census()
        assert counts[GateKind.H] == 3 and counts[GateKind.CPHASE] == 3
        with_rev = build_qft(3, include_bit_reversal=True)
        assert with_rev.gate_census()[GateKind.SWAP] == 1

    def test_n5_census_matches_pair_count(self):
        counts = build_qft(5).gate_census()
        assert counts[GateKind.CPHASE] == 10  # n(n-1)/2
        assert counts[GateKind.H] == 5

    def test_cphase_angles_follow_distance(self):
        for g in build_qft(6):
            if g.kind is GateKind.CPHASE:
                j, k = g.qubits
                assert g.angle == DyadicAngle.pi_over_pow2(k - j)

    def test_invalid_n(self):
        with pytest.raises(ValueError):
            build_qft(0)

    def test_matches_dft_up_to_phase(self):
        for n in range(1, 9):
            u = circuit_unitary(build_qft(n, include_bit_reversal=True))
            ok, lam = equal_up_to_global_phase(u, dft_matrix(n), 1e-10)
            assert ok, f"QFT({n}) does not match the DFT matrix"

    def test_without_reversal_differs_from_dft(self):
        u = circuit_unitary(build_qft(4))
        ok, _ = equal_up_to_global_phase(u, dft_matrix(4), 1e-10)
        assert not ok


class TestBuildAqft:
    def test_m_equals_n_reproduces_qft(self):
        for n in range(1, 11):
            assert build_aqft(n, n).gates == build_qft(n).gates

    def test_m_one_keeps_only_hadamards(self):
        c = build_aqft(5, 1)
        assert all(g.kind is GateKind.H for g in c)
        assert len(c) == 5

    def test_n5_m2_census(self):
        counts = build_aqft(5, 2).gate_census()
        assert counts[GateKind.H] == 5 and counts[GateKind.CPHASE] == 4

    def test_m_out_of_range(self):
        with pytest.raises(ValueError):
            build_aqft(4, 0)
        with pytest.raises(ValueError):
            build_aqft(4, 5)

    def test_nesting_subsequence(self):
        for n in range(2, 9):
            full = list(build_qft(n).gates)
            for m in range(1, n + 1):
                sub = list(build_aqft(n, m).gates)
                it = iter(full)
                assert all(g in it for g in sub), f"AQFT({n},{m}) not a subsequence"

    def test_fidelity_profile(self):
        for n in range(2, 9):
            f = dft_matrix(n)

            def fidelity(m):
                u = circuit_unitary(build_aqft(n, m, include_bit_reversal=True))
                return abs(np.trace(f.conj().T @ u)) / (1 << n)

            assert fidelity(n) >= 1 - 1e-10
            assert fidelity(1) < fidelity(n)


class TestLowerXor:
    def test_five_gate_census(self):
        counts = lower_xor(0, 1).gate_census()
        assert counts[GateKind.RY] == 2
        assert counts[GateKind.RZ] == 2
        assert counts[GateKind.ISING] == 1

    def test_matches_xor_up_to_phase_both_orderings(self):
        for (j, k) in [(0, 1), (1, 0)]:
            u = circuit_unitary(lower_xor(j, k))
            ideal = gate_unitary(Gate.xor(j, k), 2)
            ok, lam = equal_up_to_global_phase(u, ideal, 1e-11)
            assert ok
            # recovered phase should be sqrt(-i); see cover note in module
            assert abs(lam - SQRT_MINUS_I) < 1e-12

    def test_phase_constant_across_placements(self):
        phases = []
        for (j, k) in [(0, 1), (1, 0), (1, 2), (2, 1), (0, 2)]:
            n = max(j, k) + 1
            u = circuit_unitary(Circuit(n, lower_xor(j, k).gates))
            ok, lam = equal_up_to_global_phase(u, gate_unitary(Gate.xor(j, k), n), 1e-11)
            assert ok
            phases.append(lam)
        assert all(abs(p - phases[0]) < 1e-12 for p in phases)

    def test_applied_twice_is_identity_up_to_phase(self):
        c = lower_xor(0, 1)
        u = circuit_unitary(Circuit(c.num_qubits, c.gates * 2))
        ok, _ = equal_up_to_global_phase(u, np.eye(4), 1e-10)
        assert ok

    def test_same_index_rejected(self):
        with pytest.raises(ValueError):
            lower_xor(2, 2)


class TestLowerCphase:
    def test_zero_angle_is_identity(self):
        u = circuit_unitary(lower_cphase(0, 1, DyadicAngle.zero()))
        assert np.linalg.norm(u - np.eye(4)) <= 1e-12

    def test_half_pi_matches_cz_quarter(self):
        u = circuit_unitary(lower_cphase(0, 1, DyadicAngle(1, 1)))
        assert np.linalg.norm(u - np.diag([1, 1, 1, 1j])) <= 1e-12

    def test_ideal_mode_exact_no_phase_allowance(self):
        rng = random.Random(11)
        angles = [DyadicAngle.pi_over_pow2(j) for j in range(0, 11)]
        angles += [
            angle_canonicalize(rng.randrange(-999, 1000), rng.randrange(0, 12))
            for _ in range(50)
        ]
        for theta in angles:
            u = circuit_unitary(lower_cphase(0, 1, theta))
            c = gate_unitary(Gate.cphase(0, 1, theta), 2)
            assert np.linalg.norm(u - c) <= 1e-11

    def test_physical_mode_phase_is_two_xor_phases(self):
        theta = DyadicAngle.pi_over_pow2(2)
        u = circuit_unitary(lower_cphase(0, 1, theta, physical=True))
        c = gate_unitary(Gate.cphase(0, 1, theta), 2)
        ok, lam = equal_up_to_global_phase(u, c, 1e-10)
        assert ok
        assert abs(lam - SQRT_MINUS_I**2) < 1e-12

    def test_same_index_rejected(self):
        with pytest.raises(ValueError):
            lower_cphase(1, 1, DyadicAngle(1, 1))


class TestLowerSwap:
    def test_exact_swap_matrix(self):
        u = circuit_unitary(lower_swap(0, 1))
        assert np.linalg.norm(u - gate_unitary(Gate.swap(0, 1), 2)) <= 1e-12

    def test_twice_is_identity(self):
        u = circuit_unitary(Circuit(2, lower_swap(0, 1).gates * 2))
        assert np.linalg.norm(u - np.eye(4)) <= 1e-12

    def test_exchanges_basis_states(self):
        from qftcost.simulate import apply_circuit

        state = np.zeros(4)
        state[2] = 1.0  # |10>
        out = apply_circuit(lower_swap(0, 1), state)
        expected = np.zeros(4)
        expected[1] = 1.0  # |01>
        assert np.allclose(out, expected)

    def test_physical_mode_up_to_phase(self):
        u = circuit_unitary(lower_swap(0, 1, physical=True))
        ok, _ = equal_up_to_global_phase(u, gate_unitary(Gate.swap(0, 1), 2), 1e-10)
        assert ok


class TestLowerCircuit:
    def test_logical_level_unchanged(self):
        c = build_qft(3)
        assert lower_circuit(c, LoweringLevel.LOGICAL) is c

    def test_elementary_gate_set(self):
        c = lower_circuit(build_qft(3, True), LoweringLevel.ELEMENTARY)
        allowed = {GateKind.H, GateKind.RY, GateKind.RZ, GateKind.GLOBAL_PHASE, GateKind.ISING}
        assert {g.kind for g in c} <= allowed

    def test_xor_level_unitary_matches_dft(self):
        c = lower_circuit(build_qft(3, True), LoweringLevel.XOR)
        ok, _ = equal_up_to_global_phase(circuit_unitary(c), dft_matrix(3), 1e-9)
        assert ok

    def test_elementary_level_unitary_preserved(self):
        for n in range(2, 6):
            base = build_qft(n, True)
            lowered = lower_circuit(base, LoweringLevel.ELEMENTARY)
            ok, _ = equal_up_to_global_phase(
                circuit_unitary(lowered), circuit_unitary(base), 1e-9
            )
            assert ok

    def test_lowering_preserves_touched_qubits(self):
        c = build_qft(4, True)
        lowered = lower_circuit(c, LoweringLevel.ELEMENTARY)
        assert lowered.stage == "lowered"
        touched = set()
        for g in c:
            touched.update(g.qubits)
        lowered_touched = set()
        for g in lowered:
            lowered_touched.update(g.qubits)
        assert lowered_touched == touched
