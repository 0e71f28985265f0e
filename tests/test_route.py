"""Routing tests: adjacency, unitary preservation, swap counts, cancellation."""
import random

import numpy as np
import pytest
from hypothesis import given, strategies as st

from qftcost.circuit import Circuit, DyadicAngle, Gate, GateKind
from qftcost.cost import paper_naive_swap_count, paper_reduced_swap_count
from qftcost.route import (
    MeetAt,
    RoutedCircuit,
    RoutingStrategy,
    cancel_swaps,
    route_lnn,
)
from qftcost.simulate import circuit_unitary
from qftcost.synth import LoweringLevel, build_aqft, build_qft, lower_circuit
from test_simulate import random_circuit

ALL_STRATEGIES = [
    RoutingStrategy.MOVE_CONTROL_TO_TARGET,
    RoutingStrategy.MOVE_TARGET_TO_CONTROL,
    MeetAt(2),
]


def _delete_one_pair(gates):
    """Delete the first identical swap pair with only spectators in between."""
    for i, g in enumerate(gates):
        if g.kind is not GateKind.SWAP:
            continue
        wires = set(g.qubits)
        for j in range(i + 1, len(gates)):
            h = gates[j]
            if h.kind is GateKind.SWAP and set(h.qubits) == wires:
                del gates[j]
                del gates[i]
                return True
            if wires & set(h.qubits):
                break
    return False


def fixpoint_cancel(gates):
    """Reference swap cancellation: delete one pair, restart from gate 0,
    until nothing cancels.  Quadratic or worse; small inputs only."""
    gates = list(gates)
    while _delete_one_pair(gates):
        pass
    return tuple(gates)


def all_two_qubit_adjacent(circuit):
    return all(
        abs(g.qubits[0] - g.qubits[1]) == 1 for g in circuit if g.is_two_qubit
    )


class TestRouteLnn:
    def test_adjacent_gate_untouched(self):
        c = Circuit(2, (Gate.cphase(0, 1, DyadicAngle(1, 1)),))
        r = route_lnn(c)
        assert r.circuit.gates == c.gates
        assert r.swap_count == 0

    def test_distance_three_swap_count(self):
        c = Circuit(4, (Gate.cphase(0, 3, DyadicAngle(1, 2)),))
        r = route_lnn(c, RoutingStrategy.MOVE_TARGET_TO_CONTROL)
        assert r.swap_count == 4  # 2*(3-0-1)
        # the gate lands on the far end
        gate = next(g for g in r.circuit if g.kind is GateKind.CPHASE)
        assert set(gate.qubits) == {2, 3}

    def test_move_control_lands_on_near_end(self):
        c = Circuit(4, (Gate.cphase(0, 3, DyadicAngle(1, 2)),))
        r = route_lnn(c, RoutingStrategy.MOVE_CONTROL_TO_TARGET)
        gate = next(g for g in r.circuit if g.kind is GateKind.CPHASE)
        assert set(gate.qubits) == {0, 1}
        assert r.swap_count == 4

    def test_meet_at_midpoint(self):
        c = Circuit(5, (Gate.cphase(0, 4, DyadicAngle(1, 2)),))
        r = route_lnn(c, MeetAt(2))
        gate = next(g for g in r.circuit if g.kind is GateKind.CPHASE)
        assert set(gate.qubits) == {2, 3}
        assert r.swap_count == 6

    def test_adjacency_invariant(self):
        for strategy in ALL_STRATEGIES:
            for n in range(2, 8):
                r = route_lnn(build_qft(n, True), strategy)
                assert all_two_qubit_adjacent(r.circuit)

    def test_unitary_preserved_qft(self):
        for strategy in ALL_STRATEGIES:
            for n in range(2, 8):
                base = build_qft(n)
                r = route_lnn(base, strategy)
                d = np.linalg.norm(circuit_unitary(r.circuit) - circuit_unitary(base))
                assert d <= 1e-10

    def test_unitary_preserved_random(self):
        rng = random.Random(21)
        for _ in range(100):
            n = rng.randrange(2, 7)
            c = random_circuit(rng, n, 12)
            r = route_lnn(c)
            assert all_two_qubit_adjacent(r.circuit)
            d = np.linalg.norm(circuit_unitary(r.circuit) - circuit_unitary(c))
            assert d <= 1e-10

    def test_xor_roles_preserved(self):
        # non-symmetric gate: target/control must follow the data
        c = Circuit(4, (Gate.xor(3, 0),))
        for strategy in ALL_STRATEGIES:
            r = route_lnn(c, strategy)
            assert np.linalg.norm(
                circuit_unitary(r.circuit) - circuit_unitary(c)
            ) <= 1e-12

    def test_permutation_identity_at_end(self):
        r = route_lnn(build_qft(5))
        assert r.logical_to_physical == tuple(range(5))

    def test_stage_tag(self):
        assert route_lnn(build_qft(3)).circuit.stage == "routed"


class TestCancelSwaps:
    def _routed(self, n, gates):
        return RoutedCircuit(
            Circuit(n, tuple(gates), stage="routed"),
            sum(1 for g in gates if g.kind is GateKind.SWAP),
            tuple(range(n)),
        )

    def test_adjacent_identical_pair_cancels(self):
        r = cancel_swaps(self._routed(2, [Gate.swap(0, 1), Gate.swap(0, 1)]))
        assert len(r.circuit) == 0 and r.swap_count == 0

    def test_commuting_spectator(self):
        r = cancel_swaps(
            self._routed(3, [Gate.swap(0, 1), Gate.h(2), Gate.swap(0, 1)])
        )
        assert r.circuit.gates == (Gate.h(2),)

    def test_blocking_gate(self):
        gates = [Gate.swap(0, 1), Gate.h(0), Gate.swap(0, 1)]
        r = cancel_swaps(self._routed(2, gates))
        assert r.circuit.gates == tuple(gates)

    def test_idempotent(self):
        for n in [*range(2, 8), 32]:
            once = cancel_swaps(route_lnn(build_qft(n)))
            twice = cancel_swaps(once)
            assert twice.circuit.gates == once.circuit.gates

    def test_monotone_and_unitary_preserving(self):
        for n in range(2, 8):
            base = build_qft(n)
            r = route_lnn(base)
            red = cancel_swaps(r)
            assert red.swap_count <= r.swap_count
            d = np.linalg.norm(circuit_unitary(red.circuit) - circuit_unitary(base))
            assert d <= 1e-10
            assert red.circuit.stage == "reduced"

    def test_reduced_qft_matches_chain_sharing_formula(self):
        # golden data: the peephole pass realizes exactly (n-1)(n-2) swaps
        # under the far-end routing strategy
        for n in [*range(2, 9), 16, 32, 48, 64]:
            red = cancel_swaps(
                route_lnn(build_qft(n), RoutingStrategy.MOVE_TARGET_TO_CONTROL)
            )
            assert red.swap_count == (n - 1) * (n - 2)


_ORACLE_KINDS = [
    GateKind.SWAP,
    GateKind.SWAP,
    GateKind.SWAP,
    GateKind.H,
    GateKind.RZ,
    GateKind.CPHASE,
    GateKind.XOR,
]


@st.composite
def _swap_heavy_circuits(draw):
    """Gate sequences on 2-6 wires, mostly swaps so that pairs meet."""
    n = draw(st.integers(2, 6))
    gates = []
    for _ in range(draw(st.integers(0, 40))):
        kind = draw(st.sampled_from(_ORACLE_KINDS))
        if kind in (GateKind.H, GateKind.RZ):
            q = draw(st.integers(0, n - 1))
            angle = None if kind is GateKind.H else DyadicAngle(1, 2)
            gates.append(Gate(kind, (q,), angle))
            continue
        a = draw(st.integers(0, n - 2))
        # mostly nearest neighbours, as routing emits them
        b = a + 1 if draw(st.booleans()) else draw(st.integers(a + 1, n - 1))
        if draw(st.booleans()):
            a, b = b, a
        angle = DyadicAngle(1, 3) if kind is GateKind.CPHASE else None
        gates.append(Gate(kind, (a, b), angle))
    return Circuit(n, tuple(gates), stage="routed")


def _routed_grid(n):
    strategies = [
        RoutingStrategy.MOVE_TARGET_TO_CONTROL,
        RoutingStrategy.MOVE_CONTROL_TO_TARGET,
        *(MeetAt(l) for l in range(n)),
    ]
    for m in sorted({n, n // 2, 2}):
        for bit_reversal in (False, True):
            base = build_aqft(n, m, bit_reversal)
            for level in (LoweringLevel.LOGICAL, LoweringLevel.ELEMENTARY):
                lowered = lower_circuit(base, level)
                for strategy in strategies:
                    yield route_lnn(lowered, strategy)


class TestCancelSwapsOracle:
    """The one-pass cancellation equals the restart-from-zero fixpoint."""

    @given(_swap_heavy_circuits())
    def test_random_sequences_match_fixpoint(self, circuit):
        swaps = circuit.gate_census()[GateKind.SWAP]
        routed = RoutedCircuit(circuit, swaps, tuple(range(circuit.num_qubits)))
        red = cancel_swaps(routed)
        expected = fixpoint_cancel(circuit.gates)
        assert red.circuit.gates == expected
        assert red.swap_count == sum(1 for g in expected if g.kind is GateKind.SWAP)

    @pytest.mark.parametrize("n", range(2, 13))
    def test_routed_qft_grid_matches_fixpoint(self, n):
        for routed in _routed_grid(n):
            red = cancel_swaps(routed)
            assert red.circuit.gates == fixpoint_cancel(routed.circuit.gates)


class TestOverheadReport:
    """Measured swap counts of the routed QFT next to the paper's formulas."""

    def test_n2_no_swaps(self):
        assert route_lnn(build_qft(2)).swap_count == 0
        assert paper_reduced_swap_count(2) == 0

    def test_n5_values(self):
        routed = route_lnn(build_qft(5), RoutingStrategy.MOVE_TARGET_TO_CONTROL)
        assert paper_naive_swap_count(5) == 30
        assert paper_reduced_swap_count(5) == 12
        # documented discrepancy: the construction yields 20, not the
        # quoted naive 30
        assert routed.swap_count == 20
        assert cancel_swaps(routed).swap_count == 12

    def test_measured_matches_pair_sum(self):
        # oracle: brute-force sum of 2*(k-j-1) over the QFT gate pairs
        for n in range(2, 10):
            expected = sum(
                2 * (k - j - 1) for j in range(n) for k in range(j + 1, n)
            )
            assert route_lnn(build_qft(n)).swap_count == expected

    def test_formula_helpers(self):
        assert paper_naive_swap_count(5) == 30
        assert paper_reduced_swap_count(5) == 12
