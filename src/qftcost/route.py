"""Linear nearest-neighbor routing via adjacent swaps, plus swap cancellation.

Every non-adjacent two-qubit gate is conjugated by a chain of adjacent
swaps (2*(k-j-1) of them for endpoints j < k), so the unitary is preserved
exactly and the logical-to-physical map returns to the identity after each
routed block.  A cancellation pass then deletes swap pairs that Fig.-2-style
shared chains make redundant.  Gates on disjoint wires commute and a swap
is its own inverse, so this is cancellation of involutions in a partially
commutative gate sequence: one left-to-right pass over a stack of live gate
indices per wire reaches the fixed point in O(G) for G gates.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .circuit import Circuit, Gate, GateKind


class RoutingStrategy(Enum):
    #: swap the far qubit's data down next to the near endpoint
    MOVE_CONTROL_TO_TARGET = "move_control_to_target"
    #: chain the near qubit's data up to sit beside the far endpoint
    MOVE_TARGET_TO_CONTROL = "move_target_to_control"


@dataclass(frozen=True)
class MeetAt:
    """Meet-in-the-middle strategy: both endpoints chain toward position l."""

    meeting_point: int


Strategy = RoutingStrategy | MeetAt

DEFAULT_STRATEGY = RoutingStrategy.MOVE_TARGET_TO_CONTROL


@dataclass(frozen=True)
class RoutedCircuit:
    """A routed circuit; swap_count is the number of Swap gates it contains."""

    circuit: Circuit
    swap_count: int
    logical_to_physical: tuple[int, ...]


def _swap_plan(
    j: int, k: int, strategy: Strategy
) -> tuple[list[tuple[int, int]], tuple[int, int]]:
    """Pre-swaps and the adjacent positions (pos of j's data, pos of k's data).

    Post-swaps are the pre-swaps reversed.
    """
    if strategy is RoutingStrategy.MOVE_CONTROL_TO_TARGET:
        pre = [(m, m + 1) for m in range(k - 1, j, -1)]
        return pre, (j, j + 1)
    if strategy is RoutingStrategy.MOVE_TARGET_TO_CONTROL:
        pre = [(m, m + 1) for m in range(j, k - 1)]
        return pre, (k - 1, k)
    l = min(max(strategy.meeting_point, j + 1), k - 1)
    pre = [(m, m + 1) for m in range(k - 1, l, -1)]
    pre += [(m, m + 1) for m in range(j, l)]
    return pre, (l, l + 1)


def route_lnn(circuit: Circuit, strategy: Strategy = DEFAULT_STRATEGY) -> RoutedCircuit:
    """Replace each non-adjacent two-qubit gate with its swap-conjugated
    adjacent form; adjacent and single-qubit gates pass through."""
    gates: list[Gate] = []
    for g in circuit:
        if not g.is_two_qubit or abs(g.qubits[0] - g.qubits[1]) == 1:
            gates.append(g)
            continue
        a, b = g.qubits
        j, k = min(a, b), max(a, b)
        pre, (pos_j, pos_k) = _swap_plan(j, k, strategy)
        # keep the stored target-first role order on the new positions
        if a == j:
            placed = (pos_j, pos_k)
        else:
            placed = (pos_k, pos_j)
        gates.extend(Gate.swap(x, y) for x, y in pre)
        gates.append(Gate(g.kind, placed, g.angle))
        gates.extend(Gate.swap(x, y) for x, y in reversed(pre))
    routed = Circuit(circuit.num_qubits, tuple(gates), stage="routed")
    swaps = routed.gate_census()[GateKind.SWAP]
    return RoutedCircuit(routed, swaps, tuple(range(circuit.num_qubits)))


def cancel_swaps(routed: RoutedCircuit) -> RoutedCircuit:
    """Delete identical swap pairs separated only by gates touching neither
    swap wire, until no such pair is left.

    One pass: each wire keeps a stack of the live gates on it.  An incoming
    swap whose two wires both have the same earlier swap on top cancels
    with it (popping it exposes the gates beneath, so nested pairs cancel
    too); any other gate is pushed on each of its wires.  The survivors keep
    their original order.  O(G) time and memory for G gates.
    """
    gates = routed.circuit.gates
    stacks: list[list[int]] = [[] for _ in range(routed.circuit.num_qubits)]
    live = [True] * len(gates)
    for k, g in enumerate(gates):
        if g.kind is GateKind.SWAP:
            on_a, on_b = (stacks[q] for q in g.qubits)
            if (
                on_a
                and on_b
                and on_a[-1] == on_b[-1]
                and gates[on_a[-1]].kind is GateKind.SWAP
            ):
                live[on_a.pop()] = live[k] = False
                on_b.pop()
                continue
        for q in g.qubits:
            stacks[q].append(k)
    reduced = Circuit(
        routed.circuit.num_qubits,
        tuple(g for g, keep in zip(gates, live) if keep),
        stage="reduced",
    )
    return RoutedCircuit(
        reduced,
        reduced.gate_census()[GateKind.SWAP],
        routed.logical_to_physical,
    )
