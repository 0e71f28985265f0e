"""QFT synthesis, lowering, LNN routing, and hardware time-cost toolkit."""

from .circuit import Circuit, DyadicAngle, Gate, GateKind, angle_canonicalize
from .errors import CapacityError, InfeasibleModelError
from .simulate import (
    apply_circuit,
    circuit_unitary,
    dft_matrix,
    equal_up_to_global_phase,
    gate_unitary,
)
from .synth import (
    LoweringLevel,
    build_aqft,
    build_qft,
    lower_circuit,
    lower_cphase,
    lower_swap,
    lower_xor,
)
from .route import (
    MeetAt,
    RoutedCircuit,
    RoutingStrategy,
    cancel_swaps,
    route_lnn,
)
from .cost import (
    ControlMode,
    CostReport,
    HardwareModel,
    UnitPolicy,
    circuit_cost,
    cost_curve,
    gate_duration,
    intensity_requirement,
    max_feasible_qubits,
    qft_cost_closed_form,
)

__all__ = [
    "Circuit",
    "DyadicAngle",
    "Gate",
    "GateKind",
    "angle_canonicalize",
    "CapacityError",
    "InfeasibleModelError",
    "apply_circuit",
    "circuit_unitary",
    "dft_matrix",
    "equal_up_to_global_phase",
    "gate_unitary",
    "LoweringLevel",
    "build_aqft",
    "build_qft",
    "lower_circuit",
    "lower_cphase",
    "lower_swap",
    "lower_xor",
    "MeetAt",
    "RoutedCircuit",
    "RoutingStrategy",
    "cancel_swaps",
    "route_lnn",
    "ControlMode",
    "CostReport",
    "HardwareModel",
    "UnitPolicy",
    "circuit_cost",
    "cost_curve",
    "gate_duration",
    "intensity_requirement",
    "max_feasible_qubits",
    "qft_cost_closed_form",
]
