"""Circuit IR: gate alphabet, exact dyadic angles, and the circuit container.

All angles are dyadic multiples of pi (a * pi / 2^b), which keeps every
angle produced by synthesis and lowering exactly representable and makes
time-cost sums exact rationals at any width.

Gates are stored in application order: the first gate in the list acts
first on the state.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from typing import Iterator

from .errors import CapacityError


class GateKind(Enum):
    H = "H"
    RY = "Ry"
    RZ = "Rz"
    GLOBAL_PHASE = "Phi"
    CPHASE = "CPhase"
    ISING = "Ising"
    XOR = "Xor"
    SWAP = "Swap"


#: Kinds that never carry an angle.
ANGLE_FREE_KINDS = frozenset({GateKind.H, GateKind.XOR, GateKind.SWAP})
#: Kinds acting on two registers (stored target-first).
TWO_QUBIT_KINDS = frozenset(
    {GateKind.CPHASE, GateKind.ISING, GateKind.XOR, GateKind.SWAP}
)

STAGES = ("synthesized", "lowered", "routed", "reduced")

#: Widest circuit that build_aqft makes and the JSON reader accepts.  A cost
#: report prints the intensity ratio 2^(n-1) in decimal, and Python renders
#: ints of at most 4300 digits; 2^4095 has 1,233.
QUBIT_CAP = 4096
#: Largest log2den the JSON reader accepts.  The smallest angle the package
#: makes is lowering's theta/4 of the QFT's pi/2^(n-1), pi/2^(n+1); the bound
#: admits it at the width cap and keeps every cost renderable and fast.
LOG2DEN_CAP = QUBIT_CAP + 1

#: True when every type it is given is int (a bool or a float is not).
_ONLY_INTS = frozenset({int}).issuperset


@dataclass(frozen=True)
class DyadicAngle:
    """Angle numerator * pi / 2^log2_denominator, kept in canonical form.

    Canonical form: numerator is odd or zero, and a zero numerator forces
    log2_denominator == 0.  Equality of canonical forms is exact equality
    of angles.
    """

    numerator: int
    log2_denominator: int

    def __post_init__(self) -> None:
        if self.log2_denominator < 0:
            raise ValueError("log2_denominator must be non-negative")
        if self.numerator == 0:
            if self.log2_denominator != 0:
                raise ValueError("zero angle must have log2_denominator 0")
        elif self.numerator % 2 == 0 and self.log2_denominator > 0:
            raise ValueError(
                "non-canonical dyadic angle; use angle_canonicalize()"
            )

    @classmethod
    def zero(cls) -> DyadicAngle:
        return cls(0, 0)

    @classmethod
    def pi_over_pow2(cls, j: int) -> DyadicAngle:
        """The QFT phase angle pi / 2^j."""
        return angle_canonicalize(1, j)

    def __neg__(self) -> DyadicAngle:
        return angle_canonicalize(-self.numerator, self.log2_denominator)

    def half(self) -> DyadicAngle:
        return angle_canonicalize(self.numerator, self.log2_denominator + 1)

    def quarter(self) -> DyadicAngle:
        return angle_canonicalize(self.numerator, self.log2_denominator + 2)

    @property
    def as_fraction_of_pi(self) -> Fraction:
        """Exact value of angle / pi."""
        return Fraction(self.numerator, 1 << self.log2_denominator)

    def reduced_fraction_of_pi(self) -> Fraction:
        """Angle / pi reduced modulo 2 into (-1, 1]."""
        return 1 - (1 - self.as_fraction_of_pi) % 2

    @property
    def radians(self) -> float:
        # ldexp keeps the conversion exact whenever the float result is;
        # avoids overflow of 2**log2_denominator as a float for huge b.
        return math.ldexp(float(self.numerator), -self.log2_denominator) * math.pi

    def __repr__(self) -> str:
        if self.numerator == 0:
            return "DyadicAngle(0)"
        return f"DyadicAngle({self.numerator}*pi/2^{self.log2_denominator})"


def angle_canonicalize(numerator: int, log2_den: int) -> DyadicAngle:
    """Reduce numerator * pi / 2^log2_den to canonical form."""
    if log2_den < 0:
        raise ValueError("log2_den must be non-negative")
    if numerator == 0:
        return DyadicAngle(0, 0)
    while numerator % 2 == 0 and log2_den > 0:
        numerator //= 2
        log2_den -= 1
    return DyadicAngle(numerator, log2_den)


@dataclass(frozen=True)
class Gate:
    """A single gate: kind, register indices (target first), optional angle."""

    kind: GateKind
    qubits: tuple[int, ...]
    angle: DyadicAngle | None = None

    def __post_init__(self) -> None:
        want = 2 if self.kind in TWO_QUBIT_KINDS else 1
        if len(self.qubits) != want:
            raise ValueError(
                f"{self.kind.value} takes {want} qubit indices, got {self.qubits}"
            )
        if want == 2 and self.qubits[0] == self.qubits[1]:
            raise ValueError(f"{self.kind.value} indices must be distinct")
        if any(q < 0 for q in self.qubits):
            raise IndexError(f"negative qubit index in {self.qubits}")
        if self.kind in ANGLE_FREE_KINDS:
            if self.angle is not None:
                raise ValueError(f"{self.kind.value} carries no angle")
        elif self.angle is None:
            raise ValueError(f"{self.kind.value} requires an angle")

    # -- constructors ----------------------------------------------------
    @classmethod
    def h(cls, q: int) -> Gate:
        return cls(GateKind.H, (q,))

    @classmethod
    def ry(cls, q: int, angle: DyadicAngle) -> Gate:
        return cls(GateKind.RY, (q,), angle)

    @classmethod
    def rz(cls, q: int, angle: DyadicAngle) -> Gate:
        return cls(GateKind.RZ, (q,), angle)

    @classmethod
    def phi(cls, q: int, angle: DyadicAngle) -> Gate:
        return cls(GateKind.GLOBAL_PHASE, (q,), angle)

    @classmethod
    def cphase(cls, target: int, control: int, angle: DyadicAngle) -> Gate:
        return cls(GateKind.CPHASE, (target, control), angle)

    @classmethod
    def ising(cls, target: int, control: int, angle: DyadicAngle) -> Gate:
        return cls(GateKind.ISING, (target, control), angle)

    @classmethod
    def xor(cls, target: int, control: int) -> Gate:
        return cls(GateKind.XOR, (target, control))

    @classmethod
    def swap(cls, a: int, b: int) -> Gate:
        return cls(GateKind.SWAP, (a, b))

    @property
    def is_two_qubit(self) -> bool:
        return self.kind in TWO_QUBIT_KINDS

    def to_json_dict(self) -> dict:
        d: dict = {"kind": self.kind.value, "q": list(self.qubits)}
        if self.angle is not None:
            # numerators as decimal strings so readers without big-int
            # JSON support stay safe
            d["angle"] = {
                "num": str(self.angle.numerator),
                "log2den": self.angle.log2_denominator,
            }
        return d

    @classmethod
    def from_json_dict(cls, d: dict) -> Gate:
        if type(d) is not dict:
            raise ValueError(f"a gate must be an object, not {type(d).__name__}")
        kind = GateKind(d["kind"])
        qubits = d["q"]
        if type(qubits) is not list or not _ONLY_INTS(map(type, qubits)):
            raise ValueError(f"q must be a list of ints, got {qubits!r:.60}")
        angle = None
        if "angle" in d:
            a = d["angle"]
            if (
                type(a) is not dict
                or type(a["num"]) not in (str, int)
                or type(a["log2den"]) is not int
            ):
                raise ValueError(f"angle must be {{num, log2den: int}}, got {a!r:.60}")
            if a["log2den"] > LOG2DEN_CAP:
                raise ValueError(
                    f"log2den {a['log2den']} exceeds the bound {LOG2DEN_CAP}"
                )
            angle = angle_canonicalize(int(a["num"]), a["log2den"])
        return cls(kind, tuple(qubits), angle)


@dataclass(frozen=True)
class Circuit:
    """An ordered gate list over num_qubits registers (first gate acts first)."""

    num_qubits: int
    gates: tuple[Gate, ...] = field(default_factory=tuple)
    stage: str = "synthesized"

    def __post_init__(self) -> None:
        if self.num_qubits < 1:
            raise ValueError("num_qubits must be positive")
        if self.stage not in STAGES:
            raise ValueError(f"unknown stage {self.stage!r}")
        for g in self.gates:
            for q in g.qubits:
                if not 0 <= q < self.num_qubits:
                    raise IndexError(
                        f"qubit {q} out of range for {self.num_qubits}-qubit circuit"
                    )

    def __len__(self) -> int:
        return len(self.gates)

    def __iter__(self) -> Iterator[Gate]:
        return iter(self.gates)

    def gate_census(self) -> dict[GateKind, int]:
        counts = {kind: 0 for kind in GateKind}
        for g in self.gates:
            counts[g.kind] += 1
        return counts

    # -- serialization ---------------------------------------------------
    def to_json_dict(self) -> dict:
        return {
            "n": self.num_qubits,
            "stage": self.stage,
            "gates": [g.to_json_dict() for g in self.gates],
        }

    def to_json(self, indent: int | None = None) -> str:
        return json.dumps(self.to_json_dict(), indent=indent)

    @classmethod
    def from_json_dict(cls, d: dict) -> Circuit:
        """Parse a circuit; malformed JSON raises ValueError (a bad index
        IndexError, a missing field KeyError, n above QUBIT_CAP
        CapacityError), never TypeError."""
        if type(d) is not dict:
            raise ValueError(f"a circuit must be an object, not {type(d).__name__}")
        if type(d["n"]) is not int or type(d["gates"]) is not list:
            raise ValueError("a circuit needs an int n and a list of gates")
        if d["n"] > QUBIT_CAP:
            raise CapacityError(f"n={d['n']} exceeds qubit cap {QUBIT_CAP}")
        return cls(
            d["n"],
            tuple(Gate.from_json_dict(g) for g in d["gates"]),
            d.get("stage", "synthesized"),
        )

    @classmethod
    def from_json(cls, text: str) -> Circuit:
        return cls.from_json_dict(json.loads(text))
