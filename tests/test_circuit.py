"""Tests for the circuit IR: dyadic angles, gates, census, serialization."""
import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from qftcost.circuit import (
    Circuit,
    DyadicAngle,
    Gate,
    GateKind,
    angle_canonicalize,
)


class TestAngleCanonicalize:
    def test_cancels_common_factor(self):
        assert angle_canonicalize(2, 2) == DyadicAngle(1, 1)

    def test_zero_canonicalizes(self):
        assert angle_canonicalize(0, 7) == DyadicAngle(0, 0)

    def test_already_canonical_deep_denominator(self):
        a = angle_canonicalize(1, 99)
        assert a == DyadicAngle(1, 99)
        # float conversion must not go through a 2**99 float intermediate
        assert a.radians == math.pi * math.ldexp(1.0, -99)
        assert a.radians > 0.0

    def test_negative_log2_den_rejected(self):
        with pytest.raises(ValueError):
            angle_canonicalize(1, -1)

    def test_exact_float_conversion_small_denominators(self):
        for j in range(0, 20):
            assert DyadicAngle.pi_over_pow2(j).radians == math.pi / 2**j
        assert DyadicAngle(-1, 1).radians == -math.pi / 2

    def test_non_canonical_constructor_rejected(self):
        with pytest.raises(ValueError):
            DyadicAngle(4, 3)
        with pytest.raises(ValueError):
            DyadicAngle(0, 2)


class TestAngleArithmetic:
    def test_halving_is_exact(self):
        a = angle_canonicalize(3, 2)
        assert a.half() == DyadicAngle(3, 3)
        assert a.half().as_fraction_of_pi == a.as_fraction_of_pi / 2

    def test_quartering(self):
        assert DyadicAngle.pi_over_pow2(1).quarter() == DyadicAngle(1, 3)

    def test_negation(self):
        a = angle_canonicalize(5, 4)
        assert (-a).numerator == -5
        assert -(-a) == a

    @given(st.integers(-10**6, 10**6), st.integers(0, 60))
    def test_half_always_halves(self, num, den):
        a = angle_canonicalize(num, den)
        assert a.half().as_fraction_of_pi * 2 == a.as_fraction_of_pi

    def test_reduction_to_principal_range(self):
        # 3*pi reduces to pi, -pi reduces to pi, 5*pi/2 reduces to pi/2
        assert angle_canonicalize(3, 0).reduced_fraction_of_pi() == 1
        assert angle_canonicalize(-1, 0).reduced_fraction_of_pi() == 1
        assert angle_canonicalize(5, 1).reduced_fraction_of_pi() == Fraction(1, 2)
        assert angle_canonicalize(-1, 1).reduced_fraction_of_pi() == Fraction(-1, 2)

    @given(st.integers(-10**6, 10**6), st.integers(0, 12), st.integers(0, 1))
    def test_reduced_numerator_is_the_symmetric_residue(self, num, den, k):
        a = angle_canonicalize(num, den)
        half = 1 << (a.log2_denominator + k)
        r = a.reduced_numerator(k)
        assert -half < r <= half and (r - a.numerator) % (2 * half) == 0
        # the Fraction rule the integer helper replaced
        assert a.reduced_fraction_of_pi() == 1 - (1 - a.as_fraction_of_pi) % 2

    @pytest.mark.parametrize(
        "num, log2den, reduced", [(5, 0, 1), (-3, 0, 1), (7, 1, -1), (-9, 2, 7)]
    )
    def test_radians_reduced_modulo_four_pi(self, num, log2den, reduced):
        # into (-2pi, 2pi]: 5pi -> pi, -3pi -> pi, 7pi/2 -> -pi/2, -9pi/4 -> 7pi/4
        a = angle_canonicalize(num, log2den)
        assert a.radians == angle_canonicalize(reduced, log2den).radians
        assert a.radians == math.ldexp(float(reduced), -log2den) * math.pi

    def test_radians_of_huge_numerator(self):
        # 10^400 + 1 = 1 (mod 4): the angle is pi, with no float overflow
        assert DyadicAngle(10**400 + 1, 0).radians == math.pi
        # inside (-2pi, 2pi] but far beyond the float range over 2^2000
        assert DyadicAngle(2**2000 + 1, 2000).radians == math.pi


class TestGate:
    def test_arity_enforced(self):
        with pytest.raises(ValueError):
            Gate(GateKind.H, (0, 1))
        with pytest.raises(ValueError):
            Gate(GateKind.CPHASE, (0,), DyadicAngle(1, 1))

    def test_distinct_indices(self):
        with pytest.raises(ValueError):
            Gate.xor(1, 1)

    def test_angle_presence(self):
        with pytest.raises(ValueError):
            Gate(GateKind.H, (0,), DyadicAngle(1, 1))
        with pytest.raises(ValueError):
            Gate(GateKind.RZ, (0,))

    def test_target_first_storage(self):
        g = Gate.cphase(2, 5, DyadicAngle(1, 1))
        assert g.qubits == (2, 5)


class TestCircuit:
    def test_append(self):
        c = Circuit(2, (Gate.h(0),))
        assert len(c) == 1

    def test_append_out_of_range(self):
        with pytest.raises(IndexError):
            Circuit(3, (Gate.cphase(0, 3, DyadicAngle(1, 1)),))

    def test_empty_census(self):
        counts = Circuit(4).gate_census()
        assert all(v == 0 for v in counts.values())

    def test_swap_census(self):
        c = Circuit(3, (Gate.swap(0, 1),) * 3)
        assert c.gate_census()[GateKind.SWAP] == 3

    def test_bad_stage(self):
        with pytest.raises(ValueError):
            Circuit(1, stage="bogus")


# -- serialization -------------------------------------------------------

_angles = st.builds(
    angle_canonicalize, st.integers(-(2**80), 2**80), st.integers(0, 100)
)


@st.composite
def _gates(draw, n=6):
    kind = draw(st.sampled_from(list(GateKind)))
    if kind in (GateKind.CPHASE, GateKind.ISING, GateKind.XOR, GateKind.SWAP):
        a = draw(st.integers(0, n - 1))
        b = draw(st.integers(0, n - 1).filter(lambda x: x != a))
        qubits = (a, b)
    else:
        qubits = (draw(st.integers(0, n - 1)),)
    angle = None
    if kind not in (GateKind.H, GateKind.XOR, GateKind.SWAP):
        angle = draw(_angles)
    return Gate(kind, qubits, angle)


@st.composite
def _circuits(draw):
    gates = draw(st.lists(_gates(), max_size=30))
    return Circuit(6, tuple(gates))


class TestSerialization:
    @given(_circuits())
    def test_roundtrip_byte_identical(self, circuit):
        text = circuit.to_json()
        again = Circuit.from_json(text)
        assert again == circuit
        assert again.to_json() == text

    @given(_circuits())
    def test_census_total_matches_length(self, circuit):
        assert sum(circuit.gate_census().values()) == len(circuit)

    def test_big_numerator_survives(self):
        g = Gate.rz(0, angle_canonicalize(2**200 + 1, 300))
        c = Circuit(1, (g,))
        assert Circuit.from_json(c.to_json()) == c

    def test_angle_free_gate_omits_angle_key(self):
        d = Gate.h(0).to_json_dict()
        assert "angle" not in d
