"""Cost-model tests: durations, closed forms, feasibility bounds, curves."""
import functools
from dataclasses import replace
from fractions import Fraction

import pytest

from qftcost.circuit import Circuit, DyadicAngle, Gate, angle_canonicalize
from qftcost.cost import (
    CLOSED_FORM_N_CAP,
    ControlMode,
    CurveRow,
    HardwareModel,
    UnitPolicy,
    circuit_cost,
    cost_curve,
    curve_csv,
    dyadic_decimal_str,
    gate_duration,
    intensity_requirement,
    max_feasible_qubits,
    qft_cost_closed_form,
)
from qftcost.errors import CapacityError, InfeasibleModelError
from qftcost.route import cancel_swaps, route_lnn
from qftcost.synth import build_aqft, build_qft, lower_swap

TAU0 = HardwareModel(unit_policy=UnitPolicy.TAU_ZERO)
TAUN = HardwareModel(unit_policy=UnitPolicy.TAU_N_MINUS_ONE)
INTENSITY = HardwareModel(mode=ControlMode.INTENSITY)


def brute_force_qft_sum(n: int, tau_n_minus_one: bool) -> Fraction:
    """Independent oracle: the double sum over QFT pairs of theta ratios."""
    total = Fraction(0)
    for j in range(n - 1):
        for k in range(j + 1, n):
            if tau_n_minus_one:
                total += Fraction(1 << (n - 1), 1 << (k - j))
            else:
                total += Fraction(1, 1 << (k - j))
    return total


@functools.cache
def oracle_prefix_costs(n: int, model: HardwareModel) -> tuple[Fraction, ...]:
    """The per-distance sum cost_curve once evaluated row by row, term by
    term: entry K is the cost of AQFT(n, K + 1), for K in 0..n-1, so every
    m shares one pass over the distances d."""
    if model.mode is ControlMode.INTENSITY:
        total = Fraction(n)  # the n Hadamards, one unit per gate
    else:
        total = Fraction(0)
        if model.fixed_gate_time > 0.0:
            fixed_rel = Fraction(model.fixed_gate_time) / Fraction(
                model.t_unit_seconds(n)
            )
            total += n * fixed_rel  # the n Hadamard pulses
        unit = model.unit_angle_fraction(n)
    costs = [total]
    for d in range(1, n):
        if model.mode is ControlMode.INTENSITY:
            total += n - d  # n - d gates at distance d
        else:
            total += (n - d) * Fraction(1, 1 << d) / unit
        costs.append(total)
    return tuple(costs)


def oracle_row_feasible(n: int, m: int, model: HardwareModel) -> bool:
    """circuit_cost's rule on AQFT(n, m), pulse by pulse: every positive
    pulse (Hadamard or rotation) lasts at least t_R."""
    if model.mode is ControlMode.INTENSITY:
        return Fraction(model.t_ref) >= Fraction(model.t_resolution)
    if 0 < Fraction(model.fixed_gate_time) < Fraction(model.t_resolution):
        return False  # the Hadamard pulses
    if model.unit_policy is UnitPolicy.TAU_N_MINUS_ONE:
        return True
    d_max = min(m, n) - 1
    if d_max == 0:
        return True  # no rotation pulse at all
    smallest = Fraction(model.t_ref) / (1 << d_max)
    return smallest >= Fraction(model.t_resolution)


def oracle_n_b(model: HardwareModel) -> int | None:
    """Count the widths n whose smallest rotation t_ref / 2^(n-1) meets t_R."""
    if model.mode is ControlMode.INTENSITY:
        return None
    n_b = 0
    while Fraction(model.t_ref) / (1 << n_b) >= Fraction(model.t_resolution):
        n_b += 1
    return n_b


def oracle_curve(
    n_min: int, n_max: int, model: HardwareModel, aqft_m: int | None = None
) -> list[CurveRow]:
    """Closed-form curve rows built term by term (aqft_m None: the QFT)."""
    n_b = oracle_n_b(model)
    rows = []
    for n in range(n_min, n_max + 1):
        m = n if aqft_m is None else min(aqft_m, n)
        cost = oracle_prefix_costs(n, model)[m - 1]
        rows.append(CurveRow(n, cost, oracle_row_feasible(n, m, model), n_b))
    return rows


T_R = HardwareModel().t_resolution
#: tau0/tauN x duration/intensity x fixed_gate_time in {0, t_R}
ORACLE_MODELS = [
    HardwareModel(mode=mode, unit_policy=policy, fixed_gate_time=fixed)
    for mode in (ControlMode.DURATION, ControlMode.INTENSITY)
    for policy in (UnitPolicy.TAU_ZERO, UnitPolicy.TAU_N_MINUS_ONE)
    for fixed in (0.0, T_R)
] + [
    # t_ref below t_R: no duration row is feasible and n_b is 0
    HardwareModel(unit_policy=UnitPolicy.TAU_ZERO, t_ref=1e-4),
    HardwareModel(mode=ControlMode.INTENSITY, t_ref=1e-4),
    # Hadamard pulses shorter than t_R: no duration row is feasible
    HardwareModel(unit_policy=UnitPolicy.TAU_ZERO, fixed_gate_time=T_R / 2),
]
#: Fixed pulses make every routed swap count in duration mode.
TAU0_FIXED = HardwareModel(unit_policy=UnitPolicy.TAU_ZERO, fixed_gate_time=T_R)
TAUN_FIXED = HardwareModel(fixed_gate_time=0.25)
#: Models for routed rows (t_ref = 0.3 gives non-dyadic fixed pulses).
ROUTED_MODELS = [
    TAU0,
    TAUN,
    INTENSITY,
    HardwareModel(mode=ControlMode.INTENSITY, t_ref=1e-4, fixed_gate_time=T_R),
    TAU0_FIXED,
    TAUN_FIXED,
    HardwareModel(unit_policy=UnitPolicy.TAU_ZERO, fixed_gate_time=5e-4),
    HardwareModel(fixed_gate_time=5e-4),
    HardwareModel(unit_policy=UnitPolicy.TAU_ZERO, t_ref=1e-4),
    HardwareModel(unit_policy=UnitPolicy.TAU_ZERO, t_ref=0.3, fixed_gate_time=T_R),
    HardwareModel(
        unit_policy=UnitPolicy.TAU_ZERO, t_ref=0.5, t_resolution=2**-10,
        fixed_gate_time=0.25,
    ),
]


class TestHardwareModel:
    @pytest.mark.parametrize("field", ["t_resolution", "t_ref", "fixed_gate_time"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf"), -1.0])
    def test_bad_times_rejected(self, field, value):
        with pytest.raises(ValueError):
            HardwareModel(**{field: value})


class TestGateDuration:
    def test_full_pi_cphase_is_one_unit(self):
        g = Gate.cphase(0, 1, DyadicAngle.pi_over_pow2(0))
        assert gate_duration(g, TAU0, 2) == 1

    def test_distance_scaling_tau0(self):
        for d in range(1, 10):
            g = Gate.cphase(0, d, DyadicAngle.pi_over_pow2(d))
            assert gate_duration(g, TAU0, d + 1) == Fraction(1, 1 << d)

    def test_distance_scaling_taun(self):
        n = 8
        for d in range(1, n):
            g = Gate.cphase(0, d, DyadicAngle.pi_over_pow2(d))
            assert gate_duration(g, TAUN, n) == 1 << (n - 1 - d)

    def test_ratio_law(self):
        # duration(theta_a)/duration(theta_b) = 2^(b-a) in any duration model
        for model in (TAU0, TAUN):
            for a in range(0, 6):
                for b in range(0, 6):
                    ga = Gate.cphase(0, 1, DyadicAngle.pi_over_pow2(a))
                    gb = Gate.cphase(0, 1, DyadicAngle.pi_over_pow2(b))
                    ratio = gate_duration(ga, model, 8) / gate_duration(gb, model, 8)
                    assert ratio == Fraction(1 << b, 1 << a)

    def test_negative_angle_same_duration(self):
        theta = DyadicAngle.pi_over_pow2(1)
        g_pos = Gate.rz(0, theta)
        g_neg = Gate.rz(0, -theta)
        assert gate_duration(g_pos, TAU0, 1) == gate_duration(g_neg, TAU0, 1)

    def test_angle_reduced_before_costing(self):
        # 3*pi rotates the same as pi
        g = Gate.rz(0, angle_canonicalize(3, 0))
        assert gate_duration(g, TAU0, 1) == 1

    def test_fixed_gates_free_by_default(self):
        assert gate_duration(Gate.h(0), TAU0, 1) == 0
        assert gate_duration(Gate.swap(0, 1), TAUN, 2) == 0

    def test_fixed_gate_time_visible_when_set(self):
        model = HardwareModel(unit_policy=UnitPolicy.TAU_ZERO, fixed_gate_time=0.5)
        assert gate_duration(Gate.h(0), model, 1) == Fraction(1, 2)

    def test_intensity_mode_uniform(self):
        for g in build_qft(4, True):
            assert gate_duration(g, INTENSITY, 4) == 1


class TestClosedForms:
    def test_tau0_formula_n2(self):
        assert qft_cost_closed_form(2, UnitPolicy.TAU_ZERO) == Fraction(1, 2)

    def test_taun_formula_n5(self):
        assert qft_cost_closed_form(5, UnitPolicy.TAU_N_MINUS_ONE) == 49

    def test_n1_is_zero(self):
        assert qft_cost_closed_form(1, UnitPolicy.TAU_ZERO) == 0
        assert qft_cost_closed_form(1, UnitPolicy.TAU_N_MINUS_ONE) == 0
        with pytest.raises(ValueError):
            qft_cost_closed_form(0, UnitPolicy.TAU_ZERO)

    def test_matches_brute_force_sum(self):
        for n in range(2, 21):
            assert qft_cost_closed_form(n, UnitPolicy.TAU_ZERO) == brute_force_qft_sum(
                n, False
            )
            assert qft_cost_closed_form(
                n, UnitPolicy.TAU_N_MINUS_ONE
            ) == brute_force_qft_sum(n, True)

    def test_matches_circuit_cost_exactly(self):
        for n in range(2, 17):
            for model, policy in ((TAU0, UnitPolicy.TAU_ZERO), (TAUN, UnitPolicy.TAU_N_MINUS_ONE)):
                report = circuit_cost(build_qft(n), model)
                assert report.breakdown["controlled_rotation"] == qft_cost_closed_form(
                    n, policy
                )

    def test_strictly_increasing(self):
        for policy in (UnitPolicy.TAU_ZERO, UnitPolicy.TAU_N_MINUS_ONE):
            values = [qft_cost_closed_form(n, policy) for n in range(2, 40)]
            assert all(b > a for a, b in zip(values, values[1:]))

    def test_big_n_no_overflow(self):
        v = qft_cost_closed_form(4096, UnitPolicy.TAU_N_MINUS_ONE)
        assert v == (4096 - 2) * (1 << 4095) + 1


class TestCircuitCost:
    def test_total_equals_breakdown_sum(self):
        report = circuit_cost(build_qft(6, True), TAUN)
        assert report.total_relative == sum(report.breakdown.values(), Fraction(0))

    def test_policy_consistency(self):
        # tauN total = tau0 total * 2^(n-1) when angle-free gates cost zero
        for n in range(2, 10):
            c = build_qft(n, True)
            t0 = circuit_cost(c, TAU0).total_relative
            tn = circuit_cost(c, TAUN).total_relative
            assert tn == t0 * (1 << (n - 1))

    def test_intensity_qft5_total(self):
        report = circuit_cost(build_qft(5), INTENSITY)
        assert report.total_relative == 15  # n(n+1)/2 gates at 1 unit
        assert report.intensity_ratio == 1 << 4

    def test_feasibility_flag_tau0(self):
        # t_ref = 1 s, t_R = 1 ms: theta_9 pulse is 1.95 ms, theta_10 is below
        ok = circuit_cost(build_qft(10), TAU0)
        assert ok.feasible
        bad = circuit_cost(build_qft(11), TAU0)
        assert not bad.feasible

    def test_taun_always_feasible(self):
        assert circuit_cost(build_qft(12), TAUN).feasible

    def test_swap_cost_both_ways(self):
        # opaque swap: charged at fixed_gate_time
        model = HardwareModel(unit_policy=UnitPolicy.TAU_ZERO, fixed_gate_time=0.5)
        opaque = circuit_cost(Circuit(2, (Gate.swap(0, 1),)), model)
        assert opaque.breakdown["swap"] == Fraction(1, 2)
        # lowered swap: the rotation content dominates
        # (3 x [two Rz(pi/2) + one Ising(pi/4)] = 3 * 5/4 units at tau_0)
        lowered = circuit_cost(lower_swap(0, 1, physical=True), TAU0)
        assert lowered.total_relative == Fraction(15, 4)
        assert lowered.breakdown["swap"] == 0


class TestMaxFeasibleQubits:
    def test_tau0_equal_resolution(self):
        assert max_feasible_qubits(replace(TAU0, t_ref=1e-3)) == 1

    def test_one_second_vs_millisecond(self):
        assert max_feasible_qubits(replace(TAU0, t_ref=1.0)) == 10

    def test_power_of_two_boundary(self):
        for k in range(0, 81):
            assert max_feasible_qubits(replace(TAU0, t_ref=(1 << k) * 1e-3)) == k + 1

    def test_infeasible_raises(self):
        with pytest.raises(InfeasibleModelError):
            max_feasible_qubits(replace(TAU0, t_ref=1e-4))

    def test_taun_tunes_intensity_to_resolution(self):
        # a pi rotation lasts 2^(n-1) * t_R under tau_n-1, whatever t_ref is
        assert max_feasible_qubits(replace(TAUN, t_ref=1e-4)) == 0
        assert max_feasible_qubits(replace(TAUN, t_ref=4e-3)) == 3

    def test_intensity_needs_resolvable_pi(self):
        assert max_feasible_qubits(replace(INTENSITY, t_ref=1e-3)) == 1
        with pytest.raises(InfeasibleModelError):
            max_feasible_qubits(replace(INTENSITY, t_ref=1e-4))

    def test_empty_intensity_circuit_feasible(self):
        # no pulse to resolve, at any t_ref
        model = replace(INTENSITY, t_ref=1e-4)
        assert circuit_cost(Circuit(3, ()), model).feasible
        assert not circuit_cost(build_qft(3), model).feasible


class TestIntensityRequirement:
    def test_n1(self):
        req = intensity_requirement(1, 2.5)
        assert req["ratio"] == 1 and req["b_max"] == 2.5

    def test_hundred_qubits(self):
        req = intensity_requirement(100, 1e-3)
        assert req["ratio"] == 1 << 99
        assert 1e26 < req["b_max"] < 1e28  # order of 10^27 T

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            intensity_requirement(0, 1.0)
        with pytest.raises(ValueError):
            intensity_requirement(3, 0.0)


class TestCostCurve:
    def test_tau0_values(self):
        rows = cost_curve(2, 5, TAU0)
        assert [r.relative_cost for r in rows] == [
            Fraction(1, 2),
            Fraction(5, 4),
            Fraction(17, 8),
            Fraction(49, 16),
        ]

    def test_taun_values(self):
        rows = cost_curve(2, 5, TAUN)
        assert [r.relative_cost for r in rows] == [1, 5, 17, 49]

    def test_aqft_full_m_matches_qft(self):
        for model in (TAU0, TAUN, INTENSITY):
            qft_rows = cost_curve(2, 8, model)
            aqft_rows = cost_curve(2, 8, model, "aqft", aqft_m=8)
            assert [r.relative_cost for r in qft_rows] == [
                r.relative_cost for r in aqft_rows
            ]

    def test_aqft_cost_non_increasing_in_decreasing_m(self):
        n = 9
        for model in (TAU0, TAUN):
            costs = [
                cost_curve(n, n, model, "aqft", aqft_m=m)[0].relative_cost
                for m in range(n, 0, -1)
            ]
            assert all(b <= a for a, b in zip(costs, costs[1:]))

    def test_closed_form_agrees_with_materialized_circuits(self):
        fixed = HardwareModel(unit_policy=UnitPolicy.TAU_ZERO, fixed_gate_time=1e-3)
        short_pulse = HardwareModel(fixed_gate_time=1e-4)  # Hadamards below t_R
        slow = HardwareModel(unit_policy=UnitPolicy.TAU_ZERO, t_ref=1e-4)  # n_b = 0
        for model in (TAU0, TAUN, INTENSITY, fixed, short_pulse, slow):
            for n in range(2, 14):
                for m in range(1, n + 1):
                    row = cost_curve(n, n, model, "aqft", aqft_m=m)[0]
                    report = circuit_cost(build_aqft(n, m), model)
                    assert row.relative_cost == report.total_relative
                    # tau_0 pulses drop below t_R from K = 10 on
                    assert row.feasible == report.feasible

    def test_routed_reduced_kind(self):
        rows = cost_curve(2, 6, TAUN, "qft_routed_reduced")
        plain = cost_curve(2, 6, TAUN)
        # swaps are free by default, so totals match the unrouted QFT
        assert [r.relative_cost for r in rows] == [r.relative_cost for r in plain]

    @pytest.mark.parametrize("n", [*range(1, 25), 32, 48, 64])
    def test_routed_rows_match_routed_circuits(self, n):
        # oracle: route and cancel the QFT once, then cost it per model
        reduced = cancel_swaps(route_lnn(build_qft(n))).circuit
        models = ROUTED_MODELS if n <= 24 else [TAU0_FIXED, TAUN_FIXED]
        for model in models:
            row = cost_curve(n, n, model, "qft_routed_reduced")[0]
            report = circuit_cost(reduced, model)
            assert row.relative_cost == report.total_relative, model
            assert row.feasible == report.feasible, model
            assert row.n_b == report.n_b

    def test_range_and_cap_errors(self):
        with pytest.raises(ValueError):
            cost_curve(5, 2, TAUN)
        with pytest.raises(CapacityError):
            cost_curve(2, 5000, TAUN, "qft_routed_reduced")
        with pytest.raises(CapacityError):
            cost_curve(2, 5000, TAUN)
        with pytest.raises(ValueError, match="unknown circuit_kind"):
            cost_curve(2, 5, TAUN, "bogus")
        with pytest.raises(ValueError):
            cost_curve(2, 5, TAUN, "aqft")
        for m in (0, -3):
            for model in (TAU0, TAUN, INTENSITY):
                with pytest.raises(ValueError, match="aqft_m"):
                    cost_curve(2, 5, model, "aqft", aqft_m=m)

    @pytest.mark.parametrize(
        "model",
        ORACLE_MODELS,
        ids=lambda m: f"{m.mode.value}-{m.unit_policy.value}"
        f"-fixed{m.fixed_gate_time}-tref{m.t_ref}",
    )
    def test_rows_match_per_distance_oracle(self, model):
        # every (n, m) with n in 1..80 and m in 1..n+2
        for m in range(1, 83):
            n_min = max(1, m - 2)
            assert cost_curve(n_min, 80, model, "aqft", aqft_m=m) == oracle_curve(
                n_min, 80, model, m
            )
        assert cost_curve(1, 80, model) == oracle_curve(1, 80, model)

    @pytest.mark.parametrize("policy", [UnitPolicy.TAU_ZERO, UnitPolicy.TAU_N_MINUS_ONE])
    @pytest.mark.parametrize("mode", [ControlMode.DURATION, ControlMode.INTENSITY])
    def test_csv_byte_identical_to_oracle(self, policy, mode):
        model = HardwareModel(mode=mode, unit_policy=policy)
        for kind, m in (("qft", None), ("aqft", 1), ("aqft", 3), ("aqft", 33)):
            assert curve_csv(cost_curve(2, 200, model, kind, m), model, kind) == (
                curve_csv(oracle_curve(2, 200, model, m), model, kind)
            )

    @pytest.mark.parametrize("model", [TAU0, TAUN], ids=["tau0", "tauN"])
    def test_full_cap_curve(self, model):
        rows = cost_curve(1, CLOSED_FORM_N_CAP, model)
        assert [r.n for r in rows] == list(range(1, CLOSED_FORM_N_CAP + 1))
        for r in rows[:: CLOSED_FORM_N_CAP // 16] + rows[-1:]:
            assert r.relative_cost == qft_cost_closed_form(r.n, model.unit_policy)
        if model is TAUN:
            assert rows[-1].relative_cost == (4096 - 2) * (1 << 4095) + 1
        assert {r.n_b for r in rows} == {10}

    def test_csv_shape(self):
        text = curve_csv(cost_curve(2, 4, TAUN), TAUN, "qft")
        lines = text.strip().split("\n")
        assert lines[0] == "n,relative_cost,feasible,n_b,policy,mode,circuit"
        assert lines[1] == "2,1,true,10,tauN,duration,qft"


class TestDecimalRendering:
    def test_integers(self):
        assert dyadic_decimal_str(Fraction(49)) == "49"
        assert dyadic_decimal_str(Fraction(-3)) == "-3"

    def test_fractions(self):
        assert dyadic_decimal_str(Fraction(1, 2)) == "0.5"
        assert dyadic_decimal_str(Fraction(49, 16)) == "3.0625"
        assert dyadic_decimal_str(Fraction(-5, 4)) == "-1.25"

    def test_non_dyadic_as_exact_fraction(self):
        assert dyadic_decimal_str(Fraction(1, 3)) == "1/3"
        assert dyadic_decimal_str(Fraction(-5, 12)) == "-5/12"

    def test_non_dyadic_fixed_pulse_renders_as_fraction(self):
        # 1e-3 s is no power-of-two multiple of t_unit = 0.3 s
        model = HardwareModel(
            unit_policy=UnitPolicy.TAU_ZERO, t_ref=0.3, fixed_gate_time=1e-3
        )
        report = circuit_cost(build_qft(3), model)
        data = report.to_json_dict()
        assert "/" in data["total_relative"]
        assert Fraction(data["total_relative"]) == report.total_relative
        assert data["breakdown"]["controlled_rotation"] == "1.25"
        for name, value in data["breakdown"].items():
            assert Fraction(value) == report.breakdown[name]
        for kind in ("qft", "qft_routed_reduced"):
            rows = cost_curve(2, 3, model, kind)
            lines = curve_csv(rows, model, kind).split("\n")[1:-1]
            cells = [line.split(",") for line in lines]
            assert [Fraction(c[1]) for c in cells] == [r.relative_cost for r in rows]
            assert all("/" in c[1] for c in cells)
