"""Acceptance suite: one test per release criterion, each printing a
pass/fail line with its measured numbers."""
import cmath
import math
import time
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from qftcost.circuit import DyadicAngle, Gate, GateKind, angle_canonicalize
from qftcost.cost import (
    ControlMode,
    HardwareModel,
    UnitPolicy,
    circuit_cost,
    cost_curve,
    intensity_requirement,
    max_feasible_qubits,
    paper_naive_swap_count,
    paper_reduced_swap_count,
    qft_cost_closed_form,
)
from qftcost.route import RoutingStrategy, cancel_swaps, route_lnn
from qftcost.simulate import (
    circuit_unitary,
    dft_matrix,
    equal_up_to_global_phase,
    gate_unitary,
)
from qftcost.synth import build_aqft, build_qft, lower_cphase, lower_xor

TAU0 = HardwareModel(unit_policy=UnitPolicy.TAU_ZERO)
TAUN = HardwareModel(unit_policy=UnitPolicy.TAU_N_MINUS_ONE)


def report(name, ok, detail=""):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def test_criterion_1_qft_matches_dft():
    start = time.monotonic()
    worst = 0.0
    for n in range(1, 9):
        u = circuit_unitary(build_qft(n, include_bit_reversal=True))
        ok, lam = equal_up_to_global_phase(u, dft_matrix(n), 1e-10)
        assert ok, f"n={n} not equivalent to the DFT"
        worst = max(worst, float(np.linalg.norm(u - lam * dft_matrix(n))))
    elapsed = time.monotonic() - start
    report(
        "1 QFT correctness n=1..8",
        worst <= 1e-10 and elapsed < 10.0,
        f"worst residual {worst:.2e}, {elapsed:.2f}s",
    )


def test_criterion_2_xor_identity():
    expected = cmath.exp(-1j * math.pi / 4)
    phases = []
    worst = 0.0
    for (j, k) in [(0, 1), (1, 0)]:
        u = circuit_unitary(lower_xor(j, k))
        ideal = gate_unitary(Gate.xor(j, k), 2)
        ok, lam = equal_up_to_global_phase(u, ideal, 1e-11)
        assert ok
        worst = max(worst, float(np.linalg.norm(u - lam * ideal)))
        phases.append(lam)
    # soft check: measured phase vs sqrt(-i)
    drift = max(abs(p - expected) for p in phases)
    report(
        "2 XOR decomposition identity",
        worst <= 1e-11,
        f"residual {worst:.2e}, phase drift from exp(-i*pi/4): {drift:.2e}",
    )


def test_criterion_3_cphase_identity_exact():
    import random

    rng = random.Random(1234)
    angles = [DyadicAngle.pi_over_pow2(j) for j in range(0, 11)]
    angles += [
        angle_canonicalize(rng.randrange(-4095, 4096), rng.randrange(0, 13))
        for _ in range(50)
    ]
    worst = 0.0
    for theta in angles:
        u = circuit_unitary(lower_cphase(0, 1, theta))
        c = gate_unitary(Gate.cphase(0, 1, theta), 2)
        worst = max(worst, float(np.linalg.norm(u - c)))
    report(
        "3 controlled-phase identity, no phase allowance",
        worst <= 1e-11,
        f"worst residual {worst:.2e} over {len(angles)} angles",
    )


def test_criterion_4_tau0_closed_form():
    for n in range(2, 21):
        expected = Fraction(n) + Fraction(2, 1 << n) - 2
        brute = sum(
            (Fraction(1, 1 << (k - j)) for j in range(n) for k in range(j + 1, n)),
            Fraction(0),
        )
        measured = circuit_cost(build_qft(n), TAU0).breakdown["controlled_rotation"]
        assert measured == expected == brute, f"n={n}"
    report("4 cost closed form, unit tau_0", True, "exact equality n=2..20")


def test_criterion_5_taun_closed_form():
    for n in range(2, 21):
        expected = (n - 2) * (1 << (n - 1)) + 1
        brute = sum(
            (
                Fraction(1 << (n - 1), 1 << (k - j))
                for j in range(n)
                for k in range(j + 1, n)
            ),
            Fraction(0),
        )
        measured = circuit_cost(build_qft(n), TAUN).breakdown["controlled_rotation"]
        assert measured == expected == brute, f"n={n}"
    start = time.monotonic()
    big = qft_cost_closed_form(4096, UnitPolicy.TAU_N_MINUS_ONE)
    elapsed = time.monotonic() - start
    ok = big == (4096 - 2) * (1 << 4095) + 1 and elapsed < 5.0
    report(
        "5 cost closed form, unit tau_n-1",
        ok,
        f"exact n=2..20; n=4096 in {elapsed:.3f}s ({big.numerator.bit_length()} bits)",
    )


def test_criterion_6_scaling_shape():
    # fit cost(n)/2^n = a*n + b; a is the coefficient of the n*2^n term
    ns = list(range(20, 31))
    ys = [
        float(qft_cost_closed_form(n, UnitPolicy.TAU_N_MINUS_ONE) / (1 << n))
        for n in ns
    ]
    a, b = np.polyfit(ns, ys, 1)
    ok = abs(a - 0.5) <= 0.02 * 0.5
    report("6 scaling shape ~ n*2^n/2", ok, f"fitted coefficient {a:.6f} vs 0.5")


def test_criterion_7_routing_soundness():
    for n in range(2, 8):
        base = build_qft(n)
        routed = route_lnn(base, RoutingStrategy.MOVE_TARGET_TO_CONTROL)
        reduced = cancel_swaps(routed)
        u0 = circuit_unitary(base)
        for rc in (routed, reduced):
            assert np.linalg.norm(circuit_unitary(rc.circuit) - u0) <= 1e-10
            assert all(
                abs(g.qubits[0] - g.qubits[1]) == 1
                for g in rc.circuit
                if g.is_two_qubit
            )
        assert reduced.swap_count <= routed.swap_count
        # report the quoted formulas alongside; the naive quote is a
        # documented discrepancy (30 quoted vs 20 constructed at n=5)
        naive, shared = paper_naive_swap_count(n), paper_reduced_swap_count(n)
        if n == 5:
            assert routed.swap_count == 20 and naive == 30
            assert reduced.swap_count == 12 == shared
    report("7 routing soundness n=2..7", True, "unitary, adjacency, monotone swaps")


def test_criterion_8_feasible_qubit_boundary():
    model = HardwareModel(unit_policy=UnitPolicy.TAU_ZERO, t_resolution=1e-3)
    ok = all(
        max_feasible_qubits(replace(model, t_ref=(1 << k) * 1e-3)) == k + 1
        for k in range(0, 81)
    )
    report("8 feasible-width boundary", ok, "n_b = k+1 for tau0 = 2^k * t_R, k=0..80")


def test_criterion_9_intensity_estimate():
    req = intensity_requirement(100, 1e-3)
    ok = req["ratio"] == 1 << 99 and 1e26 <= req["b_max"] <= 1e28
    report(
        "9 intensity estimate",
        ok,
        f"B_max = {req['b_max']:.3g} T (quoted order 1e27), ratio = 2^99",
    )


def test_criterion_10_aqft():
    for n in range(1, 11):
        assert build_aqft(n, n).gates == build_qft(n).gates
    for n in range(2, 9):
        f = dft_matrix(n)

        def fidelity(m):
            u = circuit_unitary(build_aqft(n, m, include_bit_reversal=True))
            return abs(np.trace(f.conj().T @ u)) / (1 << n)

        assert fidelity(n) >= fidelity(n) - 1e-10 >= 1 - 2e-10
        assert fidelity(1) < fidelity(n)
    for model in (TAU0, TAUN):
        n = 10
        costs = [
            cost_curve(n, n, model, "aqft", aqft_m=m)[0].relative_cost
            for m in range(n, 0, -1)
        ]
        assert all(b <= a for a, b in zip(costs, costs[1:]))
    report("10 AQFT structure, fidelity, and cost", True, "n=1..10")
