"""CLI tests: subcommands, exit codes, pipelines, determinism."""
import json
from fractions import Fraction

import pytest
from click.testing import CliRunner

from qftcost.cli import main
from qftcost.circuit import Circuit, GateKind


@pytest.fixture
def runner():
    # click >= 8.2 separates stdout/stderr by default
    return CliRunner()


def build_circuit_file(runner, tmp_path, args):
    path = tmp_path / "circuit.json"
    result = runner.invoke(main, ["build", *args, "-o", str(path)])
    assert result.exit_code == 0, result.output
    return path


class TestBuild:
    def test_census_n3(self, runner, tmp_path):
        path = build_circuit_file(runner, tmp_path, ["3"])
        circuit = Circuit.from_json(path.read_text())
        counts = circuit.gate_census()
        assert counts[GateKind.H] == 3 and counts[GateKind.CPHASE] == 3

    def test_approx_census(self, runner, tmp_path):
        path = build_circuit_file(runner, tmp_path, ["5", "--approx", "2"])
        counts = Circuit.from_json(path.read_text()).gate_census()
        assert counts[GateKind.H] == 5 and counts[GateKind.CPHASE] == 4

    def test_zero_qubits_usage_error(self, runner):
        result = runner.invoke(main, ["build", "0"])
        assert result.exit_code == 2

    def test_census_printed(self, runner, tmp_path):
        path = tmp_path / "c.json"
        result = runner.invoke(main, ["build", "3", "-o", str(path)])
        assert "H: 3" in result.output and "CPhase: 3" in result.output

    def test_lowered_output(self, runner, tmp_path):
        path = build_circuit_file(runner, tmp_path, ["3", "--lower", "elementary"])
        kinds = {g.kind for g in Circuit.from_json(path.read_text())}
        assert GateKind.CPHASE not in kinds and GateKind.XOR not in kinds


class TestRoute:
    def test_two_qubit_qft_no_swaps(self, runner, tmp_path):
        src = build_circuit_file(runner, tmp_path, ["2"])
        result = runner.invoke(
            main, ["route", str(src), "-o", str(tmp_path / "r.json")]
        )
        assert result.exit_code == 0
        report = json.loads(result.stdout.strip())
        assert report["measured"] == 0

    def test_five_qubit_report_values(self, runner, tmp_path):
        src = build_circuit_file(runner, tmp_path, ["5"])
        out = tmp_path / "r.json"
        result = runner.invoke(main, ["route", str(src), "--reduce", "-o", str(out)])
        report = json.loads(result.stdout.strip())
        assert report["paper_naive"] == 30
        assert report["paper_reduced"] == 12
        assert report["measured"] == 20
        assert report["reduced_measured"] == 12

    def test_routed_circuit_adjacent(self, runner, tmp_path):
        src = build_circuit_file(runner, tmp_path, ["6"])
        out = tmp_path / "r.json"
        assert runner.invoke(main, ["route", str(src), "-o", str(out)]).exit_code == 0
        routed = Circuit.from_json(out.read_text())
        assert all(
            abs(g.qubits[0] - g.qubits[1]) == 1 for g in routed if g.is_two_qubit
        )

    def test_malformed_input(self, runner, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert runner.invoke(main, ["route", str(bad)]).exit_code == 2


class TestVerify:
    def test_qft_with_reversal_matches_dft(self, runner, tmp_path):
        src = build_circuit_file(runner, tmp_path, ["4", "--bit-reversal"])
        result = runner.invoke(main, ["verify", str(src), "--against", "dft"])
        assert result.exit_code == 0
        assert "residual=" in result.output

    def test_qft_without_reversal_mismatches(self, runner, tmp_path):
        src = build_circuit_file(runner, tmp_path, ["4"])
        result = runner.invoke(main, ["verify", str(src), "--against", "dft"])
        assert result.exit_code == 1

    def test_self_comparison_phase_one(self, runner, tmp_path):
        src = build_circuit_file(runner, tmp_path, ["3"])
        result = runner.invoke(main, ["verify", str(src), "--against", str(src)])
        assert result.exit_code == 0
        assert "phase=1" in result.output

    def test_capacity_exit(self, runner, tmp_path):
        big = tmp_path / "big.json"
        big.write_text(json.dumps({"n": 13, "stage": "synthesized", "gates": []}))
        result = runner.invoke(main, ["verify", str(big)])
        assert result.exit_code == 3


class TestCost:
    def test_closed_form_taun(self, runner):
        result = runner.invoke(
            main, ["cost", "--closed-form", "qft", "--policy", "tauN", "--n-range", "2:5"]
        )
        costs = [line.split(",")[1] for line in result.output.strip().split("\n")[1:]]
        assert costs == ["1", "5", "17", "49"]

    def test_closed_form_tau0(self, runner):
        result = runner.invoke(
            main, ["cost", "--closed-form", "qft", "--policy", "tau0", "--n-range", "2:5"]
        )
        costs = [line.split(",")[1] for line in result.output.strip().split("\n")[1:]]
        assert costs == ["0.5", "1.25", "2.125", "3.0625"]

    def test_circuit_report(self, runner, tmp_path):
        src = build_circuit_file(runner, tmp_path, ["5"])
        result = runner.invoke(main, ["cost", str(src), "--policy", "tauN"])
        report = json.loads(result.output)
        assert report["total_relative"] == "49"
        assert report["breakdown"]["controlled_rotation"] == "49"

    def test_infeasible_model_exit(self, runner):
        result = runner.invoke(
            main,
            ["cost", "--closed-form", "qft", "--n-range", "2:4", "--policy", "tau0",
             "--tau0", "1e-6", "--t-res", "1e-3"],
        )
        assert result.exit_code == 4

    def test_intensity_field_warning(self, runner):
        result = runner.invoke(
            main,
            ["cost", "--closed-form", "qft", "--mode", "intensity",
             "--b-min", "1e-3", "--n-range", "100:100"],
        )
        assert result.exit_code == 0
        assert "exceeds feasible field" in result.output
        assert "ratio=2^99" in result.output

    # 2^(n-1) is beyond the float range from n = 1025, and B_max from n = 1035
    @pytest.mark.parametrize("n, b_max", [(1030, "5.75262e+306"), (1100, "inf")])
    def test_intensity_field_beyond_float_range(self, runner, n, b_max):
        result = runner.invoke(
            main,
            ["cost", "--closed-form", "qft", "--mode", "intensity",
             "--b-min", "1e-3", "--n-range", f"{n}:{n}"],
        )
        assert result.exit_code == 0, result.output
        assert "Traceback" not in result.output
        assert f"B_max={b_max} T ratio=2^{n - 1} exceeds feasible field" in result.output

    @pytest.mark.parametrize(
        "args",
        [
            ["--closed-form", "aqft:x", "--n-range", "2:5"],
            ["--closed-form", "bogus", "--n-range", "2:5"],
            ["--closed-form", "qft", "--n-range", "5:3"],
            ["--closed-form", "qft", "--n-range", "2:5", "--t-res", "nan"],
            ["--closed-form", "qft", "--n-range", "2:5", "--t-res", "inf"],
            ["--closed-form", "qft", "--n-range", "2:5", "--tau0", "inf"],
            ["--closed-form", "aqft:0", "--n-range", "2:5", "--policy", "tau0"],
            ["--closed-form", "qft", "--n-range", "2:5", "--tau0", "-1"],
            ["--closed-form", "qft", "--n-range", "2:5", "--mode", "intensity",
             "--b-min", "0"],
        ],
    )
    def test_bad_options_are_usage_errors(self, runner, args):
        result = runner.invoke(main, ["cost", *args])
        assert result.exit_code == 2, result.output
        assert "Traceback" not in result.output
        assert "Error:" in result.output


class TestPipeline:
    def test_build_route_verify_cost(self, runner, tmp_path):
        for n in range(2, 9):
            built = build_circuit_file(runner, tmp_path, [str(n), "--bit-reversal"])
            routed = tmp_path / "routed.json"
            r = runner.invoke(
                main, ["route", str(built), "--reduce", "-o", str(routed)]
            )
            assert r.exit_code == 0
            v = runner.invoke(main, ["verify", str(routed), "--against", "dft"])
            assert v.exit_code == 0, f"n={n}: {v.output}"
            c = runner.invoke(main, ["cost", str(routed)])
            assert c.exit_code == 0

    def test_determinism(self, runner, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["cost", "--closed-form", "qft", "--n-range", "2:20"]
        assert runner.invoke(main, [*args, "-o", str(a)]).exit_code == 0
        assert runner.invoke(main, [*args, "-o", str(b)]).exit_code == 0
        assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize(
    "args, code",
    [
        (["build", "3", "--xor-mode", "physical"], 2),
        (["cost", "--closed-form", "qft_routed_reduced", "--n-range", "60:70"], 0),
        (["cost", "--closed-form", "qft_routed_reduced", "--n-range", "2:5000"], 3),
    ],
)
def test_removed_option_and_routed_cap(runner, args, code):
    result = runner.invoke(main, args)
    assert result.exit_code == code, result.output
    assert "Traceback" not in result.output
    if code == 0:
        # swaps are free by default: the tauN QFT total (n-2)*2^(n-1) + 1
        assert result.stdout.split("\n")[1:-1] == [
            f"{n},{(n - 2) * 2 ** (n - 1) + 1},true,10,tauN,duration,qft_routed_reduced"
            for n in range(60, 71)
        ]


def _circuit_text(n: int, gates: list) -> str:
    return json.dumps({"n": n, "stage": "synthesized", "gates": gates})


def _rz(log2den: int) -> dict:
    return {"kind": "Rz", "q": [0], "angle": {"num": "1", "log2den": log2den}}


_H0 = {"kind": "H", "q": [0]}
_CURVE = ["cost", "--closed-form", "qft", "--n-range", "2:3", "--t-res", "1e-3"]
_INFEASIBLE = "infeasible model: "


@pytest.mark.parametrize(
    "args, stdin, code, stderr",
    [
        ([*_CURVE, "--policy", "tau0", "--tau0", "1e-4"], None, 4, _INFEASIBLE),
        # tau_n-1 tunes the intensity so that the smallest rotation takes t_R
        ([*_CURVE, "--policy", "tauN", "--tau0", "1e-4"], None, 0, ""),
        ([*_CURVE, "--mode", "intensity", "--tau0", "1e-4"], None, 4, _INFEASIBLE),
        (["cost", "--closed-form", "qft_routed_reduced", "--n-range", "2:5000"],
         None, 3, "capacity error: "),
        (["verify", "-"], _circuit_text(13, []), 3, "capacity error: "),
        (["verify", "-", "--against", "WIDE"], _circuit_text(2, []), 2,
         "- has 2 qubits, WIDE has 3"),
        (["build", "5", "--approx", "7"], None, 2, "m must be in [1, 5], got 7"),
        # one above the width cap: rejected before any gate is built or read
        (["build", "4097"], None, 3, "capacity error: n=4097 exceeds qubit cap 4096"),
        (["cost", "-", "--mode", "intensity"], _circuit_text(4097, [_H0]), 3,
         "capacity error: n=4097 exceeds qubit cap 4096"),
        (["cost", "-"], _circuit_text(1, [_rz(4098)]), 2,
         "log2den 4098 exceeds the bound 4097"),
    ],
)
def test_exit_codes(runner, tmp_path, args, stdin, code, stderr):
    wide = tmp_path / "wide.json"
    wide.write_text(_circuit_text(3, []))
    args = [str(wide) if a == "WIDE" else a for a in args]
    result = runner.invoke(main, args, input=stdin)
    assert result.exit_code == code, result.output
    assert "Traceback" not in result.output
    assert stderr.replace("WIDE", str(wide)) in result.stderr
    if code == 0:
        assert result.stdout.split("\n")[1:3] == [
            "2,1,true,0,tauN,duration,qft", "3,5,true,0,tauN,duration,qft"
        ]


def test_infeasible_circuit_is_not_an_exit_code(runner):
    built = runner.invoke(main, ["build", "3", "--lower", "elementary"])
    result = runner.invoke(main, ["cost", "-"], input=built.stdout)
    assert result.exit_code == 0, result.output
    assert json.loads(result.stdout)["feasible"] is False


def test_widest_circuit_and_smallest_angle_are_read(runner):
    wide = runner.invoke(
        main, ["cost", "-", "--mode", "intensity"], input=_circuit_text(4096, [_H0])
    )
    assert wide.exit_code == 0, wide.output
    assert json.loads(wide.stdout)["intensity_ratio"] == str(2**4095)
    fine = runner.invoke(main, ["cost", "-"], input=_circuit_text(1, [_rz(4097)]))
    assert fine.exit_code == 0, fine.output
    assert Fraction(json.loads(fine.stdout)["total_relative"]) == Fraction(1, 2**4097)


@pytest.mark.parametrize(
    "args, stdin",
    [
        (["cost", "-"], "[1]"),
        (["cost", "-"], _circuit_text(2, [{"kind": "H", "q": [0.5]}])),
        (["cost", "-"], json.dumps({"n": True, "gates": [_H0]})),
        (["cost", "-"], json.dumps({"n": 2.0, "gates": [_H0]})),
        (["cost", "-"], _circuit_text(2, [{"kind": "H", "q": [True]}])),
        (["cost", "-"], _circuit_text(2, [{"kind": "H", "q": 0}])),
        (["cost", "-"], _circuit_text(2, [[0]])),
        (["cost", "-"], json.dumps({"n": 2, "gates": 5})),
        (["cost", "-"], _circuit_text(
            2, [{"kind": "Rz", "q": [0], "angle": {"num": "1", "log2den": 2.0}}])),
        (["cost", "-"], _circuit_text(
            2, [{"kind": "Rz", "q": [0], "angle": {"num": [1], "log2den": 2}}])),
        (["cost", "-"], _circuit_text(2, [{"kind": "Rz", "q": [0], "angle": None}])),
        (["cost", "-"], _circuit_text(2, [{"kind": "H", "q": [2]}])),
        (["cost", "-"], _circuit_text(2, [{"kind": "H", "q": [-1]}])),
        (["verify", "-", "--tol", "nan"], _circuit_text(2, [_H0])),
        (["verify", "-", "--tol", "-1"], _circuit_text(2, [_H0])),
        (["verify", "-", "--tol", "inf"], _circuit_text(2, [_H0])),
    ],
)
def test_malformed_input_is_usage_error(runner, args, stdin):
    result = runner.invoke(main, args, input=stdin)
    assert result.exit_code == 2, result.output
    assert "Error:" in result.output
    assert "Traceback" not in result.output
