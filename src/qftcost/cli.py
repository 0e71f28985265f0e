"""Command-line surface: build, route, verify, cost.

Exit codes: 0 success, 1 verification mismatch, 2 usage/parse error,
3 capacity exceeded, 4 infeasible hardware model.
"""
from __future__ import annotations

import json
import math
import sys

import click
import numpy as np

from .circuit import Circuit
from .cost import (
    ControlMode,
    HardwareModel,
    UnitPolicy,
    circuit_cost,
    cost_curve,
    curve_csv,
    intensity_requirement,
    max_feasible_qubits,
    paper_naive_swap_count,
    paper_reduced_swap_count,
)
from .errors import CapacityError, InfeasibleModelError
from .route import MeetAt, RoutingStrategy, cancel_swaps, route_lnn
from .simulate import circuit_unitary, dft_matrix, equal_up_to_global_phase
from .synth import LoweringLevel, build_aqft, lower_circuit

EXIT_MISMATCH = 1
EXIT_CAPACITY = 3
EXIT_INFEASIBLE = 4

#: The paper's headline scenario: duration control with the smallest
#: rotation as the time unit.
_DEFAULT_MODE = "duration"
_DEFAULT_POLICY = "tauN"


def _read_circuit(path: str) -> Circuit:
    try:
        if path == "-":
            text = sys.stdin.read()
        else:
            with open(path) as fh:
                text = fh.read()
        return Circuit.from_json(text)
    except CapacityError:
        raise  # exit 3, not a usage error
    except (OSError, LookupError, ValueError) as exc:
        raise click.UsageError(f"cannot read circuit from {path}: {exc}")


def _write(text: str, out: str | None) -> None:
    if out is None or out == "-":
        click.echo(text, nl=not text.endswith("\n"))
    else:
        with open(out, "w") as fh:
            fh.write(text)


def _census_lines(circuit: Circuit) -> str:
    counts = circuit.gate_census()
    parts = [f"{k.value}: {v}" for k, v in counts.items() if v > 0]
    return f"n={circuit.num_qubits} gates={len(circuit)} " + " ".join(parts)


def _parse_strategy(name: str):
    if name.startswith("meet:"):
        try:
            return MeetAt(int(name.split(":", 1)[1]))
        except ValueError:
            raise click.UsageError(f"bad meet point in {name!r}")
    try:
        return {
            "move-control": RoutingStrategy.MOVE_CONTROL_TO_TARGET,
            "move-target": RoutingStrategy.MOVE_TARGET_TO_CONTROL,
        }[name]
    except KeyError:
        raise click.UsageError(f"unknown strategy {name!r}")


class _ExitCodeGroup(click.Group):
    """Maps the library's errors to exit codes, for every command: capacity
    3, infeasible model 4, any other ValueError a usage error (2)."""

    def invoke(self, ctx: click.Context):
        try:
            return super().invoke(ctx)
        except CapacityError as exc:
            click.echo(f"capacity error: {exc}", err=True)
            sys.exit(EXIT_CAPACITY)
        except InfeasibleModelError as exc:
            click.echo(f"infeasible model: {exc}", err=True)
            sys.exit(EXIT_INFEASIBLE)
        except ValueError as exc:
            # the subcommand's own context, so the usage line names it
            name = ctx.invoked_subcommand
            sub = click.Context(self.get_command(ctx, name), parent=ctx, info_name=name)
            raise click.UsageError(str(exc), sub) from None


@click.group(cls=_ExitCodeGroup)
def main() -> None:
    """QFT synthesis, LNN routing, and hardware time-cost estimation."""


@main.command()
@click.argument("n", type=int)
@click.option("--approx", "m", type=int, default=None, help="AQFT distance cutoff.")
@click.option("--bit-reversal", is_flag=True, help="Append bit-reversal swaps.")
@click.option(
    "--lower",
    type=click.Choice([lv.value for lv in LoweringLevel]),
    default="logical",
)
@click.option("-o", "out", type=str, default=None, help="Output file (default stdout).")
def build(n, m, bit_reversal, lower, out):
    """Build the N-qubit QFT (or AQFT) circuit as JSON."""
    circuit = build_aqft(n, n if m is None else m, bit_reversal)
    circuit = lower_circuit(circuit, LoweringLevel(lower))
    _write(circuit.to_json(indent=2) + "\n", out)
    census = _census_lines(circuit)
    # keep stdout clean for piping when the circuit itself goes there
    click.echo(census, err=out is None)


@main.command()
@click.argument("infile", type=str)
@click.option("--strategy", default="move-target", help="move-control | move-target | meet:L")
@click.option("--reduce", "do_reduce", is_flag=True, help="Cancel redundant swap pairs.")
@click.option("-o", "out", type=str, default=None)
def route(infile, strategy, do_reduce, out):
    """Route a circuit onto the nearest-neighbor chain."""
    circuit = _read_circuit(infile)
    strat = _parse_strategy(strategy)
    routed = route_lnn(circuit, strat)
    measured = routed.swap_count
    result = routed
    if do_reduce:
        result = cancel_swaps(routed)
    n = circuit.num_qubits
    report = {
        "n": n,
        "strategy": strategy,
        "measured": measured,
        "paper_naive": paper_naive_swap_count(n),
        "paper_reduced": paper_reduced_swap_count(n),
    }
    if do_reduce:
        report["reduced_measured"] = result.swap_count
    _write(result.circuit.to_json(indent=2) + "\n", out)
    click.echo(json.dumps(report), err=out is None)


@main.command()
@click.argument("infile", type=str)
@click.option("--against", default="dft", help='"dft" or a circuit JSON file.')
@click.option("--tol", type=float, default=1e-10)
def verify(infile, against, tol):
    """Check a circuit against the DFT matrix or another circuit file."""
    if not 0 <= tol < math.inf:
        raise click.UsageError(f"--tol must be finite and >= 0, got {tol}")
    circuit = _read_circuit(infile)
    other = None if against == "dft" else _read_circuit(against)
    if other is not None and other.num_qubits != circuit.num_qubits:
        raise click.UsageError(
            f"width mismatch: {infile} has {circuit.num_qubits} qubits, "
            f"{against} has {other.num_qubits}"
        )
    u = circuit_unitary(circuit)
    if other is None:
        target = dft_matrix(circuit.num_qubits)
    else:
        target = circuit_unitary(other)
    ok, lam = equal_up_to_global_phase(u, target, tol)
    if ok:
        residual = float(np.linalg.norm(u - lam * target))
        click.echo(f"match phase={lam:.15g} residual={residual:.15g}")
        sys.exit(0)
    residual = float(np.linalg.norm(u - target))
    click.echo(f"mismatch residual={residual:.15g}")
    sys.exit(EXIT_MISMATCH)


@main.command()
@click.argument("infile", type=str, required=False)
@click.option("--closed-form", "closed_form", default=None, help='"qft" or "aqft:M".')
@click.option("--mode", type=click.Choice(["duration", "intensity"]), default=_DEFAULT_MODE)
@click.option("--policy", type=click.Choice(["tau0", "tauN"]), default=_DEFAULT_POLICY)
@click.option("--t-res", type=float, default=1e-3, help="Time resolution t_R (s).")
@click.option("--tau0", type=float, default=1.0, help="Seconds per pi rotation.")
@click.option(
    "--b-min",
    type=click.FloatRange(min=0, min_open=True),
    default=None,
    help="Field for the smallest rotation (T).",
)
@click.option("--n-range", default=None, help="A:B inclusive range for curves.")
@click.option("-o", "out", type=str, default=None)
def cost(infile, closed_form, mode, policy, t_res, tau0, b_min, n_range, out):
    """Cost a circuit file, or emit a closed-form cost curve as CSV."""
    model = HardwareModel(
        ControlMode(mode), UnitPolicy(policy), t_resolution=t_res, t_ref=tau0
    )
    max_feasible_qubits(model)

    if closed_form is not None:
        if n_range is None:
            raise click.UsageError("--closed-form needs --n-range A:B")
        try:
            lo, hi = (int(x) for x in n_range.split(":"))
        except ValueError:
            raise click.UsageError(f"bad --n-range {n_range!r}")
        kind, aqft_m = closed_form, None
        if closed_form.startswith("aqft:"):
            kind = "aqft"
            try:
                aqft_m = int(closed_form.split(":", 1)[1])
            except ValueError:
                raise click.UsageError(f"bad --closed-form {closed_form!r}")
        rows = cost_curve(lo, hi, model, kind, aqft_m)
        _write(curve_csv(rows, model, kind), out)
        if model.mode is ControlMode.INTENSITY and b_min is not None:
            for n in range(lo, hi + 1):
                req = intensity_requirement(n, b_min)
                note = "" if req["feasible"] else " exceeds feasible field"
                click.echo(
                    f"n={n} B_max={req['b_max']:.6g} T ratio=2^{n - 1}{note}",
                    err=out is None,
                )
        return

    if infile is None:
        raise click.UsageError("provide a circuit file or --closed-form")
    circuit = _read_circuit(infile)
    report = circuit_cost(circuit, model)
    _write(json.dumps(report.to_json_dict(), indent=2) + "\n", out)


if __name__ == "__main__":
    main()
