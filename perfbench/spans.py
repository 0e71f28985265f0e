"""Span recorder and the wrappers that put spans around qftcost's layers.

A span records name, start, end, parent span and job id.  Spans stay in
memory and are written out when the run ends.  Wrappers are installed at
the module attributes that callers bind (``qftcost.cli.cancel_swaps`` as
well as ``qftcost.route.cancel_swaps``), only for traced passes, and are
removed afterwards, so untraced passes run the program untouched.
"""
from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter, defaultdict

#: Span name of one job; its self time is the part of the job no layer covers.
JOB_SPAN = "bench.job"

#: Layer spans and the per-layer metric each one's summed self time feeds.
LAYER_SPANS = {
    "synth.build_aqft": "synth.build_aqft_s",
    "synth.lower_circuit": "synth.lower_circuit_s",
    "route.route_lnn": "route.route_lnn_s",
    "route.cancel_swaps": "route.cancel_swaps_s",
    "cost.circuit_cost": "cost.circuit_cost_s",
    "cost.cost_curve": "cost.cost_curve_s",
    "cost.curve_csv": "cost.curve_csv_s",
    "circuit.to_json": "circuit.to_json_s",
    "circuit.from_json": "circuit.from_json_s",
    "simulate.circuit_unitary": "simulate.circuit_unitary_s",
    "simulate.dft_matrix": "simulate.dft_matrix_s",
    "simulate.phase_check": "simulate.phase_check_s",
    "simulate.apply_circuit": "simulate.apply_circuit_s",
    "cli.build": "cli.build_s",
    "cli.route": "cli.route_s",
    "cli.cost": "cli.cost_s",
    JOB_SPAN: "bench.remainder_s",
}


class SpanRecorder:
    """In-memory spans plus counters, both filled by the layer wrappers."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.job_id: str | None = None
        self._open: list[int] = []

    def begin(self, name: str) -> int:
        parent = self._open[-1] if self._open else None
        self.spans.append([name, time.perf_counter(), None, parent, self.job_id])
        self._open.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def end(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._open.pop()

    def self_times(self, first: int = 0) -> dict[str, float]:
        """Summed self time per span name over spans[first:]: each span's
        duration minus the time its child spans cover."""
        covered: defaultdict[int, float] = defaultdict(float)
        for _, start, end, parent, _ in self.spans[first:]:
            if parent is not None:
                covered[parent] += end - start
        totals: defaultdict[str, float] = defaultdict(float)
        for index in range(first, len(self.spans)):
            name, start, end, _, _ = self.spans[index]
            totals[name] += end - start - covered[index]
        return dict(totals)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for index, (name, start, end, parent, job) in enumerate(self.spans):
                fh.write(json.dumps({"id": index, "name": name, "start": start, "end": end,
                                     "parent": parent, "job": job}) + "\n")


def traced(recorder: SpanRecorder, name: str, fn, count=None):
    """fn inside a span; count(counts, args, result) runs after the span ends."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        index = recorder.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            recorder.end(index)
        if count is not None:
            count(recorder.counts, args, result)
        return result

    return wrapper


# -- counters, each measured where the work happens -----------------------
def _count_routed(counts, args, routed):
    swaps_in = sum(1 for g in args[0].gates if g.kind.value == "Swap")
    counts["route.swaps_inserted"] += routed.swap_count - swaps_in


def _count_cancelled(counts, args, reduced):
    counts["route.swaps_removed"] += args[0].swap_count - reduced.swap_count


def _count_synth(counts, args, circuit):
    counts["synth.gates_out"] += len(circuit)


def _count_costed(counts, args, report):
    counts["cost.gates_costed"] += len(args[0])


def _count_rows(counts, args, rows):
    counts["cost.curve_rows"] += len(rows)


def _count_json_out(counts, args, text):
    counts["circuit.json_bytes"] += len(text)


def _count_json_in(counts, args, circuit):
    counts["circuit.json_bytes"] += len(args[1])


def _count_unitary(counts, args, u):
    counts["simulate.amp_updates"] += len(args[0]) * u.shape[0] * u.shape[1]


def _count_state(counts, args, state):
    counts["simulate.amp_updates"] += len(args[0]) * state.shape[0]


def install_layer_spans(recorder: SpanRecorder):
    """Wrap every layer entry point; returns a function that undoes it."""
    from qftcost import circuit, cli, cost, route, simulate, synth

    undo: list[tuple] = []

    def patch(owner, attr, wrapper):
        undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def patch_function(module, attr, span, count=None):
        original = getattr(module, attr)
        wrapper = traced(recorder, span, original, count)
        for mod in list(sys.modules.values()):
            name = getattr(mod, "__name__", "")
            if name != "qftcost" and not name.startswith("qftcost."):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    patch(mod, key, wrapper)

    patch_function(synth, "build_aqft", "synth.build_aqft", _count_synth)
    patch_function(synth, "lower_circuit", "synth.lower_circuit", _count_synth)
    patch_function(route, "route_lnn", "route.route_lnn", _count_routed)
    patch_function(route, "cancel_swaps", "route.cancel_swaps", _count_cancelled)
    patch_function(cost, "circuit_cost", "cost.circuit_cost", _count_costed)
    patch_function(cost, "cost_curve", "cost.cost_curve", _count_rows)
    patch_function(cost, "curve_csv", "cost.curve_csv")
    patch_function(simulate, "circuit_unitary", "simulate.circuit_unitary", _count_unitary)
    patch_function(simulate, "dft_matrix", "simulate.dft_matrix")
    patch_function(simulate, "equal_up_to_global_phase", "simulate.phase_check")
    patch_function(simulate, "apply_circuit", "simulate.apply_circuit", _count_state)

    cls = circuit.Circuit
    patch(cls, "to_json",
          traced(recorder, "circuit.to_json", cls.__dict__["to_json"], _count_json_out))
    patch(cls, "from_json", classmethod(
        traced(recorder, "circuit.from_json", cls.__dict__["from_json"].__func__,
               _count_json_in)))
    for command in (cli.build, cli.route, cli.cost):
        patch(command, "callback",
              traced(recorder, f"cli.{command.name}", command.callback))

    def restore() -> None:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

    return restore
