"""Layer tracing for one CLI invocation, installed from outside the package.

Layers are the package's modules: ``cli``, ``problems``, ``core``,
``restarts``, ``solvers`` and ``bounds``. ``install`` replaces module
attributes of ``restartopt`` with timing wrappers, so nothing under
``src/`` knows about the tracer.

Two kinds of frame share one self-time rule (a frame's duration minus the
part of it covered by frames opened inside it):

* spans, recorded one per call at the cli -> restarts -> solvers
  boundaries (plus problem construction and trace writing);
* leaves, for calls too frequent to record one by one (oracle callables,
  the ``ProximalOracle`` glue methods, closed-form bounds). A leaf adds
  its count and time to counters on the innermost open span.

Spans stay in memory; ``dump_spans`` writes them out after the run.
"""

from __future__ import annotations

import dataclasses
import os
import time
from collections import defaultdict
from typing import Any, Callable

LAYERS = ("cli", "problems", "core", "restarts", "solvers", "bounds")

# Oracle callables of a ProximalOracle and the counter each one feeds.
ORACLE_FIELDS = {
    "value": "value",
    "smooth_gradient": "grad",
    "prox": "prox",
    "nonsmooth_value": "psi",
}


class Span:
    """One recorded call at a layer boundary."""

    __slots__ = ("id", "parent", "layer", "name", "start", "end", "covered", "counters")

    def __init__(self, id: int, parent: int | None, layer: str, name: str):
        self.id = id
        self.parent = parent
        self.layer = layer
        self.name = name
        self.start = self.end = 0.0
        self.covered = 0.0
        self.counters: dict[str, float] = defaultdict(float)

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - self.covered


class Tracer:
    """Frames on a stack; per-layer self time; spans kept in memory."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.self_s: dict[str, float] = defaultdict(float)
        self._open: list[Span] = []
        # Time covered by finished child frames, one slot per open frame
        # plus a bottom slot for frames opened at top level.
        self._covered: list[float] = [0.0]

    # -- spans -----------------------------------------------------------

    def push(self, layer: str, name: str) -> Span:
        parent = self._open[-1].id if self._open else None
        span = Span(len(self.spans), parent, layer, name)
        self.spans.append(span)
        self._open.append(span)
        self._covered.append(0.0)
        span.start = self.clock()
        return span

    def pop(self, span: Span) -> None:
        span.end = self.clock()
        if self._open.pop() is not span:
            raise RuntimeError(f"span {span.name!r} closed out of order")
        span.covered = self._covered.pop()
        self._covered[-1] += span.duration
        self.self_s[span.layer] += span.self_time

    def span(self, layer: str, name: str, fn: Callable,
             on_result: Callable[[Span, Any], None] | None = None) -> Callable:
        """Wrap ``fn`` so that each call is one span."""

        def wrapped(*args, **kwargs):
            s = self.push(layer, name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.pop(s)
            if on_result is not None:
                on_result(s, result)
            return result

        wrapped.__wrapped__ = fn
        return wrapped

    # -- leaves ------------------------------------------------------------

    def leaf(self, layer: str, counter: str, fn: Callable) -> Callable:
        """Wrap ``fn`` so that each call adds to counters on the open span.

        The innermost open span gets ``counter`` (calls) and
        ``counter + ".s"`` (seconds, including nested leaves).
        """
        clock = self.clock
        covered = self._covered
        open_spans = self._open
        self_s = self.self_s
        seconds = counter + ".s"

        def wrapped(*args, **kwargs):
            covered.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                inner = covered.pop()
                covered[-1] += dur
                self_s[layer] += dur - inner
                counters = open_spans[-1].counters
                counters[counter] += 1
                counters[seconds] += dur

        wrapped.__wrapped__ = fn
        return wrapped

    # -- results -----------------------------------------------------------

    def total(self, key: str) -> float:
        """Sum of one counter over all spans."""
        return sum(s.counters.get(key, 0.0) for s in self.spans)

    def dump_spans(self) -> list[list]:
        """Spans as ``[id, parent, layer, name, start, end, counters]`` rows."""
        return [
            [s.id, s.parent, s.layer, s.name, s.start, s.end, dict(s.counters)]
            for s in self.spans
        ]


def _solver_result(span: Span, result) -> None:
    trace = result[1] if isinstance(result, tuple) else result
    span.counters["accepted"] = trace.accepted
    span.counters["backtracks"] = trace.backtracks


def _grid_result(span: Span, outcome) -> None:
    span.counters["grid_runs"] = len(outcome.runs)
    span.counters["grid_inner_iters"] = outcome.total_inner_iterations
    span.counters["grid_best_accepted"] = outcome.best_trace.accepted


def install(tracer: Tracer) -> None:
    """Patch the restartopt modules so that every layer reports to ``tracer``.

    Functions are replaced in every namespace that calls them, because
    ``from x import f`` binds the name at import time.
    """
    from restartopt import bounds, cli, core, restarts, solvers

    ufgm = tracer.span("solvers", "solvers.universal_fast_gradient",
                       solvers.universal_fast_gradient, _solver_result)
    solvers.universal_fast_gradient = ufgm  # called by solvers.accelerated
    restarts.universal_fast_gradient = ufgm
    cli.gradient_descent = tracer.span(
        "solvers", "solvers.gradient_descent", solvers.gradient_descent, _solver_result)

    for name in ("restart_scheduled", "h_restart", "criterion_restart",
                 "monotone_restart", "adaptive_grid"):
        on_result = _grid_result if name == "adaptive_grid" else None
        wrapped = tracer.span("restarts", f"restarts.{name}",
                              getattr(restarts, name), on_result)
        setattr(cli, name, wrapped)
        if name == "restart_scheduled":
            restarts.restart_scheduled = wrapped  # called by adaptive_grid

    for name in dir(bounds):
        fn = getattr(bounds, name)
        if name.startswith(("bound_", "optimal_constant_", "schedule_",
                            "restart_count", "ufgm_constant")) and callable(fn):
            wrapped = tracer.leaf("bounds", "bounds", fn)
            setattr(bounds, name, wrapped)
            if hasattr(restarts, name):
                setattr(restarts, name, wrapped)

    core.ProximalOracle.smooth_value = tracer.leaf(
        "core", "core.smooth_value", core.ProximalOracle.smooth_value)
    core.ProximalOracle.psi = tracer.leaf("core", "core.psi", core.ProximalOracle.psi)

    cli.load_dataset = tracer.span("problems", "problems.load", cli.load_dataset)
    build = tracer.span("problems", "problems.build", cli.build_instance)

    def build_instance(cfg):
        instance = build(cfg)
        oracle = instance.oracle
        wrapped = {
            field: tracer.leaf("problems", f"problems.{counter}", getattr(oracle, field))
            for field, counter in ORACLE_FIELDS.items()
            if getattr(oracle, field) is not None
        }
        return dataclasses.replace(instance, oracle=dataclasses.replace(oracle, **wrapped))

    cli.build_instance = build_instance

    cli.write_trace = tracer.span("cli", "cli.write", cli.write_trace)
    atomic_write = cli._atomic_write

    def traced_atomic_write(path: str, text: str) -> None:
        s = tracer.push("cli", "cli.write")
        try:
            atomic_write(path, text)
        finally:
            tracer.pop(s)
        s.counters["files"] += 1
        s.counters["bytes"] += os.path.getsize(path)

    cli._atomic_write = traced_atomic_write


# Every per-layer metric the benchmark prints with --trace 1, with its unit.
PER_LAYER_UNITS = {
    "cli.self_s": "s",
    "cli.self_share": "fraction",
    "cli.write_s": "s",
    "cli.write_share": "fraction",
    "cli.files_written": "count",
    "cli.bytes_written": "bytes",
    "problems.self_s": "s",
    "problems.self_share": "fraction",
    "problems.oracle_s": "s",
    "problems.value_calls": "count",
    "problems.grad_calls": "count",
    "problems.prox_calls": "count",
    "problems.psi_calls": "count",
    "problems.calls_per_step": "count/step",
    "problems.matvecs_per_step": "count/step",
    "problems.build_s": "s",
    "problems.load_s": "s",
    "core.self_share": "fraction",
    "core.oracle_glue_s": "s",
    "restarts.self_s": "s",
    "restarts.self_share": "fraction",
    "restarts.cycles": "count",
    "restarts.grid_runs": "count",
    "restarts.grid_inner_iters": "count",
    "restarts.grid_useful_ratio": "fraction",
    "solvers.self_s": "s",
    "solvers.self_share": "fraction",
    "solvers.self_us_per_step": "us/step",
    "solvers.accepted": "count",
    "solvers.backtracks": "count",
    "solvers.accept_ratio": "fraction",
    "bounds.self_share": "fraction",
    "bounds.calls": "count",
    "bounds.s": "s",
    "traced_main_s": "s",
    "spans": "count",
    "trace_overhead_frac": "fraction",
}


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer figures of one traced invocation, by metric name."""
    spans = tracer.spans
    by_id = {s.id: s for s in spans}
    total = sum(s.duration for s in spans if s.parent is None)

    def share(seconds: float) -> float:
        return seconds / total if total > 0 else 0.0

    def is_top_write(s: Span) -> bool:
        return s.name == "cli.write" and (
            s.parent is None or by_id[s.parent].name != "cli.write")

    solver_spans = [s for s in spans if s.layer == "solvers"]
    accepted = sum(s.counters["accepted"] for s in solver_spans)
    backtracks = sum(s.counters["backtracks"] for s in solver_spans)
    calls = {c: tracer.total(f"problems.{c}") for c in ORACLE_FIELDS.values()}
    grid_iters = tracer.total("grid_inner_iters")
    write_s = sum(s.duration for s in spans if is_top_write(s))

    def per_step(x: float) -> float:
        return x / accepted if accepted else 0.0

    self_s = {layer: tracer.self_s.get(layer, 0.0) for layer in LAYERS}
    m = {f"{layer}.self_share": share(self_s[layer]) for layer in LAYERS}
    m.update({f"{layer}.self_s": self_s[layer]
              for layer in ("cli", "problems", "restarts", "solvers")})
    m.update({
        "traced_main_s": total,
        "spans": float(len(spans)),
        "problems.oracle_s": sum(tracer.total(f"problems.{c}.s") for c in calls),
        "problems.value_calls": calls["value"],
        "problems.grad_calls": calls["grad"],
        "problems.prox_calls": calls["prox"],
        "problems.psi_calls": calls["psi"],
        "problems.calls_per_step": per_step(sum(calls.values())),
        # Every oracle in the benchmark is a quadratic form: one matvec per
        # value and per gradient call, none in prox or psi.
        "problems.matvecs_per_step": per_step(calls["value"] + calls["grad"]),
        "problems.build_s": sum(s.self_time for s in spans if s.name == "problems.build"),
        "problems.load_s": sum(s.duration for s in spans if s.name == "problems.load"),
        "core.oracle_glue_s": self_s["core"],
        "solvers.self_us_per_step": 1e6 * per_step(self_s["solvers"]),
        "solvers.accepted": accepted,
        "solvers.backtracks": backtracks,
        "solvers.accept_ratio": accepted / (accepted + backtracks) if accepted else 0.0,
        "restarts.cycles": float(sum(
            1 for s in solver_spans
            if s.parent is not None and by_id[s.parent].layer == "restarts")),
        "restarts.grid_runs": tracer.total("grid_runs"),
        "restarts.grid_inner_iters": grid_iters,
        "restarts.grid_useful_ratio": (
            tracer.total("grid_best_accepted") / grid_iters if grid_iters else 0.0),
        "cli.write_s": write_s,
        "cli.write_share": share(write_s),
        "cli.files_written": tracer.total("files"),
        "cli.bytes_written": tracer.total("bytes"),
        "bounds.calls": tracer.total("bounds"),
        "bounds.s": self_s["bounds"],
    })
    return m
