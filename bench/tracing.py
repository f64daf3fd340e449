"""Span tracing of modal-market's layers from outside the package.

`Tracer.install` replaces each public function listed in `SITES` with a
wrapper, at the module attribute where its caller looks it up (for example
`modal_market.equilibrium.traveler_flow_matrix`, which `solve` calls, or
`numpy.linalg.solve`). While an operation is open, every call records a
span (id, parent id, operation, layer, site, start, end, count, failed) in
memory; outside operations the wrappers only forward. `uninstall` restores
the original attributes. Nothing in the package itself changes.

A layer's self time is its span duration minus the durations of its direct
child spans. Inclusive times of nested layers overlap (solve contains
linalg), so per-layer milliseconds are not meant to add up.
"""
from __future__ import annotations

import functools
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Callable

import numpy

import modal_market
from modal_market import analytics, choice, cli, equilibrium, oracle, scenario

#: (module, attribute, layer). One layer may be reached from several sites.
SITES: tuple[tuple[Any, str, str], ...] = (
    (modal_market, "load", "scenario.load"),
    (cli, "load", "scenario.load"),
    (cli, "builtin", "scenario.builtin"),
    (analytics, "builtin_sioux", "scenario.builtin"),
    (equilibrium, "validate", "scenario.validate"),
    (cli, "validate", "scenario.validate"),
    (scenario, "time_matrix", "netgraph.time_matrix"),
    (equilibrium, "compile_scenario", "choice.compile_scenario"),
    (choice, "compile_scenario", "choice.compile_scenario"),
    (oracle, "compile_scenario", "choice.compile_scenario"),
    (equilibrium, "traveler_flow_matrix", "choice.flow_matrix"),
    (equilibrium, "driver_flow_matrix", "choice.flow_matrix"),
    (choice, "traveler_flow_matrix", "choice.flow_matrix"),
    (choice, "driver_flow_matrix", "choice.flow_matrix"),
    (equilibrium, "extract_prices", "choice.postprocess"),
    (equilibrium, "traveler_flows", "choice.postprocess"),
    (equilibrium, "driver_flows_dual", "choice.postprocess"),
    (equilibrium, "residual", "choice.postprocess"),
    (cli, "driver_flows_logit", "choice.driver_flows_logit"),
    (modal_market, "solve", "equilibrium.solve"),
    (cli, "solve", "equilibrium.solve"),
    (analytics, "solve", "equilibrium.solve"),
    (equilibrium, "solve", "equilibrium.solve"),
    (cli, "uniqueness_probe", "equilibrium.uniqueness_probe"),
    (numpy.linalg, "solve", "linalg"),
    (numpy.linalg, "lstsq", "linalg"),
    (cli, "kkt_check", "oracle.kkt_check"),
    (cli, "perturbation_probe", "oracle.perturbation_probe"),
    (modal_market, "metrics", "analytics.metrics"),
    (cli, "metrics", "analytics.metrics"),
    (cli, "sweep_cell", "analytics.sweep_cell"),
    (cli, "hub_study", "analytics.hub_study"),
    (cli, "main", "cli.main"),
)
#: The solver's own flow evaluations: one per residual or Jacobian point.
FLOW_EVAL_SITE = "modal_market.equilibrium.traveler_flow_matrix"


def _count(layer: str, args: tuple, result: Any, exc: BaseException | None) -> int:
    """Work count recorded with a span: Newton iterations or matrix order."""
    if layer == "equilibrium.solve":
        if exc is None:
            return result.iterations
        history = getattr(exc, "residual_history", None)
        return len(history) - 1 if history else 0
    if layer == "linalg":
        return int(args[0].shape[-1])
    return 0


@dataclass(frozen=True)
class Span:
    sid: int
    parent: int
    op: int
    layer: str
    site: str
    start: float
    end: float
    count: int
    failed: bool


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._next = 0
        self._op: int | None = None
        self._saved: list[tuple[Any, str, Any]] = []

    def _wrap(self, fn: Callable, layer: str, site: str) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._op is None:
                return fn(*args, **kwargs)
            sid, self._next = self._next, self._next + 1
            parent = self._stack[-1] if self._stack else -1
            self._stack.append(sid)
            result, exc = None, None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as err:
                exc = err
                raise
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans.append(Span(sid, parent, self._op, layer, site, start, end,
                                       _count(layer, args, result, exc), exc is not None))

        return traced

    def install(self) -> None:
        for owner, attr, layer in SITES:
            fn = getattr(owner, attr)
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(fn, layer, f"{owner.__name__}.{attr}"))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc_info) -> None:
        self.uninstall()

    def begin(self, op: int) -> None:
        self._op = op

    def end(self) -> None:
        self._op = None
        self._stack.clear()


def layer_metrics(spans: list[Span], op_seconds: list[float], untraced_p50_ms: float,
                  traced_p50_ms: float, bytes_written: int) -> dict[str, float]:
    """Per-operation layer metrics from the spans of `len(op_seconds)` ops."""
    n_ops = len(op_seconds)
    child = defaultdict(float)
    for s in spans:
        if s.parent >= 0:
            child[s.parent] += s.end - s.start
    total = defaultdict(float)
    self_time = defaultdict(float)
    calls = defaultdict(int)
    counts = defaultdict(int)
    failures = defaultdict(int)
    site_calls = defaultdict(int)
    covered = 0.0
    for s in spans:
        dur = s.end - s.start
        total[s.layer] += dur
        self_time[s.layer] += dur - child[s.sid]
        calls[s.layer] += 1
        counts[s.layer] += s.count
        failures[s.layer] += s.failed
        site_calls[s.site] += 1
        if s.parent < 0:
            covered += dur
    linalg_flops = sum(2.0 / 3.0 * s.count ** 3 for s in spans if s.layer == "linalg")

    def ms(layer: str) -> float:
        return 1e3 * total[layer] / n_ops

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    solves, iterations = calls["equilibrium.solve"], counts["equilibrium.solve"]
    flow_evals = site_calls[FLOW_EVAL_SITE]
    return {
        "linalg.ms": ms("linalg"),
        "linalg.calls": calls["linalg"] / n_ops,
        "linalg.dim": ratio(counts["linalg"], calls["linalg"]),
        "linalg.flops_computed": linalg_flops / n_ops,
        "equilibrium.solve.ms": ms("equilibrium.solve"),
        "equilibrium.solve.self_ms": 1e3 * self_time["equilibrium.solve"] / n_ops,
        "equilibrium.solve.calls": solves / n_ops,
        "equilibrium.solve.iterations": iterations / n_ops,
        "equilibrium.solve.failed_share": ratio(failures["equilibrium.solve"], solves),
        "equilibrium.uniqueness_probe.ms": ms("equilibrium.uniqueness_probe"),
        "choice.flow_matrix.ms": ms("choice.flow_matrix"),
        "choice.flow_matrix.calls_per_solve": ratio(flow_evals, solves),
        "choice.flow_matrix.calls_per_iteration": ratio(flow_evals, iterations),
        "choice.compile_scenario.ms": ms("choice.compile_scenario"),
        "choice.compile_scenario.calls": calls["choice.compile_scenario"] / n_ops,
        "scenario.load.ms": ms("scenario.load"),
        "scenario.builtin.ms": ms("scenario.builtin"),
        "scenario.validate.ms": ms("scenario.validate"),
        "netgraph.time_matrix.ms": ms("netgraph.time_matrix"),
        "choice.postprocess.ms": ms("choice.postprocess"),
        "analytics.metrics.ms": ms("analytics.metrics"),
        "analytics.sweep_cell.ms": ms("analytics.sweep_cell"),
        "analytics.hub_study.ms": ms("analytics.hub_study"),
        "cli.main.self_ms": 1e3 * self_time["cli.main"] / n_ops,
        "cli.bytes_written": bytes_written / n_ops,
        "oracle.perturbation_probe.ms": ms("oracle.perturbation_probe"),
        "oracle.kkt_check.ms": ms("oracle.kkt_check"),
        "choice.driver_flows_logit.ms": ms("choice.driver_flows_logit"),
        "trace.op_ms.p50": traced_p50_ms,
        "trace.overhead": traced_p50_ms / untraced_p50_ms - 1.0,
        "trace.uncovered_share": 1.0 - covered / sum(op_seconds),
    }
