"""An in-memory span recorder, wired to the program by wrapping its public calls.

Only the traced run imports this module.  ``Recorder.install`` replaces each
entry point in ``WRAPPED`` with a wrapper that records one span per call;
``uninstall`` puts the originals back.  Functions that other modules import
by name are wrapped at every importing module's attribute as well, since
that is the name those modules call.

A span is ``(name, start, end, parent, request)``: ``parent`` is the index of
the enclosing span, or -1 for a request's root span.  Spans nest because the
benchmark runs one client thread.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import time

from repro.core.optimizer import Optimizer
from repro.core.statistics import Statistics
from repro.egraph.runner import Runner
from repro.execution import engine
from repro.execution.engine import ExecutionEngine, PreparedPlan
from repro.ivm.views import ViewRegistry
from repro.sdqlite import parser
from repro.serving.server import ServedStatement
from repro.session import Session, Statement
from repro.storage.catalog import Catalog

#: span name -> (owner, attribute) of each wrapped entry point.
WRAPPED = {
    "sdqlite.parse": [(parser, "parse_expr")],
    "core.statistics": [(Statistics, "from_catalog")],
    "core.optimize": [(Optimizer, "optimize")],
    "egraph.run": [(Runner, "run")],
    "execution.lower": [(ExecutionEngine, "prepare")],
    "execution.run": [(PreparedPlan, "run")],
    "execution.convert": [(engine, "result_to_dense")],
    "storage.globals": [(Catalog, "globals")],
    "storage.update": [(Catalog, "update")],
    "storage.snapshot": [(Catalog, "snapshot")],
    "ivm.maintain": [(ViewRegistry, "update")],
    "ivm.view_read": [(ViewRegistry, "value")],
    "serving.request": [(ServedStatement, "execute")],
    "session.prepare": [(Session, "prepare")],
    "session.execute": [(Statement, "execute"), (Statement, "execute_with_stats")],
}

LAYERS = tuple(WRAPPED)


def _targets():
    """Every (owner, attribute, span name) to wrap, by-name imports included."""
    targets = []
    for name, entries in WRAPPED.items():
        for owner, attr in entries:
            targets.append((owner, attr, name))
            if isinstance(owner, type):
                continue
            original = getattr(owner, attr)
            for module_name, module in list(sys.modules.items()):
                if (module_name.startswith("repro.") and module is not owner
                        and getattr(module, attr, None) is original):
                    targets.append((module, attr, name))
    return targets


class Recorder:
    """Keeps spans in memory; computes per-request self time per layer."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int, int]] = []
        self.request_kinds: list[str] = []
        self.wall: list[float] = []
        self.runner_reports = []
        self.candidates: list[int] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self._request = -1

    # -- installing the wrappers ----------------------------------------------

    def install(self) -> None:
        if self._saved:
            return
        for owner, attr, name in _targets():
            # A class's own dict keeps a classmethod object unbound.
            raw = (owner.__dict__[attr] if isinstance(owner, type)
                   else getattr(owner, attr))
            self._saved.append((owner, attr, raw))
            setattr(owner, attr, self._wrap(raw, name))

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._saved):
            setattr(owner, attr, raw)
        self._saved.clear()

    def _wrap(self, raw, name):
        if isinstance(raw, classmethod):
            return classmethod(self._wrap(raw.__func__, name))
        spans, stack = self.spans, self._stack
        observe = {"egraph.run": self.runner_reports.append,
                   "core.optimize": lambda r: self.candidates.append(
                       len(r.candidate_costs))}.get(name)

        @functools.wraps(raw)
        def wrapper(*args, **kwargs):
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(index)
            start = time.perf_counter()
            try:
                result = raw(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, self._request)
            if observe is not None:
                observe(result)
            return result

        return wrapper

    # -- requests ---------------------------------------------------------------

    def begin(self, kind: str, start: float) -> None:
        """Open a request the client started at ``start``; later spans
        belong to it until :meth:`end`."""
        self._request = len(self.request_kinds)
        self.request_kinds.append(kind)
        self.spans.append(None)
        self._stack.append(len(self.spans) - 1)
        self._root_start = start

    def end(self, end: float) -> None:
        """Close the request the client saw complete at ``end``."""
        index = self._stack.pop()
        self.spans[index] = ("request", self._root_start, end, -1, self._request)
        self.wall.append(end - self._root_start)
        self._request = -1

    # -- analysis -----------------------------------------------------------------

    def self_times(self) -> list[dict[str, list[float]]]:
        """Per request: span name -> self times (ms) of its spans."""
        children = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                children[parent] += end - start
        per_request: list[dict[str, list[float]]] = [
            {} for _ in self.request_kinds]
        for index, (name, start, end, _, request) in enumerate(self.spans):
            if request >= 0:
                per_request[request].setdefault(name, []).append(
                    (end - start - children[index]) * 1e3)
        return per_request

    def check(self, tolerance: float = 0.05) -> list[str]:
        """Problems found: spans that do not nest, negative self times, or
        self times that do not add up to the request's wall time."""
        problems = []
        for index, (name, start, end, parent, request) in enumerate(self.spans):
            if parent < 0:
                continue
            _, p_start, p_end, _, p_request = self.spans[parent]
            if not (p_start <= start <= end <= p_end and p_request == request):
                problems.append(f"span {index} ({name}) is not inside its parent")
        for request, layers in enumerate(self.self_times()):
            if any(t < 0 for times in layers.values() for t in times):
                problems.append(f"request {request}: a span has negative self time")
            total = sum(sum(times) for times in layers.values()) / 1e3
            wall = self.wall[request]
            if abs(total - wall) > tolerance * wall:
                problems.append(f"request {request}: self times sum to "
                                f"{total * 1e3:.3f} ms, wall time {wall * 1e3:.3f} ms")
        return problems

    def layer_metrics(self, requests: list[int]) -> dict[str, float]:
        """``<layer>.ms`` and ``<layer>.calls`` over the given requests.

        ``.ms`` is the median, over the requests that entered the layer, of
        the layer's self time in the request; ``.calls`` is the mean number
        of calls in those requests.  A layer no request entered reads 0.
        """
        per_request = self.self_times()
        metrics = {}
        for layer in LAYERS:
            entered = [per_request[r][layer] for r in requests
                       if layer in per_request[r]]
            metrics[layer + ".ms"] = (statistics.median(sum(t) for t in entered)
                                      if entered else 0.0)
            metrics[layer + ".calls"] = (statistics.fmean(len(t) for t in entered)
                                         if entered else 0.0)
        return metrics

    def dump(self, path: str) -> None:
        """Write every span and request kind out as JSON."""
        with open(path, "w") as handle:
            json.dump({"fields": ["name", "start", "end", "parent", "request"],
                       "spans": self.spans, "requests": self.request_kinds},
                      handle)
