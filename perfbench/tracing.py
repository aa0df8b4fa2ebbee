"""Span shims around the library's layer boundaries (traced runs only).

Each shim replaces one public function or method *where its caller looks
it up* — a module attribute such as ``repro.core.redistribution.
transfer_matrix`` or a method on its class — and records one span per
call: ``(id, parent id, name, start, end, adaptation-point id, tag)``.
The parent and the adaptation point travel in context variables, so
spans opened in the serve scheduler's worker threads (``asyncio.to_thread``
copies the calling context) nest under their own session step.

Spans stay in memory until the run ends.  :func:`layer_report` turns them
into per-layer *self* time per adaptation point: a span's duration minus
the part of it its child spans cover.  The root span of an adaptation
point is opened by the benchmark itself (or is ``Session.advance`` on the
serve workload); its self time is the untraced remainder.
"""

from __future__ import annotations

import contextvars
import gzip
import importlib
import itertools
import json
import time
from collections import Counter, defaultdict
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from pathlib import Path
from typing import Any

#: (module, attribute, span name) for module-level functions, patched
#: in the module that *calls* them
FUNCTION_SITES = [
    ("repro.analysis.pda", "parallel_data_analysis", "analysis.pda"),
    ("repro.experiments.workloads", "parallel_data_analysis", "analysis.pda"),
    ("repro.core.diffusion", "build_huffman", "tree.huffman"),
    ("repro.core.scratch", "build_huffman", "tree.huffman"),
    ("repro.core.diffusion", "diffusion_edit", "tree.edit"),
    ("repro.core.allocation", "layout_tree", "tree.layout"),
    ("repro.core.reallocator", "plan_redistribution", "core.plan"),
    ("repro.core.dynamic", "plan_redistribution", "core.plan"),
    ("repro.core.dynamic", "predict_candidate_costs", "core.candidates"),
    ("repro.experiments.runner", "predict_candidate_costs", "core.candidates"),
    ("repro.core.redistribution", "transfer_matrix", "grid.transfer_matrix"),
    ("repro.core.redistribution", "hop_bytes", "mpisim.predict"),
    ("repro.core.redistribution", "predict_alltoallv_time", "mpisim.predict"),
]

#: (module, class, method, span name) for methods, patched on the class
METHOD_SITES = [
    ("repro.perfmodel.exectime", "ExecTimePredictor", "weights", "perfmodel.weights"),
    ("repro.perfmodel.exectime", "ExecTimePredictor", "predict", "perfmodel.predict"),
    ("repro.core.reallocator", "ProcessorReallocator", "step", "core.step"),
    ("repro.core.diffusion", "DiffusionStrategy", "reallocate", "core.strategy"),
    ("repro.core.scratch", "ScratchStrategy", "reallocate", "core.strategy"),
    ("repro.core.dynamic", "DynamicStrategy", "reallocate", "core.strategy"),
    ("repro.mpisim.netsim", "NetworkSimulator", "routes_csr", "mpisim.routes"),
    ("repro.mpisim.netsim", "NetworkSimulator", "bottleneck_time", "mpisim.bottleneck"),
    ("repro.mpisim.netsim", "LinkLoadState", "update", "mpisim.link_state"),
    ("repro.mpisim.netsim", "LinkLoadState", "retire", "mpisim.link_state"),
    (
        "repro.mpisim.netsim",
        "LinkLoadState",
        "busiest_link_contributions",
        "mpisim.ledger",
    ),
    ("repro.mpisim.ledger", "CommLedger", "add_messages", "mpisim.ledger"),
    # every benchmark machine is a BG/L torus
    ("repro.topology.torus", "Torus3D", "batch_routes", "topology.batch_routes"),
    ("repro.obs.flight", "FlightRecorder", "emit", "obs.emit"),
    ("repro.serve.session", "Session", "start", "serve.start"),
    ("repro.serve.session", "Session", "advance", "serve.advance"),
]

#: the serve workload's adaptation point is one ``Session.advance`` call
ROOT_SPANS = frozenset({"adapt", "serve.advance"})


def _count_routes(tracer: Tracer, args: tuple, before: Any, result: Any) -> None:
    sim, messages = args[0], args[1]
    hits0, misses0 = before
    tracer.counts["mpisim.messages"] += len(messages)
    tracer.counts["mpisim.route_hits"] += sim.route_cache_hits - hits0
    tracer.counts["mpisim.route_misses"] += sim.route_cache_misses - misses0


def _before_routes(args: tuple) -> Any:
    sim = args[0]
    return sim.route_cache_hits, sim.route_cache_misses


def _count_pairs(tracer: Tracer, args: tuple, before: Any, result: Any) -> None:
    tracer.counts["topology.pairs_routed"] += len(args[1])


def _count_transfer(tracer: Tracer, args: tuple, before: Any, result: Any) -> None:
    tracer.counts["grid.local_points"] += result.local_points
    tracer.counts["grid.total_points"] += result.total_points


def _count_rois(tracer: Tracer, args: tuple, before: Any, result: Any) -> None:
    tracer.counts["analysis.rois"] += len(result.rectangles)


#: span name -> (hook run before the call, hook run after it)
COUNTERS: dict[str, tuple[Callable[[tuple], Any] | None, Callable[..., None]]] = {
    "mpisim.routes": (_before_routes, _count_routes),
    "topology.batch_routes": (None, _count_pairs),
    "grid.transfer_matrix": (None, _count_transfer),
    "analysis.pda": (None, _count_rois),
}


class Tracer:
    """In-memory span store plus the shims that feed it."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, int, str, float, float, int, str]] = []
        self.counts: Counter[str] = Counter()
        self._ids = itertools.count(1)
        self._adapt_ids = itertools.count(1)
        self._parent: contextvars.ContextVar[int] = contextvars.ContextVar(
            "perfbench.parent", default=0
        )
        self._adapt: contextvars.ContextVar[int] = contextvars.ContextVar(
            "perfbench.adapt", default=0
        )
        self._patched: list[tuple[Any, str, Any]] = []
        #: duration of the first ExecTimePredictor.weights call (seconds)
        self.first_weights_s: float | None = None

    # -- recording ---------------------------------------------------------

    def _open(self, name: str) -> tuple[int, int, Any, Any, float]:
        token_adapt = None
        if name in ROOT_SPANS and self._adapt.get() == 0:
            token_adapt = self._adapt.set(next(self._adapt_ids))
        parent = self._parent.get()
        sid = next(self._ids)
        token = self._parent.set(sid)
        return sid, parent, token, token_adapt, time.perf_counter()

    def _close(self, opened: tuple[int, int, Any, Any, float], name: str, tag: str) -> float:
        end = time.perf_counter()
        sid, parent, token, token_adapt, start = opened
        self._parent.reset(token)
        self.spans.append((sid, parent, name, start, end, self._adapt.get(), tag))
        if token_adapt is not None:
            self._adapt.reset(token_adapt)
        return end - start

    @contextmanager
    def span(self, name: str, tag: str = "") -> Iterator[None]:
        """Record one span around the ``with`` body."""
        opened = self._open(name)
        try:
            yield
        finally:
            self._close(opened, name, tag)

    def _shim(self, fn: Callable[..., Any], name: str) -> Callable[..., Any]:
        before_hook, after_hook = COUNTERS.get(name, (None, None))
        tagged = name in ("serve.start", "serve.advance")
        first_weights = name == "perfmodel.weights"
        tracer = self

        def shim(*args: Any, **kwargs: Any) -> Any:
            before = before_hook(args) if before_hook is not None else None
            opened = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                took = tracer._close(opened, name, args[0].session_id if tagged else "")
            if first_weights and tracer.first_weights_s is None:
                tracer.first_weights_s = took
            if after_hook is not None and tracer._adapt.get():
                after_hook(tracer, args, before, result)
            return result

        shim.__wrapped__ = fn  # type: ignore[attr-defined]
        return shim

    def install(self) -> None:
        """Patch every site (idempotent: a second call does nothing)."""
        if self._patched:
            return
        for module_name, attr, name in FUNCTION_SITES:
            module = importlib.import_module(module_name)
            self._patch(module, attr, name)
        for module_name, cls_name, attr, name in METHOD_SITES:
            cls = getattr(importlib.import_module(module_name), cls_name)
            self._patch(cls, attr, name)

    def _patch(self, owner: Any, attr: str, name: str) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._patched.append((owner, attr, original))
        setattr(owner, attr, self._shim(original, name))

    def uninstall(self) -> None:
        """Restore every patched site to the library's own object."""
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def write(self, path: Path) -> None:
        """Write every span as gzipped JSON lines."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as out:
            for sid, parent, name, start, end, adapt, tag in self.spans:
                out.write(json.dumps([sid, parent, name, start, end, adapt, tag]) + "\n")


def self_times(
    spans: list[tuple[int, int, str, float, float, int, str]],
) -> dict[int, float]:
    """Span id -> self time (duration minus the union of its children)."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for _sid, parent, _name, start, end, _adapt, _tag in spans:
        if parent:
            children[parent].append((start, end))
    out: dict[int, float] = {}
    for sid, _parent, _name, start, end, _adapt, _tag in spans:
        covered = 0.0
        cursor = start
        for c0, c1 in sorted(children.get(sid, ())):
            c0, c1 = max(c0, cursor), min(c1, end)
            if c1 > c0:
                covered += c1 - c0
                cursor = c1
        out[sid] = (end - start) - covered
    return out


#: layer metric -> span names whose self time it sums
SELF_TIME_METRICS = {
    "analysis.pda_ms": ("analysis.pda",),
    "perfmodel.weights_ms": ("perfmodel.weights",),
    "perfmodel.predict_ms": ("perfmodel.predict",),
    "tree.huffman_ms": ("tree.huffman",),
    "tree.edit_ms": ("tree.edit",),
    "tree.layout_ms": ("tree.layout",),
    "core.step_ms": ("core.step",),
    "core.strategy_ms": ("core.strategy",),
    "core.candidates_ms": ("core.candidates",),
    "core.plan_ms": ("core.plan",),
    "grid.transfer_matrix_ms": ("grid.transfer_matrix",),
    "mpisim.routes_ms": ("mpisim.routes",),
    "mpisim.bottleneck_ms": ("mpisim.bottleneck",),
    "mpisim.link_state_ms": ("mpisim.link_state",),
    "mpisim.ledger_ms": ("mpisim.ledger",),
    "mpisim.predict_ms": ("mpisim.predict",),
    "topology.batch_routes_ms": ("topology.batch_routes",),
    "obs.emit_ms": ("obs.emit",),
}


def layer_report(tracer: Tracer) -> dict[str, float]:
    """Per-layer self ms per adaptation point, counts and ratios.

    Only spans and counts inside an adaptation point count; set-up and
    input generation are outside every root span.  ``trace.accounted_frac`` is
    (sum of every layer's self time + the roots' own self time) over the
    roots' total duration: 1.0 when every span nests inside its parent.
    """
    spans = [s for s in tracer.spans if s[5] != 0]
    own = self_times(spans)
    roots = [s for s in spans if s[2] in ROOT_SPANS and s[1] == 0]
    n_points = max(len(roots), 1)
    self_by_name: Counter[str] = Counter()
    calls_by_name: Counter[str] = Counter()
    for s in spans:
        self_by_name[s[2]] += own[s[0]]
        calls_by_name[s[2]] += 1
    out: dict[str, float] = {}
    for metric, names in SELF_TIME_METRICS.items():
        out[metric] = 1000.0 * sum(self_by_name[n] for n in names) / n_points
    counts = tracer.counts
    out["analysis.rois"] = counts["analysis.rois"] / n_points
    out["perfmodel.predict_calls"] = calls_by_name["perfmodel.predict"] / n_points
    out["perfmodel.first_call_ms"] = 1000.0 * (tracer.first_weights_s or 0.0)
    out["core.plans_per_adapt"] = calls_by_name["core.plan"] / n_points
    total_points = counts["grid.total_points"]
    out["grid.local_frac"] = counts["grid.local_points"] / total_points if total_points else 0.0
    out["mpisim.messages"] = counts["mpisim.messages"] / n_points
    lookups = counts["mpisim.route_hits"] + counts["mpisim.route_misses"]
    out["mpisim.route_cache_hit_frac"] = counts["mpisim.route_hits"] / lookups if lookups else 0.0
    out["topology.pairs_routed"] = counts["topology.pairs_routed"] / n_points
    out["obs.events_per_adapt"] = calls_by_name["obs.emit"] / n_points
    root_total = sum(s[4] - s[3] for s in roots)
    root_self = sum(own[s[0]] for s in roots)
    layers = sum(v for k, v in self_by_name.items() if k not in ROOT_SPANS)
    out["trace.adapt_ms"] = 1000.0 * root_total / n_points
    out["trace.layers_ms"] = 1000.0 * layers / n_points
    out["trace.remainder_ms"] = 1000.0 * root_self / n_points
    out["trace.accounted_frac"] = (layers + root_self) / root_total if root_total else 0.0
    out["trace.points"] = float(len(roots))
    out["trace.spans"] = float(len(spans))
    return out
