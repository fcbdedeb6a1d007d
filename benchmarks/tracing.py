"""Outside-in tracing of graphcurv: spans recorded at the call sites into each module.

The tracer replaces names that one graphcurv module looks up in another (or
on a class) with wrappers that record a span: name, start, end, parent, the
root span (one ``cli.run`` call, so one CLI command) and the self time,
which is the span's duration minus the time of the spans it directly
contains.  Nothing inside the package is edited; ``uninstall`` puts every
original back.  A call site that a later version of the package no longer
has is skipped, and the metrics that need it are reported as absent.

Span names are ``<module>.<operation>``; the module part is the layer whose
self time the span adds to.
"""

from __future__ import annotations

import functools
import itertools
from collections import defaultdict
from functools import cached_property
from time import perf_counter
from typing import Callable, NamedTuple

LAYERS = ("cli", "graph_io", "graphs", "operators", "curvature", "heat", "estimates")

# the adaptive Simpson rule refines from 8 up to 16384 subintervals, i.e. at
# most 16385 integrand nodes (one kernel-free P_t application each)
QUADRATURE_CAP_NODES = 16384 + 1


class Span(NamedTuple):
    id: int
    parent: int | None
    root: int
    name: str
    start: float
    end: float
    self_s: float
    work: int


class _Namespace:
    """Stand-in for a module: overridden names first, the rest from the module."""

    def __init__(self, target, **overrides):
        self._target = target
        self.__dict__.update(overrides)

    def __getattr__(self, attr):
        return getattr(self._target, attr)


class Tracer:
    """Records spans while installed; one instance per benchmark run."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.installed: set[str] = set()
        self._stack: list[list] = []  # [span id, root id, seconds of child spans]
        self._ids = itertools.count()
        self._undo: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()

    def wrap(self, name: str, fn: Callable, work: Callable | None = None) -> Callable:
        """``fn`` recording one span per call; ``work(result)`` sizes the call."""
        stack, spans, ids = self._stack, self.spans, self._ids
        self.installed.add(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            span_id = next(ids)
            frame = [span_id, parent[1] if parent else span_id, 0.0]
            stack.append(frame)
            ok = False
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                end = perf_counter()
                stack.pop()
                if parent is not None:
                    parent[2] += end - start
                spans.append(Span(span_id, parent[0] if parent else None, frame[1], name,
                                  start, end, end - start - frame[2],
                                  work(result) if ok and work is not None else 0))
            return result

        return traced

    def _replace(self, owner, attr: str, replacement) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def install(self, owner, attr: str, name: str, work: Callable | None = None,
                recursive: bool = False) -> None:
        """Trace the function ``owner.attr``; skipped if ``owner`` has no such name.

        With ``recursive``, only the outermost call is a span: the function's
        own recursive lookups of ``attr`` see the original while it runs.
        """
        original = owner.__dict__.get(attr)
        if not callable(original):
            return
        traced = self.wrap(name, original, work)
        if recursive:
            def outermost(*args, **kwargs):
                setattr(owner, attr, original)
                try:
                    return traced(*args, **kwargs)
                finally:
                    setattr(owner, attr, outermost)

            self._replace(owner, attr, functools.wraps(original)(outermost))
        else:
            self._replace(owner, attr, traced)

    def install_count(self, owner, attr: str, name: str) -> None:
        """Count calls of ``owner.attr`` without timing them."""
        original = owner.__dict__.get(attr)
        if not callable(original):
            return
        counts = self.counts
        self.installed.add(name)

        def counted(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)

        self._replace(owner, attr, counted)

    def install_cached_properties(self, cls, layer: str, work: dict[str, Callable]) -> None:
        """Trace the first (computing) access of every ``cached_property`` of ``cls``."""
        for attr, prop in list(vars(cls).items()):
            if isinstance(prop, cached_property):
                traced = cached_property(
                    self.wrap(f"{layer}.{attr.lstrip('_')}", prop.func, work.get(attr)))
                traced.__set_name__(cls, attr)
                self._replace(cls, attr, traced)

    def install_module_proxy(self, owner, attr: str, names: dict[str, str]) -> None:
        """Replace the module ``owner.attr`` by a stand-in tracing dotted ``names``."""
        module = owner.__dict__.get(attr)
        if module is not None:
            self._replace(owner, attr, self._proxy(module, names))

    def _proxy(self, module, names: dict[str, str]) -> _Namespace:
        overrides: dict[str, object] = {}
        nested: dict[str, dict[str, str]] = defaultdict(dict)
        for path, name in names.items():
            head, _, rest = path.partition(".")
            if rest:
                nested[head][rest] = name
            elif callable(getattr(module, head, None)):
                overrides[head] = self.wrap(name, getattr(module, head))
        for head, sub in nested.items():
            if hasattr(module, head):
                overrides[head] = self._proxy(getattr(module, head), sub)
        return _Namespace(module, **overrides)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


def _columns(result) -> int:
    return result.shape[1] if result.ndim == 2 else 1


def install_graphcurv(tracer: Tracer) -> None:
    """Install a wrapper at every call site the four workloads go through."""
    from graphcurv import cli, curvature, estimates, graph_io, graphs, heat, operators

    tracer.install(cli, "run", "cli.run")
    tracer.install(cli, "_jsonify", "cli.jsonify", recursive=True)
    tracer.install_module_proxy(cli, "json", {"dumps": "cli.json_dumps"})
    tracer.install(cli, "parse_graph", "graph_io.parse_graph")
    tracer.install(cli, "validate", "graphs.validate")
    tracer.install(graph_io, "validate", "graphs.validate")
    tracer.install(cli, "curvature_profile", "curvature.profile")
    tracer.install(cli, "build_heat", "heat.build_heat")
    tracer.install(cli, "default_corpus", "estimates.default_corpus")
    tracer.install(cli, "estimate_sweep", "estimates.sweep")
    tracer.install(cli, "green_check", "estimates.green_check")
    tracer.install(cli, "ec_norm_check", "estimates.ec_norm_check")

    tracer.install(curvature, "curvature_solve", "curvature.solve")
    tracer.install(curvature, "local_forms", "operators.local_forms",
                   work=lambda forms: forms.size * (forms.size + 1) // 2)
    tracer.install_module_proxy(curvature, "np", {"linalg.eigvalsh": "curvature.eigvalsh",
                                                  "linalg.eigh": "curvature.eigh"})
    tracer.install(operators, "ball", "graphs.ball")

    tracer.install(estimates, "build_heat", "heat.build_heat")
    tracer.install(estimates, "_slack_arrays", "estimates.slack")
    tracer.install(estimates, "_gradient_integral", "estimates.quadrature")
    tracer.install(estimates, "laplacian_array", "operators.laplacian")
    tracer.install(estimates, "gamma_array", "operators.gamma")
    tracer.install(estimates, "ellipticity_constant", "graphs.ellipticity_constant")
    tracer.install_count(estimates, "EstimateReport", "estimates.reports")

    tracer.install(heat.HeatOperator, "apply_array", "heat.apply_array", work=_columns)
    tracer.install(heat.HeatOperator, "apply_fluctuation_array", "heat.apply_fluctuation_array",
                   work=_columns)
    tracer.install(heat.HeatOperator, "apply", "heat.apply_function")
    tracer.install(heat.HeatOperator, "heat_mass", "heat.heat_mass")
    tracer.install_module_proxy(heat, "np", {"linalg.eigh": "heat.eigh"})

    tracer.install_cached_properties(graphs.WeightedGraph, "graphs",
                                     {"incidence_matrix": lambda inc: inc.nbytes})


# -- per-layer metrics of one traced pass -------------------------------------------

APPLY = ("heat.apply_array", "heat.apply_fluctuation_array")

# metric -> (unit, aggregate, span names); aggregate is self/incl seconds,
# calls, summed work, or a calls-only counter
SPAN_METRICS: dict[str, tuple[str, str, tuple[str, ...]]] = {
    "operators.local_forms_s": ("s", "self", ("operators.local_forms",)),
    "operators.local_forms_calls": ("count", "calls", ("operators.local_forms",)),
    "operators.local_form_entries": ("count", "work", ("operators.local_forms",)),
    "curvature.solve_self_s": ("s", "self", ("curvature.solve",)),
    "curvature.eigvalsh_calls": ("count", "calls", ("curvature.eigvalsh",)),
    "curvature.eigvalsh_s": ("s", "self", ("curvature.eigvalsh",)),
    "estimates.quadrature_s": ("s", "self", ("estimates.quadrature",)),
    "estimates.quadrature_incl_s": ("s", "incl", ("estimates.quadrature",)),
    "estimates.quadrature_calls": ("count", "calls", ("estimates.quadrature",)),
    "estimates.slack_self_s": ("s", "self", ("estimates.slack",)),
    "estimates.report_build_s": ("s", "self", ("estimates.sweep",)),
    "estimates.reports": ("count", "counter", ("estimates.reports",)),
    "estimates.default_corpus_s": ("s", "self", ("estimates.default_corpus",)),
    "cli.jsonify_s": ("s", "self", ("cli.jsonify",)),
    "cli.json_dumps_s": ("s", "self", ("cli.json_dumps",)),
    "heat.build_heat_s": ("s", "self", ("heat.build_heat",)),
    "heat.eigh_calls": ("count", "calls", ("heat.eigh",)),
    "heat.eigh_s": ("s", "self", ("heat.eigh",)),
    "heat.apply_s": ("s", "self", APPLY),
    "heat.apply_calls": ("count", "calls", APPLY),
    "heat.apply_columns": ("count", "work", APPLY),
    "heat.heat_mass_calls": ("count", "calls", ("heat.heat_mass",)),
    "heat.heat_mass_s": ("s", "self", ("heat.heat_mass",)),
    "heat.heat_mass_incl_s": ("s", "incl", ("heat.heat_mass",)),
    "graphs.weight_matrix_s": ("s", "self", ("graphs.weight_matrix",)),
    "graphs.edge_arrays_s": ("s", "self", ("graphs.edge_arrays",)),
    "graphs.incidence_matrix_s": ("s", "self", ("graphs.incidence_matrix",)),
    "graphs.incidence_matrix_bytes": ("bytes", "work", ("graphs.incidence_matrix",)),
    "graphs.ball_calls": ("count", "calls", ("graphs.ball",)),
    "graph_io.parse_graph_s": ("s", "self", ("graph_io.parse_graph",)),
}


def pass_metrics(tracer: Tracer) -> dict[str, float | None]:
    """Per-layer metrics of the spans recorded since the last reset; None = absent."""
    calls: dict[str, int] = defaultdict(int)
    self_s: dict[str, float] = defaultdict(float)
    incl_s: dict[str, float] = defaultdict(float)
    work: dict[str, int] = defaultdict(int)
    layer_s: dict[str, float] = defaultdict(float)
    for span in tracer.spans:
        calls[span.name] += 1
        self_s[span.name] += span.self_s
        incl_s[span.name] += span.end - span.start
        work[span.name] += span.work
        layer_s[span.name.partition(".")[0]] += span.self_s
    table = {"self": self_s, "incl": incl_s, "calls": calls, "work": work,
             "counter": tracer.counts}

    out: dict[str, float | None] = {}
    for metric, (_, aggregate, names) in SPAN_METRICS.items():
        if any(n in tracer.installed for n in names):
            out[metric] = sum(table[aggregate].get(n, 0) for n in names)
        else:
            out[metric] = None
    for layer in LAYERS:
        out[f"{layer}.self_s"] = layer_s[layer]

    # quadrature nodes: kernel-free P_t applications made directly by a
    # quadrature call; a call that evaluated the most nodes hit the cap
    nodes = _quadrature_nodes(tracer.spans)
    has_quadrature = "estimates.quadrature" in tracer.installed
    out["estimates.quadrature_nodes"] = sum(nodes.values()) if has_quadrature else None
    out["estimates.quadrature_cap_hits"] = (
        sum(1 for k in nodes.values() if k >= QUADRATURE_CAP_NODES) if has_quadrature else None)
    return out


def _quadrature_nodes(spans: list[Span]) -> dict[int, int]:
    quadrature = {s.id for s in spans if s.name == "estimates.quadrature"}
    nodes = dict.fromkeys(quadrature, 0)
    for s in spans:
        if s.name == "heat.apply_fluctuation_array" and s.parent in quadrature:
            nodes[s.parent] += 1
    return nodes


def per_command(tracer: Tracer) -> list[dict[str, tuple[int, float]]]:
    """(calls, self seconds) per span name for each root span (CLI command), in order."""
    out: dict[int, dict[str, list]] = defaultdict(lambda: defaultdict(lambda: [0, 0.0]))
    for span in tracer.spans:
        entry = out[span.root][span.name]
        entry[0] += 1
        entry[1] += span.self_s
    return [{k: (v[0], v[1]) for k, v in out[root].items()} for root in sorted(out)]


PER_LAYER_UNITS: dict[str, str] = {
    **{metric: spec[0] for metric, spec in SPAN_METRICS.items()},
    "estimates.quadrature_nodes": "count",
    "estimates.quadrature_cap_hits": "count",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
}
