"""Spans recorded from outside gelab, for the traced run's per-layer metrics.

`Tracer.install` replaces every public function of the layer modules, in
every layer module that binds it, by a wrapper that records a span: name,
start, end, parent span and operation id. A call from `entropy` into
`graphs.enumerate_maximal_independent_sets` goes through the binding in
`gelab.entropy`, so wrapping each module's own names catches calls across
layers as well as within one (`alpha` calling the enumeration). Names are
discovered, not listed, so a function that a later change removes simply
yields no spans. Spans stay in memory until the run writes them out.
Untraced runs never call `install`.
"""

from __future__ import annotations

import functools
import json
import types
from time import perf_counter

LAYERS = ("graphs", "exactlp", "entropy", "characterize", "constructions", "io", "cli")
ROOT = "bench.op"
LP_FUNCTIONS = (
    "exactlp.fractional_chromatic_number",
    "exactlp.fractional_chromatic_dual",
    "exactlp.uniform_cover_feasible",
)
MWIS_FUNCTIONS = (
    "graphs.alpha",
    "graphs.max_weighted_independent_set",
    "graphs.enumerate_maximum_weighted_independent_sets",
)


def _graph_size(result):
    """Vertex count of the graph a construction returned (or None)."""
    if isinstance(result, tuple) and result:
        result = result[0]
    result = getattr(result, "graph", result)
    n = getattr(result, "n", None)
    return n if hasattr(result, "edges") else None


def _verdict(result):
    return bool(getattr(result, "is_symmetric", getattr(result, "is_maximizer", False)))


# Counts taken at the same boundaries as the spans: (args, result) -> attrs.
HOOKS = {
    "graphs.enumerate_maximal_independent_sets": lambda a, r: {"sets": len(r)},
    "entropy.entropy": lambda a, r: {
        "iterations": r.iterations, "gap": r.gap, "converged": r.converged},
    "characterize.is_symmetric": lambda a, r: {"yes": _verdict(r)},
    "characterize.is_entropy_maximizer": lambda a, r: {"yes": _verdict(r)},
    "io.parse_graph": lambda a, r: {"bytes": len(a[0].encode())},
    "io.parse_distribution": lambda a, r: {"bytes": len(a[0].encode())},
}


class Tracer:
    def __init__(self, modules: dict):
        self.modules = modules  # layer name -> module
        self.spans: list[list] = []  # [name, start, end, parent, op, attrs]
        self._stack: list[int] = []
        self._saved: list = []
        self.op_id = -1

    def install(self) -> None:
        wrappers = {}
        owners = {f"gelab.{layer}": layer for layer in LAYERS}
        for mod in self.modules.values():
            for attr, fn in list(vars(mod).items()):
                if (attr.startswith("_") or not isinstance(fn, types.FunctionType)
                        or fn.__module__ not in owners):
                    continue
                if fn not in wrappers:
                    wrappers[fn] = self._wrap(fn, f"{owners[fn.__module__]}.{fn.__name__}")
                self._saved.append((mod, attr, fn))
                setattr(mod, attr, wrappers[fn])

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self._saved):
            setattr(mod, attr, fn)
        self._saved.clear()

    def _enter(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else -1
        rec = [name, 0.0, 0.0, parent, self.op_id, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = perf_counter()
        return rec

    def _exit(self, rec: list) -> None:
        rec[2] = perf_counter()
        self._stack.pop()

    def _wrap(self, fn, name: str):
        hook = HOOKS.get(name)
        if layer_of(name) == "constructions":
            hook = lambda a, r: {"vertices": _graph_size(r) or 0}  # noqa: E731

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = self._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(rec)
            if hook is not None:
                rec[5] = hook(args, result)
            return result

        return wrapper

    def op(self, op_id: int, call):
        """Run one operation under a root span and return its result."""
        self.op_id = op_id
        rec = self._enter(ROOT)
        try:
            return call()
        finally:
            self._exit(rec)

    def write(self, path: str) -> None:
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op, attrs in self.spans:
                fh.write(json.dumps({
                    "name": name, "start": start - t0, "end": end - t0,
                    "parent": parent, "op": op, "attrs": attrs}) + "\n")


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def self_times(spans) -> list[float]:
    child = [0.0] * len(spans)
    for rec in spans:
        if rec[3] >= 0:
            child[rec[3]] += rec[2] - rec[1]
    return [rec[2] - rec[1] - child[i] for i, rec in enumerate(spans)]


def consistency_errors(spans, selfs, slack: float = 1e-6) -> list[str]:
    """Children nest inside their parent, and per operation the layer self
    times plus the bench's own self time add up to the operation's wall time."""
    errs = []
    wall, total = {}, {}
    for i, (name, start, end, parent, op, _) in enumerate(spans):
        if parent < 0:
            if name != ROOT:
                errs.append(f"span {name} outside any operation")
            wall[op] = end - start
        else:
            p = spans[parent]
            if start < p[1] or end > p[2] or p[4] != op:
                errs.append(f"span {name} not nested in {p[0]}")
        total[op] = total.get(op, 0.0) + selfs[i]
    for op, w in wall.items():
        if abs(total[op] - w) > slack:
            errs.append(f"op {op}: self times sum to {total[op]!r}s, wall {w!r}s")
    return errs[:10]


def layer_metrics(spans, selfs, stdout_bytes: int) -> dict:
    """Per-layer metrics from the spans of one traced pass."""
    layer_self = {layer: 0.0 for layer in LAYERS}
    by_name: dict[str, float] = {}
    count: dict[str, int] = {}
    calls = {layer: 0 for layer in LAYERS}
    sets = iterations = nonconverged = yes = lp_in_decisions = vertices_out = bytes_in = 0
    gap_max = 0.0
    for i, (name, start, end, parent, op, attrs) in enumerate(spans):
        layer = layer_of(name)
        if layer in layer_self:
            layer_self[layer] += selfs[i]
            if parent < 0 or layer_of(spans[parent][0]) != layer:
                calls[layer] += 1
        by_name[name] = by_name.get(name, 0.0) + selfs[i]
        count[name] = count.get(name, 0) + 1
        attrs = attrs or {}
        sets += attrs.get("sets", 0)
        bytes_in += attrs.get("bytes", 0)
        if "iterations" in attrs:
            iterations += attrs["iterations"]
            gap_max = max(gap_max, attrs["gap"])
            nonconverged += not attrs["converged"]
        if layer == "characterize" and "yes" in attrs:
            yes += attrs["yes"]
        if layer == "constructions" and parent >= 0 and layer_of(spans[parent][0]) != layer:
            vertices_out += attrs.get("vertices", 0)
        if name in LP_FUNCTIONS:
            q = parent
            while q >= 0 and layer_of(spans[q][0]) != "characterize":
                q = spans[q][3]
            lp_in_decisions += q >= 0

    def ratio(a, b, scale=1.0):
        return a / b * scale if b else 0.0

    decisions = calls["characterize"]
    return {
        "graphs.enum_calls": count.get("graphs.enumerate_maximal_independent_sets", 0),
        "graphs.sets_enumerated": sets,
        "graphs.enum_self_s": by_name.get("graphs.enumerate_maximal_independent_sets", 0.0),
        "graphs.us_per_set": ratio(by_name.get("graphs.enumerate_maximal_independent_sets", 0.0), sets, 1e6),
        "graphs.mwis_self_s": sum(by_name.get(n, 0.0) for n in MWIS_FUNCTIONS),
        "exactlp.chif_calls": count.get("exactlp.fractional_chromatic_number", 0),
        "exactlp.chif_self_s": by_name.get("exactlp.fractional_chromatic_number", 0.0),
        "exactlp.cover_calls": count.get("exactlp.uniform_cover_feasible", 0),
        "exactlp.cover_self_s": by_name.get("exactlp.uniform_cover_feasible", 0.0),
        "exactlp.bfold_self_s": by_name.get("exactlp.b_fold_realization", 0.0),
        "exactlp.integralize_self_s": by_name.get("exactlp.integralize_cover", 0.0),
        "entropy.calls": calls["entropy"],
        "entropy.self_s": layer_self["entropy"],
        "entropy.iterations": iterations,
        "entropy.us_per_iteration": ratio(layer_self["entropy"], iterations, 1e6),
        "entropy.gap_max_bits": gap_max,
        "entropy.nonconverged": nonconverged,
        "characterize.calls": decisions,
        "characterize.self_s": layer_self["characterize"],
        "characterize.lp_calls_per_decision": ratio(lp_in_decisions, decisions),
        "characterize.yes_fraction": ratio(yes, decisions),
        "constructions.calls": calls["constructions"],
        "constructions.self_s": layer_self["constructions"],
        "constructions.vertices_out": vertices_out,
        "io.parse_self_s": by_name.get("io.parse_graph", 0.0) + by_name.get("io.parse_distribution", 0.0),
        "io.format_self_s": by_name.get("io.format_graph", 0.0) + by_name.get("io.format_rational", 0.0),
        "io.bytes_in": bytes_in,
        "io.bytes_out": stdout_bytes,
        "cli.self_s": layer_self["cli"],
    }
