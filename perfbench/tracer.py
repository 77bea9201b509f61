"""Span tracer that wraps emzv's public names from outside the library.

Each wrapped name records one span per call: its name, its parent span, its
start and end.  Self time is a span's duration minus the time its direct
child spans cover.  A name that is already open on the stack (recursion) is
not opened again, so recursive functions are counted once, at the outermost
call.  A name missing from the code under test is reported as unbound with
zero calls instead of failing the run.

The tracer only patches the current process; units run in forked children,
so the parent never sees a wrapper.
"""

from __future__ import annotations

import importlib
import time

# An extra maps a call's (args, result) to (amount summed, amount maxed).


def _letter_nodes(args, result):
    # integrate_nested(self, letter_values, lo_panel, hi_panel)
    grid, letter_values, lo, hi = args[:4]
    nodes = len(letter_values) * max(hi - lo, 0) * grid.order
    return nodes, nodes


def _theta_points(args, result):
    points = getattr(args[0], "size", 1)
    return points, points


def reduce_extra(args, result):
    expr, trace = result
    return len(trace.steps), len(expr)


# (span name, module, attribute path at the lookup site, extra)
TARGETS = (
    ("reduction.reduce_index", "emzv.cli", "reduce_index", reduce_extra),
    ("reduction.rewrite_step", "emzv.reduction", "rewrite_step", None),
    ("faypoly.enumerate_support", "emzv.reduction", "enumerate_support", None),
    ("relations.substitute_atom", "emzv.relations", "Expression.substitute_atom", None),
    ("numerics.theta", "emzv.numerics", "theta", _theta_points),
    ("numerics.integrate_nested", "emzv.numerics", "PanelGrid.integrate_nested", _letter_nodes),
    ("numerics.letters", "emzv.numerics", "Evaluator.letters", None),
    ("numerics.cut_integral", "emzv.numerics", "Evaluator.cut_integral", None),
    ("numerics.regularized", "emzv.numerics", "Evaluator.regularized", None),
    ("numerics.admissible", "emzv.numerics", "Evaluator.admissible", None),
    ("numerics.value", "emzv.numerics", "Evaluator.value", None),
    ("numerics.eval_expression", "emzv.numerics", "Evaluator.eval_expression", None),
)

# Spans opened by the benchmark itself around its own calls into a layer.
OWN_SPANS = ("cli", "reduction.reduce_index")

SPAN_NAMES = tuple(dict.fromkeys([t[0] for t in TARGETS] + list(OWN_SPANS)))

# lru_cache'd functions whose public cache_info() gives hits and misses.
CACHES = (
    ("reduction.rewrite_step", "emzv.reduction", "rewrite_step"),
    ("faypoly.p_poly", "emzv.faypoly", "p_poly"),
    ("words.shuffle", "emzv.words", "shuffle"),
)


def _resolve(module_name: str, path: str):
    """(owner, attribute, value) for a dotted path, or None if unbound."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    value = getattr(owner, attr, None)
    return None if value is None else (owner, attr, value)


def cache_counts() -> dict[str, tuple[int, int]]:
    """(hits, misses) per cached function; (0, 0) if it has no cache_info."""
    out = {}
    for name, module_name, attr in CACHES:
        found = _resolve(module_name, attr)
        fn = getattr(found[2], "traced", found[2]) if found else None
        info = getattr(fn, "cache_info", None)
        out[name] = (info().hits, info().misses) if info else (0, 0)
    return out


class Tracer:
    """In-memory spans: [name, parent, start, end, child_time, children, extra]."""

    def __init__(self, now=time.perf_counter):
        self.now = now
        self.spans: list[list] = []
        self.unbound: set[str] = set()
        self._stack: list[int] = []
        self._open: set[str] = set()

    def call(self, name, fn, args, kwargs, extra=None):
        if name in self._open:
            return fn(*args, **kwargs)
        record = [name, self._stack[-1] if self._stack else -1, 0.0, 0.0, 0.0, 0, None]
        self.spans.append(record)
        self._stack.append(len(self.spans) - 1)
        self._open.add(name)
        record[2] = self.now()
        try:
            result = fn(*args, **kwargs)
        finally:
            record[3] = self.now()
            self._stack.pop()
            self._open.discard(name)
            if record[1] >= 0:
                parent = self.spans[record[1]]
                parent[4] += record[3] - record[2]
                parent[5] += 1
        if extra is not None:
            record[6] = extra(args, result)
        return result

    def install(self) -> None:
        """Wrap every target at its lookup site in this process."""
        for name, module_name, path, extra in TARGETS:
            found = _resolve(module_name, path)
            if found is None:
                self.unbound.add(f"{module_name}.{path}")
                continue
            owner, attr, fn = found

            def wrapper(*args, _name=name, _fn=fn, _extra=extra, **kwargs):
                return self.call(_name, _fn, args, kwargs, _extra)

            wrapper.traced = fn
            setattr(owner, attr, wrapper)

    def aggregate(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive s, self s, calls without child
        spans (leaf), and the summed and maxed extras."""
        out: dict[str, dict[str, float]] = {}
        for name, _parent, start, end, child_time, children, extra in self.spans:
            agg = out.setdefault(
                name, {"calls": 0, "s": 0.0, "self_s": 0.0, "leaf": 0, "sum": 0, "max": 0}
            )
            agg["calls"] += 1
            agg["s"] += end - start
            agg["self_s"] += end - start - child_time
            agg["leaf"] += children == 0
            if extra is not None:
                agg["sum"] += extra[0]
                agg["max"] = max(agg["max"], extra[1])
        return out


def merge(total: dict, part: dict) -> None:
    """Add one aggregate into another in place."""
    for name, agg in part.items():
        if name not in total:
            total[name] = dict(agg)
            continue
        for key, value in agg.items():
            if key == "max":
                total[name][key] = max(total[name][key], value)
            else:
                total[name][key] += value
