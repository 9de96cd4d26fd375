"""Outside-in tracing of fistab's public boundaries, and span arithmetic.

The traced child (``invoke.py --trace``) calls :func:`install` before
``fistab.cli.main``.  It replaces each boundary below with a wrapper that
records a span: name, parent span, start and end.  Some wrappers also
record counts taken from the call's arguments and result.  Spans stay in
memory and :func:`dump` writes them as JSON when the child exits.

Counting runs after the measured span has closed.  Its time is recorded
as a ``bench.count`` span, so no layer's self time includes it.

The parent (``run.py``) reads the files back and turns them into
per-layer metrics with :func:`self_times` and :func:`layer_metrics`.
"""

import functools
import importlib
import json
import time

COUNT_SPAN = "bench.count"

# Span name for each wrapped boundary, as (module, attribute) pairs.  The
# two table functions are wrapped where each caller looks them up.
BOUNDARIES = {
    "cli.main": [("fistab.cli", "main")],
    "cli.parse": [("fistab.cli", "parse_presentation")],
    "cli.verify": [("fistab.cli", "verify")],
    "multiplicity.table": [
        ("fistab.cli", "eventual_multiplicities"),
        ("fistab.oracle", "eventual_multiplicities"),
        ("fistab.multiplicity", "eventual_multiplicities"),
    ],
    "multiplicity.polynomial": [
        ("fistab.cli", "dimension_polynomial"),
        ("fistab.oracle", "dimension_polynomial"),
        ("fistab.multiplicity", "dimension_polynomial"),
    ],
    "presentation.transport": [
        ("fistab.multiplicity", "induced_raw_presentation"),
    ],
    "ratmat.rank": [("fistab.ratmat", "RationalMatrix.rank")],
    "oracle.evaluate": [("fistab.oracle", "evaluate_degree")],
    "oracle.decompose": [("fistab.oracle", "DegreeEvaluation.decompose")],
    "oracle.trace": [("fistab.oracle", "DegreeEvaluation.cokernel_trace")],
}


class Tracer:
    """In-memory span recorder for one process.

    Each span is a list ``[name, parent, start, end, counts]``; ``parent``
    is the index of the enclosing span or None.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self._stack = []

    def wrap(self, fn, name, count=None):
        """Return fn recording a span per call; count(args, result) -> dict."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            span = [name, parent, self.clock(), None, None]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = self.clock()
                self._stack.pop()
            if count is not None:
                begin = self.clock()
                span[4] = count(args, result)
                self.spans.append([COUNT_SPAN, parent, begin, self.clock(), None])
            return result

        return wrapper


def _nnz(matrix) -> int:
    return sum(len(row) - row.count(0) for row in matrix.rows)


def install(tracer: Tracer) -> dict:
    """Wrap every boundary in BOUNDARIES; return the cache readers for dump.

    Raises AttributeError naming the boundary when one is missing, so a
    rename in the program fails the traced run instead of zeroing a layer.
    """
    from fistab.combinatorics import falling_factorial, standard_tableaux
    from fistab.oracle import evaluate_degree
    from fistab.specht import mn_character

    misses = [evaluate_degree.cache_info().misses]

    def count_evaluate(args, result):
        z, n = args
        now = evaluate_degree.cache_info().misses
        fresh, misses[0] = now > misses[0], now
        if not fresh:
            return None
        used = {j for (_, j) in z.entries}
        relation_rows = sum(
            falling_factorial(n, y)
            for j, y in enumerate(z.relation_degrees)
            if j in used
        )
        return {
            "ambient_rows": result.ambient_dim,
            "relation_rows": relation_rows,
            "rank": result.rank,
        }

    counters = {
        "presentation.transport": lambda args, m: {
            "cells": m.nrows * m.ncols, "nnz": _nnz(m),
        },
        "ratmat.rank": lambda args, rank: {"rows": args[0].nrows, "rank": rank},
        "oracle.evaluate": count_evaluate,
    }

    wrapped = {}
    for name, places in BOUNDARIES.items():
        for module_name, attribute in places:
            owner = importlib.import_module(module_name)
            *path, leaf = attribute.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = getattr(owner, leaf, None)
            if original is None:
                raise AttributeError(
                    f"traced boundary {module_name}.{attribute} ({name}) is missing"
                )
            key = id(original)
            if key not in wrapped:
                wrapped[key] = tracer.wrap(original, name, counters.get(name))
            setattr(owner, leaf, wrapped[key])

    return {
        "evaluate_hits": lambda: evaluate_degree.cache_info().hits,
        "character_evals": lambda: mn_character.cache_info().misses,
        "tableaux_shapes": lambda: standard_tableaux.cache_info().misses,
    }


def dump(tracer: Tracer, caches: dict, path: str) -> None:
    payload = {
        "spans": tracer.spans,
        "caches": {key: read() for key, read in caches.items()},
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle)


# ---------------------------------------------------------------------------
# arithmetic on recorded spans (used by run.py and the tests)
# ---------------------------------------------------------------------------

def _covered(intervals, lo, hi) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans) -> list[float]:
    """Each span's duration minus the part its direct children cover."""
    children = [[] for _ in spans]
    for name, parent, start, end, _ in spans:
        if parent is not None:
            children[parent].append((start, end))
    return [
        (end - start) - _covered(children[i], start, end)
        for i, (_, _, start, end, _) in enumerate(spans)
    ]


# Per-layer metrics: name -> unit.  Time metrics are self times.
LAYER_UNITS = {
    "presentation.transport_s": "s",
    "presentation.transport_calls": "count",
    "presentation.cells": "count",
    "presentation.nnz": "count",
    "presentation.density": "ratio",
    "ratmat.rank_s": "s",
    "ratmat.rank_calls": "count",
    "ratmat.rows": "count",
    "ratmat.rank_sum": "count",
    "multiplicity.table_s": "s",
    "multiplicity.table_calls": "count",
    "multiplicity.polynomial_self_s": "s",
    "oracle.evaluate_s": "s",
    "oracle.evaluate_calls": "count",
    "oracle.evaluate_hits": "count",
    "oracle.ambient_rows": "count",
    "oracle.relation_rows": "count",
    "oracle.rank": "count",
    "oracle.independent_ratio": "ratio",
    "oracle.trace_s": "s",
    "oracle.trace_calls": "count",
    "oracle.decompose_self_s": "s",
    "oracle.verify_self_s": "s",
    "specht.character_evals": "count",
    "cli.parse_s": "s",
    "cli.self_s": "s",
    "combinatorics.tableaux_shapes": "count",
}

_SELF_TIME = {
    "presentation.transport_s": "presentation.transport",
    "ratmat.rank_s": "ratmat.rank",
    "multiplicity.table_s": "multiplicity.table",
    "multiplicity.polynomial_self_s": "multiplicity.polynomial",
    "oracle.evaluate_s": "oracle.evaluate",
    "oracle.trace_s": "oracle.trace",
    "oracle.decompose_self_s": "oracle.decompose",
    "oracle.verify_self_s": "cli.verify",
    "cli.parse_s": "cli.parse",
    "cli.self_s": "cli.main",
}

_CALLS = {
    "presentation.transport_calls": "presentation.transport",
    "ratmat.rank_calls": "ratmat.rank",
    "multiplicity.table_calls": "multiplicity.table",
    "oracle.evaluate_calls": "oracle.evaluate",
    "oracle.trace_calls": "oracle.trace",
}

_COUNTS = {
    "presentation.cells": ("presentation.transport", "cells"),
    "presentation.nnz": ("presentation.transport", "nnz"),
    "ratmat.rows": ("ratmat.rank", "rows"),
    "ratmat.rank_sum": ("ratmat.rank", "rank"),
    "oracle.ambient_rows": ("oracle.evaluate", "ambient_rows"),
    "oracle.relation_rows": ("oracle.evaluate", "relation_rows"),
    "oracle.rank": ("oracle.evaluate", "rank"),
}

_CACHES = {
    "oracle.evaluate_hits": "evaluate_hits",
    "specht.character_evals": "character_evals",
    "combinatorics.tableaux_shapes": "tableaux_shapes",
}


def span_counts(traces) -> dict[str, int]:
    """Number of spans per boundary name over several trace files."""
    counts = {}
    for trace in traces:
        for span in trace["spans"]:
            counts[span[0]] = counts.get(span[0], 0) + 1
    return counts


def layer_metrics(traces) -> dict[str, float]:
    """Per-layer metrics summed over the trace files of one pass."""
    out = dict.fromkeys(LAYER_UNITS, 0)
    for trace in traces:
        spans = trace["spans"]
        own = self_times(spans)
        for metric, name in _SELF_TIME.items():
            out[metric] += sum(t for s, t in zip(spans, own) if s[0] == name)
        for metric, name in _CALLS.items():
            out[metric] += sum(1 for s in spans if s[0] == name)
        for metric, (name, key) in _COUNTS.items():
            out[metric] += sum(
                (s[4] or {}).get(key, 0) for s in spans if s[0] == name
            )
        for metric, key in _CACHES.items():
            out[metric] += trace["caches"][key]
    cells = out["presentation.cells"]
    out["presentation.density"] = out["presentation.nnz"] / cells if cells else 0
    rows = out["oracle.relation_rows"]
    out["oracle.independent_ratio"] = out["oracle.rank"] / rows if rows else 0
    return out
