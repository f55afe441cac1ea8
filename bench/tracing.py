"""Per-layer spans around the package's public functions, installed from outside.

Each traced function is replaced in place on its module or class, so calls
between modules go through the span as well.  A span's self time is its
duration minus the durations of the spans it encloses.  Product-cache
statistics are read from ``cache_info()`` after the timed region.
"""

from __future__ import annotations

import functools
from time import perf_counter


class Tracer:
    def __init__(self):
        self.self_s = {}
        self.calls = {}
        self.counts = {}
        # Time covered by enclosed spans, one entry per open span; the
        # bottom entry collects the outermost spans.
        self._open = [0.0]

    def span(self, name, fn, count=None):
        """Wrap fn in a span; name is a string or a function of the call's
        positional arguments; count(counts, args, result) records sizes."""
        opened, self_s, calls, counts = self._open, self.self_s, self.calls, self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = name if isinstance(name, str) else name(args)
            opened.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                inner = opened.pop()
                opened[-1] += elapsed
                self_s[label] = self_s.get(label, 0.0) + elapsed - inner
                calls[label] = calls.get(label, 0) + 1
            if count is not None:
                count(counts, args, result)
            return result

        return traced


def _add(counts, name, value):
    counts[name] = counts.get(name, 0) + value


def _slice_keys(counts, args, result):
    if len(args) > 1 and args[1] is not None:
        _add(counts, "invariants.slice_keys", len(result))


def _terms_out(counts, args, result):
    _add(counts, "symext.ad_action.terms_out", len(result.coeffs))


def _kernel_dim(counts, args, result):
    _add(counts, "invariants.kernel_dim", len(result))


def _max_cols(counts, args, result):
    name = "linalg.kernel_of_rows.max_cols"
    counts[name] = max(counts.get(name, 0), args[1])


def _rank_rows(counts, args, result):
    rows = args[0]
    _add(counts, "linalg.rank_of_rows.rows", len(rows))
    _add(counts, "linalg.rank_of_rows.nnz", sum(len(r) for r in rows))


def install(tracer: Tracer) -> None:
    """Route the traced public functions of the package through tracer."""
    from su21_invariants import dirac, invariants, linalg, report, suites, symext

    patches = (
        (suites, "run_suite", lambda args: "suites.run_suite.%s" % args[0], None),
        (report.VerificationReport, "to_text", "report.render", None),
        (report.VerificationReport, "to_json", "report.render", None),
        (invariants, "graded_keys", "invariants.graded_keys", _slice_keys),
        (symext, "key_weight", "symext.key_weight", None),
        (symext, "ad_action", "symext.ad_action", _terms_out),
        (invariants, "invariant_subspace", "invariants.invariant_subspace", _kernel_dim),
        (symext.SymTensorElement, "__mul__", "symext.mul", None),
        (invariants, "product_basis_members", "invariants.product_basis_members", None),
        (linalg, "kernel_of_rows", "linalg.kernel_of_rows", _max_cols),
        (linalg, "rref_rows", "linalg.rref_rows", None),
        (linalg, "rank_of_rows", "linalg.rank_of_rows", _rank_rows),
        (dirac.UCElement, "__mul__", "dirac.mul", None),
        (invariants, "lifted_product_members", "invariants.lifted_product_members", None),
    )
    for owner, attr, name, count in patches:
        setattr(owner, attr, tracer.span(name, getattr(owner, attr), count))


def cache_counts() -> dict:
    """Hit, miss and entry counts of the memoized product tables."""
    from su21_invariants import clifford, enveloping

    pbw = enveloping.pbw_product_items.cache_info()
    cliff = clifford.clifford_product_items.cache_info()
    return {
        "enveloping.pbw_product_items.hits": pbw.hits,
        "enveloping.pbw_product_items.misses": pbw.misses,
        "enveloping.insert.entries": enveloping._insert.cache_info().currsize,
        "clifford.clifford_product_items.hits": cliff.hits,
        "clifford.clifford_product_items.misses": cliff.misses,
    }


def layer_metrics(tracer: Tracer, names) -> dict:
    """Values for the per-layer metric names: self times ("<span>.s"),
    call counts ("<span>.calls") and recorded sizes; 0 where nothing ran."""
    out = {}
    for name in names:
        if name.endswith(".s"):
            out[name] = tracer.self_s.get(name[: -len(".s")], 0.0)
        elif name.endswith(".calls"):
            out[name] = tracer.calls.get(name[: -len(".calls")], 0)
        else:
            out[name] = tracer.counts.get(name, 0)
    return out
