"""Outside-in layer trace: spans and counters around pgstkit's public
functions, installed from the benchmark without changing the program.

Every binding of a traced function object in every ``pgstkit.*`` module
namespace is replaced, so call sites that imported the name directly
(``from .exact import charpoly`` in ``spectral`` and ``certify``) are
traced too. Spans are kept in memory as (name, start, end, parent,
question) and written out when the run ends. A span's self time is its
duration minus the durations of its direct child spans; calls run on one
thread, so children never overlap.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import Counter, defaultdict

# Relation search enumerates the whole box when it has at most this many
# points; the route is read from the call arguments.
EXHAUSTIVE_LIMIT = 10**7

# (module, function) pairs that get a span; the span name is "module.function".
SPANNED = (
    ("cli", "main"),
    ("graphs", "parse_graph_text"),
    ("graphs", "to_matrix"),
    ("spectral", "is_cospectral"),
    ("spectral", "decompose"),
    ("exact", "charpoly"),
    ("exact", "krylov_min_poly"),
    ("exact", "bareiss_det"),
    ("exact", "poly_gcd_t"),
    ("exact", "is_irreducible_linear_param"),
    ("certify", "certify_tr_deg"),
    ("certify", "choose_path_shift"),
    ("certify", "integer_relation_search"),
    ("certify", "heuristic_obstruction"),
    ("walk", "numeric_adjacency"),
    ("walk", "sym_eig"),
    ("walk", "fidelity_scan"),
)

# counter name -> SparsePoly method; too hot for spans, so only counted.
COUNTED = {"exact.poly_mul": "__mul__", "exact.poly_divexact": "divexact"}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple | None] = []
        self.counts: Counter = Counter()
        self.sums: defaultdict = defaultdict(float)
        self.question = -1
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        import pgstkit.cli  # noqa: F401  (loads every module the CLI reaches)
        from pgstkit.exact import SparsePoly

        modules = [m for name, m in sorted(sys.modules.items()) if name.startswith("pgstkit")]
        for mod_name, fn_name in SPANNED:
            fn = getattr(sys.modules[f"pgstkit.{mod_name}"], fn_name)
            name = f"{mod_name}.{fn_name}"
            observe = getattr(self, "_observe_" + fn_name, None)
            self._rebind(modules, fn, self._span(name, fn, observe))
        for name, attr in COUNTED.items():
            fn = SparsePoly.__dict__[attr]
            self._rebind([SparsePoly], fn, self._counter(name, fn))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def _rebind(self, owners, fn, wrapper) -> None:
        for owner in owners:
            for attr, value in list(vars(owner).items()):
                if value is fn:
                    self._undo.append((owner, attr, fn))
                    setattr(owner, attr, wrapper)

    def _span(self, name, fn, observe):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.question)
            if observe is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                observe(bound.arguments, result)
            return result

        return wrapper

    def _counter(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- per-call observations ---------------------------------------------

    def _observe_integer_relation_search(self, a, _result) -> None:
        box = (2 * a["bound"] + 1) ** (len(a["lambdas"]) + len(a["mus"]))
        self.sums["certify.integer_relation_search.exhaustive"] += box <= EXHAUSTIVE_LIMIT

    def _observe_heuristic_obstruction(self, _a, result) -> None:
        self.sums["certify.heuristic_obstruction.hits"] += result is not None

    def _observe_sym_eig(self, a, _result) -> None:
        self.sums["walk.sym_eig.dim_sum"] += len(a["matrix"])

    def _observe_fidelity_scan(self, a, _result) -> None:
        clusters = len(a["spectrum"].cluster_values)
        self.sums["walk.fidelity_scan.grid_points"] += a["steps"] * clusters

    # -- results -----------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Per-layer totals: ``<span>.calls``, ``.self_s`` and ``.total_s``
        (outermost spans of a name only, so recursion is not counted
        twice), the counters, and the observed sums and ratios."""
        spans = self.spans  # every span is complete once the loop has ended
        child_time = [0.0] * len(spans)
        for name, start, end, parent, _q in spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for idx, (name, start, end, parent, _q) in enumerate(spans):
            out[f"{name}.calls"] += 1
            out[f"{name}.self_s"] += end - start - child_time[idx]
            p = parent
            while p >= 0 and spans[p][0] != name:
                p = spans[p][3]
            if p < 0:
                out[f"{name}.total_s"] += end - start
        for mod_name, fn_name in SPANNED:
            name = f"{mod_name}.{fn_name}"
            for key in ("calls", "self_s", "total_s"):
                out.setdefault(f"{name}.{key}", 0.0)
        for name in COUNTED:
            out[f"{name}.count"] = self.counts[name]
        for name in ("walk.sym_eig.dim_sum", "walk.fidelity_scan.grid_points"):
            out[name] = self.sums[name]
        searches = out["certify.integer_relation_search.calls"]
        out["certify.integer_relation_search.exhaustive_share"] = (
            self.sums["certify.integer_relation_search.exhaustive"] / searches if searches else 0.0
        )
        attempts = out["certify.heuristic_obstruction.calls"]
        out["certify.heuristic_obstruction.hit_ratio"] = (
            self.sums["certify.heuristic_obstruction.hits"] / attempts if attempts else 0.0
        )
        # The CLI's own layer is reported by its short name.
        out["cli.self_s"] = out["cli.main.self_s"]
        return dict(out)

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, question in self.spans:
                fh.write(
                    json.dumps({"name": name, "start": start, "end": end, "parent": parent, "question": question})
                    + "\n"
                )
