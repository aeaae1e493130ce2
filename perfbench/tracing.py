"""Spans and counts at the calls into each layer, recorded from outside.

``Tracer.installed()`` replaces, for the duration of a ``with`` block, the
names each caller module looks up (``classify2d.search_base_raw``,
``polytope.box_scan``, ``Polytope.hull`` ...) with wrappers that record a
span per call and the layer's work counts.  Nothing in the library changes.

A span is ``(name, start, end, parent)``: ``parent`` is the index of the
span that was open when the call started, or -1.  Spans stay in memory
until ``write_spans`` is called at the end of the run.
"""

from __future__ import annotations

import json
import statistics
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

from homometry import classify2d, linalg, pointset, polytope, tiling

# Metric names are <module>.<function>.<stat>; the private module _kernels
# is written "kernels" because a metric name starts with a letter.
SPANNED = [
    # (owner, attribute, span name)
    (polytope.Polytope, "hull", "polytope.hull"),
    (polytope.Polytope, "lattice_points", "polytope.Polytope.lattice_points"),
    (pointset, "is_lattice_convex", "pointset.is_lattice_convex"),
    (pointset, "sum_convexity_witness", "pointset.sum_convexity_witness"),
    (pointset, "covariogram", "pointset.covariogram"),
    (polytope, "box_scan", "kernels.box_scan"),
    (tiling, "box_scan", "kernels.box_scan"),
    (classify2d, "search_base_raw", "kernels.search_base_raw"),
    (tiling, "lattice_width", "tiling.lattice_width"),
    (tiling, "verify_tiling", "tiling.verify_tiling"),
    (tiling, "check_condition_a", "tiling.check_condition_a"),
    (tiling, "check_condition_b", "tiling.check_condition_b"),
    (tiling, "check_condition_c", "tiling.check_condition_c"),
    (tiling, "affine_covering_test", "tiling.affine_covering_test"),
    (classify2d, "search_bases_with_det", "classify2d.search_bases_with_det"),
    (classify2d, "search_tiles_with_base", "classify2d.search_tiles_with_base"),
    (classify2d, "unimodular_equivalent", "classify2d.unimodular_equivalent"),
]

# Called too often for a span each; these only count calls.
COUNTED = [
    (tiling, "width_of", "tiling.width_of"),
    (linalg, "det", "linalg.det"),
    (linalg, "rank_of", "linalg.rank_of"),
]

# (metric name, unit), in the order BENCHMARK.json lists them.  The comment
# above each group names the end-to-end metrics and workloads it should move.
PER_LAYER = [
    # wall_s and item_tail_ms on abc, wall_s on pairs; barely classify.
    # repeat_fraction: share of hull calls whose input set was already
    # hulled earlier in the same pass, the most a hull cache could save.
    ("polytope.hull.calls", "count"),
    ("polytope.hull.busy_s", "s"),
    ("polytope.hull.self_s", "s"),
    ("polytope.hull.input_points", "count"),
    ("polytope.hull.repeat_fraction", "fraction"),
    # wall_s on pairs and abc
    ("polytope.Polytope.lattice_points.calls", "count"),
    ("polytope.Polytope.lattice_points.busy_s", "s"),
    ("pointset.is_lattice_convex.busy_s", "s"),
    ("pointset.sum_convexity_witness.busy_s", "s"),
    # peak_rss_mb and wall_s on pairs and abc; cells is the volume of the
    # box the caller passes, kept_fraction the share of cells returned
    ("kernels.box_scan.calls", "count"),
    ("kernels.box_scan.busy_s", "s"),
    ("kernels.box_scan.cells", "count"),
    ("kernels.box_scan.kept_fraction", "fraction"),
    # wall_s on classify only
    ("kernels.search_base_raw.calls", "count"),
    ("kernels.search_base_raw.busy_s", "s"),
    ("kernels.search_base_raw.candidates", "count"),
    ("kernels.search_base_raw.survivors", "count"),
    # wall_s on classify: the base filter, the exact re-check (self time of
    # search_tiles_with_base), class merging and tiling verification
    ("tiling.lattice_width.calls", "count"),
    ("tiling.lattice_width.busy_s", "s"),
    ("tiling.width_of.calls", "count"),
    ("classify2d.search_bases_with_det.busy_s", "s"),
    ("classify2d.search_tiles_with_base.self_s", "s"),
    ("classify2d.unimodular_equivalent.calls", "count"),
    ("classify2d.unimodular_equivalent.busy_s", "s"),
    ("tiling.verify_tiling.calls", "count"),
    ("tiling.verify_tiling.busy_s", "s"),
    # item_tail_ms on abc
    ("tiling.check_condition_a.busy_s", "s"),
    ("tiling.check_condition_b.busy_s", "s"),
    ("tiling.check_condition_c.busy_s", "s"),
    ("tiling.affine_covering_test.calls", "count"),
    ("tiling.affine_covering_test.busy_s", "s"),
    # wall_s on pairs only
    ("pointset.covariogram.calls", "count"),
    ("pointset.covariogram.busy_s", "s"),
    ("pointset.covariogram.pairs", "count"),
    # counts only: the exact Fraction work an integer hull removes, on abc
    # and pairs
    ("linalg.det.calls", "count"),
    ("linalg.rank_of.calls", "count"),
    # traced minus untraced median pass time
    ("trace.overhead_s", "s"),
]


def _ratio(num: int, den: int) -> float:
    return num / den if den else 0.0


class Tracer:
    """Records spans and counts while installed; one per traced run."""

    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._hulled: set = set()

    # -- recording ---------------------------------------------------------

    def begin(self, name: str) -> int:
        """Open a span by hand (the benchmark's own pass and item spans)."""
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((name, perf_counter(), None, parent))
        self._stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        name, start, _, parent = self.spans[idx]
        self.spans[idx] = (name, start, perf_counter(), parent)
        self._stack.pop()

    def new_pass(self) -> None:
        """Start the per-pass counts; hull repeats are counted within a pass."""
        self.counts = Counter()
        self._hulled = set()

    def _spanned(self, name, fn):
        spans, stack = self.spans, self._stack
        after = {
            "polytope.hull": self._after_hull,
            "kernels.box_scan": self._after_box_scan,
            "kernels.search_base_raw": self._after_search_base_raw,
            "pointset.covariogram": self._after_covariogram,
        }.get(name)

        def wrapper(*args, **kwargs):
            if name == "polytope.hull":
                # the points may be any iterable: the hull and the counts
                # must see the same ones
                args = (list(args[0]),) + args[1:]
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, parent)
            self.counts[name + ".calls"] += 1
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _counted(self, name, fn):
        def wrapper(*args, **kwargs):
            self.counts[name + ".calls"] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _after_hull(self, args, result):
        points = args[0]
        self.counts["polytope.hull.input_points"] += len(points)
        key = frozenset(tuple(p) for p in points)
        if key in self._hulled:
            self.counts["polytope.hull.repeats"] += 1
        else:
            self._hulled.add(key)

    def _after_box_scan(self, args, result):
        lo, hi = args[0], args[1]
        cells = 1
        for a, b in zip(lo, hi):
            cells *= max(b - a + 1, 0)
        self.counts["kernels.box_scan.cells"] += cells
        self.counts["kernels.box_scan.kept"] += len(result)

    def _after_search_base_raw(self, args, result):
        stats, survivors = result
        self.counts["kernels.search_base_raw.candidates"] += stats["q_candidates"]
        self.counts["kernels.search_base_raw.survivors"] += len(survivors)

    def _after_covariogram(self, args, result):
        self.counts["pointset.covariogram.pairs"] += len(args[0]) ** 2

    @contextmanager
    def installed(self):
        """Wrap every traced name; restore the originals on exit."""
        saved = []
        try:
            for targets, wrap in ((SPANNED, self._spanned), (COUNTED, self._counted)):
                for owner, attr, name in targets:
                    original = owner.__dict__[attr]
                    saved.append((owner, attr, original))
                    if isinstance(original, staticmethod):
                        wrapped = staticmethod(wrap(name, original.__func__))
                    else:
                        wrapped = wrap(name, original)
                    setattr(owner, attr, wrapped)
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    # -- analysis ----------------------------------------------------------

    def self_times(self, lo: int = 0, hi: int | None = None) -> list[float]:
        """Per span in [lo, hi): its duration minus what its child spans cover.

        Children of one span run one after another, so the time they cover
        is the sum of their durations.
        """
        spans = self.spans[lo:hi]
        covered = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= lo:
                covered[parent - lo] += end - start
        return [end - start - covered[i] for i, (_, start, end, _) in enumerate(spans)]

    def pass_metrics(self, lo: int, hi: int, scale: float = 1.0) -> dict[str, float]:
        """Per-layer metrics for the spans [lo, hi) and the counts of one pass.

        Span times are multiplied by `scale`, the pass's converted time over
        its raw time, so they add up like the end-to-end times.
        """
        spans = self.spans[lo:hi]
        selfs = self.self_times(lo, hi)
        busy: Counter = Counter()
        self_s: Counter = Counter()
        for i, (name, start, end, parent) in enumerate(spans):
            self_s[name] += selfs[i]
            # busy time counts a recursive call once, at its outermost span
            outer = True
            while parent >= lo:
                pname, _, _, parent = self.spans[parent]
                if pname == name:
                    outer = False
                    break
            if outer:
                busy[name] += end - start
        c = self.counts
        out = {}
        for metric, _ in PER_LAYER:
            layer, _, stat = metric.rpartition(".")
            if stat == "busy_s":
                out[metric] = busy[layer] * scale
            elif stat == "self_s":
                out[metric] = self_s[layer] * scale
            elif stat == "repeat_fraction":
                out[metric] = _ratio(c[layer + ".repeats"], c[layer + ".calls"])
            elif stat == "kept_fraction":
                out[metric] = _ratio(c[layer + ".kept"], c[layer + ".cells"])
            elif metric != "trace.overhead_s":
                out[metric] = c[metric]
        return out

    def write_spans(self, path, meta: dict) -> None:
        """Write every span as [name, start, end, parent], times from the first."""
        t0 = self.spans[0][1] if self.spans else 0.0
        doc = dict(meta)
        doc["spans"] = [
            [name, round(start - t0, 7), round(end - t0, 7), parent]
            for name, start, end, parent in self.spans
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))


def median_metrics(per_pass: list[dict[str, float]]) -> dict[str, float]:
    """Median over passes of each per-layer metric."""
    return {k: statistics.median(p[k] for p in per_pass) for k in per_pass[0]}
