"""Tests of the benchmark's own code: inputs, gates, tracing and the contract."""

import json
import math
import shutil
import subprocess
import sys

import pytest

import run
import speed
import tracing
import workloads
from homometry import pointset, polytope
from homometry.lattice import Lattice
from homometry.pointset import PointSet

ROOT = run.ROOT


@pytest.fixture(scope="module")
def abc_items():
    return workloads.Abc().setup(0)


def test_default_seed_reproduces_the_acceptance_pool(abc_items):
    from tests.test_acceptance import _abc_pool

    _, reference = _abc_pool()
    assert len(abc_items) == sum(workloads.ABC_QUOTA.values())
    for item in abc_items:
        index = int(item.label.split("#")[1].split()[0])
        s_ref, t_ref = reference[index]
        s, t = item.data
        assert s == s_ref
        assert t.tile == t_ref.tile
        assert t.translations.basis == t_ref.translations.basis


def test_another_seed_gives_a_different_pool_that_passes_the_gate(abc_items):
    abc = workloads.Abc()
    moved = abc.setup(1)
    assert [item.data[0] for item in moved] != [item.data[0] for item in abc_items]
    # every d=2 instance and the cheapest d=3 one, to keep the test short
    cheap = [i for i in moved if i.data[0].dim == 2 or len(i.data[0]) < 50]
    assert len(cheap) > len(moved) // 2
    for item in cheap:
        assert abc.check(item, abc.run(item)) is None, item.label


def test_pairs_on_another_seed_pass_the_gate():
    pairs = workloads.Pairs()
    moved = pairs.setup(5)
    assert [i.data[0] for i in moved] != [i.data[0] for i in pairs.setup(0)]
    for item in moved[:8]:
        assert pairs.check(item, pairs.run(item)) is None, item.label


@pytest.mark.parametrize("name, count", [("pairs", 8), ("abc", 12)])
def test_seeds_do_the_same_work(name, count):
    workload = workloads.WORKLOADS[name]()
    counts = []
    for seed in (0, 3):
        items = [i for i in workload.setup(seed) if i.data[0].dim == 2][:count]
        tracer = tracing.Tracer()
        run.traced_pass(workload, items, speed.SpeedProbe(), tracer)
        counts.append(tracer.counts)
    assert counts[0]["polytope.hull.repeats"] > 0
    assert counts[0] == counts[1]


def test_abc_gate_trips_on_a_corrupted_reference(abc_items):
    abc = workloads.Abc()
    item = abc_items[0]
    answer = tuple(item.expected["abc"])
    assert abc.check(item, answer) is None
    flipped = dict(item.expected, abc=[not answer[0], answer[1], answer[2]])
    corrupted = workloads.Item(item.label, item.data, flipped)
    assert abc.check(corrupted, answer) is not None
    resized = workloads.Item(item.label, item.data, dict(item.expected, s_points=1))
    assert abc.check(resized, answer) is not None


def test_abc_gate_trips_on_a_broken_implication(abc_items):
    abc = workloads.Abc()
    item = abc_items[0]
    assert item.expected["abc"] == [True, True, True]
    # a reference that itself records (a) without (b) is still refused
    bad_ref = dict(item.expected, abc=[True, False, True])
    bad = workloads.Item(item.label, item.data, bad_ref)
    assert abc.check(bad, (True, False, True)) is not None


def test_pairs_and_classify_gates_trip_on_wrong_answers():
    pairs = workloads.Pairs()
    item = pairs.setup(0)[0]
    assert pairs.check(item, (True, False, True, True)) is None
    wrong_answers = (
        (False, False, True, True),
        (True, True, True, True),
        (True, False, True, False),
    )
    for wrong in wrong_answers:
        assert pairs.check(item, wrong) is not None

    classify = workloads.Classify()

    def report(members):
        cls = type("Cls", (), {"representative": CROSS, "members": members})
        return {
            "cases": [None] * workloads.CLASSIFY_BASES,
            "survivor_count": workloads.CLASSIFY_SURVIVORS,
            "classes": [cls],
            "noncentrally_symmetric_classes": [],
        }

    crosses = [{"points": CROSS.translate((i, 2 * i))} for i in range(14)]
    right = report(crosses)
    assert classify.check(None, right) is None
    assert classify.check(None, dict(right, survivor_count=13)) is not None
    assert classify.check(None, dict(right, cases=right["cases"][1:])) is not None
    noncentral = dict(right, noncentrally_symmetric_classes=right["classes"])
    assert classify.check(None, noncentral) is not None
    assert classify.check(None, report(crosses[1:])) is not None
    # a wrongly merged class: one member is not a cross
    merged = report(crosses[1:] + [{"points": PointSet(PLUS)}])
    assert classify.check(None, merged) is not None


CROSS = PointSet([(0, 0), (1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (-1, -1)])
PLUS = [(0, 0), (1, 0), (-1, 0), (0, 1), (0, -1), (2, 0), (-2, 0)]


def test_is_cross_knows_the_cross_up_to_unimodular_maps():
    u = ((2, 1), (1, 1))  # det 1
    image = [
        (u[0][0] * x + u[0][1] * y + 5, u[1][0] * x + u[1][1] * y - 3)
        for x, y in CROSS.points
    ]
    assert workloads.is_cross(image)
    assert not workloads.is_cross(PLUS)
    assert not workloads.is_cross([(2 * x, 2 * y) for x, y in CROSS.points])
    assert not workloads.is_cross(CROSS.points[:6] + ((3, 3),))


class _Wrong:
    """A workload whose second item gives a wrong answer and whose third raises."""

    def run(self, item):
        if item.data == (3,):
            raise ValueError("boom")
        return item.data[0] * 2

    def check(self, item, answer):
        return None if answer == item.expected else "wrong"


def test_failed_items_are_counted_and_the_run_fails():
    items = [workloads.Item(str(n), (n,), expected=2) for n in (1, 2, 3)]
    result = run.run_pass(_Wrong(), items, speed.SpeedProbe())
    assert len(result.item_times) == 3
    assert len(result.failures) == 2


class _Checking:
    """A workload whose check calls a traced library function."""

    def run(self, item):
        return pointset.covariogram(item.data[0])

    def check(self, item, answer):
        pointset.covariogram(item.data[0])
        return None


def test_checks_are_outside_the_traced_figures():
    items = [workloads.Item("k", (PointSet([(0, 0), (1, 0), (0, 1)]),))] * 3
    tracer = tracing.Tracer()
    result = run.traced_pass(_Checking(), items, speed.SpeedProbe(), tracer)
    assert not result.failures
    assert result.layers["pointset.covariogram.calls"] == 3


def test_speed_conversion_scales_by_the_reference_speed():
    probe = speed.SpeedProbe()
    ref = speed.REFERENCE_S
    # boundary samples at the reference speed: the time is unchanged
    probe.durations = [ref, ref]
    assert probe.convert(0, 1, 0.5) == pytest.approx(0.5)
    # half speed throughout, one sample inside: its time is taken out, the
    # rest counts half
    probe.durations = [2 * ref, 2 * ref, 2 * ref]
    assert probe.convert(0, 2, 0.5) == pytest.approx((0.5 - 2 * ref) / 2)
    # the speed is the mean of the samples' speeds
    probe.durations = [ref, 2 * ref]
    assert probe.convert(0, 1, 1.0) == pytest.approx(0.75)


def test_speed_probe_samples_on_the_timer_and_restores_the_handler():
    import signal

    before = signal.getsignal(signal.SIGALRM)
    probe = speed.SpeedProbe()
    with probe.running():
        _, seconds = probe.timed(sum, range(10**6))
    assert len(probe.durations) >= 2
    assert seconds > 0
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_self_time_is_within_each_span():
    tracer = tracing.Tracer()
    k = PointSet([(0, 0), (1, 0), (2, 0), (0, 1), (1, 1), (0, 2)])
    tracer.new_pass()
    with tracer.installed():
        outer = tracer.begin("item")
        pointset.covariogram(k)
        assert pointset.is_lattice_convex(k, Lattice.standard(2))
        tracer.end(outer)
    assert {name for name, *_ in tracer.spans} >= {
        "item",
        "pointset.is_lattice_convex",
        "polytope.hull",
        "polytope.Polytope.lattice_points",
        "kernels.box_scan",
    }
    for (name, start, end, parent), self_s in zip(tracer.spans, tracer.self_times()):
        assert 0 <= self_s <= end - start, name
    metrics = tracer.pass_metrics(0, len(tracer.spans))
    assert metrics["pointset.covariogram.pairs"] == len(k) ** 2
    assert metrics["polytope.hull.calls"] == 1
    assert 0 < metrics["polytope.hull.self_s"] <= metrics["polytope.hull.busy_s"]


def test_box_scan_cells_are_the_box_volume():
    tracer = tracing.Tracer()
    tracer.new_pass()
    lo, hi = (-1, 0, 2), (3, 4, 2)
    with tracer.installed():
        kept = polytope.box_scan(lo, hi, [], [], [(1, 1, 0)], [2])
        empty = polytope.box_scan((0, 0), (-1, 5), [], [], [], [])
    assert empty == []
    assert tracer.counts["kernels.box_scan.cells"] == math.prod(
        b - a + 1 for a, b in zip(lo, hi)
    )
    assert tracer.counts["kernels.box_scan.kept"] == len(kept)
    assert tracer.counts["kernels.box_scan.calls"] == 2


def test_uninstall_restores_every_name():
    before = [(o, a, o.__dict__[a]) for o, a, _ in tracing.SPANNED + tracing.COUNTED]
    with tracing.Tracer().installed():
        assert polytope.Polytope.__dict__["hull"] is not before[0][2]
    for owner, attr, original in before:
        assert owner.__dict__[attr] is original


def test_tail_has_ten_items_beyond_it():
    times = [float(i) for i in range(100)]
    value, pct = run.tail(times)
    assert sum(t > value for t in times) == 10
    assert pct == 90.0
    # with fewer than twenty items the tail is the slowest one
    assert run.tail([3.0, 1.0, 2.0] * 6) == (3.0, 100.0)


def test_benchmark_json_names_the_reported_metrics():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == tracing.PER_LAYER
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.WORKLOADS)


def test_fails_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        ROOT / "perfbench",
        tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("out", "__pycache__"),
    )
    command = [sys.executable, "perfbench/run.py", "--workload", "pairs"]
    command += ["--seed", "0", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(
        command, cwd=tmp_path, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
