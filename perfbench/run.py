#!/usr/bin/env python3
"""The homometry benchmark: one workload, timed end to end or traced per layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload {classify,abc,pairs} --seed N \\
        --seconds S --trace {0,1}

The library is imported from ``src/`` next to this directory and runs in
this single process on its pure-Python path (``workers=1``, no JIT); only
the import timing starts interpreters of its own.  The command sets the
inputs up three times and keeps the last set, warms up, then runs passes
over the items until the next pass would end after ``--seconds``; there is
always at least one pass.  Every answer is checked against the known
result after the pass that computed it, outside the timing and the tracing.

Every time is converted to a fixed reference speed of the machine by
``speed.SpeedProbe`` (see ``speed.py``): a shared host can alternate
between a fast and a much slower speed within fractions of a second, and
the conversion takes that out.  The raw pass times are printed alongside.

With ``--trace 0`` it reports the end-to-end metrics: ``wall_s`` (the
median pass), ``item_p50_ms`` and ``item_tail_ms`` (over the items, each
timed as its median over the passes; the tail is the highest percentile
with at least ten items beyond it, or the slowest item when there are
fewer than twenty), ``setup_s`` (the median of three imports plus the
median of the three set-ups) and ``peak_rss_mb``.

With ``--trace 1`` it alternates untraced and traced passes, reports the
per-layer metrics of the traced passes (medians over passes; span times
are scaled by their pass's converted over raw time) and the tracing
overhead (median traced minus median untraced pass time), and writes the
raw spans to ``perfbench/out/``.

Human-readable lines come first; the last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  The exit code is 1 when any item fails its check and 2 when
the library cannot be imported from this checkout.

Tests of the benchmark itself: ``python3 -m pytest perfbench/tests``.
"""

import argparse
import json
import resource
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import speed

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / "perfbench" / "out"
SETUP_REPEATS = 3

# (metric name, unit), in the order BENCHMARK.json lists them.
END_TO_END = [
    ("wall_s", "s"),
    ("item_p50_ms", "ms"),
    ("item_tail_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
]


@dataclass
class Pass:
    wall: float  # converted: the sum of item_times
    raw_wall: float
    item_times: list[float]  # converted
    answers: list
    failures: list[str] = field(default_factory=list)
    layers: dict | None = None  # per-layer metrics of a traced pass


def attempt(workload, item):
    """The item's answer, or the exception it raised."""
    try:
        return workload.run(item)
    except Exception as exc:  # an item that raises is a failed item
        traceback.print_exc(file=sys.stderr)
        return exc


def time_items(workload, items, probe, tracer=None) -> Pass:
    """Run and time every item once; keep the answers for check_answers."""
    answers, times = [], []
    pass_span = tracer.begin("pass") if tracer else None
    t0 = perf_counter()
    for item in items:
        item_span = tracer.begin("item") if tracer else None
        answer, seconds = probe.timed(attempt, workload, item)
        if tracer:
            tracer.end(item_span)
        answers.append(answer)
        times.append(seconds)
    raw_wall = perf_counter() - t0
    if tracer:
        tracer.end(pass_span)
    return Pass(sum(times), raw_wall, times, answers)


def check_answers(workload, items, result: Pass) -> Pass:
    """Record a failure for every wrong answer of the pass."""
    for item, answer in zip(items, result.answers):
        if isinstance(answer, Exception):
            reason = f"raised {answer!r}"
        else:
            reason = workload.check(item, answer)
        if reason is not None:
            result.failures.append(f"{item.label}: {reason}")
    result.answers = []
    return result


def run_pass(workload, items, probe) -> Pass:
    return check_answers(workload, items, time_items(workload, items, probe))


def traced_pass(workload, items, probe, tracer) -> Pass:
    """One pass with every layer wrapped; its per-layer metrics in `layers`.

    The answers are checked after the wrappers are removed, so the checks
    add nothing to the per-layer figures.
    """
    tracer.new_pass()
    lo = len(tracer.spans)
    with tracer.installed():
        result = time_items(workload, items, probe, tracer)
    scale = result.wall / result.raw_wall
    result.layers = tracer.pass_metrics(lo, len(tracer.spans), scale)
    return check_answers(workload, items, result)


def repeat(one_round, budget: float) -> list:
    """Call one_round until the next call would end after `budget` seconds."""
    rounds = []
    begin = perf_counter()
    while True:
        start = perf_counter()
        rounds.append(one_round())
        now = perf_counter()
        if now - begin + (now - start) > budget:
            return rounds


def tail(times: list[float]) -> tuple[float, float]:
    """(value, percentile): the highest percentile with ten items beyond it.

    That percentile lies below the median when there are fewer than twenty
    items; then the slowest item (percentile 100) is reported instead.
    """
    ordered = sorted(times)
    n = len(ordered)
    if n < 20:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_library():
    """Import the library from this checkout's src/, or None when it is absent."""
    src = ROOT / "src"
    if not (src / "homometry" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(src))
    import homometry

    if Path(homometry.__file__).resolve().parent != src / "homometry":
        return None
    import tracing
    import workloads

    return workloads, tracing


def import_seconds() -> float:
    """Median converted time to import the library, each in a fresh interpreter.

    A module imports once per process, so the repeats need processes of
    their own.
    """
    paths = [str(ROOT / "src"), str(Path(__file__).resolve().parent)]
    probe = (
        f"import sys; sys.path[:0] = {paths!r}; import speed; "
        "print(speed.timed_import('homometry'))"
    )
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, "-c", probe],
            capture_output=True,
            text=True,
            check=True,
            timeout=120,
        )
        times.append(float(proc.stdout))
    return statistics.median(times)


def set_up(workload, seed: int):
    items = workload.setup(seed)
    workload.warm_up(items)
    return items


def main(argv=None) -> int:
    args = parse_args(argv)
    modules = import_library()
    if modules is None:
        print(f"error: no homometry package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workloads, tracing = modules
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    workload = workloads.WORKLOADS[args.workload]()
    probe = speed.SpeedProbe()
    setups = []
    with probe.running():
        for _ in range(SETUP_REPEATS):
            items, seconds = probe.timed(set_up, workload, args.seed)
            setups.append(seconds)
    setup_s = import_seconds() + statistics.median(setups)

    with probe.running():
        if args.trace:
            # alternate untraced and traced passes, so both meet the same load
            tracer = tracing.Tracer()
            rounds = repeat(
                lambda: (
                    run_pass(workload, items, probe),
                    traced_pass(workload, items, probe, tracer),
                ),
                args.seconds,
            )
        else:
            rounds = repeat(lambda: (run_pass(workload, items, probe),), args.seconds)
    passes = [p for r in rounds for p in r]
    untraced = [r[0] for r in rounds]
    untraced_wall = statistics.median(p.wall for p in untraced)
    raw_wall = statistics.median(p.raw_wall for p in untraced)
    slowdown = statistics.median(probe.durations) / speed.REFERENCE_S

    if args.trace:
        traced = [r[1] for r in rounds]
        metrics = tracing.median_metrics([p.layers for p in traced])
        traced_wall = statistics.median(p.wall for p in traced)
        metrics["trace.overhead_s"] = traced_wall - untraced_wall
        units = dict(tracing.PER_LAYER)
        tracer.write_spans(
            OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json",
            {"workload": args.workload, "seed": args.seed, "passes": len(traced)},
        )
        header = (
            f"traced wall_s {traced_wall:.4f} s, untraced {untraced_wall:.4f} s, "
            f"{len(traced)} traced and {len(untraced)} untraced passes"
        )
    else:
        # an item's time is its median over the passes
        times = [
            statistics.median(p.item_times[i] for p in passes)
            for i in range(len(items))
        ]
        tail_value, tail_pct = tail(times)
        metrics = {
            "wall_s": untraced_wall,
            "item_p50_ms": 1000 * statistics.median(times),
            "item_tail_ms": 1000 * tail_value,
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = dict(END_TO_END)
        header = (
            f"{len(passes)} passes of {len(items)} items; item_tail_ms is "
            f"p{tail_pct:.1f} of {len(times)} items"
        )

    attempted = sum(len(p.item_times) for p in passes)
    failures = [f for p in passes for f in p.failures]
    print(f"workload {args.workload}, seed {args.seed}: {header}")
    print(
        f"  raw median pass {raw_wall:.4f} s; median speed sample "
        f"{slowdown:.2f} x the reference, over {len(probe.durations)} samples"
    )
    for name, value in metrics.items():
        print(f"  {name:42s} {value:14.6f} {units[name]}")
    failed_fraction = len(failures) / attempted
    print(f"  {'failed_fraction':42s} {failed_fraction:14.6f} (of {attempted})")
    for failure in failures:
        print(f"FAILED {failure}", file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": not failures,
                "attempted": attempted,
                "failed": len(failures),
                "metrics": {
                    name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()
                },
            }
        )
    )
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
