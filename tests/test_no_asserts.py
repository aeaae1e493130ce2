"""Invariant checks in the library must still run under ``python -O``."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "homometry").glob("*.py"))


def test_library_has_no_assert_statements():
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert SOURCES and not found, f"assert is stripped under -O: {found}"


# Tilts, zeroes ("none") or flips the n-th facet normal that `_primitive`
# makes, then reports what the hull raised.  In the plane the hull is the
# monotone chain, which makes one normal per ring edge, so n = 4 is the 4th
# edge's.  In d = 3 the hull is beneath-beyond, whose first tetrahedron
# takes four normals, so n = 5 is the first one from a horizon ridge's pencil.
CORRUPT_ONE_FACET = """
import json, sys
from homometry import polytope

points, nth, kind = json.loads(sys.argv[1]), int(sys.argv[2]), sys.argv[3]
primitive = polytope._primitive
calls = []

def corrupted(n):
    n = primitive(n)
    calls.append(n)
    if len(calls) != nth:
        return n
    if kind == "tilted":
        return (3 * n[0] + 1, *[3 * c for c in n[1:]])
    return tuple([-c for c in n]) if kind == "flipped" else (0,) * len(n)

polytope._primitive = corrupted
try:
    polytope.hull([tuple(p) for p in points])
    out = {"raised": None}
except Exception as exc:
    out = {"raised": type(exc).__name__, "message": str(exc),
           "witness": [[int(c) for c in p] for p in exc.witness or []]}
out["debug"] = __debug__
print(json.dumps(out))
"""

# (points, n, the corrupted facet's points): an edge in the plane, the ring's
# 4th from the least point counterclockwise; a triangle in d = 3
HULL_INPUTS = {
    "plane": ([(0, 0), (4, 0), (0, 4), (4, 4), (2, 5)], 4, [[2, 5], [0, 4]]),
    "space": (
        [(0, 0, 0), (4, 0, 0), (0, 4, 0), (0, 0, 4), (4, 4, 0), (2, 2, 5)],
        5,
        [[0, 4, 0], [2, 2, 5], [4, 4, 0]],
    ),
}

FAULTS = [
    ("tilted", "facet simplex is off its hyperplane"),
    ("none", "degenerate facet simplex"),
    ("flipped", "facet normal points inward"),
]


@pytest.mark.parametrize(
    "hull_input, corruption, message",
    [pytest.param("plane", c, m, id=f"{c}-{m}") for c, m in FAULTS]
    + [pytest.param("space", c, m, id=f"space-{c}-{m}") for c, m in FAULTS],
)
def test_hull_checks_run_under_optimize(hull_input, corruption, message):
    points, nth, witness = HULL_INPUTS[hull_input]
    path = os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])
    out = subprocess.run(
        [sys.executable, "-O", "-c", CORRUPT_ONE_FACET, json.dumps(points), str(nth), corruption],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert out.returncode == 0, out.stderr
    report = json.loads(out.stdout)
    assert report["debug"] is False
    assert report["raised"] == "InvariantError"
    assert report["message"] == message
    assert report["witness"] == witness


# Adds the first offset the kernel rejects on the first base as a survivor,
# runs the classify2d verb, and reports the bogus offset on standard error.
INJECT_BOGUS_SURVIVOR = """
import json, math, sys
from homometry import classify2d
from homometry.cli import main

real, bogus = classify2d.search_base_raw, {}

def with_bogus_survivor(l, h, s):
    stats, survivors = real(l, h, s)
    if not bogus:
        bogus.update(base=[l, h, s], q=next(
            [q1, q2]
            for q1 in range(0, l * h, math.gcd(h, s))
            for q2 in range(0, l * h, l)
            if (q1, q2) not in survivors
        ))
        survivors = survivors + [tuple(bogus["q"])]
    return stats, survivors

classify2d.search_base_raw = with_bogus_survivor
code = main(["classify2d", "--det-range", "7:7"])
print(json.dumps({"bogus": bogus, "debug": __debug__}), file=sys.stderr)
sys.exit(code)
"""


def test_classify_recheck_runs_under_optimize():
    path = os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])
    out = subprocess.run(
        [sys.executable, "-O", "-c", INJECT_BOGUS_SURVIVOR],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert out.returncode == 2, out.stderr
    report = json.loads(out.stderr.splitlines()[-1])
    assert report["debug"] is False
    assert report["bogus"]["base"] == [1, 7, 3]
    doc = json.loads(out.stdout)
    assert doc["status"] == "error"
    assert doc["error"].startswith("kernel survivor fails exact re-check")
    assert doc["witness"] == report["bogus"]


# Moves one vertex of a square summand, as if its hull had been corrupted,
# and adds the segment from (0, 0) to (1, 0) to it in the plane.  A vertex
# moved inside the square puts a reflex turn into the square's cycle, so a
# sum edge leaves the supporting lines; one moved onto an edge makes two sum
# edges with one outward normal.
CORRUPT_ONE_SUMMAND = """
import json, sys
from homometry import jsonio, polytope
from homometry.pointset import PointSet

moved = tuple(json.loads(sys.argv[1]))
square = PointSet([(0, 0), (4, 0), (0, 4), (4, 4)]).hull()
square.vertex_set = PointSet([(0, 0), (4, 0), (0, 4), moved])
try:
    polytope.minkowski_hull(square, PointSet([(0, 0), (1, 0)]).hull())
    out = {"raised": None}
except Exception as exc:
    out = {"raised": type(exc).__name__, "message": str(exc),
           "witness": jsonio.exact_out(exc.witness)}
out["debug"] = __debug__
print(json.dumps(out))
"""


@pytest.mark.parametrize(
    "moved, message, witness",
    [
        ((1, 1), "sum edge is off the summands' supporting lines", [[5, 0], [2, 1]]),
        ((2, 2), "sum edges repeat an outward normal", [1, 1]),
    ],
)
def test_minkowski_certificate_runs_under_optimize(moved, message, witness):
    path = os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])
    out = subprocess.run(
        [sys.executable, "-O", "-c", CORRUPT_ONE_SUMMAND, json.dumps(moved)],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert out.returncode == 0, out.stderr
    report = json.loads(out.stdout)
    assert report["debug"] is False
    assert report["raised"] == "InvariantError"
    assert report["message"] == message
    assert report["witness"] == witness
