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


# Tilts, zeroes ("none") or flips the first facet normal made while
# inserting, the first one from a horizon ridge's pencil (the initial
# triangle takes three), then reports what the hull raised.
CORRUPT_ONE_FACET = """
import json, sys
from homometry import polytope

primitive = polytope._primitive
calls = []

def corrupted(n):
    n = primitive(n)
    calls.append(n)
    if len(calls) != 4:
        return n
    return {"tilted": (3 * n[0] + 1, 3 * n[1]), "flipped": (-n[0], -n[1])}.get(sys.argv[1], (0, 0))

polytope._primitive = corrupted
try:
    polytope.hull([(0, 0), (4, 0), (0, 4), (4, 4), (2, 5)])
    out = {"raised": None}
except Exception as exc:
    out = {"raised": type(exc).__name__, "message": str(exc),
           "witness": [[str(c) for c in p] for p in exc.witness or []]}
out["debug"] = __debug__
print(json.dumps(out))
"""


@pytest.mark.parametrize(
    "corruption, message",
    [
        ("tilted", "facet simplex is off its hyperplane"),
        ("none", "degenerate facet simplex"),
        ("flipped", "facet normal points inward"),
    ],
)
def test_hull_checks_run_under_optimize(corruption, message):
    path = os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])
    out = subprocess.run(
        [sys.executable, "-O", "-c", CORRUPT_ONE_FACET, corruption],
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
    assert len(report["witness"]) == 2
