"""Every public function of the library has a caller outside the tests."""

import ast
from pathlib import Path

import homometry

ROOT = Path(__file__).resolve().parents[1]
LIBRARY = sorted((ROOT / "src" / "homometry").glob("*.py"))
CALLERS = LIBRARY + sorted((ROOT / "perfbench").glob("*.py"))

# Public functions kept without a library caller, each with its reason.
EXEMPT = {
    # a basis of L on which every thin direction is bounded; its search is
    # incomplete, and ROADMAP item 6 rebuilds it as a lattice reduction
    # before anything calls it
    "tiling.thin_cover_basis",
}


def _referenced(node):
    """The names and attribute names read anywhere under node."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
    return out


def test_every_public_function_has_a_caller():
    defined = {}  # name -> (module, the def node)
    referenced_by = []  # (the top-level statement, the names it reads)
    for path in CALLERS:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for stmt in tree.body:
            if path in LIBRARY and isinstance(stmt, ast.FunctionDef):
                if not stmt.name.startswith("_"):
                    defined[stmt.name] = (path.stem, stmt)
            referenced_by.append((stmt, _referenced(stmt)))
    orphans = sorted(
        f"{module}.{name}"
        for name, (module, node) in defined.items()
        if name not in homometry.__all__
        and f"{module}.{name}" not in EXEMPT
        and not any(name in names for stmt, names in referenced_by if stmt is not node)
    )
    assert defined and not orphans, f"public functions only the tests call: {orphans}"
