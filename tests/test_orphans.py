"""Every public function and method of the library has a caller outside the tests."""

import ast
from pathlib import Path

import homometry

ROOT = Path(__file__).resolve().parents[1]
LIBRARY = sorted((ROOT / "src" / "homometry").glob("*.py"))
CALLERS = LIBRARY + sorted((ROOT / "perfbench").glob("*.py"))

# Public functions and methods kept without a library caller, each with its reason.
EXEMPT = {
    # a basis of L on which every thin direction is bounded; its search is
    # incomplete, and ROADMAP item 6 rebuilds it as a lattice reduction
    # before anything calls it
    "tiling.thin_cover_basis",
    # the exact volume from the hull's boundary simplices: criterion 6
    # compares vol(W) with vol(D(T)°), and the hull oracle checks it
    "polytope.Polytope.volume",
    # the strict lattice-point scan: the oracle of the strict thin-direction
    # scan, and of the hull's facet system against brute force
    "polytope.Polytope.interior_lattice_points",
}


def _referenced(node):
    """The names and the attribute names read anywhere under node."""
    names, attrs = set(), set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            attrs.add(sub.attr)
    return names, attrs


def _units(tree):
    """The top-level statements, each class split into its bases, decorators
    and body statements, so that a method called only by itself is seen."""
    for stmt in tree.body:
        if isinstance(stmt, ast.ClassDef):
            yield from [*stmt.bases, *stmt.decorator_list, *stmt.body]
        else:
            yield stmt


def _public(stmt):
    return isinstance(stmt, ast.FunctionDef) and not stmt.name.startswith("_")


def test_every_public_function_has_a_caller():
    # a function is read as a name or an attribute, a method as an attribute
    defined = []  # (qualified name, the def node, whether it is a method)
    referenced_by = []  # (a unit, its names, its attribute names)
    for path in CALLERS:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        if path in LIBRARY:
            for stmt in tree.body:
                if _public(stmt) and stmt.name not in homometry.__all__:
                    defined.append((f"{path.stem}.{stmt.name}", stmt, False))
                elif isinstance(stmt, ast.ClassDef):
                    defined += [
                        (f"{path.stem}.{stmt.name}.{m.name}", m, True)
                        for m in stmt.body
                        if _public(m)
                    ]
        referenced_by += [(unit, *_referenced(unit)) for unit in _units(tree)]
    orphans = sorted(
        qualified
        for qualified, node, method in defined
        if qualified not in EXEMPT
        and not any(
            node.name in attrs or (not method and node.name in names)
            for unit, names, attrs in referenced_by
            if unit is not node
        )
    )
    assert defined and not orphans, f"public functions and methods only the tests call: {orphans}"
