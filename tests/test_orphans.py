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

# Public method names that more than one library class defines.  A call
# names no class, so the caller test above cannot tell these definitions
# apart: each one is listed with a library line that calls it.
SHARED = {
    "constructions.HomometricPair.to_json": 'return _ok("gen-example", pair.to_json())',
    "lattice.Lattice.to_json": '"M": self.ambient.to_json(),',
    "pointset.Covariogram.to_json": 'return _ok("covariogram", cov.to_json())',
    "pointset.PointSet.hull": "s_hull = s.hull()",
    "pointset.PointSet.to_json": '"T": self.tile.to_json(),',
    "polytope.Polytope.hull": "return Polytope.hull(points)",
    "tiling.Tiling.to_json": '"tiling": self.tiling.to_json(),',
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


def test_a_method_name_shared_by_two_classes_lists_a_caller_of_each():
    methods = {}  # name -> the qualified names of its definitions
    lines = set()
    for path in LIBRARY:
        text = path.read_text(encoding="utf-8")
        lines |= {line.strip() for line in text.splitlines()}
        for stmt in ast.parse(text).body:
            if isinstance(stmt, ast.ClassDef):
                for m in stmt.body:
                    if _public(m):
                        methods.setdefault(m.name, []).append(f"{path.stem}.{stmt.name}.{m.name}")
    shared = sorted(q for qs in methods.values() if len(qs) > 1 for q in qs)
    assert shared == sorted(SHARED), "list each definition of a shared method name in SHARED"
    for qualified, line in SHARED.items():
        name = qualified.rsplit(".", 1)[1]
        assert f"{name}(" in line and line in lines, (qualified, line)
