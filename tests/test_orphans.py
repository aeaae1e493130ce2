"""Every public function and method of the library, exported or not, has a
caller outside the tests, and every one of its optional parameters is set by
such a caller."""

import ast
import math
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
LIBRARY = sorted((ROOT / "src" / "homometry").glob("*.py"))
CALLERS = LIBRARY + sorted((ROOT / "perfbench").glob("*.py"))

# Public functions and methods kept without a library caller, each with its reason.
EXEMPT = {
    # a basis of L on which every thin direction is bounded; its search is
    # incomplete, and ROADMAP item 15 rebuilds it as a lattice reduction
    # before anything calls it
    "tiling.thin_cover_basis",
    # unimodular equivalence of two planar sets, which `classify` decides by
    # `normal_form` instead; perfbench's tracer still wraps it by name, and
    # ROADMAP item 17 drops that wrap
    "classify2d.unimodular_equivalent",
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


def _has_caller():
    """{qualified name: whether a library or benchmark statement other than its
    own definition reads it} for each public function and method; a function
    is read as a name or an attribute, a method as an attribute."""
    defined = []  # (qualified name, the def node, whether it is a method)
    referenced_by = []  # (a unit, its names, its attribute names)
    for path in CALLERS:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        if path in LIBRARY:
            for stmt in tree.body:
                if _public(stmt):
                    defined.append((f"{path.stem}.{stmt.name}", stmt, False))
                elif isinstance(stmt, ast.ClassDef):
                    defined += [
                        (f"{path.stem}.{stmt.name}.{m.name}", m, True)
                        for m in stmt.body
                        if _public(m)
                    ]
        referenced_by += [(unit, *_referenced(unit)) for unit in _units(tree)]
    return {
        qualified: any(
            node.name in attrs or (not method and node.name in names)
            for unit, names, attrs in referenced_by
            if unit is not node
        )
        for qualified, node, method in defined
    }


def test_every_public_function_has_a_caller():
    # the exported names too: `__init__` imports them but calls none
    has_caller = _has_caller()
    orphans = sorted(q for q, called in has_caller.items() if not called and q not in EXEMPT)
    assert has_caller, "no public function found"
    assert not orphans, f"public functions and methods only the tests call: {orphans}"


def test_every_exemption_is_a_defined_orphan():
    # an exemption outlives its reason once its function is gone or called
    has_caller = _has_caller()
    gone = sorted(q for q in EXEMPT if q not in has_caller)
    called = sorted(q for q in EXEMPT if has_caller.get(q))
    assert not gone, f"EXEMPT names no public function or method: {gone}"
    assert not called, f"EXEMPT names a function with a library caller: {called}"


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


# Parameters with a default that no library or benchmark call sets, each with
# its reason.
UNSET = {
    "cli.main(argv)": "the console entry point: the console script passes no "
    "argv, and the tests drive it with one",
    "constructions.planar_family(s)": "the paper's planar S other than its "
    "default {o, b1, b2}: only the tests build one",
}


def _optional_parameters(func, method):
    """(positional index or None, name) for each parameter with a default;
    a method's index does not count its self or cls."""
    args = func.args
    positional = args.posonlyargs + args.args
    if method and not any(
        isinstance(d, ast.Name) and d.id == "staticmethod" for d in func.decorator_list
    ):
        positional = positional[1:]
    first = len(positional) - len(args.defaults)
    out = [(i, a.arg) for i, a in enumerate(positional) if i >= first]
    return out + [
        (None, a.arg) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None
    ]


def test_every_optional_parameter_is_set_by_a_caller():
    # a parameter is set by a call to its function's name that passes it by
    # keyword, or passes enough positional arguments; a *args or **kwargs
    # may set any
    optional = []  # (qualified parameter, index, name, function name)
    passed = {}  # called name -> [(positional count, keyword names)]
    for path in CALLERS:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        if path in LIBRARY:
            defs = [(s, False) for s in tree.body if _public(s)]
            defs += [
                (m, True)
                for s in tree.body
                if isinstance(s, ast.ClassDef)
                for m in s.body
                if _public(m)
            ]
            optional += [
                (f"{path.stem}.{f.name}({name})", i, name, f.name)
                for f, method in defs
                for i, name in _optional_parameters(f, method)
            ]
        for call in ast.walk(tree):
            if not isinstance(call, ast.Call):
                continue
            func = call.func
            called = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            starred = any(isinstance(a, ast.Starred) for a in call.args)
            passed.setdefault(called, []).append(
                (math.inf if starred else len(call.args), {k.arg for k in call.keywords})
            )
    assert optional
    unset = sorted(
        qualified
        for qualified, index, name, func in optional
        if not any(
            name in keywords or None in keywords or (index is not None and count > index)
            for count, keywords in passed.get(func, [])
        )
    )
    assert unset == sorted(UNSET), f"optional parameters only the tests set: {unset}"
