"""JSON document schemas: exact rationals, point sets, lattices, tilings.

Rationals serialize as bare integers or "p/q" strings; floats are rejected
so that no inexact value can enter the computational core.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction

from .errors import SchemaError
from .lattice import Lattice
from .pointset import PointSet

_RATIONAL_RE = re.compile(r"^-?\d+(/[1-9]\d*)?$")


def rational_out(x: Fraction):
    x = Fraction(x)
    if x.denominator == 1:
        return int(x)
    return f"{x.numerator}/{x.denominator}"


def rational_in(value, path: str) -> Fraction:
    if isinstance(value, bool):
        raise SchemaError(path, "expected an exact rational, got a boolean")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        if not _RATIONAL_RE.match(value):
            raise SchemaError(path, f"not a rational literal: {value!r}")
        return Fraction(value)
    if isinstance(value, float):
        raise SchemaError(path, "floats are not accepted; use 'p/q' strings")
    raise SchemaError(path, f"expected an exact rational, got {type(value).__name__}")


def vector_in(value, path: str) -> tuple[Fraction, ...]:
    if not isinstance(value, list) or not value:
        raise SchemaError(path, "expected a nonempty list of rationals")
    return tuple(rational_in(c, f"{path}[{i}]") for i, c in enumerate(value))


def vector_out(v):
    return [rational_out(c) for c in v]


def exact_out(obj):
    """JSON form of a witness: rationals, vectors, nested lists and dicts."""
    if obj is None:
        return None
    if isinstance(obj, (int, Fraction)):
        return rational_out(obj)
    if isinstance(obj, dict):
        return {str(k): exact_out(v) for k, v in obj.items()}
    if hasattr(obj, "to_json"):
        return obj.to_json()
    return [exact_out(x) for x in obj]


def pointset_in(doc, path: str) -> PointSet:
    if not isinstance(doc, dict) or "points" not in doc:
        raise SchemaError(path, "expected an object with a 'points' field")
    pts = doc["points"]
    if not isinstance(pts, list) or not pts:
        raise SchemaError(f"{path}.points", "expected a nonempty list")
    return PointSet([vector_in(p, f"{path}.points[{i}]") for i, p in enumerate(pts)])


def lattice_in(doc, path: str) -> Lattice:
    if not isinstance(doc, dict) or "basis" not in doc:
        raise SchemaError(path, "expected an object with a 'basis' field")
    basis = doc["basis"]
    if not isinstance(basis, list) or not basis:
        raise SchemaError(f"{path}.basis", "expected a nonempty list of columns")
    cols = [vector_in(c, f"{path}.basis[{i}]") for i, c in enumerate(basis)]
    if len({len(c) for c in cols}) != 1 or len(cols) != len(cols[0]):
        raise SchemaError(f"{path}.basis", "basis must be square (full rank)")
    return Lattice(cols)


def tiling_doc_in(doc, path: str):
    if not isinstance(doc, dict):
        raise SchemaError(path, "expected a tiling object")
    for key in ("M", "L", "T"):
        if key not in doc:
            raise SchemaError(path, f"missing field {key!r}")
    ambient = lattice_in(doc["M"], f"{path}.M")
    translations = lattice_in(doc["L"], f"{path}.L")
    tile = pointset_in(doc["T"], f"{path}.T")
    return ambient, translations, tile


def dump(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=False)
