"""Command-line front end with stable JSON reports.

Every verb validates its input, computes with exact arithmetic and prints a
report object; numeric output is always an integer or a "p/q" string.
Exit codes: 0 for a computed answer, 1 for a verification that found a
violation (with a witness), 2 for malformed or unreadable input, precondition
errors, or a report that cannot be written.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import classify2d, constructions, jsonio, pointset, tiling
from .errors import HomometryError, NotDirectError, SchemaError
from .jsonio import rational_out, vector_out
from .pointset import PointSet


def _read_document(source: str):
    try:
        if source == "-":
            text = sys.stdin.read()
        else:
            with open(source, "r", encoding="utf-8") as fh:
                text = fh.read()
    except OSError as exc:
        raise HomometryError(f"cannot read input: {exc}") from exc
    try:
        return json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:  # nesting past the parser's depth
        raise SchemaError("$", f"invalid JSON: {exc}") from exc


def _emit(report: dict, code: int) -> int:
    print(jsonio.dump(report))
    return code


def _ok(verb: str, payload: dict) -> int:
    return _emit({"status": "ok", "verb": verb, "payload": payload}, 0)


def _violation(verb: str, payload: dict, witnesses) -> int:
    report = {"status": "violation", "verb": verb, "payload": payload}
    if witnesses is not None:
        report["witnesses"] = witnesses
    return _emit(report, 1)


def cmd_covariogram(args) -> int:
    doc = _read_document(args.input)
    k = jsonio.pointset_in(doc, "$")
    cov = pointset.covariogram(k)
    return _ok("covariogram", cov.to_json())


def cmd_homometric(args) -> int:
    doc = _read_document(args.input)
    k = jsonio.pointset_in(_field(doc, "K"), "$.K")
    m = jsonio.pointset_in(_field(doc, "L"), "$.L")
    return _ok("homometric", {"result": pointset.homometric(k, m)})


def cmd_trivially_homometric(args) -> int:
    doc = _read_document(args.input)
    k = jsonio.pointset_in(_field(doc, "K"), "$.K")
    m = jsonio.pointset_in(_field(doc, "L"), "$.L")
    return _ok("trivially-homometric", {"result": pointset.trivially_homometric(k, m)})


def cmd_lattice_convex(args) -> int:
    doc = _read_document(args.input)
    k = jsonio.pointset_in(doc, "$")
    lat = jsonio.lattice_in(_field(doc, "lattice"), "$.lattice")
    witness = pointset.lattice_convexity_witness(k, lat)
    payload = {"result": witness is None}
    if witness is not None:
        payload["witness"] = vector_out(witness)
    return _ok("lattice-convex", payload)


def cmd_direct_sum(args) -> int:
    doc = _read_document(args.input)
    s = jsonio.pointset_in(_field(doc, "S"), "$.S")
    t = jsonio.pointset_in(_field(doc, "T"), "$.T")
    try:
        payload = {"direct": True, "sum": pointset.direct_sum(s, t).to_json()}
    except NotDirectError as exc:
        payload = {"direct": False, "witness": jsonio.exact_out(exc.witness)}
    return _ok("direct-sum", payload)


def cmd_wset(args) -> int:
    doc = _read_document(args.input)
    t = jsonio.pointset_in(_field(doc, "T"), "$.T")
    lat = jsonio.lattice_in(_field(doc, "L"), "$.L")
    wset = tiling.w_set(t, lat)
    return _ok(
        "wset",
        {
            "count": len(wset),
            "vectors": [vector_out(u) for u in wset.vectors],
            "widths": [rational_out(wset.widths[u]) for u in wset.vectors],
        },
    )


def cmd_width(args) -> int:
    doc = _read_document(args.input)
    k = jsonio.pointset_in(doc, "$")
    if "direction" in doc:
        u = jsonio.vector_in(doc["direction"], "$.direction")
        return _ok("width", {"width": rational_out(tiling.width_of(k, u))})
    if "lattice" in doc:
        lat = jsonio.lattice_in(doc["lattice"], "$.lattice")
        value, minimizer = tiling.lattice_width(k, lat)
        return _ok(
            "width",
            {"lattice_width": rational_out(value), "minimizer": vector_out(minimizer)},
        )
    raise SchemaError("$", "need either a 'direction' or a 'lattice' field")


def cmd_verify_tiling(args) -> int:
    doc = _read_document(args.input)
    ambient, translations, tile = jsonio.tiling_doc_in(doc, "$")
    try:
        t = tiling.verify_tiling(ambient, translations, tile)
    except HomometryError as exc:
        payload = {"verified": False, "reason": str(exc)}
        return _violation("verify-tiling", payload, jsonio.exact_out(exc.witness))
    return _ok("verify-tiling", {"verified": t.verified})


def cmd_check_abc(args) -> int:
    doc = _read_document(args.input)
    ambient, translations, tile = jsonio.tiling_doc_in(_field(doc, "tiling"), "$.tiling")
    s = jsonio.pointset_in(_field(doc, "S"), "$.S")
    t = tiling.verify_tiling(ambient, translations, tile)
    result = tiling.check_abc(s, t)
    payload = {}
    for name, (holds, witness) in result.items():
        entry = {"holds": holds}
        if witness is not None:
            entry["witness"] = jsonio.exact_out(witness)
        payload[name] = entry
    return _ok("check-abc", payload)


def cmd_enum_tiles(args) -> int:
    doc = _read_document(args.input)
    lat = jsonio.lattice_in(doc, "$")
    tiles = tiling.enumerate_tiles_tq(lat.basis)
    return _ok(
        "enum-tiles",
        {"count": len(tiles), "tiles": [t.to_json() for t in tiles]},
    )


def _tile_class_json(cls: classify2d.TileClass) -> dict:
    return {
        "representative": cls.representative.to_json(),
        "centrally_symmetric": cls.centrally_symmetric,
        "members": [
            {"base": [m["l"], m["h"], m["s"]], "q": list(m["q"])}
            for m in cls.members
        ],
        "witnesses": {k: rational_out(v) for k, v in cls.witnesses.items()},
    }


def cmd_classify2d(args) -> int:
    lo, _, hi = args.det_range.partition(":")
    try:
        config = classify2d.SearchConfig(det_lo=int(lo), det_hi=int(hi))
    except ValueError as exc:
        raise SchemaError("$.det-range", str(exc)) from exc
    report = classify2d.classify(config)
    payload = dict(report)
    payload["classes"] = [_tile_class_json(c) for c in report["classes"]]
    payload["centrally_symmetric_classes"] = [
        _tile_class_json(c) for c in report["centrally_symmetric_classes"]
    ]
    payload["noncentrally_symmetric_classes"] = [
        _tile_class_json(c) for c in report["noncentrally_symmetric_classes"]
    ]
    if args.report == "text":
        _print_classify_text(payload)
        return 0
    return _ok("classify2d", payload)


def _print_classify_text(payload: dict):
    lo, hi = payload["config"]["det_range"]
    print(f"classification search, determinants {lo}..{hi}")
    window = ", ".join(
        f"width {w} at determinants {d_lo}..{d_hi}"
        for d_lo, d_hi, w in payload["config"]["width_window"]
    )
    print(f"triangle width window: {window}")
    for case in payload["cases"]:
        l, h, s = case["base"]
        st = case["stats"]
        print(
            f"  det {case['det']:>2} base (l={l}, h={h}, s={s}): "
            f"{st['q_candidates']} candidates, "
            f"{st['dimension_rejects']} flat, "
            f"{st['diagonal_width_rejects']} wide-diagonal, "
            f"{st['width_one_rejects']} width-1, "
            f"{case['survivors']} kept"
        )
    print(f"survivors: {payload['survivor_count']}")
    print(f"noncentrally symmetric classes: {len(payload['noncentrally_symmetric_classes'])}")
    print(f"centrally symmetric classes: {len(payload['centrally_symmetric_classes'])}")
    for cls in payload["classes"]:
        kind = "centrally symmetric" if cls["centrally_symmetric"] else "noncentrally symmetric"
        pts = cls["representative"]["points"]
        print(f"  class ({kind}, {len(cls['members'])} members): {pts}")


def cmd_gen_example(args) -> int:
    kind = args.generator
    if kind == "planar":
        pair = constructions.planar_family(args.k)
    elif kind == "generalized":
        pair = constructions.generalized_family(
            args.d, args.k, args.variant, n=args.n, m=args.m
        )
    elif kind == "parabola":
        base = None
        if args.base is not None:
            doc = _read_document(args.base)
            ambient, translations, tile = jsonio.tiling_doc_in(doc, "$")
            base = tiling.verify_tiling(ambient, translations, tile)
        pair = constructions.parabola_construction(args.n_parabola, base)
    elif kind == "product":
        left = _factor_from_doc(_read_document(args.left))
        right = _factor_from_doc(_read_document(args.right))
        pair = constructions.cartesian_product(left, right)
    elif kind == "counterexample-ab":
        s, t = constructions.counterexample_ab(args.d)
        return _ok(
            "gen-example",
            {"S": s.to_json(), "tiling": t.to_json()},
        )
    elif kind == "counterexample-bc":
        s, t = constructions.counterexample_bc(args.d)
        return _ok(
            "gen-example",
            {"S": s.to_json(), "tiling": t.to_json()},
        )
    else:  # pragma: no cover - argparse restricts choices
        raise SchemaError("$", f"unknown generator {kind!r}")
    return _ok("gen-example", pair.to_json())


def _factor_from_doc(doc):
    """(S, tiling) of a pair document; its sums are not built."""
    ambient, translations, tile = jsonio.tiling_doc_in(_field(doc, "tiling"), "$.tiling")
    t = tiling.verify_tiling(ambient, translations, tile)
    return jsonio.pointset_in(_field(doc, "S"), "$.S"), t


def cmd_irregular_catalog(args) -> int:
    catalog = constructions.irregular_examples()
    payload = {}
    for name, entry in catalog.items():
        payload[name] = {
            key: (value.to_json() if isinstance(value, PointSet) else value)
            for key, value in entry.items()
        }
    return _ok("irregular-catalog", payload)


def _field(doc, name):
    if not isinstance(doc, dict) or name not in doc:
        raise SchemaError(f"$.{name}", "missing field")
    return doc[name]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="homometry",
        description="Exact covariograms, homometric lattice-convex sets and tilings",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def with_input(p):
        p.add_argument("input", help="JSON document path, or - for stdin")
        return p

    with_input(sub.add_parser("covariogram")).set_defaults(func=cmd_covariogram)
    with_input(sub.add_parser("homometric")).set_defaults(func=cmd_homometric)
    with_input(sub.add_parser("trivially-homometric")).set_defaults(
        func=cmd_trivially_homometric
    )
    with_input(sub.add_parser("lattice-convex")).set_defaults(func=cmd_lattice_convex)
    with_input(sub.add_parser("direct-sum")).set_defaults(func=cmd_direct_sum)
    with_input(sub.add_parser("wset")).set_defaults(func=cmd_wset)
    with_input(sub.add_parser("width")).set_defaults(func=cmd_width)
    with_input(sub.add_parser("verify-tiling")).set_defaults(func=cmd_verify_tiling)
    with_input(sub.add_parser("check-abc")).set_defaults(func=cmd_check_abc)
    with_input(sub.add_parser("enum-tiles")).set_defaults(func=cmd_enum_tiles)

    p = sub.add_parser("classify2d")
    p.add_argument("--det-range", default="7:18", help="inclusive range, e.g. 7:18")
    p.add_argument("--report", choices=("json", "text"), default="json")
    p.set_defaults(func=cmd_classify2d)

    p = sub.add_parser("gen-example")
    gen = p.add_subparsers(dest="generator", required=True)
    g = gen.add_parser("planar")
    g.add_argument("--k", type=int, required=True)
    g = gen.add_parser("generalized")
    g.add_argument("--d", type=int, required=True)
    g.add_argument("--k", type=int, required=True)
    g.add_argument("--variant", choices=("simplex", "truncated_box"), default="simplex")
    g.add_argument("--n", type=int)
    g.add_argument("--m", type=int)
    g = gen.add_parser("parabola")
    g.add_argument("--n", dest="n_parabola", type=int, required=True)
    g.add_argument("--base", help="optional tiling JSON path")
    g = gen.add_parser("product")
    g.add_argument("--left", required=True, help="pair JSON path")
    g.add_argument("--right", required=True, help="pair JSON path")
    g = gen.add_parser("counterexample-ab")
    g.add_argument("--d", type=int, required=True)
    g = gen.add_parser("counterexample-bc")
    g.add_argument("--d", type=int, required=True)
    p.set_defaults(func=cmd_gen_example)

    sub.add_parser("irregular-catalog").set_defaults(func=cmd_irregular_catalog)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = _run(args)
        sys.stdout.flush()  # a report that cannot be written fails here, not at exit
    except OSError as exc:  # a closed pipe or a full disk: the report is lost
        # send what is still buffered to the null device, so exit has nothing to flush
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"homometry: cannot write the report: {exc}", file=sys.stderr)
        return 2
    return code


def _run(args) -> int:
    """The verb's exit code, with refused input reported as an error (code 2)."""
    try:
        return args.func(args)
    except SchemaError as exc:
        return _emit(
            {"status": "error", "verb": args.verb, "error": str(exc), "path": exc.path},
            2,
        )
    except HomometryError as exc:
        report = {"status": "error", "verb": args.verb, "error": str(exc)}
        if exc.witness is not None:
            report["witness"] = jsonio.exact_out(exc.witness)
        return _emit(report, 2)
    except ValueError as exc:
        # input that parses but the library refuses (mixed dimensions, a
        # basis of the wrong kind): bad input, not a violation
        return _emit({"status": "error", "verb": args.verb, "error": str(exc)}, 2)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
