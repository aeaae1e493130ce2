"""CLI verbs: schemas, exit codes, witnesses, determinism."""

import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

from homometry.cli import main


def run_cli(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, argv):
    code, out = run_cli(capsys, argv)
    return code, json.loads(out)


def write_doc(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


ROOT = Path(__file__).resolve().parents[1]
TILE_K2 = {"points": [[0, 0], [1, 0], [2, 0], [0, 1], [1, 1]]}
LAT_K2 = {"basis": [[3, -1], [2, 1]]}


def test_covariogram_verb(tmp_path, capsys):
    path = write_doc(tmp_path, "k.json", {"points": [[0], [1], [3]]})
    code, doc = run_json(capsys, ["covariogram", path])
    assert code == 0 and doc["status"] == "ok"
    entries = {tuple(e["u"]): e["count"] for e in doc["payload"]["entries"]}
    assert entries[(0,)] == 3 and entries[(3,)] == 1


def test_homometric_verb_identical_sets(tmp_path, capsys):
    path = write_doc(tmp_path, "pair.json", {"K": TILE_K2, "L": TILE_K2})
    code, doc = run_json(capsys, ["homometric", path])
    assert code == 0
    assert doc["payload"]["result"] is True


def test_trivially_homometric_verb(tmp_path, capsys):
    reflected = {"points": [[-x, -y] for x, y in TILE_K2["points"]]}
    path = write_doc(tmp_path, "pair.json", {"K": TILE_K2, "L": reflected})
    code, doc = run_json(capsys, ["trivially-homometric", path])
    assert code == 0 and doc["payload"]["result"] is True


def test_lattice_convex_with_witness(tmp_path, capsys):
    doc_in = {"points": [[0], [2]], "lattice": {"basis": [[1]]}}
    path = write_doc(tmp_path, "k.json", doc_in)
    code, doc = run_json(capsys, ["lattice-convex", path])
    assert code == 0
    assert doc["payload"]["result"] is False
    assert doc["payload"]["witness"] == [1]


def test_direct_sum_verb(tmp_path, capsys):
    path = write_doc(
        tmp_path,
        "st.json",
        {"S": {"points": [[0], [1], [4], [5]]}, "T": {"points": [[0], [2], [8], [10]]}},
    )
    code, doc = run_json(capsys, ["direct-sum", path])
    assert code == 0 and doc["payload"]["direct"] is True
    assert doc["payload"]["sum"]["points"] == [[x] for x in range(16)]


def test_direct_sum_verb_names_its_witness(tmp_path, capsys):
    path = write_doc(
        tmp_path, "st.json", {"S": {"points": [[0], [1]]}, "T": {"points": [[0], ["1/2"], [1]]}}
    )
    code, doc = run_json(capsys, ["direct-sum", path])
    assert code == 0 and doc["payload"]["direct"] is False
    (s1, t1), (s2, t2) = doc["payload"]["witness"]
    assert [s1, t1] != [s2, t2]
    assert F(s1[0]) + F(t1[0]) == F(s2[0]) + F(t2[0])


def test_wset_verb_six_vectors(tmp_path, capsys):
    path = write_doc(tmp_path, "wt.json", {"T": TILE_K2, "L": LAT_K2})
    code, doc = run_json(capsys, ["wset", path])
    assert code == 0
    assert doc["payload"]["count"] == 6
    assert all(w == "4/5" for w in doc["payload"]["widths"])


def test_width_verb_both_modes(tmp_path, capsys):
    path = write_doc(tmp_path, "w1.json", dict(TILE_K2, direction=[1, 1]))
    code, doc = run_json(capsys, ["width", path])
    assert code == 0 and doc["payload"]["width"] == 2
    path = write_doc(tmp_path, "w2.json", dict(TILE_K2, lattice={"basis": [[1, 0], [0, 1]]}))
    code, doc = run_json(capsys, ["width", path])
    assert code == 0 and doc["payload"]["lattice_width"] == 1


def test_verify_tiling_ok_and_violation(tmp_path, capsys):
    good = {"M": {"basis": [[1, 0], [0, 1]]}, "L": LAT_K2, "T": TILE_K2}
    path = write_doc(tmp_path, "good.json", good)
    code, doc = run_json(capsys, ["verify-tiling", path])
    assert code == 0 and doc["payload"]["verified"] is True

    bad = {
        "M": {"basis": [[1, 0], [0, 1]]},
        "L": {"basis": [[2, 0], [0, 2]]},
        "T": {"points": [[0, 0], [2, 0], [0, 1], [1, 1]]},
    }
    path = write_doc(tmp_path, "bad.json", bad)
    code, doc = run_json(capsys, ["verify-tiling", path])
    assert code == 1
    assert doc["status"] == "violation"
    assert "witnesses" in doc


def test_verify_tiling_names_a_missed_coset_of_a_too_small_tile(tmp_path, capsys):
    # T = {o} misses the odd coset of 2Z x Z; (1, 1) is the least point of
    # the cell (0, 2] x (0, 1] in it
    short = {"M": {"basis": [[1, 0], [0, 1]]}, "L": {"basis": [[2, 0], [0, 1]]}, "T": {"points": [[0, 0]]}}
    path = write_doc(tmp_path, "short.json", short)
    code, doc = run_json(capsys, ["verify-tiling", path])
    assert code == 1
    assert doc["payload"]["reason"] == "tile has 1 points but the index [M:L] is 2"
    assert doc["witnesses"] == [1, 1]


HALVES = {"basis": [["1/2", 0], [0, 1]]}


@pytest.mark.parametrize(
    "doc_in, reason",
    [
        (
            {"M": {"basis": [[1, 0], [0, 1]]}, "L": {"basis": [[2, 0], [0, 1]]},
             "T": {"points": [[0, 0], ["1/2", 0]]}},
            "tile point (1/2, 0) is outside M",
        ),
        (
            {"M": HALVES, "L": {"basis": [["3/2", 0], [0, 1]]},
             "T": {"points": [[0, 0], ["1/2", 0], ["3/2", 0]]}},
            "tile points (0, 0) and (3/2, 0) lie in the same coset of L",
        ),
        (
            {"M": HALVES, "L": {"basis": [["3/2", 0], [0, 1]]},
             "T": {"points": [[0, 0], ["1/2", 0], ["5/2", 0]]}},
            "tile misses the M-point (1, 0)",
        ),
        (
            {"M": HALVES, "L": {"basis": [["1/4", 0], [0, 1]]},
             "T": {"points": [[0, 0]]}},
            "L is not a sublattice of M: its basis vector (1/4, 0) is outside M",
        ),
        (
            {"M": {"basis": [[1, 0], [0, 1]]}, "L": {"basis": [[2, 0], [0, 1]]},
             "T": {"points": [[0, 0], [1, 0], [2, 0]]}},
            "tile points (0, 0) and (2, 0) lie in the same coset of L",
        ),
        (
            {"M": {"basis": [[1, 0], [0, 1]]}, "L": {"basis": [[2, 0], [0, 1]]},
             "T": {"points": [[0, 0]]}},
            "tile has 1 points but the index [M:L] is 2",
        ),
    ],
    ids=[
        "outside-M", "coset-clash", "convexity-gap", "not-a-sublattice", "too-many-points",
        "too-few-points",
    ],
)
def test_verify_tiling_violations_print_plain_rationals(tmp_path, capsys, doc_in, reason):
    path = write_doc(tmp_path, "t.json", doc_in)
    code, out = run_cli(capsys, ["verify-tiling", path])
    assert code == 1
    assert reason in out
    assert "Fraction(" not in out


# SHA-256 of the covariogram verb's output before the covariogram moved onto
# integer offsets; the report must not change by a byte
COVARIOGRAM_OUTPUTS = [
    ({"points": [[0], [1], [3]]},
     "a7617ed0238e0f7c7426a70dcecbc827197a4a9ca8895590674f7eda0bfb1e5b"),
    (TILE_K2, "6e04c49a9ff25fa4dde8b52150b5f03a06e1efe5848b8fd2bdcbb043754f5c3a"),
    ({"points": [["1/2", 0], [1, "1/3"], [0, "-2/3"], ["7/6", 2]]},
     "b4bea019da9ae116150f0400dffa985c49c2a91b42408e09ee4e94f6d7c7aa73"),
]


@pytest.mark.parametrize("doc_in, digest", COVARIOGRAM_OUTPUTS)
def test_covariogram_report_is_unchanged(tmp_path, capsys, doc_in, digest):
    path = write_doc(tmp_path, "k.json", doc_in)
    code, out = run_cli(capsys, ["covariogram", path])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_check_abc_verb(tmp_path, capsys):
    doc_in = {
        "tiling": {"M": {"basis": [[1, 0], [0, 1]]}, "L": LAT_K2, "T": TILE_K2},
        "S": {"points": [[0, 0], [3, -1], [2, 1]]},
    }
    path = write_doc(tmp_path, "abc.json", doc_in)
    code, doc = run_json(capsys, ["check-abc", path])
    assert code == 0
    assert doc["payload"]["a"]["holds"] is True
    assert doc["payload"]["b"]["holds"] is True
    assert doc["payload"]["c"]["holds"] is True


def test_check_abc_verb_in_dimension_one(tmp_path, capsys):
    doc_in = {
        "tiling": {
            "M": {"basis": [[1]]},
            "L": {"basis": [[3]]},
            "T": {"points": [[0], [1], [2]]},
        },
        "S": {"points": [[0], [3], [6]]},
    }
    path = write_doc(tmp_path, "abc1.json", doc_in)
    code, doc = run_json(capsys, ["check-abc", path])
    assert code == 0
    holds = {"holds": True}
    assert doc["payload"] == {"a": holds, "b": holds, "c": holds}


@pytest.mark.parametrize(
    "verb, doc_in, witness",
    [
        (
            "lattice-convex",
            {"points": [[0, 0], [1, 0], [0, 1]], "lattice": {"basis": [[2, 0], [0, 2]]}},
            [0, 1],
        ),
        (
            "check-abc",
            {
                "tiling": {"M": {"basis": [[1, 0], [0, 1]]}, "L": LAT_K2, "T": TILE_K2},
                "S": {"points": [[0, 0], [3, -1], ["5/2", "1/2"]]},
            },
            ["5/2", "1/2"],
        ),
    ],
)
def test_point_outside_the_lattice_is_named_as_witness(tmp_path, capsys, verb, doc_in, witness):
    path = write_doc(tmp_path, "in.json", doc_in)
    code, out = run_cli(capsys, [verb, path])
    doc = json.loads(out)
    assert code == 2 and doc["status"] == "error"
    assert doc["witness"] == witness
    assert "Fraction(" not in out


def test_check_abc_refuses_an_s_outside_l_before_b_could_be_non_direct(tmp_path, capsys):
    # S + T is not direct here, as (0, 1) - (0, 0) lies in M but not in L,
    # yet check-abc cannot report (b)'s two pairs: the (a)/(c) prologue
    # refuses S first, and an S in L would make S + T direct
    doc_in = {
        "tiling": {"M": {"basis": [[1, 0], [0, 1]]}, "L": LAT_K2, "T": TILE_K2},
        "S": {"points": [[0, 0], [1, 0], [0, 1]]},
    }
    path = write_doc(tmp_path, "in.json", doc_in)
    code, doc = run_json(capsys, ["check-abc", path])
    assert code == 2 and doc["status"] == "error"
    assert doc["error"] == "point (0, 1) is outside the lattice"
    assert doc["witness"] == [0, 1]


def test_check_abc_names_the_l_point_a_nonconvex_s_misses(tmp_path, capsys):
    # S = {o, 2 b1, b2} misses b1 = (3, -1), the least L-point of conv(S)
    doc_in = {
        "tiling": {"M": {"basis": [[1, 0], [0, 1]]}, "L": LAT_K2, "T": TILE_K2},
        "S": {"points": [[0, 0], [6, -2], [2, 1]]},
    }
    path = write_doc(tmp_path, "in.json", doc_in)
    code, doc = run_json(capsys, ["check-abc", path])
    assert code == 0
    gap = {"holds": False, "witness": [3, -1]}
    assert doc["payload"] == {"a": gap, "b": gap, "c": gap}


def test_enum_tiles_verb(tmp_path, capsys):
    path = write_doc(tmp_path, "b.json", {"basis": [[1, 0], [2, 5]]})
    code, doc = run_json(capsys, ["enum-tiles", path])
    assert code == 0
    assert doc["payload"]["count"] >= 1


def test_classify2d_verb_small(capsys):
    code, doc = run_json(capsys, ["classify2d", "--det-range", "7:7"])
    assert code == 0
    payload = doc["payload"]
    assert payload["noncentrally_symmetric_classes"] == []
    assert len(payload["centrally_symmetric_classes"]) == 1


def test_classify2d_text_report(capsys):
    code, out = run_cli(capsys, ["classify2d", "--det-range", "7:7", "--report", "text"])
    assert code == 0
    assert "centrally symmetric classes: 1" in out
    assert out.splitlines()[1] == (
        "triangle width window: width 3 at determinants 7..18, width 4 at determinants 12..16"
    )


def test_classify2d_deterministic_output(capsys):
    code1, out1 = run_cli(capsys, ["classify2d", "--det-range", "7:8"])
    code2, out2 = run_cli(capsys, ["classify2d", "--det-range", "7:8"])
    assert code1 == code2 == 0
    assert out1 == out2


def test_gen_example_planar_roundtrip(tmp_path, capsys):
    code, doc = run_json(capsys, ["gen-example", "planar", "--k", "2"])
    assert code == 0
    pair = doc["payload"]
    assert pair["nontrivial"] is True
    # emitted document re-parses and re-verifies
    path = write_doc(tmp_path, "tiling.json", pair["tiling"])
    code, doc = run_json(capsys, ["verify-tiling", path])
    assert code == 0


def test_gen_example_product(tmp_path, capsys):
    code, left = run_json(capsys, ["gen-example", "planar", "--k", "1"])
    lpath = write_doc(tmp_path, "left.json", left["payload"])
    code, doc = run_json(
        capsys, ["gen-example", "product", "--left", lpath, "--right", lpath]
    )
    assert code == 0
    assert doc["payload"]["nontrivial"] is True
    assert len(doc["payload"]["tiling"]["T"]["points"][0]) == 4


def test_gen_example_product_needs_no_nontrivial_field(tmp_path, capsys):
    # the product reads only S and the tiling of each pair
    code, left = run_json(capsys, ["gen-example", "planar", "--k", "1"])
    with_flag = write_doc(tmp_path, "with.json", left["payload"])
    bare = dict(left["payload"])
    del bare["nontrivial"]
    without = write_doc(tmp_path, "without.json", bare)
    product = lambda path: ["gen-example", "product", "--left", path, "--right", path]
    code, want = run_cli(capsys, product(with_flag))
    assert code == 0
    code, got = run_cli(capsys, product(without))
    assert code == 0 and got == want


def test_gen_example_counterexamples(capsys):
    code, doc = run_json(capsys, ["gen-example", "counterexample-ab", "--d", "3"])
    assert code == 0
    assert doc["payload"]["S"]["points"][0] == [0, 0, 0]
    code, doc = run_json(capsys, ["gen-example", "counterexample-bc", "--d", "3"])
    assert code == 0


def test_gen_example_parabola(capsys):
    code, doc = run_json(capsys, ["gen-example", "parabola", "--n", "1"])
    assert code == 0 and doc["payload"]["nontrivial"] is True


def test_irregular_catalog_verb(capsys):
    code, doc = run_json(capsys, ["irregular-catalog"])
    assert code == 0
    seg = doc["payload"]["segments_1d"]
    assert seg["checks"]["S_intrinsically_lattice_convex"] is False
    assert seg["sum"]["points"] == [[x] for x in range(16)]


def test_schema_error_exit_code(tmp_path, capsys):
    path = write_doc(tmp_path, "bad.json", {"points": [[0.5, 0]]})
    code, doc = run_json(capsys, ["covariogram", path])
    assert code == 2
    assert doc["status"] == "error"
    assert "path" in doc


def test_deeply_nested_json_is_refused_input(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 200000 + "]" * 200000)
    code, doc = run_json(capsys, ["covariogram", str(path)])
    assert code == 2
    assert doc["status"] == "error" and doc["path"] == "$"
    assert doc["error"].startswith("$: invalid JSON: ")


def test_lower_dimensional_tile_error(tmp_path, capsys):
    path = write_doc(
        tmp_path,
        "flat.json",
        {"T": {"points": [[0, 0], [1, 0]]}, "L": {"basis": [[1, 0], [0, 1]]}},
    )
    code, doc = run_json(capsys, ["wset", path])
    assert code == 2 and doc["status"] == "error"


@pytest.mark.parametrize(
    "verb, doc_in, message",
    [
        (
            "verify-tiling",
            {
                "M": {"basis": [[1, 0], [0, 1]]},
                "L": {"basis": [[2, 0], [0, 1]]},
                "T": {"points": [[0, 0, 0], [1, 0, 0]]},
            },
            "dimension mismatch",
        ),
        ("covariogram", {"points": [[0, 0], [1, 0, 0]]}, "mixed dimensions in point set"),
        ("enum-tiles", {"basis": [["1/2", 0], [0, 1]]}, "needs an integral basis"),
        ("enum-tiles", {"basis": [[0, 1], [1, 0]]}, "positively oriented"),
        (
            "direct-sum",
            {"S": {"points": [[0, 0], [1, 0]]}, "T": {"points": [[0, 0, 0], [0, 0, 1]]}},
            "cannot add sets of dimensions 2 and 3",
        ),
        ("width", dict(TILE_K2, direction=[1, 1, 0]), "expected a direction of dimension 2"),
        (
            "lattice-convex",
            {"points": [[0, 0, 0], [1, 0, 0]], "lattice": {"basis": [[2, 0], [0, 1]]}},
            "dimension 3 against a lattice of dimension 2",
        ),
        (
            "wset",
            {
                "T": {"points": [[0, 0], [1, 0], [0, 1]]},
                "L": {"basis": [[2, 0, 0], [0, 1, 0], [0, 0, 1]]},
            },
            "a set of dimension 2 against a lattice of dimension 3",
        ),
    ],
)
def test_refused_input_is_an_error_not_a_violation(tmp_path, capfd, verb, doc_in, message):
    # exit code 1 means "violation found"; input the library refuses is 2
    path = write_doc(tmp_path, "in.json", doc_in)
    code = main([verb, path])
    out, err = capfd.readouterr()
    doc = json.loads(out)
    assert code == 2
    assert doc["status"] == "error" and doc["verb"] == verb
    assert message in doc["error"] and "witness" not in doc
    assert "Traceback" not in out + err


def test_unreadable_input_is_an_error_not_a_violation(tmp_path, capfd):
    # a directory raises IsADirectoryError, an OSError other than FileNotFoundError
    code = main(["covariogram", str(tmp_path)])
    out, err = capfd.readouterr()
    doc = json.loads(out)
    assert code == 2
    assert doc["status"] == "error" and doc["verb"] == "covariogram"
    assert "cannot read input" in doc["error"]
    assert "Traceback" not in out + err


def run_cli_process(argv, stdout):
    path = os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])
    return subprocess.Popen(
        [sys.executable, "-m", "homometry.cli", *argv],
        env=dict(os.environ, PYTHONPATH=path),
        stdout=stdout,
        stderr=subprocess.PIPE,
        text=True,
    )


def test_closed_pipe_is_an_error_not_a_violation(tmp_path):
    # the 2 MB report of 3-D tiles is cut after 20 bytes, like `| head -c 20`
    path = write_doc(tmp_path, "basis.json", {"basis": [[3, 1, 0], [0, 2, 1], [1, 0, 2]]})
    proc = run_cli_process(["enum-tiles", path], subprocess.PIPE)
    head = proc.stdout.read(20)
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait(timeout=300) == 2
    assert head.startswith("{")
    assert "cannot write the report" in err
    assert "Traceback" not in err and "Exception ignored" not in err


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full device")
def test_full_disk_is_an_error_not_a_violation():
    with open("/dev/full", "w") as full:
        proc = run_cli_process(["classify2d", "--det-range", "1:30"], full)
        err = proc.stderr.read()
        assert proc.wait(timeout=300) == 2
    assert "No space left on device" in err
    assert "Traceback" not in err and "Exception ignored" not in err


def test_rationals_never_serialized_as_floats(capsys):
    code, doc = run_json(capsys, ["gen-example", "counterexample-ab", "--d", "3"])
    text = json.dumps(doc)
    assert "0.5" not in text
    assert "1/2" in text
