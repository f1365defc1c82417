import ast
import importlib
import json
import os
import pickle
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from splintbranch import affine as af
from splintbranch import cli
from splintbranch.cli import main
from splintbranch.rootsystem import build_root_system
from splintbranch.splints import _catalog_entries, probe_tilde_branching, splint_from_dict
from test_branch_reuse import ALGEBRAS, affine_module
from test_integer_probe import SPLINT_FILE_TAMPERS


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_roots_g2(capsys):
    code, out, _ = run(capsys, "roots", "--algebra", "G2")
    assert code == 0
    assert "6 positive roots" in out and "h-dual [4]" in out


def test_roots_a1_and_bad_algebra(capsys):
    code, out, _ = run(capsys, "roots", "--algebra", "A1")
    assert code == 0 and "1 positive roots" in out
    code, _, err = run(capsys, "roots", "--algebra", "X9")
    assert code == 2 and "X9" in err or "rank" in err


def test_splint_list_and_check(capsys):
    code, out, _ = run(capsys, "splint", "list", "--algebra", "G2")
    assert code == 0 and "G2:A2A2" in out and "branching applicable" in out
    code, out, _ = run(capsys, "splint", "list", "--algebra", "A1")
    assert code == 0 and "no catalog splints" in out
    code, out, _ = run(capsys, "splint", "check", "--splint", "B2:A1A1")
    assert code == 0 and "pass" in out


@pytest.mark.parametrize("flags, named", [
    (["--splint", "nope"], ["--splint"]),
    (["--splint", "G2:A2A2"], ["--splint"]),
    (["--splint-file", "/nonexistent.json"], ["--splint-file"]),
    (["--splint", "nope", "--splint-file", "/nonexistent.json"], ["--splint", "--splint-file"]),
])
def test_splint_list_refuses_splint_flags(capsys, flags, named):
    # list reads only --algebra: a splint flag is refused, not ignored
    code, out, err = run(capsys, "splint", "list", "--algebra", "G2", *flags)
    assert (code, out) == (2, "")
    assert err == "configuration error: " + "; ".join(
        f"{flag} is not read by this command" for flag in named) + "\n"


def test_branch_with_oracle(capsys):
    code, out, _ = run(capsys, "branch", "--algebra", "G2", "--splint", "A2A2",
                       "--weight", "0,1", "--oracle")
    assert code == 0
    assert "total dimension 14" in out and "oracle match: True" in out


def test_branch_trivial_weight(capsys):
    code, out, _ = run(capsys, "branch", "--algebra", "G2", "--splint", "A2A2",
                       "--weight", "0,0")
    assert code == 0 and "total dimension 1" in out


def test_branch_unknown_splint_lists_catalog(capsys):
    code, _, err = run(capsys, "branch", "--algebra", "G2", "--splint", "nope",
                       "--weight", "0,0")
    assert code == 2
    assert "catalog has" in err and "G2:A2A2" in err


def test_branch_weight_validation(capsys):
    code, _, err = run(capsys, "branch", "--algebra", "G2", "--splint", "A2A2",
                       "--weight", "1")
    assert code == 2 and "Dynkin labels" in err


def test_strings_and_matrix(capsys):
    code, out, _ = run(capsys, "strings", "--algebra", "A1", "--level", "1",
                       "--weight", "0", "--grade-max", "5")
    assert code == 0
    assert "sigma(q) = [1, 1, 2, 3, 5, 7]" in out
    code, out, _ = run(capsys, "strings", "--algebra", "A1", "--level", "1",
                       "--weight", "0", "--grade-max", "0")
    assert code == 0 and "[1]" in out
    code, out, _ = run(capsys, "strings", "--algebra", "A1", "--level", "2",
                       "--weight", "2", "--grade-max", "4", "--emit", "matrix")
    assert code == 0 and "consistency" in out and "True" in out


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_inconsistent_matrix_exits_1_with_one_record(capsys, monkeypatch, fmt):
    # a wrong inverse makes M^-1 M != 1: the record is still printed, once
    invert = af.invert_multiplicity_matrix
    monkeypatch.setattr(af, "invert_multiplicity_matrix",
                        lambda mm: [[2 * x for x in row] for row in invert(mm)])
    code, out, _ = run(capsys, "strings", "--algebra", "A1", "--level", "2", "--weight", "0",
                       "--grade-max", "4", "--emit", "matrix", "--no-cache", "--format", fmt)
    assert code == 1
    if fmt == "json":
        (line,) = out.splitlines()
        assert json.loads(line)["consistent"] is False
    else:
        assert out.count("consistency") == 1 and out.endswith("direct decomposition): False\n")


def test_qdim(capsys):
    code, out, _ = run(capsys, "qdim", "--algebra", "A1", "--level", "1",
                       "--weight", "0", "--grade-max", "3")
    assert code == 0 and "[1, 3, 4, 7]" in out


def test_affine_branch_oracle(capsys):
    code, out, _ = run(capsys, "affine-branch", "--algebra", "B2", "--splint",
                       "A1A1", "--level", "1", "--weight", "0,0",
                       "--grade-max", "1", "--oracle")
    assert code == 0 and "oracle match: True" in out


def test_verify_pass_and_exit_codes(capsys):
    code, out, _ = run(capsys, "verify", "--identity", "denominator",
                       "--splint", "G2:A2A2", "--grade-max", "4")
    assert code == 0 and "denominator: pass" in out
    code, out, _ = run(capsys, "verify", "--identity", "theta-sum",
                       "--splint", "B2:A1A1", "--grade-max", "4")
    assert code == 0 and "theta-sum: pass" in out


def test_verify_all_at_grade_zero(capsys):
    # every theta sum starts at q^{dim/24} > 0, so both theta-sum sides are
    # empty through q^0 and the identity holds vacuously
    code, out, _ = run(capsys, "verify", "--identity", "all", "--splint", "B2:A1A1",
                       "--grade-max", "0")
    assert code == 0, out
    assert "theta-sum: pass - both sides vanish through q^0" in out
    code, out, _ = run(capsys, "verify", "--identity", "all", "--splint", "B2:A1A1",
                       "--grade-max", "0", "--format", "json")
    assert code == 0
    results = {r["identity"]: r for r in json.loads(out)["results"]}
    assert all(r["passed"] for r in results.values())
    assert results["theta-sum"]["first_mismatch"] is None


def test_verify_weyl_takes_algebra_from_splint(capsys):
    code, out, _ = run(capsys, "verify", "--identity", "weyl", "--splint", "B2:A1A1",
                       "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["algebra"] == "B2" and doc["splint"] == "B2:A1A1"
    assert [r["identity"] for r in doc["results"]] == ["weyl"]
    assert doc["results"][0]["passed"] is True
    code, _, err = run(capsys, "verify", "--identity", "weyl")
    assert code == 2 and "--algebra or --splint is required" in err


@pytest.mark.parametrize("argv", [
    ["verify", "--identity", "denominator", "--splint", "B2:A1A1", "--grade-max", "-1"],
    ["verify", "--identity", "theta-product", "--splint", "B2:A1A1", "--grade-max", "-1"],
    ["verify", "--identity", "theta-sum", "--splint", "B2:A1A1", "--grade-max", "-1"],
    ["verify", "--identity", "weyl", "--algebra", "B2", "--grade-max", "-1"],
    ["verify", "--identity", "branching", "--splint", "B2:A1A1", "--max-label", "-1"],
    ["qdim", "--algebra", "A1", "--level", "1", "--weight", "0", "--grade-max", "-1"],
])
def test_negative_bounds_are_refused(capsys, argv):
    code, out, err = run(capsys, *argv)
    flag = argv[-2]
    assert (code, out) == (2, "")
    assert err == f"configuration error: {flag} must be >= 0\n"


G2_SPLINT_FILE = {
    "name": "G2:file", "ambient": "G2",
    "subalgebra": {"source": "A2", "map": [
        [[1, 0], [-2, 1, 1]], [[0, 1], [1, -2, 1]], [[1, 1], [-1, -1, 2]]]},
    "stem": {"source": "A2", "map": [
        [[1, 0], [1, -1, 0]], [[0, 1], [-1, 0, 1]], [[1, 1], [0, -1, 1]]]},
    "correspondence": [0, 1],
}


@pytest.mark.parametrize("command", [
    ["fan"],
    ["branch", "--weight", "1,0"],
    ["affine-branch", "--weight", "0,0", "--level", "1", "--grade-max", "2"],
])
def test_splint_names_the_algebra(tmp_path, capsys, command):
    # without --algebra the splint's algebra is used; the output is the one
    # of the same command with --algebra G2
    with_algebra = run(capsys, *command, "--algebra", "G2", "--splint", "A2A2")
    assert with_algebra[0] == 0
    assert run(capsys, *command, "--splint", "G2:A2A2") == with_algebra
    path = tmp_path / "g2.json"
    path.write_text(json.dumps(G2_SPLINT_FILE))
    code, out, _ = run(capsys, *command, "--splint-file", str(path))
    assert code == 0 and "G2:file" in out


@pytest.mark.parametrize("command", [
    ["fan"],
    ["branch", "--weight", "1,0"],
    ["affine-branch", "--weight", "0,0", "--level", "1"],
    ["verify", "--identity", "denominator"],
    ["verify", "--identity", "weyl"],
    ["splint", "check"],
])
def test_splint_of_another_algebra_is_refused(tmp_path, capsys, command):
    code, out, err = run(capsys, *command, "--algebra", "B2", "--splint", "G2:A2A2")
    assert (code, out) == (2, "")
    assert err == ("configuration error: splint G2:A2A2 is a splint of G2, "
                   "not of --algebra B2\n")
    path = tmp_path / "g2.json"
    path.write_text(json.dumps(G2_SPLINT_FILE))
    code, _, err = run(capsys, *command, "--algebra", "B2", "--splint-file", str(path))
    assert code == 2 and "G2:file is a splint of G2, not of --algebra B2" in err


def test_verify_corrupted_splint_file(tmp_path, capsys):
    bad = {
        "name": "G2:corrupt", "ambient": "G2",
        "subalgebra": {"source": "A2", "map": [
            [[1, 0], [-2, 1, 1]], [[0, 1], [1, -2, 1]], [[1, 1], [-1, -1, 2]]]},
        # last stem image collides with a subalgebra root
        "stem": {"source": "A2", "map": [
            [[1, 0], [1, -1, 0]], [[0, 1], [-1, 0, 1]], [[1, 1], [1, -2, 1]]]},
        "correspondence": [0, 1],
    }
    path = tmp_path / "corrupt.json"
    path.write_text(json.dumps(bad))
    code, out, _ = run(capsys, "verify", "--identity", "denominator",
                       "--splint-file", str(path), "--grade-max", "3")
    assert code == 1
    assert "FAIL" in out and "first mismatch" in out


A3_RANK_DEFICIENT = {
    "name": "A3:deficient", "ambient": "A3",
    "subalgebra": {"source": "A1", "map": [[[1], [1, -1, 0, 0]]]},
    "stem": {"source": "A1", "map": [[[1], [0, 0, 1, -1]]]},
    "correspondence": [0],
}


@pytest.mark.parametrize("command, code, stream", [
    (["splint", "check"], 1, "out"),
    (["fan"], 2, "err"),
])
def test_rank_deficient_splint_file_names_missing_roots(tmp_path, capsys, command, code,
                                                        stream):
    # problems show weights as (a, b, ...), and fan joins them into one message
    path = tmp_path / "deficient.json"
    path.write_text(json.dumps(A3_RANK_DEFICIENT))
    got, out, err = run(capsys, *command, "--splint-file", str(path))
    text = out if stream == "out" else err
    missing = "union misses roots [(-1, 0, 0, 1), (-1, 0, 1, 0), (0, -1, 0, 1)]"
    assert got == code and missing in text and "Fraction(" not in text
    if command == ["fan"]:
        assert text == f"error: not a splint: {missing}\n"


def test_verify_rank_deficient_splint_file(tmp_path, capsys):
    # rank a + rank s < rank g: fail reports with exit 1, not a usage error
    path = tmp_path / "deficient.json"
    path.write_text(json.dumps(A3_RANK_DEFICIENT))
    args = ["--splint-file", str(path), "--grade-max", "3", "--no-cache"]
    code, out, err = run(capsys, "verify", "--identity", "denominator", *args)
    assert (code, out, err) == (
        1, "denominator: FAIL - coefficients at q^0 differ at weight (-3, -1, 1, 3): "
        "0 against 1 (first mismatch at q^0)\n", "")
    code, out, err = run(capsys, "verify", "--identity", "theta-sum", *args)
    assert (code, out, err) == (
        1, "theta-sum: FAIL - coefficients at q^7/24 differ at weight "
        "(-3/2, -1/2, 1/2, 3/2): 0 against 1 (first mismatch at q^7/24)\n", "")
    code, out, err = run(capsys, "verify", "--identity", "all", *args, "--format", "json")
    assert (code, err) == (1, "")
    rows = {r["identity"]: (r["passed"], r["first_mismatch"])
            for r in json.loads(out)["results"]}
    assert rows == {"weyl": (True, None), "branching": (False, None),
                    "denominator": (False, "0"), "theta-product": (False, "0"),
                    "theta-sum": (False, "7/24")}


REVERSED_PROBLEMS = {
    "G2:A2A2": ["labels (0, 1): shortcut != direct oracle at (0, -1, 1): shortcut 0, oracle 1",
                "labels (1, 0): non-dominant output [(1, -1, 0)]"],
    "B2:A1A1": ["labels (0, 1): non-dominant output [(-1/2, 1/2)]",
                "labels (1, 0): shortcut != direct oracle at (0, 0): shortcut 0, oracle 1"],
    "B2:A1A2": ["labels (0, 1): non-dominant output [(-1/2, 1/2)]",
                "labels (1, 0): shortcut != direct oracle at (0, 0): shortcut 0, oracle 1"],
    "A2:A1A1A1": ["labels (0, 1): non-dominant output [(-2/3, 1/3, 1/3)]",
                  "labels (1, 0): shortcut != direct oracle at (-1/3, -1/3, 2/3): "
                  "shortcut 0, oracle 1"],
    "A3:A2A1A1A1": ["labels (0, 0, 1): non-dominant output [(-3/4, 1/4, 1/4, 1/4)]",
                    "labels (0, 1, 1): non-dominant output [(-1/4, 3/4, -1/4, -1/4)]",
                    "labels (1, 0, 0): shortcut != direct oracle at (-1/4, -1/4, -1/4, 3/4): "
                    "shortcut 0, oracle 1",
                    "labels (1, 1, 0): shortcut != direct oracle at (1/4, 1/4, -3/4, 1/4): "
                    "shortcut 0, oracle 1"],
}


@pytest.mark.parametrize("name", sorted(REVERSED_PROBLEMS))
def test_reversed_correspondence_fails_the_tilde_probe(tmp_path, capsys, name):
    # the index correspondence is not checked on load; the probe catches it,
    # and every failure names weights as (a, b, ...)
    (entry,) = [e for e in _catalog_entries() if e["name"] == name]
    entry = dict(entry, correspondence=entry["correspondence"][::-1])
    problems = REVERSED_PROBLEMS[name]
    assert probe_tilde_branching(splint_from_dict(entry), 1).problems == problems
    path = tmp_path / "reversed.json"
    path.write_text(json.dumps(entry))
    splint = ["--splint-file", str(path)]
    zeros = ",".join("0" * len(entry["correspondence"]))
    assert run(capsys, "branch", "--weight", zeros, *splint) == (
        2, "", f"error: splint {name} is flagged: tilde-weight branching not applicable "
               f"({problems[0]})\n")
    assert run(capsys, "verify", "--identity", "branching", "--max-label", "1", *splint) == (
        1, f"branching: FAIL - {'; '.join(problems[:2])}\n", "")
    assert run(capsys, "affine-branch", "--level", "1", "--weight", zeros, "--grade-max", "0",
               "--no-cache", *splint) == (
        2, "", f"error: splint {name} is flagged: tilde-weight branching not applicable "
               f"({problems[0]})\n")


# the verify line of six broken splint files.  The first four failed the
# probe with these texts before the probe took in every fault in a splint's
# data; the zero image divided by zero (exit 3), and the exchanged B2:A1A1
# let a peel error escape (exit 2).
BROKEN_FILE_VERIFY = {
    "G2:A2A2 swap 1 0": "labels (0, 1): non-dominant output [(-1, 1, 0)]; "
                        "labels (1, 0): non-dominant output [(0, 1, -1), (-1, 1, 0)]",
    "B2:A1A2 swap 0 2": "labels (0, 1): non-dominant output [(-1/2, -1/2)]; "
                        "labels (1, 0): non-dominant output [(0, -1)]",
    "A3:A2A1A1A1 swap 2 2": "labels (0, 0, 1): non-dominant output [(-3/4, 1/4, 5/4, -3/4)]; "
                            "labels (0, 1, 1): non-dominant output "
                            "[(-1/4, -1/4, 3/4, -1/4), (-1/4, 3/4, 3/4, -5/4)]",
    "A2:A1A1A1 exchanged": "labels (0, 0): stem rank 1 != ambient rank 2; "
                           "tilde weight undefined",
    "G2:A2A2 zero": "labels (0, 0): simple root image 0 is zero",
    "B2:A1A1 exchanged": "labels (0, 1): non-dominant output [(-1/2, -1/2)]; "
                         "labels (1, 0): negative leading coefficient -1 at (0, 0)",
}


@pytest.mark.parametrize("tag", sorted(SPLINT_FILE_TAMPERS))
def test_broken_splint_file_is_no_internal_error(tmp_path, capsys, tag):
    # a broken splint file is a verification failure under verify and a
    # flagged splint under branch and affine-branch; no command exits 3
    entry = SPLINT_FILE_TAMPERS[tag]
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(entry))
    splint = ["--splint-file", str(path)]
    code, out, err = run(capsys, "verify", "--identity", "branching", "--max-label", "1", *splint)
    assert code in (0, 1) and err == ""
    if tag in BROKEN_FILE_VERIFY:
        assert (code, out) == (1, f"branching: FAIL - {BROKEN_FILE_VERIFY[tag]}\n")
    zeros = ",".join("0" * len(entry["correspondence"]))
    for command in (["branch"], ["affine-branch", "--level", "1", "--grade-max", "1"]):
        code, out, err = run(capsys, *command, "--weight", zeros, "--no-cache", *splint)
        assert code == 0 or (code, out) == (2, "") and "is flagged" in err
    for command in (["fan"], ["splint", "check"]):
        code, _, err = run(capsys, *command, *splint)
        assert code in (0, 1, 2) and "internal error" not in err


def _g2_entry(**changes):
    (entry,) = [e for e in _catalog_entries() if e["name"] == "G2:A2A2"]
    return dict(entry, **changes)


@pytest.mark.parametrize("correspondence", [[0], [0, 5]])
def test_correspondence_that_is_no_permutation_is_refused(tmp_path, capsys, correspondence):
    # the tilde rule names the broken correspondence instead of indexing past it
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(_g2_entry(correspondence=correspondence)))
    splint = ["--splint-file", str(path)]
    named = (f"correspondence {correspondence} is not a permutation of the 2 stem "
             "fundamental weights")
    problem = f"labels (0, 0): {named}"
    assert run(capsys, "branch", "--weight", "1,0", *splint) == (
        2, "", f"error: splint G2:A2A2 is flagged: tilde-weight branching not applicable "
               f"({problem})\n")
    assert run(capsys, "verify", "--identity", "branching", "--max-label", "1", *splint) == (
        1, f"branching: FAIL - {problem}\n", "")
    assert run(capsys, "affine-branch", "--level", "1", "--weight", "0,0", "--grade-max", "0",
               "--no-cache", *splint) == (
        2, "", "error: splint G2:A2A2 is flagged: tilde-weight branching not applicable "
               f"({problem})\n")
    assert run(capsys, "splint", "check", *splint) == (
        1, f"G2:A2A2: check_splint FAIL\n  problem: {named}\n", "")


def _g2_stem(**changes):
    stem = _g2_entry()["stem"]
    return _g2_entry(stem=dict(stem, **changes))


def _g2_stem_first_entry(entry):
    return _g2_stem(map=[entry] + _g2_entry()["stem"]["map"][1:])


STEM_ENTRY = "stem map entry must be [2 simple coefficients, 3 coordinates], not "


@pytest.mark.parametrize("doc, problem", [
    (_g2_entry(correspondence=None), "correspondence must be a list of stem indices, not null"),
    (_g2_entry(correspondence="01"), 'correspondence must be a list of stem indices, not "01"'),
    ([_g2_entry()], "the top level of a splint file must be a JSON object"),
    (_g2_stem(map=None), "stem map must be a list of [coefficients, image] entries, not null"),
    (_g2_stem_first_entry([1, 2]), STEM_ENTRY + "[1, 2]"),
    (_g2_stem(source=5), "stem source must be an algebra name, not 5"),
    (_g2_entry(ambient=None), "ambient must be an algebra name, not null"),
    # coefficient lists longer or shorter than the source rank (A2: 2)
    (_g2_stem_first_entry([[1, 0, 0], [1, -1, 0]]), STEM_ENTRY + "[[1, 0, 0], [1, -1, 0]]"),
    (_g2_stem_first_entry([[1], [1, -1, 0]]), STEM_ENTRY + "[[1], [1, -1, 0]]"),
    (_g2_stem_first_entry([[2, 0], [1, -1, 0]]), "stem map: [2, 0] is not a root of A2"),
])
@pytest.mark.parametrize("command", [
    ["splint", "check"],
    ["branch", "--weight", "1,0"],
    ["affine-branch", "--level", "1", "--weight", "0,0", "--grade-max", "0", "--no-cache"],
])
def test_malformed_splint_file_is_refused(tmp_path, capsys, doc, problem, command):
    # a usage error (exit 2) with the problem named, not a TypeError traceback
    path = tmp_path / "malformed.json"
    path.write_text(json.dumps(doc))
    assert run(capsys, *command, "--splint-file", str(path)) == (
        2, "", f"configuration error: cannot load splint file {path}: {problem}\n")


def test_stem_map_missing_a_positive_root_names_it(tmp_path, capsys):
    entry = _g2_entry()
    path = tmp_path / "short-stem.json"
    path.write_text(json.dumps(dict(entry, stem=dict(entry["stem"],
                                                     map=entry["stem"]["map"][1:]))))
    assert run(capsys, "splint", "check", "--splint-file", str(path)) == (
        2, "", f"configuration error: cannot load splint file {path}: embedding map misses "
               "source positive roots [(1, -1, 0)]\n")


def test_json_output_round_trips(capsys):
    code, out, _ = run(capsys, "branch", "--algebra", "G2", "--splint", "A2A2",
                       "--weight", "1,0", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["record"] == "branch" and doc["total_dimension"] == 7
    assert len(doc["rows"]) == 3


def test_cache_round_trip_byte_identical(tmp_path, capsys):
    args = ["strings", "--algebra", "A1", "--level", "2", "--weight", "0",
            "--grade-max", "4", "--format", "json",
            "--cache-dir", str(tmp_path)]
    code1, out1, _ = run(capsys, *args)
    files = list(tmp_path.rglob("*.json"))
    assert code1 == 0 and files, "cache file should be written"
    code2, out2, _ = run(capsys, *args)
    assert code2 == 0 and out1 == out2
    # --no-cache must not read or write
    before = {f: f.stat().st_mtime for f in files}
    code3, out3, _ = run(capsys, *args + ["--no-cache"])
    assert code3 == 0 and out3 == out1
    assert {f: f.stat().st_mtime for f in files} == before


# modules no command needs on start-up: the records are declared without
# dataclasses (and so inspect), only the cache hashes or writes temporary
# files, and the catalog is read as a plain file
START_UP_FREE = ("dataclasses", "inspect", "hashlib", "tempfile", "importlib.resources")


SUBMODULES = tuple(f"splintbranch.{m}"
                   for m in ("rootsystem", "characters", "splints", "affine", "qseries", "cli"))

# (a command, the submodules it must not load): each imports only the modules it runs
COMMAND_FOOTPRINTS = [
    (["roots", "--algebra", "G2"], ("characters", "splints", "affine", "qseries")),
    (["splint", "list", "--algebra", "G2"], ("affine", "qseries")),
    (["splint", "check", "--splint", "B2:A1A1"], ("affine", "qseries")),
    (["fan", "--splint", "B2:A1A1"], ("affine", "qseries")),
    (["branch", "--splint", "B2:A1A1", "--weight", "1,0"], ("affine", "qseries")),
    (["verify", "--splint", "B2:A1A1", "--grade-max", "1"], ("affine",)),
    (["strings", "--algebra", "A1", "--level", "1", "--weight", "0", "--grade-max", "1",
      "--no-cache"], ("qseries",)),
    (["qdim", "--algebra", "A1", "--level", "1", "--weight", "0", "--grade-max", "1",
      "--no-cache"], ("qseries",)),
    (["affine-branch", "--splint", "B2:A1A1", "--level", "1", "--weight", "0,1",
      "--grade-max", "1", "--no-cache"], ("qseries",)),
]


def loaded_after(code, modules):
    """The names of `modules` in sys.modules after `code` runs in a fresh
    interpreter under -S (no site hooks, which on some hosts load tempfile or
    importlib.resources), as the printed list."""
    probe = (f"{code}\nimport sys\n"
             f"print([m for m in {tuple(modules)!r} if m in sys.modules], file=sys.stderr)")
    src = str(Path(__file__).resolve().parents[1] / "src")
    done = subprocess.run([sys.executable, "-S", "-c", probe], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, check=True)
    return done.stderr.splitlines()[-1]


def test_cli_import_loads_no_start_up_free_module():
    got = loaded_after("import splintbranch.cli", START_UP_FREE)
    assert got == "[]", f"import splintbranch.cli loaded {got}"
    got = loaded_after("import splintbranch", SUBMODULES)
    assert got == "[]", f"import splintbranch loaded {got}"
    for argv, unused in COMMAND_FOOTPRINTS:
        run_it = f"import splintbranch.cli\nassert splintbranch.cli.main({argv!r}) == 0"
        got = loaded_after(run_it, [f"splintbranch.{m}" for m in unused])
        assert got == "[]", f"{argv[0]} loaded {got}"
    # the probe sees a module a command does load
    verify = next(argv for argv, _ in COMMAND_FOOTPRINTS if argv[0] == "verify")
    run_it = f"import splintbranch.cli\nsplintbranch.cli.main({verify!r})"
    assert loaded_after(run_it, ["splintbranch.qseries"]) == "['splintbranch.qseries']"


def test_no_module_imports_typing():
    # typing costs several ms of a command's import; the package's record
    # types are collections.namedtuple subclasses.  Scanned on the source, so
    # no Python that imports typing on its own start-up can hide an import
    package = Path(__file__).resolve().parents[1] / "src" / "splintbranch"
    modules = sorted(package.glob("*.py"))
    assert len(modules) == 7
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            assert not any(n.split(".")[0] == "typing" for n in names), (path.name, names)


@pytest.mark.parametrize("record, fields", [
    ("rootsystem.LabelData", ("cartan", "positive", "form", "form_den", "fw", "fw_den")),
    ("characters._Denominator", ("grades", "codes", "reaches")),
    ("splints.Fan", ("splint_name", "coefficients")),
    ("affine.AffineWeight", ("finite", "level")),
    ("affine.MultiplicityMatrix", ("basis", "mat")),
])
def test_record_types_are_slotted_named_tuples(record, fields):
    module, name = record.split(".")
    cls = getattr(importlib.import_module(f"splintbranch.{module}"), name)
    args = [(Fraction(1, 2), k) for k in range(len(fields))]
    x = cls(*args)
    assert cls._fields == fields and cls.__doc__ and cls.__slots__ == ()
    assert not hasattr(x, "__dict__") and x == tuple(args)
    assert x._asdict() == dict(zip(fields, args))
    assert repr(x) == f"{name}(" + ", ".join(f"{f}={a!r}" for f, a in zip(fields, args)) + ")"
    y = pickle.loads(pickle.dumps(x))
    assert type(y) is cls and y == x and hash(y) == hash(x)


@pytest.mark.parametrize("command", list(cli.COMMANDS))
@pytest.mark.parametrize("tail, exit_code", [(["--help"], 0), (["--bogus"], 2)])
def test_one_subparser_reads_as_the_full_parser(capsys, command, tail, exit_code):
    # help and usage errors of a command, byte for byte, with and without the
    # other seven subparsers
    seen = []
    for parser in (cli.make_parser(), cli.make_parser(command)):
        with pytest.raises(SystemExit) as stop:
            parser.parse_args([command, *tail])
        out = capsys.readouterr()
        seen.append((stop.value.code, out.out, out.err))
    assert seen[0] == seen[1]
    assert seen[0][0] == exit_code


def test_main_builds_the_named_subparser_only(capsys):
    with mock.patch.object(cli, "make_parser", wraps=cli.make_parser) as built:
        assert main(["roots", "--algebra", "A1"]) == 0
    built.assert_called_once_with("roots")
    # the parser of roots knows no other command
    with pytest.raises(SystemExit):
        cli.make_parser("roots").parse_args(["fan", "--splint", "B2:A1A1"])
    assert "invalid choice: 'fan'" in capsys.readouterr().err


@pytest.mark.parametrize("argv, exit_code", [(["--help"], 0), ([], 2), (["bogus"], 2)])
def test_top_level_lists_all_eight_commands(capsys, argv, exit_code):
    with pytest.raises(SystemExit) as stop:
        main(argv)
    out = capsys.readouterr()
    assert stop.value.code == exit_code
    text = out.out if exit_code == 0 else out.err
    assert "{" + ",".join(cli.COMMANDS) + "}" in text
    assert len(cli.COMMANDS) == 8
    if exit_code == 0:
        assert all(f"    {name}" in text for name in cli.COMMANDS)


def test_missing_required_flags(capsys):
    code, _, err = run(capsys, "strings", "--algebra", "A1", "--weight", "0")
    assert code == 2 and "--level" in err
    code, _, err = run(capsys, "branch", "--algebra", "G2", "--weight", "0,0")
    assert code == 2 and "--splint" in err


def test_cache_dir_from_environment(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("SPLINTBRANCH_CACHE_DIR", str(tmp_path))
    code, _, _ = run(capsys, "qdim", "--algebra", "A1", "--level", "1",
                     "--weight", "0", "--grade-max", "2")
    assert code == 0
    assert list(tmp_path.rglob("*.json"))


QDIM_A1 = ["qdim", "--algebra", "A1", "--level", "1", "--weight", "0", "--grade-max", "2"]


@pytest.mark.parametrize("source", ["flag", "environment"])
def test_cache_dir_that_is_a_file_is_a_configuration_error(tmp_path, capsys, monkeypatch,
                                                            source):
    # reading through a regular file is a miss; creating the entry fails
    blocker = tmp_path / "file"
    blocker.write_text("")
    args = list(QDIM_A1)
    if source == "flag":
        args += ["--cache-dir", str(blocker)]
    else:
        monkeypatch.setenv("SPLINTBRANCH_CACHE_DIR", str(blocker))
    code, out, err = run(capsys, *args)
    assert (code, out) == (2, "")
    assert err.startswith(f"configuration error: cannot write cache entry {blocker}/")
    assert err.endswith(".json: Not a directory\n") and err.count("\n") == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["file"]


def test_cache_entry_that_is_a_directory_is_never_served(tmp_path, capsys):
    # reading a directory is a miss; replacing it is a configuration error
    args = QDIM_A1 + ["--cache-dir", str(tmp_path)]
    assert run(capsys, *args)[0] == 0
    (path,) = tmp_path.rglob("*.json")
    path.unlink()
    path.mkdir()
    code, out, err = run(capsys, *args)
    assert (code, out) == (2, "")
    assert err == f"configuration error: cannot write cache entry {path}: Is a directory\n"
    assert [p.name for p in path.parent.iterdir()] == [path.name]


# the cached series of the A1 level-1 vacuum module at N = 3, [Dynkin labels
# of nu, b] per grade: [[[0], 1]], [[[2], 1]], [[[2], 1], [[0], 1]] and
# [[[2], 2], [[0], 1]]


def _drop_grade0_highest_weight(doc):
    doc["series"][0] = [t for t in doc["series"][0] if t[0] != [0]]


def _other_cutoff(doc):
    doc["request"]["cutoff"] -= 1


CACHE_DAMAGE = {
    "truncated": lambda text: text[:len(text) // 2],
    "empty-layers": lambda doc: doc.update(series=[]),
    "malformed-layer": lambda doc: doc["series"].__setitem__(1, [[1, 2]]),
    "wrong-schema": lambda doc: doc.update(schema="splintbranch-affine-character-v2"),
    "other-cutoff": _other_cutoff,
    "layer-count": lambda doc: doc["series"].pop(),
    "grade0-without-highest-weight": _drop_grade0_highest_weight,
}


def _signed(damage):
    # re-sign the damaged entry, so that it passes the digest check and
    # reaches the checks behind it
    def fn(doc):
        damage(doc)
        doc["digest"] = cli._payload_digest(doc)
    return fn


def _set_grade1_term(i, value):
    # the term [[2], 1] of grade 1: its labels (i = 0) or its b (i = 1)
    return lambda doc: doc["series"][1][0].__setitem__(i, value)


CACHE_DAMAGE.update({f"signed-{name}": _signed(CACHE_DAMAGE[name]) for name in
                     ("other-cutoff", "layer-count", "grade0-without-highest-weight")})
CACHE_DAMAGE.update({f"signed-{name}": _signed(damage) for name, damage in {
    "wrong-weight-length": _set_grade1_term(0, [2, 0]),
    "empty-labels": _set_grade1_term(0, []),
    "string-coefficient": _set_grade1_term(1, "1"),
    "float-coefficient": _set_grade1_term(1, 1.0),
    # a label that is no int, as a fraction string with a zero denominator
    "zero-denominator": _set_grade1_term(0, ["1/0"]),
    "negative-label": _set_grade1_term(0, [-2]),
    "repeated-constituent": lambda doc: doc["series"][2].append([[2], 1]),
    # entries of the right shape that only the gates of graded_character
    # refuse, as they refuse a fold that computes them
    "negative-coefficient": _set_grade1_term(1, -1),
    "zero-coefficient": _set_grade1_term(1, 0),
    # |nu + rho|^2 = 25/2 > |rho|^2 + 2 K = 13/2
    "constituent-outside-its-ball": _set_grade1_term(0, [4]),
    "doubled-highest-weight": lambda doc: doc["series"][0][0].__setitem__(1, 2),
}.items()})


@pytest.mark.parametrize("damage", sorted(CACHE_DAMAGE))
def test_bad_cache_entry_is_recomputed(tmp_path, capsys, damage):
    args = ["qdim", "--algebra", "A1", "--level", "1", "--weight", "0",
            "--grade-max", "3"]
    code, fresh, _ = run(capsys, *args, "--no-cache")
    assert code == 0 and "[1, 3, 4, 7]" in fresh
    run(capsys, *args, "--cache-dir", str(tmp_path))
    (path,) = tmp_path.rglob("*.json")
    good = path.read_text()
    fn = CACHE_DAMAGE[damage]
    if damage == "truncated":
        path.write_text(fn(good))
    else:
        doc = json.loads(good)
        fn(doc)
        path.write_text(json.dumps(doc, sort_keys=True))
    code, out, err = run(capsys, *args, "--cache-dir", str(tmp_path))
    assert (code, out, err) == (0, fresh, "")
    assert path.read_text() == good


def test_internal_errors_exit_3(capsys, monkeypatch):
    from splintbranch import affine, qseries

    def broken(*args):
        raise AssertionError("invariant\nbroken")

    monkeypatch.setattr(affine, "affine_character", broken)
    code, out, err = run(capsys, "qdim", "--algebra", "A1", "--level", "1",
                         "--weight", "0", "--no-cache")
    assert code == 3 and out == ""
    assert err == "internal error: AssertionError: invariant broken\n"

    def inexact(*args):
        raise ArithmeticError("nonzero remainder in group-ring division")

    monkeypatch.setattr(qseries, "verify_denominator_splint", inexact)
    code, _, err = run(capsys, "verify", "--identity", "denominator",
                       "--splint", "B2:A1A1", "--grade-max", "1")
    assert code == 3
    assert err == ("internal error: ArithmeticError: nonzero remainder in "
                   "group-ring division\n")


def _add_5_at_grade1_root(doc):
    # the adjoint module (labels [2]) at grade 1 of the A1 level-1 vacuum: 1 -> 6
    for term in doc["series"][1]:
        if term[0] == [2]:
            term[1] += 5


def _set_grade1_fixed_weight_to_6(doc):
    # the trivial module (labels [0]) at grade 1: 0 -> 6, still a plausible series
    doc["series"][1].append([[0], 6])


CACHE_EDITS = {"grade1-root-plus-5": _add_5_at_grade1_root,
               "grade1-fixed-weight-6": _set_grade1_fixed_weight_to_6}


@pytest.mark.parametrize("command", ["strings", "qdim"])
@pytest.mark.parametrize("edit", sorted(CACHE_EDITS))
def test_hand_edited_cache_entry_is_recomputed(tmp_path, capsys, command, edit):
    args = [command, "--algebra", "A1", "--level", "1", "--weight", "0",
            "--grade-max", "3"]
    code, fresh, _ = run(capsys, *args, "--no-cache")
    assert code == 0
    if command == "qdim":
        assert "[1, 3, 4, 7]" in fresh
    run(capsys, *args, "--cache-dir", str(tmp_path))
    (path,) = tmp_path.rglob("*.json")
    good = path.read_text()
    doc = json.loads(good)
    CACHE_EDITS[edit](doc)
    assert doc != json.loads(good)
    path.write_text(json.dumps(doc, sort_keys=True))
    code, out, err = run(capsys, *args, "--cache-dir", str(tmp_path))
    assert (code, out, err) == (0, fresh, "")
    assert path.read_text() == good


# a hit rebuilds its character from the cached series with the builder of a
# computed one, so neither run of a command decomposes a layer
HIT_COMMANDS = {
    f"{argv[0]}-{argv[2]}": argv for argv in (
        ["strings", "--algebra", "G2", "--level", "1", "--weight", "1,0", "--grade-max", "3"],
        ["qdim", "--algebra", "G2", "--level", "1", "--weight", "1,0", "--grade-max", "3"],
        ["affine-branch", "--algebra", "G2", "--splint", "A2A2", "--level", "1",
         "--weight", "1,0", "--grade-max", "3"],
        ["strings", "--algebra", "F4", "--level", "1", "--weight", "0,0,0,0", "--grade-max", "2"],
        ["qdim", "--algebra", "F4", "--level", "1", "--weight", "0,0,0,0", "--grade-max", "2"],
    )}


@pytest.mark.parametrize("command", sorted(HIT_COMMANDS))
def test_cold_and_warm_runs_decompose_nothing(tmp_path, capsys, monkeypatch, command):
    def refused(what):
        def fn(*args, **kwargs):
            raise AssertionError(f"{what} called")
        return fn

    argv = HIT_COMMANDS[command]
    code, fresh, _ = run(capsys, *argv, "--no-cache")
    assert code == 0
    monkeypatch.setattr(af, "decompose_character", refused("decompose_character"))
    assert run(capsys, *argv, "--cache-dir", str(tmp_path)) == (0, fresh, "")
    assert len(list(tmp_path.rglob("*.json"))) == 1
    # the warm run is a hit: it computes no character either
    monkeypatch.setattr(af, "affine_character", refused("affine_character"))
    assert run(capsys, *argv, "--cache-dir", str(tmp_path)) == (0, fresh, "")


A1 = build_root_system("A1")


@st.composite
def cached_module(draw):
    """(algebra name, highest weight, cutoff): the draws of
    test_branch_reuse.affine_module, or a level-1-2 module of A1 to N = 3."""
    if draw(st.booleans()):
        return draw(affine_module())
    level = draw(st.integers(1, 2))
    mu = A1.weight_from_labels((draw(st.integers(0, level)),))
    return "A1", af.AffineWeight(mu, level), draw(st.integers(0, 3))


@settings(max_examples=30, deadline=None)
@given(cached_module())
def test_cache_miss_and_hit_equal_affine_character(case):
    name, aw, cutoff = case
    rs = ALGEBRAS.get(name, A1)
    want = af.affine_character(rs, aw, cutoff)
    with tempfile.TemporaryDirectory() as cache:
        miss = cli.cached_affine_character(rs, aw, cutoff, cache)
        with mock.patch.object(af, "affine_character",
                               side_effect=AssertionError("a hit computes no character")):
            hit = cli.cached_affine_character(rs, aw, cutoff, cache)
    for gc in (miss, hit):
        assert gc.cutoff == cutoff
        assert [list(layer.items()) for layer in gc.layers] == \
            [list(layer.items()) for layer in want.layers]
        assert gc.rs.factors == rs.factors and gc.rows == want.rows
        assert list(gc.series.entries.items()) == list(want.series.entries.items())
