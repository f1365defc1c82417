"""Negative controls for the refusals of outside input: each names what it
refuses, with the CLI's exit code 2 and one stderr line."""

import json
import re
from fractions import Fraction

import pytest

from splintbranch import affine as af
from splintbranch import qseries as qs
from splintbranch.cli import main
from splintbranch.rootsystem import build_root_system, zero_vec
from splintbranch.splints import (_catalog_entries, find_splint, load_splint_file,
                                  probe_tilde_branching, splint_from_dict)

BRANCH_G2 = ["branch", "--algebra", "G2", "--splint", "A2A2"]
A1_LEVEL_1 = ["--algebra", "A1", "--level", "1"]


@pytest.mark.parametrize("argv, message", [
    (["roots", "--algebra", "B1"], "B1: rank must be >= 2"),
    (["roots", "--algebra", "C1"], "C1: rank must be >= 2"),
    (["roots", "--algebra", "D1"], "D1: rank must be >= 2"),
    (["roots", "--algebra", "A0"], "A0: rank must be >= 1"),
    (["roots", "--algebra", "E5"], "E5: rank must be 6, 7 or 8"),
    (["roots", "--algebra", "F3"], "F3: rank must be 4"),
    (["roots", "--algebra", "G3"], "G3: rank must be 2"),
    (["roots", "--algebra", "X3"], "unknown family 'X' (expected one of A,B,C,D,E,F,G)"),
    (["roots", "--algebra", "G"], "cannot parse algebra name 'G' (expected e.g. G2, A1xA1)"),
    (["roots"], "--algebra is required"),
    (BRANCH_G2 + ["--weight", "1,x"], "--weight expects comma-separated integers, got '1,x'"),
    (BRANCH_G2 + ["--weight=-1,0"], "--weight labels must be nonnegative, got [-1, 0]"),
    (BRANCH_G2, "--weight is required"),
    (["strings", *A1_LEVEL_1], "--weight is required"),
    (["qdim", *A1_LEVEL_1], "--weight is required"),
    (["affine-branch", "--splint", "G2:A2A2", "--level", "1"], "--weight is required"),
    (["fan", "--splint-file", "no-such-splint.json"],
     "cannot load splint file no-such-splint.json: [Errno 2] No such file or directory: "
     "'no-such-splint.json'"),
    (["strings", "--algebra", "A1", "--level", "0", "--weight", "1"],
     "(mu, theta^v) = 1 exceeds level 0"),
    # a refused level is reported once, not again as a highest weight
    (["qdim", "--algebra", "A1", "--level", "-1", "--weight", "0", "--grade-max", "1"],
     "--level must be >= 0"),
    # a refused weight does not hide the bound checks
    (["qdim", "--algebra", "A2", "--level", "1", "--weight", "1,2,3", "--grade-max", "-1"],
     "--weight needs 2 Dynkin labels, got 3; --grade-max must be >= 0"),
    # every missing or refused flag is named, in the order algebra or splint,
    # weight, level, bounds
    (["qdim", "--algebra", "A2"], "--weight is required; --level is required"),
    (["strings", "--algebra", "A2", "--weight", "1,2,3"],
     "--weight needs 2 Dynkin labels, got 3; --level is required"),
    (["affine-branch", "--splint", "G2:A2A2", "--grade-max", "-1"],
     "--weight is required; --level is required; --grade-max must be >= 0"),
    (["branch", "--algebra", "G2", "--splint", "nope", "--weight", "1,x"],
     "unknown splint 'G2:nope'; catalog has: G2:A2A2, B2:A1A1, B2:A1A2, A2:A1A1A1, "
     "A3:A2A1A1A1; --weight expects comma-separated integers, got '1,x'"),
])
def test_cli_refuses_outside_input(tmp_path, monkeypatch, capsys, argv, message):
    monkeypatch.chdir(tmp_path)
    code = main(argv + ["--no-cache"])
    out = capsys.readouterr()
    assert (code, out.out, out.err) == (2, "", f"configuration error: {message}\n")


def test_library_refuses_outside_input(tmp_path):
    A1 = build_root_system("A1")
    zero = zero_vec(A1.dim)
    for aw, match in [
            (af.AffineWeight(A1.weight_from_labels([-1]), 1),
             "weight with labels (Fraction(-1, 1),) is not dominant integral"),
            (af.AffineWeight(zero, -1), "level must be a nonnegative integer"),
            (af.AffineWeight(A1.weight_from_labels([2]), 1), "(mu, theta^v) = 2 exceeds level 1")]:
        with pytest.raises(ValueError, match=f"^{re.escape(match)}$"):
            af.check_affine_dominant(A1, aw)
    for character in (af.affine_character, af.affine_freudenthal):
        with pytest.raises(ValueError, match="^cutoff must be >= 0$"):
            character(A1, af.AffineWeight(zero, 1), -1)
    # a level that is not an int, even one of integral value, is refused by
    # the affine characters and by the theta function
    for level in (1.5, Fraction(1, 2), Fraction(2), True):
        for character in (af.affine_character, af.affine_freudenthal):
            with pytest.raises(ValueError, match="^level must be a nonnegative integer$"):
                character(A1, af.AffineWeight(zero, level), 2)
        with pytest.raises(ValueError, match="^level must be >= 1$"):
            qs.theta(A1, zero, level, 2)
    # a stem whose first root lands on a subalgebra image: refused from the
    # catalog route, loaded unverified from a file
    (entry,) = [e for e in _catalog_entries() if e["name"] == "G2:A2A2"]
    stem_map = [[entry["stem"]["map"][0][0], entry["subalgebra"]["map"][0][1]],
                *entry["stem"]["map"][1:]]
    entry = dict(entry, stem=dict(entry["stem"], map=stem_map))
    with pytest.raises(ValueError, match=r"^splint G2:A2A2 fails verification: .*; "
                                         r"images intersect: \[\(-2, 1, 1\), \(2, -1, -1\)\]"):
        splint_from_dict(entry)
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(entry))
    assert load_splint_file(path).name == "G2:A2A2"


@pytest.mark.parametrize("name", [e["name"] for e in _catalog_entries()])
def test_library_refuses_a_negative_bound(name):
    # a negative bound is refused, not passed over an empty label cube or an
    # empty series; the CLI refuses it before the library sees it
    s = find_splint(name)
    for probe in (lambda: probe_tilde_branching(s, -1), lambda: s.branching_status(-1)):
        with pytest.raises(ValueError, match="^max_label must be >= 0$"):
            probe()
    verifiers = (qs.verify_denominator_splint, qs.verify_theta_products, qs.verify_theta_sums)
    for verify in verifiers:
        with pytest.raises(ValueError, match="^cutoff must be >= 0$"):
            verify(s, -1)
        assert verify(s, 0).passed
    assert qs.verify_theta_sums(s, 0).detail == "both sides vanish through q^0"
    assert probe_tilde_branching(s, 0).passed


def test_q_dimension_refuses_a_short_branching_series():
    # a series that stops below the cutoff is refused as input, naming both
    # cutoffs, not reported as a disagreement with the row totals
    A2 = build_root_system("A2")
    aw = af.AffineWeight(zero_vec(A2.dim), 1)
    gc = af.affine_character(A2, aw, 3)
    bs = af.graded_branch_to_g(A2, aw, 1, gc)
    with pytest.raises(ValueError, match="^branching series has cutoff 1, below the "
                                         "requested cutoff 3$"):
        af.q_dimension(A2, aw, 3, bs, gc)
    assert af.q_dimension(A2, aw, 1, bs, gc) == af.q_dimension(A2, aw, 1)
