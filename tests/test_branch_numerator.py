"""The branching to g read off the Weyl-Kac grade numerators.

`affine_character` keeps on each character it builds, keyed by its algebra
alone, the series read off its dividends R ch_n (R the finite Weyl
denominator): the coefficient at each term with labels >= 0; a shorter
cutoff is served as a slice of it.  Its oracle is the peel
(`decompose_character`) of each decoded layer, run by `graded_branch_to_g`
on a copy of the character whose series slot is empty.  Hypothesis draws the rank <= 3
modules of the catalog ambients, a fixed sweep covers ranks 4 and 5, which
the benchmark never draws, and a tampered dividend must fail the |W|-count
gate as an internal error.
"""

import itertools

import pytest
from hypothesis import given, settings

from splintbranch import affine as af
from splintbranch.characters import decompose_character, rho_pairing
from splintbranch.cli import main
from splintbranch.rootsystem import build_root_system, zero_vec
from test_branch_reuse import ALGEBRAS, affine_module


def peeled(rs, aw, cutoff, gc):
    """The series of gc decomposed layer by layer, on a copy of gc whose
    series slot is empty and stays empty."""
    bare = af.GradedCharacter(gc.cutoff, gc.layers)
    assert bare._branch == (None, None)
    bs = af.graded_branch_to_g(rs, aw, cutoff, bare)
    assert bare._branch == (None, None)
    return bs


def assert_read_equals_peel(rs, aw, cutoff):
    gc = af.affine_character(rs, aw, cutoff)
    key, read = gc._branch
    assert key == rs.factors
    assert af.graded_branch_to_g(rs, aw, cutoff, gc) is read
    want = {(nu, n): b for n in range(cutoff + 1)
            for nu, b in decompose_character(rs, gc.layers[n]).items()}
    assert list(read.entries.items()) == list(want.items())
    assert list(read.entries.items()) == list(peeled(rs, aw, cutoff, gc).entries.items())


@settings(max_examples=30, deadline=None)
@given(affine_module())
def test_read_series_equals_the_peel_in_dict_order(case):
    name, aw, cutoff = case
    assert_read_equals_peel(ALGEBRAS[name], aw, cutoff)


def level_one_weights(rs):
    """The finite parts of every level-1 highest weight of rs."""
    theta_v = rs.coroot(rs.highest_roots[0])
    comarks = [int(rs.inner(w, theta_v)) for w in rs.fundamental_weights]
    return [rs.weight_from_labels(labels)
            for labels in itertools.product((0, 1), repeat=rs.rank)
            if sum(c * m for c, m in zip(comarks, labels)) <= 1]


SWEEP = [(name, mu) for name in ("B4", "C4", "D4", "F4")
         for mu in level_one_weights(build_root_system(name))]
SWEEP.append(("D5", zero_vec(build_root_system("D5").dim)))


@pytest.mark.parametrize("name, mu", SWEEP)
def test_read_series_equals_the_peel_at_rank_4_and_5(name, mu):
    assert_read_equals_peel(build_root_system(name), af.AffineWeight(mu, 1), 2)


def test_sweep_covers_every_level_one_module():
    assert [name for name, _ in SWEEP] == ["B4"] * 3 + ["C4"] * 5 + ["D4"] * 4 + ["F4"] * 2 \
        + ["D5"]


def tamper(monkeypatch, rs, grade, how):
    """Make affine_character see a dividend of the given grade whose highest
    term, which has labels >= 0, is dropped or negated."""
    pair, seen, real = rho_pairing(rs), [], af.code_products

    def tampered(*args):
        (rhs,) = real(*args)
        if len(seen) == grade:
            top = min(rhs, key=lambda c: (sum(p * x for p, x in zip(pair, c)), c))
            if how == "drop":
                del rhs[top]
            else:
                rhs[top] = -rhs[top]
        seen.append(rhs)
        return [rhs]

    monkeypatch.setattr(af, "code_products", tampered)


@pytest.mark.parametrize("how", ["drop", "negate"])
@pytest.mark.parametrize("grade", [0, 1, 2])
def test_tampered_dividend_fails_the_gate(monkeypatch, grade, how):
    a2 = build_root_system("A2")
    tamper(monkeypatch, a2, grade, how)
    with pytest.raises(AssertionError, match=f"^grade {grade} numerator is not a sum of "
                                             "Weyl numerators$"):
        af.affine_character(a2, af.AffineWeight(zero_vec(a2.dim), 1), 2)


def test_tampered_dividend_exits_3(monkeypatch, capsys):
    tamper(monkeypatch, build_root_system("A2"), 1, "drop")
    code = main(["qdim", "--algebra", "A2", "--level", "1", "--weight", "0,0",
                 "--grade-max", "2", "--no-cache"])
    out = capsys.readouterr()
    assert (code, out.out) == (3, "")
    assert out.err == ("internal error: AssertionError: grade 1 numerator is not a sum of "
                       "Weyl numerators\n")
