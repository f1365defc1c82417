"""The branching to g folded out of the Weyl-Kac numerator on Dynkin labels.

`affine_character` folds each grade of the numerator into the dominant
chamber, F_n = N_n - sum_j F_{n-j} * D'_j (D' the affine denominator without
its finite factor R), keeps F as the series on each character it builds,
keyed by its algebra alone, and builds each layer from the constituents'
dominant tables; a shorter cutoff is served as a slice of the series.
Its oracles:

* `divided_character`, the product-and-division route the fold replaced:
  the full Weyl orbit of every numerator point, the products with the
  affine denominator (the test-local `packed_products`), the dividends R ch_n read at their
  terms with labels >= 0 (exactly |W| terms per such term), and the
  division by the positive-root factors (`_divide_by_roots`); layers and
  series must equal it in dict order;
* the peel (`decompose_character`) of each decoded layer, run by
  `graded_branch_to_g` on a copy of the character's rows with no series,
  also in dict order;
* `affine_freudenthal`, layer by layer.

Hypothesis draws the rank <= 3 modules of the catalog ambients, a fixed
sweep covers ranks 4 and 5, which the benchmark never draws.  A numerator
point dropped or negated at grade 0, 1 or 2 must fail the fold's gate as
an internal error, as must a constituent outside its ball and a doubled
highest weight.  Every one of the 40 single-term drops and negations of
D'_1 and D'_2 on the A2 vacuum must fail the D' checksum (each grade of D'
sums to that coefficient of phi(q)^dim g), which runs before the fold; a
dropped D' term must also fail or differ from the oracle.
"""

import itertools
import re
from fractions import Fraction
from operator import mul

import pytest
from hypothesis import given, settings

from splintbranch import affine as af
from splintbranch.characters import (_affine_denominator, _divide_by_roots, _numerator_codes,
                                     _weight, common_denominator, decode,
                                     decompose_character, encode, rho_pairing)
from splintbranch.cli import main
from splintbranch.rootsystem import build_root_system, vadd, vneg, vsub, zero_vec
from test_branch_reuse import ALGEBRAS, affine_module
from test_packed_codes import packed_products


def divided_character(rs, aw, cutoff):
    """(layers, series) of L^{aw} by the Weyl-Kac quotient on codes: grade n
    of the dividend is R ch_n = N_n - sum_j (R ch_{n-j}) D_j (D the rooted
    affine denominator, so R ch_{n-j} D_j = ch_{n-j} R D_j), b_nu(n) is its
    coefficient at the one term of each orbit with labels >= 0, and ch_n is
    the dividend divided by R one root factor at a time."""
    K = aw.level + rs.dual_coxeter[0]
    lam = vadd(aw.finite, rs.rho)
    den = common_denominator(rs.fundamental_weights + (lam,))
    fw = [encode(w, den) for w in rs.fundamental_weights]
    fixed = vsub(lam, rs.weight_from_labels(rs.dynkin_labels(lam)))
    num = _numerator_codes(rs, lam, K, cutoff, fw, encode(vsub(fixed, rs.rho), den))
    denom = _affine_denominator([encode(a, den) for a in rs.positive_roots], rs.rank,
                                cutoff).codes
    factors, pair = [encode(vneg(a), den) for a in reversed(rs.positive_roots)], rho_pairing(rs)
    rows = rs.label_rows()[0]
    chars, entries = [], {}
    for n in range(cutoff + 1):
        pairs = [(chars[n - j], denom[j]) for j in range(1, n + 1)]
        (rhs,) = packed_products([(num[n], pairs)], -1)
        # codes negate coordinates, so labels >= 0 are row sums <= 0
        top = sorted((sum(map(mul, pair, c)), c, b) for c, b in rhs.items()
                     if all(sum(map(mul, row, c)) <= 0 for row in rows))
        assert len(rhs) == rs.weyl_order * len(top)
        assert all(b > 0 for _, _, b in top)
        entries.update(((_weight(c, den), n), b) for _, c, b in top)
        chars.append(_divide_by_roots(rhs, factors, pair))
    return [decode(layer, den) for layer in chars], af.BranchingSeries(cutoff, entries)


def ordered(layers):
    return [list(layer.items()) for layer in layers]


def peeled(rs, aw, cutoff, gc):
    """The series of gc decomposed layer by layer, on a copy of gc's rows
    that holds no series and keeps none."""
    bare = af.GradedCharacter(gc.rs, gc.offset, gc.rows)
    assert bare.series is None
    bs = af.graded_branch_to_g(rs, aw, cutoff, bare)
    assert bare.series is None
    return bs


def assert_read_equals_peel(rs, aw, cutoff):
    gc = af.affine_character(rs, aw, cutoff)
    read = gc.series
    assert gc.rs.factors == rs.factors
    assert af.graded_branch_to_g(rs, aw, cutoff, gc) is read
    layers, series = divided_character(rs, aw, cutoff)
    assert ordered(gc.layers) == ordered(layers)
    assert list(read.entries.items()) == list(series.entries.items())
    want = {(nu, n): b for n in range(cutoff + 1)
            for nu, b in decompose_character(rs, gc.layers[n]).items()}
    assert list(read.entries.items()) == list(want.items())
    assert list(read.entries.items()) == list(peeled(rs, aw, cutoff, gc).entries.items())
    assert gc.layers == af.affine_freudenthal(rs, aw, cutoff).layers


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


@pytest.mark.parametrize("name, labels", [("A1", (1,)), ("A2", (1, 0)), ("A3", (0, 1, 0))])
def test_fold_keeps_the_w_fixed_offset(name, labels):
    # mu + (1/3, ..., 1/3) has the labels of mu: the fold runs on labels, and
    # the offset must come back on every weight of the layers and the series
    rs = build_root_system(name)
    mu = vadd(rs.weight_from_labels(labels), (Fraction(1, 3),) * rs.dim)
    assert_read_equals_peel(rs, af.AffineWeight(mu, 1), 3)


def test_sweep_covers_every_level_one_module():
    assert [name for name, _ in SWEEP] == ["B4"] * 3 + ["C4"] * 5 + ["D4"] * 4 + ["F4"] * 2 \
        + ["D5"]


A2 = build_root_system("A2")
# one numerator point at each of grades 0, 1 and 2, of signs +1, -1, +1
A2_FUNDAMENTAL = af.AffineWeight(A2.weight_from_labels((1, 0)), 1)
A2_VACUUM = af.AffineWeight(zero_vec(A2.dim), 1)
NEGATIVE = "grade {} has a negative branching coefficient {} at labels {}"
OUTSIDE = "grade 2 has a constituent outside its ball at labels (3, 2)"
# the gate each tampered term of A2_FUNDAMENTAL fails, by (grade, how)
NUMERATOR_GATES = {
    (0, "drop"): "grade 0 does not hold the highest weight exactly once",
    (0, "negate"): NEGATIVE.format(0, -1, (1, 0)),
    (1, "drop"): OUTSIDE,
    (1, "negate"): OUTSIDE,
    (2, "drop"): NEGATIVE.format(2, -1, (4, 0)),
    (2, "negate"): NEGATIVE.format(2, -2, (4, 0)),
}
# D' of A2_VACUUM to grade 2, and phi(q)^dim A2 = phi(q)^8 to q^2: every
# e^alpha of D' set to 1
A2_DENOMINATOR = _affine_denominator([a for a, _ in A2.label_data.positive], A2.rank, 2,
                                     rooted=False).codes
PHI_8 = [1, -8, 20]
CHECKSUM = "grade {} of D' sums to {}, not to the q^{} coefficient {} of phi(q)^dim g"
# the check each tampered D' term of A2_VACUUM fails: the constant -rank of
# D'_1, and D'_2 at minus the second simple root
DENOMINATOR_GATES = {
    (1, (0, 0), "drop"): CHECKSUM.format(1, -6, 1, -8),
    (1, (0, 0), "negate"): CHECKSUM.format(1, -4, 1, -8),
    (2, (1, -2), "drop"): CHECKSUM.format(2, 18, 2, 20),
    (2, (1, -2), "negate"): CHECKSUM.format(2, 16, 2, 20),
}


def tamper_numerator(monkeypatch, grade, how):
    """Make affine_character see the numerator point of the given grade
    dropped or with its sign negated."""
    real = af._numerator_points

    def tampered(*args):
        for g, x, sign in real(*args):
            if g != grade:
                yield g, x, sign
            elif how == "negate":
                yield g, x, -sign

    monkeypatch.setattr(af, "_numerator_points", tampered)


def tamper_denominator(monkeypatch, grade, labels, how):
    """Make affine_character see D' with its grade term at labels dropped or
    negated; the cached layers are copied, never changed."""
    real = af._affine_denominator

    def tampered(*args, **kwargs):
        entry = real(*args, **kwargs)
        layers = [dict(layer) for layer in entry.codes]
        if how == "drop":
            del layers[grade][labels]
        else:
            layers[grade][labels] = -layers[grade][labels]
        return entry._replace(codes=tuple(layers))

    monkeypatch.setattr(af, "_affine_denominator", tampered)


@pytest.mark.parametrize("how", ["drop", "negate"])
@pytest.mark.parametrize("grade", [0, 1, 2])
def test_tampered_numerator_point_fails_the_gate(monkeypatch, grade, how):
    tamper_numerator(monkeypatch, grade, how)
    with pytest.raises(AssertionError, match=f"^{re.escape(NUMERATOR_GATES[grade, how])}$"):
        af.affine_character(A2, A2_FUNDAMENTAL, 2)


@pytest.mark.parametrize("how", ["drop", "negate"])
@pytest.mark.parametrize("grade, labels", [(1, (0, 0)), (2, (1, -2))])
def test_tampered_denominator_term_fails_the_gate(monkeypatch, grade, labels, how):
    tamper_denominator(monkeypatch, grade, labels, how)
    with pytest.raises(AssertionError,
                       match=f"^{re.escape(DENOMINATOR_GATES[grade, labels, how])}$"):
        af.affine_character(A2, A2_VACUUM, 2)


D_TERMS = [(grade, labels) for grade in (1, 2) for labels in A2_DENOMINATOR[grade]]


def test_the_checksum_grid_holds_40_variants():
    assert sum(A2_DENOMINATOR[1].values()) == PHI_8[1]
    assert sum(A2_DENOMINATOR[2].values()) == PHI_8[2]
    assert 2 * len(D_TERMS) == 40
    assert af._phi_power(8, 2) == tuple(PHI_8)


@pytest.mark.parametrize("how", ["drop", "negate"])
@pytest.mark.parametrize("grade, labels", D_TERMS)
def test_every_tampered_denominator_term_fails_the_checksum(monkeypatch, grade, labels, how):
    # 21 of these 40 pass the fold's gate with wrong layers and series;
    # only the checksum, which runs first, sees them
    d = A2_DENOMINATOR[grade][labels]
    total = PHI_8[grade] - (d if how == "drop" else 2 * d)
    tamper_denominator(monkeypatch, grade, labels, how)
    with pytest.raises(AssertionError,
                       match=f"^{re.escape(CHECKSUM.format(grade, total, grade, PHI_8[grade]))}$"):
        af.affine_character(A2, A2_VACUUM, 2)


def phi_power(m, cutoff):
    """prod_{n=1..cutoff} (1 - q^n) multiplied out m times, to q^cutoff."""
    out = [1] + [0] * cutoff
    for _ in range(m):
        for n in range(1, cutoff + 1):
            out = [x - (out[j - n] if j >= n else 0) for j, x in enumerate(out)]
    return out


@pytest.mark.parametrize("m", [0, 1, 3, 8, 14, 78, 248])
def test_phi_power_equals_the_multiplied_product(m):
    assert af._phi_power(m, 6) == tuple(phi_power(m, 6))


def test_dropped_denominator_term_fails_the_gate_or_the_oracle(monkeypatch):
    # dropping the constant 2 of D'_2 leaves every b >= 0 and inside its
    # ball, so the gate need not see it; the layers and series must then
    # differ from the product-and-division oracle
    want = divided_character(A2, A2_VACUUM, 2)
    tamper_denominator(monkeypatch, 2, (0, 0), "drop")
    try:
        gc = af.affine_character(A2, A2_VACUUM, 2)
    except AssertionError:
        return
    assert (ordered(gc.layers), list(gc.series.entries.items())) != \
        (ordered(want[0]), list(want[1].entries.items()))


def test_constituent_outside_its_ball_fails_the_gate(monkeypatch):
    # a grade-1 numerator point at nu + rho = (5, 5): b = 1 > 0, but
    # |nu + rho|^2 = 50 > |rho|^2 + 2 K = 10
    real = af._numerator_points

    def tampered(*args):
        yield from real(*args)
        yield 1, (5, 5), 1

    monkeypatch.setattr(af, "_numerator_points", tampered)
    with pytest.raises(AssertionError, match=r"^grade 1 has a constituent outside its ball "
                                             r"at labels \(4, 4\)$"):
        af.affine_character(A2, A2_VACUUM, 2)


def test_doubled_highest_weight_fails_the_grade_0_gate(monkeypatch):
    # b_mu(0) = 2 is positive and inside the ball: only the grade-0 gate sees it
    real = af._numerator_points

    def tampered(*args):
        yield from real(*args)
        yield 0, (1, 1), 1

    monkeypatch.setattr(af, "_numerator_points", tampered)
    with pytest.raises(AssertionError, match="^grade 0 does not hold the highest weight "
                                             "exactly once$"):
        af.affine_character(A2, A2_VACUUM, 2)


def test_tampered_denominator_exits_3(monkeypatch, capsys):
    tamper_denominator(monkeypatch, 2, (0, 0), "drop")
    code = main(["qdim", "--algebra", "A2", "--level", "1", "--weight", "0,0",
                 "--grade-max", "2", "--no-cache"])
    out = capsys.readouterr()
    assert (code, out.out) == (3, "")
    assert out.err == f"internal error: AssertionError: {CHECKSUM.format(2, 18, 2, 20)}\n"


def test_tampered_fold_exits_3(monkeypatch, capsys):
    tamper_numerator(monkeypatch, 2, "negate")
    code = main(["qdim", "--algebra", "A2", "--level", "1", "--weight", "1,0",
                 "--grade-max", "2", "--no-cache"])
    out = capsys.readouterr()
    assert (code, out.out) == (3, "")
    assert out.err == ("internal error: AssertionError: grade 2 has a negative branching "
                       "coefficient -2 at labels (4, 0)\n")
