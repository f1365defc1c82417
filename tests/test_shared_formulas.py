"""The integer formulas of the weight engine that have one home each.

`LabelData.pair` is the integer label form, checked against `inner` on
`from_labels` weights.  `characters._weight_codes` is the code basis of a
labelled weight, checked against `encode`, with the denominator facts that
let every finite character route read its denominator from it.  The highest
root is the last positive root, and `characters._ball` is the ball of
Kac, Prop. 11.4.  `qseries._phi_series` and `qseries._eta_power` read
phi(q)^m off `characters._phi_power`, checked against test-local copies of
the product chains they replaced.  `affine.invert_unitriangular` reads its
inverse from `rootsystem.invert_matrix`, which is checked against a
test-local copy of the `Fraction` Gauss-Jordan elimination it replaced.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from splintbranch import affine as af
from splintbranch import qseries as qs
from splintbranch.characters import _ball, _weight_codes, common_denominator, encode
from splintbranch.rootsystem import build_root_system, invert_matrix

ALGEBRAS = ["A1", "A2", "A3", "A4", "A5", "A6", "A7", "A8", "B2", "B3", "B4", "C2", "C3",
            "C4", "D4", "D5", "E6", "E7", "E8", "F4", "G2", "A1xA2", "A1xB2", "A2xG2"]
SIMPLE = [name for name in ALGEBRAS if "x" not in name]


def weight(rs, labels, offset=None):
    ((v, _),) = rs.from_labels([(labels, None)], 1, offset)
    return v


@st.composite
def algebra_and_labels(draw, count):
    rs = build_root_system(draw(st.sampled_from(ALGEBRAS)))
    labels = st.tuples(*[st.integers(-4, 4)] * rs.rank)
    return rs, [draw(labels) for _ in range(count)]


@settings(max_examples=60, deadline=None)
@given(algebra_and_labels(2))
def test_pair_is_the_inner_product_times_form_den(case):
    rs, (x, y) = case
    ld = rs.label_data
    got = ld.pair(x, y)
    assert type(got) is int
    assert got == rs.inner(weight(rs, x), weight(rs, y)) * ld.form_den


@pytest.mark.parametrize("name", ALGEBRAS)
def test_code_basis_denominators(name):
    # the denominator of the fundamental weights is that of the fundamental
    # weights and the positive roots, so weyl_identity, singular_element and
    # character_via_weyl all read it from the one code basis
    rs = build_root_system(name)
    fw, off, den = _weight_codes(rs, None)
    assert den == common_denominator(rs.fundamental_weights)
    assert den == common_denominator(rs.fundamental_weights + rs.positive_roots)
    assert den == rs._label_codes(1, None)[2]
    assert fw == [encode(w, den) for w in rs.fundamental_weights]
    assert off == (0,) * rs.dim


def fixed_offset(rs, parts):
    """The W-fixed vector of A_n factors: one value repeated over each
    factor's coordinates."""
    out = []
    for ((_, _), (c0, c1)), x in zip(rs.factor_slices, parts):
        out += [x] * (c1 - c0)
    return tuple(out)


@st.composite
def offset_case(draw):
    rs = build_root_system(draw(st.sampled_from(["A1", "A2", "A3", "A5", "A8", "A1xA2"])))
    fractions = st.builds(Fraction, st.integers(-12, 12), st.integers(1, 12))
    parts = [draw(fractions) for _ in rs.factors]
    offset = fixed_offset(rs, parts) if any(parts) else None
    labels = draw(st.tuples(*[st.integers(-5, 5)] * rs.rank))
    return rs, offset, labels


@settings(max_examples=80, deadline=None)
@given(offset_case())
def test_code_basis_codes_labelled_weights_like_encode(case):
    rs, offset, labels = case
    if offset is not None:
        assert all(rs.inner(offset, a) == 0 for a in rs.simple_roots)
    fw, off, den = _weight_codes(rs, offset)
    v = weight(rs, labels, offset)
    given_offset = () if offset is None else (offset,)
    assert den == common_denominator(rs.fundamental_weights + given_offset)
    assert den == common_denominator(rs.fundamental_weights + (v,))
    code = tuple(sum(y * w[i] for y, w in zip(labels, fw)) + off[i] for i in range(rs.dim))
    assert code == encode(v, den)


@pytest.mark.parametrize("name", SIMPLE)
def test_theta_is_the_last_positive_root(name):
    rs = build_root_system(name)
    ld = rs.label_data
    (theta,) = rs.highest_roots
    assert ld.positive[-1][0] == tuple(int(m) for m in rs.dynkin_labels(theta))
    assert max(ld.positive, key=lambda p: sum(p[1]))[0] == ld.positive[-1][0]


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(SIMPLE), st.integers(0, 3), st.data())
def test_ball_is_kac_prop_11_4(name, level, data):
    rs = build_root_system(name)
    top = data.draw(st.tuples(*[st.integers(0, 3)] * rs.rank))
    bound, step = _ball(rs, top, level)
    x = weight(rs, tuple(m + 1 for m in top))
    assert bound == rs.inner(x, x) * rs.label_data.form_den
    assert step == 2 * (level + rs.dual_coxeter[0]) * rs.label_data.form_den


# ---------------------------------------------------------------------------
# phi(q)^m and eta^m against the product chains they replaced


def chain_euler_product(cutoff):
    out = qs.QSeries.one(cutoff)
    for n in range(1, int(cutoff) + 1):
        out = out * qs.QSeries.from_codes([(0, 1), (n, -1)], cutoff, None)
    return out


def chain_eta(cutoff):
    cutoff = Fraction(cutoff)
    if cutoff < Fraction(1, 24):
        return qs.QSeries({}, cutoff)
    return chain_euler_product(cutoff - Fraction(1, 24)).shift(Fraction(1, 24))


def held(s):
    return s.terms, s.denom, s.cutoff, s.lattice_den


cutoffs = st.one_of(st.integers(-2, 12),
                    st.builds(Fraction, st.integers(-30, 300), st.sampled_from([2, 3, 8, 24, 48])))


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 3), cutoffs)
def test_phi_and_eta_powers_equal_the_product_chains(m, cutoff):
    assert held(qs._phi_series(m, cutoff)) == held(chain_euler_product(cutoff) ** m)
    assert held(qs._eta_power(m, cutoff)) == held(chain_eta(cutoff) ** m)
    assert held(qs.euler_product(cutoff)) == held(chain_euler_product(cutoff))
    assert held(qs.eta(cutoff)) == held(chain_eta(cutoff))


@pytest.mark.parametrize("m", [0, 1, 2, 3])
@pytest.mark.parametrize("cutoff", [0, Fraction(1, 48), Fraction(1, 24), Fraction(1, 12),
                                    Fraction(2, 24) - Fraction(1, 48), Fraction(1, 8)])
def test_eta_powers_below_their_lowest_term(m, cutoff):
    # below q^{m/24} eta^m is empty but keeps the cutoff, which the theta-sum
    # report names ("both sides vanish through q^0")
    got = qs._eta_power(m, cutoff)
    assert held(got) == held(chain_eta(cutoff) ** m)
    assert bool(got) == (cutoff >= Fraction(m, 24))
    assert got.cutoff == cutoff


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 7), st.data())
def test_invert_unitriangular_is_the_exact_int_inverse(n, data):
    entry = st.integers(-9, 9)
    mat = [[int(i == j) if j <= i else data.draw(entry) for j in range(n)] for i in range(n)]
    inv = af.invert_unitriangular(mat)
    assert all(type(x) is int for row in inv for x in row)
    assert [[sum(mat[i][k] * inv[k][j] for k in range(n)) for j in range(n)]
            for i in range(n)] == [[int(i == j) for j in range(n)] for i in range(n)]


def fraction_gauss_jordan(a):
    n = len(a)
    m = [[Fraction(x) for x in row] + [Fraction(i == j) for j in range(n)]
         for i, row in enumerate(a)]
    for col in range(n):
        piv = next((r for r in range(col, n) if m[r][col] != 0), None)
        if piv is None:
            raise ValueError("matrix is singular")
        m[col], m[piv] = m[piv], m[col]
        d = m[col][col]
        m[col] = [x / d for x in m[col]]
        for r in range(n):
            if r != col and m[r][col] != 0:
                f = m[r][col]
                m[r] = [x - f * y for x, y in zip(m[r], m[col])]
    return [row[n:] for row in m]


entries = st.one_of(st.sampled_from([0, 0, 0, 1, -1, 2]), st.integers(-5, 5),
                    st.builds(Fraction, st.integers(-6, 6), st.integers(1, 6)))


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 6), st.data())
def test_invert_matrix_equals_the_fraction_gauss_jordan(n, data):
    # zeros on the diagonal need row swaps; a singular matrix is refused by both
    a = [[data.draw(entries) for _ in range(n)] for _ in range(n)]
    try:
        want = fraction_gauss_jordan(a)
    except ValueError:
        with pytest.raises(ValueError, match="^matrix is singular$"):
            invert_matrix(a)
        return
    got = invert_matrix(a)
    assert got == want
    assert all(type(x) is Fraction for row in got for x in row)
