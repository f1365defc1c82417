"""The integer lattice walk and the per-algebra integer tables.

`lattice_points_in_ellipsoid` walks on ints over one fixed denominator from
a fraction-free factorization of its Gram matrix (`rootsystem._factor`).
It is held against a verbatim copy of the `Fraction` Fincke-Pohst walk it
replaced (`fraction_walk`, with its LDL `_ldl` and its exact interval
`_int_interval`): points, grades and their order must be equal, on root,
coroot and `coroot_gram` bases of every algebra below at levels 1-4 and
`Fraction` bounds.  The factors are held against `invert_matrix` and the
`Fraction` LDL; the int `coroot_gram` and the root form rows against
`inner` products; the memoized `label_dimension` against the Weyl product
formula in `Fraction`s.  The box-search test of the walk is in
test_theta_numerator.py.
"""

import itertools
import math
from fractions import Fraction
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from splintbranch.characters import label_dimension
from splintbranch.rootsystem import (_factor, build_root_system, invert_matrix,
                                     lattice_points_in_ellipsoid, vadd)

ALGEBRAS = {name: build_root_system(name) for name in (
    "A1", "A2", "A3", "A4", "B2", "B3", "B4", "C3", "D4", "G2", "F4", "E6", "E7", "E8",
    "A1xA2")}
BASES = ["root", "coroot", "coroot_gram"]


# ---------------------------------------------------------------------------
# the Fraction walk the integer walk replaced, unchanged


def _ldl(a):
    """A = L D L^T for a positive definite Fraction matrix; L unit lower."""
    n = len(a)
    L = [[Fraction(i == j) for j in range(n)] for i in range(n)]
    D = [Fraction(0)] * n
    for j in range(n):
        D[j] = a[j][j] - sum(L[j][k] * L[j][k] * D[k] for k in range(j))
        if D[j] <= 0:
            raise ValueError("form is not positive definite")
        for i in range(j + 1, n):
            L[i][j] = (a[i][j] - sum(L[i][k] * L[j][k] * D[k] for k in range(j))) / D[j]
    return L, D


def _int_interval(u: Fraction, rho2: Fraction):
    """All integers c with (c + u)^2 <= rho2, as a (possibly empty) range.

    With t = isqrt(p q b^2), rho2 = p/q and u = a/b, both bounds are exact:
    floor((x - k) / m) = floor((floor(x) - k) / m) for integers k and m > 0."""
    if rho2 < 0:
        return range(0)
    p, q = rho2.numerator, rho2.denominator
    a, b = u.numerator, u.denominator
    t = math.isqrt(p * q * b * b)
    return range(-((t + a * q) // (q * b)), (t - a * q) // (q * b) + 1)


def fraction_walk(gram, pairing, level: int, bound):
    """Yield (c, g) for the integer vectors c with exact grade
    g = pairing.c + level c^T gram c / 2 <= bound, gram positive definite.

    The ellipsoid (c + z)^T (level gram / 2) (c + z) <= bound + pairing.z / 2,
    gram z = pairing / level, is walked by an exact Fincke-Pohst style
    recursion via LDL; the budget left at a leaf is bound - g.
    """
    n = len(gram)
    L, D = _ldl([[Fraction(level * x, 2) for x in row] for row in gram])
    u = []                      # L u = pairing / 2, then L^T center = u / D
    for j in range(n):
        u.append(Fraction(pairing[j], 2) - sum(map(mul, L[j], u)))
    center = [0] * n
    for j in reversed(range(n)):
        center[j] = u[j] / D[j] - sum(L[k][j] * center[k] for k in range(j + 1, n))
    c = [0] * n

    def rec(j, budget):
        if j < 0:
            yield tuple(c), bound - budget
            return
        s = sum(L[k][j] * (c[k] + center[k]) for k in range(j + 1, n))
        for cj in _int_interval(center[j] + s, budget / D[j]):
            c[j] = cj
            term = D[j] * (cj + center[j] + s) ** 2
            yield from rec(j - 1, budget - term)
        c[j] = 0

    yield from rec(n - 1, bound + sum(map(mul, pairing, center)) / 2)


# ---------------------------------------------------------------------------
# the integer walk against the Fraction walk


def gram_and_pairing(rs, which, labels):
    """The Gram matrix of a basis and the pairings of the weight with the
    given labels with it; coroot_gram is the int pair _numerator_points passes."""
    if which == "coroot_gram":
        return rs.coroot_gram, tuple(labels)
    basis = rs.simple_roots if which == "root" else rs.coroot_lattice_basis()
    lam = rs.weight_from_labels(labels)
    return [[rs.inner(a, b) for b in basis] for a in basis], [rs.inner(lam, a) for a in basis]


def least_grade(gram, pairing, level):
    """min over real c of pairing.c + level c^T gram c / 2: -p G^-1 p / 2 level."""
    inv = invert_matrix(gram)
    return -sum(p * sum(map(mul, row, pairing)) for p, row in zip(pairing, inv)) / (2 * level)


@pytest.mark.parametrize("which", BASES)
@pytest.mark.parametrize("name", sorted(ALGEBRAS))
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_integer_walk_equals_the_fraction_walk(name, which, data):
    rs = ALGEBRAS[name]
    labels = data.draw(st.lists(st.integers(-2, 3), min_size=rs.rank, max_size=rs.rank))
    level = data.draw(st.integers(1, 4))
    gram, pairing = gram_and_pairing(rs, which, labels)
    # a bound a little above the least grade keeps the ellipsoid small at
    # rank 8 (at most the 2,401 E8 points of norm <= 4 about a lattice
    # center); a bound below it walks no point
    reach = 4 if rs.rank <= 4 else 2
    above = data.draw(st.fractions(min_value=-Fraction(1, 4), max_value=reach,
                                   max_denominator=12))
    bound = least_grade(gram, pairing, level) + above
    if data.draw(st.booleans()):
        bound = Fraction(math.floor(bound))      # the integer cutoffs of the numerator
    got = list(lattice_points_in_ellipsoid(gram, pairing, level, bound))
    want = list(fraction_walk(gram, pairing, level, bound))
    assert got == want
    assert all(type(g) is Fraction for _, g in got)


@pytest.mark.parametrize("name", sorted(ALGEBRAS))
def test_integer_walk_at_the_numerator_cutoffs(name):
    # the Weyl-Kac numerator of rho at level h-dual + 1, grades 0..2, as
    # _numerator_points walks it
    rs = ALGEBRAS[name]
    K = max(rs.dual_coxeter) + 1
    for cutoff in range(3):
        got = list(lattice_points_in_ellipsoid(rs.coroot_gram, (1,) * rs.rank, K, cutoff))
        assert got == list(fraction_walk(rs.coroot_gram, (1,) * rs.rank, K, cutoff))
        assert ((0,) * rs.rank, 0) in got


# ---------------------------------------------------------------------------
# the factors and the per-algebra integer data


@pytest.mark.parametrize("which", ["root", "coroot_gram"])
@pytest.mark.parametrize("name", sorted(ALGEBRAS))
def test_factors_equal_the_inverse_and_the_fraction_ldl(name, which):
    rs = ALGEBRAS[name]
    gram, _ = gram_and_pairing(rs, which, (0,) * rs.rank)
    n = len(gram)
    m, minors, rows, adj, den, weight = _factor(gram)
    assert _factor(gram) is _factor([list(row) for row in gram])     # cached per values
    a = [[m * x for x in row] for row in gram]
    assert all(x.denominator == 1 for row in a for x in map(Fraction, row))
    assert m == math.lcm(*(Fraction(x).denominator for row in gram for x in row))
    inv = invert_matrix(a)
    assert [[Fraction(x, minors[n]) for x in row] for row in adj] == inv
    L, D = _ldl([[Fraction(x) for x in row] for row in a])
    assert [Fraction(minors[j + 1], minors[j]) for j in range(n)] == D
    assert [[Fraction(rows[j][i], minors[j + 1]) if i >= j else 0 for j in range(n)]
            for i in range(n)] == L
    assert all(rows[j][:j] == (0,) * j for j in range(n))
    assert [den // (minors[j] * minors[j + 1]) for j in range(n)] == list(weight)
    assert all(den % (minors[j] * minors[j + 1]) == 0 for j in range(n))


@pytest.mark.parametrize("gram", [
    [[1, 2], [2, 1]],                       # indefinite
    [[0]],                                  # singular
    [[1, 1], [1, 1]],                       # semidefinite: a zero second minor
    [[Fraction(-1, 2)]],                    # negative definite
    [[2, -1, 0], [-1, 2, -1], [0, -1, 0]],  # two positive minors, then a negative one
])
def test_a_gram_that_is_not_positive_definite_is_refused(gram):
    with pytest.raises(ValueError, match="^form is not positive definite$"):
        list(lattice_points_in_ellipsoid(gram, [0] * len(gram), 1, 2))
    with pytest.raises(ValueError, match="^form is not positive definite$"):
        list(fraction_walk(gram, [0] * len(gram), 1, 2))


@pytest.mark.parametrize("level", [0, -1])
def test_a_level_that_is_not_positive_is_refused(level):
    gram = ALGEBRAS["A2"].coroot_gram
    with pytest.raises(ValueError, match="^form is not positive definite$"):
        list(lattice_points_in_ellipsoid(gram, (1, 1), level, 2))
    with pytest.raises(ValueError, match="^form is not positive definite$"):
        list(fraction_walk(gram, (1, 1), level, 2))


@pytest.mark.parametrize("name", sorted(ALGEBRAS))
def test_integer_coroot_gram_equals_the_inner_products(name):
    rs = ALGEBRAS[name]
    basis = rs.coroot_lattice_basis()
    want = tuple(tuple(rs.inner(a, b) for b in basis) for a in basis)
    assert rs.coroot_gram == want
    assert all(type(x) is int for row in rs.coroot_gram for x in row)
    assert all(row[i] % 2 == 0 for i, row in enumerate(rs.coroot_gram))


@pytest.mark.parametrize("name", sorted(ALGEBRAS))
def test_root_form_rows_equal_the_inner_products(name):
    rs = ALGEBRAS[name]
    ld = rs.label_data
    assert [(a, c) for a, c, _, _ in rs.root_form_rows] == list(ld.positive)
    for (a, c, fa, norm), alpha in zip(rs.root_form_rows, rs.positive_roots):
        assert Fraction(norm, ld.form_den) == rs.inner(alpha, alpha)
        assert [Fraction(x, ld.form_den) for x in fa] == \
            [rs.inner(w, alpha) for w in rs.fundamental_weights]


def fraction_dimension(rs, labels):
    """prod over positive roots of (lam + rho, alpha) / (rho, alpha), in Fractions."""
    lam_rho = vadd(rs.weight_from_labels(labels), rs.rho)
    val = Fraction(1)
    for a in rs.positive_roots:
        val *= rs.inner(lam_rho, a) / rs.inner(rs.rho, a)
    return val


@pytest.mark.parametrize("name", sorted(set(ALGEBRAS) - {"E7", "E8"}))
def test_memoized_label_dimension_equals_the_formula(name):
    rs = ALGEBRAS[name]
    for labels in itertools.product(range(3), repeat=min(rs.rank, 4)):
        labels += (1,) * (rs.rank - len(labels))
        want = fraction_dimension(rs, labels)
        assert label_dimension(rs, labels) == want
        hits = label_dimension.cache_info().hits
        assert label_dimension(rs, labels) == want      # served by the memo
        assert label_dimension.cache_info().hits == hits + 1
    with pytest.raises(ValueError, match="is not dominant"):
        label_dimension(rs, (-1,) + (0,) * (rs.rank - 1))


@pytest.mark.parametrize("name, labels, dim", [
    ("E7", (0,) * 7, 1), ("E7", (1, 0, 0, 0, 0, 0, 0), 133),
    ("E8", (0,) * 8, 1), ("E8", (0, 0, 0, 0, 0, 0, 0, 1), 248),
    ("E8", (1,) * 8, 2 ** 120)])
def test_memoized_label_dimension_at_rank_7_and_8(name, labels, dim):
    rs = ALGEBRAS[name]
    assert label_dimension(rs, labels) == fraction_dimension(rs, labels) == dim
    hits = label_dimension.cache_info().hits
    assert label_dimension(rs, labels) == dim       # served by the memo
    assert label_dimension.cache_info().hits == hits + 1
