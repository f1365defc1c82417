import pytest
from fractions import Fraction

from splintbranch.rootsystem import build_root_system, vneg, zero_vec
from splintbranch.characters import FormalCharacter
from splintbranch import affine as af
from splintbranch import qseries as qs
from splintbranch.splints import Embedding, Splint, find_splint, splint_from_dict

A1 = build_root_system("A1")
A2 = build_root_system("A2")
G2 = build_root_system("G2")


def pentagonal_series(cutoff):
    """prod (1-q^n) by Euler's theorem: sum (-1)^k q^{k(3k-1)/2}, k in Z."""
    terms = {0: 1}
    k = 1
    while k * (3 * k - 1) // 2 <= cutoff:
        for g in (k * (3 * k - 1) // 2, k * (3 * k + 1) // 2):
            if g <= cutoff:
                terms[g] = -1 if k % 2 else 1
        k += 1
    return {Fraction(g): c for g, c in terms.items()}


def scalar_to_lattice(series, dim):
    return qs.QSeries({e: FormalCharacter.monomial(zero_vec(dim), c)
                       for e, c in series.terms.items()}, series.cutoff)


def test_qseries_ring_laws():
    a = qs.QSeries({Fraction(0): 1, Fraction(1): -2, Fraction(3, 2): 5}, 4)
    b = qs.QSeries({Fraction(1, 2): 3, Fraction(2): 1}, 4)
    c = qs.euler_product(4)
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert (a * b).truncate(2) == (a.truncate(2) * b.truncate(2)).truncate(2)
    assert (a + b) * c == a * c + b * c


def test_qseries_lattice_coefficients():
    t = qs.theta(A1, zero_vec(A1.dim), 1, 4)
    u = qs.theta(A1, A1.weight_from_labels([1]), 1, 4)
    assert (t * u) == (u * t)
    assert t.denom in (1, 2, 4)


def test_qseries_exponent_denominator_checks():
    s = qs.eta(2)
    assert s.denom == 24


def test_eta_examples():
    assert qs.eta(Fraction(1, 24)).items() == [(Fraction(1, 24), 1)]
    # the cutoff caps the full exponent, so q^{2+1/24} needs N = 2 + 1/24
    e2 = qs.eta(Fraction(2) + Fraction(1, 24))
    offsets = {e - Fraction(1, 24): c for e, c in e2.items()}
    assert offsets == {Fraction(0): 1, Fraction(1): -1, Fraction(2): -1}
    e13 = qs.eta(Fraction(13) + Fraction(1, 24))
    offsets = {e - Fraction(1, 24): c for e, c in e13.items()}
    assert offsets == {0: 1, 1: -1, 2: -1, 5: 1, 7: 1, 12: -1}


def test_euler_product_pentagonal_to_50():
    assert dict(qs.euler_product(50).items()) == pentagonal_series(50)


def test_theta_examples():
    t = qs.theta(A1, zero_vec(A1.dim), 1, 0)
    assert t.items() == [(Fraction(0), FormalCharacter.monomial(zero_vec(A1.dim)))]
    t = qs.theta(A1, zero_vec(A1.dim), 1, 1)
    alpha = A1.simple_roots[0]
    assert dict(t.coefficient(1).items()) == {alpha: 1, vneg(alpha): 1}
    t = qs.theta(A2, zero_vec(A2.dim), 1, 1)
    assert len(t.coefficient(1)) == 6
    assert t.coefficient(1) == FormalCharacter({a: 1 for a in A2.roots})


def test_theta_level_two_shifted():
    lam = A1.weight_from_labels([1])
    t = qs.theta(A1, lam, 2, 3)
    # xi = (m + 1/4) alpha, exponent 2(xi,xi)/2 = 2m^2 + m + 1/8: all in 1/8 + Z
    assert t.items()
    assert all((e - Fraction(1, 8)).denominator == 1 for e, _ in t.items())


@pytest.mark.parametrize("rs,root_index", [(A1, 0), (G2, 0), (G2, 5)])
def test_jacobi_triple_product(rs, root_index):
    root = rs.positive_roots[root_index]
    N = 8
    lhs = qs.jacobi_theta_sum(root, N)
    rhs = scalar_to_lattice(qs.euler_product(N), rs.dim) * \
        qs._denominator_series([root], 0, N)
    assert qs.compare_qseries(lhs, rhs) is None


@pytest.mark.parametrize("name,cutoff", [("B2", 4), ("G2", 4)])
def test_root_string_products_regroup_into_one_denominator(name, cutoff):
    # the right side of the theta-product identity: one expansion with an
    # imaginary factor per positive root equals the series product of
    # euler_product and each root's string (its affine denominator without
    # imaginary factors) over all positive roots
    rs = build_root_system(name)
    pos = rs.positive_roots
    one = qs._denominator_series(pos, len(pos), cutoff)
    product = scalar_to_lattice(qs.euler_product(cutoff) ** len(pos), rs.dim)
    for a in pos:
        product = product * qs._denominator_series([a], 0, cutoff)
    assert qs.compare_qseries(one, product) is None


def test_denominator_product_small():
    d = qs.denominator_product(A1, 0)
    alpha = A1.simple_roots[0]
    assert dict(d.coefficient(0).items()) == {zero_vec(A1.dim): 1,
                                                  vneg(alpha): -1}
    d1 = qs.denominator_product(A1, 1)
    # (1-e^-a)(1-q e^-a)(1-q e^a)(1-q) truncated: grade-1 coefficient
    assert dict(d1.coefficient(1).items()) == {
        alpha: -1, tuple(-2 * x for x in alpha): 1}


@pytest.mark.parametrize("name,cutoff", [("A1", 6), ("A2", 6), ("G2", 4), ("B2", 4),
                                         ("A3", 3), ("B3", 2), ("C3", 2), ("D4", 1)])
def test_weyl_kac_denominator_identity(name, cutoff):
    # the level-0 vacuum divides the alternating affine orbit of rho at level
    # h^v (the Weyl-Kac numerator at mu = 0) by the affine denominator product,
    # grade by grade and exactly: its character is 1 iff the two agree at
    # every grade up to the cutoff
    rs = build_root_system(name)
    gc = af.affine_character(rs, af.AffineWeight(zero_vec(rs.dim), 0), cutoff)
    one = FormalCharacter.monomial(zero_vec(rs.dim))
    assert gc.layers == [one] + [FormalCharacter()] * cutoff


@pytest.mark.parametrize("name", ["G2:A2A2", "B2:A1A1", "B2:A1A2", "A2:A1A1A1"])
def test_denominator_splint_identity(name):
    rep = qs.verify_denominator_splint(find_splint(name), 6)
    assert rep.passed, rep.detail


def corrupted_g2_splint():
    s = find_splint("G2:A2A2")
    pos = dict(s.phi2.pos_map)
    pos[max(pos)] = sorted(s.phi1.pos_map.values())[0]
    return Splint("G2:A2A2-corrupt", s.ambient, s.phi1,
                  Embedding(s.phi2.source, s.ambient, pos), s.correspondence)


def test_denominator_splint_negative_control():
    rep = qs.verify_denominator_splint(corrupted_g2_splint(), 4)
    assert not rep.passed
    assert rep.first_mismatch == 0


@pytest.mark.parametrize("name", ["G2:A2A2", "B2:A1A1", "B2:A1A2", "A2:A1A1A1"])
def test_theta_product_identity(name):
    rep = qs.verify_theta_products(find_splint(name), 4)
    assert rep.passed, rep.detail
    assert rep.normalization == 0


def test_theta_product_negative_and_guard():
    rep = qs.verify_theta_products(corrupted_g2_splint(), 3)
    assert not rep.passed
    # a trivial "splint" with an empty stem is rejected up front
    trivial = Splint("A1:trivial", A1,
                     Embedding(A1, A1, {A1.positive_roots[0]: A1.positive_roots[0]}),
                     Embedding(A1, A1, {A1.positive_roots[0]: A1.positive_roots[0]}),
                     (0,))
    trivial.phi2.pos_map.clear()
    with pytest.raises(ValueError, match="empty stem"):
        qs.verify_theta_products(trivial, 2)


@pytest.mark.parametrize("name", ["G2:A2A2", "B2:A1A1", "B2:A1A2", "A2:A1A1A1"])
def test_theta_sum_identity(name):
    rep = qs.verify_theta_sums(find_splint(name), 4)
    assert rep.passed, rep.detail
    assert rep.normalization == 0


def test_theta_sum_negative_controls():
    s = find_splint("G2:A2A2")
    rep = qs.verify_theta_sums(s, 3, drop_term=True)
    assert not rep.passed
    # corrupting a simple-root image changes the linear push and must fail too
    pos = dict(s.phi2.pos_map)
    pos[s.phi2.source.simple_roots[0]] = sorted(s.phi1.pos_map.values())[0]
    bad = Splint("bad", s.ambient, s.phi1,
                 Embedding(s.phi2.source, s.ambient, pos), s.correspondence)
    assert not qs.verify_theta_sums(bad, 3).passed


# a splint file whose images span less than A3: rank a + rank s - rank g = -1
A3_RANK_DEFICIENT = {
    "name": "A3:deficient", "ambient": "A3",
    "subalgebra": {"source": "A1", "map": [[[1], [1, -1, 0, 0]]]},
    "stem": {"source": "A1", "map": [[[1], [0, 0, 1, -1]]]},
    "correspondence": [0],
}


def test_rank_deficient_splint_gets_fail_reports():
    # the eta power moves to the left side instead of raising on a negative power
    s = splint_from_dict(A3_RANK_DEFICIENT, verify=False)
    rep = qs.verify_denominator_splint(s, 3)
    assert (rep.passed, rep.detail, rep.first_mismatch) == \
        (False, "coefficients at q^0 differ at weight (-3, -1, 1, 3): 0 against 1", 0)
    rep = qs.verify_theta_sums(s, 3)
    assert (rep.passed, rep.detail, rep.first_mismatch) == \
        (False, "coefficients at q^7/24 differ at weight (-3/2, -1/2, 1/2, 3/2): "
         "0 against 1", Fraction(7, 24))
    # extra > 0 keeps its detail
    assert qs.verify_denominator_splint(find_splint("G2:A2A2"), 2).detail == \
        "grades 0..2 agree, eta-power 2"
    assert qs.verify_denominator_splint(find_splint("B2:A1A2"), 2).detail == \
        "grades 0..2 agree, eta-power 1"


@pytest.mark.parametrize("name", ["G2:A2A2", "B2:A1A1", "B2:A1A2", "A2:A1A1A1",
                                  "A3:A2A1A1A1"])
def test_theta_sum_identity_at_grade_zero(name):
    # both sides start at a positive power of q, so through q^0 both vanish
    rep = qs.verify_theta_sums(find_splint(name), 0)
    assert rep.passed, rep.detail
    assert rep.detail == "both sides vanish through q^0"
    assert rep.normalization is None and rep.first_mismatch is None


def test_equality_compares_held_terms_and_compare_stops_at_the_cutoff():
    # 1 - q - q^2 against 1 - q - q^2 + q^5: equal up to q^2, the common
    # cutoff, but == compares every held term
    short, long = qs.euler_product(2), qs.euler_product(5)
    assert short != long and long != short
    assert qs.compare_qseries(short, long) is None
    assert qs.compare_qseries(long, short) is None
    assert qs.euler_product(5) == long


def test_compare_names_the_series_that_holds_a_one_sided_term():
    more, fewer = qs.QSeries({0: 1, 1: 2}, 2), qs.QSeries({0: 1}, 2)
    assert qs.compare_qseries(more, fewer) == \
        (1, "term q^1 only in the first series: 2 against 0")
    assert qs.compare_qseries(fewer, more) == \
        (1, "term q^1 only in the second series: 0 against 2")
    # a lattice term names its lexicographically lowest weight
    one = FormalCharacter.monomial(zero_vec(A2.dim))
    lattice = qs.QSeries({0: one, Fraction(1, 2): FormalCharacter(
        [((1, -1, 0), 3), ((0, 1, -1), 4)])}, 2)
    assert qs.compare_qseries(qs.QSeries({0: one}, 2), lattice) == \
        (Fraction(1, 2), "term q^1/2 only in the second series at weight (0, 1, -1): 0 against 4")


def test_normalized_compare_one_empty_side_fails():
    empty = qs.QSeries({}, 2)
    one = qs.QSeries.one(2)
    for lhs, rhs in ((empty, one), (one, empty)):
        rep = qs._normalized_compare("x", lhs, rhs)
        assert not rep.passed and rep.detail == "one side is empty"


@pytest.mark.parametrize("name", ["G2:A2A2", "B2:A1A1", "B2:A1A2", "A2:A1A1A1", "A3:A2A1A1A1"])
def test_theta_product_right_side_regrouped(name):
    # the verifier's right side, the denominator product times phi^(|pos| -
    # rank), against the expansion it replaced: the denominator with one
    # imaginary factor per positive root
    rs = find_splint(name).ambient
    for n in range(9):
        rhs = qs.denominator_product(rs, n) * qs._phi_series(len(rs.positive_roots) - rs.rank, n)
        old = qs._denominator_series(rs.positive_roots, len(rs.positive_roots), n)
        assert rhs == old
        assert (rhs.cutoff, rhs.denom, rhs.lattice_den) == (old.cutoff, old.denom, old.lattice_den)
        assert list(rhs.items()) == list(old.items())
