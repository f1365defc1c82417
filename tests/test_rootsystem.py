import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from splintbranch.rootsystem import (_int_interval, build_root_system, parse_algebra_name,
                                     vadd, vneg, vscale, zero_vec)


POSITIVE_COUNTS = {
    "A1": 1, "A2": 3, "B2": 4, "G2": 6, "A3": 6, "B3": 9, "C3": 9,
    "D4": 12, "F4": 24,
}

WEYL_ORDERS = {"A1": 2, "A2": 6, "B2": 8, "G2": 12, "A3": 24, "B3": 48,
               "D4": 192, "B4": 384, "D5": 1920, "F4": 1152, "E6": 51840,
               "E7": 2903040, "E8": 696729600, "A1xA1": 4}

DUAL_COXETER = {"A1": 2, "A2": 3, "B2": 3, "G2": 4, "A3": 4, "B3": 5,
                "C3": 4, "D4": 6, "F4": 9}


@pytest.mark.parametrize("name", sorted(POSITIVE_COUNTS))
def test_positive_root_counts(name):
    rs = build_root_system(name)
    assert len(rs.positive_roots) == POSITIVE_COUNTS[name]
    assert len(rs.roots) == 2 * POSITIVE_COUNTS[name]


@pytest.mark.parametrize("name", sorted(DUAL_COXETER))
def test_dual_coxeter(name):
    assert build_root_system(name).dual_coxeter[0] == DUAL_COXETER[name]


@pytest.mark.parametrize("name", sorted(WEYL_ORDERS))
def test_weyl_order_is_rho_orbit(name):
    rs = build_root_system(name)
    assert rs.weyl_order == WEYL_ORDERS[name]
    if rs.weyl_order <= 1152:
        assert len(rs.weyl_orbit(rs.rho)) == rs.weyl_order


def test_cartan_matrices():
    assert build_root_system("A2").cartan == [[2, -1], [-1, 2]]
    assert build_root_system("B2").cartan == [[2, -2], [-1, 2]]
    assert build_root_system("G2").cartan == [[2, -1], [-3, 2]]
    assert build_root_system("F4").cartan == [
        [2, -1, 0, 0], [-1, 2, -2, 0], [0, -1, 2, -1], [0, 0, -1, 2]]


@pytest.mark.parametrize("name", ["A1", "A2", "B2", "C3", "G2", "A1xA1", "A2xA1"])
def test_long_roots_normalized(name):
    rs = build_root_system(name)
    assert max(rs.inner(a, a) for a in rs.positive_roots) == 2


def test_rho_two_ways_and_integrality():
    for name in ["A2", "B2", "G2", "A3"]:
        rs = build_root_system(name)
        half_sum = zero_vec(rs.dim)
        for a in rs.positive_roots:
            half_sum = vadd(half_sum, a)
        assert vscale(half_sum, Fraction(1, 2)) == rs.rho
        assert rs.dynkin_labels(rs.rho) == (Fraction(1),) * rs.rank
        for a in rs.positive_roots:
            coeffs = rs.simple_coefficients(a)
            assert all(c.denominator == 1 and c >= 0 for c in coeffs)


def test_inner_product_examples():
    a1 = build_root_system("A1")
    alpha = a1.simple_roots[0]
    assert a1.inner(alpha, alpha) == 2
    a2 = build_root_system("A2")
    assert a2.inner(a2.rho, a2.rho) == 2
    assert a2.inner(zero_vec(a2.dim), a2.rho) == 0


def test_inner_product_dimension_mismatch():
    a1 = build_root_system("A1")
    with pytest.raises(ValueError):
        a1.inner((Fraction(1),), a1.rho)


def test_reflections_preserve_inner_product():
    rs = build_root_system("G2")
    probes = [rs.rho, rs.fundamental_weights[0], rs.positive_roots[3]]
    for a in rs.simple_roots:
        for x in probes:
            for y in probes:
                assert rs.inner(rs.reflect(x, a), rs.reflect(y, a)) == rs.inner(x, y)


def test_weyl_orbit_a1():
    a1 = build_root_system("A1")
    orbit = dict(a1.weyl_orbit(a1.rho))
    assert orbit == {a1.rho: 1, vneg(a1.rho): -1}


def test_weyl_orbit_a2_signs():
    a2 = build_root_system("A2")
    orbit = a2.weyl_orbit(a2.rho)
    assert len(orbit) == 6
    assert sum(s for _, s in orbit) == 0
    # stabilized weight: orbit of a fundamental weight has size 3
    assert len(a2.weyl_orbit(a2.fundamental_weights[0])) == 3


def test_dominant_representative():
    a1 = build_root_system("A1")
    dom, sign, regular = a1.dominant_representative(vneg(a1.rho))
    assert (dom, sign, regular) == (a1.rho, -1, True)
    _, _, regular = a1.dominant_representative(zero_vec(a1.dim))
    assert not regular

    g2 = build_root_system("G2")
    for v, _ in g2.weyl_orbit(g2.rho):
        dom, _, reg = g2.dominant_representative(v)
        assert dom == g2.rho and reg
        again, _, _ = g2.dominant_representative(dom)
        assert again == dom


def test_build_errors():
    with pytest.raises(ValueError):
        build_root_system("X9")
    with pytest.raises(ValueError):
        build_root_system([("G", 3)])
    with pytest.raises(ValueError):
        build_root_system([("A", 5), ("A", 4)])  # total rank 9
    assert parse_algebra_name("A1xA1") == [("A", 1), ("A", 1)]


def test_semisimple_factors_are_orthogonal():
    rs = build_root_system("A1xA1")
    a, b = rs.simple_roots
    assert rs.inner(a, b) == 0
    assert len(rs.positive_roots) == 2
    assert rs.weyl_order == 4


def _interval_oracle(u, rho2):
    reach = abs(u) + math.isqrt(max(math.ceil(rho2), 0)) + 2
    return [c for c in range(-math.ceil(reach), math.ceil(reach) + 1) if (c + u) ** 2 <= rho2]


fractions = st.fractions(min_value=-60, max_value=60, max_denominator=40)


@settings(max_examples=400, deadline=None)
@given(u=fractions, rho2=st.fractions(min_value=-3, max_value=900, max_denominator=40))
def test_int_interval_matches_brute_force(u, rho2):
    assert list(_int_interval(u, rho2)) == _interval_oracle(u, rho2)


@settings(max_examples=400, deadline=None)
@given(u=fractions, c=st.integers(-40, 40), nudge=st.sampled_from([0, 1, -1]),
       big=st.integers(1, 10 ** 6))
def test_int_interval_exact_square_boundaries(u, c, nudge, big):
    # rho2 = (c + u)^2 puts c on a boundary of the interval; the nudge moves
    # rho2 just above or below it
    rho2 = (c + u) ** 2 + Fraction(nudge, big)
    got = list(_int_interval(u, rho2))
    assert got == _interval_oracle(u, rho2)
    assert (c in got) == (nudge >= 0)
