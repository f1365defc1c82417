"""Differential and edge tests for the integer Dynkin-label kernel.

The dominant-weight descent and the label-space orbits are checked against
test-local copies of the Fraction routines they replaced (the cone-box
enumerator and the orthogonal-coordinate orbit search), the coded orbit walk
against a copy of the labels-only walk it replaced followed by one dot
product per point, and the three finite character routes against each other
on random algebras.
"""

import itertools
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from splintbranch.characters import (FormalCharacter, _dominant_descent,
                                     character_via_weyl, divide_exact,
                                     dominant_multiplicities, freudenthal_character,
                                     weyl_denominator, weyl_dimension)
from splintbranch.rootsystem import (MAX_ORBIT, build_root_system, vadd, vec,
                                     vneg, vscale, vsub, zero_vec)

# ---------------------------------------------------------------------------
# reference copies of the Fraction routines


def cone_box_dominant_weights(rs, mu):
    """All dominant nu with mu - nu in the positive root cone, as (labels of
    nu, simple coefficients of mu - nu), in the order the Freudenthal loop
    needs: by depth, ties in the order the box is walked."""
    mu_rho = vadd(mu, rs.rho)
    budget = rs.inner(mu_rho, mu_rho) - rs.inner(rs.rho, rs.rho)
    costs = [rs.inner(mu_rho, a) for a in rs.simple_roots]
    out = []
    coeffs = [0] * rs.rank

    def rec(i, remaining):
        if i == rs.rank:
            nu = mu
            for c, a in zip(coeffs, rs.simple_roots):
                if c:
                    nu = vsub(nu, vscale(a, c))
            if rs.is_dominant(nu):
                out.append((tuple(int(m) for m in rs.dynkin_labels(nu)), tuple(coeffs)))
            return
        c = 0
        while c * costs[i] <= remaining:
            coeffs[i] = c
            rec(i + 1, remaining - c * costs[i])
            c += 1
        coeffs[i] = 0

    rec(0, budget)
    out.sort(key=lambda t: sum(t[1]))
    return out


def fraction_dominant_representative(rs, v):
    sign = 1
    cur = v
    while True:
        for a in rs.simple_roots:
            if rs.inner(cur, a) < 0:
                cur = rs.reflect(cur, a)
                sign = -sign
                break
        else:
            break
    regular = all(rs.inner(cur, a) != 0 for a in rs.simple_roots)
    return cur, sign, regular


def fraction_weyl_orbit(rs, v):
    dom, _, _ = fraction_dominant_representative(rs, v)
    seen = {dom: 1}
    frontier = [dom]
    while frontier:
        nxt = []
        for w in frontier:
            s = seen[w]
            for a in rs.simple_roots:
                r = rs.reflect(w, a)
                if r not in seen:
                    if len(seen) >= MAX_ORBIT:
                        raise ValueError(f"Weyl orbit exceeds cap {MAX_ORBIT}")
                    seen[r] = -s
                    nxt.append(r)
        frontier = nxt
    return sorted(seen.items())


def labels_only_orbit(rs, labels, fw, offset):
    """The label-space walk without codes, each point then coded by its own
    dot product with fw, plus offset; capped by a per-point counter."""
    cartan = rs.label_data.cartan
    dom, _ = rs.dominant_labels(labels)
    seen = {dom: 1}
    frontier = [dom]
    while frontier:
        nxt = []
        for w in frontier:
            s = -seen[w]
            for i, m in enumerate(w):
                if m <= 0:
                    continue
                r = tuple([x - m * c for x, c in zip(w, cartan[i])])
                if r not in seen:
                    if len(seen) >= MAX_ORBIT:
                        raise ValueError(f"Weyl orbit exceeds cap {MAX_ORBIT}")
                    seen[r] = s
                    nxt.append(r)
        frontier = nxt
    cols = list(zip(*fw))
    return [(tuple(sum(y * c for y, c in zip(labels_y, col)) + b
                   for col, b in zip(cols, offset)), s)
            for labels_y, s in seen.items()]


# ---------------------------------------------------------------------------
# dominant-weight descent


DESCENT_ALGEBRAS = ["A1", "A2", "A3", "A4", "B2", "B3", "C3", "D4", "G2", "A1xA2"]
MAX_LABEL = {1: 3, 2: 3, 3: 2, 4: 1}


@pytest.mark.parametrize("name", DESCENT_ALGEBRAS)
def test_descent_matches_cone_box(name):
    rs = build_root_system(name)
    for labels in itertools.product(range(MAX_LABEL[rs.rank] + 1), repeat=rs.rank):
        mu = rs.weight_from_labels(labels)
        assert _dominant_descent(rs.label_data, labels) == cone_box_dominant_weights(rs, mu), \
            (name, labels)


def test_dominant_multiplicities_keep_descent_order():
    rs = build_root_system("B3")
    mu = rs.weight_from_labels((1, 0, 2))
    expected = [rs.weight_from_labels(labels)
                for labels, _ in cone_box_dominant_weights(rs, mu)]
    assert list(dominant_multiplicities(rs, mu)) == expected


RANDOM_ALGEBRAS = ["A1", "A2", "A3", "A4", "B2", "B3", "B4", "C3", "C4", "D4",
                   "G2", "F4", "A1xA1", "A1xA2", "A1xB2"]


@st.composite
def algebra_and_weight(draw):
    name = draw(st.sampled_from(RANDOM_ALGEBRAS))
    rs = build_root_system(name)
    if rs.weyl_order >= 384:
        # B4, C4, F4: zero or one fundamental weight keeps the quotient small
        k = draw(st.integers(-1, rs.rank - 1))
        return name, tuple(int(i == k) for i in range(rs.rank))
    top = {1: 4, 2: 3, 3: 2, 4: 1}[rs.rank]
    return name, tuple(draw(st.lists(st.integers(0, top), min_size=rs.rank,
                                     max_size=rs.rank)))


@settings(max_examples=25, deadline=None)
@given(algebra_and_weight())
@example(("B4", (1, 1, 0, 1)))
@example(("F4", (1, 0, 0, 0)))
def test_freudenthal_weyl_quotient_and_dimension_agree(case):
    name, labels = case
    rs = build_root_system(name)
    mu = rs.weight_from_labels(labels)
    freud = freudenthal_character(rs, mu)
    assert freud == character_via_weyl(rs, mu)
    assert freud.total() == weyl_dimension(rs, mu)


# ---------------------------------------------------------------------------
# group-ring division


def test_divide_exact_rejects_non_unit_lead():
    rs = build_root_system("A1")
    zero = zero_vec(rs.dim)
    denom = FormalCharacter({zero: 2, vneg(rs.simple_roots[0]): -1})
    with pytest.raises(ValueError, match="not a unit"):
        divide_exact(FormalCharacter.monomial(zero), denom, rs)


def test_divide_exact_rejects_zero_denominator():
    rs = build_root_system("A1")
    with pytest.raises(ZeroDivisionError, match="zero denominator"):
        divide_exact(FormalCharacter.monomial(zero_vec(rs.dim)), FormalCharacter(), rs)


def test_divide_exact_rejects_nonzero_remainder():
    rs = build_root_system("A2")
    den = weyl_denominator(rs)
    with pytest.raises(ArithmeticError, match="nonzero remainder"):
        divide_exact(FormalCharacter.monomial(zero_vec(rs.dim)),
                     FormalCharacter({zero_vec(rs.dim): 1,
                                      vneg(rs.simple_roots[0]): -1}), rs)
    fc = freudenthal_character(rs, rs.weight_from_labels((1, 1)))
    bad = fc * den
    bad.iadd(FormalCharacter.monomial(rs.fundamental_weights[0]))
    with pytest.raises(ArithmeticError, match="nonzero remainder"):
        divide_exact(bad, den, rs)


@pytest.mark.parametrize("name", ["G2", "C3", "B3"])
def test_divide_exact_round_trip(name):
    """G2 (form scale 1/3), C3 (1/2), B3 (half-integer weight coordinates)."""
    rs = build_root_system(name)
    den = weyl_denominator(rs)
    mu = rs.weight_from_labels([1] + [0] * (rs.rank - 1))
    fc = freudenthal_character(rs, mu)
    assert divide_exact(fc * den, den, rs) == fc
    # not a character: arbitrary coefficients at non-dominant weights
    w = rs.fundamental_weights
    odd = FormalCharacter({w[-1]: 3, vneg(w[0]): -2, vadd(w[0], w[-1]): 5})
    assert divide_exact(odd * den, den, rs) == odd


# ---------------------------------------------------------------------------
# orbits and dominant representatives


def orbit_cases():
    a2 = build_root_system("A2")
    cases = [(a2, vec([1, 1, 1])), (a2, vadd(vec([2, 2, 2]), vneg(a2.rho))),
             (a2, vec([Fraction(1, 3), 0, Fraction(-1, 2)])),
             (a2, vadd(a2.fundamental_weights[0], vec([1, 1, 1])))]
    for name in ["A1", "B2", "G2", "C3", "A1xA2", "B3"]:
        rs = build_root_system(name)
        cases.append((rs, vneg(rs.rho)))
        cases.append((rs, vsub(rs.fundamental_weights[0], vscale(rs.rho, 2))))
        cases.append((rs, vscale(rs.simple_roots[-1], Fraction(-1, 3))))
        cases.append((rs, zero_vec(rs.dim)))
    g2 = build_root_system("G2")
    cases.append((g2, vec([5, -1, Fraction(2, 3)])))     # off the root plane
    return cases


@pytest.mark.parametrize("rs,v", orbit_cases())
def test_orbit_and_representative_match_fraction_search(rs, v):
    assert rs.weyl_orbit(v) == fraction_weyl_orbit(rs, v)
    assert rs.dominant_representative(v) == fraction_dominant_representative(rs, v)
    for w, _ in rs.weyl_orbit(v):
        assert rs.dominant_representative(w) == fraction_dominant_representative(rs, w)


def test_orbit_cap_is_kept():
    rs = build_root_system("A1xB6")         # regular orbit: 2 * 46080 points
    assert rs.weyl_order > MAX_ORBIT
    with pytest.raises(ValueError, match="exceeds cap") as err:
        rs.weyl_orbit(rs.rho)
    assert "92160" in str(err.value)


WALK_ALGEBRAS = ["A1", "A2", "A3", "A4", "B2", "B3", "B4", "C3", "D4", "G2", "F4",
                 "A1xA1", "A2xG2"]


@st.composite
def walk_case(draw, label=st.integers(-2, 2)):
    rs = build_root_system(draw(st.sampled_from(WALK_ALGEBRAS)))
    dim = draw(st.integers(1, 4))
    entries = st.integers(-3, 3)
    labels = tuple(draw(st.lists(label, min_size=rs.rank, max_size=rs.rank)))
    fw = [tuple(draw(st.lists(entries, min_size=dim, max_size=dim))) for _ in range(rs.rank)]
    return rs, labels, fw, tuple(draw(st.lists(entries, min_size=dim, max_size=dim)))


@settings(max_examples=60, deadline=None)
@given(walk_case())
@example((build_root_system("F4"), (1, 1, 1, 1), [(1, 0), (0, 1), (1, 1), (2, -1)], (3, -3)))
@example((build_root_system("A2xG2"), (-2, 1, 0, -1), [(0,), (0,), (1,), (-3,)], (2,)))
def test_walk_codes_match_labels_only_walk(case):
    # fw need not be injective: the walk still visits each label point once
    rs, labels, fw, offset = case
    assert rs.label_orbit(labels, fw, offset) == labels_only_orbit(rs, labels, fw, offset)


@settings(max_examples=60, deadline=None)
@given(walk_case(st.one_of(st.integers(-2, 2), st.integers(-10**6, 10**6))))
def test_walk_keys_hold_large_labels(case):
    # the walk knows a point by its labels packed into one int, over a field
    # as wide as the orbit's labels: large labels keep points apart
    rs, labels, fw, offset = case
    assert rs.label_orbit(labels, fw, offset) == labels_only_orbit(rs, labels, fw, offset)


@pytest.mark.parametrize("field", [2**8, 2**16, 2**30])
def test_walk_keys_do_not_alias_past_a_fixed_field(field):
    rs = build_root_system("B2")
    labels, unit = (field - 1, 1), [(1, 0), (0, 1)]
    want = labels_only_orbit(rs, labels, unit, (0, 0))     # codes are the labels here
    points = [code for code, _ in want]
    # packed into a fixed field, two orbit points would be one: y_0 + field y_1
    assert (-field, 1) in points and (field, -1) in points
    assert len({y0 + field * y1 for y0, y1 in points}) < len(points)
    assert rs.label_orbit(labels, unit, (0, 0)) == want


def test_e6_rho_orbit_fills_the_cap():
    rs = build_root_system("E6")
    rho = (1,) * rs.rank
    assert rs.orbit_size(rho) == MAX_ORBIT
    fw = list(rs.label_data.fw)
    orbit = rs.label_orbit(rho, fw, (0,) * rs.dim)
    assert len(orbit) == MAX_ORBIT
    assert orbit == labels_only_orbit(rs, rho, fw, (0,) * rs.dim)
