"""Property tests for the integer-code affine pipeline and the dominant-weight
decomposers.

The code-level `affine_character` is checked against the independent affine
Freudenthal oracle; `decompose_character` and `SubalgebraView.decompose`
against a test-local copy of the full-orbit peeling loop they replaced
(dict order included); non-module inputs must be refused with both
multiplicities named; the integer `weyl_dimension` against the Fraction
product formula.
"""

import re
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from splintbranch import affine as af
from splintbranch.characters import (FormalCharacter, decompose_character,
                                     dominant_multiplicities, freudenthal_character,
                                     weyl_dimension)
from splintbranch.rootsystem import build_root_system, vadd, vsub
from splintbranch.splints import _catalog_entries, find_splint

# ---------------------------------------------------------------------------
# reference copies of the routines the integer ones replaced


def order_key(rs):
    return lambda v: (rs.inner(v, rs.rho), v)


def full_orbit_peel(fc, key, is_dominant_integral, character):
    """Repeatedly subtract the full character of the highest remaining weight."""
    rem = fc.copy()
    table = {}
    while rem:
        v = max(rem.terms, key=key)
        c = rem.terms[v]
        if not is_dominant_integral(v):
            raise ValueError(f"leading weight {v} is not dominant: not a module character")
        if c < 0:
            raise ValueError(f"negative leading coefficient {c} at {v}")
        table[v] = c
        rem.iadd(character(v), -c)
    return table


def reference_decompose(rs, fc):
    def dominant_integral(v):
        return all(m.denominator == 1 and m >= 0 for m in rs.dynkin_labels(v))

    return full_orbit_peel(fc, order_key(rs), dominant_integral,
                           lambda v: freudenthal_character(rs, v))


def fraction_labels(view, nu):
    amb = view.ambient
    return [2 * amb.inner(nu, img) / amb.inner(img, img) for img in view.emb.simple_images]


def reference_view_decompose(view, fc):
    sub, emb = view.sub, view.emb

    def dominant_integral(nu):
        return all(m.denominator == 1 and m >= 0 for m in fraction_labels(view, nu))

    def character(nu):
        hw = sub.weight_from_labels([int(m) for m in fraction_labels(view, nu)])
        out = FormalCharacter()
        for nu_t, m in dominant_multiplicities(sub, hw).items():
            for w, _ in sub.weyl_orbit(nu_t):
                out.terms[vsub(nu, emb.map_weight(vsub(hw, w)))] = m
        return out

    return full_orbit_peel(fc, order_key(view.ambient), dominant_integral, character)


def fraction_weyl_dimension(rs, mu):
    mu_rho = vadd(mu, rs.rho)
    val = Fraction(1)
    for a in rs.positive_roots:
        val *= rs.inner(mu_rho, a) / rs.inner(rs.rho, a)
    return val


# ---------------------------------------------------------------------------
# affine characters on codes == affine Freudenthal

# both routes take a few milliseconds per draw up to these cutoffs, so the
# rank-3 algebras reach grade 2
AFFINE_CUTOFF = {"A1": 4, "A2": 3, "B2": 3, "G2": 3, "A3": 2, "B3": 2, "C3": 2}


@st.composite
def affine_module(draw):
    name = draw(st.sampled_from(sorted(AFFINE_CUTOFF)))
    rs = build_root_system(name)
    level = draw(st.integers(1, 2))
    theta_v = rs.coroot(rs.highest_roots[0])
    comarks = [rs.inner(w, theta_v) for w in rs.fundamental_weights]
    labels = [0] * rs.rank
    budget = Fraction(level)
    for i in draw(st.permutations(range(rs.rank))):
        top = int(budget / comarks[i])
        labels[i] = draw(st.integers(0, top))
        budget -= labels[i] * comarks[i]
    cutoff = draw(st.integers(0, AFFINE_CUTOFF[name]))
    return rs, af.AffineWeight(rs.weight_from_labels(labels), level), cutoff


@settings(max_examples=12, deadline=None)
@given(affine_module())
def test_affine_character_equals_affine_freudenthal(case):
    rs, aw, cutoff = case
    main, oracle = af.affine_character(rs, aw, cutoff), af.affine_freudenthal(rs, aw, cutoff)
    assert oracle.rows == main.rows
    assert main.layers == oracle.layers


# ---------------------------------------------------------------------------
# decomposers == full-orbit peel

# label bound per algebra, keeping each module to a few hundred weights
DECOMPOSE_ALGEBRAS = {"A1": 4, "A2": 3, "B2": 2, "G2": 1, "A1xA1": 3, "A3": 1,
                      "B3": 1, "C3": 1, "A1xA2": 1}


def module_sum(rs, draw, top):
    """A random nonnegative sum of 1-3 irreducible characters of rs."""
    fc = FormalCharacter()
    for _ in range(draw(st.integers(1, 3))):
        labels = draw(st.lists(st.integers(0, top), min_size=rs.rank, max_size=rs.rank))
        fc.iadd(freudenthal_character(rs, rs.weight_from_labels(labels)),
                draw(st.integers(1, 3)))
    return fc


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(sorted(DECOMPOSE_ALGEBRAS)), st.data())
def test_decompose_character_equals_full_orbit_peel(name, data):
    rs = build_root_system(name)
    fc = module_sum(rs, data.draw, DECOMPOSE_ALGEBRAS[name])
    got = decompose_character(rs, fc)
    assert list(got.items()) == list(reference_decompose(rs, fc).items())


SPLINTS = sorted(e["name"] for e in _catalog_entries())


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(SPLINTS), st.data())
def test_view_decompose_equals_full_orbit_peel(name, data):
    s = find_splint(name)
    view = s.subalgebra_view()
    fc = module_sum(s.ambient, data.draw, 2 if s.ambient.rank <= 2 else 1)
    got = view.decompose(fc)
    assert list(got.items()) == list(reference_view_decompose(view, fc).items())


@pytest.mark.parametrize("name", SPLINTS)
def test_every_catalog_view_decomposes_the_adjoint(name):
    s = find_splint(name)
    view = s.subalgebra_view()
    adjoint = freudenthal_character(s.ambient, s.ambient.highest_roots[0])
    got = view.decompose(adjoint)
    assert list(got.items()) == list(reference_view_decompose(view, adjoint).items())


def test_tables_keep_the_w_fixed_offset():
    # (1/2, -1/2) and (1, 0) have the same A1 label; the cached table must
    # not hand the first one's vector to the second
    a1 = build_root_system("A1")
    half, shifted = (Fraction(1, 2), Fraction(-1, 2)), (Fraction(1), Fraction(0))
    assert dominant_multiplicities(a1, half) == {half: 1}
    assert dominant_multiplicities(a1, shifted) == {shifted: 1}
    fc = FormalCharacter({shifted: 2, (Fraction(0), Fraction(1)): 2})
    assert decompose_character(a1, fc) == {shifted: 2}


# ---------------------------------------------------------------------------
# non-module inputs are refused


def perturbed(rs, data, top, is_dominant):
    fc = module_sum(rs, data.draw, top)
    movable = [v for v in fc.terms if not is_dominant(v)]
    assume(movable)     # a sum of trivial modules has no weight to move
    v = data.draw(st.sampled_from(movable))
    m = fc.terms[v]
    delta = data.draw(st.integers(1, 4))
    fc.terms[v] = m + delta
    return fc, m, m + delta


def assert_names_both(exc, old, new):
    msg = str(exc.value)
    assert re.search(rf"has multiplicity {new} but its dominant representative .* "
                     rf"has {old}: not a module character", msg), msg


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(sorted(DECOMPOSE_ALGEBRAS)), st.data())
def test_perturbed_term_is_refused(name, data):
    rs = build_root_system(name)
    fc, old, new = perturbed(rs, data, DECOMPOSE_ALGEBRAS[name], rs.is_dominant)
    with pytest.raises(ValueError) as exc:
        decompose_character(rs, fc)
    assert_names_both(exc, old, new)


@settings(max_examples=20, deadline=None)
@given(st.sampled_from(SPLINTS), st.data())
def test_perturbed_term_is_refused_by_view(name, data):
    s = find_splint(name)
    view = s.subalgebra_view()
    fc, old, new = perturbed(s.ambient, data, 1, view.is_dominant)
    with pytest.raises(ValueError) as exc:
        view.decompose(fc)
    assert_names_both(exc, old, new)


def test_missing_orbit_point_is_refused():
    rs = build_root_system("A2")
    fc = freudenthal_character(rs, rs.weight_from_labels([1, 1]))
    v = next(v for v in fc.terms if not rs.is_dominant(v))
    del fc.terms[v]
    with pytest.raises(ValueError, match=r"has multiplicity 1 but only 5 of the 6 weights"):
        decompose_character(rs, fc)


# ---------------------------------------------------------------------------
# integer Weyl dimension == Fraction product formula

DIMENSION_ALGEBRAS = ["A1", "A2", "A3", "A4", "B2", "B3", "B4", "C2", "C3", "C4",
                      "D4", "F4", "G2", "A1xA1", "A1xB3", "A2xG2"]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(DIMENSION_ALGEBRAS), st.data())
def test_weyl_dimension_equals_fraction_formula(name, data):
    rs = build_root_system(name)
    labels = data.draw(st.lists(st.integers(0, 5), min_size=rs.rank, max_size=rs.rank))
    mu = rs.weight_from_labels(labels)
    assert weyl_dimension(rs, mu) == fraction_weyl_dimension(rs, mu)
