"""Differential tests for the alternating theta sums and the shared lattice
enumerator.

`theta_alternating_sum` reads each simple factor's Weyl-Kac numerator at rho
as a series carried by e^{rho} q^{(rho,rho)/2h-dual}.  It is checked against
a test-local copy of the per-Weyl-element route it replaced: |W| separate
Fraction lattice sums over shifted coroot lattices, pushed term by term.
The one lattice walk, `lattice_points_in_ellipsoid`, is checked against a
brute-force box search, points and grades.  The numerator's integer walk
over coroot coordinates is checked against a test-local loop that reads the
walk's points and computes each point's labels and grade from Fraction
vectors.
"""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from splintbranch import qseries as qs
from splintbranch.characters import FormalCharacter, _numerator_codes, common_denominator, encode
from splintbranch.rootsystem import (build_root_system, lattice_points_in_ellipsoid,
                                     vcombine, vscale, vsub, zero_vec)
from splintbranch.splints import _catalog_entries, find_splint

CATALOG = [e["name"] for e in _catalog_entries()]
CUTOFFS = [0, 1, 2, 3, 4, 5, 6, Fraction(7, 2)]

# ---------------------------------------------------------------------------
# reference copy of the per-Weyl-element route


def fraction_lattice_sum(rs, basis, shift, level, cutoff):
    """Sum of q^{level*(xi,xi)/2} e^{level*xi} over xi in (lattice + shift),
    walked on its own Gram matrix and the pairings of level*shift."""
    lam = vscale(shift, level)
    gram = [[rs.inner(a, b) for b in basis] for a in basis]
    pairing = [rs.inner(lam, a) for a in basis]
    start = rs.inner(lam, lam) / (2 * level)
    acc = {}
    for coeffs, g in lattice_points_in_ellipsoid(gram, pairing, level, Fraction(cutoff) - start):
        xi = vcombine(shift, coeffs, basis)
        e = Fraction(level) * rs.inner(xi, xi) / 2
        assert e == start + g
        kxi = vscale(xi, level)
        fc = acc.setdefault(e, FormalCharacter())
        fc.terms[kxi] = fc.terms.get(kxi, 0) + 1
    return acc


def per_weyl_element_sum(src, push, cutoff, drop_last=False):
    """prod over simple factors of sum_{w in W_f} eps(w) Theta_{w rho_f}, one
    shifted coroot-lattice sum per Weyl element."""
    if push is None:
        push = lambda v: v
    out = qs.QSeries.one(cutoff)
    for fi, (fam, rank) in enumerate(src.factors):
        frs = build_root_system([(fam, rank)])
        c0 = src.factor_slices[fi][1][0]
        hvee = frs.dual_coxeter[0]

        def inject(v):
            full = list(zero_vec(src.dim))
            full[c0:c0 + frs.dim] = v
            return push(tuple(full))

        orbit = frs.weyl_orbit(frs.rho)
        if drop_last and fi == len(src.factors) - 1:
            orbit = orbit[:-1]
        factor_sum = qs.QSeries({}, cutoff)
        basis = frs.coroot_lattice_basis()
        for wrho, sign in orbit:
            shift = vscale(wrho, Fraction(1, hvee))
            acc = fraction_lattice_sum(frs, basis, shift, hvee, cutoff)
            terms = {e: FormalCharacter((inject(v), sign * c) for v, c in fc.items())
                     for e, fc in acc.items()}
            factor_sum = factor_sum + qs.QSeries(terms, cutoff)
        out = out * factor_sum
    return out


# ---------------------------------------------------------------------------
# the numerator route against the reference


@pytest.mark.parametrize("name", CATALOG)
def test_theta_sums_equal_per_weyl_element_sums(name):
    s = find_splint(name)
    for cutoff in CUTOFFS:
        for phi in (s.phi1, s.phi2):
            assert (qs.theta_alternating_sum(phi.source, phi.fundamental_images, cutoff)
                    == per_weyl_element_sum(phi.source, phi.map_weight, cutoff)), (name, cutoff)
        for drop in (False, True):
            got = qs.theta_alternating_sum(s.ambient, s.ambient.fundamental_weights, cutoff,
                                           drop_last=drop)
            want = per_weyl_element_sum(s.ambient, None, cutoff, drop_last=drop)
            assert got == want, (name, cutoff, drop)


@pytest.mark.parametrize("name", ["A1", "A2", "A3", "B2", "G2"])
def test_factor_sum_starts_at_dim_over_24(name):
    # Freudenthal-de Vries strange formula: (rho,rho)/2h-dual = dim/24
    rs = build_root_system(name)
    dim = rs.rank + 2 * len(rs.positive_roots)
    series = qs.theta_alternating_sum(rs, rs.fundamental_weights, 3)
    assert series.min_exponent() == Fraction(dim, 24)
    # the lowest term is the Weyl numerator sum_w eps(w) e^{w rho}
    lowest = series.coefficient(Fraction(dim, 24))
    assert lowest == FormalCharacter(dict(rs.weyl_orbit(rs.rho)))
    # below dim/24 the sum is empty
    assert not qs.theta_alternating_sum(rs, rs.fundamental_weights,
                                        Fraction(dim, 24) - Fraction(1, 24))


# ---------------------------------------------------------------------------
# the shared lattice enumerator against a box search


def box_grades(rs, basis, lam, K, bound, width=6):
    """(c, g) for every point c with coordinates in [-width, width], kept
    when g <= bound, g = (lam, beta) + K (beta, beta)/2 of beta = sum_i c_i
    basis[i]; none may sit on the faces of the box."""
    out = set()
    for coeffs in itertools.product(range(-width, width + 1), repeat=len(basis)):
        beta = vcombine(zero_vec(rs.dim), coeffs, basis)
        g = rs.inner(lam, beta) + K * rs.inner(beta, beta) / 2
        if g <= bound:
            assert max(map(abs, coeffs)) < width, "box too small"
            out.add((coeffs, g))
    return out


@pytest.mark.parametrize("name", ["A1", "A2", "A3", "B2", "C3", "G2"])
@pytest.mark.parametrize("which", ["root", "coroot", "coroot_gram"])
def test_lattice_grades_match_box_search(name, which):
    # coroot_gram: the int Gram matrix and int labels, as _numerator_codes passes them
    rs = build_root_system(name)
    basis = rs.simple_roots if which == "root" else rs.coroot_lattice_basis()
    # lam = 0, lam = rho, and lam with lam/K off the lattice (K = 3)
    cases = [(zero_vec(rs.dim), 2, 3), (rs.rho, rs.dual_coxeter[0], 4),
             (rs.fundamental_weights[0], 3, Fraction(5, 2))]
    for lam, K, bound in cases:
        if which == "coroot_gram":
            gram, pairing = rs.coroot_gram, tuple(int(m) for m in rs.dynkin_labels(lam))
        else:
            gram = [[rs.inner(a, b) for b in basis] for a in basis]
            pairing = [rs.inner(lam, a) for a in basis]
        got = list(lattice_points_in_ellipsoid(gram, pairing, K, bound))
        assert len(got) == len(set(got))
        assert set(got) == box_grades(rs, basis, lam, K, bound), (lam, K, bound)
        if which != "root":
            # an even diagonal: every grade on the coroot lattice is an integer
            assert all(g.denominator == 1 for _, g in got)


# ---------------------------------------------------------------------------
# the integer numerator walk against the Fraction walk it replaced

NUMERATOR_ALGEBRAS = {name: build_root_system(name) for name in (
    "A1", "A2", "A3", "A4", "B2", "B3", "B4", "C3", "D4", "G2", "F4", "A1xA2")}


def fraction_numerator_codes(rs, lam, K, cutoff, fw, offset):
    """_numerator_codes with the labels and grade of each point c of the walk
    computed from Fraction vectors: beta = sum_i c_i alpha_i^vee and grade
    (lam, beta) + K (beta, beta)/2, which must equal the walk's."""
    lam_labels = tuple(int(m) for m in rs.dynkin_labels(lam))
    layers = [{} for _ in range(cutoff + 1)]
    for c, walk_g in lattice_points_in_ellipsoid(rs.coroot_gram, lam_labels, K, cutoff):
        beta = vcombine(zero_vec(rs.dim), c, rs.coroot_lattice_basis())
        g = rs.inner(lam, beta) + K * rs.inner(beta, beta) / 2
        assert g == walk_g
        assert g.denominator == 1 and g >= 0
        x = tuple(a + K * int(b) for a, b in zip(lam_labels, rs.dynkin_labels(beta)))
        dom, sign_x = rs.dominant_labels(x)
        assert all(dom)
        t = layers[int(g)]
        for v, s in rs.label_orbit(dom, fw, offset):
            m = t.get(v, 0) + s * sign_x
            if m:
                t[v] = m
            else:
                del t[v]
    return layers


@pytest.mark.parametrize("name", sorted(NUMERATOR_ALGEBRAS))
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_numerator_walk_matches_fraction_walk(name, data):
    # lam strictly dominant and regular at level K for every factor,
    # (lam, theta) < K <= h-dual + 2: rho raised at drawn labels while it stays so
    rs = NUMERATOR_ALGEBRAS[name]
    K = data.draw(st.integers(max(rs.dual_coxeter), max(rs.dual_coxeter) + 2))
    labels = [1] * rs.rank
    for i in data.draw(st.lists(st.integers(0, rs.rank - 1), max_size=4)):
        raised = labels[:i] + [labels[i] + 1] + labels[i + 1:]
        lam = rs.weight_from_labels(raised)
        if all(rs.inner(lam, theta) < K for theta in rs.highest_roots):
            labels = raised
    lam = rs.weight_from_labels(labels)
    cutoff = data.draw(st.integers(0, 4))
    den = common_denominator(rs.fundamental_weights + (lam,))
    fw = [encode(w, den) for w in rs.fundamental_weights]
    offset = encode(vsub(zero_vec(rs.dim), rs.rho), den)
    got = _numerator_codes(rs, lam, K, cutoff, fw, offset)
    want = fraction_numerator_codes(rs, lam, K, cutoff, fw, offset)
    assert [list(layer.items()) for layer in got] == [list(layer.items()) for layer in want]
