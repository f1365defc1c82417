"""Differential tests for integer-label splint branching and the label edge.

`branch_via_splint` runs on integer Dynkin labels (`Splint.tilde_map`); the
reference here is the Fraction route it replaced: the Weyl orbit of every
dominant stem weight, each weight mapped through `Embedding.map_weight`.
Outputs must agree including dict order; the integer table that a splint
keeps holds the ambient labels of those weights, in the same order.
`dynkin_labels`, `split_labels`
and `SubalgebraView.labels` apply cached integer label rows; the reference
is the formula 2 (v, a) / (a, a) in Fractions.
"""

from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from splintbranch import affine as af
from splintbranch.characters import dominant_multiplicities
from splintbranch.rootsystem import (build_root_system, vadd, vec, vneg, vscale, vsub,
                                     zero_vec)
from splintbranch.splints import (Embedding, Splint, SubalgebraView, _branch_codes,
                                  _catalog_entries, branch_via_splint, find_splint, tilde_weight)

CATALOG_NAMES = [e["name"] for e in _catalog_entries()]


@functools.cache
def splint(name):
    return find_splint(name)


@functools.cache
def algebra(name):
    return build_root_system(name)


def fraction_tilde_weight(s, mu):
    stem = s.phi2.source
    if stem.rank != s.ambient.rank:
        raise ValueError("tilde weight undefined")
    labels = s.ambient.dynkin_labels(mu)
    if any(m.denominator != 1 or m < 0 for m in labels):
        raise ValueError(f"weight with labels {labels} is not dominant integral")
    stem_labels = [0] * stem.rank
    for k, m in enumerate(labels):
        stem_labels[s.correspondence[k]] = int(m)
    return stem.weight_from_labels(stem_labels)


def fraction_branch(s, mu):
    """The Fraction tilde route: nu = mu - phi2(mu~ - w) for every weight w
    of the stem module, orbit by orbit."""
    stem = s.phi2.source
    mu_t = fraction_tilde_weight(s, mu)
    table = {}
    for nu_t, m in dominant_multiplicities(stem, mu_t).items():
        for w, _ in stem.weyl_orbit(nu_t):
            nu = vsub(mu, s.phi2.map_weight(vsub(mu_t, w)))
            if nu in table:
                raise ValueError("stem weights collide in ambient space")
            table[nu] = m
    return table


def per_entry_branch(rs, s, aw, cutoff):
    """branch_affine_to_subalgebra as one Fraction branch per (nu, grade)."""
    entries = {}
    for (nu, n), b in af.graded_branch_to_g(rs, aw, cutoff).entries.items():
        for xi, c in fraction_branch(s, nu).items():
            entries[(xi, n)] = entries.get((xi, n), 0) + b * c
    return {k: v for k, v in entries.items() if v}


# ---------------------------------------------------------------------------
# the tilde map


@pytest.mark.parametrize("name", CATALOG_NAMES)
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_branch_matches_fraction_route(name, data):
    s = splint(name)
    rs = s.ambient
    top = 4 if rs.rank == 2 else 2
    labels = data.draw(st.lists(st.integers(0, top), min_size=rs.rank, max_size=rs.rank))
    mu = rs.weight_from_labels(labels)
    assert list(branch_via_splint(s, mu).items()) == list(fraction_branch(s, mu).items())
    assert tilde_weight(s, mu) == fraction_tilde_weight(s, mu)


@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_tables_hold_the_ambient_labels_of_the_branching(name):
    # every catalog tilde map has denominator 2 or 3, so the table's keys are
    # the labels themselves, not a multiple of them
    s = splint(name)
    rs = s.ambient
    assert s.tilde_map[1] in (2, 3)
    for labels in itertools.product(range(3 if rs.rank <= 2 else 2), repeat=rs.rank):
        table = _branch_codes(s, labels)
        branch = branch_via_splint(s, rs.weight_from_labels(labels))
        assert [(key, 1, None) for key in table] == [rs.split_labels(nu) for nu in branch]
        assert list(table.values()) == list(branch.values())


def test_w_fixed_offset_carries_over():
    s = splint("A2:A1A1A1")
    rs = s.ambient
    base = rs.weight_from_labels([1, 2])
    mu = vadd(base, vec([1, 1, 1]))
    got = branch_via_splint(s, mu)
    assert list(got.items()) == list(fraction_branch(s, mu).items())
    assert list(got.values()) == list(branch_via_splint(s, base).values())
    assert all(sum(nu) == 3 for nu in got)
    assert tilde_weight(s, mu) == tilde_weight(s, base)


@pytest.mark.parametrize("name,level,labels,cutoff", [
    ("A2:A1A1A1", 1, [1, 0], 3),
    ("A2:A1A1A1", 2, [1, 1], 2),
    ("B2:A1A1", 1, [0, 1], 3),
    ("B2:A1A2", 2, [1, 0], 2),
    ("G2:A2A2", 1, [1, 0], 3),
    ("G2:A2A2", 2, [0, 1], 2),
    ("A3:A2A1A1A1", 1, [0, 1, 0], 2),
    ("A3:A2A1A1A1", 2, [1, 0, 1], 1),
])
def test_affine_branch_matches_per_entry_loop(name, level, labels, cutoff):
    s = splint(name)
    rs = s.ambient
    aw = af.AffineWeight(rs.weight_from_labels(labels), level)
    got = af.branch_affine_to_subalgebra(rs, s, aw, cutoff).entries
    assert list(got.items()) == list(per_entry_branch(rs, s, aw, cutoff).items())


def hand_built(images, source="A2"):
    """G2:A2A2 with its stem replaced by a map of the source simple roots to
    `images`, extended additively to the positive roots."""
    s = splint("G2:A2A2")
    src = algebra(source)
    pos = {}
    for root in src.positive_roots:
        img = zero_vec(s.ambient.dim)
        for c, a in zip(src.simple_coefficients(root), images):
            img = vadd(img, vscale(a, c))
        pos[root] = img
    return Splint("G2:hand-built", s.ambient, s.phi1,
                  Embedding(src, s.ambient, pos), s.correspondence)


def test_degenerate_stem_map_collides():
    s = splint("G2:A2A2")
    r = s.phi2.simple_images[0]
    bad = hand_built([r, vneg(r)])      # alpha~_1 + alpha~_2 maps to 0
    mu = bad.ambient.weight_from_labels([1, 0])
    with pytest.raises(ValueError, match="collide"):
        fraction_branch(bad, mu)
    with pytest.raises(ValueError, match="collide"):
        branch_via_splint(bad, mu)


def test_non_integral_stem_map_is_refused():
    s = splint("G2:A2A2")
    bad = hand_built([vscale(a, Fraction(1, 2)) for a in s.phi2.simple_images])
    with pytest.raises(ValueError, match="non-integral"):
        branch_via_splint(bad, bad.ambient.weight_from_labels([1, 0]))


def test_rank_mismatch_is_refused():
    s = splint("G2:A2A2")
    short = hand_built([s.phi2.simple_images[0]], source="A1")
    for fn in (tilde_weight, branch_via_splint):
        with pytest.raises(ValueError, match="tilde weight undefined"):
            fn(short, short.ambient.weight_from_labels([1, 0]))


@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_non_dominant_or_fractional_weight_is_refused(name):
    s = splint(name)
    rs = s.ambient
    for mu in (vneg(rs.fundamental_weights[0]),
               vscale(rs.fundamental_weights[-1], Fraction(1, 2))):
        with pytest.raises(ValueError) as want:
            fraction_branch(s, mu)
        for fn in (tilde_weight, branch_via_splint):
            with pytest.raises(ValueError, match="not dominant integral") as got:
                fn(s, mu)
            assert str(got.value) == str(want.value)


# ---------------------------------------------------------------------------
# the label edge

ALGEBRAS = ["A1", "A2", "A3", "A4", "B2", "B3", "B4", "C2", "C3", "C4", "D4", "G2",
            "F4", "A1xA1", "A1xA2", "A1xB2", "A1xA1xA1"]

rationals = st.fractions(min_value=-6, max_value=6, max_denominator=6)


def formula_labels(rs, v, images):
    return tuple(2 * rs.inner(v, a) / rs.inner(a, a) for a in images)


@settings(max_examples=200, deadline=None)
@given(name=st.sampled_from(ALGEBRAS), data=st.data())
def test_labels_match_fraction_formula(name, data):
    rs = algebra(name)
    v = tuple(data.draw(st.lists(rationals, min_size=rs.dim, max_size=rs.dim)))
    want = formula_labels(rs, v, rs.simple_roots)
    assert rs.dynkin_labels(v) == want
    ints, d, offset = rs.split_labels(v)
    assert d == math.lcm(*(m.denominator for m in want))
    assert tuple(Fraction(m, d) for m in ints) == want
    ((base, _),) = rs.from_labels([(ints, None)], d)
    if offset is None:
        assert base == v
    else:
        assert vadd(base, offset) == v
        assert any(offset) and all(rs.inner(offset, a) == 0 for a in rs.simple_roots)


@settings(max_examples=150, deadline=None)
@given(name=st.sampled_from(CATALOG_NAMES), stem=st.booleans(), integral=st.booleans(),
       data=st.data())
def test_view_labels_match_fraction_formula(name, stem, integral, data):
    s = splint(name)
    rs = s.ambient
    emb = s.phi2 if stem else s.phi1
    view = SubalgebraView(rs, emb) if stem else s.subalgebra_view()
    if integral:
        labels = data.draw(st.lists(st.integers(-4, 4), min_size=rs.rank, max_size=rs.rank))
        nu = rs.weight_from_labels(labels)
    else:
        nu = tuple(data.draw(st.lists(rationals, min_size=rs.dim, max_size=rs.dim)))
    want = formula_labels(rs, nu, emb.simple_images)
    if all(m.denominator == 1 for m in want):
        assert view.labels(nu) == tuple(int(m) for m in want)
        assert all(type(m) is int for m in view.labels(nu))
    else:
        with pytest.raises(ValueError, match="not integral"):
            view.labels(nu)


@pytest.mark.parametrize("name", ["A2", "G2", "B3", "A1xA1"])
def test_wrong_length_vector_is_refused(name):
    rs = algebra(name)
    for v in (vec([1] * (rs.dim - 1)), vec([1] * (rs.dim + 1))):
        for fn in (rs.dynkin_labels, rs.split_labels):
            with pytest.raises(ValueError, match="dimension mismatch"):
                fn(v)


def test_view_refuses_wrong_length_and_non_integral():
    s = splint("G2:A2A2")
    view = s.subalgebra_view()
    with pytest.raises(ValueError, match="dimension mismatch"):
        view.labels(vec([1, 0]))
    half = vscale(s.phi1.simple_images[0], Fraction(1, 2))
    with pytest.raises(ValueError, match="not integral"):
        view.labels(half)
