"""The weight engine's memos are `functools.cache` methods of `RootSystem`
and `functools.cached_property`s of `Splint`.

Each cached method returns the same object on a repeat call, and that object
equals the uncached function (the method's `__wrapped__`).
`apply_label_rows` applies the cached rows of `label_rows` to the simple
roots and to a catalog subalgebra's simple images alike; the reference is the
formula 2 (v, a) / (a, a) in Fractions.  `label_orbit` codes the simple roots of a
basis once per (algebra, basis): the cached codes are the simple roots in
that basis, and a run of orbits on one new basis misses the cache once.
The default tilde probe runs once per
splint, a probe up to a given bound runs on every call, and a splint loaded
again probes again: no module-level cache keeps a splint alive.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from splintbranch import splints as sp
from splintbranch.rootsystem import RootSystem, apply_label_rows, build_root_system, vscale
from splintbranch.splints import _catalog_entries, find_splint

CATALOG_NAMES = [e["name"] for e in _catalog_entries()]
DOMINANT_ALGEBRAS = ["A1", "A2", "A3", "A4", "B2", "B3", "B4", "C3", "D4", "G2", "F4", "E6"]


def cached_once(method, rs, *args):
    """method(rs, *args), checked to be the same object on a repeat call and
    equal to the uncached function."""
    got = method(rs, *args)
    assert method(rs, *args) is got
    assert method.__wrapped__(rs, *args) == got
    return got


@st.composite
def label_cases(draw):
    rs = build_root_system(draw(st.sampled_from(DOMINANT_ALGEBRAS)))
    return rs, tuple(draw(st.lists(st.integers(-4, 4), min_size=rs.rank, max_size=rs.rank)))


@settings(max_examples=200, deadline=None)
@given(label_cases())
def test_dominant_labels_is_cached(case):
    rs, labels = case
    dom, sign = cached_once(RootSystem.dominant_labels, rs, labels)
    assert min(dom) >= 0 and sign in (1, -1)
    # a dominant input is its own representative, reached by no reflection
    assert rs.dominant_labels(dom) == (dom, 1)


@pytest.mark.parametrize("name", ["A1", "A2", "A3"])
def test_split_labels_is_cached(name):
    rs = build_root_system(name)
    ones = (Fraction(1),) * rs.dim        # W-fixed: orthogonal to every root of A_n
    for labels, d, c in itertools.product(itertools.product(range(-1, 3), repeat=rs.rank),
                                          (1, 2, 3), (0, Fraction(1, 2), -2)):
        offset = vscale(ones, c) if c else None
        ((v, _),) = rs.from_labels([(labels, None)], d, offset)
        ints, e, off = cached_once(RootSystem.split_labels, rs, v)
        assert [Fraction(m, e) for m in ints] == [Fraction(m, d) for m in labels]
        assert off == offset
        assert rs.from_labels([(ints, None)], e, off) == [(v, None)]


@pytest.mark.parametrize("name, subalgebra", itertools.product(CATALOG_NAMES, (False, True)))
def test_label_rows_and_scaled_labels_share_one_row_matrix(name, subalgebra):
    s = find_splint(name)
    rs = s.ambient
    images = s.phi1.simple_images if subalgebra else None
    cached_once(RootSystem.label_rows, rs, images)
    weights = sorted(rs.roots) + [vscale(w, Fraction(1, 3)) for w in rs.fundamental_weights]
    for v in weights:
        nums, d = apply_label_rows(v, *rs.label_rows(images))
        assert [Fraction(n, d) for n in nums] == \
            [2 * rs.inner(v, a) / rs.inner(a, a) for a in images or rs.simple_roots]


def test_default_probe_runs_once_per_splint(monkeypatch):
    probes = []
    probe = sp.probe_tilde_branching

    def counted(s, max_label):
        probes.append(max_label)
        return probe(s, max_label)

    monkeypatch.setattr(sp, "probe_tilde_branching", counted)
    s = find_splint("B2:A1A1")
    first = s.branching_status()
    assert s.branching_status() is first and s.tilde_probe is first
    assert probes == [2]
    # a given bound probes on every call
    assert s.branching_status(1).passed and s.branching_status(1).passed
    assert probes == [2, 1, 1]
    # a splint loaded again is a new object and probes again
    again = find_splint("B2:A1A1")
    assert again is not s
    assert again.branching_status().passed == first.passed
    assert probes == [2, 1, 1, 2]
    assert s.tilde_map is s.tilde_map and again.tilde_map == s.tilde_map


@pytest.mark.parametrize("name", ["A2", "G2", "B3", "F4", "A1xA2"])
def test_label_orbit_codes_each_basis_once(name):
    rs = build_root_system(name)
    ld = rs.label_data
    # the fundamental weights times 7 fw_den: a basis no other test walks
    fw = [tuple(7 * x for x in w) for w in ld.fw]
    misses = RootSystem._basis_codes.cache_info().misses
    for labels in itertools.product(range(-1, 2), repeat=rs.rank):
        rs.label_orbit(labels, fw, (0,) * rs.dim)
    assert RootSystem._basis_codes.cache_info().misses == misses + 1
    cols, roots = cached_once(RootSystem._basis_codes, rs, tuple(fw))
    assert cols == tuple(zip(*fw))
    # the code of alpha_i in the basis 7 fw_den omega: its coordinates times 7 fw_den
    assert roots == tuple(tuple(7 * ld.fw_den * x for x in alpha) for alpha in rs.simple_roots)
