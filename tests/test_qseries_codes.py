"""Lattice `QSeries` on integer codes against the Fraction-keyed arithmetic
they replaced.

A lattice series holds each coefficient as a {code: int} dict over one
lattice denominator.  The oracle is a test-local copy of the series
arithmetic that kept FormalCharacter coefficients on Fraction coordinates
(`_cadd`/`_cmul`, the products a Fraction convolution).  Lattice series are
drawn over A2, B2 and G2 weights, off the weight lattice too, with rational
exponents; products, sums, `scale`, `shift` and `compare_qseries` must agree
with the oracle, and a series re-encoded over another lattice denominator
must still compare equal.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from splintbranch import qseries as qs
from splintbranch.characters import FormalCharacter
from splintbranch.rootsystem import build_root_system, vadd, vscale, zero_vec

ALGEBRAS = {name: build_root_system(name) for name in ("A2", "B2", "G2")}

# ---------------------------------------------------------------------------
# the Fraction-keyed oracle


def fraction_product(a, b):
    out = FormalCharacter()
    t = out.terms
    for v, c in a.terms.items():
        for w, d in b.terms.items():
            u = vadd(v, w)
            n = t.get(u, 0) + c * d
            if n:
                t[u] = n
            else:
                del t[u]
    return out


def _cadd(a, b):
    if isinstance(a, FormalCharacter) != isinstance(b, FormalCharacter):
        raise TypeError("cannot mix scalar and lattice coefficients additively")
    return a + b


def _cmul(a, b):
    if isinstance(a, FormalCharacter):
        if isinstance(b, FormalCharacter):
            return fraction_product(a, b)
        return a.scale(b)
    if isinstance(b, FormalCharacter):
        return b.scale(a)
    return a * b


class FractionSeries:
    def __init__(self, terms, cutoff):
        self.cutoff = Fraction(cutoff)
        self.terms = {}
        for e, c in terms.items():
            e = Fraction(e)
            if e > self.cutoff or not c:
                continue
            if e in self.terms:
                c = _cadd(self.terms[e], c)
            if not c:
                self.terms.pop(e, None)
            else:
                self.terms[e] = c

    def __add__(self, other):
        cutoff = min(self.cutoff, other.cutoff)
        out = {e: c for e, c in self.terms.items() if e <= cutoff}
        for e, c in other.terms.items():
            if e <= cutoff:
                out[e] = _cadd(out[e], c) if e in out else c
        return FractionSeries(out, cutoff)

    def scale(self, c):
        return FractionSeries({e: _cmul(v, c) for e, v in self.terms.items()}, self.cutoff)

    def __mul__(self, other):
        cutoff = min(self.cutoff, other.cutoff)
        acc = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = e1 + e2
                if e <= cutoff:
                    p = _cmul(c1, c2)
                    acc[e] = _cadd(acc[e], p) if e in acc else p
        return FractionSeries(acc, cutoff)

    def shift(self, c):
        return FractionSeries({e + c: v for e, v in self.terms.items()}, self.cutoff + c)


def fraction_compare(a, b):
    cutoff = min(a.cutoff, b.cutoff)
    at = {e: c for e, c in a.terms.items() if e <= cutoff}
    bt = {e: c for e, c in b.terms.items() if e <= cutoff}
    for e in sorted(set(at) | set(bt)):
        ca, cb = at.get(e), bt.get(e)
        if ca is None or cb is None:
            return e, f"term q^{e} only on one side"
        if ca != cb:
            return e, f"coefficients at q^{e} differ"
    return None


def same(series, oracle):
    """The coded series, decoded at the edge, is the oracle's."""
    return (series.cutoff == oracle.cutoff
            and {e: series.coefficient(e) for e in series.terms} == oracle.terms)


# ---------------------------------------------------------------------------
# strategies

EXPONENT_DENOMINATORS = [1, 2, 3, 8, 24]


@st.composite
def exponent(draw, top=3):
    d = draw(st.sampled_from(EXPONENT_DENOMINATORS))
    return Fraction(draw(st.integers(0, top * d)), d)


@st.composite
def character(draw, rs):
    """Up to 4 terms at weights with labels in -2..2 scaled by 1, 1/2 or 1/3,
    coefficients in -2..2: products collide and cancel."""
    terms = draw(st.lists(st.tuples(
        st.lists(st.integers(-2, 2), min_size=rs.rank, max_size=rs.rank),
        st.sampled_from([1, 2, 3]), st.integers(-2, 2)), max_size=4))
    return FormalCharacter([(vscale(rs.weight_from_labels(labels), Fraction(1, k)), c)
                            for labels, k, c in terms])


@st.composite
def series_pair(draw, rs, lattice=True):
    """(QSeries, FractionSeries) with the same terms: up to 5 exponents in
    [0, 3], the cutoff in [1, 4]."""
    coefficient = character(rs) if lattice else st.integers(-3, 3)
    terms = draw(st.dictionaries(exponent(), coefficient, max_size=5))
    cutoff = draw(exponent(4).filter(lambda e: e >= 1))
    return qs.QSeries(terms, cutoff), FractionSeries(terms, cutoff)


def recoded(series, f):
    """The same series with its codes over f times its lattice denominator."""
    if series.lattice_den is None:
        return series
    return qs.QSeries.from_codes(
        [(e, {tuple(x * f for x in code): m for code, m in c.items()})
         for e, c in series.terms.items()], series.cutoff, series.lattice_den * f)


# ---------------------------------------------------------------------------
# the tests


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(sorted(ALGEBRAS)), st.data())
def test_ring_operations_match_fraction_series(name, data):
    rs = ALGEBRAS[name]
    (a, fa), (b, fb) = data.draw(series_pair(rs)), data.draw(series_pair(rs))
    (s, fs) = data.draw(series_pair(rs, lattice=False))
    k = data.draw(st.integers(-3, 3))
    c = data.draw(exponent(2))
    assert same(a, fa) and same(b, fb) and same(s, fs)
    assert same(a * b, fa * fb)
    assert same(a * s, fa * fs) and same(s * a, fs * fa)
    assert same(a + b, fa + fb)
    assert same(a - b, fa + fb.scale(-1))
    assert same(a.scale(k), fa.scale(k))
    assert same(a.shift(c), fa.shift(c))
    assert qs.compare_qseries(a, b) == fraction_compare(fa, fb)
    assert qs.compare_qseries(a * b, b * a) is None
    assert (a == b) == (fa.terms == fb.terms)


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(sorted(ALGEBRAS)), st.data())
def test_compare_matches_fraction_series_on_near_misses(name, data):
    # b is a with one exponent dropped or one coefficient perturbed
    rs = ALGEBRAS[name]
    a, fa = data.draw(series_pair(rs))
    terms = {e: a.coefficient(e) for e in a.terms}
    if terms:
        e = data.draw(st.sampled_from(sorted(terms)))
        if data.draw(st.booleans()):
            del terms[e]
        else:
            terms[e] = terms[e] + data.draw(character(rs))
    b, fb = qs.QSeries(terms, a.cutoff), FractionSeries(terms, a.cutoff)
    assert qs.compare_qseries(a, b) == fraction_compare(fa, fb)
    assert qs.compare_qseries(b, a) == fraction_compare(fb, fa)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(sorted(ALGEBRAS)), st.data())
def test_series_over_other_lattice_denominators_compare_equal(name, data):
    rs = ALGEBRAS[name]
    (a, fa), (b, fb) = data.draw(series_pair(rs)), data.draw(series_pair(rs))
    f, g = data.draw(st.sampled_from([2, 3, 5, 6])), data.draw(st.sampled_from([1, 4, 7]))
    a2, b2 = recoded(a, f), recoded(b, g)
    assert a2 == a and a == a2 and qs.compare_qseries(a, a2) is None
    assert same(a2, fa)
    assert same(a2 * b2, fa * fb) and same(a2 + b2, fa + fb)
    assert (a2 == b2) == (a == b)
    assert qs.compare_qseries(a2, b2) == fraction_compare(fa, fb)


def test_lattice_denominators_in_theta_products():
    # e^{omega_1} of A2 has thirds in its coordinates, the roots have none:
    # the two denominators meet at their lcm inside one product
    rs = ALGEBRAS["A2"]
    w = rs.fundamental_weights[0]
    t = qs.theta(rs, w, 1, 2)
    d = qs.denominator_product(rs, 2)
    assert d.lattice_den == 1 and t.lattice_den == 3
    ft = FractionSeries({e: t.coefficient(e) for e in t.terms}, t.cutoff)
    fd = FractionSeries({e: d.coefficient(e) for e in d.terms}, d.cutoff)
    assert same(t * d, ft * fd) and (t * d).lattice_den == 3
    # a series and its re-encoding over twice the denominator are equal,
    # and a change in one code shows
    t2 = recoded(t, 2)
    assert t2 == t
    e = min(t2.terms)
    code, m = next(iter(t2.terms[e].items()))
    moved = dict(t2.terms)
    moved[e] = {**{c: x for c, x in t2.terms[e].items() if c != code},
                tuple(x + 1 for x in code): m}
    bad = qs.QSeries.from_codes(moved.items(), t2.cutoff, t2.lattice_den)
    assert bad != t and qs.compare_qseries(t, bad) == (e, f"coefficients at q^{e} differ")


def test_scalar_and_lattice_kinds():
    rs = ALGEBRAS["B2"]
    one = qs.QSeries.one(2)
    lat = qs.QSeries({0: FormalCharacter.monomial(zero_vec(rs.dim))}, 2)
    # e^0 as a lattice coefficient is not the scalar 1, as before
    assert one != lat and qs.compare_qseries(one, lat) == (0, "coefficients at q^0 differ")
    assert one * lat == lat and lat * one == lat
    with pytest.raises(TypeError):
        one + lat
    empty = qs.QSeries({}, 2)
    assert empty + lat == lat and lat + empty == lat and not empty * lat
    assert lat.coefficient(1) == FormalCharacter() and one.coefficient(1) == 0
