"""Lattice `QSeries` on integer codes against the Fraction-keyed arithmetic
they replaced.

A series holds each exponent as an int over one exponent denominator, and a
lattice series each coefficient as a {code: int} dict over one lattice
denominator.  The oracle is a test-local copy of the series
arithmetic that kept FormalCharacter coefficients on Fraction coordinates
(`_cadd`/`_cmul`, the products a Fraction convolution).  Lattice series are
drawn over A2, B2 and G2 weights, off the weight lattice too, with rational
exponents; products, sums, `scale`, `shift`, `truncate` and `compare_qseries`
must agree with the oracle, also where exponent denominators meet, and a
series re-encoded over another lattice denominator must still compare equal.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from splintbranch import characters
from splintbranch import qseries as qs
from splintbranch.characters import FormalCharacter, decode
from splintbranch.rootsystem import build_root_system, vadd, vcombine, vscale, zero_vec

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

    def truncate(self, cutoff):
        return FractionSeries(self.terms, min(self.cutoff, Fraction(cutoff)))


def fraction_compare(a, b):
    cutoff = min(a.cutoff, b.cutoff)
    at = {e: c for e, c in a.terms.items() if e <= cutoff}
    bt = {e: c for e, c in b.terms.items() if e <= cutoff}
    for e in sorted(set(at) | set(bt)):
        ca, cb = at.get(e), bt.get(e)
        if ca is None or cb is None:
            side = "first" if cb is None else "second"
            zero = 0 if isinstance(cb if ca is None else ca, int) else FormalCharacter()
            return e, f"term q^{e} only in the {side} series" + fraction_difference(
                zero if ca is None else ca, zero if cb is None else cb)
        if ca != cb:
            return e, f"coefficients at q^{e} differ" + fraction_difference(ca, cb)
    return None


def fraction_difference(ca, cb):
    """Both ints, or both multiplicities at the lexicographically lowest
    weight where they differ."""
    if isinstance(ca, int) and isinstance(cb, int):
        return f": {ca} against {cb}"
    if isinstance(ca, int) or isinstance(cb, int):
        return ": a scalar against a lattice coefficient"
    w = min(v for v in ca.terms.keys() | cb.terms.keys()
            if ca.terms.get(v, 0) != cb.terms.get(v, 0))
    return f" at weight ({', '.join(map(str, w))}): {ca.terms.get(w, 0)} against " \
           f"{cb.terms.get(w, 0)}"


def same(series, oracle):
    """The coded series, decoded at the edge, is the oracle's, and its
    exponent denominator is the lcm of the exponents' reduced ones."""
    return (series.cutoff == oracle.cutoff
            and dict(series.items()) == oracle.terms
            and series.denom == math.lcm(*(e.denominator for e in oracle.terms)))


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


@st.composite
def root_character(draw, rs, d):
    """Up to 3 terms at root-lattice weights (simple-root coefficients in
    -1..1) divided by d, coefficients in -2..2: codes over d or a divisor."""
    terms = draw(st.lists(st.tuples(
        st.lists(st.integers(-1, 1), min_size=rs.rank, max_size=rs.rank),
        st.integers(-2, 2)), max_size=3))
    return FormalCharacter([(vscale(vcombine(zero_vec(rs.dim), coeffs, rs.simple_roots),
                                    Fraction(1, d)), c) for coeffs, c in terms])


@st.composite
def root_series_pair(draw, rs, d):
    """series_pair with up to 3 exponents and root_character coefficients."""
    terms = draw(st.dictionaries(exponent(), root_character(rs, d), max_size=3))
    cutoff = draw(exponent(4).filter(lambda e: e >= 1))
    return qs.QSeries(terms, cutoff), FractionSeries(terms, cutoff)


def fraction_power(series, n):
    out = FractionSeries({Fraction(0): 1}, series.cutoff)
    for _ in range(n):
        out = out * series
    return out


def codes(series):
    """The (k, {code: int}) pairs of a lattice series, its packed keys
    unpacked."""
    if series.lattice_dim is None:
        return []
    unpack = characters._box(series.lattice_dim)[1]
    return [(k, unpack(c)) for k, c in series.terms.items()]


def decoded_series(pairs, cutoff, den, denom=1):
    """The lattice series of (k, {code: int}) pairs, k standing for
    q^(k/denom) and codes over den, built through QSeries(...) from the
    decoded FormalCharacters."""
    return qs.QSeries([(Fraction(k, denom), decode(c, den)) for k, c in pairs], cutoff)


def recoded(series, f):
    """The same series with its codes over f times its lattice denominator:
    each code times f, packed again and held packed (QSeries(...) would
    reduce the weights to their own denominator)."""
    if series.lattice_den is None:
        return series
    pack = characters._box(series.lattice_dim)[0]
    return qs.QSeries._of(
        [(k, pack({tuple(x * f for x in code): m for code, m in c.items()}))
         for k, c in codes(series)], series.cutoff, series.lattice_den * f,
        series.denom, series.lattice_dim, series.reach * f)


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
    terms = dict(a.items())
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


@pytest.mark.parametrize("c", [Fraction(1, 24), Fraction(1, 8), Fraction(2, 3)])
@settings(max_examples=40, deadline=None)
@given(name=st.sampled_from(sorted(ALGEBRAS)), lattice=st.booleans(), data=st.data())
def test_mixed_exponent_denominators_match_fraction_series(c, name, lattice, data):
    # the q-shifts of eta (1/24), of a level-2 theta (1/8) and 2/3 meet
    # integer exponent keys over other denominators
    rs = ALGEBRAS[name]
    (a, fa), (b, fb) = data.draw(series_pair(rs, lattice)), data.draw(series_pair(rs, lattice))
    t = data.draw(exponent(4))
    sa, fsa, sb, fsb = a.shift(c), fa.shift(c), b.shift(c), fb.shift(c)
    assert same(sa, fsa) and same(sb, fsb)
    assert same(sa.truncate(t), fsa.truncate(t)) and same(a.truncate(t), fa.truncate(t))
    assert same(sa * b, fsa * fb) and same(sa + sb, fsa + fsb)
    assert (sa == sb) == (fsa.terms == fsb.terms) and (sa == b) == (fsa.terms == fb.terms)
    assert qs.compare_qseries(sa, b) == fraction_compare(fsa, fb)
    assert qs.compare_qseries(sa, sb) == fraction_compare(fsa, fsb)
    assert qs.compare_qseries(sa.truncate(t), b) == fraction_compare(fsa.truncate(t), fb)
    back = sa.shift(-c)
    assert back == a and same(back, fa) and qs.compare_qseries(back, a) is None


def test_lattice_denominators_in_theta_products():
    # e^{omega_1} of A2 has thirds in its coordinates, the roots have none:
    # the two denominators meet at their lcm inside one product
    rs = ALGEBRAS["A2"]
    w = rs.fundamental_weights[0]
    t = qs.theta(rs, w, 1, 2)
    d = qs.denominator_product(rs, 2)
    assert d.lattice_den == 1 and t.lattice_den == 3
    ft = FractionSeries(dict(t.items()), t.cutoff)
    fd = FractionSeries(dict(d.items()), d.cutoff)
    assert same(t * d, ft * fd) and (t * d).lattice_den == 3
    # a series and its re-encoding over twice the denominator are equal,
    # and a change in one code shows
    t2 = recoded(t, 2)
    assert t2 == t
    k, e = min(t2.terms), t2.min_exponent()
    terms = dict(codes(t2))
    code, m = next(iter(terms[k].items()))
    moved = dict(terms)
    moved[k] = {**{c: x for c, x in terms[k].items() if c != code},
                tuple(x + 1 for x in code): m}
    bad = decoded_series(moved.items(), t2.cutoff, t2.lattice_den, t2.denom)
    assert bad != t and qs.compare_qseries(t, bad) == \
        (e, f"coefficients at q^{e} differ at weight (-1/2, -1/2, 1/2): 0 against 1")


def test_scalar_and_lattice_kinds():
    rs = ALGEBRAS["B2"]
    one = qs.QSeries.one(2)
    lat = qs.QSeries({0: FormalCharacter.monomial(zero_vec(rs.dim))}, 2)
    # e^0 as a lattice coefficient is not the scalar 1, as before
    assert one != lat and qs.compare_qseries(one, lat) == \
        (0, "coefficients at q^0 differ: a scalar against a lattice coefficient")
    assert one * lat == lat and lat * one == lat
    with pytest.raises(TypeError):
        one + lat
    empty = qs.QSeries({}, 2)
    assert empty + lat == lat and lat + empty == lat and not empty * lat
    assert lat.coefficient(1) == FormalCharacter() and one.coefficient(1) == 0


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(ALGEBRAS)), st.data())
def test_chains_of_products_and_powers_match_fraction_series(name, data):
    # each product multiplies the packed dicts of the one before; its new
    # operand, over lattice denominator 1, 2 or 3, is raised to a power 1-3
    rs = ALGEBRAS[name]
    steps = data.draw(st.lists(st.tuples(st.sampled_from([1, 2, 3]), st.integers(1, 3)),
                               min_size=3, max_size=6))
    acc = facc = None
    for d, n in steps:
        s, fs = data.draw(root_series_pair(rs, d))
        if n > 1:
            s, fs = s ** n, fraction_power(fs, n)
        acc, facc = (s, fs) if acc is None else (acc * s, facc * fs)
        assert same(acc, facc)
        assert all(abs(x) <= acc.reach for _, c in codes(acc) for code in c for x in code)


@settings(max_examples=100, deadline=None)
@given(dim=st.integers(1, 8), data=st.data())
def test_codes_round_trip_through_coefficient_and_items(dim, data):
    # codes in, weights out, in their order, also at the corners of the box
    corners = [-characters._BOX, 1 - characters._BOX, characters._BOX - 1, characters._BOX]
    code = st.tuples(*[st.one_of(st.integers(-3, 3), st.sampled_from(corners))] * dim)
    layers = data.draw(st.dictionaries(
        st.integers(0, 12), st.dictionaries(code, st.integers(-3, 3).filter(bool), max_size=5),
        max_size=4))
    den, denom = data.draw(st.sampled_from([1, 2, 3, 6])), data.draw(st.sampled_from([1, 8, 24]))
    cutoff = Fraction(data.draw(st.integers(0, 12)), denom)
    s = decoded_series(layers.items(), cutoff, den, denom)
    want = {Fraction(k, denom): decode(c, den) for k, c in sorted(layers.items())
            if c and Fraction(k, denom) <= cutoff}
    assert s.items() == list(want.items())
    for e, fc in want.items():
        assert list(s.coefficient(e).items()) == list(fc.items())
    if want:
        assert s.coefficient(cutoff + 1) == FormalCharacter()
    # the reach bounds every code held, and at most every code given
    held = [abs(x) for _, c in codes(s) for v in c for x in v]
    supplied = [abs(x) for c in layers.values() for v in c for x in v]
    assert max(held, default=0) <= s.reach <= (max(supplied) if want else 0)


SMALL_BOX = 4


@pytest.fixture
def small_box(monkeypatch):
    """Every lattice series packs into the box |x| <= 4, radix 9."""
    monkeypatch.setattr(characters, "_BOX", SMALL_BOX)
    characters._box.cache_clear()
    yield
    monkeypatch.undo()
    characters._box.cache_clear()


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_reach_guard_refuses_products_that_could_leave_the_box(small_box, data):
    # a product whose operands' reaches, re-encoded to their common lattice
    # denominator, sum past the box raises; any other matches the oracle
    dim = data.draw(st.integers(1, 3))
    code = st.tuples(*[st.integers(-SMALL_BOX, SMALL_BOX)] * dim)

    def series():
        layers = data.draw(st.dictionaries(
            st.integers(0, 2), st.dictionaries(code, st.integers(-2, 2).filter(bool),
                                               min_size=1, max_size=3),
            min_size=1, max_size=3))
        den = data.draw(st.sampled_from([1, 2]))
        return (decoded_series(layers.items(), 2, den),
                FractionSeries({k: decode(c, den) for k, c in layers.items()}, 2))

    (a, fa), (b, fb) = series(), series()
    den = math.lcm(a.lattice_den, b.lattice_den)
    reach = [s.reach * (den // s.lattice_den) for s in (a, b)]
    if max(reach) > SMALL_BOX:
        with pytest.raises(ArithmeticError, match="beyond the packing box of 4$"):
            a * b
        with pytest.raises(ArithmeticError, match="beyond the packing box of 4$"):
            a == b
    elif sum(reach) > SMALL_BOX:
        with pytest.raises(ArithmeticError, match=f"may reach {sum(reach)}, beyond"):
            a * b
        assert same(a + b, fa + fb)
    else:
        assert same(a * b, fa * fb)


def test_reach_guard_names_the_alias_it_prevents(small_box):
    # in the radix-9 box the code (3, 0) + (3, 0) = (6, 0) would pack to the
    # key of (-3, 1)
    assert characters._box(2)[1]({6: 1}) == {(-3, 1): 1}
    a = decoded_series([(0, {(3, 0): 1})], 1, 1)
    with pytest.raises(ArithmeticError, match="^lattice codes may reach 6, beyond the "
                                              "packing box of 4$"):
        a * a
    # a re-encoding to twice the lattice denominator doubles the reach
    half = decoded_series([(0, {(1, 0): 1})], 1, 2)
    with pytest.raises(ArithmeticError, match="may reach 6"):
        a + half
    with pytest.raises(ArithmeticError, match="may reach 5"):
        decoded_series([(0, {(5, 0): 1})], 1, 1)
