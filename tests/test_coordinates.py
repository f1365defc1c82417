"""The coordinate type of weights built from integer codes.

`rootsystem.FractionCache` builds Fractions that compute their hash once.
They must hash, print, compare, pickle and copy exactly like `Fraction`,
arithmetic on them must return plain Fractions, and every weight the package
builds from codes must be a tuple of them, so results stay usable as dict
keys without `Fraction.__hash__`.  Every cache hands out one object per
value, built on the value's first miss in any cache, so two results compare
equal without `Fraction.__eq__`: their weights share their coordinates.
"""

import copy
import operator
import pickle
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from splintbranch import affine as af
from splintbranch import rootsystem
from splintbranch.characters import (character_via_weyl, freudenthal_character,
                                     singular_element, weyl_denominator)
from splintbranch.rootsystem import FractionCache, build_root_system, zero_vec
from splintbranch.splints import find_splint

numerators = st.integers(-10**30, 10**30)
denominators = st.integers(-10**30, 10**30).filter(bool)


@given(numerators, denominators)
def test_hash_repr_and_str_are_fractions(num, den):
    x, plain = FractionCache(den)[num], Fraction(num, den)
    assert type(x) is not Fraction and isinstance(x, Fraction)
    assert x == plain and hash(x) == hash(plain)
    if plain.denominator == 1:
        assert hash(x) == hash(plain.numerator)
    assert repr(x) == repr(plain) and str(x) == str(plain)
    assert {plain: 1}[x] == 1 and {x: 1}[plain] == 1
    assert {(plain, 0): 1}[x, 0] == 1 and {(x, 0): 1}[plain, 0] == 1


@given(numerators, denominators, numerators, denominators)
def test_arithmetic_returns_plain_fractions(n1, d1, n2, d2):
    x, y = FractionCache(d1)[n1], FractionCache(d2)[n2]
    results = [x + y, x - y, x * y, -x, +x, abs(x), x ** 2, x + 1, 1 - x, 2 * x, x % 3]
    if y:
        results += [x / y, x % y]
    assert all(type(r) is Fraction for r in results)
    assert x + y == Fraction(n1, d1) + Fraction(n2, d2)


@pytest.mark.parametrize("num, den", [(0, 1), (3, 1), (-7, 3), (2, 6), (10**40 + 1, 10**20)])
def test_pickle_and_copy_round_trip(num, den):
    x = FractionCache(den)[num]
    copies = [pickle.loads(pickle.dumps(x, p)) for p in range(pickle.HIGHEST_PROTOCOL + 1)]
    copies += [copy.copy(x), copy.deepcopy(x)]
    for y in copies:
        assert type(y) is type(x) and y == x
        assert hash(y) == hash(Fraction(num, den)) and repr(y) == repr(x)


def test_results_stay_dict_keys_without_fraction_hash(monkeypatch):
    g2 = build_root_system("G2")
    mu = g2.weight_from_labels([1, 1])
    fr, wq = freudenthal_character(g2, mu), character_via_weyl(g2, mu)
    orbit = g2.weyl_orbit(mu)
    s = find_splint("G2:A2A2")
    aw = af.AffineWeight(g2.weight_from_labels([1, 0]), 1)
    gc = af.affine_character(g2, aw, 3)
    bs = af.graded_branch_to_g(g2, aw, 3, gc)
    sub = af.branch_affine_to_subalgebra(g2, s, aw, 3, gc)

    def refuse(self):
        raise AssertionError("Fraction.__hash__ called")

    monkeypatch.setattr(Fraction, "__hash__", refuse)
    with pytest.raises(AssertionError):
        hash(Fraction(1, 3))
    # each dict(...) below hashes every key again
    assert fr == wq and dict(fr.items()) == fr.terms
    assert sorted(fr.terms) == sorted(dict(wq.items()))
    assert len(dict(orbit)) == len(orbit) == 12
    assert sorted(orbit) == orbit
    assert {v for v, _ in orbit} <= set(fr.terms)
    for series in (bs, sub):
        assert series.entries and dict(series.entries.items()) == series.entries
        assert sorted(series.entries) == sorted(dict(series.entries.items()))
    assert len(set(g2.positive_roots)) == 6


small_denominators = st.integers(1, 12).flatmap(lambda d: st.sampled_from((d, -d)))


@given(st.integers(-10**6, 10**6), small_denominators, small_denominators, st.booleans(),
       st.integers(-10**6, 10**6), small_denominators)
def test_equal_values_are_one_object(num, d1, d2, fraction_key, other, d3):
    value = Fraction(num, d1)
    x = FractionCache(d1)[Fraction(num) if fraction_key else num]
    # the same value through another denominator, keyed by an int where it can be
    key = value * d2
    y = FractionCache(d2)[key.numerator if key.denominator == 1 and not fraction_key else key]
    assert x is y and x == value
    assert hash(x) == hash(value) and repr(x) == repr(value) and str(x) == str(value)
    z = FractionCache(d3)[other]
    assert (z is x) == (Fraction(other, d3) == value)
    copies = [pickle.loads(pickle.dumps(x, p)) for p in range(pickle.HIGHEST_PROTOCOL + 1)]
    for c in copies + [copy.copy(x), copy.deepcopy(x)]:
        assert c == x and x == c and c == value and hash(c) == hash(value)
        assert repr(c) == repr(value) and str(c) == str(value)


def test_a_table_hit_builds_no_coordinate(monkeypatch):
    built = []
    new = rootsystem._Coordinate.__new__

    def counted(cls, *args):
        built.append(args)
        return new(cls, *args)

    FractionCache(7)[3]
    monkeypatch.setattr(rootsystem._Coordinate, "__new__", staticmethod(counted))
    # 3/7 through other denominators and key types: table hits, nothing built
    got = [FractionCache(7)[3], FractionCache(14)[6], FractionCache(-7)[-3],
           FractionCache(1)[Fraction(3, 7)], FractionCache(2)[Fraction(6, 7)]]
    assert built == [] and all(x is got[0] for x in got)
    fresh = FractionCache(1)[Fraction(10**40 + 1, 7)]
    assert built == [(10**40 + 1, 7)] and FractionCache(7)[10**40 + 1] is fresh


def refuse_fraction_eq(monkeypatch):
    def refuse(self, other):
        raise AssertionError("Fraction.__eq__ called")

    monkeypatch.setattr(Fraction, "__eq__", refuse)
    with pytest.raises(AssertionError):
        Fraction(1, 3) == Fraction(2, 3)


def assert_equal_sharing(left: dict, right: dict, monkeypatch, weight=lambda k: k):
    """left == right with Fraction.__eq__ refused, and the weight of each key
    of left made of the very coordinate objects of its equal in right."""
    keys = {k: k for k in right}
    refuse_fraction_eq(monkeypatch)
    assert left == right
    for k in left:
        assert all(map(operator.is_, weight(k), weight(keys[k])))


# the README's list of the Weyl identity's algebras in the tests
WEYL_ALGEBRAS = ["A1", "A2", "A3", "A4", "B2", "B3", "B4", "C3", "D4", "D5", "F4", "G2",
                 "A1xA1", "A2xG2"]


@pytest.mark.parametrize("name", WEYL_ALGEBRAS)
def test_weyl_identity_statement_without_fraction_eq(name, monkeypatch):
    rs = build_root_system(name)
    left, right = singular_element(rs, zero_vec(rs.dim)), weyl_denominator(rs)
    assert len(left) == rs.weyl_order
    assert_equal_sharing(left.terms, right.terms, monkeypatch)


@pytest.mark.parametrize("name, labels", [("G2", (1, 1)), ("B3", (1, 0, 1)), ("A3", (2, 0, 1)),
                                          ("C3", (0, 1, 0)), ("A1xA1", (3, 1))])
def test_character_routes_equal_without_fraction_eq(name, labels, monkeypatch):
    rs = build_root_system(name)
    mu = rs.weight_from_labels(labels)
    fr, wq = freudenthal_character(rs, mu), character_via_weyl(rs, mu)
    assert_equal_sharing(fr.terms, wq.terms, monkeypatch)


def test_composed_and_direct_branching_equal_without_fraction_eq(monkeypatch):
    g2 = build_root_system("G2")
    s = find_splint("G2:A2A2")
    aw = af.AffineWeight(g2.weight_from_labels([1, 0]), 1)
    gc = af.affine_character(g2, aw, 3)
    composed = af.branch_affine_to_subalgebra(g2, s, aw, 3, gc)
    direct = af.branch_affine_direct(g2, s, aw, 3, gc=gc)
    assert len(composed.entries) > 1
    # entries are keyed by (weight, grade)
    assert_equal_sharing(composed.entries, direct.entries, monkeypatch, weight=lambda k: k[0])
