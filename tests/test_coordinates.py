"""The coordinate type of weights built from integer codes.

`rootsystem.FractionCache` builds Fractions that compute their hash once.
They must hash, print, compare, pickle and copy exactly like `Fraction`,
arithmetic on them must return plain Fractions, and every weight the package
builds from codes must be a tuple of them, so results stay usable as dict
keys without `Fraction.__hash__`.
"""

import copy
import pickle
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from splintbranch import affine as af
from splintbranch.characters import character_via_weyl, freudenthal_character
from splintbranch.rootsystem import FractionCache, build_root_system
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
