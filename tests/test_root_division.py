"""The Weyl-denominator division one root factor at a time against the heap
division it replaced.

`characters._divide_by_roots` divides a {code: int} dict by prod (1 - e^a)
over factor codes a, one binomial at a time on packed keys.  The oracle is
`characters.divide_exact`, the heap elimination against the expanded
denominator: on random integer numerators times the Weyl denominator, W-
invariant or not, both must give the same quotient in the same dict order.
The negative controls are inexact numerators (one extra monomial, a lone
monomial), and a numerator whose packed image is divisible while it is not:
its packed quotient leaves the box of the numerator.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from splintbranch.characters import (FormalCharacter, _divide_by_roots, common_denominator,
                                     decode, divide_exact, encode, rho_pairing,
                                     weyl_denominator)
from splintbranch.rootsystem import build_root_system

ALGEBRAS = ["A1", "A2", "A3", "A4", "B2", "B3", "C3", "D4", "G2", "A1xA1"]


@st.composite
def numerators(draw):
    """(root system, integer combination of weights with labels in -2..2)."""
    rs = build_root_system(draw(st.sampled_from(ALGEBRAS)))
    labels = st.tuples(*[st.integers(-2, 2)] * rs.rank)
    terms = draw(st.dictionaries(labels, st.integers(-3, 3).filter(bool), max_size=5))
    return rs, FormalCharacter({rs.weight_from_labels(y): c for y, c in terms.items()})


def on_codes(rs, numer):
    """(numerator, root factors, denominator, pairing) on codes over one
    denominator."""
    den = common_denominator(list(numer.terms) + list(rs.fundamental_weights)
                             + list(rs.positive_roots))
    roots = [encode(a, den) for a in rs.positive_roots]
    return ({encode(v, den): c for v, c in numer.items()},
            [tuple(-x for x in a) for a in reversed(roots)], den, rho_pairing(rs))


@settings(max_examples=60, deadline=None)
@given(numerators())
def test_root_factors_match_heap_division(case):
    rs, x = case
    numer = x * weyl_denominator(rs)
    codes, factors, den, pair = on_codes(rs, numer)
    ours = _divide_by_roots(codes, factors, pair)
    want = divide_exact(numer, weyl_denominator(rs), rs)
    assert list(decode(ours, den).items()) == list(want.items())
    assert len(ours) == len(x)


@pytest.mark.parametrize("name", ["A2", "B3", "G2", "A1xA1"])
def test_inexact_numerators_leave_a_remainder(name):
    rs = build_root_system(name)
    w = rs.fundamental_weights
    extra = FormalCharacter({w[0]: 2, w[-1]: -1}) * weyl_denominator(rs)
    extra.iadd(FormalCharacter.monomial(w[-1]))
    # a lone monomial: every class of the first step has a nonzero total
    for numer in (extra, FormalCharacter.monomial(w[0])):
        codes, factors, _, pair = on_codes(rs, numer)
        with pytest.raises(ArithmeticError, match="nonzero remainder"):
            _divide_by_roots(codes, factors, pair)


def test_empty_numerator_has_empty_quotient():
    assert _divide_by_roots({}, [(1, -1)], (1, 1)) == {}


def test_packed_divisibility_is_not_enough():
    # e^(0,0) - e^(0,1) is not divisible by 1 - e^(1,0), but packed over its
    # box widened by the factor (radices 2, 2) it maps to 1 - x^2, which is
    # (1 - x)(1 + x); the packed quotient 1 + x unpacks to e^(0,0) + e^(1,0),
    # outside the box of the numerator
    with pytest.raises(ArithmeticError, match="nonzero remainder"):
        _divide_by_roots({(0, 0): 1, (0, 1): -1}, [(1, 0)], (1, 1))
