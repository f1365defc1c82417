"""The group-ring product on packed codes against the tuple-code product it
replaced.

`characters.add_product` adds codes packed into one int each (a Kronecker
substitution over a box that holds every key).  The oracle is a test-local
copy of the tuple-code loop and of the denominator expansion built on it;
the packed finite Weyl denominator (`_root_codes`, behind `weyl_identity`,
`weyl_denominator` and the injection fan) must give its grade 0 in equal
dict order, on random image sets with negative coordinates in dimensions
1-9, and on images that drive terms to both corners of the box.  `FormalCharacter.__mul__`, which packs
its two operands and calls `add_product` once, is checked against the same
loop on weights over mixed denominators, and so is `add_product`'s dst
form, with a sign applied by negating one operand, on a test-local packing
(`packed_products`, also the packed product of the oracles in
`test_branch_numerator` and `test_denominator_recurrence`).
"""

import itertools
from fractions import Fraction
from operator import add

from hypothesis import given, settings
from hypothesis import strategies as st

from splintbranch.characters import FormalCharacter, _root_codes, add_product


def tuple_add_product(dst, a, b, sign=1):
    """The tuple-code product loop the packed one replaced."""
    for w, c in list(a.items()):
        c *= sign
        for v, d in b.items():
            u = tuple(map(add, w, v))
            x = dst.get(u, 0) + c * d
            if x:
                dst[u] = x
            else:
                del dst[u]
    return dst


def balanced_packing(dicts):
    """(pack, unpack) of {code: c} dicts for every code that is a key of one
    of dicts or the sum of two: x packs to sum_i x_i R^i, R = 2M + 1 and M
    twice the largest |coordinate| in dicts, and unpacks to its balanced
    base-R digits, each in -M..M.  Both keep dict order."""
    m = 2 * max((abs(x) for t in dicts for code in t for x in code), default=0)
    r = 2 * m + 1
    dim = next((len(code) for t in dicts for code in t), 0)

    def pack(terms):
        return {sum(x * r ** i for i, x in enumerate(code)): c for code, c in terms.items()}

    def digits(p):
        code = []
        for _ in range(dim):
            code.append((p + m) % r - m)
            p = (p - code[-1]) // r
        return tuple(code)

    def unpack(terms):
        return {digits(p): c for p, c in terms.items()}

    return pack, unpack


def negated(terms):
    return {k: -c for k, c in terms.items()}


def packed_products(sums, sign=1):
    """[dst + sign * (sum of a * b over pairs) for dst, pairs in sums] as new
    {code: coefficient} dicts: add_product pair by pair on the test-local
    packing of every dict given, a negated for sign -1."""
    pack, unpack = balanced_packing(
        [t for dst, pairs in sums for t in itertools.chain([dst], *pairs)])
    out = []
    for dst, pairs in sums:
        acc = pack(dst)
        for a, b in pairs:
            add_product(acc, pack(a) if sign == 1 else negated(pack(a)), pack(b))
        out.append(unpack(acc))
    return out


def tuple_denominator_codes(images, imaginary, cutoff):
    """The tuple-code expansion the packed one replaced."""
    zero = (0,) * len(images[0])
    layers = [{zero: 1}] + [{} for _ in range(cutoff)]
    negated = [tuple(-x for x in img) for img in images]
    factors = [(0, v) for v in negated]
    for n in range(1, cutoff + 1):
        factors += [(n, zero)] * imaginary
        factors += [(n, v) for v in negated]
        factors += [(n, img) for img in images]
    for n, v in factors:
        for m in range(cutoff, n - 1, -1):
            tuple_add_product(layers[m], layers[m - n], {v: 1}, -1)
    return layers


def ordered(layers):
    return [list(layer.items()) for layer in layers]


@st.composite
def image_sets(draw, max_images=5, coords=st.integers(-4, 4)):
    dim = draw(st.integers(1, 9))
    code = st.tuples(*[coords] * dim).filter(any)
    return draw(st.lists(code, min_size=1, max_size=max_images))


@settings(max_examples=150, deadline=None)
@given(images=image_sets())
def test_packed_denominator_matches_tuple_loop(images):
    # the graded layers are the recurrence's, against the same tuple loop in
    # test_denominator_recurrence
    got = _root_codes(images)
    assert ordered([got]) == ordered(tuple_denominator_codes(images, 0, 0))


@settings(max_examples=60, deadline=None)
@given(images=image_sets(max_images=6, coords=st.integers(0, 5)))
def test_packed_denominator_reaches_both_corners(images):
    # all factors e^{-img} point one way: the empty product sits at the box's
    # upper corner and the product of all of them at its lower corner, where
    # no other term can cancel it
    got = _root_codes(images)
    assert ordered([got]) == ordered(tuple_denominator_codes(images, 0, 0))
    corner = tuple(-sum(col) for col in zip(*images))
    assert got[(0,) * len(corner)] == 1
    assert got[corner] == (-1) ** len(images)


@st.composite
def product_sums(draw):
    dim = draw(st.integers(1, 9))
    code = st.tuples(*[st.integers(-6, 6)] * dim)
    terms = st.dictionaries(code, st.integers(-3, 3).filter(bool), max_size=6)
    sums = [(draw(terms), draw(st.lists(st.tuples(terms, terms), max_size=3)))
            for _ in range(draw(st.integers(1, 3)))]
    return sums, draw(st.sampled_from([1, -1]))


@settings(max_examples=100, deadline=None)
@given(case=product_sums())
def test_add_product_matches_tuple_loop(case):
    # dst form, signed by a negated operand: each dst gets sign times its
    # pairs' products added
    sums, sign = case
    want = []
    for dst, pairs in sums:
        acc = dict(dst)
        for a, b in pairs:
            tuple_add_product(acc, a, b, sign)
        want.append(list(acc.items()))
    assert [list(t.items()) for t in packed_products(sums, sign)] == want


def test_add_product_shares_operands_and_keeps_inputs():
    # one dict on both sides and in several pairs; inputs are not changed
    a = {(2, -1): 1, (-3, 4): -2}
    dst = {(0, 0): 5}
    got = packed_products([(dst, [(a, a), (a, a)]), ({}, [(a, {})])])
    want = tuple_add_product(tuple_add_product(dict(dst), a, a), a, a)
    assert [list(t.items()) for t in got] == [list(want.items()), []]
    assert dst == {(0, 0): 5} and a == {(2, -1): 1, (-3, 4): -2}
    # an operand may be dst itself, in either place or both: it is read
    # before it is added to
    pack, unpack = balanced_packing([a])
    for operands, sign in [(lambda p: (p, negated(p)), -1), (lambda p: (negated(p), p), -1),
                           (lambda p: (p, p), 1)]:
        p = pack(a)
        assert list(unpack(add_product(p, *operands(p))).items()) == list(
            tuple_add_product(dict(a), dict(a), a, sign).items())


@st.composite
def characters(draw):
    """Two FormalCharacters of one dimension 1-9, either possibly empty, with
    coordinates over the denominators 1, 2, 3, 4 and 6 mixed."""
    dim = draw(st.integers(1, 9))
    coord = st.builds(Fraction, st.integers(-6, 6), st.sampled_from([1, 2, 3, 4, 6]))
    weights = st.dictionaries(st.tuples(*[coord] * dim), st.integers(-3, 3).filter(bool),
                              max_size=6)
    return FormalCharacter(draw(weights)), FormalCharacter(draw(weights))


@settings(max_examples=150, deadline=None)
@given(case=characters())
def test_formal_character_product_matches_tuple_loop(case):
    a, b = case
    want = list(tuple_add_product({}, a.terms, b.terms).items())
    assert list((a * b).items()) == want
    assert list((b * a).terms) == list(tuple_add_product({}, b.terms, a.terms))


def test_formal_character_product_with_an_empty_operand():
    a = FormalCharacter({(Fraction(1, 2), Fraction(-3)): 2, (Fraction(2, 3), Fraction(0)): -1})
    empty = FormalCharacter()
    assert a * empty == empty and empty * a == empty and empty * empty == empty
    assert (a * empty).terms == {}
