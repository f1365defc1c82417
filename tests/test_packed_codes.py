"""The group-ring product on packed codes against the tuple-code product it
replaced.

`characters.add_product` adds codes packed into one int each (a Kronecker
substitution over a box that holds every key).  The oracle is a test-local
copy of the tuple-code loop and of the denominator expansion built on it;
the packed route must give equal layers in equal dict order, on random image
sets with negative coordinates in dimensions 1-9, and on images that drive
terms to both corners of the box.  `code_products`, the packed product
behind `FormalCharacter.__mul__`, is checked against the same loop.
"""

from operator import add

from hypothesis import given, settings
from hypothesis import strategies as st

from splintbranch.characters import _denominator_codes, code_products


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
@given(images=image_sets(), imaginary=st.integers(0, 3), cutoff=st.integers(0, 3))
def test_packed_denominator_matches_tuple_loop(images, imaginary, cutoff):
    got = _denominator_codes(images, imaginary, cutoff)
    assert ordered(got) == ordered(tuple_denominator_codes(images, imaginary, cutoff))


@settings(max_examples=60, deadline=None)
@given(images=image_sets(max_images=6, coords=st.integers(0, 5)))
def test_packed_denominator_reaches_both_corners(images):
    # all factors e^{-img} point one way: the empty product sits at the box's
    # upper corner and the product of all of them at its lower corner, where
    # no other term can cancel it
    got = _denominator_codes(images, 0, 0)
    assert ordered(got) == ordered(tuple_denominator_codes(images, 0, 0))
    corner = tuple(-sum(col) for col in zip(*images))
    assert got[0][(0,) * len(corner)] == 1
    assert got[0][corner] == (-1) ** len(images)


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
def test_code_products_match_tuple_loop(case):
    sums, sign = case
    want = []
    for dst, pairs in sums:
        acc = dict(dst)
        for a, b in pairs:
            tuple_add_product(acc, a, b, sign)
        want.append(list(acc.items()))
    assert [list(t.items()) for t in code_products(sums, sign)] == want


def test_code_products_share_operands_and_keep_inputs():
    # one dict on both sides and in several pairs is packed once; inputs are
    # not changed
    a = {(2, -1): 1, (-3, 4): -2}
    dst = {(0, 0): 5}
    got = code_products([(dst, [(a, a), (a, a)]), ({}, [(a, {})])])
    want = tuple_add_product(tuple_add_product(dict(dst), a, a), a, a)
    assert [list(t.items()) for t in got] == [list(want.items()), []]
    assert dst == {(0, 0): 5} and a == {(2, -1): 1, (-3, 4): -2}
