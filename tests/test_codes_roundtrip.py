"""The integer-code pipeline returns exactly what the Fraction pipeline did.

`divide_exact` and `affine_character` are compared, dict order included,
with digests of the outputs of the Fraction-keyed implementation they
replaced (SHA-256 of `repr(list(fc.terms.items()))`, first 16 hex digits).
The affine denominator's digests are pinned on a test-local copy of that
Fraction expansion, binomial by binomial, whose dict order they record; the
layers of `characters._affine_denominator`, decoded, must equal it as
mappings, and grade 0, the finite Weyl denominator, in dict order too.  The
one code-level group-ring product (`FormalCharacter.__mul__`,
`weyl_denominator`) is compared with a test-local copy of the Fraction
convolution it replaced.
"""

import hashlib
import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from splintbranch import affine as af
from splintbranch.characters import (FormalCharacter, _affine_denominator, common_denominator,
                                     decode, divide_exact, encode, weyl_denominator)
from splintbranch.rootsystem import build_root_system, vadd, vneg, vscale, zero_vec
from splintbranch.splints import find_splint


def digest(fc):
    return hashlib.sha256(repr(list(fc.terms.items())).encode()).hexdigest()[:16]


def fraction_product(a, b):
    """The Fraction-keyed convolution FormalCharacter.__mul__ replaced."""
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


def fraction_denominator_layers(pos_images, imaginary, cutoff):
    """The Fraction-keyed expansion the code-level one replaced."""
    zero = zero_vec(len(pos_images[0]))
    layers = [FormalCharacter.monomial(zero)] + [FormalCharacter() for _ in range(cutoff)]
    factors = [(0, vneg(img)) for img in pos_images]
    for n in range(1, cutoff + 1):
        factors += [(n, zero)] * imaginary
        factors += [(n, vneg(img)) for img in pos_images]
        factors += [(n, img) for img in pos_images]
    for n, v in factors:
        mono = FormalCharacter.monomial(v)
        for m in range(cutoff, n - 1, -1):
            layers[m] = layers[m] - fraction_product(layers[m - n], mono)
    return layers


DENOMINATOR = {
    ("G2", 7): ["a71b61f3df17214f", "3de2b86d2ae0bdbc", "20786f9a71a7f06a",
                "79dbe8a99e36af0b", "4f53cda18c2baa0c", "7b52b8004cc1c7b4",
                "52798f58e7147964", "db9ce6a8aab81ed9"],
    ("C3", 3): ["e0164683cc49aac8", "7f4a3f33d21ebdc4", "9a1a091abcde39b5",
                "017a0ede9a21ac78"],
    ("A3", 4): ["ed5528eb0d460bdd", "b5476d1fe3bf5779", "15d887e1551cafb6",
                "dbd7216c35f5d1b0", "690d51a92f1a9f83"],
}

STEMS = {   # G2:A2A2 at cutoff 6
    "phi1": ["af88afcaf197d62e", "c4e76bcf0c4ca415", "ae09d663808e5998",
             "4f53cda18c2baa0c", "da0e47d0558ec62f", "f54f47984e12a9cd",
             "f99b364a22c45fe1"],
    "phi2": ["71907ced140d9275", "02169e45d9199dc4", "11c4d9db100ea651",
             "4f53cda18c2baa0c", "6eaf8d776e407f26", "9c02cfffb8202f1a",
             "6acb86e56fecfbc3"],
}

# level-1 characters: layers of affine_character, which are also the
# quotients divide_exact(layer * den[0], den[0]) in the same order
CHARACTERS = {
    ("G2", (0, 0), 7): ["a510f6417fb78a76", "6fa4f67be9d6fb62", "b225b74d32254b8a",
                        "0d2b870755e1b3ad", "d23d05926511318b", "016f8cf0c69765c6",
                        "950e1584ac04f5a1", "fb52b0aaf7133cfc"],
    ("C3", (0, 0, 0), 3): ["a510f6417fb78a76", "3c1474634d129b7f", "7db342f23b7eb47b",
                           "6eaee3902e813aea"],
    ("A3", (0, 0, 0), 4): ["353b0a5e355cdd7c", "14c06e5419f0187b", "a1c85f8891fa140d",
                           "b22f0954185574de", "b81ccaf7e3c5816b"],
    ("C3", (1, 0, 0), 2): ["6565fc2ca82ce752", "f1c57179d6d082b7", "f37081aa142db538"],
    ("G2", (1, 0), 4): ["a02ff5ea54600093", "8da7ebaae28e70db", "b98f1af5fc54cdf6",
                        "37d819320f5ea92c", "a83c4212ed7fbd2f"],
}


def decoded_layers(pos_images, imaginary, cutoff):
    """The layers of _affine_denominator on the images' codes, decoded."""
    den = common_denominator(pos_images)
    codes = [encode(img, den) for img in pos_images]
    return [decode(layer, den) for layer in _affine_denominator(codes, imaginary, cutoff).codes]


def check_denominator(pos_images, imaginary, cutoff, digests):
    want = fraction_denominator_layers(pos_images, imaginary, cutoff)
    assert [digest(fc) for fc in want] == digests
    got = decoded_layers(pos_images, imaginary, cutoff)
    assert got == want
    assert list(got[0].terms.items()) == list(want[0].terms.items())


@pytest.mark.parametrize("name,cutoff", sorted(DENOMINATOR))
def test_denominator_layers_round_trip(name, cutoff):
    rs = build_root_system(name)
    check_denominator(rs.positive_roots, rs.rank, cutoff, DENOMINATOR[(name, cutoff)])


@pytest.mark.parametrize("stem", sorted(STEMS))
def test_stem_denominator_layers_round_trip(stem):
    phi = getattr(find_splint("G2:A2A2"), stem)
    check_denominator(list(phi.pos_map.values()), phi.source.rank, 6, STEMS[stem])


@pytest.mark.parametrize("name,labels,cutoff", sorted(CHARACTERS))
def test_affine_character_and_divide_exact_round_trip(name, labels, cutoff):
    rs = build_root_system(name)
    aw = af.AffineWeight(rs.weight_from_labels(labels), 1)
    gc = af.affine_character(rs, aw, cutoff)
    assert [digest(fc) for fc in gc.layers] == CHARACTERS[(name, labels, cutoff)]
    den0 = weyl_denominator(rs)
    for layer in gc.layers:
        quotient = divide_exact(layer * den0, den0, rs)
        assert list(quotient.terms.items()) == list(layer.terms.items())
        # elimination order: highest first in (rho-pairing, lex)
        assert list(quotient.terms) == sorted(
            quotient.terms, key=lambda v: (rs.inner(v, rs.rho), v), reverse=True)


# ---------------------------------------------------------------------------
# the one group-ring product against the Fraction convolution

PRODUCT_ALGEBRAS = {name: build_root_system(name) for name in ("G2", "B3", "C3")}


@st.composite
def character(draw, rs):
    """Up to 6 terms at weights with labels in -2..2 scaled by 1, 1/2 or 1/3
    (halves and thirds on top of the lattice's own), coefficients in -2..2:
    small enough that sums collide and products cancel terms."""
    terms = draw(st.lists(st.tuples(
        st.lists(st.integers(-2, 2), min_size=rs.rank, max_size=rs.rank),
        st.sampled_from([1, 2, 3]), st.integers(-2, 2)), max_size=6))
    return FormalCharacter([(vscale(rs.weight_from_labels(labels), Fraction(1, k)), c)
                            for labels, k, c in terms])


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(sorted(PRODUCT_ALGEBRAS)), st.data())
def test_product_matches_fraction_convolution(name, data):
    rs = PRODUCT_ALGEBRAS[name]
    a, b = data.draw(character(rs)), data.draw(character(rs))
    got = a * b
    # dict order included: products feed the ordered digests above
    assert list(got.terms.items()) == list(fraction_product(a, b).terms.items())


def test_product_edge_cases():
    rs = PRODUCT_ALGEBRAS["G2"]
    zero, a = zero_vec(rs.dim), vscale(rs.positive_roots[0], Fraction(1, 3))
    plus = FormalCharacter({zero: 1, a: 1})
    minus = FormalCharacter({zero: 1, a: -1})
    for x, y in [(plus, FormalCharacter()), (FormalCharacter(), minus),
                 (FormalCharacter(), FormalCharacter()), (plus, minus), (minus, plus)]:
        assert list((x * y).terms.items()) == list(fraction_product(x, y).terms.items())
    # (1 + e^a)(1 - e^a): the two middle terms cancel
    assert plus * minus == FormalCharacter({zero: 1, vscale(a, 2): -1})
    assert not plus * FormalCharacter()


def fraction_weyl_denominator(rs):
    prod = FormalCharacter.monomial(zero_vec(rs.dim))
    for a in rs.positive_roots:
        prod = fraction_product(prod, FormalCharacter({zero_vec(rs.dim): 1, vneg(a): -1}))
    return prod


SIMPLE_UP_TO_4 = ["A1", "A2", "B2", "C2", "G2", "A3", "B3", "C3",
                  "A4", "B4", "C4", "D4", "F4"]
# every algebra of rank <= 4 (as products of the simple ones), plus D5
WEYL_ALGEBRAS = sorted({"x".join(combo)
                        for k in range(1, 5)
                        for combo in itertools.combinations_with_replacement(SIMPLE_UP_TO_4, k)
                        if sum(int(f[1:]) for f in combo) <= 4} | {"D5"})


@pytest.mark.parametrize("name", WEYL_ALGEBRAS)
def test_weyl_denominator_matches_fraction_product(name):
    rs = build_root_system(name)
    assert weyl_denominator(rs) == fraction_weyl_denominator(rs)
