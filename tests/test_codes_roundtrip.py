"""The integer-code pipeline returns exactly what the Fraction pipeline did.

`denominator_layers`, `divide_exact` and `affine_character` are compared,
dict order included, with digests of the outputs of the Fraction-keyed
implementation they replaced (SHA-256 of `repr(list(fc.terms.items()))`,
first 16 hex digits), and the denominator additionally with a test-local
copy of that Fraction expansion.
"""

import hashlib

import pytest

from splintbranch import affine as af
from splintbranch.characters import FormalCharacter, divide_exact
from splintbranch.rootsystem import build_root_system, vneg, zero_vec
from splintbranch.splints import find_splint


def digest(fc):
    return hashlib.sha256(repr(list(fc.terms.items())).encode()).hexdigest()[:16]


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
            layers[m] = layers[m] - (layers[m - n] * mono)
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


def items(layers):
    return [list(fc.terms.items()) for fc in layers]


@pytest.mark.parametrize("name,cutoff", sorted(DENOMINATOR))
def test_denominator_layers_round_trip(name, cutoff):
    rs = build_root_system(name)
    got = af.denominator_layers(rs.positive_roots, rs.rank, cutoff)
    assert items(got) == items(fraction_denominator_layers(rs.positive_roots, rs.rank,
                                                           cutoff))
    assert [digest(fc) for fc in got] == DENOMINATOR[(name, cutoff)]


@pytest.mark.parametrize("stem", sorted(STEMS))
def test_stem_denominator_layers_round_trip(stem):
    phi = getattr(find_splint("G2:A2A2"), stem)
    images = list(phi.pos_map.values())
    got = af.denominator_layers(images, phi.source.rank, 6)
    assert items(got) == items(fraction_denominator_layers(images, phi.source.rank, 6))
    assert [digest(fc) for fc in got] == STEMS[stem]


@pytest.mark.parametrize("name,labels,cutoff", sorted(CHARACTERS))
def test_affine_character_and_divide_exact_round_trip(name, labels, cutoff):
    rs = build_root_system(name)
    aw = af.AffineWeight(rs.weight_from_labels(labels), 1)
    gc = af.affine_character(rs, aw, cutoff)
    assert [digest(fc) for fc in gc.layers] == CHARACTERS[(name, labels, cutoff)]
    den0 = af.denominator_layers(rs.positive_roots, rs.rank, 0)[0]
    for layer in gc.layers:
        quotient = divide_exact(layer * den0, den0, rs)
        assert list(quotient.terms.items()) == list(layer.terms.items())
        # elimination order: highest first in (rho-pairing, lex)
        assert list(quotient.terms) == sorted(
            quotient.terms, key=lambda v: (rs.inner(v, rs.rho), v), reverse=True)
