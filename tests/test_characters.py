import pytest
from fractions import Fraction

from splintbranch.rootsystem import build_root_system, vadd, vneg, zero_vec
from splintbranch.characters import (FormalCharacter, character_via_weyl,
                                     decompose_character, freudenthal_character,
                                     singular_element, weyl_denominator,
                                     weyl_dimension, weyl_identity)
from splintbranch.splints import find_splint


def labels_of(rs, fc):
    return {tuple(rs.dynkin_labels(v)): c for v, c in fc.items()}


def test_singular_element_a1():
    a1 = build_root_system("A1")
    zero = zero_vec(a1.dim)
    alpha = a1.simple_roots[0]
    se = singular_element(a1, zero)
    assert dict(se.items()) == {zero: 1, vneg(alpha): -1}
    w = a1.fundamental_weights[0]
    se = singular_element(a1, w)
    assert dict(se.items()) == {w: 1, vneg(vadd(w, alpha)): -1}


def test_singular_element_a2_matches_denominator():
    a2 = build_root_system("A2")
    se = singular_element(a2, zero_vec(a2.dim))
    assert len(se) == 6
    assert se == weyl_denominator(a2)


def test_truth_and_hash_of_a_character():
    # truth comes from __len__; __eq__ without __hash__ leaves the class
    # unhashable, so a character is never a dict key
    a1 = build_root_system("A1")
    fc = freudenthal_character(a1, a1.fundamental_weights[0])
    assert fc and not FormalCharacter() and not (fc - fc)
    for x in (fc, FormalCharacter()):
        with pytest.raises(TypeError):
            hash(x)


class Altered:
    """A root system with some attributes replaced (negative controls)."""

    def __init__(self, rs, **changed):
        self._rs = rs
        self.__dict__.update(changed)

    def __getattr__(self, name):
        return getattr(self._rs, name)


WEYL_IDENTITY_ALGEBRAS = ["A1", "A2", "A3", "A4", "B2", "B3", "B4", "C3", "D4", "D5",
                          "F4", "G2", "A1xA1", "A2xG2"]


@pytest.mark.parametrize("name", WEYL_IDENTITY_ALGEBRAS)
def test_weyl_identity_on_codes_matches_fraction_check(name):
    # the code-level check behind verify --identity weyl against its
    # Fraction-edge statement; both sides stay independent computations
    rs = build_root_system(name)
    assert weyl_identity(rs) is True
    assert singular_element(rs, zero_vec(rs.dim)) == weyl_denominator(rs)


@pytest.mark.parametrize("name", ["A2", "B3", "G2", "A1xA1", "A2xG2"])
def test_weyl_identity_negative_controls(name):
    rs = build_root_system(name)
    dropped = Altered(rs, positive_roots=rs.positive_roots[1:])
    assert weyl_identity(dropped) is False

    def flipped(labels, fw, offset):
        orbit = rs.label_orbit(labels, fw, offset)
        return orbit[:-1] + [(orbit[-1][0], -orbit[-1][1])]

    assert weyl_identity(Altered(rs, label_orbit=flipped)) is False


def test_singular_element_rejects_bad_weights():
    a1 = build_root_system("A1")
    with pytest.raises(ValueError):
        singular_element(a1, vneg(a1.fundamental_weights[0]))


def test_freudenthal_small_modules():
    a1 = build_root_system("A1")
    two = a1.weight_from_labels([2])
    fc = freudenthal_character(a1, two)
    assert labels_of(a1, fc) == {(2,): 1, (0,): 1, (-2,): 1}

    a2 = build_root_system("A2")
    adj = a2.weight_from_labels([1, 1])
    fc = freudenthal_character(a2, adj)
    assert fc.total() == 8
    assert fc.get(zero_vec(a2.dim)) == 2
    assert all(fc.get(a) == 1 for a in a2.roots)

    g2 = build_root_system("G2")
    fc = freudenthal_character(g2, g2.weight_from_labels([1, 0]))
    assert fc.total() == 7
    assert fc.get(zero_vec(g2.dim)) == 1
    shorts = [v for v in g2.roots if g2.inner(v, v) == Fraction(2, 3)]
    assert len(shorts) == 6 and all(fc.get(v) == 1 for v in shorts)


def test_weyl_dimension_examples():
    a1 = build_root_system("A1")
    for n in range(6):
        assert weyl_dimension(a1, a1.weight_from_labels([n])) == n + 1
    a2 = build_root_system("A2")
    assert weyl_dimension(a2, a2.weight_from_labels([1, 1])) == 8
    g2 = build_root_system("G2")
    assert weyl_dimension(g2, g2.weight_from_labels([0, 1])) == 14


def test_character_via_weyl_trivial_cases():
    a1 = build_root_system("A1")
    assert dict(character_via_weyl(a1, zero_vec(a1.dim)).items()) == \
        {zero_vec(a1.dim): 1}
    w = a1.fundamental_weights[0]
    assert labels_of(a1, character_via_weyl(a1, w)) == {(1,): 1, (-1,): 1}


def test_b2_spinor_fundamental():
    b2 = build_root_system("B2")
    mu = b2.weight_from_labels([0, 1])
    fc = freudenthal_character(b2, mu)
    assert fc.total() == 4
    assert set(fc.terms.values()) == {1}
    assert fc == character_via_weyl(b2, mu)


@pytest.mark.parametrize("name,bound", [("A1", 8), ("A2", 5), ("B2", 4), ("G2", 4)])
def test_freudenthal_equals_weyl_quotient(name, bound):
    # acceptance covers the full (rho, mu) <= 12 sweep; this is the fast slice
    rs = build_root_system(name)
    import itertools
    for labels in itertools.product(range(3), repeat=rs.rank):
        mu = rs.weight_from_labels(labels)
        if rs.inner(rs.rho, mu) > bound:
            continue
        freud = freudenthal_character(rs, mu)
        assert freud == character_via_weyl(rs, mu)
        assert freud.total() == weyl_dimension(rs, mu)


def test_characters_are_weyl_invariant():
    g2 = build_root_system("G2")
    fc = freudenthal_character(g2, g2.weight_from_labels([1, 1]))
    for a in g2.simple_roots:
        reflected = FormalCharacter((g2.reflect(v, a), c) for v, c in fc.items())
        assert reflected == fc


def test_singular_element_is_character_times_denominator():
    b2 = build_root_system("B2")
    mu = b2.weight_from_labels([1, 2])
    lhs = singular_element(b2, mu)
    rhs = freudenthal_character(b2, mu) * weyl_denominator(b2)
    assert lhs == rhs


def test_decompose_character_roundtrip():
    a2 = build_root_system("A2")
    mix = freudenthal_character(a2, a2.weight_from_labels([1, 1])) + \
        freudenthal_character(a2, a2.weight_from_labels([1, 0])).scale(3)
    table = decompose_character(a2, mix)
    assert {tuple(map(int, a2.dynkin_labels(v))): c for v, c in table.items()} == \
        {(1, 1): 1, (1, 0): 3}


def test_decompose_character_rejects_non_module():
    a1 = build_root_system("A1")
    bogus = FormalCharacter.monomial(a1.fundamental_weights[0], -1)
    with pytest.raises(ValueError):
        decompose_character(a1, bogus)


def test_decompose_rejects_negative_leading_coefficient():
    # W-invariant but not a module: peeling L(alpha) off leaves -1 at weight
    # 0, a weight pushed onto the heap from outside the remainder
    a1 = build_root_system("A1")
    zero = zero_vec(a1.dim)
    fc = freudenthal_character(a1, a1.simple_roots[0]) - freudenthal_character(a1, zero)
    with pytest.raises(ValueError, match=r"negative leading coefficient -1 at \(0, 0\)"):
        decompose_character(a1, fc)
    # the same through the subalgebra view of the splint B2:A1A2
    fc = (FormalCharacter.monomial((Fraction(1), Fraction(-1)))
          + FormalCharacter.monomial((Fraction(-1), Fraction(1))))
    with pytest.raises(ValueError, match=r"negative leading coefficient -1 at \(0, 0\)"):
        find_splint("B2:A1A2").subalgebra_view().decompose(fc)


def test_character_cache_is_thread_safe():
    import threading
    g2 = build_root_system("G2")
    weights = [g2.weight_from_labels([a, b]) for a in range(3) for b in range(2)]
    results = [None] * 8
    def worker(i):
        results[i] = [freudenthal_character(g2, mu).total() for mu in weights]
    threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    dims = [weyl_dimension(g2, mu) for mu in weights]
    assert all(r == dims for r in results)
