"""The affine denominator by the q-log-derivative recurrence against the
test-local binomial expansion.

`characters._affine_denominator` computes grade n of
prod_img (1 - e^{-img}) prod_n (1 - q^n)^imaginary (1 - q^n e^{-img})(1 - q^n e^{img})
from the grades below it, once per process, packed in the one box of its
dimension, and keeps the grades, their codes and their reaches in a cache
entry that a deeper request extends.  The oracle is
`test_packed_codes.tuple_denominator_codes`, the test-local
binomial-by-binomial expansion on tuple codes: every layer, unpacked, must
be equal as a mapping, on random image sets and on the stems and ambient of
the catalog splints.  Seeded with 1 instead of prod_img (1 - e^{-img}) (not
rooted), the layers times that product must be the rooted ones.  The
recurrence builds its own grade 0 by `characters._root_factors`, the one
expansion of the finite Weyl denominator, packed in the box: the catalog
stems and ambients (rooted) and the fold's D' of each catalog ambient on
labels (unrooted) match the tuple-code expansion, grade 0 included, and
grade 0 is `characters._root_codes`, the same product in its own box, in
dict order, on random image sets.  Two requests in a row must give the layers, dict order included,
of one request against an empty cache; an entry grown one grade at a time
must equal one built at once, packed dicts, dict order and reaches
included; and threads asking at once must leave the deepest entry.  A
cutoff whose box bound (2 cutoff + 1) sum |img| leaves the box is refused
before anything is packed.  A corrupted cached grade makes the next grade
non-integral, which the CLI reports with exit 3 instead of rounding.
"""

import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from splintbranch import characters
from splintbranch.characters import (_BOX, _affine_denominator, _box, common_denominator,
                                     encode)
from splintbranch.cli import main
from splintbranch.splints import find_splint
from test_packed_codes import image_sets, packed_products, tuple_denominator_codes

SPLINTS = ["G2:A2A2", "B2:A1A1", "B2:A1A2", "A2:A1A1A1", "A3:A2A1A1A1"]


def ordered(layers):
    return [list(layer.items()) for layer in layers]


def unpacked(images, grades):
    """Packed grades of the given images' dimension as {code: coefficient} dicts."""
    return list(map(_box(len(images[0]))[1], grades))


def layers(images, imaginary, cutoff, rooted=True):
    """The grades 0..cutoff of _affine_denominator, unpacked here."""
    return unpacked(images, _affine_denominator(images, imaginary, cutoff, rooted).grades)


@settings(max_examples=150, deadline=None)
@given(images=image_sets(), imaginary=st.integers(0, 3),
       cutoffs=st.tuples(st.integers(0, 6), st.integers(0, 6)))
def test_recurrence_matches_binomial_expansion(images, imaginary, cutoffs):
    characters._layer_cache.clear()
    first, second = [_affine_denominator(images, imaginary, c) for c in cutoffs]
    for got, cutoff in zip((first, second), cutoffs):
        assert unpacked(images, got.grades) == tuple_denominator_codes(images, imaginary,
                                                                       cutoff)
    # the shallower request is the deeper one's prefix, not a recomputation
    assert all(a is b for a, b in zip(first.grades, second.grades))
    characters._layer_cache.clear()
    assert ordered(unpacked(images, second.grades)) == ordered(
        layers(images, imaginary, cutoffs[1]))


@settings(max_examples=60, deadline=None)
@given(images=image_sets(), imaginary=st.integers(0, 3), cutoff=st.integers(0, 5))
def test_unrooted_layers_times_the_root_factors_are_the_rooted_layers(images, imaginary,
                                                                      cutoff):
    # the unrooted expansion seeds the same recurrence with 1 and keeps its
    # own cache entry
    characters._layer_cache.clear()
    unrooted = layers(images, imaginary, cutoff, rooted=False)
    rooted = layers(images, imaginary, cutoff)
    assert unrooted[0] == {(0,) * len(images[0]): 1}
    (root_factors,) = tuple_denominator_codes(images, 0, 0)
    assert packed_products([({}, [(root_factors, layer)]) for layer in unrooted]) == rooted
    assert layers(images, imaginary, cutoff, rooted=False) == unrooted


@settings(max_examples=60, deadline=None)
@given(images=image_sets(), imaginary=st.integers(0, 3), rooted=st.booleans())
def test_grown_entry_equals_one_built_at_once(images, imaginary, rooted):
    # grown one grade at a time to 8, only the new grades are computed: the
    # entry equals one built at 8 on an empty cache, the same packed dicts
    # and codes in the same dict order, each code dict is its grade
    # unpacked, and each reach is the largest |coordinate| of its grade
    characters._layer_cache.clear()
    grown = [_affine_denominator(images, imaginary, c, rooted) for c in range(9)][-1]
    characters._layer_cache.clear()
    fresh = _affine_denominator(images, imaginary, 8, rooted)
    assert ordered(grown.grades) == ordered(fresh.grades)
    assert ordered(grown.codes) == ordered(fresh.codes)
    assert grown.reaches == fresh.reaches
    codes = unpacked(images, grown.grades)
    assert ordered(grown.codes) == ordered(codes)
    assert list(grown.reaches) == [max((abs(x) for v in layer for x in v), default=0)
                                   for layer in codes]
    if rooted:
        assert codes == tuple_denominator_codes(images, imaginary, 8)


def test_cutoff_beyond_the_box_is_refused_before_packing(monkeypatch):
    # (2 cutoff + 1) sum |img| = 5 * 3 = 15 in the first coordinate: grade 1 is
    # refused in a box of 14, before the cache entry is made or grown
    images = [(1, 0), (2, 1)]
    packed = []
    real = characters._packing
    monkeypatch.setattr(characters, "_packing", lambda *a: packed.append(a) or real(*a))
    characters._box.cache_clear()
    monkeypatch.setattr(characters, "_BOX", 14)
    try:
        characters._layer_cache.clear()
        with pytest.raises(ArithmeticError, match="^lattice codes may reach 15, beyond the "
                                                  "packing box of 14$"):
            _affine_denominator(images, 1, 2)
        assert not packed and not characters._layer_cache
        assert layers(images, 1, 1) == tuple_denominator_codes(images, 1, 1)
        with pytest.raises(ArithmeticError, match="may reach 15"):
            _affine_denominator(images, 1, 2)
        assert len(characters._layer_cache[(tuple(images), 1, True)].grades) == 2
    finally:
        characters._layer_cache.clear()
        monkeypatch.undo()
        characters._box.cache_clear()
    assert characters._BOX == _BOX      # the patch is undone


def test_cutoff_beyond_the_box_exits_3(capsys):
    # at cutoff 2**22 the images of the first stem, a coordinate of which
    # sums to 2 in absolute value, may reach 2 (2**23 + 1), beyond the box:
    # refused before any grade is computed
    characters._layer_cache.clear()
    code = main(["verify", "--identity", "denominator", "--splint", "B2:A1A1",
                 "--grade-max", str(1 << 22), "--no-cache"])
    err = capsys.readouterr().err
    assert code == 3
    assert err == (f"internal error: ArithmeticError: lattice codes may reach "
                   f"{2 * (1 << 23) + 2}, beyond the packing box of {_BOX}\n")


def stem_and_ambient_images():
    """(case id, images, [rank, |positive roots|]) of both stems and the
    ambient of every catalog splint, the images coded over one denominator."""
    cases = []
    for name in SPLINTS:
        s = find_splint(name)
        for part, images, source in [("phi1", list(s.phi1.pos_map.values()), s.phi1.source),
                                     ("phi2", list(s.phi2.pos_map.values()), s.phi2.source),
                                     ("ambient", list(s.ambient.positive_roots), s.ambient)]:
            den = common_denominator(images)
            imaginaries = [source.rank, len(source.positive_roots)]
            cases.append((f"{name}-{part}", [encode(v, den) for v in images], imaginaries))
    return cases


@pytest.mark.parametrize("case", stem_and_ambient_images(), ids=lambda c: c[0])
def test_catalog_denominators_to_grade_8(case):
    _, images, imaginaries = case
    for imaginary in imaginaries:
        characters._layer_cache.clear()
        assert layers(images, imaginary, 8) == tuple_denominator_codes(images, imaginary, 8)


def self_seeded_cases():
    """(case id, images, imaginary, rooted): each distinct stem and ambient of
    the catalog splints with its rank, rooted, and the fold's D' of each
    catalog ambient, on labels and unrooted."""
    cases, seen = [], set()
    for case_id, images, (rank, _) in stem_and_ambient_images():
        if (tuple(images), rank) not in seen:
            seen.add((tuple(images), rank))
            cases.append((case_id, images, rank, True))
    for rs in dict.fromkeys(find_splint(name).ambient for name in SPLINTS):
        cases.append((f"{rs.name}-fold", [a for a, _ in rs.label_data.positive], rs.rank, False))
    return cases


@pytest.mark.parametrize("case", self_seeded_cases(), ids=lambda c: c[0])
def test_recurrence_seeds_its_own_grade_0(case):
    # every grade, 0 included, comes from the recurrence and _root_factors:
    # the rooted grades are the test-local tuple-code expansion, and the
    # unrooted ones times its grade 0 at imaginary 0 (the root factors)
    _, images, imaginary, rooted = case
    characters._layer_cache.clear()
    try:
        got = layers(images, imaginary, 8, rooted)
    finally:
        characters._layer_cache.clear()
    want = tuple_denominator_codes(images, imaginary, 8)
    if rooted:
        assert got == want
    else:
        (root_factors,) = tuple_denominator_codes(images, 0, 0)
        assert got[0] == {(0,) * len(images[0]): 1}
        assert packed_products([({}, [(root_factors, layer)]) for layer in got]) == want


def test_returned_lists_are_fresh():
    # an entry holds tuples, which no reader can lengthen, and a shallower
    # request gets fresh ones
    images = [(1, 0), (0, 1), (1, 1)]
    characters._layer_cache.clear()
    _affine_denominator(images, 2, 3)
    got = _affine_denominator(images, 2, 2)
    assert all(type(part) is tuple and len(part) == 3 for part in got)
    with pytest.raises(AttributeError):
        got.grades.append({})
    assert len(_affine_denominator(images, 2, 3).grades) == 4
    assert len(characters._layer_cache[(tuple(images), 2, True)].grades) == 4


def test_threads_share_one_entry():
    # more threads than cores, switching often, each asking for its own
    # cutoff: a shallower entry never replaces a deeper one, and every
    # thread gets the binomial layers
    images = [(2, -1), (-1, 2), (1, 1)]
    want = tuple_denominator_codes(images, 2, 7)
    cutoffs = [7, 2, 5, 0, 6, 3, 4, 1]
    got = {}

    def request(cutoff):
        start.wait(timeout=60)
        got[cutoff] = layers(images, 2, cutoff)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            characters._layer_cache.clear()
            got.clear()
            start = threading.Barrier(len(cutoffs))
            threads = [threading.Thread(target=request, args=(c,)) for c in cutoffs]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
            assert all(got[c] == want[:c + 1] for c in cutoffs)
            assert len(characters._layer_cache[(tuple(images), 2, True)].grades) == 8
    finally:
        sys.setswitchinterval(interval)


def test_non_integral_grade_exits_3(capsys):
    # the B2 Weyl-Kac denominator with one coefficient of grade 1 doubled:
    # S_1 has the coefficient -1 at every e^{+-img}, so 2 P_2 = S_1 P_1 + S_2 P_0
    # gets odd coefficients
    rs = find_splint("B2:A1A1").ambient
    den = common_denominator(rs.positive_roots)
    images = [encode(a, den) for a in rs.positive_roots]
    characters._layer_cache.clear()
    entry = _affine_denominator(images, rs.rank, 1)
    code, c = next(iter(entry.grades[1].items()))
    assert c in (1, -1)
    corrupt = {**entry.grades[1], code: 2 * c}
    try:
        characters._layer_cache[(tuple(images), rs.rank, True)] = entry._replace(
            grades=(entry.grades[0], corrupt))
        code = main(["verify", "--identity", "denominator", "--splint", "B2:A1A1",
                     "--grade-max", "2", "--no-cache"])
    finally:
        characters._layer_cache.clear()
    err = capsys.readouterr().err
    assert code == 3
    assert err == ("internal error: ArithmeticError: grade 2 of the affine denominator "
                   "is not integral\n")
