"""The verifiers' lattice series are born packed.

The affine denominators are read from the packed grades of
`characters._affine_denominator`, the Jacobi sums write -m times the packed
root, and the theta numerators run their Weyl orbits on 1-coordinate codes,
the packed code of each fundamental-weight image.  So:

* no verifier packs a code: with `qseries._packed` patched to raise, the
  three verifiers give the reports they gave when every series was packed on
  entry, on the catalog splints through grade 6 and on a corrupted splint
  whose mismatch text is unpacked from the packed series;
* the cache is read-only: the series share the cached grades, and a full
  verify sweep leaves a deep copy of `_layer_cache` equal to the cache;
* a Weyl orbit on 1-coordinate packed codes is the packed tuple-code orbit,
  points, signs and order;
* every declared reach bounds the codes: the exact largest |coordinate| of
  every numerator and Jacobi series of the catalog splints through grade 8
  is at most its reach.
"""

import copy
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from splintbranch import characters
from splintbranch import qseries as qs
from splintbranch.characters import _box, common_denominator, encode
from splintbranch.rootsystem import build_root_system
from splintbranch.splints import Embedding, Splint, find_splint

# eta power of each catalog splint's denominator identity
SPLINTS = {"G2:A2A2": 2, "B2:A1A1": 2, "B2:A1A2": 1, "A2:A1A1A1": 1, "A3:A2A1A1A1": 2}
VERIFIERS = [qs.verify_denominator_splint, qs.verify_theta_products, qs.verify_theta_sums]


def report(r):
    return r.passed, r.name, r.detail, r.first_mismatch, r.normalization


def packed_reports(cutoff, eta):
    """The reports of the three verifiers on a catalog splint, as given when
    every lattice series was packed on entry."""
    thetas = (True, "theta-sum", "both sides vanish through q^0", None, None) if not cutoff \
        else (True, "theta-sum", "normalization q^0", None, Fraction(0))
    return [(True, "denominator", f"grades 0..{cutoff} agree, eta-power {eta}", None, None),
            (True, "theta-product", "normalization q^0", None, Fraction(0)), thetas]


def corrupt_g2():
    """G2:A2A2 with the highest positive root of the second stem sent to the
    first stem's lowest image."""
    s = find_splint("G2:A2A2")
    pos = dict(s.phi2.pos_map)
    pos[max(pos)] = sorted(s.phi1.pos_map.values())[0]
    return Splint("G2:A2A2-corrupt", s.ambient, s.phi1, Embedding(s.phi2.source, s.ambient, pos),
                  s.correspondence)


MISMATCH = "coefficients at q^0 differ at weight (-2, 4, -2): 0 against -1"
CORRUPT_REPORTS = [(False, "denominator", MISMATCH, Fraction(0), None),
                   (False, "theta-product", MISMATCH, Fraction(0), Fraction(0)),
                   (True, "theta-sum", "normalization q^0", None, Fraction(0))]


def sweep(cutoffs):
    """The reports of every verifier on every catalog splint at each cutoff."""
    return {(name, cutoff): [report(f(find_splint(name), cutoff)) for f in VERIFIERS]
            for name in SPLINTS for cutoff in cutoffs}


def test_no_verifier_packs(monkeypatch):
    def refuse(pairs):
        raise AssertionError("a verifier packed a code")

    monkeypatch.setattr(qs, "_packed", refuse)
    characters._layer_cache.clear()
    got = sweep(range(7))
    assert got == {(name, cutoff): packed_reports(cutoff, eta)
                   for name, eta in SPLINTS.items() for cutoff in range(7)}
    assert [report(f(corrupt_g2(), 6)) for f in VERIFIERS] == CORRUPT_REPORTS
    # the dropped theta term is built from a FormalCharacter, and packs
    with pytest.raises(AssertionError, match="packed a code"):
        qs.verify_theta_sums(find_splint("G2:A2A2"), 3, drop_term=True)


def test_full_sweep_leaves_the_cache_unchanged():
    # the series share the cached grades; no operation on them may change one
    characters._layer_cache.clear()
    for cutoffs in ([8], range(9)):
        sweep(cutoffs)
        for f in VERIFIERS:
            f(corrupt_g2(), 8)
        if cutoffs == [8]:
            held = copy.deepcopy(characters._layer_cache)
    assert characters._layer_cache == held


ORBIT_ALGEBRAS = ["A1", "A2", "A3", "A4", "B2", "B3", "B4", "C3", "D4", "G2", "F4", "E6"]


@st.composite
def orbit_cases(draw):
    rs = build_root_system(draw(st.sampled_from(ORBIT_ALGEBRAS)))
    labels = draw(st.lists(st.integers(-2, 2), min_size=rs.rank, max_size=rs.rank))
    if rs.weyl_order > 2000:
        # one label, so the orbit stays below a few thousand points
        i = draw(st.integers(0, rs.rank - 1))
        labels = [m if j == i else 0 for j, m in enumerate(labels)]
    shift = draw(st.tuples(*[st.integers(-3, 3)] * rs.dim))
    return rs, tuple(labels), shift


@settings(max_examples=120, deadline=None)
@given(orbit_cases())
def test_orbit_on_packed_codes_is_the_packed_tuple_orbit(case):
    # the fundamental weights and a shift as codes over one denominator, and
    # the same orbit on their packed 1-coordinate codes
    rs, labels, shift = case
    den = common_denominator(rs.fundamental_weights)
    fw = [encode(w, den) for w in rs.fundamental_weights]
    pack = _box(rs.dim)[0]
    want = [(tuple(pack({code: 1})), sign) for code, sign in rs.label_orbit(labels, fw, shift)]
    got = rs.label_orbit(labels, [tuple(pack({c: 1})) for c in fw], tuple(pack({shift: 1})))
    assert got == want


def numerator_series(src, images, cutoff):
    """The factor series of theta_alternating_sum(src, images, cutoff)."""
    return [qs._theta_numerator(build_root_system([f]), images[s0:s1], cutoff)
            for f, ((s0, s1), _) in zip(src.factors, src.factor_slices)]


def exact_reach(series):
    """The largest |coordinate| of the codes a lattice series holds."""
    if not series.terms:
        return 0
    unpack = _box(series.lattice_dim)[1]
    return max(abs(x) for c in series.terms.values() for code in unpack(c) for x in code)


@pytest.mark.parametrize("name", sorted(SPLINTS))
def test_declared_reaches_bound_the_codes(name):
    s = find_splint(name)
    sides = [(s.phi1.source, s.phi1.fundamental_images),
             (s.phi2.source, s.phi2.fundamental_images),
             (s.ambient, s.ambient.fundamental_weights)]
    roots = [*s.phi1.pos_map.values(), *s.phi2.pos_map.values()]
    for cutoff in range(9):
        series = [f for src, images in sides for f in numerator_series(src, images, cutoff)]
        series += [qs.jacobi_theta_sum(r, cutoff) for r in roots]
        assert all(exact_reach(f) <= f.reach for f in series)
    # the factor series are theta_alternating_sum's, product for product
    for src, images in sides:
        product = qs.QSeries.one(8)
        for f in numerator_series(src, images, 8):
            product = product * f
        assert product == qs.theta_alternating_sum(src, images, 8)
    # the Jacobi reach is the one packing on entry gave, (n + 1) max |code|
    for r in roots:
        den = common_denominator([r])
        n = 5          # isqrt(2 * 8) + 1
        assert qs.jacobi_theta_sum(r, 8).reach == (n + 1) * max(map(abs, encode(r, den)))


@pytest.mark.parametrize("name, slots", [("G2:A2A2", 8), ("A3:A2A1A1A1", 84)])
def test_packed_keys_spread_over_dict_slots(name, slots):
    # the codes of the ambient denominator through grade 3, whose coordinates
    # sum to 0, in a table of at least 1.5 slots per key: with the radix
    # 2^24 + 1 the 48 G2 keys started their probes at 1 slot and the 168 A3
    # keys at 3; with the radix 2 _BOX + 1 at 11 and 112
    rs = find_splint(name).ambient
    den = common_denominator(rs.positive_roots)
    images = [encode(a, den) for a in rs.positive_roots]
    codes = {code for layer in characters._affine_denominator(images, 0, 3).codes
             for code in layer}
    keys = _box(rs.dim)[0](dict.fromkeys(codes, 1))
    mask = (1 << (len(keys) * 3 // 2).bit_length()) - 1
    assert len({hash(p) & mask for p in keys}) >= slots
