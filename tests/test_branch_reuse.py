"""Each affine module is decomposed once and branched on integer labels.

`affine_character` keeps the series it reads on the `GradedCharacter` (for
its algebra), which `graded_branch_to_g` serves or slices to a shorter
cutoff with nothing decomposed, and `branch_via_splint` keeps its integer
table on the `Splint` (by ambient labels).  The composed branching route is
checked against the direct route and against a test-local copy of the
accumulation keyed by Fraction weights that the integer one replaced (dict
order included); `q_dimension` against a per-grade recount.  The series that
`graded_character` builds carry the Dynkin labels of their weights, which
`q_dimension`, the splint route and the cache writer read instead of
splitting each weight again.
"""

import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from splintbranch import affine as af
from splintbranch import characters, cli
from splintbranch.characters import decompose_character, weyl_dimension
from splintbranch.rootsystem import RootSystem, build_root_system, vadd, zero_vec
from splintbranch.splints import branch_via_splint, find_splint, splint_catalog

# ambients of the catalog splints, with the largest cutoff drawn for each
CUTOFF = {"A2": 3, "B2": 3, "G2": 3, "A3": 1}
ALGEBRAS = {name: build_root_system(name) for name in CUTOFF}
# one Splint object per catalog entry, so that its tables are reused across draws
SPLINTS = {name: splint_catalog(rs) for name, rs in ALGEBRAS.items()}


def fraction_keyed_branch(s, bs):
    """The accumulation keyed by (Fraction weight, grade) that the integer
    label codes replaced."""
    entries, tables = {}, {}
    for (nu, n), b in bs.entries.items():
        if nu not in tables:
            tables[nu] = branch_via_splint(s, nu)
        for xi, c in tables[nu].items():
            entries[(xi, n)] = entries.get((xi, n), 0) + b * c
    return {k: v for k, v in entries.items() if v}


def vec_path_q_dimension(rs, bs, cutoff):
    """q_dimension's sum as it read the Fraction weights: the Weyl dimension
    of each distinct weight, split through split_labels."""
    dims = {nu: weyl_dimension(rs, nu) for nu in {nu for nu, _ in bs.entries}}
    out = [0] * (cutoff + 1)
    for (nu, n), b in bs.entries.items():
        if n <= cutoff:
            out[n] += b * dims[nu]
    return out


def cache_hit(rs, aw, gc):
    """The character that a disk-cache hit builds from gc's series."""
    request = {"cutoff": gc.cutoff}
    return cli._layers_from_json(cli._layers_to_json(request, gc.series), rs, aw, request)


def layer_decomposition(rs, gc, cutoff):
    return {(nu, n): b for n in range(cutoff + 1)
            for nu, b in decompose_character(rs, gc.layers[n]).items()}


@st.composite
def affine_module(draw):
    name = draw(st.sampled_from(sorted(CUTOFF)))
    rs = ALGEBRAS[name]
    level = draw(st.integers(1, 2))
    theta_v = rs.coroot(rs.highest_roots[0])
    comarks = [rs.inner(w, theta_v) for w in rs.fundamental_weights]
    labels = [0] * rs.rank
    budget = Fraction(level)
    for i in draw(st.permutations(range(rs.rank))):
        labels[i] = draw(st.integers(0, int(budget / comarks[i])))
        budget -= labels[i] * comarks[i]
    cutoff = draw(st.integers(0, CUTOFF[name]))
    return name, af.AffineWeight(rs.weight_from_labels(labels), level), cutoff


@settings(max_examples=25, deadline=None)
@given(affine_module())
def test_composed_route_equals_direct_route_and_fraction_accumulation(case):
    name, aw, cutoff = case
    rs = ALGEBRAS[name]
    gc = af.affine_character(rs, aw, cutoff)
    bs = af.graded_branch_to_g(rs, aw, cutoff, gc)
    assert list(bs.entries.items()) == list(layer_decomposition(rs, gc, cutoff).items())
    recount = vec_path_q_dimension(rs, bs, cutoff)
    assert af.q_dimension(rs, aw, cutoff, gc=gc) == recount
    assert af.q_dimension(rs, aw, cutoff, bs, gc) == recount
    for s in SPLINTS[name]:
        got = af.branch_affine_to_subalgebra(rs, s, aw, cutoff, gc)
        assert got.cutoff == cutoff
        assert got.entries == af.branch_affine_direct(rs, s, aw, cutoff, gc).entries
        assert list(got.entries.items()) == list(fraction_keyed_branch(s, bs).items())


@settings(max_examples=25, deadline=None)
@given(affine_module())
def test_series_carry_the_labels_of_their_weights(case):
    # the carried labels (or, for a peel, the labels split once) are the
    # split labels of every entry's weight, and the consumers that read them
    # equal their Vec-path versions, dict order included
    name, aw, cutoff = case
    rs = ALGEBRAS[name]
    assert af.check_affine_dominant(rs, aw) == rs.split_labels(aw.finite)[0]
    tv = rs.inner(aw.finite, rs.coroot(rs.highest_roots[0]))
    if tv:
        refusal = f"(mu, theta^v) = {tv} exceeds level {tv - 1}"
        with pytest.raises(ValueError, match=f"^{re.escape(refusal)}$"):
            af.check_affine_dominant(rs, af.AffineWeight(aw.finite, int(tv) - 1))
    gc = af.affine_character(rs, aw, cutoff)
    hit = cache_hit(rs, aw, gc)
    peel = af.graded_branch_to_g(rs, aw, cutoff, af.affine_freudenthal(rs, aw, cutoff))
    assert peel.labels is None
    series = [peel] + [af.graded_branch_to_g(rs, aw, c, g) for g in (gc, hit)
                       for c in range(cutoff + 1)]
    for bs in series:
        splits = [rs.split_labels(nu) for nu, _ in bs.entries]
        assert af._series_labels(bs, rs) == ([lbl for lbl, _, _ in splits],
                                             {off for _, _, off in splits})
        if bs is not peel:
            assert bs.rs is rs and bs.labels == [lbl for lbl, _, _ in splits]
    for g in (gc, hit):
        for c in range(cutoff + 1):
            bs = af.graded_branch_to_g(rs, aw, c, g)
            assert af.q_dimension(rs, aw, c, gc=g) == vec_path_q_dimension(rs, bs, c)
            for s in SPLINTS[name]:
                got = af.branch_affine_to_subalgebra(rs, s, aw, c, g)
                assert list(got.entries.items()) == list(fraction_keyed_branch(s, bs).items())


@pytest.mark.parametrize("built", ["fold", "cache"])
def test_consumers_split_no_weight(monkeypatch, built):
    # with the character built and the splint probed, the branching to g,
    # the q-dimension and the splint route read the carried labels: they
    # give the same results with every weight split and Weyl dimension
    # refused, on a character folded here and on one built from the cache
    g2 = ALGEBRAS["G2"]
    aw = af.AffineWeight(g2.weight_from_labels([1, 0]), 2)
    fold = af.affine_character(g2, aw, 4)
    gc = fold if built == "fold" else cache_hit(g2, aw, fold)
    s = find_splint("G2:A2A2")
    assert s.branching_status()

    def run(s):
        return [(af.graded_branch_to_g(g2, aw, c, gc), af.q_dimension(g2, aw, c, gc=gc),
                 af.branch_affine_to_subalgebra(g2, s, aw, c, gc).entries) for c in (4, 2)]

    want = run(find_splint("G2:A2A2"))

    def refuse(*args):
        raise AssertionError("a consumer split a Fraction weight")

    monkeypatch.setattr(RootSystem, "split_labels", refuse)
    monkeypatch.setattr(characters, "weyl_dimension", refuse)
    got = run(s)
    assert got == want
    assert [(list(bs.entries.items()), list(sub.items())) for bs, _, sub in got] == \
        [(list(bs.entries.items()), list(sub.items())) for bs, _, sub in want]


def test_decomposition_follows_the_cutoff(monkeypatch):
    # every cutoff of a read character is a slice of its read series, in the
    # peel's dict order, with nothing decomposed
    g2 = ALGEBRAS["G2"]
    aw = af.AffineWeight(g2.weight_from_labels([1, 0]), 2)
    gc = af.affine_character(g2, aw, 4)
    want = [layer_decomposition(g2, gc, n) for n in range(5)]
    assert max(n for _, n in want[4]) == 4

    def peel(*args):
        raise AssertionError("a read series was peeled")

    monkeypatch.setattr(af, "decompose_character", peel)
    for n in (4, 2, 0, 1, 3, 4):
        got = af.graded_branch_to_g(g2, aw, n, gc)
        assert got.cutoff == n
        assert list(got.entries.items()) == list(want[n].items())
    assert af.graded_branch_to_g(g2, aw, 4, gc) is gc.series


def test_decomposition_follows_the_algebra():
    # B2 and C2 share their weights and Weyl group but not their modules: the
    # series kept for B2 must not be served for C2, while string functions
    # and q-dimensions read the rows through B2, the character's own algebra
    b2, c2 = ALGEBRAS["B2"], build_root_system("C2")
    aw = af.AffineWeight(zero_vec(b2.dim), 1)
    gc = af.affine_character(b2, aw, 2)
    assert af.graded_branch_to_g(b2, aw, 2, gc).entries == layer_decomposition(b2, gc, 2)
    assert af.graded_branch_to_g(c2, aw, 2, gc).entries == layer_decomposition(c2, gc, 2)
    assert layer_decomposition(c2, gc, 2) != layer_decomposition(b2, gc, 2)
    weights = list(dict.fromkeys(w for layer in gc.layers for w, _ in layer.items()))
    assert [af.string_function(c2, aw, w, 2, gc) for w in weights] == \
        [[layer.get(w) for layer in gc.layers] for w in weights]
    assert af.q_dimension(c2, aw, 2, gc=gc) == [layer.total() for layer in gc.layers]


def test_decomposed_character_still_equals_its_twin():
    b2 = ALGEBRAS["B2"]
    aw = af.AffineWeight(b2.weight_from_labels([0, 1]), 1)
    left, right = af.affine_character(b2, aw, 2), af.affine_character(b2, aw, 2)
    af.graded_branch_to_g(b2, aw, 2, left)
    assert left == right
    assert repr(left) == repr(right)


def test_graded_records_compare_by_value():
    b2 = ALGEBRAS["B2"]
    aw = af.AffineWeight(b2.weight_from_labels([0, 1]), 1)
    gc = af.affine_character(b2, aw, 2)
    first, second = af.graded_branch_to_g(b2, aw, 2, gc), af.graded_branch_to_g(b2, aw, 2)
    assert first is not second and first == second
    assert first != af.BranchingSeries(1, first.entries)
    assert gc != af.GradedCharacter(gc.rs, gc.offset, gc.rows[:2])
    # equal by value and mutable, so neither is hashable
    for record in (gc, first):
        with pytest.raises(TypeError):
            hash(record)


def test_affine_weight_is_hashable_and_immutable():
    b2 = ALGEBRAS["B2"]
    aw = af.AffineWeight(b2.weight_from_labels([0, 1]), 1)
    assert {aw: 1}[af.AffineWeight(b2.weight_from_labels([0, 1]), 1)] == 1
    with pytest.raises(AttributeError):
        aw.level = 2
    with pytest.raises(AttributeError):
        aw.finite = zero_vec(b2.dim)


def test_branch_via_splint_returns_a_fresh_table():
    s = find_splint("G2:A2A2")
    mu = s.ambient.weight_from_labels([1, 1])
    first = branch_via_splint(s, mu)
    want = dict(first)
    first.clear()
    first[mu] = 99
    assert branch_via_splint(s, mu) == want


def test_splint_tables_keep_the_w_fixed_offset():
    # mu and mu + (1/3, 1/3, 1/3) have the same A2 labels; the table kept for
    # the first must not hand its vectors to the second
    s = find_splint("A2:A1A1A1")
    mu = s.ambient.weight_from_labels([1, 1])
    shift = (Fraction(1, 3),) * s.ambient.dim
    plain = branch_via_splint(s, mu)
    shifted = branch_via_splint(s, vadd(mu, shift))
    assert shifted == {vadd(nu, shift): b for nu, b in plain.items()}
    assert list(branch_via_splint(s, mu).items()) == list(plain.items())
