import pytest

from splintbranch.rootsystem import build_root_system, vadd, vneg, zero_vec
from splintbranch.characters import FormalCharacter
from splintbranch.splints import (Embedding, Report, Splint, branch_direct,
                                  branch_via_splint, check_embedding,
                                  check_splint, fan_coefficients, find_splint,
                                  splint_catalog, tilde_weight)

G2 = build_root_system("G2")
B2 = build_root_system("B2")
A2 = build_root_system("A2")
A1 = build_root_system("A1")

CATALOG_NAMES = ["G2:A2A2", "B2:A1A1", "B2:A1A2", "A2:A1A1A1", "A3:A2A1A1A1"]


def fraction_product(a, b):
    """Test-local Fraction convolution, independent of the code-level
    product behind FormalCharacter.__mul__ and fan_coefficients."""
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


def test_check_embedding_rank_one_source():
    # A1 -> A2: no sums exist in the source, additivity is vacuous
    e = Embedding(A1, A2, {A1.positive_roots[0]: A2.simple_roots[0]})
    assert check_embedding(e).passed


def test_check_embedding_additivity_violation():
    s = find_splint("G2:A2A2")
    pos = dict(s.phi2.pos_map)
    a1, a2 = s.phi2.source.simple_roots
    # break the unique addition relation by remapping a simple root
    pos[a1] = vneg(pos[a1])
    rep = check_embedding(Embedding(s.phi2.source, G2, pos))
    assert not rep.passed
    assert any("additivity" in p or "negative" in p for p in rep.problems)


def test_check_embedding_swapped_images():
    # swapping the images of a simple root and the highest root breaks the
    # addition relation, and the report names the violating pair
    s = find_splint("G2:A2A2")
    src = s.phi2.source
    pos = dict(s.phi2.pos_map)
    a1 = src.simple_roots[0]
    high = vadd(src.simple_roots[0], src.simple_roots[1])
    pos[a1], pos[high] = pos[high], pos[a1]
    rep = check_embedding(Embedding(src, G2, pos))
    assert not rep.passed
    assert any("additivity" in p for p in rep.problems)


@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_catalog_splints_verify(name):
    s = find_splint(name)
    assert check_splint(s).passed
    assert check_embedding(s.phi1).passed and check_embedding(s.phi2).passed
    # disjoint union sizes
    assert len(s.subalgebra_roots) + len(s.stem_roots) == len(s.ambient.roots)


def test_catalog_lookup():
    assert [s.name for s in splint_catalog(G2)] == ["G2:A2A2"]
    assert sorted(s.name for s in splint_catalog(B2)) == ["B2:A1A1", "B2:A1A2"]
    assert splint_catalog(A1) == []
    with pytest.raises(KeyError):
        find_splint("E8:bogus")


def test_check_splint_detects_missing_root():
    s = find_splint("G2:A2A2")
    pos = dict(s.phi2.pos_map)
    # send the highest stem root onto a subalgebra root: union loses a root
    pos[max(pos)] = sorted(s.phi1.pos_map.values())[0]
    broken = Splint("broken", G2, s.phi1, Embedding(s.phi2.source, G2, pos),
                    s.correspondence)
    rep = check_splint(broken)
    assert not rep.passed
    assert any("union" in p or "intersect" in p for p in rep.problems)


def _stem_with(image_of_a1):
    """G2:A2A2 with the stem image b1 of its first simple root replaced by
    image_of_a1(b1, b2)."""
    s = find_splint("G2:A2A2")
    pos = dict(s.phi2.pos_map)
    a1, a2 = s.phi2.source.simple_roots
    pos[a1] = image_of_a1(pos[a1], pos[a2])
    return Splint("hand-built", G2, s.phi1, Embedding(s.phi2.source, G2, pos),
                  s.correspondence)


def _subalgebra_from(phi1):
    s = find_splint("G2:A2A2")
    return Splint("hand-built", G2, phi1(s), s.phi2, s.correspondence)


def _with_correspondence(correspondence):
    s = find_splint("G2:A2A2")
    return Splint(s.name, s.ambient, s.phi1, s.phi2, correspondence)


def _empty_stem():
    # an A1 source has no root sums, so the emptied map passes additivity
    s = find_splint("G2:A2A2")
    stem = Embedding(A1, G2, {A1.positive_roots[0]: s.phi2.simple_images[0]})
    stem.pos_map = {}
    return Splint("hand-built", G2, s.phi1, stem, s.correspondence)


def _stem_without_highest_root():
    # Embedding.__init__ refuses such a map; one edited afterwards must be
    # reported, not looked up
    s = find_splint("G2:A2A2")
    del s.phi2.pos_map[max(s.phi2.pos_map)]
    return s


def _a3_into_g2(s):
    a3 = build_root_system("A3")
    return Embedding(a3, G2, dict(zip(a3.positive_roots, G2.positive_roots)))


BROKEN_SPLINTS = [
    ("image-not-a-root", lambda: _stem_with(lambda b1, b2: vadd(b1, b1)),
     "stem: image (2, -2, 0) is not a root of G2"),
    ("duplicate-images", lambda: _stem_with(lambda b1, b2: b2),
     "stem: positive-root images are not distinct"),
    ("negative-images", lambda: _stem_with(lambda b1, b2: vneg(b2)),
     "stem: an image coincides with the negative of another image"),
    ("other-target",
     lambda: _subalgebra_from(lambda s: Embedding(A2, A2, {r: r for r in A2.positive_roots})),
     "subalgebra embedding targets a different root system"),
    ("empty-stem", _empty_stem, "stem stem is empty"),
    ("rank-above-ambient", lambda: _subalgebra_from(_a3_into_g2),
     "subalgebra rank exceeds ambient rank"),
    ("stem-map-misses-a-root", _stem_without_highest_root,
     "stem: embedding map misses source positive roots [(1, 0, -1)]"),
    ("correspondence-not-a-permutation",
     lambda: _with_correspondence((0,)),
     "correspondence [0] is not a permutation of the 2 stem fundamental weights"),
    # the short-root A2 as the subalgebra: two short roots add to a long one
    ("subalgebra-not-closed", lambda: _subalgebra_from(lambda s: s.phi2),
     "subalgebra image not closed: (-1, 0, 1) + (0, -1, 1)"),
]


@pytest.mark.parametrize("build, problem",
                         [pytest.param(b, p, id=name) for name, b, p in BROKEN_SPLINTS])
def test_check_splint_names_each_broken_condition(build, problem):
    rep = check_splint(build())
    assert not rep.passed and problem in rep.problems


def test_default_reports_do_not_share_a_problems_list():
    first, second = Report(True), Report(False, name="x")
    first.problems.append("a problem")
    assert second.problems == [] and Report(True).problems == []


def test_fan_two_a1_factors():
    # stem A1 x A1: (1 - e^{-b1})(1 - e^{-b2})
    s = find_splint("A2:A1A1A1")
    fan = fan_coefficients(s)
    b1 = s.phi2.pos_map[s.phi2.source.simple_roots[0]]
    b2 = s.phi2.pos_map[s.phi2.source.simple_roots[1]]
    zero = zero_vec(A2.dim)
    assert fan.coefficients == {zero: -1, b1: 1, b2: 1, vadd(b1, b2): -1}


def test_fan_a2_stem_pattern():
    # stem A2: (1-x)(1-y)(1-xy) with x = e^{-b1}, y = e^{-b2}
    s = find_splint("G2:A2A2")
    fan = fan_coefficients(s).coefficients
    src = s.phi2.source
    b1 = s.phi2.pos_map[src.simple_roots[0]]
    b2 = s.phi2.pos_map[src.simple_roots[1]]
    zero = zero_vec(G2.dim)
    expect = {
        zero: -1, b1: 1, b2: 1,
        vadd(vadd(b1, b1), b2): -1, vadd(b1, vadd(b2, b2)): -1,
        vadd(vadd(b1, b1), vadd(b2, b2)): 1,
    }
    assert fan == expect


@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_fan_reconstruction(name):
    s = find_splint(name)
    fan = fan_coefficients(s)
    dim = s.ambient.dim
    prod = FormalCharacter.monomial(zero_vec(dim))
    for beta in s.phi2.source.positive_roots:
        prod = fraction_product(prod, FormalCharacter({zero_vec(dim): 1,
                                                       vneg(s.phi2.pos_map[beta]): -1}))
    rebuilt = FormalCharacter({vneg(g): -c for g, c in fan.coefficients.items()})
    assert rebuilt == prod
    assert fan.coefficients[zero_vec(dim)] == -1


def test_tilde_weight_copies_labels():
    s = find_splint("G2:A2A2")
    assert tilde_weight(s, zero_vec(G2.dim)) == zero_vec(s.phi2.source.dim)
    mu = G2.weight_from_labels([1, 0])
    mt = tilde_weight(s, mu)
    assert tuple(s.phi2.source.dynkin_labels(mt)) == (1, 0)
    s2 = find_splint("B2:A1A1")
    mt = tilde_weight(s2, B2.weight_from_labels([2, 3]))
    assert tuple(s2.phi2.source.dynkin_labels(mt)) == (2, 3)


def test_tilde_weight_requires_dominant():
    s = find_splint("G2:A2A2")
    with pytest.raises(ValueError):
        tilde_weight(s, vneg(G2.fundamental_weights[0]))


def test_branch_via_splint_g2_seven():
    s = find_splint("G2:A2A2")
    view = s.subalgebra_view()
    mu = G2.weight_from_labels([1, 0])
    table = branch_via_splint(s, mu)
    got = sorted((tuple(map(int, view.labels(nu))), b) for nu, b in table.items())
    # 7 -> 3 + 3bar + 1
    assert got == [((0, 0), 1), ((0, 1), 1), ((1, 0), 1)]
    assert sum(b * view.dimension(nu) for nu, b in table.items()) == 7


def test_branch_via_splint_g2_adjoint():
    s = find_splint("G2:A2A2")
    view = s.subalgebra_view()
    table = branch_via_splint(s, G2.weight_from_labels([0, 1]))
    got = sorted((tuple(map(int, view.labels(nu))), b) for nu, b in table.items())
    # 14 -> 8 + 3 + 3bar
    assert got == [((0, 1), 1), ((1, 0), 1), ((1, 1), 1)]


def test_branch_trivial_module():
    for name in CATALOG_NAMES[:4]:
        s = find_splint(name)
        table = branch_via_splint(s, zero_vec(s.ambient.dim))
        assert table == {zero_vec(s.ambient.dim): 1}


def test_branch_direct_b2_vector():
    # B2's vector module, 5 = 4 + 1, and through the G2:A2A2 view G2's
    # adjoint, 14 = 8 + 3 + 3bar
    for name, labels, dims in (("B2:A1A1", [1, 0], [1, 4]), ("G2:A2A2", [0, 1], [3, 3, 8])):
        s = find_splint(name)
        view = s.subalgebra_view()
        mu = s.ambient.weight_from_labels(labels)
        table = branch_direct(s.ambient, view, mu)
        assert sorted(view.dimension(nu) for nu, b in table.items() for _ in range(b)) == dims
        assert table == branch_via_splint(s, mu)


def test_branch_direct_takes_only_a_view_of_its_algebra():
    # a root list, a (system, simple images) pair, and B2:A1A1's view given
    # with C2 are all refused before any character is built
    s = find_splint("B2:A1A1")
    longs = [v for v in B2.roots if B2.inner(v, v) == 2]
    C2 = build_root_system("C2")
    for rs, sub in ((B2, longs), (B2, (s.phi1.source, s.phi1.simple_images)),
                    (C2, s.subalgebra_view())):
        with pytest.raises(ValueError, match="SubalgebraView"):
            branch_direct(rs, sub, rs.weight_from_labels([1, 0]))


@pytest.mark.parametrize("name,max_label", [
    ("G2:A2A2", 2), ("B2:A1A1", 2), ("B2:A1A2", 2), ("A2:A1A1A1", 3),
    ("A3:A2A1A1A1", 1),
])
def test_tilde_rule_matches_subtraction_oracle(name, max_label):
    s = find_splint(name)
    rep = s.branching_status(max_label)
    assert rep.passed, rep.problems
