"""Acceptance suite: one test per criterion, exact tolerances, timed.

Run with `pytest tests/test_acceptance.py -v -s` to see one pass/fail line
per criterion.  Every comparison is exact (integer or rational); the only
numeric bounds are the wall-clock limits stated with each criterion.
"""

import time
from fractions import Fraction

from splintbranch.rootsystem import build_root_system, zero_vec
from splintbranch.characters import (character_via_weyl, freudenthal_character,
                                     singular_element, weyl_denominator,
                                     weyl_dimension)
from splintbranch import affine as af
from splintbranch import qseries as qs
from splintbranch.splints import (Embedding, Splint, branch_via_splint,
                                  find_splint)


def report(num, ok, desc):
    print(f"\nACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {desc}")
    assert ok, f"criterion {num} failed: {desc}"


def test_criterion_1_weyl_denominator_identity():
    # exact group-ring identity, < 1 s per algebra
    worst = 0.0
    for name in ["A1", "A2", "B2", "G2", "A3"]:
        rs = build_root_system(name)
        t0 = time.monotonic()
        ok = singular_element(rs, zero_vec(rs.dim)) == weyl_denominator(rs)
        dt = time.monotonic() - t0
        worst = max(worst, dt)
        assert ok, name
        assert dt < 1.0, f"{name} took {dt:.2f}s"
    report(1, True, f"Weyl denominator identity exact for A1,A2,B2,G2,A3 "
                    f"(worst {worst:.2f}s < 1s)")


def test_criterion_2_freudenthal_vs_weyl_oracle():
    # (rho, mu) <= 12 sweep, exact equality, < 30 s total
    t0 = time.monotonic()
    checked = 0
    for name in ["A1", "A2", "B2", "G2"]:
        rs = build_root_system(name)
        for mu in af.dominant_weights_up_to(rs, Fraction(12)):
            freud = freudenthal_character(rs, mu)
            assert freud == character_via_weyl(rs, mu), \
                (name, rs.dynkin_labels(mu))
            assert freud.total() == weyl_dimension(rs, mu)
            checked += 1
    dt = time.monotonic() - t0
    assert dt < 30.0, f"took {dt:.1f}s"
    report(2, True, f"Freudenthal == Weyl quotient for {checked} modules "
                    f"with (rho,mu) <= 12 ({dt:.1f}s < 30s)")


def test_criterion_3_tilde_branching_vs_oracle():
    # dual-route equality with all Dynkin labels <= 3; G2 and B2 mandatory
    t0 = time.monotonic()
    g2 = find_splint("G2:A2A2")
    rep = g2.branching_status(3)
    assert rep.passed, rep.problems

    view = g2.subalgebra_view()
    seven = branch_via_splint(g2, g2.ambient.weight_from_labels([1, 0]))
    assert sorted((tuple(map(int, view.labels(n))), b) for n, b in seven.items()) \
        == [((0, 0), 1), ((0, 1), 1), ((1, 0), 1)]          # 7 -> 3+3bar+1
    adj = branch_via_splint(g2, g2.ambient.weight_from_labels([0, 1]))
    assert sorted((tuple(map(int, view.labels(n))), b) for n, b in adj.items()) \
        == [((0, 1), 1), ((1, 0), 1), ((1, 1), 1)]          # 14 -> 8+3+3bar

    b2 = find_splint("B2:A1A1")
    rep = b2.branching_status(3)
    assert rep.passed, rep.problems

    # every other catalog entry is either validated or carries the flag
    flags = {}
    for entry in ["B2:A1A2", "A2:A1A1A1", "A3:A2A1A1A1"]:
        flags[entry] = find_splint(entry).branching_status().passed
    dt = time.monotonic() - t0
    assert dt < 120.0, f"took {dt:.1f}s"
    report(3, True, f"tilde-weight branching == subtraction oracle, labels <= 3 "
                    f"(16 weights each for G2, B2); other catalog flags {flags} "
                    f"({dt:.1f}s < 2min)")


def corrupted_g2_splint():
    s = find_splint("G2:A2A2")
    pos = dict(s.phi2.pos_map)
    pos[max(pos)] = sorted(s.phi1.pos_map.values())[0]
    return Splint("G2:A2A2-corrupt", s.ambient, s.phi1,
                  Embedding(s.phi2.source, s.ambient, pos), s.correspondence)


def test_criterion_4_affine_denominator_splint_identity():
    t0 = time.monotonic()
    for name in ["G2:A2A2", "B2:A1A1"]:
        rep = qs.verify_denominator_splint(find_splint(name), 8)
        assert rep.passed, (name, rep.detail)
    neg = qs.verify_denominator_splint(corrupted_g2_splint(), 4)
    assert not neg.passed and neg.first_mismatch is not None
    dt = time.monotonic() - t0
    assert dt < 120.0, f"took {dt:.1f}s"
    report(4, True, f"affine denominator-splint identity exact to grade 8 for "
                    f"G2 and B2; perturbed splint fails at grade "
                    f"{neg.first_mismatch} ({dt:.1f}s < 2min)")


def test_criterion_5_string_matrix_relation():
    # A1-hat levels 1 and 2, vacuum and one non-vacuum module, grades <= 6
    t0 = time.monotonic()
    a1 = build_root_system("A1")
    N = 6
    modules = [(1, [0]), (1, [1]), (2, [0]), (2, [1])]
    for level, labels in modules:
        aw = af.AffineWeight(a1.weight_from_labels(labels), level)
        gc = af.affine_character(a1, aw, N)
        bs = af.graded_branch_to_g(a1, aw, N, gc)
        bound = max(a1.inner(a1.rho, v) for v, _ in bs.entries)
        mm = af.multiplicity_matrix(a1, bound)
        minv = af.invert_multiplicity_matrix(mm)
        k = len(mm.basis)
        ident = [[sum(minv[i][l] * mm.mat[l][j] for l in range(k))
                  for j in range(k)] for i in range(k)]
        assert ident == [[int(i == j) for j in range(k)] for i in range(k)]
        for g in range(N + 1):
            sigma = [gc.layers[g].get(v) for v in mm.basis]
            b = [bs.entries.get((v, g), 0) for v in mm.basis]
            # sigma = M b termwise
            assert sigma == [sum(mm.mat[i][j] * b[j] for j in range(k))
                             for i in range(k)]
            # b recovered through the inverse equals the direct decomposition
            assert b == [sum(minv[i][j] * sigma[j] for j in range(k))
                         for i in range(k)]
    dt = time.monotonic() - t0
    assert dt < 60.0, f"took {dt:.1f}s"
    report(5, True, f"sigma = M b and b = M^-1 sigma, M^-1 M = 1, for A1-hat "
                    f"levels 1,2 (vacuum and non-vacuum) to grade 6 "
                    f"({dt:.1f}s < 1min)")


def test_criterion_6_affine_splint_route_equality():
    t0 = time.monotonic()
    for alg, name in [("G2", "G2:A2A2"), ("B2", "B2:A1A1")]:
        rs = build_root_system(alg)
        s = find_splint(name)
        vac = af.AffineWeight(zero_vec(rs.dim), 1)
        gc = af.affine_character(rs, vac, 2)
        composed = af.branch_affine_to_subalgebra(rs, s, vac, 2, gc=gc)
        direct = af.branch_affine_direct(rs, s, vac, 2, gc=gc)
        assert composed.entries == direct.entries, name
        assert all(b >= 0 for b in composed.entries.values())
    dt = time.monotonic() - t0
    assert dt < 300.0, f"took {dt:.1f}s"
    report(6, True, f"composed splint route == direct affine branching for "
                    f"G2-hat and B2-hat level-1 vacua to grade 2 ({dt:.1f}s < 5min)")


def test_criterion_7_eta_pentagonal():
    t0 = time.monotonic()
    got = dict(qs.euler_product(50).items())
    want = {}
    k = 1
    want[Fraction(0)] = 1
    while k * (3 * k - 1) // 2 <= 50:
        for g in (k * (3 * k - 1) // 2, k * (3 * k + 1) // 2):
            if g <= 50:
                want[Fraction(g)] = -1 if k % 2 else 1
        k += 1
    dt = time.monotonic() - t0
    assert got == want
    assert dt < 1.0, f"took {dt:.2f}s"
    report(7, True, f"eta factor matches the pentagonal-number series to "
                    f"grade 50 ({dt:.2f}s < 1s)")


def test_criterion_8_theta_identities():
    t0 = time.monotonic()
    for name in ["G2:A2A2", "B2:A1A1"]:
        s = find_splint(name)
        rep5 = qs.verify_theta_products(s, 4)
        assert rep5.passed and rep5.normalization == 0, (name, rep5.detail)
        rep6 = qs.verify_theta_sums(s, 4)
        assert rep6.passed and rep6.normalization == 0, (name, rep6.detail)
    assert not qs.verify_theta_products(corrupted_g2_splint(), 3).passed
    assert not qs.verify_theta_sums(find_splint("G2:A2A2"), 3, drop_term=True).passed
    dt = time.monotonic() - t0
    assert dt < 300.0, f"took {dt:.1f}s"
    report(8, True, f"per-root and alternating theta identities exact to "
                    f"grade 4 for G2 and B2 splints; negative controls fail "
                    f"({dt:.1f}s < 5min)")


def test_criterion_9_q_dimension():
    a1 = build_root_system("A1")
    probes = [("A1", [0], 1), ("A1", [1], 1), ("A1", [0], 2), ("A1", [2], 2),
              ("G2", [0, 0], 1), ("B2", [0, 0], 1)]
    for alg, labels, level in probes:
        rs = build_root_system(alg)
        aw = af.AffineWeight(rs.weight_from_labels(labels), level)
        series = af.q_dimension(rs, aw, 1)
        assert series[0] == weyl_dimension(rs, aw.finite), (alg, labels)
    vac = af.AffineWeight(zero_vec(a1.dim), 1)
    assert af.q_dimension(a1, vac, 1) == [1, 3]
    report(9, True, "q-dimension grade-0 equals the Weyl dimension on all "
                    "probes; A1-hat level-1 vacuum has grade-1 coefficient 3")
