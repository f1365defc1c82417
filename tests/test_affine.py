import itertools
import pytest
from fractions import Fraction

from splintbranch.rootsystem import build_root_system, zero_vec
from splintbranch.characters import FormalCharacter, dominant_multiplicities
from splintbranch import affine as af
from splintbranch.splints import find_splint

A1 = build_root_system("A1")
ZERO = zero_vec(A1.dim)


def partitions(n_max):
    """Independent oracle: partition numbers via the pentagonal recurrence."""
    p = [1]
    for n in range(1, n_max + 1):
        total = 0
        k = 1
        while True:
            g1 = k * (3 * k - 1) // 2
            g2 = k * (3 * k + 1) // 2
            if g1 > n and g2 > n:
                break
            sign = -1 if k % 2 == 0 else 1
            if g1 <= n:
                total += sign * p[n - g1]
            if g2 <= n:
                total += sign * p[n - g2]
            k += 1
        p.append(total)
    return p


def test_affine_weight_validation():
    with pytest.raises(ValueError):
        af.check_affine_dominant(A1, af.AffineWeight(A1.weight_from_labels([2]), 1))
    with pytest.raises(ValueError):
        af.check_affine_dominant(A1, af.AffineWeight(ZERO, -1))
    af.check_affine_dominant(A1, af.AffineWeight(A1.weight_from_labels([1]), 1))
    with pytest.raises(ValueError):
        af.affine_character(build_root_system("A1xA1"),
                            af.AffineWeight(zero_vec(4), 1), 0)


def test_basic_module_layers():
    vac = af.AffineWeight(ZERO, 1)
    gc = af.affine_character(A1, vac, 0)
    assert dict(gc.layers[0].items()) == {ZERO: 1}

    gc = af.affine_character(A1, vac, 6)
    # zero-weight string of the level-1 vacuum module = partition numbers
    assert [gc.layers[n].get(ZERO) for n in range(7)] == partitions(6)
    # grade-1 layer is the adjoint module
    assert dict(gc.layers[1].items()) == {
        A1.simple_roots[0]: 1, tuple(-x for x in A1.simple_roots[0]): 1, ZERO: 1}


def inverse_euler_power(rank, n_max):
    """Independent oracle: the coefficients of 1/phi(q)^rank up to q^n_max,
    multiplying by 1/(1 - q^k) = 1 + q^k + q^2k + ... rank times per k."""
    c = [1] + [0] * n_max
    for k in range(1, n_max + 1):
        for _ in range(rank):
            for n in range(k, n_max + 1):
                c[n] += c[n - k]
    return c


@pytest.mark.parametrize("name,cutoff", [("A2", 5), ("A3", 4), ("A4", 3), ("D4", 3), ("D5", 2)])
def test_level_one_vacuum_zero_string_is_frenkel_kac(name, cutoff):
    """Frenkel-Kac: the level-1 vacuum module of a simply-laced algebra is
    sum_gamma q^(gamma, gamma)/2 e^gamma / phi(q)^rank over the root
    lattice, so its zero-weight string is 1/phi(q)^rank."""
    rs = build_root_system(name)
    gc = af.affine_character(rs, af.AffineWeight(zero_vec(rs.dim), 1), cutoff)
    zero = zero_vec(rs.dim)
    assert [gc.layers[n].get(zero) for n in range(cutoff + 1)] == \
        inverse_euler_power(rs.rank, cutoff)


@pytest.mark.parametrize("name,cutoff", [("A5", 3), ("D6", 3), ("E6", 3), ("E7", 2), ("E8", 2)])
def test_affine_freudenthal_level_one_vacuum_is_frenkel_kac(name, cutoff):
    # both routes walk dominant weights only (the recursion its tables, the
    # Weyl-Kac fold its numerator points), so both reach E7 and E8, whose
    # regular Weyl orbits are refused
    rs = build_root_system(name)
    zero = zero_vec(rs.dim)
    want = inverse_euler_power(rs.rank, cutoff)
    for route in (af.affine_freudenthal, af.affine_character):
        gc = route(rs, af.AffineWeight(zero, 1), cutoff)
        assert [gc.layers[n].get(zero) for n in range(cutoff + 1)] == want, route.__name__


def test_e8_level_one_vacuum_q_dimension():
    # 1, 248, 3875 + 248 + 1, 30380 + 3875 + 2 * 248 + 1 (the third grade of
    # the level-1 E8 vacuum, Frenkel-Kac)
    rs = build_root_system("E8")
    assert af.q_dimension(rs, af.AffineWeight(zero_vec(rs.dim), 1), 3) == [1, 248, 4124, 34752]


def test_affine_character_equals_affine_freudenthal_on_the_e6_vacuum():
    rs = build_root_system("E6")
    vac = af.AffineWeight(zero_vec(rs.dim), 1)
    main, oracle = af.affine_character(rs, vac, 2), af.affine_freudenthal(rs, vac, 2)
    for n in range(3):
        assert main.layers[n] == oracle.layers[n], f"grade {n}"


@pytest.mark.parametrize("name", ["B4", "C4", "D4", "F4"])
def test_affine_freudenthal_equals_affine_character_rank_four(name):
    # level 1: the vacuum and every fundamental weight of comark 1
    rs = build_root_system(name)
    theta_v = rs.coroot(rs.highest_roots[0])
    weights = [zero_vec(rs.dim)] + [w for w in rs.fundamental_weights
                                    if rs.inner(w, theta_v) == 1]
    for mu in weights:
        aw = af.AffineWeight(mu, 1)
        assert af.affine_freudenthal(rs, aw, 2).layers == \
            af.affine_character(rs, aw, 2).layers, rs.dynkin_labels(mu)


@pytest.mark.parametrize("level,labels,cutoff", [
    (1, [0], 4), (1, [1], 4), (2, [0], 4), (2, [2], 3),
])
def test_affine_freudenthal_oracle(level, labels, cutoff):
    aw = af.AffineWeight(A1.weight_from_labels(labels), level)
    main = af.affine_character(A1, aw, cutoff)
    oracle = af.affine_freudenthal(A1, aw, cutoff)
    for n in range(cutoff + 1):
        assert main.layers[n] == oracle.layers[n], f"grade {n}"


@pytest.mark.parametrize("name", ["B2", "G2"])
def test_affine_freudenthal_oracle_two_root_lengths(name):
    # the oracle also pins the coroot-lattice translations and the
    # imaginary-root multiplicities on non-simply-laced algebras
    rs = build_root_system(name)
    vac = af.AffineWeight(zero_vec(rs.dim), 1)
    main = af.affine_character(rs, vac, 2)
    oracle = af.affine_freudenthal(rs, vac, 2)
    for n in range(3):
        assert main.layers[n] == oracle.layers[n], f"grade {n}"


def test_layers_are_weyl_invariant():
    aw = af.AffineWeight(A1.weight_from_labels([1]), 2)
    gc = af.affine_character(A1, aw, 3)
    a = A1.simple_roots[0]
    for layer in gc.layers:
        assert FormalCharacter((A1.reflect(v, a), c) for v, c in layer.items()) == layer


def test_graded_branch_and_weight_multiplicity_relation():
    vac = af.AffineWeight(ZERO, 1)
    gc = af.affine_character(A1, vac, 3)
    bs = af.graded_branch_to_g(A1, vac, 3, gc)
    assert bs.entries[(ZERO, 0)] == 1
    assert bs.entries[(A1.weight_from_labels([2]), 1)] == 1
    assert all(b >= 0 for b in bs.entries.values())
    # m^{mu^}_{(nu,k,n)} = sum_xi b_xi(n) m^{(xi)}_nu
    for n in range(4):
        for nu, want in gc.layers[n].items():
            got = 0
            for (xi, g), b in bs.entries.items():
                if g == n:
                    dom, _, _ = A1.dominant_representative(nu)
                    got += b * dominant_multiplicities(A1, xi).get(dom, 0)
            assert got == want


def test_string_functions():
    vac = af.AffineWeight(ZERO, 1)
    gc = af.affine_character(A1, vac, 5)
    assert af.string_function(A1, vac, ZERO, 5, gc) == partitions(5)
    assert af.string_function(A1, vac, vac.finite, 5, gc)[0] == 1
    # a weight outside every layer gives the zero series
    far = A1.weight_from_labels([40])
    assert af.string_function(A1, vac, far, 5, gc) == [0] * 6


def test_q_dimension():
    vac = af.AffineWeight(ZERO, 1)
    assert af.q_dimension(A1, vac, 4) == [1, 3, 4, 7, 13]
    w = af.AffineWeight(A1.weight_from_labels([1]), 1)
    series = af.q_dimension(A1, w, 0)
    assert series == [2]


def test_dominant_weight_ordering():
    a2 = build_root_system("A2")
    basis = af.dominant_weights_up_to(a2, Fraction(2))
    labels = [tuple(map(int, a2.dynkin_labels(v))) for v in basis]
    # zero first; the (rho, xi) tie between the fundamentals is broken
    # lexicographically on the labels
    assert labels[0] == (0, 0)
    assert labels[1] == (0, 1) and labels[2] == (1, 0)
    key = [a2.inner(a2.rho, v) for v in basis]
    assert key == sorted(key)


def test_multiplicity_matrix_a1():
    mm = af.multiplicity_matrix(A1, Fraction(1))
    labels = [int(A1.dynkin_labels(v)[0]) for v in mm.basis]
    assert labels == [0, 1, 2]
    assert mm.mat == [[1, 0, 1], [0, 1, 0], [0, 0, 1]]
    inv = af.invert_multiplicity_matrix(mm)
    assert inv == [[1, 0, -1], [0, 1, 0], [0, 0, 1]]
    n = len(mm.basis)
    prod = [[sum(inv[i][l] * mm.mat[l][j] for l in range(n)) for j in range(n)]
            for i in range(n)]
    assert prod == [[1 if i == j else 0 for j in range(n)] for i in range(n)]


@pytest.mark.parametrize("name,bound", [
    ("A2", 12), ("A2", Fraction(19, 2)), ("B2", 12), ("B2", Fraction(21, 2)),
    ("G2", 16), ("G2", Fraction(25, 2)), ("A3", 9), ("A3", Fraction(17, 2)),
    ("B3", 12), ("B3", Fraction(19, 2)), ("C3", 9), ("C3", Fraction(17, 2)),
    ("A4", 9), ("A4", Fraction(15, 2)), ("D4", 12), ("D4", Fraction(19, 2)),
    ("F4", 16), ("F4", Fraction(23, 2))], ids=str)
def test_multiplicity_matrix_against_independent_build(name, bound):
    rs = build_root_system(name)
    # the basis is a brute-force filter of a label box, in matrix order
    costs = [rs.inner(rs.rho, w) for w in rs.fundamental_weights]
    side = int(bound / min(costs)) + 1
    box = [(rs.inner(rs.rho, rs.weight_from_labels(lbl)), lbl)
           for lbl in itertools.product(range(side), repeat=rs.rank)]
    want = [rs.weight_from_labels(lbl) for key, lbl in sorted(box) if key <= bound]
    assert af.dominant_weights_up_to(rs, bound) == want
    # each column is the dominant character of its basis weight, read by weight
    mm = af.multiplicity_matrix(rs, bound)
    assert mm.basis == want
    for j, xi in enumerate(mm.basis):
        column = dominant_multiplicities(rs, xi)
        assert [row[j] for row in mm.mat] == [column.get(nu, 0) for nu in mm.basis]


def test_invert_unitriangular_validation():
    assert af.invert_unitriangular([[1, 5], [0, 1]]) == [[1, -5], [0, 1]]
    with pytest.raises(ValueError):
        af.invert_unitriangular([[2, 0], [0, 1]])
    with pytest.raises(ValueError):
        af.invert_unitriangular([[1, 0], [3, 1]])


def test_sigma_equals_matrix_times_branching():
    # sigma = M b termwise for the level-2 vacuum module
    aw = af.AffineWeight(ZERO, 2)
    N = 4
    gc = af.affine_character(A1, aw, N)
    bs = af.graded_branch_to_g(A1, aw, N, gc)
    support = bs.weights()
    bound = max(A1.inner(A1.rho, v) for v in support)
    mm = af.multiplicity_matrix(A1, bound)
    idx = {v: i for i, v in enumerate(mm.basis)}
    nbasis = len(mm.basis)
    for g in range(N + 1):
        sigma = [gc.layers[g].get(v) for v in mm.basis]
        b = [bs.entries.get((v, g), 0) for v in mm.basis]
        for i in range(nbasis):
            assert sigma[i] == sum(mm.mat[i][j] * b[j] for j in range(nbasis))


def test_affine_branch_routes_agree_small():
    g2 = build_root_system("G2")
    s = find_splint("G2:A2A2")
    vac = af.AffineWeight(zero_vec(g2.dim), 1)
    gc = af.affine_character(g2, vac, 1)
    left = af.branch_affine_to_subalgebra(g2, s, vac, 1, gc=gc)
    right = af.branch_affine_direct(g2, s, vac, 1, gc=gc)
    assert left.entries == right.entries
    assert left.entries[(zero_vec(g2.dim), 0)] == 1
    assert all(b >= 0 for b in left.entries.values())


@pytest.mark.parametrize("helper", ["q_dimension", "string_function", "graded_branch_to_g",
                                    "branch_affine_direct", "branch_affine_to_subalgebra"])
def test_character_below_the_cutoff_is_refused(helper):
    # a given character that stops below the cutoff is refused, naming both
    # cutoffs, and so is a negative cutoff, with or without a character; one
    # with more grades is read up to the cutoff
    b2, s = build_root_system("B2"), find_splint("B2:A1A1")
    vac = af.AffineWeight(zero_vec(b2.dim), 1)
    call = {
        "q_dimension": lambda n, gc: af.q_dimension(b2, vac, n, gc=gc),
        "string_function": lambda n, gc: af.string_function(b2, vac, vac.finite, n, gc),
        "graded_branch_to_g": lambda n, gc: af.graded_branch_to_g(b2, vac, n, gc),
        "branch_affine_direct": lambda n, gc: af.branch_affine_direct(b2, s, vac, n, gc=gc),
        "branch_affine_to_subalgebra":
            lambda n, gc: af.branch_affine_to_subalgebra(b2, s, vac, n, gc=gc),
    }[helper]
    with pytest.raises(ValueError, match="^character has cutoff 1, below the requested "
                                         "cutoff 2$"):
        call(2, af.affine_character(b2, vac, 1))
    for gc in (af.affine_character(b2, vac, 1), None):
        with pytest.raises(ValueError, match="^cutoff must be >= 0$"):
            call(-1, gc)
    assert call(1, af.affine_character(b2, vac, 2)) == call(1, None)
