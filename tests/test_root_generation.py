"""Differential tests for the integer root builder and the shared root
systems.

`RootSystem._generate_roots` closes the simple roots and their negatives
under the integer simple reflections on simple-root coefficients and
converts each root to coordinates once.  It is checked against two
test-local oracles: the Fraction builder it replaced (closure under Fraction
reflections, simple coefficients from the inverse Gram matrix), and root
strings grown from the Cartan matrix (beta + alpha_i is a root iff
q - <beta, alpha_i^vee> > 0).  The `roots` command's stdout on every algebra
is pinned by SHA-256 digests in tests/golden/roots-digests.json.
`build_root_system` hands out one shared instance per algebra.
"""

import contextlib
import hashlib
import io
import json
import pathlib
from fractions import Fraction
from operator import mul

import pytest

from splintbranch import qseries as qs
from splintbranch.cli import main
from splintbranch.rootsystem import build_root_system, invert_matrix, vcombine, vneg, zero_vec
from splintbranch.splints import find_splint, splint_catalog

# every family up to total rank 8, and products
ALGEBRAS = ([f"A{n}" for n in range(1, 9)] + [f"B{n}" for n in range(2, 9)]
            + [f"C{n}" for n in range(2, 9)] + [f"D{n}" for n in range(2, 9)]
            + ["E6", "E7", "E8", "F4", "G2",
               "A1xA1", "A2xG2", "B3xA1", "A1xA1xA1", "G2xF4", "A3xB2xA1", "D2xD3"])


def reflection_closure(rs):
    """(root set, positive roots sorted by (height, vector), simple
    coefficients of every root): the simple roots and their negatives closed
    under Fraction reflections, coefficients from the inverse Gram matrix."""
    roots = set(rs.simple_roots) | {vneg(a) for a in rs.simple_roots}
    frontier = list(roots)
    while frontier:
        nxt = []
        for v in frontier:
            for a in rs.simple_roots:
                r = rs.reflect(v, a)
                if r not in roots:
                    roots.add(r)
                    nxt.append(r)
        frontier = nxt
    inv = invert_matrix([[rs.inner(a, b) for b in rs.simple_roots] for a in rs.simple_roots])
    coeffs = {}
    for v in roots:
        rhs = [rs.inner(v, a) for a in rs.simple_roots]
        coeffs[v] = tuple(sum(map(mul, row, rhs)) for row in inv)
    assert all(c.denominator == 1 for k in coeffs.values() for c in k)
    positive = [v for v in roots if all(c >= 0 for c in coeffs[v])]
    assert 2 * len(positive) == len(roots)
    positive.sort(key=lambda v: (sum(coeffs[v]), v))
    return roots, positive, coeffs


@pytest.mark.parametrize("name", ALGEBRAS)
def test_integer_builder_matches_reflection_closure(name):
    rs = build_root_system(name)
    roots, positive, coeffs = reflection_closure(rs)
    assert set(rs.roots) == roots
    # the breadth-first insertion order of the reflection closure is kept
    assert list(rs.roots) == list(frozenset(roots))
    assert list(rs.positive_roots) == positive
    for v in roots:
        got = rs.simple_coefficients(v)
        assert got == coeffs[v] and all(isinstance(c, Fraction) for c in got), v
    assert len(rs.positive_roots) * 2 == len(rs.roots)


@pytest.mark.parametrize("name", ALGEBRAS)
def test_root_coefficients_key_the_roots_themselves(name):
    # one int form of each root's simple coefficients, keyed by the very
    # objects of rs.roots (a parsed embedding's keys are the source's own roots)
    rs = build_root_system(name)
    coeffs = rs.root_coefficients
    assert sorted(map(id, coeffs)) == sorted(map(id, rs.roots))
    for root, k in coeffs.items():
        assert type(k) is tuple and all(type(c) is int for c in k), root
        assert k == rs.simple_coefficients(root)
    positive = [c for _, c in rs.label_data.positive]
    assert len(positive) == len(rs.positive_roots)
    assert all(c is coeffs[a] for c, a in zip(positive, rs.positive_roots))


@pytest.mark.parametrize("name", ALGEBRAS)
def test_invert_matrix_is_exact_on_int_cartan_matrices(name):
    # the int Cartan matrix inverts to Fractions, not floats: C C^-1 = 1
    cartan = build_root_system(name).cartan
    inv = invert_matrix(cartan)
    assert all(type(x) is Fraction for row in inv for x in row)
    n = len(cartan)
    assert [[sum(map(mul, row, col)) for col in zip(*inv)] for row in cartan] == [
        [int(i == j) for j in range(n)] for i in range(n)]
    assert invert_matrix([[2, 1], [1, 2]]) == [[Fraction(2, 3), Fraction(-1, 3)],
                                               [Fraction(-1, 3), Fraction(2, 3)]]


def test_invert_matrix_refuses_a_singular_matrix():
    # a ValueError, not a bare StopIteration (a RuntimeError inside a generator)
    for singular in ([[1, 1], [1, 1]], [[0]], [[Fraction(1, 2), 1], [1, 2]]):
        with pytest.raises(ValueError, match="^matrix is singular$"):
            invert_matrix(singular)


def string_growth(rs):
    """Simple coefficients of the positive roots, grown from the simple roots
    by root strings: beta + alpha_i is a root iff q - <beta, alpha_i^vee> > 0,
    q the number of times alpha_i can be subtracted from beta."""
    n = rs.rank

    def step(k, i, c):  # beta + c alpha_i
        return k[:i] + (k[i] + c,) + k[i + 1:]

    level = [step((0,) * n, i, 1) for i in range(n)]
    found = set(level)
    while level:
        nxt = []
        for k in level:
            for i in range(n):
                q = 0
                while step(k, i, -q - 1) in found:
                    q += 1
                pairing = sum(k[j] * rs.cartan[j][i] for j in range(n))
                up = step(k, i, 1)
                if q - pairing > 0 and up not in found:
                    found.add(up)
                    nxt.append(up)
        level = nxt
    return found


@pytest.mark.parametrize("name", ALGEBRAS)
def test_integer_builder_matches_string_growth(name):
    rs = build_root_system(name)
    grown = string_growth(rs)
    assert {tuple(map(int, rs.simple_coefficients(v))) for v in rs.positive_roots} == grown
    zero = zero_vec(rs.dim)
    positive = sorted(((sum(k), vcombine(zero, k, rs.simple_roots)) for k in grown))
    assert list(rs.positive_roots) == [v for _, v in positive]
    assert rs.roots == frozenset(v for _, v in positive) | {vneg(v) for _, v in positive}


ROOTS_DIGESTS = json.loads(
    (pathlib.Path(__file__).parent / "golden" / "roots-digests.json").read_text())


@pytest.mark.parametrize("name", ALGEBRAS)
def test_roots_output_matches_recorded_digests(name):
    # SHA-256 of `roots --algebra <name>` stdout, recorded before the root
    # builder became one reflection closure
    assert sorted(ROOTS_DIGESTS) == sorted(ALGEBRAS)
    for fmt in ("text", "json"):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["roots", "--algebra", name, "--format", fmt, "--no-cache"])
        assert (code, err.getvalue()) == (0, "")
        assert hashlib.sha256(out.getvalue().encode()).hexdigest() == ROOTS_DIGESTS[name][fmt]


def test_root_systems_are_shared():
    assert build_root_system("A2") is build_root_system([("A", 2)])
    assert build_root_system("a1xA1") is build_root_system([("A", 1), ("A", 1)])
    assert build_root_system("A1xA2") is not build_root_system("A2xA1")
    g2 = build_root_system("G2")
    s = find_splint("G2:A2A2")
    assert s.ambient is g2 and s.phi1.source is s.phi2.source is build_root_system("A2")
    # a refused build leaves nothing behind: it is refused again
    for _ in range(2):
        with pytest.raises(ValueError):
            build_root_system("A9")


def test_catalog_matches_ambients_by_name():
    assert [s.name for s in splint_catalog(build_root_system("B2"))] == ["B2:A1A1", "B2:A1A2"]
    assert [s.name for s in splint_catalog(build_root_system("A3"))] == ["A3:A2A1A1A1"]
    assert splint_catalog(build_root_system("A1")) == []
    assert splint_catalog(build_root_system("A1xA1")) == []


# verify_theta_sums reports of the catalog splints, as computed when every
# call built its own factor root systems: (first mismatch, where it differs)
THETA_SUM_REPORTS = {
    "G2:A2A2": ("2/3", "(3, -1, -2): 1 against 0"),
    "B2:A1A1": ("1/2", "(3/2, 1/2): 1 against 0"),
    "B2:A1A2": ("11/24", "(3/2, 1/2): 1 against 0"),
    "A2:A1A1A1": ("3/8", "(1, 0, -1): 1 against 0"),
    "A3:A2A1A1A1": ("17/24", "(3/2, 1/2, -1/2, -3/2): 1 against 0"),
}


@pytest.mark.parametrize("name", sorted(THETA_SUM_REPORTS))
def test_theta_sum_reports_unchanged_on_shared_root_systems(name):
    s = find_splint(name)
    rep = qs.verify_theta_sums(s, 0)
    assert (rep.passed, rep.detail, rep.first_mismatch, rep.normalization) == \
        (True, "both sides vanish through q^0", None, None)
    rep = qs.verify_theta_sums(s, 3)
    assert (rep.passed, rep.detail, rep.first_mismatch, rep.normalization) == \
        (True, "normalization q^0", None, 0)
    rep = qs.verify_theta_sums(s, 3, drop_term=True)
    at, where = THETA_SUM_REPORTS[name]
    at = Fraction(at)
    assert (rep.passed, rep.detail, rep.first_mismatch, rep.normalization) == \
        (False, f"coefficients at q^{at} differ at weight {where}", at, 0)
