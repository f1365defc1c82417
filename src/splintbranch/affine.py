"""Truncated characters of untwisted affine Lie algebra modules.

Gradings are explicit integer indices (powers of e^{-delta}); delta itself is
never represented as an ambient vector, and an `AffineWeight` is a highest
weight (finite part, level) at grade 0.  The main route computes the
numerator as a truncated affine Weyl orbit (finite Weyl group composed with
coroot-lattice translations) and divides by the truncated denominator layer
by layer, each division exact in the group ring.  Its oracle,
`affine_freudenthal`, shares none of the three: it sums the Weyl orbits of
the dominant weights of the Freudenthal recursion on labels that also builds
the finite tables (`characters._freudenthal_tables`).

The main route runs on integer codes (`characters.encode`): the numerator
(`characters._numerator_codes`, shared with the theta sums of `qseries`),
the denominator (`characters._affine_denominator`, each grade expanded once
per process and kept in its cache, never changed), the layered products
(`characters.code_products`) and the layered division by one positive-root
factor at a time (`characters._divide_by_roots`; `characters.divide_codes`
is the general division and its oracle) all add ints.  Fractions are built
once, when the layers are returned.

The branching to the horizontal algebra is read off the dividends, with
nothing decomposed.  The dividend of grade n, before the division, is
R ch_n = sum_nu b_nu(n) sum_w eps(w) e^{w(nu + rho) - rho} (R the finite
Weyl denominator), so b_nu(n) is its coefficient at nu, the one term of its
orbit with labels >= 0.  A dividend with other than |W| terms per such term,
or a negative b, raises AssertionError.  The series is kept on the
`GradedCharacter` for its algebra; `graded_branch_to_g` serves it, sliced for
a shorter cutoff.  It peels a character built any other way and keeps nothing
(`_peel`, shared with `branch_affine_direct`; `decompose_character` is also
this read's oracle in the tests).
Splint branching sums the integer tables that each `Splint` keeps by ambient
labels (`splints._branch_codes`) and builds each distinct weight once.
The multiplicity matrix reads the finite label tables: its basis is listed on
Dynkin labels (`_labels_up_to`), and column j holds the rows of
`characters._dominant_table` for the j-th labels.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import mul
from typing import NamedTuple

from .rootsystem import RootSystem, Vec, vadd, vneg, vsub
from .characters import (_affine_denominator, _divide_by_roots, _dominant_table,
                         _freudenthal_tables, _numerator_codes, _orbit_character,
                         _split_dominant, _weight, code_products, common_denominator, decode,
                         decompose_character, encode, rho_pairing, weyl_dimension)
from .splints import Splint, _branch_codes


class AffineWeight(NamedTuple):
    """Highest weight (finite part, level) of an affine module, at grade 0."""
    finite: Vec
    level: int


def check_affine_dominant(rs: RootSystem, aw: AffineWeight):
    """Dominant integral highest weight at its level: (mu, theta^v) <= k."""
    if len(rs.factors) != 1:
        raise ValueError("affine operations require a simple ambient algebra")
    _split_dominant(rs, aw.finite)
    if type(aw.level) is not int or aw.level < 0:        # a bool is refused too
        raise ValueError("level must be a nonnegative integer")
    theta = rs.highest_roots[0]
    tv = rs.inner(aw.finite, rs.coroot(theta))
    if tv > aw.level:
        raise ValueError(f"(mu, theta^v) = {tv} exceeds level {aw.level}")


class GradedCharacter:
    """Layers of weight multiplicities by grade, exact up to the cutoff."""

    def __init__(self, cutoff: int, layers: list):
        self.cutoff = cutoff
        self.layers = layers  # list[FormalCharacter], index = grade
        # (rs.factors, the BranchingSeries read off the grade numerators),
        # set by affine_character only
        self._branch = (None, None)

    def __eq__(self, o):
        return type(o) is GradedCharacter and (self.cutoff, self.layers) == (o.cutoff, o.layers)

    def __repr__(self):
        return f"GradedCharacter(cutoff={self.cutoff!r}, layers={self.layers!r})"


class BranchingSeries:
    """Graded branching coefficients: (target highest weight, grade) -> int."""

    def __init__(self, cutoff: int, entries: dict):
        self.cutoff = cutoff
        self.entries = entries

    def __eq__(self, o):
        return type(o) is BranchingSeries and (self.cutoff, self.entries) == (o.cutoff, o.entries)

    def series(self, nu: Vec):
        return [self.entries.get((nu, n), 0) for n in range(self.cutoff + 1)]

    def weights(self):
        return sorted({nu for nu, _ in self.entries})


def affine_character(rs: RootSystem, aw: AffineWeight, cutoff: int) -> GradedCharacter:
    """All weight multiplicities of L^{mu^} for grades <= cutoff, exact.

    Numerator, denominator, the layered products and the layered division
    all run on codes over one common denominator; the layers are decoded
    once, at the end.  The branching to rs is read off each dividend and
    kept on the result (see the module docstring)."""
    check_affine_dominant(rs, aw)
    if cutoff < 0:
        raise ValueError("cutoff must be >= 0")
    K = aw.level + rs.dual_coxeter[0]
    lam = vadd(aw.finite, rs.rho)
    den = common_denominator(rs.fundamental_weights + (lam,))
    fw = [encode(w, den) for w in rs.fundamental_weights]
    # a point y codes as y - rho: its labels on fw, the W-fixed part of lam, -rho
    fixed = vsub(lam, rs.weight_from_labels(rs.dynkin_labels(lam)))
    num = _numerator_codes(rs, lam, K, cutoff, fw, encode(vsub(fixed, rs.rho), den))
    denom = _affine_denominator([encode(a, den) for a in rs.positive_roots], rs.rank, cutoff)
    factors, pair = [encode(vneg(a), den) for a in reversed(rs.positive_roots)], rho_pairing(rs)
    rows = rs.label_rows()[0]
    chars: list[dict] = []
    entries: dict = {}
    for n in range(cutoff + 1):
        (rhs,) = code_products([(num[n], [(chars[n - j], denom[j]) for j in range(1, n + 1)])],
                               -1)
        # rhs = sum_nu b_nu(n) sum_w eps(w) e^{w(nu + rho) - rho}: b_nu(n) sits at the
        # code of nu, the one term of its orbit with labels >= 0 (codes negate them)
        top = sorted((sum(map(mul, pair, c)), c, b) for c, b in rhs.items()
                     if all(sum(map(mul, row, c)) <= 0 for row in rows))
        if len(rhs) != rs.weyl_order * len(top) or any(b < 0 for _, _, b in top):
            raise AssertionError(f"grade {n} numerator is not a sum of Weyl numerators")
        entries.update(((_weight(c, den), n), b) for _, c, b in top)
        chars.append(_divide_by_roots(rhs, factors, pair))
    gc = GradedCharacter(cutoff, [decode(layer, den) for layer in chars])
    check_highest_weight(gc, aw)
    gc._branch = (rs.factors, BranchingSeries(cutoff, entries))
    return gc


def check_highest_weight(gc: GradedCharacter, aw: AffineWeight):
    """The grade-0 layer of L^{mu^} holds mu exactly once."""
    if gc.layers[0].get(aw.finite) != 1:
        raise AssertionError("highest weight missing from grade-0 layer")


def _character(rs: RootSystem, aw: AffineWeight, cutoff: int, gc: GradedCharacter | None):
    """gc, or the character of aw up to cutoff when gc is None; a negative cutoff
    or a gc that stops below it is refused, and one with more grades is read up to it."""
    if gc is None:
        return affine_character(rs, aw, cutoff)
    if cutoff < 0:
        raise ValueError("cutoff must be >= 0")
    if gc.cutoff < cutoff:
        raise ValueError(f"character has cutoff {gc.cutoff}, below the requested cutoff {cutoff}")
    return gc


# ---------------------------------------------------------------------------
# independent oracle: affine Freudenthal recursion


def affine_freudenthal(rs: RootSystem, aw: AffineWeight, cutoff: int) -> GradedCharacter:
    """Weight multiplicities by the affine Freudenthal formula.

    Independent of the orbit/division route: characters._freudenthal_tables
    runs the recursion on the dominant labels of each grade, and each grade
    is the sum of their Weyl orbits, as in freudenthal_character."""
    check_affine_dominant(rs, aw)
    if cutoff < 0:
        raise ValueError("cutoff must be >= 0")
    top, offset = _split_dominant(rs, aw.finite)
    return GradedCharacter(cutoff, [_orbit_character(rs, aw.finite, offset, table) for table
                                    in _freudenthal_tables(rs, top, aw.level, cutoff)])


# ---------------------------------------------------------------------------
# graded branching and string functions


def _peel(gc: GradedCharacter, cutoff: int, decompose) -> BranchingSeries:
    """Grades 0..cutoff of gc, each layer decomposed by decompose."""
    return BranchingSeries(cutoff, {(nu, n): b for n in range(cutoff + 1)
                                    for nu, b in decompose(gc.layers[n]).items()})


def graded_branch_to_g(rs: RootSystem, aw: AffineWeight, cutoff: int,
                       gc: GradedCharacter | None = None) -> BranchingSeries:
    """Every grade layer as a sum of irreducible modules of the horizontal
    subalgebra.  A character fresh from affine_character holds the series
    read off its grade numerators, served as it is at its cutoff and as a
    slice, in the same order, below it.  Any other one (a cache hit,
    affine_freudenthal, one built by hand, or another algebra on the same
    weights) is peeled on every call, and the decomposer enforces
    nonnegative coefficients and an exact reconstruction."""
    gc = _character(rs, aw, cutoff, gc)
    key, read = gc._branch
    if key != rs.factors:
        return _peel(gc, cutoff, lambda layer: decompose_character(rs, layer))
    return read if cutoff == read.cutoff else BranchingSeries(
        cutoff, {k: b for k, b in read.entries.items() if k[1] <= cutoff})


def string_function(rs: RootSystem, aw: AffineWeight, nu: Vec, cutoff: int,
                    gc: GradedCharacter | None = None):
    """Multiplicities of (nu, k, n) across grades n = 0..cutoff."""
    gc = _character(rs, aw, cutoff, gc)
    return [gc.layers[n].get(nu) for n in range(cutoff + 1)]


def q_dimension(rs: RootSystem, aw: AffineWeight, cutoff: int,
                bs: BranchingSeries | None = None, gc: GradedCharacter | None = None):
    """Graded dimension sum_n q^n sum_nu b(n) dim L^nu, exact integers.

    Cross-checked against the total layer multiplicity, which counts the same
    dimension directly from the character.  A bs or gc that stops below
    cutoff is refused."""
    gc = _character(rs, aw, cutoff, gc)
    if bs is None:
        bs = graded_branch_to_g(rs, aw, cutoff, gc)
    elif bs.cutoff < cutoff:
        raise ValueError(f"branching series has cutoff {bs.cutoff}, below the requested "
                         f"cutoff {cutoff}")
    dims = {nu: weyl_dimension(rs, nu) for nu in {nu for nu, _ in bs.entries}}
    out = [0] * (cutoff + 1)
    for (nu, n), b in bs.entries.items():
        if n <= cutoff:
            out[n] += b * dims[nu]
    if any(d != layer.total() for d, layer in zip(out, gc.layers)):
        raise AssertionError("q-dimension disagrees with layer totals")
    return out


# ---------------------------------------------------------------------------
# weight ordering and the multiplicity matrix


class MultiplicityMatrix(NamedTuple):
    """m^{(xi)}_nu over dominant weights ordered by ((rho,xi), labels)."""
    basis: list          # dominant weights, ascending
    mat: list            # mat[i][j] = multiplicity of basis[i] in L^{basis[j]}


def _labels_up_to(rs: RootSystem, bound) -> list:
    """Dynkin labels of the dominant integral xi with (rho, xi) <= bound,
    sorted by ((rho, xi), labels).  (rho, omega_i) scaled by form_den is the
    i-th row sum of the integer form, so the costs are ints."""
    ld = rs.label_data
    top = math.floor(Fraction(bound) * ld.form_den)
    rows = [(0, ())]
    for cost in map(sum, ld.form):
        rows = [(s + m * cost, lbl + (m,)) for s, lbl in rows
                for m in range((top - s) // cost + 1)]
    return [lbl for _, lbl in sorted(rows)]


def dominant_weights_up_to(rs: RootSystem, bound: Fraction):
    """Dominant integral xi with (rho, xi) <= bound, in matrix order."""
    return [w for w, _ in rs.from_labels((lbl, None) for lbl in _labels_up_to(rs, bound))]


def multiplicity_matrix(rs: RootSystem, bound) -> MultiplicityMatrix:
    """m^{(xi)}_nu over the dominant xi with (rho, xi) <= bound: column j is
    read from the rows of _dominant_table for the j-th basis labels, and the
    basis weights are built once, at the end."""
    labels = _labels_up_to(rs, bound)
    index = {lbl: i for i, lbl in enumerate(labels)}
    n = len(labels)
    mat = [[0] * n for _ in range(n)]
    for j, top in enumerate(labels):
        for nu, _, m in _dominant_table(rs, top):
            i = index.get(nu)
            if i is not None:
                mat[i][j] = m
    for i in range(n):
        if mat[i][i] != 1:
            raise AssertionError("multiplicity matrix diagonal is not 1")
        for j in range(i):
            if mat[i][j]:
                raise AssertionError("multiplicity matrix is not unitriangular")
    return MultiplicityMatrix([w for w, _ in rs.from_labels((lbl, None) for lbl in labels)], mat)


def invert_unitriangular(mat):
    """Exact integer inverse of a unitriangular integer matrix."""
    n = len(mat)
    for i in range(n):
        if mat[i][i] != 1:
            raise ValueError("matrix diagonal must be 1")
        for j in range(i):
            if mat[i][j]:
                raise ValueError("matrix must be unitriangular (zeros below diagonal)")
    inv = [[0] * n for _ in range(n)]
    for j in range(n):
        inv[j][j] = 1
        for i in range(j - 1, -1, -1):
            inv[i][j] = -sum(mat[i][l] * inv[l][j] for l in range(i + 1, j + 1))
    return inv


def invert_multiplicity_matrix(m: MultiplicityMatrix):
    return invert_unitriangular(m.mat)


# ---------------------------------------------------------------------------
# branching through a splint (affine module to the regular subalgebra)


def branch_affine_to_subalgebra(rs: RootSystem, s: Splint, aw: AffineWeight,
                                cutoff: int, gc: GradedCharacter | None = None
                                ) -> BranchingSeries:
    """Composed route: branch each grade layer to the horizontal algebra, then
    push each distinct module once through the tilde-weight shortcut, summing
    on its integer label codes; each distinct weight is built once."""
    if s.ambient.factors != rs.factors:
        raise ValueError("splint ambient does not match the affine algebra")
    status = s.branching_status()
    if not status:
        raise ValueError(f"splint {s.name} is flagged: tilde-weight branching not "
                         f"applicable ({status.problems[0]})")
    bs = graded_branch_to_g(rs, aw, cutoff, gc)
    acc: dict = {}
    tables: dict = {}
    for (nu, n), b in bs.entries.items():
        if nu not in tables:
            tables[nu] = _branch_codes(s, nu)
        for code, c in tables[nu][0].items():
            acc[code, n] = acc.get((code, n), 0) + b * c
    if len(offsets := {offset for _, offset in tables.values()}) != 1:
        raise AssertionError("module weights differ in their W-fixed part")
    xi = {code: v for v, code in s.ambient.from_labels(
        ((c, c) for c in dict.fromkeys(c for c, _ in acc)), s.tilde_map()[1], *offsets)}
    return BranchingSeries(cutoff, {(xi[code], n): v for (code, n), v in acc.items() if v})


def branch_affine_direct(rs: RootSystem, s: Splint, aw: AffineWeight,
                         cutoff: int, gc: GradedCharacter | None = None
                         ) -> BranchingSeries:
    """Direct route: decompose each grade layer straight into subalgebra
    modules by highest-weight subtraction."""
    return _peel(_character(rs, aw, cutoff, gc), cutoff, s.subalgebra_view().decompose)
