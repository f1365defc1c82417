"""Truncated characters of untwisted affine Lie algebra modules.

Gradings are explicit integer indices (powers of e^{-delta}); delta itself is
never represented as an ambient vector, and an `AffineWeight` is a highest
weight (finite part, level) at grade 0.  The main route folds the Weyl-Kac
numerator into the dominant chamber on Dynkin labels: with
N = R D' ch (R the finite Weyl denominator, D' the rest of the affine
denominator), the grade-n part R ch_n = sum_nu b_nu(n) A(nu + rho), A the
alternating Weyl orbit sum, satisfies F_n = N_n - sum_{j=1..n} F_{n-j} * D'_j,
where F_n = b(n) on the labels of nu + rho, and * adds each D'_j term to
nu + rho and carries the sum into the dominant chamber with its reflection
sign (a singular sum drops out; D' is W-invariant).  This is the recursion of
Lyakhovsky and Nazarov, J. Phys. A 44 (2011) 075205.  Each numerator point
(`characters._numerator_points`, the walk shared with the theta sums of
`qseries`) adds its sign at its dominant labels, D' comes from
`characters._affine_denominator` seeded with 1 instead of R, read on label
codes (each grade unpacked once per process), and no orbit, product or
division is formed.  Each grade j of D' must sum to the q^j coefficient of
phi(q)^{dim g} (every e^alpha set to 1; the package's one phi^m,
`characters._phi_power`), or AssertionError, before the fold reads
it; a sum that already holds a zero label is singular and skipped before it
is reflected.  `graded_character` builds the character
from the series, folded here or read from the CLI's disk cache, behind one
gate: no grade 0, or a term that is not rank int labels >= 0 with an int b,
raises ValueError, and a b that is not positive, a grade 0 other than mu
once, or a constituent nu outside the ball |nu + rho|^2 <= |mu + rho|^2 +
2 n K of its grade (Kac, Infinite-dimensional Lie algebras, Prop. 11.4)
raises AssertionError.  The ball (`characters._ball`), the label form
(`LabelData.pair`) and the weight codes (`RootSystem._label_codes`) are
those of the finite characters.

Every `GradedCharacter` is its dominant rows, per grade dominant labels ->
multiplicity, with its algebra, its W-fixed offset and, from
`graded_character`, the series; there each row is sum_nu b_nu(n) times the
dominant table of L(nu) (`characters._dominant_table`), and the series
carries the int Dynkin labels of each nu next to its `Fraction` weight, so
that no consumer turns a weight back into labels.  Its layer, the Weyl
orbits of the row in the (rho-pairing, code) order of the group-ring
division, decoded once, is built on the first read of
`GradedCharacter.layers` and kept.  The fold's oracle, `affine_freudenthal`,
passes the rows of the Freudenthal recursion on labels that also builds the
finite tables (`characters._freudenthal_tables`) and no series; the tests
also keep the product-and-division route the fold replaced.
`graded_branch_to_g` serves the series of a character for its own algebra,
sliced for a shorter cutoff, and peels the layers otherwise (`_peel`, shared
with `branch_affine_direct`; `decompose_character` is also the fold's oracle
in the tests).  `string_function` reads the rows at the dominant labels of a
weight through the character's algebra, and `q_dimension` checks
sum_nu b dim L(nu), read off the carried labels, against
sum_lambda m |W lambda| over the rows.  Splint branching sums the integer
tables that each `Splint` keeps by ambient labels (`splints._branch_codes`),
looked up by the carried labels, and builds each distinct weight once.  A
series without labels for the algebra asked for (hand-built, peeled, or a B2
character read as C2) has each weight split once (`_series_labels`).
The multiplicity matrix reads the finite label tables: its basis is listed on
Dynkin labels (`_labels_up_to`), and column j holds the rows of
`characters._dominant_table` for the j-th labels.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction
from functools import cached_property
from operator import add, mul

from .rootsystem import FractionCache, RootSystem, Vec, invert_matrix
from .characters import (_affine_denominator, _ball, _dominant_table, _freudenthal_tables,
                         _numerator_points, _order_key, _phi_power, _split_dominant,
                         decode, decompose_character, label_dimension, rho_pairing)
from .splints import Splint, _branch_codes, require_tilde_branching


class AffineWeight(namedtuple("AffineWeight", "finite level")):
    """Highest weight (finite part, level) of an affine module, at grade 0:
    finite a Fraction vector, level an int."""
    __slots__ = ()


def check_affine_dominant(rs: RootSystem, aw: AffineWeight) -> tuple:
    """Dominant integral highest weight at its level: (mu, theta^v) <= k.
    Returns the int Dynkin labels of mu, which (mu, theta^v) is read off."""
    if len(rs.factors) != 1:
        raise ValueError("affine operations require a simple ambient algebra")
    labels, _ = _split_dominant(rs, aw.finite)
    if type(aw.level) is not int or aw.level < 0:        # a bool is refused too
        raise ValueError("level must be a nonnegative integer")
    ld = rs.label_data
    # theta^v = theta (|theta|^2 = 2), the highest root: the last positive root
    tv = ld.pair(labels, ld.positive[-1][0]) // ld.form_den
    if tv > aw.level:
        raise ValueError(f"(mu, theta^v) = {tv} exceeds level {aw.level}")
    return labels


class GradedCharacter:
    """Weight multiplicities by grade, exact up to cutoff = len(rows) - 1.

    rows[n] maps the Dynkin labels (of rs) of each dominant weight of grade n
    to its multiplicity; offset is the W-fixed part of every weight (None
    when zero, as split_labels gives it), and series is the branching to rs
    (None for a character not built by graded_character)."""

    def __init__(self, rs: RootSystem, offset, rows: list, series: BranchingSeries | None = None):
        self.rs, self.offset, self.rows, self.series = rs, offset, rows, series
        self.cutoff = len(rows) - 1

    @cached_property
    def layers(self) -> list:
        """Each grade's Weyl orbits of its dominant rows, in the (rho-pairing,
        code) order of the group-ring division, decoded once."""
        fw, off, den = self.rs._label_codes(1, self.offset)
        order, layers = _order_key(rho_pairing(self.rs)), []
        for mult in self.rows:
            layer = {code: m for lbl, m in mult.items()
                     for code, _ in self.rs.label_orbit(lbl, fw, off)}
            layers.append(decode({c: layer[c] for c in sorted(layer, key=order)}, den))
        return layers

    def __eq__(self, o):
        return type(o) is GradedCharacter and (self.cutoff, self.layers) == (o.cutoff, o.layers)

    def __repr__(self):
        return f"GradedCharacter(cutoff={self.cutoff!r}, layers={self.layers!r})"


class BranchingSeries:
    """Graded branching coefficients: (target highest weight, grade) -> int.

    A series from graded_character also carries the algebra rs of its
    targets, their W-fixed offset and the int Dynkin labels under rs of each
    entry's weight, in entry order (None otherwise); equality compares cutoff
    and entries only."""

    def __init__(self, cutoff: int, entries: dict, rs: RootSystem | None = None,
                 offset=None, labels: list | None = None):
        self.cutoff, self.entries = cutoff, entries
        self.rs, self.offset, self.labels = rs, offset, labels

    def __eq__(self, o):
        return type(o) is BranchingSeries and (self.cutoff, self.entries) == (o.cutoff, o.entries)

    def series(self, nu: Vec):
        return [self.entries.get((nu, n), 0) for n in range(self.cutoff + 1)]

    def weights(self):
        return sorted({nu for nu, _ in self.entries})


def _series_labels(bs: BranchingSeries, rs: RootSystem):
    """(labels, offsets): the int Dynkin labels under rs of each weight of bs,
    in entry order, and the set of their W-fixed offsets.  Labels carried for
    rs's algebra are read as they are; any other series (hand-built, peeled,
    or carried for another algebra) has each weight split once, and a weight
    that is not dominant integral is refused."""
    if bs.labels is not None and bs.rs.factors == rs.factors:
        return bs.labels, {bs.offset}
    splits = [_split_dominant(rs, nu) for nu, _ in bs.entries]
    return [lbl for lbl, _ in splits], {off for _, off in splits}


def affine_character(rs: RootSystem, aw: AffineWeight, cutoff: int) -> GradedCharacter:
    """All weight multiplicities of L^{mu^} for grades <= cutoff, exact.

    The branching to rs is folded out of the Weyl-Kac numerator on Dynkin
    labels, and graded_character builds the layers from it (see the module
    docstring)."""
    lam = tuple(m + 1 for m in check_affine_dominant(rs, aw))
    if cutoff < 0:
        raise ValueError("cutoff must be >= 0")
    # D' on labels: the affine denominator without its q-free factor R
    images = [a for a, _ in rs.label_data.positive]
    denom = _affine_denominator(images, rs.rank, cutoff, rooted=False).codes
    # every e^alpha set to 1 turns D' into phi(q)^{dim g}
    phi = _phi_power(rs.rank + 2 * len(images), cutoff)
    for j, (layer, want) in enumerate(zip(denom, phi)):
        if (total := sum(layer.values())) != want:
            raise AssertionError(f"grade {j} of D' sums to {total}, not to the "
                                 f"q^{j} coefficient {want} of phi(q)^dim g")
    folds = [{} for _ in range(cutoff + 1)]      # labels of nu + rho -> b_nu(n)
    for g, x, sign in _numerator_points(rs, lam, aw.level + rs.dual_coxeter[0], cutoff):
        folds[g][x] = folds[g].get(x, 0) + sign
    dominant = rs.dominant_labels
    for n, fold in enumerate(folds):
        # R ch_n = N_n - sum_j R ch_{n-j} D'_j, each product folded into the
        # dominant chamber with its reflection sign; a singular point drops out
        for j in range(1, n + 1):
            for x, b in folds[n - j].items():
                for a, d in denom[j].items():
                    y = tuple(map(add, x, a))
                    if 0 in y:           # on a wall already: its image is singular
                        continue
                    y, s = dominant(y)
                    if all(y):
                        fold[y] = fold.get(y, 0) - s * b * d
        folds[n] = {x: b for x, b in fold.items() if b}
    return graded_character(rs, aw, [{tuple(m - 1 for m in x): b for x, b in fold.items()}
                                     for fold in folds])


def graded_character(rs: RootSystem, aw: AffineWeight, folds: list) -> GradedCharacter:
    """The character of L^{mu^} up to grade len(folds) - 1 from its branching
    to rs: folds[n] maps the Dynkin labels of each constituent nu of grade n
    to b_nu(n).  No grade 0, or a term whose labels are not a tuple of
    rs.rank ints >= 0 or whose b is not an int, raises ValueError; a b that
    is not positive, a constituent outside the ball |nu + rho|^2 <=
    |mu + rho|^2 + 2 n K of its grade, or a grade 0 other than mu once
    raises AssertionError.  Each
    grade keeps its dominant rows, sum_nu b_nu(n) times the dominant table
    of L(nu), and the series in the (rho-pairing, code) order of nu, with the
    labels of nu carried next to its weights (one FractionCache builds them);
    the layers are the Weyl orbits of the rows, built on first read."""
    if not folds:
        raise ValueError("the folds hold no grade 0")
    top, offset = _split_dominant(rs, aw.finite)
    pair, (ball, step) = rs.label_data.pair, _ball(rs, top, aw.level)
    fw, off, den = rs._label_codes(1, offset)
    cols, get = list(zip(*fw)), FractionCache(-den).__getitem__
    order = _order_key(rho_pairing(rs))
    rows: list = []
    entries: dict = {}
    labels: list = []
    for n, fold in enumerate(folds):
        for nu, b in fold.items():
            if type(nu) is not tuple or len(nu) != rs.rank or type(b) is not int or \
                    not all(type(m) is int and m >= 0 for m in nu):
                raise ValueError(f"grade {n} has a malformed term {nu!r}: {b!r}")
            x = tuple(m + 1 for m in nu)      # the labels of nu + rho
            if b <= 0 or pair(x, x) > ball + n * step:
                what = "a constituent outside its ball" if b > 0 else \
                    f"a {'negative' if b else 'zero'} branching coefficient {b}"
                raise AssertionError(f"grade {n} has {what} at labels {nu}")
        if not n and fold != {top: 1}:
            raise AssertionError("grade 0 does not hold the highest weight exactly once")
        mult: dict = {}      # dominant labels of the layer -> multiplicity
        for nu, b in fold.items():
            for lbl, _, m in _dominant_table(rs, nu):
                mult[lbl] = mult.get(lbl, 0) + b * m
        rows.append(mult)
        tops = {tuple([sum(map(mul, nu, col)) + c for col, c in zip(cols, off)]): nu
                for nu in fold}
        for c in sorted(tops, key=order):
            entries[tuple(map(get, c)), n] = fold[tops[c]]
            labels.append(tops[c])
    return GradedCharacter(rs, offset, rows,
                           BranchingSeries(len(folds) - 1, entries, rs, offset, labels))


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

    Independent of the branching that the Weyl-Kac fold computes:
    characters._freudenthal_tables runs the recursion on the dominant labels
    of each grade, which are the character's rows; it holds no series.  Both
    routes build their rows from finite tables of that one recursion (its
    grade 0)."""
    check_affine_dominant(rs, aw)
    if cutoff < 0:
        raise ValueError("cutoff must be >= 0")
    top, offset = _split_dominant(rs, aw.finite)
    return GradedCharacter(rs, offset, [{nu: m for nu, _, m in table} for table
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
    subalgebra.  The series of a character for rs's algebra is served as it
    is at its cutoff and as a slice, in the same order, below it.  A
    character with no series (affine_freudenthal) or read as another algebra
    on the same weights has its layers peeled on every call, and the
    decomposer enforces nonnegative coefficients and an exact
    reconstruction."""
    gc = _character(rs, aw, cutoff, gc)
    bs = gc.series
    if bs is None or gc.rs.factors != rs.factors:
        return _peel(gc, cutoff, lambda layer: decompose_character(rs, layer))
    if cutoff == bs.cutoff:
        return bs
    entries = {k: b for k, b in bs.entries.items() if k[1] <= cutoff}
    # graded_character adds the grades in order, so the slice is a prefix
    return BranchingSeries(cutoff, entries, bs.rs, bs.offset, bs.labels[:len(entries)])


def string_function(rs: RootSystem, aw: AffineWeight, nu: Vec, cutoff: int,
                    gc: GradedCharacter | None = None):
    """Multiplicities of (nu, k, n) across grades n = 0..cutoff: the
    character's dominant rows at the labels, under its own algebra, of the
    dominant representative of nu (0 off the module's lattice or W-fixed
    part)."""
    gc = _character(rs, aw, cutoff, gc)
    labels, d, off = gc.rs.split_labels(nu)
    if d != 1 or off != gc.offset:
        return [0] * (cutoff + 1)
    dom, _ = gc.rs.dominant_labels(labels)
    return [gc.rows[n].get(dom, 0) for n in range(cutoff + 1)]


def q_dimension(rs: RootSystem, aw: AffineWeight, cutoff: int,
                bs: BranchingSeries | None = None, gc: GradedCharacter | None = None):
    """Graded dimension sum_n q^n sum_nu b(n) dim L^nu, exact integers, each
    dim L^nu the Weyl dimension of the labels of nu that the series carries.

    Cross-checked against the total multiplicity of each grade, which counts
    the same dimension from the character: sum_lambda m_lambda |W lambda|
    over its dominant rows, orbit sizes under its own algebra.  A bs or gc
    that stops below cutoff is refused."""
    gc = _character(rs, aw, cutoff, gc)
    if bs is None:
        bs = graded_branch_to_g(rs, aw, cutoff, gc)
    elif bs.cutoff < cutoff:
        raise ValueError(f"branching series has cutoff {bs.cutoff}, below the requested "
                         f"cutoff {cutoff}")
    out = [0] * (cutoff + 1)
    for ((_, n), b), labels in zip(bs.entries.items(), _series_labels(bs, rs)[0]):
        if n <= cutoff:
            out[n] += b * label_dimension(rs, labels)
    totals = [sum(m * gc.rs.orbit_size(lbl) for lbl, m in mult.items()) for mult in gc.rows]
    if any(d != t for d, t in zip(out, totals)):
        raise AssertionError("q-dimension disagrees with the orbit totals of the dominant rows")
    return out


# ---------------------------------------------------------------------------
# weight ordering and the multiplicity matrix


class MultiplicityMatrix(namedtuple("MultiplicityMatrix", "basis mat")):
    """m^{(xi)}_nu over dominant weights ordered by ((rho,xi), labels): basis
    lists the dominant weights, ascending, and mat[i][j] is the multiplicity
    of basis[i] in L^{basis[j]}."""
    __slots__ = ()


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
    """Exact integer inverse of a unitriangular integer matrix
    (rootsystem.invert_matrix, whose Fractions are ints here)."""
    n = len(mat)
    for i in range(n):
        if mat[i][i] != 1:
            raise ValueError("matrix diagonal must be 1")
        for j in range(i):
            if mat[i][j]:
                raise ValueError("matrix must be unitriangular (zeros below diagonal)")
    return [[int(x) for x in row] for row in invert_matrix(mat)]


def invert_multiplicity_matrix(m: MultiplicityMatrix):
    return invert_unitriangular(m.mat)


# ---------------------------------------------------------------------------
# branching through a splint (affine module to the regular subalgebra)


def branch_affine_to_subalgebra(rs: RootSystem, s: Splint, aw: AffineWeight,
                                cutoff: int, gc: GradedCharacter | None = None
                                ) -> BranchingSeries:
    """Composed route: branch each grade layer to the horizontal algebra, then
    read each module's tilde-weight table by the labels its series carries,
    summing on integer label codes; each distinct weight is built once."""
    if s.ambient.factors != rs.factors:
        raise ValueError("splint ambient does not match the affine algebra")
    require_tilde_branching(s)
    bs = graded_branch_to_g(rs, aw, cutoff, gc)
    labels, offsets = _series_labels(bs, rs)
    if len(offsets) != 1:
        raise AssertionError("module weights differ in their W-fixed part")
    acc: dict = {}
    for ((_, n), b), lbl in zip(bs.entries.items(), labels):
        for code, c in _branch_codes(s, lbl).items():
            acc[code, n] = acc.get((code, n), 0) + b * c
    xi = {code: v for v, code in s.ambient.from_labels(
        ((c, c) for c in dict.fromkeys(c for c, _ in acc)), 1, *offsets)}
    return BranchingSeries(cutoff, {(xi[code], n): v for (code, n), v in acc.items() if v})


def branch_affine_direct(rs: RootSystem, s: Splint, aw: AffineWeight,
                         cutoff: int, gc: GradedCharacter | None = None
                         ) -> BranchingSeries:
    """Direct route: decompose each grade layer straight into subalgebra
    modules by highest-weight subtraction."""
    return _peel(_character(rs, aw, cutoff, gc), cutoff, s.subalgebra_view().decompose)
