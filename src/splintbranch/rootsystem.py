"""Root systems, weight lattices and Weyl group actions with exact arithmetic.

Simple factors are realized in orthogonal coordinates (Bourbaki tables), with
a per-coordinate rational form scale chosen so that long roots of every simple
factor have squared length 2.  Vectors at the interface are tuples of
Fractions, so every inner product, Dynkin label and reflection is exact.

The weight engine (Weyl orbits, dominant representatives, Freudenthal) runs
on integer Dynkin labels instead.  `RootSystem.label_data`, built on first
use, holds the Cartan rows (row i = labels of alpha_i, so the simple
reflection s_i is lambda - lambda_i * row_i), the positive roots as
(labels, simple coefficients) pairs of ints, and the form on labels as one
integer matrix over a common denominator.  A Fraction vector enters label
space through `split_labels` (labels scaled to integers plus a W-fixed offset
orthogonal to the roots) and leaves through `from_labels`.  Weyl orbits carry
their coordinates: `label_orbit` walks the labels together with integer codes
given by the caller's images of the fundamental weights, coding the start
once and each reflected point by one root-code subtraction, and it refuses an
orbit larger than MAX_ORBIT from its size (`orbit_size`) before walking it.

Realizations (one block per simple factor):
  A_n : R^{n+1},  alpha_i = e_i - e_{i+1},             scale 1
  B_n : R^n,      alpha_i = e_i - e_{i+1}, alpha_n = e_n,        scale 1
  C_n : R^n,      alpha_i = e_i - e_{i+1}, alpha_n = 2 e_n,      scale 1/2
  D_n : R^n,      alpha_i = e_i - e_{i+1}, alpha_n = e_{n-1}+e_n, scale 1
  E_n : R^8 (n = 6,7,8), Bourbaki simple roots,        scale 1
  F_4 : R^4,      e_2-e_3, e_3-e_4, e_4, (e_1-e_2-e_3-e_4)/2,    scale 1
  G_2 : R^3,      e_1-e_2, -2e_1+e_2+e_3,              scale 1/3
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property
from operator import mul
from typing import NamedTuple

Vec = tuple[Fraction, ...]

# Hard cap on materialized Weyl orbits: |W(E6)|, so every regular E6 orbit
# is walked and no E7 or E8 regular orbit is.
MAX_ORBIT = 51840

DUAL_COXETER = {
    "A": lambda n: n + 1, "B": lambda n: 2 * n - 1, "C": lambda n: n + 1,
    "D": lambda n: 2 * n - 2, "G": lambda n: 4, "F": lambda n: 9,
    "E": lambda n: {6: 12, 7: 18, 8: 30}[n],
}


def vec(xs) -> Vec:
    return tuple(Fraction(x) for x in xs)


def vadd(a: Vec, b: Vec) -> Vec:
    return tuple(x + y for x, y in zip(a, b))


def vsub(a: Vec, b: Vec) -> Vec:
    return tuple(x - y for x, y in zip(a, b))


def vneg(a: Vec) -> Vec:
    return tuple(-x for x in a)


def vscale(a: Vec, c) -> Vec:
    c = Fraction(c)
    return tuple(c * x for x in a)


def common_denominator(vectors) -> int:
    """Least common denominator of all coordinates of the vectors."""
    return math.lcm(*{x.denominator for v in vectors for x in v})


def zero_vec(dim: int) -> Vec:
    return (Fraction(0),) * dim


def vcombine(start: Vec, coeffs, basis) -> Vec:
    """start + sum_i coeffs[i] * basis[i]."""
    for c, b in zip(coeffs, basis):
        if c:
            start = vadd(start, vscale(b, c))
    return start


# ---------------------------------------------------------------------------
# exact linear algebra helpers


def invert_matrix(a):
    """Exact inverse, in Fractions, of a square int or Fraction matrix (a
    singular one is refused): fraction-free Gauss-Jordan on [d A | I], d the
    common denominator of A, ends as [p I | p (d A)^-1], p the last pivot."""
    n = len(a)
    a = [[Fraction(x) for x in row] for row in a]
    d = math.lcm(*(x.denominator for row in a for x in row))
    m = [[x.numerator * (d // x.denominator) for x in row] + [int(i == j) for j in range(n)]
         for i, row in enumerate(a)]
    prev = 1
    for col in range(n):
        piv = next((r for r in range(col, n) if m[r][col]), None)
        if piv is None:
            raise ValueError("matrix is singular")
        m[col], m[piv] = m[piv], m[col]
        p = m[col][col]
        for r in range(n):
            f = m[r][col]
            if r != col and (f or p != prev):      # else the step leaves row r as it is
                m[r] = [(p * x - f * y) // prev for x, y in zip(m[r], m[col])]
        prev = p
    get = FractionCache(prev).__getitem__
    return [[get(d * x) for x in row[n:]] for row in m]


_factor_cache: dict = {}


def _factor(gram):
    """(m, minors, rows, adj, den, weight) of a positive definite gram (ints
    or Fractions), cached per gram: A = m gram is an int matrix (m the least
    common denominator of gram), minors[j] its j-th leading principal minor
    (minors[0] = 1) and rows[j] its row j after j Bareiss steps (zero before
    column j, minors[j + 1] at it), so that
    A = sum_j rows[j] rows[j]^T / (minors[j] minors[j + 1]); adj is the
    adjugate, A^-1 = adj / minors[-1]; den = lcm_j minors[j] minors[j + 1]
    and weight[j] = den / (minors[j] minors[j + 1]).  One fraction-free
    Gauss-Jordan pass on [A | I] (Bareiss, Math. Comp. 22 (1968) 565) gives
    them all; a leading minor <= 0 refuses the gram."""
    key = tuple(map(tuple, gram))
    if (hit := _factor_cache.get(key)) is not None:
        return hit
    n = len(key)
    m = math.lcm(*(x.denominator for row in key for x in row))
    a = [[x.numerator * (m // x.denominator) for x in row] + [int(i == j) for j in range(n)]
         for i, row in enumerate(key)]
    minors, rows = [1], []
    for j in range(n):
        p, prev = a[j][j], minors[-1]
        if p <= 0:
            raise ValueError("form is not positive definite")
        rows.append(tuple(a[j][:n]))
        for r in range(n):
            if r != j:
                f = a[r][j]
                a[r] = [(p * x - f * y) // prev for x, y in zip(a[r], a[j])]
        minors.append(p)
    pairs = [x * y for x, y in zip(minors, minors[1:])]
    den = math.lcm(*pairs)
    factors = _factor_cache[key] = (m, minors, rows, [row[n:] for row in a], den,
                                    [den // x for x in pairs])
    return factors


def lattice_points_in_ellipsoid(gram, pairing, level: int, bound):
    """Yield (c, g) for the integer vectors c with exact grade
    g = pairing.c + level c^T gram c / 2 <= bound, gram positive definite.

    Exact Fincke-Pohst enumeration (Math. Comp. 44 (1985) 463) on ints.
    With A = m gram factored once (_factor), P = q m pairing (q the common
    denominator of pairing) and s = q level det A, the ellipsoid's center is
    -w, w = (level gram)^-1 pairing = adj(A) P / s, so X = s c + adj(A) P is
    s (c + w), an int vector, and
        (2 m s^2 / level) (g + pairing.w / 2) = sum_j t_j^2 / (minors[j] minors[j + 1])
    with t_j = rows[j] . X, which reads X_j, ..., X_{n-1} only.  Times den,
    every term t_j^2 weight[j] and the budget (floored once) are ints; c_j
    runs over one isqrt interval, highest coordinate first, and g is read off
    the budget left at the leaf, over the one denominator 2 m s^2 den / level.
    """
    if level <= 0:
        raise ValueError("form is not positive definite")
    n = len(gram)
    m, minors, rows, adj, den, weight = _factor(gram)
    q = math.lcm(*(x.denominator for x in pairing))
    P = [x.numerator * (q // x.denominator) * m for x in pairing]
    W = [sum(map(mul, row, P)) for row in adj]
    s = q * level * minors[n]
    scale = 2 * m * q * q * level * minors[n] ** 2 * den    # 2 m s^2 den / level
    top = scale * bound.numerator // bound.denominator      # bound, floored on that scale
    lift = den * minors[n] * sum(map(mul, P, W))            # pairing.w / 2 on that scale
    c, X = [0] * n, [0] * n

    def rec(j, budget):
        if j < 0:
            yield tuple(c), Fraction(top - budget, scale)
            return
        u, d = rows[j], minors[j + 1]
        a, b = d * s, d * W[j] + sum(u[k] * X[k] for k in range(j + 1, n))
        r = math.isqrt(budget // weight[j])         # |a c_j + b| <= r
        for cj in range(-((r + b) // a), (r - b) // a + 1):
            c[j], X[j] = cj, s * cj + W[j]
            t = a * cj + b
            yield from rec(j - 1, budget - weight[j] * t * t)

    if top + lift >= 0:
        yield from rec(n - 1, top + lift)


# ---------------------------------------------------------------------------
# simple factor tables


def _simple_block(family: str, rank: int):
    """Simple roots of one factor as integer/rational rows, plus block dim and
    the form scale making long roots have squared length 2."""
    f = family.upper()
    if f in ("A", "B", "C", "D"):
        least = 1 if f == "A" else 2
        if rank < least:
            raise ValueError(f"{f}{rank}: rank must be >= {least}")
        dim = rank + (f == "A")
        # the chain e_i - e_{i+1}; B, C and D end in e_n, 2 e_n and e_{n-1} + e_n
        rows = [[Fraction(int(j == i) - int(j == i + 1)) for j in range(dim)]
                for i in range(rank - (f != "A"))]
        if f != "A":
            last = {"B": (0, 1), "C": (0, 2), "D": (1, 1)}[f]
            rows.append([Fraction(0)] * (dim - 2) + [Fraction(x) for x in last])
        return rows, dim, Fraction(1, 2 if f == "C" else 1)
    if f == "E":
        if rank not in (6, 7, 8):
            raise ValueError(f"E{rank}: rank must be 6, 7 or 8")
        dim = 8
        half = Fraction(1, 2)
        rows8 = [
            [half, -half, -half, -half, -half, -half, -half, half],
            [1, 1, 0, 0, 0, 0, 0, 0],
            [-1, 1, 0, 0, 0, 0, 0, 0],
            [0, -1, 1, 0, 0, 0, 0, 0],
            [0, 0, -1, 1, 0, 0, 0, 0],
            [0, 0, 0, -1, 1, 0, 0, 0],
            [0, 0, 0, 0, -1, 1, 0, 0],
            [0, 0, 0, 0, 0, -1, 1, 0],
        ]
        rows = [[Fraction(x) for x in row] for row in rows8[:rank]]
        return rows, dim, Fraction(1)
    if f == "F":
        if rank != 4:
            raise ValueError(f"F{rank}: rank must be 4")
        half = Fraction(1, 2)
        rows = [
            [Fraction(0), Fraction(1), Fraction(-1), Fraction(0)],
            [Fraction(0), Fraction(0), Fraction(1), Fraction(-1)],
            [Fraction(0), Fraction(0), Fraction(0), Fraction(1)],
            [half, -half, -half, -half],
        ]
        return rows, 4, Fraction(1)
    if f == "G":
        if rank != 2:
            raise ValueError(f"G{rank}: rank must be 2")
        rows = [
            [Fraction(1), Fraction(-1), Fraction(0)],
            [Fraction(-2), Fraction(1), Fraction(1)],
        ]
        return rows, 3, Fraction(1, 3)
    raise ValueError(f"unknown family {family!r} (expected one of A,B,C,D,E,F,G)")


def weyl_group_order(coefficients) -> int:
    """prod (ht + 1) / ht over positive roots given by their simple coefficients:
    the order of the Weyl group they generate (Macdonald, Math. Ann. 199, 1972)."""
    num = den = 1
    for k in coefficients:
        h = sum(k)
        num *= h + 1
        den *= h
    return num // den


class LabelData(NamedTuple):
    """Integer weight data in Dynkin-label coordinates.

    cartan[i] holds the labels of alpha_i.  positive[k] is (labels, simple
    coefficients) of positive_roots[k].  For label vectors x, y the form is
    (x, y) = sum_ij x_i form[i][j] y_j / form_den (`pair` gives its numerator).
    Fundamental weight k is fw[k] / fw_den in orthogonal coordinates.
    """
    cartan: tuple
    positive: tuple
    form: tuple
    form_den: int
    fw: tuple
    fw_den: int

    def pair(self, x, y) -> int:
        """(x, y) * form_den for label vectors x, y: the one integer form."""
        return sum(xi * sum(map(mul, row, y)) for xi, row in zip(x, self.form) if xi)


class FractionCache(dict):
    """x -> Fraction(x, den), built once per distinct x."""

    def __init__(self, den):
        super().__init__()
        self.den = den

    def __missing__(self, x):
        f = self[x] = Fraction(x, self.den)
        return f


class RootSystem:
    """Root system of a semisimple Lie algebra, exact and immutable.

    Built and shared, one instance per algebra, through build_root_system; do
    not mutate fields after construction.
    """

    def __init__(self, factors):
        factors = [(f.upper(), int(r)) for f, r in factors]
        if not factors:
            raise ValueError("empty algebra specification")
        total_rank = sum(r for _, r in factors)
        if total_rank > 8:
            raise ValueError(f"total rank {total_rank} exceeds supported desk scale (8)")
        self.factors = tuple(factors)
        self.rank = total_rank
        self.name = "x".join(f"{f}{r}" for f, r in factors)

        blocks = [_simple_block(f, r) for f, r in factors]
        self.dim = sum(dim for _, dim, _ in blocks)
        gram_diag: list[Fraction] = []
        padded: list[Vec] = []
        self.factor_slices = []          # per factor: (simple index range, coord range)
        sidx = cidx = 0
        for (rows, dim, scale), (fam, r) in zip(blocks, factors):
            for row in rows:
                v = [Fraction(0)] * self.dim
                for j, x in enumerate(row):
                    v[cidx + j] = x
                padded.append(tuple(v))
            self.factor_slices.append(((sidx, sidx + r), (cidx, cidx + dim)))
            sidx += r
            cidx += dim
            gram_diag.extend([scale] * dim)
        self.simple_roots: tuple[Vec, ...] = tuple(padded)
        self.gram_diag: tuple[Fraction, ...] = tuple(gram_diag)

        self._coeff_cache: dict[Vec, tuple] = {}
        self._rows_cache: dict = {}
        self._split_cache: dict[Vec, tuple] = {}
        self._dominant_cache: dict[tuple, tuple] = {}
        self._orbit_size_cache: dict[tuple, int] = {}
        self._dimension_cache: dict[tuple, int] = {}

        cartan = [self.dynkin_labels(a) for a in self.simple_roots]
        if any(x.denominator != 1 for row in cartan for x in row):
            raise AssertionError("non-integer Cartan entry")
        self.cartan = [[int(x) for x in row] for row in cartan]
        self._cartan_inv = invert_matrix(self.cartan)
        # omega_k = sum_j (C^-1)_{kj} alpha_j
        self.fundamental_weights: tuple[Vec, ...] = tuple(map(self._combine, self._cartan_inv))

        self._root_set, positive = self._generate_roots()
        self.positive_roots = tuple(v for v, _ in positive)
        rho_sum = zero_vec(self.dim)
        for a in self.positive_roots:
            rho_sum = vadd(rho_sum, a)
        self.rho: Vec = vscale(rho_sum, Fraction(1, 2))
        rho_fw = zero_vec(self.dim)
        for w in self.fundamental_weights:
            rho_fw = vadd(rho_fw, w)
        if self.rho != rho_fw:
            raise AssertionError("rho mismatch: half-sum of positive roots != sum of "
                                 "fundamental weights")

        # the highest root of a factor: its first positive root of largest height
        self.highest_roots = tuple(
            max(((v, k) for v, k in positive if any(k[s0:s1])), key=lambda t: sum(t[1]))[0]
            for (s0, s1), _ in self.factor_slices)
        for theta in self.highest_roots:
            if self.inner(theta, theta) != 2:
                raise AssertionError("highest root is not normalized to length^2 = 2")
        self.dual_coxeter = tuple(DUAL_COXETER[f](r) for f, r in factors)
        for theta, h in zip(self.highest_roots, self.dual_coxeter):
            if 1 + self.inner(self.rho, theta) != h:
                raise AssertionError("dual Coxeter number disagrees with 1 + (rho, theta)")
        self.weyl_order = weyl_group_order(k for _, k in positive)

    # -- basics ------------------------------------------------------------

    def inner(self, x: Vec, y: Vec) -> Fraction:
        """Invariant bilinear form; long roots of each factor have length^2 2."""
        if len(x) != self.dim or len(y) != self.dim:
            raise ValueError(f"dimension mismatch: expected vectors of length {self.dim}")
        return sum(g * a * b for g, a, b in zip(self.gram_diag, x, y))

    def _combine(self, coeffs) -> Vec:
        return vcombine(zero_vec(self.dim), coeffs, self.simple_roots)

    def simple_coefficients(self, v: Vec):
        """Coordinates of v in the simple-root basis (requires v in the root
        span): its Dynkin labels times the inverse Cartan matrix."""
        if v in self._coeff_cache:
            return self._coeff_cache[v]
        labels = self.dynkin_labels(v)
        coeffs = tuple(sum(map(mul, labels, col)) for col in zip(*self._cartan_inv))
        if self._combine(coeffs) != v:
            raise ValueError("vector does not lie in the span of the simple roots")
        self._coeff_cache[v] = coeffs
        return coeffs

    def _generate_roots(self):
        """(root set, [(root, simple coefficients)] of the positive roots,
        sorted by (height, root)).

        The simple roots and their negatives are closed under the integer
        simple reflections k -> k - <k, alpha_i^vee> e_i on simple-root
        coefficients; each root becomes coordinates once, over one common
        denominator, and its simple coefficients go to the
        simple_coefficients cache.  Coordinates enter the root set in
        breadth-first order, which fixes its iteration order."""
        n, cartan = self.rank, self.cartan
        den = common_denominator(self.simple_roots)
        simple = [[x.numerator * (den // x.denominator) for x in a] for a in self.simple_roots]
        coord, coeff = FractionCache(den).__getitem__, FractionCache(1).__getitem__
        found = {}           # simple coefficients -> root

        def enter(k):
            code = [sum(c * a[x] for c, a in zip(k, simple) if c) for x in range(self.dim)]
            v = found[k] = tuple([coord(x) for x in code])
            self._coeff_cache[v] = tuple(map(coeff, k))
            return v

        units = [tuple(int(i == j) for j in range(n)) for i in range(n)]
        start = {enter(s): s for k in units for s in (k, tuple(-c for c in k))}
        roots = set(self.simple_roots) | {vneg(a) for a in self.simple_roots}
        frontier = [start[v] for v in roots]
        while frontier:
            nxt = []
            for k in frontier:
                for i in range(n):
                    p = sum(k[j] * cartan[j][i] for j in range(n) if k[j])  # <k, alpha_i^vee>
                    r = k[:i] + (k[i] - p,) + k[i + 1:]
                    if r not in found:
                        if len(found) == 240:    # E8 has the most roots at rank <= 8
                            raise AssertionError("simple reflections leave the root set")
                        roots.add(enter(r))
                        nxt.append(r)
            frontier = nxt
        positive = sorted((sum(k), v, k) for k, v in found.items() if min(k) >= 0)
        if 2 * len(positive) != len(roots):
            raise AssertionError("positive roots do not split the root set in half")
        return frozenset(roots), [(v, k) for _, v, k in positive]

    def is_root(self, v: Vec) -> bool:
        return v in self._root_set

    @property
    def roots(self):
        return self._root_set

    # -- weights -----------------------------------------------------------

    def label_rows(self, images=None):
        """(rows, den), ints with 2 (v, a_i) / (a_i, a_i) = rows[i] . v / den for
        a_i = images[i] (a tuple; None for the simple roots); cached per images."""
        if images not in self._rows_cache:
            rows = [[2 * g * x / self.inner(a, a) for g, x in zip(self.gram_diag, a)]
                    for a in images or self.simple_roots]
            den = math.lcm(*(x.denominator for row in rows for x in row))
            self._rows_cache[images] = ([[int(x * den) for x in row] for row in rows], den)
        return self._rows_cache[images]

    def scaled_labels(self, v: Vec):
        """(nums, den) with 2 (v, alpha_i) / (alpha_i, alpha_i) = nums[i] / den:
        label_rows applied to v scaled to ints by its common denominator."""
        return self._apply_rows(v, self.label_rows())

    def _apply_rows(self, v: Vec, label_rows):
        """scaled_labels on the (rows, den) of label_rows, resolved by the caller."""
        if len(v) != self.dim:
            raise ValueError(f"dimension mismatch: expected vectors of length {self.dim}")
        rows, den = label_rows
        d = math.lcm(*(x.denominator for x in v))
        code = [x.numerator * (d // x.denominator) for x in v]
        return [sum(map(mul, row, code)) for row in rows], den * d

    def dynkin_labels(self, v: Vec):
        nums, den = self.scaled_labels(v)
        return tuple(Fraction(n, den) for n in nums)

    def weight_from_labels(self, labels) -> Vec:
        if len(labels) != self.rank:
            raise ValueError(f"expected {self.rank} Dynkin labels, got {len(labels)}")
        return vcombine(zero_vec(self.dim), labels, self.fundamental_weights)

    def is_dominant(self, v: Vec) -> bool:
        return all(self.inner(v, a) >= 0 for a in self.simple_roots)

    def reflect(self, v: Vec, alpha: Vec) -> Vec:
        c = 2 * self.inner(v, alpha) / self.inner(alpha, alpha)
        return vsub(v, vscale(alpha, c))

    # -- integer label kernel ----------------------------------------------

    @cached_property
    def label_data(self) -> LabelData:
        """Integer weight data (see LabelData), built on first use."""
        positive = tuple(
            (tuple(int(m) for m in self.dynkin_labels(a)),
             tuple(int(c) for c in self.simple_coefficients(a)))
            for a in self.positive_roots)
        gram = [[self.inner(x, y) for y in self.fundamental_weights]
                for x in self.fundamental_weights]
        form_den = math.lcm(*(x.denominator for row in gram for x in row))
        fw_den = math.lcm(*(x.denominator for w in self.fundamental_weights for x in w))
        return LabelData(
            cartan=tuple(tuple(row) for row in self.cartan),
            positive=positive,
            form=tuple(tuple(int(x * form_den) for x in row) for row in gram),
            form_den=form_den,
            fw=tuple(tuple(int(x * fw_den) for x in w) for w in self.fundamental_weights),
            fw_den=fw_den)

    def split_labels(self, v: Vec):
        """(labels, d, offset) with v = sum_i labels_i omega_i / d + offset.

        labels are ints, d is the common denominator of the Dynkin labels of v,
        and offset (None when zero) is the W-fixed part of v orthogonal to the
        roots; cached per v."""
        if v in self._split_cache:
            return self._split_cache[v]
        nums, den = self.scaled_labels(v)
        g = math.gcd(den, *nums)
        ints, d = tuple(n // g for n in nums), den // g
        ((base, _),) = self.from_labels([(ints, None)], d)
        offset = vsub(v, base)
        split = self._split_cache[v] = ints, d, (offset if any(offset) else None)
        return split

    def _label_codes(self, d: int, offset: Vec | None):
        """(fw, off, den), ints: the point sum_i y_i omega_i / d + offset is
        (sum_i y_i fw[i] + off) / den."""
        ld = self.label_data
        den = d * ld.fw_den
        if offset is None:
            return ld.fw, (0,) * self.dim, den
        total = math.lcm(den, *(x.denominator for x in offset))
        scale = total // den
        return ([tuple(x * scale for x in w) for w in ld.fw],
                tuple(x.numerator * (total // x.denominator) for x in offset), total)

    def from_labels(self, terms, d: int = 1, offset: Vec | None = None):
        """[(labels, x)] -> [(sum_i labels_i omega_i / d + offset, x)], in input
        order.  All arithmetic is on ints scaled by one common denominator;
        Fractions are built once per distinct coordinate value."""
        fw, off, den = self._label_codes(d, offset)
        cols = list(zip(*fw))
        get = FractionCache(den).__getitem__
        return [(tuple([get(sum(map(mul, labels, col)) + b) for col, b in zip(cols, off)]), x)
                for labels, x in terms]

    def dominant_labels(self, labels):
        """(dominant labels, sign) of an int label tuple: reflect at the first
        negative label until none is left; sign is the parity of the
        reflections used.  Cached per labels."""
        if labels in self._dominant_cache:
            return self._dominant_cache[labels]
        cartan, key, sign = self.label_data.cartan, labels, 1
        while True:
            for i, m in enumerate(labels):
                if m < 0:
                    labels = tuple([x - m * c for x, c in zip(labels, cartan[i])])
                    sign = -sign
                    break
            else:
                dom = self._dominant_cache[key] = labels, sign
                return dom

    def orbit_size(self, labels) -> int:
        """|W| / |W_J| for dominant labels, J the zero labels: W_J is generated
        by the positive roots supported on J.  Cached per J."""
        zeros = tuple(not m for m in labels)
        if (size := self._orbit_size_cache.get(zeros)) is None:
            size = self._orbit_size_cache[zeros] = self.weyl_order // weyl_group_order(
                c for _, c in self.label_data.positive
                if all(not k or z for k, z in zip(c, zeros)))
        return size

    def label_orbit(self, labels, fw, offset):
        """Signed Weyl orbit [(code, sign)] of int labels, breadth-first from the
        dominant representative (sign +1); labels y code as sum_i y_i fw[i] +
        offset.  An orbit of more than MAX_ORBIT points is refused up front."""
        cartan = self.label_data.cartan
        dom, _ = self.dominant_labels(labels)
        if self.weyl_order > MAX_ORBIT and self.orbit_size(dom) > MAX_ORBIT:
            raise ValueError(f"Weyl orbit of {self.orbit_size(dom)} points exceeds cap {MAX_ORBIT}")
        cols = list(zip(*fw))
        roots = [[sum(map(mul, row, col)) for col in cols] for row in cartan]
        seen = {dom: (tuple([sum(map(mul, dom, col)) + b for col, b in zip(cols, offset)]), 1)}
        frontier = [dom]
        while frontier:
            nxt = []
            for w in frontier:
                code, s = seen[w]
                for i, m in enumerate(w):
                    if m <= 0:
                        # s_i fixes w (m = 0) or moves it one step up, to a
                        # point of the previous breadth-first level (m < 0)
                        continue
                    r = tuple([x - m * c for x, c in zip(w, cartan[i])])
                    if r not in seen:
                        seen[r] = tuple([x - m * a for x, a in zip(code, roots[i])]), -s
                        nxt.append(r)
            frontier = nxt
        return list(seen.values())

    def dominant_representative(self, v: Vec):
        """(dominant weight, sign, regular).  Sign is the parity of the word used;
        it is only meaningful when the weight is regular."""
        labels, d, offset = self.split_labels(v)
        dom, sign = self.dominant_labels(labels)
        ((cur, _),) = self.from_labels([(dom, None)], d, offset)
        return cur, sign, all(dom)

    def weyl_orbit(self, v: Vec):
        """Full Weyl orbit as [(weight, sign)] sorted by weight, signs relative
        to the dominant representative.  Signs are contractually meaningful
        for regular weights only (a stabilized weight admits representatives
        of both parities)."""
        labels, d, offset = self.split_labels(v)
        fw, off, den = self._label_codes(d, offset)
        get = FractionCache(den).__getitem__
        return [(tuple(map(get, code)), s) for code, s in sorted(self.label_orbit(labels, fw, off))]

    def coroot(self, alpha: Vec) -> Vec:
        return vscale(alpha, Fraction(2) / self.inner(alpha, alpha))

    def coroot_lattice_basis(self):
        return tuple(self.coroot(a) for a in self.simple_roots)

    @cached_property
    def coroot_gram(self):
        """G[i][j] = (alpha_i^vee, alpha_j^vee) = <alpha_i, alpha_j^vee> 2 /
        (alpha_i, alpha_i): ints, an even diagonal, read off the Cartan rows
        and the norms of the simple roots."""
        ld = self.label_data
        return tuple(tuple(2 * ld.form_den * x // norm for x in a)
                     for a, norm in zip(ld.cartan, map(ld.pair, ld.cartan, ld.cartan)))

    @cached_property
    def root_form_rows(self):
        """Per positive root alpha, in positive_roots order: (labels,
        simple coefficients, form row, norm), ints, with (x, alpha) =
        x . (form row) / form_den for labels x and norm = (alpha, alpha) form_den."""
        ld = self.label_data
        return tuple((a, c, tuple(sum(map(mul, row, a)) for row in ld.form), ld.pair(a, a))
                     for a, c in ld.positive)


_built: dict = {}


def build_root_system(spec) -> RootSystem:
    """The root system of a list of (family, rank) simple factors.

    Accepts [("G", 2)], [("A", 1), ("A", 1)], or a name string like "G2",
    "A1xA1".  RootSystem is immutable, so one instance per factor list is
    built and shared.
    """
    if isinstance(spec, str):
        spec = parse_algebra_name(spec)
    key = tuple((f.upper(), int(r)) for f, r in spec)
    rs = _built.get(key)
    if rs is None:
        rs = _built.setdefault(key, RootSystem(key))
    return rs


def parse_algebra_name(name: str):
    out = []
    for part in name.replace("+", "x").split("x"):
        part = part.strip()
        if len(part) < 2 or not part[0].isalpha() or not part[1:].isdigit():
            raise ValueError(f"cannot parse algebra name {part!r} (expected e.g. G2, A1xA1)")
        out.append((part[0].upper(), int(part[1:])))
    return out
