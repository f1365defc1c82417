"""Exact truncated q-series with rational exponents and lattice coefficients.

A series term is q^e * c where e is a Fraction (all exponents share a common
denominator) and c is either an integer or lattice content: the formal
e^{(xi,z)} content of a theta function (z is never specialized), held as a
{code: int} dict over one lattice denominator per series (`characters.encode`)
and decoded to a FormalCharacter only by `QSeries.coefficient`.  Products
multiply codes with `characters.code_products`; sums add them.  A scalar
series multiplies a lattice series directly; only addition requires both to
be of one kind.
Equality of two series means equality of every (exponent, coefficient) pair
up to the common cutoff, which is strictly stronger than sampling z.

The verifiers check the affine denominator regrouping of a splint and its two
theta-function restatements as truncated series, each a `splints.Report` of
the first discrepancy.  Every affine denominator here (of the ambient
algebra, of a stem pushed into ambient coordinates, of a single root string,
of the root-string product on the right of the theta-product identity) is
the layered expansion `characters._denominator_codes` read as a series.  Every
alternating theta sum, over the coroot lattice at level h-dual of a simple
factor, is that factor's Weyl-Kac numerator at rho
(`characters._numerator_codes`) times e^{rho} q^{dim/24}; the lattice sums
that remain enumerate points with `RootSystem.lattice_grades`.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from .rootsystem import RootSystem, Vec, build_root_system, vadd, vscale, zero_vec
from .characters import (FormalCharacter, _denominator_codes, _numerator_codes, code_products,
                         common_denominator, decode, encode)
from .splints import Report, Splint


def _cadd(a, b):
    """a + b for two int or two code-dict coefficients, as a new value."""
    if isinstance(a, int):
        return a + b
    return FormalCharacter(itertools.chain(a.items(), b.items())).terms


def _recoded(terms, f: int):
    """Lattice terms with every code multiplied by f (a new denominator f
    times the old one)."""
    if f == 1:
        return terms
    return {e: {tuple([x * f for x in code]): m for code, m in c.items()}
            for e, c in terms.items()}


def _aligned(a: "QSeries", b: "QSeries"):
    """(terms of a, terms of b, lattice denominator or None): two lattice
    series are re-encoded once to the lcm of their denominators."""
    da, db = a.lattice_den, b.lattice_den
    if da is None or db is None or da == db:
        return a.terms, b.terms, da or db
    den = math.lcm(da, db)
    return _recoded(a.terms, den // da), _recoded(b.terms, den // db), den


class QSeries:
    """Truncated formal series in q^(1/denom) with exact coefficients;
    `denom` is the lcm of the denominators of the exponents it holds.

    `terms` maps each exponent to an int (scalar series) or to a {code: int}
    dict over the lattice denominator `lattice_den` (lattice series;
    `lattice_den` is None for a scalar series and for one without terms).
    Coefficient dicts are never changed once a series holds them."""

    __slots__ = ("terms", "cutoff", "denom", "lattice_den")

    def __init__(self, terms, cutoff):
        pairs = [(e, c) for e, c in (terms.items() if isinstance(terms, dict) else terms) if c]
        lattice_den = None
        if any(isinstance(c, FormalCharacter) for _, c in pairs):
            if not all(isinstance(c, FormalCharacter) for _, c in pairs):
                raise TypeError("cannot mix scalar and lattice coefficients")
            lattice_den = common_denominator(v for _, c in pairs for v in c.terms)
            pairs = [(e, {encode(v, lattice_den): m for v, m in c.items()}) for e, c in pairs]
        self._fill(pairs, cutoff, lattice_den)

    @classmethod
    def from_codes(cls, pairs, cutoff, lattice_den):
        """The series of (exponent, coefficient) pairs, coefficients {code:
        int} dicts over lattice_den, or ints when lattice_den is None.  The
        dicts are kept, not copied."""
        out = cls.__new__(cls)
        out._fill(pairs, cutoff, lattice_den)
        return out

    def _fill(self, pairs, cutoff, lattice_den):
        self.cutoff = Fraction(cutoff)
        self.terms: dict[Fraction, object] = {}
        for e, c in pairs:
            e = Fraction(e)
            if e > self.cutoff or not c:
                continue
            if e in self.terms:
                c = _cadd(self.terms[e], c)
            if not c:
                self.terms.pop(e, None)
            else:
                self.terms[e] = c
        self.lattice_den = lattice_den if self.terms else None
        self.denom = math.lcm(*(e.denominator for e in self.terms))

    @classmethod
    def one(cls, cutoff):
        return cls({Fraction(0): 1}, cutoff)

    def coefficient(self, e):
        """The coefficient of q^e: an int, or in a lattice series the
        FormalCharacter of its codes."""
        c = self.terms.get(Fraction(e))
        if self.lattice_den is None:
            return c or 0
        return decode(c, self.lattice_den) if c else FormalCharacter()

    def items(self):
        return [(e, self.coefficient(e)) for e in sorted(self.terms)]

    def min_exponent(self):
        return min(self.terms) if self.terms else None

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if not isinstance(other, QSeries):
            return False
        a, b, _ = _aligned(self, other)
        return a == b

    def __add__(self, other):
        if (self.terms and other.terms
                and (self.lattice_den is None) != (other.lattice_den is None)):
            raise TypeError("cannot mix scalar and lattice coefficients additively")
        a, b, den = _aligned(self, other)
        return QSeries.from_codes(itertools.chain(a.items(), b.items()),
                                  min(self.cutoff, other.cutoff), den)

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, c: int):
        if not c:
            terms = {}
        elif self.lattice_den is None:
            terms = {e: v * c for e, v in self.terms.items()}
        else:
            terms = {e: {code: m * c for code, m in v.items()} for e, v in self.terms.items()}
        return QSeries.from_codes(terms.items(), self.cutoff, self.lattice_den)

    def __mul__(self, other):
        cutoff = min(self.cutoff, other.cutoff)
        a, b, den = _aligned(self, other)
        if self.lattice_den is None:
            a, b = b, a          # a scalar operand goes second
        acc: dict[Fraction, object] = {}
        for e1, c1 in a.items():
            if e1 > cutoff:
                continue
            for e2, c2 in b.items():
                e = e1 + e2
                if e > cutoff:
                    continue
                if den is None:
                    acc[e] = acc.get(e, 0) + c1 * c2
                else:
                    if isinstance(c2, int):      # a scalar c2 is c2 e^0
                        c2 = {(0,) * len(next(iter(c1))): c2}
                    acc.setdefault(e, []).append((c1, c2))
        if den is not None:
            acc = dict(zip(acc, code_products([({}, pairs) for pairs in acc.values()])))
        return QSeries.from_codes(acc.items(), cutoff, den)

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative powers are not supported")
        out = QSeries.one(self.cutoff)
        for _ in range(n):
            out = out * self
        return out

    def shift(self, c) -> "QSeries":
        c = Fraction(c)
        return QSeries.from_codes(((e + c, v) for e, v in self.terms.items()),
                                  self.cutoff + c, self.lattice_den)

    def truncate(self, cutoff) -> "QSeries":
        cutoff = Fraction(cutoff)
        return QSeries.from_codes(self.terms.items(), min(self.cutoff, cutoff),
                                  self.lattice_den)

    def __repr__(self):
        parts = [f"q^{e}*{self.coefficient(e)!r}" for e in sorted(self.terms)[:6]]
        return "QSeries(" + " + ".join(parts) + (" ..." if len(self.terms) > 6 else "") + ")"


def compare_qseries(a: QSeries, b: QSeries):
    """None if equal up to the common cutoff, else (exponent, description) of
    the lowest discrepancy."""
    cutoff = min(a.cutoff, b.cutoff)
    ta, tb, _ = _aligned(a, b)
    at = {e: c for e, c in ta.items() if e <= cutoff}
    bt = {e: c for e, c in tb.items() if e <= cutoff}
    for e in sorted(set(at) | set(bt)):
        ca, cb = at.get(e), bt.get(e)
        if ca is None or cb is None:
            return e, f"term q^{e} only on one side"
        if ca != cb:
            return e, f"coefficients at q^{e} differ"
    return None


# ---------------------------------------------------------------------------
# eta and theta


def euler_product(cutoff) -> QSeries:
    """prod_{n>=1} (1 - q^n), truncated."""
    out = QSeries.one(cutoff)
    for n in range(1, int(cutoff) + 1):
        out = out * QSeries({Fraction(0): 1, Fraction(n): -1}, cutoff)
    return out


def eta(cutoff) -> QSeries:
    """Dedekind eta: q^{1/24} prod (1 - q^n), exponent denominator 24."""
    cutoff = Fraction(cutoff)
    if cutoff < Fraction(1, 24):
        return QSeries({}, cutoff)
    return euler_product(cutoff - Fraction(1, 24)).shift(Fraction(1, 24))


def _lattice_sum(rs: RootSystem, basis, lam: Vec, level, cutoff, push=None) -> QSeries:
    """Sum over xi in lam/level + (lattice of basis) of q^{level(xi,xi)/2}
    e^{push(level xi)}; level xi = lam + level beta sits at
    q^{(lam,lam)/2level + g}, g the grade of beta (lattice_grades)."""
    start = rs.inner(lam, lam) / (2 * level)
    acc: dict[Fraction, FormalCharacter] = {}
    for beta, g in rs.lattice_grades(basis, lam, level, Fraction(cutoff) - start):
        v = vadd(lam, vscale(beta, level))
        acc.setdefault(start + g, FormalCharacter()).iadd(
            FormalCharacter.monomial(push(v) if push else v))
    return QSeries(acc, cutoff)


def theta(rs: RootSystem, lam: Vec, level: int, cutoff) -> QSeries:
    """Classical theta of the root lattice: sum over xi in Q + lam/level of
    q^{level(xi,xi)/2} carrying the lattice element level*xi."""
    if level < 1:
        raise ValueError("level must be >= 1")
    return _lattice_sum(rs, rs.simple_roots, lam, level, cutoff)


# ---------------------------------------------------------------------------
# affine denominators as products


def _denominator_series(images, imaginary: int, cutoff) -> QSeries:
    """The layered denominator expansion (characters._denominator_codes) of
    the images as a lattice series, the layer of grade n at q^n."""
    den = common_denominator(images)
    layers = _denominator_codes([encode(img, den) for img in images], imaginary, int(cutoff))
    return QSeries.from_codes(enumerate(layers), cutoff, den)


def root_string_product(root: Vec, cutoff) -> QSeries:
    """(1 - e^{-a}) prod_{n>=1} (1 - q^n e^{-a})(1 - q^n e^{a}), truncated:
    the affine denominator of the single positive root a, without imaginary
    factors."""
    return _denominator_series([root], 0, cutoff)


def jacobi_theta_sum(root: Vec, cutoff) -> QSeries:
    """sum_m (-1)^m q^{m(m-1)/2} e^{-m a}: the triple-product expansion of
    euler_product * root_string_product for the same root."""
    terms = []
    m = 0
    while Fraction(m * (m - 1), 2) <= cutoff:
        terms.append((Fraction(m * (m - 1), 2),
                      FormalCharacter.monomial(vscale(root, -m), (-1) ** m)))
        if m > 0:
            mm = -m
            if Fraction(mm * (mm - 1), 2) <= cutoff:
                terms.append((Fraction(mm * (mm - 1), 2),
                              FormalCharacter.monomial(vscale(root, m), (-1) ** m)))
        m += 1
    return QSeries(terms, cutoff)


def denominator_product(rs: RootSystem, cutoff: int) -> QSeries:
    """Truncated product over positive affine roots with standard
    multiplicities (1 for real roots, rank for n*delta)."""
    return _denominator_series(rs.positive_roots, rs.rank, cutoff)


def _stem_denominator(phi, cutoff) -> QSeries:
    """Affine denominator of a stem pushed into ambient coordinates: the
    images carry the e-content, the grading stays the stem's own."""
    return _denominator_series(list(phi.pos_map.values()), phi.source.rank, cutoff)


def _require_splint(s: Splint):
    # Verifiers treat mismatches as data, so a structurally broken splint gets
    # a fail report, not an exception; only degenerate input is rejected.
    if not s.phi1.pos_map or not s.phi2.pos_map:
        raise ValueError(f"{s.name}: trivial splint with an empty stem is rejected")


def _times_power(lhs, rhs, f, extra):
    """(lhs, rhs * f^extra), or (lhs * f^-extra, rhs) when extra < 0: a
    loaded splint file whose images span less than the ambient."""
    if extra < 0:
        return lhs * f ** -extra, rhs
    return lhs, rhs * f ** extra


def verify_denominator_splint(s: Splint, cutoff: int) -> Report:
    """Affine Weyl denominator regrouping over the splint:

    D^(Delta_1) * D^(phi Delta_2) =
        D^(Delta) * prod_n (1-q^n)^(rank a + rank s - rank g),
    compared exactly as truncated lattice series."""
    _require_splint(s)
    rs = s.ambient
    lhs = _stem_denominator(s.phi1, cutoff) * _stem_denominator(s.phi2, cutoff)
    extra = s.phi1.source.rank + s.phi2.source.rank - rs.rank
    rhs = denominator_product(rs, cutoff)
    lhs, rhs = _times_power(lhs, rhs, euler_product(cutoff), extra)
    mismatch = compare_qseries(lhs, rhs)
    if mismatch is None:
        return Report(True, name="denominator",
                      detail=f"grades 0..{cutoff} agree, eta-power {extra}")
    return Report(False, name="denominator", detail=mismatch[1], first_mismatch=mismatch[0])


def _normalized_compare(name, lhs, rhs) -> Report:
    """Match the overall q-power at the lowest order, then require every
    remaining term to agree."""
    if not lhs.terms and not rhs.terms:
        return Report(True, name=name, detail="both sides vanish through "
                      f"q^{min(lhs.cutoff, rhs.cutoff)}")
    if not lhs.terms or not rhs.terms:
        return Report(False, name=name, detail="one side is empty")
    c = lhs.min_exponent() - rhs.min_exponent()
    rhs = rhs.shift(c) if c else rhs
    mismatch = compare_qseries(lhs, rhs)
    if mismatch is None:
        return Report(True, name=name, detail=f"normalization q^{c}", normalization=c)
    return Report(False, name=name, detail=mismatch[1], first_mismatch=mismatch[0],
                  normalization=c)


def verify_theta_products(s: Splint, cutoff) -> Report:
    """Product form of the per-root theta identity.

    Each theta/eta quotient is realized through the Jacobi triple product of
    its affine root string.  The left side multiplies the triple-product sums
    over both stems; the right side is the product over all positive roots of
    euler_product * root_string_product, expanded at once as the denominator
    with one imaginary factor per positive root.  The overall q-power is
    matched at lowest order; all higher terms must agree."""
    _require_splint(s)
    rs = s.ambient
    lhs = QSeries.one(cutoff)
    for img in [*s.phi1.pos_map.values(), *s.phi2.pos_map.values()]:
        lhs = lhs * jacobi_theta_sum(img, cutoff)
    rhs = _denominator_series(rs.positive_roots, len(rs.positive_roots), cutoff)
    return _normalized_compare("theta-product", lhs, rhs)


def theta_alternating_sum(src: RootSystem, push, cutoff, drop_last=False) -> QSeries:
    """prod over simple factors of sum_{w in W_f} eps(w) Theta_{w rho_f},
    with Theta at level h-dual of the factor over its coroot lattice.

    Each factor sum is the factor's Weyl-Kac numerator at rho read as a
    series times e^{rho} q^{(rho,rho)/2h-dual}, and (rho,rho)/2h-dual = dim/24
    (the strange formula).  Exponents use the factor's intrinsic
    normalization; the lattice content is pushed into ambient coordinates by
    `push` (kept in the source coordinates when push is None) through the
    pushed fundamental weights.  drop_last subtracts the term Theta_{w rho},
    w rho = weyl_orbit(rho)[-1], of the last factor (negative control)."""
    out = QSeries.one(cutoff)
    for fi, (fam, rank) in enumerate(src.factors):
        frs = build_root_system([(fam, rank)])
        c0 = src.factor_slices[fi][1][0]
        hvee = frs.dual_coxeter[0]

        def inject(v):
            full = list(zero_vec(src.dim))
            full[c0:c0 + frs.dim] = v
            return push(tuple(full)) if push else tuple(full)

        images = [inject(w) for w in frs.fundamental_weights]
        den = common_denominator(images)
        start = frs.inner(frs.rho, frs.rho) / (2 * hvee)
        layers = _numerator_codes(frs, frs.rho, hvee, math.floor(cutoff - start),
                                  [encode(w, den) for w in images], (0,) * len(images[0]))
        factor_sum = QSeries.from_codes(((start + n, t) for n, t in enumerate(layers)),
                                        cutoff, den)
        if drop_last and fi == len(src.factors) - 1:
            wrho, sign = frs.weyl_orbit(frs.rho)[-1]
            dropped = _lattice_sum(frs, frs.coroot_lattice_basis(), wrho, hvee, cutoff,
                                   inject)
            factor_sum = factor_sum - dropped.scale(sign)
        out = out * factor_sum
    return out


def verify_theta_sums(s: Splint, cutoff, drop_term=False) -> Report:
    """Alternating theta-sum identity of the splint:

      (sum_{v in W_a} eps(v) Theta_{v rho_a}) *
      (sum_{u in W_s} eps(u) Theta_{phi(u rho_s)})
        = eta^(rank a + rank s - rank g) *
          (sum_{w in W_g} eps(w) Theta_{w rho_g})

    with theta levels the dual Coxeter numbers and lattices the coroot
    lattices.  The eta power on the right restores the imaginary-root
    mismatch of the regrouped denominators; without it the identity fails
    beyond the lowest order whenever rank a + rank s > rank g."""
    _require_splint(s)
    rs = s.ambient
    lhs = (theta_alternating_sum(s.phi1.source, s.phi1.map_weight, cutoff)
           * theta_alternating_sum(s.phi2.source, s.phi2.map_weight, cutoff))
    rhs = theta_alternating_sum(rs, None, cutoff, drop_last=drop_term)
    extra = s.phi1.source.rank + s.phi2.source.rank - rs.rank
    lhs, rhs = _times_power(lhs, rhs, eta(cutoff), extra)
    return _normalized_compare("theta-sum", lhs, rhs)
