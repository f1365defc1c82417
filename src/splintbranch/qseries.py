"""Exact truncated q-series with rational exponents and lattice coefficients.

A series term is q^e * c where e is rational and c is either an integer or
lattice content.  Exponents are ints over one denominator per series: e is
held as the int k = e * denom (`QSeries.terms`), series over other
denominators are re-keyed once when they meet, and exponents become
Fractions only where they leave a series (`items`, `coefficient`,
`min_exponent`, `compare_qseries`).  Lattice content is the formal
e^{(xi,z)} content of a theta function (z is never specialized), held as
codes over one lattice denominator per series (`characters.encode`), each
packed once, on entry, into one int: every lattice series of one dimension
shares one fixed symmetric box of `characters._packing`.  The codes stay
packed from one operation to the next.  Products call
`characters.add_product` on the stored dicts, a re-encoding to a larger
lattice denominator multiplies the packed keys (the packing is linear), and
sums, `scale`, `shift`, `truncate` and `==` run on the packed keys as they
are.  Codes are unpacked only where they leave a series: `coefficient` and
`items`, which decode them to FormalCharacters, and the lowest differing
weight that `compare_qseries` names.  Each lattice series carries its reach,
a bound on every coordinate it may hold; one whose reach would leave the box
raises ArithmeticError before two codes can share a key.  A scalar series
multiplies a lattice series directly; only addition requires both to be of
one kind.
Equality of two series means equality of every (exponent, coefficient) pair
up to the common cutoff, which is strictly stronger than sampling z; a
mismatch names its exponent and, for differing coefficients, the lowest
weight where they differ and both multiplicities there.

The verifiers check the affine denominator regrouping of a splint and its two
theta-function restatements as truncated series, each a `splints.Report` of
the first discrepancy.  Every affine denominator here (of the ambient
algebra, of a stem pushed into ambient coordinates, of a single root string,
of the root-string product on the right of the theta-product identity) is
the layers of `characters._affine_denominator` read as a series: each grade
is computed once per process from the grades below it and kept, never
changed, in a cache published under `characters._cache_lock`.  Every
alternating theta sum, over the coroot lattice at level h-dual of a simple
factor, is that factor's Weyl-Kac numerator at rho
(`characters._numerator_codes`) times e^{rho} q^{dim/24}; the numerator
and the lattice sums that remain walk their points, each with its grade,
through the one enumeration `rootsystem.lattice_points_in_ellipsoid`.
`euler_product`, `eta` and the phi and eta powers that close the splint
identities read phi(q)^m off `characters._phi_power`; no product builds them.
"""

from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction

from .rootsystem import (RootSystem, Vec, build_root_system, lattice_points_in_ellipsoid,
                         vcombine, zero_vec)
from .characters import (FormalCharacter, _affine_denominator, _numerator_codes, _packing,
                         _phi_power, add_product, common_denominator, decode, encode)
from .splints import Report, Splint


# Every lattice series packs its codes into the one box |x| <= _BOX of
# `characters._packing`, whatever its dimension: the bases are the powers of
# one radix, so a code packs to the same int in every dimension it fits.
_BOX = 1 << 23


@functools.cache
def _box(dim: int):
    """(pack, unpack) of the box of the lattice series of dimension dim."""
    return _packing((-_BOX,) * dim, (_BOX,) * dim)


def _in_box(reach: int) -> int:
    """reach, if codes of that reach pack without aliasing; else raises
    ArithmeticError."""
    if reach > _BOX:
        raise ArithmeticError(f"lattice codes may reach {reach}, beyond the packing box "
                              f"of {_BOX}")
    return reach


def _packed(pairs):
    """(pairs with every {code: int} dict packed, dimension, reach) of
    (k, dict) pairs over one lattice denominator; empty dicts are dropped."""
    pairs = [(k, c) for k, c in pairs if c]
    if not pairs:
        return pairs, None, 0
    dim = len(next(iter(pairs[0][1])))
    reach = _in_box(max(max(max(map(max, c)), -min(map(min, c))) for _, c in pairs))
    pack = _box(dim)[0]
    return [(k, pack(c)) for k, c in pairs], dim, reach


def _top(cutoff: Fraction, denom: int) -> int:
    """floor(cutoff * denom): the largest exponent key within the cutoff."""
    return cutoff.numerator * denom // cutoff.denominator


def _cadd(a, b):
    """a + b for two int or two packed-dict coefficients, as a new value."""
    if isinstance(a, int):
        return a + b
    return FormalCharacter(itertools.chain(a.items(), b.items())).terms


def _rescaled(terms, f: int, g: int):
    """Terms with every exponent key multiplied by f and every packed lattice
    key by g (denominators f and g times the old ones): packing is linear, so
    g times a packed code is the packed code times g."""
    if g != 1:
        terms = {k: {p * g: m for p, m in c.items()} for k, c in terms.items()}
    return {k * f: c for k, c in terms.items()} if f != 1 else terms


def _aligned(a: "QSeries", b: "QSeries"):
    """(terms of a, terms of b, exponent denominator, lattice denominator or
    None, reach of a, reach of b): the terms re-keyed once to the lcm of the
    exponent denominators and, of two lattice series, re-encoded to the lcm
    of theirs, each reach times its factor."""
    denom, da, db = math.lcm(a.denom, b.denom), a.lattice_den, b.lattice_den
    den = math.lcm(da, db) if da and db else da or db
    fa, fb = (den // da, den // db) if da and db else (1, 1)
    ra, rb = _in_box(a.reach * fa), _in_box(b.reach * fb)
    return (_rescaled(a.terms, denom // a.denom, fa), _rescaled(b.terms, denom // b.denom, fb),
            denom, den, ra, rb)


class QSeries:
    """Truncated formal series in q^(1/denom) with exact coefficients;
    `denom` is the lcm of the reduced denominators of the exponents it holds.

    `terms` maps each int k, for q^(k/denom), to an int (scalar series) or to
    a {packed code: int} dict (lattice series): codes over the lattice
    denominator `lattice_den`, packed into the box of `_box(lattice_dim)`.
    `reach` bounds |x| for every coordinate x of every code the series may
    hold: the largest one on entry, the sum of the operands' reaches in a
    product, the larger one in a sum, times the factor in a re-encoding.  A
    series whose reach would leave the box raises ArithmeticError before it
    packs a key, so no two codes share one.  lattice_den and lattice_dim are
    None, and reach 0, for a scalar series and for one without terms.
    Coefficient dicts are never changed once a series holds them."""

    __slots__ = ("terms", "cutoff", "denom", "lattice_den", "lattice_dim", "reach")

    def __init__(self, terms, cutoff):
        pairs = [(e, c) for e, c in (terms.items() if isinstance(terms, dict) else terms) if c]
        lattice_den, dim, reach = None, None, 0
        if any(isinstance(c, FormalCharacter) for _, c in pairs):
            if not all(isinstance(c, FormalCharacter) for _, c in pairs):
                raise TypeError("cannot mix scalar and lattice coefficients")
            lattice_den = common_denominator(v for _, c in pairs for v in c.terms)
            pairs, dim, reach = _packed(
                [(e, {encode(v, lattice_den): m for v, m in c.items()}) for e, c in pairs])
        denom = math.lcm(*(Fraction(e).denominator for e, _ in pairs))
        self._fill([(int(e * denom), c) for e, c in pairs], cutoff, lattice_den, denom, dim,
                   reach)

    @classmethod
    def from_codes(cls, pairs, cutoff, lattice_den, denom: int = 1):
        """The series of (k, coefficient) pairs, k an int standing for
        q^(k/denom), coefficients {code: int} dicts over lattice_den, or ints
        when lattice_den is None.  Codes are packed here, once."""
        if lattice_den is None:
            return cls._of(pairs, cutoff, None, denom)
        pairs, dim, reach = _packed(pairs)
        return cls._of(pairs, cutoff, lattice_den, denom, dim, reach)

    @classmethod
    def _of(cls, pairs, cutoff, lattice_den, denom, dim=None, reach=0):
        """The series of (k, coefficient) pairs, coefficients ints or dicts
        already packed in the box of dim, codes of reach at most reach."""
        out = cls.__new__(cls)
        out._fill(pairs, cutoff, lattice_den, denom, dim, reach)
        return out

    def _fill(self, pairs, cutoff, lattice_den, denom, dim, reach):
        self.cutoff = cutoff if isinstance(cutoff, Fraction) else Fraction(cutoff)
        top = _top(self.cutoff, denom)
        terms = {}
        for k, c in pairs:
            if k > top or not c:
                continue
            if k in terms:
                c = _cadd(terms[k], c)
            if not c:
                terms.pop(k, None)
            else:
                terms[k] = c
        g = math.gcd(denom, *terms)
        self.terms = {k // g: c for k, c in terms.items()} if g != 1 else terms
        self.denom = denom // g
        self.lattice_den, self.lattice_dim, self.reach = (
            (lattice_den, dim, reach) if terms else (None, None, 0))

    @classmethod
    def one(cls, cutoff):
        return cls.from_codes([(0, 1)], cutoff, None)

    def coefficient(self, e):
        """The coefficient of q^e: an int, or in a lattice series the
        FormalCharacter of its codes, unpacked here."""
        c = self.terms.get(Fraction(e) * self.denom)    # an integral Fraction finds its int
        if self.lattice_den is None:
            return c or 0
        return decode(_box(self.lattice_dim)[1](c), self.lattice_den) if c else FormalCharacter()

    def items(self):
        exponents = (Fraction(k, self.denom) for k in sorted(self.terms))
        return [(e, self.coefficient(e)) for e in exponents]

    def min_exponent(self):
        return Fraction(min(self.terms), self.denom) if self.terms else None

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if not isinstance(other, QSeries):
            return False
        a, b, *_ = _aligned(self, other)
        return a == b

    def __add__(self, other):
        if (self.terms and other.terms
                and (self.lattice_den is None) != (other.lattice_den is None)):
            raise TypeError("cannot mix scalar and lattice coefficients additively")
        a, b, denom, den, ra, rb = _aligned(self, other)
        return QSeries._of(itertools.chain(a.items(), b.items()),
                           min(self.cutoff, other.cutoff), den, denom,
                           self.lattice_dim or other.lattice_dim, max(ra, rb))

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, c: int):
        if not c:
            terms = {}
        elif self.lattice_den is None:
            terms = {k: v * c for k, v in self.terms.items()}
        else:
            terms = {k: {p: m * c for p, m in v.items()} for k, v in self.terms.items()}
        return QSeries._of(terms.items(), self.cutoff, self.lattice_den, self.denom,
                           self.lattice_dim, self.reach)

    def __mul__(self, other):
        cutoff = min(self.cutoff, other.cutoff)
        a, b, denom, den, ra, rb = _aligned(self, other)
        top = _top(cutoff, denom)
        if self.lattice_den is None:
            a, b = b, a          # a scalar operand goes second
        if den is not None and None in (self.lattice_den, other.lattice_den):
            b = {k: {0: c} for k, c in b.items()}      # a scalar c is c e^0, packed to 0
        reach = _in_box(ra + rb)
        acc: dict[int, object] = {}
        for k1, c1 in a.items():
            if k1 > top:
                continue
            for k2, c2 in b.items():
                k = k1 + k2
                if k > top:
                    continue
                if den is None:
                    acc[k] = acc.get(k, 0) + c1 * c2
                else:
                    add_product(acc.setdefault(k, {}), c1, c2)
        return QSeries._of(acc.items(), cutoff, den, denom,
                           self.lattice_dim or other.lattice_dim, reach)

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative powers are not supported")
        out = QSeries.one(self.cutoff)
        for _ in range(n):
            out = out * self
        return out

    def shift(self, c) -> "QSeries":
        c = Fraction(c)
        denom = math.lcm(self.denom, c.denominator)
        f, s = denom // self.denom, c.numerator * (denom // c.denominator)
        return QSeries._of(((k * f + s, v) for k, v in self.terms.items()),
                           self.cutoff + c, self.lattice_den, denom, self.lattice_dim,
                           self.reach)

    def truncate(self, cutoff) -> "QSeries":
        return QSeries._of(self.terms.items(), min(self.cutoff, Fraction(cutoff)),
                           self.lattice_den, self.denom, self.lattice_dim, self.reach)

    def __repr__(self):
        parts = [f"q^{e}*{c!r}" for e, c in self.items()[:6]]
        return "QSeries(" + " + ".join(parts) + (" ..." if len(self.terms) > 6 else "") + ")"


def _difference(ca, cb, den, dim) -> str:
    """How two unequal coefficients differ: both ints, or both
    multiplicities at the lexicographically lowest weight where they differ."""
    if isinstance(ca, int) and isinstance(cb, int):
        return f": {ca} against {cb}"
    if isinstance(ca, int) or isinstance(cb, int):
        return ": a scalar against a lattice coefficient"
    # codes are -(coordinates x den), so the largest code is the lowest weight;
    # packed keys do not sort like their codes, so the differing ones are unpacked
    keys = _box(dim)[1]({p: p for p in ca.keys() | cb.keys() if ca.get(p, 0) != cb.get(p, 0)})
    code = max(keys)
    weight = ", ".join(str(Fraction(-x, den)) for x in code)
    return f" at weight ({weight}): {ca.get(keys[code], 0)} against {cb.get(keys[code], 0)}"


def compare_qseries(a: QSeries, b: QSeries):
    """None if equal up to the common cutoff, else (exponent, description) of
    the lowest discrepancy; differing coefficients name where they differ.  A
    term of one series only names that series and differs from the zero of
    its kind."""
    ta, tb, denom, den, _, _ = _aligned(a, b)
    dim = a.lattice_dim or b.lattice_dim
    top = _top(min(a.cutoff, b.cutoff), denom)
    for k in sorted(k for k in ta.keys() | tb.keys() if k <= top):
        ca, cb, e = ta.get(k), tb.get(k), Fraction(k, denom)
        if ca is None or cb is None:
            side, held = ("first", ca) if cb is None else ("second", cb)
            zero = 0 if isinstance(held, int) else {}
            return e, f"term q^{e} only in the {side} series" + _difference(
                zero if ca is None else ca, zero if cb is None else cb, den, dim)
        if ca != cb:
            return e, f"coefficients at q^{e} differ" + _difference(ca, cb, den, dim)
    return None


# ---------------------------------------------------------------------------
# eta and theta


def _phi_series(m: int, cutoff) -> QSeries:
    """phi(q)^m = prod_{n>=1} (1 - q^n)^m, truncated: characters._phi_power."""
    return QSeries.from_codes(enumerate(_phi_power(m, max(math.floor(cutoff), 0))), cutoff, None)


def _eta_power(m: int, cutoff) -> QSeries:
    """eta^m = q^{m/24} phi(q)^m, truncated at cutoff (empty below q^{m/24})."""
    return _phi_series(m, Fraction(cutoff) - Fraction(m, 24)).shift(Fraction(m, 24))


def euler_product(cutoff) -> QSeries:
    """prod_{n>=1} (1 - q^n), truncated."""
    return _phi_series(1, cutoff)


def eta(cutoff) -> QSeries:
    """Dedekind eta: q^{1/24} prod (1 - q^n), exponent denominator 24."""
    return _eta_power(1, cutoff)


def _lattice_sum(rs: RootSystem, basis, lam: Vec, level, cutoff, push=None) -> QSeries:
    """Sum over xi in lam/level + (lattice of basis) of q^{level(xi,xi)/2}
    e^{push(level xi)}; level xi = lam + level sum_i c_i basis[i] sits at
    q^{(lam,lam)/2level + g}, (c, g) walked on the Gram matrix of the basis
    and the pairings of lam with it."""
    start = rs.inner(lam, lam) / (2 * level)
    gram = [[rs.inner(a, b) for b in basis] for a in basis]
    pairing = [rs.inner(lam, a) for a in basis]
    acc: dict[Fraction, FormalCharacter] = {}
    for c, g in lattice_points_in_ellipsoid(gram, pairing, level, Fraction(cutoff) - start):
        v = vcombine(lam, [level * x for x in c], basis)
        acc.setdefault(start + g, FormalCharacter()).iadd(
            FormalCharacter.monomial(push(v) if push else v))
    return QSeries(acc, cutoff)


def theta(rs: RootSystem, lam: Vec, level: int, cutoff) -> QSeries:
    """Classical theta of the root lattice: sum over xi in Q + lam/level of
    q^{level(xi,xi)/2} carrying the lattice element level*xi."""
    if type(level) is not int or level < 1:      # a bool is refused too
        raise ValueError("level must be >= 1")
    return _lattice_sum(rs, rs.simple_roots, lam, level, cutoff)


# ---------------------------------------------------------------------------
# affine denominators as products


def _denominator_series(images, imaginary: int, cutoff) -> QSeries:
    """The layered denominator expansion (characters._affine_denominator) of
    the images as a lattice series, the layer of grade n at q^n."""
    den = common_denominator(images)
    layers = _affine_denominator([encode(img, den) for img in images], imaginary, int(cutoff))
    return QSeries.from_codes(enumerate(layers), cutoff, den)


def root_string_product(root: Vec, cutoff) -> QSeries:
    """(1 - e^{-a}) prod_{n>=1} (1 - q^n e^{-a})(1 - q^n e^{a}), truncated:
    the affine denominator of the single positive root a, without imaginary
    factors."""
    return _denominator_series([root], 0, cutoff)


def jacobi_theta_sum(root: Vec, cutoff) -> QSeries:
    """sum_m (-1)^m q^{m(m-1)/2} e^{-m a}: the triple-product expansion of
    euler_product * root_string_product for the same root, on the codes of
    the multiples of a.  Every m with m(m-1)/2 <= cutoff has -n <= m <= n + 1,
    taken in the order 0, 1, -1, 2, -2, ..."""
    den = common_denominator([root])
    code = encode(root, den)
    n = math.isqrt(2 * max(math.floor(cutoff), 0)) + 1
    return QSeries.from_codes([(m * (m - 1) // 2, {tuple([-m * x for x in code]): (-1) ** abs(m)})
                               for m in sorted(range(-n, n + 2), key=lambda m: abs(2 * m - 1))],
                              cutoff, den)


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


def _times_power(lhs, rhs, power, extra, cutoff):
    """(lhs, rhs * power(extra, cutoff)), or (lhs * power(-extra, cutoff), rhs)
    when extra < 0: a loaded splint file whose images span less than the ambient."""
    if extra < 0:
        return lhs * power(-extra, cutoff), rhs
    return lhs, rhs * power(extra, cutoff)


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
    lhs, rhs = _times_power(lhs, rhs, _phi_series, extra, cutoff)
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
        factor_sum = QSeries.from_codes(enumerate(layers), cutoff - start, den).shift(start)
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
    lhs, rhs = _times_power(lhs, rhs, _eta_power, extra, cutoff)
    return _normalized_compare("theta-sum", lhs, rhs)
