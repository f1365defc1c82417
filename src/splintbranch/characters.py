"""Formal characters of finite-dimensional irreducible modules.

A formal character is a finite integer combination of lattice points e^v,
stored as a dict from coordinate tuples (Fractions) to nonzero integers.
Weight multiplicities come from the Freudenthal recursion; the Weyl quotient
formula is implemented independently as exact group-ring division, so the
two routes cross-check each other.

Both routes compute in ints and touch Fractions only at their edges.
Freudenthal runs on Dynkin labels (`RootSystem.label_data`): the dominant
weights come from a descent from mu through dominant weights, and the
root-string sums use the integer form.  Orbits are expanded in label space
and decoded once.  Group-ring division eliminates on the supports scaled by
their common denominator, which keeps both addition and the term order.
"""

from __future__ import annotations

import heapq
import math
import threading
from fractions import Fraction
from operator import add, mul, sub

from .rootsystem import RootSystem, Vec, FractionCache, vadd, vneg, zero_vec


class FormalCharacter:
    """Element of the group ring of the weight lattice (finite support)."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms: dict[Vec, int] = {}
        if terms:
            for v, c in (terms.items() if isinstance(terms, dict) else terms):
                if c:
                    self.terms[v] = self.terms.get(v, 0) + c
                    if not self.terms[v]:
                        del self.terms[v]

    @classmethod
    def monomial(cls, v: Vec, c: int = 1):
        fc = cls()
        if c:
            fc.terms[v] = c
        return fc

    def copy(self):
        fc = FormalCharacter()
        fc.terms = dict(self.terms)
        return fc

    def __bool__(self):
        return bool(self.terms)

    def __len__(self):
        return len(self.terms)

    def __eq__(self, other):
        return isinstance(other, FormalCharacter) and self.terms == other.terms

    def __hash__(self):
        raise TypeError("FormalCharacter is unhashable")

    def get(self, v: Vec) -> int:
        return self.terms.get(v, 0)

    def items(self):
        return self.terms.items()

    def total(self) -> int:
        return sum(self.terms.values())

    def __add__(self, other):
        out = self.copy()
        out.iadd(other)
        return out

    def iadd(self, other, scale: int = 1):
        for v, c in other.terms.items():
            n = self.terms.get(v, 0) + scale * c
            if n:
                self.terms[v] = n
            else:
                self.terms.pop(v, None)
        return self

    def __sub__(self, other):
        out = self.copy()
        out.iadd(other, -1)
        return out

    def __neg__(self):
        return self.scale(-1)

    def scale(self, c: int):
        out = FormalCharacter()
        if c:
            out.terms = {v: c * m for v, m in self.terms.items()}
        return out

    def __mul__(self, other):
        """Group ring product (convolution)."""
        out = FormalCharacter()
        t = out.terms
        for v, c in self.terms.items():
            for w, d in other.terms.items():
                u = vadd(v, w)
                n = t.get(u, 0) + c * d
                if n:
                    t[u] = n
                else:
                    del t[u]
        return out

    def map_support(self, fn):
        out = FormalCharacter()
        for v, c in self.terms.items():
            u = fn(v)
            n = out.terms.get(u, 0) + c
            if n:
                out.terms[u] = n
            else:
                del out.terms[u]
        return out

    def leading(self, key):
        """(weight, coefficient) maximizing key over the support."""
        v = max(self.terms, key=key)
        return v, self.terms[v]

    def __repr__(self):
        parts = [f"{c}*e{tuple(map(str, v))}" for v, c in sorted(self.terms.items())]
        return "FormalCharacter(" + " + ".join(parts[:8]) + (" ..." if len(parts) > 8 else "") + ")"


def order_key(rs: RootSystem):
    """Total order compatible with the root order: (rho-pairing, lex)."""
    rho = rs.rho
    return lambda v: (rs.inner(v, rho), v)


def _require_dominant_integral(rs, mu):
    labels = rs.dynkin_labels(mu)
    if any(m.denominator != 1 for m in labels):
        raise ValueError(f"weight with labels {labels} is not integral")
    if any(m < 0 for m in labels):
        raise ValueError(f"weight with labels {labels} is not dominant")


def singular_element(rs: RootSystem, mu: Vec) -> FormalCharacter:
    """Alternating Weyl-orbit sum of mu+rho, shifted back by rho.

    Exactly |W| terms with coefficients +-1 (mu+rho is regular for dominant
    integral mu).
    """
    _require_dominant_integral(rs, mu)
    labels, _, offset = rs.split_labels(mu)
    orbit = rs.label_orbit(tuple(m + 1 for m in labels))
    fc = FormalCharacter()
    fc.terms = dict(rs.from_labels([(tuple(m - 1 for m in w), sign) for w, sign in orbit],
                                   1, offset, ordered=True))
    if len(fc) != rs.weyl_order:
        raise AssertionError("singular element has wrong number of terms")
    return fc


def weyl_denominator(rs: RootSystem) -> FormalCharacter:
    """Product of (1 - e^{-alpha}) over positive roots, fully expanded."""
    prod = FormalCharacter.monomial(zero_vec(rs.dim))
    for a in rs.positive_roots:
        factor = FormalCharacter({zero_vec(rs.dim): 1, vneg(a): -1})
        prod = prod * factor
    return prod


def divide_exact(numer: FormalCharacter, denom: FormalCharacter,
                 rs: RootSystem) -> FormalCharacter:
    """Exact group-ring division, eliminating leading terms in the order
    (rho-pairing, lex) of order_key(rs).

    The leading coefficient of denom must be a unit (+-1); raises if a
    nonzero remainder survives.  Supports are eliminated as int codes,
    -(coordinates x common denominator), so that addition is kept and the
    leading term is the smallest (pairing code, code) pair.  A lazy-deletion
    heap tracks the leading remainder term: an eliminated weight can never
    re-enter (all insertions sit strictly below the current leading term).
    Lowest terms multiply, so an exact quotient has no term below
    lowest(numer) - lowest(denom); reaching one means a nonzero remainder.
    """
    den = math.lcm(*{x.denominator for fc in (numer, denom) for v in fc.terms for x in v})

    def code(v):
        return tuple([-x.numerator * (den // x.denominator) for x in v])

    pair = [g * r for g, r in zip(rs.gram_diag, rs.rho)]
    pair_den = math.lcm(*(x.denominator for x in pair))
    pair = [int(x * pair_den) for x in pair]

    def pairing(c):
        return sum(map(mul, pair, c))

    coded = [(code(w), d) for w, d in denom.terms.items()]
    dterms = [(pairing(c), c, d) for c, d in coded]
    lead_p, lead_v, lead_c = min(dterms)
    if lead_c not in (1, -1):
        raise ValueError("denominator leading coefficient is not a unit")
    shifts = [(p - lead_p, tuple(map(sub, c, lead_v)), d) for p, c, d in dterms]

    rem = {code(v): c for v, c in numer.terms.items()}
    heap = [(pairing(v), v) for v in rem]
    heapq.heapify(heap)
    quot: dict = {}
    if heap:
        low_p, low_v = max(heap)
        last_p, last_v, _ = max(dterms)
        lowest_q = (low_p - last_p, tuple(map(sub, low_v, last_v)))
    steps = 0
    while heap:
        p, v = heapq.heappop(heap)
        c = rem.get(v)
        if not c:
            rem.pop(v, None)
            continue
        q = c * lead_c
        qv = tuple(map(sub, v, lead_v))
        if (p - lead_p, qv) > lowest_q:
            break
        quot[qv] = quot.get(qv, 0) + q
        # subtract q e^{qv} * denom: term w of denom lands at qv + w = v + (w - lead)
        for dp, dw, d in shifts:
            u = tuple(map(add, v, dw))
            n = rem.get(u, 0) - q * d
            if n:
                if u not in rem:
                    heapq.heappush(heap, (p + dp, u))
                rem[u] = n
            else:
                rem.pop(u, None)
        steps += 1
        if steps > 2_000_000:
            raise ArithmeticError("group-ring division does not terminate")
    if any(rem.values()):
        raise ArithmeticError("nonzero remainder in group-ring division")
    out = FormalCharacter()
    frac = FractionCache(-den)      # codes are negated coordinates
    get = frac.__getitem__
    out.terms = {tuple(map(get, code_v)): c for code_v, c in quot.items()}
    return out


# character caches, keyed by (algebra name, Dynkin labels)
_dominant_cache: dict = {}
_cache_lock = threading.Lock()


def dominant_multiplicities(rs: RootSystem, mu: Vec) -> dict[Vec, int]:
    """Multiplicities of the dominant weights of L^mu (Freudenthal recursion)."""
    _require_dominant_integral(rs, mu)
    key = (rs.name, tuple(rs.dynkin_labels(mu)))
    hit = _dominant_cache.get(key)
    if hit is not None:
        return hit

    ld = rs.label_data
    top, _, offset = rs.split_labels(mu)
    form = ld.form

    def norm(x):         # (x, x) * form_den
        return sum(xi * sum(map(mul, row, x)) for xi, row in zip(x, form) if xi)

    roots = []           # (labels, simple coefficients, form row of alpha, (alpha, alpha))
    for a, c in ld.positive:
        fa = tuple(sum(map(mul, row, a)) for row in form)
        roots.append((a, c, fa, sum(map(mul, a, fa))))
    top_sq = norm(tuple(m + 1 for m in top))
    dominant: dict = {}  # labels of w -> labels of its dominant representative

    mult: dict = {}
    for nu, depth_coeffs in _dominant_descent(ld, top):
        if not any(depth_coeffs):
            mult[nu] = 1
            continue
        nu_rho = tuple(m + 1 for m in nu)
        nu_sq = norm(nu_rho)
        denom = top_sq - nu_sq
        acc = 0
        for a, c, fa, aa in roots:
            # alpha-string above nu: w = nu + j alpha while mu - w stays in the
            # positive root cone and (w + rho)^2 <= (mu + rho)^2
            j_cone = min(k // ci for k, ci in zip(depth_coeffs, c) if ci)
            p = sum(map(mul, nu_rho, fa))
            q = sum(map(mul, nu, fa))
            w = nu
            for j in range(1, j_cone + 1):
                if nu_sq + j * (2 * p + j * aa) > top_sq:
                    break
                w = tuple(map(add, w, a))
                dom = dominant.get(w)
                if dom is None:
                    dom = dominant[w] = rs.dominant_labels(w)[0]
                m = mult.get(dom, 0)
                if m:
                    acc += m * (q + j * aa)
        val, r = divmod(2 * acc, denom)
        if r or val <= 0:
            raise AssertionError("Freudenthal produced non-positive multiplicity "
                                 f"{Fraction(2 * acc, denom)}")
        mult[nu] = val

    out = dict(rs.from_labels(mult.items(), 1, offset))
    with _cache_lock:
        _dominant_cache[key] = out
    return out


def _dominant_descent(ld, mu):
    """All dominant nu with mu - nu in the positive root cone, as
    (labels of nu, simple coefficients of mu - nu), ordered by depth (the sum
    of the coefficients) and then by the coefficients, so that every weight
    above nu comes first.

    Descends from mu by positive roots, keeping only dominant weights: every
    dominant nu below mu is reached this way (Stembridge, "The partial order
    of dominant weights", Adv. Math. 136 (1998), covers are positive roots).
    """
    found = {mu: (0,) * len(mu)}
    frontier = [mu]
    while frontier:
        nxt = []
        for nu in frontier:
            coeffs = found[nu]
            for a, c in ld.positive:
                w = tuple(map(sub, nu, a))
                if w not in found and min(w) >= 0:
                    found[w] = tuple(map(add, coeffs, c))
                    nxt.append(w)
        frontier = nxt
    return sorted(found.items(), key=lambda t: (sum(t[1]), t[1]))


def freudenthal_character(rs: RootSystem, mu: Vec) -> FormalCharacter:
    """Full weight system of L^mu with exact multiplicities."""
    fc = FormalCharacter()
    for nu, m in dominant_multiplicities(rs, mu).items():
        for w, _ in rs.weyl_orbit(nu):
            fc.terms[w] = m
    return fc


def character_via_weyl(rs: RootSystem, mu: Vec) -> FormalCharacter:
    """ch L^mu as the exact quotient singular element / Weyl denominator."""
    return divide_exact(singular_element(rs, mu), weyl_denominator(rs), rs)


def weyl_dimension(rs: RootSystem, mu: Vec) -> int:
    _require_dominant_integral(rs, mu)
    mu_rho = vadd(mu, rs.rho)
    val = Fraction(1)
    for a in rs.positive_roots:
        val *= rs.inner(mu_rho, a) / rs.inner(rs.rho, a)
    if val.denominator != 1:
        raise AssertionError("Weyl dimension is not an integer")
    return int(val)


def peel_modules(fc: FormalCharacter, key, is_dominant_integral,
                 character) -> dict[Vec, int]:
    """Write fc as a nonnegative sum of irreducible characters.

    Repeatedly subtracts character(v) times the coefficient of the remaining
    weight v that is highest in the order `key`.  Raises if that weight fails
    is_dominant_integral or has a negative coefficient, which signals that fc
    is not a genuine module character.
    """
    rem = fc.copy()
    table: dict[Vec, int] = {}
    while rem:
        v, c = rem.leading(key)
        if not is_dominant_integral(v):
            raise ValueError(f"leading weight {v} is not dominant: not a module character")
        if c < 0:
            raise ValueError(f"negative leading coefficient {c} at {v}")
        table[v] = c
        rem.iadd(character(v), -c)
    return table


def decompose_character(rs: RootSystem, fc: FormalCharacter) -> dict[Vec, int]:
    """Write a character as a nonnegative sum of irreducibles of rs."""
    return peel_modules(fc, order_key(rs), rs.is_dominant_integral,
                        lambda v: freudenthal_character(rs, v))
