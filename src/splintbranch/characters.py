"""Formal characters of finite-dimensional irreducible modules.

A formal character is a finite integer combination of lattice points e^v,
stored as a dict from coordinate tuples (Fractions) to nonzero integers;
a decoded weight's coordinates come from `rootsystem.FractionCache` and keep
their hash.
Weight multiplicities come from the Freudenthal recursion; the Weyl quotient
formula is implemented independently as exact group-ring division, so the
two routes cross-check each other.

Inside, everything runs on ints and touches Fractions only at its edges.
One Freudenthal recursion (`_freudenthal_tables`) runs on Dynkin labels
(`RootSystem.label_data`) grade by grade, on dominant weights only: its grade
0 is the table of a finite module, cached per (root system, labels) by
`functools.cache` like `label_dimension` (`_dominant_table`, also the
columns of `affine.multiplicity_matrix`), and its grades make the affine
oracle `affine.affine_freudenthal`.  It and the affine characters pair
labels by the one integer form `LabelData.pair` and bound each grade by the
one ball of Kac, Prop. 11.4 (`_ball`).
Weights that are added and compared travel as codes, coordinates times one
common denominator (`encode`/`decode`); a weight given by int labels and a
W-fixed offset codes in the one basis `RootSystem._label_codes`, which the
finite characters and `affine` read their denominators from, and the
(rho-pairing, code) order of every division and peel is `_order_key`.  The
one group-ring product loop (`add_product`, behind `FormalCharacter.__mul__`,
which packs its two operands and calls it once, the root factors
`_root_factors`, and the lattice `qseries.QSeries` products, which keep
their codes packed in the one fixed box of each dimension, `_box`, between
products) adds them packed into one int each (`_packing`).  `_root_factors`
is the one expansion of the finite Weyl denominator: `_root_codes` packs it
in the product's own box for `weyl_identity`, `weyl_denominator` and the
injection fan (`root_product`), and `_affine_denominator` in `_box` as its
grade 0 (or 1 for the affine characters' fold on labels, which leaves the
finite factor out).  `_affine_denominator` is the one graded expansion: the
affine characters and the q-series verifiers read their affine denominators
from it, every grade above 0 computed once per process from the grades
below it and the power sums, rebuilt on each growth (the q-log-derivative
recurrence), packed in `_box` and kept in `_layer_cache` by (image codes,
imaginary, rooted) with its codes and its reach, in entries that are
published under `_cache_lock` and never changed; the q-series read the
packed grades as they are, the fold their codes, each grade unpacked once.
Its oracles are the tests' binomial-by-binomial expansions on tuple codes
and on Fractions.
`_phi_power` is the one phi(q)^m: the affine characters' checksum of D' and
the q-series' phi and eta powers.
The one Weyl-Kac numerator walk (`_numerator_points`) yields the dominant
labels and sign of each affine Weyl image: the affine characters fold them
on labels, and `_numerator_codes` sums their Weyl orbits on codes for every
alternating theta sum (there on 1-coordinate codes, each a packed code).
Every orbit here, of the singular elements, the numerator and the
Freudenthal character, comes as codes from `RootSystem.label_orbit`.
Weyl-denominator quotients divide one root factor at a time on them
(`_divide_by_roots`, behind `character_via_weyl`); the one general division
(`divide_exact`) eliminates on them and is its oracle.  The one decomposer
(`_peel_codes`) checks Weyl invariance by integer reflections and then
peels only dominant weights, subtracting cached dominant multiplicities
instead of whole orbits; `peel_dominant` is its Fraction edge, and
`splints.branch_direct` peels a module's orbit codes (`_orbit_codes`).
`_split_dominant` is the one check that a weight is dominant integral.
"""

from __future__ import annotations

import functools
import heapq
import itertools
import math
import threading
from collections import namedtuple
from fractions import Fraction
from operator import add, mul, neg, sub

from .rootsystem import (RootSystem, Vec, FractionCache, common_denominator,
                         lattice_points_in_ellipsoid, vneg, zero_vec)


class FormalCharacter:
    """Element of the group ring of the weight lattice (finite support): terms
    maps coordinate tuples (Fractions; those decoded from codes keep their
    hash) to nonzero ints."""

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

    def __len__(self):
        return len(self.terms)

    def __eq__(self, other):
        return isinstance(other, FormalCharacter) and self.terms == other.terms

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
        """Group ring product: add_product on the supports coded over their
        common denominator, packed over the box spanned by 0 and twice their
        bounds, which holds every sum of two of their codes."""
        den = common_denominator(itertools.chain(self.terms, other.terms))
        a, b = ({encode(v, den): c for v, c in t.terms.items()} for t in (self, other))
        cols = list(zip(*a, *b))
        pack, unpack = _packing([min(0, 2 * min(c)) for c in cols],
                                [max(0, 2 * max(c)) for c in cols])
        return decode(unpack(add_product({}, pack(a), pack(b))), den)

    def __repr__(self):
        parts = [f"{c}*e{tuple(map(str, v))}" for v, c in sorted(self.terms.items())]
        return "FormalCharacter(" + " + ".join(parts[:8]) + (" ..." if len(parts) > 8 else "") + ")"


def _split_dominant(rs, mu):
    """(int labels, W-fixed offset) of a dominant integral weight; raises
    ValueError for any other weight.  This is the one check of the
    precondition of every character and branching formula."""
    labels, d, offset = rs.split_labels(mu)
    if d != 1 or any(m < 0 for m in labels):
        raise ValueError(f"weight with labels {tuple(Fraction(m, d) for m in labels)} "
                         "is not dominant integral")
    return labels, offset


def _singular_codes(rs: RootSystem, mu: Vec) -> tuple:
    """(singular_element on codes, {code: sign}, and their denominator).  A
    point with labels y codes as sum_i y_i fw_i + offset - rho (_label_codes;
    rho codes as sum_i fw_i), as in _numerator_codes."""
    labels, offset = _split_dominant(rs, mu)
    fw, off, den = rs._label_codes(1, offset)
    off = tuple(x - sum(col) for x, col in zip(off, zip(*fw)))
    codes = dict(rs.label_orbit(tuple(m + 1 for m in labels), fw, off))
    if len(codes) != rs.weyl_order:
        raise AssertionError("singular element has wrong number of terms")
    return codes, den


def singular_element(rs: RootSystem, mu: Vec) -> FormalCharacter:
    """Alternating Weyl-orbit sum of mu+rho, shifted back by rho.

    Exactly |W| terms with coefficients +-1 (mu+rho is regular for dominant
    integral mu).
    """
    codes, den = _singular_codes(rs, mu)
    # sorted by weight: codes are -(coordinates x den)
    return decode(dict(sorted(codes.items(), reverse=True)), den)


def weyl_denominator(rs: RootSystem) -> FormalCharacter:
    """Product of (1 - e^{-alpha}) over positive roots, fully expanded."""
    return root_product(rs.positive_roots)


def weyl_identity(rs: RootSystem) -> bool:
    """singular_element(rs, 0) == weyl_denominator(rs), compared on codes
    over one denominator: the label-orbit sum of rho against the expanded
    product, neither decoded to Fractions."""
    orbit, den = _singular_codes(rs, zero_vec(rs.dim))
    return orbit == _root_codes([encode(a, den) for a in rs.positive_roots])


# ---------------------------------------------------------------------------
# integer codes of weights


def encode(v: Vec, den: int) -> tuple:
    """Code of v: -(coordinates x den) as ints, den a multiple of every
    coordinate denominator.  Codes add like the weights, and the smallest
    (rho_pairing, code) pair is the highest weight in the (rho-pairing, lex)
    order."""
    return tuple([-x.numerator * (den // x.denominator) for x in v])


def decode(terms: dict, den: int) -> FormalCharacter:
    """The FormalCharacter of a {code: coefficient} dict, in its order."""
    get = FractionCache(-den).__getitem__
    fc = FormalCharacter()
    fc.terms = {tuple(map(get, code)): c for code, c in terms.items()}
    return fc


@functools.cache
def rho_pairing(rs: RootSystem) -> tuple:
    """Ints p with sum(p * encode(v, den)) a positive multiple of -(rho, v);
    cached per root system."""
    pair = [g * r for g, r in zip(rs.gram_diag, rs.rho)]
    d = math.lcm(*(x.denominator for x in pair))
    return tuple(int(x * d) for x in pair)


def _order_key(pair):
    """The key (pairing with pair, code) of a code: the elimination order of
    divide_exact, highest weight first for pair = rho_pairing."""
    return lambda c: (sum(map(mul, pair, c)), c)


def _packing(lo, hi):
    """(pack, unpack) for the codes x with lo <= x <= hi: x packs to the int
    sum_i x_i B_i with B_0 = 1 and B_{i+1} = B_i (hi_i - lo_i + 1), a
    Kronecker substitution with mixed radices.  It is additive, so packed
    keys add like the codes, and injective on the box.  pack and unpack map
    {code: c} dicts to {int: c} dicts and back, keeping their order."""
    radices = [h - l + 1 for l, h in zip(lo, hi)]
    bases = list(itertools.accumulate(radices[:-1], mul, initial=1))
    low = sum(map(mul, lo, bases))

    def pack(terms):
        return {sum(map(mul, code, bases)): c for code, c in terms.items()}

    def unpack(terms):
        rest, cols = [p - low for p in terms], []
        for r, l in zip(radices, lo):      # the digits of p - low, lowest first
            cols.append([x % r + l for x in rest])
            rest = [x // r for x in rest]
        return dict(zip(zip(*cols), terms.values()))

    return pack, unpack


def _divide_by_roots(numer: dict, factors, pair) -> dict:
    """numer / prod_a (1 - e^a) over the factor codes a, one binomial at a
    time on {code: int} dicts; raises ArithmeticError on a remainder.

    Keys are packed (_packing) over the box of numer widened by the span of
    the factors, and 1 - e^a packs to 1 - x^s.  The quotient at p sums the
    dividend over p, p - s, p - 2s, ...: along each class of keys mod s, a
    nonzero running total is the quotient up to the next key, and the class
    total must vanish.  A quotient that passes and lies in the box of numer
    is exact: times the denominator it packs to numer in the widened box,
    where packing is injective.  Factors highest first keep the dividends
    small.  Sorted by (pairing with pair, code), the order of divide_exact."""
    if not numer:
        return {}
    lo, hi = [list(map(f, zip(*numer))) for f in (min, max)]
    pack, unpack = _packing([x + sum(min(y, 0) for y in col) for x, *col in zip(lo, *factors)],
                            [x + sum(max(y, 0) for y in col) for x, *col in zip(hi, *factors)])
    terms, start = pack(numer), (None, 0)
    for a in factors:
        (s,) = pack({a: 1})
        out, runs = {}, {}       # key mod s -> (last key of the class, running total)
        for p in sorted(terms, reverse=s < 0):
            r = p % s
            q, total = runs.get(r, start)
            if total:
                if p - q == s:
                    out[q] = total
                else:
                    out.update(dict.fromkeys(range(q, p, s), total))
            runs[r] = p, total + terms[p]
        if any(total for _, total in runs.values()):
            raise ArithmeticError("nonzero remainder in group-ring division")
        terms = out
    quot = unpack(terms)
    if any(not x <= y <= z for code in quot for x, y, z in zip(lo, code, hi)):
        raise ArithmeticError("nonzero remainder in group-ring division")
    return {c: quot[c] for c in sorted(quot, key=_order_key(pair))}


def add_product(dst: dict, a: dict, b: dict) -> dict:
    """dst += a * b on dicts keyed by packed codes (_packing), returning dst;
    a or b may be dst itself.  The package's one group-ring product loop."""
    get = dst.get
    b = list(b.items())
    for w, c in list(a.items()):
        for v, d in b:
            u = w + v
            x = get(u, 0) + c * d
            if x:
                dst[u] = x
            else:
                del dst[u]
    return dst


def _root_factors(images, pack) -> dict:
    """prod_img (1 - e^{-img}), packed by pack (_packing): the finite Weyl
    denominator, grade 0 of every rooted affine denominator."""
    grade = {0: 1}
    for img in images:
        add_product(grade, pack({tuple(-x for x in img): -1}), grade)
    return grade


def _root_codes(images) -> dict:
    """prod_img (1 - e^{-img}) on codes: _root_factors packed over the box
    from the negated images' summed negative and positive parts, which holds
    every term (each is a sum of distinct factors), and unpacked; not in
    _box, which is slower for large products, and not cached."""
    cols = list(zip(*images))
    pack, unpack = _packing([-sum(x for x in col if x > 0) for col in cols],
                            [-sum(x for x in col if x < 0) for col in cols])
    return unpack(_root_factors(images, pack))


def root_product(images) -> FormalCharacter:
    """prod_img (1 - e^{-img}) over the (nonempty) images, fully expanded:
    _root_codes on their codes over one denominator, decoded."""
    den = common_denominator(images)
    return decode(_root_codes([encode(img, den) for img in images]), den)


# Every lattice series (`qseries.QSeries`) and every affine denominator grade
# packs its codes into the one box |x| <= _BOX of `_packing`, whatever its
# dimension: the bases are the powers of one radix, so a code packs to the
# same int in every dimension it fits.  The radix 2 _BOX + 1 = 0x13779B9 has
# the low 24 bits of the golden-ratio constant 0x9E3779B9, so the keys of
# nearby codes spread over the slots of a dict.  A radix 2^k + 1 would be
# 1 mod 2^k: a key's slot would be that of its code's coordinate sum, and
# codes whose coordinates sum to 0 (the roots of A_n and G2) would all start
# their probes at one slot.
_BOX = 0x9BBCDC


@functools.cache
def _box(dim: int):
    """(pack, unpack) of the box of the codes of dimension dim."""
    return _packing((-_BOX,) * dim, (_BOX,) * dim)


def _in_box(reach: int) -> int:
    """reach, if codes of that reach pack without aliasing; else raises
    ArithmeticError."""
    if reach > _BOX:
        raise ArithmeticError(f"lattice codes may reach {reach}, beyond the packing box "
                              f"of {_BOX}")
    return reach


class _Denominator(namedtuple("_Denominator", "grades codes reaches")):
    """A `_layer_cache` entry, grades 0..n: each grade packed in the box of
    its dimension and as a {code: coefficient} dict, and the reach of each
    grade."""
    __slots__ = ()


def _affine_denominator(images, imaginary: int, cutoff: int, rooted: bool = True):
    """The affine denominator prod_img (1 - e^{-img}) prod_{n=1..cutoff}
    (1 - q^n)^imaginary prod_img (1 - q^n e^{-img}) (1 - q^n e^{img}) on the
    codes of the (nonempty) positive-root images, as a _Denominator of its
    grades 0..cutoff in q = e^{-delta}; a stem's images with the stem's rank
    give that stem's denominator in ambient coordinates.  Each grade is
    computed once per process, packed in the box of its dimension (_box), by
    the q-log-derivative recurrence n P_n = sum_{j=1..n} S_j P_{n-j}, with
    the power sums S_j = -sum_{d | j} d (imaginary + sum_img e^{(j/d) img} +
    e^{-(j/d) img}), and unpacked once; grade 0 is _root_factors in the box,
    or 1 when not rooted (that q-free factor left out of every grade).  The
    division by n is exact, and a remainder raises ArithmeticError.  Every
    term of P_n and S_j P_{n-j} lies within (2 cutoff + 1) sum_img |img|, so
    a cutoff whose bound leaves the box raises ArithmeticError before
    anything is packed.  A deeper request rebuilds the power sums, computes
    only the new grades and publishes a longer entry under _cache_lock that
    shares them; a published entry and everything it holds never change."""
    key = (tuple(images), imaginary, rooted)
    entry = _layer_cache.get(key)
    if entry is None or len(entry.grades) <= cutoff:
        _in_box((2 * cutoff + 1) * max(sum(map(abs, col)) for col in zip(*images)))
        pack, unpack = _box(len(images[0]))
        grades, codes, reaches = map(list, entry or ((), (), ()))
        keys = [k for img in images for k in pack({img: 1})]
        if not grades:
            grades.append(_root_factors(images, pack) if rooted else {0: 1})
        sums = [{} for _ in range(cutoff + 1)]      # S_j, packed; 0 packs to 0
        for j, s in enumerate(sums):
            for d in (d for d in range(1, j + 1) if j % d == 0):
                for x in [0] * imaginary + [j // d * k for k in keys] + [-j // d * k for k in keys]:
                    s[x] = s.get(x, 0) - d
        for n in range(len(grades), cutoff + 1):
            acc: dict = {}
            for j in range(1, n + 1):
                add_product(acc, sums[j], grades[n - j])
            if any(c % n for c in acc.values()):
                raise ArithmeticError(f"grade {n} of the affine denominator is not integral")
            grades.append({p: c // n for p, c in acc.items()})
        codes += map(unpack, grades[len(codes):])
        reaches += [max(map(abs, itertools.chain(*c)), default=0) for c in codes[len(reaches):]]
        entry = _Denominator(*map(tuple, (grades, codes, reaches)))
        with _cache_lock:
            held = _layer_cache.get(key)
            if held is None or len(held.grades) < len(entry.grades):
                _layer_cache[key] = entry
    if len(entry.grades) > cutoff + 1:
        entry = _Denominator(*(t[:cutoff + 1] for t in entry))
    return entry


@functools.cache
def _phi_power(m: int, cutoff: int) -> tuple:
    """Coefficients of q^0..q^cutoff in phi(q)^m = prod_{n >= 1} (1 - q^n)^m,
    one binomial expansion per factor; cached per (m, cutoff)."""
    out = [1] + [0] * cutoff
    for n in range(1, cutoff + 1):
        out = [sum((-1) ** k * math.comb(m, k) * out[j - n * k] for k in range(j // n + 1))
               for j in range(cutoff + 1)]
    return tuple(out)


def _numerator_points(rs: RootSystem, labels: tuple, K: int, cutoff: int):
    """Yield (grade, dominant labels, sign) for each point of the Weyl-Kac
    numerator walk of the strictly dominant weight with int labels l at
    level K, up to cutoff.  Each translate by K beta, beta = sum_i c_i
    alpha_i^vee, comes with its grade (an integer: the coroot_gram G has an
    even diagonal) from lattice_points_in_ellipsoid on G and l, has labels
    x = l + K G c and is reflected on its labels; a singular point raises."""
    G = rs.coroot_gram
    for c, g in lattice_points_in_ellipsoid(G, labels, K, cutoff):
        x = tuple(a + K * sum(map(mul, row, c)) for a, row in zip(labels, G))
        if g < 0:
            raise AssertionError(f"negative grade {g} in affine orbit")
        dom, sign = rs.dominant_labels(x)
        if not all(dom):
            raise AssertionError("affine orbit point is not regular")
        yield int(g), dom, sign


def _numerator_codes(rs: RootSystem, lam: Vec, K: int, cutoff: int, fw, offset) -> list:
    """The Weyl-Kac numerator on codes: the alternating affine Weyl orbit of
    the strictly dominant lam at level K, one {code: sign} dict per grade
    0..cutoff: the full Weyl orbit of each _numerator_points point.  A point
    with labels y codes as sum_i y_i fw[i] + offset, fw[i] the code of the
    image of the i-th fundamental weight, so fw and offset carry any push
    and shift."""
    layers = [{} for _ in range(cutoff + 1)]
    for g, dom, sign_x in _numerator_points(rs, tuple(int(m) for m in rs.dynkin_labels(lam)),
                                            K, cutoff):
        t = layers[g]
        for v, s in rs.label_orbit(dom, fw, offset):
            m = t.get(v, 0) + s * sign_x
            if m:
                t[v] = m
            else:
                del t[v]
    return layers


def divide_exact(numer: FormalCharacter, denom: FormalCharacter,
                 rs: RootSystem) -> FormalCharacter:
    """Exact group-ring division on the supports coded over their common
    denominator, eliminating leading terms: the smallest (rho-pairing, code)
    pairs (_order_key).  The quotient holds its terms in elimination order.

    The leading coefficient of denom must be a unit (+-1); raises if a
    nonzero remainder survives.  A lazy-deletion heap tracks the leading
    remainder term: an eliminated weight can never re-enter (all insertions
    sit strictly below the current leading term).  Lowest terms multiply, so
    an exact quotient has no term below lowest(numer) - lowest(denom);
    reaching one means a nonzero remainder.
    """
    if not denom:
        raise ZeroDivisionError("group-ring division by the zero denominator")
    den = common_denominator(itertools.chain(numer.terms, denom.terms))
    key = _order_key(rho_pairing(rs))
    dterms = [(*key(encode(v, den)), d) for v, d in denom.terms.items()]
    lead_p, lead_v, lead_c = min(dterms)
    if lead_c not in (1, -1):
        raise ValueError("denominator leading coefficient is not a unit")
    shifts = [(p - lead_p, tuple(map(sub, c, lead_v)), d) for p, c, d in dterms]

    rem = {encode(v, den): c for v, c in numer.terms.items()}
    heap = list(map(key, rem))
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
    return decode(quot, den)


# ---------------------------------------------------------------------------
# Freudenthal on labels

# affine denominators, keyed by (image codes, imaginary, rooted): _Denominator entries
_layer_cache: dict = {}
_cache_lock = threading.Lock()


def _freudenthal_tables(rs: RootSystem, top: tuple, level: int, cutoff: int) -> list:
    """Per grade n = 0..cutoff of the module of highest weight top (int labels)
    at `level`, the rows (labels, simple coefficients of apex - labels,
    multiplicity) of its dominant weights of nonzero multiplicity, in descent
    order from the apex top + n theta; grades n > 0 need a simple algebra.
    Affine Freudenthal (Kac, Infinite-dimensional Lie algebras, 3rd ed.,
    11.14): a weight w on a string counts with the multiplicity of its dominant
    representative, in grade n for alpha > 0, n - j s for alpha + s delta and
    s delta, until w + rho leaves the ball of its grade (Kac, Prop. 11.4)."""
    ld, fd = rs.label_data, rs.label_data.form_den
    roots = rs.root_form_rows    # (labels, simple coefficients, form row, (alpha, alpha))
    signed = []          # the alpha of alpha + s delta, and rank zero roots for s delta
    if cutoff:
        signed = [(x, fx, aa) for a, _, fa, aa in roots
                  for x, fx in ((a, fa), (tuple(map(neg, a)), tuple(map(neg, fa))))]
        signed += [((0,) * rs.rank, (0,) * rs.rank, 0)] * rs.rank
    (bound, step), apex = _ball(rs, top, level), top      # the ball of grade n
    dominant = rs.dominant_labels      # labels of w -> (dominant labels, sign)
    tables, mults = [], []
    for n in range(cutoff + 1):
        if n:
            # theta, the highest root: the last positive root
            apex, bound = tuple(map(add, apex, ld.positive[-1][0])), bound + step
        rows = _dominant_descent(ld, apex)
        # L(top) holds top once and every dominant weight below it; a higher
        # grade starts its descent from an apex that need not be a weight
        table, mult, least = ([rows[0] + (1,)], {top: 1}, 1) if not n else ([], {}, 0)
        mults.append(mult)
        for nu, depth_coeffs in rows[len(table):]:
            nu_rho = tuple(m + 1 for m in nu)
            nu_sq = ld.pair(nu_rho, nu_rho)
            denom = bound - nu_sq
            if denom <= 0:
                continue
            acc = 0
            for a, c, fa, aa in roots:
                # alpha-string above nu: w = nu + j alpha while apex - w stays in
                # the positive root cone and w + rho in the ball
                j_cone = min(k // ci for k, ci in zip(depth_coeffs, c) if ci)
                p = sum(map(mul, nu_rho, fa))
                q = sum(map(mul, nu, fa))
                w = nu
                for j in range(1, j_cone + 1):
                    if nu_sq + j * (2 * p + j * aa) > bound:
                        break
                    w = tuple(map(add, w, a))
                    m = mult.get(dominant(w)[0], 0)
                    if m:
                        acc += m * (q + j * aa)
            for a, fa, aa in signed:
                # w = nu + j alpha at grade n - j s while w + rho stays in its ball
                p = sum(map(mul, nu_rho, fa))
                q = sum(map(mul, nu, fa))
                w = nu
                for j in range(1, n + 1):
                    w = tuple(map(add, w, a))
                    excess = nu_sq + j * (2 * p + j * aa) - bound
                    for s in range(1, n // j + 1):
                        if excess + j * s * step > 0:
                            break
                        m = mults[n - j * s].get(dominant(w)[0], 0)
                        if m:
                            acc += m * (q + j * aa + level * s * fd)
            val, r = divmod(2 * acc, denom)
            if r or val < least:
                raise AssertionError("Freudenthal produced invalid multiplicity "
                                     f"{Fraction(2 * acc, denom)}")
            if val:
                mult[nu] = val
                table.append((nu, depth_coeffs, val))
        tables.append(table)
    return tables


def _ball(rs: RootSystem, top: tuple, level: int) -> tuple:
    """(bound, step), ints: nu of grade n in the module of highest weight top
    (int labels) at level lies in the ball |nu + rho|^2 <= |top + rho|^2 +
    2 n (level + h-dual) (Kac, Prop. 11.4) iff pair(x, x) <= bound + n step,
    x the labels of nu + rho."""
    ld, x = rs.label_data, tuple(m + 1 for m in top)
    return ld.pair(x, x), 2 * (level + rs.dual_coxeter[0]) * ld.form_den


@functools.cache
def _dominant_table(rs: RootSystem, top: tuple) -> list:
    """The rows of _freudenthal_tables for the dominant weights of the finite
    module L(top) (int labels), highest weight first; cached."""
    return _freudenthal_tables(rs, top, 0, 0)[0]


def dominant_multiplicities(rs: RootSystem, mu: Vec) -> dict[Vec, int]:
    """Multiplicities of the dominant weights of L^mu (Freudenthal recursion)."""
    top, offset = _split_dominant(rs, mu)
    table = _dominant_table(rs, top)
    return dict(rs.from_labels([(nu, m) for nu, _, m in table], 1, offset))


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


def _orbit_codes(rs: RootSystem, top: tuple, fw, off) -> dict:
    """The weights of L(top) (int labels) as {code: multiplicity}, in the
    basis (fw, off) of _label_codes: the orbits of the rows of its dominant
    table, in table order and each sorted by weight."""
    # sorted by weight: codes are -(coordinates x den)
    return {code: m for nu, _, m in _dominant_table(rs, top)
            for code, _ in sorted(rs.label_orbit(nu, fw, off), reverse=True)}


def freudenthal_character(rs: RootSystem, mu: Vec) -> FormalCharacter:
    """Full weight system of L^mu with exact multiplicities: _orbit_codes,
    decoded."""
    top, offset = _split_dominant(rs, mu)
    fw, off, den = rs._label_codes(1, offset)
    return decode(_orbit_codes(rs, top, fw, off), den)


def character_via_weyl(rs: RootSystem, mu: Vec) -> FormalCharacter:
    """ch L^mu as the exact quotient singular element / Weyl denominator."""
    codes, den = _singular_codes(rs, mu)
    factors = [encode(vneg(a), den) for a in reversed(rs.positive_roots)]
    return decode(_divide_by_roots(codes, factors, rho_pairing(rs)), den)


@functools.cache
def label_dimension(rs: RootSystem, labels: tuple) -> int:
    """Weyl dimension of L(labels), int labels: the product over positive
    roots sum_i k_i alpha_i of sum_i k_i (l_i + 1) |alpha_i|^2 over
    sum_i k_i |alpha_i|^2, in ints.  Cached per labels."""
    if any(m < 0 for m in labels):
        raise ValueError(f"weight with labels {tuple(labels)} is not dominant")
    ld = rs.label_data
    sizes = [ld.pair(a, a) for a in ld.cartan]
    num = den = 1
    for _, c in ld.positive:
        num *= sum(k * (m + 1) * s for k, m, s in zip(c, labels, sizes))
        den *= sum(map(mul, c, sizes))
    val, r = divmod(num, den)
    if r:
        raise AssertionError("Weyl dimension is not an integer")
    return val


def weyl_dimension(rs: RootSystem, mu: Vec) -> int:
    return label_dimension(rs, _split_dominant(rs, mu)[0])


# ---------------------------------------------------------------------------
# decomposition into irreducible modules


def _show(v: Vec) -> str:
    return "(" + ", ".join(map(str, v)) + ")"


def _weight(code, den: int) -> Vec:
    return tuple(map(FractionCache(-den).__getitem__, code))


def _peel_codes(ambient: RootSystem, sub: RootSystem, images, mult: dict, den: int) -> dict:
    """The character {code: multiplicity} (codes over den, a multiple of the
    denominators of images) as a nonnegative sum of irreducible characters of
    `sub`, a regular subalgebra of `ambient` whose simple roots sit at
    `images` in ambient coordinates (the ambient simple roots for the algebra
    itself): {code of the highest weight: (multiplicity, its sub labels)}.

    Works on codes and integer labels.  One pass over the support checks
    that the character is W_sub-invariant: every weight has the multiplicity
    of its dominant representative (integer reflections), and every dominant
    weight has its whole orbit in the support.  Then only the dominant
    weights are peeled, highest first in the (rho-pairing, lex) order of the
    ambient, each module subtracting its cached dominant multiplicities; the
    weights this introduces sit below the current one and are peeled in
    turn.  Raises ValueError, naming a weight decoded for the message, if
    the character is not a module character.
    """
    cartan = sub.label_data.cartan
    img = [encode(a, den) for a in images]
    img_cols = list(zip(*img))
    # labels l_i = 2 (v, a_i) / (a_i, a_i) = sum_k rows[i][k] code_k / scale
    rows, rows_den = ambient.label_rows(tuple(images))
    scale = -rows_den * den

    labels: dict = {}    # code of a dominant weight -> its labels
    count: dict = {}     # code of a dominant weight -> its orbit points in mult
    for c, m in mult.items():
        lab = []
        for row in rows:
            x, r = divmod(sum(map(mul, row, c)), scale)
            if r:
                raise ValueError(f"weight {_show(_weight(c, den))} is not integral for "
                                 f"{sub.name}: not a module character")
            lab.append(x)
        rep = c
        while True:
            for i, x in enumerate(lab):
                if x < 0:
                    lab = [a - x * b for a, b in zip(lab, cartan[i])]
                    rep = tuple([a - x * b for a, b in zip(rep, img[i])])
                    break
            else:
                break
        if mult.get(rep, 0) != m:
            raise ValueError(f"weight {_show(_weight(c, den))} has multiplicity {m} but its "
                             f"dominant representative {_show(_weight(rep, den))} has "
                             f"{mult.get(rep, 0)}: not a module character")
        labels[rep] = tuple(lab)
        count[rep] = count.get(rep, 0) + 1
    for rep, lab in labels.items():
        size = sub.orbit_size(lab)
        if count[rep] != size:
            raise ValueError(f"dominant weight {_show(_weight(rep, den))} has multiplicity "
                             f"{mult[rep]} but only {count[rep]} of the {size} weights "
                             "of its orbit: not a module character")

    key = _order_key(rho_pairing(ambient))
    rem = {rep: mult[rep] for rep in labels}
    heap = list(map(key, rem))
    heapq.heapify(heap)
    table: dict = {}
    while heap:
        _, c = heapq.heappop(heap)
        m = rem.pop(c, 0)
        if not m:
            continue
        if m < 0:
            raise ValueError(f"negative leading coefficient {m} at {_show(_weight(c, den))}")
        table[c] = m, labels[c]
        for lab, coeffs, k in _dominant_table(sub, labels[c])[1:]:
            u = tuple([a - sum(map(mul, coeffs, col)) for a, col in zip(c, img_cols)])
            n = rem.get(u, 0) - m * k
            if u not in rem:
                heapq.heappush(heap, key(u))
                labels[u] = lab
            if n:
                rem[u] = n
            else:
                del rem[u]
    return table


def peel_dominant(ambient: RootSystem, sub: RootSystem, images,
                  fc: FormalCharacter) -> dict[Vec, int]:
    """Write fc as a nonnegative sum of irreducible characters of `sub`:
    _peel_codes on the codes of fc over one denominator, decoded."""
    den = common_denominator(itertools.chain(fc.terms, images))
    table = _peel_codes(ambient, sub, images, {encode(v, den): m for v, m in fc.terms.items()},
                        den)
    return decode({c: m for c, (m, _) in table.items()}, den).terms


def decompose_character(rs: RootSystem, fc: FormalCharacter) -> dict[Vec, int]:
    """Write a character as a nonnegative sum of irreducibles of rs."""
    return peel_dominant(rs, rs, rs.simple_roots, fc)
