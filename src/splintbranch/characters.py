"""Formal characters of finite-dimensional irreducible modules.

A formal character is a finite integer combination of lattice points e^v,
stored as a dict from coordinate tuples (Fractions) to nonzero integers.
Weight multiplicities come from the Freudenthal recursion; the Weyl quotient
formula is implemented independently as exact group-ring division, so the
two routes cross-check each other.

Inside, everything runs on ints and touches Fractions only at its edges.
One Freudenthal recursion (`_freudenthal_tables`) runs on Dynkin labels
(`RootSystem.label_data`) grade by grade, on dominant weights only: its grade
0 is the table of a finite module, cached on labels (`_dominant_table`, also
the columns of `affine.multiplicity_matrix`), and its grades make the affine
oracle `affine.affine_freudenthal`.  It and the affine characters pair
labels by the one integer form `LabelData.pair` and bound each grade by the
one ball of Kac, Prop. 11.4 (`_ball`).
Weights that are added and compared travel as codes, coordinates times one
common denominator (`encode`/`decode`); a weight given by int labels and a
W-fixed offset codes in the one basis `_weight_codes`, which the finite
characters and `affine` read their denominators from, and the
(rho-pairing, code) order of every division and peel is `_order_key`.  The
one group-ring product loop (`add_product`, behind `code_products` for
`FormalCharacter.__mul__`, the binomial expansion `_denominator_codes` of
`denominator_layers`, `weyl_identity` and the injection fan, and the lattice
`qseries.QSeries` products, which keep their codes packed in one fixed box
per dimension between products) adds them packed into one int each
(`_packing`).  The affine characters and the q-series verifiers read their
affine denominators from `_affine_denominator`: grade 0 by the binomial
expansion (or 1 for the affine characters' fold on labels, which leaves the
finite factor out), every later grade once per process from the grades below
it (the q-log-derivative recurrence), kept in `_layer_cache` by (image codes,
imaginary, rooted) as tuples of layers that are published under
`_cache_lock` and never changed; the binomial expansion is its oracle.
`_phi_power` is the one phi(q)^m: the affine characters' checksum of D' and
the q-series' phi and eta powers.
The one Weyl-Kac numerator walk (`_numerator_points`) yields the dominant
labels and sign of each affine Weyl image: the affine characters fold them
on labels, and `_numerator_codes` sums their Weyl orbits on codes for every
alternating theta sum.  Every orbit here, of the singular elements, the
numerator and the Freudenthal character, comes as codes from
`RootSystem.label_orbit`.  Weyl-denominator quotients divide one root
factor at a time on them (`_divide_by_roots`, behind `character_via_weyl`);
the general division (`divide_codes`, wrapped by `divide_exact`) eliminates
on them and is its oracle.  The one decomposer
(`peel_dominant`, behind `decompose_character` and `SubalgebraView.decompose`)
checks Weyl invariance by integer reflections and then peels only dominant
weights, subtracting cached dominant multiplicities instead of whole orbits.
`_split_dominant` is the one check that a weight is dominant integral.
"""

from __future__ import annotations

import functools
import heapq
import itertools
import math
import threading
from fractions import Fraction
from operator import add, mul, neg, sub

from .rootsystem import (RootSystem, Vec, FractionCache, common_denominator,
                         lattice_points_in_ellipsoid, vneg, zero_vec)


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
        """Group ring product: code_products on the supports coded over their
        common denominator."""
        den = common_denominator(itertools.chain(self.terms, other.terms))
        (out,) = code_products([({}, [({encode(v, den): c for v, c in self.terms.items()},
                                       {encode(v, den): c for v, c in other.terms.items()})])])
        return decode(out, den)

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
    point with labels y codes as sum_i y_i fw_i + offset - rho (_weight_codes;
    rho codes as sum_i fw_i), as in _numerator_codes."""
    labels, offset = _split_dominant(rs, mu)
    fw, off, den = _weight_codes(rs, offset)
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
    """Product of (1 - e^{-alpha}) over positive roots, fully expanded: the
    grade-0 layer of denominator_layers."""
    return denominator_layers(rs.positive_roots, 0, 0)[0]


def weyl_identity(rs: RootSystem) -> bool:
    """singular_element(rs, 0) == weyl_denominator(rs), compared on codes
    over one denominator: the label-orbit sum of rho against the expanded
    product, neither decoded to Fractions."""
    orbit, den = _singular_codes(rs, zero_vec(rs.dim))
    return orbit == _denominator_codes([encode(a, den) for a in rs.positive_roots], 0, 0)[0]


# ---------------------------------------------------------------------------
# integer codes of weights


def encode(v: Vec, den: int) -> tuple:
    """Code of v: -(coordinates x den) as ints, den a multiple of every
    coordinate denominator.  Codes add like the weights, and the smallest
    (rho_pairing, code) pair is the highest weight in the (rho-pairing, lex)
    order."""
    return tuple([-x.numerator * (den // x.denominator) for x in v])


def _weight_codes(rs: RootSystem, offset: Vec | None) -> tuple:
    """(fw, off, den): the weight with int labels y and W-fixed part offset
    (None when zero) has the code (encode) sum_i y_i fw[i] + off over den;
    RootSystem._label_codes negated."""
    fw, off, den = rs._label_codes(1, offset)
    return [tuple(map(neg, w)) for w in fw], tuple(map(neg, off)), den


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
    divide_codes, highest weight first for pair = rho_pairing."""
    return lambda c: (sum(map(mul, pair, c)), c)


def divide_codes(numer: dict, denom: dict, pair) -> dict:
    """Exact group-ring division of {code: coefficient} dicts, eliminating
    leading terms: the smallest (pairing, code) pairs, pairing the dot
    product with `pair` (see rho_pairing).  The quotient holds its terms in
    elimination order; numer is consumed as the remainder.

    The leading coefficient of denom must be a unit (+-1); raises if a
    nonzero remainder survives.  A lazy-deletion heap tracks the leading
    remainder term: an eliminated weight can never re-enter (all insertions
    sit strictly below the current leading term).  Lowest terms multiply, so
    an exact quotient has no term below lowest(numer) - lowest(denom);
    reaching one means a nonzero remainder.
    """
    key = _order_key(pair)
    if not denom:
        raise ZeroDivisionError("group-ring division by the zero denominator")
    dterms = [(*key(c), d) for c, d in denom.items()]
    lead_p, lead_v, lead_c = min(dterms)
    if lead_c not in (1, -1):
        raise ValueError("denominator leading coefficient is not a unit")
    shifts = [(p - lead_p, tuple(map(sub, c, lead_v)), d) for p, c, d in dterms]

    rem = numer
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
    return quot


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
    small.  Sorted by (pairing with pair, code), the order of divide_codes."""
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


def add_product(dst: dict, a: dict, b: dict, sign: int = 1) -> dict:
    """dst += sign * a * b on dicts keyed by packed codes (_packing),
    returning dst; a or b may be dst itself.  The package's one group-ring
    product loop."""
    get = dst.get
    b = list(b.items())
    for w, c in list(a.items()):
        c *= sign
        for v, d in b:
            u = w + v
            x = get(u, 0) + c * d
            if x:
                dst[u] = x
            else:
                del dst[u]
    return dst


def code_products(sums, sign: int = 1) -> list:
    """[dst + sign * (sum of a * b over pairs) for dst, pairs in sums] on
    {code: coefficient} dicts, as new dicts in the order add_product gives
    pair by pair.  Each operand is packed once, over one box: every key the
    loop meets is a key of a dst or the sum of two operand keys, so the box
    spanned by 0 and twice the bounds of all the dicts holds it."""
    operands = {id(t): t for _, pairs in sums for pair in pairs for t in pair}
    cols = list(zip(*itertools.chain(*operands.values(), *(dst for dst, _ in sums))))
    pack, unpack = _packing([min(0, 2 * min(c)) for c in cols],
                            [max(0, 2 * max(c)) for c in cols])
    packed = {i: pack(t) for i, t in operands.items()}
    out = []
    for dst, pairs in sums:
        acc = pack(dst)
        for a, b in pairs:
            add_product(acc, packed[id(a)], packed[id(b)], sign)
        out.append(unpack(acc))
    return out


def _denominator_codes(images, imaginary: int, cutoff: int) -> list:
    """denominator_layers on codes: images are the codes of the positive-root
    images, the layers are {code: coefficient} dicts.  Expanded packed over
    the box from the factors' summed negative and positive parts, which holds
    every term: each is a sum of distinct factors."""
    zero = (0,) * len(images[0])
    negated = [tuple(-x for x in img) for img in images]
    factors = [(0, v) for v in negated]
    for n in range(1, cutoff + 1):
        factors += [(n, zero)] * imaginary
        factors += [(n, v) for v in negated]
        factors += [(n, img) for img in images]
    cols = list(zip(*(v for _, v in factors)))
    pack, unpack = _packing([sum(x for x in col if x < 0) for col in cols],
                            [sum(x for x in col if x > 0) for col in cols])
    layers = [{0: 1}] + [{} for _ in range(cutoff)]
    for n, v in factors:
        # layers *= (1 - q^n e^v), top grade first so each layer reads old values
        term = pack({v: -1})
        for m in range(cutoff, n - 1, -1):
            add_product(layers[m], term, layers[m - n])
    return [unpack(layer) for layer in layers]


def _affine_denominator(images, imaginary: int, cutoff: int, rooted: bool = True) -> list:
    """The layers of _denominator_codes(images, imaginary, cutoff), each
    grade computed once per process by the q-log-derivative recurrence
    n P_n = sum_{j=1..n} S_j P_{n-j}, with the power sums
    S_j = -sum_{d | j} d (imaginary + sum_img e^{(j/d) img} + e^{-(j/d) img});
    grade 0 is the binomial expansion, or 1 when not rooted (the q-free
    factor prod_img (1 - e^{-img}) left out of every grade).  The division
    by n is exact, and a remainder raises ArithmeticError.  A deeper request
    publishes a longer tuple under _cache_lock that shares the layers below
    it; a published tuple and its layers are never changed.  Packed over the
    box +-(2 cutoff + 1) sum_img |img|, which holds every term of P_n and
    S_j P_{n-j}."""
    key = (tuple(images), imaginary, rooted)
    layers = _layer_cache.get(key, ())
    if len(layers) <= cutoff:
        layers = layers or (tuple(_denominator_codes(images, 0, 0)) if rooted
                            else ({(0,) * len(images[0]): 1},))
        bound = [(2 * cutoff + 1) * sum(map(abs, col)) for col in zip(*images)]
        pack, unpack = _packing([-b for b in bound], bound)
        keys = [k for img in images for k in pack({img: 1})]
        sums = [{} for _ in range(cutoff + 1)]      # S_j, packed; 0 packs to 0
        for j, s in enumerate(sums):
            for d in (d for d in range(1, j + 1) if j % d == 0):
                for x in [0] * imaginary + [j // d * k for k in keys] + [-j // d * k for k in keys]:
                    s[x] = s.get(x, 0) - d
        packed = [pack(layer) for layer in layers]
        for n in range(len(layers), cutoff + 1):
            acc: dict = {}
            for j in range(1, n + 1):
                add_product(acc, sums[j], packed[n - j])
            if any(c % n for c in acc.values()):
                raise ArithmeticError(f"grade {n} of the affine denominator is not integral")
            packed.append({p: c // n for p, c in acc.items()})
        layers += tuple(map(unpack, packed[len(layers):]))
        with _cache_lock:
            if len(_layer_cache.get(key, ())) < len(layers):
                _layer_cache[key] = layers
    return list(layers[:cutoff + 1])


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


def denominator_layers(pos_images, imaginary: int, cutoff: int) -> list:
    """The truncated affine denominator, one FormalCharacter per grade n
    (the power of q = e^{-delta}), for grades 0..cutoff:

        prod_img (1 - e^{-img})
          * prod_{n=1..cutoff} (1 - q^n)^imaginary
                               prod_img (1 - q^n e^{-img}) (1 - q^n e^{img})

    over the (nonempty) positive-root images `img`.  The positive roots of an
    algebra with imaginary = its rank give its Weyl-Kac denominator (at
    cutoff 0 its Weyl denominator); the images of a stem's positive roots
    with the stem's rank give that stem's denominator in ambient coordinates,
    graded by the stem's own delta.  Expanded on codes and decoded per layer.
    """
    den = common_denominator(pos_images)
    layers = _denominator_codes([encode(img, den) for img in pos_images], imaginary, cutoff)
    return [decode(layer, den) for layer in layers]


def divide_exact(numer: FormalCharacter, denom: FormalCharacter,
                 rs: RootSystem) -> FormalCharacter:
    """Exact group-ring division, eliminating leading terms in the order
    (rho-pairing, lex): divide_codes on the supports coded over their common
    denominator."""
    den = common_denominator(itertools.chain(numer.terms, denom.terms))
    quot = divide_codes({encode(v, den): c for v, c in numer.terms.items()},
                        {encode(v, den): c for v, c in denom.terms.items()},
                        rho_pairing(rs))
    return decode(quot, den)


# ---------------------------------------------------------------------------
# Freudenthal on labels

# the finite label tables of _dominant_table, keyed by (algebra name, Dynkin labels)
_table_cache: dict = {}
# affine denominator layers, keyed by (image codes, imaginary): tuples of grades 0..n
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
    dominant = rs._dominant_cache      # labels of w -> (dominant labels, sign)
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
                    dom = dominant.get(w) or rs.dominant_labels(w)
                    m = mult.get(dom[0], 0)
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
                        m = mults[n - j * s].get(rs.dominant_labels(w)[0], 0)
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


def _dominant_table(rs: RootSystem, top: tuple) -> list:
    """The rows of _freudenthal_tables for the dominant weights of the finite
    module L(top) (int labels), highest weight first; cached."""
    key = (rs.name, top)
    if (hit := _table_cache.get(key)) is not None:
        return hit
    (table,) = _freudenthal_tables(rs, top, 0, 0)
    with _cache_lock:
        _table_cache[key] = table
    return table


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


def freudenthal_character(rs: RootSystem, mu: Vec) -> FormalCharacter:
    """Full weight system of L^mu with exact multiplicities: the orbits of the
    rows of its dominant table, in table order and each sorted by weight."""
    top, offset = _split_dominant(rs, mu)
    fw, off, den = _weight_codes(rs, offset)
    # sorted by weight: codes are -(coordinates x den)
    return decode({code: m for nu, _, m in _dominant_table(rs, top)
                   for code, _ in sorted(rs.label_orbit(nu, fw, off), reverse=True)}, den)


def character_via_weyl(rs: RootSystem, mu: Vec) -> FormalCharacter:
    """ch L^mu as the exact quotient singular element / Weyl denominator."""
    codes, den = _singular_codes(rs, mu)
    factors = [encode(vneg(a), den) for a in reversed(rs.positive_roots)]
    return decode(_divide_by_roots(codes, factors, rho_pairing(rs)), den)


def label_dimension(rs: RootSystem, labels: tuple) -> int:
    """Weyl dimension of L(labels), int labels: the product over positive
    roots sum_i k_i alpha_i of sum_i k_i (l_i + 1) |alpha_i|^2 over
    sum_i k_i |alpha_i|^2, in ints.  Cached per labels."""
    if (dim := rs._dimension_cache.get(labels)) is not None:
        return dim
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
    rs._dimension_cache[labels] = val
    return val


def weyl_dimension(rs: RootSystem, mu: Vec) -> int:
    return label_dimension(rs, _split_dominant(rs, mu)[0])


# ---------------------------------------------------------------------------
# decomposition into irreducible modules


def _show(v: Vec) -> str:
    return "(" + ", ".join(map(str, v)) + ")"


def _weight(code, den: int) -> Vec:
    return tuple(Fraction(x, -den) for x in code)


def peel_dominant(ambient: RootSystem, sub: RootSystem, images,
                  fc: FormalCharacter) -> dict[Vec, int]:
    """Write fc as a nonnegative sum of irreducible characters of `sub`, a
    regular subalgebra of `ambient` whose simple roots sit at `images` in
    ambient coordinates (the ambient simple roots for the algebra itself).

    Works on codes and integer labels.  One pass over the support checks
    that fc is W_sub-invariant: every weight has the multiplicity of its
    dominant representative (integer reflections), and every dominant weight
    has its whole orbit in the support.  Then only the dominant weights are
    peeled, highest first in the (rho-pairing, lex) order of the ambient,
    each module subtracting its cached dominant multiplicities; the weights
    this introduces sit below the current one and are peeled in turn.
    Raises ValueError if fc is not a module character.
    """
    den = common_denominator(itertools.chain(fc.terms, images))
    cartan = sub.label_data.cartan
    img = [encode(a, den) for a in images]
    img_cols = list(zip(*img))
    # labels l_i = 2 (v, a_i) / (a_i, a_i) = sum_k rows[i][k] code_k / scale
    rows, rows_den = ambient.label_rows(tuple(images))
    scale = -rows_den * den

    mult: dict = {}      # code -> multiplicity
    weights: dict = {}   # code -> weight
    for v, m in fc.terms.items():
        c = encode(v, den)
        mult[c] = m
        weights[c] = v
    labels: dict = {}    # code of a dominant weight -> its labels
    count: dict = {}     # code of a dominant weight -> its orbit points in fc
    for c, m in mult.items():
        lab = []
        for row in rows:
            x, r = divmod(sum(map(mul, row, c)), scale)
            if r:
                raise ValueError(f"weight {_show(weights[c])} is not integral for "
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
            raise ValueError(f"weight {_show(weights[c])} has multiplicity {m} but its "
                             f"dominant representative {_show(_weight(rep, den))} has "
                             f"{mult.get(rep, 0)}: not a module character")
        labels[rep] = tuple(lab)
        count[rep] = count.get(rep, 0) + 1
    for rep, lab in labels.items():
        size = sub.orbit_size(lab)
        if count[rep] != size:
            raise ValueError(f"dominant weight {_show(weights[rep])} has multiplicity "
                             f"{mult[rep]} but only {count[rep]} of the {size} weights "
                             "of its orbit: not a module character")

    key = _order_key(rho_pairing(ambient))
    rem = {rep: mult[rep] for rep in labels}
    heap = list(map(key, rem))
    heapq.heapify(heap)
    table: dict[Vec, int] = {}
    while heap:
        _, c = heapq.heappop(heap)
        m = rem.pop(c, 0)
        if not m:
            continue
        v = weights[c] if c in weights else _weight(c, den)
        if m < 0:
            raise ValueError(f"negative leading coefficient {m} at {_show(v)}")
        table[v] = m
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


def decompose_character(rs: RootSystem, fc: FormalCharacter) -> dict[Vec, int]:
    """Write a character as a nonnegative sum of irreducibles of rs."""
    return peel_dominant(rs, rs, rs.simple_roots, fc)
