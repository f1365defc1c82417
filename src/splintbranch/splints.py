"""Root system embeddings, splints, injection fans and splint branching.

A splint presents the ambient root set as a disjoint union of the images of
two embeddings: a closed root subsystem (the regular subalgebra a module is
branched to) and a stem, whose module weight multiplicities give branching
coefficients through the tilde-weight rule.  The catalog is re-verified on
load; the tilde rule is validated against brute-force subtraction.  Where
the subalgebra's simple images are ambient roots with its Cartan matrix, a
tilde table is accepted on int Dynkin labels, from the subalgebra's and the
ambient's dominant Freudenthal tables and the Weyl dimension count; a table
that fails there, and every table of another splint, is named by comparing
the two public routes, `branch_via_splint` against `branch_direct`.  The
embedding checks run on integers and decode only the weights a problem
names; they read the source roots' int simple coefficients from
`RootSystem.root_coefficients`, and a parsed map's keys are the source's
own roots.  Every check here, and each identity verifier of
`qseries`, returns a `Report`; a splint whose probe fails is refused by
every branching route with one text (`require_tilde_branching`).  The
injection fan is the stem's Weyl denominator in ambient coordinates,
`characters.root_product` of the stem images.

Branching runs on integer Dynkin labels: the stem weight w maps to
nu = mu - phi2(mu~ - w), so labels(nu) = labels(mu) - (labels(mu~) -
labels(w)) M, row j of M the ambient labels of phi2 on the stem fundamental
weight j (`Splint.tilde_map`, a cached property like the default tilde probe
`Splint.tilde_probe`), read off the labels of the stem's simple images
through the stem's inverse Cartan matrix.  Each embedding pushes its source
fundamental weights once (`Embedding.fundamental_images`), read by the
stems' theta sums in `qseries`.  Stem orbits come from `label_orbit`; the
table, the int ambient labels of each nu -> multiplicity, is kept on the
splint by the labels of mu (`_branch_codes`, which the affine route calls
with the labels its series carries, and the only reader of the tilde map's
denominator), and each call decodes its own copy with the W-fixed offset of
mu.
"""

from __future__ import annotations

import itertools
import json
import math
import os
from collections import namedtuple
from fractions import Fraction
from functools import cache, cached_property
from operator import add, mul, neg

from .rootsystem import (MAX_ORBIT, FractionCache, RootSystem, Vec, apply_label_rows,
                         build_root_system, common_denominator, parse_algebra_name, vadd,
                         vcombine, vneg, zero_vec)
from .characters import (FormalCharacter, _dominant_table, _orbit_codes, _peel_codes, _show,
                         _split_dominant, _weight, decode, encode,
                         label_dimension, peel_dominant, root_product)


class Embedding:
    """Bijection from the roots of `source` onto a subset of the roots of
    `target`, stored on positive roots and extended by negation."""

    def __init__(self, source: RootSystem, target: RootSystem, pos_map):
        self.source = source
        self.target = target
        self.pos_map: dict[Vec, Vec] = dict(pos_map)
        if problems := _missing_roots(self):
            raise ValueError(problems[0])
        self.simple_images = tuple(self.pos_map[a] for a in source.simple_roots)

    def image(self, root: Vec) -> Vec:
        if root in self.pos_map:
            return self.pos_map[root]
        return vneg(self.pos_map[vneg(root)])

    def image_roots(self):
        """All images, negative half included."""
        out = set()
        for v in self.pos_map.values():
            out.add(v)
            out.add(vneg(v))
        return out

    def map_weight(self, v: Vec) -> Vec:
        """Linear extension to the source root span (simple images as basis)."""
        return vcombine(zero_vec(self.target.dim), self.source.simple_coefficients(v),
                        self.simple_images)

    @cached_property
    def fundamental_images(self) -> tuple[Vec, ...]:
        """map_weight of each source fundamental weight, in order: pushed once
        per embedding, for the stems' theta sums."""
        return tuple(map(self.map_weight, self.source.fundamental_weights))


def _missing_roots(e: Embedding) -> list:
    """[the problem naming the source positive roots that e does not map], or []."""
    missing = sorted(set(e.source.positive_roots) - set(e.pos_map))
    shown = ", ".join(map(_show, missing))
    return [f"embedding map misses source positive roots [{shown}]"] if missing else []


class Report:
    """The verdict of a checked relation: the problems found, and for the
    named identities a one-line detail, the exponent of the lowest series
    mismatch and the q-power that normalized the two sides."""

    def __init__(self, passed, problems=None, name="", detail="", first_mismatch=None,
                 normalization=None):
        self.passed = passed
        self.problems = [] if problems is None else problems
        self.name = name
        self.detail = detail
        self.first_mismatch = first_mismatch
        self.normalization = normalization

    def __bool__(self):
        return self.passed


@cache
def _coded_roots(rs: RootSystem, den: int) -> frozenset:
    """The codes (characters.encode) of the roots of rs over den, a multiple
    of their denominators; cached per (root system, den)."""
    return frozenset(encode(r, den) for r in rs.roots)


def check_embedding(e: Embedding) -> Report:
    """Verify the map is total on positive roots, bijective onto the image,
    negation-equivariant and additive (on the roots it maps), on the image
    codes over one denominator and the int simple coefficients of the source
    roots."""
    problems = _missing_roots(e)
    images = list(e.pos_map.values())
    den = common_denominator(itertools.chain(images, e.target.simple_roots))
    codes = [encode(v, den) for v in images]
    roots = _coded_roots(e.target, den)
    for img, c in zip(images, codes):
        if c not in roots:
            problems.append(f"image {_show(img)} is not a root of {e.target.name}")
    if len(set(codes)) != len(codes):
        problems.append("positive-root images are not distinct")
    if set(codes) & {tuple(map(neg, c)) for c in codes}:
        problems.append("an image coincides with the negative of another image")
    coeffs = e.source.root_coefficients
    # the image code of each mapped source root by its simple coefficients,
    # extended by negation where the map does not name the root
    image_of = {coeffs[r]: c for r, c in zip(e.pos_map, codes) if r in coeffs}
    for k, c in list(image_of.items()):
        image_of.setdefault(tuple(map(neg, k)), tuple(map(neg, c)))
    src_roots = {r for r in e.source.roots if coeffs[r] in image_of}
    # per source root, in set order: (root, int simple coefficients, image code)
    coded = [(r, coeffs[r], image_of[coeffs[r]]) for r in src_roots]
    for (x, kx, cx), (y, ky, cy) in itertools.product(coded, repeat=2):
        c = image_of.get(tuple(map(add, kx, ky)))
        if c is not None and tuple(map(add, cx, cy)) != c:
            problems.append(f"additivity broken: phi{_show(x)} + phi{_show(y)} != "
                            f"phi{_show(vadd(x, y))}")
    return Report(not problems, problems)


class Splint:
    """Splint of the ambient root system: Delta = Im(phi1) u Im(phi2)."""

    def __init__(self, name, ambient, phi1, phi2, correspondence):
        self.name = name
        self.ambient = ambient
        self.phi1 = phi1                        # subalgebra stem (image must be closed)
        self.phi2 = phi2                        # complementary stem
        self.correspondence = correspondence    # ambient fundamental index -> stem index
        self._view = None
        self._tables = {}

    def subalgebra_view(self) -> "SubalgebraView":
        if self._view is None:
            self._view = SubalgebraView(self.ambient, self.phi1)
        return self._view

    @cached_property
    def tilde_map(self):
        """(cols, den), ints: cols[k][j] / den is ambient label k of phi2
        extended linearly to the stem fundamental weight j, read off the
        labels of the stem's simple images through its inverse Cartan
        matrix.  Built on first read."""
        images = [self.ambient.dynkin_labels(a) for a in self.phi2.simple_images]
        m = [[sum(c * lab[k] for c, lab in zip(row, images)) for k in range(self.ambient.rank)]
             for row in self.phi2.source._cartan_inv]
        den = math.lcm(*(x.denominator for row in m for x in row))
        return list(zip(*([int(x * den) for x in row] for row in m))), den

    @cached_property
    def tilde_probe(self) -> Report:
        """probe_tilde_branching at the default bound, labels <= 2 at rank <= 2
        and <= 1 above; run on first read."""
        return probe_tilde_branching(self, 2 if self.ambient.rank <= 2 else 1)

    def branching_status(self, max_label: int | None = None) -> Report:
        """Empirical tilde-weight validation: tilde_probe, or a new probe up to
        max_label.  Failing splints stay in the catalog, flagged unfit for branching."""
        return self.tilde_probe if max_label is None else probe_tilde_branching(self, max_label)


def require_tilde_branching(s: Splint) -> None:
    """Refuse a splint flagged unfit for branching: a ValueError naming the
    first problem of its default probe, the one text of every branching route."""
    status = s.branching_status()
    if not status:
        raise ValueError(f"splint {s.name} is flagged: tilde-weight branching not "
                         f"applicable ({status.problems[0]})")


def check_splint(s: Splint) -> Report:
    """Disjoint-union, rank, nonempty-stem, subsystem-closure and
    index-correspondence conditions, on the image codes over one
    denominator."""
    problems = []
    for label, emb in (("subalgebra", s.phi1), ("stem", s.phi2)):
        if emb.target is not s.ambient:
            problems.append(f"{label} embedding targets a different root system")
        rep = check_embedding(emb)
        problems.extend(f"{label}: {p}" for p in rep.problems)
        if not emb.pos_map:
            problems.append(f"{label} stem is empty")
        if emb.source.rank > s.ambient.rank:
            problems.append(f"{label} rank exceeds ambient rank")
    # the closure pairs run in the order of the image set, as the problem names the first
    im1 = list(s.phi1.image_roots())
    im2 = [v for img in s.phi2.pos_map.values() for v in (img, vneg(img))]
    den = common_denominator(itertools.chain(im1, im2, s.ambient.simple_roots))
    code1 = [encode(v, den) for v in im1]
    c1, c2, roots = set(code1), {encode(v, den) for v in im2}, _coded_roots(s.ambient, den)

    def first_three(codes):
        # codes are -(coordinates x den): the highest code is the lowest weight
        return ", ".join(_show(_weight(c, den)) for c in sorted(codes, reverse=True)[:3])

    if c1 & c2:
        problems.append(f"images intersect: [{first_three(c1 & c2)}]")
    if c1 | c2 != roots:
        problems.append(f"union misses roots [{first_three(roots - (c1 | c2))}]")
    for (x, a), (y, b) in itertools.combinations(zip(im1, code1), 2):
        t = tuple(map(add, a, b))
        if t in roots and t not in c1:
            problems.append(f"subalgebra image not closed: {_show(x)} + {_show(y)}")
            break
    problems += _correspondence_problems(s)
    return Report(not problems, problems)


# ---------------------------------------------------------------------------
# catalog


def _field(ok: bool, what: str, value):
    """value, or a ValueError naming the malformed field and its value."""
    if not ok:
        raise ValueError(f"{what}, not {json.dumps(value)}")
    return value


def _algebra(entry: dict, key: str, what: str) -> RootSystem:
    name = entry.get(key)
    return build_root_system(_field(isinstance(name, str), f"{what} must be an algebra name",
                                    name))


def _exact_list(xs, n: int, kinds) -> bool:
    """xs is a list of n values of `kinds`, bools excluded."""
    return (isinstance(xs, list) and len(xs) == n
            and all(isinstance(x, kinds) and not isinstance(x, bool) for x in xs))


def _parse_embedding(entry, ambient: RootSystem, part: str) -> Embedding:
    _field(isinstance(entry, dict), f"{part} must be a JSON object", entry)
    src = _algebra(entry, "source", f"{part} source")
    pairs = entry.get("map")
    _field(isinstance(pairs, list), f"{part} map must be a list of [coefficients, image] "
           "entries", pairs)
    # keys are the source's own roots and image coordinates hash once
    # (Fraction(x, 1) is x), so the checks look them up without rehashing
    roots = {k: r for r, k in src.root_coefficients.items()}
    coord = FractionCache(1).__getitem__
    pos_map = {}
    for pair in pairs:
        _field(isinstance(pair, list) and len(pair) == 2 and _exact_list(pair[0], src.rank, int)
               and _exact_list(pair[1], ambient.dim, (int, str)),
               f"{part} map entry must be [{src.rank} simple coefficients, "
               f"{ambient.dim} coordinates]", pair)
        coeffs, img = pair
        root = roots.get(tuple(coeffs))
        if root is None:
            raise ValueError(f"{part} map: {coeffs} is not a root of {src.name}")
        pos_map[root] = tuple(coord(Fraction(x)) for x in img)
    return Embedding(src, ambient, pos_map)


def splint_from_dict(entry, verify: bool = True) -> Splint:
    """The splint of a catalog or file entry; a malformed entry raises
    ValueError naming the field, so that no shape error reaches the math."""
    if not isinstance(entry, dict):
        raise ValueError("the top level of a splint file must be a JSON object")
    _field(isinstance(entry.get("name"), str), "name must be a string", entry.get("name"))
    _field(isinstance(entry.get("correspondence", []), list),
           "correspondence must be a list of stem indices", entry.get("correspondence"))
    ambient = _algebra(entry, "ambient", "ambient")
    s = Splint(
        name=entry["name"],
        ambient=ambient,
        phi1=_parse_embedding(entry.get("subalgebra"), ambient, "subalgebra"),
        phi2=_parse_embedding(entry.get("stem"), ambient, "stem"),
        correspondence=tuple(entry["correspondence"]),
    )
    if verify:
        rep = check_splint(s)
        if not rep:
            raise ValueError(f"splint {entry['name']} fails verification: "
                             + "; ".join(rep.problems))
    return s


def load_splint_file(path) -> Splint:
    """Load a user-supplied splint file without verification, so that broken
    data can still be run through the identity checkers."""
    with open(path) as fh:
        return splint_from_dict(json.load(fh), verify=False)


def _catalog_entries():
    with open(os.path.join(os.path.dirname(__file__), "data/splint_catalog.json"), "rb") as fh:
        return json.load(fh)["splints"]


def splint_catalog(rs: RootSystem) -> list[Splint]:
    """Catalog splints whose ambient system matches rs, verified on load.

    Unsupported algebras yield an empty list; in particular any rank-1 system
    has no proper splint with nonempty stems.
    """
    return [splint_from_dict(entry) for entry in _catalog_entries()
            if tuple(parse_algebra_name(entry["ambient"])) == rs.factors]


def find_splint(name: str) -> Splint:
    """Resolve a catalog splint by full name like 'G2:A2A2'."""
    for entry in _catalog_entries():
        if entry["name"] == name:
            return splint_from_dict(entry)
    known = ", ".join(e["name"] for e in _catalog_entries())
    raise KeyError(f"unknown splint {name!r}; catalog has: {known}")


# ---------------------------------------------------------------------------
# injection fan


class Fan(namedtuple("Fan", "splint_name coefficients")):
    """Signed coefficients s(gamma) with
    prod_{beta in stem+} (1 - e^{-phi(beta)}) = - sum_gamma s(gamma) e^{-gamma},
    as a {gamma: s(gamma)} dict, of the splint named splint_name."""
    __slots__ = ()


def fan_coefficients(s: Splint) -> Fan:
    rep = check_splint(s)
    if not rep:
        raise ValueError("not a splint: " + "; ".join(rep.problems))
    images = [s.phi2.pos_map[b] for b in s.phi2.source.positive_roots]
    return Fan(s.name, {vneg(v): -c for v, c in root_product(images).items()})


# ---------------------------------------------------------------------------
# branching


def _correspondence_problems(s: Splint) -> list:
    """[the problem], or [] if the correspondence permutes the stem indices."""
    rank = s.phi2.source.rank
    # compared by repr: 1.0 or True from a file is no stem index
    if sorted(map(repr, s.correspondence)) == sorted(map(repr, range(rank))):
        return []
    return [f"correspondence {list(s.correspondence)} is not a permutation "
            f"of the {rank} stem fundamental weights"]


def _tilde_labels(s: Splint, labels: tuple) -> tuple:
    """Labels of mu~ for the int labels of mu."""
    stem = s.phi2.source
    if stem.rank != s.ambient.rank:
        raise ValueError(f"stem rank {stem.rank} != ambient rank {s.ambient.rank}; "
                         "tilde weight undefined")
    if problems := _correspondence_problems(s):
        raise ValueError(problems[0])
    stem_labels = [0] * stem.rank
    for k, m in enumerate(labels):
        stem_labels[s.correspondence[k]] = m
    return tuple(stem_labels)


def tilde_weight(s: Splint, mu: Vec) -> Vec:
    """Stem weight carrying the Dynkin labels of mu under the stored
    index correspondence.  Requires rank(stem) == rank(ambient)."""
    return s.phi2.source.weight_from_labels(_tilde_labels(s, _split_dominant(s.ambient, mu)[0]))


def _branch_codes(s: Splint, labels: tuple) -> dict:
    """The tilde-rule table of the module with int ambient labels `labels`,
    as {labels(nu): m}, int ambient labels; kept on s by labels.

    Every weight w of the stem module mu~ contributes its multiplicity at
    nu = mu - phi2(mu~ - w): dominant w in Freudenthal table order, each
    orbit sorted by stem coordinates.  The walk runs on den * labels(nu),
    den of `Splint.tilde_map`, the one place that reads it.
    """
    if labels not in s._tables:
        top = _tilde_labels(s, labels)
        stem = s.phi2.source
        cols, den = s.tilde_map
        # w codes as (its stem code, den * labels(nu)), where
        # den * labels(nu)_k = base_k + labels(w) . cols[k]
        fw = [w + row for w, row in zip(stem._label_codes(1, None)[0], zip(*cols))]
        base = tuple(den * m - sum(map(mul, top, col)) for m, col in zip(labels, cols))
        table: dict = {}
        for nu_t, _, m in _dominant_table(stem, top):
            for code, _ in sorted(stem.label_orbit(nu_t, fw, (0,) * stem.dim + base), reverse=True):
                nu = code[stem.dim:]
                if nu in table:
                    raise ValueError("stem weights collide in ambient space")
                table[nu] = m
        if any(x % den for nu in table for x in nu):
            raise ValueError("tilde map gives a non-integral weight")
        s._tables[labels] = {tuple(x // den for x in nu): m for nu, m in table.items()}
    return s._tables[labels]


def branch_via_splint(s: Splint, mu: Vec):
    """Branching table from stem weight multiplicities (tilde-weight rule)."""
    labels, offset = _split_dominant(s.ambient, mu)
    return dict(s.ambient.from_labels(_branch_codes(s, labels).items(), 1, offset))


class SubalgebraView:
    """Regular subalgebra of the ambient algebra sharing its Cartan subalgebra.

    Weights restrict identically; subalgebra modules are labeled by ambient
    vectors that are dominant for the subsystem's positive roots.
    """

    def __init__(self, ambient: RootSystem, emb: Embedding):
        self.ambient = ambient
        self.sub = emb.source
        self.emb = emb

    @cached_property
    def label_rows(self):
        """RootSystem.label_rows of the subalgebra's simple images, read once
        per view."""
        return self.ambient.label_rows(tuple(self.emb.simple_images))

    def labels(self, nu: Vec) -> tuple:
        """Integer Dynkin labels of nu for the subalgebra's simple roots;
        raises ValueError if nu is not integral for them."""
        nums, den = apply_label_rows(nu, *self.label_rows)
        if any(n % den for n in nums):
            raise ValueError(f"{_show(nu)} is not integral for {self.sub.name}")
        return tuple(n // den for n in nums)

    def is_dominant(self, nu: Vec) -> bool:
        return all(m >= 0 for m in self.labels(nu))

    def dimension(self, nu: Vec) -> int:
        return label_dimension(self.sub, self.labels(nu))

    def decompose(self, fc: FormalCharacter) -> dict[Vec, int]:
        """Write a character as a nonnegative sum of subalgebra modules."""
        return peel_dominant(self.ambient, self.sub, self.emb.simple_images, fc)


def branch_direct(rs: RootSystem, view: SubalgebraView, mu: Vec) -> dict[Vec, int]:
    """Brute-force branching of L^mu to the regular subalgebra of a
    SubalgebraView of rs (a splint's `subalgebra_view()`); any other argument
    raises ValueError.  This is the oracle the tilde-weight shortcut is
    validated against: the weights of L^mu peeled on codes, decoded once.
    """
    if not isinstance(view, SubalgebraView) or view.ambient.factors != rs.factors:
        raise ValueError(f"branch_direct takes a SubalgebraView of {rs.name}")
    top, offset = _split_dominant(rs, mu)
    images = view.emb.simple_images
    fw, off, den = rs._label_codes(1, offset, common_denominator(images))
    table = _peel_codes(rs, view.sub, images, _orbit_codes(rs, top, fw, off), den)
    return decode({c: m for c, (m, _) in table.items()}, den).terms


def _root_images(view: SubalgebraView):
    """(image labels, coroot rows), ints, of the subalgebra's simple images:
    the ambient labels of image i and the simple coroot coefficients of its
    coroot, so that subalgebra label i of ambient labels x is rows[i] . x.
    None unless every image is an ambient root and the images carry the
    subalgebra's Cartan matrix; None too for a Weyl group of more than
    MAX_ORBIT elements, where the orbit walk may refuse an orbit and that
    refusal is a problem of the probe's report."""
    rs, ld = view.ambient, view.ambient.label_data
    if rs.weyl_order > MAX_ORBIT:
        return None
    img_labels, rows = [], []
    for a in view.emb.simple_images:
        k = rs.root_coefficients.get(a)
        if k is None:
            return None
        lab = tuple(sum(map(mul, k, col)) for col in zip(*ld.cartan))
        # the coroot of a root a is sum_j k_j |alpha_j|^2 / |a|^2 alpha_j^vee
        rows.append(tuple(c * ld.pair(r, r) // ld.pair(lab, lab) for c, r in zip(k, ld.cartan)))
        img_labels.append(lab)
    cartan = tuple(tuple(sum(map(mul, lab, row)) for row in rows) for lab in img_labels)
    return (img_labels, rows) if cartan == view.sub.label_data.cartan else None


def _tilde_table_holds(view: SubalgebraView, labels: tuple, table: dict, root_images) -> bool:
    """Whether the tilde table {x: b} of L(labels) is its branching to the
    subalgebra of view, decided on int labels (`_root_images` of view):
    sum b L_a(x) over the subalgebra-dominant weights of each L_a(x), from
    their dominant tables, and accept iff its dimension is dim L(labels) and
    each weight has the multiplicity of its ambient-dominant representative
    in L(labels).  Both sides are W_a-invariant and agree on the sum's
    support with equal totals, so they are equal."""
    rs, sub = view.ambient, view.sub
    img_labels, rows = root_images
    img_cols = list(zip(*img_labels))
    acc: dict = {}
    dim = 0
    for x, b in table.items():
        lab = tuple([sum(map(mul, row, x)) for row in rows])
        if min(lab) < 0:
            return False
        dim += b * label_dimension(sub, lab)
        for _, coeffs, k in _dominant_table(sub, lab):
            y = tuple([a - sum(map(mul, coeffs, col)) for a, col in zip(x, img_cols)])
            acc[y] = acc.get(y, 0) + b * k
    if dim != label_dimension(rs, labels):
        return False
    mult = {nu: m for nu, _, m in _dominant_table(rs, labels)}
    return all(mult.get(rs.dominant_labels(y)[0], 0) == m for y, m in acc.items())


def probe_tilde_branching(s: Splint, max_label: int) -> Report:
    """Compare tilde-weight branching against the subtraction oracle for all
    dominant weights with Dynkin labels <= max_label; the report is named
    "branching" and its detail is the first two problems or the pass line.
    A fault in the splint's data (a ValueError of the table, the subalgebra
    labels or the peel) is the last problem; only a negative max_label
    raises.  Where the subalgebra's simple images are ambient roots with its
    Cartan matrix, a table is first decided on int labels
    (`_tilde_table_holds`); a table that fails there, and every table of any
    other splint, is named by `branch_via_splint` against `branch_direct` on
    the weight with those labels: a non-dominant output, the first weight
    where they differ, or a failed dimension count."""
    if max_label < 0:
        raise ValueError("max_label must be >= 0")
    problems = []
    rs = s.ambient
    view = s.subalgebra_view()
    root_images = _root_images(view)
    for labels in itertools.product(range(max_label + 1), repeat=rs.rank):
        try:
            table = _branch_codes(s, labels)
            if root_images and _tilde_table_holds(view, labels, table, root_images):
                continue
            mu = rs.weight_from_labels(labels)
            shortcut = branch_via_splint(s, mu)
            bad = [nu for nu in shortcut if not view.is_dominant(nu)]
            if bad:
                problems.append(f"labels {labels}: non-dominant output "
                                f"[{', '.join(map(_show, bad[:2]))}]")
                continue
            direct = branch_direct(rs, view, mu)
        except ValueError as exc:
            problems.append(f"labels {labels}: {exc}")
            break
        if shortcut != direct:
            nu = next(nu for nu in itertools.chain(direct, shortcut)
                      if direct.get(nu, 0) != shortcut.get(nu, 0))
            problems.append(f"labels {labels}: shortcut != direct oracle at {_show(nu)}: "
                            f"shortcut {shortcut.get(nu, 0)}, oracle {direct.get(nu, 0)}")
            continue
        if sum(b * view.dimension(nu) for nu, b in direct.items()) != label_dimension(rs, labels):
            problems.append(f"labels {labels}: dimension bookkeeping failed")
    detail = "; ".join(problems[:2]) or "tilde-weight branching equals subtraction oracle"
    return Report(not problems, problems, "branching", detail)
