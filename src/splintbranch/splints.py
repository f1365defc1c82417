"""Root system embeddings, splints, injection fans and splint branching.

A splint presents the ambient root set as a disjoint union of the images of
two embeddings: a closed root subsystem (the regular subalgebra a module is
branched to) and a stem, whose module weight multiplicities give branching
coefficients through the tilde-weight rule.  The catalog is re-verified on
load; the tilde rule is validated against brute-force subtraction.  Every
check here, and each identity verifier of `qseries`, returns a `Report`.  The
injection fan is the stem's Weyl denominator in ambient coordinates, the
grade-0 layer of `characters.denominator_layers` over the stem images.

Branching runs on integer Dynkin labels: the stem weight w maps to
nu = mu - phi2(mu~ - w), so labels(nu) = labels(mu) - (labels(mu~) -
labels(w)) M, row j of M the ambient labels of phi2 on the stem fundamental
weight j (`Splint.tilde_map`).  Stem orbits come from `label_orbit`; the
integer table is kept on the splint by the labels of mu, and each call
decodes its own copy with the W-fixed offset of mu.
"""

from __future__ import annotations

import itertools
import json
import math
import os
from fractions import Fraction
from operator import mul
from typing import NamedTuple

from .rootsystem import (RootSystem, Vec, build_root_system, parse_algebra_name, vadd,
                         vcombine, vneg, zero_vec)
from .characters import (FormalCharacter, _dominant_table, _show, _split_dominant,
                         denominator_layers, freudenthal_character, label_dimension,
                         peel_dominant, weyl_dimension)


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


def check_embedding(e: Embedding) -> Report:
    """Verify the map is total on positive roots, bijective onto the image,
    negation-equivariant and additive (on the roots it maps)."""
    problems = _missing_roots(e)
    images = list(e.pos_map.values())
    for img in images:
        if not e.target.is_root(img):
            problems.append(f"image {_show(img)} is not a root of {e.target.name}")
    if len(set(images)) != len(images):
        problems.append("positive-root images are not distinct")
    if set(images) & {vneg(v) for v in images}:
        problems.append("an image coincides with the negative of another image")
    src_roots = {r for r in e.source.roots if r in e.pos_map or vneg(r) in e.pos_map}
    for x, y in itertools.product(src_roots, repeat=2):
        s = vadd(x, y)
        if s in src_roots:
            if vadd(e.image(x), e.image(y)) != e.image(s):
                problems.append(f"additivity broken: phi{_show(x)} + phi{_show(y)} != "
                                f"phi{_show(s)}")
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
        self._tilde_probe = None
        self._tilde_map = None
        self._tables = {}

    @property
    def subalgebra_roots(self):
        return frozenset(self.phi1.image_roots())

    @property
    def stem_roots(self):
        return frozenset(self.phi2.image_roots())

    def subalgebra_view(self) -> "SubalgebraView":
        if self._view is None:
            self._view = SubalgebraView(self.ambient, self.phi1)
        return self._view

    def tilde_map(self):
        """(cols, den), ints: cols[k][j] / den is ambient label k of phi2
        extended linearly to the stem fundamental weight j.  Built on first use."""
        if self._tilde_map is None:
            m = [self.ambient.dynkin_labels(self.phi2.map_weight(w))
                 for w in self.phi2.source.fundamental_weights]
            den = math.lcm(*(x.denominator for row in m for x in row))
            self._tilde_map = (list(zip(*([int(x * den) for x in row] for row in m))), den)
        return self._tilde_map

    def branching_status(self, max_label: int | None = None) -> Report:
        """Empirical tilde-weight validation; cached.  Splints that fail are
        kept in the catalog but flagged not applicable for branching."""
        if max_label is not None:
            return probe_tilde_branching(self, max_label)
        if self._tilde_probe is None:
            default = 2 if self.ambient.rank <= 2 else 1
            self._tilde_probe = probe_tilde_branching(self, default)
        return self._tilde_probe


def check_splint(s: Splint) -> Report:
    """Disjoint-union, rank, nonempty-stem, subsystem-closure and
    index-correspondence conditions."""
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
    im1, im2 = s.phi1.image_roots(), s.phi2.image_roots()
    if im1 & im2:
        problems.append(f"images intersect: [{', '.join(map(_show, sorted(im1 & im2)[:3]))}]")
    if im1 | im2 != set(s.ambient.roots):
        missing = set(s.ambient.roots) - (im1 | im2)
        problems.append(f"union misses roots [{', '.join(map(_show, sorted(missing)[:3]))}]")
    for x, y in itertools.combinations(im1, 2):
        t = vadd(x, y)
        if s.ambient.is_root(t) and t not in im1:
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
    pos_map = {}
    for pair in pairs:
        _field(isinstance(pair, list) and len(pair) == 2 and _exact_list(pair[0], src.rank, int)
               and _exact_list(pair[1], ambient.dim, (int, str)),
               f"{part} map entry must be [{src.rank} simple coefficients, "
               f"{ambient.dim} coordinates]", pair)
        coeffs, img = pair
        root = vcombine(zero_vec(src.dim), coeffs, src.simple_roots)
        if not src.is_root(root):
            raise ValueError(f"{part} map: {coeffs} is not a root of {src.name}")
        pos_map[root] = tuple(Fraction(x) for x in img)
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


class Fan(NamedTuple):
    """Signed coefficients s(gamma) with
    prod_{beta in stem+} (1 - e^{-phi(beta)}) = - sum_gamma s(gamma) e^{-gamma}."""
    splint_name: str
    coefficients: dict


def fan_coefficients(s: Splint) -> Fan:
    rep = check_splint(s)
    if not rep:
        raise ValueError("not a splint: " + "; ".join(rep.problems))
    images = [s.phi2.pos_map[b] for b in s.phi2.source.positive_roots]
    prod = denominator_layers(images, 0, 0)[0]
    return Fan(s.name, {vneg(v): -c for v, c in prod.items()})


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


def _tilde_labels(s: Splint, mu: Vec):
    """(labels of mu, its W-fixed offset, labels of mu~)."""
    stem = s.phi2.source
    if stem.rank != s.ambient.rank:
        raise ValueError(f"stem rank {stem.rank} != ambient rank {s.ambient.rank}; "
                         "tilde weight undefined")
    if problems := _correspondence_problems(s):
        raise ValueError(problems[0])
    labels, offset = _split_dominant(s.ambient, mu)
    stem_labels = [0] * stem.rank
    for k, m in enumerate(labels):
        stem_labels[s.correspondence[k]] = m
    return labels, offset, tuple(stem_labels)


def tilde_weight(s: Splint, mu: Vec) -> Vec:
    """Stem weight carrying the Dynkin labels of mu under the stored
    index correspondence.  Requires rank(stem) == rank(ambient)."""
    return s.phi2.source.weight_from_labels(_tilde_labels(s, mu)[2])


def _branch_codes(s: Splint, mu: Vec):
    """(table, offset): the tilde-rule table of mu as {den * labels(nu): m}, den
    of `Splint.tilde_map`, kept on s by the labels of mu, and mu's W-fixed offset.

    Every weight w of the stem module mu~ contributes its multiplicity at
    nu = mu - phi2(mu~ - w): dominant w in Freudenthal table order, each
    orbit sorted by stem coordinates.
    """
    labels, offset, top = _tilde_labels(s, mu)
    if labels not in s._tables:
        stem = s.phi2.source
        cols, den = s.tilde_map()
        # w codes as (its stem coordinates, den * labels(nu)), where
        # den * labels(nu)_k = base_k + labels(w) . cols[k]
        fw = [w + row for w, row in zip(stem.label_data.fw, zip(*cols))]
        base = tuple(den * m - sum(map(mul, top, col)) for m, col in zip(labels, cols))
        table: dict = {}
        for nu_t, _, m in _dominant_table(stem, top):
            for code, _ in sorted(stem.label_orbit(nu_t, fw, (0,) * stem.dim + base)):
                nu = code[stem.dim:]
                if nu in table:
                    raise AssertionError("stem weights collide in ambient space")
                table[nu] = m
        if any(x % den for nu in table for x in nu):
            raise AssertionError("tilde map gives a non-integral weight")
        s._tables[labels] = table
    return s._tables[labels], offset


def branch_via_splint(s: Splint, mu: Vec):
    """Branching table from stem weight multiplicities (tilde-weight rule)."""
    table, offset = _branch_codes(s, mu)
    return dict(s.ambient.from_labels(table.items(), s.tilde_map()[1], offset))


class SubalgebraView:
    """Regular subalgebra of the ambient algebra sharing its Cartan subalgebra.

    Weights restrict identically; subalgebra modules are labeled by ambient
    vectors that are dominant for the subsystem's positive roots.
    """

    def __init__(self, ambient: RootSystem, emb: Embedding):
        self.ambient = ambient
        self.sub = emb.source
        self.emb = emb
        self._label_rows = ambient.label_rows(emb.simple_images)

    def labels(self, nu: Vec) -> tuple:
        """Integer Dynkin labels of nu for the subalgebra's simple roots;
        raises ValueError if nu is not integral for them."""
        nums, den = self.ambient._apply_rows(nu, self._label_rows)
        if any(n % den for n in nums):
            raise ValueError(f"{nu} is not integral for {self.sub.name}")
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
    validated against.
    """
    if not isinstance(view, SubalgebraView) or view.ambient.factors != rs.factors:
        raise ValueError(f"branch_direct takes a SubalgebraView of {rs.name}")
    return view.decompose(freudenthal_character(rs, mu))


def probe_tilde_branching(s: Splint, max_label: int) -> Report:
    """Compare tilde-weight branching against the subtraction oracle for all
    dominant weights with Dynkin labels <= max_label; the report is named
    "branching" and its detail is the first two problems or the pass line."""
    problems = []
    rs = s.ambient
    view = s.subalgebra_view()
    for labels in itertools.product(range(max_label + 1), repeat=rs.rank):
        mu = rs.weight_from_labels(labels)
        try:
            shortcut = branch_via_splint(s, mu)
        except ValueError as exc:
            problems = [f"labels {labels}: {exc}"]
            break
        bad = [nu for nu in shortcut if not view.is_dominant(nu)]
        if bad:
            problems.append(f"labels {labels}: non-dominant output "
                            f"[{', '.join(map(_show, bad[:2]))}]")
            continue
        direct = branch_direct(rs, view, mu)
        if shortcut != direct:
            nu = next(nu for nu in itertools.chain(direct, shortcut)
                      if direct.get(nu, 0) != shortcut.get(nu, 0))
            problems.append(f"labels {labels}: shortcut != direct oracle at {_show(nu)}: "
                            f"shortcut {shortcut.get(nu, 0)}, oracle {direct.get(nu, 0)}")
            continue
        total = sum(b * view.dimension(nu) for nu, b in direct.items())
        if total != weyl_dimension(rs, mu):
            problems.append(f"labels {labels}: dimension bookkeeping failed")
    detail = "; ".join(problems[:2]) or "tilde-weight branching equals subtraction oracle"
    return Report(not problems, problems, "branching", detail)
