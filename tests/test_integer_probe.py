"""The splint verifications run on integer codes.

`probe_tilde_branching` accepts a tilde table (`_branch_codes`) on int
labels and names a failing one by `branch_via_splint` against
`branch_direct`, the ambient character peeled on codes
(`characters._peel_codes`); `check_embedding` and `check_splint` check the
images on their codes over one denominator, and decode only the weights a
problem names.  The `Fraction` routes they replaced are kept here as
oracles, and every report (passed, problems, their order and text, detail)
must equal theirs: on the catalog, on the reversed correspondences, on
drawn tampers (a permuted correspondence, a stem image swapped with a
subalgebra image, a dropped map entry, a negated image, a subalgebra that
is not closed).  A fault in a splint's data ends both probes with the same
last problem and raises nothing: on the drawn tampers and on 43 broken
splint files (every image swap, a reversed correspondence, a negated stem
image, stem and subalgebra exchanged, a zero subalgebra image).  With the
`Fraction` character and peel patched to raise, every catalog
splint still passes its default probe.
"""

from __future__ import annotations

import copy
import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from splintbranch import characters as ch
from splintbranch import splints as sp
from splintbranch.characters import (FormalCharacter, _peel_codes, _show, _weight, encode,
                                     freudenthal_character, peel_dominant, weyl_dimension)
from splintbranch.rootsystem import (RootSystem, apply_label_rows, build_root_system,
                                     common_denominator, vadd, vneg)
from splintbranch.splints import (Report, Splint, SubalgebraView, _catalog_entries,
                                  _correspondence_problems, _missing_roots, branch_via_splint,
                                  check_embedding, check_splint, find_splint,
                                  probe_tilde_branching, splint_from_dict)

CATALOG = {e["name"]: e for e in _catalog_entries()}

# ---------------------------------------------------------------------------
# the Fraction routes the integer ones replaced


def fraction_probe(s, max_label):
    """The tilde probe on Fraction vectors: branch_via_splint against the
    decomposition of the decoded Freudenthal character.  Its fault policy is
    the probe's: a ValueError of the table, of the subalgebra labels of its
    weights (a zero image, a non-integral weight) or of the peel is the last
    problem."""
    problems = []
    rs = s.ambient
    view = s.subalgebra_view()
    images = view.emb.simple_images
    for labels in itertools.product(range(max_label + 1), repeat=rs.rank):
        mu = rs.weight_from_labels(labels)
        try:
            shortcut = branch_via_splint(s, mu)
            norms = [rs.inner(a, a) for a in images]
            if 0 in norms:
                raise ValueError(f"simple root image {norms.index(0)} is zero")
            bad = []
            for nu in shortcut:
                sub_labels = [2 * rs.inner(nu, a) / n for a, n in zip(images, norms)]
                if any(x.denominator != 1 for x in sub_labels):
                    raise ValueError(f"{_show(nu)} is not integral for {view.sub.name}")
                if any(x < 0 for x in sub_labels):
                    bad.append(nu)
            if bad:
                problems.append(f"labels {labels}: non-dominant output "
                                f"[{', '.join(map(_show, bad[:2]))}]")
                continue
            direct = view.decompose(freudenthal_character(rs, mu))
        except ValueError as exc:
            problems.append(f"labels {labels}: {exc}")
            break
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


def fraction_check_embedding(e):
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


def fraction_check_splint(s):
    problems = []
    for label, emb in (("subalgebra", s.phi1), ("stem", s.phi2)):
        if emb.target is not s.ambient:
            problems.append(f"{label} embedding targets a different root system")
        rep = fraction_check_embedding(emb)
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
# helpers


def verdict(report):
    return report.passed, report.problems, report.name, report.detail


def edited(name, change):
    """A deep copy of the catalog entry name, edited by change(entry)."""
    entry = copy.deepcopy(CATALOG[name])
    change(entry)
    return entry


def tampered(name, change):
    """The catalog entry name, edited by change(entry) and loaded without
    verification."""
    return splint_from_dict(edited(name, change), verify=False)


def reversed_entry(name):
    return dict(CATALOG[name], correspondence=CATALOG[name]["correspondence"][::-1])


def swapped(i, j):
    """The edit that swaps subalgebra image i with stem image j."""
    def change(e):
        sub, stem = e["subalgebra"]["map"][i], e["stem"]["map"][j]
        sub[1], stem[1] = stem[1], sub[1]
    return change


def negated_first_stem_image(e):
    e["stem"]["map"][0][1] = [-x for x in e["stem"]["map"][0][1]]


def exchanged(e):
    e["subalgebra"], e["stem"] = e["stem"], e["subalgebra"]


def subalgebra_image_0(image):
    def change(e):
        e["subalgebra"]["map"][0][1] = image
    return change


# ---------------------------------------------------------------------------
# the tilde probe


PROBE_BOUNDS = [(name, bound) for name, e in CATALOG.items()
                for bound in ((1, 2, 3) if build_root_system(e["ambient"]).rank == 2 else (1, 2))]


@pytest.mark.parametrize("name, bound", PROBE_BOUNDS)
def test_catalog_probe_equals_fraction_probe(name, bound):
    s = find_splint(name)
    got = probe_tilde_branching(s, bound)
    assert got.passed
    assert verdict(got) == verdict(fraction_probe(s, bound))


@pytest.mark.parametrize("name", sorted(CATALOG))
@pytest.mark.parametrize("bound", [1, 2])
def test_reversed_correspondence_probe_equals_fraction_probe(name, bound):
    s = splint_from_dict(reversed_entry(name))
    got = probe_tilde_branching(s, bound)
    assert not got.passed
    assert verdict(got) == verdict(fraction_probe(s, bound))


@st.composite
def probe_tampers(draw):
    """A catalog splint with its correspondence permuted, or with one stem
    image swapped with one subalgebra image."""
    name = draw(st.sampled_from(sorted(CATALOG)))
    entry = CATALOG[name]
    if draw(st.booleans()):
        order = draw(st.permutations(entry["correspondence"]))

        def change(e):
            e["correspondence"] = list(order)
    else:
        i = draw(st.integers(0, len(entry["stem"]["map"]) - 1))
        j = draw(st.integers(0, len(entry["subalgebra"]["map"]) - 1))
        change = swapped(j, i)
    return tampered(name, change)


@settings(max_examples=40, deadline=None)
@given(probe_tampers())
def test_tampered_probe_equals_fraction_probe(s):
    assert verdict(probe_tilde_branching(s, 1)) == verdict(fraction_probe(s, 1))


def splint_file_tampers():
    """{tag: entry}: per catalog splint every subalgebra/stem image swap, the
    reversed correspondence, the first stem image negated, and the stem and
    subalgebra exchanged (42 files); and G2:A2A2 with subalgebra image 0 set
    to zero."""
    out = {}
    for name, e in CATALOG.items():
        for i, j in itertools.product(range(len(e["subalgebra"]["map"])),
                                      range(len(e["stem"]["map"]))):
            out[f"{name} swap {i} {j}"] = edited(name, swapped(i, j))
        out[f"{name} reversed"] = reversed_entry(name)
        out[f"{name} negated"] = edited(name, negated_first_stem_image)
        out[f"{name} exchanged"] = edited(name, exchanged)
    out["G2:A2A2 zero"] = edited("G2:A2A2", subalgebra_image_0([0, 0, 0]))
    return out


SPLINT_FILE_TAMPERS = splint_file_tampers()


def test_splint_file_tampers_count():
    assert len(SPLINT_FILE_TAMPERS) == 43


@pytest.mark.parametrize("tag", sorted(SPLINT_FILE_TAMPERS))
def test_broken_splint_data_is_a_problem_of_the_probe(tag):
    # a fault in a splint's data leaves the probe as a problem, never as an
    # exception, and the Fraction route with the same fault policy agrees
    s = splint_from_dict(SPLINT_FILE_TAMPERS[tag], verify=False)
    got = probe_tilde_branching(s, 1)
    assert isinstance(got, Report)
    assert verdict(got) == verdict(fraction_probe(s, 1))


@pytest.mark.parametrize("s, last_problem", [
    (splint_from_dict(SPLINT_FILE_TAMPERS["A3:A2A1A1A1 swap 0 2"], verify=False),
     "labels (1, 1, 1): stem weights collide in ambient space"),
    (splint_from_dict(SPLINT_FILE_TAMPERS["G2:A2A2 zero"], verify=False),
     "labels (0, 0): simple root image 0 is zero"),
    (splint_from_dict(SPLINT_FILE_TAMPERS["B2:A1A1 exchanged"], verify=False),
     "labels (1, 0): negative leading coefficient -1 at (0, 0)"),
    (tampered("B2:A1A1", swapped(0, 0)), "labels (0, 1): weight (-1/2, -1/2) has multiplicity 1 "
     "but its dominant representative (3/2, 1/2) has 0: not a module character"),
    # twice the short root (-1, 0, 1): the subalgebra labels of a tilde
    # weight are not integral, and the weight is shown as (a, b, c)
    (tampered("G2:A2A2", subalgebra_image_0([-2, 0, 2])),
     "labels (0, 1): (0, -1, 1) is not integral for A2"),
])
def test_fault_ends_the_probe(s, last_problem):
    got = probe_tilde_branching(s, 1)
    assert not got.passed and got.problems[-1] == last_problem
    assert verdict(got) == verdict(fraction_probe(s, 1))


def test_probe_has_no_fraction_round_trip(monkeypatch):
    # the decoded character, the Fraction peel, the decoded tilde table and
    # every weight built from labels raise: the probe must not reach them
    def refuse(*args, **kwargs):
        raise AssertionError("Fraction round trip in the tilde probe")

    for module, name in ((ch, "freudenthal_character"), (ch, "peel_dominant"),
                         (ch, "decode"), (sp, "peel_dominant"), (sp, "decode"),
                         (sp, "branch_via_splint"), (SubalgebraView, "labels"),
                         (SubalgebraView, "decompose"), (RootSystem, "from_labels"),
                         (RootSystem, "weight_from_labels")):
        monkeypatch.setattr(module, name, refuse)
    for name in CATALOG:
        s = find_splint(name)
        rep = s.branching_status()
        assert rep.passed and rep.detail == "tilde-weight branching equals subtraction oracle"


# ---------------------------------------------------------------------------
# the decomposer's code-level core


SUBALGEBRAS = ["A2", "B2", "G2"] + sorted(CATALOG)


def view_of(name):
    """(ambient, subalgebra, simple images) of an algebra itself or of a
    catalog splint's subalgebra view."""
    if name in CATALOG:
        view = find_splint(name).subalgebra_view()
        return view.ambient, view.sub, view.emb.simple_images
    rs = build_root_system(name)
    return rs, rs, rs.simple_roots


@st.composite
def characters(draw):
    """(ambient, subalgebra, images, a character): a sum of ambient modules
    with labels <= 2 and coefficients in -1..3, and maybe one term moved off
    its multiplicity or one orbit point dropped (no module character)."""
    ambient, sub, images = view_of(draw(st.sampled_from(SUBALGEBRAS)))
    fc = FormalCharacter()
    for _ in range(draw(st.integers(1, 3))):
        labels = draw(st.lists(st.integers(0, 2), min_size=ambient.rank, max_size=ambient.rank))
        fc.iadd(freudenthal_character(ambient, ambient.weight_from_labels(labels)),
                draw(st.integers(-1, 3)))
    if fc.terms:
        v = draw(st.sampled_from(sorted(fc.terms)))
        edit = draw(st.sampled_from(["none", "shift", "drop"]))
        if edit == "shift":
            fc.terms[v] += draw(st.sampled_from([-1, 1, 2]))
            if not fc.terms[v]:
                del fc.terms[v]
        elif edit == "drop":
            del fc.terms[v]
    return ambient, sub, images, fc


@settings(max_examples=80, deadline=None)
@given(characters())
def test_peel_codes_equals_peel_dominant(case):
    ambient, sub, images, fc = case
    den = common_denominator(itertools.chain(fc.terms, images))
    try:
        want = list(peel_dominant(ambient, sub, images, fc).items())
    except ValueError as exc:
        with pytest.raises(ValueError) as got:
            _peel_codes(ambient, sub, images, {encode(v, den): m for v, m in fc.terms.items()},
                        den)
        assert str(got.value) == str(exc)
        return
    table = _peel_codes(ambient, sub, images, {encode(v, den): m for v, m in fc.terms.items()},
                        den)
    assert [(_weight(c, den), m) for c, (m, _) in table.items()] == want
    rows, rows_den = ambient.label_rows(tuple(images))
    for c, (_, labels) in table.items():
        nu = _weight(c, den)
        assert labels == tuple(int(sum(r * x for r, x in zip(row, nu)) / rows_den)
                               for row in rows)


def test_non_integral_weight_is_named():
    # (1/2, 0) pairs to 1/2 with the long root (1, -1) of B2:A1A1's subalgebra;
    # the core names it decoded, as the Fraction edge does
    ambient, sub, images = view_of("B2:A1A1")
    half = (Fraction(1, 2), Fraction(0))
    message = rf"weight \(1/2, 0\) is not integral for {sub.name}: not a module character"
    with pytest.raises(ValueError, match=message):
        peel_dominant(ambient, sub, images, FormalCharacter({half: 1}))
    with pytest.raises(ValueError, match=message):
        _peel_codes(ambient, sub, images, {encode(half, 2): 1}, 2)


# ---------------------------------------------------------------------------
# the splint checkers


@pytest.mark.parametrize("name", sorted(CATALOG))
def test_catalog_checks_equal_fraction_checks(name):
    s = find_splint(name)
    assert verdict(check_splint(s)) == verdict(fraction_check_splint(s))
    for emb in (s.phi1, s.phi2):
        assert verdict(check_embedding(emb)) == verdict(fraction_check_embedding(emb))


@st.composite
def check_tampers(draw):
    """A catalog splint with one map entry dropped after construction, one
    image negated, one stem image swapped with a subalgebra image, or its
    subalgebra replaced by its stem (not closed, in general)."""
    name = draw(st.sampled_from(sorted(CATALOG)))
    s = find_splint(name)
    kind = draw(st.sampled_from(["drop", "negate", "swap", "stem as subalgebra"]))
    if kind == "stem as subalgebra":
        return Splint(s.name, s.ambient, s.phi2, s.phi2, s.correspondence)
    emb = draw(st.sampled_from([s.phi1, s.phi2]))
    key = draw(st.sampled_from(sorted(emb.pos_map)))
    if kind == "drop":
        del emb.pos_map[key]
    elif kind == "negate":
        emb.pos_map[key] = vneg(emb.pos_map[key])
    else:
        other = s.phi2 if emb is s.phi1 else s.phi1
        k2 = draw(st.sampled_from(sorted(other.pos_map)))
        emb.pos_map[key], other.pos_map[k2] = other.pos_map[k2], emb.pos_map[key]
    return s


@settings(max_examples=80, deadline=None)
@given(check_tampers())
def test_tampered_checks_equal_fraction_checks(s):
    got = check_splint(s)
    assert verdict(got) == verdict(fraction_check_splint(s))
    for emb in (s.phi1, s.phi2):
        assert verdict(check_embedding(emb)) == verdict(fraction_check_embedding(emb))


def test_images_off_the_root_lattice_are_named():
    # an image with a denominator the ambient roots do not have is coded over
    # their common multiple and named as a Fraction
    s = find_splint("G2:A2A2")
    key = min(s.phi2.pos_map)
    s.phi2.pos_map[key] = tuple(x / 2 for x in s.phi2.pos_map[key])
    rep = check_splint(s)
    assert not rep.passed
    assert verdict(rep) == verdict(fraction_check_splint(s))
    assert any("is not a root of G2" in p and "/2" in p for p in rep.problems)


# plain-Fraction hashes of one warm check_splint of each catalog splint while
# the map keys and images were plain Fraction tuples (Python 3.11)
PLAIN_MAP_FRACTION_HASHES = 994


def test_check_splint_hashes_few_plain_fractions(monkeypatch):
    # the map keys are the source's own roots and the images coordinates that
    # hash once, so only the negated images of image_roots hash a Fraction
    splints = [splint_from_dict(entry, verify=False) for entry in CATALOG.values()]
    for s in splints:
        check_splint(s)         # builds the tables cached per root system
    calls = []
    plain_hash = Fraction.__hash__

    def counted(x):
        calls.append(x)
        return plain_hash(x)

    monkeypatch.setattr(Fraction, "__hash__", counted)
    hash(Fraction(1, 3))        # the counter sees a plain Fraction's hash
    assert len(calls) == 1
    calls.clear()
    reports = [check_splint(s) for s in splints]
    monkeypatch.undo()
    assert all(reports)
    assert 10 * len(calls) < PLAIN_MAP_FRACTION_HASHES


# ---------------------------------------------------------------------------
# the view's label rows


def test_non_integral_weight_is_shown_as_the_probe_shows_it():
    # the weight's coordinates print as 1/2, not as Fraction reprs
    view = find_splint("A3:A2A1A1A1").subalgebra_view()
    with pytest.raises(ValueError) as exc:
        view.labels((Fraction(1, 2), Fraction(0), Fraction(0), Fraction(-1, 2)))
    assert str(exc.value) == "(1/2, 0, 0, -1/2) is not integral for A2"


def test_view_reads_its_label_rows_once(monkeypatch):
    calls = []
    rows = RootSystem.label_rows

    def counted(rs, images=None):
        calls.append(images)
        return rows(rs, images)

    monkeypatch.setattr(RootSystem, "label_rows", counted)
    s = find_splint("G2:A2A2")
    view = SubalgebraView(s.ambient, s.phi1)
    weights = sorted(s.ambient.roots) + list(s.ambient.fundamental_weights)
    got = [view.labels(nu) for nu in weights]
    assert calls == [tuple(s.phi1.simple_images)]
    assert [view.dimension(nu) for nu in weights if view.is_dominant(nu)]
    assert calls == [tuple(s.phi1.simple_images)]
    sub_rows = s.ambient.label_rows(tuple(s.phi1.simple_images))
    nums = [apply_label_rows(nu, *sub_rows) for nu in weights]
    assert got == [tuple(n // d for n in ns) for ns, d in nums]
    with pytest.raises(ValueError, match="not integral for A2"):
        view.labels(tuple(x / 2 for x in s.phi1.simple_images[0]))
    with pytest.raises(ValueError, match="dimension mismatch"):
        view.labels(weights[0][:-1])
