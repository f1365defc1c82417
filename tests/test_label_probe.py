"""The tilde probe decides each table on subalgebra-dominant weights.

Where the subalgebra's simple images are ambient roots with its Cartan
matrix, `probe_tilde_branching` accepts a tilde table on int labels
(`splints._tilde_table_holds`): the subalgebra's dominant tables, summed with
the table's coefficients, against the ambient dominant table and the Weyl
dimension.  Only a table that fails there, and every table of any other
splint, is named by the public routes, `branch_via_splint` against
`branch_direct` (the ambient orbit walk and the peel); a passing probe reads
neither.  The loop that walked and peeled every table is kept here as the
oracle, and every report (passed, problems in order and text, detail) must
equal its report: on the catalog, every permutation of each catalog
correspondence (equal to the `Fraction` oracle's report too), the 43 broken
splint files and three rank 3-4 family splints.  A table with one entry
tampered is never accepted, and the probe still builds every table and
ambient dominant table that the affine ops read.
"""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from splint_families import a_family, b_family
from test_integer_probe import (CATALOG, PROBE_BOUNDS, SPLINT_FILE_TAMPERS, fraction_probe,
                                reversed_entry, subalgebra_image_0, tampered, verdict)
from splintbranch import characters as ch
from splintbranch import rootsystem
from splintbranch import splints as sp
from splintbranch.characters import _orbit_codes, _peel_codes, _show, _weight, label_dimension
from splintbranch.rootsystem import build_root_system, common_denominator
from splintbranch.splints import (Report, _branch_codes, _root_images, _tilde_table_holds,
                                  find_splint, probe_tilde_branching, splint_from_dict)

FAMILY = {"B3": b_family(3), "A4": a_family(4), "B4": b_family(4)}


def orbit_peel_probe(s, max_label):
    """The probe with every table compared with the ambient character, its
    orbits walked and peeled on codes, as it ran before the label check."""
    problems = []
    rs = s.ambient
    view = s.subalgebra_view()
    images = view.emb.simple_images
    fw, off, den = rs._label_codes(1, None, common_denominator(images))
    cols = list(zip(*fw))
    for labels in itertools.product(range(max_label + 1), repeat=rs.rank):
        try:
            table = _branch_codes(s, labels)
            rows, rows_den = view.label_rows
            scale = -rows_den * den
            shortcut = {tuple(sum(a * b for a, b in zip(x, col)) for col in cols): m
                        for x, m in table.items()}
            bad = []
            for c in shortcut:
                sub_labels = [divmod(sum(a * b for a, b in zip(row, c)), scale) for row in rows]
                if any(r for _, r in sub_labels):
                    raise ValueError(f"{_show(_weight(c, den))} is not integral for "
                                     f"{view.sub.name}")
                if any(x < 0 for x, _ in sub_labels):
                    bad.append(c)
            if bad:
                problems.append(f"labels {labels}: non-dominant output "
                                f"[{', '.join(_show(_weight(c, den)) for c in bad[:2])}]")
                continue
            peeled = _peel_codes(rs, view.sub, images, _orbit_codes(rs, labels, fw, off), den)
        except ValueError as exc:
            problems.append(f"labels {labels}: {exc}")
            break
        direct = {c: m for c, (m, _) in peeled.items()}
        if shortcut != direct:
            c = next(c for c in itertools.chain(direct, shortcut)
                     if direct.get(c, 0) != shortcut.get(c, 0))
            problems.append(f"labels {labels}: shortcut != direct oracle at "
                            f"{_show(_weight(c, den))}: shortcut {shortcut.get(c, 0)}, "
                            f"oracle {direct.get(c, 0)}")
            continue
        total = sum(m * label_dimension(view.sub, lab) for m, lab in peeled.values())
        if total != label_dimension(rs, labels):
            problems.append(f"labels {labels}: dimension bookkeeping failed")
    detail = "; ".join(problems[:2]) or "tilde-weight branching equals subtraction oracle"
    return Report(not problems, problems, "branching", detail)


def probe_pair(entry, bound):
    """(probe report, oracle report), each on a fresh splint of entry."""
    return (probe_tilde_branching(splint_from_dict(entry, verify=False), bound),
            orbit_peel_probe(splint_from_dict(entry, verify=False), bound))


# ---------------------------------------------------------------------------
# equal reports


@pytest.mark.parametrize("name, bound", PROBE_BOUNDS)
def test_catalog_probe_equals_orbit_peel_probe(name, bound):
    got, want = probe_pair(CATALOG[name], bound)
    assert got.passed and verdict(got) == verdict(want)


@pytest.mark.parametrize("name", sorted(CATALOG))
@pytest.mark.parametrize("bound", [1, 2])
def test_reversed_correspondence_equals_orbit_peel_probe(name, bound):
    got, want = probe_pair(reversed_entry(name), bound)
    assert not got.passed and verdict(got) == verdict(want)


# every correspondence of each catalog splint: a permutation of its stem
# indices, at labels <= 1 and at <= 2 for rank 2
PERMUTED = [(name, order, bound) for name, e in CATALOG.items()
            for order in itertools.permutations(range(len(e["correspondence"])))
            for bound in ((1, 2) if build_root_system(e["ambient"]).rank == 2 else (1,))]


def test_permuted_correspondences_count():
    assert len(PERMUTED) == 4 * 2 * 2 + 6


@pytest.mark.parametrize("name, order, bound", PERMUTED)
def test_permuted_correspondence_equals_both_oracles(name, order, bound):
    entry = dict(CATALOG[name], correspondence=list(order))
    got, want = probe_pair(entry, bound)
    assert verdict(got) == verdict(want)
    assert verdict(got) == verdict(fraction_probe(splint_from_dict(entry), bound))
    assert got.passed == (order == tuple(CATALOG[name]["correspondence"]))


@pytest.mark.parametrize("tag", sorted(SPLINT_FILE_TAMPERS))
def test_broken_splint_file_equals_orbit_peel_probe(tag):
    got, want = probe_pair(SPLINT_FILE_TAMPERS[tag], 1)
    assert verdict(got) == verdict(want)


@pytest.mark.parametrize("family", sorted(FAMILY))
def test_family_probe_equals_orbit_peel_probe(family):
    got, want = probe_pair(FAMILY[family], 1)
    assert got.passed and verdict(got) == verdict(want)


def test_families_reach_the_catalog():
    # the small cases of the A family are catalog entries, map order included
    assert a_family(2) == CATALOG["A2:A1A1A1"] and a_family(3) == CATALOG["A3:A2A1A1A1"]
    b2 = b_family(2)
    assert b2["stem"] == CATALOG["B2:A1A1"]["stem"]
    assert b2["subalgebra"]["map"] == CATALOG["B2:A1A1"]["subalgebra"]["map"]


# ---------------------------------------------------------------------------
# a tampered table is never accepted


@st.composite
def table_tampers(draw):
    """(splint, labels, tampered table): one entry of a catalog tilde table
    at labels <= 1 raised or lowered by 1 (dropped at 0), moved by an
    ambient simple root, or dropped."""
    s = find_splint(draw(st.sampled_from(sorted(CATALOG))))
    rs = s.ambient
    labels = tuple(draw(st.lists(st.integers(0, 1), min_size=rs.rank, max_size=rs.rank)))
    table = dict(_branch_codes(s, labels))
    x = draw(st.sampled_from(sorted(table)))
    kind = draw(st.sampled_from(["raise", "lower", "move", "drop"]))
    if kind == "move":
        i, sign = draw(st.integers(0, rs.rank - 1)), draw(st.sampled_from([-1, 1]))
        y = tuple(a + sign * c for a, c in zip(x, rs.label_data.cartan[i]))
        table[y] = table.get(y, 0) + table.pop(x)
    else:
        table[x] += {"raise": 1, "lower": -1, "drop": -table[x]}[kind]
        if not table[x]:
            del table[x]
    return s, labels, table


@settings(max_examples=60, deadline=None)
@given(table_tampers())
def test_tampered_table_is_never_accepted(case):
    s, labels, table = case
    view = s.subalgebra_view()
    assert not _tilde_table_holds(view, labels, table, _root_images(view))
    s._tables[labels] = table
    got = probe_tilde_branching(s, 1)
    assert not got.passed and verdict(got) == verdict(orbit_peel_probe(s, 1))


# ---------------------------------------------------------------------------
# where the label check does not apply


def refuse(*args, **kwargs):
    raise AssertionError("a refused route was reached")


@pytest.mark.parametrize("s", [
    # twice a root: no image of a root
    tampered("G2:A2A2", subalgebra_image_0([-2, 0, 2])),
    # two orthogonal roots: the images carry A1xA1's Cartan matrix, not A2's
    tampered("A3:A2A1A1A1", lambda e: e["subalgebra"]["map"][1].__setitem__(1, [0, 0, 1, -1])),
], ids=["non-root image", "other Cartan matrix"])
def test_other_images_take_the_orbit_peel_path(monkeypatch, s):
    assert _root_images(s.subalgebra_view()) is None
    want = verdict(orbit_peel_probe(s, 1))
    monkeypatch.setattr(sp, "_tilde_table_holds", refuse)
    assert verdict(probe_tilde_branching(s, 1)) == want


def test_passing_probes_read_no_public_route(monkeypatch):
    # a table the label check accepts is never decoded nor branched again
    entries = [*CATALOG.values(), *FAMILY.values()]
    want = [verdict(splint_from_dict(e).branching_status()) for e in entries]
    monkeypatch.setattr(sp, "branch_via_splint", refuse)
    monkeypatch.setattr(sp, "branch_direct", refuse)
    got = [verdict(splint_from_dict(e).branching_status()) for e in entries]
    assert got == want and all(passed for passed, *_ in got)


def test_a_rejected_table_is_branched_by_both_routes_once(monkeypatch):
    # G2:A2A2 reversed at labels <= 2: each label set the label check rejects
    # runs branch_via_splint once, then branch_direct once unless its tilde
    # output is reported as non-dominant
    s = splint_from_dict(reversed_entry("G2:A2A2"))
    want = verdict(probe_tilde_branching(splint_from_dict(reversed_entry("G2:A2A2")), 2))
    calls = []

    def spy(name, record):
        f = getattr(sp, name)

        def wrapped(*args):
            result = f(*args)
            calls.append(record(*args, result))
            return result
        monkeypatch.setattr(sp, name, wrapped)

    spy("_tilde_table_holds", lambda view, labels, table, images, held:
        None if held else ("rejected", labels))
    spy("branch_via_splint", lambda s, mu, _: ("shortcut", s.ambient.split_labels(mu)[0]))
    spy("branch_direct", lambda rs, view, mu, _: ("direct", rs.split_labels(mu)[0]))
    got = probe_tilde_branching(s, 2)
    assert verdict(got) == want
    rejected = [(0, 1), (0, 2), (1, 0), (1, 2), (2, 0), (2, 1)]
    direct = [(0, 1), (0, 2), (1, 2)]
    assert [c for c in calls if c] == [
        c for labels in rejected
        for c in [("rejected", labels), ("shortcut", labels)] + [("direct", labels)] * (
            labels in direct)]
    assert [p.split(":")[0] for p in got.problems if "non-dominant" in p] == [
        f"labels {labels}" for labels in rejected if labels not in direct]


def test_an_orbit_the_walk_refuses_takes_the_orbit_peel_path(monkeypatch):
    # where the orbit walk would refuse an orbit by its size, the label
    # check stands aside and the refusal stays the probe's last problem
    for module in (sp, rootsystem):
        monkeypatch.setattr(module, "MAX_ORBIT", 5)
    got, want = probe_pair(CATALOG["G2:A2A2"], 1)
    assert not got.passed and "exceeds cap 5" in got.problems[-1]
    assert verdict(got) == verdict(want)


# ---------------------------------------------------------------------------
# the tables the affine ops read


@pytest.mark.parametrize("name", sorted(CATALOG))
def test_probe_builds_every_table_of_its_cube(name):
    s = find_splint(name)
    rs = s.ambient
    ch._dominant_table.cache_clear()
    assert s.branching_status().passed
    cube = set(itertools.product(range((2 if rs.rank <= 2 else 1) + 1), repeat=rs.rank))
    assert set(s._tables) == cube
    misses = ch._dominant_table.cache_info().misses
    for labels in cube:
        ch._dominant_table(rs, labels)
    assert ch._dominant_table.cache_info().misses == misses


def test_passing_probes_walk_no_orbit_and_peel_nothing(monkeypatch):
    monkeypatch.setattr(sp, "_orbit_codes", refuse)
    monkeypatch.setattr(sp, "_peel_codes", refuse)
    for entry in [*CATALOG.values(), FAMILY["B4"]]:
        rep = splint_from_dict(entry).branching_status()
        assert rep.passed and rep.detail == "tilde-weight branching equals subtraction oracle"
