"""Each embedding pushes its source fundamental weights once.

`Embedding.fundamental_images` is the `map_weight` of each source
fundamental weight, kept on the embedding; the stems' theta sums
(`theta_alternating_sum(src, images, cutoff)`, which slices the images per
simple factor) read it, and `Splint.tilde_map`, read off the labels of the
stem's simple images, equals the labels of the stem's pushed fundamental
weights on the catalog and the 43 broken splint files.  So:

* one `verify_theta_sums` and one `branch_via_splint` per catalog splint
  call `map_weight` once per fundamental weight of the two stems, and with
  `map_weight` patched to raise, the repeated calls (the splint's tilde map
  and tables rebuilt) give the same reports and tables;
* the negative control's dropped term Theta_{w rho_f}, now summed in the
  source's own coordinates, equals a test-local copy of the route it
  replaced, which summed it on the factor's own root system and padded every
  term into the source coordinates with an `inject` closure;
* `drop_last` refuses images that are not the source fundamental weights.
"""

import functools
from fractions import Fraction
from operator import mul

import pytest

from test_integer_probe import SPLINT_FILE_TAMPERS
from splintbranch import qseries as qs
from splintbranch.characters import FormalCharacter
from splintbranch.rootsystem import build_root_system, zero_vec
from splintbranch.splints import (Embedding, Splint, _catalog_entries, branch_via_splint,
                                  find_splint, splint_from_dict)

CATALOG = [e["name"] for e in _catalog_entries()]
ENTRIES = {e["name"]: e for e in _catalog_entries()} | SPLINT_FILE_TAMPERS


def report(r):
    return r.passed, r.name, r.detail, r.first_mismatch, r.normalization


@pytest.mark.parametrize("name", CATALOG)
def test_fundamental_images_are_the_pushed_fundamental_weights(name):
    s = find_splint(name)
    for phi in (s.phi1, s.phi2):
        assert phi.fundamental_images == tuple(
            phi.map_weight(w) for w in phi.source.fundamental_weights)
        assert phi.fundamental_images is phi.fundamental_images


@pytest.mark.parametrize("name", CATALOG)
def test_map_weight_runs_once_per_fundamental_weight(name, monkeypatch):
    s = find_splint(name)
    rs = s.ambient
    mu = rs.weight_from_labels((1,) * rs.rank)
    pushed = []
    map_weight = Embedding.map_weight

    def counted(self, v):
        pushed.append(v)
        return map_weight(self, v)

    monkeypatch.setattr(Embedding, "map_weight", counted)
    reports = [report(qs.verify_theta_sums(s, n)) for n in (3, 4)]
    table = branch_via_splint(s, mu)
    assert len(pushed) == s.phi1.source.rank + s.phi2.source.rank

    def refuse(self, v):
        raise AssertionError("map_weight ran again")

    monkeypatch.setattr(Embedding, "map_weight", refuse)
    s._tables.clear()
    del s.tilde_map
    assert [report(qs.verify_theta_sums(s, n)) for n in (3, 4)] == reports
    assert list(branch_via_splint(s, mu).items()) == list(table.items())


@pytest.mark.parametrize("tag", sorted(ENTRIES))
def test_tilde_map_is_the_labels_of_the_pushed_stem_fundamental_weights(tag):
    s = splint_from_dict(ENTRIES[tag], verify=False)
    cols, den = s.tilde_map
    pushed = [s.ambient.dynkin_labels(w) for w in s.phi2.fundamental_images]
    assert [[Fraction(c, den) for c in col] for col in cols] == [list(c) for c in zip(*pushed)]


@pytest.mark.parametrize("name", ["B2", "C3", "G2"])
def test_tilde_map_of_an_identity_stem_is_the_identity(name):
    # a Cartan matrix that is not symmetric tells its inverse from the transpose
    rs = build_root_system(name)
    ident = Embedding(rs, rs, {r: r for r in rs.positive_roots})
    s = Splint(name, rs, ident, ident, tuple(range(rs.rank)))
    assert s.tilde_map == ([tuple(int(i == j) for j in range(rs.rank)) for i in range(rs.rank)], 1)


def inject_route(src, cutoff):
    """(the factor sums of src, the signed dropped term times the factor sums
    before the last) by the route the source-coordinate sum replaced: each
    numerator and the dropped term of the last factor built on the factor's
    own root system, every vector padded into src coordinates by inject."""
    sums = []
    for fi, (fam, rank) in enumerate(src.factors):
        frs = build_root_system([(fam, rank)])
        c0 = src.factor_slices[fi][1][0]

        def inject(v):
            full = list(zero_vec(src.dim))
            full[c0:c0 + frs.dim] = v
            return tuple(full)

        sums.append(qs._theta_numerator(frs, [inject(w) for w in frs.fundamental_weights],
                                        cutoff))
    wrho, sign = frs.weyl_orbit(frs.rho)[-1]
    dropped = qs._lattice_sum(frs, frs.coroot_lattice_basis(), wrho, frs.dual_coxeter[0],
                              cutoff)
    dropped = qs.QSeries([(e, FormalCharacter((inject(v), sign * m) for v, m in c.items()))
                          for e, c in dropped.items()], cutoff)
    return sums, functools.reduce(mul, sums[:-1] + [dropped])


# the catalog ambients (B2 serves two splints) to N = 8, and three products
DROP_CASES = ([(name, 8) for name in dict.fromkeys(e["ambient"] for e in _catalog_entries())]
              + [("A1xA2", 4), ("B2xG2", 4), ("C3xA1", 4)])


@pytest.mark.parametrize("name, top", DROP_CASES)
def test_dropped_term_equals_the_inject_route(name, top):
    src = build_root_system(name)
    for cutoff in range(top + 1):
        sums, dropped = inject_route(src, cutoff)
        kept = qs.theta_alternating_sum(src, src.fundamental_weights, cutoff)
        got = qs.theta_alternating_sum(src, src.fundamental_weights, cutoff, drop_last=True)
        assert kept == functools.reduce(mul, sums)
        assert kept - got == dropped, (name, cutoff)
    assert dropped, name          # the control drops a term that is there


@pytest.mark.parametrize("name", CATALOG)
def test_drop_last_refuses_pushed_images(name):
    s = find_splint(name)
    # B2:A1A2 maps its subalgebra A1 onto the A1 coordinates themselves
    pushed = [phi for phi in (s.phi1, s.phi2)
              if phi.fundamental_images != phi.source.fundamental_weights]
    assert len(pushed) == (1 if name == "B2:A1A2" else 2)
    for phi in pushed:
        with pytest.raises(ValueError, match="images must be the source fundamental weights"):
            qs.theta_alternating_sum(phi.source, phi.fundamental_images, 2, drop_last=True)
        # without drop_last the same images are taken
        qs.theta_alternating_sum(phi.source, phi.fundamental_images, 2)
    rs = s.ambient
    with pytest.raises(ValueError, match="images must be"):
        qs.theta_alternating_sum(rs, rs.fundamental_weights[::-1], 2, drop_last=True)
    # the source fundamental weights in any sequence are accepted
    assert (qs.theta_alternating_sum(rs, list(rs.fundamental_weights), 2, drop_last=True)
            == qs.theta_alternating_sum(rs, rs.fundamental_weights, 2, drop_last=True))
