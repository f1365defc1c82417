"""Graded characters keep their dominant rows and build layers on first read.

`affine.graded_character` keeps, per grade, the dominant labels ->
multiplicity rows it sums, next to the branching series, and
`GradedCharacter.layers` builds the Weyl orbits of the rows on first read.
The layers are checked against a test-local copy of the eager build loop
they replaced (dict order included), the row reads of `string_function` and
`q_dimension` against layer reads, also on characters with no series (a copy
of the rows, and `affine_freudenthal`'s), and the memo of
`RootSystem.orbit_size` against its formula and the orbit walk (a repeat
call hits the cache and returns the same object).  With the
layer builder patched to raise, the benchmark's affine op and the CLI's
`strings` and `qdim` must still run, cold and warm.  `graded_character`
refuses folds with no grade 0, a fold term of the wrong shape and a module
that is not integrable, the last with the fold's own texts.  The
cached `_dominant_table` returns one list on a repeat call, whose
multiplicities times orbit sizes sum to the Weyl dimension of the module.
"""

import itertools
import re
from fractions import Fraction
from operator import mul

import pytest
from hypothesis import given, settings

from splintbranch import affine as af
from splintbranch.characters import (_dominant_table, _split_dominant,
                                     common_denominator, decode, encode, label_dimension,
                                     rho_pairing)
from splintbranch.cli import main
from splintbranch.rootsystem import (RootSystem, build_root_system, vadd, weyl_group_order,
                                     zero_vec)
from splintbranch.splints import splint_catalog
from test_branch_reuse import ALGEBRAS, affine_module


def eager_layers(rs, aw, bs):
    """The layers as graded_character built them before it kept its rows:
    per grade the Weyl orbits of sum_nu b_nu(n) times the dominant table of
    L(nu), in the (rho-pairing, code) order of the group-ring division,
    decoded once."""
    den = common_denominator(rs.fundamental_weights + (aw.finite,))
    fw = [encode(w, den) for w in rs.fundamental_weights]
    offset = _split_dominant(rs, aw.finite)[1]
    off = encode(offset or zero_vec(rs.dim), den)
    pair = rho_pairing(rs)

    def order(codes):
        return sorted(codes, key=lambda c: (sum(map(mul, pair, c)), c))

    layers = []
    for n in range(bs.cutoff + 1):
        fold = {tuple(int(m) for m in rs.dynkin_labels(nu)): b
                for (nu, g), b in bs.entries.items() if g == n}
        mult = {}
        for nu, b in fold.items():
            for lbl, _, m in _dominant_table(rs, nu):
                mult[lbl] = mult.get(lbl, 0) + b * m
        orbits = {lbl: rs.label_orbit(lbl, fw, off) for lbl in mult}
        layer = {code: mult[lbl] for lbl, orbit in orbits.items() for code, _ in orbit}
        layers.append(decode({c: layer[c] for c in order(layer)}, den))
    return layers


def off_support(rs, weights):
    """Weights no layer holds: each weight moved off the weight lattice by
    half a fundamental weight, and onto another W-fixed part where the
    realization has one."""
    half = tuple(x / 2 for x in rs.fundamental_weights[0])
    out = [vadd(w, half) for w in weights]
    if rs.dim > rs.rank:     # A_n and G2 sit in a space with a W-fixed line
        out += [vadd(w, (Fraction(1, 3),) * rs.dim) for w in weights]
    return out


@settings(max_examples=30, deadline=None)
@given(affine_module())
def test_rows_read_as_the_layers_and_build_them_in_order(case):
    name, aw, cutoff = case
    rs = ALGEBRAS[name]
    gc = af.affine_character(rs, aw, cutoff)
    assert "layers" not in vars(gc)
    want = eager_layers(rs, aw, gc.series)
    weights = list(dict.fromkeys(w for layer in want for w, _ in layer.items()))
    probes = weights + off_support(rs, weights)
    by_rows = [af.string_function(rs, aw, w, cutoff, gc) for w in probes]
    qdim_rows = af.q_dimension(rs, aw, cutoff, gc=gc)
    assert [sum(m * rs.orbit_size(lbl) for lbl, m in mult.items()) for mult in gc.rows] == \
        [layer.total() for layer in want]
    assert "layers" not in vars(gc)
    # built after the fact, the layers equal the eager build in dict order
    assert [list(layer.items()) for layer in gc.layers] == \
        [list(layer.items()) for layer in want]
    assert by_rows == [[layer.get(w) for layer in want] for w in probes]
    assert all(s == [0] * (cutoff + 1) for s in by_rows[len(weights):])
    # characters with no series read their rows the same way, and
    # q_dimension reads the same totals once the layers are built
    bare = af.GradedCharacter(gc.rs, gc.offset, gc.rows)
    oracle = af.affine_freudenthal(rs, aw, cutoff)
    assert oracle.rows == gc.rows
    for other in (bare, oracle):
        assert other.series is None
        assert [af.string_function(rs, aw, w, cutoff, other) for w in probes] == by_rows
        assert "layers" not in vars(other)
        # with no series, q_dimension peels the layers
        assert af.q_dimension(rs, aw, cutoff, gc=other) == qdim_rows
        assert other.layers == gc.layers
    assert af.q_dimension(rs, aw, cutoff, gc=gc) == qdim_rows


ORBIT_ALGEBRAS = ["A1", "A2", "A3", "A4", "B2", "B3", "B4", "C3", "D4", "G2", "F4"]


@pytest.mark.parametrize("name", ORBIT_ALGEBRAS)
def test_orbit_size_memo_equals_the_formula(name):
    rs = build_root_system(name)
    for zeros in itertools.product((True, False), repeat=rs.rank):
        formula = rs.weyl_order // weyl_group_order(
            c for _, c in rs.label_data.positive
            if all(not k or z for k, z in zip(c, zeros)))
        for step in (1, 2):      # the second labels hit the memo
            labels = tuple(0 if z else step + i for i, z in enumerate(zeros))
            hits = RootSystem._orbit_size.cache_info().hits
            size = rs.orbit_size(labels)
            assert size == formula
            if step == 2:
                assert RootSystem._orbit_size.cache_info().hits == hits + 1
            # a repeat call returns the memo's object, equal to the uncached helper
            assert rs.orbit_size(labels) is size
            assert RootSystem._orbit_size.__wrapped__(rs, zeros) == size
        fw = list(rs.label_data.fw)
        assert len(rs.label_orbit(labels, fw, (0,) * rs.dim)) == formula


# ---------------------------------------------------------------------------
# no layers are built where nothing reads them


def no_layers(monkeypatch):
    def built(self):
        raise AssertionError("layers were built")

    monkeypatch.setattr(af.GradedCharacter, "layers", property(built))


# (algebra, level, labels, cutoff): modules of the benchmark's affine pool
BENCH_MODULES = [("G2", 2, (1, 0), 3), ("B2", 2, (0, 1), 3), ("A3", 2, (0, 1, 0), 2),
                 ("A2", 2, (1, 1), 4), ("C3", 1, (0, 1, 0), 2)]


def benchmark_op(rs, aw, n):
    """The benchmark's affine op, then the string functions of its support."""
    gc = af.affine_character(rs, aw, n)
    bs = af.graded_branch_to_g(rs, aw, n, gc)
    qd = af.q_dimension(rs, aw, n, bs, gc)
    subs = [af.branch_affine_to_subalgebra(rs, s, aw, n, gc).entries
            for s in splint_catalog(rs)]
    strings = [af.string_function(rs, aw, nu, n, gc) for nu in bs.weights()]
    return bs.entries, qd, subs, strings


@pytest.mark.parametrize("name, level, labels, cutoff", BENCH_MODULES)
def test_benchmark_op_builds_no_layers(monkeypatch, name, level, labels, cutoff):
    rs = build_root_system(name)
    aw = af.AffineWeight(rs.weight_from_labels(labels), level)
    want = benchmark_op(rs, aw, cutoff)
    no_layers(monkeypatch)
    assert benchmark_op(rs, aw, cutoff) == want


NO_LAYER_COMMANDS = {
    "strings": "strings --algebra G2 --level 1 --weight 1,0 --grade-max 3",
    "strings-matrix": "strings --algebra A1 --level 2 --weight 0 --grade-max 4 --emit matrix",
    "strings-matrix-b2": "strings --algebra B2 --level 1 --weight 0,1 --grade-max 2 "
                         "--emit matrix",
    "qdim": "qdim --algebra B2 --level 2 --weight 0,1 --grade-max 3",
}


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.mark.parametrize("command", sorted(NO_LAYER_COMMANDS))
def test_cold_and_warm_commands_build_no_layers(tmp_path, capsys, monkeypatch, command):
    argv = NO_LAYER_COMMANDS[command].split()
    code, fresh, _ = run(capsys, argv + ["--no-cache"])
    assert code == 0
    no_layers(monkeypatch)
    for _ in ("cold", "warm"):
        assert run(capsys, argv + ["--cache-dir", str(tmp_path)]) == (0, fresh, "")
    assert len(list(tmp_path.rglob("*.json"))) == 1


def test_affine_branch_oracle_still_reads_the_layers(capsys, monkeypatch):
    argv = "affine-branch --algebra G2 --splint A2A2 --level 1 --weight 1,0 --grade-max 2 " \
           "--oracle --no-cache".split()
    code, out, _ = run(capsys, argv)
    assert code == 0 and out.splitlines()[-1] == "oracle match: True"
    no_layers(monkeypatch)
    code, _, err = run(capsys, argv)
    assert code == 3 and "layers were built" in err


# ---------------------------------------------------------------------------
# fold shapes


A2 = ALGEBRAS["A2"]
A2_VACUUM = af.AffineWeight(zero_vec(A2.dim), 1)

# (grade, labels, b) of the one bad term, or None for folds with no grade 0
BAD_TERMS = {
    "no-grade-0": None,
    "empty-labels": (1, (), 1),
    "long-labels": (1, (1, 1, 0), 1),
    "weight-not-labels": (1, (Fraction(1), Fraction(1)), 1),
    "string-labels": (1, "11", 1),
    "float-label": (1, (1.0, 1), 1),
    "bool-label": (1, (True, True), 1),
    "negative-label": (1, (-1, 2), 1),
    "float-coefficient": (1, (1, 1), 1.0),
    "fraction-coefficient": (1, (1, 1), Fraction(1)),
    "string-coefficient": (1, (1, 1), "1"),
    "bool-coefficient": (1, (1, 1), True),
    "bool-at-grade-0": (0, (0, 0), True),
}


@pytest.mark.parametrize("case", sorted(BAD_TERMS))
def test_malformed_fold_term_is_refused(case):
    if BAD_TERMS[case] is None:
        folds, message = [], "the folds hold no grade 0"
    else:
        grade, labels, b = BAD_TERMS[case]
        folds = [{(0, 0): 1}, {(1, 1): 1}]
        folds[grade] = {labels: b}
        message = f"grade {grade} has a malformed term {labels!r}: {b!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        af.graded_character(A2, A2_VACUUM, folds)


A1 = build_root_system("A1")

# (labels of mu, level) of a module that is not integrable, with the
# refusal of the fold (check_affine_dominant)
NOT_INTEGRABLE = {
    "mu-above-level": ((3,), 1, "(mu, theta^v) = 3 exceeds level 1"),
    "negative-level": ((0,), -1, "level must be a nonnegative integer"),
    "bool-level": ((0,), True, "level must be a nonnegative integer"),
}


@pytest.mark.parametrize("case", sorted(NOT_INTEGRABLE))
def test_fold_of_a_module_that_is_not_integrable_is_refused(case):
    # graded_character gates its weight as the fold does, with the same text,
    # before it reads any fold
    labels, level, message = NOT_INTEGRABLE[case]
    aw = af.AffineWeight(A1.weight_from_labels(labels), level)
    for build in (lambda: af.graded_character(A1, aw, [{labels: 1}]),
                  lambda: af.affine_character(A1, aw, 0)):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            build()


def test_well_formed_fold_builds_the_character():
    gc = af.graded_character(A2, A2_VACUUM, [{(0, 0): 1}, {(1, 1): 1}])
    assert gc == af.affine_character(A2, A2_VACUUM, 1)


@pytest.mark.parametrize("name", ["A2", "B3", "C3", "G2", "A1xA1", "A1xB2"])
def test_dominant_table_is_cached_grade_0(name):
    rs = build_root_system(name)
    for top in itertools.product(range(2), repeat=rs.rank):
        table = _dominant_table(rs, top)
        assert _dominant_table(rs, top) is table
        assert sum(m * rs.orbit_size(labels) for labels, _, m in table) == label_dimension(rs, top)
