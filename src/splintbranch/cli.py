"""Command-line front end: roots, splint, fan, branch, affine-branch,
strings, qdim, verify.

Exit codes: 0 success / all identities verified, 1 verification mismatch,
2 usage or configuration error, 3 internal error (a failed invariant of the
library, reported on one stderr line).  Output is aligned text by default or
JSON lines with --format json; weights are printed as Dynkin labels and all
tables are sorted by the (rho, weight) order with a lexicographic label
tie-break, so reruns are byte-identical.  The branching series of affine
characters to g are cached on disk as content-addressed JSON files when a
cache directory is configured (flag --cache-dir or SPLINTBRANCH_CACHE_DIR);
--no-cache bypasses it.  Each entry carries its request and a SHA-256 of its
payload.  A hit builds its character with the builder, shape checks and
gates of a computed one (`affine.graded_character`), so nothing is
decomposed and its layers are built only if read; an entry
that does not parse, fails its digest, does not hold the requested
character or fails a gate is recomputed and rewritten, never served; so is
one that cannot be read.  A cache entry that cannot be written is a
configuration error.

Each command is a fresh process, so start-up is kept to what the command
runs: the parser builds the subparser of the named command only (all eight
for help, no command or an unknown one, with the same help and usage
texts), and the library modules are imported by the commands and input
helpers that use them.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .rootsystem import build_root_system

CACHE_ENV = "SPLINTBRANCH_CACHE_DIR"
CACHE_SCHEMA = "splintbranch-affine-character-v3"


class ConfigError(Exception):
    """Aggregated configuration problems; exits with code 2."""


# ---------------------------------------------------------------------------
# configuration


def _parse_labels(text, rank, errors):
    """The Dynkin labels of --weight, or None with the problem added to errors."""
    try:
        labels = [int(x) for x in text.split(",")]
    except ValueError:
        errors.append(f"--weight expects comma-separated integers, got {text!r}")
        return None
    if len(labels) != rank:
        errors.append(f"--weight needs {rank} Dynkin labels, got {len(labels)}")
    elif any(m < 0 for m in labels):
        errors.append(f"--weight labels must be nonnegative, got {labels}")
    else:
        return labels
    return None


def _load_algebra(args, errors):
    if not args.algebra:
        errors.append("--algebra is required")
        return None
    try:
        return build_root_system(args.algebra)
    except ValueError as exc:
        errors.append(str(exc))
        return None


def _resolve(args, errors, splint):
    """(rs, s): --algebra, else the algebra the splint names, and the splint
    of --splint-file or --splint: required if `splint` is True, read when
    given if it is False, refused when given if it is None.  A splint of
    another algebra than --algebra is an error."""
    rs = _load_algebra(args, errors) if args.algebra or splint is None else None
    if splint is None:
        errors += [f"--{flag.replace('_', '-')} is not read by this command"
                   for flag in ("splint", "splint_file") if getattr(args, flag, None)]
        return rs, None
    s = None
    if args.splint_file:
        from .splints import load_splint_file
        try:
            s = load_splint_file(args.splint_file)
        except (OSError, ValueError, KeyError) as exc:
            errors.append(f"cannot load splint file {args.splint_file}: {exc}")
    elif args.splint:
        from .splints import find_splint
        name = args.splint
        try:
            s = find_splint(name if ":" in name or rs is None else f"{rs.name}:{name}")
        except KeyError as exc:
            errors.append(str(exc.args[0]))
    elif splint:
        errors.append("--splint (or --splint-file) is required")
    elif rs is None and not errors:
        errors.append("--algebra or --splint is required")
    if s is not None:
        if rs is None:
            rs = s.ambient
        elif s.ambient.factors != rs.factors:
            errors.append(f"splint {s.name} is a splint of {s.ambient.name}, "
                          f"not of --algebra {rs.name}")
    return rs, s


def _inputs(args, splint=None):
    """(rs, s, labels, aw) of the flags the subcommand declared, None where
    it declared none; `splint` as in _resolve.  Every problem is collected in
    the order algebra or splint, weight, level, bounds, highest weight, and
    raised as one ConfigError; a refused level is not checked again."""
    errors = []
    rs, s = _resolve(args, errors, splint)
    flags = vars(args)
    level = flags.get("level")
    labels = aw = None
    if "weight" in flags:
        if args.weight is None:
            errors.append("--weight is required")
        elif rs is not None:
            labels = _parse_labels(args.weight, rs.rank, errors)
    if "level" in flags and level is None:
        errors.append("--level is required")
    errors += [f"--{name.replace('_', '-')} must be >= 0"
               for name in ("level", "grade_max", "max_label") if (flags.get(name) or 0) < 0]
    if labels is not None and level is not None and level >= 0:
        from . import affine as af
        aw = af.AffineWeight(rs.weight_from_labels(labels), level)
        try:
            af.check_affine_dominant(rs, aw)
        except ValueError as exc:
            errors.append(str(exc))
    if errors:
        raise ConfigError("; ".join(errors))
    return rs, s, labels, aw


# ---------------------------------------------------------------------------
# output


def _emit(fmt, kind, lines, **fields):
    """Print one record: a JSON object for fmt "json", else the text lines."""
    if fmt == "json":
        print(json.dumps({"record": kind, **fields}, sort_keys=True))
    else:
        for line in lines:
            print(line)


def _ints(labels):
    return [int(m) for m in labels]


def _labels_str(labels):
    return ",".join(map(str, _ints(labels)))


def _weight_key(rs, v):
    return (rs.inner(rs.rho, v), tuple(rs.dynkin_labels(v)))


# ---------------------------------------------------------------------------
# cache


def _cache_dir(args):
    if getattr(args, "no_cache", False):
        return None
    return getattr(args, "cache_dir", None) or os.environ.get(CACHE_ENV) or None


def _payload_digest(doc):
    """SHA-256 of the canonical JSON of a cache entry without its digest."""
    import hashlib  # imported on use, as in cached_affine_character
    body = {k: v for k, v in doc.items() if k != "digest"}
    return hashlib.sha256(json.dumps(body, sort_keys=True).encode()).hexdigest()


def _layers_to_json(request, bs):
    """The cache document of the request: per grade, the [Dynkin labels of
    nu, b] terms of its branching series bs, a series built by
    af.graded_character, whose labels it carries."""
    series = [[] for _ in range(bs.cutoff + 1)]
    for ((_, n), b), labels in zip(bs.entries.items(), bs.labels):
        series[n].append([list(labels), b])
    doc = {"schema": CACHE_SCHEMA, "request": request, "series": series}
    doc["digest"] = _payload_digest(doc)
    return doc


def _layers_from_json(doc, rs, aw, request):
    """The character of a cache document, built by af.graded_character
    through the shape checks and gates of a computed one.  The document must
    carry this schema, its digest, the request and cutoff + 1 grades of terms
    [labels, b], no labels twice in a grade; any other raises ValueError,
    TypeError, KeyError, AttributeError or AssertionError."""
    if doc.get("schema") != CACHE_SCHEMA:
        raise ValueError(f"unexpected cache schema {doc.get('schema')!r}")
    if doc.get("digest") != _payload_digest(doc):
        raise ValueError("cache entry does not match its digest")
    if doc["request"] != request or len(doc["series"]) != request["cutoff"] + 1:
        raise ValueError("cache entry holds another character")
    folds = [{tuple(labels): b for labels, b in terms} for terms in doc["series"]]
    if any(len(fold) != len(terms) for fold, terms in zip(folds, doc["series"])):
        raise ValueError("cache entry repeats a constituent")
    from . import affine as af
    return af.graded_character(rs, aw, folds)


def cached_affine_character(rs, aw, cutoff, cache_dir):
    """affine_character through the disk cache; an entry that cannot be
    read or served is recomputed and rewritten.  An OSError while writing it
    is a configuration error, and no temporary file is left behind."""
    from . import affine as af
    if cache_dir is None:
        return af.affine_character(rs, aw, cutoff)
    import hashlib  # imported here, so that a command without the cache never loads them
    import tempfile
    request = {"op": "affine_character", "algebra": rs.name,
               "labels": _ints(rs.dynkin_labels(aw.finite)),
               "level": aw.level, "cutoff": cutoff}
    key = json.dumps({**request, "schema": CACHE_SCHEMA}, sort_keys=True)
    digest = hashlib.sha256(key.encode()).hexdigest()
    path = os.path.join(cache_dir, digest[:2], digest + ".json")
    try:
        with open(path) as fh:
            return _layers_from_json(json.load(fh), rs, aw, request)
    except (OSError, ValueError, TypeError, KeyError, AttributeError, AssertionError):
        pass
    gc = af.affine_character(rs, aw, cutoff)
    tmp = None
    try:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path), suffix=".tmp")
        with os.fdopen(fd, "w") as fh:
            json.dump(_layers_to_json(request, af.graded_branch_to_g(rs, aw, cutoff, gc)),
                      fh, sort_keys=True)
        os.replace(tmp, path)
    except OSError as exc:
        if tmp is not None:
            os.unlink(tmp)
        raise ConfigError(f"cannot write cache entry {path}: {exc.strerror}")
    return gc


# ---------------------------------------------------------------------------
# subcommands


def cmd_roots(args):
    rs, _, _, _ = _inputs(args)
    pos = [rs.root_coefficients[a] for a in rs.positive_roots]
    lines = [f"algebra {rs.name}: rank {rs.rank}, {len(pos)} positive roots, "
             f"h-dual {list(rs.dual_coxeter)}, |W| = {rs.weyl_order}",
             "cartan matrix:"]
    lines += ["  " + " ".join(f"{x:3d}" for x in row) for row in rs.cartan]
    lines.append("positive roots (simple-root coefficients):")
    lines += ["  " + " ".join(map(str, c)) for c in pos]
    lines.append(f"rho labels: {_labels_str(rs.dynkin_labels(rs.rho))}")
    _emit(args.format, "roots", lines, algebra=rs.name, rank=rs.rank, cartan=rs.cartan,
          positive_roots=[list(c) for c in pos],
          rho_labels=_ints(rs.dynkin_labels(rs.rho)),
          dual_coxeter=list(rs.dual_coxeter), weyl_order=rs.weyl_order)
    return 0


def cmd_splint(args):
    rs, s, _, _ = _inputs(args, None if args.action == "list" else True)
    from .splints import check_embedding, check_splint, splint_catalog
    if args.action == "list":
        entries = splint_catalog(rs)
        if not entries:
            _emit(args.format, "splint", [f"no catalog splints for {rs.name}"],
                  algebra=rs.name, splints=[])
            return 0
        rows = []
        for s in entries:
            ok9 = s.branching_status().passed
            flag = "branching applicable" if ok9 else \
                   "splint verified / tilde branching not applicable"
            rows.append({"name": s.name, "subalgebra": s.phi1.source.name,
                         "stem": s.phi2.source.name, "status": flag})
        lines = [f"{r['name']}: subalgebra {r['subalgebra']}, stem {r['stem']} "
                 f"[{r['status']}]" for r in rows]
        _emit(args.format, "splint", lines, algebra=rs.name, splints=rows)
        return 0
    rep = check_splint(s)
    rep1 = check_embedding(s.phi1)
    rep2 = check_embedding(s.phi2)
    lines = [f"{s.name}: check_splint {'pass' if rep.passed else 'FAIL'}"]
    lines += [f"  problem: {p}" for p in rep.problems]
    _emit(args.format, "splint_check", lines, name=s.name, passed=rep.passed,
          problems=rep.problems, embedding_subalgebra=rep1.passed,
          embedding_stem=rep2.passed)
    return 0 if rep.passed else 1


def cmd_fan(args):
    from .splints import fan_coefficients
    _, s, _, _ = _inputs(args, True)
    fan = fan_coefficients(s)
    rows = sorted((_ints(s.ambient.simple_coefficients(g)), v)
                  for g, v in fan.coefficients.items())
    lines = [f"injection fan of {s.name}: {len(rows)} coefficients"]
    lines += [f"  gamma = {' '.join(map(str, g)):12s} s(gamma) = {v:+d}" for g, v in rows]
    _emit(args.format, "fan", lines, splint=s.name,
          coefficients=[{"gamma": g, "s": v} for g, v in rows])
    return 0


def cmd_branch(args):
    from .characters import weyl_dimension
    from .splints import branch_direct, branch_via_splint, require_tilde_branching
    rs, s, labels, _ = _inputs(args, True)
    mu = rs.weight_from_labels(labels)
    require_tilde_branching(s)
    table = branch_via_splint(s, mu)
    view = s.subalgebra_view()
    match = None
    if args.oracle:
        match = table == branch_direct(rs, view, mu)
    rows = []
    for nu in sorted(table, key=lambda v: _weight_key(rs, v)):
        rows.append({
            "ambient_labels": _ints(rs.dynkin_labels(nu)),
            "subalgebra_labels": _ints(view.labels(nu)),
            "coefficient": table[nu],
            "dimension": view.dimension(nu),
        })
    total = sum(r["coefficient"] * r["dimension"] for r in rows)
    lines = [f"branching of {rs.name} weight ({_labels_str(labels)}) through {s.name}:"]
    for r in rows:
        lines.append(f"  nu = ({_labels_str(r['ambient_labels'])})  "
                     f"sub-labels ({_labels_str(r['subalgebra_labels'])})  "
                     f"b = {r['coefficient']}  dim = {r['dimension']}")
    lines.append(f"total dimension {total} (module dimension {weyl_dimension(rs, mu)})")
    if match is not None:
        lines.append(f"oracle match: {match}")
    _emit(args.format, "branch", lines, algebra=rs.name, splint=s.name, weight=labels,
          rows=rows, total_dimension=total, oracle_match=match)
    return 0 if match in (None, True) else 1


def cmd_affine_branch(args):
    from . import affine as af
    rs, s, labels, aw = _inputs(args, True)
    gc = cached_affine_character(rs, aw, args.grade_max, _cache_dir(args))
    series = af.branch_affine_to_subalgebra(rs, s, aw, args.grade_max, gc=gc)
    match = None
    if args.oracle:
        match = series.entries == af.branch_affine_direct(rs, s, aw, args.grade_max,
                                                          gc=gc).entries
    view = s.subalgebra_view()
    rows = []
    for nu in sorted(series.weights(), key=lambda v: _weight_key(rs, v)):
        rows.append({"ambient_labels": _ints(rs.dynkin_labels(nu)),
                     "subalgebra_labels": _ints(view.labels(nu)),
                     "series": series.series(nu)})
    lines = [f"graded branching of {rs.name} level {aw.level} weight "
             f"({_labels_str(labels)}) to subalgebra of {s.name}, grades 0..{args.grade_max}:"]
    for r in rows:
        lines.append(f"  nu = ({_labels_str(r['ambient_labels'])})  "
                     f"sub ({_labels_str(r['subalgebra_labels'])})  b(q) = {r['series']}")
    if match is not None:
        lines.append(f"oracle match: {match}")
    _emit(args.format, "affine_branch", lines, algebra=rs.name, splint=s.name, weight=labels,
          level=aw.level, grade_max=args.grade_max, rows=rows, oracle_match=match)
    return 0 if match in (None, True) else 1


def cmd_strings(args):
    from . import affine as af
    rs, _, labels, aw = _inputs(args)
    gc = cached_affine_character(rs, aw, args.grade_max, _cache_dir(args))
    bs = af.graded_branch_to_g(rs, aw, args.grade_max, gc)
    support = sorted(bs.weights(), key=lambda v: _weight_key(rs, v))
    rows = [{"labels": _ints(rs.dynkin_labels(nu)),
             "sigma": af.string_function(rs, aw, nu, args.grade_max, gc)}
            for nu in support]
    lines = [f"string functions of {rs.name} level {aw.level} weight "
             f"({_labels_str(labels)}), grades 0..{args.grade_max}:"]
    for r in rows:
        lines.append(f"  nu = ({_labels_str(r['labels'])})  sigma(q) = {r['sigma']}")
    fields = dict(algebra=rs.name, weight=labels, level=aw.level,
                  grade_max=args.grade_max, rows=rows)
    if args.emit == "matrix":
        bound = max(rs.inner(rs.rho, nu) for nu in support)
        mm = af.multiplicity_matrix(rs, bound)
        minv = af.invert_multiplicity_matrix(mm)
        n = len(mm.basis)
        sigma = [af.string_function(rs, aw, v, args.grade_max, gc) for v in mm.basis]
        bvec = [[sum(minv[i][j] * sigma[j][g] for j in range(n))
                 for g in range(args.grade_max + 1)] for i in range(n)]
        direct = [[bs.entries.get((v, g), 0) for g in range(args.grade_max + 1)]
                  for v in mm.basis]
        ident = all(sum(minv[i][l] * mm.mat[l][j] for l in range(n)) == (i == j)
                    for i in range(n) for j in range(n))
        consistent = ident and bvec == direct
        basis_labels = [_ints(rs.dynkin_labels(v)) for v in mm.basis]
        lines.append(f"multiplicity matrix basis (labels): {basis_labels}")
        lines.append("M:")
        lines += ["  " + " ".join(f"{x:3d}" for x in row) for row in mm.mat]
        lines.append("M^-1:")
        lines += ["  " + " ".join(f"{x:3d}" for x in row) for row in minv]
        lines.append("b = M^-1 sigma (rows follow the basis):")
        lines += [f"  {row}" for row in bvec]
        lines.append(f"consistency (M^-1 M = 1 and b matches direct decomposition): "
                     f"{consistent}")
        fields.update(basis=basis_labels, matrix=mm.mat, inverse=minv,
                      b_from_sigma=bvec, consistent=consistent)
    _emit(args.format, "strings", lines, **fields)
    return 0 if fields.get("consistent", True) else 1


def cmd_qdim(args):
    from . import affine as af
    rs, _, labels, aw = _inputs(args)
    gc = cached_affine_character(rs, aw, args.grade_max, _cache_dir(args))
    series = af.q_dimension(rs, aw, args.grade_max, gc=gc)
    lines = [f"q-dimension of {rs.name} level {aw.level} weight "
             f"({_labels_str(labels)}): {series}"]
    _emit(args.format, "qdim", lines, algebra=rs.name, weight=labels, level=aw.level,
          grade_max=args.grade_max, series=series)
    return 0


def cmd_verify(args):
    from . import qseries as qs
    from .characters import weyl_identity
    from .splints import Report
    identities = ([args.identity] if args.identity != "all"
                  else ["weyl", "branching", "denominator",
                        "theta-product", "theta-sum"])
    # the Weyl identity needs no splint, but a given splint names the algebra
    rs, s, _, _ = _inputs(args, any(i != "weyl" for i in identities))
    n = args.grade_max
    series_verifiers = {"denominator": qs.verify_denominator_splint,
                        "theta-product": qs.verify_theta_products,
                        "theta-sum": qs.verify_theta_sums}
    reports = []
    for ident in identities:
        if ident == "weyl":
            reports.append(Report(weyl_identity(rs), name="weyl",
                                  detail="group-ring Weyl denominator identity"))
        elif ident == "branching":
            reports.append(s.branching_status(args.max_label))
        else:
            reports.append(series_verifiers[ident](s, n))
    lines = []
    rows = []
    for rep in reports:
        mismatch = rep.first_mismatch
        extra = "" if mismatch is None else f" (first mismatch at q^{mismatch})"
        lines.append(f"{rep.name}: {'pass' if rep else 'FAIL'} - {rep.detail}{extra}")
        rows.append({"identity": rep.name, "passed": rep.passed, "detail": rep.detail,
                     "first_mismatch": None if mismatch is None else str(mismatch)})
    _emit(args.format, "verify", lines, splint=None if s is None else s.name,
          algebra=rs.name, grade_max=n, results=rows)
    return 0 if all(reports) else 1


# ---------------------------------------------------------------------------
# parser


# the flags of the subcommands, (flag, add_argument keywords) in help order
_COMMON = [("--algebra", dict(help="simple factors, e.g. G2 or A1xA1")),
           ("--format", dict(choices=["text", "json"], default="text")),
           ("--cache-dir", dict(help=f"cache directory (default ${CACHE_ENV})")),
           ("--no-cache", dict(action="store_true", help="bypass the cache"))]
_WEIGHT = [("--weight", dict(help="Dynkin labels, comma separated"))]
_LEVEL = [("--level", dict(type=int, help="affine level k")),
          ("--grade-max", dict(type=int, default=3, help="grade cutoff N"))]
_SPLINT = [("--splint", dict(help="catalog splint, e.g. A2A2 or G2:A2A2")),
           ("--splint-file", dict(help="load a splint from a JSON file"))]
_ORACLE = [("--oracle", dict(action="store_true",
                             help="also run the brute-force route and report a match flag"))]

# name -> (help, handler, arguments), in the order the full parser lists them
COMMANDS = {
    "roots": ("root system data", cmd_roots, _COMMON),
    "splint": ("list or check catalog splints", cmd_splint,
               [("action", dict(choices=["list", "check"]))] + _COMMON + _SPLINT),
    "fan": ("injection fan coefficients", cmd_fan, _COMMON + _SPLINT),
    "branch": ("finite branching through a splint", cmd_branch,
               _COMMON + _WEIGHT + _SPLINT + _ORACLE),
    "affine-branch": ("graded branching to the subalgebra", cmd_affine_branch,
                      _COMMON + _WEIGHT + _LEVEL + _SPLINT + _ORACLE),
    "strings": ("string functions of an affine module", cmd_strings,
                _COMMON + _WEIGHT + _LEVEL
                + [("--emit", dict(choices=["series", "matrix"], default="series",
                                   help="also emit the multiplicity matrix machinery"))]),
    "qdim": ("q-dimension series", cmd_qdim, _COMMON + _WEIGHT + _LEVEL),
    "verify": ("verify splint identities", cmd_verify,
               [("--identity", dict(choices=["weyl", "branching", "denominator",
                                             "theta-product", "theta-sum", "all"],
                                    default="all")),
                ("--max-label", dict(type=int, default=None,
                                     help="probe bound for the branching dual-route check"))]
               + _COMMON + [("--grade-max", dict(type=int, default=4, help="grade cutoff N"))]
               + _SPLINT),
}


def make_parser(command=None):
    """The parser with the subparser of `command` only, or of every command
    for None.  A command process builds only its own; its help and usage
    errors read the same as the full parser's, whose usage line lists all
    eight commands."""
    ap = argparse.ArgumentParser(
        prog="splintbranch",
        description="Exact splint branching for simple and affine Lie algebras")
    # one subparser keeps the usage line of all eight; argparse also names
    # the action by its metavar in errors, so the full parser keeps the
    # default, which says "command"
    metavar = None if command is None else "{" + ",".join(COMMANDS) + "}"
    sub = ap.add_subparsers(dest="command", required=True, metavar=metavar)
    for name in COMMANDS if command is None else [command]:
        help_text, func, arguments = COMMANDS[name]
        p = sub.add_parser(name, help=help_text)
        for flag, kwargs in arguments:
            p.add_argument(flag, **kwargs)
        p.set_defaults(func=func)
    return ap


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    args = make_parser(argv[0] if argv and argv[0] in COMMANDS else None).parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (AssertionError, ArithmeticError) as exc:
        detail = " ".join(str(exc).split())
        print(f"internal error: {type(exc).__name__}: {detail}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
