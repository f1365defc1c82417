"""Spans and counters recorded from outside the library.

The tracer wraps public functions and methods of the splintbranch modules
(never editing `src/`).  Every wrapped call records one span
(name, start, end, parent, op id) in memory; counters are derived from the
call's arguments and return value only, so they repeat exactly for the same
inputs.  `layer_metrics` turns the spans and counters into the per-layer
metrics listed in BENCHMARK.json.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

MODULES = ("rootsystem", "characters", "splints", "affine", "qseries", "cli")

# Per-layer metrics: (metric, kind, span or counter name).
#   total  -- time in outermost spans of that name (nested same-name spans
#             are not counted twice)
#   self   -- span time minus the part of it that child spans cover
#   calls  -- number of spans of that name
#   count  -- counter value
LAYER_METRICS = [
    ("rootsystem.build_calls", "calls", "rootsystem.build"),
    ("rootsystem.build_s", "total", "rootsystem.build"),
    ("rootsystem.weyl_orbit_calls", "calls", "rootsystem.weyl_orbit"),
    ("rootsystem.orbit_terms", "count", "rootsystem.orbit_terms"),
    ("rootsystem.weyl_orbit_s", "total", "rootsystem.weyl_orbit"),
    ("rootsystem.dominant_rep_calls", "calls", "rootsystem.dominant_rep"),
    ("rootsystem.dominant_rep_s", "total", "rootsystem.dominant_rep"),
    ("rootsystem.lattice_points", "count", "rootsystem.lattice_points"),
    ("rootsystem.lattice_s", "total", "rootsystem.lattice"),
    ("characters.freudenthal_calls", "calls", "characters.freudenthal"),
    ("characters.freudenthal_distinct", "count", "characters.freudenthal_distinct"),
    ("characters.dominant_weights", "count", "characters.dominant_weights"),
    ("characters.freudenthal_self_s", "self", "characters.freudenthal"),
    ("characters.character_s", "total", "characters.character"),
    ("characters.divide_calls", "calls", "characters.divide"),
    ("characters.divide_dividend_terms", "count", "characters.divide_dividend_terms"),
    ("characters.divide_quotient_terms", "count", "characters.divide_quotient_terms"),
    ("characters.divide_s", "total", "characters.divide"),
    ("characters.mul_calls", "calls", "characters.mul"),
    ("characters.mul_term_pairs", "count", "characters.mul_term_pairs"),
    ("characters.mul_s", "total", "characters.mul"),
    ("characters.decompose_calls", "calls", "characters.decompose"),
    ("characters.decompose_modules", "count", "characters.decompose_modules"),
    ("characters.decompose_s", "total", "characters.decompose"),
    ("splints.load_calls", "calls", "splints.load"),
    ("splints.load_s", "total", "splints.load"),
    ("splints.probe_calls", "calls", "splints.probe"),
    ("splints.probe_weights", "count", "splints.probe_weights"),
    ("splints.probe_s", "total", "splints.probe"),
    ("splints.branch_via_splint_s", "total", "splints.branch_via_splint"),
    ("splints.branch_direct_s", "total", "splints.branch_direct"),
    ("affine.character_calls", "calls", "affine.character"),
    ("affine.character_terms", "count", "affine.character_terms"),
    ("affine.character_s", "total", "affine.character"),
    ("affine.character_self_s", "self", "affine.character"),
    ("affine.branch_to_g_s", "total", "affine.branch_to_g"),
    ("affine.q_dimension_s", "total", "affine.q_dimension"),
    ("affine.branch_to_subalgebra_s", "total", "affine.branch_to_subalgebra"),
    ("qseries.mul_calls", "calls", "qseries.mul"),
    ("qseries.mul_term_pairs", "count", "qseries.mul_term_pairs"),
    ("qseries.mul_self_s", "self", "qseries.mul"),
    ("qseries.verify_denominator_s", "total", "qseries.verify_denominator"),
    ("qseries.verify_theta_products_s", "total", "qseries.verify_theta_products"),
    ("qseries.verify_theta_sums_s", "total", "qseries.verify_theta_sums"),
    ("cli.import_s", "count", "cli.import_s"),
    ("cli.main_s", "total", "cli.main"),
    ("cli.cache_hits", "count", "cli.cache_hits"),
    ("cli.cache_misses", "count", "cli.cache_misses"),
    ("cli.cache_bytes", "count", "cli.cache_bytes"),
    ("cli.cache_hit_s", "total", "cli.cache_hit"),
    ("cli.cache_miss_self_s", "self", "cli.cache_miss"),
] + [(f"{m}.raised", "count", f"{m}.raised") for m in MODULES]


class Tracer:
    """In-memory spans and counters for one process."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent index, op id]
        self.counters = defaultdict(int)
        self.distinct = defaultdict(set)
        self.op = None
        self.active = True       # off while the benchmark checks results
        self._cache_doc = None
        self._stack = []

    # -- recording ---------------------------------------------------------

    def begin(self, name):
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.op])
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def end(self, idx, name=None):
        span = self.spans[idx]
        span[2] = time.perf_counter()
        if name is not None:
            span[0] = name
        self._stack.pop()

    def count(self, name, n=1):
        self.counters[name] += n

    def _raised(self, module, exc):
        seen = getattr(exc, "_perfbench_modules", None)
        if seen is None:
            seen = set()
            try:
                exc._perfbench_modules = seen
            except AttributeError:
                pass
        if module not in seen:
            seen.add(module)
            self.counters[f"{module}.raised"] += 1

    # -- wrapping ----------------------------------------------------------

    def wrap(self, fn, span, module, after=None):
        """Wrapper recording a span around fn.  after(tracer, args, kwargs,
        result) runs once the span has closed, so counter bookkeeping is not
        timed."""
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            idx = tracer.begin(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer.end(idx)
                tracer._raised(module, exc)
                raise
            tracer.end(idx)
            if after is not None:
                after(tracer, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def wrap_generator(self, fn, span, module, counter):
        """Generator wrapper: one span per item produced, so the consumer's
        time between items is not charged to the generator."""
        tracer = self

        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            if not tracer.active:
                yield from it
                return
            while True:
                idx = tracer.begin(span)
                try:
                    item = next(it)
                except StopIteration:
                    tracer.end(idx)
                    return
                except BaseException as exc:
                    tracer.end(idx)
                    tracer._raised(module, exc)
                    raise
                tracer.end(idx)
                tracer.counters[counter] += 1
                yield item

        wrapper.__wrapped__ = fn
        return wrapper

    def patch_function(self, fn, wrapper):
        """Replace fn in every splintbranch module namespace that bound it."""
        hits = 0
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == "splintbranch" or name.startswith("splintbranch.")):
                continue
            for attr, val in list(vars(mod).items()):
                if val is fn:
                    setattr(mod, attr, wrapper)
                    hits += 1
        if not hits:
            raise RuntimeError(f"{fn.__name__} is bound in no splintbranch module")

    def install(self):
        """Wrap the public functions of every traced module."""
        import splintbranch.affine as af
        import splintbranch.characters as ch
        import splintbranch.cli as cli
        import splintbranch.qseries as qs
        import splintbranch.rootsystem as rsm
        import splintbranch.splints as sp

        def n_terms(key):
            return lambda t, a, k, r: t.count(key, len(r))

        def freudenthal_after(t, a, k, r):
            # a weight vector determines its Dynkin labels, so (algebra, vector)
            # pairs are as distinct as (algebra, labels) pairs
            t.distinct["characters.freudenthal_distinct"].add((a[0].name, a[1]))
            t.count("characters.dominant_weights", len(r))

        def divide_after(t, a, k, r):
            t.count("characters.divide_dividend_terms", len(a[0]))
            t.count("characters.divide_quotient_terms", len(r))

        def probe_after(t, a, k, r):
            t.count("splints.probe_weights", (a[1] + 1) ** a[0].ambient.rank)

        def qmul_after(t, a, k, r):
            t.count("qseries.mul_term_pairs", len(a[0].terms) * len(a[1].terms))

        def cmul_after(t, a, k, r):
            t.count("characters.mul_term_pairs", len(a[0]) * len(a[1]))

        def affine_after(t, a, k, r):
            t.count("affine.character_terms", sum(len(layer) for layer in r.layers))

        w = self.wrap
        # methods are patched on their class
        setattr(rsm.RootSystem, "__init__",
                w(rsm.RootSystem.__init__, "rootsystem.build", "rootsystem"))
        setattr(rsm.RootSystem, "weyl_orbit",
                w(rsm.RootSystem.weyl_orbit, "rootsystem.weyl_orbit", "rootsystem",
                  n_terms("rootsystem.orbit_terms")))
        setattr(rsm.RootSystem, "dominant_representative",
                w(rsm.RootSystem.dominant_representative, "rootsystem.dominant_rep",
                  "rootsystem"))
        self.patch_function(rsm.lattice_points_in_ellipsoid,
                            self.wrap_generator(rsm.lattice_points_in_ellipsoid,
                                                "rootsystem.lattice", "rootsystem",
                                                "rootsystem.lattice_points"))

        self.patch_function(ch.dominant_multiplicities,
                            w(ch.dominant_multiplicities, "characters.freudenthal",
                              "characters", freudenthal_after))
        for fn in (ch.freudenthal_character, ch.character_via_weyl):
            self.patch_function(fn, w(fn, "characters.character", "characters"))
        self.patch_function(ch.divide_exact,
                            w(ch.divide_exact, "characters.divide", "characters", divide_after))
        setattr(ch.FormalCharacter, "__mul__",
                w(ch.FormalCharacter.__mul__, "characters.mul", "characters", cmul_after))
        self.patch_function(ch.decompose_character,
                            w(ch.decompose_character, "characters.decompose", "characters",
                              n_terms("characters.decompose_modules")))
        setattr(sp.SubalgebraView, "decompose",
                w(sp.SubalgebraView.decompose, "characters.decompose", "splints",
                  n_terms("characters.decompose_modules")))

        self.patch_function(sp.splint_from_dict, w(sp.splint_from_dict, "splints.load", "splints"))
        self.patch_function(sp.probe_tilde_branching,
                            w(sp.probe_tilde_branching, "splints.probe", "splints", probe_after))
        self.patch_function(sp.branch_via_splint,
                            w(sp.branch_via_splint, "splints.branch_via_splint", "splints"))
        self.patch_function(sp.branch_direct,
                            w(sp.branch_direct, "splints.branch_direct", "splints"))

        self.patch_function(af.affine_character,
                            w(af.affine_character, "affine.character", "affine", affine_after))
        self.patch_function(af.graded_branch_to_g,
                            w(af.graded_branch_to_g, "affine.branch_to_g", "affine"))
        self.patch_function(af.q_dimension, w(af.q_dimension, "affine.q_dimension", "affine"))
        self.patch_function(af.branch_affine_to_subalgebra,
                            w(af.branch_affine_to_subalgebra, "affine.branch_to_subalgebra",
                              "affine"))

        setattr(qs.QSeries, "__mul__",
                w(qs.QSeries.__mul__, "qseries.mul", "qseries", qmul_after))
        for fn, span in ((qs.verify_denominator_splint, "qseries.verify_denominator"),
                         (qs.verify_theta_products, "qseries.verify_theta_products"),
                         (qs.verify_theta_sums, "qseries.verify_theta_sums")):
            self.patch_function(fn, w(fn, span, "qseries"))

        self.patch_function(cli.main, w(cli.main, "cli.main", "cli"))
        self.patch_function(cli.cached_affine_character,
                            self._wrap_cache(cli.cached_affine_character, cli.json))
        self.patch_function(cli._layers_from_json, self._keep_doc(cli._layers_from_json, True))
        self.patch_function(cli._layers_to_json, self._keep_doc(cli._layers_to_json, False))

    def _keep_doc(self, fn, from_arg):
        """Remember the cache document read or written; its size is counted
        after the enclosing cache span closes."""
        tracer = self

        def wrapper(*args):
            result = fn(*args)
            tracer._cache_doc = args[0] if from_arg else result
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap_cache(self, fn, json):
        """cached_affine_character is a hit when it computes no affine
        character itself; the span is renamed once that is known."""
        tracer = self

        def wrapper(rs, aw, cutoff, cache_dir):
            if not tracer.active:
                return fn(rs, aw, cutoff, cache_dir)
            idx = tracer.begin("cli.cache")
            first_child = len(tracer.spans)
            tracer._cache_doc = None
            try:
                result = fn(rs, aw, cutoff, cache_dir)
            except BaseException as exc:
                tracer.end(idx)
                tracer._raised("cli", exc)
                raise
            computed = any(s[0] == "affine.character" and s[3] == idx
                           for s in tracer.spans[first_child:])
            if cache_dir is None:
                tracer.end(idx, "cli.cache_off")
                return result
            tracer.end(idx, "cli.cache_miss" if computed else "cli.cache_hit")
            tracer.count("cli.cache_misses" if computed else "cli.cache_hits")
            if tracer._cache_doc is not None:
                # the CLI writes json.dump(doc, sort_keys=True): same bytes
                tracer.count("cli.cache_bytes",
                             len(json.dumps(tracer._cache_doc, sort_keys=True)))
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- output ------------------------------------------------------------

    def snapshot(self):
        counters = dict(self.counters)
        for key, values in self.distinct.items():
            counters[key] = len(values)
        return {"spans": self.spans, "counters": counters}


def self_times(spans):
    """Per-span self time: duration minus the union of its children's
    intervals (children clipped to the parent interval)."""
    children = defaultdict(list)
    for i, s in enumerate(spans):
        if s[3] is not None:
            children[s[3]].append(i)
    out = []
    for i, (_, start, end, _, _) in enumerate(spans):
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted((max(spans[c][1], start), min(spans[c][2], end))
                             for c in children.get(i, ())):
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((end - start) - covered)
    return out


def span_totals(spans):
    """name -> (calls, outermost total seconds, self seconds)."""
    selfs = self_times(spans)
    calls = defaultdict(int)
    total = defaultdict(float)
    self_s = defaultdict(float)
    for i, s in enumerate(spans):
        name = s[0]
        calls[name] += 1
        self_s[name] += selfs[i]
        p = s[3]
        while p is not None and spans[p][0] != name:
            p = spans[p][3]
        if p is None:
            total[name] += s[2] - s[1]
    return calls, total, self_s


def layer_metrics(traces):
    """Per-layer metrics summed over the snapshots of several processes."""
    values = {name: 0 for name, _, _ in LAYER_METRICS}
    for trace in traces:
        calls, total, self_s = span_totals(trace["spans"])
        counters = trace["counters"]
        for name, kind, key in LAYER_METRICS:
            if kind == "calls":
                values[name] += calls.get(key, 0)
            elif kind == "total":
                values[name] += total.get(key, 0.0)
            elif kind == "self":
                values[name] += self_s.get(key, 0.0)
            else:
                values[name] += counters.get(key, 0)
    return values


def op_coverage(spans, op_times):
    """Share of each op's wall time covered by its top-level layer spans."""
    covered = defaultdict(float)
    for name, start, end, parent, op in spans:
        if parent is None and op is not None:
            covered[op] += end - start
    return {op: covered.get(op, 0.0) / t for op, t in op_times.items() if t > 0}
