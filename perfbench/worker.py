"""One workload run in a process of its own.

    python3 perfbench/worker.py run --workload W --seed N --seconds S --out FILE
        [--trace] [--no-oracles] [--tmp DIR]
    python3 perfbench/worker.py weyl-identity ALGEBRA

`run` writes one JSON document to --out: the time set-up finished (on the
system-wide monotonic clock, so the parent can subtract its spawn time),
every op with its latency, verdict and output digest, the peak RSS and, with
--trace, the per-layer metrics.  Ops run one at a time (a closed loop with a
single client); checks and digests are computed outside the timed region.

Shared hosts change speed by up to 1.8x for seconds at a time, so every op
is bracketed by two runs of a fixed reference loop.  An op's latency is
reported at reference speed: raw time x REF_S / (mean reference time).  The
raw time and the reference times are kept in the op record.

It expects the environment that perfbench/run.py pins (PYTHONPATH=src and a
fixed PYTHONHASHSEED) and the checkout root as working directory.
"""

from __future__ import annotations

import argparse
import heapq
import json
import os
import resource
import subprocess
import sys
import time
from fractions import Fraction

import tracer as tr
import workloads as wl

HERE = os.path.dirname(os.path.abspath(__file__))
CLI_OP_TIMEOUT_S = 60
REF_S = 0.004             # nominal reference-loop time: latencies are scaled to it


def reference():
    """Time a fixed pure-Python loop shaped like the library's inner loops
    (Fraction arithmetic, tuple keys, dict and heap updates)."""
    t0 = time.perf_counter()
    table, heap, acc = {}, [], Fraction(0)
    for i in range(1, 700):
        key = (Fraction(i, 7), Fraction(i % 5, 3), i)
        table[key] = table.get(key, 0) + 1
        acc += Fraction(1, i % 13 + 1)
        heapq.heappush(heap, (-i, key))
    return time.perf_counter() - t0


def timed(fn):
    """(result or None, error or None, raw seconds, [reference before, after])."""
    before = reference()
    error = None
    t0 = time.perf_counter()
    try:
        result = fn()
    except Exception as exc:      # an op that raises is a failed op
        result, error = None, f"{type(exc).__name__}: {exc}"
    raw = time.perf_counter() - t0
    return result, error, raw, [before, reference()]


def at_reference_speed(raw, refs):
    return raw * REF_S / (sum(refs) / len(refs))


def _op(name, raw, refs, ok, detail="", digest_text=None, stopped=False):
    # a stopped op ran against a wall-clock budget, so it is not rescaled
    scaled = raw if stopped else at_reference_speed(raw, refs)
    return {"name": name, "ms": scaled * 1000.0, "raw_ms": raw * 1000.0,
            "ref_ms": [r * 1000.0 for r in refs], "ok": ok, "detail": detail,
            "digest": None if digest_text is None else wl.digest(digest_text),
            "stopped": stopped}


def budget_op(spec):
    """Run the op in a child process and stop it at its budget."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "weyl-identity", spec["algebra"]]
    name = f"weyl identity {spec['algebra']} (budget {spec['budget_s']} s)"

    def run():
        return subprocess.run(cmd, capture_output=True, text=True, timeout=spec["budget_s"])

    proc, error, raw, refs = timed(run)
    if proc is None:
        stopped = error.startswith("TimeoutExpired")
        return _op(name, raw, refs, False, "stopped at budget" if stopped else error,
                   "stopped" if stopped else None, stopped=stopped)
    verdict = proc.stdout.strip()
    ok = proc.returncode == 0 and verdict == "True"
    return _op(name, raw, refs, ok, "" if ok else f"exit {proc.returncode}, verdict {verdict!r}",
               verdict)


def run_inprocess(args, specs):
    import splintbranch  # noqa: F401  (import is part of set-up)

    tracer = None
    if args.trace:
        tracer = tr.Tracer()
        tracer.install()
    ctx = wl.setup(specs, oracles=not args.no_oracles)
    t_ready = time.monotonic()
    setup_ref = reference()

    ops = []
    op_times = {}
    for spec in specs:
        if spec["kind"] == "weyl-budget":
            ops.append(budget_op(spec))
            continue
        item = wl.build_item(spec, ctx)
        runs = []
        for name, fn in item.ops:
            if tracer:
                tracer.op = len(ops) + len(runs)
            result, error, raw, refs = timed(fn)
            runs.append((name, result, error, raw, refs))
            if tracer:
                op_times[tracer.op] = raw
                tracer.op = None
        if tracer:
            tracer.active = False
        verdicts = item.check([r[1] for r in runs])
        if tracer:
            tracer.active = True
        for (name, _, error, raw, refs), (ok, detail, text) in zip(runs, verdicts):
            ops.append(_op(name, raw, refs, ok and error is None, error or detail, text))

    out = {"t_ready": t_ready, "setup_ref": setup_ref, "ops": ops,
           "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
    if tracer:
        tracer.active = False
        snap = tracer.snapshot()
        out["layers"] = tr.layer_metrics([snap])
        out["coverage"] = list(tr.op_coverage(snap["spans"], op_times).values())
    return out


def run_cli(args, specs):
    cache = os.path.join(args.tmp, "cache")
    traces_dir = os.path.join(args.tmp, "traces")
    os.makedirs(cache)
    os.makedirs(traces_dir)
    ops, traces, coverage = [], [], []
    passes = {}
    stdout_cold = {}
    for pass_name in ("cold", "warm"):
        total = 0.0
        for i, spec in enumerate(specs):
            argv = spec["argv"] + ["--cache-dir", cache]
            trace_file = os.path.join(traces_dir, f"{pass_name}-{i}.json")
            if args.trace:
                cmd = [sys.executable, os.path.join(HERE, "cli_shim.py"), trace_file] + argv
            else:
                cmd = [sys.executable, "-m", "splintbranch.cli"] + argv
            name = f"{pass_name}: splintbranch {' '.join(spec['argv'])}"
            proc, error, raw, refs = timed(lambda: subprocess.run(
                cmd, capture_output=True, text=True, timeout=CLI_OP_TIMEOUT_S))
            if proc is None:
                stopped = error.startswith("TimeoutExpired")
                op = _op(name, raw, refs, False, error, None, stopped=stopped)
                total += op["ms"] / 1000.0
                ops.append(op)
                continue
            ok, detail = wl.check_cli_output(spec["argv"], proc.returncode, proc.stdout)
            if pass_name == "cold":
                stdout_cold[i] = proc.stdout
            elif proc.stdout != stdout_cold.get(i):
                ok, detail = False, "warm stdout differs from cold stdout"
            if not ok and proc.stderr:
                detail += f" ({proc.stderr.strip().splitlines()[-1]})"
            op = _op(name, raw, refs, ok, detail, proc.stdout)
            total += op["ms"] / 1000.0
            ops.append(op)
            if args.trace and os.path.exists(trace_file):
                with open(trace_file) as fh:
                    snap = json.load(fh)
                traces.append(snap)
                coverage.append(sum(s[2] - s[1] for s in snap["spans"] if s[3] is None) / raw)
        passes[pass_name] = total
    out = {"ops": ops, "cold_pass_s": passes["cold"], "warm_pass_s": passes["warm"],
           "peak_rss_kb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss}
    if args.trace:
        out["layers"] = tr.layer_metrics(traces)
        out["coverage"] = coverage
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="mode", required=True)
    p = sub.add_parser("run")
    p.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--tmp")
    p.add_argument("--trace", action="store_true")
    p.add_argument("--no-oracles", action="store_true",
                   help="skip the slow oracle checks (another pass runs them)")
    p = sub.add_parser("weyl-identity")
    p.add_argument("algebra")
    args = ap.parse_args(argv)

    if args.mode == "weyl-identity":
        print(wl.weyl_identity(args.algebra))
        return 0
    specs = wl.plan(args.workload, args.seed, args.seconds)
    if args.workload == "cli-session":
        out = run_cli(args, specs)
    else:
        out = run_inprocess(args, specs)
    with open(args.out, "w") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
