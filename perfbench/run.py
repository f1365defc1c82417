"""splintbranch benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from `src/`.
With --trace 0 the workload runs untraced and the last stdout line reports
the end-to-end metrics; with --trace 1 it runs once untraced and once with
the benchmark's wrappers installed, and reports the per-layer metrics.  Every
op's output is checked.  The run record (metadata, per-op latencies, verdicts
and output digests) is written to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import tracer as tr  # noqa: E402
import workloads as wl  # noqa: E402
from worker import at_reference_speed, reference  # noqa: E402

PASSES = 3                     # fresh-process passes over the same ops per run
WORKER_TIMEOUT_S = 150
HASH_SEED = "0"
PERCENTILES = (75, 90, 95, 99, 99.9)
SRC_MODULES = ("__init__", "rootsystem", "characters", "splints", "affine", "qseries", "cli")


def pinned_env(root, tmp):
    """Child environment: no inherited PYTHON* settings and no user cache."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("PYTHON") and k != "SPLINTBRANCH_CACHE_DIR"}
    env["PYTHONPATH"] = os.path.join(root, "src")
    env["PYTHONHASHSEED"] = HASH_SEED
    env["TMPDIR"] = tmp
    return env


def spawn(cmd, env, root, timeout=WORKER_TIMEOUT_S):
    """Run a child to completion; returns the monotonic spawn time."""
    t_spawn = time.monotonic()
    proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True,
                          timeout=timeout)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"{' '.join(cmd[:4])} ... exited with {proc.returncode}")
    return t_spawn, time.monotonic()


def worker(args, env, root, tmp, tag, extra=()):
    out = os.path.join(tmp, f"{tag}.json")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "run",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds / PASSES), "--out", out, "--tmp", os.path.join(tmp, tag),
           *extra]
    ref = reference()
    t_spawn, _ = spawn(cmd, env, root)
    with open(out) as fh:
        res = json.load(fh)
    res["t_spawn"] = t_spawn
    res["spawn_ref"] = ref
    return res


def import_times(env, root):
    """cli-session set-up: one `import splintbranch.cli` in a fresh
    interpreter, spawn to exit."""
    cmd = [sys.executable, "-c", "import splintbranch.cli"]
    samples = []
    for _ in range(PASSES):
        before = reference()
        t0, t1 = spawn(cmd, env, root)
        samples.append(at_reference_speed(t1 - t0, [before, reference()]))
    return samples


def tail(latencies):
    """Highest percentile of PERCENTILES with at least 10 ops beyond it
    (nearest rank), as (percentile, value)."""
    xs = sorted(latencies)
    n = len(xs)
    best = None
    for p in PERCENTILES:
        rank = max(1, -(-p * n // 100))            # ceil(p n / 100)
        if n - rank >= 10:
            best = (p, xs[int(rank) - 1])
    if best is None:
        best = (50, statistics.median(xs))
    return best


def git_sha(root):
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def src_lines(root):
    out = {}
    for m in SRC_MODULES:
        with open(os.path.join(root, "src", "splintbranch", f"{m}.py")) as fh:
            out[m] = sum(1 for _ in fh)
    return out


def verdict(ops):
    """(correct, failed): an op stopped at its budget is a failed op but not
    a wrong answer; any other failure is both."""
    failed = [o for o in ops if not o["ok"]]
    correct = all(o["stopped"] for o in failed)
    return correct, len(failed)


def end_to_end(passes, setups):
    """Metrics over PASSES passes of the same ops: medians of the per-pass
    wall time, set-up time and peak RSS; op percentiles over all passes."""
    lat = [o["ms"] for res in passes for o in res["ops"]]
    p, tail_ms = tail(lat)
    metrics = {
        "wall_s": (statistics.median(sum(o["ms"] for o in res["ops"]) / 1000.0
                                     for res in passes), "s"),
        "op_p50_ms": (statistics.median(lat), "ms"),
        "op_tail_ms": (tail_ms, "ms"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (statistics.median(res["peak_rss_kb"] for res in passes) / 1024.0, "MB"),
    }
    info = {"passes": len(passes), "ops_per_pass": len(passes[0]["ops"]),
            "tail_percentile": p, "pooled_ops": len(lat), "setup_samples_s": setups,
            "fail_ratio": sum(not o["ok"] for res in passes for o in res["ops"]) / len(lat)}
    if "cold_pass_s" in passes[0]:
        info["cold_pass_s"] = statistics.median(res["cold_pass_s"] for res in passes)
        info["warm_pass_s"] = statistics.median(res["warm_pass_s"] for res in passes)
    return metrics, info


def same_outputs(runs):
    """Every run of the same ops produced the same output digests."""
    first = [o["digest"] for o in runs[0]["ops"]]
    return all([o["digest"] for o in res["ops"]] == first for res in runs[1:])


def main(argv=None):
    ap = argparse.ArgumentParser(description="splintbranch benchmark")
    ap.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = os.getcwd()
    # one CPU for this process and every child, so that the reference loop
    # and the ops it brackets run at the same speed
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    if not os.path.isfile(os.path.join(root, "src", "splintbranch", "__init__.py")):
        print("error: run from the root of a splintbranch checkout (src/splintbranch "
              "not found)", file=sys.stderr)
        return 2
    out_dir = os.path.join(HERE, "out")
    tmp = os.path.join(out_dir, f"tmp-{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(tmp)
    env = pinned_env(root, tmp)
    try:
        # compile once, so that no timed process pays for bytecode compilation
        spawn([sys.executable, "-m", "compileall", "-q", "src", os.path.relpath(HERE, root)],
              env, root)
        meta = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                "trace": args.trace, "git_sha": git_sha(root),
                "python": platform.python_version(), "nproc": os.cpu_count(),
                "pythonhashseed": HASH_SEED, "src_lines": src_lines(root)}
        if args.trace == 0:
            passes = [worker(args, env, root, tmp, f"pass{i}", [] if i == 0 else ["--no-oracles"])
                      for i in range(PASSES)]
            if args.workload == "cli-session":
                setups = import_times(env, root)
            else:
                setups = [at_reference_speed(res["t_ready"] - res["t_spawn"],
                                             [res["spawn_ref"], res["setup_ref"]])
                          for res in passes]
            metrics, info = end_to_end(passes, setups)
            runs = passes
        else:
            plain = worker(args, env, root, tmp, "untraced")
            traced = worker(args, env, root, tmp, "traced", ["--trace", "--no-oracles"])
            # at reference speed, so that host speed drift between the two
            # passes does not show up as tracing overhead
            wall = sum(o["ms"] for o in plain["ops"]) / 1000.0
            wall_traced = sum(o["ms"] for o in traced["ops"]) / 1000.0
            cover = traced["coverage"]
            metrics = {name: (traced["layers"][name], "s" if name.endswith("_s") else "count")
                       for name, _, _ in tr.LAYER_METRICS}
            info = {"wall_s_untraced": wall, "wall_s_traced": wall_traced,
                    "tracing_overhead_s": wall_traced - wall,
                    "top_level_span_share": {"min": min(cover), "median": statistics.median(cover),
                                             "max": max(cover)} if cover else None}
            runs = [traced, plain]
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    ops = [o for res in runs for o in res["ops"]]
    correct, failed = verdict(ops)
    info["outputs_identical_across_runs"] = same_outputs(runs)
    correct = correct and info["outputs_identical_across_runs"]
    record = {"meta": meta, "info": info,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
              "ops": ops}
    with open(os.path.join(out_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w") as fh:
        json.dump(record, fh, indent=1)

    for o in ops:
        if not o["ok"]:
            print(f"failed op: {o['name']}: {o['detail']}")
    for k, v in info.items():
        print(f"{k}: {v}")
    for k, (v, u) in metrics.items():
        print(f"{k}: {v} {u}")
    print(json.dumps({"correct": correct, "attempted": len(ops), "failed": failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
