"""Self-test of the benchmark harness.

    python3 perfbench/selftest.py        (from the root of a checkout)

Checks, on small runs of every workload:
  * self-time arithmetic on a synthetic nested span tree;
  * a wrapped (traced) run and an unwrapped run return identical results,
    compared through the per-op output digests;
  * every counter repeats exactly across two traced runs of one seed.
Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run as bench  # noqa: E402
import tracer as tr  # noqa: E402
import workloads as wl  # noqa: E402

SECONDS = 1          # each workload's smallest batch
SEED = 7


def check_self_times():
    # a [0,10] with children b [1,4], c [3,6] and a nested a [7,9]; b has d [2,3]
    spans = [["a", 0.0, 10.0, None, 0], ["b", 1.0, 4.0, 0, 0], ["c", 3.0, 6.0, 0, 0],
             ["d", 2.0, 3.0, 1, 0], ["a", 7.0, 9.0, 0, 0]]
    assert tr.self_times(spans) == [3.0, 2.0, 3.0, 1.0, 2.0], tr.self_times(spans)
    calls, total, self_s = tr.span_totals(spans)
    assert calls["a"] == 2 and total["a"] == 10.0 and self_s["a"] == 5.0
    assert total["b"] == 3.0 and self_s["b"] == 2.0
    assert tr.op_coverage(spans, {0: 20.0}) == {0: 0.5}
    print("self-time arithmetic: ok")


def run_worker(workload, tmp, tag, trace):
    root = os.getcwd()
    env = bench.pinned_env(root, tmp)
    out = os.path.join(tmp, f"{tag}.json")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "run", "--workload", workload,
           "--seed", str(SEED), "--seconds", str(SECONDS), "--out", out,
           "--tmp", os.path.join(tmp, tag)] + (["--trace"] if trace else [])
    subprocess.run(cmd, cwd=root, env=env, check=True, timeout=bench.WORKER_TIMEOUT_S)
    with open(out) as fh:
        return json.load(fh)


def check_workload(workload, tmp):
    plain = run_worker(workload, tmp, f"{workload}-plain", False)
    first = run_worker(workload, tmp, f"{workload}-traced1", True)
    second = run_worker(workload, tmp, f"{workload}-traced2", True)
    digests = [o["digest"] for o in plain["ops"]]
    assert digests == [o["digest"] for o in first["ops"]], f"{workload}: traced results differ"
    for o in plain["ops"]:
        assert o["ok"] or o["stopped"], f"{workload}: {o['name']}: {o['detail']}"
    counts = {k: v for k, v in first["layers"].items() if not k.endswith("_s")}
    again = {k: v for k, v in second["layers"].items() if not k.endswith("_s")}
    assert counts == again, f"{workload}: counters differ: " + str(
        {k: (v, again[k]) for k, v in counts.items() if v != again[k]})
    nonzero = sorted(k for k, v in counts.items() if v)
    print(f"{workload}: {len(digests)} ops, traced == untraced, "
          f"{len(nonzero)} nonzero counters repeat exactly")


def main():
    if not os.path.isfile(os.path.join("src", "splintbranch", "__init__.py")):
        print("error: run from the root of a splintbranch checkout", file=sys.stderr)
        return 2
    check_self_times()
    tmp = os.path.join(HERE, "out", f"selftest-{os.getpid()}")
    os.makedirs(tmp)
    try:
        for workload in wl.WORKLOADS:
            check_workload(workload, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
