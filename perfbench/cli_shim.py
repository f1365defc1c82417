"""Traced CLI command: `python3 perfbench/cli_shim.py TRACE_FILE <cli args>`.

Imports splintbranch.cli (timed as cli.import_s), installs the benchmark's
wrappers, runs splintbranch.cli.main on the remaining arguments and writes
the process's spans and counters to TRACE_FILE.  Exit code and output are
those of the CLI.
"""

import json
import sys
import time

import tracer as tr


def main():
    trace_file, argv = sys.argv[1], sys.argv[2:]
    t0 = time.perf_counter()
    import splintbranch.cli as cli
    import_s = time.perf_counter() - t0
    tracer = tr.Tracer()
    tracer.install()
    tracer.count("cli.import_s", import_s)
    tracer.op = 0
    try:
        code = cli.main(argv)
    finally:
        tracer.active = False
        with open(trace_file, "w") as fh:
            json.dump(tracer.snapshot(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
