"""One CLI command as `python -m mathieuseries.cli` runs it, then a probe burst.

    python3 bench/cli_child.py <cli arguments>

The command runs through `runpy.run_module(..., run_name="__main__",
alter_sys=True)`, as `-m` runs it, with the working directory first on
`sys.path`, where `-m` puts it.  Once the command has exited, a burst of
host-speed probes runs in the same process.  The last line on stderr holds
the probe times and the burst's own duration, which `run.py` takes out of the
command's latency.  The exit code is the command's.
"""

import os
import runpy
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
#: Marks the stderr line that carries the burst.
MARK = "#cli-child-probes "
#: Probes after each command, after one discarded probe that runs cold.
PROBES = 5


def main() -> None:
    sys.path[0] = os.getcwd()
    code = 0
    try:
        runpy.run_module("mathieuseries.cli", run_name="__main__", alter_sys=True)
    except SystemExit as exc:
        code = exc.code
    sys.stdout.flush()

    start = time.perf_counter()
    sys.path.insert(0, BENCH)
    import json

    import calibrate

    probes = calibrate.burst(PROBES + 1)[1:]
    print(MARK + json.dumps({"probes_s": probes, "burst_s": time.perf_counter() - start}),
          file=sys.stderr)
    sys.exit(code)


if __name__ == "__main__":
    main()
