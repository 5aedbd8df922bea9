"""Time one benchmark set-up in a fresh interpreter.

    python3 bench/setup_probe.py WORKLOAD SEED WORKDIR PROFILE

Imports loglap, numpy and scipy, writes the workload's inputs into WORKDIR
and loads them, then prints the seconds from interpreter start-up to ready
and removes WORKDIR.  run.py calls it to sample set-up time more than once
per run.
"""

import time

T0 = time.perf_counter()

import shutil  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import pin  # noqa: E402
import workloads  # noqa: E402


def main(argv) -> int:
    name, seed, workdir, profile = argv
    try:
        workloads.setup(name, int(seed), Path(workdir), pin.THREADS, profile)
        print(repr(time.perf_counter() - T0))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
