"""Set-up probe for run.py: import quasiperm from ./src, build one
workload's inputs and questions, then print the monotonic clock.

    python3 perfbench/probe.py WORKLOAD SEED WORKDIR

run.py starts this several times and takes, for each, the time from just
before the process starts to the printed clock reading.
"""

import sys
import time
from pathlib import Path

import workloads
from run import load_program

if __name__ == "__main__":
    name, seed, workdir = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
    workloads.build(name, seed, load_program(Path.cwd()), workdir)
    print(time.monotonic())
