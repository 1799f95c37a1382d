"""One set-up of an in-process workload, in a fresh interpreter.

``python3 perfbench/probe.py <workload>`` imports the program, designs
the alphabets and makes the first calls, then exits.  The benchmark
times whole runs of this script to measure ``setup_s``.
"""

import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from perfbench.workloads import IN_PROCESS  # noqa: E402

if __name__ == "__main__":
    IN_PROCESS[sys.argv[1]]().setup()
