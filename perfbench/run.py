#!/usr/bin/env python3
"""Run one rfsquash benchmark workload and print its metrics.

    python3 perfbench/run.py --workload pilot_d8 --seed 1729 --seconds 15 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics of one traced round with
``--trace 1``. ``--smoke`` shrinks every workload to a seconds-long run.
The exit code is 0 only when every operation succeeded and every output
check passed.
"""

from __future__ import annotations

import argparse
import ctypes
import os
import sys
from pathlib import Path

WORKLOAD_NAMES = ("pilot_d8", "wide_p30", "serve_d5")

# glibc mallopt parameters.
M_TRIM_THRESHOLD = -1
M_MMAP_THRESHOLD = -3
MALLOC_THRESHOLD_BYTES = 32 * 1024 * 1024


def pin_malloc() -> bool:
    """Fix glibc's mmap and trim thresholds for the whole run.

    By default glibc raises its mmap threshold whenever a large block is
    freed, so whether a numpy temporary costs fresh page faults depends on
    what the process freed before. Measured on a 2-core box, that history
    moved the same squash by up to 40% between repetitions. Fixed thresholds
    make every repetition allocate the same way.
    """
    try:
        libc = ctypes.CDLL("libc.so.6")
    except OSError:
        return False
    return bool(
        libc.mallopt(M_MMAP_THRESHOLD, MALLOC_THRESHOLD_BYTES)
        and libc.mallopt(M_TRIM_THRESHOLD, 2 * MALLOC_THRESHOLD_BYTES)
    )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1729, help="workload seed")
    parser.add_argument("--seconds", type=float, default=15.0, help="measured time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny forests, seconds-long run")
    args = parser.parse_args()

    # The single-threaded baseline: BLAS and the library's worker pool are
    # pinned before numpy is first imported, which happens in ``bench``.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    os.environ["RFSQ_THREADS"] = "1"
    malloc_pinned = pin_malloc()

    src = Path(__file__).resolve().parent.parent / "src"
    if not (src / "rfsquash" / "__init__.py").is_file():
        print(f"error: no rfsquash source tree at {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    import bench

    return bench.run(
        args.workload, args.seed, args.seconds, bool(args.trace), args.smoke, malloc_pinned
    )


if __name__ == "__main__":
    sys.exit(main())
