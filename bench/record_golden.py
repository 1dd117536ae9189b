"""Rewrite ``golden.json``, the values the benchmark's correctness checks expect.

Run from the root of a checkout, only when a change is meant to alter the
model's numbers or the prepared data:

    python3 bench/record_golden.py
"""

from __future__ import annotations

import json
import os
import shutil
import sys

from run import BLAS_THREADS, WORK_DIR, load_package


def main() -> int:
    os.environ["OPENBLAS_NUM_THREADS"] = str(BLAS_THREADS)
    if load_package() is None:
        print("error: no mixedvit package under src/", file=sys.stderr)
        return 2
    from workloads import GOLDEN_PATH, SIZES, WORKLOADS

    golden = {}
    work = WORK_DIR / f"golden-{os.getpid()}"
    try:
        for name, workload_cls in WORKLOADS.items():
            for size in SIZES[name]:
                values = workload_cls(size, 0, work).golden()
                if "error" in values:
                    print(f"error: {name}/{size}: {values['error']}",
                          file=sys.stderr)
                    return 1
                golden[f"{name}/{size}"] = values
    finally:
        shutil.rmtree(work, ignore_errors=True)
    GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
