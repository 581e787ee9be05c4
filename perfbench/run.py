#!/usr/bin/env python3
"""edgeflow benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.  See
README.md in this directory.
"""

import os
import sys

# Thread pools are pinned before numpy loads: one BLAS thread and one
# fiber-diagonalization thread, at most nproc in total.  Two BLAS threads
# measured slower than one at these matrix sizes.
PINNED_THREADS = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "EDGEFLOW_THREADS": "1",
}

if __name__ == "__main__":
    os.environ.update(PINNED_THREADS)
    import harness

    sys.exit(harness.main())
