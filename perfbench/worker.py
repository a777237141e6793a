"""One measuring process of an untraced run; run.py starts them in turn.

    python3 perfbench/worker.py WORKLOAD SEED SECONDS INDEX

Expects the environment run.py sets up (BLAS pinned, ./src on PYTHONPATH).
Prints one JSON object with the raw samples as its last line.
"""

import json
import sys
import time

if __name__ == "__main__":
    t0 = time.perf_counter()
    import flock_coeffs  # noqa: F401  (timed: the import every user pays)

    import_s = time.perf_counter() - t0

    import measure

    name, seed, seconds, index = sys.argv[1], int(sys.argv[2]), float(sys.argv[3]), int(sys.argv[4])
    print(json.dumps(measure.worker_run(name, seed, seconds, index, import_s)))
