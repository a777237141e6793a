"""Machine-speed calibration for the untraced run's workers.

The host's speed drifts by 20-40% over seconds to minutes, with CPU time
equal to wall time: other tenants share the cores and their caches.  Neither
more samples in a run nor CPU time alone steadies a pass time across runs.
So around every operation a worker has a child process on its CPU run a
fixed loop that uses no flock_coeffs code: a Python loop, small LAPACK
solves, streaming array arithmetic, a Legendre-Vandermonde product and a
3-D gradient (the kinds of work the coeffs and fields layers do) and a
write to 64 MiB of fresh pages (the fields layer's page faults).  Each
operation's CPU time is divided by the median loop time of the reps just
before and just after it, so fast and slow spells of the host cancel;
run.py takes the median of these ratios per operation and scales it by
CAL_REFERENCE_S.

This module imports only numpy, so the child starts quickly.
"""

import multiprocessing
import time

import numpy as np

# the median of one loop on a 2-vCPU Xeon VM, numpy 2.4.6, OpenBLAS one thread
CAL_REFERENCE_S = 0.072
CAL_SHARE = 0.1  # calibration CPU time as a share of the operations' CPU time
CAL_MIN_REPS = 3  # reps after each operation, so each ratio has >= 6 beside it
CAL_FRESH_DOUBLES = 1 << 23  # 64 MiB, above glibc's largest mmap threshold: new pages


def calibration_rep(data) -> float:
    """CPU seconds of one pass of the calibration loop."""
    c0 = time.process_time()
    s = 0
    for i in range(75000):
        s += i * i
    for _ in range(15):
        np.linalg.solve(data["matrix"], data["matrix"])
    y = data["buffer"]
    np.copyto(y, data["array"])
    for _ in range(3):
        y *= 1.0001
        y += 0.5
        np.sqrt(y, out=y)
    for _ in range(4):
        v = np.polynomial.legendre.legvander(data["nodes"], 255)
        v.T @ v
    for _ in range(2):
        np.gradient(data["field"])
    fresh = np.empty(CAL_FRESH_DOUBLES)
    fresh[:] = 1.0
    del fresh
    return time.process_time() - c0


def _calibration_server(conn):
    """Child process: answer each rep count with that many loop times."""
    data = {
        "matrix": np.random.default_rng(0).standard_normal((120, 120)) + 120 * np.eye(120),
        "array": np.linspace(0.0, 1.0, 1 << 21),  # 16 MiB: beyond L2
        "buffer": np.empty(1 << 21),  # in place, so only `fresh` below faults pages in
        "nodes": np.linspace(-1.0, 1.0, 425),
        "field": np.random.default_rng(1).standard_normal((64, 64, 64)),
    }
    while True:
        try:
            reps = conn.recv()
        except EOFError:  # the worker has gone
            return
        if reps is None:
            return
        conn.send([calibration_rep(data) for _ in range(reps)])


class Calibrator:
    """Runs the calibration loop in a child process started after the worker
    pinned itself, so it runs on the same CPU.  Its ~100 MB of arrays then
    stay out of the worker's peak RSS.  The worker waits while it runs."""

    def __init__(self):
        ctx = multiprocessing.get_context("spawn")
        self._conn, child = ctx.Pipe()
        self._proc = ctx.Process(target=_calibration_server, args=(child,), daemon=True)
        self._proc.start()
        child.close()
        # wait until the child has imported, built its arrays and run one loop
        # (after which glibc's adaptive thresholds are settled), so that it
        # does not compete with the worker's set-up for the CPU
        self._conn.send(1)
        self._conn.recv()

    def __call__(self, op_cpu_s: float) -> list:
        """Calibration samples after an operation, CAL_SHARE of its CPU time."""
        self._conn.send(max(CAL_MIN_REPS, round(CAL_SHARE * op_cpu_s / CAL_REFERENCE_S)))
        return self._conn.recv()

    def close(self):
        try:
            self._conn.send(None)
        except OSError:
            pass
        self._proc.join(10)
        if self._proc.is_alive():
            self._proc.kill()
            self._proc.join()
        self._conn.close()
