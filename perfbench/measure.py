"""Set-up, the timed phase of a worker, the traced pass and the re-anchor cases.

Untraced run: run.py starts worker processes one after another; each sets
up once and runs the workload's operations in a seed-shuffled cycle
(`worker_run`).  Outputs are checked outside the timed region.

Traced run: set up once, run one untraced pass, then one pass with every
traced function wrapped (spans.py), then the serial comparison where the
workload has one, then the ROADMAP re-anchor cases untraced.
"""

from __future__ import annotations

import ctypes
import json
import os
import random
import resource
import statistics
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
import scipy

import flock_coeffs as fc
import spans
import workloads as wl
from calibration import CAL_REFERENCE_S, Calibrator

OUT = wl.HERE / "out"
ANCHOR_REPEATS = 3

# Figures the ROADMAP baseline gives for the re-anchor cases (best of 5 on a
# 2-core machine), printed beside the traced run's own measurement.
ROADMAP_ANCHORS = {
    "anchor.n64_d1_s": "0.040-0.073 s over d in [0.02, 5]",
    "anchor.n64_d002_s": "0.040-0.073 s over d in [0.02, 5]",
    "anchor.n256_d002_s": "3.5 s",
    "anchor.field64_decompose_s": "0.47 s",
    "anchor.field64_r1_s": "0.02 s",
    "anchor.field64_r2_s": "0.24 s",
}


# glibc adapts its mmap and trim thresholds to the sizes freed so far, so
# whether an array comes from reused heap or from fresh pages depended on which
# operations ran before it, and so on the seed's operation order.  An n=256
# set then took 2.6-3.0 s, with 7e5 minor page faults and about 1 s of system
# time, against 1.8 s without them, and coeffs-highn's pass time differed by a
# third between seeds.  Fixed thresholds make this independent of history.
# Arrays above 32 MiB, the largest threshold glibc accepts, still get fresh
# pages on every call.
M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3
MMAP_THRESHOLD = 32 << 20
TRIM_THRESHOLD = 1 << 30


def fix_allocator() -> str:
    try:
        libc = ctypes.CDLL("libc.so.6")
    except OSError:
        return "default (no glibc)"
    if libc.mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD) and libc.mallopt(
            M_TRIM_THRESHOLD, TRIM_THRESHOLD):
        return f"glibc mmap_threshold={MMAP_THRESHOLD} trim_threshold={TRIM_THRESHOLD}"
    return "default (mallopt refused)"


def pin_to_one_cpu(index: int) -> str:
    """Run this process on one CPU, chosen by the worker index.

    Unpinned, the CLI sweep's two pool threads spread over both vCPUs and hand
    the GIL back and forth between them: that added about 30% CPU time, varying
    with the load on the other vCPU, for no gain in wall time.  Pinned, the
    calibration loop also runs on the CPU the operations ran on."""
    try:
        cpus = sorted(os.sched_getaffinity(0))
        cpu = cpus[index % len(cpus)]
        os.sched_setaffinity(0, {cpu})
    except (AttributeError, OSError) as exc:
        return f"unpinned ({type(exc).__name__})"
    return f"cpu {cpu} of {cpus}"


def environment(allocator: str, cpu: str = "unpinned") -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "blas_threads": {v: os.environ.get(v) for v in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "flock_coeffs_threads": os.environ.get("FLOCK_COEFFS_THREADS", "unset"),
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "allocator": allocator,
        "cpu": cpu,
        "blas": blas.get("openblas configuration") or f"{blas['name']} {blas.get('version')}",
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # Linux: KiB


class Outcome:
    """Attempted operations and the messages of those that failed."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def record(self, name, msgs):
        self.attempted += 1
        if msgs:
            self.failures.append((name, msgs))


def run_op(op, outcome, kernel=None):
    """Call one operation and check its output; returns the wall seconds and
    the process CPU seconds (every thread, user + system) the call took."""
    t0, c0 = time.perf_counter(), time.process_time()
    try:
        out, failure = op.run(kernel if kernel is not None else op.kernel), None
    except Exception as exc:  # a failed operation is counted, not fatal
        out, failure = None, [f"{type(exc).__name__}: {exc}"]
    wall, cpu = time.perf_counter() - t0, time.process_time() - c0
    outcome.record(op.name, failure or op.check(out))
    return wall, cpu


def set_up(workload, seed, outdir, outcome):
    """The workload's inputs and the warm-up set; returns (ops, warm, seconds)."""
    t0 = time.perf_counter()
    warm = wl.warm_up()
    ops = workload.build(seed, warm, outdir)
    seconds = time.perf_counter() - t0
    outcome.record("warm-up", wl.check_hydro(warm))
    return ops, warm, seconds


def shuffled(ops, key):
    order = list(ops)
    random.Random(key).shuffle(order)
    return order


def worker_run(name, seed, seconds, index, import_s) -> dict:
    """One measuring process: set up once, then cycle through the operations
    until `seconds` have passed and each has run at least once.  Returns the
    raw samples for run.py to pool."""
    allocator = fix_allocator()
    pinned = pin_to_one_cpu(index)
    workload = wl.WORKLOADS[name]
    outcome = Outcome()
    OUT.mkdir(exist_ok=True)
    calibrate = Calibrator()
    try:
        with tempfile.TemporaryDirectory(dir=OUT) as tmp:
            ops, _, setup_s = set_up(workload, seed, Path(tmp), outcome)
            order = shuffled(ops, f"{seed}-{index}")
            times = {op.name: [] for op in ops}
            cpu_times = {op.name: [] for op in ops}
            ratios = {op.name: [] for op in ops}
            cal_before = calibrate(0.0)
            cal = list(cal_before)
            t_start = time.perf_counter()
            i = 0
            while i < len(order) or time.perf_counter() - t_start < seconds:
                op = order[i % len(order)]
                wall, cpu = run_op(op, outcome)
                cal_after = calibrate(cpu)
                times[op.name].append(wall)
                cpu_times[op.name].append(cpu)
                ratios[op.name].append(cpu / statistics.median(cal_before + cal_after))
                cal += cal_after
                cal_before = cal_after
                i += 1
    finally:
        calibrate.close()
    return {
        "env": environment(allocator, pinned),
        "setup_s": import_s + setup_s,
        "times": times,
        "cpu_times": cpu_times,
        "cal_s": cal,
        "cal_ratios": ratios,
        "cal_reference_s": CAL_REFERENCE_S,
        "items": {op.name: op.items for op in ops},
        "item": workload.item,
        "peak_rss_mb": peak_rss_mb(),
        "attempted": outcome.attempted,
        "failures": outcome.failures,
    }


def timed_pass(order, outcome, tracer=None):
    t0 = time.perf_counter()
    for op in order:
        if tracer is None:
            run_op(op, outcome)
            continue
        with tracer.span(f"op.{op.name}"):
            kernel = tracer.instrument_kernel(op.kernel) if op.kernel is not None else None
            run_op(op, outcome, kernel)
    return time.perf_counter() - t0


def best_of(repeats, fn):
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def anchors(seed, warm) -> dict:
    """The ROADMAP re-anchor cases: n=64/256 set times and the 64^3 field split."""
    set_time = lambda d, n, reps: best_of(reps, lambda: fc.compute_coefficients(
        fc.constant_kernel(1.0, d=d), n=n))
    state = fc.make_field("random-smooth", (64, 64, 64), seed=seed)
    bundle = fc.decompose_gradients(state)
    return {
        "anchor.n64_d1_s": set_time(1.0, 64, ANCHOR_REPEATS),
        "anchor.n64_d002_s": set_time(0.02, 64, ANCHOR_REPEATS),
        "anchor.n256_d002_s": set_time(0.02, 256, 1),
        "anchor.field64_decompose_s": best_of(ANCHOR_REPEATS,
                                              lambda: fc.decompose_gradients(state)),
        "anchor.field64_r1_s": best_of(ANCHOR_REPEATS, lambda: fc.evaluate_r1(
            state, bundle, warm.beta, warm.gamma)),
        "anchor.field64_r2_s": best_of(ANCHOR_REPEATS,
                                       lambda: fc.evaluate_r2(state, bundle, warm)),
    }


def traced_run(name, seed):
    """One untraced and one traced pass, so every count is per pass."""
    allocator = fix_allocator()
    workload = wl.WORKLOADS[name]
    outcome = Outcome()
    run_id = f"{name}-seed{seed}-{os.getpid()}-{time.time_ns()}"
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        ops, warm, _ = set_up(workload, seed, Path(tmp), outcome)
        order = shuffled(ops, seed)
        untraced_s = timed_pass(order, outcome)

        tracer = spans.Tracer(run_id)
        with spans.instrumented(tracer):
            traced_s = timed_pass(order, outcome, tracer)

        metrics = dict.fromkeys(("cli.sweep_s", "cli.serial_s", "cli.pool_gain"), 0.0)
        if workload.serial is not None:
            serial_s = timed_pass(workload.serial(seed, warm, Path(tmp)), outcome)
            metrics.update({"cli.sweep_s": untraced_s, "cli.serial_s": serial_s,
                            "cli.pool_gain": serial_s / untraced_s})
    del ops, order  # frees the workload's fields before the anchor cases

    tracer.compute_self_times()
    metrics.update(spans.layer_metrics(tracer))
    metrics["trace.overhead_s"] = traced_s - untraced_s
    metrics["trace.spans"] = len(tracer.spans)
    anchor = anchors(seed, warm)
    metrics.update(anchor)

    env = environment(allocator)
    path = OUT / f"spans-{name}-seed{seed}.jsonl"
    tracer.write(path, {"run": run_id, "workload": name, "seed": seed, "env": env,
                        "untraced_pass_s": untraced_s, "traced_pass_s": traced_s},
                 {"spans": spans.span_summary(tracer), "metrics": metrics,
                  "roadmap_anchors": ROADMAP_ANCHORS})
    print(json.dumps({"env": env}))
    print(f"{name} | pass untraced {untraced_s:.4f} s, traced {traced_s:.4f} s; "
          f"{len(tracer.spans)} spans written to {path.relative_to(wl.ROOT)}")
    for key, roadmap in ROADMAP_ANCHORS.items():
        print(f"{name} | {key}: {anchor[key]:.4f} s (ROADMAP baseline: {roadmap})")
    return outcome.attempted, outcome.failures, metrics


LAYER_UNITS = {
    "quad.rule_s": "s", "quad.nodes": "count",
    "elliptic.gci_s": "s", "elliptic.profiles_s": "s", "elliptic.solves": "count",
    "elliptic.max_residual": "1", "elliptic.fallback_ratio": "ratio",
    "coeffs.c123_s": "s", "coeffs.checks_s": "s", "coeffs.assembly_s": "s",
    "coeffs.unattributed_s": "s",
    "kernel.evals": "count", "kernel.eval_s": "s",
    "fields.decompose_s": "s", "fields.r1_s": "s", "fields.r2_s": "s",
    "fields.cells": "count", "fields.bytes_computed": "B",
    "oracle.fd_s": "s", "oracle.mode_s": "s", "oracle.sphere_s": "s",
    "verify.run_s": "s", "verify.checks": "count", "verify.checks_failed": "count",
    "cli.sweep_s": "s", "cli.serial_s": "s", "cli.pool_gain": "ratio",
    "trace.overhead_s": "s", "trace.spans": "count",
    **{k: "s" for k in ROADMAP_ANCHORS},
}
