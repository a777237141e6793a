"""flock-coeffs benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from ./src.
The launcher pins BLAS to one thread before numpy loads and prints one JSON
object as the last line of standard output.

--trace 0 reports the end-to-end metrics.  The time is split over WORKERS
processes started one after another (worker.py).  Each one pins itself to one
CPU, sets up and then runs the workload's operations, dividing each one's CPU
time by the calibration loop timed around it (calibration.py); their samples
are pooled here, so that one process that happens to run fast or slow does
not decide the result.

--trace 1 runs in this process: one untraced and one traced pass, then the
re-anchor cases; --seconds does not apply to it.  It reports the per-layer metrics and writes the spans to
perfbench/out/.  NOTES.md explains the workloads and the metrics.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# the keys of workloads.WORKLOADS, listed here so that the launcher can
# check the name without importing numpy
WORKLOAD_NAMES = ("coeffs-highn", "coeffs-sweep", "fields-grid", "verify-full")
WORKERS = 3
WORKER_TIMEOUT_S = 150
E2E_UNITS = {"ref_cpu_s": "s", "items_per_ref_cpu_s": "1/s", "peak_rss_mb": "MB",
             "setup_s": "s"}


def parse_args(argv):
    p = argparse.ArgumentParser(description="flock-coeffs benchmark")
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not args.seconds > 0:
        p.error("--seconds must be positive")
    return args


def untraced(args):
    """Run the measuring processes in turn and pool their samples."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    runs = []
    for index in range(WORKERS):
        done = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), args.workload, str(args.seed),
             repr(args.seconds / WORKERS), str(index)],
            env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
            timeout=WORKER_TIMEOUT_S, check=True)
        runs.append(json.loads(done.stdout.strip().splitlines()[-1]))

    # each operation's samples from every worker are pooled before the median
    pooled = lambda key: {op: [t for r in runs for t in r[key][op]] for op in runs[0][key]}
    times, cpu_times, ratios = pooled("times"), pooled("cpu_times"), pooled("cal_ratios")
    wall = sum(statistics.median(t) for t in times.values())
    cpu = sum(statistics.median(t) for t in cpu_times.values())
    cal = [c for r in runs for c in r["cal_s"]]
    # CPU seconds at the reference speed of the calibration loop: each sample
    # was divided by the loop time around it (measure.py)
    ref_cpu = runs[0]["cal_reference_s"] * sum(statistics.median(q) for q in ratios.values())
    attempted = sum(r["attempted"] for r in runs)
    failures = [f for r in runs for f in r["failures"]]
    setups = [r["setup_s"] for r in runs]

    print(json.dumps({"env": runs[0]["env"]}))
    for op, t in times.items():
        c = cpu_times[op]
        print(f"{args.workload} | {op}: {len(t)} runs, wall median {statistics.median(t):.4f} s "
              f"(min {min(t):.4f}, max {max(t):.4f}), CPU median {statistics.median(c):.4f} s "
              f"(min {min(c):.4f}, max {max(c):.4f})")
    print(f"{args.workload} | pass: wall {wall:.4f} s, CPU {cpu:.4f} s; calibration loop "
          f"median {statistics.median(cal):.4f} s over {len(cal)} samples (reference "
          f"{runs[0]['cal_reference_s']} s); {ref_cpu:.4f} CPU s at the reference speed")
    print(f"{args.workload} | an item is one of the {runs[0]['item']}; "
          f"{attempted} operations attempted in {WORKERS} processes, "
          f"error_rate {len(failures) / attempted:.4g}, "
          f"set-up samples {', '.join(f'{s:.4f}' for s in setups)} s")
    metrics = {
        "ref_cpu_s": ref_cpu,
        "items_per_ref_cpu_s": sum(runs[0]["items"].values()) / ref_cpu,
        "peak_rss_mb": max(r["peak_rss_mb"] for r in runs),
        "setup_s": statistics.median(setups),
    }
    return attempted, failures, metrics


def result(attempted, failures, metrics: dict, units: dict) -> dict:
    """The result object; each failed operation is printed before it."""
    for name, msgs in failures:
        print(f"FAILED {name}: {'; '.join(msgs[:3])}")
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "flock_coeffs" / "__init__.py").is_file():
        sys.stderr.write(f"error: no flock_coeffs sources under {SRC}; "
                         "run from the root of a source checkout\n")
        return 2
    # OpenBLAS reads these when numpy loads it, so they are set before any
    # import of numpy, here and in the workers.  FLOCK_COEFFS_THREADS is left
    # unset so the CLI sweep keeps its default worker count.
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    os.environ.pop("FLOCK_COEFFS_THREADS", None)

    if args.trace:
        sys.path.insert(0, str(SRC))
        import measure

        out = result(*measure.traced_run(args.workload, args.seed),
                     measure.LAYER_UNITS)
    else:
        out = result(*untraced(args), E2E_UNITS)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
