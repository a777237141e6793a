"""The four workloads of the flock-coeffs benchmark and their correctness gates.

A workload is a list of operations.  `Op.run` calls the program and returns
its output; `Op.check` turns that output into failure messages (none when
every gate passes).  The seed reaches the program only through the inputs
built here: the operation order, the seeded random field and the seed of
`run_verification`.  Every seed does the same amount of work.

Why each workload exists, and what each metric should move, is in NOTES.md.
"""

from __future__ import annotations

import csv
import functools
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import flock_coeffs as fc
from flock_coeffs import cli

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE_FILE = HERE / "reference.json"

# Agreement with the seed outputs, relative to the largest |entry| of a set.
# Forcing the other elliptic formulation or doubling n moves the entries by
# at most ~1e-12 of that scale, so this leaves room for such changes and
# still catches any wrong bracket, sign or slot.
REFERENCE_RTOL = 1e-9
CLOSED_FORM_TOL = 1e-10
ORTHOGONALITY_TOL = 1e-9

KAPPA = 0.1
HIGHN_N = 256
SWEEP_N = 64
SWEEP_SPECS = ("const:1", "affine:1,0.3", "evenpoly:1,0.5")
SWEEP_D = (0.02, 2.0, 25)  # d-min, d-max, steps
FIELD_CASES = ((128, 2), (64, 4))  # cells per axis, scheme order
VERIFY_D = 0.5
VERIFY_N = 64
ORACLE_M = 20000


@dataclass
class Op:
    name: str
    items: int  # coefficient sets, grid cells or reports produced
    run: Callable  # run(kernel) -> output; kernel is None unless the op owns one
    check: Callable  # check(output) -> list of failure messages
    kernel: object = None


@dataclass
class Workload:
    name: str
    item: str  # what items_per_ref_cpu_s counts
    build: Callable  # build(seed, warm, outdir) -> list[Op]
    serial: Callable | None = None  # the same sets without the CLI pool


# --- gates --------------------------------------------------------------------

@functools.cache
def reference() -> dict:
    return json.loads(REFERENCE_FILE.read_text())["sets"]


def set_key(model: str, params, d: float, n: int, kappa: float) -> str:
    return f"{model}:{','.join(f'{p:g}' for p in params)} d={d:.17g} n={n} kappa={kappa:g}"


def hydro_values(h) -> list:
    return [h.c1, h.c2, h.c3, h.beta, h.gamma, *(float(z) for z in h.zeta)]


def check_set(key: str, model: str, params, d: float, values) -> list:
    """Reference agreement, plus the closed forms when nu is constant."""
    ref = reference().get(key)
    if ref is None:
        return [f"{key}: no reference entry"]
    v = np.asarray(values, dtype=float)
    r = np.asarray(ref, dtype=float)
    if v.shape != r.shape or not np.all(np.isfinite(v)):
        return [f"{key}: malformed or non-finite coefficient set"]
    msgs = []
    err = float(np.max(np.abs(v - r)) / np.max(np.abs(r)))
    if not err <= REFERENCE_RTOL:
        msgs.append(f"{key}: off the reference by {err:.3e} (tolerance {REFERENCE_RTOL:g})")
    if model == "const":
        # nu = nu0: Langevin mean c1 = coth(nu0/d) - d/nu0, and c3 = d/nu0
        a = params[0] / d
        c1_err = abs(v[0] - (1.0 / math.tanh(a) - 1.0 / a))
        c3_err = abs(v[2] - d / params[0]) / (d / params[0])
        if not max(c1_err, c3_err) <= CLOSED_FORM_TOL:
            msgs.append(f"{key}: closed forms missed by c1 {c1_err:.3e}, c3 {c3_err:.3e}")
    return msgs


def check_hydro(h) -> list:
    key = set_key(h.kernel_model, h.kernel_params, h.d, h.n, h.kappa)
    return check_set(key, h.kernel_model, h.kernel_params, h.d, hydro_values(h))


def parse_spec(spec: str):
    model, _, params = spec.partition(":")
    return model, tuple(float(p) for p in params.split(","))


def read_sweep_csv(path: Path, spec: str):
    """(key, model, params, d, values) for each row the CLI wrote."""
    model, params = parse_spec(spec)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    for row in rows:
        d, *values = (float(v) for v in row)
        yield set_key(model, params, d, SWEEP_N, KAPPA), model, params, d, values


def check_sweep(spec: str):
    def check(out) -> list:
        rc, path = out
        if rc != 0:
            return [f"{spec}: cli exit code {rc}"]
        rows = list(read_sweep_csv(path, spec))
        msgs = [] if len(rows) == SWEEP_D[2] else [f"{spec}: {len(rows)} rows"]
        for row in rows:
            msgs += check_set(*row)
        return msgs

    return check


def check_fields(out) -> list:
    corr, state = out
    if not (np.all(np.isfinite(corr.r1)) and np.all(np.isfinite(corr.r2))):
        return ["non-finite r1 or r2"]
    dots = np.abs(np.einsum("...i,...i->...", corr.r2, state.omega))
    ratio = float(np.max(dots / (np.linalg.norm(corr.r2, axis=-1) + np.finfo(float).eps)))
    if not ratio < ORTHOGONALITY_TOL:
        return [f"|Omega.r2|/|r2| reaches {ratio:.3e}"]
    return []


def check_report(report) -> list:
    return [f"verification check {c.name} failed" for c in report.checks if not c.passed]


# --- set-up -------------------------------------------------------------------

def warm_up():
    """The warm-up set; fields-grid also uses it as its precomputed coefficients."""
    return fc.compute_coefficients(fc.constant_kernel(1.0, d=1.0), n=SWEEP_N, kappa=KAPPA)


# --- workloads ----------------------------------------------------------------


def _coefficient_set(n):
    return lambda k: fc.compute_coefficients(k, n=n, kappa=KAPPA)


def build_highn(seed, warm, outdir):
    kernels = [*fc.registry_kernels(d=0.1), fc.constant_kernel(1.0, d=0.02)]
    return [Op(f"{k.model} d={k.d:g}", 1, _coefficient_set(HIGHN_N), check_hydro, k)
            for k in kernels]


def sweep_argv(spec: str, path: Path) -> list:
    d_min, d_max, steps = SWEEP_D
    return ["coeffs", "--nu", spec, "--d-min", str(d_min), "--d-max", str(d_max),
            "--steps", str(steps), "--n", str(SWEEP_N), "--kappa", str(KAPPA),
            "--format", "csv", "-o", str(path)]


def build_sweep(seed, warm, outdir):
    ops = []
    for spec in SWEEP_SPECS:
        path = outdir / f"{parse_spec(spec)[0]}.csv"
        argv = sweep_argv(spec, path)
        ops.append(Op(spec, SWEEP_D[2], lambda _k, argv=argv, path=path: (cli.main(argv), path),
                      check_sweep(spec)))
    return ops


def serial_sweep(seed, warm, outdir):
    """The sweep's sets through compute_coefficients, one after another."""
    ops = []
    for spec in SWEEP_SPECS:
        model, params = parse_spec(spec)
        for d in np.linspace(*SWEEP_D):
            k = fc.make_kernel(model, params, float(d))
            ops.append(Op(f"{spec} d={d:g}", 1, _coefficient_set(SWEEP_N), check_hydro, k))
    return ops


def build_fields(seed, warm, outdir):
    ops = []
    for cells, order in FIELD_CASES:
        state = fc.make_field("random-smooth", (cells,) * 3, seed=seed)

        def run(_k, state=state, order=order):
            return fc.evaluate_corrections(state, warm, scheme_order=order), state

        ops.append(Op(f"{cells}^3 order {order}", cells**3, run, check_fields))
    return ops


def build_verify(seed, warm, outdir):
    def run(k):
        return fc.run_verification(kernel=k, kappa=KAPPA, n=VERIFY_N, quick=False,
                                   oracle_m=ORACLE_M, seed=seed)

    return [Op(k.model, 1, run, check_report, k) for k in fc.registry_kernels(d=VERIFY_D)]


WORKLOADS = {
    w.name: w for w in (
        Workload("coeffs-highn", "coefficient sets", build_highn),
        Workload("coeffs-sweep", "coefficient sets", build_sweep, serial_sweep),
        Workload("fields-grid", "grid cells", build_fields),
        Workload("verify-full", "verification reports", build_verify),
    )
}
