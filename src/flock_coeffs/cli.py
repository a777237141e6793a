"""Command-line front end.

Subcommands: `coeffs` (coefficient tables and sweeps), `profiles` (profile
dumps), `fields` (corrections on discrete fields), `verify` (the verification
suite).  Exit codes are a stable contract: 0 success, 1 usage/configuration
error, 2 invariant or verification failure, 3 numeric/solver failure.

Configuration comes from an optional key=value file (--config) with flags
taking precedence.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .coeffs import DEFAULT_DEGREE, _degree, _equilibrium, _profiles, compute_coefficients
from .elliptic import solve_gci
from .errors import ConfigError, FlockError, InvariantError, UsageError
from .fields import _save_csv, evaluate_corrections, load_field_csv, make_field, save_field_csv
from .kernel import SPATIAL_MODELS, kernel_from_config, parse_config
from .verify import run_verification

SWEEP_HEADER = "d,c1,c2,c3,beta,gamma," + ",".join(f"zeta{j}" for j in range(1, 14))


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage errors; the exit-code contract
    # reserves 2 for invariant failures, so remap to 1
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(UsageError.exit_code, f"{self.prog}: error: {message}\n")


def _build_parser():
    p = _Parser(prog="flock-coeffs",
                description="Transport coefficients and first-order corrections "
                            "for alignment-interaction hydrodynamics")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--config", help="key=value configuration file")
        sp.add_argument("--nu", help="alignment rate model, e.g. const:1 | "
                                     "affine:1,0.3 | evenpoly:1,0.5")
        sp.add_argument("--d", type=float, help="noise constant")
        sp.add_argument("--n", type=int, default=DEFAULT_DEGREE,
                        help=f"spectral degree (default {DEFAULT_DEGREE}); coeffs and fields "
                             "take it as a cap and stop where the profiles resolve")
        sp.add_argument("--kappa", type=float, help="nonlocality constant")
        sp.add_argument("--spatial", help="spatial kernel, e.g. ball:1 | gaussian:0.5")
        sp.add_argument("--output", "-o", help="output file or directory ('-' = stdout)")

    sp = sub.add_parser("coeffs", help="coefficient table for one d or a sweep")
    common(sp)
    sp.add_argument("--d-min", type=float)
    sp.add_argument("--d-max", type=float)
    sp.add_argument("--steps", type=int, help="number of sweep points (>= 1)")
    sp.add_argument("--format", choices=("csv", "json"), default="csv")

    sp = sub.add_parser("profiles", help="dump solved profiles as CSV + JSON sidecars")
    common(sp)

    sp = sub.add_parser("fields", help="evaluate corrections on a field state")
    common(sp)
    sp.add_argument("--field", default="uniform",
                    help="analytic field name (uniform, axial-sine, tilt-sine, "
                         "random-smooth)")
    sp.add_argument("--grid", default="16,16,16", help="cells per axis, e.g. 32,32,32")
    sp.add_argument("--lengths", help="box lengths per axis (default 2*pi each)")
    sp.add_argument("--param", action="append", default=[],
                    help="field parameter, key=value (repeatable)")
    sp.add_argument("--input", help="read the field state from CSV instead")
    sp.add_argument("--scheme-order", type=int, choices=(2, 4), default=2)
    sp.add_argument("--eps", type=float, default=1.0,
                    help="scale ratio multiplying the reported corrections")
    sp.add_argument("--seed", type=int, default=0)

    sp = sub.add_parser("verify", help="run the verification suite")
    common(sp)
    sp.add_argument("--quick", action="store_true", help="closed-form tier only")
    sp.add_argument("--oracle-m", type=int, default=4000,
                    help="dense-grid resolution for the FD cross-check")
    sp.add_argument("--seed", type=int, default=0)
    return p


def _merged_config(args):
    cfg = {}
    if args.config:
        try:
            text = Path(args.config).read_text()
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read config file {args.config}: {exc}") from None
        cfg = parse_config(text)
    if args.nu:
        model, _, params = args.nu.partition(":")
        cfg["nu.model"] = model
        if params:
            cfg["nu.params"] = params
    if args.d is not None:
        cfg["d"] = str(args.d)
    if args.kappa is not None:
        cfg["kappa"] = str(args.kappa)
    if args.spatial:
        model, _, param = args.spatial.partition(":")
        cfg["spatial.model"] = model
        if param and model in SPATIAL_MODELS:  # kernel_from_config names an unknown one
            cfg[SPATIAL_MODELS[model][0]] = param
    return cfg


def _resolve(args):
    kernel, kappa = kernel_from_config(_merged_config(args))
    return kernel, kappa, _degree(args.n)


def _write(path, save, *args):
    """save(out, *args), with out sys.stdout for a path of None or '-', else
    the Path, its directory made.  An OSError from making the directory or
    from writing is a ConfigError that names the path."""
    out = sys.stdout if path in (None, "-") else Path(path)
    try:
        if out is not sys.stdout:
            out.parent.mkdir(parents=True, exist_ok=True)
        save(out, *args)
    except OSError as exc:
        raise ConfigError(f"cannot write output {path or '-'}: {exc}") from None


def _save_json(out, payload):
    """payload as indented JSON to sys.stdout or the Path `out`."""
    (out.write if out is sys.stdout else out.write_text)(json.dumps(payload, indent=2) + "\n")


def _sweep_values(args):
    if args.d_min is not None or args.d_max is not None or args.steps is not None:
        if None in (args.d_min, args.d_max, args.steps):
            raise ConfigError("--d-min, --d-max and --steps must be given together")
        if args.steps < 1:
            raise ConfigError(f"--steps must be >= 1, got {args.steps}")
        for flag, value in (("--d-min", args.d_min), ("--d-max", args.d_max)):
            if not np.isfinite(value):
                raise ConfigError(f"{flag} must be finite, got {value}")
        if not (0 < args.d_min <= args.d_max):
            raise ConfigError("need 0 < d-min <= d-max")
        return list(np.linspace(args.d_min, args.d_max, args.steps))
    return None


def cmd_coeffs(args) -> int:
    kernel, kappa, n = _resolve(args)
    sweep = _sweep_values(args)

    def run(d):
        k = kernel if d is None else replace(kernel, d=float(d))
        return compute_coefficients(k, n=n, kappa=kappa)

    results = [run(None)] if sweep is None else [run(d) for d in sweep]

    if args.format == "json":
        payload = (results[0].to_json_dict() if sweep is None
                   else {"sweep": [r.to_json_dict() for r in results]})
        _write(args.output, _save_json, payload)
    else:
        rows = [[r.d, r.c1, r.c2, r.c3, r.beta, r.gamma, *r.zeta] for r in results]
        _write(args.output, _save_csv, SWEEP_HEADER, np.transpose(rows))
    return 0


def cmd_profiles(args) -> int:
    kernel, kappa, n = _resolve(args)
    outdir = Path(args.output or "profiles-out")

    # only the stages the dump writes: h, c and the five response profiles,
    # the profiles of run_pipeline(kernel, n, kappa)
    eq = _equilibrium(kernel, n, kappa)
    profiles = _profiles(kernel, solve_gci(kernel, n), n, eq)[1]

    def dump(name, prof, values=None, sing_order=0):
        values = prof.values if values is None else values
        _write(outdir / f"{name}.csv", _save_csv, "mu,value", (prof.rule.nodes, values))
        meta = prof.meta if prof.condition is None else {**prof.meta, "condition": prof.condition}
        sidecar = {"coefficients": list(prof.coef), "sing_order": sing_order, "meta": meta}
        _write(outdir / f"{name}.json", _save_json, sidecar)

    # the invariant profile is written as h, next to its derivative h' and
    # the full invariant g = sqrt(1-mu^2) h (with h's coefficients)
    h = profiles["gci"]
    dump("g", h, (1.0 - h.rule.nodes**2) ** 0.5 * h.values, sing_order=1)
    dump("h_prime", h.derivative())
    for name, prof in profiles.items():
        dump("h" if name == "gci" else name, prof)
    sys.stdout.write(f"wrote {len(profiles) + 2} profiles to {outdir}\n")
    return 0


def _parse_triplet(text, what, kind=float):
    try:
        parts = tuple(kind(v) for v in text.split(","))
    except ValueError:
        raise ConfigError(f"bad {what}: {text!r} is not three {kind.__name__} values")
    if len(parts) != 3:
        raise ConfigError(f"{what} needs three comma-separated values")
    return parts


def cmd_fields(args) -> int:
    kernel, kappa, n = _resolve(args)
    if args.input:
        state = load_field_csv(args.input)
    else:
        shape = _parse_triplet(args.grid, "--grid", int)
        lengths = _parse_triplet(args.lengths, "--lengths") if args.lengths else None
        params = {}
        for item in args.param:
            key, _, value = item.partition("=")
            if not _:
                raise ConfigError(f"--param expects key=value, got {item!r}")
            try:
                params[key] = float(value)
            except ValueError:
                raise ConfigError(f"--param {key}: {value!r} is not a number") from None
        state = make_field(args.field, shape, lengths, params, seed=args.seed)

    hydro = compute_coefficients(kernel, n=n, kappa=kappa)
    corr = evaluate_corrections(state, hydro, scheme_order=args.scheme_order,
                                eps=args.eps)

    outdir = Path(args.output or "fields-out")
    xyz = state.grid.coordinates()
    _write(outdir / "r1.csv", _save_csv, "x,y,z,r1", (*xyz, corr.r1))
    _write(outdir / "r2.csv", _save_csv, "x,y,z,r2x,r2y,r2z",
           (*xyz, *np.moveaxis(corr.r2, -1, 0)))
    if not args.input:
        _write(outdir / "state.csv", lambda out: save_field_csv(state, out))
    sys.stdout.write(f"wrote corrections for {state.grid.shape} grid to {outdir}\n")
    return 0


def cmd_verify(args) -> int:
    kernel, kappa, n = _resolve(args)
    report = run_verification(kernel=kernel, kappa=kappa, n=n, quick=args.quick,
                              oracle_m=args.oracle_m, seed=args.seed)
    for line in report.summary_lines():
        sys.stdout.write(line + "\n")
    sys.stdout.write(
        f"{'PASS' if report.passed else 'FAIL'}: "
        f"{sum(c.passed for c in report.checks)}/{len(report.checks)} checks "
        f"in {report.elapsed:.2f}s\n")
    if args.output:
        _write(args.output, _save_json, report.to_json_dict())
    return 0 if report.passed else InvariantError.exit_code


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    handlers = {
        "coeffs": cmd_coeffs,
        "profiles": cmd_profiles,
        "fields": cmd_fields,
        "verify": cmd_verify,
    }
    try:
        return handlers[args.command](args)
    except FlockError as exc:  # each error type names its exit class (errors.py)
        sys.stderr.write(f"{exc.label}: {exc}\n")
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
