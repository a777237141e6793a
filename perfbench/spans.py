"""Spans and counters for the traced run.

The traced run wraps the public functions of each flock_coeffs module from
outside: `instrumented` swaps every module attribute bound to a listed
function for a wrapper that records a span, and restores the originals on
exit.  The library itself is not modified.  Kernel evaluations (nu, nu_prime,
sigma) are too many and too short for spans; they are counted by replacing
the kernel's callables (`dataclasses.replace`) with counting wrappers.

Spans stay in memory until `Tracer.write` is called at the end of the run.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass, replace

import flock_coeffs
from flock_coeffs.kernel import CollisionKernel

LAYER_MODULES = ("kernel", "quad", "elliptic", "coeffs", "fields", "oracle", "verify", "cli")


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    run: str
    thread: int
    self_s: float = 0.0


class _CountedCall:
    """A kernel callable that adds its call count and time to the tracer."""

    def __init__(self, fn, tracer):
        self.fn = fn
        self.tracer = tracer

    def __call__(self, mu):
        t0 = time.perf_counter()
        try:
            return self.fn(mu)
        finally:
            dt = time.perf_counter() - t0
            self.tracer.add("kernel.evals", 1)
            self.tracer.add("kernel.eval_s", dt)


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[Span] = []
        self.tally: dict[str, float] = defaultdict(float)
        # spans opened on threads the benchmark did not start (the CLI sweep
        # pool) take the innermost span open on the benchmark's own thread
        self._main_thread = threading.get_ident()
        self._main_open: int | None = None
        self._t0 = time.perf_counter()
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()

    def add(self, key: str, value: float):
        with self._lock:
            self.tally[key] += value

    def maximum(self, key: str, value: float):
        with self._lock:
            self.tally[key] = max(self.tally[key], value)

    @contextmanager
    def span(self, name: str):
        stack = self._local.__dict__.setdefault("stack", [])
        with self._lock:
            sid = next(self._ids)
        parent = stack[-1] if stack else self._main_open
        stack.append(sid)
        on_main = threading.get_ident() == self._main_thread
        if on_main:
            outer, self._main_open = self._main_open, sid
        start = time.perf_counter() - self._t0
        try:
            yield
        finally:
            end = time.perf_counter() - self._t0
            stack.pop()
            if on_main:
                self._main_open = outer
            with self._lock:
                self.spans.append(Span(sid, name, start, end, parent, self.run_id,
                                       threading.get_ident()))

    def wrap(self, name: str, fn, after=None):
        """`fn` inside a span; `after(tracer, result, args, kwargs)` counts its output."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if after is not None:
                after(self, result, args, kwargs)
            return result

        return traced

    def instrument_kernel(self, kernel: CollisionKernel) -> CollisionKernel:
        if isinstance(kernel.nu, _CountedCall):
            return kernel
        return replace(kernel, nu=_CountedCall(kernel.nu, self),
                       nu_prime=_CountedCall(kernel.nu_prime, self),
                       sigma=_CountedCall(kernel.sigma, self))

    def _instrument_result(self, value):
        if isinstance(value, CollisionKernel):
            return self.instrument_kernel(value)
        if isinstance(value, (list, tuple)):
            return type(value)(self._instrument_result(v) for v in value)
        return value

    def kernel_factory(self, fn):
        """Factory whose kernels (also inside lists and tuples) are counted."""

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            return self._instrument_result(fn(*args, **kwargs))

        return counted

    def compute_self_times(self):
        """Self time: a span's duration minus the union of its children's intervals."""
        children = defaultdict(list)
        for s in self.spans:
            if s.parent is not None:
                children[s.parent].append((s.start, s.end))
        for s in self.spans:
            covered, reach = 0.0, s.start
            for a, b in sorted(children[s.id]):
                a, b = max(a, reach), min(b, s.end)
                if b > a:
                    covered += b - a
                    reach = b
            s.self_s = (s.end - s.start) - covered

    def write(self, path, header: dict, summary: dict):
        """One JSON object per line: header, every span, then the summary."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            fh.write(json.dumps({"header": header}) + "\n")
            for s in sorted(self.spans, key=lambda s: s.start):
                fh.write(json.dumps(asdict(s)) + "\n")
            fh.write(json.dumps({"summary": summary}) + "\n")


# --- what is traced ---------------------------------------------------------


def _after_rule(tracer, rule, args, kwargs):
    tracer.add("quad.nodes", rule.n)


def _after_solve(tracer, profile, args, kwargs):
    tracer.add("elliptic.solves", 1)
    tracer.add("elliptic.divided", profile.meta["formulation"] == "divided")
    tracer.maximum("elliptic.max_residual", profile.meta["residual"])


def _after_decompose(tracer, bundle, args, kwargs):
    state = args[0] if args else kwargs["state"]
    tracer.add("fields.cells", state.rho.size)
    arrays = (state.rho, state.omega, bundle.grad_perp_rho, bundle.par_grad_rho,
              bundle.omega_tilt, bundle.div_omega, bundle.sigma_omega, bundle.gamma_omega)
    tracer.add("fields.bytes_computed", sum(a.nbytes for a in arrays))


def _after_field_output(tracer, out, args, kwargs):
    tracer.add("fields.bytes_computed", out.nbytes)


def _after_report(tracer, report, args, kwargs):
    tracer.add("verify.checks", len(report.checks))
    tracer.add("verify.checks_failed", sum(not c.passed for c in report.checks))


TRACED = {
    "quad.build_rule": _after_rule,
    "quad.build_equilibrium": None,
    "elliptic.solve_gci": None,
    "elliptic.solve_type1": _after_solve,
    "elliptic.solve_type2": _after_solve,
    "coeffs.compute_coefficients": None,
    "coeffs.compute_c123": None,
    "coeffs.solve_profiles": None,
    "coeffs.c_relation_residuals": None,
    "coeffs.profile_moment_residuals": None,
    "coeffs.beta_quadratic_form": None,
    "coeffs.compute_r2_coeffs": None,
    "fields.evaluate_corrections": None,
    "fields.decompose_gradients": _after_decompose,
    "fields.evaluate_r1": _after_field_output,
    "fields.evaluate_r2": _after_field_output,
    "oracle.compare_spectral_fd": None,
    "oracle.mode_residuals": None,
    "oracle.gci_orthogonality": None,
    "oracle.source_orthogonality": None,
    "verify.run_verification": _after_report,
    "cli.main": None,
}

KERNEL_FACTORIES = ("constant_kernel", "affine_kernel", "even_poly_kernel",
                    "tabulated_kernel", "registry_kernels", "make_kernel",
                    "kernel_from_config")


@contextmanager
def instrumented(tracer: Tracer):
    """Swap every binding of a traced function, in every module, for its wrapper."""
    modules = {m: importlib.import_module(f"flock_coeffs.{m}") for m in LAYER_MODULES}
    namespaces = [flock_coeffs, *modules.values()]
    replacements = []
    for qualname, after in TRACED.items():
        layer, name = qualname.split(".")
        original = getattr(modules[layer], name)
        replacements.append((original, tracer.wrap(qualname, original, after)))
    for name in KERNEL_FACTORIES:
        original = getattr(modules["kernel"], name)
        replacements.append((original, tracer.kernel_factory(original)))

    saved = []
    for original, wrapper in replacements:
        for ns in namespaces:
            for attr, value in list(vars(ns).items()):
                if value is original:
                    saved.append((ns, attr, value))
                    setattr(ns, attr, wrapper)
    try:
        yield
    finally:
        for ns, attr, value in reversed(saved):
            setattr(ns, attr, value)


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer figures of one traced pass (call after compute_self_times)."""
    incl = defaultdict(float)
    own = defaultdict(float)
    for s in tracer.spans:
        incl[s.name] += s.end - s.start
        own[s.name] += s.self_s
    t = tracer.tally
    solves = t["elliptic.solves"]
    return {
        "quad.rule_s": own["quad.build_rule"] + own["quad.build_equilibrium"],
        "quad.nodes": t["quad.nodes"],
        "elliptic.gci_s": incl["elliptic.solve_gci"],
        "elliptic.profiles_s": incl["coeffs.solve_profiles"],
        "elliptic.solves": solves,
        "elliptic.max_residual": t["elliptic.max_residual"],
        "elliptic.fallback_ratio": t["elliptic.divided"] / solves if solves else 0.0,
        "coeffs.c123_s": incl["coeffs.compute_c123"],
        "coeffs.checks_s": (incl["coeffs.c_relation_residuals"]
                            + incl["coeffs.profile_moment_residuals"]
                            + incl["coeffs.beta_quadratic_form"]),
        "coeffs.assembly_s": incl["coeffs.compute_r2_coeffs"],
        "coeffs.unattributed_s": own["coeffs.compute_coefficients"],
        "kernel.evals": t["kernel.evals"],
        "kernel.eval_s": t["kernel.eval_s"],
        "fields.decompose_s": incl["fields.decompose_gradients"],
        "fields.r1_s": incl["fields.evaluate_r1"],
        "fields.r2_s": incl["fields.evaluate_r2"],
        "fields.cells": t["fields.cells"],
        "fields.bytes_computed": t["fields.bytes_computed"],
        "oracle.fd_s": incl["oracle.compare_spectral_fd"],
        "oracle.mode_s": incl["oracle.mode_residuals"],
        "oracle.sphere_s": (incl["oracle.gci_orthogonality"]
                            + incl["oracle.source_orthogonality"]),
        "verify.run_s": incl["verify.run_verification"],
        "verify.checks": t["verify.checks"],
        "verify.checks_failed": t["verify.checks_failed"],
    }


def span_summary(tracer: Tracer) -> dict:
    """Per span name: calls, inclusive seconds and self seconds."""
    out = defaultdict(lambda: {"calls": 0, "seconds": 0.0, "self_s": 0.0})
    for s in tracer.spans:
        row = out[s.name]
        row["calls"] += 1
        row["seconds"] += s.end - s.start
        row["self_s"] += s.self_s
    return dict(sorted(out.items()))
