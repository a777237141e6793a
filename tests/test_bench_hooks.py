"""The benchmark's traced run wraps library functions by name from outside
(perfbench/spans.py); these tests fail when a name it wraps, or a profile
meta entry it reads, no longer exists.  spans.py is only loaded, never
edited or run."""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

from flock_coeffs.elliptic import solve_gci, solve_type2
from flock_coeffs.kernel import constant_kernel

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up in sys.modules while being built
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


def test_traced_names_resolve(spans):
    for qualname in spans.TRACED:
        layer, name = qualname.split(".")
        assert layer in spans.LAYER_MODULES, qualname
        module = importlib.import_module(f"flock_coeffs.{layer}")
        assert callable(getattr(module, name, None)), qualname


def test_kernel_factories_resolve(spans):
    kernel = importlib.import_module("flock_coeffs.kernel")
    for name in spans.KERNEL_FACTORIES:
        assert callable(getattr(kernel, name, None)), name


def test_solved_profiles_carry_what_the_solve_hook_reads(spans, legendre_kernel):
    # a type-1 and a type-2 solve; mu has zero mean against a unit weight
    profiles = [solve_gci(constant_kernel(1.0, d=0.5), 32),
                solve_type2(legendre_kernel, lambda mu: mu, 32)]
    tracer = spans.Tracer("hooks")
    for profile in profiles:
        assert {"formulation", "residual"} <= profile.meta.keys()
        spans._after_solve(tracer, profile, (), {})
    assert tracer.tally["elliptic.solves"] == len(profiles)
    assert tracer.tally["elliptic.max_residual"] == max(p.meta["residual"] for p in profiles)
