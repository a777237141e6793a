import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import flock_coeffs
import flock_coeffs.coeffs as coeffs_mod
import flock_coeffs.quad as quad
from flock_coeffs import elliptic
from flock_coeffs.cli import _build_parser, cmd_profiles, main
from flock_coeffs.errors import DomainError
from flock_coeffs.coeffs import run_pipeline
from flock_coeffs.fields import make_field, save_field_csv
from flock_coeffs.kernel import make_kernel


def run(argv):
    return main(list(argv))


def test_coeffs_json_single(tmp_path, const_kernel):
    out = tmp_path / "coeffs.json"
    code = run(["coeffs", "--nu", "const:1", "--d", "1", "--n", "64",
                "--format", "json", "-o", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["beta"] > 0
    assert len(payload["zeta"]) == 13
    for key in ("c1_relation", "c2_relation", "c3_relation",
                "a_perp_moment", "b_par_moment"):
        assert payload["residuals"][key] < 1e-9
    assert payload["kernel"]["model"] == "const"


def test_coeffs_csv_sweep_shape(tmp_path):
    out = tmp_path / "sweep.csv"
    code = run(["coeffs", "--nu", "const:1", "--d-min", "0.1", "--d-max", "2",
                "--steps", "20", "--format", "csv", "-o", str(out)])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 21  # header + 20 rows
    header = lines[0].split(",")
    assert header[:6] == ["d", "c1", "c2", "c3", "beta", "gamma"]
    assert header[6:] == [f"zeta{j}" for j in range(1, 14)]
    first = [float(v) for v in lines[1].split(",")]
    assert first[0] == pytest.approx(0.1)
    assert first[4] > 0  # beta


def test_coeffs_sweep_deterministic_output(tmp_path):
    args = ["coeffs", "--nu", "evenpoly:1,0.5", "--d-min", "0.2", "--d-max", "1",
            "--steps", "5", "--n", "32", "--format", "csv"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run(args + ["-o", str(a)]) == 0
    assert run(args + ["-o", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_warm_and_cold_runs_agree_to_the_bit(tmp_path):
    # one process: an empty basis store, then a warm one, then one emptied
    # together with the Gauss rules; the benchmark's affine sweep and a
    # small-d pipeline must not see the difference
    argv = ["coeffs", "--nu", "affine:1,0.3", "--d-min", "0.02", "--d-max", "2",
            "--steps", "25", "--n", "64", "--kappa", "0.1", "--format", "csv"]
    kernel = make_kernel("const", (1.0,), 0.001)
    csvs, payloads = [], []
    quad._BASES.clear()
    for run_index in range(3):
        if run_index == 2:
            quad._BASES.clear()
            quad._gauss.cache_clear()
        out = tmp_path / f"sweep-{run_index}.csv"
        assert run(argv + ["-o", str(out)]) == 0
        csvs.append(out.read_bytes())
        payloads.append(json.dumps(run_pipeline(kernel, 256, 0.1).hydro.to_json_dict()))
    assert csvs[0] == csvs[1] == csvs[2]
    assert payloads[0] == payloads[1] == payloads[2]


def test_coeffs_sweep_agrees_across_blas_thread_counts():
    # the assembly's gemm sums in an order that depends on the BLAS thread
    # count, so results at 1 and 2 threads need not be bitwise equal; they
    # must end alike, at the same degree, and agree to 1e-12 of each set,
    # down to the small-d edge of the range (d = 0.0007 is 2.9e-13 apart)
    argv = [sys.executable, "-m", "flock_coeffs.cli", "coeffs", "--nu", "const:1",
            "--d-min", "0.0007", "--d-max", "0.02", "--steps", "6", "--n", "384",
            "--format", "json"]
    src = str(Path(flock_coeffs.__file__).parents[1])
    runs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   MKL_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        runs.append(subprocess.run(argv, env=env, capture_output=True, text=True, timeout=120))
    assert [r.returncode for r in runs] == [0, 0], [r.stderr for r in runs]
    one, two = (json.loads(r.stdout)["sweep"] for r in runs)
    assert [p["degree"] for p in one] == [p["degree"] for p in two]
    for a, b in zip(one, two):
        va, vb = (np.array(p["c"] + [p["beta"], p["gamma"]] + p["zeta"]) for p in (a, b))
        assert np.max(np.abs(va - vb)) <= 1e-12 * np.max(np.abs(va)), a["d"]


def test_coeffs_zero_steps_is_usage_error(capsys):
    code = run(["coeffs", "--nu", "const:1", "--d-min", "0.1", "--d-max", "2",
                "--steps", "0"])
    assert code == 1


def test_bad_flag_is_usage_error(capsys):
    assert run(["coeffs", "--no-such-flag"]) == 1
    assert ("flock-coeffs: error: unrecognized arguments: --no-such-flag"
            in capsys.readouterr().err)
    assert run(["coeffs", "--config", "/nonexistent/path.conf"]) == 1


def test_config_file_with_flag_precedence(tmp_path):
    conf = tmp_path / "run.conf"
    conf.write_text("nu.model = const\nnu.params = 1\nd = 0.5\nkappa = 0.2\n")
    out = tmp_path / "out.json"
    code = run(["coeffs", "--config", str(conf), "--d", "1.0",
                "--format", "json", "-o", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["d"] == 1.0  # flag overrides file
    assert payload["kappa"] == 0.2  # file survives where no flag given


def test_config_file_non_finite_kappa_is_usage_error(tmp_path, capsys):
    conf = tmp_path / "run.conf"
    conf.write_text("nu.model = const\nd = 1\nkappa = nan\n")
    assert run(["coeffs", "--config", str(conf), "-o", str(tmp_path / "out.csv")]) == 1
    assert "kappa must be finite, got nan" in capsys.readouterr().err
    assert not (tmp_path / "out.csv").exists()


def test_profiles_dump_nonpositive_invariant(tmp_path):
    outdir = tmp_path / "nested" / "profiles"  # created on demand
    code = run(["profiles", "--nu", "const:1", "--d", "1", "--n", "64",
                "-o", str(outdir)])
    assert code == 0
    rows = (outdir / "h.csv").read_text().strip().splitlines()
    assert rows[0] == "mu,value"
    values = np.array([float(r.split(",")[1]) for r in rows[1:]])
    assert values.max() <= 1e-10
    sidecar = json.loads((outdir / "h.json").read_text())
    assert sidecar["meta"]["residual"] < 1e-8
    g_sidecar = json.loads((outdir / "g.json").read_text())
    assert g_sidecar["sing_order"] == 1
    assert g_sidecar["coefficients"] == sidecar["coefficients"]
    # g = sqrt(1-mu^2) h, value for value and bit for bit
    h_rows = np.loadtxt(outdir / "h.csv", delimiter=",", skiprows=1)
    g_rows = np.loadtxt(outdir / "g.csv", delimiter=",", skiprows=1)
    assert np.array_equal(g_rows[:, 0], h_rows[:, 0])
    assert np.array_equal(g_rows[:, 1], (1.0 - h_rows[:, 0] ** 2) ** 0.5 * h_rows[:, 1])


def test_profiles_dump_is_the_pipelines_profiles(tmp_path, monkeypatch):
    # the command runs only the stages it writes (no assembly), and its files
    # are those of run_pipeline's profiles, byte for byte
    outdir = tmp_path / "out"

    def no_assembly(*args, **kwargs):
        raise AssertionError("the profile dump assembled the coefficient set")

    with monkeypatch.context() as patch:
        patch.setattr(coeffs_mod, "compute_r2_coeffs", no_assembly)
        assert run(["profiles", "--nu", "evenpoly:1,0.5", "--d", "0.1", "--n", "48",
                    "--kappa", "0.1", "-o", str(outdir)]) == 0
    profiles = run_pipeline(make_kernel("evenpoly", (1.0, 0.5), 0.1), 48, 0.1).profiles
    h = profiles["gci"]
    files = {"g": (h, (1.0 - h.rule.nodes**2) ** 0.5 * h.values, 1),
             "h_prime": (h.derivative(), None, 0),
             **{"h" if name == "gci" else name: (prof, None, 0)
                for name, prof in profiles.items()}}
    assert sorted(p.name for p in outdir.iterdir()) == sorted(
        f"{name}.{ext}" for name in files for ext in ("csv", "json"))
    for name, (prof, values, sing_order) in files.items():
        values = prof.values if values is None else values
        rows = "".join(f"{m:.17g},{v:.17g}\n" for m, v in zip(prof.rule.nodes, values))
        assert (outdir / f"{name}.csv").read_text() == "mu,value\n" + rows, name
        # the estimate, formed on demand, is the last key of a solve's meta
        meta = prof.meta if prof.condition is None else {**prof.meta, "condition": prof.condition}
        assert ("condition" in meta) == (name != "h_prime"), name
        sidecar = {"coefficients": list(prof.coef), "sing_order": sing_order, "meta": meta}
        assert (outdir / f"{name}.json").read_text() == json.dumps(sidecar, indent=2) + "\n"


def test_condition_estimates_are_formed_for_the_profile_dump_alone(tmp_path, monkeypatch):
    # a coefficient sweep reads no condition estimate; the profile dump forms
    # one per factorization (type 1 at k = 1 and 2, type 2) for its sidecars
    sizes, estimate = [], elliptic._inverse_norm1
    monkeypatch.setattr(elliptic, "_inverse_norm1",
                        lambda lu, piv: sizes.append(len(lu)) or estimate(lu, piv))
    assert run(["coeffs", "--nu", "affine:1,0.3", "--d-min", "0.02", "--d-max", "2",
                "--steps", "5", "--n", "64", "-o", str(tmp_path / "sweep.csv")]) == 0
    assert sizes == []
    assert run(["profiles", "--nu", "const:1", "--d", "1", "--n", "64",
                "-o", str(tmp_path / "p")]) == 0
    assert len(sizes) == 3
    for path in (tmp_path / "p").glob("*.json"):
        meta = json.loads(path.read_text())["meta"]
        if path.name == "h_prime.json":
            assert meta == {}
        else:
            assert 1.0 < meta["condition"] < np.inf, path.name


def test_profiles_self_convergence_across_degrees(tmp_path):
    paths = {}
    for n in (64, 128):
        outdir = tmp_path / f"n{n}"
        assert run(["profiles", "--nu", "const:1", "--d", "1", "--n", str(n),
                    "-o", str(outdir)]) == 0
        data = np.loadtxt(outdir / "g.csv", delimiter=",", skiprows=1)
        paths[n] = data
    # evaluate the coarse modal dump on the fine nodes via its sidecar
    sidecar = json.loads((tmp_path / "n64" / "h.json").read_text())
    coef = np.array(sidecar["coefficients"])
    mu_fine = paths[128][:, 0]
    g64_on_fine = np.sqrt(1 - mu_fine**2) * np.polynomial.legendre.legval(mu_fine, coef)
    assert np.max(np.abs(g64_on_fine - paths[128][:, 1])) < 1e-11


def test_fields_uniform_outputs_zero(tmp_path):
    outdir = tmp_path / "f"
    code = run(["fields", "--field", "uniform", "--grid", "6,6,6",
                "--nu", "const:1", "--d", "1", "-o", str(outdir)])
    assert code == 0
    r1 = np.loadtxt(outdir / "r1.csv", delimiter=",", skiprows=1)
    r2 = np.loadtxt(outdir / "r2.csv", delimiter=",", skiprows=1)
    assert np.abs(r1[:, 3]).max() == 0.0
    assert np.abs(r2[:, 3:]).max() == 0.0


def test_fields_axial_sine_matches_closed_form(tmp_path):
    outdir = tmp_path / "f"
    code = run(["fields", "--field", "axial-sine", "--grid", "4,4,64",
                "--nu", "const:1", "--d", "1", "--n", "64", "-o", str(outdir)])
    assert code == 0
    rows = np.loadtxt(outdir / "r1.csv", delimiter=",", skiprows=1)
    payload_code = run(["coeffs", "--nu", "const:1", "--d", "1", "--n", "64",
                        "--format", "json", "-o", str(outdir / "c.json")])
    assert payload_code == 0
    beta = json.loads((outdir / "c.json").read_text())["beta"]
    z = rows[:, 2]
    assert np.abs(rows[:, 3] + beta * np.sin(z)).max() < 5e-3


def test_fields_eps_scales_output(tmp_path):
    args = ["fields", "--field", "axial-sine", "--grid", "4,4,32",
            "--nu", "const:1", "--d", "1"]
    out1, out2 = tmp_path / "e1", tmp_path / "e2"
    assert run(args + ["-o", str(out1)]) == 0
    assert run(args + ["--eps", "0.5", "-o", str(out2)]) == 0
    r1a = np.loadtxt(out1 / "r1.csv", delimiter=",", skiprows=1)[:, 3]
    r1b = np.loadtxt(out2 / "r1.csv", delimiter=",", skiprows=1)[:, 3]
    assert np.allclose(0.5 * r1a, r1b, atol=1e-15)


def test_fields_rejects_bad_input_state(tmp_path, capsys):
    state = make_field("uniform", (4, 4, 4))
    state.omega[0, 1, 2] *= 1.01
    bad = tmp_path / "bad.csv"
    save_field_csv(state, bad)
    code = run(["fields", "--input", str(bad), "--nu", "const:1", "--d", "1",
                "-o", str(tmp_path / "out")])
    assert code == 1
    assert "cell" in capsys.readouterr().err


def test_fields_rejects_non_finite_input(tmp_path, capsys):
    state = make_field("uniform", (4, 4, 4))
    state.rho[2, 1, 3] = np.nan
    bad = tmp_path / "nan.csv"
    save_field_csv(state, bad)
    code = run(["fields", "--input", str(bad), "--nu", "const:1", "--d", "1",
                "-o", str(tmp_path / "out")])
    assert code == 1
    assert "non-finite density at cell (2, 1, 3)" in capsys.readouterr().err


@pytest.mark.parametrize("command, expected", [("coeffs", 2), ("verify", 2), ("profiles", 0)],
                         ids=["coeffs", "verify", "profiles"])
def test_coeffs_invariant_violation_exits_2(tmp_path, capsys, command, expected):
    # strongly mu-dependent rate at large noise breaks the c ordering; the
    # commands that report coefficients check it, the profile dump does not
    out = tmp_path / "out"
    assert run([command, "--nu", "affine:1,0.3", "--d", "5", "--n", "32",
                "-o", str(out)]) == expected
    if expected == 2:
        assert "invariant violation: expected 0 < c2 < c1 < 1" in capsys.readouterr().err
    else:
        assert len(list(out.glob("*.csv"))) == 8


@pytest.mark.parametrize("argv, message", [
    (["--field", "vortex"], "error: unknown field 'vortex'"),
    (["--scheme-order", "4"], "error: order-4 stencil needs periodic extents"),
    (["--scheme-order", "3"], "error: argument --scheme-order: invalid choice"),
    (["--grid", "8.7,8,8"], "error: bad --grid: '8.7,8,8'"),
    (["--grid", "1e400,8,8"], "error: bad --grid: '1e400,8,8'"),
    (["--grid", "nan,8,8"], "error: bad --grid: 'nan,8,8'"),
    (["--lengths", "nan,1,1"], "error: grid spacing must be positive and finite"),
    (["--eps", "nan"], "error: eps must be finite, got nan"),
    (["--kappa", "nan"], "error: nonlocality constant kappa must be finite, got nan"),
    (["--grid", "0,4,4"], "error: bad grid shape (0, 4, 4)"),
    (["--field", "random-smooth", "--seed", "-1"], "error: seed must be non-negative, got -1"),
    (["--field", "axial-sine", "--param", "amplitude=abc"],
     "error: --param amplitude: 'abc' is not a number"),
    (["--field", "axial-sine", "--param", "amplitud=3"],
     "error: field axial-sine takes no parameter 'amplitud'; it takes amplitude"),
], ids=["unknown-field", "order-4-small-grid", "scheme-order-3", "fractional-grid",
        "overflowing-grid", "nan-grid", "nan-lengths", "nan-eps", "nan-kappa", "empty-grid",
        "negative-seed", "non-numeric-param", "unknown-param"])
def test_fields_domain_errors_are_usage_errors(tmp_path, capsys, argv, message):
    code = run(["fields", "--grid", "4,4,4", "--nu", "const:1", "--d", "1",
                "-o", str(tmp_path / "out"), *argv])
    assert code == 1
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["coeffs", "--spatial", "ball:abc"], "error: bad spatial.radius value 'abc'"),
    (["coeffs", "--spatial", "ball:nan"], "error: ball radius must be positive and finite"),
    (["coeffs", "--spatial", "gaussian:inf"],
     "error: gaussian scale must be positive and finite"),
    (["coeffs", "--nu", "const:1,2"], "error: nu model 'const' takes 1 parameter(s), got 2"),
    (["verify", "--oracle-m", "50"], "error: oracle resolution m must be >= 100, got 50"),
    (["verify", "--seed", "-1"], "error: seed must be non-negative, got -1"),
    (["coeffs", "--d-min", "0.1", "--d-max", "inf", "--steps", "3"],
     "error: --d-max must be finite, got inf"),
    (["coeffs", "--nu", "const:nan", "--d", "0.5"],
     "error: nu must have finite coefficients; model const(nan,)"),
    (["coeffs", "--nu", "affine:1,nan"],
     "error: nu must have finite coefficients; model affine(1.0, nan)"),
    (["coeffs", "--nu", "evenpoly:1,inf"],
     "error: nu must have finite coefficients; model evenpoly(1.0, inf)"),
], ids=["non-numeric-radius", "nan-radius", "infinite-scale", "extra-nu-parameter",
        "small-oracle-m", "negative-verify-seed", "infinite-d-max", "nan-const-rate",
        "nan-affine-slope", "infinite-evenpoly-term"])
def test_bad_numbers_are_usage_errors(tmp_path, capsys, argv, message):
    assert run([*argv, "-o", str(tmp_path / "out")]) == 1
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("argv, path, message", [
    (["fields", "--input"], "missing.csv", "error: cannot read field CSV"),
    (["fields", "--input"], "bad.csv", "error: cannot read field CSV"),
    (["coeffs", "--config"], "directory", "error: cannot read config file"),
], ids=["missing-field-csv", "non-numeric-field-csv", "config-directory"])
def test_unreadable_files_are_usage_errors(tmp_path, capsys, argv, path, message):
    (tmp_path / "bad.csv").write_text("x,y,z,rho,ox,oy,oz\n0,0,0,1,0,0,abc\n")
    (tmp_path / "directory").mkdir()
    path = tmp_path / path
    assert run([*argv, str(path), "-o", str(tmp_path / "out")]) == 1
    assert f"{message} {path}" in capsys.readouterr().err


@pytest.mark.parametrize("argv, path", [
    (["coeffs", "-o"], "file.txt/x.csv"),
    (["coeffs", "-o"], "directory"),
    (["profiles", "-o"], "file.txt"),
    (["fields", "-o"], "file.txt"),
    (["verify", "--quick", "-o"], "file.txt/r.json"),
], ids=["coeffs-below-a-file", "coeffs-into-a-directory", "profiles-into-a-file",
        "fields-into-a-file", "verify-below-a-file"])
def test_unwritable_outputs_are_usage_errors(tmp_path, capsys, argv, path):
    (tmp_path / "file.txt").write_text("")
    (tmp_path / "directory").mkdir()
    path = tmp_path / path
    assert run([*argv, str(path)]) == 1
    # profiles and fields name the first file they could not write there
    assert f"error: cannot write output {path}" in capsys.readouterr().err


def test_coeffs_numeric_failure_exits_3():
    # the weight spread 2/d is beyond what any quadrature rule resolves
    assert run(["coeffs", "--nu", "const:1", "--d", "1e-07", "--n", "32",
                "--format", "json", "-o", "-"]) == 3


@pytest.mark.parametrize("d, n", [("0.0015", "64"), ("0.0005", "192")])
def test_noise_below_range_exits_3_naming_d(capsys, d, n):
    # below what n resolves: an input-range failure (3), not an invariant bug
    # (2), reported by the b2 solvability check with the stage and d
    assert run(["coeffs", "--nu", "const:1", "--d", d, "--n", n]) == 3
    err = capsys.readouterr().err
    assert "b2 solve" in err
    assert f"d = {d}" in err


@pytest.mark.parametrize("command, d", [("coeffs", "1e18"), ("coeffs", "1e300"),
                                        ("profiles", "1e300"), ("fields", "1e300")])
def test_noise_above_range_exits_3_naming_d(tmp_path, capsys, command, d):
    # above what double precision resolves: the weight is flat to rounding,
    # so c1 and the constants after it would be noise (at d = 1e18 that read
    # as an invariant violation, and from d = 1.4e154 d**2 overflowed)
    assert run([command, "--nu", "const:1", "--d", d, "-o", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert f"d = {float(d):g} is above the supported range" in err


def test_verify_quick_tier_and_speed(tmp_path):
    report_path = tmp_path / "report.json"
    t0 = time.perf_counter()
    code = run(["verify", "--quick", "-o", str(report_path)])
    elapsed = time.perf_counter() - t0
    assert code == 0
    report = json.loads(report_path.read_text())
    assert report["passed"]
    assert all(c["tier"] == "trivial" for c in report["checks"])
    assert elapsed < 3.0


def test_verify_full_passes(tmp_path):
    report_path = tmp_path / "report.json"
    code = run(["verify", "--nu", "const:1", "--d", "1", "-o", str(report_path)])
    assert code == 0
    report = json.loads(report_path.read_text())
    assert report["passed"]
    tiers = {c["tier"] for c in report["checks"]}
    assert tiers == {"trivial", "full"}


def test_verify_reports_are_reproducible(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert run(["verify", "--nu", "const:1", "--d", "1", "-o", str(a)]) == 0
    assert run(["verify", "--nu", "const:1", "--d", "1", "-o", str(b)]) == 0
    ra, rb = json.loads(a.read_text()), json.loads(b.read_text())
    strip = lambda r: [(c["name"], c["passed"], c["value"]) for c in r["checks"]]
    assert strip(ra) == strip(rb)


def test_verify_detects_injected_sign_flip(tmp_path, flip_time_route_slot):
    report_path = tmp_path / "report.json"
    flip_time_route_slot(3)
    code = run(["verify", "--nu", "const:1", "--d", "1", "-o", str(report_path)])
    assert code == 2
    report = json.loads(report_path.read_text())
    failed = [c["name"] for c in report["checks"] if not c["passed"]]
    assert "zeta_assembly" in failed


def test_invalid_degree_rejected():
    assert run(["coeffs", "--nu", "const:1", "--d", "1", "--n", "4"]) == 1


@pytest.mark.parametrize("n", [4, 7])
def test_degree_floor_is_the_librarys(tmp_path, capsys, n):
    # the profile dump and verify reach the library's check, not one of their own
    outdir = tmp_path / "out"
    args = _build_parser().parse_args(["profiles", "--n", str(n), "-o", str(outdir)])
    with pytest.raises(DomainError, match=rf"degree n must be >= 8, got {n}$"):
        cmd_profiles(args)
    assert not outdir.exists()
    for command in ("profiles", "verify", "coeffs"):
        assert run([command, "--n", str(n), "-o", str(outdir)]) == 1
        assert f"error: degree n must be >= 8, got {n}" in capsys.readouterr().err


def test_sweep_to_stdout_is_the_sweep_written_to_a_file(tmp_path, capsys):
    argv = ["coeffs", "--nu", "affine:1,0.3", "--d-min", "0.02", "--d-max", "2",
            "--steps", "5", "--n", "32"]
    assert run([*argv, "-o", str(tmp_path / "sweep.csv")]) == 0
    capsys.readouterr()
    assert run([*argv, "-o", "-"]) == 0
    assert capsys.readouterr().out.encode() == (tmp_path / "sweep.csv").read_bytes()


@pytest.mark.parametrize("spatial, kappa", [("gaussian:2", 2.0), ("ball:1", 0.1)])
def test_spatial_parameter_reaches_its_kernel(tmp_path, spatial, kappa):
    # kappa = K_2 / (6 K_0): s^2 / 2 for a gaussian of scale s, R^2 / 10 for a ball
    out = tmp_path / "c.json"
    assert run(["coeffs", "--spatial", spatial, "--n", "32", "--format", "json",
                "-o", str(out)]) == 0
    assert json.loads(out.read_text())["kappa"] == pytest.approx(kappa, rel=1e-15)


@pytest.mark.parametrize("d", ["-1", "inf"])
def test_nonpositive_d_rejected(capsys, d):
    assert run(["coeffs", "--nu", "const:1", "--d", d]) == 1
    assert "d must be positive" in capsys.readouterr().err
