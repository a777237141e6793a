import json
import time

import numpy as np
import pytest

from flock_coeffs.cli import main
from flock_coeffs.fields import make_field, save_field_csv


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


def test_coeffs_zero_steps_is_usage_error(capsys):
    code = run(["coeffs", "--nu", "const:1", "--d-min", "0.1", "--d-max", "2",
                "--steps", "0"])
    assert code == 1


def test_bad_flag_is_usage_error():
    assert run(["coeffs", "--no-such-flag"]) == 1
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
    assert json.loads((outdir / "g.json").read_text())["sing_order"] == 1


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


def test_coeffs_numeric_failure_exits_3():
    # the weight spread 2/d is beyond what any quadrature rule resolves
    assert run(["coeffs", "--nu", "const:1", "--d", "1e-07", "--n", "32",
                "--format", "json", "-o", "-"]) == 3


@pytest.mark.parametrize("d, n", [("0.0015", "64"), ("0.0005", "512")])
def test_noise_below_range_exits_3_naming_d(capsys, d, n):
    # below what n resolves: an input-range failure (3), not an invariant bug
    # (2), reported by the b2 solvability check with the stage and d
    assert run(["coeffs", "--nu", "const:1", "--d", d, "--n", n]) == 3
    err = capsys.readouterr().err
    assert "b2 solve" in err
    assert f"d = {d}" in err


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


def test_nonpositive_d_rejected():
    assert run(["coeffs", "--nu", "const:1", "--d", "-1"]) == 1
