import json
import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import psf_matfunc
from psf_matfunc import cli, contour, fourier, instances, linalg, operators
from psf_matfunc.errors import EPS_FLOOR
from psf_matfunc.io import RECORD_HEADER
from psf_matfunc.kernels import SpectralProfile, saddle_rate

from helpers import save_matrix


def run(argv, capsys):
    rc = cli.main(argv)
    out, err = capsys.readouterr()
    return rc, out, err


def read_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


def test_plan_worked_example(tmp_path, capsys):
    out = str(tmp_path / "plan.json")
    rc, text, _ = run(["plan", "--alpha", "1", "--T", "1", "--eps", "1e-6",
                       "--hnorm", "1", "--out", out], capsys)
    assert rc == 0
    assert "a=4.89894920704081" in text and "K=6" in text
    obj = json.loads(read_bytes(out))
    assert {"alpha", "T", "mode", "a", "K", "eps_internal", "c"} <= set(obj)
    assert obj["a"] == pytest.approx(4.89894920704081, rel=1e-12)
    assert obj["K"] == 6
    assert len(obj["c"]) == obj["K"] + 1


def test_plan_at_a_large_even_p_reaches_its_budget(tmp_path, capsys):
    """At p = 10000 the saddle rate is small, but the growth steps still
    reach the budget; at p = 2e6 they do not (see the admission cases)."""
    rc, text, err = run(["plan", "--alpha", "5000", "--T", "1", "--eps", "1e-6",
                         "--hnorm", "1", "--out", str(tmp_path / "plan.json")], capsys)
    assert rc == 0, err
    assert "K=46735" in text


def test_kernel_csv(tmp_path, capsys):
    out = str(tmp_path / "kern.csv")
    argv = ["kernel", "--alpha", "0.75", "--T", "1", "--x", "0:2:0.5",
            "--out", out]
    rc, text, _ = run(argv, capsys)
    assert rc == 0 and "fractional" in text
    lines = read_bytes(out).decode().splitlines()
    assert lines[0] == "x,kernel,envelope"
    assert lines[1].split(",")[2] == "inf"     # fractional envelope at x = 0
    first = read_bytes(out)
    rc, _, _ = run(argv, capsys)
    assert rc == 0 and read_bytes(out) == first


@settings(derandomize=True, deadline=None, max_examples=40)
@given(p=st.integers(1, 20).map(lambda k: 2.0 * k), T=st.floats(0.1, 10.0))
def test_kernel_envelope_bounds_the_kernel_at_even_p(tmp_path_factory, p, T):
    """At even p the envelope column is at least |f| on every row where |f|
    is above 1e3 u f(0), from x = 0 to where the envelope falls near 1e-13
    f(0): the envelope decays at the saddle rate, from 2 f(0)."""
    lam, beta = saddle_rate(SpectralProfile(p, T, "direct"))
    step = (31.0 / lam) ** (1.0 / beta) / 200.0
    out = str(tmp_path_factory.getbasetemp() / "envelope.csv")
    rc = cli.main(["kernel", "--alpha", repr(p), "--T", repr(T), "--mode", "direct",
                   "--x", f"0:{200.0 * step!r}:{step!r}", "--out", out])
    assert rc == 0
    rows = np.array([[float(v) for v in ln.split(",")]
                     for ln in read_bytes(out).decode().splitlines()[1:]])
    f, env = np.abs(rows[:, 1]), rows[:, 2]
    above = f > 1e3 * np.finfo(float).eps * f[0]
    assert above.sum() > 10 and np.all(env[above] >= f[above])


def test_kernel_cauchy_lattice_left_of_zero(tmp_path, capsys):
    out = str(tmp_path / "cauchy.csv")
    rc, _, _ = run(["kernel", "--alpha", "0.5", "--T", "1", "--x=-1:1:0.25",
                    "--out", out], capsys)
    assert rc == 0
    rows = [ln.split(",") for ln in read_bytes(out).decode().splitlines()[1:]]
    x = np.array([float(r[0]) for r in rows])
    np.testing.assert_allclose(x, -1.0 + 0.25 * np.arange(9), atol=1e-15)
    f = np.array([float(r[1]) for r in rows])
    np.testing.assert_allclose(f, 2.0 / (1.0 + 4.0 * np.pi**2 * x**2),
                               atol=1e-12, rtol=0)
    # A range that starts with '-' may also be given as a separate value.
    spaced = str(tmp_path / "spaced.csv")
    rc, _, _ = run(["kernel", "--alpha", "0.5", "--T", "1", "--x", "-1:1:0.25",
                    "--out", spaced], capsys)
    assert rc == 0 and read_bytes(spaced) == read_bytes(out)


def test_simulate_fourier_report(tmp_path, capsys):
    out = str(tmp_path / "sf.json")
    rc, text, _ = run(["simulate-fourier", "--alpha", "1", "--T", "1",
                       "--eps", "1e-6", "--seed", "7", "--out", out], capsys)
    assert rc == 0
    obj = json.loads(read_bytes(out))
    assert obj["error_measured"] <= (obj["truncation_bound"]
                                     + obj["aliasing_bound"])
    assert obj["size"] == 8
    assert obj["plan"]["K"] >= 1


def test_simulate_contour_report(tmp_path, capsys):
    out = str(tmp_path / "sc.json")
    rc, text, _ = run(["simulate-contour", "--f", "exp-neg", "--eps", "1e-8",
                       "--seed", "3", "--size", "6", "--rho", "0.4",
                       "--out", out], capsys)
    assert rc == 0
    obj = json.loads(read_bytes(out))
    assert obj["error_measured"] <= obj["error_bound"]
    assert obj["f"] == "exp-neg"
    assert obj["plan"]["m"] >= 1
    assert obj["plan"]["quad_n"] >= 8 * obj["plan"]["m"]
    assert obj["plan"]["kappa_S"] == 1.0
    assert obj["eps"] == 1e-8 and obj["f_psi_norm"] > 0.0
    assert obj["error_relative"] == obj["error_measured"] / obj["f_psi_norm"]
    assert obj["error_relative"] <= obj["eps"]


def test_simulate_contour_on_a_tiny_normal_operator(tmp_path, capsys):
    """At rho = 1e-13 the generated operator is normal, not Hermitian: it is
    decomposed, and its error stays within the reported bound."""
    out = str(tmp_path / "sc.json")
    rc, _, err = run(["simulate-contour", "--f", "exp-neg", "--rho", "1e-13",
                      "--out", out], capsys)
    assert rc == 0, err
    obj = json.loads(read_bytes(out))
    assert obj["error_measured"] <= obj["error_bound"]


def test_contour_relative_error_of_a_zero_target(tmp_path, capsys):
    """f(A) psi = 0 has no relative error: JSON null, an empty CSV cell."""
    out = str(tmp_path / "sc.json")
    rc, _, _ = run(["simulate-contour", "--f", "poly:0", "--m", "8", "--out", out], capsys)
    obj = json.loads(read_bytes(out))
    assert rc == 0 and obj["f_psi_norm"] == 0.0 and obj["error_relative"] is None
    out = str(tmp_path / "sw.csv")
    rc, _, _ = run(["sweep", "--path", "contour", "--f", "poly:0,0", "--m", "8:16:8",
                    "--out", out], capsys)
    assert rc == 0
    rows = read_bytes(out).decode().splitlines()[1:]
    assert [ln.split(",")[-1] for ln in rows] == ["", ""]


def test_app_heat_record(tmp_path, capsys):
    out1 = str(tmp_path / "a1.csv")
    out2 = str(tmp_path / "a2.csv")
    base = ["app", "--name", "heat", "--d", "1", "--n", "6", "--T", "0.5",
            "--eps", "1e-4", "--seed", "1"]
    assert run(base + ["--out", out1], capsys)[0] == 0
    assert run(base + ["--out", out2], capsys)[0] == 0
    lines1 = read_bytes(out1).decode().splitlines()
    lines2 = read_bytes(out2).decode().splitlines()
    assert lines1[0] == ",".join(RECORD_HEADER)
    # identical modulo the measured wall time in the last column
    assert lines1[1].rsplit(",", 1)[0] == lines2[1].rsplit(",", 1)[0]
    fields = lines1[1].split(",")
    assert fields[0] == "heat"
    err = float(fields[RECORD_HEADER.index("error_measured")])
    bound = float(fields[RECORD_HEADER.index("error_bound")])
    assert err <= bound


def test_app_heat_on_a_long_line(tmp_path, capsys):
    """heat on 2048 sites runs on the spectrum of its Dirac root, which
    is never formed, and meets its bound."""
    out = str(tmp_path / "heat.csv")
    rc, _, err = run(["app", "--name", "heat", "--d", "1", "--n", "2048", "--T", "0.5",
                      "--eps", "1e-6", "--out", out], capsys)
    assert rc == 0, err
    row = read_bytes(out).decode().splitlines()[1].split(",")
    assert (float(row[RECORD_HEADER.index("error_measured")])
            <= float(row[RECORD_HEADER.index("error_bound")]))


def test_app_matrix_poly(tmp_path, capsys):
    out = str(tmp_path / "mp.csv")
    rc, text, _ = run(["app", "--name", "matrix_poly", "--d", "1", "--n", "6",
                       "--T", "0", "--eps", "1e-6", "--m", "8",
                       "--coeffs", "1,2,0,3", "--out", out], capsys)
    assert rc == 0
    row = read_bytes(out).decode().splitlines()[1].split(",")
    assert float(row[RECORD_HEADER.index("error_measured")]) <= 1e-12
    assert "m=8" in row[RECORD_HEADER.index("params")]


def test_app_matrix_poly_needs_no_evolution_time(tmp_path, capsys):
    """matrix_poly reads no T: without --T its record leaves the T cell
    empty, and a T given is recorded."""
    out = tmp_path / "mp.csv"
    base = ["app", "--name", "matrix_poly", "--d", "1", "--n", "4", "--eps", "1e-6"]
    assert run(base + ["--out", str(out)], capsys)[0] == 0
    assert read_bytes(out).decode().splitlines()[1].split(",")[RECORD_HEADER.index("T")] == ""
    assert run(base + ["--T", "0.5", "--out", str(out)], capsys)[0] == 0
    assert read_bytes(out).decode().splitlines()[1].split(",")[RECORD_HEADER.index("T")] == "0.5"


def test_app_matrix_poly_at_any_mesh_size(tmp_path, capsys):
    """A = 2(-Delta)/(4d/h^2) - I does not depend on h: at h = 1e160, where
    2/h^2 is subnormal, the record matches the h = 1 record but for its h
    cell (and the measured wall time)."""
    rows = {}
    for h in ("1", "1e160"):
        out = tmp_path / f"mp-{h}.csv"
        rc, _, err = run(["app", "--name", "matrix_poly", "--d", "1", "--n", "4",
                          "--h", h, "--eps", "1e-6", "--out", str(out)], capsys)
        assert rc == 0, err
        rows[h] = read_bytes(out).decode().splitlines()[1].split(",")[:-1]
    cell = RECORD_HEADER.index("h")
    assert float(rows["1e160"][cell]) == 1e160
    del rows["1"][cell], rows["1e160"][cell]
    assert rows["1"] == rows["1e160"]


def test_cost_path_a(tmp_path, capsys):
    out = str(tmp_path / "cost.json")
    rc, text, _ = run(["cost", "--path", "a", "--alpha", "1", "--T", "1",
                       "--eps", "1e-6", "--out", out], capsys)
    assert rc == 0
    obj = json.loads(read_bytes(out))
    assert obj["path"] == "A" and obj["matrix_queries"] > 0
    assert obj["assumptions"]


def test_cost_path_b_and_both(tmp_path, capsys):
    outb = str(tmp_path / "cb.json")
    rc, _, _ = run(["cost", "--path", "b", "--f", "exp-neg", "--eps", "1e-6",
                    "--out", outb], capsys)
    assert rc == 0
    assert json.loads(read_bytes(outb))["path"] == "B"

    out = str(tmp_path / "cost.csv")
    rc, text, _ = run(["cost", "--path", "both", "--alpha", "1", "--T", "1",
                       "--eps", "1e-6", "--out", out], capsys)
    assert rc == 0
    assert text.startswith("recommendation: either")
    lines = read_bytes(out).decode().splitlines()
    assert lines[0] == "metric,path-a,path-b"
    metrics = [ln.split(",")[0] for ln in lines[1:]]
    assert metrics == ["matrix_queries", "state_queries", "lcu_terms",
                       "amplification", "l1_norm", "u_r"]


def test_cost_path_b_requires_f(capsys):
    rc, _, err = run(["cost", "--path", "b", "--eps", "1e-6"], capsys)
    assert rc == 2 and err.startswith("precondition:")


def test_sweep_fourier(tmp_path, capsys):
    out = str(tmp_path / "sw.csv")
    argv = ["sweep", "--path", "fourier", "--alpha", "1", "--T", "1",
            "--eps", "1e-8", "--K", "4:24:4", "--seed", "7", "--out", out]
    rc, _, _ = run(argv, capsys)
    assert rc == 0
    lines = read_bytes(out).decode().splitlines()
    assert lines[0] == "K,error_measured,error_bound"
    assert len(lines) == 7
    for ln in lines[1:]:
        _, err, bound = ln.split(",")
        assert float(err) <= float(bound)
    first = read_bytes(out)
    run(argv, capsys)
    assert read_bytes(out) == first


def test_sweep_contour(tmp_path, capsys):
    out = str(tmp_path / "swc.csv")
    argv = ["sweep", "--path", "contour", "--f", "exp-neg", "--m", "8:32:8",
            "--seed", "3", "--size", "6", "--rho", "0.4", "--R1", "1",
            "--R2", "2", "--out", out]
    rc, _, _ = run(argv, capsys)
    assert rc == 0
    lines = read_bytes(out).decode().splitlines()
    assert lines[0] == "m,error,aliasing_bound,truncation_bound,error_relative"
    rows = [[float(t) for t in ln.split(",")] for ln in lines[1:]]
    errs = [r[1] for r in rows]
    assert errs[-1] < errs[0]
    ratios = [r[1] / r[4] for r in rows]      # ||f(A) psi||, one per sweep
    assert max(ratios) == pytest.approx(min(ratios), rel=1e-14)
    first = read_bytes(out)
    run(argv, capsys)
    assert read_bytes(out) == first


def test_sweep_contour_plans_its_radii_once(tmp_path, capsys, monkeypatch):
    """Every row shares the radii, so B1 and B2 are sampled once per sweep."""
    radii = []
    real = contour.circle_sup
    monkeypatch.setattr(contour, "circle_sup", lambda f, r: radii.append(r) or real(f, r))
    rc, _, err = run(["sweep", "--path", "contour", "--f", "exp-neg", "--m", "8:48:8",
                      "--R1", "1", "--R2", "2", "--out", str(tmp_path / "sw.csv")], capsys)
    assert rc == 0, err
    assert sorted(radii) == [1.0, 2.0]


def test_contour_commands_refuse_outer_radius_at_pole(tmp_path, capsys):
    """R2 = 3 lies beyond the pole of 1/(z+2) at |z| = 2, where the measured
    error exceeds the reported bound: both contour commands refuse it."""
    common = ["--f", "inv-shift:2", "--size", "8", "--rho", "0.5",
              "--R1", "2.5", "--R2", "3", "--out", str(tmp_path / "out")]
    for cmd in (["sweep", "--path", "contour", "--m", "8:16:8"],
                ["simulate-contour", "--m", "16"]):
        rc, _, err = run(cmd + common, capsys)
        assert rc == 2 and "singularity" in err


@pytest.mark.parametrize("argv", [
    ["--path", "b", "--f", "inv-shift:0.1"],
    ["--path", "both", "--alpha", "1", "--f", "inv-shift:0.3"],
], ids=["path-b", "path-both"])
def test_cost_refuses_outer_radius_at_pole(tmp_path, capsys, argv):
    """The cost plan's R2 = 1.1 (rho = 0.5) encloses the pole of 1/(z+c) at
    |z| = c < 1.1: cost refuses it as the contour commands do."""
    rc, _, err = run(["cost", "--eps", "1e-6", *argv, "--out", str(tmp_path / "out")],
                     capsys)
    assert rc == 2 and "singularity" in err


def test_cost_refuses_the_pole_before_sampling_f(tmp_path, capsys, monkeypatch):
    """The planner admits R2 = 1.1 against the pole of 1/(z+0.1) at |z| = 0.1
    before it samples f on any circle."""
    radii = []
    real = contour.circle_sup
    monkeypatch.setattr(contour, "circle_sup", lambda f, r: radii.append(r) or real(f, r))
    rc, _, err = run(["cost", "--path", "b", "--f", "inv-shift:0.1", "--eps", "1e-6",
                      "--out", str(tmp_path / "out")], capsys)
    assert rc == 2 and "singularity" in err
    assert radii == []


class _Reached(Exception):
    pass


def _refuse_allocation(seed, shape):
    raise _Reached(shape)


@pytest.mark.parametrize("argv", [
    ["simulate-fourier", "--alpha", "1", "--T", "1", "--eps", "1e-6"],
    ["simulate-contour", "--f", "exp-neg"],
    ["sweep", "--path", "fourier", "--alpha", "1", "--T", "1", "--K", "4:8:4"],
    ["sweep", "--path", "contour", "--f", "exp-neg", "--m", "8:16:8"],
], ids=["simulate-fourier", "simulate-contour", "sweep-fourier", "sweep-contour"])
def test_size_beyond_the_dense_cap_is_refused_before_allocating(tmp_path, capsys,
                                                                monkeypatch, argv):
    """A generated instance of side 100000 would take 149 GiB: it is refused
    against the dense cap before any entry is drawn."""
    monkeypatch.setattr(instances, "complex_gaussian", _refuse_allocation)
    for size in ("4097", "100000"):
        rc, _, err = run(argv + ["--size", size, "--out", str(tmp_path / "out")], capsys)
        assert rc == 2 and err.startswith("precondition:") and "4096" in err, err
    with pytest.raises(_Reached):         # the cap itself is admitted
        instances.random_psd(0, 4096)
    with pytest.raises(_Reached):
        instances.random_normal_matrix(0, 4096)


@pytest.mark.parametrize("argv", [
    ["simulate-fourier", "--alpha", "1", "--T", "1", "--eps", "1e-6", "--seed", "-1"],
    ["simulate-contour", "--f", "exp-neg", "--seed", "-1"],
    ["sweep", "--path", "fourier", "--alpha", "1", "--T", "1", "--K", "4:8:4",
     "--seed", "-5"],
    ["app", "--name", "matrix_poly", "--d", "1", "--n", "4", "--eps", "1e-6",
     "--seed", "-1"],
    ["plan", "--alpha", "1", "--T", "1", "--eps", "1e-6", "--hnorm", "1", "--seed", "-1"],
], ids=["simulate-fourier", "simulate-contour", "sweep-fourier", "app", "plan"])
def test_negative_seed_is_refused(tmp_path, capsys, argv):
    rc, _, err = run(argv + ["--out", str(tmp_path / "out")], capsys)
    assert rc == 2 and err.startswith("precondition:") and "--seed" in err, err


def test_negative_seed_from_config_is_refused(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("seed = -3\n")
    rc, _, err = run(["simulate-contour", "--f", "exp-neg", "--config", str(cfg),
                      "--out", str(tmp_path / "out")], capsys)
    assert rc == 2 and err.startswith("precondition:") and "--seed" in err, err


def test_sweep_fourier_row_at_plan_cutoff_matches_simulate(tmp_path, capsys):
    """The sweep and simulate-fourier share one series evaluator and one
    bound; the sweep samples its coefficients at its largest K."""
    common = ["--alpha", "0.75", "--T", "1", "--eps", "1e-3", "--size", "8",
              "--seed", "5"]
    sim = str(tmp_path / "sim.json")
    assert run(["simulate-fourier", *common, "--out", sim], capsys)[0] == 0
    report = json.loads(read_bytes(sim))
    K = report["plan"]["K"]
    sw = str(tmp_path / "sw.csv")
    assert run(["sweep", "--path", "fourier", *common, "--K", f"{K - 8}:{K + 8}:4",
                "--out", sw], capsys)[0] == 0
    rows = [ln.split(",") for ln in read_bytes(sw).decode().splitlines()[1:]]
    row = next(r for r in rows if int(r[0]) == K)
    assert abs(float(row[1]) - report["error_measured"]) <= 1e-15
    assert float(row[2]) == report["truncation_bound"] + report["aliasing_bound"]


def test_sweep_contour_row_at_planned_m_matches_simulate(tmp_path, capsys):
    """The contour sweep and simulate-contour plan through one planner and
    report one bound: at the m simulate-contour planned, the sweep row
    reports the same error, and its two channels add up to the same bound."""
    common = ["--f", "exp-neg", "--size", "8", "--rho", "0.5", "--seed", "5"]
    sim = str(tmp_path / "sim.json")
    assert run(["simulate-contour", *common, "--eps", "1e-8", "--out", sim], capsys)[0] == 0
    report = json.loads(read_bytes(sim))
    m = report["plan"]["m"]
    sw = str(tmp_path / "sw.csv")
    assert run(["sweep", "--path", "contour", *common, "--m", f"{m - 8}:{m + 8}:4",
                "--out", sw], capsys)[0] == 0
    rows = [ln.split(",") for ln in read_bytes(sw).decode().splitlines()[1:]]
    row = next(r for r in rows if int(r[0]) == m)
    assert float(row[1]) == report["error_measured"]
    assert float(row[2]) + float(row[3]) == report["error_bound"]


@pytest.mark.parametrize("argv", [
    ["kernel", "--alpha", "127.5", "--T", "1", "--x", "0:1:0.1"],
    ["kernel", "--alpha", "200.25", "--T", "1", "--x", "0:1:0.1"],
    ["plan", "--alpha", "127.5", "--T", "1", "--eps", "1e-6", "--hnorm", "1"],
], ids=["kernel-p255", "kernel-p400.5", "plan-p255"])
def test_large_fractional_p_exits_zero_or_two(tmp_path, capsys, argv):
    rc, _, err = run(argv + ["--out", str(tmp_path / "out")], capsys)
    assert rc in (0, 2), err


def test_kernel_envelope_constant_beyond_the_float_range(tmp_path, capsys):
    """At p = 180.5 the algebraic envelope constant overflows, and the table
    reads the envelope in logarithms: inf at the pole x = 0 and wherever it
    exceeds the largest float, finite further out."""
    out = str(tmp_path / "k.csv")
    for x in ("0:0:1", "0:1:0.5"):
        rc, _, err = run(["kernel", "--alpha", "90.25", "--T", "1", "--x", x,
                          "--out", out], capsys)
        assert rc == 0, err
        assert all(ln.endswith(",inf") for ln in read_bytes(out).decode().splitlines()[1:])
    rc, _, err = run(["kernel", "--alpha", "90.25", "--T", "1", "--x", "10:10:1",
                      "--out", out], capsys)
    assert rc == 0, err
    assert 0.0 < float(read_bytes(out).decode().splitlines()[1].split(",")[2]) < math.inf


def test_config_merge_and_override(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# planner inputs\nalpha = 1\nT = 1\n\neps = 1e-6\nhnorm = 1\n")
    out1 = str(tmp_path / "p1.json")
    out2 = str(tmp_path / "p2.json")
    assert run(["plan", "--config", str(cfg), "--out", out1], capsys)[0] == 0
    assert run(["plan", "--alpha", "1", "--T", "1", "--eps", "1e-6",
                "--hnorm", "1", "--out", out2], capsys)[0] == 0
    assert read_bytes(out1) == read_bytes(out2)
    # a flag beats the config value it shadows
    out3 = str(tmp_path / "p3.json")
    assert run(["plan", "--config", str(cfg), "--eps", "1e-3",
                "--out", out3], capsys)[0] == 0
    assert json.loads(read_bytes(out3))["K"] < json.loads(read_bytes(out1))["K"]
    # a config value is cast like its flag, and a key no flag names is ignored
    sim = tmp_path / "sim.cfg"
    sim.write_text("seed = 7\nthreads = 4\n")
    common = ["simulate-fourier", "--alpha", "1", "--T", "1", "--eps", "1e-6"]
    out4 = str(tmp_path / "s4.json")
    out5 = str(tmp_path / "s5.json")
    assert run(common + ["--config", str(sim), "--out", out4], capsys)[0] == 0
    assert run(common + ["--seed", "7", "--out", out5], capsys)[0] == 0
    assert read_bytes(out4) == read_bytes(out5)
    # a config value that fails its type is a usage error, as a bad flag is
    bad = tmp_path / "bad-eps.cfg"
    bad.write_text("eps = abc\n")
    with pytest.raises(SystemExit) as exc:
        cli.main(["plan", "--config", str(bad), "--alpha", "1", "--T", "1",
                  "--hnorm", "1", "--out", str(tmp_path / "p6.json")])
    assert exc.value.code == 2
    capsys.readouterr()


def test_config_malformed_line(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("alpha = 1\nthis line has no equals\n")
    rc, _, err = run(["plan", "--config", str(cfg)], capsys)
    assert rc == 2
    assert "bad.cfg:2" in err


def test_exit_code_precondition(capsys):
    rc, _, err = run(["plan", "--alpha", "1", "--T", "1", "--hnorm", "1"],
                     capsys)
    assert rc == 2 and "missing required parameter --eps" in err
    rc, _, err = run(["plan", "--alpha", "0.3", "--T", "1", "--eps", "1e-6",
                      "--hnorm", "1"], capsys)
    assert rc == 2 and err.startswith("precondition:")
    rc, _, err = run(["simulate-contour", "--f", "inv-shift:1.2",
                      "--R1", "1", "--R2", "2", "--size", "4"], capsys)
    assert rc == 2 and "singularity" in err


# The message an admission case must name, where one check speaks for
# several paths to a refusal.
_ADMISSION_MESSAGES = {
    "simulate-contour --f exp-neg --R1 1 --R2 0.9": "R2 = 0.9 must exceed the lattice radius R1",
    "simulate-contour --f exp-neg --R1 1 --R2 0.9 --m 10":
        "R2 = 0.9 must exceed the lattice radius R1",
}


@pytest.mark.parametrize("argv", [
    ["plan", "--alpha", "1", "--T", "1", "--eps", "1e-6", "--hnorm", "nan"],
    ["plan", "--alpha", "1", "--T", "1", "--eps", "1e-6", "--hnorm", "inf"],
    ["plan", "--alpha", "inf", "--T", "1", "--eps", "1e-6", "--hnorm", "1"],
    ["simulate-fourier", "--alpha", "1", "--T", "1", "--eps", "1e-6",
     "--size", "0"],
    ["app", "--name", "matrix_poly", "--d", "1", "--n", "8", "--T", "0.5",
     "--eps", "1e-6", "--coeffs", "1,x"],
    # 4225 and 4913 sites: the grid refuses them before anything is allocated.
    ["app", "--name", "heat", "--d", "2", "--n", "65", "--T", "0.5", "--eps", "1e-6"],
    ["app", "--name", "levy", "--d", "3", "--n", "17", "--T", "0.5", "--eps", "1e-6"],
    # eps outside (0, 1) is refused before the operator is built, also when
    # --m leaves nothing to plan and when f(A) psi would overflow.
    ["simulate-contour", "--f", "exp-neg", "--eps=-0.5", "--m", "8"],
    ["simulate-contour", "--f", "poly:1,2,0,3", "--eps=-0.5", "--rho", "1e300",
     "--size", "2", "--seed", "2"],
    ["app", "--name", "matrix_poly", "--d", "1", "--n", "8", "--eps", "5", "--m", "8"],
    # A budget the growth steps cannot reach: the saddle rate of a large even
    # p vanishes with sin(pi/(2(p-1))).
    ["plan", "--alpha", "1e6", "--T", "1", "--eps", "1e-6", "--hnorm", "1"],
    ["simulate-fourier", "--alpha", "1e300", "--T", "1", "--eps", "1e-6"],
    ["simulate-contour", "--f", "exp-neg", "--size", "0"],
    ["sweep", "--path", "contour", "--f", "exp-neg", "--m", "8:16:8", "--size", "0"],
    ["simulate-contour", "--f", "exp-neg", "--rho", "-1"],
    # {tmp} is the test's directory, where missing.json is never written.
    ["simulate-fourier", "--alpha", "1", "--T", "1", "--eps", "1e-6",
     "--matrix", "{tmp}/missing.json"],
    ["simulate-contour", "--f", "exp-neg", "--matrix", "{tmp}/malformed.json"],
    ["sweep", "--path", "contour", "--f", "exp-neg", "--m", "8:16:8",
     "--matrix", "{tmp}/im-x.json"],
    ["simulate-contour", "--f", "exp-neg", "--matrix", "{tmp}/negative.json"],
    ["simulate-contour", "--f", "exp-neg", "--matrix", "{tmp}/rows-2.5.json"],
    ["cost", "--path", "b", "--f", "exp-neg", "--eps", "1e-6", "--psinorm", "nan"],
    ["cost", "--path", "b", "--f", "exp-neg", "--eps", "1e-6", "--fpsi", "inf"],
    # A mesh size that is not finite, or at which 4d/h^2 overflows.
    ["app", "--name", "heat", "--d", "1", "--n", "8", "--T", "0.5", "--eps", "1e-4",
     "--h", "inf"],
    ["app", "--name", "heat", "--d", "1", "--n", "8", "--T", "0.5", "--eps", "1e-4",
     "--h", "nan"],
    ["app", "--name", "heat", "--d", "1", "--n", "8", "--T", "0.5", "--eps", "1e-4",
     "--h", "1e-200"],
    # K = 1,988,827 terms on 289 eigenvalues: a 4.6 GB cosine table.
    ["app", "--name", "heat", "--d", "2", "--n", "12", "--h", "1e-6", "--T", "0.5",
     "--eps", "1e-4"],
    # plan refuses a negative norm itself: max |lambda| of [0, -1] would be 1.
    ["plan", "--alpha", "1", "--T", "1", "--eps", "1e-6", "--hnorm", "-1",
     "--mode", "direct"],
    # The period a = ||H|| + gap rounds to ||H||: the planner refuses the gap.
    ["plan", "--alpha", "1", "--T", "1", "--eps", "1e-6", "--hnorm", "1e300",
     "--mode", "direct"],
    # cost plans for the operator [rho], so it refuses a rho no operator has.
    ["cost", "--path", "b", "--f", "exp-neg", "--eps", "1e-6", "--rho", "-0.5"],
    ["cost", "--path", "b", "--f", "exp-neg", "--eps", "1e-6", "--rho", "nan"],
    ["cost", "--path", "b", "--f", "exp-neg", "--eps", "1e-6", "--rho", "inf"],
    # sweep --path contour admits its --eps as simulate-contour does.
    ["sweep", "--path", "contour", "--f", "exp-neg", "--m", "8:16:8", "--eps", "nan"],
    ["sweep", "--path", "contour", "--f", "exp-neg", "--m", "8:16:8", "--eps=-5"],
    ["sweep", "--path", "contour", "--f", "exp-neg", "--m", "8:16:8", "--eps", "1e-16"],
    # Declared sizes beyond the caps, refused before anything is built: the
    # 3-line coordinate file would densify to 74.5 GiB, and 1e9 range points
    # make a list of tens of GB.
    ["simulate-contour", "--f", "exp-neg", "--matrix", "{tmp}/big.mtx"],
    ["simulate-fourier", "--alpha", "1", "--T", "1", "--eps", "1e-6",
     "--matrix", "{tmp}/rows-5000.json"],
    ["sweep", "--path", "fourier", "--alpha", "1", "--T", "1", "--K", "0:1e9:1"],
    ["sweep", "--path", "contour", "--f", "exp-neg", "--m", "8:1e9:8"],
    ["kernel", "--alpha", "1", "--T", "1", "--x", "0:1e9:1"],
    # re or im nested instead of flat, with the declared entry count.
    ["simulate-contour", "--f", "exp-neg", "--matrix", "{tmp}/re-nested.json"],
    ["simulate-fourier", "--alpha", "1", "--T", "1", "--eps", "1e-6",
     "--matrix", "{tmp}/im-nested.json"],
    # A node count beyond the int64 range.
    ["sweep", "--path", "contour", "--f", "exp-neg", "--m", "9.3e18:9.3e18:1"],
    # A function spec with a number that is not finite.
    ["simulate-contour", "--f", "inv-shift:nan"],
    ["simulate-contour", "--f", "inv-shift:inf"],
    ["simulate-contour", "--f", "poly:nan,1"],
    ["sweep", "--path", "contour", "--f", "inv-shift:nan", "--m", "8:16:8"],
    # An outer radius inside the lattice circle, refused by the radii
    # themselves whether m is planned or given.
    ["simulate-contour", "--f", "exp-neg", "--R1", "1", "--R2", "0.9"],
    ["simulate-contour", "--f", "exp-neg", "--R1", "1", "--R2", "0.9", "--m", "10"],
], ids=["hnorm-nan", "hnorm-inf", "alpha-inf", "size-0", "coeffs-x",
        "heat-d2-n65", "levy-d3-n17", "contour-eps-negative-m8",
        "contour-eps-negative-rho-1e300", "matrix-poly-eps-5-m8", "plan-p2e6-budget",
        "simulate-fourier-p2e300-budget", "contour-size-0", "sweep-contour-size-0",
        "contour-rho-negative", "matrix-missing", "matrix-malformed",
        "matrix-im-x", "matrix-negative-dims", "matrix-rows-2.5",
        "cost-psinorm-nan", "cost-fpsi-inf", "app-h-inf", "app-h-nan",
        "app-h-1e-200", "app-h-1e-6-table", "plan-hnorm-negative",
        "plan-hnorm-1e300-gap", "cost-rho-negative", "cost-rho-nan", "cost-rho-inf",
        "sweep-contour-eps-nan", "sweep-contour-eps-negative",
        "sweep-contour-eps-1e-16", "matrix-mtx-100000", "matrix-rows-5000",
        "sweep-fourier-K-1e9", "sweep-contour-m-1e9", "kernel-x-1e9",
        "matrix-re-nested", "matrix-im-nested", "sweep-contour-m-9.3e18",
        "contour-f-inv-shift-nan", "contour-f-inv-shift-inf", "contour-f-poly-nan",
        "sweep-contour-f-inv-shift-nan", "contour-R2-below-R1", "contour-R2-below-R1-m10"])
def test_exit_code_admission(tmp_path, capsys, argv):
    (tmp_path / "malformed.json").write_text('{"rows": 1,')
    (tmp_path / "im-x.json").write_text(
        json.dumps({"rows": 1, "cols": 1, "re": [1.0], "im": "x"}))
    (tmp_path / "negative.json").write_text(
        json.dumps({"rows": -2, "cols": -2, "re": [1.0] * 4, "im": [0.0] * 4}))
    (tmp_path / "rows-2.5.json").write_text(
        json.dumps({"rows": 2.5, "cols": 2, "re": [0.5, 0.0, 0.0, 0.25],
                    "im": [0.0] * 4}))
    (tmp_path / "big.mtx").write_text("%%MatrixMarket matrix coordinate real general\n"
                                      "100000 100000 1\n1 1 1.0\n")
    (tmp_path / "rows-5000.json").write_text(
        json.dumps({"rows": 5000, "cols": 5000, "re": [0.0], "im": [0.0]}))
    (tmp_path / "re-nested.json").write_text(
        json.dumps({"rows": 2, "cols": 2, "re": [[1, 0], [0, 1]], "im": [0] * 4}))
    (tmp_path / "im-nested.json").write_text(
        json.dumps({"rows": 2, "cols": 2, "re": [1, 0, 0, 1], "im": [[0, 0], [0, 0]]}))
    needle = _ADMISSION_MESSAGES.get(" ".join(argv), "")
    argv = [a.format(tmp=tmp_path) for a in argv]
    t0 = time.perf_counter()
    rc, _, err = run(argv + ["--out", str(tmp_path / "out")], capsys)
    assert rc == 2 and err.startswith("precondition:") and needle in err
    assert time.perf_counter() - t0 < 1.0


@pytest.mark.parametrize("coeffs", ["inf", "nan", "1,-inf,3"])
def test_app_refuses_non_finite_coeffs(tmp_path, capsys, coeffs):
    """A coefficient that is not finite is refused at the door (exit 2),
    with a message that names --coeffs, before any operator is built."""
    rc, _, err = run(["app", "--name", "matrix_poly", "--d", "1", "--n", "4",
                      "--eps", "1e-6", "--coeffs", coeffs,
                      "--out", str(tmp_path / "out")], capsys)
    assert rc == 2 and err.startswith("precondition:") and "--coeffs" in err


@pytest.mark.parametrize("flag", ["--eps", "--R1", "--rho"])
def test_negative_exponent_value_reaches_the_command(tmp_path, capsys, flag):
    """argparse takes -1e-8 for a flag; the command's own admission sees it."""
    rc, _, err = run(["simulate-contour", "--f", "exp-neg", flag, "-1e-8",
                      "--out", str(tmp_path / "out")], capsys)
    assert rc == 2 and err.startswith("precondition:") and "-1e-08" in err


@pytest.mark.parametrize("argv", [
    ["plan", "--alpha", "1", "--T", "1", "--eps", "1e-6", "--hnorm", "1"],
    ["kernel", "--alpha", "1", "--T", "1", "--x", "0:1:0.5"],
    ["simulate-fourier", "--alpha", "1", "--T", "1", "--eps", "1e-6", "--size", "4"],
    ["simulate-contour", "--f", "exp-neg", "--size", "4"],
    ["app", "--name", "heat", "--d", "1", "--n", "4", "--T", "0.5", "--eps", "1e-4"],
    ["cost", "--path", "both", "--alpha", "1", "--T", "1", "--eps", "1e-6"],
    ["sweep", "--path", "contour", "--f", "exp-neg", "--m", "8:16:8", "--size", "4"],
], ids=lambda argv: argv[0])
def test_unwritable_out_exits_two(tmp_path, capsys, argv):
    """An --out in a missing directory is a precondition failure, not a
    traceback."""
    out = str(tmp_path / "missing" / "out")
    rc, _, err = run(argv + ["--out", out], capsys)
    assert rc == 2 and err.startswith("precondition:") and out in err
    assert not os.path.exists(tmp_path / "missing")


_X_EXPONENTS = {"near 1e-300": (-308.0, -290.0), "near 0": (-6.0, 0.0),
                "near 1e300": (290.0, 307.0)}


@st.composite
def _kernel_ranges(draw):
    """lo:hi:step of one to five points at |x| near 1e-300, 0 or 1e300."""
    lo_exp, hi_exp = _X_EXPONENTS[draw(st.sampled_from(sorted(_X_EXPONENTS)))]
    x = 10.0 ** draw(st.floats(lo_exp, hi_exp))
    step = draw(st.sampled_from([x / 4, 1.0]))
    lo = draw(st.sampled_from([-x, x]))
    return f"{lo!r}:{lo + draw(st.integers(0, 4)) * step!r}:{step!r}"


# An alpha whose p = 2 alpha overflows, and times at the ends of the floats.
_EXTREME_ALPHA = [1e308]
_EXTREME_T = [5e-324, 1e308]


@settings(derandomize=True, deadline=None, max_examples=80)
@given(alpha=st.one_of(st.floats(0.3, 90.0), st.sampled_from(_EXTREME_ALPHA)),
       T=st.one_of(st.floats(1e-3, 10.0), st.sampled_from(_EXTREME_T)),
       mode=st.sampled_from(["root", "direct"]), x=_kernel_ranges())
@example(alpha=60.25, T=1.0, mode="root", x="0.001:0.002:0.001")
@example(alpha=1e308, T=1.0, mode="root", x="0:10:0.5")
@example(alpha=1.0, T=5e-324, mode="root", x="0:1:0.5")
@example(alpha=1e308, T=1.0, mode="direct", x="-1e+302:-1e+302:2.5e+301")
def test_kernel_exit_code_fuzz(tmp_path_factory, alpha, T, mode, x):
    """A kernel table returns (exit 0) or refuses (exit 2 or 3), never a
    traceback: at p = 120.5 and x = 1e-3, |x|^{p+1} underflows and the
    envelope reads inf; at T = 5e-324 the envelope rate overflows; at step
    2.5e301 the lattice period overflows."""
    out = str(tmp_path_factory.getbasetemp() / "fuzz.csv")
    rc = cli.main(["kernel", "--alpha", repr(alpha), "--T", repr(T), "--mode", mode,
                   "--x", x, "--out", out])
    assert rc in (0, 2, 3)


# Fourier planner overflows that exited 1: gap^p in the aliasing bound at
# p = 16000.5 and p = 2e300, and K = (K/a) * a beyond the float range. At
# p = 2e300 the truncation cutoff never meets its budget.
_PLAN_OVERFLOWS = [
    (["plan", "--alpha", "8000.25", "--T", "1", "--eps", "1e-6", "--hnorm", "1"], 2),
    (["plan", "--alpha", "0.5", "--T", "1e300", "--eps", "0.5", "--hnorm", "1e300"], 2),
    (["simulate-fourier", "--alpha", "1e300", "--T", "1", "--eps", "1e-6"], 2),
    (["sweep", "--path", "fourier", "--alpha", "1e300", "--T", "1", "--K", "4:8:4"], 2),
]


@pytest.mark.parametrize("argv,code", _PLAN_OVERFLOWS,
                         ids=["plan-p16000.5", "plan-K-inf", "simulate-fourier-p1e300",
                              "sweep-fourier-p1e300"])
def test_fourier_planner_overflow_exit_code(tmp_path, capsys, argv, code):
    """A plan beyond the float range or its budget is refused (exit 2),
    never a traceback."""
    rc, _, err = run(argv + ["--out", str(tmp_path / "out")], capsys)
    assert rc == code, err


@pytest.mark.parametrize("eps", ["1e-16", "1e-300"])
@pytest.mark.parametrize("argv", [
    ["simulate-fourier", "--alpha", "1", "--T", "1", "--size", "4"],
    ["simulate-contour", "--f", "exp-neg", "--size", "4"],
    ["app", "--name", "heat", "--d", "1", "--n", "8", "--T", "0.5"],
], ids=lambda argv: argv[0])
def test_eps_below_the_rounding_floor_exits_two(tmp_path, capsys, argv, eps):
    """Below the floor the measured error sits at rounding above the bound
    (1.4e-15 against 4.0e-301 on the contour path at eps 1e-300): each path
    refuses such an eps at the door and names the floor."""
    rc, _, err = run(argv + ["--eps", eps, "--out", str(tmp_path / "out")], capsys)
    assert rc == 2 and f"[{EPS_FLOOR:g}, 1)" in err


def _log_uniform(lo_exp: float, hi_exp: float):
    return st.floats(lo_exp, hi_exp).map(lambda e: 10.0 ** e)


@settings(derandomize=True, deadline=None, max_examples=150)
@given(alpha=st.one_of(_log_uniform(math.log10(0.3), 6.0), st.sampled_from(_EXTREME_ALPHA)),
       T=st.one_of(_log_uniform(-300.0, 300.0), st.sampled_from(_EXTREME_T)),
       eps=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
       hnorm=_log_uniform(-300.0, 300.0), mode=st.sampled_from(["root", "direct"]))
@example(alpha=8000.25, T=1.0, eps=1e-6, hnorm=1.0, mode="root")
@example(alpha=1e308, T=1.0, eps=1e-6, hnorm=1.0, mode="root")
@example(alpha=1.0, T=1e308, eps=1e-16, hnorm=1.0, mode="root")
@example(alpha=2.0, T=5e-324, eps=1e-8, hnorm=1.0, mode="direct")
@example(alpha=0.5, T=1e300, eps=0.5, hnorm=1e300, mode="root")
@example(alpha=1.0, T=1.0, eps=5e-324, hnorm=1.0, mode="direct")
@example(alpha=0.31622776601683794, T=1e-98, eps=0.5, hnorm=1.0, mode="direct")
@example(alpha=115.47819846894582, T=1e-139, eps=0.5, hnorm=1.0, mode="root")
def test_plan_exit_code_fuzz(tmp_path_factory, alpha, T, eps, hnorm, mode):
    """A plan returns (exit 0) or refuses (exit 2 or 3), never a traceback:
    not when eps' is subnormal, nor when p, the gap seed, Gamma(p + 1), the
    envelope rate, the truncation bound or K leaves the float range."""
    out = str(tmp_path_factory.getbasetemp() / "fuzz.json")
    rc = cli.main(["plan", "--alpha", repr(alpha), "--T", repr(T), "--eps", repr(eps),
                   "--hnorm", repr(hnorm), "--mode", mode, "--out", out])
    assert rc in (0, 2, 3)


@settings(derandomize=True, deadline=None, max_examples=80)
@given(command=st.sampled_from(["simulate-fourier", "sweep"]),
       alpha=st.one_of(_log_uniform(math.log10(0.3), 6.0), st.sampled_from(_EXTREME_ALPHA)),
       T=st.one_of(_log_uniform(-300.0, 300.0), st.sampled_from(_EXTREME_T)),
       eps=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
       hnorm=_log_uniform(-300.0, 300.0), mode=st.sampled_from(["root", "direct"]),
       size=st.integers(1, 8), seed=st.integers(0, 1000), K=st.just("4:12:4"))
@example(command="simulate-fourier", alpha=1e300, T=1.0, eps=1e-6, hnorm=1.0,
         mode="root", size=8, seed=0, K="4:12:4")
@example(command="sweep", alpha=1e300, T=1.0, eps=1e-6, hnorm=1.0,
         mode="root", size=8, seed=0, K="4:12:4")
@example(command="simulate-fourier", alpha=1e308, T=1.0, eps=1e-6, hnorm=1.0,
         mode="root", size=8, seed=0, K="4:12:4")
@example(command="sweep", alpha=1.0, T=1.0, eps=1e-6, hnorm=1.0,
         mode="root", size=8, seed=0, K="0:1e9:1")
@example(command="sweep", alpha=1.0, T=1.0, eps=1e-6, hnorm=1.0,
         mode="root", size=8, seed=0, K="9.3e18:9.3e18:1")
def test_fourier_exit_code_fuzz(tmp_path_factory, command, alpha, T, eps, hnorm, mode,
                                size, seed, K):
    """A Fourier run returns (exit 0) or refuses (exit 2 or 3), never a
    traceback: at alpha = 1e300 the truncation cutoff never meets its budget
    within the growth steps, and the run is refused (exit 2), as is a sweep
    over 1e9 cutoffs, whose list alone would not fit in memory, and one at a
    cutoff beyond the int64 range."""
    argv = [command, "--alpha", repr(alpha), f"--T={T!r}", f"--eps={eps!r}",
            f"--hnorm={hnorm!r}", "--mode", mode, "--size", str(size),
            "--seed", str(seed), "--out", str(tmp_path_factory.getbasetemp() / "fuzz")]
    if command == "sweep":
        argv[1:1] = ["--path", "fourier", "--K", K]
    rc = cli.main(argv)
    assert rc in (0, 2, 3)
    if alpha == 1e300 or K in ("0:1e9:1", "9.3e18:9.3e18:1"):
        assert rc == 2


@pytest.mark.parametrize("argv", [
    ["plan", "--eps", "1e-6", "--hnorm", "1"],
    ["kernel"],
    ["simulate-fourier", "--eps", "1e-6"],
    ["cost", "--path", "a", "--eps", "1e-6"],
], ids=lambda argv: argv[0])
def test_overflowing_p_exits_two(tmp_path, capsys, argv):
    """At alpha = 1e308 root mode has p = 2 alpha = inf: the profile refuses
    it (exit 2) before anything rounds p."""
    rc, _, err = run(argv + ["--alpha", "1e308", "--T", "1",
                             "--out", str(tmp_path / "out")], capsys)
    assert rc == 2 and "p = 2 alpha" in err


_EXTREME_VALUES = [0.0, -1.0, 1e-300, 5e-324, 1e300, 1e308, math.nan, math.inf]


def _extreme_or(strategy):
    return st.one_of(st.sampled_from(_EXTREME_VALUES), strategy)


@settings(derandomize=True, deadline=None, max_examples=80)
@given(name=st.sampled_from(list(operators._APPS)), d=st.integers(-1, 3),
       n=st.integers(-1, 8), h=_extreme_or(_log_uniform(-2.0, 2.0)),
       T=_extreme_or(_log_uniform(-3.0, 3.0)), eps=_extreme_or(_log_uniform(-16.0, 0.0)),
       m=st.one_of(st.none(), st.integers(-2, 400), st.sampled_from([2 ** 19 + 1, 10 ** 9])),
       coeffs=st.one_of(st.none(), st.sampled_from(["1,2,0,3", "0,0,0,1e200", "1e200",
                                                     "1e308,1e308,1e308", "inf", "nan"])),
       seed=st.integers(0, 1000))
@example(name="heat", d=1, n=8, h=1.0, T=1e308, eps=1e-16, m=None, coeffs=None, seed=0)
@example(name="matrix_poly", d=1, n=2, h=1.0, T=1.0, eps=1e-6, m=2, coeffs="0,0,0,1e200",
         seed=0)
@example(name="matrix_poly", d=2, n=2, h=1.0, T=2.0, eps=1e-200, m=None, coeffs=None,
         seed=0)
@example(name="matrix_poly", d=1, n=2, h=1.0, T=1.0, eps=1e-6, m=1200, coeffs=None, seed=0)
@example(name="matrix_poly", d=1, n=4, h=1.0, T=1.0, eps=1e-6, m=None,
         coeffs="1e308,1e308,1e308", seed=0)
def test_app_exit_code_fuzz(tmp_path_factory, name, d, n, h, T, eps, m, coeffs, seed):
    """An application returns a finite error (exit 0) or refuses (exit 2 or
    3), never a traceback or a numpy warning (an error under pytest): not at
    T = 1e308, whose truncation bound leaves the float range, nor at
    eps = 1e-200 or m = 1200, whose R1^m underflows to 0 or to a subnormal,
    nor with a coefficient 1e200, whose norms overflow a plain sum of
    squares, nor with coefficients 1e308, whose f overflows on the
    spectrum."""
    out = tmp_path_factory.getbasetemp() / "fuzz.csv"
    argv = ["app", "--name", name, f"--d={d}", f"--n={n}", f"--h={h!r}", f"--T={T!r}",
            f"--eps={eps!r}", "--seed", str(seed), "--out", str(out)]
    argv += [f"--m={m}"] if m is not None else []
    argv += [f"--coeffs={coeffs}"] if coeffs is not None else []
    rc = cli.main(argv)
    assert rc in (0, 2, 3)
    if rc == 0:
        row = read_bytes(out).decode().splitlines()[1].split(",")
        assert math.isfinite(float(row[RECORD_HEADER.index("error_measured")]))


@settings(derandomize=True, deadline=None, max_examples=80)
@given(path=st.sampled_from(["a", "b", "both"]),
       alpha=st.one_of(st.none(), _extreme_or(_log_uniform(math.log10(0.3), 3.0))),
       T=_extreme_or(_log_uniform(-3.0, 3.0)), mode=st.sampled_from(["root", "direct"]),
       eps=_extreme_or(_log_uniform(-16.0, 0.0)),
       f=st.sampled_from(["exp-neg", "exp-neg-i", "poly:1,2,0,3", "inv-shift:2", None]),
       norms=st.lists(_extreme_or(_log_uniform(-3.0, 3.0)), min_size=6, max_size=6))
@example(path="a", alpha=1e308, T=1.0, mode="root", eps=1e-6, f=None,
         norms=[1.0] * 6)
def test_cost_exit_code_fuzz(tmp_path_factory, path, alpha, T, mode, eps, f, norms):
    """A cost model returns (exit 0) or refuses (exit 2 or 3), never a
    traceback: not when alpha overflows p, nor at any extreme norm."""
    argv = ["cost", "--path", path, f"--T={T!r}", "--mode", mode, f"--eps={eps!r}",
            "--out", str(tmp_path_factory.getbasetemp() / "fuzz")]
    argv += [f"--alpha={alpha!r}"] if alpha is not None else []
    argv += [f"--f={f}"] if f is not None else []
    argv += [f"{flag}={v!r}" for flag, v in zip(
        ("--anorm", "--ur", "--rho", "--gamma", "--fpsi", "--psinorm"), norms)]
    assert cli.main(argv) in (0, 2, 3)


@pytest.mark.parametrize("argv", [
    ["simulate-fourier", "--alpha", "1", "--T", "1", "--eps", "1e-6"],
    ["simulate-fourier", "--alpha", "2", "--mode", "direct", "--T", "0.5",
     "--eps", "1e-8"],
    ["sweep", "--path", "fourier", "--alpha", "1", "--T", "1", "--K", "4:24:4"],
    ["app", "--name", "heat", "--d", "2", "--n", "4", "--T", "0.5", "--eps", "1e-6"],
    ["app", "--name", "biharmonic", "--d", "1", "--n", "8", "--T", "0.5",
     "--eps", "1e-6"],
    ["app", "--name", "levy", "--d", "1", "--n", "8", "--T", "0.5", "--eps", "1e-2"],
], ids=["simulate-fourier-root", "simulate-fourier-direct", "sweep-fourier", "app-heat",
        "app-biharmonic", "app-levy"])
def test_fourier_commands_never_form_a_dense_function(tmp_path, capsys, monkeypatch, argv):
    """The Fourier commands measure their error on the spectrum: neither the
    series, nor the oracle, nor any function of the operator is formed."""
    def unused(*args, **kwargs):  # pragma: no cover - must not run
        raise AssertionError(f"{argv[0]} formed a dense function of its operator")

    for module in (linalg, fourier, contour, operators, cli):
        for name in ("matfun", "evolution_matrix", "assemble_fourier_approx"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, unused)
    rc, _, err = run(argv + ["--out", str(tmp_path / "out")], capsys)
    assert rc == 0, err


def test_exit_code_numerical(tmp_path, capsys):
    mpath = str(tmp_path / "jordan.json")
    save_matrix(mpath, np.array([[0.5, 1.0], [0.0, 0.5]]))
    rc, _, err = run(["simulate-contour", "--f", "exp-neg",
                      "--matrix", mpath, "--R1", "1"], capsys)
    assert rc == 3 and err.startswith("numerical:")


@pytest.mark.parametrize("command", [
    ["simulate-fourier", "--alpha", "1", "--T", "1", "--eps", "1e-6"],
    ["sweep", "--path", "fourier", "--alpha", "1", "--T", "1", "--K", "4:8:4"],
])
def test_fourier_commands_refuse_defective_operator(tmp_path, capsys, command):
    """A non-Hermitian operator is a precondition failure (exit 2), also when
    it is defective and would fail to diagonalize (exit 3)."""
    mpath = str(tmp_path / "jordan.json")
    save_matrix(mpath, np.array([[0.0, 1.0], [0.0, 0.0]]))
    rc, _, err = run(command + ["--matrix", mpath, "--out", str(tmp_path / "out")],
                     capsys)
    assert rc == 2 and "Hermitian" in err


def _eig_calls(argv, capsys, monkeypatch) -> int:
    """Calls of numpy's eig and eigh made by one successful command."""
    calls = []
    for name in ("eig", "eigh"):
        def counted(*a, _name=name, _orig=getattr(np.linalg, name), **k):
            calls.append(_name)
            return _orig(*a, **k)
        monkeypatch.setattr(np.linalg, name, counted)
    rc, _, err = run(argv, capsys)
    assert rc == 0, err
    return len(calls)


@pytest.mark.parametrize("argv", [
    ["simulate-contour", "--f", "exp-neg"],
    ["sweep", "--path", "contour", "--f", "exp-neg", "--m", "8:24:8"],
    ["simulate-fourier", "--alpha", "1", "--T", "1", "--eps", "1e-6"],
    ["sweep", "--path", "fourier", "--alpha", "1", "--T", "1", "--K", "4:24:4"],
], ids=lambda argv: "-".join(argv[:3]))
def test_each_command_decomposes_its_operator_once(tmp_path, capsys, monkeypatch, argv):
    assert _eig_calls(argv + ["--out", str(tmp_path / "out")], capsys, monkeypatch) == 1


@pytest.mark.parametrize("app", list(operators._APPS))
def test_apps_take_their_decomposition_in_closed_form(tmp_path, capsys, monkeypatch, app):
    """The grid operators are diagonalized by the discrete sine basis, so no
    application calls a dense eigensolver."""
    argv = ["app", "--name", app, "--d", "2", "--n", "4", "--T", "0.5", "--eps", "1e-4",
            "--out", str(tmp_path / "out")]
    assert _eig_calls(argv, capsys, monkeypatch) == 0


@pytest.mark.parametrize("argv", [
    ["simulate-contour", "--f", "exp-neg"],
    ["sweep", "--path", "contour", "--f", "exp-neg", "--m", "8:24:8"],
], ids=["simulate-contour", "sweep-contour"])
def test_contour_commands_never_take_the_general_eig(tmp_path, capsys, monkeypatch, argv):
    """The generated contour instance is normal: one eigh of its Hermitian
    mix decomposes it, and LAPACK's general eig is never called."""
    def general(*args, **kwargs):  # pragma: no cover - must not run
        raise AssertionError(f"{argv[0]} took the general eig route")

    monkeypatch.setattr(np.linalg, "eig", general)
    rc, _, err = run(argv + ["--out", str(tmp_path / "out")], capsys)
    assert rc == 0, err


_EXTREME_RHO = [0.0, 1e-300, 5e-324, 1e300, 1e308, math.nan, math.inf]
_EXTREME_RADIUS = [0.0, -1.0, 5e-324, 1e-300, 1e300, math.nan, math.inf]
_EXTREME_EPS = [0.0, 1.0, -1e-8, 5e-324, 1e-300, math.nan, math.inf]


@settings(derandomize=True, deadline=None, max_examples=150)
@given(command=st.sampled_from(["simulate-contour", "sweep"]), size=st.integers(1, 70),
       rho=st.one_of(st.sampled_from(_EXTREME_RHO), _log_uniform(-3.0, 3.0)),
       r1=st.one_of(st.none(), st.sampled_from(_EXTREME_RADIUS), _log_uniform(-3.0, 3.0)),
       r2=st.one_of(st.none(), st.sampled_from(_EXTREME_RADIUS), _log_uniform(-3.0, 3.0)),
       m=st.one_of(st.none(), st.integers(-2, 400), st.sampled_from([2 ** 19 + 1, 10 ** 9])),
       eps=st.one_of(st.sampled_from(_EXTREME_EPS), _log_uniform(-16.0, 0.0)),
       f=st.sampled_from(["exp-neg", "exp-neg-i", "poly:1,2,0,3", "inv-shift:2"]),
       seed=st.integers(0, 1000))
@example(command="simulate-contour", size=1, rho=1e-300, r1=None, r2=None, m=None,
         eps=5e-324, f="exp-neg", seed=0)
@example(command="simulate-contour", size=52, rho=226.4, r1=None, r2=None, m=10 ** 9,
         eps=1e-8, f="exp-neg", seed=416)
@example(command="sweep", size=64, rho=0.5, r1=0.5000001, r2=None, m=None,
         eps=1e-8, f="exp-neg", seed=1)
@example(command="simulate-contour", size=8, rho=1e308, r1=None, r2=None, m=None,
         eps=1e-8, f="exp-neg", seed=0)
def test_contour_exit_code_fuzz(tmp_path_factory, command, size, rho, r1, r2, m, eps, f,
                                seed):
    """A contour run returns (exit 0) or refuses (exit 2 or 3), never a
    traceback: not at a subnormal eps, whose planner target underflows, not
    at a spectral radius near the largest float, whose norms overflow, nor
    at a node count whose shift solves would not fit in memory. Values go
    as --flag=value, so argparse reads a negative one as a value."""
    argv = [command, "--f", f, "--size", str(size), f"--rho={rho!r}", f"--eps={eps!r}",
            "--seed", str(seed), "--out", str(tmp_path_factory.getbasetemp() / "fuzz")]
    argv += [f"{flag}={v!r}" for flag, v in (("--R1", r1), ("--R2", r2)) if v is not None]
    if command == "sweep":
        lo = 8 if m is None else m
        argv[1:1] = ["--path", "contour", f"--m={lo}:{lo + 16}:8"]
    elif m is not None:
        argv.append(f"--m={m}")
    assert cli.main(argv) in (0, 2, 3)


def _action_fields(parser):
    return [(a.option_strings, a.dest, a.type, a.default, a.choices, a.help)
            for a in parser._actions]


@pytest.mark.parametrize("name", list(cli._COMMANDS))
def test_one_command_build_matches_full_build(name):
    """The parser built for one command declares exactly the flags that
    command has in the parser of all seven."""
    _, full = cli._build_parser([])
    _, one = cli._build_parser([name, "--help"])
    assert list(one) == [name]
    assert _action_fields(one[name]) == _action_fields(full[name])


def _parse_outcome(parser, argv, capsys):
    with pytest.raises(SystemExit) as exc:
        parser.parse_args(argv)
    return exc.value.code, capsys.readouterr()


@pytest.mark.parametrize("argv", [
    [], ["--help"], ["transmogrify"], ["kernel", "--bogus"], ["kernel", "--alpha", "x"],
    ["kernel", "--help"],
], ids=lambda argv: " ".join(argv) or "no-args")
def test_one_command_build_reports_as_full_build(argv, capsys):
    """Usage errors and help read the same from the parser main() builds as
    from the parser of all seven commands."""
    full = _parse_outcome(cli._build_parser([])[0], argv, capsys)
    built = _parse_outcome(cli._build_parser(argv)[0], argv, capsys)
    assert built == full
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert (exc.value.code, capsys.readouterr()) == full


def test_one_command_build_usage_names_every_command():
    usage = cli._build_parser(["kernel"])[0].format_usage()
    assert "{" + ",".join(cli._COMMANDS) + "}" in usage


def test_unknown_command_rejected(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["transmogrify"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_cli_import_leaves_scipy_unloaded():
    """scipy is imported only to read a Matrix Market file."""
    code = ("import sys, psf_matfunc.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(psf_matfunc.__file__)))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, check=True)
    assert proc.stdout.strip() == "[]"


def test_console_script_smoke(tmp_path):
    out = str(tmp_path / "plan.json")
    proc = subprocess.run(["psf-matfunc", "plan", "--alpha", "1", "--T", "1",
                           "--eps", "1e-6", "--hnorm", "1", "--out", out],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "plan:" in proc.stdout
    assert json.loads(read_bytes(out))["K"] == 6
