import json
import subprocess

import numpy as np
import pytest

from psf_matfunc import cli
from psf_matfunc.io import RECORD_HEADER, save_matrix
from psf_matfunc.util import THREADS_ENV


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


def test_app_matrix_poly(tmp_path, capsys):
    out = str(tmp_path / "mp.csv")
    rc, text, _ = run(["app", "--name", "matrix_poly", "--d", "1", "--n", "6",
                       "--T", "0", "--eps", "1e-6", "--m", "8",
                       "--coeffs", "1,2,0,3", "--out", out], capsys)
    assert rc == 0
    row = read_bytes(out).decode().splitlines()[1].split(",")
    assert float(row[RECORD_HEADER.index("error_measured")]) <= 1e-12
    assert "m=8" in row[RECORD_HEADER.index("params")]


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
    assert lines[0] == "m,error,aliasing_bound,truncation_bound"
    errs = [float(ln.split(",")[1]) for ln in lines[1:]]
    assert errs[-1] < errs[0]
    first = read_bytes(out)
    run(argv, capsys)
    assert read_bytes(out) == first


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
    rc, _, err = run(["plan", "--alpha", "1", "--T", "1", "--eps", "1e-6",
                      "--hnorm", "1", "--threads", "0"], capsys)
    assert rc == 2 and "--threads" in err


@pytest.mark.parametrize("argv", [
    ["plan", "--alpha", "1", "--T", "1", "--eps", "1e-6", "--hnorm", "nan"],
    ["plan", "--alpha", "1", "--T", "1", "--eps", "1e-6", "--hnorm", "inf"],
    ["plan", "--alpha", "inf", "--T", "1", "--eps", "1e-6", "--hnorm", "1"],
    ["simulate-fourier", "--alpha", "1", "--T", "1", "--eps", "1e-6",
     "--size", "0"],
    ["app", "--name", "matrix_poly", "--d", "1", "--n", "8", "--T", "0.5",
     "--eps", "1e-6", "--coeffs", "1,x"],
], ids=["hnorm-nan", "hnorm-inf", "alpha-inf", "size-0", "coeffs-x"])
def test_exit_code_admission(tmp_path, capsys, argv):
    rc, _, err = run(argv + ["--out", str(tmp_path / "out")], capsys)
    assert rc == 2 and err.startswith("precondition:")


def test_exit_code_numerical(tmp_path, capsys):
    mpath = str(tmp_path / "jordan.json")
    save_matrix(mpath, np.array([[0.5, 1.0], [0.0, 0.5]]))
    rc, _, err = run(["simulate-contour", "--f", "exp-neg",
                      "--matrix", mpath, "--R1", "1"], capsys)
    assert rc == 3 and err.startswith("numerical:")


def test_unknown_command_rejected(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["transmogrify"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_threads_flag_sets_env(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv(THREADS_ENV, "sentinel")
    out = str(tmp_path / "plan.json")
    rc, _, _ = run(["plan", "--alpha", "1", "--T", "1", "--eps", "1e-6",
                    "--hnorm", "1", "--threads", "2", "--out", out], capsys)
    assert rc == 0
    import os
    assert os.environ[THREADS_ENV] == "2"


def test_console_script_smoke(tmp_path):
    out = str(tmp_path / "plan.json")
    proc = subprocess.run(["psf-matfunc", "plan", "--alpha", "1", "--T", "1",
                           "--eps", "1e-6", "--hnorm", "1", "--out", out],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "plan:" in proc.stdout
    assert json.loads(read_bytes(out))["K"] == 6
