import json
import math
from dataclasses import replace

import numpy as np
import pytest
from numpy.random import default_rng

from psf_matfunc.contour import make_plan
from psf_matfunc.costmodel import path_a_cost
from psf_matfunc.errors import PrecondError
from psf_matfunc.fourier import lcu_coefficients, plan_fourier
from psf_matfunc.io import (RECORD_HEADER, contour_plan_json,
                            cost_report_json, csv_text, fourier_plan_json,
                            load_matrix, parse_function_spec, parse_range,
                            record_row, write_csv, write_json)
from psf_matfunc.kernels import SpectralProfile
from psf_matfunc.operators import GridSpec, run_application

from helpers import save_matrix


def test_matrix_json_roundtrip_exact(tmp_path):
    M = default_rng(0).standard_normal((4, 3)) \
        + 1j * default_rng(1).standard_normal((4, 3))
    p = str(tmp_path / "m.json")
    save_matrix(p, M)
    np.testing.assert_array_equal(load_matrix(p), M)


def test_matrix_market_load(tmp_path):
    import scipy.io
    M = np.array([[1.0, 2.0], [0.0, -3.5]])
    p = str(tmp_path / "m.mtx")
    scipy.io.mmwrite(p, M)
    np.testing.assert_allclose(load_matrix(p).real, M, atol=1e-12)


def test_matrix_json_entry_count_guard(tmp_path):
    p = str(tmp_path / "bad.json")
    with open(p, "w") as fh:
        json.dump({"rows": 2, "cols": 2, "re": [1, 2, 3], "im": [0, 0, 0]}, fh)
    with pytest.raises(PrecondError):
        load_matrix(p)
    with open(p, "w") as fh:
        json.dump({"rows": 2, "re": [1, 2, 3, 4]}, fh)
    with pytest.raises(PrecondError):
        load_matrix(p)


def test_non_finite_entries_rejected(tmp_path):
    p = str(tmp_path / "inf.json")
    with open(p, "w") as fh:
        json.dump({"rows": 1, "cols": 2, "re": [1.0, math.inf],
                   "im": [0.0, 0.0]}, fh)
    with pytest.raises(PrecondError):
        load_matrix(p)


def test_fourier_plan_json_fields():
    plan = plan_fourier(SpectralProfile(1.0, 1.0, "root"), [1.0], 1e-6)
    obj = fourier_plan_json(plan)
    assert {"alpha", "T", "mode", "a", "K", "eps_internal", "c"} <= set(obj)
    assert (obj["alpha"], obj["T"], obj["mode"]) == (1.0, 1.0, "root")
    assert obj["a"] == plan.a
    assert obj["K"] == plan.K
    assert obj["spectral_scale"] == plan.spectral_scale
    np.testing.assert_array_equal(obj["c"], lcu_coefficients(plan))


def test_contour_plan_json_fields():
    plan = replace(make_plan(lambda z: np.exp(-z), 1.0, 2.5, 12), kappa_s=1.5)
    obj = contour_plan_json(plan)
    assert obj["mu"] == plan.mu
    assert obj == {"R1": 1.0, "R2": 2.5, "m": 12, "mu": plan.mu,
                   "quad_n": plan.quad_n, "B1": plan.b1, "B2": plan.b2,
                   "kappa_S": 1.5}


def test_cost_report_json_keys():
    rep = path_a_cost(SpectralProfile(1.0, 1.0, "root"), 1.0, 1.0, 1e-6)
    obj = cost_report_json(rep)
    assert obj["path"] == "A"
    for key in ("matrix_queries", "state_queries", "lcu_terms",
                "amplification", "l1_norm", "u_r", "assumptions"):
        assert key in obj
    assert isinstance(obj["assumptions"], list) and obj["assumptions"]


def test_record_row_matches_header():
    rec = run_application("heat", GridSpec(1, 4, 1.0), 0.1, 1e-4)
    row = record_row(rec)
    assert len(row) == len(RECORD_HEADER)
    assert row[0] == "heat"
    assert row[RECORD_HEADER.index("error_measured")] == rec.error_measured
    params = row[RECORD_HEADER.index("params")]
    assert "mode=direct" in params and ";" in params


def test_csv_bytes_frozen():
    text = csv_text(["a", "b"], [[1, 0.1], [2, math.inf]])
    assert text == "a,b\r\n1,0.1\r\n2,inf\r\n"


def test_csv_numpy_scalars_render_plain():
    # np.float64 subclasses float; the writer must not leak the numpy repr
    text = csv_text(["x"], [[np.float64(0.1)], [np.int64(3)]])
    assert text == "x\r\n0.1\r\n3\r\n"
    assert "np." not in text


def test_write_csv_and_json(tmp_path):
    p = str(tmp_path / "t.csv")
    write_csv(p, ["k"], [[1], [2]])
    with open(p, "rb") as fh:
        assert fh.read() == b"k\r\n1\r\n2\r\n"
    q = str(tmp_path / "t.json")
    write_json(q, {"b": 1, "a": [1.5]})
    raw = open(q, "rb").read()
    assert raw.endswith(b"\n")
    assert json.loads(raw) == {"b": 1, "a": [1.5]}


def test_function_spec_exp_neg():
    spec = parse_function_spec("exp-neg")
    assert spec.pole_radius is None
    assert spec.fn(0.5) == pytest.approx(math.exp(-0.5))


def test_function_spec_exp_neg_i():
    spec = parse_function_spec("exp-neg-i")
    val = spec.fn(np.array([0.5 + 0.25j]))[0]
    assert val == pytest.approx(np.exp(-1j * (0.5 + 0.25j)))
    assert spec.pole_radius is None


def test_function_spec_poly():
    spec = parse_function_spec("poly:1,2,0,3")
    assert spec.pole_radius is None
    assert spec.fn(0.5) == pytest.approx(1 + 2 * 0.5 + 3 * 0.5**3)
    with pytest.raises(PrecondError):
        parse_function_spec("poly:")
    with pytest.raises(PrecondError):
        parse_function_spec("poly:1,x")


def test_function_spec_inv_shift():
    spec = parse_function_spec("inv-shift:2")
    assert spec.pole_radius == 2.0
    assert spec.fn(0.5) == pytest.approx(0.4)
    with pytest.raises(PrecondError):
        parse_function_spec("inv-shift:0")
    with pytest.raises(PrecondError):
        parse_function_spec("runge")


def test_parse_range():
    np.testing.assert_array_equal(parse_range("4:48:4"), np.arange(4, 49, 4))
    np.testing.assert_array_equal(parse_range("7"), [7])
    with pytest.raises(PrecondError):
        parse_range("1:0:1")
    for spec in ("0:1:0.3", "0:1:0.25"):
        with pytest.raises(PrecondError):
            parse_range(spec)
    with pytest.raises(PrecondError):
        parse_range("a:b:c")
