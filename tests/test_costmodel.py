import csv
import json
import math

import numpy as np
import pytest

from psf_matfunc import cli
from psf_matfunc.contour import ContourPlan, make_plan, plan_m
from psf_matfunc.costmodel import (CostReport, l1_norm_model, path_a_cost, path_b_cost,
                                   recommend)
from psf_matfunc.errors import PrecondError
from psf_matfunc.kernels import SpectralProfile


def test_l1_norm_model_bands():
    for alpha in (0.5, 0.75, 1.0):
        assert l1_norm_model(SpectralProfile(alpha, 1.0, "root")) == 1.0
    big = l1_norm_model(SpectralProfile(8.0, 1.0, "root"))
    assert big == pytest.approx((4.0 / math.pi**2) * math.log(8.0) + 1.0)
    assert big > 1.0


def test_path_a_T_zero_isolates_log_term():
    prof = SpectralProfile(1.0, 1.0, "root")
    rep = path_a_cost(prof, 1.0, 0.0, 1e-6)
    assert rep.matrix_queries == pytest.approx(
        math.log(2.0) * math.log(1e6), rel=1e-12)
    assert rep.path == "A"
    assert rep.assumptions      # scaling-model caveats always attached


@pytest.mark.parametrize("alpha,p", [(1.0, 2), (2.0, 4), (3.0, 6)])
def test_path_a_time_exponent(alpha, p):
    """Subtracting the T = 0 baseline isolates the (||A|| T)^{1/p} factor."""
    prof = SpectralProfile(alpha, 1.0, "root")
    base = path_a_cost(prof, 1.0, 0.0, 1e-6).matrix_queries
    m1 = path_a_cost(prof, 1.0, 1.0, 1e-6).matrix_queries
    m16 = path_a_cost(prof, 1.0, 16.0, 1e-6).matrix_queries
    ratio = (m16 - base) / (m1 - base)
    assert ratio == pytest.approx(16.0 ** (1.0 / p), rel=1e-12)


def test_path_a_fractional_eps_exponent():
    prof = SpectralProfile(0.75, 1.0, "root")     # p = 1.5
    m1 = path_a_cost(prof, 1.0, 1.0, 1e-4).matrix_queries
    m2 = path_a_cost(prof, 1.0, 1.0, 1e-4 / 16.0).matrix_queries
    assert m2 / m1 == pytest.approx(16.0 ** (2.0 / 3.0), rel=1e-12)


def test_path_a_monotone_in_inputs():
    for prof in (SpectralProfile(1.0, 1.0, "root"),
                 SpectralProfile(0.75, 1.0, "root")):
        mq = lambda **kw: path_a_cost(
            prof, kw.get("a_norm", 1.0), kw.get("T", 1.0),
            kw.get("eps", 1e-6), kw.get("u_r", 1.0)).matrix_queries
        assert mq(eps=1e-8) > mq(eps=1e-6) > mq(eps=1e-4)
        assert mq(T=4.0) > mq(T=1.0)
        assert mq(a_norm=3.0) > mq(a_norm=1.0)
        assert mq(u_r=2.0) > mq(u_r=1.0)


def test_path_a_guards():
    prof = SpectralProfile(1.0, 1.0, "root")
    with pytest.raises(PrecondError):
        path_a_cost(prof, 1.0, 1.0, 1e-6, u_r=0.5)
    with pytest.raises(PrecondError):
        path_a_cost(prof, -1.0, 1.0, 1e-6)
    with pytest.raises(PrecondError):
        path_a_cost(prof, 1.0, 1.0, 2.0)


def test_cost_report_validation():
    with pytest.raises(PrecondError):
        CostReport(path="C", matrix_queries=1, state_queries=1, lcu_terms=1,
                   amplification=1, l1_norm=1, u_r=1)
    with pytest.raises(PrecondError):
        CostReport(path="A", matrix_queries=-1, state_queries=1, lcu_terms=1,
                   amplification=1, l1_norm=1, u_r=1)


def test_path_b_unit_plan_spot_value():
    one = lambda z: np.ones_like(np.asarray(z, dtype=complex))
    plan = make_plan(one, 1.0, 2.0, 8)
    rep = path_b_cost(plan, 1.0, 1.0, 1.0, 1e-4)
    assert rep.matrix_queries == pytest.approx(math.log(1e4), rel=1e-12)
    assert rep.state_queries == pytest.approx(1.0)
    assert rep.lcu_terms == 8.0
    assert rep.path == "B"


def test_path_b_amplification_source():
    exp_neg = lambda z: np.exp(-z)
    plan = make_plan(exp_neg, 1.0, 2.0, 16)
    rep = path_b_cost(plan, 1.0, 1.0, 1.0, 1e-4)
    assert rep.amplification == pytest.approx(plan.r1 * plan.b1)
    with pytest.raises(PrecondError):
        path_b_cost(plan, 0.0, 1.0, 1.0, 1e-4)


@pytest.mark.parametrize("gamma,eps", [(0.1, 0.5), (1e-320, 1e-6)])
def test_path_b_core_below_eps_costs_no_queries(gamma, eps):
    """Once the amplification core gamma R1 B1 / ||f(A)psi|| is below eps
    the log factor is floored at 0: no negative query count, and no -0.0."""
    plan = make_plan(lambda z: np.exp(-z), 1.0, 2.0, 16)
    rep = path_b_cost(plan, gamma, 1.0, 1.0, eps)
    assert rep.state_queries < eps
    assert math.copysign(1.0, rep.matrix_queries) == 1.0 and rep.matrix_queries == 0.0


@pytest.mark.parametrize("r2,expected_step", [(2.0, 1), (1.3, 3)])
def test_lcu_terms_step_per_eps_halving(r2, expected_step):
    """Node count grows by ceil(log 2 / log(R2/R1)) per halving of eps."""
    ms = [plan_m(1e-4 / 2**k, 1.0, r2, 1.0, 1.0, 1.0, 1.0) for k in range(8)]
    steps = np.diff(ms)
    assert all(abs(s - expected_step) <= 1 for s in steps)
    assert all(s >= 1 for s in steps)


def cost_table(tmp_path, capsys, *argv):
    """(exit code, stdout, {metric: (path-a cell, path-b cell)}) of
    `cost --path both`."""
    out = tmp_path / "cost.csv"
    rc = cli.main(["cost", "--path", "both", *argv, "--out", str(out)])
    text = capsys.readouterr().out
    with open(out, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["metric", "path-a", "path-b"]
    return rc, text, {name: (a, b) for name, a, b in rows[1:]}


def test_recommend_fractional_refuses_contour(tmp_path, capsys):
    rec, reason = recommend(SpectralProfile(0.75, 1.0, "root"))
    assert rec == "path-a"
    assert "branch point" in reason
    rc, text, table = cost_table(tmp_path, capsys, "--alpha", "0.75", "--eps", "1e-6")
    assert rc == 0 and f"recommendation: path-a ({reason})" in text
    assert all(a != "" and b == "" for a, b in table.values())


def test_recommend_holomorphic_only(tmp_path, capsys):
    rec, reason = recommend(None)
    assert rec == "path-b"
    rc, text, table = cost_table(tmp_path, capsys, "--f", "inv-shift:3", "--rho", "0.5",
                                 "--eps", "1e-6")
    assert rc == 0 and f"recommendation: path-b ({reason})" in text
    assert all(a == "" and b != "" for a, b in table.values())
    out = tmp_path / "cost.json"
    assert cli.main(["cost", "--path", "b", "--f", "inv-shift:3", "--rho", "0.5",
                     "--eps", "1e-6", "--out", str(out)]) == 0
    assert json.loads(out.read_text(encoding="utf-8"))["assumptions"]


def test_recommend_analytic_profile_allows_both(tmp_path, capsys):
    rec, reason = recommend(SpectralProfile(1.0, 1.0, "root"))
    assert rec == "either"
    rc, text, table = cost_table(tmp_path, capsys, "--alpha", "1", "--rho", "0.5",
                                 "--eps", "1e-6")
    assert rc == 0 and f"recommendation: either ({reason})" in text
    assert all(a != "" and b != "" for a, b in table.values())


def test_cost_cli_validation(tmp_path, capsys):
    out = str(tmp_path / "cost.csv")
    assert cli.main(["cost", "--alpha", "1", "--eps", "2", "--out", out]) == 2
    assert "eps must lie in (0, 1)" in capsys.readouterr().err
    assert cli.main(["cost", "--eps", "1e-6", "--out", out]) == 2
    assert "needs a decay profile, a holomorphic f, or both" in capsys.readouterr().err
