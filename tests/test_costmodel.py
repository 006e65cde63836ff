import csv
import json
import math

import numpy as np
import pytest

from psf_matfunc import cli
from psf_matfunc.contour import circle_rule, make_plan, plan_lattice, plan_m, scalar_operator
from psf_matfunc.costmodel import (CostReport, path_a_cost, path_a_queries, path_b_cost,
                                   recommend)
from psf_matfunc.errors import EPS_FLOOR, PrecondError
from psf_matfunc.fourier import plan_fourier
from psf_matfunc.io import parse_function_spec
from psf_matfunc.kernels import SpectralProfile


def test_path_a_T_zero_isolates_log_term():
    prof = SpectralProfile(1.0, 1.0, "root")
    mq, _ = path_a_queries(prof, 1.0, 0.0, 1e-6)
    assert mq == pytest.approx(math.log(2.0) * math.log(1e6), rel=1e-12)


def test_path_a_cost_reads_the_plan():
    """The queries are the scaling model at the plan's profile and eps; the
    LCU size is the plan's."""
    plan = plan_fourier(SpectralProfile(1.0, 1.0, "root"), [0.0, 2.0], 1e-6)
    rep = path_a_cost(plan, 2.0, u_r=1.5)
    assert (rep.matrix_queries, rep.state_queries) == path_a_queries(
        plan.profile, 2.0, 1.0, 1e-6, 1.5)
    assert rep.lcu_terms == 2 * plan.K + 1
    assert rep.amplification == 1.5 * rep.l1_norm
    assert rep.path == "A"
    assert rep.assumptions      # scaling-model caveats always attached


@pytest.mark.parametrize("alpha,p", [(1.0, 2), (2.0, 4), (3.0, 6)])
def test_path_a_time_exponent(alpha, p):
    """Subtracting the T = 0 baseline isolates the (||A|| T)^{1/p} factor."""
    prof = SpectralProfile(alpha, 1.0, "root")
    base = path_a_queries(prof, 1.0, 0.0, 1e-6)[0]
    m1 = path_a_queries(prof, 1.0, 1.0, 1e-6)[0]
    m16 = path_a_queries(prof, 1.0, 16.0, 1e-6)[0]
    ratio = (m16 - base) / (m1 - base)
    assert ratio == pytest.approx(16.0 ** (1.0 / p), rel=1e-12)


def test_path_a_fractional_eps_exponent():
    prof = SpectralProfile(0.75, 1.0, "root")     # p = 1.5
    m1 = path_a_queries(prof, 1.0, 1.0, 1e-4)[0]
    m2 = path_a_queries(prof, 1.0, 1.0, 1e-4 / 16.0)[0]
    assert m2 / m1 == pytest.approx(16.0 ** (2.0 / 3.0), rel=1e-12)


def test_path_a_monotone_in_inputs():
    for prof in (SpectralProfile(1.0, 1.0, "root"),
                 SpectralProfile(0.75, 1.0, "root")):
        mq = lambda **kw: path_a_queries(
            prof, kw.get("a_norm", 1.0), kw.get("T", 1.0),
            kw.get("eps", 1e-6), kw.get("u_r", 1.0))[0]
        assert mq(eps=1e-8) > mq(eps=1e-6) > mq(eps=1e-4)
        assert mq(T=4.0) > mq(T=1.0)
        assert mq(a_norm=3.0) > mq(a_norm=1.0)
        assert mq(u_r=2.0) > mq(u_r=1.0)


def test_path_a_guards():
    prof = SpectralProfile(1.0, 1.0, "root")
    plan = plan_fourier(prof, [0.0, 1.0], 1e-6)
    with pytest.raises(PrecondError):
        path_a_cost(plan, 1.0, u_r=0.5)
    with pytest.raises(PrecondError):
        path_a_cost(plan, -1.0)
    with pytest.raises(PrecondError):
        path_a_queries(prof, 1.0, 1.0, 2.0)


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
    rep = path_b_cost(plan, one, 1.0, 1.0, 1.0, 1e-4)
    assert rep.matrix_queries == pytest.approx(math.log(1e4), rel=1e-12)
    assert rep.state_queries == pytest.approx(1.0)
    assert rep.lcu_terms == 8.0
    assert rep.l1_norm == pytest.approx(1.0, rel=1e-15)   # sum_j |w_j| / m at f = 1, R1 = 1
    assert rep.path == "B"


def test_path_b_amplification_source():
    """The amplification is gamma sum_j |c_j| / ||f(A)psi|| over the plan's
    own circle-rule weights, below the R1 B1 envelope that bounds it."""
    exp_neg = lambda z: np.exp(-z)
    plan = make_plan(exp_neg, 1.0, 2.0, 16)
    rep = path_b_cost(plan, exp_neg, 2.0, 0.5, 1.0, 1e-4)
    l1 = float(np.abs(circle_rule(exp_neg, plan.r1, plan.m)[1]).sum())
    assert rep.amplification == rep.state_queries == 2.0 * l1 / 0.5
    assert rep.l1_norm == l1 < plan.r1 * plan.b1
    with pytest.raises(PrecondError):
        path_b_cost(plan, exp_neg, 0.0, 1.0, 1.0, 1e-4)


@pytest.mark.parametrize("gamma,eps", [(0.1, 0.5), (1e-320, 1e-6)])
def test_path_b_core_below_eps_costs_no_queries(gamma, eps):
    """Once the amplification core gamma ||c||_1 / ||f(A)psi|| is below eps
    the log factor is floored at 0: no negative query count, and no -0.0."""
    exp_neg = lambda z: np.exp(-z)
    rep = path_b_cost(make_plan(exp_neg, 1.0, 2.0, 16), exp_neg, gamma, 1.0, 1.0, eps)
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
    assert f"[{EPS_FLOOR:g}, 1)" in capsys.readouterr().err
    assert cli.main(["cost", "--eps", "1e-6", "--out", out]) == 2
    assert "needs a decay profile, a holomorphic f, or both" in capsys.readouterr().err


@pytest.mark.parametrize("alpha,eps,mode,norm", [
    ("0.75", "1e-4", "root", "1"), ("1", "1e-8", "root", "1"),
    ("10.25", "1e-3", "root", "1"), ("1.5", "1e-4", "direct", "2"),
], ids=["p1.5", "p2", "p20.5", "direct-p1.5"])
def test_cost_path_a_reports_the_lcu_plan_builds(tmp_path, capsys, alpha, eps, mode, norm):
    """`cost --path a` and `plan` at the same inputs describe one LCU: 2K + 1
    terms of 1-norm |c_0| + 2 sum_{k>=1} |c_k|."""
    common = ["--alpha", alpha, "--T", "1", "--eps", eps, "--mode", mode]
    plan_out, cost_out = tmp_path / "plan.json", tmp_path / "cost.json"
    assert cli.main(["plan", *common, "--hnorm", norm, "--out", str(plan_out)]) == 0
    assert cli.main(["cost", "--path", "a", *common, "--anorm", norm,
                     "--out", str(cost_out)]) == 0
    capsys.readouterr()
    plan = json.loads(plan_out.read_text(encoding="utf-8"))
    rep = json.loads(cost_out.read_text(encoding="utf-8"))
    c = np.array(plan["c"])
    assert rep["lcu_terms"] == 2 * plan["K"] + 1
    assert rep["l1_norm"] == abs(c[0]) + 2.0 * float(np.abs(c[1:]).sum())
    assert rep["amplification"] == rep["l1_norm"]      # u_r = 1


@pytest.mark.parametrize("f", ["inv-shift:3", "exp-neg", "poly:1,2,0,3"])
def test_cost_path_b_l1_norm_is_the_node_weight_sum(tmp_path, capsys, f):
    """Path B's 1-norm is sum_j |c_j| of the circle-rule weights c_j =
    w_j f(w_j) / m of the plan `cost` makes for the operator [--rho]."""
    out = tmp_path / "cost.json"
    assert cli.main(["cost", "--path", "b", "--f", f, "--eps", "1e-8",
                     "--out", str(out)]) == 0
    capsys.readouterr()
    fn = parse_function_spec(f).fn
    plan = plan_lattice(fn, scalar_operator(0.5), 1e-8, 1.0, 1.0)
    rep = json.loads(out.read_text(encoding="utf-8"))
    assert rep["lcu_terms"] == plan.m
    assert rep["l1_norm"] == float(np.abs(circle_rule(fn, plan.r1, plan.m)[1]).sum())
    if f == "inv-shift:3":
        assert round(rep["l1_norm"], 4) == round(rep["amplification"], 4) == 0.1849
        assert round(rep["matrix_queries"], 4) == 1.7017


@pytest.mark.parametrize("f", ["inv-shift:3", "exp-neg", "exp-neg-i"])
def test_cost_path_b_amplification_is_the_lcu_norm(tmp_path, capsys, f):
    """One report, one 1-norm: amplification and state_queries are both
    gamma l1_norm / ||f(A)psi||, and matrix_queries is gamma R1 times that
    core times ln(core / eps)."""
    out = tmp_path / "cost.json"
    assert cli.main(["cost", "--path", "b", "--f", f, "--eps", "1e-8", "--rho", "1",
                     "--gamma", "1.5", "--fpsi", "0.25", "--out", str(out)]) == 0
    capsys.readouterr()
    rep = json.loads(out.read_text(encoding="utf-8"))
    core = 1.5 * rep["l1_norm"] / 0.25
    assert rep["amplification"] == rep["state_queries"] == core
    r1 = plan_lattice(parse_function_spec(f).fn, scalar_operator(1.0), 1e-8, 0.25, 1.0).r1
    assert rep["matrix_queries"] == pytest.approx(1.5 * r1 * core * math.log(core / 1e-8),
                                                  rel=1e-14)


@pytest.mark.parametrize("argv", [
    ["--path", "a", "--alpha", "1"],
    ["--path", "b", "--f", "exp-neg"],
    ["--path", "both", "--alpha", "1"],
    ["--path", "both", "--alpha", "0.75"],
], ids=["path-a", "path-b", "both-analytic", "both-fractional"])
def test_cost_admits_eps_through_the_planners(tmp_path, capsys, argv):
    """Each path admits eps through its planner, so both refuse an eps below
    the rounding floor with the floor named."""
    rc = cli.main(["cost", *argv, "--eps", "1e-20", "--out", str(tmp_path / "out")])
    assert rc == 2 and f"[{EPS_FLOOR:g}, 1)" in capsys.readouterr().err


def test_cost_path_a_refuses_what_plan_refuses(tmp_path, capsys):
    """At alpha 0.5, eps 1e-6 the kernel lattice exceeds its sample cap:
    `cost` reports no counts for a plan that cannot be built."""
    common = ["--alpha", "0.5", "--T", "1", "--eps", "1e-6", "--out", str(tmp_path / "out")]
    assert cli.main(["plan", *common, "--hnorm", "1"]) == 2
    plan_err = capsys.readouterr().err
    assert cli.main(["cost", "--path", "a", *common]) == 2
    assert capsys.readouterr().err == plan_err and "samples" in plan_err
