import math

import numpy as np
import pytest

from srkweak.estimator import (DEFAULT_BATCHES, ERRORS_HEADER, EXTRAPOLATED,
                               ORDERS_HEADER, EstimatorError, FittedOrder,
                               WeakErrorReport, _t_quantile_95, estimate,
                               fit_order, run_study, write_errors_csv,
                               write_orders_csv)
from srkweak.families import UnknownSchemeError, named_scheme
from srkweak.integrator import SdeProblem, exact_one_step_expectation
from srkweak.problems import NamedProblem, problem_linear


def test_deterministic_batches_collapse():
    # without noise every batch value is the same number, so the
    # variance estimate and the interval width vanish exactly
    prob = problem_linear(a=1.0, b=0.0, power=1)
    rep = estimate("EM", prob, 0.25, 40, seed=7, batches=4)
    assert rep.u_Mh == 1.25 ** 4
    assert rep.mu_hat == 1.25 ** 4 - math.exp(1.0)
    assert rep.sigma2_mu == 0.0
    assert rep.ci_a == rep.ci_b == rep.mu_hat
    assert rep.diverged == 0
    assert rep.scheme == "EM" and rep.problem == "linear:a=1,b=0,p=1"
    assert rep.h == 0.25 and rep.M == 40


def test_estimate_matches_exact_enumeration():
    # one step, so the estimator samples a finitely supported law
    # whose mean is computable exactly
    prob = problem_linear(a=1.0, b=1.0, power=2, t_end=0.5)
    tab = named_scheme("RDI2WM")
    want = exact_one_step_expectation(tab, prob, prob.f, 0.5)
    rep = estimate(tab, prob, 0.5, 4000, seed=3)
    assert abs(rep.u_Mh - want) < 4.0 * math.sqrt(rep.sigma2_mu)


def test_confidence_interval_coverage():
    # the interval is calibrated at 90%; with the estimator fully
    # seeded the observed coverage over 200 repetitions is a fixed
    # number and must sit near the nominal level
    prob = problem_linear(a=1.0, b=1.0, power=1, t_end=0.25)
    u_true = exact_one_step_expectation(named_scheme("EM"), prob,
                                        prob.f, 0.25)
    mu_true = u_true - prob.exact_functional(prob.t_end)
    hits = sum(
        1 for seed in range(200)
        if (lambda r: r.ci_a <= mu_true <= r.ci_b)(
            estimate("EM", prob, 0.25, 2000, seed)))
    assert 0.85 <= hits / 200.0 <= 0.95


def test_extrapolation_cancels_leading_bias():
    prob = problem_linear(a=1.0, b=0.25, power=2)
    em = estimate("EM", prob, 0.125, 4000, seed=0)
    ex = estimate(EXTRAPOLATED, prob, 0.125, 4000, seed=0)
    assert ex.scheme == "EXEM"
    assert abs(ex.mu_hat) < 0.5 * abs(em.mu_hat)


def test_thread_count_does_not_change_results():
    prob = problem_linear(a=1.0, b=1.0, power=2)
    one = estimate("RDI2WM", prob, 0.25, 200, seed=5, batches=10, threads=1)
    five = estimate("RDI2WM", prob, 0.25, 200, seed=5, batches=10, threads=5)
    assert one == five


def test_uneven_batch_sizes_weighted_correctly():
    # M = 7 over 3 batches splits 3/2/2; the estimate must be the
    # plain mean over all trajectories, not the mean of batch means
    prob = problem_linear(a=1.0, b=1.0, power=1, t_end=0.5)
    rep = estimate("EM", prob, 0.5, 7, seed=11, batches=3)
    from srkweak.increments import substream
    from srkweak.integrator import terminal_values
    vals = []
    for b, size in enumerate((3, 2, 2)):
        v, _ = terminal_values(named_scheme("EM"), prob, 1, size,
                               substream(11, 0, b))
        vals.extend(prob.f(v))
    assert abs(rep.u_Mh - np.mean(vals)) < 1e-15


def test_diverged_paths_excluded_and_counted():
    prob = NamedProblem(
        d=1, m=1,
        drift=lambda t, y: np.zeros_like(y),
        diffusion_column=lambda t, y, j: y ** 5,
        x0=np.array([1.0]), t_end=8.0,
        exact_functional=lambda t: 0.0,
        name="explosive", f=lambda y: y[..., 0] - 1.0)
    rep = estimate("EM", prob, 1.0, 200, seed=2)
    assert 0 < rep.diverged < 200
    assert np.isfinite(rep.u_Mh)


def test_total_divergence_yields_nan():
    prob = NamedProblem(
        d=1, m=1,
        drift=lambda t, y: 1e200 * y,
        diffusion_column=lambda t, y, j: np.zeros_like(y),
        x0=np.array([1.0]), exact_functional=lambda t: 0.0,
        name="blowup", f=lambda y: y[..., 0] - 1.0)
    rep = estimate("EM", prob, 0.25, 40, seed=0, batches=4)
    assert rep.diverged == 40
    assert math.isnan(rep.u_Mh) and math.isnan(rep.mu_hat)


def test_exem_counts_divergence_of_both_levels():
    prob = NamedProblem(
        d=1, m=1,
        drift=lambda t, y: 1e200 * y,
        diffusion_column=lambda t, y, j: np.zeros_like(y),
        x0=np.array([1.0]), exact_functional=lambda t: 0.0,
        name="blowup", f=lambda y: y[..., 0] - 1.0)
    # both EXEM levels diverge and both count
    rep = estimate("EXEM", prob, 0.25, 40, seed=0, batches=4)
    assert rep.diverged == 80
    assert math.isnan(rep.u_Mh)


def test_exem_on_ode():
    # without noise both levels are deterministic, so the combination
    # is exactly 2 (1 + h/2)^(2n) - (1 + h)^n
    prob = problem_linear(a=1.0, b=0.0, power=1)
    rep = estimate("EXEM", prob, 0.5, 16, seed=1, batches=2)
    assert rep.u_Mh == 2.0 * 1.25 ** 4 - 1.5 ** 2


def test_fit_order_exact_slope():
    hs = [0.5, 0.25, 0.125, 0.0625]
    errs = [0.032 * h ** 2 for h in hs]
    assert abs(fit_order(hs, errs) - 2.0) < 1e-12
    # only magnitudes matter
    signed = [e * s for e, s in zip(errs, (1, -1, 1, -1))]
    assert fit_order(hs, signed) == fit_order(hs, errs)


def test_fit_order_published_values():
    hs = [0.5, 0.25, 0.125, 0.0625]
    em = [8.797e-1, 7.705e-1, 4.825e-1, 2.691e-1]
    rdi4 = [3.760e-1, 9.454e-2, 2.318e-2, 5.816e-3]
    assert abs(fit_order(hs, em) - 0.58) <= 0.01
    assert abs(fit_order(hs, rdi4) - 2.01) <= 0.01


def test_fit_order_drops_degenerate_points():
    hs = [0.5, 0.25, 0.125]
    with pytest.warns(UserWarning, match="order fit drops"):
        slope = fit_order(hs, [0.25, 0.0625, 0.0])
    assert abs(slope - 2.0) < 1e-12
    with pytest.warns(UserWarning):
        with pytest.raises(EstimatorError,
                           match="at least two nonzero weak errors"):
            fit_order(hs, [0.25, 0.0, float("nan")])


def test_fit_order_validation():
    with pytest.raises(EstimatorError):
        fit_order([0.5, -0.25], [0.1, 0.2])
    with pytest.raises(EstimatorError):
        fit_order([0.5, 0.25], [0.1, 0.2, 0.3])
    with pytest.raises(EstimatorError):
        fit_order([[0.5], [0.25]], [[0.1], [0.2]])


def test_argument_validation():
    prob = problem_linear()
    with pytest.raises(EstimatorError, match="does not divide the interval"):
        estimate("EM", prob, 0.3, 100, seed=0)
    for h in (0.0, -0.25, math.nan, math.inf, True):
        with pytest.raises(EstimatorError, match="step size h must be"):
            estimate("EM", prob, h, 100, seed=0)
    with pytest.raises(EstimatorError):
        estimate("EM", prob, 0.25, 100, seed=0, batches=1)
    with pytest.raises(EstimatorError):
        estimate("EM", prob, 0.25, 10, seed=0, batches=20)
    with pytest.raises(EstimatorError):
        estimate("EM", prob, 0.25, 100, seed=0, threads=0)
    with pytest.raises(EstimatorError, match="threads must be an integer"):
        estimate("EM", prob, 0.25, 100, seed=0, threads=True)
    with pytest.raises(EstimatorError):
        estimate("EM", prob, 0.25, 99.5, seed=0)
    with pytest.raises(UnknownSchemeError):
        estimate("SRK9", prob, 0.25, 100, seed=0)
    for seed in (-1, 2.5, True):
        with pytest.raises(EstimatorError,
                           match="seed must be an integer >= 0"):
            estimate("EM", prob, 0.25, 100, seed=seed)


def test_t_quantile_values():
    assert _t_quantile_95(3) == 2.3533634348018233
    assert _t_quantile_95(7) == 1.8945786050900062
    assert _t_quantile_95(19) == 1.7291328115213682


def test_unnamed_tableau_labelled_custom():
    from srkweak.families import FamilyParams, make_family
    tab = make_family(FamilyParams("ORD21", c2=0.5, c3=0.5))
    rep = estimate(tab, problem_linear(), 0.25, 40, seed=1)
    assert rep.scheme == "custom"


def test_run_study_order_and_labels():
    prob = problem_linear(a=1.0, b=1.0, power=2)
    hs = [0.25, 0.125]
    tab = named_scheme("RDI1WM")
    reports, orders = run_study(["EM", ("mine", tab), "EXEM"], prob, hs,
                                M=200, seed=42, batches=5)
    assert [r.scheme for r in reports] \
        == ["EM", "EM", "mine", "mine", "EXEM", "EXEM"]
    assert [r.h for r in reports] == [0.25, 0.125] * 3
    assert [o.scheme for o in orders] == ["EM", "mine", "EXEM"]
    assert all(o.problem == prob.name for o in orders)
    assert all(np.isfinite(o.fitted_order) for o in orders)
    # per-combination seeds: the first scheme's rows do not depend on
    # what else is studied
    alone, _ = run_study(["EM"], prob, hs, M=200, seed=42, batches=5)
    assert alone == reports[:2]


def test_run_study_checks_arguments_before_running():
    prob = problem_linear()
    with pytest.raises(EstimatorError, match="seed must be an integer >= 0"):
        run_study(["EM"], prob, [0.25], M=100, seed=-1)
    # the first scheme is valid; the unknown one must fail before any
    # cell runs, so a tiny M that would otherwise fail in estimate
    # cannot be reached either
    with pytest.raises(UnknownSchemeError):
        run_study(["EM", "SRK9"], prob, [0.25], M=1, seed=0)


def test_csv_rendering(tmp_path):
    rep = WeakErrorReport(scheme="EM", problem="linear:a=1,b=1,p=2",
                          h=0.25, M=1000, u_Mh=20.25, mu_hat=-0.3,
                          sigma2_mu=0.0016, ci_a=-0.4, ci_b=-0.2,
                          diverged=3)
    path = tmp_path / "errors.csv"
    write_errors_csv(path, [rep])
    lines = path.read_text().splitlines()
    assert lines[0] == ",".join(ERRORS_HEADER)
    assert lines[1] == ('EM,"linear:a=1,b=1,p=2",2.50000E-01,1000,'
                        '2.02500E+01,-3.00000E-01,1.60000E-03,'
                        '-4.00000E-01,-2.00000E-01,3')

    opath = tmp_path / "orders.csv"
    write_orders_csv(opath, [FittedOrder("EM", "nonlinear16", 0.97)])
    olines = opath.read_text().splitlines()
    assert olines[0] == ",".join(ORDERS_HEADER)
    assert olines[1] == "EM,nonlinear16,9.70000E-01"


def test_csv_bytes_identical_across_threads(tmp_path):
    prob = problem_linear(a=1.0, b=1.0, power=2)
    blobs = []
    for threads in (1, 4):
        reports, orders = run_study(["EM", "RDI2WM"], prob, [0.5, 0.25],
                                    M=120, seed=9, batches=6,
                                    threads=threads)
        epath = tmp_path / ("errors_%d.csv" % threads)
        opath = tmp_path / ("orders_%d.csv" % threads)
        write_errors_csv(epath, reports)
        write_orders_csv(opath, orders)
        blobs.append((epath.read_bytes(), opath.read_bytes()))
    assert blobs[0] == blobs[1]
    assert DEFAULT_BATCHES == 20
