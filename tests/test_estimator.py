import math
import tracemalloc

import numpy as np
import pytest

from srkweak import estimator
from srkweak.estimator import (DEFAULT_BATCHES, ERRORS_HEADER, EXTRAPOLATED,
                               ORDERS_HEADER, EstimatorError, FittedOrder,
                               WeakErrorReport, _t_quantile_95, estimate,
                               fit_order, run_study, write_errors_csv,
                               write_orders_csv)
from srkweak.families import UnknownSchemeError, named_scheme
from srkweak.increments import substream
from srkweak.integrator import (SdeProblem, exact_expectation,
                                exact_one_step_expectation, terminal_values)
from srkweak.problems import (NamedProblem, problem_2d, problem_linear,
                              problem_nonlinear)
from srkweak.tableau import (_MATRIX_KEYS, _VECTOR_KEYS, CoefficientTableau,
                             TableauValueError)

#: the scipy whose stdtrit values estimator._T95 holds
PINNED_SCIPY = "1.17.1"


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


def _discrete_law_error(scheme, prob, h):
    # the estimator's own levels: EXEM is 2 E_{h/2} - E_h of EM
    n = int(round((prob.t_end - prob.t0) / h))
    _, levels = estimator._resolve(scheme, prob.m)
    exact = sum(weight * exact_expectation(tab, prob, prob.f, h / r, r * n)
                for tab, r, weight in levels)
    return exact - prob.exact_functional(prob.t_end)


#: (scheme, problem, h) cells whose discrete-law weak error is exact
UNBIASED_CELLS = [
    ("EM", problem_nonlinear, 0.5),
    ("RDI4WM", problem_nonlinear, 0.5),
    (EXTRAPOLATED, problem_nonlinear, 0.5),
    ("EM", problem_2d, 1.0),
    ("RDI2WM", problem_2d, 1.0),
]


def test_estimates_cover_the_exact_weak_errors():
    # next to criterion 6, not in its place: the estimator is unbiased
    # for the discrete increment law, so its 90% interval covers the
    # exact weak error of the support tree.  25 fixed intervals; if
    # each covers with probability 0.9, 5 or fewer miss with
    # probability 0.97
    misses = []
    for scheme, make, h in UNBIASED_CELLS:
        prob = make()
        want = _discrete_law_error(scheme, prob, h)
        for seed in range(5):
            rep = estimate(scheme, prob, h, 20000, seed)
            if not rep.ci_a <= want <= rep.ci_b:
                misses.append((scheme, prob.name, seed, rep.mu_hat, want))
    assert len(misses) <= 5, misses


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
    _assert_uneven_batch_sizes_weighted_correctly()


@pytest.mark.parametrize("chunk", [1, 2])
def test_uneven_batch_sizes_weighted_correctly_in_parts(monkeypatch, chunk):
    # parts of at most 1 or 2 paths split every batch, or only the first
    monkeypatch.setattr(estimator, "_CHUNK_ELEMENTS", chunk)
    _assert_uneven_batch_sizes_weighted_correctly()


def _assert_uneven_batch_sizes_weighted_correctly():
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


def _explosive_problem():
    # dX = X^5 dW: at h = 1 some but not all paths diverge
    return NamedProblem(
        d=1, m=1,
        drift=lambda t, y: np.zeros_like(y),
        diffusion_column=lambda t, y, j: y ** 5,
        x0=np.array([1.0]), t_end=8.0,
        exact_functional=lambda t: 0.0,
        name="explosive", f=lambda y: y[..., 0] - 1.0)


def test_diverged_paths_excluded_and_counted():
    prob = _explosive_problem()
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
    # the worker counts each level in its own column
    _, levels = estimator._resolve("EXEM", prob.m)
    means, counts = estimator._batch_means(
        levels, prob, estimator._steps_for(prob, 0.25), [10] * 4, 0, 1)
    assert counts.tolist() == [[10, 10]] * 4
    assert np.isnan(means).all()


def test_estimate_refuses_f_of_the_wrong_shape():
    # f fits x0 but returns 3 values for every batch; its mean would
    # otherwise be taken as the batch value
    prob = NamedProblem(
        d=1, m=1,
        drift=lambda t, y: y,
        diffusion_column=lambda t, y, j: y,
        x0=np.array([1.0]), exact_functional=lambda t: 1.0, name="three",
        f=lambda y: np.ones(3) if y.ndim > 1 else y[0])
    for scheme in ("EM", "EXEM"):
        with pytest.raises(ValueError, match=r"^f returned shape \(3,\) for "
                           r"a state of shape \(10, 1\); it must broadcast "
                           r"to \(10,\)$"):
            estimate(scheme, prob, 0.5, 40, seed=0, batches=4)


def test_estimate_accepts_scalar_f():
    # a constant f passes the NamedProblem check and every batch mean
    prob = NamedProblem(
        d=1, m=1,
        drift=lambda t, y: y,
        diffusion_column=lambda t, y, j: y,
        x0=np.array([1.0]), exact_functional=lambda t: 2.0, name="const",
        f=lambda y: 2.0)
    rep = estimate("RDI2WM", prob, 0.5, 40, seed=0, batches=4)
    assert rep.u_Mh == 2.0 and rep.mu_hat == 0.0 and rep.sigma2_mu == 0.0


def test_exem_on_ode():
    # without noise both levels are deterministic, so the combination
    # is exactly 2 (1 + h/2)^(2n) - (1 + h)^n
    prob = problem_linear(a=1.0, b=0.0, power=1)
    rep = estimate("EXEM", prob, 0.5, 16, seed=1, batches=2)
    assert rep.u_Mh == 2.0 * 1.25 ** 4 - 1.5 ** 2


def _exem_reference(prob, h, M, seed, batches):
    """EXEM as first written, level by level: Euler-Maruyama at n steps
    on substream (seed, 0, b) and at 2n steps on (seed, 1, b), 2 v_f -
    v_c per batch, then the mean weighted by batch size."""
    em = named_scheme("EM")
    n = int(round((prob.t_end - prob.t0) / h))
    base, extra = divmod(M, batches)
    sizes = [base + (1 if b < extra else 0) for b in range(batches)]

    def mean(values, div):
        if div.all():
            return math.nan
        with np.errstate(over="ignore", invalid="ignore"):
            return float(np.mean(np.asarray(prob.f(values[~div]),
                                            dtype=float)))

    batch_values, diverged = [], 0
    for b, size in enumerate(sizes):
        coarse, div_c = terminal_values(em, prob, n, size,
                                        substream(seed, 0, b))
        fine, div_f = terminal_values(em, prob, 2 * n, size,
                                      substream(seed, 1, b))
        batch_values.append(2.0 * mean(fine, div_f) - mean(coarse, div_c))
        diverged += int(div_c.sum()) + int(div_f.sum())
    weights = np.array(sizes, dtype=float) / float(M)
    with np.errstate(over="ignore", invalid="ignore"):
        return float(weights @ np.array(batch_values)), diverged


_REFERENCE_CASES = pytest.mark.parametrize("prob,h,seed", [
    (problem_linear(), 0.25, 5),
    (_explosive_problem(), 1.0, 2),
], ids=["linear", "explosive"])


@pytest.mark.parametrize("threads", [1, 3])
@_REFERENCE_CASES
def test_exem_matches_frozen_two_level_reference(prob, h, seed, threads):
    _assert_exem_matches_reference(prob, h, seed, threads)


@pytest.mark.parametrize("threads", [1, 3])
@_REFERENCE_CASES
def test_exem_in_parts_matches_frozen_two_level_reference(
        monkeypatch, prob, h, seed, threads):
    # parts of at most 3 paths split each batch of 10 into 4, at rows
    # 0, 2, 5 and 7; on the explosive problem some parts diverge
    monkeypatch.setattr(estimator, "_CHUNK_ELEMENTS", 3)
    paths = []

    def spy(tab, prob, n_steps, n_paths, stream):
        paths.append(n_paths)
        return terminal_values(tab, prob, n_steps, n_paths, stream)

    monkeypatch.setattr(estimator, "terminal_values", spy)
    _assert_exem_matches_reference(prob, h, seed, threads)
    assert sorted(set(paths)) == [2, 3] and sum(paths) == 2 * 200


def _assert_exem_matches_reference(prob, h, seed, threads):
    u, diverged = _exem_reference(prob, h, 200, seed, DEFAULT_BATCHES)
    rep = estimate("EXEM", prob, h, 200, seed=seed, threads=threads)
    assert float.hex(rep.u_Mh) == float.hex(u)
    assert rep.diverged == diverged
    if prob.name == "explosive":
        assert 0 < diverged < 2 * 200


@pytest.mark.parametrize("chunk", [3, 5, 7])
@pytest.mark.parametrize("scheme", ["RDI2WM", "EXEM"])
def test_estimate_in_parts_equals_the_whole_batch(monkeypatch, scheme, chunk):
    # d = 2, so 3, 5 or 7 elements are parts of 1, 2 or 3 paths; RDI2WM
    # draws the sign variates of m = 2 as well
    whole = estimate(scheme, problem_2d(), 1.0, 60, seed=3, batches=3,
                     threads=2)
    monkeypatch.setattr(estimator, "_CHUNK_ELEMENTS", chunk)
    parts = estimate(scheme, problem_2d(), 1.0, 60, seed=3, batches=3,
                     threads=2)
    assert parts == whole


@pytest.mark.parametrize("chunk", [estimator._CHUNK_ELEMENTS, 3])
@pytest.mark.parametrize("scheme", ["RDI2WM", "EXEM"])
def test_report_folds_the_batch_mean_matrix(monkeypatch, scheme, chunk):
    # the worker returns each level's own mean of f, and u_Mh and
    # sigma2_mu are its weighted levels summed from the first on; 61
    # paths in 4 batches split 16/15/15/15, and 3 elements at d = 2 are
    # parts of one path
    monkeypatch.setattr(estimator, "_CHUNK_ELEMENTS", chunk)
    prob, h, M, seed, batches = problem_2d(), 1.0, 61, 3, 4
    n = estimator._steps_for(prob, h)
    _, levels = estimator._resolve(scheme, prob.m)
    sizes = [16, 15, 15, 15]
    matrices = []
    for threads in (1, 2):
        means, counts = estimator._batch_means(levels, prob, n, sizes, seed,
                                               threads)
        assert means.shape == counts.shape == (batches, len(levels))
        values = means[:, 0] * levels[0][2]
        for k in range(1, len(levels)):
            values = values + means[:, k] * levels[k][2]
        u = float(np.array(sizes, dtype=float) / M @ values)
        sigma2 = float(np.var(values, ddof=1) / batches)
        rep = estimate(scheme, prob, h, M, seed=seed, batches=batches,
                       threads=threads)
        assert float.hex(rep.u_Mh) == float.hex(u)
        assert float.hex(rep.sigma2_mu) == float.hex(sigma2)
        assert rep.diverged == int(counts.sum()) == 0
        matrices.append((means.tobytes(), counts.tolist()))
    assert matrices[0] == matrices[1]
    for b, size in enumerate(sizes):
        for k, (tab, r, _) in enumerate(levels):
            y, _ = terminal_values(tab, prob, r * n, size,
                                   substream(seed, k, b))
            assert float.hex(means[b, k]) == float.hex(float(np.mean(
                prob.f(y))))


def test_memory_does_not_grow_with_the_batch_size():
    # batches of 5e4 and 1e5 paths; stepped whole they peak at 22 and 45 MB
    prob = problem_2d()
    estimate("RDI2WM", prob, 1.0, 200, 7, batches=2)  # warm-up
    peaks = []
    for M in (100_000, 200_000):
        tracemalloc.start()
        try:
            estimate("RDI2WM", prob, 1.0, M, 7, batches=2)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert max(peaks) < 12e6, peaks
    assert peaks[1] - peaks[0] < 3e6, peaks


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



def test_fit_order_rejects_equal_step_sizes():
    with pytest.raises(EstimatorError, match="two distinct step sizes"):
        fit_order([0.5, 0.5], [0.1, 0.2])
    # repeated sizes are fine once two distinct ones are left
    assert math.isfinite(fit_order([0.5, 0.5, 0.25], [0.1, 0.12, 0.05]))

def test_argument_validation():
    prob = problem_linear()
    with pytest.raises(EstimatorError, match="does not divide the interval"):
        estimate("EM", prob, 0.3, 100, seed=0)
    for h in (0.0, -0.25, math.nan, math.inf, True, "0.25"):
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


def test_t_quantile_table_is_scipys():
    # _T95 froze scipy's bits; under another scipy, stdtrit may differ
    # from them by a few ulp, and the table is then the reference
    import scipy
    from scipy.special import stdtrit
    exact = scipy.__version__ == PINNED_SCIPY
    assert len(estimator._T95) == 100
    for df in range(1, 101):
        want = float(stdtrit(df, 0.95))
        got = estimator._T95[df - 1]
        ok = got == want if exact else math.isclose(got, want,
                                                    rel_tol=1e-13)
        assert ok, (
            "t_0.95 for df = %d is %r in the table, which was copied "
            "from scipy %s; scipy %s gives %r"
            % (df, got, PINNED_SCIPY, scipy.__version__, want))
        assert _t_quantile_95(df) == got
    # past the table, the same scipy call
    assert _t_quantile_95(101) == float(stdtrit(101, 0.95))


def test_unnamed_tableau_labelled_custom():
    from srkweak.families import FamilyParams, make_family
    tab = make_family(FamilyParams("ORD21", c2=0.5, c3=0.5))
    rep = estimate(tab, problem_linear(), 0.25, 40, seed=1)
    assert rep.scheme == "custom"


def test_run_study_order_and_labels():
    prob = problem_linear(a=1.0, b=1.0, power=2)
    hs = [0.25, 0.125]
    tab = named_scheme("RDI1WM")
    reports, orders = run_study(["EM", tab.with_name("mine"), "EXEM"], prob,
                                hs, M=200, seed=42, batches=5)
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
    # a tableau's label is its name; there is no (label, scheme) form
    with pytest.raises(EstimatorError, match="got a tuple"):
        run_study(["EM", ("x", "EXEM")], prob, [0.25], M=1, seed=0)
    # a string of schemes would be walked one character at a time
    with pytest.raises(EstimatorError, match="schemes must be a list of "
                       "scheme names and tableaux, got the string 'EM'"):
        run_study("EM", prob, [0.5, 0.25], M=100, seed=0)


@pytest.mark.parametrize("schemes,label", [
    (["em", "EM"], "EM"),
    (["EXEM", "rdi2wm", "exem"], "EXEM"),
    ([named_scheme("RDI2WM"), "rdi2wm"], "RDI2WM"),
])
def test_run_study_refuses_a_repeated_scheme(schemes, label):
    # M = 1 fails in the first cell, so the refusal must come first
    with pytest.raises(EstimatorError,
                       match="scheme '%s' appears more than once" % label):
        run_study(schemes, problem_linear(), [0.5, 0.25], M=1, seed=0)


def test_run_study_refuses_two_unnamed_tableaux():
    # both are labelled "custom", so their rows could not be told apart
    unnamed = named_scheme("RDI2WM").with_name(None)
    with pytest.raises(EstimatorError, match="'custom' appears more than "
                       "once.*its own name with with_name"):
        run_study([unnamed, named_scheme("EM").with_name(None)],
                  problem_linear(), [0.5, 0.25], M=1, seed=0)
    reports, orders = run_study(
        [unnamed.with_name("a"), unnamed.with_name("b")], problem_linear(),
        [0.5, 0.25], M=8, seed=0, batches=2)
    assert [r.scheme for r in reports] == ["a", "a", "b", "b"]
    assert [o.scheme for o in orders] == ["a", "b"]


def test_run_study_refuses_a_repeated_step_size():
    with pytest.raises(EstimatorError,
                       match="step size 0.5 appears more than once"):
        run_study(["EM"], problem_linear(), [1.0, 0.5, 0.5], M=1, seed=0)


def test_invalid_tableau_refused_before_running():
    # RDI2WM with an entry above the diagonal, which no step would read;
    # M = 1 fails in the first cell, so a refusal that waits for its
    # cell cannot be reached
    arrays = {k: np.array(getattr(named_scheme("RDI2WM"), k))
              for k in _VECTOR_KEYS + _MATRIX_KEYS}
    arrays["A0"][0, 2] = 5.0
    bad = CoefficientTableau(s=3, name="bad", **arrays)
    prob = problem_linear()
    message = "refusing to step .* first: A0\\[1\\]\\[3\\] = 5.0 must be 0"
    with pytest.raises(TableauValueError, match=message):
        estimate(bad, prob, 0.25, 1, seed=0)
    with pytest.raises(TableauValueError, match=message):
        run_study(["EM", bad], prob, [0.5, 0.25], M=1, seed=0)


def test_estimate_requires_study_functional():
    bare = SdeProblem(d=1, m=1, drift=lambda t, y: y,
                      diffusion_column=lambda t, y, j: y, x0=[1.0])
    with pytest.raises(EstimatorError, match="a SdeProblem carries no f and "
                       "exact_functional; use a NamedProblem"):
        estimate("EM", bare, 0.25, 100, seed=0)


@pytest.mark.parametrize("hs,message", [
    ([0.25], "at least two distinct step sizes, got 0.25"),
    ([0.25, 0.25], "at least two distinct step sizes, got 0.25, 0.25"),
    ([0.5, 0.3], "step size 0.3 does not divide"),
    ([0.5, 0.0], "step size h must be a finite positive number, got 0.0"),
    ([True, 0.5], "step size h must be a finite positive number, got True"),
    (["0.5", 0.25], "step size h must be a finite positive number, got '"),
])
def test_run_study_checks_step_sizes_before_running(hs, message):
    # M = 1 fails in the first cell, so a check that waits for its
    # cell cannot be reached
    with pytest.raises(EstimatorError, match=message):
        run_study(["EM", "RDI2WM"], problem_linear(), hs, M=1, seed=0)
    # the scheme check comes first
    with pytest.raises(UnknownSchemeError):
        run_study(["EM", "SRK9"], problem_linear(), hs, M=1, seed=0)


def test_run_study_accepts_tableaux():
    prob = problem_linear(a=1.0, b=1.0, power=2)
    hs = [0.25, 0.125]
    by_tableau, orders = run_study([named_scheme("EM")], prob, hs, M=200,
                                   seed=42, batches=5)
    by_name, _ = run_study(["EM"], prob, hs, M=200, seed=42, batches=5)
    assert by_tableau == by_name
    assert [o.scheme for o in orders] == ["EM"]

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


def test_run_study_records_nan_order_without_usable_errors():
    # with a = b = 0 every path stays at x0, so each weak error is
    # exactly zero: the rows are kept and the order is nan, while
    # fit_order itself still refuses
    prob = problem_linear(a=0.0, b=0.0)
    with pytest.warns(UserWarning, match="order fit drops"):
        reports, orders = run_study(["EM"], prob, [0.5, 0.25], M=8, seed=1,
                                    batches=2)
    assert [r.mu_hat for r in reports] == [0.0, 0.0]
    assert math.isnan(orders[0].fitted_order)
    with pytest.warns(UserWarning, match="order fit drops"):
        with pytest.raises(EstimatorError, match="at least two nonzero"):
            fit_order([0.5, 0.25], [0.0, 0.0])
