"""Monte Carlo estimation of weak errors and convergence orders.

The weak error of a scheme at step size h is estimated by

    u_Mh   = (1/M) sum_i f(Y_T^(i)),
    mu_hat = u_Mh - E f(X_T),

with the exact expectation supplied by the problem.  The M
trajectories are split into batches; the empirical variance of the
batch means yields the variance estimate

    sigma2_mu = Var(batch means) / n_batches

and a confidence interval mu_hat +/- t_{0.95, n_batches-1}
sqrt(sigma2_mu).  Batches are independent by construction (each owns
a dedicated counter-based stream), so results are identical for any
thread count and any batch execution order.

Schemes are compared through the fitted order, the least-squares
slope of log2 |mu_hat| against log2 h.
"""

from __future__ import annotations

import csv
import math
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .families import named_scheme
from .increments import derive_seed, substream
from .integrator import terminal_values, usage_plan
from .problems import NamedProblem
from .tableau import CoefficientTableau, Error, _check_int, _is_finite

DEFAULT_BATCHES = 20

#: Pseudo-scheme name: Euler-Maruyama runs at h and h/2 combined as
#: 2 u_{h/2} - u_h, cancelling the leading weak error term.
EXTRAPOLATED = "EXEM"


class EstimatorError(Error):
    """Raised when an estimate or an order fit cannot be formed."""


@dataclass(frozen=True)
class WeakErrorReport:
    """One scheme/problem/step-size row of a convergence study."""

    scheme: str
    problem: str
    h: float
    M: int
    u_Mh: float
    mu_hat: float
    sigma2_mu: float
    ci_a: float
    ci_b: float
    diverged: int


@dataclass(frozen=True)
class FittedOrder:
    """Least-squares convergence order of one scheme on one problem."""

    scheme: str
    problem: str
    fitted_order: float


def _t_quantile_95(df):
    """The 0.95 quantile of Student's t distribution with df degrees of
    freedom.

    scipy is imported here, at the first confidence interval, because
    importing it takes more than half the start-up of srkweak and
    nothing but a Monte Carlo estimate needs it.
    """
    from scipy.special import stdtrit
    return float(stdtrit(df, 0.95))


def _steps_for(prob, h):
    if not (_is_finite(h) and h > 0.0):
        raise EstimatorError("step size h must be a finite positive number, "
                             "got %r" % (h,))
    span = prob.t_end - prob.t0
    n = span / h
    n_int = int(round(n))
    if n_int < 1 or abs(n - n_int) > 1e-9 * max(1.0, abs(n)):
        raise EstimatorError(
            "step size %r does not divide the interval [%r, %r]"
            % (h, prob.t0, prob.t_end))
    return n_int


def _batch_sizes(M, batches):
    _check_int("batches", batches, 2, EstimatorError)
    _check_int("M", M, batches, EstimatorError)
    base, extra = divmod(int(M), int(batches))
    return [base + (1 if b < extra else 0) for b in range(batches)]


def _resolve(scheme, m):
    """(label, tableau) for a tableau, a scheme name or "EXEM" (None).

    A tableau is planned for m noises here, so a structurally invalid
    one is refused before any path runs.
    """
    if isinstance(scheme, CoefficientTableau):
        usage_plan(scheme, m)
        return scheme.name or "custom", scheme
    if not isinstance(scheme, str):
        raise EstimatorError("a scheme must be a name or a CoefficientTableau,"
                             " got a %s" % type(scheme).__name__)
    if scheme.upper() == EXTRAPOLATED:
        return EXTRAPOLATED, None
    tab = named_scheme(scheme)
    return tab.name, tab


def _mean_over_valid(prob, values, diverged):
    if diverged.all():
        return math.nan, int(diverged.sum())
    # f may overflow on extreme but representable states
    with np.errstate(over="ignore", invalid="ignore"):
        vals = np.asarray(prob.f(values[~diverged]), dtype=float)
        return float(np.mean(vals)), int(diverged.sum())


def estimate(scheme, prob, h, M, seed, batches=DEFAULT_BATCHES, threads=1):
    """Estimate the weak error of a scheme on a problem at one step size.

    Args:
      scheme: CoefficientTableau, the name of a built-in scheme, or
        the string "EXEM" for the extrapolated two-level
        Euler-Maruyama estimator; a tableau with structural violations
        raises TableauValueError before any path runs
      prob: NamedProblem (must carry f and exact_functional)
      h: step size; must divide the problem interval
      M: total number of trajectories
      seed: non-negative integer seed; all randomness is derived from it
      batches: number of batches for the variance estimate, >= 2
      threads: worker threads; the result does not depend on it

    Returns:
      WeakErrorReport; diverged trajectories are excluded from the
      means and counted in the report
    """
    if not isinstance(prob, NamedProblem):
        raise EstimatorError("a %s carries no f and exact_functional; use a "
                             "NamedProblem" % type(prob).__name__)
    label, tab = _resolve(scheme, prob.m)
    _check_int("seed", seed, 0, EstimatorError)
    n_steps = _steps_for(prob, h)
    sizes = _batch_sizes(M, batches)
    _check_int("threads", threads, 1, EstimatorError)
    exact = float(prob.exact_functional(prob.t_end))

    if tab is not None:
        def worker(b):
            stream = substream(seed, 0, b)
            values, div = terminal_values(tab, prob, n_steps, sizes[b],
                                          stream)
            return _mean_over_valid(prob, values, div)
    else:
        em = named_scheme("EM")

        def worker(b):
            coarse, div_c = terminal_values(
                em, prob, n_steps, sizes[b], substream(seed, 0, b))
            fine, div_f = terminal_values(
                em, prob, 2 * n_steps, sizes[b], substream(seed, 1, b))
            v_c, n_c = _mean_over_valid(prob, coarse, div_c)
            v_f, n_f = _mean_over_valid(prob, fine, div_f)
            return 2.0 * v_f - v_c, n_c + n_f

    if threads == 1:
        results = [worker(b) for b in range(len(sizes))]
    else:
        with ThreadPoolExecutor(max_workers=int(threads)) as pool:
            results = list(pool.map(worker, range(len(sizes))))

    batch_values = np.array([r[0] for r in results])
    diverged = int(sum(r[1] for r in results))
    weights = np.array(sizes, dtype=float) / float(M)
    with np.errstate(over="ignore", invalid="ignore"):
        u = float(weights @ batch_values)
        mu = u - exact
        sigma2 = float(np.var(batch_values, ddof=1) / len(sizes))
    half = float(_t_quantile_95(len(sizes) - 1) * math.sqrt(sigma2)) \
        if np.isfinite(sigma2) else math.nan
    return WeakErrorReport(scheme=label, problem=prob.name, h=float(h),
                           M=int(M), u_Mh=u, mu_hat=mu, sigma2_mu=sigma2,
                           ci_a=mu - half, ci_b=mu + half,
                           diverged=diverged)


def fit_order(hs, mu_hats):
    """Fit the convergence order from weak errors over step sizes.

    Args:
      hs: step sizes, all positive
      mu_hats: weak errors mu_hat, same length

    Returns:
      float, the least-squares slope of log2 |mu_hat| vs log2 h

    Raises:
      EstimatorError: if fewer than two usable points, or fewer than
        two distinct step sizes among them, remain
    """
    hs = np.asarray(hs, dtype=float)
    errs = np.abs(np.asarray(mu_hats, dtype=float))
    if hs.shape != errs.shape or hs.ndim != 1:
        raise EstimatorError("hs and mu_hats must be 1-d and equally long")
    if np.any(hs <= 0) or not np.all(np.isfinite(hs)):
        raise EstimatorError("step sizes must be positive and finite")
    usable = (errs > 0) & np.isfinite(errs)
    if not usable.all():
        dropped = ", ".join("%g" % h for h in hs[~usable])
        warnings.warn("order fit drops step sizes with zero or non-finite "
                      "weak error: h = %s" % dropped)
    if usable.sum() < 2:
        raise EstimatorError(
            "order fit needs at least two nonzero weak errors, got %d"
            % int(usable.sum()))
    if len(np.unique(hs[usable])) < 2:
        raise EstimatorError(
            "order fit needs at least two distinct step sizes, got h = %s"
            % ", ".join("%g" % h for h in hs[usable]))
    slope = np.polyfit(np.log2(hs[usable]), np.log2(errs[usable]), 1)[0]
    return float(slope)


def run_study(schemes, prob, hs, M, seed, batches=DEFAULT_BATCHES,
              threads=1):
    """Run a convergence study over schemes and step sizes.

    Randomness is derived from the master seed per (scheme position,
    step-size position), so every combination uses its own
    independent stream and the thread count never affects results.

    Args:
      schemes: iterable of scheme names ("EXEM" for the extrapolated
        Euler-Maruyama estimator) and tableaux; a tableau is labelled
        by its name ("custom" if it has none), and one with structural
        violations raises TableauValueError before any cell runs; no two
        may share a label
      prob: NamedProblem
      hs: step sizes, each dividing the problem interval, at least two
        and no two equal; all are checked before any cell runs
      M: trajectories per scheme and step size
      seed: non-negative integer master seed
      batches: batches per estimate
      threads: worker threads per estimate

    Returns:
      (reports, orders): lists of WeakErrorReport and FittedOrder in
      input order
    """
    _check_int("seed", seed, 0, EstimatorError)
    resolved = [_resolve(item, prob.m) for item in schemes]
    labels = [label for label, _ in resolved]
    for label in labels:
        if labels.count(label) > 1:
            hint = ("; give each tableau its own name with with_name"
                    if label == "custom" else "")
            raise EstimatorError("scheme %r appears more than once in the "
                                 "study, so its rows could not be told apart%s"
                                 % (label, hint))
    hs = list(hs)
    for h in hs:
        _steps_for(prob, h)
    hs = [float(h) for h in hs]
    if len(set(hs)) < 2:
        raise EstimatorError("a study needs at least two distinct step "
                             "sizes, got %s" % ", ".join(map(repr, hs)))
    for h in hs:
        if hs.count(h) > 1:
            raise EstimatorError("step size %r appears more than once in "
                                 "the study" % h)
    reports = []
    orders = []
    for si, (label, tab) in enumerate(resolved):
        rows = [estimate(EXTRAPOLATED if tab is None else tab, prob, h, M,
                         derive_seed(seed, si, hi),
                         batches=batches, threads=threads)
                for hi, h in enumerate(hs)]
        reports.extend(rows)
        orders.append(FittedOrder(
            scheme=label, problem=prob.name,
            fitted_order=fit_order([r.h for r in rows],
                                   [r.mu_hat for r in rows])))
    return reports, orders


ERRORS_HEADER = ("scheme", "problem", "h", "M", "u_Mh", "mu_hat",
                 "sigma2_mu", "ci_a", "ci_b", "diverged")
ORDERS_HEADER = ("scheme", "problem", "fitted_order")


def write_errors_csv(path, reports):
    """Write weak-error rows to a CSV file with a fixed header."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(ERRORS_HEADER)
        for r in reports:
            w.writerow([r.scheme, r.problem, "%.5E" % r.h, "%d" % r.M,
                        "%.5E" % r.u_Mh, "%.5E" % r.mu_hat,
                        "%.5E" % r.sigma2_mu, "%.5E" % r.ci_a,
                        "%.5E" % r.ci_b, "%d" % r.diverged])


def write_orders_csv(path, orders):
    """Write fitted-order rows to a CSV file with a fixed header."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(ORDERS_HEADER)
        for o in orders:
            w.writerow([o.scheme, o.problem, "%.5E" % o.fitted_order])
