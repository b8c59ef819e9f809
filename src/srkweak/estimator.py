"""Monte Carlo estimation of weak errors and convergence orders.

The weak error of a scheme at step size h is estimated by

    u_Mh   = (1/M) sum_i f(Y_T^(i)),
    mu_hat = u_Mh - E f(X_T),

with the exact expectation supplied by the problem.  The M
trajectories are split into batches; the empirical variance of the
batch means yields the variance estimate

    sigma2_mu = Var(batch means) / n_batches

and a confidence interval mu_hat +/- t_{0.95, n_batches-1}
sqrt(sigma2_mu), whose quantile comes from a frozen table of scipy's
values for up to 101 batches and from scipy past it (_t_quantile_95).
Batches are independent by construction (each owns a dedicated
counter-based stream), so results are identical for any thread count
and any batch execution order.

Every estimate runs its batches through one worker, _batch_means,
which returns a (batches, levels) matrix of the levels' means of f and
one of their divergence counts; estimate folds the weighted means into
u_Mh and the interval.  A scheme is one level of weight 1, and EXEM,
the extrapolation 2 u_{h/2} - u_h of Talay and Tubaro, is two levels
of Euler-Maruyama, at h weighted -1 and at h/2 weighted 2.

The temporaries of a step do not grow with the batch size.  A batch
of n paths is stepped in equal parts of at most _CHUNK_ELEMENTS state
elements (paths times d), each through all steps by its own
terminal_values call, so they scale with the part, not with n.  Each
part draws from its own copy of the batch stream, positioned on the
part's rows (increments._RowWindow), so it gets exactly the increments
the whole batch would have given those paths.  The parts write their
terminal states and divergence flags into one (n, d) array and one
mask, and f and the mean then run on that array as they would on the
whole batch: the summation order, and so every output bit, does not
depend on the part size.  A part is one terminal_values call, not a
slice inside its step loop, so each call still does evaluation_cost
times steps callback calls.

The functions here never call mallopt: the allocator policy belongs
to the process, and `srkweak study` sets it (see the cli docstring).

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
from .increments import _RowWindow, derive_seed, substream
from .integrator import _checked, terminal_values, usage_plan
from .problems import NamedProblem
from .tableau import CoefficientTableau, Error, _check_int, _is_finite

DEFAULT_BATCHES = 20
#: most state elements (paths times d) stepped at once: 256 KiB per
#: float64 stage array, which keeps a step's temporaries near cache
_CHUNK_ELEMENTS = 1 << 15

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


#: scipy.special.stdtrit(df, 0.95) under scipy 1.17.1 for df = 1 ... 100,
#: as float reprs.  Copied, not recomputed: stdtrit is a few ulp off the
#: correctly rounded quantile for most df (7 ulp at df = 1), and the
#: study outputs of every earlier version carry its bits.
_T95 = (
    6.313751514675037, 2.9199855803537242, 2.3533634348018233,
    2.1318467863266495, 2.0150483733330233, 1.9431802805153042,
    1.8945786050900062, 1.8595480375308973, 1.833112932656237,
    1.8124611228116756, 1.7958848187040433, 1.782287555649319,
    1.7709333959868725, 1.761310135774891, 1.753050355692572,
    1.7458836762762495, 1.7396067260750725, 1.7340636066175388,
    1.7291328115213682, 1.7247182429207866, 1.720742902811878,
    1.7171443743802424, 1.713871527747048, 1.710882079909428,
    1.7081407612518986, 1.7056179197592727, 1.7032884457221265,
    1.7011309342659313, 1.6991270265334972, 1.697260886593957,
    1.6955187825458649, 1.6938887483837102, 1.6923603090303438,
    1.6909242551868546, 1.6895724577802655, 1.6882977141168156,
    1.6870936195962631, 1.6859544601667371, 1.6848751217112248,
    1.683851013335652, 1.682878002132708, 1.6819523574675337,
    1.681070703202519, 1.6802299765721167, 1.6794273926523544,
    1.678660413556865, 1.6779267216418607, 1.6772241961243388,
    1.6765508926168535, 1.675905025163097, 1.67528495042491,
    1.6746891537260253, 1.6741162367031004, 1.6735649063521605,
    1.673033965289911, 1.6725223030755771, 1.6720288884609522,
    1.6715527624548587, 1.6710930321038946, 1.6706488649046363,
    1.6702194837737365, 1.6698041625120112, 1.6694022217068127,
    1.6690130250240895, 1.6686359758475524, 1.6682705142276324,
    1.6679161141074244, 1.667572280796708, 1.6672385486685526,
    1.6669144790559562, 1.6665996583285334, 1.6662936961315349,
    1.6659962237714312, 1.6657068927340233, 1.6654253733225628,
    1.6651513534046944, 1.6648845372582053, 1.6646246445066148,
    1.6643714091365505, 1.6641245785896672, 1.6638839129226004,
    1.663649184029077, 1.6634201749188848, 1.663196679048909,
    1.662978499701904, 1.6627654494090705, 1.6625573494128771,
    1.6623540291668955, 1.6621553258697, 1.6619610840301615,
    1.6617711550616947, 1.6615853969032335, 1.6614036736648987,
    1.6612258552965113, 1.661051817277241, 1.6608814403248375,
    1.6607146101230246, 1.660551217065733, 1.6603911560169906,
    1.6602343260853392,
)


def _t_quantile_95(df):
    """The 0.95 quantile of Student's t distribution with df degrees of
    freedom, bit for bit scipy.special.stdtrit(df, 0.95).

    For df <= 100 (up to 101 batches) the value comes from _T95, so it
    does not depend on the installed scipy, which is not imported.
    Past the table, scipy is imported here, at the first such interval:
    importing scipy.special takes about 0.3 s and 24 MB, more than the
    rest of srkweak.
    """
    if df <= len(_T95):
        return _T95[df - 1]
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
    """(label, levels) for a tableau, a scheme name or "EXEM".

    A level (tableau, r, weight) adds weight times the mean of f after
    r * n steps of size h / r: one level for a scheme, two for EXEM.  A
    tableau is planned for m noises here, so a structurally invalid one
    is refused before any path runs.
    """
    if isinstance(scheme, CoefficientTableau):
        usage_plan(scheme, m)
        return scheme.name or "custom", ((scheme, 1, 1.0),)
    if not isinstance(scheme, str):
        raise EstimatorError("a scheme must be a name or a CoefficientTableau,"
                             " got a %s" % type(scheme).__name__)
    if scheme.upper() == EXTRAPOLATED:
        em = named_scheme("EM")
        return EXTRAPOLATED, ((em, 1, -1.0), (em, 2, 2.0))
    tab = named_scheme(scheme)
    return tab.name, ((tab, 1, 1.0),)


def _batch_means(levels, prob, n_steps, sizes, seed, threads):
    """(means, diverged): two (batches, levels) arrays, the mean of f
    over the paths of level k in batch b that did not diverge (nan if
    none is left) and the count of those that did.  Level k of _resolve
    runs on substream (seed, k, b); its weight is not read.
    """
    def worker(b):
        n = sizes[b]
        parts = -(-n // max(1, _CHUNK_ELEMENTS // prob.d))
        bounds = [n * c // parts for c in range(parts + 1)]
        means, counts = [], []
        for k, (tab, r, _) in enumerate(levels):
            values = np.empty((n, prob.d), order="F")
            div = np.empty(n, dtype=bool)
            for lo, hi in zip(bounds, bounds[1:]):
                values[lo:hi], div[lo:hi] = terminal_values(
                    tab, prob, r * n_steps, hi - lo,
                    _RowWindow(substream(seed, k, b), n, lo, hi))
            # f may overflow on extreme but representable states
            with np.errstate(over="ignore", invalid="ignore"):
                kept = values[~div] if div.any() else values
                means.append(math.nan if div.all() else float(np.mean(
                    _checked("f", prob.f(kept), kept, kept.shape[:-1]))))
            counts.append(int(div.sum()))
        return means, counts

    if threads == 1:
        results = [worker(b) for b in range(len(sizes))]
    else:
        with ThreadPoolExecutor(max_workers=int(threads)) as pool:
            results = list(pool.map(worker, range(len(sizes))))
    means, counts = zip(*results)
    return np.array(means), np.array(counts)


def estimate(scheme, prob, h, M, seed, batches=DEFAULT_BATCHES, threads=1):
    """Estimate the weak error of a scheme on a problem at one step size.

    Args:
      scheme: CoefficientTableau, the name of a built-in scheme, or
        the string "EXEM" for the extrapolated estimator, Euler-Maruyama
        at h and at h/2 as two weighted levels of the same batch worker
        (on substreams 0 and 1 of each batch); a tableau with structural
        violations raises TableauValueError before any path runs
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
    label, levels = _resolve(scheme, prob.m)
    _check_int("seed", seed, 0, EstimatorError)
    n_steps = _steps_for(prob, h)
    sizes = _batch_sizes(M, batches)
    _check_int("threads", threads, 1, EstimatorError)
    exact = float(prob.exact_functional(prob.t_end))

    means, counts = _batch_means(levels, prob, n_steps, sizes, seed, threads)
    weights = np.array(sizes, dtype=float) / float(M)
    with np.errstate(over="ignore", invalid="ignore"):
        # the first level, then the others in order: 0.0 + -0.0 is +0.0
        terms = [means[:, k] * w for k, (_, _, w) in enumerate(levels)]
        batch_values = sum(terms[1:], terms[0])
        u = float(weights @ batch_values)
        mu = u - exact
        sigma2 = float(np.var(batch_values, ddof=1) / len(sizes))
    half = float(_t_quantile_95(len(sizes) - 1) * math.sqrt(sigma2)) \
        if np.isfinite(sigma2) else math.nan
    return WeakErrorReport(scheme=label, problem=prob.name, h=float(h),
                           M=int(M), u_Mh=u, mu_hat=mu, sigma2_mu=sigma2,
                           ci_a=mu - half, ci_b=mu + half,
                           diverged=int(counts.sum()))


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


def _check_study(schemes, prob, hs, M, seed, batches, threads):
    """Check every argument of run_study before any cell runs.

    Returns:
      (schemes, labels, hs): the schemes as given and their labels as
      lists, and the step sizes as floats
    """
    _check_int("seed", seed, 0, EstimatorError)
    if isinstance(schemes, str):
        raise EstimatorError("schemes must be a list of scheme names and "
                             "tableaux, got the string %r" % schemes)
    schemes = list(schemes)
    labels = [_resolve(item, prob.m)[0] for item in schemes]
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
    _batch_sizes(M, batches)
    _check_int("threads", threads, 1, EstimatorError)
    return schemes, labels, hs


def run_study(schemes, prob, hs, M, seed, batches=DEFAULT_BATCHES,
              threads=1):
    """Run a convergence study over schemes and step sizes.

    Randomness is derived from the master seed per (scheme position,
    step-size position), so every combination uses its own
    independent stream and the thread count never affects results.
    Every argument is checked before any cell runs.

    Args:
      schemes: iterable, not a string, of scheme names ("EXEM" for the
        extrapolated Euler-Maruyama estimator) and tableaux; a tableau
        is labelled by its name ("custom" if it has none), and one with
        structural violations raises TableauValueError; no two may
        share a label
      prob: NamedProblem
      hs: step sizes, each dividing the problem interval, at least two
        and no two equal
      M: trajectories per scheme and step size
      seed: non-negative integer master seed
      batches: batches per estimate
      threads: worker threads per estimate

    Returns:
      (reports, orders): lists of WeakErrorReport and FittedOrder in
      input order; a scheme with fewer than two nonzero finite weak
      errors gets the fitted order nan, so that its rows are kept
    """
    schemes, labels, hs = _check_study(schemes, prob, hs, M, seed, batches,
                                       threads)
    reports = []
    orders = []
    for si, (scheme, label) in enumerate(zip(schemes, labels)):
        rows = [estimate(scheme, prob, h, M, derive_seed(seed, si, hi),
                         batches=batches, threads=threads)
                for hi, h in enumerate(hs)]
        reports.extend(rows)
        try:
            order = fit_order([r.h for r in rows], [r.mu_hat for r in rows])
        except EstimatorError:
            # the step sizes were checked, so too few usable weak errors
            # remain; fit_order has warned which ones it dropped
            order = math.nan
        orders.append(FittedOrder(scheme=label, problem=prob.name,
                                  fitted_order=order))
    return reports, orders


ERRORS_HEADER = ("scheme", "problem", "h", "M", "u_Mh", "mu_hat",
                 "sigma2_mu", "ci_a", "ci_b", "diverged")
ORDERS_HEADER = ("scheme", "problem", "fitted_order")


def _write_csv(path, header, rows):
    """Write rows of formatted fields to a CSV file under a header."""
    with open(path, "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows([header, *rows])


def write_errors_csv(path, reports):
    """Write weak-error rows to a CSV file with a fixed header."""
    _write_csv(path, ERRORS_HEADER, (
        [r.scheme, r.problem, "%.5E" % r.h, "%d" % r.M, "%.5E" % r.u_Mh,
         "%.5E" % r.mu_hat, "%.5E" % r.sigma2_mu, "%.5E" % r.ci_a,
         "%.5E" % r.ci_b, "%d" % r.diverged] for r in reports))


def write_orders_csv(path, orders):
    """Write fitted-order rows to a CSV file with a fixed header."""
    _write_csv(path, ORDERS_HEADER, (
        [o.scheme, o.problem, "%.5E" % o.fitted_order] for o in orders))
