"""Stepping engine for explicit stochastic Runge-Kutta schemes.

One step of size h from (t, y) for the Ito SDE

    dX = a(t, X) dt + sum_k b^k(t, X) dW^k,   X in R^d,  W in R^m,

reads, with the weights and stage matrices of a CoefficientTableau and
the increments Ihat_k, Ihat_(k,l) of a WeakIncrementBatch,

    y' = y + sum_i alpha_i a(t + c0_i h, H0_i) h
           + sum_{i,k} beta1_i b^k(t + c1_i h, H_i^k) Ihat_k
           + sum_{i,k} beta2_i b^k(t + c1_i h, H_i^k) Ihat_(k,k)/sqrt(h)
           + sum_i sum_{k != l} beta3_i b^k(t + c2_i h, Hh_i^l) Ihat_k
           + sum_i sum_{k != l} beta4_i b^k(t + c2_i h, Hh_i^l)
                                                      Ihat_(k,l)/sqrt(h)

with stage values (all sums over j < i)

    H0_i   = y + sum_j A0_ij a(t + c0_j h, H0_j) h
               + sum_j B0_ij sum_r b^r(t + c1_j h, H_j^r) Ihat_r
    H_i^k  = y + sum_j A1_ij a(t + c0_j h, H0_j) h
               + sum_j B1_ij b^k(t + c1_j h, H_j^k) sqrt(h)
    Hh_i^k = y + sum_j A2_ij a(t + c0_j h, H0_j) h
               + sum_j B2_ij b^k(t + c1_j h, H_j^k) sqrt(h)

Evaluations are shared and skipped aggressively: each drift value
a(H0_i), each diffusion column b^k(H_i^k) and each mixed value
b^k(Hh_i^l) is computed at most once per step, and only when some
nonzero coefficient actually references it.  Since the first stage
satisfies H_1^k = Hh_1^l = y with zero nodes, the mixed values of
stage one are the plain columns b^k(t, y) and are reused rather than
re-evaluated.

Which values a step evaluates, and which coefficients it applies, is
decided once per (tableau, m): usage_plan() compiles the tableau into
a frozen StepPlan holding the need flags, the nonzero (j, A_ij, B_ij)
couplings of each stage and the nonzero alpha/beta weights as Python
floats, and keeps it in a bounded, thread-safe cache keyed on tableau
identity.  evaluation_cost() reads the same plan to report the
per-step evaluation and random-variable counts, and the stepper is
instrumentable to match them exactly.

The step keeps every diffusion column b^k(H_i^k) and every mixed
value b^k(Hh_i^l) as an array of its own with the shape of the state,
and adds each term as value * weight, the weights being per-path
combinations of Ihat_k and V_kl.  All stepping code broadcasts over
leading axes of the state, so a whole batch of trajectories advances
in one call with identical results to stepping them one by one.

terminal_values() stores a batch of M states as an (M, d) array in
Fortran order, so each state component is contiguous over the paths,
as are the Ihat_k and V_kl that draw() returns.  Every value * weight
product then runs over contiguous memory, and numpy's elementwise
operations carry the layout from one stage to the next.  The drift
and diffusion callbacks receive these path-contiguous states; one
that returns an np.empty_like(y)-shaped array keeps the layout, and
any layout gives identical numbers.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .increments import WeakIncrementBatch, draw, support_batch


def _check_count(name, value):
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) \
            or value < 1:
        raise ValueError("%s must be an integer >= 1, got %r" % (name, value))


@dataclass(frozen=True)
class SdeProblem:
    """An Ito SDE with fixed initial data on a time interval.

    drift(t, y) and diffusion_column(t, y, j) map a state array of
    shape (..., d) to an array of the same shape; j is the 0-based
    index of the driving Wiener component.  Both callables must
    broadcast over leading axes of y.  Batched states arrive
    path-contiguous, as Fortran-ordered (M, d) arrays; a callback that
    returns an array laid out like y (np.empty_like(y)) keeps the
    stepper on contiguous memory.  Any returned layout gives identical
    numbers.

    exact_functional, when present, maps t to the exact value of
    E f(X_t) for the functional f the problem is studied with.
    """

    d: int
    m: int
    drift: object
    diffusion_column: object
    x0: np.ndarray
    t0: float = 0.0
    t_end: float = 1.0
    exact_functional: object = None

    def __post_init__(self):
        for key in ("d", "m"):
            val = getattr(self, key)
            _check_count(key, val)
            object.__setattr__(self, key, int(val))
        if not callable(self.drift) or not callable(self.diffusion_column):
            raise ValueError("drift and diffusion_column must be callable")
        x0 = np.asarray(self.x0, dtype=float).copy()
        if x0.shape != (self.d,):
            raise ValueError("x0 must have shape (%d,), got %r"
                             % (self.d, x0.shape))
        if not np.all(np.isfinite(x0)):
            raise ValueError("x0 must be finite")
        x0.setflags(write=False)
        object.__setattr__(self, "x0", x0)
        object.__setattr__(self, "t0", float(self.t0))
        object.__setattr__(self, "t_end", float(self.t_end))
        if not (math.isfinite(self.t0) and math.isfinite(self.t_end)):
            raise ValueError("t0 and t_end must be finite, got %r and %r"
                             % (self.t0, self.t_end))
        if not self.t_end > self.t0:
            raise ValueError("t_end must exceed t0")


@dataclass(frozen=True)
class StepContext:
    """Input of one scheme step: time, step size, state and increments."""

    t: float
    h: float
    y: np.ndarray
    increments: WeakIncrementBatch


@dataclass(frozen=True)
class EvaluationCost:
    """Per-step, per-trajectory work of a scheme applied with m noises."""

    drift_evals: int
    diffusion_column_evals: int
    random_draws: int


#: plans kept by usage_plan; older entries are evicted least recently used
PLAN_CACHE_SIZE = 64


@dataclass(frozen=True)
class StepPlan:
    """A tableau compiled for m Wiener components: what a step evaluates
    and how it combines the values.

    Flags, one per stage i:
      need_a[i]: the drift value a(H0_i) is used somewhere.
      need_b[i]: the m diffusion columns b^k(H_i^k) are used somewhere.
      need_bhat[i]: the mixed values b^k(Hh_i^l), k != l, are used; for
        i = 0 they coincide with the stage-one plain columns and are
        reused at no extra evaluation cost.
      need_bdot[i]: sum_r b^r(H_i^r) Ihat_r is used, by beta1 or, through
        B0, by a needed drift stage.

    Stage terms, one tuple per stage, list the nonzero coefficients on
    earlier stages j as Python floats: h0_terms[i] holds (j, A0_ij,
    B0_ij) with at least one of the two nonzero, hk_drift[i] and
    hk_noise[i] hold (j, A1_ij) and (j, B1_ij), hh_drift[i] and
    hh_noise[i] hold (j, A2_ij) and (j, B2_ij).  c0, c1 and c2 are the
    stage nodes.

    Weights list only nonzero entries: alpha, beta1 and beta2 hold
    (i, weight), beta34 holds (i, beta3_i, beta4_i) for the stages with
    need_bhat.
    """

    m: int
    need_a: tuple
    need_b: tuple
    need_bhat: tuple
    need_bdot: tuple
    needs_ihat: bool
    needs_offdiag: bool
    c0: tuple
    c1: tuple
    c2: tuple
    h0_terms: tuple
    hk_drift: tuple
    hk_noise: tuple
    hh_drift: tuple
    hh_noise: tuple
    alpha: tuple
    beta1: tuple
    beta2: tuple
    beta34: tuple


def _nonzero(values):
    return tuple((i, v) for i, v in enumerate(values) if v)


def _compile(tab, m):
    s = tab.s
    alpha, beta1, beta2, beta3, beta4 = (
        getattr(tab, k).tolist()
        for k in ("alpha", "beta1", "beta2", "beta3", "beta4"))
    A0, A1, A2, B0, B1, B2 = (
        getattr(tab, k).tolist()
        for k in ("A0", "A1", "A2", "B0", "B1", "B2"))
    need_a = [bool(v) for v in alpha]
    need_b = [bool(b1) or bool(b2) for b1, b2 in zip(beta1, beta2)]
    mixed = m >= 2
    need_bhat = [mixed and (bool(b3) or bool(b4))
                 for b3, b4 in zip(beta3, beta4)]
    # propagate through stage dependencies until stable
    changed = True
    while changed:
        changed = False
        for i in range(s):
            wants_hhat = need_bhat[i] and i > 0  # stage one needs nothing
            for wanted, A, B in ((need_a[i], A0, B0), (need_b[i], A1, B1),
                                 (wants_hhat, A2, B2)):
                if not wanted:
                    continue
                for j in range(i):
                    if A[i][j] and not need_a[j]:
                        need_a[j] = changed = True
                    if B[i][j] and not need_b[j]:
                        need_b[j] = changed = True
        if need_bhat[0] and not need_b[0]:
            # mixed values of stage one reuse the plain columns
            need_b[0] = changed = True
    need_bdot = [bool(beta1[j]) or any(need_a[i] and B0[i][j]
                                       for i in range(j + 1, s))
                 for j in range(s)]
    needs_ihat = any(need_bdot) or any(beta2) or any(need_bhat)
    needs_offdiag = mixed and any(beta4)
    return StepPlan(
        m=m, need_a=tuple(need_a), need_b=tuple(need_b),
        need_bhat=tuple(need_bhat), need_bdot=tuple(need_bdot),
        needs_ihat=needs_ihat, needs_offdiag=needs_offdiag,
        c0=tuple(tab.c0.tolist()), c1=tuple(tab.c1v.tolist()),
        c2=tuple(tab.c2v.tolist()),
        h0_terms=tuple(tuple((j, A0[i][j], B0[i][j]) for j in range(i)
                             if A0[i][j] or B0[i][j]) for i in range(s)),
        hk_drift=tuple(_nonzero(A1[i][:i]) for i in range(s)),
        hk_noise=tuple(_nonzero(B1[i][:i]) for i in range(s)),
        hh_drift=tuple(_nonzero(A2[i][:i]) for i in range(s)),
        hh_noise=tuple(_nonzero(B2[i][:i]) for i in range(s)),
        alpha=_nonzero(alpha), beta1=_nonzero(beta1),
        beta2=_nonzero(beta2),
        beta34=tuple((i, beta3[i], beta4[i]) for i in range(s)
                     if need_bhat[i]))


class _Identity:
    """Cache key that hashes and compares a tableau by identity.

    Tableaux are immutable, so a plan compiled for one instance stays
    valid while the key holds that instance alive.
    """

    __slots__ = ("tab",)

    def __init__(self, tab):
        self.tab = tab

    def __hash__(self):
        return id(self.tab)

    def __eq__(self, other):
        return self.tab is other.tab


@functools.lru_cache(maxsize=PLAN_CACHE_SIZE)
def _cached_plan(key, m):
    return _compile(key.tab, m)


def usage_plan(tab, m):
    """Return the step plan of a tableau for m Wiener components.

    Plans are compiled once and kept in a bounded, thread-safe cache
    keyed on the identity of the tableau.
    """
    return _cached_plan(_Identity(tab), m)


def evaluation_cost(tab, m):
    """Count the per-step work of a scheme for an m-noise problem.

    diffusion_column_evals counts single-column evaluations of b; the
    mixed stage values contribute m(m-1) per needed stage beyond the
    first, whose values are reused.  random_draws counts the variates
    consumed per step, m for the three-point part plus m(m-1)/2 sign
    variates when some beta4 weight is nonzero.

    Args:
      tab: CoefficientTableau
      m: number of driving Wiener components, >= 1

    Returns:
      EvaluationCost
    """
    _check_count("m", m)
    plan = usage_plan(tab, int(m))
    drift = sum(plan.need_a)
    diff = m * sum(plan.need_b)
    diff += m * (m - 1) * sum(plan.need_bhat[1:])
    draws = m * plan.needs_ihat
    if plan.needs_offdiag:
        draws += m * (m - 1) // 2
    return EvaluationCost(drift_evals=int(drift),
                          diffusion_column_evals=int(diff),
                          random_draws=int(draws))


def _stage_points(y, h, sqrth, drift_terms, noise_terms, a_val, b_val, m):
    """Return the m points y + sum_j A_j a_j h + sum_j B_j b_j^k sqrt(h)."""
    base = y
    for j, a in drift_terms:
        base = base + (a * h) * a_val[j]
    if not noise_terms:
        return [base] * m
    points = []
    for k in range(m):
        point = base
        for j, b in noise_terms:
            point = point + (b * sqrth) * b_val[j][k]
        points.append(point)
    return points


def _weighted_sum(terms):
    """Return sum of value * weight over (value, weight) pairs, in order."""
    total = None
    for value, weight in terms:
        total = value * weight if total is None else total + value * weight
    return total


def srk_step(tab, prob, ctx):
    """Advance the state by one step of the scheme.

    Args:
      tab: CoefficientTableau
      prob: SdeProblem (or anything with d, m, drift, diffusion_column)
      ctx: StepContext; ctx.y may carry leading batch axes, and the
        increment arrays must broadcast against them

    Returns:
      the state after the step, same shape as ctx.y

    Raises:
      ValueError: if the increments do not match the problem or step
    """
    inc = ctx.increments
    m = prob.m
    if inc.m != m:
        raise ValueError("increments carry m = %d but the problem has m = %d"
                         % (inc.m, m))
    if inc.h != ctx.h:
        raise ValueError("increments were drawn for h = %r, step has h = %r"
                         % (inc.h, ctx.h))
    plan = usage_plan(tab, m)
    t, h = ctx.t, ctx.h
    y = np.asarray(ctx.y, dtype=float)
    sqrth = math.sqrt(h)
    ihat = [inc.Ihat[..., k, None] for k in range(m)]  # Ihat_k, (..., 1)
    s = len(plan.need_a)

    a_val = [None] * s  # a(H0_i), shape (..., d)
    b_val = [None] * s  # b_val[i][k] = b^k(H_i^k), shape (..., d)
    b_dot = [None] * s  # sum_r b^r(H_i^r) Ihat_r, shape (..., d)
    bhat = [None] * s   # bhat[i][k][l] = b^k(Hh_i^l) for k != l

    for i in range(s):
        if plan.need_a[i]:
            h0 = y
            for j, a, b in plan.h0_terms[i]:
                if a:
                    h0 = h0 + (a * h) * a_val[j]
                if b:
                    h0 = h0 + b * b_dot[j]
            a_val[i] = np.asarray(prob.drift(t + plan.c0[i] * h, h0),
                                  dtype=float)
        if plan.need_b[i]:
            points = _stage_points(y, h, sqrth, plan.hk_drift[i],
                                   plan.hk_noise[i], a_val, b_val, m)
            tnode = t + plan.c1[i] * h
            b_val[i] = [np.asarray(prob.diffusion_column(tnode, points[k], k),
                                   dtype=float) for k in range(m)]
            if plan.need_bdot[i]:
                b_dot[i] = _weighted_sum(zip(b_val[i], ihat))
        if plan.need_bhat[i]:
            if i == 0:
                # Hh_1^l = H_1^k = y and both node offsets vanish, so
                # b^k(Hh_1^l) = b^k(t, y) for every l; reuse the columns
                bhat[0] = [[col] * m for col in b_val[0]]
                continue
            points = _stage_points(y, h, sqrth, plan.hh_drift[i],
                                   plan.hh_noise[i], a_val, b_val, m)
            tnode = t + plan.c2[i] * h
            vals = [[None] * m for _ in range(m)]
            for l in range(m):
                for k in range(m):
                    if k != l:
                        vals[k][l] = np.asarray(
                            prob.diffusion_column(tnode, points[l], k),
                            dtype=float)
            bhat[i] = vals

    out = y
    for i, w in plan.alpha:
        out = out + (w * h) * a_val[i]
    for i, w in plan.beta1:
        out = out + w * b_dot[i]
    if plan.beta2:
        # Ihat_(k,k)/sqrt(h)
        ikk = [0.5 * (ih ** 2 - h) / sqrth for ih in ihat]
        for i, w in plan.beta2:
            out = out + w * _weighted_sum(zip(b_val[i], ikk))
    if plan.beta34:
        pairs = [(k, l) for k in range(m) for l in range(m) if k != l]
        if plan.needs_offdiag:
            # Ihat_(k,l)/sqrt(h) = (Ihat_k Ihat_l + V_kl) / (2 sqrt(h))
            ikl = {(k, l): 0.5 * (ihat[k] * ihat[l] + inc.V[..., k, l, None])
                   / sqrth for k, l in pairs}
        for i, w3, w4 in plan.beta34:
            terms = []
            for k, l in pairs:
                weight = w3 * ihat[k]
                if w4:
                    weight = weight + w4 * ikl[k, l]
                terms.append((bhat[i][k][l], weight))
            out = out + _weighted_sum(terms)
    return out


def terminal_values(tab, prob, n_steps, n_paths, stream, t_end=None):
    """Simulate a batch of independent trajectories to the interval end.

    Diverged trajectories are flagged and frozen at the initial state
    so the rest of the batch continues unaffected; callers decide how
    to treat them.  The increment draws do not depend on which
    trajectories diverge.

    Args:
      tab: CoefficientTableau
      prob: SdeProblem
      n_steps: number of uniform steps over [t0, t_end], >= 1
      n_paths: batch size, >= 1
      stream: generator for the increment draws
      t_end: end of the simulated interval, defaults to prob.t_end

    Returns:
      (values, diverged): Fortran-ordered states of shape (n_paths, d)
      and a boolean mask of shape (n_paths,) marking trajectories that
      left the finite range
    """
    _check_count("n_steps", n_steps)
    _check_count("n_paths", n_paths)
    end = prob.t_end if t_end is None else float(t_end)
    if not math.isfinite(end):
        raise ValueError("t_end must be finite, got %r" % (end,))
    if not end > prob.t0:
        raise ValueError("t_end must exceed t0")
    h = (end - prob.t0) / n_steps
    plan = usage_plan(tab, prob.m)
    # path-contiguous: each component y[:, k] is one contiguous run
    y = np.array(np.broadcast_to(prob.x0, (n_paths, prob.d)), order="F")
    diverged = np.zeros(n_paths, dtype=bool)
    t = prob.t0
    if not plan.needs_ihat:
        # a scheme that reads no increment gets the same zeros each step
        v = np.zeros((n_paths, prob.m, prob.m), order="F")
        v[:, np.arange(prob.m), np.arange(prob.m)] = -h
        inc = WeakIncrementBatch(
            h=h, Ihat=np.zeros((n_paths, prob.m), order="F"), V=v)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for n in range(n_steps):
            if plan.needs_ihat:
                inc = draw(prob.m, h, stream, size=(n_paths,),
                           with_offdiag=plan.needs_offdiag)
            y = srk_step(tab, prob, StepContext(t=t, h=h, y=y,
                                                increments=inc))
            t = prob.t0 + (n + 1) * h
            diverged |= ~np.all(np.isfinite(y), axis=-1)
            if diverged.any():
                y[diverged] = prob.x0  # freeze, the mask keeps the record
    return y, diverged


def exact_one_step_expectation(tab, prob, f, h, t=None, y=None):
    """Compute E f(Y) after one step exactly by support enumeration.

    The joint increment law has finite support, so the expectation is
    a finite probability-weighted sum; all support points are advanced
    in one vectorised step.

    Args:
      tab: CoefficientTableau
      prob: SdeProblem with m <= 4
      f: functional mapping states (..., d) to values (...)
      h: step size, > 0
      t: step start time, defaults to prob.t0
      y: step start state of shape (d,), defaults to prob.x0

    Returns:
      float, the exact expectation over the increment law
    """
    t = prob.t0 if t is None else float(t)
    y = prob.x0 if y is None else np.asarray(y, dtype=float)
    batch, probs = support_batch(prob.m, h)
    states = np.broadcast_to(y, (len(probs), prob.d))
    out = srk_step(tab, prob, StepContext(t=t, h=float(h), y=states,
                                          increments=batch))
    vals = np.asarray(f(out), dtype=float)
    return float(probs @ vals)
