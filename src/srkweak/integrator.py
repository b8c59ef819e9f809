"""Stepping engine for explicit stochastic Runge-Kutta schemes.

One step from (t, y) for the Ito SDE

    dX = a(t, X) dt + sum_k b^k(t, X) dW^k,   X in R^d,  W in R^m,

reads, with the weights and stage matrices of a CoefficientTableau and
the increments Ihat_k, Ihat_(k,l) and step h of a WeakIncrementBatch,

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
nonzero coefficient actually references it.  The mixed values of
stage one, where H_1^k = Hh_1^l = y at zero nodes, are the plain
columns b^k(t, y), reused rather than re-evaluated.

usage_plan() derives the need flags of a StepPlan once per nonzero
pattern, which a tableau records when it is built, for m = 1 and once
for every m >= 2 (they depend on m only through whether the mixed
values exist); a tableau that recorded a structural violation is
refused with TableauValueError on every call, before any cache lookup.
evaluation_cost() reads the same plan for the per-step evaluation and
random-variable counts, which an instrumented step matches exactly.

The step keeps every diffusion column b^k(H_i^k) and every mixed
value b^k(Hh_i^l) as an array of its own with the shape of the state.
Each stage value, each sum_r b^r(H_i^r) Ihat_r and the update y' is
one linear combination, start + sum of c * v over its nonzero terms,
added left to right in a fixed order:

  - H0_i adds, for each j in turn, its drift term and then its noise
    term;
  - H_i^k and Hh_i^l add all their drift terms, then all their noise
    terms;
  - y' adds the alpha terms, then the beta1, beta2 and beta3/beta4
    terms, each beta2 and beta3/beta4 term being a sum over k, or
    over k != l, of its own, and a beta3/beta4 sum enters with the
    weight 1.0;
  - a term is left out when its tableau entry is zero (not when the
    entry times h is), and a sum with no start begins at its first
    product, since starting at 0.0 would turn a -0.0 into +0.0.

Floating-point addition is not associative, so this order is part
of the output, and a frozen copy of the first stepper in the tests
checks it bit for bit.  Once a sum is an array the step made, each
later term of the same shape is added into it in place: the same
additions, one allocation fewer.  A weight of exactly 1.0 (EM's
beta1, every beta3/beta4 sum) adds v itself, as 1.0 * v == v bit for
bit.  The weights Ihat_(k,k)/sqrt(h) and Ihat_(k,l)/sqrt(h) are
slices of the new array WeakIncrementBatch.ihat_pair(), divided in
place by sqrt(h): the one formula for the mixed integrals.

The step is not interpreted: _generate() writes this order out as
straight-line Python, compiled by a first srk_step once per (pattern,
m) and shared by every tableau of that pattern (the 14 families and 6
named schemes have 11).  Plans and steps sit in two caches of at most
_CACHE_SIZE entries, the oldest evicted first; their keys are values,
so neither keeps a tableau alive, and nothing is written to a tableau.
Each call reads the coefficients from the tableau as one list,
tab._flat.tolist(), at positions fixed when the step was generated
(the pattern fixes s), and tests weights for 1.0 and shapes for
equality.
Each value, nested sum, stage point and product is dropped after its
last use: a step holds as few arrays as the order allows, since each
one more raises the peak heap, whose pages fault in afresh (see the
cli docstring on glibc's thresholds).

All stepping code broadcasts over leading axes of the state, so a
whole batch of trajectories advances in one call with identical
results to stepping them one by one.  A drift or diffusion value must
broadcast to the shape of the state it was given: a scalar, or a
constant of shape (d,), is accepted, and any other shape is refused
with ValueError before it could blow up the batch.  A functional f is
held to the same rule, _checked, with the states' shape less its last
axis: f maps (..., d) to (...), or to a scalar.

terminal_values() stores a batch of M states as an (M, d) array in
Fortran order, so each component is contiguous over the paths, as are
the Ihat_k and signs that draw() writes from its words: every value *
weight product runs over contiguous memory, and numpy carries the
layout from stage to stage into the callbacks (see SdeProblem; any
layout gives identical numbers).  Divergence costs one reduction per
step: only a sum of the states that is not finite, or a path frozen
earlier, takes the exact per-path test.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .increments import WeakIncrementBatch, draw
from .tableau import (_MATRIX_KEYS, _VECTOR_KEYS, _check_int, _is_finite,
                      _position, _require_valid)

_CACHE_SIZE = 64  # entries kept in each cache below, the oldest go first
_PLANS = {}  # (tab._pattern, m >= 2) -> StepPlan, oldest first
_STEPS = {}  # (tab._pattern, m) -> generated step, oldest first


@dataclass(frozen=True)
class SdeProblem:
    """An Ito SDE with fixed initial data on a time interval.

    drift(t, y) and diffusion_column(t, y, j) map a state array of
    shape (..., d) to an array of the same shape, or of a shape that
    broadcasts to it (a scalar, or a constant of shape (d,)); j is the
    0-based index of the driving Wiener component.  A step refuses any
    other shape with ValueError.  Both callables must broadcast over
    leading axes of y.  By the same rule a functional f of the states
    (a NamedProblem's) maps (..., d) to (...), or to a scalar.  Batched
    states arrive path-contiguous, as Fortran-ordered (M, d) arrays; a
    callback that writes with out= into np.empty_like(y) keeps the
    stepper on contiguous memory and makes no temporaries.  Any layout
    it returns gives identical numbers.
    """

    d: int
    m: int
    drift: object
    diffusion_column: object
    x0: np.ndarray
    t0: float = 0.0
    t_end: float = 1.0

    def __post_init__(self):
        for key in ("d", "m"):
            val = getattr(self, key)
            _check_int(key, val, 1, ValueError)
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
        if not (_is_finite(self.t0) and _is_finite(self.t_end)):
            raise ValueError("t0 and t_end must be finite, got %r and %r"
                             % (self.t0, self.t_end))
        object.__setattr__(self, "t0", float(self.t0))
        object.__setattr__(self, "t_end", float(self.t_end))
        if not self.t_end > self.t0:
            raise ValueError("t_end must exceed t0")
        if not math.isfinite(self.t_end - self.t0):
            raise ValueError("the interval [%r, %r] is too long: its length "
                             "is not finite" % (self.t0, self.t_end))


@dataclass(frozen=True)
class StepContext:
    """Input of one scheme step: time, state and increments (with h)."""

    t: float
    y: np.ndarray
    increments: WeakIncrementBatch


@dataclass(frozen=True)
class EvaluationCost:
    """Per-step, per-trajectory work of a scheme applied with m noises."""

    drift_evals: int
    diffusion_column_evals: int
    random_draws: int


@dataclass(frozen=True, slots=True)
class StepPlan:
    """What a step of a tableau evaluates for m Wiener components: the
    need flags, derived once per nonzero pattern of the coefficients
    and shared by its tableaux.  One plan serves every m >= 2.

    Flags, one per stage i:
      need_a[i]: the drift value a(H0_i) is used somewhere.
      need_b[i]: the m diffusion columns b^k(H_i^k) are used somewhere.
      need_bhat[i]: the mixed values b^k(Hh_i^l), k != l, are used; for
        i = 0 they coincide with the stage-one plain columns and are
        reused at no extra evaluation cost.
      need_bdot[i]: sum_r b^r(H_i^r) Ihat_r is used, by beta1 or, through
        B0, by a needed drift stage.

    needs_ihat says whether a step reads the increments Ihat_k at all,
    needs_offdiag whether it reads the sign variates V_kl.  The
    coefficients stay on the tableau.
    """

    need_a: tuple
    need_b: tuple
    need_bhat: tuple
    need_bdot: tuple
    needs_ihat: bool
    needs_offdiag: bool


def _compile(tab, m):
    s = tab.s
    alpha, beta1, beta2, beta3, beta4 = [
        getattr(tab, k).tolist() for k in _VECTOR_KEYS]
    A0, A1, A2, B0, B1, B2 = [getattr(tab, k).tolist() for k in _MATRIX_KEYS]
    need_a = [bool(v) for v in alpha]
    need_b = [bool(b1) or bool(b2) for b1, b2 in zip(beta1, beta2)]
    mixed = m >= 2
    need_bhat = [mixed and (bool(b3) or bool(b4))
                 for b3, b4 in zip(beta3, beta4)]
    # a stage is referenced only by later ones, so once every later
    # stage has been visited its flags are final
    for i in reversed(range(s)):
        for wanted, A, B in ((need_a[i], A0, B0), (need_b[i], A1, B1),
                             (need_bhat[i], A2, B2)):
            if wanted:
                for j in range(i):
                    need_a[j] = need_a[j] or bool(A[i][j])
                    need_b[j] = need_b[j] or bool(B[i][j])
    # mixed values of stage one reuse the plain columns
    need_b[0] = need_b[0] or need_bhat[0]
    need_bdot = [bool(beta1[j]) or any(need_a[i] and B0[i][j]
                                       for i in range(j + 1, s))
                 for j in range(s)]
    return StepPlan(
        need_a=tuple(need_a), need_b=tuple(need_b),
        need_bhat=tuple(need_bhat), need_bdot=tuple(need_bdot),
        needs_ihat=any(need_bdot) or any(beta2) or any(need_bhat),
        needs_offdiag=mixed and any(beta4))


def _cached(cache, key, make, tab, m):
    """cache[key], made by make(tab, m) on a miss; racing first calls
    all get the one stored, and past _CACHE_SIZE the oldest go."""
    value = cache.get(key)
    if value is None:
        value = cache.setdefault(key, make(tab, m))
        for old in list(cache)[:-_CACHE_SIZE]:  # one atomic snapshot
            cache.pop(old, None)
    return value


def usage_plan(tab, m):
    """Return the step plan of a tableau for m Wiener components.

    Plans are compiled on first use and shared by every tableau of one
    nonzero pattern: one for m = 1 and one for every m >= 2, since
    _compile reads m only through m >= 2.  A tableau that recorded a
    structural violation when it was built is refused, and none is
    checked again.

    Raises:
      ValueError: if m is not an integer >= 1
      TableauValueError: if the tableau has structural violations
    """
    _check_int("m", m, 1, ValueError)
    _require_valid(tab, "step")
    return _cached(_PLANS, (tab._pattern, m >= 2), _compile, tab, m)


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
    plan = usage_plan(tab, m)
    drift = sum(plan.need_a)
    diff = m * sum(plan.need_b)
    diff += m * (m - 1) * sum(plan.need_bhat[1:])
    draws = m * plan.needs_ihat
    if plan.needs_offdiag:
        draws += m * (m - 1) // 2
    return EvaluationCost(drift_evals=int(drift),
                          diffusion_column_evals=int(diff),
                          random_draws=int(draws))


def _checked(name, value, point, want=None):
    """Return value as a float array if it broadcasts to want (point's)."""
    value, shape = np.asarray(value, dtype=float), point.shape
    want = shape if want is None else want
    if value.shape != want and (value.ndim > len(want) or any(
            n not in (1, w) for n, w in zip(value.shape[::-1], want[::-1]))):
        raise ValueError("%s returned shape %r for a state of shape %r%s" % (
            name, value.shape, shape,
            "" if want == shape else "; it must broadcast to %r" % (want,)))
    return value


def _generate(tab, m):
    """Compile step(tab, prob, t, h, y, inc) for the pattern of a tableau
    and m: the summation order above, term by term."""
    plan = usage_plan(tab, m)
    nz = {k: getattr(tab, k).tolist() for k in _VECTOR_KEYS + _MATRIX_KEYS}
    pairs = [(k, l) for k in range(m) for l in range(m) if k != l]
    lines, head, last = [], {}, {}  # head: what the step binds first
    sources = dict({"i%d" % k: "inc.Ihat[..., %d, None]" % k for k in
                    range(m)}, sqrth="sqrt(h)", drift="prob.drift",
                   column="prob.diffusion_column")

    def use(name, *index):  # name[index], bound at the step's top
        if name not in sources:  # a tableau entry, read from its one list
            head.setdefault("flat", "tab._flat.tolist()")
            return "flat[%d]" % _position(tab.s, name, *index)
        head.setdefault(name, sources[name])
        return name + "".join("[%d]" % i for i in index)

    def lincomb(name, start, terms):
        """Emit name = start + the (c, v, kind) terms, returning what holds
        it; kind: "float" (c may be 1.0), "one" or "array", and a list v
        is a nested sum, formed at its turn."""
        for c, v, kind in terms:
            if type(v) is list:
                v = lincomb("n%d" % len(lines), None, v)
            if kind == "float":
                lines.append("c = " + c)
                c, term = "c", "(%s if c == 1.0 else c * %s)" % (v, v)
            else:
                term = v if kind == "one" else "%s * %s" % (c, v)
            if start is None:  # the first product, never v itself
                new = ["%s = %s * %s" % (name, c, v)]
            elif start != name:  # start is not ours to add into
                new = ["%s = %s + %s" % (name, start, term)]
            else:
                new = ["p = " + term, "if %s.shape == p.shape:" % name,
                       "    %s += p" % name, "else:",
                       "    %s = %s + p" % (name, name), "del p"]
            last[v] = len(lines)  # the latest line to read v, so far
            lines.extend(new)
            start = name
        return start

    def value(i, k, l):  # b^k(H_i^k) if k == l, else b^k(Hh_i^l)
        return "b%d_%d_%d" % (i, k, l if i else k)  # Hh_1^l = H_1^k = y

    def weight(i, k, l):  # beta3_i Ihat_k + beta4_i Ihat_(k,l)/sqrt(h)
        w = "%s * %s" % (use("beta3", i), use("i%d" % k))
        return ("(%s + %s * P[..., %d, %d, None])" % (w, use("beta4", i), k, l)
                if nz["beta4"][i] else w)

    def evaluate(i, A, B, node, keys):  # the diffusion values of stage i
        u = lincomb("u", "y", [(use(A, i, j) + " * h", "a%d" % j, "float")
                               for j in range(i) if nz[A][i][j]])
        points = [lincomb("x%d" % l, u, [
            (use(B, i, j) + " * " + use("sqrth"), value(j, l, l), "float")
            for j in range(i) if nz[B][i][j]]) for l in range(m)]
        lines.append("tn = t + %s * h" % use(node, i))
        for k, l in keys:
            x = points[l]
            lines.append('%s = _checked("diffusion_column", %s(tn, %s, %d),'
                         ' %s)' % (value(i, k, l), use("column"), x, k, x))
        lines.extend("del " + x for x in sorted({u, *points} - {"y"}))

    for i in range(tab.s):
        if plan.need_a[i]:
            x = lincomb("x", "y", [
                (use(key, i, j) + times, v + str(j), "float")
                for j in range(i) for key, times, v in (
                    ("A0", " * h", "a"), ("B0", "", "d")) if nz[key][i][j]])
            lines.append('a%d = _checked("drift", %s(t + %s * h, %s), %s)'
                         % (i, use("drift"), use("c0", i), x, x))
            lines.extend(["del x"] * (x != "y"))  # no point outlives its use
        if plan.need_b[i]:
            evaluate(i, "A1", "B1", "c1v", [(k, k) for k in range(m)])
        if i and plan.need_bhat[i]:  # stage one reuses b^k(y)
            evaluate(i, "A2", "B2", "c2v", pairs)
        if plan.need_bdot[i]:
            lincomb("d%d" % i, None, [(use("i%d" % k), value(i, k, k),
                                       "array") for k in range(m)])

    if any(nz["beta2"]) or plan.needs_offdiag:
        lines += ["P = inc.ihat_pair()", "P /= " + use("sqrth")]
    terms = [(use(key, i) + times, v + str(i), "float") for key, times, v
             in (("alpha", " * h", "a"), ("beta1", "", "d"))
             for i in range(tab.s) if nz[key][i]]
    terms += [(use("beta2", i), [("P[..., %d, %d, None]" % (k, k),
                                  value(i, k, k), "array") for k in range(m)],
               "float") for i in range(tab.s) if nz["beta2"][i]]
    terms += [("1.0", [(weight(i, k, l), value(i, k, l), "array")
                       for k, l in pairs], "one")
              for i in range(tab.s) if plan.need_bhat[i]]
    lines.append("return " + lincomb("out", "y", terms))
    for at, v in sorted(((at, v) for v, at in last.items()), reverse=True):
        lines.insert(at + 1, "del " + v)  # each value goes after its last use
    namespace = {"_checked": _checked, "sqrt": math.sqrt, "__builtins__": {}}
    exec("def step(tab, prob, t, h, y, inc):\n    " + "\n    ".join(
        ["%s = %s" % kv for kv in head.items()] + lines), namespace)
    return namespace["step"]


def srk_step(tab, prob, ctx):
    """Advance the state by one step of the scheme.

    Args:
      tab: CoefficientTableau
      prob: SdeProblem (or anything with d, m, drift, diffusion_column)
      ctx: StepContext; ctx.y may carry leading batch axes, and the
        increment arrays, of step size ctx.increments.h, broadcast
        against them

    Returns:
      the state after the step, same shape as ctx.y

    Raises:
      ValueError: if the state's last axis is not d, the increments are
        not for the problem's m, their step size h is not a finite
        number > 0, or a drift or diffusion value does not broadcast to
        its stage point
      TableauValueError: if the tableau has structural violations
    """
    inc, m = ctx.increments, prob.m
    if inc.m != m:
        raise ValueError("increments for m = %d do not fit a problem with "
                         "m = %d" % (inc.m, m))
    h = inc.h
    if not (_is_finite(h) and h > 0.0):
        raise ValueError("the step size h must be a finite number > 0, "
                         "got %r" % (h,))
    y = np.asarray(ctx.y, dtype=float)
    if y.shape[-1:] != (prob.d,):
        raise ValueError("a state of shape %r does not fit a problem with "
                         "d = %d" % (y.shape, prob.d))
    _require_valid(tab, "step")
    step = _cached(_STEPS, (tab._pattern, m), _generate, tab, m)
    return step(tab, prob, ctx.t, h, y, inc)


def terminal_values(tab, prob, n_steps, n_paths, stream):
    """Simulate a batch of independent trajectories over [t0, t_end].

    Diverged trajectories are flagged and frozen at the initial state
    so the rest of the batch continues unaffected; callers decide how
    to treat them.  The increment draws do not depend on which
    trajectories diverge.

    Args:
      tab: CoefficientTableau
      prob: SdeProblem, stepped from x0 over its interval [t0, t_end]
      n_steps: number of uniform steps over [t0, t_end], >= 1
      n_paths: batch size, >= 1
      stream: generator for the increment draws

    Returns:
      (values, diverged): Fortran-ordered states of shape (n_paths, d)
      and a boolean mask of shape (n_paths,) marking trajectories that
      left the finite range
    """
    _check_int("n_steps", n_steps, 1, ValueError)
    _check_int("n_paths", n_paths, 1, ValueError)
    h = (prob.t_end - prob.t0) / n_steps
    plan = usage_plan(tab, prob.m)
    # path-contiguous: each component y[:, k] is one contiguous run
    y = np.array(np.broadcast_to(prob.x0, (n_paths, prob.d)), order="F")
    diverged = np.zeros(n_paths, dtype=bool)
    t, frozen = prob.t0, False
    if not plan.needs_ihat:  # the same zero increments at every step
        inc = WeakIncrementBatch(h, np.zeros(prob.m))
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for n in range(n_steps):
            if plan.needs_ihat:
                inc = draw(prob.m, h, stream, size=(n_paths,),
                           with_offdiag=plan.needs_offdiag)
            y = srk_step(tab, prob, StepContext(t=t, y=y, increments=inc))
            t = prob.t0 + (n + 1) * h
            if frozen or not np.isfinite(y.sum()):
                diverged |= ~np.all(np.isfinite(y), axis=-1)
                frozen = bool(diverged.any())
                if frozen:
                    y[diverged] = prob.x0  # freeze, the mask keeps the record
    return y, diverged


def exact_one_step_expectation(tab, prob, f, h):
    """E f(Y) after one step of size h: exact.exact_expectation's n = 1."""
    from .exact import exact_expectation  # exact imports this module
    return exact_expectation(tab, prob, f, h, 1)
