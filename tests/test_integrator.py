import gc
import math
import pickle
import re
import sys
import threading
import weakref
from types import SimpleNamespace

import numpy as np
import pytest

from family_sampling import draw_member
from srkweak import integrator, tableau
from srkweak.conditions import evaluate_all
from srkweak.families import (FAMILY_IDS, NAMED_SCHEMES, FamilyParams,
                              make_family, named_scheme)
from srkweak.increments import (CountingStream, WeakIncrementBatch, draw,
                                substream, support_batch)
from srkweak.integrator import (EvaluationCost, SdeProblem, StepContext,
                                evaluation_cost, exact_expectation,
                                exact_one_step_expectation, srk_step,
                                terminal_values, usage_plan)
from srkweak.problems import problem_2d, problem_linear, problem_nonlinear
from srkweak.tableau import (MAX_STAGES, CoefficientTableau,
                             TableauValueError, serialize, validate)

KEYS = ("alpha", "beta1", "beta2", "beta3", "beta4",
        "A0", "A1", "A2", "B0", "B1", "B2")


def _ode(rate=1.0):
    return SdeProblem(
        d=1, m=1,
        drift=lambda t, y: rate * y,
        diffusion_column=lambda t, y, j: np.zeros_like(y),
        x0=np.array([1.0]))


def _one_step(tab, prob, t=0.0, h=0.1, y=None):
    inc = draw(prob.m, h, substream(0), size=None)
    y0 = prob.x0 if y is None else np.asarray(y, dtype=float)
    return srk_step(tab, prob, StepContext(t=t, y=y0, increments=inc))


def test_ode_step_closed_forms():
    # on dy = y dt one step reproduces the truncated exponential
    # series of the scheme's deterministic order
    prob = _ode()
    assert _one_step(named_scheme("EM"), prob)[0] == 1.1
    assert abs(_one_step(named_scheme("RDI1WM"), prob)[0] - 1.105) < 1e-15
    got = _one_step(named_scheme("RDI4WM"), prob)[0]
    assert abs(got - 1.1051666666666666) < 1e-15


def test_drift_time_nodes():
    # drift a(t, y) = t makes one step evaluate the alpha-weighted
    # quadrature of t, which is exact for order >= 2 schemes
    prob = SdeProblem(
        d=1, m=1,
        drift=lambda t, y: t * np.ones_like(y),
        diffusion_column=lambda t, y, j: np.zeros_like(y),
        x0=np.array([1.0]), t0=0.3)
    got = _one_step(named_scheme("RDI4WM"), prob, t=0.3, h=0.2)[0]
    assert abs(got - (1.0 + 0.08)) < 1e-15


def test_diffusion_time_nodes():
    # b(t, y) = t with the one-stage scheme gives E x^2 = x0^2 + t^2 h
    prob = SdeProblem(
        d=1, m=1,
        drift=lambda t, y: np.zeros_like(y),
        diffusion_column=lambda t, y, j: t * np.ones_like(y),
        x0=np.array([1.0]), t0=0.4)
    got = exact_one_step_expectation(
        named_scheme("EM"), prob, lambda x: x[..., 0] ** 2, 0.25)
    assert abs(got - 1.04) < 1e-15
    # over n steps the times are t0, t0 + h, ...: E x^2 adds t_j^2 h
    got = exact_expectation(
        named_scheme("EM"), prob, lambda x: x[..., 0] ** 2, 0.25, 3)
    assert abs(got - (1.0 + 0.25 * (0.4 ** 2 + 0.65 ** 2 + 0.9 ** 2))) \
        < 1e-15


def test_em_exact_one_step_moments():
    # dX = X dW: E(1 + Ihat)^p has closed moments, and n independent
    # steps raise them to the n-th power
    prob = SdeProblem(
        d=1, m=1,
        drift=lambda t, y: np.zeros_like(y),
        diffusion_column=lambda t, y, j: y,
        x0=np.array([1.0]))
    em = named_scheme("EM")
    for h in (0.5, 0.02):
        for p, want in ((1, 1.0), (2, 1.0 + h),
                        (4, 1.0 + 6.0 * h + 3.0 * h * h)):
            got = exact_one_step_expectation(
                em, prob, lambda x, p=p: x[..., 0] ** p, h)
            assert abs(got - want) < 1e-14 * max(1.0, want)
            for n in (2, 5):
                got = exact_expectation(
                    em, prob, lambda x, p=p: x[..., 0] ** p, h, n)
                assert abs(got - want ** n) < 1e-14 * want ** n


COSTS = [
    ("EM", 1, (1, 1, 1)),
    ("EM", 3, (1, 3, 3)),
    ("RDI1WM", 1, (2, 1, 1)),
    ("RDI1WM", 2, (2, 2, 2)),
    ("RDI2WM", 1, (2, 3, 1)),
    ("RDI2WM", 2, (2, 10, 3)),
    ("PL1WM", 2, (2, 10, 3)),
    ("RDI4WM", 2, (3, 10, 3)),
    ("RDI3WM", 3, (3, 21, 6)),
]


@pytest.mark.parametrize("name,m,want", COSTS)
def test_evaluation_cost_table(name, m, want):
    cost = evaluation_cost(named_scheme(name), m)
    assert cost == EvaluationCost(*want)


#: evaluation_cost of every named scheme for m = 1..4
ALL_COSTS = {
    "EM": [(1, 1, 1), (1, 2, 2), (1, 3, 3), (1, 4, 4)],
    "RDI1WM": [(2, 1, 1), (2, 2, 2), (2, 3, 3), (2, 4, 4)],
    "PL1WM": [(2, 3, 1), (2, 10, 3), (2, 21, 6), (2, 36, 10)],
    "RDI2WM": [(2, 3, 1), (2, 10, 3), (2, 21, 6), (2, 36, 10)],
    "RDI3WM": [(3, 3, 1), (3, 10, 3), (3, 21, 6), (3, 36, 10)],
    "RDI4WM": [(3, 3, 1), (3, 10, 3), (3, 21, 6), (3, 36, 10)],
}


@pytest.mark.parametrize("name", NAMED_SCHEMES)
def test_one_plan_for_every_m_from_two(name):
    tab = named_scheme(name)
    assert usage_plan(tab, 2) is usage_plan(tab, 3)
    assert usage_plan(tab, 4) is usage_plan(tab, 2)
    assert usage_plan(tab, 1) is not usage_plan(tab, 2)
    got = [evaluation_cost(tab, m) for m in (1, 2, 3, 4)]
    assert got == [EvaluationCost(*want) for want in ALL_COSTS[name]]


def _counting_problem(d, m):
    counts = {"a": 0, "b": 0}

    def drift(t, y):
        counts["a"] += 1
        return 0.1 * y

    def diffusion_column(t, y, j):
        counts["b"] += 1
        return 0.05 * (j + 1) * y

    prob = SdeProblem(d=d, m=m, drift=drift,
                      diffusion_column=diffusion_column, x0=np.ones(d))
    return prob, counts


@pytest.mark.parametrize("name", ["EM", "RDI1WM", "PL1WM", "RDI2WM",
                                  "RDI3WM", "RDI4WM"])
@pytest.mark.parametrize("m", [1, 2, 3])
def test_cost_matches_instrumented_run(name, m):
    tab = named_scheme(name)
    cost = evaluation_cost(tab, m)
    prob, counts = _counting_problem(2, m)
    n_steps, n_paths = 3, 4
    cs = CountingStream(substream(11))
    terminal_values(tab, prob, n_steps, n_paths, cs)
    assert counts["a"] == n_steps * cost.drift_evals
    assert counts["b"] == n_steps * cost.diffusion_column_evals
    assert cs.count == n_steps * n_paths * cost.random_draws


def test_usage_plan_flags():
    em = usage_plan(named_scheme("EM"), 1)
    assert em.need_a == (True,) and em.need_b == (True,)
    assert em.need_bhat == (False,) and em.needs_ihat
    assert not em.needs_offdiag

    p1 = usage_plan(named_scheme("RDI2WM"), 1)
    assert p1.need_bhat == (False, False, False)
    assert not p1.needs_offdiag
    p2 = usage_plan(named_scheme("RDI2WM"), 2)
    assert p2.need_bhat == (True, True, True)
    assert p2.need_b[0]  # stage one feeds the mixed stages for free
    assert p2.needs_offdiag


def _drift_only_tableau(B0_21):
    fields = dict(s=2, alpha=[0.5, 0.5],
                  beta1=[0.0, 0.0], beta2=[0.0, 0.0],
                  beta3=[0.0, 0.0], beta4=[0.0, 0.0])
    for key in ("A1", "A2", "B1", "B2"):
        fields[key] = np.zeros((2, 2))
    fields["A0"] = [[0.0, 0.0], [1.0, 0.0]]
    fields["B0"] = [[0.0, 0.0], [B0_21, 0.0]]
    return CoefficientTableau(**fields)


def test_usage_plan_b0_coupling():
    # no beta touches the diffusion, but a nonzero B0 entry pulls the
    # stage-one diffusion values (and their increments) back in
    coupled = usage_plan(_drift_only_tableau(0.5), 2)
    assert coupled.need_b == (True, False)
    assert coupled.needs_ihat
    assert evaluation_cost(_drift_only_tableau(0.5), 2).random_draws == 2

    pure = usage_plan(_drift_only_tableau(0.0), 2)
    assert pure.need_b == (False, False)
    assert not pure.needs_ihat
    assert evaluation_cost(_drift_only_tableau(0.0), 2) \
        == EvaluationCost(2, 0, 0)


@pytest.mark.parametrize("prob", [problem_nonlinear(), problem_2d()],
                         ids=["m1", "m2"])
def test_drift_only_scheme_draws_nothing(prob):
    # with B0 = 0 the scheme is Heun's method on the drift alone
    n_steps, n_paths = 3, 4
    cs = CountingStream(substream(2))
    got, diverged = terminal_values(_drift_only_tableau(0.0), prob,
                                    n_steps, n_paths, cs)
    assert cs.count == 0 and not diverged.any()
    h = (prob.t_end - prob.t0) / n_steps
    y = np.array(np.broadcast_to(prob.x0, (n_paths, prob.d)), order="F")
    t = prob.t0
    for n in range(n_steps):
        k1 = prob.drift(t, y)
        k2 = prob.drift(t + h, y + (1.0 * h) * k1)
        y = y + (0.5 * h) * k1 + (0.5 * h) * k2
        t = prob.t0 + (n + 1) * h
    assert got.tobytes() == y.tobytes()


def _fixpoint_flags(tab, m):
    """need_a and need_b by propagating until nothing changes."""
    need_a = [bool(v) for v in tab.alpha]
    need_b = [bool(b1) or bool(b2) for b1, b2 in zip(tab.beta1, tab.beta2)]
    need_bhat = [m >= 2 and (bool(b3) or bool(b4))
                 for b3, b4 in zip(tab.beta3, tab.beta4)]
    changed = True
    while changed:
        changed = False
        for i in range(tab.s):
            for wanted, A, B in ((need_a[i], tab.A0, tab.B0),
                                 (need_b[i], tab.A1, tab.B1),
                                 (need_bhat[i] and i > 0, tab.A2, tab.B2)):
                if not wanted:
                    continue
                for j in range(i):
                    if A[i, j] and not need_a[j]:
                        need_a[j] = changed = True
                    if B[i, j] and not need_b[j]:
                        need_b[j] = changed = True
        if need_bhat[0] and not need_b[0]:
            need_b[0] = changed = True
    return tuple(need_a), tuple(need_b)


def _sparse_tableau(rng, s):
    arrays = {}
    for key in KEYS:
        if key.startswith(("A", "B")):
            vals = np.tril(rng.normal(size=(s, s)), -1)
        else:
            vals = rng.normal(size=s)
        arrays[key] = np.where(rng.random(vals.shape) < 0.3, vals, 0.0)
    return CoefficientTableau(s=s, **arrays)


def test_need_flags_match_fixpoint():
    rng = np.random.default_rng(11)
    tabs = [named_scheme(name) for name in NAMED_SCHEMES]
    tabs += [draw_member(fid, rng) for fid in FAMILY_IDS]
    tabs += [_sparse_tableau(rng, s) for s in range(1, 6) for _ in range(400)]
    for tab in tabs:
        for m in (1, 2, 3):
            plan = integrator._compile(tab, m)
            assert (plan.need_a, plan.need_b) == _fixpoint_flags(tab, m)


def test_unused_stage_row_never_evaluated():
    # RDI2WM gives its third stage zero drift weight; altering that
    # stage's drift coupling cannot change anything
    base = named_scheme("RDI2WM")
    arrays = {k: np.array(getattr(base, k)) for k in KEYS}
    arrays["A0"][2, 0] = 0.123
    mod = CoefficientTableau(s=3, **arrays)
    prob = problem_linear(a=1.0, b=1.0, power=2)
    got_base = terminal_values(base, prob, 4, 16, substream(5))[0]
    got_mod = terminal_values(mod, prob, 4, 16, substream(5))[0]
    assert np.array_equal(got_base, got_mod)


def test_step_batches_like_loops():
    tab = named_scheme("RDI3WM")
    prob, _ = _counting_problem(2, 3)
    inc = draw(3, 0.25, substream(21), size=(6,))
    ys = substream(22).random((6, 2)) + 1.0
    batched = srk_step(tab, prob, StepContext(t=0.0, y=ys, increments=inc))
    for i in range(6):
        one = srk_step(tab, prob, StepContext(
            t=0.0, y=ys[i],
            increments=type(inc)(h=0.25, Ihat=inc.Ihat[i],
                                 signs=inc.signs[i])))
        assert np.array_equal(batched[i], one)


def test_terminal_values_reproducible():
    prob = problem_linear(a=1.0, b=1.0)
    tab = named_scheme("RDI2WM")
    v1, d1 = terminal_values(tab, prob, 8, 32, substream(77))
    v2, d2 = terminal_values(tab, prob, 8, 32, substream(77))
    assert np.array_equal(v1, v2) and np.array_equal(d1, d2)
    assert v1.shape == (32, 1) and d1.dtype == bool
    assert not d1.any()


def _relaid_system(layout):
    # system18 with callbacks whose output is copied into another layout
    base = problem_2d()
    return SdeProblem(
        d=2, m=2, drift=lambda t, y: layout(base.drift(t, y)),
        diffusion_column=lambda t, y, j: layout(
            base.diffusion_column(t, y, j)),
        x0=base.x0, t0=base.t0, t_end=base.t_end)


@pytest.mark.parametrize("layout", [np.ascontiguousarray, np.asfortranarray])
@pytest.mark.parametrize("name", NAMED_SCHEMES)
def test_terminal_values_independent_of_callback_layout(name, layout):
    tab = named_scheme(name)
    native = terminal_values(tab, problem_2d(), 8, 500, substream(4, 1))
    relaid = terminal_values(tab, _relaid_system(layout), 8, 500,
                             substream(4, 1))
    assert np.ascontiguousarray(native[0]).tobytes() \
        == np.ascontiguousarray(relaid[0]).tobytes()
    assert np.array_equal(native[1], relaid[1])


@pytest.mark.parametrize("name", NAMED_SCHEMES)
def test_terminal_values_are_path_contiguous(name):
    vals, _ = terminal_values(named_scheme(name), problem_2d(), 3, 50,
                              substream(6))
    assert vals.flags.f_contiguous and not vals.flags.c_contiguous


def test_terminal_values_freeze_diverged_paths():
    prob = SdeProblem(
        d=1, m=1,
        drift=lambda t, y: np.zeros_like(y),
        diffusion_column=lambda t, y, j: y ** 5,
        x0=np.array([1.0]), t_end=8.0)
    vals, mask = terminal_values(named_scheme("EM"), prob, 8, 64,
                                 substream(123))
    assert mask.any() and not mask.all()
    assert (vals[mask] == 1.0).all()
    assert np.isfinite(vals[~mask]).all()


def test_divergence_does_not_disturb_draws():
    # increments are drawn for the whole batch every step, so early
    # divergence of some paths consumes exactly as much randomness as
    # none at all, and a pure-noise run can be reconstructed from the
    # raw uniforms
    explosive = SdeProblem(
        d=1, m=1,
        drift=lambda t, y: np.where(np.abs(y) > 1.5, 1e300 * y,
                                    np.zeros_like(y)),
        diffusion_column=lambda t, y, j: np.ones_like(y),
        x0=np.array([1.0]), t_end=6.0)
    tame = SdeProblem(
        d=1, m=1,
        drift=lambda t, y: np.zeros_like(y),
        diffusion_column=lambda t, y, j: np.ones_like(y),
        x0=np.array([1.0]), t_end=6.0)
    n_steps, n_paths = 6, 128
    ce = CountingStream(substream(9))
    _, me = terminal_values(named_scheme("EM"), explosive, n_steps, n_paths,
                            ce)
    ct = CountingStream(substream(9))
    vt, mt = terminal_values(named_scheme("EM"), tame, n_steps, n_paths,
                             ct)
    assert me.any() and not mt.any()
    assert ce.count == ct.count == n_steps * n_paths
    root3 = math.sqrt(3.0)
    u = substream(9).random((n_steps, n_paths, 1))
    ihat = np.where(u < 1 / 6, -root3, np.where(u >= 5 / 6, root3, 0.0))
    assert np.array_equal(vt, 1.0 + ihat.sum(axis=0))


def test_increment_mismatch_rejected():
    prob, _ = _counting_problem(1, 1)
    # the step size is the increments' own h, so only m can mismatch
    inc = draw(2, 0.1, substream(0))
    with pytest.raises(ValueError, match=r"^increments for m = 2 do not fit "
                       r"a problem with m = 1$"):
        srk_step(named_scheme("EM"), prob, StepContext(0.0, prob.x0, inc))


@pytest.mark.parametrize("kwargs,match", [
    (dict(d=0), "d must be"),
    (dict(m=0), "m must be"),
    (dict(m=True), "m must be"),
    (dict(x0=np.ones(3)), "x0 must have shape"),
    (dict(x0=np.array([np.nan])), "x0 must be finite"),
    (dict(t_end=0.0), "t_end must exceed"),
    (dict(drift=None), "must be callable"),
    (dict(t_end=math.inf), "t0 and t_end must be finite"),
    (dict(t0=-math.inf), "t0 and t_end must be finite"),
    (dict(t0=False, t_end="2"), "t0 and t_end must be finite"),
    (dict(t_end=True), "t0 and t_end must be finite"),
    (dict(t0="0"), "t0 and t_end must be finite"),
    (dict(t_end=None), "t0 and t_end must be finite"),
    (dict(t0=-1e308, t_end=1e308), r"^the interval \[-1e\+308, 1e\+308\] "
     r"is too long: its length is not finite$"),
])
def test_problem_validation(kwargs, match):
    fields = dict(d=1, m=1,
                  drift=lambda t, y: y,
                  diffusion_column=lambda t, y, j: y,
                  x0=np.array([1.0]), t0=0.0, t_end=1.0)
    fields.update(kwargs)
    with pytest.raises(ValueError, match=match):
        SdeProblem(**fields)


def test_invalid_step_counts():
    prob = _ode()
    for bad in (0, -1, 2.0):
        with pytest.raises(ValueError, match="n_steps must be an integer >= 1"):
            terminal_values(named_scheme("EM"), prob, bad, 4, substream(0))
    # so is the number of Wiener components a plan is asked for
    for bad in (0, -3, True, 2.5):
        for func in (usage_plan, evaluation_cost):
            with pytest.raises(ValueError, match="m must be an integer >= 1"):
                func(named_scheme("EM"), bad)


@pytest.mark.parametrize("n_steps,n_paths,name", [
    (True, 4, "n_steps"),
    (2, 0, "n_paths"),
    (2, -3, "n_paths"),
    (2, 2.5, "n_paths"),
    (2, True, "n_paths"),
])
def test_terminal_values_rejects_bad_counts(n_steps, n_paths, name):
    with pytest.raises(ValueError, match="%s must be an integer >= 1" % name):
        terminal_values(named_scheme("EM"), _ode(), n_steps, n_paths,
                        substream(0))


def _defective_rdi2wm(key, index, value):
    base = named_scheme("RDI2WM")
    arrays = {k: np.array(getattr(base, k)) for k in KEYS}
    arrays[key][index] = value
    return CoefficientTableau(s=3, **arrays)


@pytest.mark.parametrize("key,index,value,first", [
    ("A0", (0, 2), 5.0, "A0[1][3] = 5.0 must be 0 in an explicit scheme"),
    ("alpha", 0, math.nan, "alpha[1] = nan"),
], ids=["above-diagonal", "nan-weight"])
def test_invalid_tableau_is_refused(key, index, value, first):
    # an above-diagonal entry is never read and a NaN weight would only
    # show up as diverged paths, so both are refused before stepping
    tab = _defective_rdi2wm(key, index, value)
    assert validate(tab)[0].detail == first
    evaluate_all(tab)  # a defective tableau can still be inspected
    prob = problem_linear(a=1.0, b=1.0, power=2)
    message = re.escape("refusing to step a tableau with 1 structural "
                        "violation(s); first: " + first)
    for call in (lambda: terminal_values(tab, prob, 4, 16, substream(5)),
                 lambda: exact_one_step_expectation(tab, prob, prob.f, 0.25),
                 lambda: evaluation_cost(tab, 1),
                 lambda: evaluation_cost(tab, 3),
                 lambda: usage_plan(tab, 2)):
        with pytest.raises(TableauValueError, match=message):
            call()


def test_tableau_is_validated_once(monkeypatch):
    # the structural pass runs once per built tableau, in its
    # construction; costs, runs, plans and serialize read its record
    checked = []
    structure = tableau._structure
    monkeypatch.setattr(tableau, "_structure",
                        lambda tab: checked.append(tab) or structure(tab))
    tab = make_family(FamilyParams("ORD32_212", c2=0.5, c5=0.25, c6=4.0))
    assert len(checked) == 1 and checked[0] is tab
    for m in (1, 2, 3, 1):
        evaluation_cost(tab, m)
        terminal_values(tab, _mixing_problem(m), 2, 3, substream(m))
        usage_plan(tab, m)
        serialize(tab)
    assert len(checked) == 1
    copy = tab.with_name("copy")
    assert len(checked) == 2 and checked[1] is copy


def _one_step_weak_error(tab, prob, h):
    want = prob.exact_functional(prob.t0 + h)
    got = exact_one_step_expectation(
        tab, prob, lambda x: x[..., 0] ** 2, h)
    return abs(got - want)


def test_one_step_order_gap():
    # the order-(2,2) scheme beats the order-(1,1) scheme by roughly
    # one order in the one-step weak error of E x^2
    prob = problem_linear(a=1.0, b=1.0, power=2)
    hs = (2.0 ** -4, 2.0 ** -6)
    em = [_one_step_weak_error(named_scheme("EM"), prob, h) for h in hs]
    r2 = [_one_step_weak_error(named_scheme("RDI2WM"), prob, h) for h in hs]
    slope_em = math.log2(em[0] / em[1]) / 2.0
    slope_r2 = math.log2(r2[0] / r2[1]) / 2.0
    assert 1.7 < slope_em < 2.3
    assert 2.7 < slope_r2 < 3.3


EXACT_WEAK_ERRORS = [
    # scheme, problem, h, atoms, error
    ("EM", problem_nonlinear, 0.5, 81, -0.8798797305892897),
    ("RDI4WM", problem_nonlinear, 0.5, 81, -0.37607125986237366),
    ("EM", problem_nonlinear, 0.25, 6561, -0.7708964764578139),
    ("RDI4WM", problem_nonlinear, 0.25, 6561, -0.095059663864980645),
    ("EM", problem_2d, 1.0, 104976, -0.011782205185790939),
    ("RDI2WM", problem_2d, 1.0, 104976, 0.0042299715912057362),
]


def test_exact_weak_errors_regression():
    # the engine's discrete-law bias, free of Monte Carlo noise
    for name, make, h, atoms, want in EXACT_WEAK_ERRORS:
        prob = make()
        steps = int(round((prob.t_end - prob.t0) / h))
        assert len(support_batch(prob.m, h)[1]) ** steps == atoms
        got = exact_expectation(named_scheme(name), prob, prob.f, h, steps) \
            - prob.exact_functional(prob.t_end)
        assert abs(got - want) <= 1e-12 * abs(want), (name, h, got)


def test_exact_expectation_refuses_a_tree_past_the_cap(monkeypatch):
    # nonlinear16 at h = 1/8 has 3^16 atoms on its last level, 344 MB of
    # states; it is refused before the first step
    steps = []
    monkeypatch.setattr(integrator, "srk_step",
                        lambda *args: steps.append(args))
    prob = problem_nonlinear()
    with pytest.raises(ValueError, match=re.escape(
            "16 steps have 3^16 support atoms, which times d = 1 exceeds "
            "the cap of 2^20 state elements")):
        exact_expectation(named_scheme("EM"), prob, prob.f, 0.125, 16)
    with pytest.raises(ValueError, match=r"^400 steps have 3\^400"):
        exact_expectation(named_scheme("EM"), prob, prob.f, 0.005, 400)
    assert steps == []


def test_exact_expectation_caps_a_numpy_step_count(monkeypatch):
    # 18 ** np.int64(15) * 2 wraps to a negative np.int64; the count is
    # taken as an int first, and the tree of 18^15 atoms is refused
    steps = []
    monkeypatch.setattr(integrator, "srk_step",
                        lambda *args: steps.append(args))
    prob = problem_2d()
    with pytest.raises(ValueError, match=r"^15 steps have 18\^15 support "
                       r"atoms, which times d = 2 exceeds the cap"):
        exact_expectation(named_scheme("EM"), prob, prob.f, 0.25,
                          np.int64(15))
    assert steps == []


@pytest.mark.parametrize("n_steps", [0, -1, 1.5, True, None])
def test_exact_expectation_refuses_a_bad_step_count(n_steps):
    prob = problem_linear()
    with pytest.raises(ValueError, match="n_steps"):
        exact_expectation(named_scheme("EM"), prob, prob.f, 0.25, n_steps)


def _mixing_problem(m):
    # no symmetry between components or noises, so any mix-up of the
    # indices k, l of a column or mixed value changes the step
    mix = np.arange(1.0, 10.0).reshape(3, 3) / 7.0
    return SdeProblem(
        d=3, m=m,
        drift=lambda t, y: np.sin(y @ mix) + t,
        diffusion_column=lambda t, y, j: np.cos((j + 1) * y + t)
        * np.roll(y, j, axis=-1),
        x0=np.array([0.3, -0.7, 1.1]))


@pytest.mark.parametrize("name,m,want", [
    ("RDI2WM", 2, -0.3650991495477409),
    ("RDI3WM", 3, -0.42523707138869216),
    ("PL1WM", 3, -0.377705328750223),
])
def test_step_on_every_support_atom_regression(name, m, want):
    # one step from a fixed state on every atom of the increment
    # support, checksummed with atom- and component-dependent weights
    prob = _mixing_problem(m)
    batch, _ = support_batch(m, 0.25)
    out = srk_step(named_scheme(name), prob, StepContext(
        t=0.5, y=prob.x0, increments=batch))
    weights = np.cos(np.arange(out.size)).reshape(out.shape)
    got = float(np.sum(weights * out))
    assert abs(got - want) <= 1e-12 * abs(want)


def _nonzero(values):
    return tuple((i, v) for i, v in enumerate(values) if v)


def _reference_plan(tab, m):
    """The tuple step plan of the first plan-based engine, frozen here:
    the need flags plus every nonzero coefficient as a Python float."""
    s = tab.s
    alpha, beta1, beta2, beta3, beta4 = (getattr(tab, k).tolist()
                                         for k in KEYS[:5])
    A0, A1, A2, B0, B1, B2 = (getattr(tab, k).tolist() for k in KEYS[5:])
    need_a = [bool(v) for v in alpha]
    need_b = [bool(b1) or bool(b2) for b1, b2 in zip(beta1, beta2)]
    mixed = m >= 2
    need_bhat = [mixed and (bool(b3) or bool(b4))
                 for b3, b4 in zip(beta3, beta4)]
    for i in reversed(range(s)):
        for wanted, A, B in ((need_a[i], A0, B0), (need_b[i], A1, B1),
                             (need_bhat[i], A2, B2)):
            if wanted:
                for j in range(i):
                    need_a[j] = need_a[j] or bool(A[i][j])
                    need_b[j] = need_b[j] or bool(B[i][j])
    need_b[0] = need_b[0] or need_bhat[0]
    need_bdot = [bool(beta1[j]) or any(need_a[i] and B0[i][j]
                                       for i in range(j + 1, s))
                 for j in range(s)]
    return SimpleNamespace(
        need_a=need_a, need_b=need_b, need_bhat=need_bhat,
        need_bdot=need_bdot, needs_offdiag=mixed and any(beta4),
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


def _reference_points(y, h, sqrth, drift_terms, noise_terms, a_val, b_val,
                      m):
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


def _reference_sum(terms):
    total = None
    for value, weight in terms:
        total = value * weight if total is None else total + value * weight
    return total


def _v(inc, k, l):
    """V_kl, k != l, by the paper's rule, from the drawn signs: V_kl
    for l < k is sign k(k-1)/2 + l in row-major order, V_lk = -V_kl."""
    sign = inc.signs[..., max(k, l) * (max(k, l) - 1) // 2 + min(k, l), None]
    return sign if k > l else -sign


def _reference_step(tab, prob, ctx):
    """srk_step as it stepped through a _reference_plan, term by term."""
    inc, m = ctx.increments, prob.m
    plan = _reference_plan(tab, m)
    t, h = ctx.t, inc.h
    y = np.asarray(ctx.y, dtype=float)
    sqrth = math.sqrt(h)
    ihat = [inc.Ihat[..., k, None] for k in range(m)]
    s = len(plan.need_a)
    a_val, b_val, b_dot, bhat = [None] * s, [None] * s, [None] * s, [None] * s
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
            points = _reference_points(y, h, sqrth, plan.hk_drift[i],
                                       plan.hk_noise[i], a_val, b_val, m)
            tnode = t + plan.c1[i] * h
            b_val[i] = [np.asarray(prob.diffusion_column(tnode, points[k], k),
                                   dtype=float) for k in range(m)]
            if plan.need_bdot[i]:
                b_dot[i] = _reference_sum(zip(b_val[i], ihat))
        if plan.need_bhat[i]:
            if i == 0:
                bhat[0] = [[col] * m for col in b_val[0]]
                continue
            points = _reference_points(y, h, sqrth, plan.hh_drift[i],
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
        ikk = [0.5 * (ih ** 2 - h) / sqrth for ih in ihat]
        for i, w in plan.beta2:
            out = out + w * _reference_sum(zip(b_val[i], ikk))
    if plan.beta34:
        pairs = [(k, l) for k in range(m) for l in range(m) if k != l]
        if plan.needs_offdiag:
            ikl = {(k, l): 0.5 * (ihat[k] * ihat[l] + _v(inc, k, l))
                   / sqrth for k, l in pairs}
        for i, w3, w4 in plan.beta34:
            terms = []
            for k, l in pairs:
                weight = w3 * ihat[k]
                if w4:
                    weight = weight + w4 * ikl[k, l]
                terms.append((bhat[i][k][l], weight))
            out = out + _reference_sum(terms)
    return out


def test_step_matches_frozen_reference_bitwise():
    # every support atom from one fixed state, and a batch of random
    # states and increments, compared as raw bytes (signed zeros too)
    rng = np.random.default_rng(17)
    tabs = [named_scheme(name) for name in NAMED_SCHEMES]
    tabs += [draw_member(fid, rng) for fid in FAMILY_IDS]
    tabs += [_sparse_tableau(rng, s) for s in range(1, 6) for _ in range(50)]
    for m in (1, 2, 3):
        prob = _mixing_problem(m)
        atoms, _ = support_batch(m, 0.25)
        ys = np.asfortranarray(rng.normal(size=(8, 3)))
        ctxs = [StepContext(t=0.5, y=prob.x0, increments=atoms),
                StepContext(t=0.5, y=ys,
                            increments=draw(m, 0.25, substream(m),
                                            size=(8,)))]
        for tab in tabs:
            for ctx in ctxs:
                want = _reference_step(tab, prob, ctx)
                got = srk_step(tab, prob, ctx)
                assert got.shape == want.shape
                assert got.tobytes() == want.tobytes(), (tab.name, m)


def test_step_refuses_values_that_do_not_fit_their_point():
    # a value that drops the state axis would broadcast (5,) against
    # (5, 1) into (5, 5) states; it is refused, naming both shapes
    tab = named_scheme("RDI2WM")
    for drift, diffusion, name in (
            (lambda t, y: 0.5 * y[..., 0], lambda t, y, j: y, "drift"),
            (lambda t, y: y, lambda t, y, j: y[..., 0], "diffusion_column")):
        prob = SdeProblem(d=1, m=1, drift=drift, diffusion_column=diffusion,
                          x0=np.array([1.0]))
        with pytest.raises(ValueError, match=r"^%s returned shape \(5,\) "
                           r"for a state of shape \(5, 1\)$" % name):
            terminal_values(tab, prob, 2, 5, substream(0))
    prob = SdeProblem(d=2, m=2, drift=lambda t, y: y,
                      diffusion_column=lambda t, y, j: y[..., j],
                      x0=np.array([1.0, 2.0]))
    with pytest.raises(ValueError, match=r"shape \(4,\) for a state of "
                       r"shape \(4, 2\)"):
        terminal_values(tab, prob, 1, 4, substream(0))


def test_step_refuses_state_of_the_wrong_width():
    # the last axis of a state is its d components; a third column on
    # a d = 2 problem would come back as uninitialised memory
    ctx = StepContext(t=0.0, y=np.ones((4, 3)),
                      increments=draw(2, 0.25, substream(3), size=(4,)))
    with pytest.raises(ValueError, match=r"^a state of shape \(4, 3\) does "
                       r"not fit a problem with d = 2$"):
        srk_step(named_scheme("RDI2WM"), problem_2d(), ctx)


def test_exact_expectation_refuses_f_of_the_wrong_shape():
    prob = problem_linear(a=1.0, b=1.0, power=2)
    em = named_scheme("EM")
    with pytest.raises(ValueError, match=r"^f returned shape \(3, 1\) for a "
                       r"state of shape \(3, 1\); it must broadcast to "
                       r"\(3,\)$"):
        exact_one_step_expectation(em, prob, lambda x: x ** 2, 0.25)


def test_exact_expectation_accepts_constant_f():
    prob = problem_linear(a=1.0, b=1.0, power=2)
    em = named_scheme("EM")
    # the expectation of a constant is the constant itself, although
    # the support probabilities sum to 1 only up to rounding
    for const in (0.5, [0.5]):
        got = exact_one_step_expectation(em, prob, lambda x: const, 0.25)
        assert got == 0.5
        assert exact_expectation(em, prob, lambda x: const, 0.25, 3) == 0.5


def test_step_accepts_scalar_and_constant_values():
    # a scalar and a constant of shape (d,) broadcast to every point,
    # and step as they did before values were checked
    prob = SdeProblem(d=2, m=2, drift=lambda t, y: 0.5,
                      diffusion_column=lambda t, y, j: np.array([0.1, 0.2 * j]),
                      x0=np.array([1.0, 2.0]))
    ctx = StepContext(t=0.0, y=np.ones((6, 2)),
                      increments=draw(2, 0.25, substream(3), size=(6,)))
    for name in NAMED_SCHEMES:
        tab = named_scheme(name)
        got = srk_step(tab, prob, ctx)
        assert got.tobytes() == _reference_step(tab, prob, ctx).tobytes()
    values, diverged = terminal_values(named_scheme("RDI2WM"), prob, 2, 6,
                                       substream(0))
    assert values.shape == (6, 2) and not diverged.any()


def test_plans_live_and_die_with_their_tableau():
    tab = draw_member("CASE_A", np.random.default_rng(3))
    terminal_values(tab, problem_2d(), 1, 2, substream(0))
    assert usage_plan(tab, 2) is usage_plan(tab, 3)
    copy = tab.with_name("copy")
    assert usage_plan(copy, 2) is usage_plan(tab, 2)
    alive = weakref.ref(tab)
    del tab
    gc.collect()
    assert alive() is None


def test_racing_threads_share_one_plan():
    # more threads than cores ask fresh tableaux for their first plans
    # at once; each must get the one plan the tableau keeps
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        rng = np.random.default_rng(8)
        for _ in range(20):
            tab = draw_member("CASE_A", rng)
            got = []
            start = threading.Barrier(6, timeout=10)

            def worker(m):
                start.wait()
                got.append((m, usage_plan(tab, m)))

            threads = [threading.Thread(target=worker, args=(1 + i % 3,))
                       for i in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=10)
            assert not any(t.is_alive() for t in threads)
            assert len(got) == 6
            assert all(plan is usage_plan(tab, m) for m, plan in got)
    finally:
        sys.setswitchinterval(interval)


def test_concurrent_steps_match_serial():
    rng = np.random.default_rng(4)
    tabs = [draw_member("CASE_A", rng), draw_member("ORD32_212", rng)]
    prob = problem_2d()

    def run(tab):
        return [terminal_values(tab, prob, 8, 64, substream(seed))[0]
                for seed in range(20)]

    # the threads go first, so that they also compile the plans
    got = [None, None]
    start = threading.Barrier(2)

    def worker(i):
        start.wait()
        got[i] = run(tabs[i])

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    serial = [run(tab) for tab in tabs]
    for want, have in zip(serial, got):
        assert all(np.array_equal(a, b) for a, b in zip(want, have))


# --- fast paths pinned against copies of the formulas they replaced ---

_SPECIAL = np.array([-0.0, 0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324,
                     2.2250738585072014e-308, 1.0, -2.5, 1e155, -3e300])


def _bits(a):
    return np.ascontiguousarray(a).tobytes()


def _linear_problem(m):
    # values that pass signed zeros, infinities and subnormals through
    # to the sums, where sin and cos would turn most of them into NaN
    return SdeProblem(
        d=3, m=m, drift=lambda t, y: -0.5 * y,
        diffusion_column=lambda t, y, j: (j + 1.5) * y[..., ::-1],
        x0=np.array([0.3, -0.7, 1.1]))


def test_step_on_special_states_matches_frozen_reference_bitwise():
    # the frozen reference on states of signed zeros, infinities, NaN
    # and subnormals: the 1.0 shortcuts and the in-place adds keep every
    # bit, and neither the state nor the increments are written
    rng = np.random.default_rng(23)
    tabs = [named_scheme(name) for name in NAMED_SCHEMES]
    tabs += [draw_member(fid, rng) for fid in FAMILY_IDS]
    tabs += [_sparse_tableau(rng, s) for s in range(1, 6) for _ in range(10)]
    ys = np.concatenate([_SPECIAL, -_SPECIAL[::-1]]).reshape(8, 3)
    for m in (1, 2, 3):
        inc = draw(m, 0.25, substream(m), size=(8,))
        inputs = [_bits(ys), _bits(inc.Ihat), _bits(inc.signs)]
        for prob in (_linear_problem(m), _mixing_problem(m)):
            for y in (ys, np.asfortranarray(ys)):
                ctx = StepContext(t=0.5, y=y, increments=inc)
                for tab in tabs:
                    with np.errstate(all="ignore"):
                        want = _reference_step(tab, prob, ctx)
                        got = srk_step(tab, prob, ctx)
                    assert _bits(got) == _bits(want), (tab.name, m)
        assert [_bits(ys), _bits(inc.Ihat), _bits(inc.signs)] == inputs


def test_em_unit_beta1_adds_b_dot_itself():
    # 1.0 * v == v bit for bit, so EM's beta1 = 1 adds sum_k b^k Ihat_k
    # as it is: the only products the increments enter are b^1 Ihat_1
    log = []

    class Logged(np.ndarray):
        def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
            plain = [x.view(np.ndarray) if isinstance(x, Logged) else x
                     for x in inputs]
            out = getattr(ufunc, method)(*plain, **kwargs)
            if "out" not in kwargs:
                out = out.view(Logged)
            log.append((ufunc.__name__, inputs, out))
            return out

    tab, prob = named_scheme("EM"), problem_linear(power=1)
    assert tab.beta1.tolist() == [1.0]
    inc = WeakIncrementBatch(0.25, np.array([[0.7], [-0.3]]).view(Logged))
    ctx = StepContext(t=0.0, y=np.array([[1.0], [2.0]]), increments=inc)
    got = srk_step(tab, prob, ctx)
    (_, _, b_dot), = [entry for entry in log if entry[0] == "multiply"]
    assert [(name, any(x is b_dot for x in inputs))
            for name, inputs, _ in log] == [("multiply", False),
                                            ("add", True)]
    plain = StepContext(t=0.0, y=ctx.y, increments=WeakIncrementBatch(
        0.25, inc.Ihat.view(np.ndarray)))
    assert _bits(got) == _bits(_reference_step(tab, prob, plain))


def test_one_generated_step_per_pattern():
    # members of one family share their pattern, its plans and its step
    rng = np.random.default_rng(6)
    a, b = draw_member("CASE_A", rng), draw_member("CASE_A", rng)
    for m in (1, 2, 3):
        prob = _mixing_problem(m)
        ctx = StepContext(t=0.0, y=prob.x0,
                          increments=support_batch(m, 0.25)[0])
        srk_step(a, prob, ctx)
        assert a._pattern == b._pattern
        assert usage_plan(a, m) is usage_plan(b, m)
        step = integrator._STEPS[a._pattern, m]
        srk_step(b, prob, ctx)
        assert integrator._STEPS[b._pattern, m] is step


def test_generated_steps_are_bounded_by_their_patterns(monkeypatch):
    monkeypatch.setattr(integrator, "_STEPS", {})
    rng = np.random.default_rng(9)
    tabs = [named_scheme(name) for name in NAMED_SCHEMES]
    tabs += [draw_member(fid, rng) for fid in FAMILY_IDS]
    keys = set()
    for m in (1, 2, 3):
        prob = _mixing_problem(m)
        ctx = StepContext(t=0.0, y=prob.x0,
                          increments=support_batch(m, 0.25)[0])
        for tab in tabs:
            srk_step(tab, prob, ctx)
            keys.add((tab._pattern, m))
    assert set(integrator._STEPS) == keys
    assert len(keys) < len(tabs) * 3  # patterns are shared
    # past the bound the oldest steps go
    monkeypatch.setattr(integrator, "_STEPS", {})
    monkeypatch.setattr(integrator, "_CACHE_SIZE", 4)
    prob = _mixing_problem(1)
    ctx = StepContext(t=0.0, y=prob.x0,
                      increments=support_batch(1, 0.25)[0])
    for s in range(1, 6):
        for _ in range(4):
            tab = _sparse_tableau(rng, s)
            srk_step(tab, prob, ctx)
            assert len(integrator._STEPS) <= 4
            assert (tab._pattern, 1) in integrator._STEPS


def test_racing_threads_generate_steps_that_match_serial(monkeypatch):
    # more threads than cores take the first steps of fresh patterns at
    # once; every result is the serial one, bit for bit
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        rng = np.random.default_rng(10)
        prob = _mixing_problem(2)
        ctx = StepContext(t=0.5, y=np.asfortranarray(
            rng.normal(size=(8, 3))), increments=draw(2, 0.25, substream(2),
                                                      size=(8,)))
        for s in range(2, 6):
            monkeypatch.setattr(integrator, "_STEPS", {})
            tab = _sparse_tableau(rng, s)
            got = []
            start = threading.Barrier(6, timeout=10)

            def worker():
                start.wait()
                got.append(srk_step(tab, prob, ctx))

            threads = [threading.Thread(target=worker) for _ in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=10)
            assert not any(t.is_alive() for t in threads)
            assert len(got) == 6 and len(integrator._STEPS) == 1
            want = srk_step(tab, prob, ctx)
            assert _bits(want) == _bits(_reference_step(tab, prob, ctx))
            assert all(_bits(g) == _bits(want) for g in got)
    finally:
        sys.setswitchinterval(interval)


def _formula_pattern(tab):
    # a bit per entry, set if nonzero, of the eleven arrays' rows end
    # to end, below a top bit that fixes s
    flat = [x for key in KEYS for row in getattr(tab, key).tolist()
            for x in (row if key.startswith(("A", "B")) else [row])]
    return sum(1 << n for n, x in enumerate(flat) if x) | 1 << len(flat)


def test_recorded_pattern_matches_its_formula():
    rng = np.random.default_rng(13)
    tabs = [named_scheme(name) for name in NAMED_SCHEMES]
    tabs += [draw_member(fid, rng) for fid in FAMILY_IDS for _ in range(20)]
    tabs += [_sparse_tableau(rng, s) for s in range(1, 6) for _ in range(20)]
    tabs += [CoefficientTableau(s=s, **{k: np.zeros((s,) if k in KEYS[:5]
                                                    else (s, s))
                                        for k in KEYS})
             for s in range(1, MAX_STAGES + 1)]
    for tab in tabs:
        assert tab._pattern == _formula_pattern(tab), tab.name
    # tableaux of different s never share a pattern
    stages = {}
    for tab in tabs:
        assert stages.setdefault(tab._pattern, tab.s) == tab.s
    # a -0.0 entry is a zero
    base = named_scheme("RDI2WM")
    arrays = {k: np.array(getattr(base, k)) for k in KEYS}
    arrays["beta4"][0], arrays["B2"][2, 1] = -0.0, -0.0
    signed = CoefficientTableau(s=3, **arrays)
    arrays["beta4"][0], arrays["B2"][2, 1] = 0.0, 0.0
    assert signed._pattern == CoefficientTableau(s=3, **arrays)._pattern
    assert signed._pattern == _formula_pattern(signed)


def test_planning_and_stepping_leave_the_tableau_as_built():
    # plans and steps are cached by the tableau's pattern, not on it
    tab = draw_member("CASE_212", np.random.default_rng(14))
    built = dict(vars(tab))
    state = pickle.dumps(built)
    for m in (1, 2, 3):
        usage_plan(tab, m)
        evaluation_cost(tab, m)
        prob = _mixing_problem(m)
        srk_step(tab, prob, StepContext(
            t=0.0, y=prob.x0, increments=support_batch(m, 0.25)[0]))
    assert vars(tab).keys() == built.keys()
    assert all(vars(tab)[k] is v for k, v in built.items())
    assert pickle.dumps(vars(tab)) == state


def test_caches_stay_bounded_over_fresh_patterns():
    rng = np.random.default_rng(15)
    prob = _mixing_problem(1)
    ctx = StepContext(t=0.0, y=prob.x0, increments=support_batch(1, 0.25)[0])
    seen = set()
    while len(seen) < 200:
        tab = _sparse_tableau(rng, int(rng.integers(3, 6)))
        if tab._pattern not in seen:
            seen.add(tab._pattern)
            srk_step(tab, prob, ctx)
            evaluation_cost(tab, 2)
    sizes = {name: len(value) for name, value in vars(integrator).items()
             if isinstance(value, dict) and not name.startswith("__")}
    assert sizes and max(sizes.values()) <= integrator._CACHE_SIZE, sizes


def test_a_defective_tableau_is_refused_whatever_its_pattern_has_cached():
    # a NaN sets the same bit as the finite entry it replaces, so the
    # defective tableau shares RDI2WM's pattern and, with it, cached
    # plans and steps; the record of its construction still refuses it
    base = named_scheme("RDI2WM")
    arrays = {k: np.array(getattr(base, k)) for k in KEYS}
    assert arrays["A0"][1, 0] != 0.0
    arrays["A0"][1, 0] = np.nan
    bad = CoefficientTableau(s=3, **arrays)
    assert bad._pattern == base._pattern
    prob = _mixing_problem(2)
    ctx = StepContext(t=0.0, y=prob.x0, increments=support_batch(2, 0.25)[0])
    for m in (1, 2):
        usage_plan(base, m)
        evaluation_cost(base, m)
    srk_step(base, prob, ctx)
    for call in (lambda: usage_plan(bad, 2), lambda: evaluation_cost(bad, 2),
                 lambda: srk_step(bad, prob, ctx)):
        with pytest.raises(TableauValueError, match=r"A0\[2\]\[1\] = nan"):
            call()


def test_racing_threads_share_one_plan_of_a_fresh_pattern():
    # more threads than cores ask for the first plans of patterns no
    # tableau has had yet; each must get the one plan the cache keeps
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        rng = np.random.default_rng(16)
        for _ in range(10):
            tab = _sparse_tableau(rng, 5)
            assert (tab._pattern, False) not in integrator._PLANS
            got = []
            start = threading.Barrier(6, timeout=10)

            def worker(m):
                start.wait()
                got.append((m, usage_plan(tab, m)))

            threads = [threading.Thread(target=worker, args=(1 + i % 2,))
                       for i in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=10)
            assert not any(t.is_alive() for t in threads)
            assert len(got) == 6
            assert all(plan is usage_plan(tab, m) for m, plan in got)
    finally:
        sys.setswitchinterval(interval)


def test_a_cost_generates_no_step():
    # the cost model reads the plan only: the generated step grows as
    # s m^2 and is made by a first step alone
    before = dict(integrator._STEPS)
    got = evaluation_cost(named_scheme("RDI2WM"), 1000)
    assert got == EvaluationCost(2, 2001000, 500500)
    assert integrator._STEPS == before


def _reference_terminal_values(tab, prob, n_steps, n_paths, stream):
    # the divergence test as first written: the per-path mask every step
    h = (prob.t_end - prob.t0) / n_steps
    y = np.array(np.broadcast_to(prob.x0, (n_paths, prob.d)), order="F")
    diverged = np.zeros(n_paths, dtype=bool)
    t = prob.t0
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for n in range(n_steps):
            inc = draw(prob.m, h, stream, size=(n_paths,),
                       with_offdiag=usage_plan(tab, prob.m).needs_offdiag)
            y = srk_step(tab, prob, StepContext(t=t, y=y, increments=inc))
            t = prob.t0 + (n + 1) * h
            diverged |= ~np.all(np.isfinite(y), axis=-1)
            if diverged.any():
                y[diverged] = prob.x0
    return y, diverged


def _recording(drift, d=1, x0=(2.0,)):
    # a noise-free problem that keeps every state its drift is given
    seen = []

    def rec(t, y):
        seen.append(np.array(y))
        return drift(t, y)

    prob = SdeProblem(
        d=d, m=1, drift=rec,
        diffusion_column=lambda t, y, j: np.zeros_like(y),
        x0=np.array(x0), t_end=1.0)
    return prob, seen


def test_divergence_flags_nothing_when_only_the_sum_overflows():
    # every entry finite, the sum over the paths is not: the exact
    # per-path test runs and flags nothing
    prob, _ = _recording(lambda t, y: np.zeros_like(y), d=2,
                         x0=(1.5e308, 1.5e308))
    vals, mask = terminal_values(named_scheme("EM"), prob, 3, 5,
                                 substream(2))
    assert not mask.any()
    assert (vals == 1.5e308).all()
    neg, _ = _recording(lambda t, y: np.zeros_like(y), x0=(-1.5e308,))
    vals, mask = terminal_values(named_scheme("EM"), neg, 3, 4, substream(2))
    assert not mask.any() and (vals == -1.5e308).all()


@pytest.mark.parametrize("name", ["EM", "RDI2WM"])
def test_divergence_flags_and_freezes_on_the_same_step(name):
    # row 1 overflows to +inf and row 3 to -inf within a few steps (and
    # again after each freeze), row 2 is NaN at step 1 only and finite
    # if stepped on from x0; rows 0 and 4 stay finite.  The states each
    # step starts from, frozen rows at x0, match the per-path test of
    # every step bit for bit.
    def drift(t, y):
        nan = np.nan if t == 0.0 else 0.1
        return np.array([[0.0], [1e100], [nan], [-1e300], [1e-3]]) * (y * y)

    runs = []
    for stepper in (terminal_values, _reference_terminal_values):
        prob, seen = _recording(drift)
        vals, mask = stepper(named_scheme(name), prob, 6, 5, substream(9))
        runs.append((vals, mask, seen))
    (vals, mask, seen), (ref_vals, ref_mask, ref_seen) = runs
    assert mask.tolist() == ref_mask.tolist() == [False, True, True, True,
                                                  False]
    assert _bits(vals) == _bits(ref_vals)
    assert len(seen) == len(ref_seen)
    assert all(_bits(a) == _bits(b) for a, b in zip(seen, ref_seen))
    # a frozen path stays frozen: once a flagged row starts a step from
    # x0 it does so on every later step (stage one reads the state)
    per_step = len(seen) // 6
    starts = [seen[k * per_step][:, 0] for k in range(6)]
    assert starts[1][2] == 2.0  # NaN at step 1, frozen at once
    for row in (1, 2, 3):
        first = next(k for k in range(1, 6) if starts[k][row] == 2.0)
        assert all(s[row] == 2.0 for s in starts[first:]), row
    assert all(s[4] != 2.0 for s in starts[1:])
