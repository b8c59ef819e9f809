import math
import threading

import numpy as np
import pytest

from family_sampling import draw_member
from srkweak import integrator
from srkweak.families import FAMILY_IDS, NAMED_SCHEMES, named_scheme
from srkweak.increments import (CountingStream, WeakIncrementBatch, draw,
                                substream, support_batch)
from srkweak.integrator import (EvaluationCost, SdeProblem, StepContext,
                                evaluation_cost, exact_one_step_expectation,
                                srk_step, terminal_values, usage_plan)
from srkweak.problems import problem_2d, problem_linear, problem_nonlinear
from srkweak.tableau import CoefficientTableau

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
    return srk_step(tab, prob, StepContext(t=t, h=h, y=y0, increments=inc))


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
        x0=np.array([1.0]))
    got = exact_one_step_expectation(
        named_scheme("EM"), prob, lambda x: x[..., 0] ** 2, 0.25, t=0.4)
    assert abs(got - 1.04) < 1e-15


def test_em_exact_one_step_moments():
    # dX = X dW: E(1 + Ihat)^p has closed moments
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
    batched = srk_step(tab, prob, StepContext(t=0.0, h=0.25, y=ys,
                                              increments=inc))
    for i in range(6):
        one = srk_step(tab, prob, StepContext(
            t=0.0, h=0.25, y=ys[i],
            increments=type(inc)(h=0.25, Ihat=inc.Ihat[i], V=inc.V[i])))
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
        x0=np.array([1.0]))
    vals, mask = terminal_values(named_scheme("EM"), prob, 8, 64,
                                 substream(123), t_end=8.0)
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
        x0=np.array([1.0]))
    tame = SdeProblem(
        d=1, m=1,
        drift=lambda t, y: np.zeros_like(y),
        diffusion_column=lambda t, y, j: np.ones_like(y),
        x0=np.array([1.0]))
    n_steps, n_paths = 6, 128
    ce = CountingStream(substream(9))
    _, me = terminal_values(named_scheme("EM"), explosive, n_steps, n_paths,
                            ce, t_end=6.0)
    ct = CountingStream(substream(9))
    vt, mt = terminal_values(named_scheme("EM"), tame, n_steps, n_paths,
                             ct, t_end=6.0)
    assert me.any() and not mt.any()
    assert ce.count == ct.count == n_steps * n_paths
    root3 = math.sqrt(3.0)
    u = substream(9).random((n_steps, n_paths, 1))
    ihat = np.where(u < 1 / 6, -root3, np.where(u >= 5 / 6, root3, 0.0))
    assert np.array_equal(vt, 1.0 + ihat.sum(axis=0))


def test_increment_mismatch_rejected():
    prob, _ = _counting_problem(1, 1)
    inc = draw(2, 0.1, substream(0))
    with pytest.raises(ValueError):
        srk_step(named_scheme("EM"), prob, StepContext(0.0, 0.1,
                                                       prob.x0, inc))
    inc = draw(1, 0.1, substream(0))
    with pytest.raises(ValueError):
        srk_step(named_scheme("EM"), prob, StepContext(0.0, 0.2,
                                                       prob.x0, inc))


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


def test_terminal_values_rejects_infinite_t_end():
    with pytest.raises(ValueError, match="t_end must be finite"):
        terminal_values(named_scheme("EM"), _ode(), 2, 4, substream(0),
                        t_end=math.inf)


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


def _exact_weak_error(tab, prob, h):
    """E f(Y_T) - E f(X_T) under the discrete increment law, exactly.

    Expands the finite support tree through srk_step, one vectorised
    step per level: every state is repeated once per support atom, the
    atoms are tiled over the states and the probabilities multiply.
    """
    batch, probs = support_batch(prob.m, h)
    n_steps = int(round((prob.t_end - prob.t0) / h))
    y = prob.x0[None, :]
    weights = np.ones(1)
    for n in range(n_steps):
        rows = len(weights)
        y = np.repeat(y, len(probs), axis=0)
        inc = WeakIncrementBatch(h=h, Ihat=np.tile(batch.Ihat, (rows, 1)),
                                 V=np.tile(batch.V, (rows, 1, 1)))
        y = srk_step(tab, prob, StepContext(t=prob.t0 + n * h, h=h, y=y,
                                            increments=inc))
        weights = np.outer(weights, probs).ravel()
    return float(weights @ prob.f(y)) - prob.exact_functional(prob.t_end)


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
        got = _exact_weak_error(named_scheme(name), prob, h)
        assert abs(got - want) <= 1e-12 * abs(want), (name, h, got)


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
        t=0.5, h=0.25, y=prob.x0, increments=batch))
    weights = np.cos(np.arange(out.size)).reshape(out.shape)
    got = float(np.sum(weights * out))
    assert abs(got - want) <= 1e-12 * abs(want)


def test_plan_cache_stays_bounded():
    rng = np.random.default_rng(3)
    prob = problem_2d()
    for i in range(200):
        tab = draw_member(FAMILY_IDS[i % len(FAMILY_IDS)], rng)
        terminal_values(tab, prob, 1, 2, substream(i))
        assert usage_plan(tab, 2) is usage_plan(tab, 2)
    info = integrator._cached_plan.cache_info()
    assert info.currsize <= integrator.PLAN_CACHE_SIZE


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
