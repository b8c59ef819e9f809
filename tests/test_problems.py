import math

import numpy as np
import pytest

from srkweak.increments import substream
from srkweak.problems import (PROBLEM_IDS, NamedProblem, UnknownProblemError,
                              problem_2d, problem_from_cli, problem_linear,
                              problem_nonlinear)


def test_nonlinear_problem_coefficients():
    prob = problem_nonlinear()
    assert prob.d == prob.m == 1
    assert prob.x0[0] == 0.0 and prob.t_end == 2.0
    x = np.array([0.0])
    assert prob.drift(0.0, x)[0] == 1.0
    assert prob.diffusion_column(0.0, x, 0)[0] == 1.0
    x = np.array([math.sinh(1.0)])
    want_a = 0.5 * math.sinh(1.0) + math.cosh(1.0)
    assert abs(prob.drift(0.0, x)[0] - want_a) < 1e-15
    assert abs(prob.diffusion_column(0.0, x, 0)[0] - math.cosh(1.0)) < 1e-15


def test_nonlinear_problem_functional():
    prob = problem_nonlinear()
    # p has roots 0, 2 and 4, and E p(arsinh X_t) = t^3 - 3 t^2 + 2 t
    assert prob.f(np.array([math.sinh(2.0)])) == pytest.approx(0.0, abs=1e-13)
    assert prob.exact_functional(2.0) == 0.0
    assert prob.exact_functional(0.5) == 0.375
    assert prob.f(prob.x0) == 0.0


def test_nonlinear_functional_against_sampled_solution():
    # the solution is X_t = sinh(t + W_t), so f(X_t) = p(Z) with
    # Z ~ N(t, t); an independent normal sample must reproduce the
    # claimed expectation
    prob = problem_nonlinear()
    t = 2.0
    n = 200000
    z = t + math.sqrt(t) * substream(314).standard_normal(n)
    vals = prob.f(np.sinh(z)[:, None])
    err = abs(np.mean(vals) - prob.exact_functional(t))
    assert err < 5.0 * np.std(vals) / math.sqrt(n)


def _system_matrices():
    prob = problem_2d()
    eye = np.eye(2)
    F = np.stack([prob.drift(0.0, eye[i]) for i in range(2)], axis=1)
    G1 = np.stack([prob.diffusion_column(0.0, eye[i], 0)
                   for i in range(2)], axis=1)
    G2 = np.stack([prob.diffusion_column(0.0, eye[i], 1)
                   for i in range(2)], axis=1)
    return prob, F, G1, G2


def test_system_problem_coefficients():
    prob, F, G1, G2 = _system_matrices()
    assert prob.d == prob.m == 2
    assert np.array_equal(prob.x0, [1.0, 1.0]) and prob.t_end == 4.0
    sqrt2 = math.sqrt(2.0)
    assert np.allclose(F, [[-273.0 / 512.0, 0.0],
                           [-1.0 / 160.0, -785.0 / 512.0 + sqrt2 / 8.0]],
                       rtol=0.0, atol=1e-16)
    assert np.allclose(G1, [[0.25, 0.0], [0.0, (1.0 - 2.0 * sqrt2) / 4.0]],
                       rtol=0.0, atol=1e-16)
    assert np.allclose(G2, [[1.0 / 16.0, 0.0], [0.1, 1.0 / 16.0]],
                       rtol=0.0, atol=1e-16)
    with pytest.raises(IndexError):
        prob.diffusion_column(0.0, prob.x0, 2)


def test_system_noises_do_not_commute():
    _, _, G1, G2 = _system_matrices()
    assert not np.allclose(G1 @ G2, G2 @ G1)


@pytest.mark.parametrize("order", ["C", "F"])
def test_system_callbacks_keep_layout_and_values(order):
    # each component is the expression the callbacks were first written
    # with, stacked row-major; the output takes the layout of the input
    prob = problem_2d()
    sqrt2 = math.sqrt(2.0)
    f11, f21 = -273.0 / 512.0, -1.0 / 160.0
    f22 = -785.0 / 512.0 + sqrt2 / 8.0
    g1_22 = (1.0 - 2.0 * sqrt2) / 4.0
    y = np.array(substream(8).standard_normal((9, 2)), order=order)
    x1, x2 = y[:, 0], y[:, 1]
    want = {
        "drift": np.stack([f11 * x1, f21 * x1 + f22 * x2], axis=-1),
        0: np.stack([0.25 * x1, g1_22 * x2], axis=-1),
        1: np.stack([x1 / 16.0, x1 / 10.0 + x2 / 16.0], axis=-1),
    }
    got = {"drift": prob.drift(0.0, y),
           0: prob.diffusion_column(0.0, y, 0),
           1: prob.diffusion_column(0.0, y, 1)}
    for key, val in got.items():
        assert val.tobytes(order="C") == want[key].tobytes(order="C"), key
        assert val.flags[order + "_CONTIGUOUS"], key
    with pytest.raises(IndexError):
        prob.diffusion_column(0.0, y, 2)


def test_system_functional_closed_form():
    # the first component is closed: d x1 = f11 x1 dt + g1 x1 dW1
    # + g2 x1 dW2, so E (x1)^2 = exp((2 f11 + g1^2 + g2^2) t) and the
    # coefficients are tuned to make the rate exactly -1
    prob, F, G1, G2 = _system_matrices()
    rate = 2.0 * F[0, 0] + G1[0, 0] ** 2 + G2[0, 0] ** 2
    assert rate == -1.0
    assert prob.exact_functional(4.0) == math.exp(-4.0)
    assert prob.f(prob.x0) == 1.0


def test_linear_problem_closed_forms():
    prob = problem_linear(a=0.5, b=2.0, power=2, x0=3.0, t_end=2.0)
    assert prob.name == "linear:a=0.5,b=2,p=2"
    assert prob.exact_functional(0.25) == 9.0 * math.exp(5.0 * 0.25)
    assert prob.f(np.array([4.0])) == 16.0
    assert prob.drift(0.0, np.array([2.0]))[0] == 1.0
    assert prob.diffusion_column(0.0, np.array([2.0]), 0)[0] == 4.0

    first = problem_linear(a=-1.0, b=0.5, power=1)
    assert first.exact_functional(1.0) == math.exp(-1.0)
    with pytest.raises(ValueError):
        problem_linear(power=3)


def test_linear_problem_rejects_bool_power():
    for power in (True, False, np.True_):
        with pytest.raises(ValueError, match="power must be 1 or 2"):
            problem_linear(power=power)
    assert problem_linear(power=1).name == "linear:a=1,b=1,p=1"
    assert problem_from_cli("linear:p=1").name == "linear:a=1,b=1,p=1"


@pytest.mark.parametrize("key", ["a", "b", "x0"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_linear_problem_rejects_non_finite(key, value):
    with pytest.raises(ValueError, match="%s must be finite" % key):
        problem_linear(**{key: value})


@pytest.mark.parametrize("key,value,match", [
    ("a", "2", "a must be finite"),
    ("b", True, "b must be finite"),
    ("b", np.True_, "b must be finite"),
    ("x0", "1", "x0 must be finite"),
    ("t_end", "1", "t0 and t_end must be finite"),
    ("t_end", True, "t0 and t_end must be finite"),
])
def test_linear_problem_rejects_non_numbers(key, value, match):
    with pytest.raises(ValueError, match=match):
        problem_linear(**{key: value})


def test_consistency_check_rejects_bad_functional():
    with pytest.raises(ValueError, match="inconsistent problem"):
        NamedProblem(
            d=1, m=1,
            drift=lambda t, y: y,
            diffusion_column=lambda t, y, j: y,
            x0=np.array([1.0]), exact_functional=lambda t: 5.0,
            name="bad", f=lambda y: y[..., 0])
    with pytest.raises(ValueError, match="f must be callable"):
        NamedProblem(
            d=1, m=1,
            drift=lambda t, y: y,
            diffusion_column=lambda t, y, j: y,
            x0=np.array([1.0]), exact_functional=lambda t: 1.0,
            name="bad", f=None)
    with pytest.raises(ValueError, match="exact_functional must be callable"):
        NamedProblem(
            d=1, m=1,
            drift=lambda t, y: y,
            diffusion_column=lambda t, y, j: y,
            x0=np.array([1.0]), exact_functional=1.0,
            name="bad", f=lambda y: y[..., 0])


def test_named_problem_refuses_f_of_the_wrong_shape():
    # f must drop the state axis: a value of shape (d,) for x0 is refused
    with pytest.raises(ValueError, match=r"^f returned shape \(2,\) for a "
                       r"state of shape \(2,\); it must broadcast to \(\)$"):
        NamedProblem(
            d=2, m=1,
            drift=lambda t, y: y,
            diffusion_column=lambda t, y, j: y,
            x0=np.array([0.0, 1.0]), exact_functional=lambda t: 1.0,
            name="bad", f=lambda y: y ** 2)


@pytest.mark.parametrize("b", [40.0, 1e200])
def test_linear_problem_rejects_overflowing_expectation(b):
    # exp((2 a + b^2) t) overflows at t_end = 1 for b = 40; for b = 1e200
    # the exponent rate is inf, which gives nan at t0 and inf after it
    with pytest.raises(ValueError, match="exact functional .* not finite"):
        problem_linear(b=b)


@pytest.mark.parametrize("exact", [
    lambda t: math.exp(1e4 * t),
    lambda t: math.nan if t > 0 else 1.0,
    lambda t: np.inf if t > 0 else 1.0,
])
def test_named_problem_rejects_non_finite_expectation_at_t_end(exact):
    with pytest.raises(ValueError, match=r"not finite at t = 1\.0"):
        NamedProblem(
            d=1, m=1,
            drift=lambda t, y: y,
            diffusion_column=lambda t, y, j: y,
            x0=np.array([1.0]), exact_functional=exact,
            name="bad", f=lambda y: y[..., 0])


def test_problem_from_cli():
    assert problem_from_cli("nonlinear16").name == "nonlinear16"
    assert problem_from_cli("system18").name == "system18"
    assert problem_from_cli("linear").name == "linear:a=1,b=1,p=2"
    prob = problem_from_cli("linear:a=2,b=0.5,p=1")
    assert prob.name == "linear:a=2,b=0.5,p=1"
    assert prob.exact_functional(1.0) == math.exp(2.0)
    assert problem_from_cli("linear:b=0").name == "linear:a=1,b=0,p=2"


@pytest.mark.parametrize("token", [
    "bogus", "linear:q=1", "linear:a=xx", "linear:p=3", "linear:a", 17,
    "linear:a=nan", "linear:b=inf", "linear:a=-inf,p=1",
])
def test_problem_from_cli_rejects(token):
    with pytest.raises(UnknownProblemError):
        problem_from_cli(token)


@pytest.mark.parametrize("token", ["linear:a=1,a=2", "linear:p=1,b=2,p=2"])
def test_problem_from_cli_rejects_repeated_parameter(token):
    with pytest.raises(UnknownProblemError, match="repeated problem parameter"):
        problem_from_cli(token)


def test_unknown_problem_message_lists_choices():
    with pytest.raises(UnknownProblemError) as exc:
        problem_from_cli("bogus")
    msg = str(exc.value)
    for pid in ("nonlinear16", "system18", "linear:a=..,b=..,p=.."):
        assert pid in msg
    assert PROBLEM_IDS == ("nonlinear16", "system18", "linear")


# the callbacks as first written, one column at a time
_SQRT2 = math.sqrt(2.0)
_F11, _F21 = -273.0 / 512.0, -1.0 / 160.0
_F22 = -785.0 / 512.0 + _SQRT2 / 8.0
_G1_22 = (1.0 - 2.0 * _SQRT2) / 4.0
_OLD = {
    "nonlinear16": {
        "drift": lambda y: (0.5 * y[..., 0]
                            + np.sqrt(y[..., 0] * y[..., 0] + 1.0))[..., None],
        0: lambda y: np.sqrt(y[..., 0] * y[..., 0] + 1.0)[..., None],
    },
    "system18": {
        "drift": lambda y: np.stack(
            [_F11 * y[..., 0], _F21 * y[..., 0] + _F22 * y[..., 1]], -1),
        0: lambda y: np.stack([0.25 * y[..., 0], _G1_22 * y[..., 1]], -1),
        1: lambda y: np.stack(
            [y[..., 0] / 16.0, y[..., 0] / 10.0 + y[..., 1] / 16.0], -1),
    },
}
_EDGE = [-0.0, 0.0, math.inf, -math.inf, math.nan, 1e155, -1e155, 5e-324,
         -2.2250738585072014e-308, 1e-160, 1.0, -3.5]


@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("lead", [(40,), (4, 10)])
@pytest.mark.parametrize("name", ["nonlinear16", "system18"])
def test_callbacks_match_their_first_formulas_bitwise(name, lead, order):
    # random states plus signed zeros, infinities, NaN, 1e155 (whose
    # square overflows) and subnormals, in every component
    prob = problem_from_cli(name)
    d = prob.d
    flat = substream(3).standard_normal((40, d)) * 10.0
    for k in range(d):  # each component meets each edge value
        flat[:len(_EDGE), k] = np.roll(_EDGE, 5 * k)
    y = np.array(flat.reshape(lead + (d,)), order=order)
    calls = {"drift": lambda y: prob.drift(0.0, y)}
    calls.update({j: (lambda y, j=j: prob.diffusion_column(0.0, y, j))
                  for j in range(prob.m)})
    for key, call in calls.items():
        with np.errstate(all="ignore"):
            got, want = call(y), _OLD[name][key](y)
        assert got.shape == y.shape, key
        assert got.tobytes(order="C") == want.tobytes(order="C"), key
        assert np.array_equal(np.signbit(got), np.signbit(want)), key
        assert got.flags[order + "_CONTIGUOUS"], key
