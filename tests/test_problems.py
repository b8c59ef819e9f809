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


@pytest.mark.parametrize("key", ["a", "b", "x0"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_linear_problem_rejects_non_finite(key, value):
    with pytest.raises(ValueError, match="%s must be finite" % key):
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


def test_unknown_problem_message_lists_choices():
    with pytest.raises(UnknownProblemError) as exc:
        problem_from_cli("bogus")
    msg = str(exc.value)
    for pid in ("nonlinear16", "system18", "linear:a=..,b=..,p=.."):
        assert pid in msg
    assert PROBLEM_IDS == ("nonlinear16", "system18", "linear")
