"""Benchmark SDE problems with known functional expectations.

Each problem couples an SDE with the scalar functional f it is
studied under and the exact map t -> E f(X_t), so weak errors can be
measured without a reference solver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .integrator import SdeProblem
from .tableau import Error


class UnknownProblemError(Error):
    """Raised for an unrecognised problem name."""


_CONSISTENCY_TOL = 1e-12


@dataclass(frozen=True)
class NamedProblem(SdeProblem):
    """An SdeProblem bundled with its study functional.

    f maps states of shape (..., d) to values of shape (...);
    exact_functional maps t to E f(X_t).  At construction the value
    f(x0) is checked against exact_functional(t0).
    """

    name: str = ""
    f: object = None
    f_description: str = ""

    def __post_init__(self):
        super().__post_init__()
        if not callable(self.f):
            raise ValueError("f must be callable")
        if not callable(self.exact_functional):
            raise ValueError("exact_functional must be callable")
        got = float(np.asarray(self.f(self.x0)))
        want = float(self.exact_functional(self.t0))
        if abs(got - want) > _CONSISTENCY_TOL * max(1.0, abs(want)):
            raise ValueError(
                "inconsistent problem %r: f(x0) = %r but the exact "
                "functional gives %r at t0" % (self.name, got, want))


def problem_nonlinear():
    """Scalar SDE with multiplicative noise and a cubic functional.

    dX = (X/2 + sqrt(X^2 + 1)) dt + sqrt(X^2 + 1) dW on [0, 2] from
    X_0 = 0.  The solution is X_t = sinh(t + W_t), so with
    p(z) = z^3 - 6 z^2 + 8 z the functional f(x) = p(arsinh x) has

        E f(X_t) = t^3 - 3 t^2 + 2 t,

    which vanishes at the endpoint t = 2.
    """
    def drift(t, y):
        x = y[..., 0]
        return (0.5 * x + np.sqrt(x * x + 1.0))[..., None]

    def diffusion_column(t, y, j):
        x = y[..., 0]
        return np.sqrt(x * x + 1.0)[..., None]

    def f(y):
        z = np.arcsinh(y[..., 0])
        return ((z - 6.0) * z + 8.0) * z

    def exact(t):
        return ((t - 3.0) * t + 2.0) * t

    return NamedProblem(
        d=1, m=1, drift=drift, diffusion_column=diffusion_column,
        x0=np.array([0.0]), t0=0.0, t_end=2.0, exact_functional=exact,
        name="nonlinear16", f=f,
        f_description="p(arsinh x) with p(z) = z^3 - 6 z^2 + 8 z")


def problem_2d():
    """Two-dimensional linear system driven by two non-commuting noises.

    dX = F X dt + G_1 X dW^1 + G_2 X dW^2 on [0, 4] from X_0 = (1, 1)
    with

        F   = [[-273/512, 0], [-1/160, -785/512 + sqrt(2)/8]]
        G_1 = diag(1/4, (1 - 2 sqrt(2))/4)
        G_2 = [[1/16, 0], [1/10, 1/16]]

    G_1 and G_2 do not commute.  The first component satisfies a
    closed scalar equation, and for f(x) = (x^1)^2 one gets
    E f(X_t) = exp(-t).
    """
    sqrt2 = math.sqrt(2.0)
    f11 = -273.0 / 512.0
    f21 = -1.0 / 160.0
    f22 = -785.0 / 512.0 + sqrt2 / 8.0
    g1_22 = (1.0 - 2.0 * sqrt2) / 4.0

    # each callback writes its components into an array laid out like
    # y, so a path-contiguous batch stays path-contiguous
    def drift(t, y):
        x1 = y[..., 0]
        x2 = y[..., 1]
        out = np.empty_like(y, dtype=float)
        out[..., 0] = f11 * x1
        out[..., 1] = f21 * x1 + f22 * x2
        return out

    def diffusion_column(t, y, j):
        if j not in (0, 1):
            raise IndexError("column index %r out of range for m = 2"
                             % (j,))
        x1 = y[..., 0]
        x2 = y[..., 1]
        out = np.empty_like(y, dtype=float)
        if j == 0:
            out[..., 0] = 0.25 * x1
            out[..., 1] = g1_22 * x2
        else:
            out[..., 0] = x1 / 16.0
            out[..., 1] = x1 / 10.0 + x2 / 16.0
        return out

    def f(y):
        return y[..., 0] ** 2

    return NamedProblem(
        d=2, m=2, drift=drift, diffusion_column=diffusion_column,
        x0=np.array([1.0, 1.0]), t0=0.0, t_end=4.0,
        exact_functional=lambda t: math.exp(-t),
        name="system18", f=f, f_description="(x^1)^2")


def problem_linear(a=1.0, b=1.0, power=2, x0=1.0, t_end=1.0):
    """Geometric Brownian motion dX = a X dt + b X dW with a moment
    functional.

    For f(x) = x the exact expectation is x0 exp(a t); for f(x) = x^2
    it is x0^2 exp((2 a + b^2) t).

    Args:
      a: drift coefficient, finite
      b: diffusion coefficient, finite
      power: moment order, 1 or 2
      x0: initial value, finite
      t_end: end of the time interval

    Returns:
      NamedProblem

    Raises:
      ValueError: for a non-finite a, b or x0, or a power other than 1, 2
    """
    a = float(a)
    b = float(b)
    for key, val in (("a", a), ("b", b)):
        if not math.isfinite(val):
            raise ValueError("%s must be finite, got %r" % (key, val))
    if power not in (1, 2):
        raise ValueError("power must be 1 or 2, got %r" % (power,))
    x0 = float(x0)
    if power == 1:
        exact = lambda t: x0 * math.exp(a * t)
    else:
        exact = lambda t: x0 * x0 * math.exp((2.0 * a + b * b) * t)
    name = "linear:a=%g,b=%g,p=%d" % (a, b, power)
    return NamedProblem(
        d=1, m=1,
        drift=lambda t, y: a * y,
        diffusion_column=lambda t, y, j: b * y,
        x0=np.array([x0]), t0=0.0, t_end=float(t_end),
        exact_functional=exact,
        name=name, f=lambda y: y[..., 0] ** power,
        f_description="x^%d" % power)


# command-line names of the problems without parameters
_CLI_PROBLEMS = {"nonlinear16": problem_nonlinear, "system18": problem_2d}

#: CLI names of the built-in problems.
PROBLEM_IDS = tuple(_CLI_PROBLEMS) + ("linear",)

# "linear:" parameter -> (problem_linear keyword, type)
_LINEAR_KEYS = {"a": ("a", float), "b": ("b", float), "p": ("power", int)}


def problem_from_cli(token):
    """Build a problem from its command-line name.

    Accepted forms: "nonlinear16", "system18" and
    "linear:a=<float>,b=<float>,p=<1|2>" (keys optional, defaults
    a=1, b=1, p=2; "linear" alone uses the defaults).

    Raises:
      UnknownProblemError: for an unrecognised name, a malformed
        parameter list or parameter values problem_linear rejects
    """
    if not isinstance(token, str):
        raise UnknownProblemError("problem name must be a string, got %r"
                                  % (token,))
    if token in _CLI_PROBLEMS:
        return _CLI_PROBLEMS[token]()
    if token == "linear" or token.startswith("linear:"):
        kwargs = {}
        for part in filter(None, token[len("linear:"):].split(",")):
            key, sep, val = part.partition("=")
            if not sep:
                raise UnknownProblemError(
                    "malformed problem parameter %r in %r" % (part, token))
            if key not in _LINEAR_KEYS:
                raise UnknownProblemError(
                    "unknown problem parameter %r in %r" % (key, token))
            name, kind = _LINEAR_KEYS[key]
            try:
                kwargs[name] = kind(val)
            except ValueError:
                raise UnknownProblemError(
                    "bad value %r for problem parameter %r" % (val, key))
        try:
            return problem_linear(**kwargs)
        except ValueError as exc:
            raise UnknownProblemError(
                "bad problem %r: %s" % (token, exc)) from None
    raise UnknownProblemError(
        "unknown problem %r; available: %s and linear:a=..,b=..,p=.."
        % (token, ", ".join(PROBLEM_IDS[:-1])))
