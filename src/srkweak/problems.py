"""Benchmark SDE problems with known functional expectations.

Each problem couples an SDE with the scalar functional f it is
studied under and the exact map t -> E f(X_t), so weak errors can be
measured without a reference solver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .integrator import SdeProblem, _checked
from .tableau import Error, _is_finite


class UnknownProblemError(Error):
    """Raised for an unrecognised problem name."""


_CONSISTENCY_TOL = 1e-12


@dataclass(frozen=True)
class NamedProblem(SdeProblem):
    """An SdeProblem bundled with its study functional.

    f maps states of shape (..., d) to values of shape (...), or to a
    scalar; other shapes are refused with ValueError, as in a step.
    exact_functional maps t to E f(X_t).  At construction the value
    f(x0) is checked against exact_functional(t0), and a functional
    that overflows or is not finite at t0 or t_end is refused: a weak
    error measured against it would be meaningless.
    """

    name: str = ""
    f: object = None
    exact_functional: object = None

    def __post_init__(self):
        super().__post_init__()
        if not callable(self.f):
            raise ValueError("f must be callable")
        if not callable(self.exact_functional):
            raise ValueError("exact_functional must be callable")
        got = float(_checked("f", self.f(self.x0), self.x0, ()))
        want = self._exact_at(self.t0)
        if abs(got - want) > _CONSISTENCY_TOL * max(1.0, abs(want)):
            raise ValueError(
                "inconsistent problem %r: f(x0) = %r but the exact "
                "functional gives %r at t0" % (self.name, got, want))
        self._exact_at(self.t_end)

    def _exact_at(self, t):
        try:
            value = float(self.exact_functional(t))
        except OverflowError:
            value = math.inf
        if not math.isfinite(value):
            raise ValueError("the exact functional of problem %r is not "
                             "finite at t = %r" % (self.name, t))
        return value


def problem_nonlinear():
    """Scalar SDE with multiplicative noise and a cubic functional.

    dX = (X/2 + sqrt(X^2 + 1)) dt + sqrt(X^2 + 1) dW on [0, 2] from
    X_0 = 0.  The solution is X_t = sinh(t + W_t), so with
    p(z) = z^3 - 6 z^2 + 8 z the functional f(x) = p(arsinh x) has

        E f(X_t) = t^3 - 3 t^2 + 2 t,

    which vanishes at the endpoint t = 2.
    """
    # d = 1, so the state is x itself; each value is formed in place in
    # one new array, by the operations of 0.5 x + sqrt(x x + 1)
    def diffusion_column(t, y, j):
        r = y * y
        r += 1.0
        return np.sqrt(r, out=r)

    def drift(t, y):
        out = 0.5 * y
        out += diffusion_column(t, y, 0)
        return out

    def f(y):  # ((z - 6) z + 8) z, formed in place in one new array
        z = np.arcsinh(y[..., 0])
        out = z - 6.0
        out *= z
        out += 8.0
        out *= z
        return out

    def exact(t):
        return ((t - 3.0) * t + 2.0) * t

    return NamedProblem(
        d=1, m=1, drift=drift, diffusion_column=diffusion_column,
        x0=np.array([0.0]), t0=0.0, t_end=2.0, exact_functional=exact,
        name="nonlinear16", f=f)


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

    # each callback writes with out= into one array laid out like y, so
    # a path-contiguous batch stays path-contiguous: y * (c1, c2) or
    # y / (c1, c2) forms both columns' terms, each by the operation a
    # column would use, then column 1 takes their sum and column 0 its
    # own value
    drift_w, col0_w, col1_d = (np.array(w) for w in (
        (f21, f22), (0.25, g1_22), (10.0, 16.0)))

    def summed(op, y, w, first):
        out = op(y, w, out=np.empty_like(y, dtype=float))
        np.add(out[..., 0], out[..., 1], out=out[..., 1])
        op(y[..., 0], first, out=out[..., 0])
        return out

    def drift(t, y):
        return summed(np.multiply, y, drift_w, f11)

    def diffusion_column(t, y, j):
        if j not in (0, 1):
            raise IndexError("column index %r out of range for m = 2"
                             % (j,))
        if j == 0:
            return np.multiply(y, col0_w, out=np.empty_like(y, dtype=float))
        return summed(np.divide, y, col1_d, 16.0)

    def f(y):
        return y[..., 0] ** 2

    return NamedProblem(
        d=2, m=2, drift=drift, diffusion_column=diffusion_column,
        x0=np.array([1.0, 1.0]), t0=0.0, t_end=4.0,
        exact_functional=lambda t: math.exp(-t),
        name="system18", f=f)


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
      t_end: end of the time interval, finite and > 0

    Returns:
      NamedProblem

    Raises:
      ValueError: for an a, b, x0 or t_end that is not a finite int or
        float (a bool or a string is not), a t_end <= 0, a power
        other than 1, 2, or an exact expectation that overflows at
        t_end
    """
    for key, val in (("a", a), ("b", b), ("x0", x0)):
        if not _is_finite(val):
            raise ValueError("%s must be finite, got %r" % (key, val))
    if isinstance(power, (bool, np.bool_)) or power not in (1, 2):
        raise ValueError("power must be 1 or 2, got %r" % (power,))
    a, b, x0 = float(a), float(b), float(x0)
    if power == 1:
        exact = lambda t: x0 * math.exp(a * t)
    else:
        exact = lambda t: x0 * x0 * math.exp((2.0 * a + b * b) * t)
    name = "linear:a=%g,b=%g,p=%d" % (a, b, power)
    return NamedProblem(
        d=1, m=1,
        drift=lambda t, y: a * y,
        diffusion_column=lambda t, y, j: b * y,
        x0=np.array([x0]), t0=0.0, t_end=t_end,
        exact_functional=exact,
        name=name, f=lambda y: y[..., 0] ** power)


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
        parameter list, a parameter given twice or parameter values
        problem_linear rejects
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
            if name in kwargs:
                raise UnknownProblemError(
                    "repeated problem parameter %r in %r" % (key, token))
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
