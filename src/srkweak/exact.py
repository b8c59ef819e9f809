"""Exact expectations under the discrete increment law.

The three-point law of the increments has a finite support, so the
expectation of f after n steps of a scheme is a finite sum over the
support tree of n levels, free of Monte Carlo noise.  This module
holds that sum, exact_expectation, and its cap on the size of a tree.
It is the home of every finite-support computation: the moment
operator of linear problems, the exact mean-square stability function
and the multinomial law of the increment counts are to join it.

Two hooks constrain it, since tracers and tests replace module
attributes in place:

  - each level of a tree is one call of integrator.srk_step, looked up
    through the integrator module at call time, so this module binds
    no srk_step of its own;
  - integrator.exact_one_step_expectation, the n = 1 case, is defined
    in integrator, where tracers replace it, and reaches this module by
    an import inside its body: this module imports integrator when it
    loads, and integrator never imports this one at load time, so the
    two form no import cycle.
"""

import numpy as np

from . import integrator
from .increments import WeakIncrementBatch, support_batch
from .integrator import StepContext, _checked
from .tableau import _check_int

_MAX_TREE_ELEMENTS = 1 << 20  # atoms times d on a support tree's last level


def exact_expectation(tab, prob, f, h, n_steps):
    """Compute E f(Y) after n_steps steps of size h from (t0, x0)
    exactly, by expanding the finite support tree of the increment law.

    Each level is one vectorised step: the root steps x0 on the support
    itself, and each later level repeats every state once per atom and
    tiles the atoms over the states.  The weights multiply
    support_batch's probabilities and sum to 1 only up to rounding, to
    1 - 2.2e-16 after four levels at m = 2.  A last level of more than
    2^20 state elements (atoms times d) is refused before any step runs.

    Args:
      tab: CoefficientTableau
      prob: SdeProblem with m <= 4
      f: functional mapping states (..., d) to values (...) or a scalar;
        any other shape raises ValueError
      h: step size, > 0
      n_steps: number of steps, >= 1

    Returns:
      float, the exact expectation over the increment law
    """
    _check_int("n_steps", n_steps, 1, ValueError)
    n_steps = int(n_steps)  # a NumPy integer would wrap in k ** n_steps
    batch, probs = support_batch(prob.m, h)
    k = len(probs)
    # k >= 3, so more than 20 steps always exceed the cap
    if n_steps > 20 or k ** n_steps * prob.d > _MAX_TREE_ELEMENTS:
        raise ValueError("%d steps have %d^%d support atoms, which times "
                         "d = %d exceeds the cap of 2^20 state elements"
                         % (n_steps, k, n_steps, prob.d))
    y, inc, weights = np.repeat(prob.x0[None, :], k, axis=0), batch, probs
    t = prob.t0
    for n in range(n_steps):
        if n:
            inc = WeakIncrementBatch(h, np.tile(batch.Ihat, (len(y), 1)),
                                     np.tile(batch.signs, (len(y), 1)))
            y = np.repeat(y, k, axis=0)
            weights = (weights[:, None] * probs).ravel()
        y = integrator.srk_step(tab, prob,
                                StepContext(t=t, y=y, increments=inc))
        t = prob.t0 + (n + 1) * h
    vals = _checked("f", f(y), y, weights.shape)
    return float(weights @ vals if vals.shape == weights.shape
                 else vals.item())  # a constant f is its own expectation
