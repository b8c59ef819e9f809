"""Driving random increments for weak-order stochastic Runge-Kutta steps.

For a step of size h the schemes consume, per trajectory,

  Ihat_k       for k = 1..m:  independent three-point variates taking
               the values -sqrt(3 h), 0, +sqrt(3 h) with probabilities
               1/6, 2/3, 1/6; they mimic the Wiener increments up to
               the moments needed for weak order two,
  Ihat_(k,l)   = (Ihat_k Ihat_l + V_kl) / 2: stand-ins for the double
               integrals, built from an auxiliary antisymmetric-plus-
               diagonal matrix V with V_kk = -h, V_kl = +/-h with
               probability 1/2 each for l < k, and V_lk = -V_kl.

Exact moments of the three-point law: E I = E I^3 = E I^5 = 0,
E I^2 = h, E I^4 = 3 h^2; and E Ihat_(k,l) = 0, E Ihat_(k,l)^2 = h^2/2
for k != l.

Sampling draws exactly one uniform per variate from a counter-based
generator (Philox), in a fixed documented order: first the m
three-point variates, then the m(m-1)/2 sign variates for the strict
lower triangle of V in row-major order.  Schemes that never touch the
off-diagonal Ihat_(k,l) can skip the sign draws (with_offdiag=False),
which keeps the random-variable count equal to what the step actually
needs; V then carries zeros off the diagonal.

draw() returns Ihat and V in Fortran order, so that with a leading
path axis each Ihat[..., k] and each V[..., k, l] is contiguous over
the paths; the stepper multiplies them into path-contiguous states.
The uniforms themselves are drawn in C order, so the layout does not
change which uniform feeds which variate.

The joint support is finite, of size 3^m 2^(m(m-1)/2), so one-step
expectations can be computed exactly by enumeration; support_batch()
returns it as one stacked batch with its probabilities for m <= 4.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .tableau import Error

MAX_ENUM_M = 4


class IncrementError(Error):
    """Invalid arguments for increment sampling or enumeration."""
    pass


def substream(seed, *path):
    """Return a counter-based generator for one role of a computation.

    Streams for different paths under the same seed are statistically
    independent, and the mapping (seed, path) -> stream is platform
    independent, so any assignment of work to threads or processes can
    reproduce the same numbers.

    Args:
      seed: non-negative int master seed
      *path: ints naming the role, e.g. a batch index

    Returns:
      numpy Generator backed by the Philox counter-based bit generator
    """
    ss = np.random.SeedSequence(seed, spawn_key=tuple(int(p) for p in path))
    return np.random.Generator(np.random.Philox(ss))


def derive_seed(seed, *path):
    """Derive a child integer seed for an independent sub-computation."""
    ss = np.random.SeedSequence(seed, spawn_key=tuple(int(p) for p in path))
    return int(ss.generate_state(1, np.uint64)[0])


class CountingStream:
    """Wrap a generator and count the uniform variates drawn from it."""

    def __init__(self, stream):
        self.stream = stream
        self.count = 0

    def random(self, size=None):
        if size is not None:
            self.count += int(np.prod(size))
        else:
            self.count += 1
        return self.stream.random(size)


@dataclass(frozen=True)
class WeakIncrementBatch:
    """The random input of one scheme step.

    Ihat has shape (..., m) and V shape (..., m, m); leading axes, if
    any, enumerate independent realisations.  draw() stores both in
    Fortran order; any layout gives the same steps.  V has -h on the
    diagonal and is antisymmetric off it (or zero there when the
    off-diagonal part was not drawn).
    """

    h: float
    Ihat: np.ndarray
    V: np.ndarray

    @property
    def m(self):
        return self.Ihat.shape[-1]

    def ihat_pair(self):
        """Return the matrix Ihat_(k,l) = (Ihat_k Ihat_l + V_kl)/2.

        Shape (..., m, m).  The diagonal equals (Ihat_k^2 - h)/2.
        """
        outer = self.Ihat[..., :, None] * self.Ihat[..., None, :]
        return 0.5 * (outer + self.V)


def _check_m_h(m, h):
    if isinstance(m, bool) or not isinstance(m, (int, np.integer)) or m < 1:
        raise IncrementError("m must be an integer >= 1, got %r" % (m,))
    if isinstance(h, bool) or not (
            isinstance(h, (int, float, np.floating)) and np.isfinite(h)
            and h > 0.0):
        raise IncrementError("h must be a finite positive number, got %r"
                             % (h,))
    return int(m), float(h)


def draw(m, h, stream, size=None, with_offdiag=True):
    """Sample one weak increment batch.

    Consumption order from the stream, one uniform per variate: the m
    three-point variates first (a uniform u maps to -sqrt(3 h) for
    u < 1/6, to +sqrt(3 h) for u >= 5/6 and to 0 otherwise), then, if
    with_offdiag holds and m > 1, the m(m-1)/2 two-point sign variates
    for V_kl, l < k, in row-major order (+h for u < 1/2, else -h).

    Args:
      m: number of driving Wiener components, >= 1
      h: step size, > 0
      stream: generator with a random(size) method
      size: leading shape for independent realisations; None gives a
        single scalar realisation
      with_offdiag: draw the off-diagonal sign variates of V; schemes
        that never use the mixed Ihat_(k,l) skip them, leaving zeros

    Returns:
      WeakIncrementBatch
    """
    m, h = _check_m_h(m, h)
    shape = () if size is None else tuple(int(n) for n in size)
    u = stream.random(shape + (m,))
    # 1 for u >= 5/6, -1 for u < 1/6, else +0.0 (never -0.0), scaled
    ihat = np.empty(shape + (m,), order="F")
    np.subtract(u >= 5.0 / 6.0, u < 1.0 / 6.0, out=ihat, dtype=float)
    ihat *= math.sqrt(3.0 * h)
    signs = None
    if with_offdiag and m > 1:
        w = stream.random(shape + (m * (m - 1) // 2,))
        signs = np.where(w < 0.5, h, -h)
    v = np.empty(shape + (m, m), order="F")
    pair = 0
    for k in range(m):
        v[..., k, k] = -h
        for l in range(k):  # the strict lower triangle in row-major order
            if signs is None:
                v[..., k, l] = v[..., l, k] = 0.0
            else:
                v[..., k, l] = signs[..., pair]
                np.negative(signs[..., pair], out=v[..., l, k])
            pair += 1
    ihat.setflags(write=False)
    v.setflags(write=False)
    return WeakIncrementBatch(h=h, Ihat=ihat, V=v)


def support_batch(m, h):
    """Return the full joint support as one stacked batch.

    Args:
      m: number of driving Wiener components, 1 <= m <= MAX_ENUM_M
      h: step size, > 0

    Returns:
      (batch, probabilities): a WeakIncrementBatch with one leading
      axis of length 3^m 2^(m(m-1)/2) and the matching probability
      vector, which sums to 1
    """
    m, h = _check_m_h(m, h)
    if m > MAX_ENUM_M:
        raise IncrementError(
            "support enumeration is limited to m <= %d (size grows as "
            "3^m 2^(m(m-1)/2)); got m = %d" % (MAX_ENUM_M, m))
    root3h = math.sqrt(3.0 * h)
    point_values = (-root3h, 0.0, root3h)
    point_probs = (1.0 / 6.0, 2.0 / 3.0, 1.0 / 6.0)
    rows, cols = np.tril_indices(m, -1)
    npairs = len(rows)
    n = 3 ** m * 2 ** npairs
    ihat = np.zeros((n, m))
    v = np.zeros((n, m, m))
    probs = np.zeros(n)
    idx = np.arange(m)
    v[:, idx, idx] = -h
    pos = 0
    for digits in np.ndindex(*(3,) * m):
        p_ihat = 1.0
        for d in digits:
            p_ihat *= point_probs[d]
        values = [point_values[d] for d in digits]
        for signs in np.ndindex(*(2,) * npairs):
            ihat[pos] = values
            for (k, l, sgn) in zip(rows, cols, signs):
                v[pos, k, l] = h if sgn == 0 else -h
                v[pos, l, k] = -v[pos, k, l]
            probs[pos] = p_ihat * 0.5 ** npairs
            pos += 1
    ihat.setflags(write=False)
    v.setflags(write=False)
    probs.setflags(write=False)
    return WeakIncrementBatch(h=h, Ihat=ihat, V=v), probs
