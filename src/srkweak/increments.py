"""Driving random increments for weak-order stochastic Runge-Kutta steps.

For a step of size h the schemes consume, per trajectory,

  Ihat_k       for k = 1..m:  independent three-point variates taking
               the values -sqrt(3 h), 0, +sqrt(3 h) with probabilities
               1/6, 2/3, 1/6; they mimic the Wiener increments up to
               the moments needed for weak order two,
  Ihat_(k,l)   = (Ihat_k Ihat_l + V_kl) / 2: stand-ins for the double
               integrals, built from an auxiliary matrix V with
               V_kk = -h, V_kl = +/-h with probability 1/2 each for
               l < k, and V_lk = -V_kl.

Exact moments of the three-point law: E I = E I^3 = E I^5 = 0,
E I^2 = h, E I^4 = 3 h^2; and E Ihat_(k,l) = 0, E Ihat_(k,l)^2 = h^2/2
for k != l.

Only V_kl for l < k is random, so a batch holds just those m(m-1)/2
signs, and WeakIncrementBatch.ihat_pair() alone applies V_kk = -h and
V_lk = -V_kl.  Sampling draws exactly one uniform per variate from a
counter-based generator (Philox), in a fixed documented order: first
the m three-point variates, then the signs in row-major order.  Schemes
that never touch the off-diagonal Ihat_(k,l) skip the sign draws
(with_offdiag=False), which keeps the random-variable count equal to
what the step actually needs.

draw() returns Ihat and the signs in Fortran order, so that with a
leading path axis each Ihat[..., k] and each sign is contiguous over
the paths; the stepper multiplies them into path-contiguous states.
The uniforms themselves are drawn in C order, so the layout does not
change which uniform feeds which variate.

A batch of n paths draws each block as one (n, k) C-ordered array, so
path i reads the k uniforms in row i of the block.  _RowWindow hands
a part of the paths, rows [lo, hi), exactly the rows the whole batch
would have drawn: Philox yields 4 doubles per counter, and its
advance() moves the counter directly, so any offset in the stream is
reached by one advance and at most 3 discarded doubles.  Parts of a
batch can then be stepped one after another, each on its own copy of
the batch stream, and give the same numbers as the whole batch.

The joint support is finite, of size 3^m 2^(m(m-1)/2), so expectations
after a few steps can be computed exactly by enumeration; support_batch()
returns it as one stacked batch with its probabilities for m <= 4,
built through the same uniform-to-increment mapping as draw().  The
support is built once per (m, h) and kept in a small private cache;
its arrays are read-only and the batch is frozen, so every caller can
share it.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .tableau import Error, _check_int, _is_finite

MAX_ENUM_M = 4
# supports kept by support_batch, the least recently used evicted first
_SUPPORT_CACHE_SIZE = 16
# doubles per Philox counter: one 64-bit word of the 4x64 output each
_PHILOX_DOUBLES = 4


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


class _RowWindow:
    """Rows [lo, hi) of the uniforms a batch of n paths draws.

    Each random((hi - lo, ...)) call returns rows [lo, hi) of the next
    (n, ...) C-ordered block that n paths would draw from the stream
    as given, bit for bit.  The stream is positioned only when a read
    does not start where the last one ended, so a window over the
    whole batch never seeks.

    Args:
      stream: numpy Generator backed by Philox, owned by the window
      n: rows of each block the whole batch draws
      lo, hi: the rows this window reads, 0 <= lo < hi <= n
    """

    def __init__(self, stream, n, lo, hi):
        if not isinstance(stream.bit_generator, np.random.Philox):
            raise IncrementError("a row window needs a Philox stream, got %s"
                                 % type(stream.bit_generator).__name__)
        if not 0 <= lo < hi <= n:
            raise IncrementError("rows [%r, %r) are not a part of %r rows"
                                 % (lo, hi, n))
        self._stream = stream
        self._start = stream.bit_generator.state
        # doubles of the start state's last counter not yet handed out
        self._buffered = _PHILOX_DOUBLES - self._start["buffer_pos"]
        self._n, self._lo, self._rows = n, lo, hi - lo
        self._block = 0  # where the next block starts in the batch stream
        self._at = 0  # where the stream stands, counted from the start

    def random(self, size):
        shape = (size,) if np.ndim(size) == 0 else tuple(size)
        if shape[:1] != (self._rows,):
            raise IncrementError("this window reads %d rows, asked for %r"
                                 % (self._rows, size))
        k = math.prod(shape[1:])
        first = self._block + self._lo * k
        if first != self._at:
            self._seek(first)
        self._block += self._n * k
        self._at = first + self._rows * k
        return self._stream.random(shape)

    def _seek(self, offset):
        bitgen = self._stream.bit_generator
        bitgen.state = self._start
        past = offset - self._buffered
        if past >= 0:  # advance() also empties the buffer
            bitgen.advance(past // _PHILOX_DOUBLES)
            offset = past % _PHILOX_DOUBLES
        self._stream.random(offset)


@dataclass(frozen=True)
class WeakIncrementBatch:
    """The random input of one scheme step of size h.

    Ihat has shape (..., m); leading axes, if any, enumerate
    independent realisations.  signs has shape (..., m(m-1)/2) and
    holds V_kl for l < k in row-major order, each +h or -h; it is None
    when draw() skipped them (with_offdiag off).  draw() stores
    both in Fortran order and read-only; any layout gives the same
    steps.
    """

    h: float
    Ihat: np.ndarray
    signs: np.ndarray | None = None

    @property
    def m(self):
        return self.Ihat.shape[-1]

    def ihat_pair(self):
        """Return the matrix Ihat_(k,l) = (Ihat_k Ihat_l + V_kl)/2.

        Shape (..., m, m), a new array; x - h and x - s are x + (-h) and
        x + (-s) bit for bit.  Without signs, the entries off the
        diagonal, which no step reads, are Ihat_k Ihat_l / 2.
        """
        pair = self.Ihat[..., :, None] * self.Ihat[..., None, :]
        for k in range(self.m):
            pair[..., k, k] -= self.h
        if self.signs is not None:
            lower = [(k, l) for k in range(self.m) for l in range(k)]
            for p, (k, l) in enumerate(lower):
                pair[..., k, l] += self.signs[..., p]
                pair[..., l, k] -= self.signs[..., p]
        pair *= 0.5
        return pair


def _check_m_h(m, h):
    _check_int("m", m, 1, IncrementError)
    if not (_is_finite(h) and h > 0.0):
        raise IncrementError("h must be a finite positive number, got %r"
                             % (h,))
    if not math.isfinite(3.0 * float(h)):
        raise IncrementError("h = %r is too large: the three-point value "
                             "sqrt(3 h) is not finite" % (h,))
    return int(m), float(h)


def _increments(h, u, w):
    """Map uniforms to (Ihat, signs), read-only and in Fortran order.

    u (..., m): u < 1/6 gives -sqrt(3 h), u >= 5/6 +sqrt(3 h), else 0.
    w (..., m(m-1)/2), one per V_kl, l < k, in row-major order: w < 1/2
    gives +h, else -h; w None gives signs None.
    """
    # 1 for u >= 5/6, -1 for u < 1/6, else +0.0 (never -0.0), scaled;
    # formed in the uniforms' C order, then laid out once
    ihat = (u >= 5.0 / 6.0).astype(float)
    ihat -= u < 1.0 / 6.0
    ihat *= math.sqrt(3.0 * h)
    ihat = np.asfortranarray(ihat)
    ihat.setflags(write=False)
    signs = None
    if w is not None:
        signs = np.asfortranarray(np.where(w < 0.5, h, -h))
        signs.setflags(write=False)
    return ihat, signs


def draw(m, h, stream, size=None, with_offdiag=True):
    """Sample one weak increment batch.

    Consumption order from the stream, one uniform per variate: the m
    three-point variates first, then, if with_offdiag holds, the
    m(m-1)/2 two-point sign variates for V_kl, l < k, in row-major order
    (none for m = 1); _increments() maps them to values.

    Args:
      m: number of driving Wiener components, >= 1
      h: step size, > 0
      stream: generator with a random(size) method
      size: leading shape for independent realisations, an int n
        meaning (n,); None gives a single scalar realisation
      with_offdiag: draw the sign variates V_kl, l < k; schemes that
        never use the mixed Ihat_(k,l) skip them, and the batch holds no
        signs

    Returns:
      WeakIncrementBatch
    """
    m, h = _check_m_h(m, h)
    if size is None:
        shape = ()
    else:
        shape = (size,) if np.ndim(size) == 0 else tuple(size)
        for n in shape:
            _check_int("each size entry", n, 0, IncrementError)
        shape = tuple(int(n) for n in shape)
    u = stream.random(shape + (m,))
    w = stream.random(shape + (m * (m - 1) // 2,)) if with_offdiag else None
    return WeakIncrementBatch(h, *_increments(h, u, w))


def support_batch(m, h):
    """Return the full joint support as one stacked batch.

    Atoms are listed by their digits, the m three-point digits first,
    then the sign digits, the last varying fastest; each digit is the
    uniform (0, 1/2 or 1; 0 or 1 for a sign) that _increments() maps.

    Args:
      m: number of driving Wiener components, 1 <= m <= MAX_ENUM_M
      h: step size, > 0

    Returns:
      (batch, probabilities): a WeakIncrementBatch with one leading
      axis of length 3^m 2^(m(m-1)/2), in Fortran order, and the
      matching probability vector, which sums to 1 up to rounding
      (1 - 1.1e-16 for m = 1, 2 and 3, exactly 1 for m = 4); both are
      shared by every call with the same m and h, and read-only
    """
    m, h = _check_m_h(m, h)
    if m > MAX_ENUM_M:
        raise IncrementError(
            "support enumeration is limited to m <= %d (size grows as "
            "3^m 2^(m(m-1)/2)); got m = %d" % (MAX_ENUM_M, m))
    return _support(m, h)


@functools.lru_cache(maxsize=_SUPPORT_CACHE_SIZE)
def _support(m, h):
    npairs = m * (m - 1) // 2
    digits = np.array(list(itertools.product(
        *[range(3)] * m, *[range(2)] * npairs)))
    u = np.array([0.0, 0.5, 1.0])[digits[:, :m]]
    w = np.array([0.0, 1.0])[digits[:, m:]]
    batch = WeakIncrementBatch(h, *_increments(h, u, w))
    point_probs = np.array([1.0 / 6.0, 2.0 / 3.0, 1.0 / 6.0])
    probs = np.ones(len(digits))
    for d in digits[:, :m].T:  # a left-to-right product over the digits
        probs = probs * point_probs[d]
    probs = probs * 0.5 ** npairs
    probs.setflags(write=False)
    return batch, probs
