import math

import numpy as np
import pytest

from srkweak.increments import (MAX_ENUM_M, CountingStream, IncrementError,
                                WeakIncrementBatch, derive_seed, draw,
                                substream, support_batch)


def _close(got, want, scale):
    return abs(got - want) <= 1e-14 * max(abs(want), scale)


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("h", [1.0, 0.01])
def test_exact_moments(m, h):
    batch, probs = support_batch(m, h)
    ihat = batch.Ihat
    pair = batch.ihat_pair()
    for k in range(m):
        for p, want in ((1, 0.0), (2, h), (3, 0.0), (4, 3 * h * h), (5, 0.0)):
            got = probs @ ihat[:, k] ** p
            assert _close(got, want, h ** (p / 2.0)), (k, p, got)
        for l in range(m):
            if l != k:
                assert _close(probs @ (ihat[:, k] * ihat[:, l]), 0.0, h)
            assert _close(probs @ pair[:, k, l], 0.0, h)
            assert _close(probs @ pair[:, k, l] ** 2, h * h / 2.0, h * h)


@pytest.mark.parametrize("m,size", [(1, 3), (2, 18), (3, 216), (4, 5184)])
def test_support_size(m, size):
    batch, probs = support_batch(m, 0.5)
    assert batch.Ihat.shape == (size, m)
    assert batch.V.shape == (size, m, m)
    assert abs(probs.sum() - 1.0) <= 1e-15
    assert (probs > 0.0).all()
    # no outcome listed twice
    flat = np.concatenate([batch.Ihat.reshape(size, -1),
                           batch.V.reshape(size, -1)], axis=1)
    assert len(np.unique(flat, axis=0)) == size


def test_support_values():
    h = 0.3
    batch, _ = support_batch(3, h)
    root3h = math.sqrt(3.0 * h)
    assert set(np.unique(batch.Ihat)) == {-root3h, 0.0, root3h}
    idx = np.arange(3)
    assert (batch.V[:, idx, idx] == -h).all()
    assert np.array_equal(batch.V, -np.swapaxes(batch.V, 1, 2)
                          - 2.0 * h * np.eye(3))
    offdiag = batch.V[:, 1, 0]
    assert set(np.unique(offdiag)) == {-h, h}


def test_ihat_pair_diagonal():
    batch, _ = support_batch(2, 0.7)
    pair = batch.ihat_pair()
    want = 0.5 * (batch.Ihat ** 2 - 0.7)
    idx = np.arange(2)
    assert np.allclose(pair[:, idx, idx], want, rtol=0.0, atol=1e-16)


def test_draw_reproducible():
    a = draw(3, 0.1, substream(42, 5), size=(7,))
    b = draw(3, 0.1, substream(42, 5), size=(7,))
    assert np.array_equal(a.Ihat, b.Ihat) and np.array_equal(a.V, b.V)
    c = draw(3, 0.1, substream(42, 6), size=(7,))
    assert not np.array_equal(a.Ihat, c.Ihat)


def test_draw_scalar_shape():
    inc = draw(2, 0.1, substream(0))
    assert inc.Ihat.shape == (2,) and inc.V.shape == (2, 2)
    assert inc.m == 2
    with pytest.raises(ValueError):
        inc.Ihat[0] = 1.0


def test_draw_consumption_order():
    # the draw is specified variate by variate, so it can be
    # reconstructed from the raw uniforms
    m, h, n = 3, 0.4, 11
    inc = draw(m, h, substream(9, 1), size=(n,))
    raw = substream(9, 1)
    u = raw.random((n, m))
    root3h = math.sqrt(3.0 * h)
    ihat = np.where(u < 1 / 6, -root3h, np.where(u >= 5 / 6, root3h, 0.0))
    assert np.array_equal(inc.Ihat, ihat)
    w = raw.random((n, m * (m - 1) // 2))
    rows, cols = np.tril_indices(m, -1)
    v = np.zeros((n, m, m))
    v[:, np.arange(m), np.arange(m)] = -h
    v[:, rows, cols] = np.where(w < 0.5, h, -h)
    v[:, cols, rows] = -v[:, rows, cols]
    assert np.array_equal(inc.V, v)


def test_draw_without_offdiag():
    cs = CountingStream(substream(3))
    inc = draw(3, 0.2, cs, size=(10,), with_offdiag=False)
    assert cs.count == 30
    off = inc.V.copy()
    off[:, np.arange(3), np.arange(3)] = 0.0
    assert not off.any()
    cs = CountingStream(substream(3))
    draw(3, 0.2, cs, size=(10,))
    assert cs.count == 30 + 10 * 3


class _FixedStream:
    """Stand-in generator that hands out chosen uniforms cyclically."""

    def __init__(self, values):
        self.values = np.asarray(values, dtype=float)
        self.pos = 0

    def random(self, size):
        n = int(np.prod(size))
        idx = np.arange(self.pos, self.pos + n) % len(self.values)
        self.pos += n
        return self.values[idx].reshape(size)


# the three-point and sign thresholds and the ends of [0, 1), each with
# its neighbour below, so every branch of the mappings is hit
_EDGE_UNIFORMS = [0.0, np.nextafter(1 / 6, 0.0), 1 / 6, 0.25,
                  np.nextafter(0.5, 0.0), 0.5, np.nextafter(5 / 6, 0.0),
                  5 / 6, 1.0 - 2.0 ** -53, 0.75, 0.1, 0.9, 0.6]


def _reference_draw(m, h, stream, shape, with_offdiag):
    """The draw as first written: nested np.where and a zero-filled V
    written by fancy indexing."""
    root3h = math.sqrt(3.0 * h)
    u = stream.random(shape + (m,))
    ihat = np.where(u < 1.0 / 6.0, -root3h,
                    np.where(u >= 5.0 / 6.0, root3h, 0.0))
    v = np.zeros(shape + (m, m))
    idx = np.arange(m)
    v[..., idx, idx] = -h
    if with_offdiag and m > 1:
        rows, cols = np.tril_indices(m, -1)
        w = stream.random(shape + (len(rows),))
        signs = np.where(w < 0.5, h, -h)
        v[..., rows, cols] = signs
        v[..., cols, rows] = -signs
    return ihat, v


def _same_bits(got, want):
    return got.shape == want.shape and (
        np.ascontiguousarray(got).tobytes()
        == np.ascontiguousarray(want).tobytes())


@pytest.mark.parametrize("m", [1, 2, 3, 4])
@pytest.mark.parametrize("with_offdiag", [True, False])
@pytest.mark.parametrize("size", [None, (13,), (2, 7)])
def test_draw_matches_reference_mapping_bitwise(m, with_offdiag, size):
    # signed zeros included: 0 * sqrt(3 h) must stay +0.0, and V holds
    # +0.0 off the diagonal when the signs are not drawn
    h = 0.3
    shape = () if size is None else size
    got = draw(m, h, _FixedStream(_EDGE_UNIFORMS), size=size,
               with_offdiag=with_offdiag)
    ihat, v = _reference_draw(m, h, _FixedStream(_EDGE_UNIFORMS), shape,
                              with_offdiag)
    assert _same_bits(got.Ihat, ihat)
    assert _same_bits(got.V, v)


def test_draw_is_path_contiguous():
    # Fortran order: each Ihat_k and each V_kl is one contiguous run
    # over the paths
    inc = draw(3, 0.2, substream(5), size=(17,))
    assert inc.Ihat.flags.f_contiguous and inc.V.flags.f_contiguous


def test_draw_frequencies():
    inc = draw(1, 1.0, substream(2024), size=(200000,))
    frac_zero = float(np.mean(inc.Ihat == 0.0))
    frac_up = float(np.mean(inc.Ihat > 0.0))
    assert abs(frac_zero - 2.0 / 3.0) < 0.01
    assert abs(frac_up - 1.0 / 6.0) < 0.01
    inc2 = draw(2, 1.0, substream(2025), size=(200000,))
    assert abs(float(np.mean(inc2.V[:, 1, 0] > 0)) - 0.5) < 0.01


@pytest.mark.parametrize("m,h", [
    (0, 1.0), (-1, 1.0), (1.5, 1.0), (True, 1.0), ("2", 1.0),
    (1, 0.0), (1, -0.5), (1, float("nan")), (1, float("inf")), (1, "h"),
    (1, True),
])
def test_invalid_arguments(m, h):
    with pytest.raises(IncrementError):
        draw(m, h, substream(0))
    with pytest.raises(IncrementError):
        support_batch(m, h)


def test_enumeration_size_limit():
    assert MAX_ENUM_M == 4
    with pytest.raises(IncrementError) as exc:
        support_batch(5, 1.0)
    assert "m <= 4" in str(exc.value)


def test_substream_and_seed_derivation():
    assert np.array_equal(substream(7, 0, 3).random(4),
                          substream(7, 0, 3).random(4))
    assert not np.array_equal(substream(7, 0, 3).random(4),
                              substream(7, 0, 4).random(4))
    assert derive_seed(7, 1) == derive_seed(7, 1)
    assert derive_seed(7, 1) != derive_seed(7, 2)
    assert isinstance(derive_seed(7, 1), int)


def test_batch_dataclass():
    batch = WeakIncrementBatch(h=0.5, Ihat=np.zeros((4, 2)),
                               V=np.zeros((4, 2, 2)))
    assert batch.m == 2
    assert batch.ihat_pair().shape == (4, 2, 2)
