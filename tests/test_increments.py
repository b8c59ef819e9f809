import math

import numpy as np
import pytest

from srkweak.increments import (MAX_ENUM_M, CountingStream, IncrementError,
                                WeakIncrementBatch, _RowWindow, derive_seed,
                                draw, substream, support_batch)


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
    assert batch.signs.shape == (size, m * (m - 1) // 2)
    assert abs(probs.sum() - 1.0) <= 1e-15
    assert (probs > 0.0).all()
    # no outcome listed twice
    flat = np.concatenate([batch.Ihat, batch.signs], axis=1)
    assert len(np.unique(flat, axis=0)) == size


def test_support_values():
    h = 0.3
    batch, _ = support_batch(3, h)
    root3h = math.sqrt(3.0 * h)
    assert set(np.unique(batch.Ihat)) == {-root3h, 0.0, root3h}
    # each sign is exactly +h or -h
    assert batch.signs.shape == (len(batch.Ihat), 3)
    for p in range(3):
        assert set(np.unique(batch.signs[:, p])) == {-h, h}


def test_ihat_pair_diagonal():
    batch, _ = support_batch(2, 0.7)
    pair = batch.ihat_pair()
    want = 0.5 * (batch.Ihat ** 2 - 0.7)
    idx = np.arange(2)
    assert np.allclose(pair[:, idx, idx], want, rtol=0.0, atol=1e-16)


def test_draw_reproducible():
    a = draw(3, 0.1, substream(42, 5), size=(7,))
    b = draw(3, 0.1, substream(42, 5), size=(7,))
    assert np.array_equal(a.Ihat, b.Ihat)
    assert np.array_equal(a.signs, b.signs)
    c = draw(3, 0.1, substream(42, 6), size=(7,))
    assert not np.array_equal(a.Ihat, c.Ihat)


def test_draw_scalar_shape():
    inc = draw(2, 0.1, substream(0))
    assert inc.Ihat.shape == (2,) and inc.signs.shape == (1,)
    assert inc.m == 2
    for arr in (inc.Ihat, inc.signs):
        with pytest.raises(ValueError):
            arr[0] = 1.0


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
    assert np.array_equal(inc.signs, np.where(w < 0.5, h, -h))


def test_draw_without_offdiag():
    cs = CountingStream(substream(3))
    inc = draw(3, 0.2, cs, size=(10,), with_offdiag=False)
    assert cs.count == 30
    assert inc.signs is None
    cs = CountingStream(substream(3))
    assert draw(3, 0.2, cs, size=(10,)).signs.shape == (10, 3)
    assert cs.count == 30 + 10 * 3
    # m = 1 has no sign to draw
    cs = CountingStream(substream(3))
    assert draw(1, 0.2, cs, size=(10,)).signs.shape == (10, 0)
    assert cs.count == 10


class _FixedStream:
    """Stand-in stream that hands out chosen 64-bit words cyclically:
    as themselves through words(), and as numpy's uniforms of them,
    (word >> 11) 2^-53, through random()."""

    def __init__(self, words):
        self.values = np.asarray(words, dtype=np.uint64)
        self.pos = 0

    def words(self, size):
        n = int(np.prod(size))
        idx = np.arange(self.pos, self.pos + n) % len(self.values)
        self.pos += n
        return self.values[idx].reshape(size)

    def random(self, size):
        return (self.words(size) >> np.uint64(11)) * 2.0 ** -53


# the least words whose uniform is >= 1/6 and >= 5/6
_T1 = 3074457345618259968
_T5 = 15372286728091293696
# each threshold with its neighbour below, three of the 1536 words in
# [int((1/6) 2^64), T1) whose uniform is still below 1/6, the sign
# threshold 2^63 with its neighbour below, the ends of the word range
# and words inside each branch, so every branch of the mappings is hit;
# the old edge uniforms 1/6 and nextafter(1/6, 0) are no word's uniform
_EDGE_WORDS = [_T1 - 1, _T1, _T5 - 1, _T5, 3074457345618258432,
               3074457345618259200, _T1 - 2, 2 ** 63 - 1, 2 ** 63, 0,
               2 ** 64 - 1, 2 ** 62, 2 ** 64 - 2 ** 61]


def test_edge_words_sit_at_the_uniform_thresholds():
    # the uniforms are multiples of 2^-53, and 1/6, a multiple of
    # 2^-55, is none: T1 and T1 - 1 give its neighbours on that grid
    u = _FixedStream(_EDGE_WORDS).random(len(_EDGE_WORDS))
    assert u[0] < 1 / 6 < u[1] == u[0] + 2.0 ** -53
    assert u[3] == 5 / 6 and u[2] == np.nextafter(5 / 6, 0.0)
    assert int(1 / 6 * 2 ** 64) == _EDGE_WORDS[4] == _T1 - 1536
    assert (u[4:7] < 1 / 6).all() and u[8] == 0.5 > u[7]
    assert u[9] == 0.0 and u[10] == 1.0 - 2.0 ** -53


def _reference_draw(m, h, stream, shape, with_offdiag):
    """The draw as first written: nested np.where for both variates."""
    root3h = math.sqrt(3.0 * h)
    u = stream.random(shape + (m,))
    ihat = np.where(u < 1.0 / 6.0, -root3h,
                    np.where(u >= 5.0 / 6.0, root3h, 0.0))
    if not with_offdiag:
        return ihat, None
    w = stream.random(shape + (m * (m - 1) // 2,))
    return ihat, np.where(w < 0.5, h, -h)


def _same_bits(got, want):
    return got.shape == want.shape and (
        np.ascontiguousarray(got).tobytes()
        == np.ascontiguousarray(want).tobytes())


@pytest.mark.parametrize("m", [1, 2, 3, 4])
@pytest.mark.parametrize("with_offdiag", [True, False])
@pytest.mark.parametrize("size", [None, (13,), (2, 7)])
def test_draw_matches_reference_mapping_bitwise(m, with_offdiag, size):
    # signed zeros included: 0 * sqrt(3 h) must stay +0.0
    h = 0.3
    shape = () if size is None else size
    got = draw(m, h, _FixedStream(_EDGE_WORDS), size=size,
               with_offdiag=with_offdiag)
    ihat, signs = _reference_draw(m, h, _FixedStream(_EDGE_WORDS), shape,
                                  with_offdiag)
    assert _same_bits(got.Ihat, ihat)
    if with_offdiag:
        assert _same_bits(got.signs, signs)
    else:
        assert got.signs is None


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("with_offdiag", [True, False])
def test_pcg64_draw_matches_its_own_uniforms_bitwise(m, with_offdiag):
    # any accepted Generator, not only Philox, gives the increments
    # of its own random() uniforms
    got = draw(m, 0.3, np.random.default_rng(17), size=(1000,),
               with_offdiag=with_offdiag)
    ihat, signs = _reference_draw(m, 0.3, np.random.default_rng(17),
                                  (1000,), with_offdiag)
    assert _same_bits(got.Ihat, ihat)
    if with_offdiag:
        assert _same_bits(got.signs, signs)


class _UniformsOnly:
    """A stream with random(size) and nothing else."""

    def __init__(self):
        self.calls = 0

    def random(self, size=None):
        self.calls += 1
        return np.zeros(size)


def test_streams_without_64_bit_words_are_refused():
    # MT19937's raw words have 32 bits, all below T1: unrefused, every
    # Ihat would be -sqrt(3 h); both refusals come before a word is read
    mt = np.random.Generator(np.random.MT19937(0))
    key, pos = mt.bit_generator.state["state"].values()
    with pytest.raises(IncrementError, match="MT19937"):
        draw(1, 0.5, mt, size=(4,))
    counted = CountingStream(mt)
    with pytest.raises(IncrementError, match="MT19937"):
        draw(2, 0.5, counted, size=(4,))
    assert counted.count == 0
    after = mt.bit_generator.state["state"]
    assert np.array_equal(after["key"], key) and after["pos"] == pos
    uniforms = _UniformsOnly()
    with pytest.raises(IncrementError, match="_UniformsOnly"):
        draw(2, 0.5, uniforms, size=(4,))
    assert uniforms.calls == 0


def test_draw_is_path_contiguous():
    # Fortran order: each Ihat_k and each sign is one contiguous run
    # over the paths, and both arrays are read-only
    inc = draw(3, 0.2, substream(5), size=(17,))
    for arr in (inc.Ihat, inc.signs):
        assert arr.flags.f_contiguous and not arr.flags.writeable


def _reference_support(m, h):
    """The support as first enumerated: nested loops over the digits,
    with the three-point values and the signs written out."""
    root3h = math.sqrt(3.0 * h)
    point_values = (-root3h, 0.0, root3h)
    point_probs = (1.0 / 6.0, 2.0 / 3.0, 1.0 / 6.0)
    rows, cols = np.tril_indices(m, -1)
    npairs = len(rows)
    n = 3 ** m * 2 ** npairs
    ihat = np.zeros((n, m))
    signs = np.zeros((n, npairs))
    probs = np.zeros(n)
    pos = 0
    for digits in np.ndindex(*(3,) * m):
        p_ihat = 1.0
        for d in digits:
            p_ihat *= point_probs[d]
        values = [point_values[d] for d in digits]
        for sign_digits in np.ndindex(*(2,) * npairs):
            ihat[pos] = values
            for p, sgn in enumerate(sign_digits):
                signs[pos, p] = h if sgn == 0 else -h
            probs[pos] = p_ihat * 0.5 ** npairs
            pos += 1
    return ihat, signs, probs


@pytest.mark.parametrize("m", [1, 2, 3, 4])
@pytest.mark.parametrize("h", [0.25, 0.3, 1.0, 1e-3])
def test_support_matches_reference_enumeration_bitwise(m, h):
    batch, probs = support_batch(m, h)
    ihat, signs, want_probs = _reference_support(m, h)
    assert _same_bits(batch.Ihat, ihat)
    assert _same_bits(batch.signs, signs)
    assert _same_bits(probs, want_probs)
    assert batch.Ihat.flags.f_contiguous and batch.signs.flags.f_contiguous
    for arr in (batch.Ihat, batch.signs, probs):
        assert not arr.flags.writeable


def test_support_is_built_once_per_step_size():
    first = support_batch(2, 0.5)
    assert support_batch(2, 0.5) is first
    assert support_batch(np.int64(2), np.float64(0.5)) is first
    assert support_batch(2, 0.25) is not first
    assert support_batch(1, 0.5) is not first
    batch, probs = first
    for arr in (batch.Ihat, batch.signs, probs):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 1.0
    for m in range(1, MAX_ENUM_M + 1):
        assert abs(support_batch(m, 0.5)[1].sum() - 1.0) <= 1e-15


def test_draw_frequencies():
    inc = draw(1, 1.0, substream(2024), size=(200000,))
    frac_zero = float(np.mean(inc.Ihat == 0.0))
    frac_up = float(np.mean(inc.Ihat > 0.0))
    assert abs(frac_zero - 2.0 / 3.0) < 0.01
    assert abs(frac_up - 1.0 / 6.0) < 0.01
    inc2 = draw(2, 1.0, substream(2025), size=(200000,))
    assert abs(float(np.mean(inc2.signs[:, 0] > 0)) - 0.5) < 0.01


@pytest.mark.parametrize("m,h", [
    (0, 1.0), (-1, 1.0), (1.5, 1.0), (True, 1.0), ("2", 1.0),
    (1, 0.0), (1, -0.5), (1, float("nan")), (1, float("inf")), (1, "h"),
    (1, True), (1, 1e308), (1, np.float64(1e308)),
])
def test_invalid_arguments(m, h):
    with pytest.raises(IncrementError):
        draw(m, h, substream(0))
    with pytest.raises(IncrementError):
        support_batch(m, h)


def test_largest_step_sizes():
    # 3 h must be finite: past float max / 3 the values would be
    # -inf, 0 * inf = nan and inf
    root = math.sqrt(3.0 * 5e307)
    assert support_batch(1, 5e307)[0].Ihat.tolist() == [[-root], [0.0],
                                                         [root]]
    with pytest.raises(IncrementError, match=r"^h = 1e\+308 is too large: "
                       r"the three-point value sqrt\(3 h\) is not finite$"):
        draw(1, 1e308, substream(0))


@pytest.mark.parametrize("size", [5, np.int64(5), (5,), [5]])
def test_draw_accepts_an_int_size(size):
    # an int n means (n,), as for numpy's own random(size)
    got = draw(2, 0.5, substream(0), size=size)
    want = draw(2, 0.5, substream(0), size=(5,))
    assert got.Ihat.shape == (5, 2) and got.signs.shape == (5, 1)
    assert np.array_equal(got.Ihat, want.Ihat)
    assert np.array_equal(got.signs, want.signs)
    assert draw(1, 0.5, substream(0), size=0).Ihat.shape == (0, 1)


@pytest.mark.parametrize("size", [-1, (2, -1), 2.5, (2.0,), True, (3, True),
                                  "3", (None,)])
def test_draw_rejects_a_bad_size(size):
    with pytest.raises(IncrementError, match="size entry"):
        draw(1, 0.5, substream(0), size=size)


def _bits(a):
    return np.ascontiguousarray(a).tobytes()


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("with_offdiag", [True, False])
@pytest.mark.parametrize("n", [1, 5, 7, 10])
@pytest.mark.parametrize("used", [0, 1])
def test_row_window_gives_the_rows_of_a_whole_draw(m, with_offdiag, n, used):
    # every window [lo, hi), so every split of n paths into parts and
    # every starting offset, also those that are not a multiple of the
    # 4 doubles of a Philox counter; the stream may start part-used
    def stream():
        s = substream(31, m, n)
        s.random(used)
        return s

    whole = stream()
    steps = [draw(m, 0.3, whole, size=(n,), with_offdiag=with_offdiag)
             for _ in range(3)]
    for lo in range(n):
        for hi in range(lo + 1, n + 1):
            window = _RowWindow(stream(), n, lo, hi)
            for want in steps:
                got = draw(m, 0.3, window, size=(hi - lo,),
                           with_offdiag=with_offdiag)
                assert _bits(got.Ihat) == _bits(want.Ihat[lo:hi])
                if with_offdiag:
                    assert _bits(got.signs) == _bits(want.signs[lo:hi])
                else:
                    assert got.signs is None


def test_whole_batch_window_never_seeks():
    window = _RowWindow(substream(4), 6, 0, 6)
    window._seek = lambda offset: pytest.fail("seeked to %d" % offset)
    plain = substream(4)
    for _ in range(3):
        got = draw(3, 0.5, window, size=(6,))
        want = draw(3, 0.5, plain, size=(6,))
        assert _bits(got.Ihat) == _bits(want.Ihat)
        assert _bits(got.signs) == _bits(want.signs)


def test_row_window_refusals():
    with pytest.raises(IncrementError, match="Philox"):
        _RowWindow(np.random.default_rng(0), 5, 0, 5)
    window = _RowWindow(substream(0), 5, 1, 3)
    for size in [(3, 2), (5,), 5, None]:
        with pytest.raises(IncrementError, match="reads 2 rows"):
            window.words(size)
    with pytest.raises(IncrementError, match="reads 2 rows"):
        draw(2, 0.5, window, size=(5,))
    for lo, hi in [(-1, 2), (2, 2), (0, 6)]:
        with pytest.raises(IncrementError, match="not a part"):
            _RowWindow(substream(0), 5, lo, hi)


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
    batch = WeakIncrementBatch(h=0.5, Ihat=np.zeros((4, 2)))
    assert batch.m == 2 and batch.signs is None
    assert batch.ihat_pair().shape == (4, 2, 2)
    batch = WeakIncrementBatch(0.5, np.zeros((4, 3)), np.full((4, 3), 0.5))
    assert batch.m == 3 and batch.ihat_pair().shape == (4, 3, 3)


@pytest.mark.parametrize("m", [1, 2, 3, 4])
@pytest.mark.parametrize("size", [(7,), (2, 5)])
def test_undrawn_v_is_one_read_only_matrix(m, size):
    # without sign variates V is -h I at every path, and the batch
    # stores nothing for it: signs is None, and ihat_pair() applies the
    # diagonal, (Ihat_k^2 - h)/2 bit for bit
    h = 0.3
    inc = draw(m, h, substream(4), size=size, with_offdiag=False)
    assert inc.signs is None and not inc.Ihat.flags.writeable
    pair = inc.ihat_pair()
    assert pair.shape == size + (m, m)
    for k in range(m):
        want = (inc.Ihat[..., k] ** 2 - h) / 2
        assert _bits(pair[..., k, k]) == _bits(want)


def _paper_v(batch):
    """V by the paper's rule, written out: V_kk = -h, V_kl the drawn sign
    for l < k, V_lk = -V_kl; only the diagonal without signs."""
    m = batch.m
    v = np.zeros(batch.Ihat.shape + (m,))
    for k in range(m):
        v[..., k, k] = -batch.h
    if batch.signs is not None:
        rows, cols = np.tril_indices(m, -1)  # row-major, like the signs
        v[..., rows, cols] = batch.signs
        v[..., cols, rows] = -batch.signs
    return v


def _batches(m):
    h = 0.25
    yield support_batch(m, h)[0]
    for with_offdiag in (True, False):
        yield draw(m, h, substream(8, m), size=(50,),
                   with_offdiag=with_offdiag)
        yield draw(m, h, substream(9, m), with_offdiag=with_offdiag)
    # signed zeros and exact cancellation: products of +/-0.5 are +/-h,
    # so x - h and x +/- s can be exactly 0.0, and a +/-0.0 factor gives
    # products of either sign of zero
    rng = np.random.default_rng(m)
    ihat = rng.choice([-0.5, -0.0, 0.0, 0.5], size=(64, m))
    signs = rng.choice([-h, h], size=(64, m * (m - 1) // 2))
    yield WeakIncrementBatch(h, ihat, signs)
    yield WeakIncrementBatch(h, ihat)


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_ihat_pair_is_the_paper_formula_bitwise(m):
    # every entry a step reads: the diagonal always, the entries off it
    # when the signs were drawn
    for batch in _batches(m):
        got = batch.ihat_pair()
        ihat = batch.Ihat
        want = 0.5 * (ihat[..., :, None] * ihat[..., None, :]
                      + _paper_v(batch))
        read = np.eye(m, dtype=bool) if batch.signs is None \
            else np.ones((m, m), dtype=bool)
        assert got.shape == want.shape
        assert _bits(got[..., read]) == _bits(want[..., read])
