import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bitmotor import kernels, layers
from bitmotor.core import pack_channel_words, sign_values, unpack, unpack_channel_words
from bitmotor.layers import (
    BNParams,
    EncoderLayer,
    PackedEncoder,
    ThresholdParams,
    bn_forward,
    conv2d_float,
    encoder_forward,
    encoder_geometry,
    fc_float,
    fold_bn_sign,
    maxpool,
    nn_resize,
    pool_out_size,
    random_encoder_params,
)
from bitmotor.kernels import PIXEL_MAX
from bitmotor.training import DcaeNet, TrainConfig, _pool_fwd


def signs(fired):
    """Bools of a packed kernel (True for +1) -> +-1.0 values."""
    return np.where(fired, np.float32(1.0), np.float32(-1.0))


def pack_map(bits):
    """(H, W, C) bools, True for +1 -> the packed map the conv kernels take."""
    return np.packbits(bits, axis=-1, bitorder="little")


def unpack_map(x, c):
    """Packed (H, W, ceil(c/8)) uint8 map -> (H, W, c) bools. Fails unless
    the map is C-contiguous with zero tail bits."""
    assert x.dtype == np.uint8 and x.shape[2] == -(-c // 8) and x.flags.c_contiguous, (x.dtype, x.shape)
    bits = np.unpackbits(x, axis=-1, bitorder="little").astype(bool)
    assert not bits[..., c:].any(), "nonzero tail bits"
    return bits[..., :c]


def run_conv(xs, ws, t):
    """BinConvKernel with folded thresholds ``t`` on a +-1 map; +-1 out."""
    out = kernels.BinConvKernel(ws, t.tau, t.flip)(pack_map(xs > 0))
    return signs(unpack_map(out, ws.shape[0]))


def run_pool(xs):
    """pool_or on the packed map of a +-1 map; +-1 out."""
    return signs(unpack_map(kernels.pool_or(pack_map(xs > 0)), xs.shape[2]))


def run_fc(xv, wv, t):
    """BinFcKernel with folded thresholds ``t`` on a +-1 vector; +-1 out."""
    k = kernels.BinFcKernel(wv, t.tau, t.flip)
    return signs(unpack_channel_words(k(pack_channel_words(xv > 0)), k.out_features))


def naive_conv(x, w, pad=1, pad_value=0.0):
    """Six-loop cross-correlation oracle, channels-last."""
    h, wd, c = x.shape
    o_ch = w.shape[0]
    xp = np.full((h + 2 * pad, wd + 2 * pad, c), pad_value, np.float64)
    xp[pad : pad + h, pad : pad + wd] = x
    ho, wo = h + 2 * pad - 2, wd + 2 * pad - 2
    out = np.zeros((ho, wo, o_ch))
    for oy in range(ho):
        for ox in range(wo):
            for oc in range(o_ch):
                acc = 0.0
                for ky in range(3):
                    for kx in range(3):
                        for ic in range(c):
                            acc += xp[oy + ky, ox + kx, ic] * w[oc, ic, ky, kx]
                out[oy, ox, oc] = acc
    return out


def random_bn(rng, c, scale=1.0, signed_gamma=True):
    gamma = rng.uniform(0.2, 2.0, c)
    if signed_gamma:
        gamma *= rng.choice([-1.0, 1.0], c)
    return BNParams(
        gamma=gamma,
        beta=rng.normal(0.0, 1.0, c),
        mu=rng.normal(0.0, 0.2 * scale, c),
        sigma2=rng.uniform(0.05, 1.0, c) * scale**2,
    )


def edge_bn(rng, c, window):
    """BN for c channels cycling through four cases: plain, zero variance,
    and mean far beyond +-window with zero beta, so that the folded
    threshold lies past every reachable sum (never or always fires).
    gamma has a random sign, so each case also appears flipped.
    """
    bn = random_bn(rng, c, scale=np.sqrt(window))
    case = rng.permutation(np.arange(c) % 4)
    bn.sigma2[case == 1] = 0.0
    far = case >= 2
    bn.mu[far] = np.where(case[far] == 2, 1.0, -1.0) * rng.uniform(1.5, 4.0, far.sum()) * window
    bn.beta[far] = 0.0
    return bn


EDGE_CHANNELS = (1, 3, 63, 64, 65, 130)


def flip_set(flips, o):
    """Per-channel flips for ``o`` channels: "none", "all" or "mixed"."""
    return {"none": np.zeros(o, bool), "all": np.ones(o, bool), "mixed": np.arange(o) % 2 == 1}[flips]


class TestConvFloat:
    def test_identity_kernel(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(9, 9, 4)).astype(np.float32)
        w = np.zeros((4, 4, 3, 3), np.float32)
        for i in range(4):
            w[i, i, 1, 1] = 1.0
        out = conv2d_float(x, w)
        assert np.allclose(out, x)

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(1)
        for c, o in [(1, 1), (3, 5), (4, 2)]:
            x = rng.normal(size=(5, 5, c)).astype(np.float32)
            w = rng.normal(size=(o, c, 3, 3)).astype(np.float32)
            got = conv2d_float(x, w)
            want = naive_conv(x, w)
            assert np.allclose(got, want, atol=1e-5)

    def test_minus_one_padding_matches_oracle(self):
        rng = np.random.default_rng(2)
        x = rng.choice([-1.0, 1.0], size=(6, 6, 3)).astype(np.float32)
        w = rng.choice([-1.0, 1.0], size=(4, 3, 3, 3)).astype(np.float32)
        got = conv2d_float(x, w, pad_value=-1.0)
        want = naive_conv(x, w, pad=1, pad_value=-1.0)
        assert np.allclose(got, want, atol=1e-5)

    def test_channel_mismatch(self):
        with pytest.raises(ValueError):
            conv2d_float(np.zeros((5, 5, 2), np.float32), np.zeros((1, 3, 3, 3), np.float32))

    def test_weight_shape(self):
        x = np.zeros((5, 5, 2), np.float32)
        for shape in [(1, 2, 3), (1, 2, 5, 5), (1, 2, 3, 3, 1)]:
            with pytest.raises(ValueError, match=r"\(O, C, 3, 3\)"):
                conv2d_float(x, np.zeros(shape, np.float32))


class TestMaxPool:
    def test_table_geometry_chain(self):
        sizes = [142]
        for _ in range(4):
            sizes.append(pool_out_size(sizes[-1]))
        assert sizes == [142, 70, 34, 16, 7]

    def test_constant_input(self):
        x = np.full((9, 9, 2), 3.5, np.float32)
        out = maxpool(x)
        assert out.shape == (4, 4, 2)
        assert np.all(out == 3.5)

    def test_binary_window_with_any_plus_one(self):
        x = -np.ones((5, 5, 1), np.float32)
        x[2, 2, 0] = 1.0
        out = run_pool(x)
        assert np.all(out[:, :, 0] == 1.0)

    def test_binary_matches_float(self):
        rng = np.random.default_rng(3)
        for shape in [(11, 9, 5), (8, 3, 5), (3, 12, 5), (10, 10, 2)]:
            x = rng.choice([-1.0, 1.0], size=shape).astype(np.float32)
            assert np.array_equal(run_pool(x), maxpool(x)), shape

    def test_too_small_input(self):
        with pytest.raises(ValueError):
            maxpool(np.zeros((2, 2, 1), np.float32))
        for h, w in [(2, 5), (5, 2)]:
            x = np.zeros((h, w, 1), np.float32)
            with pytest.raises(ValueError):
                kernels.pool_or(pack_map(x > 0))
            with pytest.raises(ValueError):
                _pool_fwd(x[None])


class TestFc:
    def test_float_identity(self):
        x = np.arange(4, dtype=np.float32)
        assert np.allclose(fc_float(x, np.eye(4, dtype=np.float32)), x)

    def test_binary_all_ones(self):
        n = 12544
        x = np.ones(n, np.float32)
        w = np.ones((16, n), np.float32)
        t = ThresholdParams(np.zeros(16, np.int32), np.zeros(16, np.bool_))
        out = run_fc(x, w, t)
        assert np.all(out == 1.0)  # pre-activation 12544 >= 0

    def test_binary_matches_matvec_oracle(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            n_in = int(rng.integers(1, 200))
            n_out = int(rng.integers(1, 40))
            xv = rng.choice([-1.0, 1.0], size=n_in).astype(np.float32)
            wv = rng.choice([-1.0, 1.0], size=(n_out, n_in)).astype(np.float32)
            tau = rng.integers(-n_in, n_in + 1, n_out).astype(np.int32)
            flip = rng.integers(0, 2, n_out).astype(bool)
            dots = (wv.astype(np.int64) @ xv.astype(np.int64))
            want = np.where((dots >= tau) != flip, 1.0, -1.0)
            got = run_fc(xv, wv, ThresholdParams(tau, flip))
            assert np.array_equal(got, want)

    def test_binary_thresholds_past_reach(self):
        rng = np.random.default_rng(17)
        big = np.iinfo(np.int32)
        for n_in in (1, 63, 64, 65, 200):
            xv = rng.choice([-1.0, 1.0], size=n_in).astype(np.float32)
            wv = rng.choice([-1.0, 1.0], size=(16, n_in)).astype(np.float32)
            dots = wv.astype(np.int64) @ xv.astype(np.int64)
            for tau in (dots, dots + 1, np.full(16, n_in + 1), np.full(16, -n_in - 1),
                        np.full(16, 2**24), np.full(16, -(2**24)),
                        np.full(16, big.max), np.full(16, big.min)):
                for flip in (np.zeros(16, bool), np.ones(16, bool), np.arange(16) % 3 == 0):
                    want = np.where((dots >= tau) != flip, 1.0, -1.0)
                    got = run_fc(xv, wv, ThresholdParams(tau.astype(np.int32), flip))
                    assert np.array_equal(got, want), (n_in, tau, flip)

    def test_binary_input_length_mismatch(self):
        t = ThresholdParams(np.zeros(2, np.int32), np.zeros(2, bool))
        with pytest.raises(ValueError):  # one input word where 65 inputs need two
            run_fc(np.ones(64, np.float32), np.ones((2, 65), np.float32), t)

    def test_dim_mismatch(self):
        with pytest.raises(ValueError):
            fc_float(np.zeros(3, np.float32), np.zeros((2, 4), np.float32))


class TestBatchNorm:
    def test_identity_params(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(4, 4, 3)).astype(np.float32)
        p = BNParams(np.ones(3), np.zeros(3), np.zeros(3), np.ones(3), eps=1e-12)
        assert np.allclose(bn_forward(x, p), x, atol=1e-6)

    def test_constant_input_equal_to_mu(self):
        p = BNParams(np.full(2, 1.7), np.array([0.3, -0.4]), np.array([2.0, -1.0]), np.ones(2))
        x = np.broadcast_to(p.mu, (5, 5, 2)).astype(np.float32)
        assert np.allclose(bn_forward(x, p), np.broadcast_to(p.beta, (5, 5, 2)), atol=1e-6)

    def test_batch_statistics_standardize(self):
        # feeding the batch's own statistics must standardize to (beta, |gamma|)
        rng = np.random.default_rng(6)
        x = rng.normal(2.0, 3.0, size=(2000, 4)).astype(np.float32)
        gamma = np.array([1.0, -0.5, 2.0, 0.1], np.float32)
        beta = np.array([0.0, 1.0, -2.0, 0.5], np.float32)
        p = BNParams(gamma, beta, x.mean(axis=0), x.var(axis=0), eps=1e-12)
        y = bn_forward(x, p)
        assert np.allclose(y.mean(axis=0), beta, atol=1e-3)
        assert np.allclose(y.std(axis=0), np.abs(gamma), atol=1e-3)

    @pytest.mark.parametrize("field", ["gamma", "beta", "mu", "sigma2", "eps"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, field, bad):
        values = {name: np.ones(3) for name in ("gamma", "beta", "mu", "sigma2")}
        if field == "eps":
            values["eps"] = bad
        else:
            values[field][1] = bad
        with pytest.raises(ValueError, match=field):
            BNParams(**values)


class TestFoldBnSign:
    def test_identity_fold(self):
        p = BNParams(np.ones(1), np.zeros(1), np.zeros(1), np.ones(1))
        t = fold_bn_sign(p)
        assert t.tau[0] == 0 and not t.flip[0]

    def test_paper_style_example(self):
        # gamma=1, sigma=2, mu=10, beta=3 -> boundary at 10 - 2*3 = 4
        p = BNParams(np.ones(1), np.full(1, 3.0), np.full(1, 10.0), np.full(1, 4.0), eps=1e-12)
        t = fold_bn_sign(p)
        v = np.arange(-100, 101)
        want = sign_values(bn_forward(v[:, None].astype(np.float32), p))
        got = signs((v[:, None] >= t.tau) != t.flip)
        assert np.array_equal(got, want)
        assert t.tau[0] == 4

    def test_negative_gamma_flips(self):
        p = BNParams(np.full(1, -1.0), np.zeros(1), np.zeros(1), np.ones(1))
        t = fold_bn_sign(p)
        assert t.flip[0]
        v = np.arange(-50, 51)
        got = signs((v[:, None] >= t.tau) != t.flip)[:, 0]
        # direct-evaluation oracle; note sign(BN(0)) = sign(0) = +1
        want = sign_values(bn_forward(v[:, None].astype(np.float32), p))[:, 0]
        assert np.array_equal(got, want)
        assert np.all(got[v > 0] == -1.0)
        assert np.all(got[v < 0] == 1.0)

    def test_zero_gamma_rejected(self):
        p = BNParams(np.zeros(1), np.zeros(1), np.zeros(1), np.ones(1))
        with pytest.raises(ValueError):
            fold_bn_sign(p)

    def test_exhaustive_random_channels(self):
        rng = np.random.default_rng(7)
        k = 300
        p = BNParams(
            gamma=rng.uniform(0.01, 3.0, k) * rng.choice([-1.0, 1.0], k),
            beta=rng.normal(0.0, 2.0, k),
            mu=rng.normal(0.0, 50.0, k),
            sigma2=rng.uniform(1e-4, 400.0, k),
        )
        t = fold_bn_sign(p)
        v = np.arange(-1200, 1201)
        vb = np.broadcast_to(v[:, None], (v.size, k)).astype(np.float32)
        want = sign_values(bn_forward(vb, p))
        got = signs((np.broadcast_to(v[:, None], (v.size, k)) >= t.tau) != t.flip)
        assert np.array_equal(got, want)


class TestConvBinary:
    def _thresholds(self, tau):
        return ThresholdParams(np.asarray(tau, np.int32), np.zeros(len(tau), bool))

    def test_all_ones_interior(self):
        x = np.ones((5, 5, 1), np.float32)
        out = run_conv(x, np.ones((1, 1, 3, 3), np.float32), self._thresholds([0]))
        assert out[2, 2, 0] == 1.0  # pre-activation 9 >= 0

    def test_threshold_ten_rejects_nine(self):
        x = np.ones((5, 5, 1), np.float32)
        out = run_conv(x, np.ones((1, 1, 3, 3), np.float32), self._thresholds([10]))
        assert np.all(out == -1.0)  # 9 < 10 everywhere

    def test_matches_float_reference(self):
        rng = np.random.default_rng(8)
        for c_in, c_out, s in [(4, 8, 8), (1, 3, 5), (32, 64, 9), (65, 10, 6), (128, 16, 5)]:
            xs = rng.choice([-1.0, 1.0], size=(s, s, c_in)).astype(np.float32)
            ws = rng.choice([-1.0, 1.0], size=(c_out, c_in, 3, 3)).astype(np.float32)
            bn = random_bn(rng, c_out, scale=np.sqrt(9 * c_in))
            t = fold_bn_sign(bn)
            pre = conv2d_float(xs, ws, pad_value=-1.0)
            want = sign_values(bn_forward(pre, bn))
            got = run_conv(xs, ws, t)
            assert np.array_equal(got, want), (c_in, c_out, s)

    @given(
        st.sampled_from(EDGE_CHANNELS),
        st.integers(4, 70),
        st.integers(1, 6),
        st.integers(1, 6),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_edge_cases_match_float_reference(self, c_in, c_out, hh, wh, seed):
        rng = np.random.default_rng(seed)
        h, w = 2 * hh + 1, 2 * wh + 1
        xs = rng.choice([-1.0, 1.0], size=(h, w, c_in)).astype(np.float32)
        ws = rng.choice([-1.0, 1.0], size=(c_out, c_in, 3, 3)).astype(np.float32)
        # one window equal to channel 0's weights reaches the largest sum, 9*c_in
        xs[hh - 1 : hh + 2, wh - 1 : wh + 2] = ws[0].transpose(1, 2, 0)
        bn = edge_bn(rng, c_out, 9 * c_in)
        t = fold_bn_sign(bn)
        assert np.any(np.abs(t.tau) > 9 * c_in)
        pre = conv2d_float(xs, ws, pad_value=-1.0)
        want = sign_values(bn_forward(pre, bn))
        got = run_conv(xs, ws, t)
        assert np.array_equal(got, want)

    def test_shape_mismatch(self):
        # a packed map gives its channel count only to the byte: 9 channels
        # take two bytes, the kernel of 3 one
        x = np.ones((4, 4, 9), np.float32)
        with pytest.raises(ValueError):
            run_conv(x, np.ones((1, 3, 3, 3), np.float32), self._thresholds([0]))


class TestPackedConvThresholds:
    """Both packed convs against the float oracle where the folded
    threshold is easiest to get wrong: right at the reachable sums, past
    them, and on narrow maps."""

    # (input, output) channels. "wide" carries two output channels per sgemm
    # column (K*O = 576*33), and its odd O leaves the last lo column, 16,
    # without a partner.
    SHAPES = {"conv1": (3, 12), "binconv": (5, 12), "wide": (64, 33)}

    @classmethod
    def _case(cls, kind, h, w, rng):
        """A random input and weights, then the all-zero and all-one maps
        (pixels 0 and 255 for conv1, -1 and +1 for the binary convs)."""
        c_in, o = cls.SHAPES[kind]
        if kind == "conv1":
            x = rng.integers(0, 256, (h, w, c_in), dtype=np.uint8)
            maps = (x, np.zeros_like(x), np.full_like(x, 255))
        else:
            x = rng.choice([-1.0, 1.0], size=(h, w, c_in)).astype(np.float32)
            maps = (x, np.full_like(x, -1.0), np.ones_like(x))
        ws = rng.choice([-1.0, 1.0], size=(o, c_in, 3, 3)).astype(np.float32)
        if kind == "wide":
            # constant channels put |lo| and |hi| at K, the decode's margin,
            # on the all-one map: pairs (0, 17) and (1, 18) with opposite
            # signs, and the unpaired 16
            for ch, v in ((0, 1.0), (17, -1.0), (1, -1.0), (18, 1.0), (16, 1.0)):
                ws[ch] = v
        return maps, ws

    @staticmethod
    def _run(first, x, ws, tau, flip):
        if first:
            out = kernels.conv1_forward(x, ws, tau, flip)
        else:
            out = kernels.BinConvKernel(ws, tau, flip)(pack_map(x > 0))
        return unpack_map(out, ws.shape[0])

    def _taus(self, first, ws, pre, rng):
        """Per-channel threshold sets: reached sums and their neighbours
        (both parities), the column sum and its neighbours, and values at
        and past one beyond the reachable range."""
        o = ws.shape[0]
        window = ws[0].size * (255 if first else 1)
        reached = pre.reshape(-1, o)[rng.integers(0, pre.shape[0] * pre.shape[1], o), np.arange(o)]
        colsum = ws.sum(axis=(1, 2, 3))
        sets = [reached + d for d in (-1, 0, 1)]
        sets += [sign * colsum + d for sign in (-1, 1) for d in (-1, 0, 1, 2)]
        big = np.iinfo(np.int32)
        sets += [np.full(o, v) for v in (window, window + 1, -window, -window - 1,
                                         2**24, -(2**24), big.max, big.min)]
        return [np.asarray(t).astype(np.int32) for t in sets]

    @pytest.mark.parametrize("flips", ["none", "all", "mixed"])
    @pytest.mark.parametrize("hw", [(1, 1), (5, 1), (1, 2), (4, 2), (6, 7)])
    @pytest.mark.parametrize("kind", ["conv1", "binconv", "wide"])
    def test_matches_float_oracle(self, kind, hw, flips):
        first = kind == "conv1"
        wide = [33] if kind == "wide" else []
        rng = np.random.default_rng([first, *hw, len(flips), *wide])
        maps, ws = self._case(kind, *hw, rng)
        o = ws.shape[0]
        if wide:
            assert kernels.BinConvKernel(ws, np.zeros(o), np.zeros(o, bool)).ww.shape[1] == 17
        flip = flip_set(flips, o)
        for x in maps:
            pre = conv2d_float(x, ws, pad_value=0.0 if first else -1.0)
            for tau in self._taus(first, ws, pre, rng):
                want = (pre >= tau) != flip
                assert np.array_equal(self._run(first, x, ws, tau, flip), want), tau

    @pytest.mark.parametrize("c_in, paired", [(227, True), (228, False)])
    def test_exactness_bound(self, c_in, paired):
        # base = 4096 keeps every partial sum of K = 2043 pairs below 2**24;
        # K = 2052 would need base = 8192 and sums up to 8192*2052 > 2**24,
        # where float32 drops odd values: on the all-one map with one -1
        # input, pixels (1, 1) and (1, 2) reach hi = K - 1 on the +1 weights
        # of channels 5..9, with odd lo
        o = 10
        rng = np.random.default_rng(c_in)
        ws = rng.choice([-1.0, 1.0], size=(o, c_in, 3, 3)).astype(np.float32)
        ws[o // 2 :] = 1.0
        k = kernels.BinConvKernel(ws, np.zeros(o), np.zeros(o, bool))
        # pairing reads the real K; the zero rows of each tap's 232 - c_in
        # tail bits are inserted after it
        assert k.ww.shape == (9 * 232, o // 2 if paired else o)
        ones = np.ones((3, 4, c_in), np.float32)
        dent = ones.copy()
        dent[1, 1, 0] = -1.0
        random = rng.choice([-1.0, 1.0], size=(3, 4, c_in)).astype(np.float32)
        for flips in ("none", "mixed"):
            flip = flip_set(flips, o)
            for x in (random, ones, dent):
                pre = conv2d_float(x, ws, pad_value=-1.0)
                at_dent = [pre[1, 1] + d for d in (-1, 0, 1)]
                for tau in self._taus(False, ws, pre, rng) + at_dent:
                    want = (pre >= tau) != flip
                    assert np.array_equal(self._run(False, x, ws, tau, flip), want), tau


class TestKernelsFromBits:
    """A kernel built from the stored bool weights, as ``PackedEncoder``
    builds it, equals the kernel built from the +-1 floats, as perfbench's
    replay builds it."""

    @pytest.mark.parametrize("flips", ["none", "all", "mixed"])
    @pytest.mark.parametrize("shape", [(1, 1), (5, 3), (12, 65), (3, 130), (33, 64)])
    def test_conv_bits_match_signs(self, shape, flips):
        o, c = shape
        rng = np.random.default_rng([o, c, len(flips)])
        ws = rng.choice([-1.0, 1.0], size=(o, c, 3, 3)).astype(np.float32)
        bits = ws > 0
        tau = rng.integers(-9 * c - 2, 9 * c + 3, o).astype(np.int32)
        flip = flip_set(flips, o)
        a = kernels.BinConvKernel(ws, tau, flip)
        b = kernels.BinConvKernel(bits, tau, flip)
        assert a.ww.dtype == b.ww.dtype == np.float32
        assert np.array_equal(a.ww, b.ww) and np.array_equal(a.t, b.t)

    @pytest.mark.parametrize("flips", ["none", "all", "mixed"])
    @pytest.mark.parametrize("shape", [(1, 1), (5, 3), (32, 3), (3, 4)])
    def test_conv1_bits_match_signs(self, shape, flips):
        o, c = shape
        rng = np.random.default_rng([o, c, len(flips), 1])
        ws = rng.choice([-1.0, 1.0], size=(o, c, 3, 3)).astype(np.float32)
        bits = ws > 0
        window = 9 * c * 255
        tau = rng.integers(-window - 2, window + 3, o).astype(np.int32)
        flip = flip_set(flips, o)
        a = kernels.Conv1Kernel(ws, tau, flip)
        b = kernels.Conv1Kernel(bits, tau, flip)
        assert a.wb.dtype == b.wb.dtype == np.float32
        assert a.wb.shape == (9 * c + 1, 8 * -(-o // 8))
        assert np.array_equal(a.wb, b.wb)

    @pytest.mark.parametrize("flips", ["none", "all", "mixed"])
    @pytest.mark.parametrize("shape", [(1, 1), (5, 63), (12, 64), (3, 200)])
    def test_fc_bits_match_signs(self, shape, flips):
        o, n = shape
        rng = np.random.default_rng([o, n, len(flips)])
        ws = rng.choice([-1.0, 1.0], size=(o, n)).astype(np.float32)
        bits = ws > 0
        tau = rng.integers(-n - 2, n + 3, o).astype(np.int32)
        flip = flip_set(flips, o)
        a = kernels.BinFcKernel(ws, tau, flip)
        b = kernels.BinFcKernel(bits, tau, flip)
        assert np.array_equal(a.wv, b.wv) and np.array_equal(a.max_mismatch, b.max_mismatch)


class TestPixelMax:
    """``kernels.PIXEL_MAX`` is the one bound of the 8-bit pixel range: the
    pixel check, conv1's threshold clip and the net's quantizer read it."""

    @pytest.mark.parametrize("dtype", [np.int64, np.float32])
    def test_check_pixels_accepts_the_max_and_rejects_one_more(self, dtype):
        frame = np.zeros((5, 5, 3), dtype)
        frame[2, 3, 1] = PIXEL_MAX
        got = layers._check_pixels(frame, 5, 3)
        assert got.dtype == np.uint8 and got[2, 3, 1] == PIXEL_MAX
        frame[2, 3, 1] = PIXEL_MAX + 1
        with pytest.raises(ValueError, match=rf"\[0, {PIXEL_MAX}\]"):
            layers._check_pixels(frame, 5, 3)

    @pytest.mark.parametrize("c", [1, 3])
    def test_conv1_clips_thresholds_one_past_the_pixel_range(self, c):
        ws = np.ones((4, c, 3, 3), np.bool_)
        big = np.iinfo(np.int32)
        k = kernels.Conv1Kernel(ws, np.array([big.max, big.min, 0, 1], np.int32), np.zeros(4, bool))
        bound = 9 * c * PIXEL_MAX + 1
        assert (-k.wb[-1, :4]).tolist() == [bound, -bound, 0, 1]

    def test_net_reads_one_as_the_max_pixel(self):
        net = DcaeNet(TrainConfig(mode="partial", input_size=16, channels=(8, 16), fc1_out=64))
        x01 = np.zeros((1, 16, 16, 3), np.float32)
        x01[0, 4, 5] = 1.0
        px = net._pixels(x01)
        assert px[0, 4, 5].tolist() == [PIXEL_MAX] * 3 and px.sum() == 3 * PIXEL_MAX


class TestChannelPlanarMaps:
    """Every kernel that takes a packed map gives the same output on a
    non-contiguous view of it as on its contiguous copy: a channel-planar
    view (the bytes of each pixel planar in memory), a spatially transposed
    view, and an interior slice of a wider map."""

    @pytest.mark.parametrize("c", [1, 3, 8, 65])
    @pytest.mark.parametrize("hw", [(3, 3), (4, 7), (6, 6), (9, 8)])
    def test_view_matches_contiguous_copy(self, hw, c):
        rng = np.random.default_rng([*hw, c])
        copy = pack_map(rng.random((*hw, c)) < 0.5)
        nb = copy.shape[2]
        border = np.zeros((hw[0] + 2, hw[1] + 2, nb), np.uint8)
        border[1:-1, 1:-1] = copy
        views = {
            "planar": np.ascontiguousarray(copy.transpose(2, 0, 1)).transpose(1, 2, 0),
            "transposed": np.ascontiguousarray(copy.transpose(1, 0, 2)).transpose(1, 0, 2),
            "slice": border[1:-1, 1:-1],
        }
        ws = rng.choice([-1.0, 1.0], size=(5, c, 3, 3)).astype(np.float32)
        conv = kernels.BinConvKernel(ws, rng.integers(-9 * c, 9 * c + 1, 5), flip_set("mixed", 5))
        for name, view in views.items():
            assert (name == "planar" and nb == 1) or not view.flags.c_contiguous, name
            assert np.array_equal(view, copy), name
            assert np.array_equal(unpack_map(conv(view), 5), unpack_map(conv(copy), 5)), name
            pooled = unpack_map(kernels.pool_or(view), c)
            assert np.array_equal(pooled, unpack_map(kernels.pool_or(copy), c)), name
            assert np.array_equal(kernels.flat_words(view, c), kernels.flat_words(copy, c)), name


FORMAT_CHANNELS = (1, 3, 5, 8, 17, 63, 64, 65, 130)


class TestPackedMapFormat:
    """The packed map between conv stages: (H, W, ceil(C/8)) uint8, C-contiguous,
    8 channels per byte LSB first, zero tail bits. ``unpack_map`` checks the
    layout and the tails of every output."""

    def test_conv1_output_is_contiguous_packed(self):
        rng = np.random.default_rng(14)
        ws = rng.choice([-1.0, 1.0], size=(8, 3, 3, 3)).astype(np.float32)
        k = kernels.Conv1Kernel(ws, rng.integers(-2000, 2000, 8), flip_set("mixed", 8))
        out = k(rng.integers(0, 256, (9, 6, 3), dtype=np.uint8))
        assert out.shape == (9, 6, 1) and out.dtype == np.uint8 and out.flags.c_contiguous

    @pytest.mark.parametrize("o", FORMAT_CHANNELS)
    def test_conv1_tail_columns_never_fire(self, o):
        rng = np.random.default_rng([o, 1])
        # thresholds below every reachable sum: every real channel fires
        ws = rng.choice([-1.0, 1.0], size=(o, 3, 3, 3)).astype(np.float32)
        k = kernels.Conv1Kernel(ws, np.full(o, -(2**24)), flip_set("mixed", o))
        o8 = 8 * -(-o // 8)
        assert np.all(k.wb[:-1, o:] == 0) and np.all(k.wb[-1, o:] == -1.0)
        assert k.wb.shape == (28, o8)
        x = rng.integers(0, 256, (5, 4, 3), dtype=np.uint8)
        fired = unpack_map(k(x), o)
        assert np.array_equal(fired, np.broadcast_to(~flip_set("mixed", o), fired.shape))

    @pytest.mark.parametrize("o", FORMAT_CHANNELS)
    def test_conv1_matches_float_oracle(self, o):
        rng = np.random.default_rng([o, 2])
        ws = rng.choice([-1.0, 1.0], size=(o, 3, 3, 3)).astype(np.float32)
        x = rng.integers(0, 256, (6, 5, 3), dtype=np.uint8)
        pre = conv2d_float(x, ws)
        tau = rng.integers(-2000, 2000, o)
        flip = flip_set("mixed", o)
        got = unpack_map(kernels.Conv1Kernel(ws, tau, flip)(x), o)
        assert np.array_equal(got, (pre >= tau) != flip)

    @pytest.mark.parametrize("o", FORMAT_CHANNELS)
    @pytest.mark.parametrize("c", FORMAT_CHANNELS)
    def test_binconv_matches_float_oracle(self, c, o):
        rng = np.random.default_rng([c, o])
        xs = rng.choice([-1.0, 1.0], size=(5, 4, c)).astype(np.float32)
        ws = rng.choice([-1.0, 1.0], size=(o, c, 3, 3)).astype(np.float32)
        tau = rng.integers(-9 * c, 9 * c + 1, o)
        flip = flip_set("mixed", o)
        k = kernels.BinConvKernel(ws, tau, flip)
        nb = -(-c // 8)
        assert k.ww.shape[0] == 72 * nb and np.all(k.ww.reshape(9, 8 * nb, -1)[:, c:] == 0)
        got = unpack_map(k(pack_map(xs > 0)), o)
        pre = conv2d_float(xs, ws, pad_value=-1.0)
        assert np.array_equal(got, (pre >= tau) != flip)

    @pytest.mark.parametrize("c", FORMAT_CHANNELS)
    def test_pool_is_maxpool_of_the_signs(self, c):
        rng = np.random.default_rng([c, 3])
        for hw in [(3, 3), (7, 4), (8, 9)]:
            xs = rng.choice([-1.0, 1.0], size=(*hw, c)).astype(np.float32)
            assert np.array_equal(run_pool(xs), maxpool(xs)), hw

    @pytest.mark.parametrize("c", FORMAT_CHANNELS)
    def test_flat_words_packs_the_ravel(self, c):
        rng = np.random.default_rng([c, 4])
        for hw in [(1, 1), (3, 5), (7, 7)]:
            bits = rng.random((*hw, c)) < 0.5
            got = kernels.flat_words(pack_map(bits), c)
            assert got.dtype == np.uint64
            assert np.array_equal(got, pack_channel_words(bits.reshape(-1))), hw


class TestOldLayoutRejected:
    """A bool (H, W, 8) map of 8 channels has the shape and item size of a
    packed map of 64 channels; every kernel that takes a map or words
    rejects anything but its own layout, so a stale caller fails loudly."""

    def _bin_conv(self, c):
        ws = np.ones((4, c, 3, 3), np.bool_)
        return kernels.BinConvKernel(ws, np.zeros(4), np.zeros(4, bool))

    def test_bool_map_of_the_same_shape(self):
        stale = np.random.default_rng(0).random((5, 5, 8)) < 0.5
        assert stale.shape == pack_map(np.ones((5, 5, 64), bool)).shape
        assert stale.itemsize == 1
        for run in (self._bin_conv(64), kernels.pool_or, lambda x: kernels.flat_words(x, 64)):
            with pytest.raises(ValueError, match=r"packed map.*\(H, W, (8|ceil\(C/8\))\) uint8.*got bool"):
                run(stale)

    @pytest.mark.parametrize("dtype", [np.int8, np.uint16, np.float32])
    def test_other_dtypes(self, dtype):
        x = np.zeros((5, 5, 1), dtype)
        for run in (self._bin_conv(8), kernels.pool_or, lambda x: kernels.flat_words(x, 8)):
            with pytest.raises(ValueError, match=f"uint8, 8 channels per byte, got {np.dtype(dtype)}"):
                run(x)

    def test_byte_count_must_match_the_channels(self):
        for c, nb in [(8, 2), (9, 1), (64, 7)]:
            x = np.zeros((5, 5, nb), np.uint8)
            with pytest.raises(ValueError, match=rf"of {c} channels: \(H, W, {-(-c // 8)}\) uint8"):
                self._bin_conv(c)(x)
            with pytest.raises(ValueError, match=rf"of {c} channels"):
                kernels.flat_words(x, c)

    def test_map_must_be_three_dimensional(self):
        for x in (np.zeros((5, 5), np.uint8), np.zeros((1, 5, 5, 1), np.uint8)):
            with pytest.raises(ValueError, match="packed map"):
                kernels.pool_or(x)
            with pytest.raises(ValueError, match="packed map"):
                self._bin_conv(8)(x)

    @pytest.mark.parametrize("dtype", [np.bool_, np.float32, np.int64, np.uint8])
    def test_fc_takes_uint64_words_only(self, dtype):
        ws = np.ones((4, 100), np.bool_)
        k = kernels.BinFcKernel(ws, np.zeros(4), np.zeros(4, bool))
        words = pack_channel_words(np.ones(100, bool))
        assert words.shape == (2,)
        k(words)
        with pytest.raises(ValueError, match=f"uint64 words for 100 inputs, got {np.dtype(dtype)}"):
            k(words.astype(dtype))


class TestEncoderForward:
    def test_shape_codomain_determinism(self):
        rng = np.random.default_rng(9)
        enc = random_encoder_params(rng, input_size=33, channels=(8, 16), fc1_out=32)
        img = rng.integers(0, 256, size=(33, 33, 3), dtype=np.uint8)
        pe = PackedEncoder(enc)
        f1 = pe.features(img)
        f2 = pe.features(img)
        assert f1.shape == (64,)
        assert set(np.unique(f1)) <= {-1.0, 1.0}
        assert np.array_equal(f1, f2)

    def test_packed_equals_reference_on_random_images(self):
        rng = np.random.default_rng(10)
        enc = random_encoder_params(rng, input_size=33, channels=(8, 16), fc1_out=32)
        pe = PackedEncoder(enc)
        for _ in range(10):
            img = rng.integers(0, 256, size=(33, 33, 3), dtype=np.uint8)
            fp = pe.features(img)
            fr = encoder_forward(img, enc, path="reference")
            assert np.array_equal(fp, fr)

    def test_frame_path_folds_nothing(self, monkeypatch):
        # every fold happens in PackedEncoder(enc); a frame only runs
        # kernels. conv2 of the second encoder pairs its output channels.
        rng = np.random.default_rng(15)
        cases = []
        for channels in ((8, 16), (16, 128)):
            enc = random_encoder_params(rng, input_size=33, channels=channels, fc1_out=32)
            img = rng.integers(0, 256, size=(33, 33, 3), dtype=np.uint8)
            pe = PackedEncoder(enc)
            assert bool(pe.stages[0][1].base) == (channels[1] == 128)
            cases.append((enc, img, pe, encoder_forward(img, enc)))

        def no_fold(*args, **kwargs):
            raise AssertionError("folded on the frame path")

        monkeypatch.setattr(kernels, "_fold_conv", no_fold)
        monkeypatch.setattr(kernels, "_pair_channels", no_fold)
        monkeypatch.setattr(layers, "fold_bn_sign", no_fold)
        for enc, img, pe, want in cases:
            assert np.array_equal(pe.features(img), want)
            with pytest.raises(AssertionError, match="frame path"):
                PackedEncoder(enc)  # the patch is live

    def test_paper_geometry_equivalence(self):
        rng = np.random.default_rng(11)
        enc = random_encoder_params(rng)  # full 142x142 Table geometry
        img = rng.integers(0, 256, size=(142, 142, 3), dtype=np.uint8)
        fp = PackedEncoder(enc).features(img)
        fr = encoder_forward(img, enc, path="reference")
        assert fp.shape == (64,)
        assert np.array_equal(fp, fr)

    @given(
        st.sampled_from(EDGE_CHANNELS),
        st.integers(7, 16),
        st.integers(0, 3),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=20, deadline=None)
    def test_packed_equals_reference_on_edge_cases(self, c_in, half, image, seed):
        # c_in is the input width of the binary conv2; conv1 sees 3 channels
        rng = np.random.default_rng(seed)
        size = 2 * half + 1
        enc = random_encoder_params(rng, input_size=size, channels=(c_in, 16), fc1_out=40)
        for lay, window in zip(enc.layers[:2], (27 * 255, 9 * c_in)):
            lay.bn = edge_bn(rng, lay.bn.channels, window)
        shape = (size, size, 3)
        pixels = (rng.integers(0, 256, shape, dtype=np.uint8), np.zeros(shape, np.uint8),
                  np.full(shape, 255, np.uint8))
        # case 3: the random image again, as float-typed integral pixels
        img = (*pixels, pixels[0].astype(np.float32))[image]
        pe = PackedEncoder(enc)
        fp = pe.features(img)
        fr = encoder_forward(img, enc, path="reference")
        assert np.array_equal(fp, fr)
        assert np.array_equal(fp, pe.features(pixels[image % 3]))

    @given(
        st.sampled_from(EDGE_CHANNELS),
        st.sampled_from(EDGE_CHANNELS),
        st.sampled_from((5, 17, 40)),
        st.integers(7, 12),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=20, deadline=None)
    def test_packed_equals_reference_on_odd_channels(self, c1, c2, fc1_out, half, seed):
        # conv1 writes c1 channels and conv2 c2; when c2 % 8 != 0, fc1 reads
        # its words through flat_words' unpack of the real channels. The
        # BNs of conv1, conv2 and fc1 are edge sets
        rng = np.random.default_rng(seed)
        size = 2 * half + 1
        enc = random_encoder_params(rng, input_size=size, channels=(c1, c2), fc1_out=fc1_out)
        fc1_in = enc.layers[2].weights.shape[1]
        for lay, window in zip(enc.layers[:3], (27 * 255, 9 * c1, fc1_in)):
            lay.bn = edge_bn(rng, lay.bn.channels, window)
        pe = PackedEncoder(enc)
        for img in (rng.integers(0, 256, (size, size, 3), dtype=np.uint8),
                    np.full((size, size, 3), 255, np.uint8)):
            assert np.array_equal(pe.features(img), encoder_forward(img, enc))

    def test_desk_geometry_equivalence(self):
        rng = np.random.default_rng(18)
        enc = random_encoder_params(rng, layers.DESK_INPUT_SIZE, layers.DESK_CHANNELS, layers.DESK_FC1_OUT)
        pe = PackedEncoder(enc)
        for _ in range(3):
            img = rng.integers(0, 256, (layers.DESK_INPUT_SIZE,) * 2 + (3,), dtype=np.uint8)
            assert np.array_equal(pe.features(img), encoder_forward(img, enc))

    @pytest.mark.parametrize("dtype", [np.bool_, np.complex64, object])
    @pytest.mark.parametrize("entry", ["packed", "reference"])
    def test_frame_dtype_not_integer_or_real_rejected(self, entry, dtype):
        # a bool frame would read as the pixels 0/1, a complex one as its
        # real part
        rng = np.random.default_rng(16)
        enc = random_encoder_params(rng, input_size=33, channels=(8, 16), fc1_out=32)
        frame = rng.integers(0, 2, (33, 33, 3)).astype(dtype)
        run = PackedEncoder(enc).features if entry == "packed" else lambda f: encoder_forward(f, enc)
        with pytest.raises(ValueError, match=re.escape(f"got {np.dtype(dtype)}")):
            run(frame)

    def test_wrong_input_shape(self):
        rng = np.random.default_rng(12)
        enc = random_encoder_params(rng, input_size=33, channels=(8, 16), fc1_out=32)
        with pytest.raises(ValueError):
            PackedEncoder(enc).features(np.zeros((10, 10, 3), np.uint8))
        with pytest.raises(ValueError):
            encoder_forward(np.zeros((10, 10, 3), np.uint8), enc)

    def test_follows_edited_bn(self):
        # nothing built from enc is cached: after fc2's BN is edited, the
        # default path gives the features of the edited encoder
        rng = np.random.default_rng(13)
        enc = random_encoder_params(rng, input_size=33, channels=(8, 16), fc1_out=32)
        img = rng.integers(0, 256, size=(33, 33, 3), dtype=np.uint8)
        first = encoder_forward(img, enc)
        fc2 = enc.layers[-1]
        assert fc2.name == "fc2"
        fc2.bn.gamma = -fc2.bn.gamma
        second = encoder_forward(img, enc)
        assert not np.array_equal(second, first)
        assert np.array_equal(second, PackedEncoder(enc).features(img))
        with pytest.raises(ValueError, match=r"PackedEncoder\(enc\)\.features"):
            encoder_forward(img, enc, path="packed")

    @pytest.mark.parametrize("stored", ["float32", "uint8"])
    def test_rejects_non_bool_weights(self, stored):
        # -1.0 is truthy, so +-1 floats taken for stored weights would all
        # read as +1
        rng = np.random.default_rng(14)
        enc = random_encoder_params(rng, input_size=33, channels=(8, 16), fc1_out=32)
        lay = enc.layers[1]
        w = {"float32": unpack(lay.weights), "uint8": lay.weights.astype(np.uint8)}[stored]
        with pytest.raises(TypeError, match=f"layer conv2: .* got {stored}"):
            EncoderLayer(lay.name, lay.kind, w, lay.bn, lay.pool)

    def test_geometry_matches_table(self):
        stages = encoder_geometry(142, (32, 64, 128, 256), 1024)
        spatial = [s[2] for s in stages if s[1] == "conv"]
        assert spatial == [142, 70, 34, 16]
        assert stages[-2][3] == 12544 and stages[-2][4] == 1024
        assert stages[-1][3] == 1024 and stages[-1][4] == 64


class TestPackedWalk:
    def test_one_list_conv1_first(self):
        rng = np.random.default_rng(17)
        enc = random_encoder_params(rng, input_size=33, channels=(8, 16), fc1_out=32)
        pe = PackedEncoder(enc)
        assert [type(k) for _kind, k, _pool in pe.walk] == [
            kernels.Conv1Kernel, kernels.BinConvKernel, kernels.BinFcKernel, kernels.BinFcKernel]
        assert [(kind, pool) for kind, _k, pool in pe.walk] == [(lay.kind, lay.pool) for lay in enc.layers]
        assert pe.stages == pe.walk[1:]
        t = fold_bn_sign(enc.layers[0].bn)
        assert np.array_equal(pe.conv1_tau, t.tau) and np.array_equal(pe.conv1_flip, t.flip)
        assert np.array_equal(pe.conv1_signs, unpack(enc.layers[0].weights))
        assert pe.conv1_pool == enc.layers[0].pool


class TestNnResize:
    def test_identity(self):
        x = np.arange(27, dtype=np.float32).reshape(3, 3, 3)
        assert np.array_equal(nn_resize(x, 3), x)

    def test_doubling_duplicates(self):
        x = np.arange(4, dtype=np.float32).reshape(2, 2, 1)
        out = nn_resize(x, 4)
        assert out.shape == (4, 4, 1)
        assert out[0, 0, 0] == out[1, 1, 0] == x[0, 0, 0]
