"""The trainer's stage primitives against the bodies they replaced.

Each ``oracle_*`` below is an earlier, simpler body kept verbatim. The
shipped primitives change memory layout and the number of passes, never the
arithmetic or its summation order, so they must match their oracle to the
bit. ``TestSeededTraining`` trains micro nets once with the oracles patched
into ``training`` and once without, and requires identical results: seeded
float32 curves must not move when a primitive gets faster.
"""

import itertools

import numpy as np
import pytest

from bitmotor import training
from bitmotor.core import as_float, sign_values, ste_backward, unpack
from bitmotor.kernels import im2col, weight_matrix
from bitmotor.layers import logistic, maxpool, nn_index, pool_out_size
from bitmotor.training import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    BN_EPS,
    Adam,
    DcaeNet,
    TrainConfig,
    _bn_bwd,
    _bn_fwd,
    _conv_input_grad,
    _conv_weight_grad,
    _pool_bwd,
    _pool_fwd,
    _resize_bwd,
    _select,
    train_dcae,
)

DTYPES = [np.float32, np.float64]


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------

def oracle_im2col(x, pad_value):
    h, wd, cin = x.shape[-3:]
    lead = x.shape[:-3]
    # two passes, horizontal taps then vertical, so each copy moves runs of
    # 3*C values; that is faster than nine copies of C when C is small. The
    # horizontal pass reads x itself and writes the border, so no padded copy
    # of x is made. Tap dx of output column j reads input column j + dx - 1.
    rows = np.empty(lead + (h + 2, wd, 3, cin), x.dtype)
    rows[..., 0, :, :, :] = pad_value
    rows[..., -1, :, :, :] = pad_value
    rows[..., 1:-1, :, 1, :] = x
    rows[..., 1:-1, 1:, 0, :] = x[..., :-1, :]
    rows[..., 1:-1, 0, 0, :] = pad_value
    rows[..., 1:-1, :-1, 2, :] = x[..., 1:, :]
    rows[..., 1:-1, -1, 2, :] = pad_value
    rows = rows.reshape(lead + (h + 2, wd, 3 * cin))
    cols = np.empty(lead + (h, wd, 3, 3 * cin), x.dtype)
    for dy in range(3):
        cols[..., dy, :] = rows[..., dy : dy + h, :, :]
    return cols.reshape(lead + (h, wd, 9 * cin))


def oracle_conv_bwd(dout, cols, w, with_bias=False):
    n, h, wd, o = dout.shape
    c = w.shape[1]
    dflat = dout.reshape(-1, o)
    cflat = cols.reshape(-1, 9 * c)
    dw2 = cflat.T @ dflat  # (9C, O)
    dw = dw2.reshape(3, 3, c, o).transpose(3, 2, 0, 1)
    dcols = (dflat @ weight_matrix(w).T).reshape(n, h, wd, 3, 3, c)
    dxp = np.zeros((n, h + 2, wd + 2, c), dcols.dtype)
    for dy in range(3):
        for dx in range(3):
            dxp[:, dy : dy + h, dx : dx + wd, :] += dcols[:, :, :, dy, dx, :]
    dx = dxp[:, 1:-1, 1:-1]
    db = dout.sum(axis=(0, 1, 2)) if with_bias else None
    return dx, np.ascontiguousarray(dw), db


def oracle_fc_bwd(dout, x, w):
    return dout @ w, dout.T @ x


def oracle_bn_fwd(x, gamma, beta):
    axes = tuple(range(x.ndim - 1))
    mu = x.mean(axis=axes)
    var = x.var(axis=axes)
    inv = 1.0 / np.sqrt(var + BN_EPS)
    xhat = (x - mu) * inv
    y = gamma * xhat + beta
    return y, (xhat, inv, gamma), (mu, var)


def oracle_bn_bwd(dy, cache):
    xhat, inv, gamma = cache
    axes = tuple(range(dy.ndim - 1))
    dgamma = (dy * xhat).sum(axis=axes)
    dbeta = dy.sum(axis=axes)
    dxhat = dy * gamma
    dx = inv * (dxhat - dxhat.mean(axis=axes) - xhat * (dxhat * xhat).mean(axis=axes))
    return dx.astype(dy.dtype), dgamma, dbeta


def oracle_sign_values(x):
    x = np.asarray(x)
    return np.where(x >= 0, np.float32(1.0), np.float32(-1.0))


def oracle_pool_fwd(x):
    n, h, wd, c = x.shape
    ho = (h - 3) // 2 + 1
    wo = (wd - 3) // 2 + 1
    windows = np.stack(
        [x[:, dy : dy + 2 * ho - 1 : 2, dx : dx + 2 * wo - 1 : 2, :] for dy in range(3) for dx in range(3)]
    )
    idx = windows.argmax(axis=0)
    out = np.take_along_axis(windows, idx[None], axis=0)[0]
    return out, (idx, h, wd)


def oracle_pool_bwd(dout, cache):
    idx, h, wd = cache
    n, ho, wo, c = dout.shape
    dx = np.zeros((n, h, wd, c), dout.dtype)
    for t in range(9):
        dy, dx_ = divmod(t, 3)
        sel = np.where(idx == t, dout, dout.dtype.type(0.0))
        dx[:, dy : dy + 2 * ho - 1 : 2, dx_ : dx_ + 2 * wo - 1 : 2, :] += sel
    return dx


def oracle_resize_bwd(dout, h, wd):
    size = dout.shape[1]
    row_starts = np.searchsorted(nn_index(h, size), np.arange(h))
    col_starts = np.searchsorted(nn_index(wd, size), np.arange(wd))
    dx = np.add.reduceat(dout, row_starts, axis=1)
    dx = np.add.reduceat(dx, col_starts, axis=2)
    return np.ascontiguousarray(dx, dtype=dout.dtype)


def oracle_logistic(x):
    x = as_float(x)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def oracle_act_fwd(self, name, z):
    if name in self.binarized:
        return oracle_sign_values(z).astype(z.dtype), z
    t = np.tanh(z)
    return t, t


def oracle_adam_step(self, params, grads):
    self.t += 1
    b1c = 1.0 - ADAM_BETA1**self.t
    b2c = 1.0 - ADAM_BETA2**self.t
    for k, g in grads.items():
        if g.shape != params[k].shape:
            raise ValueError(f"gradient shape mismatch for {k}")
        m = self.m[k] = ADAM_BETA1 * self.m[k] + (1 - ADAM_BETA1) * g
        v = self.v[k] = ADAM_BETA2 * self.v[k] + (1 - ADAM_BETA2) * g * g
        step = self.lr * (m / b1c) / (np.sqrt(v / b2c) + ADAM_EPS)
        params[k] = (params[k] - step).astype(params[k].dtype)
        if k in self.clip_names:
            np.clip(params[k], -1.0, 1.0, out=params[k])
    return self


def oracle_backward(self, tape, drecon):
    """The full reverse walk, down to the gradient of the image.

    Reads the tape ``oracle_act_fwd`` fills, whose sign stages keep their
    input z, and rebuilds the columns of a conv that saved its input.
    """
    grads = {}
    dx = drecon
    for entry in reversed(tape):
        spec = entry["spec"]
        name = spec.name
        if spec is self.out_spec:
            s = entry["sig"]
            dpre = (dx * s * (1.0 - s)).astype(self.dtype)
        else:
            if spec.pool:
                dx = oracle_pool_bwd(dx, entry["pool"])
            if name in self.binarized:
                dz = ste_backward(entry["act"], dx)
            else:
                dz = dx * (1.0 - entry["act"] * entry["act"])
            dpre, grads[name + "_gamma"], grads[name + "_beta"] = oracle_bn_bwd(dz, entry["bn"])
        if spec.kind == "fc":
            dx, grads[name + "_w"] = oracle_fc_bwd(dpre, entry["x_in"], entry["w_eff"])
        else:
            with_bias = spec is self.out_spec
            cols = entry["cols"] if "cols" in entry else oracle_im2col(entry["x_in"], spec.pad_value)
            dx, grads[name + "_w"], db = oracle_conv_bwd(dpre, cols, entry["w_eff"], with_bias)
            if with_bias:
                grads[name + "_b"] = db
            if "resize" in entry:
                dx = oracle_resize_bwd(dx, *entry["resize"])
        dx = dx.reshape(entry["in_shape"])
    return grads


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------

def assert_bits_equal(new, old):
    new, old = np.asarray(new), np.asarray(old)
    assert new.dtype == old.dtype and new.shape == old.shape, (new.dtype, old.dtype, new.shape, old.shape)
    assert np.array_equal(new.view(np.uint8), old.view(np.uint8))


def signed_values(rng, shape, dtype):
    """Random normals with ties, +-1 runs and both signed zeros mixed in."""
    x = rng.standard_normal(shape)
    pick = rng.random(shape)
    x[pick < 0.3] = np.sign(x[pick < 0.3])
    x[(pick >= 0.3) & (pick < 0.35)] = 0.0
    x[(pick >= 0.35) & (pick < 0.4)] = -0.0
    return x.astype(dtype)


def conv_stages(size):
    """(input side, in channels, out channels, pool) of every conv in a
    preset's walk."""
    cfg = TrainConfig.for_size(size)
    stages, _n_bin = training._build_stage_specs(cfg)
    side = cfg.input_size
    shapes = []
    for spec in stages:
        if spec.kind == "conv":
            side = spec.resize_to or side
            shapes.append((side, spec.in_dim, spec.out_dim, spec.pool))
            side = pool_out_size(side) if spec.pool else side
    return shapes


def decoder_resizes():
    """(input size, output size) of every decoder resize at the two presets."""
    pairs = set()
    for size in ("desk", "paper"):
        cfg = TrainConfig.for_size(size)
        stages, _n_bin = training._build_stage_specs(cfg)
        sizes = [spec.resize_to for spec in stages if spec.resize_to is not None]
        h = pool_out_size(sizes[0])  # the bottleneck: the last encoder conv's pooled output
        for size in sizes:
            pairs.add((h, size))
            h = size
    return sorted(pairs)


# ---------------------------------------------------------------------------
# primitives, bit for bit
# ---------------------------------------------------------------------------

class TestIm2col:
    @pytest.mark.parametrize("pad_value", [0, -1, False])
    @pytest.mark.parametrize("dtype", DTYPES + [np.bool_, np.uint8])
    @pytest.mark.parametrize("lead", [(), (2,), (2, 3)])
    def test_matches_two_pass_copy(self, lead, dtype, pad_value):
        rng = np.random.default_rng([len(lead), np.dtype(dtype).num, int(pad_value) + 1])
        for h in (1, 2, 7):
            for wd in (1, 2, 7):
                shape = lead + (h, wd, 3)
                if dtype is np.bool_:
                    x = rng.random(shape) < 0.5
                elif dtype is np.uint8:
                    x = rng.integers(0, 256, shape, dtype=np.uint8)
                else:
                    x = signed_values(rng, shape, dtype)
                try:
                    want = oracle_im2col(x, pad_value)
                except OverflowError:  # -1 does not fit a uint8 border
                    with pytest.raises(OverflowError):
                        im2col(x, pad_value)
                    continue
                got = im2col(x, pad_value)
                assert got.flags.c_contiguous, (h, wd)
                assert_bits_equal(got, want)


class TestConvBackward:
    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("c", [3, 8, 64])
    @pytest.mark.parametrize("size", [7, 15, 31, 64])
    def test_matches_nine_add_col2im(self, size, c, dtype):
        rng = np.random.default_rng([size, c])
        o = 5
        x = rng.standard_normal((2, size, size - 2, c)).astype(dtype)
        cols = im2col(x, 0.0)
        w = rng.standard_normal((o, c, 3, 3)).astype(dtype)
        dout = rng.standard_normal((2, size, size - 2, o)).astype(dtype)
        dx_old, dw_old, _ = oracle_conv_bwd(dout, cols, w)
        assert_bits_equal(_conv_weight_grad(dout, cols), dw_old)
        dx = _conv_input_grad(dout, w)
        assert dx.flags.c_contiguous
        assert_bits_equal(dx, dx_old)

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("o", [3, 16])
    @pytest.mark.parametrize("n, size, c", [(n, size, c) for n in (1, 3, 16)
                                            for size, c, _o, _pool in conv_stages("desk")]
                             + [(1, 142, 32)])
    def test_both_col2im_paths_on_stage_shapes(self, n, size, c, o, dtype):
        # the input of every desk conv at three batches and paper dec_out's
        # at batch 1, under dec_out's three output channels and sixteen
        rng = np.random.default_rng([n, size, c, o])
        w = rng.standard_normal((o, c, 3, 3)).astype(dtype)
        dout = signed_values(rng, (n, size, size, o), dtype)
        cols = np.zeros((n, size, size, 9 * c), dtype)  # the weight gradient is not under test
        dx_old = np.ascontiguousarray(oracle_conv_bwd(dout, cols, w)[0])
        assert_bits_equal(_conv_input_grad(dout, w), dx_old)


class TestPoolForward:
    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("c", [3, 8, 64])
    @pytest.mark.parametrize("size", [7, 15, 31, 64])
    @pytest.mark.parametrize("values", ["pm1", "signed"])
    def test_matches_stack_argmax(self, values, size, c, dtype):
        rng = np.random.default_rng([size, c, values == "pm1"])
        shape = (2, size, size + 2, c)
        if values == "pm1":  # +-1 maps: almost every window is a tie
            x = np.where(rng.random(shape) < 0.5, -1.0, 1.0).astype(dtype)
        else:
            x = signed_values(rng, shape, dtype)
        out, (idx, h, wd) = _pool_fwd(x)
        out_old, (idx_old, h_old, wd_old) = oracle_pool_fwd(x)
        assert_bits_equal(out, out_old)
        assert np.array_equal(idx, idx_old)
        assert (h, wd) == (h_old, wd_old)
        dout = rng.standard_normal(out.shape).astype(dtype)
        assert_bits_equal(_pool_bwd(dout, (idx, h, wd)), _pool_bwd(dout, (idx_old, h, wd)))

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("size", [7, 15, 31, 64])
    @pytest.mark.parametrize("values", ["pm1", "signed"])
    def test_backward_matches_nine_masked_adds(self, values, size, dtype):
        # overlapping windows add up to four taps into one pixel, so the
        # order of the adds shows in the bits; dout has ties and both zeros
        rng = np.random.default_rng([size, values == "pm1", 9])
        shape = (2, size, size + 2, 8)
        if values == "pm1":
            x = np.where(rng.random(shape) < 0.5, -1.0, 1.0).astype(dtype)
        else:
            x = signed_values(rng, shape, dtype)
        _, cache = _pool_fwd(x)
        dout = signed_values(rng, cache[0].shape, dtype)
        assert_bits_equal(_pool_bwd(dout, cache), oracle_pool_bwd(dout, cache))

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_backward_adds_a_shared_pixel_in_tap_order(self, dtype):
        # pixel (2, 2) is the max of the four windows that overlap on it: tap
        # (0, 0) of output (1, 1), (0, 2) of (1, 0), (2, 0) of (0, 1) and
        # (2, 2) of (0, 0), added from +0.0 in that order. Only the first two
        # adds commute; dout makes every other order give other bits
        x = np.zeros((1, 5, 5, 1), dtype)
        x[0, 2, 2, 0] = 1.0
        _, cache = _pool_fwd(x)
        assert np.array_equal(cache[0][0, :, :, 0], [[8, 6], [2, 0]])
        big = 1.0 / np.finfo(dtype).eps
        dout = np.array([[2.0, -7.0 * big], [7.0, -5.0]], dtype).reshape(1, 2, 2, 1)
        taps = dout.reshape(-1)[::-1]  # outputs (1, 1), (1, 0), (0, 1), (0, 0)
        sums = {}
        for perm in itertools.permutations(range(4)):
            acc = dtype(0.0)
            for k in perm:
                acc = acc + taps[k]
            sums[perm] = acc
        want = sums[(0, 1, 2, 3)]
        assert all(v != want for p, v in sums.items() if p[2:] != (2, 3))
        got = _pool_bwd(dout, cache)
        assert got[0, 2, 2, 0] == want
        assert_bits_equal(got, oracle_pool_bwd(dout, cache))

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("size, c", [(size, o) for size, _c, o, pool in conv_stages("desk") if pool])
    def test_sign_bits_pool_as_their_values(self, size, c, dtype):
        # a binarized stage pools its bool map; the maxima and window
        # indices are the argmax oracle's on the +-1 map, on every desk
        # encoder stage's output at batch 16
        bits = np.random.default_rng([size, c]).random((16, size, size, c)) < 0.5
        values = unpack(bits).astype(dtype)
        out, (idx, h, wd) = _pool_fwd(bits)
        out_old, (idx_old, _h, _wd) = oracle_pool_fwd(values)
        assert out.dtype == bool and idx.dtype == np.uint8
        assert_bits_equal(unpack(out).astype(dtype), out_old)
        assert np.array_equal(idx, idx_old)
        assert (h, wd) == (size, size)
        ev = maxpool(bits)
        assert ev.dtype == bool
        assert_bits_equal(unpack(ev).astype(dtype), out_old)

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("values", ["pm1", "signed"])
    def test_eval_max_matches_pool_fwd(self, values, dtype):
        rng = np.random.default_rng([7, values == "pm1"])
        for shape in [(2, 7, 9, 3), (3, 15, 15, 8), (2, 31, 30, 64)]:
            if values == "pm1":
                x = np.where(rng.random(shape) < 0.5, -1.0, 1.0).astype(dtype)
            else:  # mostly +-0.0, so ties between signed zeros are common
                x = signed_values(rng, shape, dtype)
                x[rng.random(shape) < 0.5] = 0.0
                x[rng.random(shape) < 0.3] = -0.0
            out = maxpool(x)
            assert out.dtype == dtype
            assert_bits_equal(out, _pool_fwd(x)[0])


class TestResizeBackward:
    @pytest.mark.parametrize("dtype", DTYPES)
    def test_every_small_ratio(self, dtype):
        # every (h, size) with up to four copies per input row, which covers
        # every run of three
        rng = np.random.default_rng(0)
        for h in range(1, 17):
            for size in range(h, 4 * h + 1):
                d = signed_values(rng, (2, size, size, 3), dtype)
                assert_bits_equal(_resize_bwd(d, h, h), oracle_resize_bwd(d, h, h))

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("c", [3, 8, 64])
    def test_decoder_ratios(self, c, dtype):
        rng = np.random.default_rng(c)
        for h, size in decoder_resizes():
            d = rng.standard_normal((2, size, size, c)).astype(dtype)
            assert_bits_equal(_resize_bwd(d, h, h), oracle_resize_bwd(d, h, h))

    def test_decoder_ratios_have_runs_of_three(self):
        pairs = decoder_resizes()
        assert len(pairs) == 8
        for h, size in pairs:
            assert np.bincount(nn_index(h, size)).max() == 3, (h, size)


class TestBatchNorm:
    @pytest.mark.parametrize("dtype", DTYPES)
    # the desk stage maps at batch 16, a few others, and one channel, where
    # numpy's sum is pairwise rather than row by row
    @pytest.mark.parametrize("shape", [(2, 7, 7, 3), (16, 15, 15, 8), (4, 31, 31, 64), (16, 64),
                                       (16, 64, 64, 8), (16, 31, 31, 16), (16, 7, 7, 64), (3, 7, 7, 1)])
    def test_matches_x_var_and_one_expression_backward(self, shape, dtype):
        rng = np.random.default_rng(len(shape) + shape[-1])
        x = (rng.standard_normal(shape) * 3 + 1).astype(dtype)
        gamma = rng.standard_normal(shape[-1]).astype(dtype)
        beta = rng.standard_normal(shape[-1]).astype(dtype)
        y, cache, (mu, var) = _bn_fwd(x, gamma, beta)
        y_old, cache_old, (mu_old, var_old) = oracle_bn_fwd(x, gamma, beta)
        for new, old in zip((y, mu, var) + cache, (y_old, mu_old, var_old) + cache_old):
            assert_bits_equal(new, old)
        dy = signed_values(rng, shape, dtype)
        for new, old in zip(_bn_bwd(dy, cache), oracle_bn_bwd(dy, cache)):
            assert_bits_equal(new, old)


class TestSignValues:
    @pytest.mark.parametrize("dtype", DTYPES + [np.int8])
    def test_matches_where(self, dtype):
        x = signed_values(np.random.default_rng(6), (3, 50), np.float64)
        if dtype is np.int8:
            x = x * 10
        else:
            x[0, :3] = np.nan, np.inf, -np.inf
        x = x.astype(dtype)
        assert_bits_equal(sign_values(x), oracle_sign_values(x))


class TestSelect:
    @pytest.mark.parametrize("dtype", DTYPES)
    def test_matches_where(self, dtype):
        # the straight-through select keeps every bit of a kept gradient,
        # signed zeros, NaN and infinities included, and drops to +0.0
        rng = np.random.default_rng(9)
        g = signed_values(rng, (4, 6, 5, 8), dtype)
        special = [np.nan, -np.nan, np.inf, -np.inf, 0.0, -0.0]
        g.reshape(-1)[:12] = special * 2
        mask = rng.random(g.shape) < 0.5
        mask.reshape(-1)[:12] = [True] * 6 + [False] * 6
        got = _select(mask, g)
        assert_bits_equal(got, np.where(mask, g, 0.0))
        assert_bits_equal(got, ste_backward(np.where(mask, 0.5, 2.0), g))


class TestLogistic:
    @pytest.mark.parametrize("dtype", DTYPES)
    def test_matches_masked_exp(self, dtype):
        rng = np.random.default_rng(5)
        x = np.concatenate([
            signed_values(rng, 4000, dtype) * dtype(20),
            np.array([0.0, -0.0, 1e-30, -1e-30, 88.0, -88.0, 700.0, -700.0, np.inf, -np.inf], dtype),
        ]).reshape(10, -1)
        assert_bits_equal(logistic(x), oracle_logistic(x))


class TestAdamStep:
    @pytest.mark.parametrize("clip", [False, True])
    @pytest.mark.parametrize("dtype", DTYPES)
    def test_blocks_match_whole_tensor_expression(self, dtype, clip):
        # 3 full blocks of training._ADAM_BLOCK plus a ragged tail, beside a
        # tensor smaller than one block
        rng = np.random.default_rng(8)
        shapes = {"big": (3 * training._ADAM_BLOCK // 64 + 1, 64), "small": (5, 3)}
        new = {k: signed_values(rng, s, dtype) for k, s in shapes.items()}
        old = {k: v.copy() for k, v in new.items()}
        clip_names = ("big", "small") if clip else ()
        opt_new = Adam(new, lr=0.05, clip_names=clip_names)
        opt_old = Adam(old, lr=0.05, clip_names=clip_names)
        for _ in range(4):
            grads = {k: signed_values(rng, s, dtype) for k, s in shapes.items()}
            opt_new.step(new, grads)
            oracle_adam_step(opt_old, old, grads)
        for k in shapes:
            for a, b in ((new[k], old[k]), (opt_new.m[k], opt_old.m[k]), (opt_new.v[k], opt_old.v[k])):
                assert_bits_equal(a, b)


# ---------------------------------------------------------------------------
# the whole trainer, seeded
# ---------------------------------------------------------------------------

def _oracle_patches(monkeypatch):
    monkeypatch.setattr(training, "_pool_fwd", oracle_pool_fwd)
    monkeypatch.setattr(training, "_bn_fwd", oracle_bn_fwd)
    monkeypatch.setattr(training, "sign_values", oracle_sign_values)
    monkeypatch.setattr(training, "logistic", oracle_logistic)
    monkeypatch.setattr(DcaeNet, "_act_fwd", oracle_act_fwd)
    monkeypatch.setattr(DcaeNet, "backward", oracle_backward)
    monkeypatch.setattr(Adam, "step", oracle_adam_step)


def _seeded_run(mode):
    cfg = TrainConfig(mode=mode, input_size=33, channels=(4, 8, 8), fc1_out=32,
                      feature_dim=16, epochs=2, batch_size=6, seed=3)
    rng = np.random.default_rng(7)
    imgs = rng.integers(0, 256, (12, 33, 33, 3), dtype=np.uint8)
    val = rng.integers(0, 256, (5, 33, 33, 3), dtype=np.uint8)
    run = train_dcae(imgs, cfg, val)
    return run, run.net.reconstruct(val.astype(np.float32) / np.float32(255.0))


class TestSeededTraining:
    @pytest.mark.parametrize("mode", ["full", "partial", "binary"])
    def test_oracles_and_shipped_primitives_train_identically(self, mode, monkeypatch):
        shipped, recon = _seeded_run(mode)
        with monkeypatch.context() as m:
            _oracle_patches(m)
            oracle, recon_old = _seeded_run(mode)
        assert shipped.curve == oracle.curve
        for store in ("params", "running"):
            new, old = getattr(shipped.net, store), getattr(oracle.net, store)
            assert new.keys() == old.keys()
            for k in new:
                assert_bits_equal(new[k], old[k])
        assert_bits_equal(recon, recon_old)
