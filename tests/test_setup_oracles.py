"""Encoder set-up (BN folding, FC weight packing, random weight draws)
against the bodies they replaced.

Each ``oracle_*`` below is an earlier, simpler body kept verbatim. The
shipped set-up does less work, never other arithmetic, so what it builds
must match its oracle to the bit. One difference is intended:
``fold_bn_sign`` clamps ``tau`` to ``-FOLD_VMAX``, see
``test_always_firing_channel_ignores_its_neighbours``.
"""

import tracemalloc

import numpy as np
import pytest

from bitmotor import kernels
from bitmotor.core import nwords, pack_channel_words
from bitmotor.layers import (
    FOLD_VMAX,
    BNParams,
    EncoderLayer,
    EncoderParams,
    PackedEncoder,
    ThresholdParams,
    bn_forward,
    bn_scale,
    encoder_geometry,
    fold_bn_sign,
    random_encoder_params,
)

# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------


def oracle_fold_bn_sign(p: BNParams):
    # bisection over the full range for every channel
    if np.any(p.gamma == 0):
        raise ValueError("gamma must be nonzero to fold BN into a sign threshold")
    k = bn_scale(p)
    flip = k < 0

    def pred(v):
        # smallest-v-true predicate: sign flip-over along increasing v
        y = (v.astype(np.float32) - p.mu) * k + p.beta
        return np.where(flip, y < 0, y >= 0)

    lo = np.full(p.channels, -FOLD_VMAX - 1, dtype=np.int64)  # virtual: pred False
    hi = np.full(p.channels, FOLD_VMAX + 1, dtype=np.int64)   # virtual: pred True
    while np.any(hi - lo > 1):
        mid = (lo + hi) >> 1
        t = pred(mid)
        hi = np.where(t, mid, hi)
        lo = np.where(t, lo, mid)
    return ThresholdParams(hi.astype(np.int32), flip)


def oracle_pack_channel_words(bits):
    bits = np.ascontiguousarray(bits, dtype=np.uint8)
    c = bits.shape[-1]
    padded = np.zeros(bits.shape[:-1] + (nwords(c) * 64,), np.uint8)
    padded[..., :c] = bits
    by = np.packbits(padded, axis=-1, bitorder="little")
    return by.view(np.uint64)


def oracle_fc_kernel(wsigns, tau, flip):
    # BinFcKernel's (wv, max_mismatch), from a compare and a padded copy
    in_dim = wsigns.shape[1]
    flip = np.asarray(flip, np.bool_)
    bits = (wsigns > wsigns.dtype.type(0)) != flip[:, None]
    wv = np.ascontiguousarray(oracle_pack_channel_words(bits.view(np.uint8)))
    tau = np.where(flip, 1 - np.asarray(tau, np.int64), tau)
    return wv, np.clip((in_dim - tau) // 2, -1, in_dim + 1)


def oracle_random_encoder_params(rng, input_size, channels, fc1_out, feature_dim):
    layers = []
    for name, kind, _s, c_in, c_out, pool in encoder_geometry(
        input_size, channels, fc1_out, feature_dim
    ):
        shape = (c_out, c_in, 3, 3) if kind == "conv" else (c_out, c_in)
        w = rng.choice([-1.0, 1.0], size=shape) > 0
        window = c_in * 9 if kind == "conv" else c_in
        scale = 255.0 * window if name == "conv1" else float(window)
        bn = BNParams(
            gamma=rng.uniform(0.2, 2.0, c_out) * rng.choice([-1.0, 1.0], c_out),
            beta=rng.normal(0.0, 1.0, c_out),
            mu=rng.normal(0.0, 0.05 * scale, c_out),
            sigma2=rng.uniform(0.01, 0.09, c_out) * scale**2,
        )
        layers.append(EncoderLayer(name, kind, w, bn, pool))
    return EncoderParams(input_size=input_size, layers=layers)


# ---------------------------------------------------------------------------
# BN folding
# ---------------------------------------------------------------------------


def fires_up(p, v):
    """Per channel, whether the thresholded sign is +1 at the integer v[c]."""
    y = bn_forward(np.asarray(v, np.float32)[None, :], p)[0]
    return np.where(bn_scale(p) < 0, y < 0, y >= 0)


def edge_bn(rng, n):
    """BN parameters at the edges the fold must survive, n channels each family."""
    sign = lambda: rng.choice([-1.0, 1.0], n)  # noqa: E731
    always = np.r_[np.full(n // 2, 1e9), np.full(n - n // 2, -1e9)]
    # |v - mu| past 2**25 rounds to multiples of 4 or 8 in float32, so the
    # float32 crossing can sit a few steps off the float64 one, on either side
    far = rng.choice([3e7, 5e7, 1e8, 2e8], n)
    gamma = sign()
    return {
        "random": BNParams(rng.uniform(0.01, 3.0, n) * sign(), rng.normal(0.0, 2.0, n),
                           rng.normal(0.0, 50.0, n), rng.uniform(1e-4, 400.0, n)),
        "gamma_1e-6_to_1e3": BNParams(10 ** rng.uniform(-6, 3, n) * sign(), rng.normal(0.0, 2.0, n),
                                      rng.normal(0.0, 50.0, n), rng.uniform(0.0, 4.0, n), eps=1e-8),
        "sigma2_0_eps_1e2": BNParams(10 ** rng.uniform(-6, 3, n) * sign(), rng.normal(0.0, 2.0, n),
                                     rng.normal(0.0, 1e4, n), np.zeros(n), eps=1e2),
        "huge_mu": BNParams(rng.uniform(0.01, 3.0, n) * sign(), rng.normal(0.0, 1e6, n),
                            sign() * rng.uniform(1e6, 4e7, n), rng.uniform(0.0, 4.0, n)),
        "float32_rounding": BNParams(gamma, -gamma * (far + rng.integers(-64, 64, n)), -far,
                                     np.zeros(n), eps=1.0),
        "always_or_never": BNParams(sign(), always * sign(), rng.normal(0.0, 50.0, n),
                                    np.ones(n)),
    }


class TestFoldOracle:
    @pytest.mark.parametrize("seed", [0, 1])
    def test_matches_full_range_bisection(self, seed):
        rng = np.random.default_rng(seed)
        for family, p in edge_bn(rng, 300).items():
            got = fold_bn_sign(p)
            want = oracle_fold_bn_sign(p)
            assert np.array_equal(got.flip, want.flip), family
            assert np.array_equal(got.tau, np.maximum(want.tau, -FOLD_VMAX)), family
            assert np.all(got.tau >= -FOLD_VMAX) and np.all(got.tau <= FOLD_VMAX + 1), family

    def test_cases_use_the_full_range(self):
        # the bracket [g - 2, g] must fail on channels that do cross inside
        # the range, with the crossing above g and with it below g - 1, so
        # the full-range fallback is exercised on both sides
        rng = np.random.default_rng(0)
        above = below = 0
        for p in edge_bn(rng, 300).values():
            k = bn_scale(p).astype(np.float64)
            with np.errstate(divide="ignore", invalid="ignore"):
                g = np.ceil(p.mu.astype(np.float64) - p.beta.astype(np.float64) / k)
            g = np.clip(np.nan_to_num(g), -FOLD_VMAX - 1, FOLD_VMAX + 1)
            ends = np.full(p.channels, FOLD_VMAX)
            crosses = fires_up(p, ends) & ~fires_up(p, -ends)
            above += np.sum(crosses & ~fires_up(p, g))
            below += np.sum(crosses & fires_up(p, g - 2))
        assert above > 0 and below > 0

    def test_always_firing_channel_ignores_its_neighbours(self):
        # an always-firing channel reaches -FOLD_VMAX in 25 steps and a
        # never-firing one needs 26; the full-range bisection then steps the
        # first onto its virtual bound, -FOLD_VMAX - 1
        def bn(beta):
            n = len(beta)
            return BNParams(np.ones(n), np.asarray(beta), np.zeros(n), np.ones(n))

        alone = fold_bn_sign(bn([1e9])).tau[0]
        mixed = fold_bn_sign(bn([1e9, -1e9, 0.5, -7.25])).tau
        assert alone == mixed[0] == -FOLD_VMAX
        assert mixed[1] == FOLD_VMAX + 1
        assert oracle_fold_bn_sign(bn([1e9, -1e9])).tau[0] == -FOLD_VMAX - 1


# ---------------------------------------------------------------------------
# packing
# ---------------------------------------------------------------------------


class TestPackOracle:
    @pytest.mark.parametrize("dtype", [np.bool_, np.uint8])
    @pytest.mark.parametrize("c", [1, 5, 8, 63, 64, 65, 100, 129, 576])
    def test_channel_words(self, c, dtype):
        rng = np.random.default_rng(c)
        bits = rng.integers(0, 2, (3, c)).astype(dtype)
        got = pack_channel_words(bits)
        want = oracle_pack_channel_words(bits)
        assert got.dtype == np.uint64 and got.shape == (3, nwords(c))
        assert np.array_equal(got, want)
        assert np.array_equal(pack_channel_words(bits[1]), want[1])

    @pytest.mark.parametrize("weights", ["bool", "float"])
    @pytest.mark.parametrize("in_dim", [1, 63, 64, 65, 100, 12544])
    def test_fc_kernel(self, in_dim, weights):
        rng = np.random.default_rng(in_dim)
        o = 9
        bits = rng.integers(0, 2, (o, in_dim)) == 1
        ws = bits if weights == "bool" else np.where(bits, np.float32(1.0), np.float32(-1.0))
        tau = rng.integers(-in_dim - 2, in_dim + 3, o).astype(np.int32)
        flip = np.arange(o) % 3 == 1
        k = kernels.BinFcKernel(ws, tau, flip)
        want_wv, want_mm = oracle_fc_kernel(ws, tau, flip)
        assert k.wv.dtype == np.uint64 and k.wv.flags.c_contiguous
        assert np.array_equal(k.wv, want_wv)
        assert np.array_equal(k.max_mismatch, want_mm)
        tail = in_dim & 63
        if tail:
            assert np.all(k.wv[flip, -1] >> np.uint64(tail) == 0)
        assert np.array_equal(ws, bits if weights == "bool" else np.where(bits, 1.0, -1.0))


# ---------------------------------------------------------------------------
# random weights
# ---------------------------------------------------------------------------


def test_random_encoder_params_matches_choice():
    # fc1 has 3000 x 784 = 2.35 M weights, so its rows span three draw
    # blocks and a block boundary falls inside a row
    geometry = (33, (8, 16), 3000, 64)
    a, b = np.random.default_rng(5), np.random.default_rng(5)
    got = random_encoder_params(a, *geometry)
    want = oracle_random_encoder_params(b, *geometry)
    assert got.input_size == want.input_size
    assert got.layers[2].weights.size > 2 * 2**20
    for g, w in zip(got.layers, want.layers, strict=True):
        assert (g.name, g.kind, g.pool) == (w.name, w.kind, w.pool)
        assert g.weights.dtype == np.bool_ and np.array_equal(g.weights, w.weights), g.name
        for f in ("gamma", "beta", "mu", "sigma2", "eps"):
            assert np.array_equal(getattr(g.bn, f), getattr(w.bn, f)), (g.name, f)
    assert a.integers(0, 2**62) == b.integers(0, 2**62)
    assert np.array_equal(a.random(5), b.random(5))


# ---------------------------------------------------------------------------
# memory
# ---------------------------------------------------------------------------


def test_paper_setup_allocates_little():
    # the kernels keep ~2.4 MB; building them must not copy fc1's 12.8 M
    # stored bools (another 12.8 MB each time)
    enc = random_encoder_params(np.random.default_rng(0))
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        PackedEncoder(enc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - start < 8e6
