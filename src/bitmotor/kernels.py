"""Compute kernels for the packed binarized encoder, and the 3x3 conv column
layout that every conv in the package shares.

Weights are stored as bits (``BitTensor``); this module decides how each
stage computes on them. ``layers.PackedEncoder`` runs these kernels, and the
tests call them directly against float oracles.

``im2col`` lays out the 3x3 windows of a channels-last map as columns
ordered (dy, dx, c), and ``weight_matrix`` lays out (O, C, 3, 3) weights as
the matching (9*C, O) matrix, so a conv is one matrix product. The float
convs in ``layers`` and the trainer use the same two functions.

Conv stages carry activations as ``(H, W, C)`` bool maps, True for +1. A
binary conv maps the input to +-1.0 float32 values, pads it with -1, and
multiplies its columns by the +-1.0 weight matrix in one sgemm. The first
conv runs the same im2col + sgemm on the raw 8-bit pixels with zero padding.
Each output channel then fires where ``(pre >= tau) != flip``, with
``(tau, flip)`` the BN->sign threshold folded in ``layers.fold_bn_sign``.

The sgemm is exact. Every product is an integer and every partial sum is an
integer of magnitude below 2**24, which float32 represents exactly, so no
summation order, blocking or fused multiply-add inside BLAS can change a
result: binary convs sum at most 9*256 = 2304 terms of +-1 at the paper
geometry, and the first conv sums at most 27*255 = 6885. Thresholds are
clipped to one past the largest reachable sum before they are cast to
float32, which keeps them exact too without changing any comparison.

Fully-connected stages stay XNOR-popcount on packed words: the flattened
conv map is packed row-major into ``ceil(n/64)`` uint64 words, bit i at
position ``i & 63`` of word ``i >> 6`` with zero tail bits (the ``BitTensor``
layout), and each output neuron counts matches against its packed weight
row. fc1 at paper geometry has 1024 x 12544 weights: 1.6 MB as packed words,
but 51 MB as a float32 matrix that a matrix-vector product would have to
stream on every frame, while the popcount takes well under a millisecond.
A +-1 dot product of length ``n`` equals ``2*(matches - tail) - n``, so the
threshold on the dot product becomes a threshold on the match count, see
``match_thresholds``.
"""

from __future__ import annotations

import numpy as np

from .core import nwords, pack_channel_words, popcount
from .core import unpack_channel_words  # noqa: F401  (decodes feature words for callers)

# ---------------------------------------------------------------------------
# layout conversions
# ---------------------------------------------------------------------------


def flat_words(x, c):
    """(H, W, C) bool map -> flat words of its row-major (H*W*C)-bit ravel."""
    if x.shape[-1] != c:
        raise ValueError(f"map has {x.shape[-1]} channels, expected {c}")
    return pack_channel_words(x.reshape(-1))


def pack_fc_weights(wsigns):
    """FC weight signs (O, I) of +-1 -> row words (O, nw)."""
    bits = (np.asarray(wsigns) > 0).astype(np.uint8)
    return pack_channel_words(bits)


def match_thresholds(tau, flip, n, tail_const):
    """Dot-domain (tau, flip) -> match-count threshold for the FC kernel.

    ``tail_const`` is the popcount contribution of the zero tail bits, which
    XNOR to ones against the zero-padded weight words.
    """
    tau = np.asarray(tau, dtype=np.int64)
    taum = (tau + n + 1) // 2 + tail_const
    taum = np.clip(taum, np.iinfo(np.int32).min, np.iinfo(np.int32).max)
    return taum.astype(np.int32), np.asarray(flip, dtype=np.bool_)


# ---------------------------------------------------------------------------
# conv stages: im2col + sgemm
# ---------------------------------------------------------------------------


def im2col(x, pad_value):
    """(..., H, W, C) map -> (..., H, W, 9*C) columns of its 3x3 windows.

    Each pixel's column holds its window in (dy, dx, c) order, the row order
    of ``weight_matrix``; the border is ``pad_value``. The columns keep the
    dtype of ``x``.
    """
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


def weight_matrix(w):
    """(O, C, 3, 3) weights -> (9*C, O) matrix, rows ordered (dy, dx, c)."""
    o_ch, cin = w.shape[:2]
    return np.ascontiguousarray(w.transpose(2, 3, 1, 0).reshape(9 * cin, o_ch))


def _float_thresholds(tau, bound):
    """Integer thresholds clipped to [-(bound+1), bound+1], as exact float32.

    Pre-activations lie in [-bound, bound], so the clip changes no
    comparison, and bound+1 < 2**24 keeps the cast exact.
    """
    tau = np.clip(np.asarray(tau, dtype=np.int64), -(bound + 1), bound + 1)
    return tau.astype(np.float32)


def _conv_fire(x, pad_value, ww, tau, flip):
    """(H, W, C) float32 map -> (H, W, O) bool map of fired units."""
    h, wd, _ = x.shape
    pre = im2col(x, pad_value).reshape(h * wd, -1) @ ww
    return ((pre >= tau) != flip).reshape(h, wd, -1)


def conv1_forward(pixels, wsigns, tau, flip):
    """First-layer binary-weight conv on integer pixels.

    pixels: (H, W, C) integers in [0, 255]; wsigns: (O, C, 3, 3) of +-1;
    tau/flip: per-channel thresholds in the integer pre-activation domain.
    Returns the (H, W, O) bool map of the binarized output.
    """
    ww = weight_matrix(np.asarray(wsigns, np.float32))
    tau = _float_thresholds(tau, 9 * pixels.shape[-1] * 255)
    return _conv_fire(pixels.astype(np.float32), 0.0, ww, tau, np.asarray(flip, np.bool_))


class BinConvKernel:
    """+-1 weight matrix and thresholds for one binary conv layer."""

    def __init__(self, wsigns, tau, flip):
        o_ch, cin, kh, kw = wsigns.shape
        if (kh, kw) != (3, 3):
            raise ValueError("binary conv kernels are 3x3")
        self.out_channels = o_ch
        self.in_channels = cin
        self.ww = weight_matrix(np.asarray(wsigns, np.float32))
        self.tau = _float_thresholds(tau, 9 * cin)
        self.flip = np.ascontiguousarray(flip, dtype=np.bool_)

    def __call__(self, x):
        """x: (H, W, C) bool map -> (H, W, O) bool map."""
        if x.ndim != 3 or x.shape[2] != self.in_channels:
            raise ValueError(f"expected an (H, W, {self.in_channels}) map, got {x.shape}")
        xs = x.astype(np.float32)
        xs *= 2.0
        xs -= 1.0
        return _conv_fire(xs, -1.0, self.ww, self.tau, self.flip)


def pool_or(x):
    """3x3 stride-2 max pool over a +-1 bool map = OR of the window."""
    h, wd = x.shape[:2]
    if h < 3 or wd < 3:
        raise ValueError("pool input smaller than kernel")
    ho = (h - 3) // 2 + 1
    wo = (wd - 3) // 2 + 1
    # separable: OR along W, then along H
    rows = x[:, 0 : 2 * wo - 1 : 2] | x[:, 1 : 2 * wo : 2] | x[:, 2 : 2 * wo + 1 : 2]
    return rows[0 : 2 * ho - 1 : 2] | rows[1 : 2 * ho : 2] | rows[2 : 2 * ho + 1 : 2]


# ---------------------------------------------------------------------------
# FC stages: XNOR-popcount
# ---------------------------------------------------------------------------


class BinFcKernel:
    """Packed weight rows and match-count thresholds for one binary FC layer."""

    def __init__(self, wsigns, tau, flip):
        o_ch, in_dim = wsigns.shape
        self.out_features = o_ch
        self.in_features = in_dim
        self.wv = np.ascontiguousarray(pack_fc_weights(wsigns))
        self.taum, self.flip = match_thresholds(
            tau, flip, in_dim, 64 * nwords(in_dim) - in_dim
        )

    def __call__(self, xv):
        """xv: (nw,) input words -> (nwo,) output words."""
        xv = np.asarray(xv, dtype=np.uint64)
        if xv.shape != (self.wv.shape[1],):
            raise ValueError(
                f"expected {self.wv.shape[1]} words for {self.in_features} inputs, got {xv.shape}"
            )
        x = np.bitwise_xor(self.wv, xv[None, :])
        np.bitwise_not(x, out=x)
        counts = popcount(x).sum(axis=1, dtype=np.int64)
        fire = (counts >= self.taum) != self.flip
        return pack_channel_words(fire)
