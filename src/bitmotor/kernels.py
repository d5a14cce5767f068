"""Compute kernels for the packed binarized encoder, and the 3x3 conv column
layout of the float convs.

Encoder weights are stored as bool arrays, True for +1; this module decides
how each stage computes on them. A kernel takes the stored bools as they
are, or +-1 floats, which stand for +1 where they are positive (``_plus``),
so both build the same kernel. Bools are never compared: NumPy compares a
bool array with the int 0 as int64, and even a compare into a new bool array
costs a 12.8 MB copy of fc1's paper weights at set-up.
``layers.PackedEncoder`` runs these kernels, and the tests call them
directly against float oracles.

Conv stages carry activations as ``(H, W, C)`` bool maps, True for +1.
The binary convs run ``_conv_fire``: it lays out the horizontal taps of each
pixel once, as rows ``(H+2, W, 3*C)`` with a zero border, cast once to
float32. The 3x3 conv is then three sgemms, one per vertical tap ``dy``, of
the contiguous row-shifted view ``rows[dy*W : dy*W + H*W]`` against the
``dy`` block of ``weight_matrix``, accumulated in place. No 9*C-wide column
copy is made; this is the split over kernel taps of low-memory GEMM
convolution (Anderson et al. 2017, arXiv 1709.03395). Each output channel
fires on one compare, ``pre >= t``; on wide layers one sgemm column carries
two channels (below).

The first conv, ``Conv1Kernel``, reads the raw 8-bit pixels, and with C = 3
that split would give sgemms of K = 9 whose cost is dwarfed by building the
3-value tap runs and adding up a wide pre-activation. Instead the pixels are
copied once into zero-padded float32 planes ``(C, H+2, W+2)``, nine plane
slices fill columns ``(3, 3, C, H, W)`` in the (dy, dx, c) row order of
``weight_matrix``, and one sgemm with K = 9*C gives the output channels as
rows: ``pre = wt @ cols``, ``(O, H*W)``. Each channel fires on one compare
along its row. The returned ``(H, W, O)`` map is a transposed view of that
channel-planar result; ``pool_or``, ``BinConvKernel`` and ``flat_words``
take it like any other ``(H, W, C)`` map, so no transposing copy is made.

Both forms are exact. Every product is an integer and every partial sum is
an integer of magnitude below 2**24, which float32 represents exactly, so no
summation order, blocking, fused multiply-add inside BLAS or split into
three products can change a result: binary convs sum at most 9*256 = 2304
terms of 0 or +-1 at the paper geometry, and the first conv reaches at most
|pre| <= 27*255 = 6885.

The same bound lets a binary conv put two output channels in one sgemm
column, as Xilinx's WP486 (2017) packs two INT8 products that share an
operand into one DSP48 multiply. ``_pair_channels`` folds the (K, O) matrix,
K = 9*C, once into ``ww[:, :lo] + base * ww[:, lo:]`` with ``pairs = O // 2``
and ``lo = O - pairs``, so the sgemms do half the work; when O is odd the
last lo column has no partner. Column j of ``pre`` then holds
``lo + base * hi``, the sums of channels j and lo + j. ``base`` is the
smallest power of two above ``2K + 1``, so ``|lo| <= K < base / 2``:

- ``hi = rint(pre / base)`` is exact, since dividing by a power of two is,
  and a hi channel fires where ``hi >= t``, the same as
  ``pre >= base*t - base/2``.
- ``lo = pre - base * hi``, and a lo channel fires where ``lo >= t``. An
  unpartnered column has ``hi = 0``.

Every term of such a column is 0 or +-1 +- base, so every partial sum BLAS
can form is at most ``K * (1 + base)`` in magnitude. A layer pairs only
where that is below 2**24, which holds for K <= 2047 (C <= 227), and where
``K * O >= 2**14``. The second rule is measured (CHANGES.md has the
timings): the decode compares column slices of ``pre``, which numpy runs row
by row, and adds six numpy calls, which only a large sgemm repays. The rule
reads K*O, not the map size, which ``_conv_fire`` learns only per call, so
it pairs desk conv4 too: paper conv2's K*O on a 7x7 map.

Two integer identities fold BN->sign thresholds ``(tau, flip)`` (from
``layers.fold_bn_sign``) into the single threshold ``t`` at set-up:

- A flipped channel fires where ``x.w < tau``, that is where
  ``x.(-w) >= 1 - tau``: its weights are negated and ``tau`` becomes
  ``1 - tau``.
- A binary conv multiplies the bits ``b`` themselves, not the +-1 values
  ``x = 2*b - 1``: ``x.w = 2*(b.w) - sum(w)``, so ``x.w >= tau`` exactly
  where ``b.w >= ceil((tau + sum(w)) / 2)``. The zero border is the zero
  bit, the -1 padding of the float reference.

Thresholds are clipped to one past the reachable range of ``pre`` before
they are cast to float32, which keeps them exact without changing any
comparison.

The 3x3 stride-2 pool's geometry is ``pool_out_size`` and ``pool_windows``.
``pool_or`` ORs bool maps separably and ``layers.maxpool`` runs over
``pool_windows``; the trainer's ``_pool_fwd``, which also keeps each max's
tap, takes its own separable strided slices of the same windows.

``im2col`` lays out the 3x3 windows of a channels-last map as columns
ordered (dy, dx, c), and ``weight_matrix`` lays out (O, C, 3, 3) weights as
the matching (9*C, O) matrix, so a conv is one matrix product. The trainer
(``training._conv_fwd``; backward builds the columns again from the saved
input for the weight gradient, except at the walk's last conv, which keeps
them) and the float reference (``layers.conv2d_float``) use ``im2col``; the
packed convs do not.

Fully-connected stages stay XNOR-popcount on packed words: the flattened
conv map is packed row-major into ``ceil(n/64)`` uint64 words, bit i at
position ``i & 63`` of word ``i >> 6`` with zero tail bits
(``core.pack_channel_words``), and each output neuron counts mismatches
against its packed weight row. fc1 at paper geometry has 1024 x 12544
weights: 1.6 MB as packed words, but 51 MB as a float32 matrix that a
matrix-vector product would have to stream on every frame, while the
popcount takes well under a millisecond. Flipped neurons negate their
weight row, as above. A +-1 dot product of length ``n`` is
``n - 2*mismatches``, and the zero tails of both operands XOR to zero, so a
neuron fires where ``mismatches <= (n - tau) // 2``.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .core import pack_channel_words, popcount, unpack
from .core import unpack_channel_words  # noqa: F401  (decodes feature words for callers)

# ---------------------------------------------------------------------------
# layout conversions
# ---------------------------------------------------------------------------


def flat_words(x, c):
    """(H, W, C) bool map -> flat words of its row-major (H*W*C)-bit ravel."""
    if x.shape[-1] != c:
        raise ValueError(f"map has {x.shape[-1]} channels, expected {c}")
    return pack_channel_words(x.reshape(-1))


def im2col(x, pad_value):
    """(..., H, W, C) map -> (..., H, W, 9*C) columns of its 3x3 windows.

    Each pixel's column holds its window in (dy, dx, c) order, the row order
    of ``weight_matrix``; the border is ``pad_value``. The columns keep the
    dtype of ``x`` and are C-contiguous.
    """
    h, wd, cin = x.shape[-3:]
    lead = x.shape[:-3]
    xp = np.empty(lead + (h + 2, wd + 2, cin), x.dtype)
    xp[...] = pad_value
    xp[..., 1:-1, 1:-1, :] = x
    # in a padded row the taps dx of one window are a contiguous run of 3*C
    # values, so windows (dy, 3*C) taken every C values along the row are
    # the columns
    xp = xp.reshape(lead + (h + 2, (wd + 2) * cin))
    win = sliding_window_view(xp, (3, 3 * cin), axis=(-2, -1))[..., ::cin, :, :]
    return np.ascontiguousarray(win).reshape(lead + (h, wd, 9 * cin))


def weight_matrix(w):
    """(O, C, 3, 3) weights -> (9*C, O) matrix, rows ordered (dy, dx, c)."""
    o_ch, cin = w.shape[:2]
    return np.ascontiguousarray(w.transpose(2, 3, 1, 0).reshape(9 * cin, o_ch))


# ---------------------------------------------------------------------------
# conv stages
# ---------------------------------------------------------------------------


def _plus(w):
    """True where a weight stands for +1: bools are returned unchanged (so
    callers must not write to the result), +-1 values are compared with 0."""
    return w if w.dtype == np.bool_ else w > 0


def _fold_conv(wsigns, tau, flip, bits):
    """Weights (O, C, 3, 3) and ``(tau, flip)`` -> ``(ww, t)`` of ``_conv_fire``.

    Bool weights and +-1 values give the same kernel (``_plus``). ``bits``
    says the input is 0/1 bits standing for +-1 values; otherwise it is
    pixels in [0, 255]. Flipped channels get negated weights and
    ``1 - tau``; bit inputs move ``tau`` into the bit domain.
    """
    flip = np.asarray(flip, np.bool_)
    pos = _plus(wsigns) != flip[:, None, None, None]
    # lay out the bools, then cast: np.where over two float32 scalars took
    # 1.8 ms on paper conv4's 295 K weights, the cast 0.13 ms
    ww = unpack(weight_matrix(pos))
    tau = np.where(flip, 1 - np.asarray(tau, np.int64), tau)
    bound = ww.shape[0]
    if bits:
        tau = (tau + ww.sum(axis=0, dtype=np.int64) + 1) // 2
    else:
        bound *= 255
    t = np.clip(tau, -(bound + 1), bound + 1).astype(np.float32)
    return ww, t


def _pair_channels(ww):
    """(9*C, O) bit-domain weight matrix -> ``(ww, base)`` of ``_conv_fire``.

    A layer that pairs gets ``ww[:, :lo] + base * ww[:, lo:]``, two output
    channels per column, with ``lo = O - O // 2``; when O is odd the last lo
    column has no partner. Any other layer keeps its matrix, with base 0.
    The rule reads K and O only, not the map size, so desk conv4 (K*O = 18432
    on a 7x7 map) pairs too.
    """
    k, o = ww.shape
    base = 1 << (2 * k + 1).bit_length()
    if k * (1 + base) >= 2**24 or k * o < 2**14:
        return ww, 0
    pairs = o // 2
    lo = o - pairs
    wp = ww[:, :lo].copy()
    wp[:, :pairs] += base * ww[:, lo:]
    return wp, base


def _conv_fire(x, ww, t, base):
    """(H, W, C) bool map -> (H, W, O) bool map of ``pre >= t``.

    Takes bit maps only; the pixels of the first conv go to ``Conv1Kernel``.
    ``ww`` and ``base`` come from ``_pair_channels``. With base 0 each column
    of ``pre`` is one channel. Otherwise column j holds ``lo + base * hi`` of
    channels j and lo + j, split as ``hi = rint(pre / base)`` and
    ``lo = pre - base * hi``; the output keeps channel order, lo block first.
    """
    h, wd, c = x.shape
    rows = np.zeros((h + 2, wd, 3, c), x.dtype)
    rows[1:-1, :, 1] = x
    rows[1:-1, 1:, 0] = x[:, :-1]
    rows[1:-1, :-1, 2] = x[:, 1:]
    rows = rows.reshape((h + 2) * wd, 3 * c).astype(np.float32)
    n, k = h * wd, 3 * c
    pre = rows[:n] @ ww[:k]
    for dy in (1, 2):
        pre += rows[dy * wd : dy * wd + n] @ ww[dy * k : (dy + 1) * k]
    if not base:
        return (pre >= t).reshape(h, wd, -1)
    lo = ww.shape[1]
    out = np.empty((n, t.size), np.bool_)
    hi = pre * np.float32(1 / base)
    np.rint(hi, out=hi)
    np.greater_equal(hi[:, : t.size - lo], t[lo:], out=out[:, lo:])
    hi *= base
    pre -= hi
    np.greater_equal(pre, t[:lo], out=out[:, :lo])
    return out.reshape(h, wd, -1)


class Conv1Kernel:
    """Folded weight rows and thresholds for the first conv, which reads pixels."""

    def __init__(self, wsigns, tau, flip):
        o_ch, cin, kh, kw = wsigns.shape
        if (kh, kw) != (3, 3):
            raise ValueError("conv1 kernels are 3x3")
        self.out_channels = o_ch
        self.in_channels = cin
        ww, t = _fold_conv(wsigns, tau, flip, bits=False)
        self.wt = np.ascontiguousarray(ww.T)
        self.t = t[:, None]

    def __call__(self, pixels):
        """pixels: (H, W, C) integers in [0, 255] -> (H, W, O) bool map."""
        if pixels.ndim != 3 or pixels.shape[2] != self.in_channels:
            raise ValueError(f"expected an (H, W, {self.in_channels}) image, got {pixels.shape}")
        h, wd, c = pixels.shape
        planes = np.zeros((c, h + 2, wd + 2), np.float32)
        planes[:, 1:-1, 1:-1] = pixels.transpose(2, 0, 1)
        cols = np.empty((3, 3, c, h, wd), np.float32)
        for dy in range(3):
            for dx in range(3):
                cols[dy, dx] = planes[:, dy : dy + h, dx : dx + wd]
        pre = self.wt @ cols.reshape(9 * c, h * wd)
        return (pre >= self.t).reshape(-1, h, wd).transpose(1, 2, 0)


def conv1_forward(pixels, wsigns, tau, flip):
    """First-layer binary-weight conv on integer pixels, folded on every call.

    pixels: (H, W, C) integers in [0, 255]; wsigns: (O, C, 3, 3), as ``_plus``;
    tau/flip: per-channel thresholds in the integer pre-activation domain.
    Returns the (H, W, O) bool map of the binarized output. ``PackedEncoder``
    folds its ``Conv1Kernel`` once instead.
    """
    return Conv1Kernel(wsigns, tau, flip)(pixels)


class BinConvKernel:
    """Folded weight matrix and thresholds for one binary conv layer."""

    def __init__(self, wsigns, tau, flip):
        o_ch, cin, kh, kw = wsigns.shape
        if (kh, kw) != (3, 3):
            raise ValueError("binary conv kernels are 3x3")
        self.out_channels = o_ch
        self.in_channels = cin
        ww, self.t = _fold_conv(wsigns, tau, flip, bits=True)
        self.ww, self.base = _pair_channels(ww)

    def __call__(self, x):
        """x: (H, W, C) bool map -> (H, W, O) bool map."""
        if x.ndim != 3 or x.shape[2] != self.in_channels:
            raise ValueError(f"expected an (H, W, {self.in_channels}) map, got {x.shape}")
        return _conv_fire(x, self.ww, self.t, self.base)


def pool_out_size(n):
    """Output length of the 3x3 stride-2 pool over an axis of length n."""
    if n < 3:
        raise ValueError(f"pool input {n} smaller than kernel 3")
    return (n - 3) // 2 + 1


def pool_windows(x):
    """The nine strided tap views of a 3x3 stride-2 pool over the (H, W) axes
    of an (..., H, W, C) map, in (dy, dx) order."""
    ho, wo = pool_out_size(x.shape[-3]), pool_out_size(x.shape[-2])
    return [x[..., dy : dy + 2 * ho - 1 : 2, dx : dx + 2 * wo - 1 : 2, :] for dy in range(3) for dx in range(3)]


def pool_or(x):
    """3x3 stride-2 max pool over a +-1 bool map = OR of the window."""
    ho, wo = pool_out_size(x.shape[0]), pool_out_size(x.shape[1])
    # separable: OR along H, then along W; the first pass reads whole rows
    # and halves H before the strided second pass
    cols = x[0 : 2 * ho - 1 : 2] | x[1 : 2 * ho : 2] | x[2 : 2 * ho + 1 : 2]
    return cols[:, 0 : 2 * wo - 1 : 2] | cols[:, 1 : 2 * wo : 2] | cols[:, 2 : 2 * wo + 1 : 2]


# ---------------------------------------------------------------------------
# FC stages: XNOR-popcount
# ---------------------------------------------------------------------------


class BinFcKernel:
    """Packed weight rows and mismatch thresholds for one binary FC layer."""

    def __init__(self, wsigns, tau, flip):
        o_ch, in_dim = wsigns.shape
        self.out_features = o_ch
        self.in_features = in_dim
        flip = np.asarray(flip, np.bool_)
        self.wv = pack_channel_words(_plus(wsigns))
        # the negated row of a flipped neuron has the other in_dim bits set;
        # the all-ones row has zero tail bits, so the tails stay zero
        self.wv[flip] ^= pack_channel_words(np.ones(in_dim, np.bool_))
        tau = np.where(flip, 1 - np.asarray(tau, np.int64), tau)
        self.max_mismatch = np.clip((in_dim - tau) // 2, -1, in_dim + 1)

    def __call__(self, xv):
        """xv: (nw,) input words -> (nwo,) output words."""
        xv = np.asarray(xv, dtype=np.uint64)
        if xv.shape != (self.wv.shape[1],):
            raise ValueError(
                f"expected {self.wv.shape[1]} words for {self.in_features} inputs, got {xv.shape}"
            )
        mismatches = popcount(self.wv ^ xv).sum(axis=1, dtype=np.int64)
        return pack_channel_words(mismatches <= self.max_mismatch)
