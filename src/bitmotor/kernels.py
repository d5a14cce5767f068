"""Compute kernels for the packed binarized encoder, and the 3x3 conv column
layout of the float convs.

Encoder weights are stored as bool arrays, True for +1; this module decides
how each stage computes on them. A kernel takes the stored bools as they
are, or +-1 floats, which stand for +1 where they are positive (``_plus``),
so both build the same kernel. Bools are never compared: NumPy compares a
bool array with the int 0 as int64, and even a compare into a new bool array
copies fc1's weights at set-up.
``layers.PackedEncoder`` runs these kernels, and the tests call them
directly against float oracles.

Between conv stages a +-1 map travels packed: a C-contiguous
``(H, W, ceil(C/8))`` uint8 array, 8 channels per byte, least-significant
bit first, bit 1 for +1, as ``np.packbits(bits, axis=-1, bitorder="little")``
gives it. This is the bit order of ``core.pack_channel_words``, one byte at
a time, and the unused tail bits of each pixel's last byte are always zero.
Every kernel that takes a map rejects any other dtype or byte count
(``_check_map``), since a bool map of 8 channels has the shape and item
size of a packed map of 64. ``pool_or`` and ``_conv_fire`` move a pixel's
bytes as machine words (``_words``): pooling ORs them, which ORs every
channel bit, and the tap rows are shifted copies of them.

The binary convs run ``_conv_fire``: it lays out the horizontal taps of each
pixel once, as packed rows ``(H+2, W, 3, ceil(C/8))`` with a zero border,
then unpacks and casts them to float32 once. The 3x3 conv is then three
sgemms, one per vertical tap ``dy``, of the contiguous row-shifted view
``rows[dy*W : dy*W + H*W]`` against the ``dy`` block of the weight matrix,
accumulated in place. No 9*C-wide column copy is made; this is the split
over kernel taps of low-memory GEMM convolution (Anderson et al. 2017,
arXiv 1709.03395). Each output channel fires on one compare, ``pre >= t``;
on wide layers one sgemm column carries two channels (below). The fired
bools are packed with one flat ``np.packbits``; when O is not a multiple of
8 the bool rows get zero tail channels first. When C is not, the unpacked
rows carry the tail bits too, and the weight matrix has a zero row for each
of them in each tap, so they add nothing.

The first conv, ``Conv1Kernel``, reads the raw 8-bit pixels, and with C = 3
that split would give sgemms of K = 9 whose cost is dwarfed by building the
3-value tap runs and adding up a wide pre-activation. Instead the pixels are
copied once into zero-padded float32 planes ``(C, H+3, W+2)``. A plane row
is W+2 wide, so each tap (dy, dx) of every output pixel is one contiguous
run of the flat plane, from ``dy*(W+2) + dx``, and nine run copies fill
columns ``(9*C + 1, H*(W+2))`` in the (dy, dx, c) row order of
``weight_matrix``, plus a last row of ones; the two border columns of each
output row are computed too and dropped from the packed map. The weights
``wb`` are ``(9*C + 1, O)`` with ``-t`` in the last row, so one sgemm of the
transposed columns gives ``cols.T @ wb = pre - t`` channels-last, and the
map is ``pre - t >= 0`` under one flat ``np.packbits``. When O is not a
multiple of 8, ``wb`` has extra columns of zero weights and -1 in the
threshold row; they never fire, so the tail bits stay zero.

These forms are exact. Every product is an integer and every partial sum
is an integer of magnitude below 2**24, which float32 represents exactly,
so no summation order, blocking, fused multiply-add inside BLAS or split
into three products can change a result: binary convs sum at most
9*256 = 2304 terms of 0 or +-1 at the paper geometry, zero rows add exact
zeros, and the first conv has |pre| <= 27*255 and a clipped |t| <= 27*255 + 1,
so every partial sum of its threshold row's product stays within
2*(27*255 + 1).

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
where that is below 2**24 (``FOLD_VMAX``), which holds for K <= 2047 (C <= 227), and where
``K * O >= 2**14``. The second rule is measured (CHANGES.md has the
timings): the decode compares column slices of ``pre``, which numpy runs row
by row, and adds six numpy calls, which only a large sgemm repays. The rule
reads K*O, not the map size, which ``_conv_fire`` learns only per call, so
it pairs desk conv4 too: paper conv2's K*O on a 7x7 map. Both rules read
the real K; the zero rows for tail channels are inserted after pairing.

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

The 3x3 stride-2 pool's geometry is ``pool_out_size``. Each of the three
pools is separable and takes its own strided slices of the same windows:
``pool_or`` ORs packed words along H, then along W, which reads whole rows
in its first pass; ``layers.maxpool`` (eval and the float reference) takes
the dx taps of each row, then the dy taps, so it keeps the first max in
(dy, dx) order; and the trainer's ``_pool_fwd`` does the same and also
keeps each max's tap.

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
against its packed weight row. ``flat_words`` gives these words from a
packed map: when C is a multiple of 8 they are its bytes padded to whole
words. fc1 at paper geometry has 1024 x 12544 weights: 1.6 MB as packed
words, but 51 MB as a float32 matrix that a matrix-vector product would
have to stream on every frame. Flipped neurons negate their weight row, as
above. A +-1 dot product of length ``n`` is ``n - 2*mismatches``, and the
zero tails of both operands XOR to zero, so a neuron fires where
``mismatches <= (n - tau) // 2``.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .core import byte_words, pack_channel_words, unpack, unpack_channel_words

PIXEL_MAX = 255  # the largest 8-bit pixel value, which conv1 reads
FOLD_VMAX = 1 << 24  # integer pre-activations are exact in float32 below this

# ---------------------------------------------------------------------------
# layout conversions
# ---------------------------------------------------------------------------


def _nbytes(c):
    """Bytes per pixel of a packed map of c channels."""
    return -(-int(c) // 8)


def _check_map(x, c):
    """Raise unless ``x`` is a packed map, of c channels unless c is None."""
    nb = "ceil(C/8)" if c is None else _nbytes(c)
    if not (isinstance(x, np.ndarray) and x.dtype == np.uint8 and x.ndim == 3
            and (c is None or x.shape[2] == nb)):
        of = "" if c is None else f" of {c} channels"
        raise ValueError(f"expected a packed map{of}: (H, W, {nb}) uint8, 8 channels per byte, "
                         f"got {getattr(x, 'dtype', type(x).__name__)} {np.shape(x)}")


def _words(x):
    """Packed map as (H, W, nb / s) words of the widest unsigned dtype whose
    size s divides its nb bytes per pixel."""
    nb = x.shape[-1]
    return np.ascontiguousarray(x).view(f"u{min(nb & -nb, 8)}")


def flat_words(x, c):
    """Packed map of c channels -> words of the row-major (H*W*c)-bit ravel
    of its channels, as ``core.pack_channel_words`` packs it."""
    _check_map(x, c)
    if c % 8:
        x = np.packbits(unpack_channel_words(x, c), bitorder="little")
    return byte_words(np.ascontiguousarray(x).reshape(-1))


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
    """Weights (O, C, 3, 3) and ``(tau, flip)`` -> ``(ww, t)``: the (9*C, O)
    matrix and the thresholds of ``pre >= t``.

    Bool weights and +-1 values give the same kernel (``_plus``). ``bits``
    says the input is 0/1 bits standing for +-1 values; otherwise it is
    pixels in [0, PIXEL_MAX]. Flipped channels get negated weights and
    ``1 - tau``; bit inputs move ``tau`` into the bit domain.
    """
    flip = np.asarray(flip, np.bool_)
    pos = _plus(wsigns) != flip[:, None, None, None]
    # lay out the bools, then cast: np.where over two float32 scalars is
    # several times slower
    ww = unpack(weight_matrix(pos))
    tau = np.where(flip, 1 - np.asarray(tau, np.int64), tau)
    bound = ww.shape[0]
    if bits:
        tau = (tau + ww.sum(axis=0, dtype=np.int64) + 1) // 2
    else:
        bound *= PIXEL_MAX
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
    if k * (1 + base) >= FOLD_VMAX or k * o < 2**14:
        return ww, 0
    pairs = o // 2
    lo = o - pairs
    wp = ww[:, :lo].copy()
    wp[:, :pairs] += base * ww[:, lo:]
    return wp, base


def _tail_rows(ww, c):
    """(9*c, n) matrix, rows (dy, dx, c) -> (72*ceil(c/8), n), with a zero
    row for each tail bit of each tap's last byte."""
    if c % 8 == 0:
        return ww
    out = np.zeros((9, 8 * _nbytes(c), ww.shape[1]), ww.dtype)
    out[:, :c] = ww.reshape(9, c, -1)
    return out.reshape(-1, ww.shape[1])


def _conv_fire(x, ww, t, base):
    """(H, W, nb) packed map -> (H, W, ceil(O/8)) packed map of ``pre >= t``.

    Takes bit maps only; the pixels of the first conv go to ``Conv1Kernel``.
    ``ww`` has the rows of ``_tail_rows`` and the columns and ``base`` of
    ``_pair_channels``. With base 0 each column of ``pre`` is one channel.
    Otherwise column j holds ``lo + base * hi`` of channels j and lo + j,
    split as ``hi = rint(pre / base)`` and ``lo = pre - base * hi``; the
    output keeps channel order, lo block first.
    """
    h, wd, nb = x.shape
    xw = _words(x)
    rows = np.zeros((h + 2, wd, 3, xw.shape[2]), xw.dtype)
    rows[1:-1, :, 1] = xw
    rows[1:-1, 1:, 0] = xw[:, :-1]
    rows[1:-1, :-1, 2] = xw[:, 1:]
    n, k = h * wd, 24 * nb
    rows = np.unpackbits(rows.view(np.uint8).reshape(-1), bitorder="little")
    rows = rows.reshape(-1, k).astype(np.float32)
    pre = rows[:n] @ ww[:k]
    for dy in (1, 2):
        pre += rows[dy * wd : dy * wd + n] @ ww[dy * k : (dy + 1) * k]
    o = t.size
    fired = np.empty((n, 8 * _nbytes(o)), np.bool_)
    if o % 8:
        fired[:, o:] = False
    if not base:
        np.greater_equal(pre, t, out=fired[:, :o])
    else:
        lo = ww.shape[1]
        hi = pre * np.float32(1 / base)
        np.rint(hi, out=hi)
        np.greater_equal(hi[:, : o - lo], t[lo:], out=fired[:, lo:o])
        hi *= base
        pre -= hi
        np.greater_equal(pre, t[:lo], out=fired[:, :lo])
    return np.packbits(fired.reshape(-1), bitorder="little").reshape(h, wd, -1)


class Conv1Kernel:
    """Folded weight rows, threshold row included, for the first conv, which
    reads pixels."""

    def __init__(self, wsigns, tau, flip):
        o, cin, kh, kw = wsigns.shape
        if (kh, kw) != (3, 3):
            raise ValueError("conv1 kernels are 3x3")
        self.in_channels = cin
        self.out_channels = o
        ww, t = _fold_conv(wsigns, tau, flip, bits=False)
        # tail columns: zero weights and threshold 1, so pre - t = -1 < 0
        self.wb = np.zeros((9 * cin + 1, 8 * _nbytes(o)), np.float32)
        self.wb[:-1, :o] = ww
        self.wb[-1] = -1.0
        self.wb[-1, :o] = -t

    def __call__(self, pixels):
        """pixels: (H, W, C) integers in [0, 255] -> (H, W, ceil(O/8)) packed map."""
        if pixels.ndim != 3 or pixels.shape[2] != self.in_channels:
            raise ValueError(f"expected an (H, W, {self.in_channels}) image, got {pixels.shape}")
        h, wd, c = pixels.shape
        # the spare plane row keeps the last tap's run inside the plane
        w2 = wd + 2
        n = h * w2
        planes = np.zeros((c, h + 3, w2), np.float32)
        planes[:, 1 : h + 1, 1:-1] = pixels.transpose(2, 0, 1)
        planes = planes.reshape(c, -1)
        cols = np.empty((9 * c + 1, n), np.float32)
        taps = cols[:-1].reshape(3, 3, c, n)
        for dy in range(3):
            for dx in range(3):
                s = dy * w2 + dx
                taps[dy, dx] = planes[:, s : s + n]
        cols[-1] = 1.0
        fired = cols.T @ self.wb >= 0
        out = np.packbits(fired.reshape(-1), bitorder="little").reshape(h, w2, -1)
        return np.ascontiguousarray(out[:, :wd])


def conv1_forward(pixels, wsigns, tau, flip):
    """First-layer binary-weight conv on integer pixels, folded on every call.

    pixels: (H, W, C) integers in [0, 255]; wsigns: (O, C, 3, 3), as ``_plus``;
    tau/flip: per-channel thresholds in the integer pre-activation domain.
    Returns the (H, W, ceil(O/8)) packed map of the binarized output.
    ``PackedEncoder`` folds its ``Conv1Kernel`` once instead.
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
        ww, self.base = _pair_channels(ww)
        self.ww = _tail_rows(ww, cin)

    def __call__(self, x):
        """x: packed map of C channels -> packed map of O channels."""
        _check_map(x, self.in_channels)
        return _conv_fire(x, self.ww, self.t, self.base)


def pool_out_size(n):
    """Output length of the 3x3 stride-2 pool over an axis of length n."""
    if n < 3:
        raise ValueError(f"pool input {n} smaller than kernel 3")
    return (n - 3) // 2 + 1


def pool_or(x):
    """3x3 stride-2 max pool over a packed +-1 map = OR of the window's bytes."""
    _check_map(x, None)
    ho, wo = pool_out_size(x.shape[0]), pool_out_size(x.shape[1])
    x = _words(x)
    # separable: OR along H, then along W; the first pass reads whole rows
    # and halves H before the strided second pass
    cols = x[0 : 2 * ho - 1 : 2] | x[1 : 2 * ho : 2] | x[2 : 2 * ho + 1 : 2]
    out = cols[:, 0 : 2 * wo - 1 : 2] | cols[:, 1 : 2 * wo : 2] | cols[:, 2 : 2 * wo + 1 : 2]
    return out.view(np.uint8)


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
        """xv: (nw,) uint64 input words -> (nwo,) output words."""
        xv = np.asarray(xv)
        if xv.dtype != np.uint64 or xv.shape != (self.wv.shape[1],):
            raise ValueError(f"expected {self.wv.shape[1]} uint64 words for {self.in_features} "
                             f"inputs, got {xv.dtype} {xv.shape}")
        mismatches = np.bitwise_count(self.wv ^ xv).sum(axis=1, dtype=np.int64)
        return pack_channel_words(mismatches <= self.max_mismatch)
