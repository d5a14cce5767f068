"""Training engine for the hourglass autoencoder.

The forward pass is a float emulation of the network: binarized layers use
sign(shadow weights) and sign activations, full-precision layers use the raw
weights and tanh. Gradients are hand-written reverse mode: exact through the
float decoder, straight-through (|x| < 1 mask) through every activation
binarization, and pass-through on weight binarization with shadow weights
clipped to [-1, 1] after each optimizer step.

The network is one walk of stages: the encoder, a decoder that mirrors it
stage by stage, and the output conv ``dec_out``. The three modes share that
walk and differ only in how long a leading run of it binarizes: "full" none,
"partial" the encoder, "binary" every stage.

Seeded float32 training is reproducible to the bit, so the stage primitives
are written for speed without changing any sum: each one does the same
arithmetic in the same order as the plain form kept beside its tests
(``tests/test_train_oracles.py``) and only lays memory out differently or
makes fewer passes. Three of them shape the whole walk:

- A conv's input gradient is col2im by tap: each tap (dy, dx), in that
  order, is a column subset of ``dout @ wm.T``, the plain form's GEMM,
  added into the channels-last map it came from.
- A binarized stage carries its activation as sign bits until after its
  pool and only then makes the +-1 values, once per stage.
- The straight-through gradient is an exact select on the gradient's bits,
  equal to ``np.where(mask, g, 0.0)``.

``forward_train``'s tape keeps, per stage, the weights and input of its
GEMM, BN's normalized values, and a tanh's output or a sign's
straight-through mask |z| < 1 as bools, plus a pool's window indices. A
conv keeps the map it read, not its im2col columns, which are nine times
larger: backward rebuilds them just before the weight gradient, the
recomputation step of Chen et al. 2016 (arXiv 1604.06174). The walk's last
conv, ``dec_out``, is the exception and keeps its columns. They are built
while the forward's memory peaks, and backward reads them first, so
rebuilding them would cost time and lower no peak. The backward walk stops
at the first stage's parameter gradients, since nothing reads the gradient
of the input image, and it consumes the tape: each saved array is dropped
after its last reader, so a step's buffers are freed before the next
step's forward allocates its own.

The net reads 8-bit pixels in every mode. ``forward_train``, ``encode`` and
``reconstruct`` take [0, 1] images and quantize them once, to rint(255 * x),
the values the deployed packed encoder reads; the reconstruction target
stays in [0, 1]. On those integers a binarized conv1's pre-activations are
exact, so eval-mode features equal the packed encoder's to the bit.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from math import isqrt, prod
from numbers import Integral

import numpy as np

from .core import sign_values, unpack
from .kernels import im2col, pool_out_size, weight_matrix
from .layers import (
    DESK_CHANNELS,
    DESK_FC1_OUT,
    DESK_INPUT_SIZE,
    FEATURE_DIM,
    PAPER_CHANNELS,
    PAPER_FC1_OUT,
    PAPER_INPUT_SIZE,
    BNParams,
    EncoderLayer,
    EncoderParams,
    conv_pad_value,
    encoder_geometry,
    logistic,
    maxpool,
    nn_index,
    nn_resize,
)

MODES = ("full", "partial", "binary")  # mode k binarizes the first k * len(encoder) stages
BN_EPS = 1e-5
BN_MOMENTUM = 0.9  # running-statistics decay per training batch
ADAM_BETA1 = 0.9   # Adam's moment decays and denominator guard (Kingma & Ba defaults)
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
EVAL_BATCH = 32  # images per encode call in extract_features
PIXEL_MAX = 255  # the net reads [0, 1] images as the 8-bit pixels rint(PIXEL_MAX * x)
_ADAM_BLOCK = 1 << 15  # elements per pass of Adam.step, so its temporaries stay in cache

SIZE_PRESETS = {
    "paper": (PAPER_INPUT_SIZE, PAPER_CHANNELS, PAPER_FC1_OUT),
    "desk": (DESK_INPUT_SIZE, DESK_CHANNELS, DESK_FC1_OUT),
}


class DivergenceError(RuntimeError):
    """Training loss went non-finite; carries the epoch (or step) index."""

    def __init__(self, epoch):
        super().__init__(f"loss diverged (NaN/Inf) at epoch {epoch}")
        self.epoch = epoch


@dataclass
class TrainConfig:
    mode: str = "partial"
    input_size: int = DESK_INPUT_SIZE
    channels: tuple = DESK_CHANNELS
    fc1_out: int = DESK_FC1_OUT
    feature_dim: int = FEATURE_DIM
    epochs: int = 60
    batch_size: int = 16
    learning_rate: float = 1e-3
    seed: int = 0

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        self.channels = tuple(int(c) for c in self.channels)
        for name, low in (("input_size", 1), ("batch_size", 1), ("epochs", 0), ("fc1_out", 1),
                          ("feature_dim", 1), ("seed", 0)):
            value = getattr(self, name)
            if not isinstance(value, Integral) or isinstance(value, bool):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            if value < low:
                raise ValueError(f"{name} must be >= {low}, got {value}")
        if not self.channels or min(self.channels) < 1:
            raise ValueError(f"channels must be one or more widths >= 1, got {self.channels}")
        if not 0 < self.learning_rate < np.inf:
            raise ValueError(f"learning_rate must be finite and > 0, got {self.learning_rate}")
        try:
            encoder_geometry(self.input_size, self.channels, self.fc1_out, self.feature_dim)
        except ValueError as e:
            raise ValueError(
                f"input_size {self.input_size} is too small for {len(self.channels)} pooled conv stages"
            ) from e

    @staticmethod
    def for_size(size, **overrides):
        if size not in SIZE_PRESETS:
            raise ValueError(f"unknown size preset {size!r}")
        input_size, channels, fc1_out = SIZE_PRESETS[size]
        cfg = TrainConfig(input_size=input_size, channels=channels, fc1_out=fc1_out)
        return replace(cfg, **overrides)


# ---------------------------------------------------------------------------
# loss
# ---------------------------------------------------------------------------

def dcae_loss(img, recon):
    """Mean squared error over all pixels and channels."""
    img = np.asarray(img, np.float32)
    recon = np.asarray(recon, np.float32)
    if img.shape != recon.shape:
        raise ValueError(f"shape mismatch: {img.shape} vs {recon.shape}")
    d = recon - img
    return float(np.mean(d.astype(np.float64) ** 2))


# ---------------------------------------------------------------------------
# stage primitives (forward + backward pairs)
# ---------------------------------------------------------------------------

def _conv_fwd(x, w, bias=None, pad_value=0.0):
    n, h, wd, c = x.shape
    cols = im2col(x, pad_value)
    out = (cols.reshape(-1, 9 * c) @ weight_matrix(w)).reshape(n, h, wd, -1)
    if bias is not None:
        out += bias
    return out, cols


def _conv_weight_grad(dout, cols):
    """Weight gradient of ``_conv_fwd`` from its saved columns."""
    o = dout.shape[-1]
    c = cols.shape[-1] // 9
    dw = cols.reshape(-1, 9 * c).T @ dout.reshape(-1, o)  # (9C, O)
    return np.ascontiguousarray(dw.reshape(3, 3, c, o).transpose(3, 2, 0, 1))


def _conv_input_grad(dout, w):
    """Input gradient of ``_conv_fwd``: the adjoint of im2col (col2im).

    The columns ``dout @ wm.T`` are made one tap at a time: tap t = 3*dy + dx
    is columns ``t*C : (t+1)*C``, the sgemm of ``dout`` against that tap's
    rows of the weight matrix, written into one reused ``(N, H, W, C)``
    block. Each block is added, in (dy, dx) order, into the channels-last
    input gradient through slices shifted by (dy - 1, dx - 1) and clipped to
    the map; what falls outside is the padded border, which has no
    gradient. Every pixel receives its nine taps from +0.0 in the order of
    the plain col2im, which adds the full columns into a padded map.
    """
    n, h, wd, o = dout.shape
    c = w.shape[1]
    wm = weight_matrix(w)
    d2 = dout.reshape(-1, o)
    dtype = np.result_type(wm, d2)
    block = np.empty((n, h, wd, c), dtype)
    grad = np.zeros((n, h, wd, c), dtype)
    for t in range(9):
        dy, dx = divmod(t, 3)
        np.matmul(d2, wm[t * c : (t + 1) * c].T, out=block.reshape(-1, c))
        (ry, sy), (rx, sx) = _shifted(dy - 1, h), _shifted(dx - 1, wd)
        grad[:, ry, rx] += block[:, sy, sx]
    return grad


def _shifted(d, m):
    """Slices (to, from) that add ``src[i]`` into ``dst[i + d]`` wherever
    both lie in ``range(m)``."""
    return slice(max(d, 0), m - max(-d, 0)), slice(max(-d, 0), m - max(d, 0))


def _chan_sum(*factors):
    """Per-channel sum, over every axis but the last, of one map or of the
    elementwise product of two maps of the same shape.

    The sum runs over the (-1, C) rows in row order, in one ``np.einsum``
    pass. That is the order in which numpy's ``sum`` reduces the leading
    axes of a contiguous map, so the two agree to the bit. With one channel
    numpy sums pairwise along the contiguous axis instead, so that case
    keeps numpy's ``sum``.
    """
    c = factors[0].shape[-1]
    if c == 1:
        x = factors[0] if len(factors) == 1 else np.multiply(*factors)
        return x.sum(axis=tuple(range(x.ndim - 1)))
    subscripts = ",".join(["ij"] * len(factors)) + "->j"
    return np.einsum(subscripts, *(f.reshape(-1, c) for f in factors))


def _wide_rows(x):
    """An (N, H, W, C) map as (N*H, W*C) rows, and a function that tiles a
    per-channel vector W times to match; other shapes come back as they are.

    A broadcast over the rows computes the same values as one over
    (..., C), in runs of W*C instead of C. The rows are a view of a
    contiguous ``x``, so in-place updates reach it.
    """
    if x.ndim != 4:
        return x, lambda v: v
    w = x.shape[2]
    return x.reshape(-1, w * x.shape[3]), lambda v: np.tile(v, w)


def _bn_fwd(x, gamma, beta):
    """Batch norm with the batch statistics. Broadcasts run on
    ``_wide_rows``; sums are ``_chan_sum``'s, in numpy's order."""
    count = x.size // x.shape[-1]
    mu = _chan_sum(x) / count  # x.mean's sum / count
    rows, tile = _wide_rows(x)
    xhat = rows - tile(mu)
    # the sum of xhat * xhat, numpy's own x.var expression, so var is
    # bit-identical to x.var(axes)
    var = _chan_sum(xhat.reshape(x.shape), xhat.reshape(x.shape)) / count
    inv = 1.0 / np.sqrt(var + BN_EPS)
    xhat *= tile(inv)
    y = xhat * tile(gamma)  # gamma * xhat + beta
    y += tile(beta)
    return y.reshape(x.shape), (xhat.reshape(x.shape), inv, gamma), (mu, var)


def _bn_bwd(dy, cache):
    """Backward of ``_bn_fwd``, with its broadcasts on ``_wide_rows`` too."""
    xhat, inv, gamma = cache
    count = dy.size // dy.shape[-1]
    dgamma = _chan_sum(dy, xhat)
    dbeta = _chan_sum(dy)
    rows, tile = _wide_rows(dy)
    xhat = xhat.reshape(rows.shape)
    dxhat = rows * tile(gamma)
    mean_dxhat_xhat = _chan_sum(dxhat.reshape(dy.shape), xhat.reshape(dy.shape)) / count
    # in place, in the order of inv * (dxhat - mean(dxhat) - xhat * mean(dxhat * xhat))
    dxhat -= tile(_chan_sum(dxhat.reshape(dy.shape)) / count)
    dxhat -= xhat * tile(mean_dxhat_xhat)
    dxhat *= tile(inv)
    return dxhat.reshape(dy.shape).astype(dy.dtype, copy=False), dgamma, dbeta


def _select(mask, g):
    """``np.where(mask, g, 0.0)`` for a float array ``g`` and a bool mask of
    its shape, to the bit: ``g``'s bits ANDed with all ones where ``mask``
    holds and with zeros elsewhere. Kept elements keep every bit, -0.0 and
    NaN included, and dropped ones are +0.0, as the select makes them."""
    uint = np.dtype(f"u{g.dtype.itemsize}")
    bits = mask.astype(uint)
    np.negative(bits, out=bits)
    bits &= g.view(uint)
    return bits.view(g.dtype)


def _max3(a, b, c):
    """Elementwise max of three taps, and the index of the first tap that
    attains it, as uint8.

    A later tap wins only when strictly greater. On a tie ``np.maximum``
    returns its second argument, so the earlier value stays, -0.0 included.
    """
    later = b > a
    m = np.maximum(b, a)
    k = (c > m).view(np.uint8) * 2
    np.maximum(c, m, out=m)
    np.maximum(k, later.view(np.uint8), out=k)
    return m, k


def _pool_fwd(x):
    """3x3 stride-2 max pool plus each output's window index 3*dy + dx, as
    uint8.

    Separable: each row's max over the dx taps, then the max of those over
    the dy taps. Both passes keep the first max, so each output is the first
    max in (dy, dx) order, argmax's rule; the index adds the dx of the row
    that dy picked through uint8 masks. A binarized stage pools its sign
    bits, a bool map, where nearly every window is a tie; True > False as
    +1 > -1, so the maxima and indices are those of the +-1 map. A window
    holding NaN pools to NaN, with an index that may differ from argmax's;
    training stops on the non-finite loss before backward.
    """
    ho, wo = pool_out_size(x.shape[1]), pool_out_size(x.shape[2])
    rows, dx = _max3(*(x[:, : 2 * ho + 1, t : t + 2 * wo - 1 : 2] for t in range(3)))
    out, dy = _max3(*(rows[:, t : t + 2 * ho - 1 : 2] for t in range(3)))
    idx = 3 * dy
    for t in range(3):  # add the dx of the row that dy picked
        idx += dx[:, t : t + 2 * ho - 1 : 2] * (dy == t).view(np.uint8)
    return out, (idx, x.shape[1], x.shape[2])


def _pool_bwd(dout, cache):
    """Adjoint of ``_pool_fwd``: each output's gradient goes to the pixel its
    window index names.

    One ``np.add.at`` scatter from +0.0, over the outputs in reverse raster
    order. A pixel shared by overlapping windows is tap (dy, dx) of the
    window 2*dy rows and 2*dx columns above it, so later windows reach it
    by earlier taps, and it receives its taps in (dy, dx) order, the order
    of nine masked adds, one per tap.
    """
    idx, h, wd = cache
    n, ho, wo, c = dout.shape
    dx = np.zeros((n, h, wd, c), dout.dtype)
    taps = np.arange(9)
    offset = (taps // 3 * wd + taps % 3) * c  # tap 3*dy + dx -> (dy*W + dx)*C
    corner = (  # flat index of each output's window corner, (b, 2i, 2j, ch)
        np.arange(n)[:, None, None, None] * (h * wd * c)
        + np.arange(ho)[:, None, None] * (2 * wd * c)
        + np.arange(wo)[:, None] * (2 * c)
        + np.arange(c)
    )
    target = offset[idx] + corner
    np.add.at(dx.reshape(-1), target.reshape(-1)[::-1], dout.reshape(-1)[::-1])
    return dx


def _fold_copies(d, n, axis):
    """Sum each run of ``nn_index`` copies along ``axis`` back into n values.

    Each run of k copies sums as ``first + ((second + third) + ...)``, the
    grouping of ``np.add.reduceat``, which adds a segment's tail in order
    before adding it to the head while the tail is shorter than eight (a
    decoder resize at most quadruples a side).
    """
    starts = np.searchsorted(nn_index(n, d.shape[axis]), np.arange(n))
    runs = np.diff(starts, append=d.shape[axis])
    bcast = (-1,) + (1,) * (d.ndim - axis - 1)
    out = np.take(d, starts, axis=axis)
    if runs.max() > 1:
        tail = np.take(d, starts + 1, axis=axis, mode="clip")
        for k in range(2, runs.max()):
            more = np.take(d, starts + k, axis=axis, mode="clip")
            np.add(tail, more, out=tail, where=(runs > k).reshape(bcast))
        np.add(out, tail, out=out, where=(runs > 1).reshape(bcast))
    return out


def _resize_bwd(dout, h, wd):
    """Adjoint of ``nn_resize``: sum each input pixel's copies."""
    return _fold_copies(_fold_copies(dout, h, 1), wd, 2)


# ---------------------------------------------------------------------------
# the network
# ---------------------------------------------------------------------------

@dataclass
class StageSpec:
    name: str
    kind: str          # conv | fc
    in_dim: int        # channels (conv) or features (fc)
    out_dim: int
    pool: bool = False
    resize_to: int | None = None  # decoder upsample target
    pad_value: float = 0.0        # conv border value


def _build_stage_specs(cfg: TrainConfig):
    """The stage walk (encoder, decoder, dec_out) and how many of its leading
    stages binarize.

    Each decoder stage mirrors an encoder stage, in reverse order, back to
    that stage's input width; a decoder conv first resizes to its twin's
    input size, so the last one, ``dec_out``, gives the image back. An
    encoder stage pads -1 where its input is the output of a binarized stage;
    decoder convs pad 0.
    """
    geometry = encoder_geometry(cfg.input_size, cfg.channels, cfg.fc1_out, cfg.feature_dim)
    n_bin = MODES.index(cfg.mode) * len(geometry)
    enc = [
        StageSpec("enc_" + name, kind, c_in, c_out, pool, pad_value=conv_pad_value(0 < i <= n_bin))
        for i, (name, kind, _s, c_in, c_out, pool) in enumerate(geometry)
    ]
    mirror = geometry[::-1]  # enc fc2's twin is dec_fc1, enc conv1's is dec_out
    kinds = [stage[1] for stage in mirror]
    names = [f"dec_{kind}{kinds[: i + 1].count(kind)}" for i, kind in enumerate(kinds)]
    names[-1] = "dec_out"
    dec = [
        StageSpec(name, kind, c_out, c_in, resize_to=size if kind == "conv" else None)
        for name, (_n, kind, size, c_in, c_out, _p) in zip(names, mirror)
    ]
    return enc + dec, n_bin


class DcaeNet:
    """Parameter store + forward/backward for one configured autoencoder."""

    def __init__(self, cfg: TrainConfig, rng=None, dtype=np.float32):
        rng = rng or np.random.default_rng(cfg.seed)
        self.cfg = cfg
        self.dtype = np.dtype(dtype)
        self.stages, n_bin = _build_stage_specs(cfg)
        n_enc = len(self.stages) // 2  # the decoder and dec_out mirror the encoder
        self.enc_specs, self.dec_specs = self.stages[:n_enc], self.stages[n_enc:-1]
        self.out_spec = self.stages[-1]
        self.binarized = frozenset(s.name for s in self.stages[:n_bin])
        self.params = {}
        self.running = {}
        for spec in self.stages:
            shape = (spec.out_dim, spec.in_dim) + ((3, 3) if spec.kind == "conv" else ())
            fan_in = prod(shape[1:])
            self.params[spec.name + "_w"] = rng.normal(0, np.sqrt(2.0 / fan_in), shape).astype(self.dtype)
            if spec is self.out_spec:  # a bias in place of BN
                self.params[spec.name + "_b"] = np.zeros(spec.out_dim, self.dtype)
                continue
            self.params[spec.name + "_gamma"] = np.ones(spec.out_dim, self.dtype)
            self.params[spec.name + "_beta"] = np.zeros(spec.out_dim, self.dtype)
            self.running[spec.name + "_mu"] = np.zeros(spec.out_dim, self.dtype)
            self.running[spec.name + "_var"] = np.ones(spec.out_dim, self.dtype)

    # -- helpers ------------------------------------------------------------

    def _w_eff(self, name):
        w = self.params[name + "_w"]
        return sign_values(w) if name in self.binarized else w

    def _act_fwd(self, name, z):
        """The activation and what its backward reads.

        A sign returns its bits, ``z >= 0`` (True for +1, ``sign_values``'
        rule), and the straight-through mask |z| < 1, both as bools;
        ``_forward`` turns the bits into +-1 values after the stage's pool,
        which picks the same maxima and window indices from the bits as
        from the values, since the map from bits to values is monotone.
        tanh returns its output twice.
        """
        if name in self.binarized:
            return z >= 0, np.abs(z) < 1.0
        t = np.tanh(z)
        return t, t

    def _act_bwd(self, name, dout, cache):
        if name in self.binarized:
            return _select(cache, dout)  # core.ste_backward's selection
        return dout * (1.0 - cache * cache)

    def _pixels(self, x01):
        """[0, 1] images (N, S, S, 3) as the pixel values rint(255 * x) in the
        net's dtype; a batch of another shape raises ``ValueError``."""
        _check_shape(np.shape(x01), self.cfg.input_size)
        x = np.multiply(x01, PIXEL_MAX, dtype=self.dtype)
        return np.rint(x, out=x)

    def _running_bn(self, name, x):
        """Inference BN on the running statistics, in the net's dtype.

        The expression is ``layers.bn_forward``'s, so on a float32 net the two
        agree to the bit; ``bn_forward`` itself always computes in float32.
        """
        k = self.params[name + "_gamma"] / np.sqrt(self.running[name + "_var"] + BN_EPS)
        rows, tile = _wide_rows(x)
        y = rows - tile(self.running[name + "_mu"])  # (x - mu) * k + beta, in place
        y *= tile(k)
        y += tile(self.params[name + "_beta"])
        return y.reshape(x.shape)

    # -- the stage walk -------------------------------------------------------

    def _forward(self, x, specs, tape=None, update_running=False):
        """Run batch ``x`` through ``specs`` in order; returns the last output.

        With a tape, BN normalizes by batch statistics (folded into the
        running ones if update_running) and each stage appends what
        ``backward`` needs, as the module docstring lists: a conv saves the
        map its columns are built from, except the last stage of ``specs``,
        which saves the columns. Without a tape, BN uses the running
        statistics and pools find no window indices.
        """
        for spec in specs:
            entry = {"spec": spec, "in_shape": x.shape}
            w = entry["w_eff"] = self._w_eff(spec.name)
            if spec.kind == "fc":
                x = entry["x_in"] = x.reshape(len(x), -1)
                pre = x @ w.T
            else:
                if x.ndim == 2:  # leaving the FC stages: a square map of in_dim channels
                    side = isqrt(x.shape[1] // spec.in_dim)
                    x = x.reshape(len(x), side, side, spec.in_dim)
                if spec.resize_to is not None:
                    entry["resize"] = x.shape[1:3]
                    x = nn_resize(x, spec.resize_to)
                bias = self.params.get(spec.name + "_b")
                pre, cols = _conv_fwd(x, w, bias, spec.pad_value)
                if spec is specs[-1]:
                    entry["cols"] = cols
                else:
                    entry["x_in"] = x
                    del cols
            if spec is self.out_spec:
                x = entry["sig"] = logistic(pre)
            else:
                if tape is None:
                    z = self._running_bn(spec.name, pre)
                else:
                    gamma, beta = self.params[spec.name + "_gamma"], self.params[spec.name + "_beta"]
                    z, entry["bn"], stats = _bn_fwd(pre, gamma, beta)
                    if update_running:
                        for key, stat in zip(("_mu", "_var"), stats):
                            r = self.running[spec.name + key]
                            self.running[spec.name + key] = (
                                BN_MOMENTUM * r + (1 - BN_MOMENTUM) * stat
                            ).astype(self.dtype)
                x, entry["act"] = self._act_fwd(spec.name, z)
                if spec.pool and tape is None:
                    x = maxpool(x)
                elif spec.pool:
                    x, entry["pool"] = _pool_fwd(x)
                if x.dtype == bool:
                    x = unpack(x).astype(self.dtype, copy=False)
            if tape is not None:
                tape.append(entry)
        return x

    def forward_train(self, x01, update_running=True):
        """x01: (N, S, S, 3) float in [0, 1], read as the pixels rint(255 * x).

        Returns (recon, tape); recon lies in [0, 1], as x01 does.
        """
        tape = []
        recon = self._forward(self._pixels(x01), self.stages, tape, update_running)
        return recon, tape

    def backward(self, tape, drecon):
        """Gradients for every trainable parameter given d(loss)/d(recon).

        Consumes the tape: each entry is popped as the walk reaches it and
        each saved array is dropped after its last reader, so a stage's
        buffers are freed before the stages below it allocate theirs, and
        the tape is empty on return. A conv that saved its input gets its
        columns rebuilt for the weight gradient, and they are freed before
        the input gradient allocates a column block of the same size. The
        walk ends with the first stage's parameter gradients: the gradient
        with respect to the image has no reader, so it is never computed.
        """
        grads = {}
        dx = drecon
        while len(tape) > 1:
            entry = tape.pop()
            dpre = self._param_grads(entry, dx, grads)
            dx = self._input_grad(entry, dpre)
        self._param_grads(tape.pop(), dx, grads)
        return grads

    def _param_grads(self, entry, dout, grads):
        """Back from a stage's output to its pre-activation gradient, which
        is returned; the stage's parameter gradients go into ``grads``.
        Pops the saved arrays it reads from ``entry``."""
        spec = entry["spec"]
        name = spec.name
        if spec is self.out_spec:
            s = entry.pop("sig")
            dpre = (dout * s * (1.0 - s)).astype(self.dtype)
        else:
            if spec.pool:
                dout = _pool_bwd(dout, entry.pop("pool"))
            dz = self._act_bwd(name, dout, entry.pop("act"))
            dpre, grads[name + "_gamma"], grads[name + "_beta"] = _bn_bwd(dz, entry.pop("bn"))
        if spec.kind == "fc":
            grads[name + "_w"] = dpre.T @ entry.pop("x_in")
        else:
            cols = entry.pop("cols") if "cols" in entry else im2col(entry.pop("x_in"), spec.pad_value)
            grads[name + "_w"] = _conv_weight_grad(dpre, cols)
        if spec is self.out_spec:
            grads[name + "_b"] = _chan_sum(dpre)
        return dpre

    def _input_grad(self, entry, dpre):
        """d(loss)/d(stage input), in the shape the stage received."""
        if entry["spec"].kind == "fc":
            dx = dpre @ entry["w_eff"]
        else:
            dx = _conv_input_grad(dpre, entry["w_eff"])
            if "resize" in entry:
                dx = _resize_bwd(dx, *entry["resize"])
        return dx.reshape(entry["in_shape"])

    # -- inference-mode forward ----------------------------------------------

    def encode(self, x01):
        """Eval-mode features for (N, S, S, 3) [0,1] inputs: (N, feature_dim).

        The walk reads the pixels rint(255 * x), as the deployed encoder
        does, and ``_running_bn`` evaluates ``layers.bn_forward``'s float32
        expression, so the features of a binarized encoder equal the packed
        encoder's to the bit.
        """
        return self._forward(self._pixels(x01), self.enc_specs)

    def reconstruct(self, x01):
        """Eval-mode autoencoder output for (N, S, S, 3) [0,1] inputs."""
        return self._forward(self.encode(x01), self.stages[len(self.enc_specs) :])

    # -- conversion to inference parameter bundles ----------------------------

    def encoder_params(self):
        """EncoderParams for the packed/reference integer-pixel pipeline.

        Requires a fully binarized encoder. Each stage folds the BN it
        trained, conv1's included, since the net reads the same 8-bit pixels,
        so ``extract_features`` equals the deployed encoder's features
        exactly.
        """
        if self.enc_specs[-1].name not in self.binarized:  # binarized stages are a prefix
            raise ValueError(
                f"the encoder is not binarized in mode={self.cfg.mode!r}; "
                "the packed encoder requires a fully binarized encoder"
            )
        p, r = self.params, self.running
        layers = [
            EncoderLayer(spec.name, spec.kind, p[spec.name + "_w"] >= 0,  # sign_values' rule: 0 is +1
                         BNParams(p[spec.name + "_gamma"], p[spec.name + "_beta"],
                                  r[spec.name + "_mu"], r[spec.name + "_var"], eps=BN_EPS),
                         spec.pool)
            for spec in self.enc_specs
        ]
        return EncoderParams(input_size=self.cfg.input_size, layers=layers)


# ---------------------------------------------------------------------------
# optimizer
# ---------------------------------------------------------------------------

class Adam:
    """Adaptive-moment optimizer over a parameter dict.

    Binarized layers train through full-precision shadow weights that get
    clipped to [-1, 1] after every step (the sign() of the shadow is what the
    forward pass actually uses).
    """

    def __init__(self, params, lr=1e-3, clip_names=()):
        self.lr = lr
        self.t = 0
        self.m = {k: np.zeros_like(v) for k, v in params.items()}
        self.v = {k: np.zeros_like(v) for k, v in params.items()}
        self.clip_names = frozenset(clip_names)

    def step(self, params, grads):
        """One update of every parameter named in ``grads``. A gradient for an
        unknown parameter, or of the wrong shape, raises ``ValueError``
        before anything is updated."""
        for k, g in grads.items():
            if k not in params or k not in self.m:
                raise ValueError(f"gradient for unknown parameter {k!r}")
            if g.shape != params[k].shape:
                raise ValueError(f"gradient shape mismatch for {k}")
        self.t += 1
        b1c = 1.0 - ADAM_BETA1**self.t
        b2c = 1.0 - ADAM_BETA2**self.t
        for k, g in grads.items():
            flat = [a.reshape(-1, copy=False) for a in (params[k], self.m[k], self.v[k])]
            g = g.reshape(-1)
            for i in range(0, g.size, _ADAM_BLOCK):
                p, m, v = (a[i : i + _ADAM_BLOCK] for a in flat)
                gb = g[i : i + _ADAM_BLOCK]
                # in place, in the order of m = b1*m + (1-b1)*g, v = b2*v + (1-b2)*g*g,
                # p -= lr*(m/b1c) / (sqrt(v/b2c) + eps)
                m *= ADAM_BETA1
                m += (1 - ADAM_BETA1) * gb
                v *= ADAM_BETA2
                v += (1 - ADAM_BETA2) * gb * gb
                step = m / b1c
                step *= self.lr
                den = v / b2c
                np.sqrt(den, out=den)
                den += ADAM_EPS
                step /= den
                p -= step
                if k in self.clip_names:
                    np.clip(p, -1.0, 1.0, out=p)
        return self


# ---------------------------------------------------------------------------
# training loop
# ---------------------------------------------------------------------------

@dataclass
class TrainedDcae:
    net: DcaeNet
    curve: list  # (epoch, train_mse, val_mse)


def _check_shape(shape, size):
    if len(shape) != 4 or shape[1:] != (size, size, 3):
        raise ValueError(f"expected images of shape (N, {size}, {size}, 3), got {shape}")


def _check_images(images, size):
    """(N, size, size, 3) uint8 images as they are, or [0,1] float images as
    float32; ``_unit`` converts them a batch at a time.

    Non-uint8 values outside [0, 1] are rejected; NaN passes, so training
    reports it as divergence.
    """
    images = np.asarray(images)
    _check_shape(images.shape, size)
    if images.dtype == np.uint8:
        return images
    if np.any(images < 0) | np.any(images > 1):
        raise ValueError(
            f"non-uint8 images must lie in [0, 1], got values in "
            f"[{np.nanmin(images)}, {np.nanmax(images)}]"
        )
    return np.ascontiguousarray(images, np.float32)


def _unit(batch):
    """A batch of ``_check_images``' output as float32 in [0, 1]."""
    return batch.astype(np.float32) / PIXEL_MAX if batch.dtype == np.uint8 else batch


def train_dcae(train_images, config: TrainConfig, val_images=None):
    """Train the autoencoder; returns TrainedDcae with the per-epoch curve.

    train_images: (N, S, S, 3) uint8 or [0,1] float. A uint8 set is kept as
    given, and each train and eval batch is divided by ``PIXEL_MAX`` as it is
    drawn. Divergence (non-finite loss) raises DivergenceError with the
    epoch index.
    """
    x = _check_images(train_images, config.input_size)
    if x.shape[0] == 0:
        raise ValueError("training set must be non-empty")
    xv = _check_images(val_images, config.input_size) if val_images is not None else None
    rng = np.random.default_rng(config.seed)
    net = DcaeNet(config, rng)
    clip = tuple(n + "_w" for n in net.binarized)
    opt = Adam(net.params, lr=config.learning_rate, clip_names=clip)
    curve = []
    n = x.shape[0]
    bs = min(config.batch_size, n)
    for epoch in range(config.epochs):
        order = rng.permutation(n)
        total, seen = 0.0, 0
        for start in range(0, n, bs):
            idx = order[start : start + bs]
            batch = _unit(x[idx])
            recon, tape = net.forward_train(batch)
            loss = dcae_loss(batch, recon)
            if not np.isfinite(loss):
                raise DivergenceError(epoch)
            total += loss * len(idx)
            seen += len(idx)
            diff = recon - batch
            drecon = (2.0 / diff.size) * diff
            grads = net.backward(tape, drecon.astype(np.float32))
            opt.step(net.params, grads)
        train_mse = total / seen
        if xv is not None and len(xv):
            val_mse = _eval_mse(net, xv, bs)
        else:
            val_mse = train_mse
        curve.append((epoch, train_mse, val_mse))
    return TrainedDcae(net, curve)


def _eval_mse(net, images, bs):
    total, seen = 0.0, 0
    for start in range(0, len(images), bs):
        batch = _unit(images[start : start + bs])
        total += dcae_loss(batch, net.reconstruct(batch)) * len(batch)
        seen += len(batch)
    return total / seen


def extract_features(net: DcaeNet, images):
    """Eval-mode features of uint8 or [0,1] images: (N, feature_dim), in the net's dtype."""
    x = _check_images(images, net.cfg.input_size)
    out = np.empty((len(x), net.cfg.feature_dim), net.dtype)
    for start in range(0, len(x), EVAL_BATCH):
        out[start : start + EVAL_BATCH] = net.encode(_unit(x[start : start + EVAL_BATCH]))
    return out
