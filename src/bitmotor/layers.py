"""Forward ops for the hourglass network: float convolution, max pooling,
fully-connected layers, batch normalization, BN->threshold folding, the
nearest-neighbor resize and logistic of the decoder, and the binarized
encoder. The packed encoder is ``PackedEncoder`` (over ``kernels``);
``encoder_forward`` is its per-image float reference. The one float decoder
is ``training.DcaeNet.reconstruct``, built from these ops.

Feature maps are channels-last: (H, W, C) or batched (N, H, W, C). Flattening
between the last conv stage and the first FC stage is the row-major ravel of
(H, W, C), and the packed path uses the same bit order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels
from .core import as_float, sign_values, unpack
from .kernels import pool_out_size

PAPER_INPUT_SIZE = 142
PAPER_CHANNELS = (32, 64, 128, 256)
PAPER_FC1_OUT = 1024
DESK_INPUT_SIZE = 64
DESK_CHANNELS = (8, 16, 32, 64)
DESK_FC1_OUT = 256
FEATURE_DIM = 64

FOLD_VMAX = 1 << 24  # integer pre-activations are exact in float32 below this


# ---------------------------------------------------------------------------
# parameter containers
# ---------------------------------------------------------------------------

@dataclass
class BNParams:
    gamma: np.ndarray
    beta: np.ndarray
    mu: np.ndarray
    sigma2: np.ndarray
    eps: float = 1e-5

    def __post_init__(self):
        for name in ("gamma", "beta", "mu", "sigma2"):
            v = np.ascontiguousarray(getattr(self, name), dtype=np.float32)
            # fold_bn_sign would fold such a channel without complaint, a NaN
            # one into a channel that never fires
            if not np.all(np.isfinite(v)):
                raise ValueError(f"{name} must be finite")
            setattr(self, name, v)
        if np.any(self.sigma2 < 0):
            raise ValueError("sigma2 must be >= 0")
        # an infinite eps folds every channel into one that never fires
        if not 0 < self.eps < np.inf:
            raise ValueError("eps must be finite and > 0")

    @property
    def channels(self):
        return self.gamma.shape[0]


@dataclass
class ThresholdParams:
    tau: np.ndarray   # (C,) int32
    flip: np.ndarray  # (C,) bool

    def __post_init__(self):
        self.tau = np.ascontiguousarray(self.tau, dtype=np.int32)
        self.flip = np.ascontiguousarray(self.flip, dtype=np.bool_)


# ---------------------------------------------------------------------------
# float kernels
# ---------------------------------------------------------------------------

def conv2d_float(x, weights, pad_value=0.0):
    """Size-preserving 3x3 cross-correlation, channels-last, float32.

    Accepts (H, W, C) or (N, H, W, C) and (O, C, 3, 3) weights.
    ``conv_pad_value`` gives the pad_value that matches the input.
    """
    x = np.asarray(x, dtype=np.float32)
    weights = np.asarray(weights, dtype=np.float32)
    if weights.ndim != 4 or weights.shape[2:] != (3, 3):
        raise ValueError(f"conv weights must be (O, C, 3, 3), got {weights.shape}")
    c = x.shape[-1]
    if c != weights.shape[1]:
        raise ValueError(f"input has {c} channels, weights expect {weights.shape[1]}")
    out = kernels.im2col(x, pad_value).reshape(-1, 9 * c) @ kernels.weight_matrix(weights)
    return out.reshape(*x.shape[:-1], -1)


def conv_pad_value(binary_input):
    """Border value of a 3x3 conv: -1 (a zero bit) around a +-1 map, else 0."""
    return -1.0 if binary_input else 0.0


def fc_float(x, weights):
    """Linear map: x (..., I) @ weights (O, I)^T, in float32."""
    x = np.asarray(x, dtype=np.float32)
    weights = np.asarray(weights, dtype=np.float32)
    if x.shape[-1] != weights.shape[1]:
        raise ValueError(f"input dim {x.shape[-1]} != weight in-dim {weights.shape[1]}")
    return x @ weights.T


def maxpool(x):
    """3x3 stride-2 max pool (the only Table-consistent geometry).

    Channels-last float or bool maps, optionally batched; the dtype is
    kept, and on bools the max is an OR. The taps are taken in
    ``training._pool_fwd``'s order and ``np.maximum``
    returns its second argument on a tie, so the earlier value stays, -0.0
    included, and the result is ``_pool_fwd``'s max without the indices.
    """
    views = kernels.pool_windows(x)
    out = views[0].copy()
    for view in views[1:]:
        np.maximum(view, out, out=out)
    return out


def bn_scale(p: BNParams):
    """Per-channel multiplier gamma / sqrt(sigma2 + eps), in float32.

    Factored out so threshold folding calibrates against the exact float32
    expression bn_forward evaluates.
    """
    return (p.gamma / np.sqrt(p.sigma2 + np.float32(p.eps))).astype(np.float32)


def bn_forward(x, p: BNParams):
    """Inference-form batch norm: y = (x - mu) * k + beta, channels-last."""
    x = np.asarray(x, dtype=np.float32)
    if x.shape[-1] != p.channels:
        raise ValueError(f"input has {x.shape[-1]} channels, BN expects {p.channels}")
    return (x - p.mu) * bn_scale(p) + p.beta


def fold_bn_sign(p: BNParams):
    """Fold sign(bn_forward(v)) over integer v into (tau, flip) thresholds.

    flip=False: output +1 iff v >= tau; flip=True: output +1 iff v < tau.
    The flip-over point is located by bisection on the monotone float32 BN
    expression itself, so the thresholded output equals sign(bn_forward(v))
    for every integer v in [-FOLD_VMAX, FOLD_VMAX], including rounding edge
    cases. A channel that fires everywhere gets -FOLD_VMAX, one that never
    fires FOLD_VMAX + 1.

    The bisection of a channel starts from the bracket [g - 2, g] around
    g = ceil(mu - beta / k), the crossing in float64, wherever the float32
    expression confirms it (fires at g, not at g - 2), and from the full
    range elsewhere. The expression is monotone, so the bracket never
    changes the result, only the number of steps: one, not 26.
    """
    if np.any(p.gamma == 0):
        raise ValueError("gamma must be nonzero to fold BN into a sign threshold")
    k = bn_scale(p)
    flip = k < 0

    def pred(v):
        # smallest-v-true predicate: sign flip-over along increasing v
        y = (v.astype(np.float32) - p.mu) * k + p.beta
        return np.where(flip, y < 0, y >= 0)

    with np.errstate(divide="ignore", invalid="ignore"):
        g = np.ceil(p.mu.astype(np.float64) - p.beta.astype(np.float64) / k)
    guess = (g >= 2 - FOLD_VMAX) & (g <= FOLD_VMAX)  # False for NaN
    g = np.where(guess, g, 0).astype(np.int64)
    guess &= pred(g) & ~pred(g - 2)
    lo = np.where(guess, g - 2, -FOLD_VMAX - 1)  # -FOLD_VMAX - 1 is virtual: pred False
    hi = np.where(guess, g, FOLD_VMAX + 1)       # FOLD_VMAX + 1 is virtual: pred True
    while np.any(hi - lo > 1):
        mid = (lo + hi) >> 1
        t = pred(mid)
        hi = np.where(t, mid, hi)
        lo = np.where(t, lo, mid)
    # a converged channel keeps stepping while others do; at the virtual lower
    # bound its mid is lo itself, and where pred(lo) holds hi drops to it
    return ThresholdParams(np.maximum(hi, -FOLD_VMAX).astype(np.int32), flip)


# ---------------------------------------------------------------------------
# the binarized encoder
# ---------------------------------------------------------------------------

@dataclass
class EncoderLayer:
    name: str
    kind: str              # "conv" | "fc"
    weights: np.ndarray    # bool (O, C, 3, 3) or (O, I), True for +1
    bn: BNParams
    pool: bool = False

    def __post_init__(self):
        # -1.0 is truthy, so +-1 floats would read as all +1
        dtype = getattr(self.weights, "dtype", type(self.weights).__name__)
        if not isinstance(self.weights, np.ndarray) or dtype != np.bool_:
            raise TypeError(f"layer {self.name}: weights must be a bool ndarray, got {dtype}")


@dataclass
class EncoderParams:
    input_size: int
    layers: list


def encoder_geometry(input_size, channels, fc1_out, feature_dim=FEATURE_DIM):
    """Stage list [(name, kind, spatial, in, out, pool)] for a conv stack."""
    stages = []
    s = input_size
    c_in = 3
    for i, c_out in enumerate(channels):
        stages.append((f"conv{i + 1}", "conv", s, c_in, c_out, True))
        s = pool_out_size(s)
        c_in = c_out
    flat = s * s * c_in
    stages.append(("fc1", "fc", 1, flat, fc1_out, False))
    stages.append(("fc2", "fc", 1, fc1_out, feature_dim, False))
    return stages


class PackedEncoder:
    """Inference pipeline over bool weights and folded thresholds.

    Conv stages carry (H, W, C) bool maps; the first FC stage flattens its
    map into packed words (``kernels.flat_words``), and FC stages pass words.
    """

    def __init__(self, enc: EncoderParams):
        self.input_size = enc.input_size
        first = enc.layers[0]
        self.in_channels = first.weights.shape[1]
        # perfbench's traced replay calls conv1_forward with these
        self.conv1_signs = unpack(first.weights)
        t1 = fold_bn_sign(first.bn)
        self.conv1_tau, self.conv1_flip = t1.tau, t1.flip
        self.conv1_pool = first.pool
        self.conv1 = kernels.Conv1Kernel(first.weights, self.conv1_tau, self.conv1_flip)
        self.stages = []
        for lay in enc.layers[1:]:
            t = fold_bn_sign(lay.bn)
            if lay.kind == "conv":
                k = kernels.BinConvKernel(lay.weights, t.tau, t.flip)
            else:
                k = kernels.BinFcKernel(lay.weights, t.tau, t.flip)
            self.stages.append((lay.kind, k, lay.pool))
        self.feature_dim = enc.layers[-1].weights.shape[0]

    def feature_words(self, pixels):
        pixels = _check_pixels(pixels, self.input_size, self.in_channels)
        x = self.conv1(pixels)
        if self.conv1_pool:
            x = kernels.pool_or(x)
        for kind, k, pool in self.stages:
            if kind == "fc" and x.ndim == 3:
                x = kernels.flat_words(x, x.shape[2])
            x = k(x)
            if pool:
                x = kernels.pool_or(x)
        return x

    def features(self, pixels):
        words = self.feature_words(pixels)
        return unpack(kernels.unpack_channel_words(words[None, :], self.feature_dim)[0])


def _check_pixels(pixels, size, channels):
    pixels = np.asarray(pixels)
    if pixels.shape != (size, size, channels):
        raise ValueError(f"expected {size}x{size}x{channels} image, got {pixels.shape}")
    if pixels.dtype != np.uint8:
        if np.any(pixels < 0) or np.any(pixels > 255) or np.any(pixels != np.rint(pixels)):
            raise ValueError("pixel input must be 8-bit integers in [0, 255]")
        pixels = pixels.astype(np.uint8)
    return pixels


def encoder_forward(img, enc: EncoderParams, path="reference"):
    """Float reference of the binarized encoder on an 8-bit image: +-1.0 features.

    Runs sign(BN(conv)) in float32 on the same quantized input that
    ``PackedEncoder(enc).features`` takes; the two are exactly equal by
    construction (folding is exact). The first FC stage flattens the last
    conv map. "reference" is the only ``path``.
    """
    if path != "reference":
        raise ValueError(f"unknown path {path!r}; the packed encoder is PackedEncoder(enc).features")
    img = _check_pixels(img, enc.input_size, enc.layers[0].weights.shape[1])
    x = img.astype(np.float32)
    for i, lay in enumerate(enc.layers):
        wsigns = unpack(lay.weights)
        if lay.kind == "conv":
            x = conv2d_float(x, wsigns, pad_value=conv_pad_value(i > 0))
        else:
            x = fc_float(x.reshape(-1), wsigns)
        x = sign_values(bn_forward(x, lay.bn))
        if lay.pool:
            x = maxpool(x)
    return x.astype(np.float32)


def nn_index(n, size):
    """Source index of each of ``size`` nearest-neighbor samples of a length-n axis."""
    return (np.arange(size) * n) // size


def nn_resize(x, size):
    """Nearest-neighbor resize of an (..., H, W, C) map to (..., size, size, C)."""
    h, w = x.shape[-3:-1]
    return x[..., nn_index(h, size), :, :][..., nn_index(w, size), :]


def logistic(x):
    """Numerically stable 1 / (1 + exp(-x)); floating inputs keep their dtype."""
    x = as_float(x)
    # exp(-|x|) is exp(-x) where x >= 0 and exp(x) elsewhere, so both
    # branches see the same values a masked exp would give them
    e = np.exp(-np.abs(x))
    d = 1.0 + e
    return np.where(x >= 0, 1.0 / d, e / d)


_DRAW_BLOCK = 1 << 20  # weights drawn per rng call: 8 MB of int64 indices


def _random_bits(rng, shape):
    """Bool array, True for +1, of the draw ``rng.choice([-1.0, 1.0], shape) > 0``.

    ``choice`` draws one int64 index per weight and gathers a float64 array,
    207 MB together for fc1 at paper geometry. The same indices are drawn
    here block by block, and the generator ends in the same state.
    """
    w = np.empty(int(np.prod(shape)), np.bool_)
    for i in range(0, w.size, _DRAW_BLOCK):
        block = w[i : i + _DRAW_BLOCK]
        np.equal(rng.integers(0, 2, size=block.size), 1, out=block)
    return w.reshape(shape)


def random_encoder_params(rng, input_size=PAPER_INPUT_SIZE, channels=PAPER_CHANNELS,
                          fc1_out=PAPER_FC1_OUT, feature_dim=FEATURE_DIM):
    """Random but well-formed EncoderParams (for kernel tests and benchmarks).

    Each layer draws its weights as ``rng.choice([-1.0, 1.0], shape) > 0``
    would (``_random_bits``), then its BN parameters.
    """
    layers = []
    for name, kind, _s, c_in, c_out, pool in encoder_geometry(
        input_size, channels, fc1_out, feature_dim
    ):
        shape = (c_out, c_in, 3, 3) if kind == "conv" else (c_out, c_in)
        w = _random_bits(rng, shape)
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
