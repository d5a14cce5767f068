"""Bit-level primitives: sign binarization, straight-through gradients,
bool weights as +-1 floats, and packed channel words.

Encoding convention used everywhere in this package:

    bit 1 (True)   <->  +1
    bit 0 (False)  <->  -1

so that XNOR of two bits equals the sign of the product of the two values,
and a +-1 dot product of length n becomes ``2 * popcount(XNOR(a, b)) - n``.
Encoder weights are bool arrays of their logical shape. The FC kernels pack
bits LSB-first inside little-endian 64-bit words along the last axis
(``pack_channel_words``), and the packed conv maps use the same order one
byte at a time (``kernels``). Tail bits past the logical length are always
zero; the popcount arithmetic relies on that.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "as_float",
    "byte_words",
    "nwords",
    "pack_channel_words",
    "unpack_channel_words",
    "sign_values",
    "ste_backward",
    "unpack",
]

_WORD_BITS = 64


def nwords(n):
    """Number of 64-bit words that hold n bits."""
    return (int(n) + _WORD_BITS - 1) // _WORD_BITS


def byte_words(by):
    """(..., nb) uint8 bytes, contiguous along the last axis -> (..., nw)
    uint64 words, the bytes padded with zeros to whole words."""
    nb = nwords(8 * by.shape[-1]) * (_WORD_BITS // 8)
    if by.shape[-1] != nb:
        padded = np.zeros(by.shape[:-1] + (nb,), np.uint8)
        padded[..., : by.shape[-1]] = by
        by = padded
    return by.view(np.uint64)


def pack_channel_words(bits):
    """(..., C) bool or 0/1 integer array -> (..., nw) uint64 words, LSB first, zero tails.

    The bits are packed as given; only the packed bytes are padded to whole
    words, so no padded copy of the input is made.
    """
    return byte_words(np.packbits(bits, axis=-1, bitorder="little"))


def unpack_channel_words(words, c):
    """(..., nw) uint64 words, or the uint8 bytes of such words, -> (..., C) array of 0/1 uint8."""
    by = np.ascontiguousarray(words).view(np.uint8)
    bits = np.unpackbits(by, axis=-1, bitorder="little")
    return bits[..., : int(c)]


def as_float(x):
    """``x`` as an array: floating dtypes are kept, any other becomes float32."""
    x = np.asarray(x)
    return x if np.issubdtype(x.dtype, np.floating) else x.astype(np.float32)


def unpack(weights):
    """Bool weights, True for +1, as float32 +-1.0 values of the same shape."""
    out = np.asarray(weights).astype(np.float32)
    out *= 2.0
    out -= 1.0
    return out


def sign_values(x):
    """Elementwise sign with sign(0) = +1, as float32 +-1.0 values."""
    return unpack(np.asarray(x) >= 0)


def ste_backward(x, upstream_grad):
    """Straight-through gradient of the sign node.

    Passes the upstream gradient where the pre-binarization activation has
    |x| < 1 (strictly) and zeroes it elsewhere. A floating gradient keeps
    its dtype; any other becomes float32.
    """
    x = np.asarray(x)
    g = as_float(upstream_grad)
    if x.shape != g.shape:
        raise ValueError(f"shape mismatch: {x.shape} vs {g.shape}")
    return np.where(np.abs(x) < 1.0, g, 0.0)

