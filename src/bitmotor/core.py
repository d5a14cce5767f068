"""Bit-level primitives: sign binarization, straight-through gradients,
{+1,-1} <-> packed-bit conversion, and popcount.

Encoding convention used everywhere in this package:

    bit 1  <->  +1
    bit 0  <->  -1

so that XNOR of two bits equals the sign of the product of the two values,
and a +-1 dot product of length n becomes ``2 * popcount(XNOR(a, b)) - n``.
Bits are stored LSB-first inside little-endian 64-bit words, row-major over
the logical tensor. Tail bits past the logical length are always zero; the
popcount arithmetic relies on that.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "BitTensor",
    "as_float",
    "nwords",
    "pack_channel_words",
    "unpack_channel_words",
    "sign_values",
    "ste_backward",
    "pack",
    "unpack",
    "popcount",
]

_WORD_BITS = 64


def popcount(words):
    """Per-element population count of a uint64 array."""
    return np.bitwise_count(words)


def nwords(n):
    """Number of 64-bit words that hold n bits."""
    return (int(n) + _WORD_BITS - 1) // _WORD_BITS


def pack_channel_words(bits):
    """(..., C) array of 0/1 -> (..., nw) uint64 words, LSB first, zero tails."""
    bits = np.ascontiguousarray(bits, dtype=np.uint8)
    c = bits.shape[-1]
    padded = np.zeros(bits.shape[:-1] + (nwords(c) * _WORD_BITS,), np.uint8)
    padded[..., :c] = bits
    by = np.packbits(padded, axis=-1, bitorder="little")
    return by.view(np.uint64)


def unpack_channel_words(words, c):
    """(..., nw) uint64 words -> (..., C) array of 0/1 uint8."""
    by = np.ascontiguousarray(words).view(np.uint8)
    bits = np.unpackbits(by, axis=-1, bitorder="little")
    return bits[..., : int(c)]


def as_float(x):
    """``x`` as an array: floating dtypes are kept, any other becomes float32."""
    x = np.asarray(x)
    return x if np.issubdtype(x.dtype, np.floating) else x.astype(np.float32)


class BitTensor:
    """Shape-tagged bit-packed array of {+1,-1} values.

    ``words`` is a flat uint64 array of length ceil(prod(shape)/64); bit i of
    the logical row-major flattening lives at words[i >> 6], position i & 63
    (LSB first). Tail bits are kept at zero.
    """

    __slots__ = ("shape", "words")

    def __init__(self, shape, words):
        shape = tuple(int(d) for d in shape)
        if any(d < 1 for d in shape):
            raise ValueError(f"dimensions must be >= 1, got {shape}")
        n = 1
        for d in shape:
            n *= d
        words = np.ascontiguousarray(words, dtype=np.uint64).ravel()
        expect = nwords(n)
        if words.size != expect:
            raise ValueError(f"need {expect} words for {n} bits, got {words.size}")
        tail = n & 63
        if tail and (words[-1] >> np.uint64(tail)) != 0:
            raise ValueError("tail padding bits must be zero")
        self.shape = shape
        self.words = words

    @property
    def nbits(self):
        n = 1
        for d in self.shape:
            n *= d
        return n

    def bits(self):
        """Logical bits as a uint8 array of 0/1, length nbits."""
        return unpack_channel_words(self.words, self.nbits)

    def __repr__(self):
        return f"BitTensor(shape={self.shape}, nbits={self.nbits})"

    @staticmethod
    def from_bits(bits, shape):
        """Pack an array of 0/1 values (row-major) into a BitTensor."""
        bits = np.ascontiguousarray(bits, dtype=np.uint8).ravel()
        n = 1
        for d in shape:
            n *= int(d)
        if bits.size != n:
            raise ValueError(f"got {bits.size} bits for shape {tuple(shape)}")
        return BitTensor(shape, pack_channel_words(bits))


def sign_values(x):
    """Elementwise sign with sign(0) = +1, as float32 +-1.0 values."""
    out = (np.asarray(x) >= 0).astype(np.float32)
    out *= 2.0
    out -= 1.0
    return out


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


def pack(signs):
    """Pack a tensor of exact +-1 values into a BitTensor (NaN and Inf fail the check)."""
    x = np.ascontiguousarray(signs, dtype=np.float32)
    if not np.all(np.abs(x) == 1.0):
        raise ValueError("pack() input must contain only +1/-1 values")
    return BitTensor.from_bits((x > 0).reshape(-1), x.shape)


def unpack(b):
    """Expand a BitTensor back to float32 +-1.0 values."""
    if not isinstance(b, BitTensor):
        raise TypeError("unpack() expects a BitTensor")
    out = b.bits().astype(np.float32)
    out *= 2.0
    out -= 1.0
    return out.reshape(b.shape)
