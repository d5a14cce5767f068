import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bitmotor.core import (
    nwords,
    pack_channel_words,
    sign_values,
    ste_backward,
    unpack,
    unpack_channel_words,
)


def naive_dot(a, b):
    """Independent +-1 dot product oracle: plain python loop."""
    assert len(a) == len(b)
    total = 0
    for x, y in zip(a, b):
        total += int(x) * int(y)
    return total


def words(v):
    """+-1 vector -> its packed words, bit 1 for +1."""
    return pack_channel_words(np.asarray(v) > 0)


def xnor_popcount_dot(a, b, n):
    """Integer dot product of two +-1 vectors of length n, as packed words.

    Computed as 2 * popcount(XNOR masked to n bits) - n, which equals
    sum(a_i * b_i) under the bit encoding of ``bitmotor.core``.
    """
    for w in (a, b):
        if w.shape != (nwords(n),):
            raise ValueError(f"{n} bits need {nwords(n)} words, got {w.shape}")
        if n & 63 and int(w[-1]) >> (n & 63):
            raise ValueError(f"bits set past length {n}")
    x = np.bitwise_xor(a, b)
    np.bitwise_not(x, out=x)
    tail = n & 63
    if tail:
        x[-1] &= np.uint64((1 << tail) - 1)
    matches = int(np.bitwise_count(x).sum())
    return 2 * matches - n


class TestSign:
    def test_zero_maps_to_plus_one(self):
        x = np.array([0.0, -0.0], np.float32)
        assert sign_values(x).tolist() == [1.0, 1.0]
        assert unpack(x >= 0).tolist() == [1.0, 1.0]

    def test_case_split(self):
        x = np.array([0.5, -2.0, 0.0], np.float32)
        assert sign_values(x).tolist() == [1.0, -1.0, 1.0]
        assert np.array_equal(unpack(x >= 0), sign_values(x))

    def test_negative_image_shape_preserved(self):
        x = np.full((142, 142, 3), -0.001, np.float32)
        out = unpack(x >= 0)
        assert out.shape == (142, 142, 3) and out.dtype == np.float32
        assert np.all(out == -1.0)
        assert np.array_equal(sign_values(x), out)

    def test_sign_values_matches_packed(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=257).astype(np.float32)
        assert np.array_equal(sign_values(x), unpack(x >= 0))


class TestSte:
    def test_inside_window(self):
        assert ste_backward(np.float32([0.5]), np.float32([1.0]))[0] == 1.0

    def test_outside_window(self):
        assert ste_backward(np.float32([1.5]), np.float32([1.0]))[0] == 0.0

    def test_boundary_is_excluded(self):
        assert ste_backward(np.float32([-1.0]), np.float32([2.0]))[0] == 0.0
        assert ste_backward(np.float32([1.0]), np.float32([2.0]))[0] == 0.0

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            ste_backward(np.zeros(3, np.float32), np.zeros(4, np.float32))

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_mask_property(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.uniform(-3, 3, size=50).astype(np.float32)
        g = rng.normal(size=50).astype(np.float32)
        out = ste_backward(x, g)
        inside = np.abs(x) < 1.0
        assert np.array_equal(out[inside], g[inside])
        assert np.all(out[~inside] == 0.0)


class TestPack:
    def test_three_bits(self):
        w = pack_channel_words(np.array([True, False, True]))
        assert w.shape == (1,) and w.dtype == np.uint64
        assert int(w[0]) == 0b101
        assert unpack_channel_words(w, 3).tolist() == [1, 0, 1]

    def test_65_elements_two_words(self):
        w = pack_channel_words(np.ones(65, bool))
        assert w.shape == (2,)
        assert int(w[1]) == 1  # exactly one meaningful bit

    def test_roundtrip_12544(self):
        rng = np.random.default_rng(7)
        x = rng.choice([-1.0, 1.0], size=12544).astype(np.float32).reshape(7, 7, 256)
        w = pack_channel_words(x.reshape(-1) > 0)
        assert w.shape == (196,)
        assert np.array_equal(unpack(unpack_channel_words(w, 12544)).reshape(x.shape), x)

    @given(st.integers(1, 300), st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_roundtrip_property(self, n, seed):
        rng = np.random.default_rng(seed)
        x = rng.choice([-1.0, 1.0], size=(3, n)).astype(np.float32)
        w = words(x)
        assert w.shape == (3, nwords(n))
        assert np.array_equal(unpack(unpack_channel_words(w, n)), x)
        tail = n & 63
        if tail:
            assert np.all(w[:, -1] >> np.uint64(tail) == 0)  # zero tail invariant

    def test_sign_pack_composition(self):
        rng = np.random.default_rng(11)
        x = rng.normal(size=100).astype(np.float32)
        w = pack_channel_words(x >= 0)
        assert np.array_equal(unpack(unpack_channel_words(w, 100)), sign_values(x))


class TestXnorPopcountDot:
    def test_identical_vectors(self):
        a = words(np.ones(8))
        assert xnor_popcount_dot(a, a, 8) == 8

    def test_opposite_vectors(self):
        assert xnor_popcount_dot(words(np.ones(8)), words(-np.ones(8)), 8) == -8

    def test_orthogonal_case(self):
        av = np.array([1.0, -1.0, 1.0, -1.0], np.float32)
        bv = np.array([1.0, 1.0, -1.0, -1.0], np.float32)
        assert naive_dot(av, bv) == 0
        assert xnor_popcount_dot(words(av), words(bv), 4) == 0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):  # one word each, but a bit past n = 4
            xnor_popcount_dot(words(np.ones(4)), words(np.ones(5)), 4)
        with pytest.raises(ValueError):  # 65 bits need two words
            xnor_popcount_dot(words(np.ones(64)), words(np.ones(65)), 65)

    @given(st.integers(1, 2**16), st.integers(0, 2**32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_matches_naive_oracle(self, n, seed):
        rng = np.random.default_rng(seed)
        av = rng.choice([-1.0, 1.0], size=n).astype(np.float32)
        bv = rng.choice([-1.0, 1.0], size=n).astype(np.float32)
        # vectorized form of the loop oracle (checked against the loop below)
        expect = int(np.sum(av.astype(np.int64) * bv.astype(np.int64)))
        assert xnor_popcount_dot(words(av), words(bv), n) == expect

    def test_small_sizes_against_loop_oracle(self):
        rng = np.random.default_rng(5)
        for n in [1, 2, 63, 64, 65, 127, 128, 129, 1000]:
            av = rng.choice([-1.0, 1.0], size=n).astype(np.float32)
            bv = rng.choice([-1.0, 1.0], size=n).astype(np.float32)
            assert xnor_popcount_dot(words(av), words(bv), n) == naive_dot(av, bv)

    def test_self_and_negation_property(self):
        rng = np.random.default_rng(9)
        for n in [1, 17, 64, 100, 4097]:
            av = rng.choice([-1.0, 1.0], size=n).astype(np.float32)
            a = words(av)
            na = words(-av)
            assert xnor_popcount_dot(a, a, n) == n
            assert xnor_popcount_dot(a, na, n) == -n
