import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bitmotor.core import BitTensor, pack, popcount, sign_values, ste_backward, unpack


def naive_dot(a, b):
    """Independent +-1 dot product oracle: plain python loop."""
    assert len(a) == len(b)
    total = 0
    for x, y in zip(a, b):
        total += int(x) * int(y)
    return total


def xnor_popcount_dot(a, b):
    """Integer dot product of two +-1 BitTensors of equal logical length.

    Computed as 2 * popcount(XNOR masked to n bits) - n, which equals
    sum(a_i * b_i) under the bit encoding of ``bitmotor.core``.
    """
    if not isinstance(a, BitTensor) or not isinstance(b, BitTensor):
        raise TypeError("xnor_popcount_dot() expects BitTensors")
    n = a.nbits
    if n != b.nbits:
        raise ValueError(f"length mismatch: {n} vs {b.nbits}")
    x = np.bitwise_xor(a.words, b.words)
    np.bitwise_not(x, out=x)
    tail = n & 63
    if tail:
        x[-1] &= np.uint64((1 << tail) - 1)
    matches = int(popcount(x).sum())
    return 2 * matches - n


class TestSign:
    def test_zero_maps_to_plus_one(self):
        assert unpack(pack(sign_values(np.array([0.0], np.float32)))).tolist() == [1.0]

    def test_case_split(self):
        out = unpack(pack(sign_values(np.array([0.5, -2.0, 0.0], np.float32))))
        assert out.tolist() == [1.0, -1.0, 1.0]

    def test_negative_image_shape_preserved(self):
        x = np.full((142, 142, 3), -0.001, np.float32)
        b = pack(sign_values(x))
        assert b.shape == (142, 142, 3)
        assert np.all(unpack(b) == -1.0)

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            pack(np.array([np.nan], np.float32))
        with pytest.raises(ValueError):
            pack([np.inf])

    def test_sign_values_matches_packed(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=257).astype(np.float32)
        assert np.array_equal(sign_values(x), unpack(BitTensor.from_bits(x >= 0, x.shape)))


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
        b = pack(np.array([1.0, -1.0, 1.0], np.float32))
        assert b.words.shape == (1,)
        assert int(b.words[0]) == 0b101
        assert b.nbits == 3

    def test_65_elements_two_words(self):
        x = np.ones(65, np.float32)
        b = pack(x)
        assert b.words.shape == (2,)
        assert int(b.words[1]) == 1  # exactly one meaningful bit

    def test_rejects_non_sign_values(self):
        with pytest.raises(ValueError):
            pack(np.array([1.0, 0.5], np.float32))

    def test_roundtrip_12544(self):
        rng = np.random.default_rng(7)
        x = rng.choice([-1.0, 1.0], size=12544).astype(np.float32).reshape(7, 7, 256)
        assert np.array_equal(unpack(pack(x)), x)

    @given(st.integers(1, 300), st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_roundtrip_property(self, n, seed):
        rng = np.random.default_rng(seed)
        x = rng.choice([-1.0, 1.0], size=n).astype(np.float32)
        b = pack(x)
        assert np.array_equal(unpack(b), x)
        tail = n & 63
        if tail:
            assert int(b.words[-1]) >> tail == 0  # zero tail invariant

    def test_sign_pack_composition(self):
        rng = np.random.default_rng(11)
        x = rng.normal(size=100).astype(np.float32)
        assert np.array_equal(unpack(pack(sign_values(x))), sign_values(x))


class TestBitTensor:
    def test_bad_word_count(self):
        with pytest.raises(ValueError):
            BitTensor((65,), np.zeros(1, np.uint64))

    def test_nonzero_tail_rejected(self):
        words = np.array([0, 0b10], np.uint64)  # bit 65 set, but nbits=65
        with pytest.raises(ValueError):
            BitTensor((65,), words)


class TestXnorPopcountDot:
    def test_identical_vectors(self):
        a = pack(np.ones(8, np.float32))
        assert xnor_popcount_dot(a, a) == 8

    def test_opposite_vectors(self):
        a = pack(np.ones(8, np.float32))
        b = pack(-np.ones(8, np.float32))
        assert xnor_popcount_dot(a, b) == -8

    def test_orthogonal_case(self):
        av = np.array([1.0, -1.0, 1.0, -1.0], np.float32)
        bv = np.array([1.0, 1.0, -1.0, -1.0], np.float32)
        assert naive_dot(av, bv) == 0
        assert xnor_popcount_dot(pack(av), pack(bv)) == 0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            xnor_popcount_dot(pack(np.ones(4, np.float32)), pack(np.ones(5, np.float32)))

    @given(st.integers(1, 2**16), st.integers(0, 2**32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_matches_naive_oracle(self, n, seed):
        rng = np.random.default_rng(seed)
        av = rng.choice([-1.0, 1.0], size=n).astype(np.float32)
        bv = rng.choice([-1.0, 1.0], size=n).astype(np.float32)
        # vectorized form of the loop oracle (checked against the loop below)
        expect = int(np.sum(av.astype(np.int64) * bv.astype(np.int64)))
        assert xnor_popcount_dot(pack(av), pack(bv)) == expect

    def test_small_sizes_against_loop_oracle(self):
        rng = np.random.default_rng(5)
        for n in [1, 2, 63, 64, 65, 127, 128, 129, 1000]:
            av = rng.choice([-1.0, 1.0], size=n).astype(np.float32)
            bv = rng.choice([-1.0, 1.0], size=n).astype(np.float32)
            assert xnor_popcount_dot(pack(av), pack(bv)) == naive_dot(av, bv)

    def test_self_and_negation_property(self):
        rng = np.random.default_rng(9)
        for n in [1, 17, 64, 100, 4097]:
            av = rng.choice([-1.0, 1.0], size=n).astype(np.float32)
            a = pack(av)
            na = pack(-av)
            assert xnor_popcount_dot(a, a) == n
            assert xnor_popcount_dot(a, na) == -n
