"""Tests for the RNG, the finite-difference oracle, and padding."""

import numpy as np
import pytest

from liftbank.layers import Activation, Conv1d
from liftbank.numerics import Rng, finite_difference_gradient, pad_to_multiple


def _splitmix64_reference(seed, n):
    """Independent pure-int implementation of the documented generator."""
    mask = (1 << 64) - 1
    state = seed & mask
    outs = []
    for _ in range(n):
        state = (state + 0x9E3779B97F4A7C15) & mask
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        outs.append(z ^ (z >> 31))
    return outs


class TestRng:
    def test_matches_reference_splitmix64(self):
        """Bit-exact against an independent big-int implementation."""
        got = [int(v) for v in Rng(0).raw(5)]
        assert got == _splitmix64_reference(0, 5)
        got = [int(v) for v in Rng(123456789).raw(5)]
        assert got == _splitmix64_reference(123456789, 5)

    def test_known_first_output(self):
        # frozen value from the generator's published C reference, seed 0
        assert int(Rng(0).raw(1)[0]) == 0xE220A8397B1DCDAF

    def test_stream_is_stateful(self):
        rng = Rng(9)
        first = rng.raw(4)
        second = rng.raw(4)
        assert not np.array_equal(first, second)
        both = Rng(9).raw(8)
        np.testing.assert_array_equal(np.concatenate([first, second]), both)

    def test_uniform_range(self):
        u = Rng(3).uniform((1000,), -2.0, 5.0)
        assert np.all(u >= -2.0) and np.all(u < 5.0)

    def test_normal_moments(self):
        z = Rng(4).normal((20000,))
        assert abs(float(z.mean())) < 0.03
        assert abs(float(z.std()) - 1.0) < 0.03

    def test_permutation_is_a_permutation(self):
        p = Rng(5).permutation(100)
        np.testing.assert_array_equal(np.sort(p), np.arange(100))

    def test_fork_streams_differ(self):
        rng = Rng(6)
        a, b = rng.fork(), rng.fork()
        assert not np.array_equal(a.uniform((8,)), b.uniform((8,)))


class TestSeededFillUniform:
    """Seeded uniform fills, drawn through Rng.uniform."""

    def test_same_seed_identical(self):
        a = Rng(7).uniform([2, 2], 0.0, 1.0)
        b = Rng(7).uniform([2, 2], 0.0, 1.0)
        np.testing.assert_array_equal(a, b)

    def test_range_bound(self):
        eps = 1e-6
        a = Rng(7).uniform([4], 0.0, eps)
        assert np.all(a < eps)
        assert np.all(a >= 0.0)

    def test_different_seeds_differ(self):
        a = Rng(7).uniform([64], 0.0, 1.0)
        b = Rng(8).uniform([64], 0.0, 1.0)
        assert np.any(a != b)


class TestFiniteDifferenceGradient:
    def test_linear_function(self):
        g = finite_difference_gradient(lambda v: float(np.sum(v)),
                                       np.array([3.0, -1.0]))
        np.testing.assert_allclose(g, [1.0, 1.0], atol=1e-9)

    def test_square(self):
        g = finite_difference_gradient(lambda v: float(v[0] ** 2), np.array([2.0]))
        np.testing.assert_allclose(g, [4.0], atol=1e-7)

    def test_matches_hand_written_backward(self):
        """Composed conv -> leaky relu -> sum against the layer backwards."""
        rng = Rng(20)
        conv = Conv1d(1, 1, 3, rng=rng.fork())
        act = Activation("leaky_relu", 0.2)
        x = rng.normal((1, 8))

        def objective(v):
            y, _ = conv.forward(v)
            z, _ = act.forward(y)
            return float(np.sum(z))

        numeric = finite_difference_gradient(objective, x)
        y, c1 = conv.forward(x)
        z, c2 = act.forward(y)
        analytic = conv.backward(c1, act.backward(c2, np.ones_like(z)))
        denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-8)
        assert float(np.max(np.abs(analytic - numeric) / denom)) <= 1e-4

    def test_non_finite_objective_rejected(self):
        with pytest.raises(ValueError, match="objective not finite"):
            finite_difference_gradient(lambda v: float("nan"), np.array([1.0]))

    def test_bad_step_rejected(self):
        with pytest.raises(ValueError):
            finite_difference_gradient(lambda v: 0.0, np.array([1.0]), h=0.0)


class TestPadToMultiple:
    def test_pads_up(self):
        padded, n = pad_to_multiple(np.ones(100), 64)
        assert padded.shape == (128,)
        assert n == 100
        assert np.all(padded[100:] == 0.0)

    def test_exact_multiple_unchanged(self):
        x = np.arange(128, dtype=float)
        padded, n = pad_to_multiple(x, 64)
        assert padded.shape == (128,)
        assert n == 128
        np.testing.assert_array_equal(padded, x)

    def test_length_one(self):
        padded, n = pad_to_multiple(np.array([5.0]), 64)
        assert padded.shape == (64,)
        assert n == 1
        assert padded[0] == 5.0

    def test_batched_last_axis(self):
        padded, n = pad_to_multiple(np.ones((3, 10)), 8)
        assert padded.shape == (3, 16)
        assert n == 10

    def test_bad_multiple(self):
        with pytest.raises(ValueError):
            pad_to_multiple(np.ones(4), 0)
