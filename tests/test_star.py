import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from vecwave.errors import DimensionError
from vecwave.scalar import haar_filter, refine_sample
from vecwave.star import (
    MatrixM,
    VectorSampledFunction,
    hadamard,
    l2_norm,
    norm1,
    separable_channels,
    star,
)


def stacked(channels):
    """One-dimensional channels that share a window, as one vector function."""
    first = channels[0]
    assert all((c.start, c.level, len(c.values)) == (first.start, first.level, len(first.values))
               for c in channels)
    return VectorSampledFunction((first.start,), first.level, np.stack([c.values for c in channels]))


def haar_pair(J=4):
    """The two Haar atoms phi, psi stacked on their common window [0, 1)."""
    f = haar_filter()
    return stacked([refine_sample(f, "scaling", J), refine_sample(f, "wavelet", J)])


def mixed(A, g):
    """Channel mixing (A g)_i = sum_j A[i, j] g_j on the same grid."""
    return VectorSampledFunction(g.start, g.level, np.tensordot(A, g.values, axes=(1, 0)))


def random_vsf(rng, m, n=8, level=3, d=1, start=None):
    shape = (m,) + (n,) * d
    if start is None:
        start = tuple(int(rng.integers(-4, 5)) for _ in range(d))
    return VectorSampledFunction(start, level, rng.standard_normal(shape))


def test_haar_pair_is_star_orthonormal():
    pair = haar_pair()
    assert_array_equal(star(pair, pair).entries, np.eye(2))


def test_star_with_zero_function():
    pair = haar_pair()
    zero = VectorSampledFunction(pair.start, pair.level, np.zeros_like(pair.values))
    assert_array_equal(star(pair, zero).entries, np.zeros((2, 2)))


def test_star_of_duplicated_channel_is_all_ones():
    f = haar_filter()
    phi = refine_sample(f, "scaling", 4)
    both = stacked([phi, phi])
    assert_array_equal(star(both, both).entries, np.ones((2, 2)))


def test_star_transpose_symmetry():
    rng = np.random.default_rng(3)
    for _ in range(10):
        f = random_vsf(rng, 3)
        g = random_vsf(rng, 3)
        S = star(f, g).entries
        T = star(g, f).entries
        assert_allclose(S, T.T, rtol=0, atol=1e-13)


def test_star_disjoint_windows_is_zero():
    a = VectorSampledFunction((0,), 2, np.ones((2, 4)))
    b = VectorSampledFunction((10,), 2, np.ones((2, 4)))
    assert_array_equal(star(a, b).entries, np.zeros((2, 2)))


def test_star_partial_overlap_matches_padded():
    rng = np.random.default_rng(11)
    a = VectorSampledFunction((0,), 3, rng.standard_normal((2, 6)))
    b = VectorSampledFunction((4,), 3, rng.standard_normal((2, 6)))
    wide_a = np.zeros((2, 10))
    wide_b = np.zeros((2, 10))
    wide_a[:, 0:6] = a.values
    wide_b[:, 4:10] = b.values
    expect = wide_a @ wide_b.T * 2.0**-3
    assert_allclose(star(a, b).entries, expect, rtol=0, atol=1e-15)


def test_star_dimension_errors():
    a = VectorSampledFunction((0,), 3, np.ones((2, 4)))
    with pytest.raises(DimensionError):
        star(a, VectorSampledFunction((0,), 3, np.ones((3, 4))))
    with pytest.raises(DimensionError):
        star(a, VectorSampledFunction((0,), 2, np.ones((2, 4))))
    with pytest.raises(DimensionError):
        star(a, VectorSampledFunction((0, 0), 3, np.ones((2, 4, 4))))


def test_star_with_matrix_identity_and_zero():
    pair = haar_pair()
    assert_array_equal(star(pair, mixed(np.eye(2), pair)).entries, star(pair, pair).entries)
    assert_array_equal(star(pair, mixed(np.zeros((2, 2)), pair)).entries, np.zeros((2, 2)))


def test_star_with_matrix_random():
    # star is linear in its second slot: star(f, A g) = star(f, g) A^T
    rng = np.random.default_rng(5)
    for _ in range(25):
        f = random_vsf(rng, 2)
        g = VectorSampledFunction(f.start, f.level, rng.standard_normal((2, 8)))
        A = rng.standard_normal((2, 2))
        out = star(f, mixed(A, g))
        assert_allclose(out.entries, star(f, g).entries @ A.T, rtol=0, atol=1e-12)


def test_bilinearity():
    rng = np.random.default_rng(17)
    for _ in range(20):
        f = random_vsf(rng, 2, start=(0,))
        fp = random_vsf(rng, 2, start=(0,))
        g = random_vsf(rng, 2, start=(0,))
        alpha = float(rng.standard_normal())
        combo = VectorSampledFunction((0,), 3, alpha * f.values + fp.values)
        left = star(combo, g).entries
        right = alpha * star(f, g).entries + star(fp, g).entries
        assert_allclose(left, right, rtol=0, atol=1e-12)


def test_norm1_examples():
    assert norm1(MatrixM.identity(2)) == 1.0
    assert norm1(np.array([[1.0, -2.0], [3.0, 4.0]])) == 6.0
    assert norm1(MatrixM.zero(3)) == 0.0


def test_hadamard_examples():
    A = MatrixM(np.array([[1.0, 2.0], [3.0, 4.0]]))
    ones = MatrixM(np.ones((2, 2)))
    assert_array_equal(hadamard(A, ones).entries, A.entries)
    B = MatrixM(np.array([[5.0, 6.0], [7.0, 8.0]]))
    assert_array_equal(hadamard(A, B).entries, [[5.0, 12.0], [21.0, 32.0]])
    assert_array_equal(hadamard(A, MatrixM.zero(2)).entries, np.zeros((2, 2)))
    with pytest.raises(DimensionError):
        hadamard(A, MatrixM.zero(3))


def test_separable_factorization():
    """Pairing of separable functions factors entrywise through the
    one-dimensional pairings of their factors."""
    rng = np.random.default_rng(29)
    for _ in range(100):
        fx = random_vsf(rng, 2)
        rx = VectorSampledFunction(fx.start, 3, rng.standard_normal((2, 8)))
        gy = random_vsf(rng, 2)
        uy = VectorSampledFunction(gy.start, 3, rng.standard_normal((2, 8)))
        h = separable_channels(fx, gy)
        k = separable_channels(rx, uy)
        expect = hadamard(star(fx, rx), star(gy, uy)).entries
        assert_allclose(star(h, k).entries, expect, rtol=0, atol=1e-12)


def test_continuity_bound():
    rng = np.random.default_rng(41)
    for m in (2, 3):
        for _ in range(100):
            f = random_vsf(rng, m)
            g = VectorSampledFunction(f.start, 3, rng.standard_normal((m, 8)))
            assert norm1(star(f, g)) <= m * m * l2_norm(f) * l2_norm(g) + 1e-12


def test_l2_norm_haar():
    pair = haar_pair()
    assert l2_norm(pair) == pytest.approx(np.sqrt(2.0), abs=1e-15)


def test_matrix_validation():
    with pytest.raises(DimensionError):
        MatrixM(np.ones((2, 3)))
    with pytest.raises(ValueError):
        MatrixM(np.array([[1.0, np.nan], [0.0, 1.0]]))


def test_star_2d():
    rng = np.random.default_rng(53)
    f = random_vsf(rng, 2, n=4, d=2, start=(0, 0))
    g = random_vsf(rng, 2, n=4, d=2, start=(0, 0))
    S = star(f, g).entries
    cell = (2.0**-3) ** 2
    expect = np.array(
        [[np.sum(f.values[i] * g.values[j]) * cell for j in range(2)] for i in range(2)]
    )
    assert_allclose(S, expect, rtol=0, atol=1e-14)
