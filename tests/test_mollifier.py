import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.ndimage import correlate1d

from relaxdiff.errors import ParameterError
from relaxdiff.grid import GridSpec, gradient
from relaxdiff.mollifier import COMPACT_BUMP, Kernel, _correlate1d, convolve, grad_sigma


def normalized_gaussian_weights(sigma):
    r = int(np.ceil(4.0 * sigma))
    m = np.arange(-r, r + 1, dtype=float)
    w = np.exp(-0.5 * (m / sigma) ** 2)
    return w / w.sum()


class TestKernel:
    def test_weights_sum_to_one(self):
        for sigma in (0.6, 1.0, 2.5):
            w = Kernel(sigma=sigma).weights()
            assert w.sum() == pytest.approx(1.0, abs=1e-14)
            assert np.all(w >= 0)

    def test_subpixel_sigma_degenerates(self):
        # Below half a pixel there is no kernel: the sharp limit is kern=None.
        for sigma in (0.4, float("nan"), float("inf")):
            with pytest.raises(ParameterError):
                Kernel(sigma=sigma)

    def test_bump_kind(self):
        w = Kernel(kind=COMPACT_BUMP, sigma=3.0).weights()
        assert w.sum() == pytest.approx(1.0, abs=1e-14)
        assert np.all(w >= 0)
        assert w[0] == 0.0  # endpoints of the compact support vanish

    def test_validation(self):
        with pytest.raises(ParameterError):
            Kernel(sigma=0.0)
        with pytest.raises(ParameterError):
            Kernel(kind="boxcar")
        # past MAX_SIGMA the weights would not fit in memory
        for sigma in (1e5, 1e300):
            with pytest.raises(ParameterError, match="sigma must lie in"):
                Kernel(sigma=sigma)
        # a bump of sigma <= 1 keeps only its centre weight, the identity
        for sigma in (0.5, 1.0):
            with pytest.raises(ParameterError, match="sigma > 1"):
                Kernel(kind=COMPACT_BUMP, sigma=sigma)


@st.composite
def correlation_cases(draw):
    """Field, odd-width symmetric weights and axis; kernels may be wider than the axis."""
    ndim = draw(st.integers(1, 3))
    dims = tuple(draw(st.lists(st.integers(2, 20), min_size=ndim, max_size=ndim)))
    channels = draw(st.integers(1, 3))
    width = draw(st.sampled_from(range(1, 18, 2)))
    axis = draw(st.integers(0, ndim - 1))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    u = rng.standard_normal(dims + (channels,))
    if draw(st.booleans()):  # signed zeros, whose sign the pair sums keep
        u[rng.uniform(size=u.shape) < 0.5] = 0.0
        u = np.copysign(u, rng.standard_normal(u.shape))
    w = rng.standard_normal(width)
    return u, 0.5 * (w + w[::-1]), axis


def correlate1d_pairs_ref(u, w, axis):
    """Equal-weight pairs as a zero fill, a copy and an in-place add per offset.

    The order of the package's pair sums, including their signs of zero: the
    low edge adds u into 0.0, the high edge copies it.
    """
    u = np.moveaxis(u, axis, 0)
    n = u.shape[0]
    r = w.size // 2
    out = w[r] * u
    pair = np.empty_like(out)
    for m in range(min(r, n - 1), 0, -1):
        pair[:m] = 0.0
        pair[m:] = u[:-m]
        pair[:-m] += u[m:]
        pair *= w[r + m]
        out += pair
    return np.moveaxis(out, 0, axis)


class TestCorrelate1d:
    """scipy.ndimage.correlate1d(mode="constant") is the reference."""

    @settings(max_examples=300, deadline=None)
    @given(correlation_cases())
    def test_matches_scipy(self, case):
        u, w, axis = case
        out = _correlate1d(u, w, axis)
        ref = correlate1d(u, w, axis=axis, mode="constant", cval=0.0)
        assert out.shape == u.shape
        # Equal-weight pairs are summed in the reference's order, so every
        # kernel of the package (all symmetric) gives the same bits (scipy
        # pads with +0.0, so a -0.0 may come out as +0.0 there).
        np.testing.assert_array_equal(out, ref)
        np.testing.assert_allclose(out, ref, rtol=1e-13, atol=1e-15)
        assert out.tobytes() == correlate1d_pairs_ref(u, w, axis).tobytes()


    @pytest.mark.parametrize("n", [2, 3, 4, 5, 8])
    @pytest.mark.parametrize("r", [1, 2, 4])
    def test_signed_zeros_and_short_axes(self, n, r):
        # Axes as short as r + 1 and shorter than 2r + 1, on a field of
        # signed zeros and values: every pair is an edge pair somewhere.
        rng = np.random.default_rng(100 * n + r)
        u = rng.standard_normal((n, 3, 2))
        u[:, 0] = -0.0
        u[:, 1, 0] = 0.0
        w = rng.uniform(0.1, 1.0, 2 * r + 1)
        w = 0.5 * (w + w[::-1])
        for axis in (0, 1):
            out = _correlate1d(u, w, axis)
            np.testing.assert_array_equal(out, correlate1d(u, w, axis=axis, mode="constant", cval=0.0))
            assert out.tobytes() == correlate1d_pairs_ref(u, w, axis).tobytes()


class TestConvolve:
    def test_constant_preserved(self):
        grid = GridSpec(dims=(12, 9), channels=2)
        u = np.full(grid.field_shape(), 3.25)
        out = convolve(u, Kernel(sigma=2.0), grid)
        np.testing.assert_allclose(out, 3.25, atol=1e-13)

    def test_impulse_center_value(self):
        # Away from the boundary the effective weights are the plain
        # normalized discrete Gaussian; the response to a unit impulse peaks
        # at the product of the 1-d center weights.
        sigma = 2.0
        grid = GridSpec(dims=(33, 33), channels=1)
        u = np.zeros(grid.field_shape())
        u[16, 16, 0] = 1.0
        out = convolve(u, Kernel(sigma=sigma), grid)
        w = normalized_gaussian_weights(sigma)
        center = w[len(w) // 2]
        assert out[16, 16, 0] == pytest.approx(center * center, rel=1e-12)
        # impulse response is symmetric about the center
        np.testing.assert_allclose(out, out[::-1, :, :], atol=1e-15)
        np.testing.assert_allclose(out, out[:, ::-1, :], atol=1e-15)
        np.testing.assert_allclose(out, np.swapaxes(out, 0, 1), atol=1e-15)

    def test_linearity(self, rng):
        grid = GridSpec(dims=(10, 7), channels=2)
        kern = Kernel(sigma=1.5)
        u = rng.standard_normal(grid.field_shape())
        v = rng.standard_normal(grid.field_shape())
        lhs = convolve(2.0 * u - 0.5 * v, kern, grid)
        rhs = 2.0 * convolve(u, kern, grid) - 0.5 * convolve(v, kern, grid)
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_1d_oracle(self, rng):
        # Brute-force domain-restricted renormalized convolution in 1-d.
        grid = GridSpec(dims=(17,), channels=1)
        u = rng.standard_normal(grid.field_shape())
        sigma = 1.2
        out = convolve(u, Kernel(sigma=sigma), grid)
        w = normalized_gaussian_weights(sigma)
        r = len(w) // 2
        expected = np.zeros_like(u)
        for i in range(17):
            acc = 0.0
            wsum = 0.0
            for m in range(-r, r + 1):
                jdx = i + m
                if 0 <= jdx < 17:
                    acc += w[m + r] * u[jdx, 0]
                    wsum += w[m + r]
            expected[i, 0] = acc / wsum
        np.testing.assert_allclose(out, expected, atol=1e-13)


class TestGradSigma:
    def test_constant_zero_gradient(self):
        grid = GridSpec(dims=(9, 9), channels=2)
        u = np.full(grid.field_shape(), -0.7)
        out = grad_sigma(u, Kernel(sigma=1.0), grid)
        np.testing.assert_allclose(out, 0.0, atol=1e-13)

    def test_ramp_slope_in_interior(self):
        n = 48
        grid = GridSpec(dims=(n, n), channels=1)
        xx = np.arange(n, dtype=float)[:, None] * np.ones(n)[None, :]
        u = (0.03 * xx)[..., None]
        out = grad_sigma(u, Kernel(sigma=1.0), grid)
        interior = out[8 : n - 8, 8 : n - 8, 0, 0]
        np.testing.assert_allclose(interior, 0.03, atol=1e-10)

    def test_sharp_mode_bit_for_bit(self, rng):
        grid = GridSpec(dims=(11, 13), channels=3)
        u = rng.standard_normal(grid.field_shape())
        np.testing.assert_array_equal(grad_sigma(u, None, grid), gradient(u, grid))


class TestSmoothingBounds:
    def test_grad_sigma_bounded_on_unit_fields(self, rng):
        # Mollification makes the gradient sup-norm controlled by the L2 norm.
        grid = GridSpec(dims=(16, 16), channels=1)
        kern = Kernel(sigma=2.0)
        worst = 0.0
        for _ in range(10):
            u = rng.standard_normal(grid.field_shape())
            u /= np.linalg.norm(u.ravel())
            g = grad_sigma(u, kern, grid)
            worst = max(worst, float(np.max(np.abs(g))))
        assert worst < 1.0  # loose but finite; raw gradients of unit fields reach ~2

    def test_monotone_damping_statistical(self):
        # Soft property: larger bandwidth damps the worst-case mollified
        # gradient. Discreteness allows a small fraction of violations.
        grid = GridSpec(dims=(16, 16), channels=1)
        sigmas = (0.5, 1.0, 2.0, 4.0)
        violations = 0
        comparisons = 0
        for seed in range(24):
            u = np.random.default_rng(seed).standard_normal(grid.field_shape())
            maxima = []
            for s in sigmas:
                g = grad_sigma(u, Kernel(sigma=s), grid)
                maxima.append(float(np.max(np.abs(g))))
            for a, b in zip(maxima, maxima[1:]):
                comparisons += 1
                if b > a * (1 + 1e-12):
                    violations += 1
        assert violations <= 0.05 * comparisons
