import numpy as np
import pytest
from scipy.ndimage import correlate1d

import relaxdiff.initial as initial_mod
from relaxdiff.errors import ParameterError, RangeError
from relaxdiff.grid import GridSpec, gradient
from relaxdiff.initial import NoiseSpec, add_noise, init_H0, rescale, unrescale

from conftest import disk_image
from relaxdiff.tensors import is_psd


def brute_force_H0(u, grid, window, alpha):
    """Per-cell covariance via explicit python loops over the clipped window.

    Samples come from cells owning a forward face along every axis (the
    gradient's boundary slots are stencil padding, not data).
    """
    g = gradient(u, grid)
    kd = grid.channels * grid.ndim
    gflat = g.reshape(grid.dims + (kd,))
    half = window // 2
    out = np.zeros(grid.dims + (kd, kd))
    for idx in np.ndindex(*grid.dims):
        samples = []
        for off in np.ndindex(*(window,) * grid.ndim):
            pos = tuple(i + o - half for i, o in zip(idx, off))
            if all(0 <= p < n - 1 for p, n in zip(pos, grid.dims)):
                samples.append(gflat[pos])
        samples = np.array(samples)
        m = len(samples)
        if m < 2:
            cov = np.zeros((kd, kd))
        else:
            mean = samples.mean(axis=0)
            centered = samples - mean
            cov = centered.T @ centered / (m - 1)
        out[idx] = cov + alpha * np.eye(kd)
    return out


class TestRescale:
    def test_endpoints_and_midpoint(self):
        u = np.full((4, 4, 1), 2.0)
        np.testing.assert_allclose(rescale(u, 2.0, 6.0), -1.0)
        np.testing.assert_allclose(rescale(np.full((4, 4, 1), 4.0), 2.0, 6.0), 0.0)
        np.testing.assert_allclose(rescale(np.full((4, 4, 1), 6.0), 2.0, 6.0), 1.0)

    def test_roundtrip(self, rng):
        u = rng.uniform(0.2, 0.9, size=(6, 5, 3))
        back = unrescale(rescale(u, 0.0, 1.0), 0.0, 1.0)
        np.testing.assert_allclose(back, u, atol=1e-12)

    def test_out_of_range(self):
        with pytest.raises(RangeError):
            rescale(np.array([[[1.5]], [[0.0]]]), 0.0, 1.0)

    def test_bad_interval(self):
        with pytest.raises(ParameterError):
            rescale(np.zeros((2, 2, 1)), 1.0, 1.0)


class TestAddNoise:
    def test_zero_std_identity(self, rng):
        u = rng.standard_normal((5, 5, 3))
        np.testing.assert_array_equal(add_noise(u, NoiseSpec(std=0.0, seed=9)), u)

    def test_deterministic(self, rng):
        u = rng.standard_normal((5, 5, 3))
        a = add_noise(u, NoiseSpec(std=0.3, seed=123))
        b = add_noise(u, NoiseSpec(std=0.3, seed=123))
        np.testing.assert_array_equal(a, b)

    def test_std_scaling_contract(self, rng):
        u = np.zeros((8, 8, 2))
        one = add_noise(u, NoiseSpec(std=0.1, seed=7))
        two = add_noise(u, NoiseSpec(std=0.2, seed=7))
        np.testing.assert_allclose(two, 2.0 * one, rtol=1e-15)

    def test_sample_statistics(self):
        u = np.zeros((128, 128, 3))
        out = add_noise(u, NoiseSpec(std=0.1, seed=5))
        noise = out.ravel()
        # three standard errors on 128*128*3 samples
        assert abs(noise.mean()) <= 0.002
        assert 0.097 <= noise.std(ddof=1) <= 0.103

    def test_validation(self):
        with pytest.raises(ParameterError):
            NoiseSpec(std=-0.1)


class TestInitH0:
    def test_matches_scipy_window_sums(self, monkeypatch):
        grid = GridSpec(dims=(32, 32), channels=3)
        u = disk_image(32, radius=10.0)[0] + 0.05 * np.random.default_rng(5).standard_normal(grid.field_shape())
        h0 = init_H0(u, grid, window=5, alpha=0.1)
        monkeypatch.setattr(
            initial_mod,
            "_correlate1d",
            lambda v, w, axis: correlate1d(v, w, axis=axis, mode="constant", cval=0.0),
        )
        np.testing.assert_allclose(h0, init_H0(u, grid, window=5, alpha=0.1), rtol=0, atol=1e-12)

    def test_affine_image_gives_alpha_identity(self):
        n = 10
        grid = GridSpec(dims=(n, n), channels=1)
        xx = np.arange(n, dtype=float)[:, None] * np.ones(n)[None, :]
        u = (0.2 * xx + 0.1)[..., None]
        h0 = init_H0(u, grid, window=3, alpha=0.4)
        expected = np.broadcast_to(0.4 * np.eye(2), grid.dims + (2, 2))
        np.testing.assert_allclose(h0, expected, atol=1e-12)

    def test_eigenvalue_floor(self, rng):
        grid = GridSpec(dims=(12, 12), channels=3)
        u = rng.standard_normal(grid.field_shape())
        h0 = init_H0(u, grid, window=5, alpha=0.1)
        eigs = np.linalg.eigvalsh(h0)
        assert float(eigs[..., 0].min()) >= 0.1 - 1e-10

    def test_symmetric_exactly(self, rng):
        grid = GridSpec(dims=(9, 9), channels=2)
        u = rng.standard_normal(grid.field_shape())
        h0 = init_H0(u, grid, window=3, alpha=0.2)
        np.testing.assert_array_equal(h0, np.swapaxes(h0, -1, -2))

    def test_is_psd_every_cell(self, rng):
        grid = GridSpec(dims=(7, 8), channels=2)
        u = rng.standard_normal(grid.field_shape())
        h0 = init_H0(u, grid, window=3, alpha=0.15)
        for idx in np.ndindex(*grid.dims):
            assert is_psd(h0[idx], 0.15)

    def test_alternating_1d_against_brute_force(self):
        n = 12
        grid = GridSpec(dims=(n,), channels=1)
        u = (np.arange(n) % 2).astype(float)[:, None]
        h0 = init_H0(u, grid, window=3, alpha=0.1)
        oracle = brute_force_H0(u, grid, window=3, alpha=0.1)
        np.testing.assert_allclose(h0, oracle, atol=1e-12)

    def test_random_2d_against_brute_force(self, rng):
        grid = GridSpec(dims=(8, 6), channels=2)
        u = rng.standard_normal(grid.field_shape())
        h0 = init_H0(u, grid, window=5, alpha=0.1)
        oracle = brute_force_H0(u, grid, window=5, alpha=0.1)
        np.testing.assert_allclose(h0, oracle, atol=1e-11)

    def test_translation_covariance_interior(self, rng):
        grid = GridSpec(dims=(14, 14), channels=1)
        u = rng.standard_normal(grid.field_shape())
        shifted = np.roll(u, shift=2, axis=0)
        h_base = init_H0(u, grid, window=3, alpha=0.1)
        h_shift = init_H0(shifted, grid, window=3, alpha=0.1)
        # compare cells whose windows (and gradient stencils) avoid both
        # boundaries before and after the shift
        np.testing.assert_allclose(h_shift[4:12, 2:12], h_base[2:10, 2:12], atol=1e-12)

    def test_validation(self, rng):
        grid = GridSpec(dims=(6, 6), channels=1)
        u = rng.standard_normal(grid.field_shape())
        with pytest.raises(ParameterError):
            init_H0(u, grid, window=4, alpha=0.1)
        with pytest.raises(ParameterError):
            init_H0(u, grid, window=1, alpha=0.1)
        with pytest.raises(ParameterError):
            init_H0(u, grid, window=7, alpha=0.1)
        with pytest.raises(ParameterError):
            init_H0(u, grid, window=3, alpha=0.0)
