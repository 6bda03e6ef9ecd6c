import numpy as np
import pytest
from scipy.ndimage import correlate1d

import relaxdiff.initial as initial_mod
from relaxdiff.errors import ParameterError
from relaxdiff.grid import gradient
from relaxdiff.initial import NoiseSpec, add_noise, init_H0, rescale, unrescale
from relaxdiff.tensors import unpack

from conftest import disk_image


def brute_force_H0(u, window, alpha):
    """Per-cell covariance via explicit python loops over the clipped window.

    Samples come from cells owning a forward face along every axis (the
    gradient's boundary slots are stencil padding, not data). The result is
    component-first, (kd, kd) + dims, as unpack(init_H0(...)) gives it.
    """
    dims = u.shape[:-1]
    kd = u.shape[-1] * len(dims)
    gflat = np.moveaxis(gradient(u).reshape((kd,) + dims), 0, -1)
    half = window // 2
    out = np.zeros((kd, kd) + dims)
    for idx in np.ndindex(*dims):
        samples = []
        for off in np.ndindex(*(window,) * len(dims)):
            pos = tuple(i + o - half for i, o in zip(idx, off))
            if all(0 <= p < n - 1 for p, n in zip(pos, dims)):
                samples.append(gflat[pos])
        samples = np.array(samples)
        m = len(samples)
        if m < 2:
            cov = np.zeros((kd, kd))
        else:
            mean = samples.mean(axis=0)
            centered = samples - mean
            cov = centered.T @ centered / (m - 1)
        out[(...,) + idx] = cov + alpha * np.eye(kd)
    return out


def all_products_H0(u, window, alpha):
    """The covariance from the field of all kd x kd gradient products.

    Its window sums and arithmetic are those init_H0 applies to the upper
    triangle only, so the two agree bit for bit. It is formed cell-first and
    returned as a component-first view.
    """
    dims = u.shape[:-1]
    kd = u.shape[-1] * len(dims)
    gflat = np.moveaxis(gradient(u).reshape((kd,) + dims), 0, -1)
    valid = np.ones(dims)
    for axis in range(len(dims)):
        valid[(slice(None),) * axis + (-1,)] = 0.0
    counts = initial_mod._window_sums(valid, dims, window)
    s1 = initial_mod._window_sums(gflat * valid[..., None], dims, window)
    outer = np.einsum("...a,...b->...ab", gflat, gflat)
    s2 = initial_mod._window_sums(outer * valid[..., None, None], dims, window)
    m = counts[..., None, None]
    mean_outer = np.einsum("...a,...b->...ab", s1, s1) / m
    cov = (s2 - mean_outer) / np.maximum(m - 1.0, 1.0)
    cov = 0.5 * (cov + np.swapaxes(cov, -1, -2))
    return np.moveaxis(cov + alpha * np.eye(kd), (-2, -1), (0, 1))


def signed_zero_scene(n):
    """1-d, two channels; the covariance of channel 0 and 1 is -0.0 inside.

    Channel 0 alternates +0.0 and -0.0, so its gradient is -0.0 where channel
    1 rises and +0.0 where it falls: every product is -0.0, while the window
    sums of channel 0 are +0.0.
    """
    u = np.zeros((n, 2))
    u[1::2, 0] = -0.0
    u[1:, 1] = np.cumsum(np.where(np.arange(n - 1) % 2 == 0, 1.0, -0.25))
    return u


class TestRescale:
    def test_endpoints_and_midpoint(self):
        np.testing.assert_array_equal(rescale(np.array([0.0, 0.5, 1.0])), [-1.0, 0.0, 1.0])
        np.testing.assert_array_equal(unrescale(np.array([-1.0, 0.0, 1.0])), [0.0, 0.5, 1.0])

    def test_roundtrip(self, rng):
        u = rng.uniform(0.0, 1.0, size=(6, 5, 3))
        np.testing.assert_allclose(unrescale(rescale(u)), u, atol=1e-15)
        # every 8-bit level comes back to itself through the save's quantization
        levels = np.arange(256)
        back = np.floor(255.0 * unrescale(rescale(levels / 255.0)) + 0.5)
        np.testing.assert_array_equal(back, levels)


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

    @pytest.mark.parametrize("seed", [1.5, 2.0, "3"])
    def test_non_integral_seed_rejected(self, seed):
        # numpy's generator would raise its own TypeError on the first draw.
        with pytest.raises(ParameterError, match="noise seed must be an integer"):
            NoiseSpec(std=0.1, seed=seed)


class TestInitH0:
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("scale, message", [
        (1e154, "u_noisy is too large: its squared L2 norm overflows"),  # so would the covariance products
        (np.nan, "u_noisy contains NaN or inf"),
    ])
    def test_input_checked_before_the_covariance(self, rng, scale, message):
        with pytest.raises(ParameterError, match=f"^{message}$"):
            init_H0(scale * rng.standard_normal((8, 8, 3)), window=3, alpha=0.1)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("workers", [1, 2])
    def test_covariance_overflow_names_its_entry_and_cell(self, workers, set_workers):
        # The squared norm, 1.69e308, is finite, so the input passes its
        # check, but the window sums of the squared gradient overflow; the
        # band threads of those sums warn nothing either.
        set_workers(workers)
        u = np.zeros((8, 8, 1))
        u[3, 4, 0] = 1.3e154
        message = r"^u_noisy is too large: its gradient covariance \(0, 0\) overflows at cell \(2, 3\)$"
        with pytest.raises(ParameterError, match=message):
            init_H0(u, window=3, alpha=0.1)

    def test_matches_scipy_window_sums(self, monkeypatch):
        u = disk_image(32, radius=10.0)[0] + 0.05 * np.random.default_rng(5).standard_normal((32, 32, 3))
        h0 = unpack(init_H0(u, window=5, alpha=0.1))
        monkeypatch.setattr(
            initial_mod,
            "_correlate1d",
            lambda v, w, axis: correlate1d(v, w, axis=axis, mode="constant", cval=0.0),
        )
        np.testing.assert_allclose(h0, unpack(init_H0(u, window=5, alpha=0.1)), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("scene", ["noise", "affine", "signed zeros"])
    def test_bit_equal_to_all_products(self, scene, rng):
        if scene == "signed zeros":
            u = signed_zero_scene(12)
        else:
            xx, yy = np.meshgrid(np.arange(13.0), np.arange(9.0), indexing="ij")
            u = np.stack([0.1 * xx - 0.2 * yy, -0.3 * xx, 0.0 * xx + 0.5], axis=-1)
            if scene == "noise":
                u = u + rng.standard_normal((13, 9, 3))
        dims = u.shape[:-1]
        h0 = init_H0(u, window=5 if len(dims) == 2 else 3, alpha=0.1)
        reference = all_products_H0(u, window=5 if len(dims) == 2 else 3, alpha=0.1)
        kd = u.shape[-1] * len(dims)
        assert h0.shape == (kd * (kd + 1) // 2,) + dims
        assert unpack(h0).tobytes() == reference.tobytes()

    def test_off_diagonal_negative_zero_becomes_positive(self):
        # The covariance is -0.0 there; adding alpha * Id adds +0.0 off the
        # diagonal, which makes it +0.0.
        h0 = unpack(init_H0(signed_zero_scene(12), window=3, alpha=0.1))
        assert np.all(h0[0, 1] == 0.0)
        assert not np.any(np.signbit(h0[0, 1]))

    def test_affine_image_gives_alpha_identity(self):
        n = 10
        dims = (n, n)
        xx = np.arange(n, dtype=float)[:, None] * np.ones(n)[None, :]
        u = (0.2 * xx + 0.1)[..., None]
        h0 = unpack(init_H0(u, window=3, alpha=0.4))
        expected = np.broadcast_to((0.4 * np.eye(2))[..., None, None], (2, 2) + dims)
        np.testing.assert_allclose(h0, expected, atol=1e-12)

    def test_eigenvalue_floor(self, rng):
        u = rng.standard_normal((12, 12, 3))
        h0 = unpack(init_H0(u, window=5, alpha=0.1))
        eigs = np.linalg.eigvalsh(np.moveaxis(h0, (0, 1), (-2, -1)))
        assert float(eigs[..., 0].min()) >= 0.1 - 1e-10

    def test_is_psd_every_cell(self, rng):
        dims = (7, 8)
        u = rng.standard_normal(dims + (2,))
        h0 = unpack(init_H0(u, window=3, alpha=0.15))
        for idx in np.ndindex(*dims):
            assert np.linalg.eigvalsh(h0[(...,) + idx])[0] >= 0.15 - 1e-10

    def test_alternating_1d_against_brute_force(self):
        n = 12
        u = (np.arange(n) % 2).astype(float)[:, None]
        h0 = unpack(init_H0(u, window=3, alpha=0.1))
        oracle = brute_force_H0(u, window=3, alpha=0.1)
        np.testing.assert_allclose(h0, oracle, atol=1e-12)

    def test_random_2d_against_brute_force(self, rng):
        u = rng.standard_normal((8, 6, 2))
        h0 = unpack(init_H0(u, window=5, alpha=0.1))
        oracle = brute_force_H0(u, window=5, alpha=0.1)
        np.testing.assert_allclose(h0, oracle, atol=1e-11)

    def test_translation_covariance_interior(self, rng):
        u = rng.standard_normal((14, 14, 1))
        shifted = np.roll(u, shift=2, axis=0)
        h_base = unpack(init_H0(u, window=3, alpha=0.1))
        h_shift = unpack(init_H0(shifted, window=3, alpha=0.1))
        # compare cells whose windows (and gradient stencils) avoid both
        # boundaries before and after the shift
        np.testing.assert_allclose(h_shift[..., 4:12, 2:12], h_base[..., 2:10, 2:12], atol=1e-12)

    def test_validation(self, rng):
        u = rng.standard_normal((6, 6, 1))
        with pytest.raises(ParameterError):
            init_H0(u, window=4, alpha=0.1)
        with pytest.raises(ParameterError):
            init_H0(u, window=1, alpha=0.1)
        with pytest.raises(ParameterError):
            init_H0(u, window=7, alpha=0.1)
        with pytest.raises(ParameterError):
            init_H0(u, window=3, alpha=0.0)
