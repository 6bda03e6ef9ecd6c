import warnings

import numpy as np
import pytest

from relaxdiff.errors import DimensionError, ParameterError
from relaxdiff.grid import (
    _require_finite,
    check_image,
    divergence,
    face_average_tensors,
    flux,
    gradient,
    inner,
    mean_free,
    poincare_estimate,
)
from relaxdiff.tensors import apply, pack

from conftest import random_psd_field


def diffusion_apply(hfield, u):
    """div(H grad u) with face-averaged tensors: the operator of the filter's solves.

    hfield is full square, (kd, kd) + dims; the face averaging takes it packed.
    """
    return divergence(apply(face_average_tensors(pack(hfield)), gradient(u)))


class TestCheckImage:
    def test_returns_the_image_as_floats(self):
        u = np.arange(24).reshape(2, 4, 3)
        out = check_image("u", u)
        assert out.dtype == float and out.shape == (2, 4, 3)
        np.testing.assert_array_equal(out, u)

    def test_rejects_a_dim_below_two(self):
        with pytest.raises(ParameterError, match=r"^all grid dims must be >= 2, got \(1, 4\)$"):
            check_image("u", np.zeros((1, 4, 1)))

    def test_rejects_an_image_without_a_channel_axis(self):
        with pytest.raises(DimensionError, match=r"^image field needs shape dims \+ \(channels,\)$"):
            check_image("u", np.zeros(4))

    def test_rejects_no_channels(self):
        with pytest.raises(ParameterError, match="^channels must be >= 1$"):
            check_image("u", np.zeros((4, 4, 0)))


class TestGradient:
    def test_constant_is_zero(self):
        u = np.full((6, 5, 2), 2.5)
        np.testing.assert_array_equal(gradient(u), 0.0)

    def test_1d_ramp(self):
        u = np.arange(5, dtype=float)[:, None]
        g = gradient(u)
        np.testing.assert_array_equal(g[0, 0, :4], 1.0)
        assert g[0, 0, 4] == 0.0  # boundary slot carries no face

    def test_linearity_scaling(self, rng):
        u = rng.standard_normal((8, 8, 3))
        np.testing.assert_allclose(gradient(3.0 * u), 3.0 * gradient(u), rtol=1e-12)

    def test_anisotropic_spacing_exact(self, rng):
        u = rng.standard_normal((5, 7, 2))
        g = gradient(u)
        np.testing.assert_array_equal(g[:, 0, :-1], np.moveaxis(u[1:] - u[:-1], -1, 0))
        np.testing.assert_array_equal(g[:, 1, :, :-1], np.moveaxis(u[:, 1:] - u[:, :-1], -1, 0))
        np.testing.assert_array_equal(g[:, 0, -1], 0.0)
        np.testing.assert_array_equal(g[:, 1, :, -1], 0.0)


class TestDivergence:
    def test_zero(self):
        np.testing.assert_array_equal(divergence(np.zeros((2, 2, 4, 4))), 0.0)

    def test_adjointness_random(self, rng):
        dims = (16, 16)
        for _ in range(10):
            u = rng.standard_normal(dims + (3,))
            j = rng.standard_normal((3, 2) + dims)
            pairing_grad = inner(gradient(u), j)
            pairing_div = inner(u, divergence(j))
            scale = max(abs(pairing_grad), abs(pairing_div), 1.0)
            assert abs(pairing_grad + pairing_div) <= 1e-12 * scale

    def test_rejects_a_malformed_flux(self):
        # (k, d) + dims needs d = len(dims): an image field is not one.
        for wrong in (np.zeros((4, 4, 2)), np.zeros((2, 3, 4, 4)), np.zeros((2, 2))):
            with pytest.raises(DimensionError, match=r"is not \(k, d\) \+ dims with d = len\(dims\)$"):
                divergence(wrong)

    def test_total_divergence_vanishes(self, rng):
        for dims in ((7,), (5, 6), (4, 3, 5)):
            j = rng.standard_normal((2, len(dims)) + dims)
            total = divergence(j).reshape(-1, 2).sum(axis=0)
            np.testing.assert_allclose(total, 0.0, atol=1e-12)


class TestDiffusionApply:
    def test_identity_tensor_is_laplacian(self, rng):
        dims = (8, 8)
        hfield = np.broadcast_to(np.eye(6)[..., None, None], (6, 6) + dims).copy()
        u = rng.standard_normal(dims + (3,))
        lap = divergence(gradient(u))
        np.testing.assert_allclose(diffusion_apply(hfield, u), lap, atol=1e-12)

    def test_constant_field_maps_to_zero(self):
        dims = (5, 5)
        hfield = np.broadcast_to(np.eye(4)[..., None, None], (4, 4) + dims).copy()
        u = np.full(dims + (2,), 1.3)
        np.testing.assert_allclose(diffusion_apply(hfield, u), 0.0, atol=1e-13)

    def test_two_cell_hand_example(self):
        hfield = np.stack([np.eye(1), np.eye(1)], axis=-1)
        u = np.array([[1.0], [-1.0]])
        np.testing.assert_array_equal(diffusion_apply(hfield, u), [[-2.0], [2.0]])

    def test_mass_conservation(self, rng):
        dims = (9, 11)
        hfield = random_psd_field(rng, dims, 6, floor=0.05)
        u = rng.standard_normal(dims + (3,))
        total = diffusion_apply(hfield, u).reshape(-1, 3).sum(axis=0)
        scale = float(np.max(np.abs(u)))
        np.testing.assert_allclose(total, 0.0, atol=1e-12 * max(scale, 1.0) * 99)

    def test_bilinear_form_symmetry(self, rng):
        dims = (8, 7)
        hfield = random_psd_field(rng, dims, 4, floor=0.1)
        u = rng.standard_normal(dims + (2,))
        v = rng.standard_normal(dims + (2,))
        a_uv = inner(diffusion_apply(hfield, u), v)
        a_vu = inner(u, diffusion_apply(hfield, v))
        assert a_uv == pytest.approx(a_vu, rel=1e-12, abs=1e-12)

    def test_coercivity_with_eigenvalue_floor(self, rng):
        kappa = 0.3
        dims = (8, 8)
        hfield = random_psd_field(rng, dims, 4, floor=kappa)
        for _ in range(5):
            u = mean_free(rng.standard_normal(dims + (2,)))
            g = gradient(u)
            quad = -inner(diffusion_apply(hfield, u), u)
            grad_sq = inner(g, g)
            assert quad >= kappa * grad_sq - 1e-10

    def test_linear_in_u(self, rng):
        dims = (6, 6)
        hfield = random_psd_field(rng, dims, 4, floor=0.1)
        u = rng.standard_normal(dims + (2,))
        v = rng.standard_normal(dims + (2,))
        lhs = diffusion_apply(hfield, 2.0 * u + v)
        rhs = 2.0 * diffusion_apply(hfield, u) + diffusion_apply(hfield, v)
        np.testing.assert_allclose(lhs, rhs, atol=1e-11)

    def test_face_average_preserves_floor(self, rng):
        dims = (6, 6)
        hfield = random_psd_field(rng, dims, 4, floor=0.2)
        havg = face_average_tensors(pack(hfield))
        assert havg.shape == hfield.shape
        assert havg.tobytes() == np.swapaxes(havg, 0, 1).tobytes()
        assert float(np.min(np.linalg.eigvalsh(np.moveaxis(havg, (0, 1), (-2, -1))))) >= 0.2 - 1e-10

    @pytest.mark.parametrize("workers", [1, 2])
    def test_face_average_overflows_to_inf_silently(self, workers, set_workers):
        # Rows 0 and 1 hold entries near the largest float: their pair sums
        # overflow to inf, while a sum with a row of ones stays finite, in
        # either band of two and with no numpy warning.
        set_workers(workers)
        h = np.ones((3, 4, 3))  # kd = 2, dims (4, 3)
        h[:, :2] = 1.7e308
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            havg = face_average_tensors(h)
        expected = np.ones((4, 3))
        expected[0] = expected[1, :2] = np.inf
        expected[1, 2] = 0.5 * (1.7e308 + 1.0)
        for a in range(2):
            for b in range(2):
                assert havg[a, b].tobytes() == expected.tobytes()

    def test_face_average_rejects_other_layouts(self, rng):
        # It takes H packed, (P,) + dims with P = kd(kd+1)/2: a cell-first
        # field, dims + (kd, kd), has 8 planes, which no kd gives. The other
        # shapes are packed fields of other images, (6, 8, 8) with kd = 3
        # among them, and the flux rejects their face tensors for this one.
        full = random_psd_field(rng, (8, 8), 6, floor=0.1)
        cell_first = np.moveaxis(full, (0, 1), (-2, -1)).copy()
        assert cell_first.shape == (8, 8, 6, 6)
        with pytest.raises(DimensionError, match="^8 planes are no packed symmetric tensor$"):
            face_average_tensors(cell_first)
        u = rng.standard_normal((8, 8, 3))
        for wrong in (full, np.zeros((10, 8, 8)), np.zeros((21, 8, 7))):
            with pytest.raises(DimensionError, match=r"!= \(6, 6, 8, 8\)$"):
                flux(face_average_tensors(wrong), u)


class TestMeanFree:
    @pytest.mark.parametrize("channels", [1, 2, 3])
    def test_bits_of_numpy_mean(self, channels, rng):
        # numpy's mean divides the same per-channel sum by the cell count.
        for dims in ((2,), (7, 3), (64, 65), (5, 4, 3)):
            u = rng.standard_normal(dims + (channels,)) * 10.0 ** rng.integers(-8, 9, dims + (channels,))
            expected = u - u.reshape(-1, channels).mean(axis=0)
            assert mean_free(u).tobytes() == expected.tobytes(), dims


class TestRequireFinite:
    @pytest.mark.filterwarnings("error")
    def test_names_the_array_and_the_fault(self):
        big = np.full((4, 4, 1), 1e154)  # 16 squares of 1e308 overflow
        _require_finite("a", big[:2, :2] / 2.0)  # four squares of 2.5e307 do not
        for a, message in ((big, "a is too large: its squared L2 norm overflows"),
                           (np.full(3, np.inf), "a contains NaN or inf"),
                           (np.array([np.nan, 1e300, 1e300]), "a contains NaN or inf")):
            with pytest.raises(ParameterError, match=f"^{message}$"):
                _require_finite("a", a)


class TestPoincareEstimate:
    def test_1d_closed_form(self):
        for n in (6, 16, 40):
            expected = 2.0 * (1.0 - np.cos(np.pi / n))
            assert poincare_estimate((n,)) == pytest.approx(expected, abs=1e-8)

    def test_1d_matches_dense_eigensolver(self):
        n = 12
        lap = np.zeros((n, n))
        for i in range(n):
            e = np.zeros((n, 1))
            e[i, 0] = 1.0
            lap[:, i] = -divergence(gradient(e))[:, 0]
        w = np.sort(np.linalg.eigvalsh(lap))
        assert poincare_estimate((n,)) == pytest.approx(w[1], abs=1e-8)

    def test_2d_equals_1d(self):
        n = 10
        assert poincare_estimate((n, n)) == pytest.approx(poincare_estimate((n,)), abs=1e-8)
