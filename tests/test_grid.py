import numpy as np
import pytest

from relaxdiff.errors import DimensionError, ParameterError
from relaxdiff.grid import (
    GridSpec,
    _require_finite,
    divergence,
    face_average_tensors,
    gradient,
    inner,
    mean_free,
    poincare_estimate,
)
from relaxdiff.tensors import apply, pack

from conftest import random_psd_field


def diffusion_apply(hfield, u, grid):
    """div(H grad u) with face-averaged tensors: the operator of the filter's solves.

    hfield is full square, (kd, kd) + dims; the face averaging takes it packed.
    """
    return divergence(apply(face_average_tensors(pack(hfield), grid), gradient(u, grid)), grid)


class TestGridSpec:
    def test_validation(self):
        with pytest.raises(ParameterError):
            GridSpec(dims=(1, 4))
        with pytest.raises(ParameterError):
            GridSpec(dims=(4,), channels=0)

    @pytest.mark.parametrize("dims, channels", [((4.7, 4), 1), ((4, 4.0), 1), ((4, 4), 1.5)])
    def test_non_integral_sizes_rejected(self, dims, channels):
        # Truncated, they would give a grid nobody asked for.
        with pytest.raises(ParameterError, match="must be an integer"):
            GridSpec(dims=dims, channels=channels)

    def test_numpy_integers_accepted(self):
        g = GridSpec(dims=(np.int64(5), 3), channels=np.int32(2))
        assert g.dims == (5, 3) and g.channels == 2
        assert all(type(n) is int for n in g.dims + (g.channels,))

    def test_from_field(self, rng):
        u = rng.standard_normal((5, 7, 3))
        g = GridSpec.from_field(u)
        assert g.dims == (5, 7) and g.channels == 3


class TestGradient:
    def test_constant_is_zero(self):
        grid = GridSpec(dims=(6, 5), channels=2)
        u = np.full(grid.field_shape(), 2.5)
        np.testing.assert_array_equal(gradient(u, grid), 0.0)

    def test_1d_ramp(self):
        grid = GridSpec(dims=(5,), channels=1)
        u = np.arange(5, dtype=float)[:, None]
        g = gradient(u, grid)
        np.testing.assert_array_equal(g[0, 0, :4], 1.0)
        assert g[0, 0, 4] == 0.0  # boundary slot carries no face

    def test_linearity_scaling(self, rng):
        grid = GridSpec(dims=(8, 8), channels=3)
        u = rng.standard_normal(grid.field_shape())
        np.testing.assert_allclose(gradient(3.0 * u, grid), 3.0 * gradient(u, grid), rtol=1e-12)

    def test_shape_mismatch(self):
        grid = GridSpec(dims=(4, 4), channels=1)
        with pytest.raises(DimensionError):
            gradient(np.zeros((4, 4, 2)), grid)

    def test_anisotropic_spacing_exact(self, rng):
        grid = GridSpec(dims=(5, 7), channels=2)
        u = rng.standard_normal(grid.field_shape())
        g = gradient(u, grid)
        np.testing.assert_array_equal(g[:, 0, :-1], np.moveaxis(u[1:] - u[:-1], -1, 0))
        np.testing.assert_array_equal(g[:, 1, :, :-1], np.moveaxis(u[:, 1:] - u[:, :-1], -1, 0))
        np.testing.assert_array_equal(g[:, 0, -1], 0.0)
        np.testing.assert_array_equal(g[:, 1, :, -1], 0.0)


class TestDivergence:
    def test_zero(self):
        grid = GridSpec(dims=(4, 4), channels=2)
        j = np.zeros((2, 2) + grid.dims)
        np.testing.assert_array_equal(divergence(j, grid), 0.0)

    def test_adjointness_random(self, rng):
        grid = GridSpec(dims=(16, 16), channels=3)
        for _ in range(10):
            u = rng.standard_normal(grid.field_shape())
            j = rng.standard_normal((3, 2) + grid.dims)
            pairing_grad = inner(gradient(u, grid), j)
            pairing_div = inner(u, divergence(j, grid))
            scale = max(abs(pairing_grad), abs(pairing_div), 1.0)
            assert abs(pairing_grad + pairing_div) <= 1e-12 * scale

    def test_total_divergence_vanishes(self, rng):
        for dims in ((7,), (5, 6), (4, 3, 5)):
            grid = GridSpec(dims=dims, channels=2)
            j = rng.standard_normal((2, len(dims)) + dims)
            total = divergence(j, grid).reshape(-1, 2).sum(axis=0)
            np.testing.assert_allclose(total, 0.0, atol=1e-12)


class TestDiffusionApply:
    def test_identity_tensor_is_laplacian(self, rng):
        grid = GridSpec(dims=(8, 8), channels=3)
        hfield = np.broadcast_to(np.eye(6)[..., None, None], (6, 6) + grid.dims).copy()
        u = rng.standard_normal(grid.field_shape())
        lap = divergence(gradient(u, grid), grid)
        np.testing.assert_allclose(diffusion_apply(hfield, u, grid), lap, atol=1e-12)

    def test_constant_field_maps_to_zero(self):
        grid = GridSpec(dims=(5, 5), channels=2)
        hfield = np.broadcast_to(np.eye(4)[..., None, None], (4, 4) + grid.dims).copy()
        u = np.full(grid.field_shape(), 1.3)
        np.testing.assert_allclose(diffusion_apply(hfield, u, grid), 0.0, atol=1e-13)

    def test_two_cell_hand_example(self):
        grid = GridSpec(dims=(2,), channels=1)
        hfield = np.stack([np.eye(1), np.eye(1)], axis=-1)
        u = np.array([[1.0], [-1.0]])
        np.testing.assert_array_equal(diffusion_apply(hfield, u, grid), [[-2.0], [2.0]])

    def test_mass_conservation(self, rng):
        grid = GridSpec(dims=(9, 11), channels=3)
        hfield = random_psd_field(rng, grid.dims, 6, floor=0.05)
        u = rng.standard_normal(grid.field_shape())
        total = diffusion_apply(hfield, u, grid).reshape(-1, 3).sum(axis=0)
        scale = float(np.max(np.abs(u)))
        np.testing.assert_allclose(total, 0.0, atol=1e-12 * max(scale, 1.0) * grid.ncells)

    def test_bilinear_form_symmetry(self, rng):
        grid = GridSpec(dims=(8, 7), channels=2)
        hfield = random_psd_field(rng, grid.dims, 4, floor=0.1)
        u = rng.standard_normal(grid.field_shape())
        v = rng.standard_normal(grid.field_shape())
        a_uv = inner(diffusion_apply(hfield, u, grid), v)
        a_vu = inner(u, diffusion_apply(hfield, v, grid))
        assert a_uv == pytest.approx(a_vu, rel=1e-12, abs=1e-12)

    def test_coercivity_with_eigenvalue_floor(self, rng):
        kappa = 0.3
        grid = GridSpec(dims=(8, 8), channels=2)
        hfield = random_psd_field(rng, grid.dims, 4, floor=kappa)
        for _ in range(5):
            u = mean_free(rng.standard_normal(grid.field_shape()), grid)
            g = gradient(u, grid)
            quad = -inner(diffusion_apply(hfield, u, grid), u)
            grad_sq = inner(g, g)
            assert quad >= kappa * grad_sq - 1e-10

    def test_linear_in_u(self, rng):
        grid = GridSpec(dims=(6, 6), channels=2)
        hfield = random_psd_field(rng, grid.dims, 4, floor=0.1)
        u = rng.standard_normal(grid.field_shape())
        v = rng.standard_normal(grid.field_shape())
        lhs = diffusion_apply(hfield, 2.0 * u + v, grid)
        rhs = 2.0 * diffusion_apply(hfield, u, grid) + diffusion_apply(hfield, v, grid)
        np.testing.assert_allclose(lhs, rhs, atol=1e-11)

    def test_face_average_preserves_floor(self, rng):
        grid = GridSpec(dims=(6, 6), channels=2)
        hfield = random_psd_field(rng, grid.dims, 4, floor=0.2)
        havg = face_average_tensors(pack(hfield), grid)
        assert havg.shape == hfield.shape
        assert havg.tobytes() == np.swapaxes(havg, 0, 1).tobytes()
        assert float(np.min(np.linalg.eigvalsh(np.moveaxis(havg, (0, 1), (-2, -1))))) >= 0.2 - 1e-10

    def test_face_average_rejects_other_layouts(self, rng):
        # It takes H packed, (21,) + dims at 6 x 6: a cell-first field,
        # dims + (kd, kd), and a full-square one are other shapes on this grid.
        grid = GridSpec(dims=(8, 8), channels=3)
        full = random_psd_field(rng, grid.dims, 6, floor=0.1)
        cell_first = np.moveaxis(full, (0, 1), (-2, -1)).copy()
        assert cell_first.shape == (8, 8, 6, 6)
        for wrong in (cell_first, full, np.zeros((10, 8, 8)), np.zeros((21, 8, 7))):
            with pytest.raises(DimensionError, match=r"\(21, 8, 8\)"):
                face_average_tensors(wrong, grid)


class TestMeanFree:
    @pytest.mark.parametrize("channels", [1, 2, 3])
    def test_bits_of_numpy_mean(self, channels, rng):
        # numpy's mean divides the same per-channel sum by the cell count.
        for dims in ((2,), (7, 3), (64, 65), (5, 4, 3)):
            grid = GridSpec(dims=dims, channels=channels)
            u = rng.standard_normal(grid.field_shape()) * 10.0 ** rng.integers(-8, 9, grid.field_shape())
            expected = u - u.reshape(-1, channels).mean(axis=0)
            assert mean_free(u, grid).tobytes() == expected.tobytes(), dims


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
            grid = GridSpec(dims=(n,))
            expected = 2.0 * (1.0 - np.cos(np.pi / n))
            assert poincare_estimate(grid) == pytest.approx(expected, abs=1e-8)

    def test_1d_matches_dense_eigensolver(self):
        n = 12
        grid = GridSpec(dims=(n,))
        lap = np.zeros((n, n))
        for i in range(n):
            e = np.zeros((n, 1))
            e[i, 0] = 1.0
            lap[:, i] = -divergence(gradient(e, grid), grid)[:, 0]
        w = np.sort(np.linalg.eigvalsh(lap))
        assert poincare_estimate(grid) == pytest.approx(w[1], abs=1e-8)

    def test_2d_equals_1d(self):
        n = 10
        assert poincare_estimate(GridSpec(dims=(n, n))) == pytest.approx(
            poincare_estimate(GridSpec(dims=(n,))), abs=1e-8
        )
