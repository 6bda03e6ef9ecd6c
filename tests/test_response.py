import math

import numpy as np
import pytest

from relaxdiff.errors import ParameterError
from relaxdiff.response import (
    PERONA_MALIK_SCALAR,
    ResponseParams,
    lipschitz_probe,
    response_fs,
    response_pm,
)


def project_orth(d):
    """Tensor of the orthogonal projection onto the complement of d."""
    v = d.ravel()
    return np.eye(v.size) - np.outer(v, v) / (v @ v)


def brute_force_fs(d, s, omega=0.0):
    """Direct evaluation of the two-branch formula, projection built per cell."""
    n = d.size
    dd = float(np.dot(d.ravel(), d.ravel()))
    if dd >= s * s:
        out = project_orth(d)
    else:
        q = dd / (s * s)
        proj = np.zeros((n, n)) if dd == 0.0 else project_orth(d)
        out = 1.5 * (1.0 - q) * np.eye(n) + q * proj
    return out + omega * np.eye(n)


class TestResponseFs:
    def test_zero_gradient_gives_three_halves_identity(self):
        p = ResponseParams(s=1.0)
        out = response_fs(np.zeros((3, 2)), p)
        np.testing.assert_array_equal(out, 1.5 * np.eye(6))

    def test_threshold_continuity_both_branches(self, rng):
        s = 0.7
        p = ResponseParams(s=s)
        d = rng.standard_normal((2, 2))
        d *= s / np.linalg.norm(d)  # exactly on the threshold up to rounding
        smooth = brute_force_fs(d * (1 - 1e-14), s)
        proj = project_orth(d)
        np.testing.assert_allclose(response_fs(d, p), proj, atol=1e-12)
        np.testing.assert_allclose(smooth, proj, atol=1e-12)

    def test_projection_branch_min_eig_zero(self):
        s = 0.3
        p = ResponseParams(s=s)
        d = np.array([[2 * s, 0.0], [0.0, 0.0]])
        out = response_fs(d, p)
        assert np.linalg.eigvalsh(out)[0] == pytest.approx(0.0, abs=1e-12)
        np.testing.assert_allclose(out, project_orth(d), atol=1e-14)

    def test_matches_brute_force(self, rng):
        p = ResponseParams(s=0.5)
        for _ in range(50):
            d = 0.8 * rng.standard_normal((3, 2))
            np.testing.assert_allclose(
                response_fs(d, p), brute_force_fs(d, 0.5), atol=1e-12
            )

    def test_symmetry(self, rng):
        p = ResponseParams(s=0.2)
        for _ in range(50):
            out = response_fs(rng.standard_normal((3, 2)), p)
            np.testing.assert_allclose(out, out.T, atol=1e-14)

    def test_psd_over_random_inputs(self, rng):
        p = ResponseParams(s=0.4)
        for scale in (0.01, 0.3, 1.0, 30.0):
            for _ in range(50):
                out = response_fs(scale * rng.standard_normal((3, 2)), p)
                assert np.linalg.eigvalsh(out)[0] >= -1e-10

    def test_min_eig_at_least_omega(self, rng):
        p = ResponseParams(s=0.4, omega=0.25)
        for scale in (0.0, 0.2, 5.0):
            d = scale * rng.standard_normal((3, 2))
            assert np.linalg.eigvalsh(response_fs(d, p))[0] >= 0.25 - 1e-10

    def test_continuity_linear_in_eps(self, rng):
        s = 0.6
        p = ResponseParams(s=s)
        d = rng.standard_normal((3, 2))
        d *= s / np.linalg.norm(d)
        # Jump across the threshold shrinks linearly: bound constant from the
        # formula, |F(D(1-eps)) - F(D(1+eps))| <= ~2 eps |3/2 Id - P| + O(eps^2).
        bound = 2.2 * np.linalg.norm(1.5 * np.eye(6) - project_orth(d))
        for eps in (1e-3, 1e-5, 1e-7):
            gap = np.linalg.norm(response_fs(d * (1 - eps), p) - response_fs(d * (1 + eps), p))
            assert gap <= bound * eps

    def test_shift_law(self, rng):
        s = 0.4
        d = rng.standard_normal((3, 2))
        base = response_fs(d, ResponseParams(s=s))
        shifted = response_fs(d, ResponseParams(s=s, omega=0.7))
        np.testing.assert_array_equal(shifted, base + 0.7 * np.eye(6))

    def test_operator_norm_bounded(self, rng):
        for omega in (0.0, 0.5):
            p = ResponseParams(s=0.3, omega=omega)
            for scale in (0.05, 0.5, 3.0):
                for _ in range(30):
                    d = scale * rng.standard_normal((3, 2))
                    lam_max = np.linalg.eigvalsh(response_fs(d, p))[-1]
                    assert lam_max <= 1.5 + omega + 1.0

    def test_wrong_kind_rejected(self):
        p = ResponseParams(kind=PERONA_MALIK_SCALAR, lam=1.0)
        with pytest.raises(ParameterError):
            response_fs(np.zeros((2, 2)), p)


class TestResponseFsField:
    def test_matches_single_cell(self, rng):
        p = ResponseParams(s=0.3, omega=0.1)
        dfield = 0.5 * rng.standard_normal((5, 4, 3, 2))
        out = response_fs(dfield, p)
        for i in range(5):
            for j in range(4):
                np.testing.assert_allclose(out[i, j], response_fs(dfield[i, j], p), atol=1e-13)

    def test_zero_field_exact(self):
        p = ResponseParams(s=0.1)
        out = response_fs(np.zeros((3, 3, 2, 2)), p)
        np.testing.assert_array_equal(out, np.broadcast_to(1.5 * np.eye(4), (3, 3, 4, 4)))

    def test_same_bits_as_two_branch_form(self, rng):
        # Each branch evaluated on the whole field, then selected per cell.
        # Bytes are compared, so a -0.0 where the branches give +0.0 fails.
        dfield = 0.06 * rng.standard_normal((6, 5, 3, 2))
        dfield[0] = 0.0
        v = dfield.reshape(6, 5, 6)
        nrm2 = np.einsum("...a,...a->...", v, v)
        outer = np.einsum("...a,...b->...ab", v, v)
        for s, omega in ((0.1, 0.0), (0.2, 0.05)):
            smooth = (1.5 - 0.5 * (nrm2 / (s * s)))[..., None, None] * np.eye(6) - outer / (s * s)
            with np.errstate(invalid="ignore", divide="ignore"):
                proj = np.eye(6) - outer / nrm2[..., None, None]
            ref = np.where((nrm2 >= s * s)[..., None, None], proj, smooth)
            if omega > 0.0:
                ref += omega * np.eye(6)
            assert response_fs(dfield, ResponseParams(s=s, omega=omega)).tobytes() == ref.tobytes()


class TestResponsePm:
    def test_zero_gives_identity(self):
        p = ResponseParams(kind=PERONA_MALIK_SCALAR, lam=2.0)
        np.testing.assert_array_equal(response_pm(np.zeros((3, 2)), p), np.eye(6))

    def test_half_at_lambda(self):
        lam = 1.7
        p = ResponseParams(kind=PERONA_MALIK_SCALAR, lam=lam)
        d = np.zeros((2, 2))
        d[0, 0] = lam
        np.testing.assert_allclose(response_pm(d, p), 0.5 * np.eye(4), atol=1e-14)

    def test_monotone_decay_to_zero(self):
        p = ResponseParams(kind=PERONA_MALIK_SCALAR, lam=1.0)
        prev = np.inf
        for scale in (0.1, 1.0, 10.0, 1e4, 1e8):
            d = np.full((2, 2), scale)
            lam_min = np.linalg.eigvalsh(response_pm(d, p))[0]
            assert lam_min < prev
            prev = lam_min
        assert prev < 1e-7


class TestLipschitzProbe:
    def test_near_constant_response(self):
        p = ResponseParams(kind=PERONA_MALIK_SCALAR, lam=1e12)
        c = lipschitz_probe(p, trials=200, radius=1.0, seed=1)
        assert c == pytest.approx(0.0, abs=1e-10)

    def test_deterministic(self):
        p = ResponseParams(s=1.0)
        a = lipschitz_probe(p, trials=300, radius=0.5, seed=42)
        b = lipschitz_probe(p, trials=300, radius=0.5, seed=42)
        assert a == b

    def test_within_finite_difference_bound(self, rng):
        # Inside the smooth branch the response is a quadratic polynomial in D;
        # bound its derivative by central finite differences along random
        # directions at random base points, then compare the probe against the
        # largest observed directional slope (plus slack for pair placement).
        s = 1.0
        p = ResponseParams(s=s)
        radius = 0.1
        probe = lipschitz_probe(p, trials=500, radius=radius, seed=3, shape=(2, 2))
        assert np.isfinite(probe) and probe > 0.0

        worst_slope = 0.0
        eps = 1e-6
        for _ in range(400):
            base = rng.standard_normal((2, 2))
            base *= radius * rng.uniform() / np.linalg.norm(base)
            direction = rng.standard_normal((2, 2))
            direction /= np.linalg.norm(direction)
            fp = response_fs(base + eps * direction, p)
            fm = response_fs(base - eps * direction, p)
            worst_slope = max(worst_slope, np.linalg.norm(fp - fm) / (2 * eps))
        # Analytic maximum over the ball exceeds any sampled slope; the probe
        # must not exceed the ball's true bound, estimated with 20% headroom.
        assert probe <= 1.2 * max(worst_slope, 1e-30) + 1e-12

    def test_validates_arguments(self):
        with pytest.raises(ParameterError):
            lipschitz_probe(ResponseParams(), trials=0, radius=1.0)
        with pytest.raises(ParameterError):
            lipschitz_probe(ResponseParams(), trials=5, radius=0.0)


class TestResponseParamsValidation:
    def test_bad_values(self):
        with pytest.raises(ParameterError):
            ResponseParams(s=0.0)
        with pytest.raises(ParameterError):
            ResponseParams(omega=-1.0)
        with pytest.raises(ParameterError):
            ResponseParams(kind="nope")
        with pytest.raises(ParameterError):
            ResponseParams(kind=PERONA_MALIK_SCALAR, lam=0.0)

    @pytest.mark.parametrize("name", ["s", "omega", "lam"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_rejected(self, name, value):
        with pytest.raises(ParameterError):
            ResponseParams(**{name: value})
