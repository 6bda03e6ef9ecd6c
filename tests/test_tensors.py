import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relaxdiff.errors import DimensionError, SymmetryError
from relaxdiff.grid import GridSpec, inner
from relaxdiff.response import ResponseParams, response_fs
from relaxdiff.tensors import apply, min_eig_field, require_symmetric

from conftest import random_psd_field, random_symmetric_tensor


def char_poly_eig_bounds(h):
    """Independent spectral oracle: roots of the characteristic polynomial."""
    coeffs = np.poly(h)
    roots = np.roots(coeffs)
    real = np.real(roots)
    return float(np.min(real)), float(np.max(real))


def proj_orth(dhat):
    """Tensor of the orthogonal projection onto the complement of dhat."""
    v = dhat.ravel()
    return np.eye(v.size) - np.outer(v, v) / (v @ v)


def frobenius(a, b):
    """The Frobenius product of two k x d matrices: grid.inner, which the filter sums with."""
    return inner(a, b, GridSpec.from_field(a))


class TestFrobenius:
    def test_identity_pattern_k3_d2(self):
        a = np.zeros((3, 2))
        a[0, 0] = 1.0
        a[1, 1] = 1.0
        assert frobenius(a, a) == 2.0

    def test_zero_annihilates(self, rng):
        a = rng.standard_normal((3, 2))
        assert frobenius(a, np.zeros((3, 2))) == 0.0

    def test_hand_sum(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert frobenius(a, a) == 30.0  # 1 + 4 + 9 + 16

    def test_symmetric_in_arguments(self, rng):
        a = rng.standard_normal((3, 2))
        b = rng.standard_normal((3, 2))
        assert frobenius(a, b) == frobenius(b, a)

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            frobenius(np.zeros((2, 2)), np.zeros((3, 2)))


class TestApply:
    def test_identity(self, rng):
        d = rng.standard_normal((3, 2))
        np.testing.assert_allclose(apply(np.eye(6), d), d, rtol=0, atol=0)

    def test_scaling(self, rng):
        d = rng.standard_normal((2, 2))
        np.testing.assert_allclose(apply(2.0 * np.eye(4), d), 2.0 * d)

    def test_projection_annihilates_direction(self):
        e = np.array([[1.0, 0.0], [0.0, 0.0]])
        np.testing.assert_allclose(apply(proj_orth(e), e), np.zeros((2, 2)), atol=1e-15)

    def test_linear_in_d(self, rng):
        h = random_symmetric_tensor(rng, 6)
        d1 = rng.standard_normal((3, 2))
        d2 = rng.standard_normal((3, 2))
        lhs = apply(h, 2.0 * d1 - 3.0 * d2)
        rhs = 2.0 * apply(h, d1) - 3.0 * apply(h, d2)
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            apply(np.eye(4), np.zeros((3, 2)))


class TestProjectOrth:
    """The projection onto the complement of D, as response_fs returns it above the threshold."""

    P = ResponseParams(s=1e-3)

    def test_own_direction_removed(self):
        dhat = np.array([[1.0, 0.0], [0.0, 0.0]])
        np.testing.assert_allclose(apply(response_fs(dhat, self.P), dhat), 0.0, atol=1e-15)

    def test_orthogonal_input_unchanged(self):
        dhat = np.array([[1.0, 0.0], [0.0, 0.0]])
        d = np.array([[0.0, 1.0], [0.0, 0.0]])
        np.testing.assert_allclose(apply(response_fs(dhat, self.P), d), d, atol=1e-15)

    def test_eigenvalues_2x2(self, rng):
        # One zero eigenvalue along the direction, ones on its complement.
        dhat = rng.standard_normal((2, 2))
        w = np.linalg.eigvalsh(response_fs(dhat, self.P))
        np.testing.assert_allclose(np.sort(w), [0.0, 1.0, 1.0, 1.0], atol=1e-12)

    def test_idempotent(self, rng):
        for _ in range(20):
            dhat = rng.standard_normal((3, 2))
            p = response_fs(dhat, self.P)
            d = rng.standard_normal((3, 2))
            once = apply(p, d)
            np.testing.assert_allclose(apply(p, once), once, atol=1e-12)

    def test_matches_formula(self, rng):
        for _ in range(20):
            dhat = rng.standard_normal((3, 2))
            d = rng.standard_normal((3, 2))
            expected = d - np.vdot(d, dhat) * dhat / np.vdot(dhat, dhat)
            np.testing.assert_allclose(apply(response_fs(dhat, self.P), d), expected, atol=1e-12)

    def test_degenerate_direction(self):
        # Below the threshold the projection's coefficient vanishes with D, so
        # a direction too small to define one gives 3/2 Id, not NaN.
        for scale in (1e-160, 1e-300, 0.0):
            out = response_fs(scale * np.array([[1.0, 0.0], [0.0, 1.0]]), self.P)
            np.testing.assert_allclose(out, 1.5 * np.eye(4), rtol=0, atol=1e-15)


class TestSpectralBounds:
    """The smallest eigenvalue of a single tensor, as the floor check computes it."""

    def test_identity(self):
        assert min_eig_field(np.eye(6)) == pytest.approx(1.0, abs=1e-12)

    def test_scaled_identity(self):
        assert min_eig_field(0.1 * np.eye(6)) == pytest.approx(0.1, abs=1e-12)

    def test_projection(self, rng):
        assert min_eig_field(proj_orth(rng.standard_normal((2, 2)))) == pytest.approx(0.0, abs=1e-10)

    def test_against_characteristic_polynomial(self, rng):
        for n in (2, 4, 6):
            for _ in range(10):
                h = random_symmetric_tensor(rng, n, scale=2.0)
                lo, _ = char_poly_eig_bounds(h)
                assert min_eig_field(h) == pytest.approx(lo, abs=1e-8)

    def test_rejects_asymmetric(self):
        h = np.eye(4)
        h[0, 1] = 1e-3
        with pytest.raises(SymmetryError):
            require_symmetric(h)


class TestIsPsd:
    def test_identity_thresholds(self):
        hfield = np.stack([np.eye(4), 2.0 * np.eye(4)])
        assert min_eig_field(hfield) >= 1.0
        assert not min_eig_field(hfield) >= 1.5

    def test_projection_at_zero(self, rng):
        v = rng.standard_normal((50, 4))
        hfield = np.eye(4) - np.einsum("ci,cj->cij", v, v) / np.einsum("ci,ci->c", v, v)[:, None, None]
        assert min_eig_field(hfield) >= -1e-10


class TestSelfAdjointness:
    def test_frobenius_pairing(self, rng):
        for _ in range(20):
            h = random_symmetric_tensor(rng, 6)
            d = rng.standard_normal((3, 2))
            e = rng.standard_normal((3, 2))
            lhs = np.vdot(apply(h, d), e)
            rhs = np.vdot(d, apply(h, e))
            assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


class TestFieldHelpers:
    def test_apply_field_matches_per_cell(self, rng):
        hfield = rng.standard_normal((4, 5, 6, 6))
        hfield = 0.5 * (hfield + np.swapaxes(hfield, -1, -2))
        dfield = rng.standard_normal((4, 5, 3, 2))
        out = apply(hfield, dfield)
        for i in range(4):
            for j in range(5):
                np.testing.assert_allclose(out[i, j], apply(hfield[i, j], dfield[i, j]), atol=1e-13)

    def test_min_eig_field(self, rng):
        hfield = np.stack([np.eye(4), 0.3 * np.eye(4)])
        assert min_eig_field(hfield) == 0.3


def full_min_eig(hfield):
    """Reference: diagonalise every cell."""
    return float(np.min(np.linalg.eigvalsh(hfield)[..., 0]))


def assert_same_min_eig(hfield):
    try:
        expected = full_min_eig(hfield)
    except np.linalg.LinAlgError:
        with pytest.raises(np.linalg.LinAlgError):
            min_eig_field(hfield)
        return
    got = min_eig_field(hfield)
    assert got == expected or (math.isnan(got) and math.isnan(expected))


@st.composite
def symmetric_fields(draw):
    """Symmetric tensor fields built to stress the certified minimum."""
    n = draw(st.sampled_from([1, 2, 4, 6]))
    count = draw(st.one_of(st.integers(1, 200), st.integers(4000, 9000)))
    kind = draw(st.sampled_from(["random", "psd", "identical", "near_tie", "projection", "hidden"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    eye = np.eye(n)
    if kind == "random":
        m = rng.standard_normal((count, n, n))
        h = 0.5 * (m + np.swapaxes(m, 1, 2))
    elif kind == "psd":
        h = random_psd_field(rng, (count,), n, floor=0.1)
    elif kind == "identical":
        h = np.broadcast_to(random_symmetric_tensor(rng, n), (count, n, n)).copy()
    elif kind == "near_tie":
        # one cell repeated with its diagonal moved by a few ulps per cell
        base = random_symmetric_tensor(rng, n)
        ulps = rng.integers(-4, 5, size=(count, 1))
        h = base + ulps[:, :, None] * np.spacing(np.diagonal(base))[None, None, :] * eye
    elif kind == "projection":
        # I - v v^T / |v|^2 has a zero eigenvalue that eigvalsh returns as
        # +-1e-16, like the catte response; some cells carry a shift
        v = rng.standard_normal((count, n))
        h = eye - np.einsum("ci,cj->cij", v, v) / np.einsum("ci,ci->c", v, v)[:, None, None]
        h += rng.choice([0.0, 0.25], size=count)[:, None, None] * eye
    else:
        # the smallest eigenvalue sits in cells with large diagonal entries,
        # so the sampled bound misses it and the Cholesky filter must find it
        h = np.broadcast_to(0.5 * eye, (count, n, n)).copy()
        if n > 1:
            hidden = rng.choice(count, size=min(count, 3), replace=False)
            h[hidden] = 2.0 * eye
            h[hidden, 0, 1] = h[hidden, 1, 0] = 1.9 + 0.05 * rng.random(hidden.size)
    return h.reshape(draw(st.sampled_from([(count,), (1, count)])) + (n, n))


class TestMinEigFieldExact:
    @settings(max_examples=150, deadline=None)
    @given(symmetric_fields())
    def test_equals_full_diagonalisation(self, hfield):
        assert_same_min_eig(hfield)

    @settings(max_examples=40, deadline=None)
    @given(symmetric_fields(), st.data())
    def test_non_finite_cell(self, hfield, data):
        cells = hfield.reshape((-1,) + hfield.shape[-2:])
        cell = data.draw(st.integers(0, cells.shape[0] - 1))
        i = data.draw(st.integers(0, cells.shape[-1] - 1))
        j = data.draw(st.integers(0, cells.shape[-1] - 1))
        cells[cell, i, j] = data.draw(st.sampled_from([np.nan, np.inf, -np.inf]))
        assert_same_min_eig(hfield)

    def test_single_cell(self, rng):
        h = random_symmetric_tensor(rng, 6)
        assert min_eig_field(h) == float(np.linalg.eigvalsh(h)[0])

    def test_minimum_in_a_later_block(self):
        # 100 cells at 0.5 fill the sample; the 0.1 minimum sits in the
        # second Cholesky block, behind large diagonal entries
        h = np.broadcast_to(np.eye(6), (9000, 6, 6)).copy()
        h[:100] *= 0.5
        h[5000, :2, :2] = [[2.0, 1.9], [1.9, 2.0]]
        assert min_eig_field(h) == full_min_eig(h) == pytest.approx(0.1)

    def test_nan_cell_raises_like_eigvalsh(self):
        h = np.broadcast_to(np.eye(6), (300, 6, 6)).copy()
        h[123, 3, 0] = np.nan
        with pytest.raises(np.linalg.LinAlgError):
            full_min_eig(h)
        with pytest.raises(np.linalg.LinAlgError):
            min_eig_field(h)
