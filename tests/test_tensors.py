import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relaxdiff.errors import DimensionError
from relaxdiff.grid import inner
from relaxdiff.response import ResponseParams, response_field
from relaxdiff.tensors import (
    MIN_EIG_BLOCK,
    _cholesky_breaks_down,
    apply,
    min_eig_below,
    min_eig_field,
    pack,
    pack_index,
    unpack,
)

from conftest import apply_in_order, random_psd_field, random_symmetric_tensor

# A k x d gradient shape for each tensor size kd = k d the order test covers.
KD_SHAPES = {1: (1, 1), 2: (1, 2), 3: (3, 1), 4: (2, 2), 6: (3, 2), 8: (4, 2), 9: (3, 3)}


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
    return inner(a, b)


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

    @pytest.mark.parametrize("dims", [(), (1,), (2, 5), (7, 3), (3, 4, 5)])
    @pytest.mark.parametrize("kd", sorted(KD_SHAPES))
    def test_sums_in_the_spelled_out_order(self, kd, dims, rng):
        k, d = KD_SHAPES[kd]
        if math.prod(dims) == 1:
            # One cell: einsum unrolls the sum, as apply's docstring says, so
            # the reference is numpy's own one-cell einsum. Entries of one
            # scale, drawn non-zero: 20 draws, of which most round differently
            # in index order for kd >= 3.
            for _ in range(20):
                h = rng.standard_normal((kd, kd) + dims)
                g = rng.standard_normal((k, d) + dims)
                expected = np.einsum("abn,bn->an", h.reshape(kd, kd, 1), g.reshape(kd, 1)).reshape(g.shape)
                assert apply(h, g).tobytes() == expected.tobytes()
            return
        # Magnitudes from 1e-6 to 1e6, so that any other order rounds differently.
        h = rng.standard_normal((kd, kd) + dims) * 10.0 ** rng.integers(-6, 7, (kd, kd) + dims)
        g = rng.standard_normal((k, d) + dims) * 10.0 ** rng.integers(-6, 7, (k, d) + dims)
        # Signed zeros: the first cell's products are all zeros of both signs,
        # and the last cell's first row is -0.0.
        g.reshape(kd, -1)[:, 0] = -0.0
        h.reshape(kd, kd, -1)[0, :, -1] = -0.0
        got = apply(h, g)
        assert got.shape == g.shape
        assert got.tobytes() == apply_in_order(h, g).tobytes()


class TestProjectOrth:
    """The projection onto the complement of D, as response_field returns it above the threshold."""

    P = ResponseParams(s=1e-3)

    def response(self, dhat):
        return unpack(response_field(dhat, self.P))

    def test_own_direction_removed(self):
        dhat = np.array([[1.0, 0.0], [0.0, 0.0]])
        np.testing.assert_allclose(apply(self.response(dhat), dhat), 0.0, atol=1e-15)

    def test_orthogonal_input_unchanged(self):
        dhat = np.array([[1.0, 0.0], [0.0, 0.0]])
        d = np.array([[0.0, 1.0], [0.0, 0.0]])
        np.testing.assert_allclose(apply(self.response(dhat), d), d, atol=1e-15)

    def test_eigenvalues_2x2(self, rng):
        # One zero eigenvalue along the direction, ones on its complement.
        dhat = rng.standard_normal((2, 2))
        w = np.linalg.eigvalsh(self.response(dhat))
        np.testing.assert_allclose(np.sort(w), [0.0, 1.0, 1.0, 1.0], atol=1e-12)

    def test_idempotent(self, rng):
        for _ in range(20):
            dhat = rng.standard_normal((3, 2))
            p = self.response(dhat)
            d = rng.standard_normal((3, 2))
            once = apply(p, d)
            np.testing.assert_allclose(apply(p, once), once, atol=1e-12)

    def test_matches_formula(self, rng):
        for _ in range(20):
            dhat = rng.standard_normal((3, 2))
            d = rng.standard_normal((3, 2))
            expected = d - np.vdot(d, dhat) * dhat / np.vdot(dhat, dhat)
            np.testing.assert_allclose(apply(self.response(dhat), d), expected, atol=1e-12)

    def test_degenerate_direction(self):
        # Below the threshold the projection's coefficient vanishes with D, so
        # a direction too small to define one gives 3/2 Id, not NaN.
        for scale in (1e-160, 1e-300, 0.0):
            out = self.response(scale * np.array([[1.0, 0.0], [0.0, 1.0]]))
            np.testing.assert_allclose(out, 1.5 * np.eye(4), rtol=0, atol=1e-15)


class TestPacking:
    def test_index_runs_along_the_upper_triangle(self):
        np.testing.assert_array_equal(pack_index(3), [[0, 1, 2], [1, 3, 4], [2, 4, 5]])
        assert not pack_index(3).flags.writeable  # one array serves every caller
        for n in (1, 2, 6, 9):
            index = pack_index(n)
            np.testing.assert_array_equal(index, index.T)
            np.testing.assert_array_equal(index[np.triu_indices(n)], np.arange(n * (n + 1) // 2))

    def test_pack_keeps_the_lower_triangle(self, rng):
        h = rng.standard_normal((6, 6, 4, 3))  # not symmetric: the upper triangle must go unread
        planes = pack(h)
        assert planes.shape == (21, 4, 3)
        full = unpack(planes)
        assert full.shape == h.shape
        lower = np.tril_indices(6)
        assert full[lower].tobytes() == h[lower].tobytes()
        assert full.tobytes() == np.swapaxes(full, 0, 1).tobytes()
        assert pack(full).tobytes() == planes.tobytes()

    def test_shapes_rejected(self):
        with pytest.raises(DimensionError):
            pack(np.zeros((3, 4, 5)))
        with pytest.raises(DimensionError):
            pack(np.zeros(3))
        for planes in (2, 4, 20):
            with pytest.raises(DimensionError):
                unpack(np.zeros((planes, 5)))
            with pytest.raises(DimensionError):
                min_eig_field(np.zeros((planes, 5)))


class TestSpectralBounds:
    """The smallest eigenvalue of a single tensor, as the floor check computes it."""

    def test_identity(self):
        assert min_eig_field(pack(np.eye(6)))[0] == pytest.approx(1.0, abs=1e-12)

    def test_scaled_identity(self):
        assert min_eig_field(pack(0.1 * np.eye(6)))[0] == pytest.approx(0.1, abs=1e-12)

    def test_projection(self, rng):
        assert min_eig_field(pack(proj_orth(rng.standard_normal((2, 2)))))[0] == pytest.approx(0.0, abs=1e-10)

    def test_against_characteristic_polynomial(self, rng):
        for n in (2, 4, 6):
            for _ in range(10):
                h = random_symmetric_tensor(rng, n, scale=2.0)
                lo, _ = char_poly_eig_bounds(h)
                assert min_eig_field(pack(h))[0] == pytest.approx(lo, abs=1e-8)


class TestIsPsd:
    def test_identity_thresholds(self):
        hfield = np.stack([np.eye(4), 2.0 * np.eye(4)], axis=-1)
        assert min_eig_field(pack(hfield))[0] >= 1.0
        assert not min_eig_field(pack(hfield))[0] >= 1.5

    def test_projection_at_zero(self, rng):
        v = rng.standard_normal((50, 4))
        hfield = np.eye(4)[..., None] - np.einsum("ci,cj->ijc", v, v) / np.einsum("ci,ci->c", v, v)
        assert min_eig_field(pack(hfield))[0] >= -1e-10


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
        hfield = rng.standard_normal((6, 6, 4, 5))
        hfield = 0.5 * (hfield + np.swapaxes(hfield, 0, 1))
        dfield = rng.standard_normal((3, 2, 4, 5))
        out = apply(hfield, dfield)
        for i in range(4):
            for j in range(5):
                np.testing.assert_allclose(out[..., i, j], apply(hfield[..., i, j], dfield[..., i, j]), atol=1e-13)

    def test_min_eig_field(self, rng):
        hfield = np.stack([np.eye(4), 0.3 * np.eye(4)], axis=-1)
        assert min_eig_field(pack(hfield)) == (0.3, 1)


def full_min_eig(hfield):
    """Reference: diagonalise every cell of a (n, n) + dims field."""
    return float(np.min(np.linalg.eigvalsh(np.moveaxis(hfield, (0, 1), (-2, -1)))[..., 0]))


def assert_same_min_eig(hfield):
    """min_eig_field's minimum and cell equal a full diagonalisation's min and first argmin in C order."""
    try:
        mins = np.linalg.eigvalsh(np.moveaxis(hfield, (0, 1), (-2, -1)))[..., 0].ravel()
    except np.linalg.LinAlgError:
        with pytest.raises(np.linalg.LinAlgError):
            min_eig_field(pack(hfield))
        return
    expected, expected_cell = float(np.min(mins)), int(np.argmin(mins))
    got, cell = min_eig_field(pack(hfield))
    assert got == expected or (math.isnan(got) and math.isnan(expected))
    assert cell == expected_cell and type(cell) is int


@st.composite
def symmetric_fields(draw):
    """Symmetric tensor fields built to stress the certified minimum, (n, n) + dims.

    Each is drawn as a stack of cells, (count, n, n), and laid out
    component-first at the end.
    """
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
    return np.moveaxis(h, 0, -1).reshape((n, n) + draw(st.sampled_from([(count,), (1, count)]))).copy()


class TestMinEigFieldExact:
    @settings(max_examples=150, deadline=None)
    @given(symmetric_fields())
    def test_equals_full_diagonalisation(self, hfield):
        assert_same_min_eig(hfield)

    @settings(max_examples=100, deadline=None)
    @given(symmetric_fields(), st.data())
    def test_below_a_bound(self, hfield, data):
        # The minimum and its first cell when the minimum is at most the
        # bound, else None: bounds on it, an ulp to either side and away.
        mins = np.linalg.eigvalsh(np.moveaxis(hfield, (0, 1), (-2, -1)))[..., 0].ravel()
        low = float(np.min(mins))
        bound = data.draw(st.sampled_from([
            low, np.nextafter(low, -np.inf), np.nextafter(low, np.inf), low - 1e-3, low + 1e-3, low + 1.0,
        ]))
        got = min_eig_below(pack(hfield), bound)
        if low <= bound:
            assert got == (low, int(np.argmin(mins)))
        else:
            assert got is None

    @settings(max_examples=40, deadline=None)
    @given(symmetric_fields(), st.data())
    def test_non_finite_cell(self, hfield, data):
        cells = hfield.reshape(hfield.shape[:2] + (-1,))
        cell = data.draw(st.integers(0, cells.shape[-1] - 1))
        i = data.draw(st.integers(0, cells.shape[0] - 1))
        j = data.draw(st.integers(0, cells.shape[0] - 1))
        cells[i, j, cell] = data.draw(st.sampled_from([np.nan, np.inf, -np.inf]))
        assert_same_min_eig(hfield)

    def test_single_cell(self, rng):
        h = random_symmetric_tensor(rng, 6)
        assert min_eig_field(pack(h))[0] == float(np.linalg.eigvalsh(h)[0])

    def test_minimum_in_a_later_block(self):
        # 100 cells at 0.5 fill the sample; the 0.1 minimum sits in the
        # second Cholesky block, behind large diagonal entries
        h = np.broadcast_to(np.eye(6)[..., None], (6, 6, 9000)).copy()
        h[..., :100] *= 0.5
        h[:2, :2, 5000] = [[2.0, 1.9], [1.9, 2.0]]
        got, cell = min_eig_field(pack(h))
        assert got == full_min_eig(h) == pytest.approx(0.1)
        assert cell == 5000

    def test_first_of_tied_cells(self):
        # the same hidden minimum in three cells of two blocks, none of
        # them sampled: the cell is the first in C order, as np.argmin's
        h = np.broadcast_to(np.eye(6)[..., None, None], (6, 6, 90, 100)).copy()
        h[..., :1, :] *= 0.5
        for cell in ((70, 3), (12, 7), (41, 99)):
            h[(slice(0, 2), slice(0, 2)) + cell] = [[2.0, 1.9], [1.9, 2.0]]
        assert min_eig_field(pack(h)) == (full_min_eig(h), 12 * 100 + 7)

    def test_nan_cell_raises_like_eigvalsh(self):
        h = np.broadcast_to(np.eye(6)[..., None], (6, 6, 300)).copy()
        h[3, 0, 123] = np.nan
        with pytest.raises(np.linalg.LinAlgError):
            full_min_eig(h)
        with pytest.raises(np.linalg.LinAlgError):
            min_eig_field(pack(h))


def full_square_breaks_down(block, shift):
    """Reference: the same factorisation of an (n, n, m) block updating the whole trailing square at each pivot."""
    n = block.shape[0]
    a = block.copy()
    diag = np.arange(n)
    a[diag, diag] -= shift
    completes = np.ones(block.shape[-1], dtype=bool)
    for j in range(n):
        completes &= a[j, j] > 0.0
        col = a[j + 1:, j] / np.sqrt(a[j, j])
        a[j + 1:, j + 1:] -= col[:, None] * col[None, :]
    return ~completes


class TestCholeskyBreaksDown:
    @settings(max_examples=80, deadline=None)
    @given(symmetric_fields(), st.data())
    def test_masks_equal_the_full_square_update(self, hfield, data):
        n = hfield.shape[0]
        block = hfield.reshape(n, n, -1)[:, :, :MIN_EIG_BLOCK].copy()
        # the smallest eigenvalue of a few cells, as min_eig_field shifts by:
        # tied cells sit exactly on the breakdown boundary
        c = float(np.min(np.linalg.eigvalsh(np.moveaxis(block[:, :, :64], -1, 0))[:, 0]))
        if data.draw(st.booleans()):
            cell = data.draw(st.integers(0, block.shape[-1] - 1))
            i, j = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
            block[i, j, cell] = block[j, i, cell] = np.nan
        for shift in (c, 0.1, 0.5, np.nan):
            with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
                got = _cholesky_breaks_down(pack(block), shift)
                want = full_square_breaks_down(block, shift)
            assert np.array_equal(got, want), shift
