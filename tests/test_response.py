import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relaxdiff.errors import ParameterError
from relaxdiff.response import (
    PERONA_MALIK_SCALAR,
    ResponseParams,
    lipschitz_bound,
    response_field,
    response_min_eig,
)
from relaxdiff.tensors import min_eig_field, pack, unpack

from conftest import frobenius_sq_in_order


def field(d, p):
    """response_field unpacked to the full square, (kd, kd) + dims."""
    return unpack(response_field(d, p))


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
        out = field(np.zeros((3, 2)), p)
        np.testing.assert_array_equal(out, 1.5 * np.eye(6))

    def test_threshold_continuity_both_branches(self, rng):
        s = 0.7
        p = ResponseParams(s=s)
        d = rng.standard_normal((2, 2))
        d *= s / np.linalg.norm(d)  # exactly on the threshold up to rounding
        smooth = brute_force_fs(d * (1 - 1e-14), s)
        proj = project_orth(d)
        np.testing.assert_allclose(field(d, p), proj, atol=1e-12)
        np.testing.assert_allclose(smooth, proj, atol=1e-12)

    def test_projection_branch_min_eig_zero(self):
        s = 0.3
        p = ResponseParams(s=s)
        d = np.array([[2 * s, 0.0], [0.0, 0.0]])
        out = field(d, p)
        assert np.linalg.eigvalsh(out)[0] == pytest.approx(0.0, abs=1e-12)
        np.testing.assert_allclose(out, project_orth(d), atol=1e-14)

    def test_matches_brute_force(self, rng):
        p = ResponseParams(s=0.5)
        for _ in range(50):
            d = 0.8 * rng.standard_normal((3, 2))
            np.testing.assert_allclose(
                field(d, p), brute_force_fs(d, 0.5), atol=1e-12
            )

    def test_symmetry(self, rng):
        # Symmetric by storage: one plane per entry pair (21 for 6 x 6),
        # holding the formula's upper triangle.
        p = ResponseParams(s=0.2)
        for _ in range(50):
            d = rng.standard_normal((3, 2))
            out = response_field(d, p)
            assert out.shape == (21,)
            np.testing.assert_allclose(out, pack(brute_force_fs(d, 0.2)), atol=1e-14)
        assert response_field(rng.standard_normal((3, 2, 5, 4)), p).shape == (21, 5, 4)
        assert response_field(rng.standard_normal((1, 2, 7)), RESPONSES[1]).shape == (3, 7)

    def test_psd_over_random_inputs(self, rng):
        p = ResponseParams(s=0.4)
        for scale in (0.01, 0.3, 1.0, 30.0):
            for _ in range(50):
                out = field(scale * rng.standard_normal((3, 2)), p)
                assert np.linalg.eigvalsh(out)[0] >= -1e-10

    def test_min_eig_at_least_omega(self, rng):
        p = ResponseParams(s=0.4, omega=0.25)
        for scale in (0.0, 0.2, 5.0):
            d = scale * rng.standard_normal((3, 2))
            assert np.linalg.eigvalsh(field(d, p))[0] >= 0.25 - 1e-10

    def test_continuity_linear_in_eps(self, rng):
        s = 0.6
        p = ResponseParams(s=s)
        d = rng.standard_normal((3, 2))
        d *= s / np.linalg.norm(d)
        # Jump across the threshold shrinks linearly: bound constant from the
        # formula, |F(D(1-eps)) - F(D(1+eps))| <= ~2 eps |3/2 Id - P| + O(eps^2).
        bound = 2.2 * np.linalg.norm(1.5 * np.eye(6) - project_orth(d))
        for eps in (1e-3, 1e-5, 1e-7):
            gap = np.linalg.norm(field(d * (1 - eps), p) - field(d * (1 + eps), p))
            assert gap <= bound * eps

    def test_shift_law(self, rng):
        s = 0.4
        d = rng.standard_normal((3, 2))
        base = field(d, ResponseParams(s=s))
        shifted = field(d, ResponseParams(s=s, omega=0.7))
        np.testing.assert_array_equal(shifted, base + 0.7 * np.eye(6))

    def test_huge_gradient_warns_nothing(self, rng):
        # D:D about 1e307 at s = 0.1: D:D/s^2 would overflow, and is formed
        # only below the threshold.
        d = rng.standard_normal((3, 2))
        d *= math.sqrt(1e307) / np.linalg.norm(d)
        p = ResponseParams(s=0.1, omega=0.25)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = field(d, p)
            min_eig = response_min_eig(d, p)
        np.testing.assert_allclose(out, project_orth(d) + 0.25 * np.eye(6), atol=1e-14)
        assert min_eig == 0.25

    def test_operator_norm_bounded(self, rng):
        for omega in (0.0, 0.5):
            p = ResponseParams(s=0.3, omega=omega)
            for scale in (0.05, 0.5, 3.0):
                for _ in range(30):
                    d = scale * rng.standard_normal((3, 2))
                    lam_max = np.linalg.eigvalsh(field(d, p))[-1]
                    assert lam_max <= 1.5 + omega + 1.0


class TestResponseFsField:
    def test_matches_single_cell(self, rng):
        p = ResponseParams(s=0.3, omega=0.1)
        dfield = 0.5 * rng.standard_normal((3, 2, 5, 4))
        out = field(dfield, p)
        for i in range(5):
            for j in range(4):
                np.testing.assert_allclose(out[..., i, j], field(dfield[..., i, j], p), atol=1e-13)

    def test_zero_field_exact(self):
        p = ResponseParams(s=0.1)
        out = field(np.zeros((2, 2, 3, 3)), p)
        np.testing.assert_array_equal(out, np.broadcast_to((1.5 * np.eye(4))[..., None, None], (4, 4, 3, 3)))

    def test_same_bits_as_two_branch_form(self, rng):
        # Each branch evaluated on the whole field, then selected per cell.
        # Bytes are compared, so a -0.0 where the branches give +0.0 fails.
        dfield = 0.06 * rng.standard_normal((3, 2, 6, 5))
        dfield[:, :, 0] = 0.0
        v = np.moveaxis(dfield.reshape(6, 6, 5), 0, -1)  # cell-first
        nrm2 = frobenius_sq_in_order(dfield)
        outer = np.einsum("...a,...b->...ab", v, v)
        for s, omega in ((0.1, 0.0), (0.2, 0.05)):
            smooth = (1.5 - 0.5 * (nrm2 / (s * s)))[..., None, None] * np.eye(6) - outer / (s * s)
            with np.errstate(invalid="ignore", divide="ignore"):
                proj = np.eye(6) - outer / nrm2[..., None, None]
            ref = np.where((nrm2 >= s * s)[..., None, None], proj, smooth)
            if omega > 0.0:
                ref += omega * np.eye(6)
            got = field(dfield, ResponseParams(s=s, omega=omega))
            assert got.tobytes() == np.moveaxis(ref, (-2, -1), (0, 1)).tobytes()


# A k x d gradient shape for each tensor size kd = k d the order test covers.
KD_SHAPES = {1: (1, 1), 2: (1, 2), 3: (3, 1), 4: (2, 2), 6: (3, 2), 8: (4, 2), 9: (3, 3)}


def fs_from(g, nrm2, s, omega):
    """The thresholded-projection response from a given D:D, one entry plane at a time with plain ufuncs."""
    kd = g.shape[0] * g.shape[1]
    v = g.reshape((kd,) + g.shape[2:])
    s2 = s * s
    above = nrm2 >= s2
    a = np.where(above, 1.0, 1.5 - 0.5 * (nrm2 / s2))
    c = np.where(above, nrm2, s2)
    out = np.empty((kd, kd) + g.shape[2:])
    for i in range(kd):
        for j in range(kd):
            x = np.divide(np.multiply(v[i], v[j]), c)
            out[i, j] = np.subtract(a, x) if i == j else np.subtract(0.0, x)
            if omega > 0.0:
                out[i, j] = np.add(out[i, j], omega if i == j else 0.0)
    return out


def pm_from(g, nrm2, lam, omega):
    """The Perona-Malik response from a given D:D."""
    kd = g.shape[0] * g.shape[1]
    scalar = 1.0 / (1.0 + np.sqrt(nrm2) / lam) + omega
    out = np.empty((kd, kd) + g.shape[2:])
    for i in range(kd):
        for j in range(kd):
            out[i, j] = np.multiply(1.0 if i == j else 0.0, scalar)
    return out


class TestSummationOrder:
    @pytest.mark.parametrize("dims", [(), (1,), (7, 3), (3, 4, 5)])
    @pytest.mark.parametrize("kd", sorted(KD_SHAPES))
    def test_dd_in_the_spelled_out_order(self, kd, dims, rng):
        k, d = KD_SHAPES[kd]
        if math.prod(dims) == 1:
            # One cell: einsum unrolls the sum, as the module docstring says,
            # so the reference is numpy's own one-cell einsum. Components of
            # one scale, drawn non-zero: 20 draws, of which about a third or
            # more round differently in index order for kd >= 3.
            for _ in range(20):
                g = rng.standard_normal((k, d) + dims)
                flat = g.reshape(kd, 1)
                self.check(g, np.einsum("an,an->n", flat, flat).reshape(dims))
            return
        # Component magnitudes from 1e-4 to 1e4, so that any other order of
        # the squares rounds differently, and cells on both sides of s = 1.
        g = rng.standard_normal((k, d) + dims) * 10.0 ** rng.integers(-4, 5, (k, d) + dims)
        g *= 10.0 ** rng.integers(-6, 3, dims)
        flat = g.reshape(kd, -1)
        # Signed zeros: a cell of -0.0, and the last cell's first component.
        flat[:, 0] = -0.0
        flat[0, -1] = -0.0
        nrm2 = frobenius_sq_in_order(g)
        if flat.shape[1] > 2:
            assert np.any(nrm2 >= 1.0) and np.any(nrm2 < 1.0)
        self.check(g, nrm2)

    @staticmethod
    def check(g, nrm2):
        for omega in (0.0, 0.25):
            got = field(g, ResponseParams(s=1.0, omega=omega))
            assert got.tobytes() == fs_from(g, nrm2, 1.0, omega).tobytes(), omega
            got = field(g, ResponseParams(kind=PERONA_MALIK_SCALAR, lam=0.5, omega=omega))
            assert got.tobytes() == pm_from(g, nrm2, 0.5, omega).tobytes(), omega


class TestResponsePm:
    def test_zero_gives_identity(self):
        p = ResponseParams(kind=PERONA_MALIK_SCALAR, lam=2.0)
        np.testing.assert_array_equal(field(np.zeros((3, 2)), p), np.eye(6))

    def test_half_at_lambda(self):
        lam = 1.7
        p = ResponseParams(kind=PERONA_MALIK_SCALAR, lam=lam)
        d = np.zeros((2, 2))
        d[0, 0] = lam
        np.testing.assert_allclose(field(d, p), 0.5 * np.eye(4), atol=1e-14)

    def test_monotone_decay_to_zero(self):
        p = ResponseParams(kind=PERONA_MALIK_SCALAR, lam=1.0)
        prev = np.inf
        for scale in (0.1, 1.0, 10.0, 1e4, 1e8):
            d = np.full((2, 2), scale)
            lam_min = np.linalg.eigvalsh(field(d, p))[0]
            assert lam_min < prev
            prev = lam_min
        assert prev < 1e-7


def unit(m):
    """Each matrix of a stack scaled to Frobenius norm 1."""
    return m / np.linalg.norm(m.reshape(m.shape[0], -1), axis=1)[:, None, None]


RESPONSES = [
    ResponseParams(s=0.1, omega=0.5),
    ResponseParams(kind=PERONA_MALIK_SCALAR, lam=0.3, omega=0.2),
]


class TestLipschitzBound:
    @pytest.mark.parametrize("p", RESPONSES, ids=["fs", "pm"])
    @pytest.mark.parametrize("shape", [(1, 2), (2, 2), (3, 2)], ids=["n2", "n4", "n6"])
    @pytest.mark.parametrize("radius", [0.05, 0.2])  # below and above s = 0.1
    def test_above_every_drawn_slope(self, rng, p, shape, radius):
        n = shape[0] * shape[1]
        bound = lipschitz_bound(p, radius, n)
        eps = 1e-6 * radius
        trials = 3000
        # drawn uniformly in the ball shrunk by eps, so both samples lie in the ball
        base = unit(rng.standard_normal((trials,) + shape))
        base *= (radius - eps) * rng.uniform(size=trials)[:, None, None] ** (1.0 / n)
        direction = rng.standard_normal((trials,) + shape)
        # half the directions run along the base point, where the response changes fastest
        direction[::2] = base[::2]
        direction = unit(direction)
        # The stacks hold one matrix per cell; the responses take them component-first.
        plus, minus = (np.moveaxis(base + sign * eps * direction, 0, -1) for sign in (1, -1))
        diff = field(plus, p) - field(minus, p)
        slopes = np.linalg.norm(diff.reshape(-1, trials), axis=0) / (2 * eps)
        assert slopes.max() <= bound * (1 + 1e-6)
        assert slopes.max() >= 0.5 * bound

    @pytest.mark.parametrize("p", RESPONSES, ids=["fs", "pm"])
    @pytest.mark.parametrize("shape", [(1, 2), (2, 2), (3, 2)], ids=["n2", "n4", "n6"])
    @pytest.mark.parametrize("radius", [0.05, 0.2])
    def test_tight_pair_attains_the_bound(self, rng, p, shape, radius):
        n = shape[0] * shape[1]
        e = rng.standard_normal(shape)
        e /= np.linalg.norm(e)
        if p.kind == PERONA_MALIK_SCALAR:
            d1, d2 = 1e-8 * p.lam * e, np.zeros(shape)  # g' is steepest at 0
        else:
            r = min(radius, p.s)  # |dF| grows with |D| up to the threshold
            d1, d2 = r * e, r * (1 - 1e-7) * e
        slope = np.linalg.norm(field(d1, p) - field(d2, p)) / np.linalg.norm(d1 - d2)
        assert slope == pytest.approx(lipschitz_bound(p, radius, n), rel=1e-6)

    def test_near_constant_response(self):
        p = ResponseParams(kind=PERONA_MALIK_SCALAR, lam=1e12)
        assert lipschitz_bound(p, 1.0, 6) == pytest.approx(0.0, abs=1e-10)

    def test_validates_radius(self):
        for radius in (0.0, -1.0, math.nan):
            with pytest.raises(ParameterError):
                lipschitz_bound(ResponseParams(), radius, 6)


@st.composite
def min_eig_cases(draw):
    """A gradient field of kd 1-6 on 1 or 2 axes and response params for it.

    Scales run from far below the threshold s to far above it, so both
    branches decide the minimum.
    """
    kd = draw(st.integers(1, 6))
    k, d = (kd // 2, 2) if kd % 2 == 0 else (kd, 1)
    dims = tuple(draw(st.lists(st.integers(1, 6), min_size=1, max_size=2)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    s = 10.0 ** draw(st.floats(-2.0, 1.0))
    dfield = s * 10.0 ** draw(st.floats(-3.0, 1.0)) * rng.standard_normal((k, d) + dims)
    omega = draw(st.sampled_from([0.0, 1e-3, 0.5]))
    if draw(st.booleans()):
        return dfield, ResponseParams(s=s, omega=omega)
    return dfield, ResponseParams(kind=PERONA_MALIK_SCALAR, lam=10.0 ** draw(st.floats(-2.0, 1.0)), omega=omega)


class TestResponseMinEig:
    @settings(max_examples=300, deadline=None)
    @given(min_eig_cases())
    def test_closed_form_against_diagonalisation(self, case):
        dfield, p = case
        got = response_min_eig(dfield, p)
        f = response_field(dfield, p)
        certified, _ = min_eig_field(f)
        assert got >= p.omega
        if p.kind == PERONA_MALIK_SCALAR:
            assert got == certified
            return
        n = dfield.shape[0] * dfield.shape[1]
        v = dfield.reshape(n, -1)
        if float(np.max(np.einsum("an,an->n", v, v))) >= p.s * p.s:
            assert got == p.omega
        # eigvalsh's backward error, as argued in tensors.min_eig_below.
        assert abs(got - certified) <= 2 * n**3 * np.finfo(float).eps * float(np.max(np.abs(f)))

    @pytest.mark.parametrize("p", RESPONSES, ids=["fs", "pm"])
    def test_largest_gradient_decides(self, p):
        # One cell below the threshold s = 0.1, one above and a flat one:
        # the steepest cell gives the field's minimum.
        dfield = np.zeros((3, 2, 3))
        dfield[0, 0, 0] = 0.05
        dfield[1, 1, 1] = 0.3
        got = response_min_eig(dfield, p)
        assert got == response_min_eig(dfield[..., 1], p) < response_min_eig(dfield[..., 0], p)
        assert response_min_eig(dfield[..., 2], p) == (1.0 if p.kind == PERONA_MALIK_SCALAR else 1.5) + p.omega

    @pytest.mark.parametrize("p", RESPONSES, ids=["fs", "pm"])
    def test_nan_gives_nan(self, p):
        dfield = np.zeros((1, 2, 3))
        dfield[0, 1, 2] = math.nan
        assert math.isnan(response_min_eig(dfield, p))


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
