import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

import relaxdiff.integrate as integrate_mod
import relaxdiff.tensors as tensors_mod
from relaxdiff.baselines import run_baseline
from relaxdiff.errors import DimensionError, FitError, InvariantViolation, ParameterError, SolverError
from relaxdiff.grid import channel_sums, divergence, face_average_tensors, flux, l2_norm, mean_free
from relaxdiff.initial import init_H0, rescale
from relaxdiff.integrate import (
    MAX_STEPS,
    FilterParams,
    FilterState,
    TraceRecord,
    _implicit_solve,
    _num_steps,
    _relax_H,
    decay_rate_fit,
    energy,
    kappa_predicted,
    memory_form_check,
    run,
    trajectory,
    write_trace_csv,
)
from relaxdiff.mollifier import COMPACT_BUMP, Kernel, grad_sigma
from relaxdiff.response import ResponseParams, response_field, response_zero
from relaxdiff.tensors import min_eig_field, pack, unpack

from conftest import disk_image, random_psd_field, smooth_image, step_nodes


def identity_field(dims, kd, scale=1.0):
    """scale * Id in every cell, packed: (kd(kd+1)/2,) + dims."""
    return np.multiply.outer(pack(scale * np.eye(kd)), np.ones(tuple(dims)))


class TestFilterParams:
    def test_validation(self):
        with pytest.raises(ParameterError):
            FilterParams(tau=0.0)
        with pytest.raises(ParameterError):
            FilterParams(sigma=-1.0)
        with pytest.raises(ParameterError):
            FilterParams(dt=0.0)
        with pytest.raises(ParameterError):
            FilterParams(t_end=-1.0)
        with pytest.raises(ParameterError):
            FilterParams(alpha=0.0)
        with pytest.raises(ParameterError):
            FilterParams(cg_tol=0.5)
        with pytest.raises(ParameterError, match="sigma > 1"):
            FilterParams(sigma=1.0, kernel_kind=COMPACT_BUMP)

    @pytest.mark.parametrize("name", ["tau", "sigma", "dt", "t_end", "alpha", "cg_tol"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_rejected(self, name, value):
        with pytest.raises(ParameterError):
            FilterParams(**{name: value})

    def test_step_count_capped(self):
        assert _num_steps(FilterParams(dt=1e-6, t_end=1.0)) == MAX_STEPS
        for dt in (1e-7, 1e-300):
            with pytest.raises(ParameterError, match="t_end / dt"):
                FilterParams(dt=dt, t_end=1.0)

    def test_kernel_selection(self):
        assert FilterParams(sigma=0.0).kernel() is None
        assert FilterParams(sigma=0.49).kernel() is None
        k = FilterParams(sigma=1.5).kernel()
        assert isinstance(k, Kernel) and k.sigma == 1.5


class TestKappaPredicted:
    def test_decay_law(self):
        p = FilterParams(tau=0.5, alpha=0.2, response=ResponseParams(omega=0.0))
        assert kappa_predicted(0.0, p) == pytest.approx(0.2)
        assert kappa_predicted(1.0, p) == pytest.approx(0.2 * math.exp(-2.0))

    def test_omega_floor(self):
        p = FilterParams(tau=0.5, alpha=0.2, response=ResponseParams(omega=0.4))
        assert kappa_predicted(1e9, p) == pytest.approx(0.4)
        t = 0.7
        e = math.exp(-t / 0.5)
        assert kappa_predicted(t, p) == pytest.approx(0.2 * e + 0.4 * (1 - e))


class TestChannelSums:
    @pytest.mark.parametrize("channels", [1, 2, 3, 4])
    def test_bits_of_the_reshaped_sum(self, channels, rng):
        # The bits of u.reshape(-1, k).sum(axis=0), the form the mass column
        # was first summed in: an index-order sum for k >= 2, a pairwise one
        # for k = 1. Magnitudes from 1e-8 to 1e8, so another order rounds
        # differently.
        for dims in ((2,), (7, 3), (64, 65), (256, 256)):
            for _ in range(3):
                u = rng.standard_normal(dims + (channels,)) * 10.0 ** rng.integers(-8, 9, dims + (channels,))
                expected = u.reshape(-1, channels).sum(axis=0)
                assert channel_sums(u).tobytes() == expected.tobytes(), dims


class TestStepH:
    """The relaxation update the step loop applies to the packed H (_relax_H), in place."""

    def test_fixed_point_when_F_equals_H(self):
        # A constant image has zero gradient, so F = F(0); start H there.
        dims = (6, 6)
        p = FilterParams(tau=0.5, sigma=0.0, dt=0.3, response=ResponseParams(s=0.2))
        u = np.full(dims + (2,), 0.4)
        h0 = identity_field(dims, 4, scale=1.5)  # F(0) = 3/2 Id
        h = h0.copy()
        _relax_H(u, h, p, p.kernel())
        np.testing.assert_allclose(h, h0, atol=1e-14)

    def test_zero_response_stub_scalar_exponential(self, monkeypatch):
        dims = (4, 4)
        alpha = 0.37
        p = FilterParams(tau=0.8, sigma=0.0, dt=0.8, alpha=alpha)
        monkeypatch.setattr(integrate_mod, "response_field", lambda d, rp: np.zeros((3,) + d.shape[2:]))
        u = np.zeros(dims + (1,))
        h = identity_field(dims, 2, scale=alpha)
        _relax_H(u, h, p, p.kernel())
        expected = identity_field(dims, 2, scale=alpha * math.exp(-1.0))
        np.testing.assert_allclose(h, expected, atol=1e-14)

    def test_frozen_u_geometric_convergence(self, rng):
        dims = (5, 5)
        p = FilterParams(tau=0.4, sigma=0.0, dt=0.2, response=ResponseParams(s=0.3))
        u = 0.3 * rng.standard_normal(dims + (2,))
        f = response_field(grad_sigma(u, None), p.response)
        h = pack(random_psd_field(rng, dims, 4, floor=0.1))
        theta = math.exp(-p.dt / p.tau)
        err_prev = float(np.max(np.abs(h - f)))
        for _ in range(8):
            _relax_H(u, h, p, p.kernel())
            err = float(np.max(np.abs(h - f)))
            assert err == pytest.approx(theta * err_prev, rel=1e-10, abs=1e-13)
            err_prev = err

    def test_convexity_preserves_floor(self, rng):
        dims = (6, 6)
        p = FilterParams(tau=0.5, sigma=0.0, dt=5.0, response=ResponseParams(s=0.1))
        u = rng.standard_normal(dims + (3,))
        h = pack(random_psd_field(rng, dims, 6, floor=0.2))
        _relax_H(u, h, p, p.kernel())
        # response is PSD, H has floor 0.2, any dt keeps a convex mix PSD
        assert float(np.min(np.linalg.eigvalsh(np.moveaxis(unpack(h), (0, 1), (-2, -1))))) >= min(0.2, 0.0) - 1e-10


def implicit_step(u, h, p):
    """One backward-Euler diffusion step of u with frozen packed H, as the step loop solves it."""
    return _implicit_solve(u, face_average_tensors(h), p.dt, p.cg_tol)[0]


class TestStepU:
    """The backward-Euler diffusion solve of the step loop (_implicit_solve)."""

    def test_constant_unchanged(self):
        dims = (7, 7)
        p = FilterParams(dt=2.0)
        u = np.full(dims + (2,), -0.3)
        h = identity_field(dims, 4)
        out = implicit_step(u, h, p)
        np.testing.assert_array_equal(out, u)

    def test_two_cell_hand_solve(self):
        dims = (2,)
        p = FilterParams(dt=1.0)
        u = np.array([[1.0], [-1.0]])
        h = identity_field(dims, 1)
        out = implicit_step(u, h, p)
        # (I - div grad) on two cells is [[2, -1], [-1, 2]]; solving against
        # (1, -1) gives (1/3, -1/3).
        np.testing.assert_allclose(out, [[1.0 / 3.0], [-1.0 / 3.0]], atol=1e-10)

    def test_mass_conserved_and_norm_nonincreasing(self, rng):
        dims = (12, 10)
        p = FilterParams(dt=7.0, cg_tol=1e-10)
        u = rng.standard_normal(dims + (3,))
        h = pack(random_psd_field(rng, dims, 6, floor=0.05))
        out = implicit_step(u, h, p)
        mass_in = u.reshape(-1, 3).sum(axis=0)
        mass_out = out.reshape(-1, 3).sum(axis=0)
        np.testing.assert_allclose(mass_out, mass_in, atol=1e-10 * np.abs(u).sum())
        assert l2_norm(out) <= l2_norm(u) * (1 + 1e-12)

    @pytest.mark.parametrize("dt", [0.1, 2.0, 50.0])
    def test_default_tolerance_bounds_the_error(self, dt, rng):
        # ||A^-1|| <= 1, so a residual below cg_tol ||u|| puts the solution
        # within cg_tol ||u|| of the exact one (the module docstring).
        u = rng.uniform(-1.0, 1.0, (32, 32, 3))
        havg = face_average_tensors(init_H0(u, window=5, alpha=0.1))
        cg_tol = FilterParams().cg_tol
        assert cg_tol == 1e-8
        x, iters = _implicit_solve(u, havg, dt, cg_tol)
        reference, ref_iters = _implicit_solve(u, havg, dt, 1e-14)
        assert 0 < iters < ref_iters
        assert l2_norm(x - reference) <= cg_tol * l2_norm(u)

    def test_solver_error_carries_residual(self, rng, monkeypatch):
        monkeypatch.setattr(integrate_mod, "cg_max_iter", lambda ncells: 2)
        dims = (16, 16)
        p = FilterParams(dt=50.0, cg_tol=1e-10)
        u = rng.standard_normal(dims + (1,))
        h = identity_field(dims, 2)
        with pytest.raises(SolverError) as err:
            implicit_step(u, h, p)
        assert np.isfinite(err.value.residual) and err.value.residual > 0


class TestRun:
    def test_zero_steps_returns_initial(self, rng):
        dims = (6, 6)
        u0 = rng.standard_normal(dims + (2,))
        h0 = identity_field(dims, 4, scale=0.3)
        p = FilterParams(t_end=0.0, alpha=0.3)
        state, traces = run(u0, h0, p)
        assert traces == []
        assert state.t == 0.0
        np.testing.assert_array_equal(state.u, u0)
        np.testing.assert_array_equal(state.H, h0)

    def test_constant_u_relaxes_H_to_response_at_zero(self):
        dims = (6, 6)
        omega = 0.2
        p = FilterParams(
            tau=0.5, sigma=0.0, dt=0.5, t_end=10.0,
            response=ResponseParams(s=0.1, omega=omega), alpha=0.15,
        )
        u0 = np.full(dims + (2,), 0.6)
        h0 = identity_field(dims, 4, scale=0.15)
        state, traces = run(u0, h0, p)
        np.testing.assert_array_equal(state.u, u0)
        f0 = unpack(response_zero(p.response, 2, 2))  # (3/2 + omega) Id
        np.testing.assert_allclose(unpack(state.H), np.multiply.outer(f0, np.ones(dims)), atol=1e-8)

    def test_mean_free_norm_monotone_32x32(self, rng):
        u0 = 0.5 * rng.standard_normal((32, 32, 3))
        h0 = init_H0(u0, window=5, alpha=0.1)
        p = FilterParams(tau=0.5, sigma=1.0, dt=0.25, t_end=5.0, response=ResponseParams(s=0.1))
        _, us, _ = step_nodes(u0, h0, p)
        norms = [l2_norm(mean_free(u)) for u in us]
        tol = 1e-10 * norms[0]  # fixed, 100 times tighter than the default cg_tol
        assert all(b <= a + tol for a, b in zip(norms, norms[1:]))

    def test_kappa_floor_tracked(self, rng):
        u0 = rng.standard_normal((10, 10, 2))
        h0 = init_H0(u0, window=3, alpha=0.2)
        p = FilterParams(tau=0.3, sigma=0.0, dt=0.4, t_end=4.0, alpha=0.2, response=ResponseParams(s=0.1))
        _, traces = run(u0, h0, p)
        for r in traces:
            assert r.min_eig_H >= kappa_predicted(r.t, p) - 1e-8

    def test_unconditional_stability_huge_dt(self, rng):
        u0 = rng.standard_normal((8, 8, 2))
        h0 = init_H0(u0, window=3, alpha=0.1)
        p = FilterParams(tau=0.5, sigma=0.0, dt=1000.0, t_end=3000.0, response=ResponseParams(s=0.1))
        _, traces = run(u0, h0, p)
        prev = l2_norm(u0)
        for r in traces:
            assert r.l2_norm_u <= prev * (1 + 1e-10)  # fixed, 100 times tighter than the default cg_tol
            prev = r.l2_norm_u

    @pytest.mark.parametrize("sigma", [0.0, 1.0])
    def test_u_converges_at_first_order_in_dt(self, sigma):
        # Backward Euler is first order: halving dt halves the distance to
        # the next refinement. Measured ratios 1.93 and 1.96 at sigma 0,
        # 1.88 and 1.94 at sigma 1.
        img, _ = disk_image(32, radius=10.0)
        u0 = rescale(img) + 0.1 * np.random.default_rng(0).standard_normal(img.shape)
        h0 = init_H0(u0, window=5, alpha=0.1)
        us = [run(u0, h0, FilterParams(sigma=sigma, dt=1.6 / n, t_end=1.6))[0].u for n in (8, 16, 32, 64)]
        dists = [l2_norm(a - b) for a, b in zip(us, us[1:])]
        for a, b in zip(dists, dists[1:]):
            assert 1.7 <= a / b <= 2.3, dists

    def test_alpha_check_diagonalises_only_cells_below(self, rng, monkeypatch):
        # H0 at exactly alpha Id in every cell ties at alpha everywhere, yet
        # no cell is diagonalised; one cell a little below is, and it is named.
        dims = (40, 30)
        u0 = rng.standard_normal(dims + (3,))
        p = FilterParams(alpha=0.1)
        diagonalised = []
        monkeypatch.setattr(
            tensors_mod, "eigvalsh_field", lambda h: diagonalised.append(h.shape[0]) or np.linalg.eigvalsh(h)
        )
        h0 = identity_field(dims, 6, scale=0.1)
        trajectory(u0, h0, p)
        assert diagonalised == []
        h0[:, 7, 29] = pack((0.1 - 1e-12) * np.eye(6))  # on the bound: accepted
        trajectory(u0, h0, p)
        h0[:, 33, 5] = pack(0.0999 * np.eye(6))
        with pytest.raises(ParameterError, match=r"min eig 0\.0999 < alpha 0\.1 at cell \(33, 5\)$"):
            trajectory(u0, h0, p)
        assert diagonalised == [1, 2]

    def test_initial_floor_precondition(self, rng):
        dims = (5, 5)
        u0 = rng.standard_normal(dims + (1,))
        h0 = identity_field(dims, 2, scale=0.05)
        with pytest.raises(ParameterError):
            run(u0, h0, FilterParams(alpha=0.1))
        # One cell below alpha, at a known position of a non-square grid:
        # the error names it, and trajectory() raises at the call.
        dims = (5, 7)
        h0 = identity_field(dims, 4, scale=0.2)
        h0[:, 3, 4] = pack(0.05 * np.eye(4))
        with pytest.raises(ParameterError, match=r"alpha eigenvalue floor: min eig 0\.05 < alpha 0\.1 at cell \(3, 4\)$"):
            trajectory(rng.standard_normal(dims + (2,)), h0, FilterParams(alpha=0.1))

    def test_zero_image_needs_no_cg_iteration(self, monkeypatch):
        # A zero right-hand side returns the zero solution before the first
        # iteration, in the filter's half and main solves and in the baseline's.
        u0 = np.zeros((8, 8, 3))
        iters = []
        solve = integrate_mod._implicit_solve

        def counted_solve(*args):
            x, it = solve(*args)
            iters.append(it)
            return x, it

        monkeypatch.setattr(integrate_mod, "_implicit_solve", counted_solve)
        p = FilterParams(dt=0.2, t_end=0.6)
        state, traces = run(u0, init_H0(u0, window=3, alpha=0.1), p)
        final, baseline_traces = run_baseline(u0, p)
        assert iters == [0] * 9
        assert [r.cg_iters for r in traces + baseline_traces] == [0] * 6
        assert not state.u.any() and not final.u.any()

    def test_non_finite_solution_names_time_and_step(self, monkeypatch):
        u0 = disk_image(8, radius=3.0)[0]
        solve = integrate_mod._implicit_solve

        def nan_main_solve(u, havg, dt, cg_tol, where):
            x, iters = solve(u, havg, dt, cg_tol, where)
            return (np.full_like(x, np.nan) if where.startswith("main") else x), iters

        monkeypatch.setattr(integrate_mod, "_implicit_solve", nan_main_solve)
        with pytest.raises(InvariantViolation, match=r"^intensity field became non-finite at t=0\.1$") as err:
            run(u0, init_H0(u0, window=3, alpha=0.1), FilterParams(dt=0.1, t_end=0.3))
        assert err.value.diagnostic == {"t": 0.1, "step": 1}

    @pytest.mark.parametrize("which", ["u0", "H0"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_data_rejected(self, rng, which, value):
        dims = (6, 6)
        data = {"u0": rng.standard_normal(dims + (3,)), "H0": identity_field(dims, 6, scale=0.2)}
        data[which][2, 3, 1] = value
        with pytest.raises(ParameterError, match=which):
            run(data["u0"], data["H0"], FilterParams())

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("which", ["u0", "H0"])
    def test_overflowing_norm_rejected(self, rng, which):
        # Finite data whose squares sum past the largest float: the CG's stop
        # test would pass at once, and an H0 this large breaks the solve.
        dims = (6, 6)
        data = {"u0": rng.standard_normal(dims + (3,)), "H0": identity_field(dims, 6, scale=0.2)}
        data[which] *= 1e160
        with pytest.raises(ParameterError, match=f"^{which} is too large: its squared L2 norm overflows$"):
            trajectory(data["u0"], data["H0"], FilterParams(alpha=0.2))

    def test_H0_shape_rejected(self, rng):
        # H0 is packed, (P,) + dims; a full-square field, a cell-first one
        # or another grid's field must fail before the filter runs.
        dims = (8, 8)
        u0 = rng.standard_normal(dims + (3,))
        h0 = identity_field(dims, 6, scale=0.2)
        full = unpack(h0)
        for bad in (full, np.moveaxis(full, (0, 1), (-2, -1)).copy(), h0[..., :7], h0[:10]):
            with pytest.raises(ParameterError, match=r"H0 shape .* != \(21, 8, 8\).*relaxdiff\.tensors\.pack"):
                run(u0, bad, FilterParams(alpha=0.2, t_end=0.1))
        assert np.moveaxis(full, (0, 1), (-2, -1)).shape == (8, 8, 6, 6)

    def test_H0_memory_order_gives_the_same_bits(self, rng):
        # The step loop relaxes run()'s copy of H0 in place through a flat
        # view, so that copy must be C-ordered whatever the caller's layout:
        # flattening a Fortran-ordered copy would copy it, and H would not relax.
        u0 = rng.standard_normal((8, 8, 3))
        h0 = init_H0(u0, window=3, alpha=0.1)
        p = FilterParams(tau=0.5, sigma=1.0, dt=0.1, t_end=0.3)
        expected, _ = run(u0, h0, p)
        strided = np.repeat(h0, 2, axis=0)[::2]
        for h in (np.asfortranarray(h0), strided):
            state, _ = run(u0, h, p)
            assert state.H.tobytes() == expected.H.tobytes()
            assert state.u.tobytes() == expected.u.tobytes()

    @pytest.mark.parametrize("sigma", [1.0, 0.0])
    def test_min_eig_H_equals_full_diagonalisation(self, rng, sigma):
        u0 = disk_image(32, radius=10.0)[0] + 0.05 * rng.standard_normal((32, 32, 3))
        h0 = init_H0(u0, window=3, alpha=0.1)
        p = FilterParams(tau=0.5, sigma=sigma, dt=0.1, t_end=0.5)
        traces, _, hs = step_nodes(u0, h0, p)
        assert len(traces) == 5
        for n, r in enumerate(traces):
            assert r.min_eig_H == float(np.min(np.linalg.eigvalsh(np.moveaxis(unpack(hs[n + 1]), (0, 1), (-2, -1)))[..., 0]))

    def test_floor_violation_reports_the_full_argmin(self, rng, monkeypatch):
        # A shifted response breaks the floor everywhere; the diagnostic must
        # name the cell and eigenvalues that diagonalising every cell gives.
        dims = (32, 32)
        u0 = disk_image(32, radius=10.0)[0] + 0.05 * rng.standard_normal(dims + (3,))
        h0 = init_H0(u0, window=3, alpha=0.1)
        shift = 2.0 * pack(np.eye(6))[:, None, None]
        monkeypatch.setattr(integrate_mod, "response_field", lambda d, rp: response_field(d, rp) - shift)
        # The last packed H the floor check saw, diagonalised cell by cell.
        fields = []
        monkeypatch.setattr(integrate_mod, "min_eig_field", lambda h, **kw: fields.append(h.copy()) or min_eig_field(h, **kw))
        with pytest.raises(InvariantViolation) as err:
            run(u0, h0, FilterParams(tau=0.5, sigma=1.0, dt=0.1, t_end=0.5))
        diag = err.value.diagnostic
        h = np.moveaxis(unpack(fields[-1]), (0, 1), (-2, -1))
        eigs = np.linalg.eigvalsh(h)
        cell = np.unravel_index(int(np.argmin(eigs[..., 0])), dims)
        assert diag["cell"] == cell
        np.testing.assert_array_equal(diag["eigenvalues"], eigs[cell])
        np.testing.assert_array_equal(diag["tensor"], h[cell])
        assert diag["min_eig"] == eigs[cell][0]

    def test_invariant_violation_diagnostic(self, rng, monkeypatch):
        # A response stub violating positive semidefiniteness must trip the
        # runtime floor check and report the offending cell.
        dims = (4, 4)
        u0 = rng.standard_normal(dims + (1,))
        h0 = identity_field(dims, 2, scale=0.2)
        monkeypatch.setattr(
            integrate_mod, "response_field",
            lambda d, rp: np.multiply.outer(-pack(np.eye(2)), np.ones(d.shape[2:])),
        )
        p = FilterParams(tau=0.1, sigma=0.0, dt=1.0, t_end=3.0, alpha=0.2)
        with pytest.raises(InvariantViolation) as err:
            run(u0, h0, p)
        diag = err.value.diagnostic
        assert {"t", "cell", "kappa_predicted", "min_eig", "tensor", "eigenvalues"} <= set(diag)

    def test_solver_error_names_step_time_and_solve(self, monkeypatch):
        monkeypatch.setattr(integrate_mod, "cg_max_iter", lambda ncells: 1)
        u0 = disk_image(16, radius=5.0)[0]
        h0 = init_H0(u0, window=3, alpha=0.1)
        p = FilterParams(tau=0.5, sigma=1.0, dt=0.1, t_end=0.5)
        with pytest.raises(SolverError, match=r"^half solve of step 1 \(t=0\.1\): CG did not reach") as err:
            run(u0, h0, p)
        assert err.value.residual > p.cg_tol
        assert str(err.value).endswith(f"iterations (relative residual {err.value.residual:.6g})")

    @pytest.mark.parametrize("workers", [1, 2])
    def test_operator_overflow_is_one_solver_error(self, workers, set_workers):
        # From omega about 6.5e153 the face tensors are so large that the
        # divergence overflows in the main solve's first operator apply. That
        # once printed numpy's "overflow encountered in subtract" and then
        # reported a CG breakdown.
        set_workers(workers)
        clean, _ = disk_image(n=8, radius=2.5)
        u0 = clean + 0.05 * np.random.default_rng(3).standard_normal(clean.shape)
        h0 = init_H0(u0, window=3, alpha=0.1)
        p = FilterParams(tau=0.5, sigma=0.0, dt=1.0, t_end=1.0, response=ResponseParams(s=1.0, omega=6.511974122340293e153))
        # The residual overflowed too, so the message names the scale that
        # overflowed the operator instead: dt and the face tensors, about
        # omega (1 - e^(-2)) = 5.63e153.
        message = (r"^main solve of step 1 \(t=1\): the operator overflowed at iteration 0 "
                   r"\(dt 1, largest finite \|face tensor entry\| 5\.63067e\+153\)$")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SolverError, match=message) as err:
                run(u0, h0, p)
        assert not math.isfinite(err.value.residual)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_non_finite_H_is_named_by_its_first_cell(self, workers, set_workers):
        # The image's squared norm, 1.62e308, is finite, but its gradient
        # of -1.8e154 at (3, 3) overflows the response's products v_r v_s
        # there, which makes the relaxed H NaN. A NaN entry once made every
        # comparison with the floor false, so the check passed, after two
        # RuntimeWarnings from response_field, and the main solve overflowed.
        set_workers(workers)
        u0 = np.zeros((8, 8, 1))
        u0[3, 3, 0], u0[3, 4, 0] = 9e153, -9e153
        p = FilterParams(sigma=0.0, dt=0.1, t_end=0.1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvariantViolation, match=r"^diffusivity became non-finite at t=0\.1: first at cell \(3, 3\)$") as err:
                run(u0, identity_field((8, 8), 2, scale=0.1), p)
        assert err.value.diagnostic["cell"] == (3, 3)
        assert not np.all(np.isfinite(err.value.diagnostic["tensor"]))

    @pytest.mark.parametrize("workers", [1, 2])
    def test_operator_overflow_inside_the_iterations(self, workers, set_workers, rng):
        # A tiny u under face tensors of 1e250: A u and the first residual
        # are finite, A r is not, so p.Ap overflows at iteration 1. The flux
        # (whose differences overflow here) and the divergence give inf or
        # NaN without a warning.
        set_workers(workers)
        dims = (8, 8)
        u = 1e-100 * rng.standard_normal(dims + (3,))
        havg = face_average_tensors(identity_field(dims, 6, scale=1e250))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            stripes = np.zeros(dims + (3,))
            stripes[::2] = 1e308
            stripes[1::2] = -1e308
            assert not np.any(np.isfinite(divergence(flux(havg, stripes))))
            with pytest.raises(SolverError, match=r"^diffusion solve: the operator overflowed at iteration 1 ") as err:
                _implicit_solve(u, havg, 1.0, 1e-8)
        assert math.isfinite(err.value.residual)

    def test_face_average_once_per_step(self, rng, monkeypatch):
        # run() carries each step's face tensors into the next step's half
        # solve, so it averages n_steps + 1 times; a baseline, once per step.
        calls = []
        average = integrate_mod.face_average_tensors
        monkeypatch.setattr(integrate_mod, "face_average_tensors", lambda h: calls.append(1) or average(h))
        u0 = rng.standard_normal((8, 8, 3))
        h0 = init_H0(u0, window=3, alpha=0.1)
        p = FilterParams(tau=0.5, sigma=1.0, dt=0.1, t_end=0.5)
        run(u0, h0, p)
        assert len(calls) == 6
        calls.clear()
        run_baseline(u0, p)
        assert len(calls) == 5

    def test_trace_schema_and_iters(self, rng):
        u0 = rng.standard_normal((8, 8, 3))
        h0 = init_H0(u0, window=3, alpha=0.1)
        p = FilterParams(tau=0.5, sigma=1.0, dt=0.5, t_end=1.5, response=ResponseParams(s=0.1))
        _, traces = run(u0, h0, p)
        assert len(traces) == 3
        for r in traces:
            assert len(r.mass) == 3
            assert r.energy >= 0.0
            assert r.cg_iters >= 1

    def test_caller_arrays_left_untouched(self, rng):
        # The step loop relaxes H in place, on its own copy only.
        u0 = rng.standard_normal((8, 8, 3))
        h0 = init_H0(u0, window=3, alpha=0.1)
        before = (u0.tobytes(), h0.tobytes())
        p = FilterParams(tau=0.5, sigma=1.0, dt=0.1, t_end=0.3)
        run(u0, h0, p)
        for state, _ in trajectory(u0, h0, p):
            assert state.u is not u0 and state.H is not h0
        memory_form_check(u0, h0, replace(p, t_end=3 * p.dt))
        assert (u0.tobytes(), h0.tobytes()) == before


def record_bits(r):
    return (r.t.hex(), r.l2_norm_u.hex(), tuple(float(m).hex() for m in r.mass),
            r.energy.hex(), r.min_eig_H.hex(), r.cg_iters)


class TestTrajectory:
    def setup_scene(self, rng):
        u0 = rng.standard_normal((8, 8, 3))
        return u0, init_H0(u0, window=3, alpha=0.1)

    def test_records_and_last_state_are_run_bit_for_bit(self, rng):
        u0, h0 = self.setup_scene(rng)
        p = FilterParams(tau=0.5, sigma=1.0, dt=0.1, t_end=0.4)
        final, traces = run(u0, h0, p)
        records = []
        for state, record in trajectory(u0, h0, p):
            records.append(record)
        assert len(records) == 4
        assert [record_bits(r) for r in records] == [record_bits(r) for r in traces]
        assert state.t == final.t
        assert state.u.tobytes() == final.u.tobytes()
        assert state.H.tobytes() == final.H.tobytes()

    def test_zero_steps_yield_nothing(self, rng):
        u0, h0 = self.setup_scene(rng)
        assert list(trajectory(u0, h0, FilterParams(t_end=0.0))) == []

    def test_inputs_checked_at_call_time(self, rng):
        # Each bad input raises from trajectory() itself, before any next().
        u0, h0 = self.setup_scene(rng)
        p = FilterParams(alpha=0.1, t_end=0.1)
        with pytest.raises(ParameterError, match="H0 shape"):
            trajectory(u0, unpack(h0), p)
        with pytest.raises(ParameterError, match="alpha"):
            trajectory(u0, 0.5 * h0, p)
        nan_u = u0.copy()
        nan_u[1, 2, 0] = math.nan
        with pytest.raises(ParameterError, match="u0"):
            trajectory(nan_u, h0, p)


class TestEnergy:
    def test_stationary_point_zero(self):
        dims = (5, 4)
        p = FilterParams(tau=0.7, response=ResponseParams(s=0.1, omega=0.3))
        f0 = np.multiply.outer(response_zero(p.response, 2, 2), np.ones(dims))
        state = FilterState(t=0.0, u=np.zeros(dims + (2,)), H=f0)
        assert energy(state, p) == 0.0

    def test_identity_offset_value(self):
        dims = (5, 4)
        tau = 0.7
        p = FilterParams(tau=tau, response=ResponseParams(s=0.1))
        kd = 4
        f0 = response_zero(p.response, 2, 2)
        h = np.multiply.outer(f0 + pack(np.eye(kd)), np.ones(dims))
        state = FilterState(t=0.0, u=np.zeros(dims + (2,)), H=h)
        assert energy(state, p) == pytest.approx(0.5 * tau * math.prod(dims) * kd, rel=1e-14)

    def test_quadratic_in_u(self, rng):
        dims = (6, 6)
        p = FilterParams(tau=0.5, response=ResponseParams(s=0.1))
        f0 = np.multiply.outer(response_zero(p.response, 3, 2), np.ones(dims))
        u = rng.standard_normal(dims + (3,))
        e1 = energy(FilterState(0.0, u, f0), p)
        e2 = energy(FilterState(0.0, 2.0 * u, f0), p)
        assert e2 == pytest.approx(4.0 * e1, rel=1e-12)

    def test_mean_part_carries_no_energy(self, rng):
        dims = (6, 6)
        p = FilterParams(tau=0.5, response=ResponseParams(s=0.1))
        f0 = np.multiply.outer(response_zero(p.response, 2, 2), np.ones(dims))
        u = rng.standard_normal(dims + (2,))
        e1 = energy(FilterState(0.0, u, f0), p)
        e2 = energy(FilterState(0.0, u + 3.7, f0), p)
        assert e2 == pytest.approx(e1, rel=1e-12)

    def test_H_shape_rejected(self):
        # H is packed and read one entry plane at a time: a field of another
        # shape, a full-square or cell-first one included, fails instead of
        # giving a number.
        p = FilterParams(tau=0.5, response=ResponseParams(s=0.1))
        u = np.zeros((5, 3, 2))
        for shape in ((4, 4, 5, 3), (5, 3, 4, 4), (4, 4, 5), (4, 4, 5, 3, 1), (10, 5), (6, 5, 3), (10, 5, 3, 1)):
            with pytest.raises(DimensionError):
                energy(FilterState(0.0, u, np.zeros(shape)), p)


class TestDecayRateFit:
    def test_exact_exponential(self):
        traces = [
            TraceRecord(t=0.1 * (i + 1), l2_norm_u=0.0, mass=(0.0,),
                        energy=math.exp(-2.0 * 0.1 * (i + 1)), min_eig_H=0.0, cg_iters=1)
            for i in range(40)
        ]
        assert decay_rate_fit(traces) == pytest.approx(-2.0, abs=1e-9)

    def test_constant_trace(self):
        traces = [
            TraceRecord(t=0.1 * (i + 1), l2_norm_u=0.0, mass=(0.0,),
                        energy=5.0, min_eig_H=0.0, cg_iters=1)
            for i in range(20)
        ]
        assert decay_rate_fit(traces) == pytest.approx(0.0, abs=1e-12)

    def test_full_pipeline_decay(self, rng):
        u0 = smooth_image(16)
        h0 = init_H0(u0, window=5, alpha=0.1)
        p = FilterParams(tau=0.5, sigma=0.0, dt=0.1, t_end=3.0,
                         response=ResponseParams(s=0.1, omega=0.5), alpha=0.1)
        _, traces = run(u0, h0, p)
        assert decay_rate_fit(traces) <= 0.0

    def test_errors(self):
        short = [TraceRecord(t=1.0, l2_norm_u=0.0, mass=(0.0,), energy=1.0, min_eig_H=0.0, cg_iters=1)]
        with pytest.raises(FitError):
            decay_rate_fit(short * 5)
        bad = [
            TraceRecord(t=0.1 * (i + 1), l2_norm_u=0.0, mass=(0.0,),
                        energy=(-1.0 if i > 15 else 1.0), min_eig_H=0.0, cg_iters=1)
            for i in range(20)
        ]
        with pytest.raises(FitError):
            decay_rate_fit(bad)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_energy_rejected(self, value):
        traces = [
            TraceRecord(t=0.1 * (i + 1), l2_norm_u=0.0, mass=(0.0,),
                        energy=(value if i == 15 else 1.0), min_eig_H=0.0, cg_iters=1)
            for i in range(20)
        ]
        with pytest.raises(FitError, match="non-finite"):
            decay_rate_fit(traces)


class TestMemoryFormCheck:
    def test_zero_steps(self, rng):
        dims = (6, 6)
        u0 = rng.standard_normal(dims + (1,))
        h0 = identity_field(dims, 2, scale=0.2)
        p = FilterParams(alpha=0.2)
        assert memory_form_check(u0, h0, replace(p, t_end=0.0)) == 0.0

    def test_constant_response_stub_exact(self, rng, monkeypatch):
        # With F literally constant both forms telescope identically.
        dims = (6, 6)
        const = identity_field(dims, 2, scale=0.8)
        monkeypatch.setattr(integrate_mod, "response_field", lambda d, rp: const.copy())
        u0 = rng.standard_normal(dims + (1,))
        h0 = identity_field(dims, 2, scale=0.3)
        p = FilterParams(tau=0.7, sigma=0.0, dt=0.3, alpha=0.3)
        assert memory_form_check(u0, h0, replace(p, t_end=6 * p.dt)) <= 1e-12

    def test_second_order_ratio(self):
        # Smooth-branch regime: gradients stay below the contrast threshold,
        # where the response is twice differentiable and the quadrature
        # comparison is cleanly second order.
        u0 = smooth_image(16)
        h0 = init_H0(u0, window=5, alpha=0.1)
        base = FilterParams(tau=0.5, sigma=1.0, dt=0.2, response=ResponseParams(s=0.4), alpha=0.1)
        d1 = memory_form_check(u0, h0, replace(base, t_end=8 * base.dt))
        d2 = memory_form_check(u0, h0, replace(base, dt=0.1, t_end=16 * 0.1))
        assert 3.0 <= d1 / d2 <= 5.0

    def test_second_order_at_small_dt(self):
        # Criterion 7's scene at steps 16x smaller. The half solve's
        # tolerance shrinks as dt^2, so its error stays below the O(dt^2)
        # gap; a fixed 1e-4 tolerance flattens this ratio to about 1.1.
        u0 = smooth_image(16)
        h0 = init_H0(u0, window=5, alpha=0.1)
        base = FilterParams(tau=0.5, sigma=1.0, dt=0.0125, response=ResponseParams(s=0.4), alpha=0.1)
        d1 = memory_form_check(u0, h0, replace(base, t_end=32 * base.dt))
        d2 = memory_form_check(u0, h0, replace(base, dt=0.00625, t_end=64 * 0.00625))
        assert 3.5 <= d1 / d2 <= 4.5

    @pytest.mark.parametrize("steps", [0, 1])
    @pytest.mark.parametrize("bad", ["nan_u0", "full_square_H0", "H0_below_alpha"])
    def test_inputs_checked_at_every_step_count(self, rng, steps, bad):
        dims = (4, 4)
        u0 = rng.standard_normal(dims + (1,))
        h0 = identity_field(dims, 2, scale=0.2)
        if bad == "nan_u0":
            u0[1, 1, 0] = math.nan
        elif bad == "full_square_H0":
            h0 = unpack(h0)
        else:
            h0 = 0.5 * h0
        with pytest.raises(ParameterError):
            memory_form_check(u0, h0, FilterParams(alpha=0.2, t_end=steps * 0.1))


class TestTraceCsv:
    def test_schema_and_determinism(self, tmp_path, rng):
        traces = [
            TraceRecord(t=0.1, l2_norm_u=1.23456789012345678, mass=(0.5, -0.25, 1.0 / 3.0),
                        energy=2.0, min_eig_H=0.125, cg_iters=7),
            TraceRecord(t=0.2, l2_norm_u=1.1, mass=(0.5, -0.25, 1.0 / 3.0),
                        energy=1.5, min_eig_H=0.12, cg_iters=6),
        ]
        path_a = tmp_path / "a.csv"
        path_b = tmp_path / "b.csv"
        write_trace_csv(traces, str(path_a), channels=3)
        write_trace_csv(traces, str(path_b), channels=3)
        text = path_a.read_text()
        assert text.splitlines()[0] == "t,l2_norm_u,mass_c0,mass_c1,mass_c2,energy,min_eig_H,cg_iters"
        assert path_a.read_bytes() == path_b.read_bytes()
        # 17 significant digits keep the value bit-exact through roundtrip
        row = text.splitlines()[1].split(",")
        assert float(row[1]) == 1.23456789012345678
        assert float(row[4]) == 1.0 / 3.0
        assert row[-1] == "7"

    def test_channel_mismatch(self, tmp_path):
        traces = [TraceRecord(t=0.1, l2_norm_u=1.0, mass=(0.5,), energy=1.0, min_eig_H=0.1, cg_iters=1)]
        with pytest.raises(ParameterError):
            write_trace_csv(traces, str(tmp_path / "x.csv"), channels=3)
