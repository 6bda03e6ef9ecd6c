from dataclasses import replace

import numpy as np
import pytest

import relaxdiff.integrate as integrate_mod
from relaxdiff.baselines import (
    CATTE_REGULARIZED,
    PERONA_MALIK,
    compare_trajectories,
    run_baseline,
)
from relaxdiff.errors import DimensionError, ParameterError, SolverError
from relaxdiff.grid import GridSpec, l2_norm
from relaxdiff.integrate import FilterParams, TraceRecord, run
from relaxdiff.response import ResponseParams
from relaxdiff.tensors import pack

from conftest import disk_image, smooth_image


def make_records(values, dt=0.1):
    return [
        TraceRecord(t=dt * (i + 1), l2_norm_u=v, mass=(0.0,), energy=1.0, min_eig_H=0.0, cg_iters=1)
        for i, v in enumerate(values)
    ]


class TestRunBaseline:
    def test_constant_unchanged(self):
        grid = GridSpec(dims=(6, 6), channels=2)
        u0 = np.full(grid.field_shape(), 0.4)
        p = FilterParams(sigma=1.0, dt=0.5, t_end=2.0, response=ResponseParams(s=0.1))
        out, traces = run_baseline(u0, p, CATTE_REGULARIZED, grid)
        np.testing.assert_array_equal(out, u0)
        assert len(traces) == 4

    def test_catte_requires_sigma(self, rng):
        grid = GridSpec(dims=(6, 6), channels=1)
        u0 = rng.standard_normal(grid.field_shape())
        for sigma in (0.0, 0.3):  # a sub-pixel bandwidth's kernel is the identity
            with pytest.raises(ParameterError, match=r"sigma >= 0\.5"):
                run_baseline(u0, FilterParams(sigma=sigma), CATTE_REGULARIZED, grid)

    def test_unknown_kind(self, rng):
        grid = GridSpec(dims=(4, 4), channels=1)
        u0 = rng.standard_normal(grid.field_shape())
        with pytest.raises(ParameterError):
            run_baseline(u0, FilterParams(), "median", grid)

    @pytest.mark.parametrize("kind", [CATTE_REGULARIZED, PERONA_MALIK])
    def test_non_finite_data_rejected(self, rng, kind):
        grid = GridSpec(dims=(6, 6), channels=1)
        u0 = rng.standard_normal(grid.field_shape())
        u0[3, 2, 0] = np.nan
        with pytest.raises(ParameterError, match="u0"):
            run_baseline(u0, FilterParams(), kind, grid)

    def test_mass_and_monotonicity(self, rng):
        grid = GridSpec(dims=(12, 12), channels=3)
        u0 = 0.5 * rng.standard_normal(grid.field_shape())
        p = FilterParams(sigma=1.0, dt=0.2, t_end=2.0, response=ResponseParams(s=0.1))
        out, traces = run_baseline(u0, p, CATTE_REGULARIZED, grid)
        mass0 = u0.reshape(-1, 3).sum(axis=0)
        for r in traces:
            np.testing.assert_allclose(r.mass, mass0, atol=1e-9 * np.abs(u0).sum())
        norms = [l2_norm(u0)] + [r.l2_norm_u for r in traces]
        assert all(b <= a * (1 + 1e-12) for a, b in zip(norms, norms[1:]))

    def test_perona_malik_warns_and_runs(self, rng):
        grid = GridSpec(dims=(8, 8), channels=1)
        u0 = 0.3 * rng.standard_normal(grid.field_shape())
        p = FilterParams(sigma=0.0, dt=0.05, t_end=0.25, response=ResponseParams(s=0.1, kind="perona_malik_scalar", lam=0.5))
        with pytest.warns(UserWarning):
            out, traces = run_baseline(u0, p, PERONA_MALIK, grid)
        assert len(traces) == 5
        assert np.all(np.isfinite(out))

    def test_tau_limit_consistency(self):
        # In the resolved regime (tau a few steps wide) halving tau roughly
        # halves the trajectory distance to the no-relaxation limit.
        grid = GridSpec(dims=(16, 16), channels=3)
        rng = np.random.default_rng(5)
        u0 = smooth_image(16) + 0.1 * rng.standard_normal(grid.field_shape())
        kd = 6
        h0 = np.multiply.outer(pack(0.1 * np.eye(kd)), np.ones(grid.dims))
        base = FilterParams(tau=0.8, sigma=1.0, dt=0.05, t_end=1.5, response=ResponseParams(s=0.1), alpha=0.1)
        _, catte = run_baseline(u0, base, CATTE_REGULARIZED, grid)
        dists = []
        for tau in (0.8, 0.4, 0.2):
            _, tr = run(u0, h0, replace(base, tau=tau), grid)
            dists.append(compare_trajectories(tr, catte))
        for a, b in zip(dists, dists[1:]):
            assert 1.0 <= a / b <= 3.0  # halving +- 50% slack

    def test_solver_error_names_step_time_and_solve(self, monkeypatch):
        monkeypatch.setattr(integrate_mod, "cg_max_iter", lambda ncells: 1)
        grid = GridSpec(dims=(16, 16), channels=3)
        p = FilterParams(tau=0.5, sigma=1.0, dt=0.1, t_end=0.5)
        with pytest.raises(SolverError, match=r"^baseline solve of step 1 \(t=0\.1\): CG did not reach") as err:
            run_baseline(disk_image(16, radius=5.0)[0], p, CATTE_REGULARIZED, grid)
        assert err.value.residual > p.cg_tol


class TestCompareTrajectories:
    def test_identical_zero(self):
        a = make_records([1.0, 0.9, 0.8])
        assert compare_trajectories(a, a) == 0.0

    def test_constant_offset_closed_form(self):
        n, dt, delta = 16, 0.25, 0.3
        a = make_records([1.0] * n, dt)
        b = make_records([1.0 + delta] * n, dt)
        assert compare_trajectories(a, b) == pytest.approx(delta * np.sqrt(n * dt), rel=1e-12)

    def test_symmetric(self):
        a = make_records([1.0, 0.8, 0.7])
        b = make_records([0.9, 0.85, 0.6])
        assert compare_trajectories(a, b) == compare_trajectories(b, a)

    def test_mismatched_lengths(self):
        with pytest.raises(DimensionError):
            compare_trajectories(make_records([1.0, 0.9]), make_records([1.0]))

    def test_mismatched_time_grids(self):
        a = make_records([1.0, 0.9], dt=0.1)
        b = make_records([1.0, 0.9], dt=0.2)
        with pytest.raises(DimensionError):
            compare_trajectories(a, b)
