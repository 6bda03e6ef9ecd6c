import warnings
from dataclasses import replace

import numpy as np
import pytest

import relaxdiff.integrate as integrate_mod
from relaxdiff import tensors
from relaxdiff.baselines import compare_trajectories, run_baseline
from relaxdiff.errors import DimensionError, ParameterError, SolverError
from relaxdiff.grid import l2_norm
from relaxdiff.initial import init_H0, rescale
from relaxdiff.integrate import FilterParams, TraceRecord, run
from relaxdiff.response import PERONA_MALIK_SCALAR, THRESHOLDED_PROJECTION, ResponseParams, response_min_eig
from relaxdiff.tensors import pack

from conftest import disk_image, smooth_image

# The no-relaxation configurations, one per pair of mollifier and response
# kind: (sigma, response kind, what run_baseline does with them).
NO_RELAXATION = {
    "catte_regularized": (1.0, THRESHOLDED_PROJECTION, "runs"),  # the tau -> 0 limit of the filter
    "mollified_perona_malik": (1.0, PERONA_MALIK_SCALAR, "runs"),  # Catte et al.'s model
    "perona_malik": (0.0, PERONA_MALIK_SCALAR, "warns"),  # ill-posed without the mollifier
    "sharp_projection": (0.0, THRESHOLDED_PROJECTION, "raises"),
}
RUNNABLE = [name for name, (_, _, outcome) in NO_RELAXATION.items() if outcome != "raises"]


def no_relaxation_params(name: str, **kw) -> FilterParams:
    sigma, kind, _ = NO_RELAXATION[name]
    return FilterParams(sigma=sigma, response=ResponseParams(s=0.1, omega=0.05, kind=kind), **kw)


def make_records(values, dt=0.1):
    return [
        TraceRecord(t=dt * (i + 1), l2_norm_u=v, mass=(0.0,), energy=1.0, min_eig_H=0.0, cg_iters=1)
        for i, v in enumerate(values)
    ]


class TestRunBaseline:
    def test_constant_unchanged(self):
        u0 = np.full((6, 6, 2), 0.4)
        p = FilterParams(sigma=1.0, dt=0.5, t_end=2.0, response=ResponseParams(s=0.1))
        final, traces = run_baseline(u0, p)
        np.testing.assert_array_equal(final.u, u0)
        assert final.t == traces[-1].t and len(traces) == 4

    def test_catte_requires_sigma(self, rng):
        u0 = rng.standard_normal((6, 6, 1))
        for sigma in (0.0, 0.3):  # a sub-pixel bandwidth's kernel is the identity
            with pytest.raises(ParameterError, match=r"sigma >= 0\.5"):
                run_baseline(u0, FilterParams(sigma=sigma))

    @pytest.mark.parametrize("name", RUNNABLE)
    def test_non_finite_data_rejected(self, rng, name):
        u0 = rng.standard_normal((6, 6, 1))
        u0[3, 2, 0] = np.nan
        with pytest.raises(ParameterError, match="u0 contains NaN or inf"):
            run_baseline(u0, no_relaxation_params(name))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("name", RUNNABLE)
    def test_overflowing_norm_rejected(self, name):
        # Finite pixels whose squares sum past the largest float: the CG's
        # stop test would pass at once and the run would filter nothing.
        u0 = np.full((6, 6, 1), 1e154)
        with pytest.raises(ParameterError, match="^u0 is too large: its squared L2 norm overflows$"):
            run_baseline(u0, no_relaxation_params(name))

    def test_mass_and_monotonicity(self, rng):
        u0 = 0.5 * rng.standard_normal((12, 12, 3))
        p = FilterParams(sigma=1.0, dt=0.2, t_end=2.0, response=ResponseParams(s=0.1))
        _, traces = run_baseline(u0, p)
        mass0 = u0.reshape(-1, 3).sum(axis=0)
        for r in traces:
            np.testing.assert_allclose(r.mass, mass0, atol=1e-9 * np.abs(u0).sum())
        norms = [l2_norm(u0)] + [r.l2_norm_u for r in traces]
        assert all(b <= a * (1 + 1e-12) for a, b in zip(norms, norms[1:]))

    def test_perona_malik_warns_and_runs(self, rng):
        u0 = 0.3 * rng.standard_normal((8, 8, 1))
        p = FilterParams(sigma=0.0, dt=0.05, t_end=0.25, response=ResponseParams(s=0.1, kind="perona_malik_scalar", lam=0.5))
        with pytest.warns(UserWarning):
            final, traces = run_baseline(u0, p)
        assert len(traces) == 5
        assert np.all(np.isfinite(final.u))

    def test_subnormal_lambda_gives_a_zero_floor_silently(self, rng):
        # D:D / lambda overflows at lambda = 1e-320, so a = 1 / (1 + inf) = 0:
        # the closed-form floor is 0.0, the smallest eigenvalue of the
        # response, and numpy prints no overflow warning on the way.
        u0 = 0.3 * rng.standard_normal((8, 8, 3))
        p = FilterParams(sigma=0.0, dt=0.1, t_end=0.3, response=ResponseParams(kind=PERONA_MALIK_SCALAR, lam=1e-320))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            final, traces = run_baseline(u0, p)
        assert [(w.category, str(w.message).split(";")[0]) for w in caught] == [
            (UserWarning, "unmollified scalar edge-stopping diffusion is ill-posed")
        ]
        assert [r.min_eig_H for r in traces] == [0.0] * 3
        cells = np.moveaxis(tensors.unpack(final.H), (0, 1), (-2, -1))
        assert np.min(np.linalg.eigvalsh(cells)) == 0.0

    def test_catte_converges_at_first_order_in_dt(self):
        # Backward Euler with H frozen at each step's left endpoint: halving
        # dt halves the distance to a 512-step reference (measured 2.02,
        # 2.06 and 2.14).
        img, _ = disk_image(32, radius=10.0)
        u0 = rescale(img) + 0.1 * np.random.default_rng(0).standard_normal(img.shape)
        ref = run_baseline(u0, FilterParams(dt=1.6 / 512, t_end=1.6))[0].u
        dists = [l2_norm(run_baseline(u0, FilterParams(dt=1.6 / n, t_end=1.6))[0].u - ref) for n in (8, 16, 32, 64)]
        for a, b in zip(dists, dists[1:]):
            assert 1.7 <= a / b <= 2.3, dists

    def test_tau_limit_consistency(self):
        # In the resolved regime (tau a few steps wide) halving tau roughly
        # halves the trajectory distance to the no-relaxation limit.
        dims = (16, 16)
        rng = np.random.default_rng(5)
        u0 = smooth_image(16) + 0.1 * rng.standard_normal(dims + (3,))
        kd = 6
        h0 = np.multiply.outer(pack(0.1 * np.eye(kd)), np.ones(dims))
        base = FilterParams(tau=0.8, sigma=1.0, dt=0.05, t_end=1.5, response=ResponseParams(s=0.1), alpha=0.1)
        _, catte = run_baseline(u0, base)
        dists = []
        for tau in (0.8, 0.4, 0.2):
            _, tr = run(u0, h0, replace(base, tau=tau))
            dists.append(compare_trajectories(tr, catte))
        for a, b in zip(dists, dists[1:]):
            assert 1.0 <= a / b <= 3.0  # halving +- 50% slack

    def test_solver_error_names_step_time_and_solve(self, monkeypatch):
        monkeypatch.setattr(integrate_mod, "cg_max_iter", lambda ncells: 1)
        p = FilterParams(tau=0.5, sigma=1.0, dt=0.1, t_end=0.5)
        with pytest.raises(SolverError, match=r"^baseline solve of step 1 \(t=0\.1\): CG did not reach") as err:
            run_baseline(disk_image(16, radius=5.0)[0], p)
        assert err.value.residual > p.cg_tol
        assert str(err.value).endswith(f"iterations (relative residual {err.value.residual:.6g})")


class TestNoRelaxationConfigurations:
    @pytest.mark.parametrize("name", NO_RELAXATION)
    def test_outcome(self, rng, name):
        u0 = disk_image(8, radius=3.0)[0] + 0.05 * rng.standard_normal((8, 8, 3))
        p = no_relaxation_params(name, dt=0.05, t_end=0.15)
        if NO_RELAXATION[name][2] == "raises":
            with pytest.raises(ParameterError, match=r"^the mollified baseline requires sigma >= 0\.5$"):
                run_baseline(u0, p)
            return
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            final, traces = run_baseline(u0, p)
        messages = [(w.category, str(w.message).split(";")[0]) for w in caught]
        if NO_RELAXATION[name][2] == "warns":
            assert messages == [(UserWarning, "unmollified scalar edge-stopping diffusion is ill-posed")]
        else:
            assert messages == []
        assert len(traces) == 3 and final.t == traces[-1].t and np.all(np.isfinite(final.u))


class TestFloorCheckOnlyWithRelaxation:
    @pytest.fixture
    def calls(self, monkeypatch):
        """Counts of the certified floor check and of eigvalsh, and each grad_sigma result."""
        calls = {"min_eig_field": 0, "eigvalsh": 0, "grads": []}
        check, eigvalsh, grad_sigma = integrate_mod.min_eig_field, tensors.eigvalsh_field, integrate_mod.grad_sigma

        def counted_check(h):
            calls["min_eig_field"] += 1
            return check(h)

        def counted_eigvalsh(h):
            calls["eigvalsh"] += 1
            return eigvalsh(h)

        def kept_grad(u, kern):
            calls["grads"].append(grad_sigma(u, kern).copy())
            return calls["grads"][-1]

        monkeypatch.setattr(integrate_mod, "min_eig_field", counted_check)
        monkeypatch.setattr(tensors, "eigvalsh_field", counted_eigvalsh)
        monkeypatch.setattr(integrate_mod, "grad_sigma", kept_grad)
        return calls

    @pytest.mark.filterwarnings("ignore:unmollified scalar")
    @pytest.mark.parametrize("name", RUNNABLE)
    def test_baselines_take_the_closed_form(self, rng, name, calls):
        u0 = disk_image(16, radius=5.0)[0] + 0.05 * rng.standard_normal((16, 16, 3))
        p = no_relaxation_params(name, dt=0.1, t_end=0.3)
        _, traces = run_baseline(u0, p)
        assert calls["min_eig_field"] == 0 and calls["eigvalsh"] == 0
        assert len(traces) == len(calls["grads"]) == 3
        for r, g in zip(traces, calls["grads"]):
            assert r.min_eig_H == response_min_eig(g, p.response)

    def test_relax_mode_checks_the_floor_every_step(self, rng, calls):
        u0 = disk_image(16, radius=5.0)[0] + 0.05 * rng.standard_normal((16, 16, 3))
        h0 = init_H0(u0, window=3, alpha=0.1)
        run(u0, h0, FilterParams(sigma=1.0, dt=0.1, t_end=0.3))
        assert calls["min_eig_field"] == 3


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
