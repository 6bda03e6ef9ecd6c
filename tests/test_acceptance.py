"""Acceptance suite: one test per release criterion, each printing a
pass/fail line (run with ``pytest -s tests/test_acceptance.py`` to see them
live). Tolerances are fixed here, not tuned at runtime.
"""

import math
import time
from dataclasses import replace

import numpy as np

import relaxdiff as rd
from relaxdiff.baselines import compare_trajectories, run_baseline
from relaxdiff.cli import load_image, main, psnr, save_image
from relaxdiff.grid import divergence, gradient, inner, l2_norm, mean_free
from relaxdiff.initial import NoiseSpec, add_noise, init_H0, rescale, unrescale
from relaxdiff.integrate import FilterParams, memory_form_check, decay_rate_fit, run
from relaxdiff.response import (
    ResponseParams,
    lipschitz_bound,
    response_field,
    response_zero,
)
from relaxdiff.tensors import min_eig_field, pack, unpack

from conftest import disk_image, smooth_image, step_nodes


def check(criterion: int, ok: bool, elapsed: float, budget: float, detail: str):
    status = "PASS" if ok and elapsed < budget else "FAIL"
    print(f"[acceptance] criterion {criterion:2d}: {status} ({elapsed:.1f}s < {budget:.0f}s) {detail}")
    assert ok, f"criterion {criterion} failed: {detail}"
    assert elapsed < budget, f"criterion {criterion} exceeded runtime budget"


def test_criterion_1_kappa_bound_preservation():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    u0 = 0.5 * rng.standard_normal((32, 32, 3))
    h0 = init_H0(u0, window=5, alpha=0.1)
    ok = True
    worst = np.inf
    for dt in (0.01, 0.1, 1.0):
        p = FilterParams(tau=0.5, sigma=1.0, dt=dt, t_end=2.0,
                         response=ResponseParams(s=0.1), alpha=0.1)
        _, traces = run(u0, h0, p)
        for r in traces:
            margin = r.min_eig_H - (0.1 * math.exp(-r.t / 0.5) - 1e-8)
            worst = min(worst, margin)
            ok &= margin >= 0.0
    check(1, ok, time.perf_counter() - t0, 10.0,
          f"eigenvalue floor margin >= {worst:.3e} over dt in {{0.01, 0.1, 1.0}}")


def test_criterion_2_discrete_a_priori_estimate():
    t0 = time.perf_counter()
    rng = np.random.default_rng(202)
    u0 = 0.5 * rng.standard_normal((16, 16, 3))
    h0 = init_H0(u0, window=5, alpha=0.1)
    ok = True
    worst = 0.0
    for dt in (0.1, 10.0):
        p = FilterParams(tau=0.5, sigma=1.0, dt=dt, t_end=500 * dt,
                         response=ResponseParams(s=0.1), alpha=0.1)
        traces, us, _ = step_nodes(u0, h0, p)
        assert len(traces) == 500
        norms = [l2_norm(mean_free(u)) for u in us]
        allowed = 1e-10 * norms[0]  # fixed, 100 times tighter than the default cg_tol
        for a, b in zip(norms, norms[1:]):
            worst = max(worst, b - a)
            ok &= b <= a + allowed
    check(2, ok, time.perf_counter() - t0, 10.0,
          f"mean-free L2 nonincreasing over 500 steps, worst increment {worst:.3e}")


def test_criterion_3_mass_conservation():
    t0 = time.perf_counter()
    rng = np.random.default_rng(303)
    u0 = 0.5 * rng.standard_normal((16, 16, 3))
    h0 = init_H0(u0, window=5, alpha=0.1)
    p = FilterParams(tau=0.5, sigma=1.0, dt=0.1, t_end=100.0,
                     response=ResponseParams(s=0.1), alpha=0.1)
    _, traces = run(u0, h0, p)
    assert len(traces) == 1000
    mass0 = u0.reshape(-1, 3).sum(axis=0)
    l1 = float(np.abs(u0).sum())
    ok = True
    worst = 0.0
    for i, r in enumerate(traces, start=1):
        for c in range(3):
            drift = abs(r.mass[c] - mass0[c])
            worst = max(worst, drift)
            ok &= drift <= i * 1e-9 * l1
    check(3, ok, time.perf_counter() - t0, 10.0,
          f"worst per-channel drift {worst:.3e} over 1000 steps (allowed {1000 * 1e-9 * l1:.3e})")


def test_criterion_4_discrete_green_identity():
    t0 = time.perf_counter()
    rng = np.random.default_rng(404)
    ok = True
    worst = 0.0
    for n in (8, 16, 32):
        for k in (1, 3):
            for _ in range(100):
                u = rng.standard_normal((n, n, k))
                j = rng.standard_normal((k, 2, n, n))
                lhs = inner(gradient(u), j)
                rhs = inner(u, divergence(j))
                scale = max(1.0, abs(lhs), abs(rhs))
                residual = abs(lhs + rhs) / scale
                worst = max(worst, residual)
                ok &= residual <= 1e-12
    check(4, ok, time.perf_counter() - t0, 5.0,
          f"adjointness residual <= {worst:.3e} on 600 random pairs")


def _decay_scenario():
    u0 = smooth_image(32)
    h0 = init_H0(u0, window=5, alpha=0.1)
    resp = ResponseParams(s=0.1, omega=0.5)
    return u0, h0, resp


def test_criterion_5_energy_decay():
    t0 = time.perf_counter()
    u0, h0, resp = _decay_scenario()
    p = FilterParams(tau=0.5, sigma=0.0, dt=0.05, t_end=6.0, response=resp, alpha=0.1)
    _, traces = run(u0, h0, p)

    es = [r.energy for r in traces]
    monotone = all(b <= a + 1e-12 * es[0] for a, b in zip(es[5:], es[6:]))

    slope = decay_rate_fit(traces)
    cp = rd.poincare_estimate(u0.shape[:-1])
    eigs0 = np.linalg.eigvalsh(np.moveaxis(unpack(h0), (0, 1), (-2, -1)))
    khat0 = float(np.min(eigs0))
    # spot-check the certified floor against the full diagonalisation
    assert min_eig_field(h0)[0] == khat0
    khat = min(khat0, min(r.min_eig_H for r in traces))
    g0 = gradient(u0)
    radius = max(2.0 * resp.s, float(np.sqrt((g0 ** 2).sum(axis=(0, 1))).max()))
    chat = lipschitz_bound(resp, radius, 6)
    bound = min(khat * cp / (chat * chat), 1.0 / p.tau)
    ok = monotone and slope <= -0.5 * bound
    check(5, ok, time.perf_counter() - t0, 30.0,
          f"slope {slope:.4f} <= {-0.5 * bound:.3e} (khat={khat:.3f}, C_P={cp:.5f}, c={chat:.2f}), monotone={monotone}")


def test_criterion_6_convergence_to_stationary_point():
    t0 = time.perf_counter()
    u0, h0, resp = _decay_scenario()
    cp = rd.poincare_estimate(u0.shape[:-1])
    t_end = 10.0 * max(0.5, 1.0 / (resp.omega * cp))
    p = FilterParams(tau=0.5, sigma=0.0, dt=2.0, t_end=t_end, response=resp, alpha=0.1)
    state, _ = run(u0, h0, p)

    init_mf = l2_norm(mean_free(u0))
    final_mf = l2_norm(mean_free(state.u))
    f0 = unpack(response_zero(resp, 3, 2))[..., None, None]
    dev0 = float(np.linalg.norm((unpack(h0) - f0).reshape(36, -1), axis=0).max())
    devT = float(np.linalg.norm((unpack(state.H) - f0).reshape(36, -1), axis=0).max())
    ok = final_mf <= 0.01 * init_mf and devT <= 0.01 * dev0
    check(6, ok, time.perf_counter() - t0, 60.0,
          f"t_end={t_end:.0f}: |u|_mf ratio {final_mf / init_mf:.2e}, H deviation ratio {devT / dev0:.2e}")


def test_criterion_7_memory_form_equivalence():
    t0 = time.perf_counter()
    u0 = smooth_image(16)
    h0 = init_H0(u0, window=5, alpha=0.1)
    # gradients stay below the contrast threshold: the response is twice
    # differentiable along the whole trajectory, the regime in which the
    # trapezoidal re-integration admits a clean second-order comparison
    base = FilterParams(tau=0.5, sigma=1.0, dt=0.2, response=ResponseParams(s=0.4), alpha=0.1)
    d_coarse = memory_form_check(u0, h0, replace(base, t_end=8 * base.dt))
    d_fine = memory_form_check(u0, h0, replace(base, dt=0.1, t_end=16 * 0.1))
    ratio = d_coarse / d_fine
    ok = 3.0 <= ratio <= 5.0
    check(7, ok, time.perf_counter() - t0, 20.0,
          f"discrepancies {d_coarse:.3e} -> {d_fine:.3e}, ratio {ratio:.2f} in [3, 5]")


def test_criterion_8_tau_to_zero_limit():
    t0 = time.perf_counter()
    rng = np.random.default_rng(808)
    u0 = smooth_image(32) + 0.1 * rng.standard_normal((32, 32, 3))
    kd = 6
    h0 = np.multiply.outer(pack(0.1 * np.eye(kd)), np.ones((32, 32)))
    base = FilterParams(tau=0.4, sigma=1.0, dt=0.1, t_end=2.0,
                        response=ResponseParams(s=0.1), alpha=0.1)
    _, catte_traces = run_baseline(u0, base)
    dists = []
    for tau in (0.4, 0.2, 0.1, 0.05):
        _, traces = run(u0, h0, replace(base, tau=tau))
        dists.append(compare_trajectories(traces, catte_traces))
    ok = all(a > b for a, b in zip(dists, dists[1:]))
    check(8, ok, time.perf_counter() - t0, 60.0,
          "distance to the no-relaxation limit strictly decreasing: "
          + " > ".join(f"{d:.4f}" for d in dists))


def test_criterion_9_response_function_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(909)

    # exact value at zero gradient
    p = ResponseParams(s=0.1)
    exact_zero = np.array_equal(unpack(response_field(np.zeros((3, 2)), p)), 1.5 * np.eye(6))

    # continuity at the threshold with a linear-in-epsilon bound
    continuity = True
    for _ in range(10):
        d = rng.standard_normal((3, 2))
        d *= p.s / np.linalg.norm(d)
        v = d.ravel()
        bound = 2.2 * np.linalg.norm(1.5 * np.eye(6) - (np.eye(6) - np.outer(v, v) / (v @ v)))
        for eps in (1e-3, 1e-5, 1e-7):
            gap = np.linalg.norm(unpack(response_field(d * (1 - eps), p)) - unpack(response_field(d * (1 + eps), p)))
            continuity &= gap <= bound * eps

    # positive semidefiniteness over 10^4 random matrices
    dfield = rng.standard_normal((3, 2, 100, 100))
    dfield *= rng.uniform(0.01, 30.0, size=(100, 100)) / 10.0
    f = unpack(response_field(dfield, p))
    min_eig = float(np.min(np.linalg.eigvalsh(np.moveaxis(f, (0, 1), (-2, -1)))))
    psd = min_eig >= -1e-10

    ok = exact_zero and continuity and psd
    check(9, ok, time.perf_counter() - t0, 5.0,
          f"F(0) exact={exact_zero}, threshold continuity={continuity}, min eig over 1e4 draws {min_eig:.2e}")


def test_criterion_10_end_to_end_denoising():
    t0 = time.perf_counter()
    clean01, rmap = disk_image(n=64, radius=20.0)
    work = rescale(clean01)
    noisy = add_noise(work, NoiseSpec(std=0.1, seed=3))
    h0 = init_H0(noisy, window=5, alpha=0.1)
    p = FilterParams(tau=0.5, sigma=1.0, dt=0.1, t_end=2.0,
                     response=ResponseParams(s=0.1), alpha=0.1)  # CLI defaults
    state, _ = run(noisy, h0, p)

    out01 = np.clip(unrescale(state.u), 0.0, 1.0)
    noisy01 = np.clip(unrescale(noisy), 0.0, 1.0)
    gain = psnr(out01, clean01) - psnr(noisy01, clean01)

    g = gradient(out01)
    mag = np.sqrt((g ** 2).sum(axis=(0, 1)))
    rings = np.round(rmap).astype(int)
    profile = np.array([mag[rings == rr].mean() if np.any(rings == rr) else 0.0 for rr in range(30)])
    edge_ring = int(np.argmax(profile))
    ok = gain >= 2.0 and abs(edge_ring - 20) <= 1
    check(10, ok, time.perf_counter() - t0, 30.0,
          f"PSNR gain {gain:.2f} dB (>= 2), max-gradient ring {edge_ring} (clean edge 20)")


def test_criterion_11_cli_determinism_and_format(tmp_path):
    t0 = time.perf_counter()
    img, _ = disk_image(n=32, radius=10.0)
    inp = tmp_path / "in.ppm"
    save_image(img, str(inp))

    def invoke(tag):
        code = main([
            "--input", str(inp),
            "--output", str(tmp_path / f"out_{tag}.ppm"),
            "--trace", str(tmp_path / f"trace_{tag}.csv"),
            "--noise-std", "0.1", "--seed", "7",
            "--dt", "0.25", "--t-end", "1.0",
        ])
        assert code == 0

    invoke("a")
    invoke("b")
    identical_img = (tmp_path / "out_a.ppm").read_bytes() == (tmp_path / "out_b.ppm").read_bytes()
    identical_csv = (tmp_path / "trace_a.csv").read_bytes() == (tmp_path / "trace_b.csv").read_bytes()

    resaved = tmp_path / "resaved.ppm"
    save_image(load_image(str(tmp_path / "out_a.ppm")) / 255.0, str(resaved))
    roundtrip = resaved.read_bytes() == (tmp_path / "out_a.ppm").read_bytes()

    ok = identical_img and identical_csv and roundtrip
    check(11, ok, time.perf_counter() - t0, 5.0,
          f"byte-identical image={identical_img}, csv={identical_csv}, roundtrip={roundtrip}")
