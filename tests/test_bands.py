"""Row bands: every row once, and the banded kernels' bits independent of the
band count."""

import math
import os
import signal
import sys
import threading
import time

import numpy as np
import pytest

from relaxdiff import bands, grid as grid_mod
from relaxdiff.grid import divergence, face_average_tensors, flux, gradient
from relaxdiff.integrate import FilterParams, FilterState, _implicit_solve, _relax_H, energy
from relaxdiff.mollifier import _correlate1d, grad_sigma
from relaxdiff.response import PERONA_MALIK_SCALAR, THRESHOLDED_PROJECTION, ResponseParams, response_field
from relaxdiff.tensors import apply, pack

from conftest import apply_in_order, random_psd_field


def test_bands_cover_every_row_once(set_workers):
    # Two callers at once, more band threads than CPUs and a short switch
    # interval, so that bands and callers interleave.
    set_workers(5)
    seen = {0: [], 1: []}

    def caller(index):
        for n in range(12):
            calls, lock = [], threading.Lock()

            def record(start, stop):
                with lock:
                    calls.append((start, stop))

            bands.for_bands(record, n, n)
            seen[index].append((n, calls))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=caller, args=(i,), daemon=True) for i in seen]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
    for results in seen.values():
        assert [n for n, _ in results] == list(range(12))
        for n, calls in results:
            rows = sorted(r for start, stop in calls for r in range(start, stop))
            assert rows == list(range(n)), n
            assert len(calls) == max(1, min(5, n))
            assert all(stop > start for start, stop in calls) or n == 0


def test_small_work_is_one_plain_call(set_workers, monkeypatch):
    set_workers(3)
    monkeypatch.setattr(bands, "BAND_MIN_WORK", 100)
    for work, count in ((0, 1), (199, 1), (200, 2), (10**6, 3)):
        calls = []
        bands.for_bands(lambda start, stop: calls.append((start, stop)), 9, work)
        assert len(calls) == count and sorted(calls)[0][0] == 0 and max(calls)[1] == 9, work


def test_band_exception_reaches_the_caller(set_workers):
    set_workers(3)
    done = []

    def fail_in_last_band(start, stop):
        if stop == 9:
            raise ValueError("band failed")
        done.append(start)

    with pytest.raises(ValueError, match="band failed"):
        bands.for_bands(fail_in_last_band, 9, 9)
    assert sorted(done) == [0, 3]


def test_interrupted_call_leaves_later_calls_whole(set_workers):
    set_workers(2)
    release = threading.Event()

    def interrupt(signum, frame):
        raise KeyboardInterrupt

    previous = signal.signal(signal.SIGALRM, interrupt)
    signal.setitimer(signal.ITIMER_REAL, 0.1)
    try:
        with pytest.raises(KeyboardInterrupt):
            bands.for_bands(lambda start, stop: release.wait(10), 4, 4)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
        release.set()
    rows = []

    def slow(start, stop):
        time.sleep(0.05)
        rows.extend(range(start, stop))

    bands.for_bands(slow, 4, 4)
    assert sorted(rows) == [0, 1, 2, 3]


def test_forked_child_starts_its_own_band_threads(set_workers):
    set_workers(2)
    bands.for_bands(lambda start, stop: None, 4, 4)  # the parent's threads run
    pid = os.fork()
    if pid == 0:  # the child has none of those threads
        code = 2
        try:
            rows = []
            bands.for_bands(lambda start, stop: rows.extend(range(start, stop)), 4, 4)
            code = 0 if sorted(rows) == [0, 1, 2, 3] else 1
        finally:
            os._exit(code)
    deadline = time.monotonic() + 60
    while (done := os.waitpid(pid, os.WNOHANG))[0] == 0 and time.monotonic() < deadline:
        time.sleep(0.01)
    if done[0] == 0:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
    assert done[0] == pid and os.waitstatus_to_exitcode(done[1]) == 0


def _gradient_ref(u):
    d = u.ndim - 1
    out = np.zeros(u.shape + (d,))
    for j in range(d):
        lo = [slice(None)] * d
        hi = [slice(None)] * d
        lo[j], hi[j] = slice(0, -1), slice(1, None)
        out[tuple(lo) + (slice(None), j)] = u[tuple(hi)] - u[tuple(lo)]
    return out


def _divergence_ref(jfield):
    d = jfield.ndim - 2
    out = np.zeros(jfield.shape[:-1])
    for j in range(d):
        lo = [slice(None)] * d
        hi = [slice(None)] * d
        lo[j], hi[j] = slice(0, -1), slice(1, None)
        f = jfield[..., j][tuple(lo)]
        out[tuple(lo)] += f
        out[tuple(hi)] -= f
    return out


def _face_average_ref(hfield):
    d = hfield.ndim - 2
    out = np.zeros_like(hfield)
    count = np.zeros(hfield.shape[2:])
    for j in range(d):
        lo = [slice(None)] * d
        hi = [slice(None)] * d
        lo[j], hi[j] = slice(0, -1), slice(1, None)
        out[(...,) + tuple(lo)] += 0.5 * (hfield[(...,) + tuple(lo)] + hfield[(...,) + tuple(hi)])
        count[tuple(lo)] += 1.0
    corner = count == 0
    count[corner] = 1.0
    out /= count
    out[..., corner] = hfield[..., corner]
    return out


@pytest.mark.parametrize("dims", [(2, 5), (7, 3), (9,), (3, 4, 5)])
@pytest.mark.parametrize("channels", [3, 1])
def test_kernels_bit_equal_for_1_2_3_bands(dims, channels, rng, set_workers, monkeypatch):
    kd = channels * len(dims)
    u = rng.standard_normal(dims + (channels,))
    jfield = rng.standard_normal((channels, len(dims)) + dims)
    h = random_psd_field(rng, dims, kd, floor=0.1)
    # Face terms of -0.0: a sum that starts from 0.0 makes them +0.0, and the
    # far corner keeps its own -0.0.
    h[0, -1, :2] = h[-1, 0, :2] = -0.0
    h[0, -1, -1] = h[-1, 0, -1] = -0.0
    planes = pack(h)  # the face averaging and the relaxation take H packed
    p = FilterParams(tau=0.4, sigma=1.0, dt=0.3)
    theta = math.exp(-p.dt / p.tau)
    f = response_field(grad_sigma(u, p.kernel()), p.response)
    # The CG's vector updates run in bands; its right-hand side holds -0.0
    # entries, and the solve at one band is the reference.
    b = u.copy()
    b.reshape(-1)[::4] = -0.0
    havg = face_average_tensors(planes)
    set_workers(1)
    solved = _implicit_solve(b, havg, p.dt, p.cg_tol)
    assert solved[1] > 1
    # Signed zeros in the image and the flux, whose padding slots (the last
    # cell of each axis) hold non-zero values that the divergence ignores.
    signed = u.copy()
    signed.reshape(-1)[::3] = -0.0
    dfield = jfield.copy()
    dfield.reshape(-1)[::4] = -0.0
    signed_gradient = np.moveaxis(_gradient_ref(signed), (-2, -1), (0, 1))
    reference = {
        "gradient": np.moveaxis(_gradient_ref(u), (-2, -1), (0, 1)),
        "gradient of signed zeros": signed_gradient,
        "divergence": _divergence_ref(np.moveaxis(jfield, (0, 1), (-2, -1))),
        "divergence of signed zeros": _divergence_ref(np.moveaxis(dfield, (0, 1), (-2, -1))),
        "apply": apply_in_order(h, jfield),
        "flux": apply_in_order(h, signed_gradient),
        "face_average_tensors": _face_average_ref(h),
        "_relax_H": theta * planes + (1.0 - theta) * f,
        "_implicit_solve": solved[0],
    }
    # The field passes banded without a spelled-out reference here are
    # checked against their one-band result. Signed zeros in the image and
    # the gradient; radii of 1, of 4 (wider than a band of two or three
    # rows) and of 11 (wider than every axis), on every axis of the image.
    weights = {}
    for r in (1, 4, 11):
        w = rng.uniform(0.1, 1.0, 2 * r + 1)
        weights[r] = 0.5 * (w + w[::-1])
    responses = [
        ResponseParams(s=0.5, omega=omega, kind=kind, lam=0.7)
        for kind in (THRESHOLDED_PROJECTION, PERONA_MALIK_SCALAR)
        for omega in (0.0, 0.25)
    ]
    spread = rng.standard_normal((kd, 1, 24)) * 10.0 ** rng.integers(-4, 5, (kd, 1, 24))
    state = FilterState(t=0.0, u=u, H=planes)

    def banded_passes():
        return {
            **{
                f"_correlate1d radius {r} axis {axis}": _correlate1d(signed, w, axis)
                for r, w in weights.items()
                for axis in range(signed.ndim)
            },
            **{f"response_field {q}": response_field(dfield, q) for q in responses},
            # Fields of two and three cells, with bands of one cell: einsum
            # sums such a strided slice in index order, while a field of one
            # cell would round D:D differently for about a third of them.
            **{
                f"response_field of cells {i}:{i + n}": response_field(spread[..., i:i + n], p.response)
                for n in (2, 3)
                for i in range(0, spread.shape[-1], n)
            },
            "energy": np.array(energy(state, p)),
        }

    reference.update(banded_passes())
    default_chunk = grid_mod.FACE_AVERAGE_CHUNK
    default_apply_chunk = grid_mod.APPLY_CHUNK
    row = math.prod(dims[1:])
    for workers in (1, 2, 3):
        set_workers(workers)
        relaxed = planes.copy()
        _relax_H(u, relaxed, p, p.kernel())
        x, iters = _implicit_solve(b, havg, p.dt, p.cg_tol)
        assert iters == solved[1], f"CG iterations with {workers} bands"
        got = {
            "gradient": gradient(u),
            "gradient of signed zeros": gradient(signed),
            "divergence": divergence(jfield),
            "divergence of signed zeros": divergence(dfield),
            "apply": apply(h, jfield),
            "flux": flux(h, signed),
            "face_average_tensors": face_average_tensors(planes),
            "_relax_H": relaxed,
            "_implicit_solve": x,
            **banded_passes(),
        }
        for name, value in got.items():
            assert value.shape == reference[name].shape, name
            assert value.tobytes() == reference[name].tobytes(), f"{name} with {workers} bands"
        # Chunks of one row of one entry plane, and of a few rows and planes;
        # the divergence's chunks are one row and a few rows.
        for chunk in (1, 6 * row, default_chunk):
            monkeypatch.setattr(grid_mod, "FACE_AVERAGE_CHUNK", chunk)
            value = face_average_tensors(planes)
            assert value.tobytes() == reference["face_average_tensors"].tobytes(), f"{chunk}-value chunks, {workers} bands"
            value = divergence(dfield)
            assert value.tobytes() == reference["divergence of signed zeros"].tobytes(), f"{chunk}-value chunks, {workers} bands"
        # The flux's chunks: one row, a few rows, and the default.
        for chunk in (row, 3 * row, default_apply_chunk):
            monkeypatch.setattr(grid_mod, "APPLY_CHUNK", chunk)
            value = flux(h, signed)
            assert value.tobytes() == reference["flux"].tobytes(), f"{chunk}-cell flux chunks, {workers} bands"


@pytest.mark.parametrize("dims, channels", [((7, 3), 1), ((9,), 2), ((7, 3), 3)])
def test_face_tensors_view_their_packed_planes_where_kd_is_at_most_2(dims, channels, rng, set_workers):
    # For kd <= 2 the face tensors are their P packed planes, read-only, with
    # (0, 1) and (1, 0) one plane; flux's per-chunk view of them is no copy.
    # The flux, the operator and the CG give the bytes of a C-ordered copy,
    # with -0.0 off the diagonal and in the image, at 1 and 2 bands. For
    # kd > 2 they stay a writeable C-ordered square.
    kd = channels * len(dims)
    h = random_psd_field(rng, dims, kd, floor=0.1)
    h[0, -1, ::2] = h[-1, 0, ::2] = -0.0
    planes = pack(h)
    u = rng.standard_normal(dims + (channels,))
    u.reshape(-1)[::3] = -0.0
    packed = kd <= 2
    for workers in (1, 2):
        set_workers(workers)
        havg = face_average_tensors(planes)
        assert havg.tobytes() == _face_average_ref(h).tobytes(), workers
        square = np.ascontiguousarray(havg)
        assert havg.flags.writeable != packed and havg.flags.c_contiguous != packed
        assert np.shares_memory(havg.reshape(kd, kd, -1), havg)
        low, high = np.lib.array_utils.byte_bounds(havg)
        assert high - low == (planes.shape[0] if packed else kd * kd) * planes[0].nbytes
        if packed:
            with pytest.raises(ValueError, match="read-only"):
                havg[0, 0] = 0.0
        assert flux(havg, u).tobytes() == flux(square, u).tobytes(), workers
        assert divergence(flux(havg, u)).tobytes() == divergence(flux(square, u)).tobytes(), workers
        x, iters = _implicit_solve(u, havg, 0.3, 1e-8)
        x_square, iters_square = _implicit_solve(u, square, 0.3, 1e-8)
        assert iters == iters_square > 1 and x.tobytes() == x_square.tobytes(), workers
