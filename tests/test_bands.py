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
from relaxdiff.grid import GridSpec, divergence, face_average_tensors, gradient
from relaxdiff.integrate import FilterParams, _relax_H
from relaxdiff.mollifier import grad_sigma
from relaxdiff.response import response_field
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


def _gradient_ref(u, grid):
    d = grid.ndim
    out = np.zeros(grid.dims + (grid.channels, d))
    for j in range(d):
        lo = [slice(None)] * d
        hi = [slice(None)] * d
        lo[j], hi[j] = slice(0, -1), slice(1, None)
        out[tuple(lo) + (slice(None), j)] = u[tuple(hi)] - u[tuple(lo)]
    return out


def _divergence_ref(jfield, grid):
    d = grid.ndim
    out = np.zeros(grid.field_shape())
    for j in range(d):
        lo = [slice(None)] * d
        hi = [slice(None)] * d
        lo[j], hi[j] = slice(0, -1), slice(1, None)
        f = jfield[..., j][tuple(lo)]
        out[tuple(lo)] += f
        out[tuple(hi)] -= f
    return out


def _face_average_ref(hfield, grid):
    d = grid.ndim
    out = np.zeros_like(hfield)
    count = np.zeros(grid.dims)
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
    grid = GridSpec(dims=dims, channels=channels)
    kd = channels * grid.ndim
    u = rng.standard_normal(grid.field_shape())
    jfield = rng.standard_normal((channels, grid.ndim) + grid.dims)
    h = random_psd_field(rng, dims, kd, floor=0.1)
    # Face terms of -0.0: a sum that starts from 0.0 makes them +0.0, and the
    # far corner keeps its own -0.0.
    h[0, -1, :2] = h[-1, 0, :2] = -0.0
    h[0, -1, -1] = h[-1, 0, -1] = -0.0
    planes = pack(h)  # the face averaging and the relaxation take H packed
    p = FilterParams(tau=0.4, sigma=1.0, dt=0.3)
    theta = math.exp(-p.dt / p.tau)
    f = response_field(grad_sigma(u, p.kernel(), grid), p.response)
    reference = {
        "gradient": np.moveaxis(_gradient_ref(u, grid), (-2, -1), (0, 1)),
        "divergence": _divergence_ref(np.moveaxis(jfield, (0, 1), (-2, -1)), grid),
        "apply": apply_in_order(h, jfield),
        "face_average_tensors": _face_average_ref(h, grid),
        "_relax_H": theta * planes + (1.0 - theta) * f,
    }
    default_chunk = grid_mod.FACE_AVERAGE_CHUNK
    for workers in (1, 2, 3):
        set_workers(workers)
        relaxed = planes.copy()
        _relax_H(u, relaxed, p, grid, p.kernel())
        got = {
            "gradient": gradient(u, grid),
            "divergence": divergence(jfield, grid),
            "apply": apply(h, jfield),
            "face_average_tensors": face_average_tensors(planes, grid),
            "_relax_H": relaxed,
        }
        for name, value in got.items():
            assert value.shape == reference[name].shape, name
            assert value.tobytes() == reference[name].tobytes(), f"{name} with {workers} bands"
        # Chunks of one row of one entry plane, and of a few rows and planes.
        for chunk in (1, 6 * math.prod(dims[1:]), default_chunk):
            monkeypatch.setattr(grid_mod, "FACE_AVERAGE_CHUNK", chunk)
            value = face_average_tensors(planes, grid)
            assert value.tobytes() == reference["face_average_tensors"].tobytes(), f"{chunk}-value chunks, {workers} bands"
