"""Peak memory of init_H0, run(), the relaxation, the energy, the memory-form
check and the grey catte baseline.

At 64 x 64 RGB one full-square H field is 6 x 6 float64 per cell, 1.7 MiB,
against 0.1 MiB for the image, so the fields of tensors set the peak, and it
is counted in full-square H fields (h_field_bytes), though H itself is held
packed, 21 of the 36 planes. In grey the tensors are 2 x 2, so the CG's
image-sized vectors and temporaries weigh as much as the tensors, and the
peak is counted in image fields. tracemalloc sees numpy's data buffers;
what a call still holds when it returns counts too.
"""

import tracemalloc
from dataclasses import replace

import numpy as np

from relaxdiff.baselines import run_baseline
from relaxdiff.grid import GridSpec, inner, mean_free
from relaxdiff.initial import init_H0
from relaxdiff.integrate import FilterParams, _relax_H, energy, memory_form_check, run
from relaxdiff.response import response_zero
from relaxdiff.tensors import unpack

from conftest import rgb_scene


def traced_peak(fn):
    """fn()'s result and the peak bytes traced while it ran."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = fn()
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    return result, peak


def h_field_bytes(grid):
    """Bytes of one full-square H field, (kd, kd) + dims in float64: the unit of the RGB bounds."""
    kd = grid.channels * grid.ndim
    return kd * kd * grid.ncells * 8


def test_peaks_in_H_fields():
    u0, grid = rgb_scene()
    unit = h_field_bytes(grid)
    p = FilterParams(t_end=0.3)
    # init_H0's packed result (0.58) and its window sums of the gradient.
    h0, init_peak = traced_peak(lambda: init_H0(u0, window=5, alpha=0.1))
    # H0 exists before tracing starts: run()'s copy of it counts, H0 does
    # not. The main solve holds the peak: the packed H (0.58) and the
    # full-square face tensors are 1.58 H fields, the CG's vectors and the
    # operator's temporaries the rest. A full-square H would add 0.42.
    _, run_peak = traced_peak(lambda: run(u0, h0, p))
    # The CLI's sequence: init_H0's packed result, passed inline, is freed
    # once run() has copied it, so the sequence peaks as run() does (2.36;
    # 2.94 while run() held its H0 to the end).
    _, cli_peak = traced_peak(lambda: run(u0, init_H0(u0, window=5, alpha=0.1), p))
    assert init_peak <= 1.41 * unit, init_peak / unit
    assert run_peak <= 2.38 * unit, run_peak / unit
    assert cli_peak <= 2.40 * unit, cli_peak / unit


def test_relaxation_holds_F_as_21_planes():
    # _relax_H on the packed H: F is 21 planes, 0.58 of an H field, and the
    # mollified gradient, D:D and the response's coefficients add about
    # 0.31. A full-square F alone would be 1.0.
    u0, grid = rgb_scene()
    p = FilterParams(t_end=0.3)
    h = init_H0(u0, window=5, alpha=0.1)
    full = h_field_bytes(grid)
    _, peak = traced_peak(lambda: _relax_H(u0, h, p, grid, p.kernel()))
    assert peak <= 0.92 * full, peak / full


def test_energy_sums_plane_by_plane_in_a_fraction_of_an_H_field():
    u0, grid = rgb_scene()
    p = FilterParams(t_end=0.3)
    state, _ = run(u0, init_H0(u0, window=5, alpha=0.1), p)
    # Reference: the mean-free term, then ||H - F(0)||^2 summed one entry
    # plane at a time in row-major order.
    f0 = unpack(response_zero(p.response, grid.channels, grid.ndim))
    h = unpack(state.H)
    umf = mean_free(state.u, grid)
    misfit = 0.0
    for a in range(f0.shape[0]):
        for b in range(f0.shape[1]):
            plane = h[a, b] - f0[a, b]
            misfit += inner(plane, plane)
    expected = 0.5 * inner(umf, umf) + 0.5 * p.tau * misfit
    got, peak = traced_peak(lambda: energy(state, p))
    assert got.hex() == expected.hex()
    # An image field (the mean-free u) is 1/12 of an H field and an entry
    # plane 1/36: nothing H-sized is made.
    assert peak <= 0.2 * h_field_bytes(grid), peak / h_field_bytes(grid)


def test_memory_form_check_peak_is_flat_in_the_step_count():
    # The steps arrive one at a time from trajectory(), so nothing grows
    # with their count: one bound holds at 3 and at 24 steps (measured 3.77
    # and 3.79 H fields; a stored history took 7.02 and 21.02). q's update
    # and the squared gap run in place, in the older response sample, and
    # the gap's Frobenius sum adds its packed planes cell by cell (out of
    # place they took 5.47, and an unpacked gap 4.45). The bound allows 0.1
    # over the measured peak, less than one packed temporary (0.58).
    u0, grid = rgb_scene()
    h0 = init_H0(u0, window=5, alpha=0.1)
    unit = h_field_bytes(grid)
    p = FilterParams()
    for steps in (3, 24):
        _, peak = traced_peak(lambda: memory_form_check(u0, h0, replace(p, t_end=steps * p.dt)))
        assert peak <= 3.90 * unit, (steps, peak / unit)


def test_grey_catte_peak_in_image_fields():
    # The CG operator holds this peak, in the divergence of the flux: about
    # 11 image fields of the packed H (3), the face tensors (4) and CG
    # vectors, the flux (2), and the divergence's output and temporaries. At
    # 128 x 128 grey every kernel runs as one band, whatever the CPU count.
    # The bound allows a quarter of an image field over the measured 15.67,
    # less than any temporary the size of an image field.
    grid = GridSpec(dims=(128, 128), channels=1)
    rng = np.random.default_rng(8)
    tiles = rng.uniform(-0.8, 0.8, (8, 8, 1))
    u0 = np.kron(tiles, np.ones((16, 16, 1))) + 0.1 * rng.standard_normal(grid.field_shape())
    _, peak = traced_peak(lambda: run_baseline(u0, FilterParams(t_end=0.3)))
    assert peak <= (15.67 + 0.25) * u0.nbytes, peak / u0.nbytes
