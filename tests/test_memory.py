"""Peak memory of init_H0, run(), the relaxation, the energy and the grey catte baseline.

At 64 x 64 RGB one H field is 6 x 6 float64 per cell, 1.7 MiB, against
0.1 MiB for the image, so the fields of tensors set the peak, and it is
counted in H fields (h0.nbytes). In grey the tensors are 2 x 2, so the CG's
image-sized vectors and temporaries weigh as much as the tensors, and the
peak is counted in image fields. tracemalloc sees numpy's data buffers;
what a call still holds when it returns counts too.
"""

import tracemalloc

import numpy as np

from relaxdiff.baselines import CATTE_REGULARIZED, run_baseline
from relaxdiff.grid import GridSpec, inner, mean_free
from relaxdiff.initial import init_H0
from relaxdiff.integrate import FilterParams, _relax_H, energy, run
from relaxdiff.response import response_zero
from relaxdiff.tensors import pack, unpack

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


def test_peaks_in_H_fields():
    u0, grid = rgb_scene()
    h0, init_peak = traced_peak(lambda: init_H0(u0, grid, window=5, alpha=0.1))
    # H0 exists before tracing starts: run()'s packed copy of it counts, H0
    # does not. The main solve holds the peak: the packed H (21/36 of an H
    # field) and the full-square face tensors are 1.58 of its H fields, the
    # CG's vectors and the operator's temporaries the rest. A full-square H
    # would add 0.42.
    _, run_peak = traced_peak(lambda: run(u0, h0, FilterParams(t_end=0.3), grid))
    assert init_peak <= 3 * h0.nbytes, init_peak / h0.nbytes
    assert run_peak <= 2.38 * h0.nbytes, run_peak / h0.nbytes


def test_relaxation_holds_F_as_21_planes():
    # _relax_H on the packed H: F is 21 planes, 0.58 of an H field, and the
    # mollified gradient, D:D and the response's coefficients add about
    # 0.31. A full-square F alone would be 1.0.
    u0, grid = rgb_scene()
    p = FilterParams(t_end=0.3)
    h = pack(init_H0(u0, grid, window=5, alpha=0.1))
    full = h.nbytes * 36 // 21
    _, peak = traced_peak(lambda: _relax_H(u0, h, p, grid, p.kernel()))
    assert peak <= 0.92 * full, peak / full


def test_energy_sums_plane_by_plane_in_a_fraction_of_an_H_field():
    u0, grid = rgb_scene()
    p = FilterParams(t_end=0.3)
    state, _ = run(u0, init_H0(u0, grid, window=5, alpha=0.1), p, grid)
    # Reference: the mean-free term, then ||H - F(0)||^2 summed one entry
    # plane at a time in row-major order.
    f0 = unpack(response_zero(p.response, grid.channels, grid.ndim))
    umf = mean_free(state.u, grid)
    misfit = 0.0
    for a in range(f0.shape[0]):
        for b in range(f0.shape[1]):
            plane = state.H[a, b] - f0[a, b]
            misfit += inner(plane, plane)
    expected = 0.5 * inner(umf, umf) + 0.5 * p.tau * misfit
    got, peak = traced_peak(lambda: energy(state, p, grid))
    assert got.hex() == expected.hex()
    # An image field (the mean-free u) is 1/12 of an H field and an entry
    # plane 1/36: nothing H-sized is made.
    assert peak <= 0.2 * state.H.nbytes, peak / state.H.nbytes


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
    _, peak = traced_peak(lambda: run_baseline(u0, FilterParams(t_end=0.3), CATTE_REGULARIZED, grid))
    assert peak <= (15.67 + 0.25) * u0.nbytes, peak / u0.nbytes
