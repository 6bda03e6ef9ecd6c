"""Peak memory of init_H0 and run(), counted in H fields (h0.nbytes).

At 64 x 64 RGB one H field is 6 x 6 float64 per cell, 1.7 MiB, against
0.1 MiB for the image, so the fields of tensors set the peak. tracemalloc
sees numpy's data buffers; what a call still holds when it returns counts
too.
"""

import tracemalloc

import numpy as np

from relaxdiff.grid import GridSpec
from relaxdiff.initial import init_H0
from relaxdiff.integrate import FilterParams, run


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
    grid = GridSpec(dims=(64, 64), channels=3)
    rng = np.random.default_rng(8)
    tiles = rng.uniform(-0.8, 0.8, (8, 8, 3))
    u0 = np.kron(tiles, np.ones((8, 8, 1))) + 0.1 * rng.standard_normal(grid.field_shape())
    h0, init_peak = traced_peak(lambda: init_H0(u0, grid, window=5, alpha=0.1))
    # H0 exists before tracing starts: run()'s own copy of it counts, H0 does not.
    _, run_peak = traced_peak(lambda: run(u0, h0, FilterParams(t_end=0.3), grid))
    assert init_peak <= 3 * h0.nbytes, init_peak / h0.nbytes
    assert run_peak <= 3.35 * h0.nbytes, run_peak / h0.nbytes
