"""Multicolor anisotropic image denoising with a relaxed diffusivity tensor.

The filter evolves a k-channel image u by the flux-form diffusion
d/dt u = div(H grad u) while the per-pixel fourth-order diffusivity tensor H
relaxes toward a gradient-dependent response, tau d/dt H + H = F(grad u),
under no-flux boundary conditions. Modules:

- tensors:    fourth-order tensors applied to k x d matrices, eigenvalue floor
- response:   thresholded projection and scalar responses as one field function, Lipschitz bound
- mollifier:  lattice smoothing kernels and the regularized gradient
- grid:       discrete gradient/divergence/face tensors with exact adjointness
- initial:    [0, 1] <-> [-1, 1] working range, seeded noise, initial diffusivity
- integrate:  the coupled time stepper plus energy/decay/memory diagnostics
- baselines:  no-relaxation reference filters and trajectory comparison
- cli:        PPM/PGM pipeline front end

The root exports the entry points, their parameter types and diagnostics.
The entry points take the image, dims + (k,), whose shape is the grid, and
check it once (grid.check_image); the kernels stay in their modules and
read dims, k and d from the arrays they are given.

Importing the package before numpy loads numpy with one OpenBLAS thread.
The package calls no threaded BLAS: its field-sized sums are einsum loops
and its eigensolves work on cells of at most a few rows. OpenBLAS would
otherwise start a worker per further CPU as numpy loads, each spinning for
a tenth of a second of CPU before it sleeps. OPENBLAS_NUM_THREADS is set
for the import alone and then removed, so the environment is left as it
was found; a user who set it, GOTO_NUM_THREADS or OMP_NUM_THREADS, or who
imported numpy first, keeps their own setting.
"""


def _import_numpy_on_one_blas_thread() -> None:
    import os
    import sys

    if "numpy" in sys.modules or any(
        name in os.environ for name in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
    ):
        return
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        import numpy  # noqa: F401
    finally:
        del os.environ["OPENBLAS_NUM_THREADS"]


_import_numpy_on_one_blas_thread()

from .grid import poincare_estimate
from .initial import NoiseSpec, add_noise, init_H0, rescale, unrescale
from .integrate import (
    FilterParams,
    FilterState,
    TraceRecord,
    decay_rate_fit,
    energy,
    memory_form_check,
    run,
    trajectory,
    write_trace_csv,
)
from .baselines import compare_trajectories, run_baseline
from .response import ResponseParams, lipschitz_bound

__all__ = [
    "poincare_estimate",
    "NoiseSpec",
    "add_noise",
    "init_H0",
    "rescale",
    "unrescale",
    "FilterParams",
    "FilterState",
    "TraceRecord",
    "decay_rate_fit",
    "energy",
    "memory_form_check",
    "run",
    "trajectory",
    "write_trace_csv",
    "compare_trajectories",
    "run_baseline",
    "ResponseParams",
    "lipschitz_bound",
]

__version__ = "0.1.0"
