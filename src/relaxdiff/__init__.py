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
"""

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
