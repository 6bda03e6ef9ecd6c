"""Reference filters for limit studies.

Both baselines skip the relaxation dynamics: they drain the filter's own step
loop (integrate._step_loop) in its no-relaxation mode, which sets the
diffusivity to F(grad_sigma u) at each step's left endpoint and then performs
the same backward-Euler diffusion solve, so any difference in behavior
isolates the H dynamics rather than the spatial scheme.

The mollified variant is the tau -> 0 limit of the relaxation filter. The
scalar variant is the same loop with sigma = 0 and the Perona-Malik response:
the classical edge-stopping diffusion, analytically ill-posed and provided
for demonstration only (use small steps, no stability guarantee).
"""

import math
import warnings
from dataclasses import replace

import numpy as np

from .errors import DimensionError, ParameterError
from .grid import GridSpec, check_image
from .integrate import FilterParams, TraceRecord, _drain, _require_finite, _step_loop

# bench/child.py wraps these names when tracing. The step loop looks them up
# in integrate, so only the wrappers there see calls.
from .integrate import (  # noqa: F401
    _implicit_solve, eigvalsh_field, energy, face_average_tensors,
    grad_sigma, gradient, l2_norm, response_field,
)
from .mollifier import DELTA_SIGMA
from .response import PERONA_MALIK_SCALAR

Array = np.ndarray

CATTE_REGULARIZED = "catte_regularized"
PERONA_MALIK = "perona_malik"


def run_baseline(
    u0: Array,
    p: FilterParams,
    kind: str,
    grid: GridSpec,
):
    """Run a no-relaxation filter; returns (final image, trace records).

    The mollified kind requires sigma >= DELTA_SIGMA (0.5), below which the
    kernel is the identity. The scalar kind ignores sigma and the response
    kind in p. tau in p only scales the energy diagnostic; it does not enter
    the dynamics.
    """
    if kind not in (CATTE_REGULARIZED, PERONA_MALIK):
        raise ParameterError(f"unknown baseline kind {kind!r}")
    if kind == CATTE_REGULARIZED and p.sigma < DELTA_SIGMA:
        raise ParameterError(f"the mollified baseline requires sigma >= {DELTA_SIGMA:g}")
    u = check_image(u0, grid)
    _require_finite("u0", u)
    if kind == PERONA_MALIK:
        warnings.warn(
            "unmollified scalar edge-stopping diffusion is ill-posed; "
            "use small dt and expect no stability guarantee",
            stacklevel=2,
        )
        p = replace(p, sigma=0.0, response=replace(p.response, kind=PERONA_MALIK_SCALAR))
    final, traces = _drain(_step_loop(u.copy(), None, p, grid))
    return final.u, traces


def compare_trajectories(a: list[TraceRecord], b: list[TraceRecord]) -> float:
    """Discrete L2-in-time distance between the u-norm traces of two runs.

    Both traces must live on the same step grid. For traces differing by a
    constant delta over n steps of size dt this equals delta * sqrt(n * dt).
    """
    if len(a) != len(b):
        raise DimensionError(f"trace lengths differ: {len(a)} vs {len(b)}")
    total = 0.0
    t_prev = 0.0
    for ra, rb in zip(a, b):
        if abs(ra.t - rb.t) > 1e-9 * max(1.0, abs(ra.t)):
            raise DimensionError(f"trace time grids differ at t={ra.t} vs {rb.t}")
        dt = ra.t - t_prev
        total += dt * (ra.l2_norm_u - rb.l2_norm_u) ** 2
        t_prev = ra.t
    return math.sqrt(total)
