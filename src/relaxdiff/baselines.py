"""Reference filters for limit studies.

run_baseline skips the relaxation dynamics: it drains the filter's own step
loop (integrate._step_loop) in its no-relaxation mode, which sets the
diffusivity to F(grad_sigma u) at each step's left endpoint and then performs
the same backward-Euler diffusion solve, so any difference in behavior
isolates the H dynamics rather than the spatial scheme.

It runs the FilterParams it is given. Mollified (sigma >= 0.5), the
thresholded projection response gives the tau -> 0 limit of the relaxation
filter and the scalar response Catte et al.'s model. Unmollified, the scalar
response is the classical Perona-Malik diffusion, analytically ill-posed and
provided for demonstration only (use small steps, no stability guarantee);
the projection response needs the mollifier.
"""

import math
import warnings

import numpy as np

from .errors import DimensionError, ParameterError
from .grid import check_image
from .integrate import FilterParams, FilterState, TraceRecord, _drain, _step_loop

# bench/child.py wraps these names when tracing. The step loop looks them up
# in integrate, so only the wrappers there see calls.
from .integrate import (  # noqa: F401
    _implicit_solve, eigvalsh_field, energy, face_average_tensors,
    grad_sigma, gradient, l2_norm, response_field,
)
from .mollifier import DELTA_SIGMA
from .response import THRESHOLDED_PROJECTION

Array = np.ndarray


def run_baseline(u0: Array, p: FilterParams) -> tuple[FilterState, list[TraceRecord]]:
    """Run the no-relaxation filter of p on the image u0; returns (final FilterState, traces), as run() does.

    The final state's H is the last step's response, None without steps.
    The thresholded projection response requires sigma >= DELTA_SIGMA (0.5),
    below which p has no kernel; the scalar response runs without one but
    warns that it is ill-posed there. tau in p only scales the energy
    diagnostic; it does not enter the dynamics.
    """
    kern = p.kernel()
    if kern is None and p.response.kind == THRESHOLDED_PROJECTION:
        raise ParameterError(f"the mollified baseline requires sigma >= {DELTA_SIGMA:g}")
    u = check_image("u0", u0)
    if kern is None:
        warnings.warn(
            "unmollified scalar edge-stopping diffusion is ill-posed; "
            "use small dt and expect no stability guarantee",
            stacklevel=2,
        )
    steps = _step_loop(u.copy(), None, p, None)
    del u0, u  # as in run(): the step loop holds its own copy
    return _drain(steps)


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
