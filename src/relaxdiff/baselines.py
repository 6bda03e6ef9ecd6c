"""Reference filters for limit studies.

Both baselines skip the relaxation dynamics and set the diffusivity
directly from the current gradient each step, then perform the same
semi-implicit diffusion solve as the main filter, so any difference in
behavior isolates the H dynamics rather than the spatial scheme.

The mollified variant is the tau -> 0 limit of the relaxation filter. The
scalar variant without mollification is the classical edge-stopping
diffusion; it is analytically ill-posed and provided for demonstration only
(use small steps, no stability guarantee).
"""

import math
import warnings
from dataclasses import replace

import numpy as np

from .errors import DimensionError, ParameterError
from .grid import GridSpec, check_image, face_average_tensors, gradient, l2_norm
from .integrate import (
    FilterParams,
    FilterState,
    TraceRecord,
    _implicit_solve,
    _num_steps,
    _require_finite,
    energy,
)
from .mollifier import grad_sigma
from .response import (
    PERONA_MALIK_SCALAR,
    ResponseParams,
    response_field,
    response_pm_field,
)
from .tensors import eigvalsh_field  # noqa: F401  bench/child.py wraps this name when tracing
from .tensors import min_eig_field

Array = np.ndarray

CATTE_REGULARIZED = "catte_regularized"
PERONA_MALIK = "perona_malik"


def run_baseline(
    u0: Array,
    p: FilterParams,
    kind: str,
    grid: GridSpec | None = None,
):
    """Run a no-relaxation filter; returns (final image, trace records).

    The mollified kind requires sigma > 0. tau in p only scales the energy
    diagnostic; it does not enter the dynamics.
    """
    if kind not in (CATTE_REGULARIZED, PERONA_MALIK):
        raise ParameterError(f"unknown baseline kind {kind!r}")
    if kind == CATTE_REGULARIZED and p.kernel() is None:
        raise ParameterError("the mollified baseline requires sigma > 0")
    if grid is None:
        grid = GridSpec.from_field(u0)
    u = check_image(u0, grid).copy()
    _require_finite("u0", u)

    if kind == PERONA_MALIK:
        warnings.warn(
            "unmollified scalar edge-stopping diffusion is ill-posed; "
            "use small dt and expect no stability guarantee",
            stacklevel=2,
        )
        resp = p.response
        if resp.kind != PERONA_MALIK_SCALAR:
            resp = ResponseParams(
                s=p.response.s, omega=p.response.omega, kind=PERONA_MALIK_SCALAR, lam=p.response.lam
            )
    else:
        resp = p.response

    kern = p.kernel()
    max_iter = p.max_iter(grid.ncells)
    p_energy = replace(p, response=resp)
    traces: list[TraceRecord] = []
    for n in range(_num_steps(p)):
        t = (n + 1) * p.dt
        if kind == CATTE_REGULARIZED:
            d = grad_sigma(u, kern, grid)
            h = response_field(d, resp)
        else:
            d = gradient(u, grid)
            h = response_pm_field(d, resp)
        havg = face_average_tensors(h, grid)
        u, iters = _implicit_solve(
            u, havg, p.dt, grid, p.cg_tol, max_iter, f"baseline solve of step {n + 1} (t={t:g})"
        )
        state_now = FilterState(t=t, u=u, H=h, kappa_predicted=0.0)
        traces.append(
            TraceRecord(
                t=t,
                l2_norm_u=l2_norm(u, grid),
                mass=tuple(grid.cell_volume * s for s in u.reshape(-1, grid.channels).sum(axis=0)),
                energy=energy(state_now, p_energy, grid),
                min_eig_H=min_eig_field(h),
                cg_iters=iters,
            )
        )
    return u, traces


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
