"""Time integration of the coupled intensity/diffusivity system.

One step advances the pair (u, H) by the splitting

    1. relax H exactly:   H+ = e^(-dt/tau) H + (1 - e^(-dt/tau)) F(D),
    2. diffuse u implicitly:  (I - dt div(H+ grad)) u+ = u,

where D is the (optionally mollified) gradient sampled at a half-step
backward-Euler prediction of u. The exact exponential update is a convex
combination for every dt, so the smallest eigenvalue of H can never fall
below the decaying envelope alpha e^(-t/tau) (plus omega (1 - e^(-t/tau))
when the response carries a uniform shift) no matter how large the step.
The backward-Euler diffusion solve is a symmetric positive-definite system
handled by plain conjugate gradients; it is unconditionally L2-stable and,
because the right-hand side doubles as the initial CG guess, conserves the
per-channel mass to rounding.

Sampling F at the half-step prediction instead of the step's left endpoint
costs one extra (cheaper) solve but makes the stepped H agree with a
trapezoidal re-integration of the equivalent memory form to second order in
dt, which the diagnostics below verify. The no-relaxation baselines run the
same step loop with H = F(D) sampled at the step's left endpoint instead.

The floor is checked every step by tensors.min_eig_field, which returns the
minimum of a full diagonalisation bit for bit. A few sampled cells bound the
minimum from above, and a vectorised Cholesky of H minus that bound clears
every cell that cannot hold it. Only the cells left over are diagonalised,
so cells tied at the minimum cost eigvalsh on those cells alone.
"""

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .bands import for_bands
from .errors import FitError, ImageIOError, InvariantViolation, ParameterError, SolverError
from .grid import (
    GridSpec,
    check_image,
    divergence,
    face_average_tensors,
    gradient,
    inner,
    l2_norm,
    mean_free,
)
from .mollifier import DELTA_SIGMA, GAUSSIAN, Kernel, grad_sigma
from .response import ResponseParams, response_field, response_zero
from .tensors import apply, eigvalsh_field, min_eig_field, require_symmetric

Array = np.ndarray

KAPPA_SLACK = 1e-8  # additive slack on the eigenvalue floor check
MAX_STEPS = 10**6  # largest step count t_end / dt a run may ask for


@dataclass(frozen=True)
class FilterParams:
    """Everything one run needs besides the initial data."""

    tau: float = 0.5
    sigma: float = 1.0  # mollifier bandwidth in pixels; 0 selects the sharp limit
    dt: float = 0.1
    t_end: float = 2.0
    response: ResponseParams = field(default_factory=ResponseParams)
    alpha: float = 0.1  # eigenvalue floor of the initial diffusivity
    kernel_kind: str = GAUSSIAN
    cg_tol: float = 1e-10
    cg_max_iter: int | None = None  # default: 10 sqrt(ncells) + 200

    def __post_init__(self):
        for name in ("tau", "sigma", "dt", "t_end", "alpha", "cg_tol"):
            if not math.isfinite(getattr(self, name)):
                raise ParameterError(f"{name} must be finite")
        if self.tau <= 0:
            raise ParameterError("tau must be > 0")
        if self.sigma < 0:
            raise ParameterError("sigma must be >= 0")
        if self.dt <= 0:
            raise ParameterError("dt must be > 0")
        if not self.t_end / self.dt <= MAX_STEPS:
            raise ParameterError(f"t_end / dt must be at most {MAX_STEPS}")
        if self.t_end < 0:
            raise ParameterError("t_end must be >= 0")
        if self.alpha <= 0:
            raise ParameterError("alpha must be > 0")
        if not (0.0 < self.cg_tol <= 1e-2):
            raise ParameterError("cg_tol must lie in (0, 1e-2]")
        if self.cg_max_iter is not None and self.cg_max_iter < 1:
            raise ParameterError("cg_max_iter must be >= 1")
        self.kernel()  # a kernel that cannot be built fails here, not mid-run

    def kernel(self) -> Kernel | None:
        if self.sigma < DELTA_SIGMA:
            return None
        return Kernel(kind=self.kernel_kind, sigma=self.sigma)

    def max_iter(self, ncells: int) -> int:
        if self.cg_max_iter is not None:
            return self.cg_max_iter
        return int(10 * math.sqrt(ncells)) + 200


@dataclass
class FilterState:
    t: float
    u: Array
    H: Array


@dataclass(frozen=True)
class TraceRecord:
    t: float
    l2_norm_u: float
    mass: tuple[float, ...]
    energy: float
    min_eig_H: float
    cg_iters: int


def _require_finite(name: str, a: Array) -> None:
    """Reject NaN/inf input data once, at a run's entry."""
    if not np.all(np.isfinite(a)):
        raise ParameterError(f"{name} contains NaN or inf")


def kappa_predicted(t: float, p: FilterParams) -> float:
    """Analytic eigenvalue floor of H at time t for admissible initial data."""
    decay = math.exp(-t / p.tau)
    return p.alpha * decay + p.response.omega * (1.0 - decay)


def _implicit_solve(
    u: Array,
    havg: Array,
    dt: float,
    grid: GridSpec,
    cg_tol: float,
    max_iter: int,
    where: str = "diffusion solve",
) -> tuple[Array, int]:
    """CG solve of (I - dt div(H grad)) x = u with precomputed face tensors.

    Starting from x0 = u keeps every Krylov update in the zero-sum subspace
    (the operator preserves channel means), so the solution's per-channel
    mass matches u's to rounding regardless of the tolerance. x, r and p are
    updated in place through one scratch buffer; ``where`` names the solve
    in the SolverError raised when the tolerance is not reached.
    """

    def apply_a(x: Array) -> Array:
        out = divergence(apply(havg, gradient(x, grid)), grid)
        out *= dt
        return np.subtract(x, out, out=out)

    b_nrm = math.sqrt(inner(u, u, grid))
    if b_nrm == 0.0:
        return np.zeros_like(u), 0
    x = u.copy()
    r = u - apply_a(x)
    p = r.copy()
    tmp = np.empty_like(u)
    rs = inner(r, r, grid)
    if math.sqrt(rs) <= cg_tol * b_nrm:
        return x, 0
    for it in range(1, max_iter + 1):
        ap = apply_a(p)
        pap = inner(p, ap, grid)
        if not pap > 0.0:  # the operator is SPD: only rounding at extreme scales gets here
            raise SolverError(f"{where}: CG broke down at iteration {it}", residual=math.sqrt(rs) / b_nrm)
        alpha = rs / pap
        x += np.multiply(p, alpha, out=tmp)
        r -= np.multiply(ap, alpha, out=tmp)
        rs_new = inner(r, r, grid)
        if math.sqrt(rs_new) <= cg_tol * b_nrm:
            return x, it
        p *= rs_new / rs
        p += r
        rs = rs_new
    raise SolverError(
        f"{where}: CG did not reach tol {cg_tol:g} in {max_iter} iterations",
        residual=math.sqrt(rs) / b_nrm,
    )


def _relax_H(u_sample: Array, h: Array, p: FilterParams, grid: GridSpec, kern: Kernel | None) -> None:
    """Exact relaxation of h over one step, in place, with F frozen at u_sample.

    h becomes theta h + (1 - theta) F, each element by the same two products
    and one sum as the out-of-place expression, in row bands and with no
    field-sized temporary besides F itself.
    """
    f = response_field(grad_sigma(u_sample, kern, grid), p.response)
    theta = math.exp(-p.dt / p.tau)

    def band(start: int, stop: int) -> None:
        hb, fb = h[start:stop], f[start:stop]
        hb *= theta
        fb *= 1.0 - theta
        hb += fb

    for_bands(band, h.shape[0], h.size + f.size)


def energy(state: FilterState, p: FilterParams, grid: GridSpec) -> float:
    """Discrete energy: half the mean-free intensity mass plus the H misfit.

    E = 1/2 ||u - mean||^2 + tau/2 ||H - F(0)||^2 (plain sums over cells).
    The per-channel mean is removed from u because the flux form conserves
    it exactly; convergence toward the flat image happens in the mean-free
    part, which is what this functional measures.
    """
    umf = mean_free(state.u, grid)
    term_u = 0.5 * inner(umf, umf, grid)
    f0 = response_zero(p.response, grid.channels, grid.ndim)
    diff = np.asarray(state.H, dtype=float) - f0
    term_h = 0.5 * p.tau * inner(diff, diff, grid)
    return term_u + term_h


def _num_steps(p: FilterParams) -> int:
    if p.t_end <= 0:
        return 0
    n = p.t_end / p.dt
    return max(1, int(math.ceil(n - 1e-9)))


def _step_loop(u: Array, h: Array | None, p: FilterParams, grid: GridSpec, keep_history: bool = False):
    """The step loop of run() and run_baseline(), from validated (u, H).

    With H given, every step relaxes H toward the response sampled at a
    half-step backward-Euler prediction of u, checks the eigenvalue floor of
    the relaxed H and solves for the new u with it. With H None (no relaxation,
    the tau -> 0 limit) every step sets H = F(grad_sigma u) at the step's left
    endpoint instead, with no half solve and no floor check.

    Returns (final FilterState, per-step TraceRecords, history), history
    being the (u, H) lists at the step nodes with keep_history, else None.
    """
    relax = h is not None
    kern = p.kernel()
    max_iter = p.max_iter(grid.ncells)
    t = 0.0
    traces: list[TraceRecord] = []
    history = ([u.copy()], [h.copy()]) if keep_history else None
    # The face tensors of each step's relaxed H serve its main solve and the
    # next step's half-step solve.
    havg = face_average_tensors(h, grid) if relax else None
    for n in range(_num_steps(p)):
        t = (n + 1) * p.dt
        step = f"of step {n + 1} (t={t:g})"
        if relax:
            # Half-step prediction of u fixes the response sample near the
            # step midpoint (second-order consistency with the memory form)
            # while the H-update itself stays the exact convex-combination
            # relaxation.
            u_half, _ = _implicit_solve(u, havg, 0.5 * p.dt, grid, p.cg_tol, max_iter, f"half solve {step}")
        # The old face tensors are dead now, and so is the old H without
        # relaxation. Dropping them before the response allocates its
        # temporaries lowers a step's peak memory by one H field or two.
        havg = None
        if relax:
            _relax_H(u_half, h, p, grid, kern)
            del u_half  # not read again; held, it would add an image field to the step's peak
        else:
            h = None
            h = response_field(grad_sigma(u, kern, grid), p.response)
        # The floor check runs before the face tensors exist, so its
        # Cholesky blocks share the memory with H alone.
        min_eig = min_eig_field(h)
        kappa = kappa_predicted(t, p)
        if relax and min_eig < kappa - KAPPA_SLACK:
            eigs = eigvalsh_field(h)
            cell = np.unravel_index(int(np.argmin(eigs[..., 0])), grid.dims)
            raise InvariantViolation(
                f"diffusivity eigenvalue floor broken at t={t:g}: "
                f"min eig {min_eig:.12g} < predicted {kappa:.12g} at cell {cell}",
                diagnostic={
                    "t": t,
                    "cell": cell,
                    "kappa_predicted": kappa,
                    "min_eig": min_eig,
                    "tensor": h[cell].copy(),
                    "eigenvalues": eigs[cell].copy(),
                },
            )
        havg = face_average_tensors(h, grid)
        u, iters = _implicit_solve(
            u, havg, p.dt, grid, p.cg_tol, max_iter, f"{'main' if relax else 'baseline'} solve {step}"
        )
        if not np.all(np.isfinite(u)):
            raise InvariantViolation(
                f"intensity field became non-finite at t={t:g}",
                diagnostic={"t": t, "step": n + 1},
            )
        traces.append(
            TraceRecord(
                t=t,
                l2_norm_u=l2_norm(u, grid),
                mass=tuple(u.reshape(-1, grid.channels).sum(axis=0)),
                energy=energy(FilterState(t=t, u=u, H=h), p, grid),
                min_eig_H=min_eig,
                cg_iters=iters,
            )
        )
        if keep_history:
            history[0].append(u.copy())
            history[1].append(h.copy())
    return FilterState(t=t, u=u, H=h), traces, history


def run(
    u0: Array,
    H0: Array,
    p: FilterParams,
    grid: GridSpec,
    keep_history: bool = False,
):
    """Integrate the coupled system from (u0, H0) until t >= t_end.

    Returns (final FilterState, list of per-step TraceRecords); with
    keep_history=True a third element carries the full (u, H) trajectories
    at the step nodes, which the memory-form diagnostic consumes.

    Raises InvariantViolation (with a diagnostic dump of the offending cell)
    if any cell's smallest eigenvalue drops below the predicted floor,
    ParameterError if u0 or H0 holds NaN/inf or the initial diffusivity does
    not clear alpha, and SymmetryError if a cell tensor of H0 is not symmetric.

    The floor check is certified rather than computed cell by cell: a Cholesky
    factorisation of H minus a sampled upper bound on its smallest eigenvalue
    clears every cell that cannot hold the minimum, and eigvalsh runs on the
    rest, so ties cost eigvalsh on the tied cells only. The recorded
    min_eig_H equals the minimum over a full diagonalisation bit for bit, and
    only a broken floor diagonalises every cell, to name the offending one.
    """
    u = check_image(u0, grid)
    _require_finite("u0", u)
    h = np.asarray(H0, dtype=float).copy()
    kd = grid.channels * grid.ndim
    if h.shape != grid.dims + (kd, kd):
        raise ParameterError(f"H0 shape {h.shape} != {grid.dims + (kd, kd)}")
    _require_finite("H0", h)
    require_symmetric(h)  # the floor check reads one triangle; CG needs a symmetric operator
    init_min = min_eig_field(h)
    if init_min < p.alpha - 1e-12:
        raise ParameterError(
            "initial diffusivity violates the alpha eigenvalue floor: "
            f"min eig {init_min:.6g} < alpha {p.alpha:g}"
        )
    # Only the step loop holds run()'s copy of u, so each solve frees the last u.
    final, traces, history = _step_loop(u.copy(), h, p, grid, keep_history)
    return (final, traces, history) if keep_history else (final, traces)


def decay_rate_fit(traces: list[TraceRecord]) -> float:
    """Least-squares slope of log E(t) over the second half of the trace."""
    if len(traces) < 10:
        raise FitError("need at least 10 trace records to fit a decay rate")
    half = traces[len(traces) // 2 :]
    es = np.array([r.energy for r in half])
    if np.any(es <= 0.0):
        raise FitError("nonpositive energies in the fit window")
    ts = np.array([r.t for r in half])
    slope = np.polyfit(ts, np.log(es), 1)[0]
    return float(slope)


def memory_form_check(
    u0: Array,
    H0: Array,
    p: FilterParams,
    steps: int,
    grid: GridSpec,
) -> float:
    """Largest cell-wise gap between stepped H and its memory-form integral.

    The relaxation law is equivalent to the Volterra form

        H(t) = e^(-t/tau) H0
               + (1/tau) * integral_0^t e^(-(t-s)/tau) F(grad_sigma u(s)) ds,

    whose kernel-weighted integral is re-evaluated here from the stored u
    trajectory with trapezoidal averaging of the response samples under the
    exact exponential weights (so a constant response reproduces the stepped
    trajectory identically). Returns max over steps and cells of the
    Frobenius gap; it shrinks as O(dt^2).
    """
    if steps < 0:
        raise ParameterError("steps must be >= 0")
    if steps == 0:
        return 0.0
    p_run = replace(p, t_end=steps * p.dt)
    _, _, (us, hs) = run(u0, H0, p_run, grid, keep_history=True)

    kern = p.kernel()
    fs = [response_field(grad_sigma(un, kern, grid), p.response) for un in us]
    theta = math.exp(-p.dt / p.tau)
    q = np.asarray(H0, dtype=float).copy()
    worst = 0.0
    for n in range(steps):
        q = theta * q + (1.0 - theta) * 0.5 * (fs[n] + fs[n + 1])
        gap = (q - hs[n + 1]).reshape(grid.dims + (-1,))
        worst = max(worst, float(np.max(np.sqrt(np.sum(gap * gap, axis=-1)))))
    return worst


def write_trace_csv(traces: list[TraceRecord], path: str, channels: int) -> None:
    """Trace export: one row per step, floats at 17 significant digits."""
    mass_cols = ",".join(f"mass_c{c}" for c in range(channels))
    lines = [f"t,l2_norm_u,{mass_cols},energy,min_eig_H,cg_iters"]
    for r in traces:
        if len(r.mass) != channels:
            raise ParameterError("trace channel count does not match header")
        masses = ",".join(f"{m:.17g}" for m in r.mass)
        lines.append(
            f"{r.t:.17g},{r.l2_norm_u:.17g},{masses},"
            f"{r.energy:.17g},{r.min_eig_H:.17g},{r.cg_iters}"
        )
    try:
        with open(path, "w", encoding="ascii", newline="\n") as fh:
            fh.write("\n".join(lines) + "\n")
    except OSError as exc:
        raise ImageIOError(f"cannot write trace file: {path}: {exc}") from exc
