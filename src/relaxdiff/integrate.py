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
handled by plain conjugate gradients; it is unconditionally L2-stable and
conserves the per-channel mass to rounding at any dt: the right-hand side
doubles as the initial CG guess, and each solve ends by putting back the
channel means its updates lost to rounding.

Sampling F at the half-step prediction instead of the step's left endpoint
costs one extra (cheaper) solve but makes the stepped H agree with a
trapezoidal re-integration of the equivalent memory form to second order in
dt, which the diagnostics below verify. The prediction enters nothing but
F, so it is solved only as accurately as that needs: to a relative residual
of HALF_TOL_PER_DT2 dt^2, capped at HALF_TOL_MAX and never below cg_tol.
An O(dt^2) error in u_half keeps the memory-form gap O(dt^2), and the
floor, the mass and L2 monotonicity do not depend on it. The no-relaxation
baselines run the same step loop with H = F(D) sampled at the step's left
endpoint instead, with no half solve and no floor check: H is the response
itself there, so the smallest eigenvalue the trace records comes from the
response's closed form, response.response_min_eig.

The main and baseline solves stop at a relative residual of cg_tol, 1e-8 by
default, because the output is an 8-bit image. Their matrix is
A = I + dt L with L = -div(H grad) symmetric positive semidefinite, so
||A^-1|| <= 1, and a solve whose residual is at most cg_tol ||u|| lies
within cg_tol ||u|| of the exact solution. Later solves are contractions
too and do not amplify an earlier error, so after n steps u is off by at
most n cg_tol sqrt(N k) for N cells of k channels in the [-1, 1] units the
CLI filters in: 2.6e-5 for 5 steps at 512^2, against half an 8-bit level,
1/255 ~ 3.9e-3. An output byte then moves, by one level, only where the
exact value lies within that error of a rounding boundary (against 1e-10,
one pixel in the bench scenes of four seeds, 4e-8 levels from it). The
same bound gives L2 monotonicity up to cg_tol ||u||. The solve's mass
correction holds the mass to rounding at any tolerance, the floor does not
depend on u, and the memory-form check re-integrates along the computed u,
so none of the three moves with cg_tol.

With relaxation the floor is checked every step by tensors.min_eig_field,
which returns the minimum of a full diagonalisation and its first cell bit
for bit, from a Cholesky of the packed H that clears every cell that cannot
hold it; a broken floor is reported from that cell alone. trajectory()'s
check of H0 against alpha needs no minimum unless a cell falls below, so it
runs the Cholesky at that bound (tensors.min_eig_below) and diagonalises
only the cells it does not clear.

Below its bound each check allows tensors.eig_margin(H), m = 4 n^3 eps
max|H| for n x n cells: a computed eigenvalue lies within m/2 of the exact
one (see tensors.min_eig_below), and the other half covers the rounding of
H itself. trajectory() admits H0 at floor_0 = alpha - 1e-12 - m_0. Its
1e-12 covers the cancellation in init_H0's windowed covariance, which H0
cannot show: init_H0's own output on an 8-bit ramp reads 8.5e-20 below
alpha, against an m_0 of 1.9e-22 at alpha 1e-9. The step loop then carries
that floor as _relax_H carries H, with the same float theta,

    floor' = theta floor + (1 - theta) omega - m',

and checks the relaxed H' against floor' - m'. It passes every valid run:
with exact eigenvalues of the computed fields, lambda_min(H) >= floor - m/2
holds for an admitted H0, and it carries over. theta H + (1 - theta) F has
lambda_min >= theta lambda_min(H) + (1 - theta) omega, as the response's
is >= omega. One relaxation's rounding moves that by less than m'/2 for
n >= 2: each entry fl(fl(theta h) + fl((1 - theta) f)) is off by at most
2u (|theta h| + |(1 - theta) f|) <= 4u max|H'| (u = eps/2; H and F are PSD,
so an entry is bounded by the diagonal, and theta h_ii and
(1 - theta) f_ii are each at most H'_ii), 2n eps max|H'| in the 2-norm;
F's own rounding, of its entries and of a and c from D:D, is about
3n eps max|F| before (1 - theta) scales it below 3n eps max|H'|; the
floor's update rounds by about eps max|H'|. And m' >= theta m, since
H'_ii >= theta h_ii. So lambda_min(H') >= theta (floor - m/2)
+ (1 - theta) omega - m'/2 >= floor' - m'/2, and the computed minimum is at
least floor' - m'. For n = 1 the eigenvalue is the entry itself, exact,
and the eigensolver's half of m covers the rest. After N steps the floor is
theta^N alpha + (1 - theta^N) omega less theta^N (1e-12 + m_0) and
sum_j theta^(N-j) m_j: H0's admitted deficit decays, and the rest grows
like N m, up to m / (1 - theta). So the checks pass a valid run at any
scale of alpha and omega, and still catch a floor broken by more than
rounding. An H that holds NaN or inf, as a response whose products
overflow gives, makes m non-finite; the step's check then names its first
such cell, where a NaN would have made every comparison with the floor
false.

The step loop is a generator: trajectory() hands it out, and run(), the
baselines and memory_form_check read it step by step, so nothing stores
the trajectory.

u is an image, dims + (k,), and its shape is the grid: the entry points
check it once (grid.check_image), and the step loop and the solves read
dims and k from the arrays they hold. H is symmetric, so it is held packed
everywhere, (P,) + dims with P = kd(kd+1)/2 (21 of the 36 entry planes for
RGB in 2-D; see tensors.pack_index): H0, the state's H, the responses and
F(0). Only the face tensors are full square, and for kd <= 2 even they
are their packed planes, viewed as the square.
"""

import math
from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

from .bands import band_edges, for_bands
from .errors import DimensionError, FitError, ImageIOError, InvariantViolation, ParameterError, SolverError
from .grid import _require_finite, channel_sums, check_image, divergence, face_average_tensors, flux, inner, l2_norm, mean_free, solve_work

# bench/child.py wraps integrate.gradient and baselines.gradient, which
# imports it from here, when tracing; the CG forms its gradient inside
# grid.flux, so the wrappers see no call from the step loop.
from .grid import gradient  # noqa: F401
from .mollifier import DELTA_SIGMA, GAUSSIAN, Kernel, grad_sigma
from .response import ResponseParams, response_field, response_min_eig, response_zero
from .tensors import eig_margin, eigvalsh_field, min_eig_below, min_eig_field, pack_index, unpack

Array = np.ndarray

# Relative CG tolerance of the half-step solve: HALF_TOL_PER_DT2 dt^2, capped
# at HALF_TOL_MAX and never below the run's cg_tol (see the module docstring).
HALF_TOL_PER_DT2 = 1e-4
HALF_TOL_MAX = 1e-3
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
    cg_tol: float = 1e-8  # main and baseline solves (see the module docstring)

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
        self.kernel()  # a kernel that cannot be built fails here, not mid-run

    def kernel(self) -> Kernel | None:
        if self.sigma < DELTA_SIGMA:
            return None
        return Kernel(kind=self.kernel_kind, sigma=self.sigma)


def cg_max_iter(ncells: int) -> int:
    """Iteration cap of every CG solve on a grid of ncells cells."""
    return int(10 * math.sqrt(ncells)) + 200


@dataclass
class FilterState:
    t: float
    u: Array
    H: Array  # packed, (P,) + dims


@dataclass(frozen=True)
class TraceRecord:
    t: float
    l2_norm_u: float
    mass: tuple[float, ...]
    energy: float
    min_eig_H: float
    cg_iters: int


def kappa_predicted(t: float, p: FilterParams) -> float:
    """Analytic eigenvalue floor of H at time t for admissible initial data.

    alpha e^(-t/tau) + omega (1 - e^(-t/tau)), with 1 - e^(-t/tau) formed
    as -expm1(-t/tau): the difference would lose about eps omega to
    cancellation where t << tau.
    """
    x = -t / p.tau
    return p.alpha * math.exp(x) - p.response.omega * math.expm1(x)


def _implicit_solve(
    u: Array,
    havg: Array,
    dt: float,
    cg_tol: float,
    where: str = "diffusion solve",
) -> tuple[Array, int]:
    """CG solve of (I - dt div(H grad)) x = u, u an image, with its precomputed face tensors.

    Starting from x0 = u keeps every Krylov update in the zero-sum subspace
    (the operator preserves channel means), so the solution's per-channel
    mass matches u's regardless of the tolerance. In floating point the
    updates leak about eps dt ||H|| of it, so the solve ends by adding each
    channel's lost mass back, spread evenly over the cells: the exact
    solution's channel means are u's, and constants are an eigenspace of the
    operator, so this moves x toward it and keeps the mass to rounding at
    any dt. The operator's div(H grad x) is
    grid.divergence(grid.flux(havg, x)), whose bands form the gradient chunk
    by chunk. x, r and p are updated in place, the products going through
    the buffer of A p, which is not read again: the solve holds no scratch
    buffer while the operator runs. The updates r -= alpha A p, x += alpha p
    and p = beta p + r run in bands of the image's rows (relaxdiff.bands),
    split on grid.solve_work as the operator's flux and divergence are, so
    every banded pass of the solve splits on the same rows, or none does.
    Each element takes the same operations as in one pass, so their bits do
    not depend on the CPU count; the dot products stay whole, in
    grid.inner's order. ``where`` names the solve in the SolverError raised
    after cg_max_iter(cells) iterations, at a breakdown, or where the operator
    overflowed (a residual or p.Ap that is not finite, as at extreme dt or
    H). Its message names the relative residual that it carries, or, where
    that residual is not finite and so tells nothing of the scale, dt and
    the largest finite |entry| of the face tensors. The operator and the
    updates overflow silently, so numpy prints no warning before that error.
    """
    cells = u.size // u.shape[-1]

    def apply_a(x: Array) -> Array:
        out = divergence(flux(havg, x))
        with np.errstate(over="ignore", invalid="ignore"):  # the CG reports it
            out *= dt
            return np.subtract(x, out, out=out)

    def failure(what: str, rs: float) -> SolverError:
        res = math.sqrt(rs) / b_nrm
        if math.isfinite(res):
            return SolverError(f"{where}: {what} (relative residual {res:.6g})", residual=res)
        scale = float(np.max(np.abs(havg), where=np.isfinite(havg), initial=0.0))
        return SolverError(f"{where}: {what} (dt {dt:g}, largest finite |face tensor entry| {scale:.6g})", residual=res)

    max_iter = cg_max_iter(cells)
    b_nrm = math.sqrt(inner(u, u))
    if b_nrm == 0.0:
        return np.zeros_like(u), 0
    x = u.copy()
    r = apply_a(x)
    with np.errstate(invalid="ignore"):  # inf - inf
        np.subtract(u, r, out=r)
    p = r.copy()
    # C-contiguous all three (copies, and the operator's fresh output), so
    # the flat views write through.
    xf, rf, pf = x.reshape(-1), r.reshape(-1), p.reshape(-1)
    n0, work = u.shape[0], solve_work(u.shape[-1], u.shape[:-1])
    span = xf.size // n0  # values per row of axis 0
    rs = inner(r, r)
    if not math.isfinite(rs):
        raise failure("the operator overflowed at iteration 0", rs)
    if math.sqrt(rs) <= cg_tol * b_nrm:
        return x, 0
    for it in range(1, max_iter + 1):
        ap = apply_a(p)
        pap = inner(p, ap)
        if not math.isfinite(pap):
            raise failure(f"the operator overflowed at iteration {it}", rs)
        if not pap > 0.0:  # the operator is SPD: only rounding at extreme scales gets here
            raise failure(f"CG broke down at iteration {it}", rs)
        alpha = rs / pap
        apf = ap.reshape(-1)

        def update_xr(start: int, stop: int) -> None:
            lo, hi = start * span, stop * span
            with np.errstate(over="ignore", invalid="ignore"):  # the residual's check reports it
                apb = apf[lo:hi]
                apb *= alpha
                rf[lo:hi] -= apb
                np.multiply(pf[lo:hi], alpha, out=apb)
                xf[lo:hi] += apb

        for_bands(update_xr, n0, work)
        del ap, apf, update_xr
        rs_new = inner(r, r)
        if not math.isfinite(rs_new):
            raise failure(f"the operator overflowed at iteration {it}", rs)
        if math.sqrt(rs_new) <= cg_tol * b_nrm:
            x += (channel_sums(u) - channel_sums(x)) / cells
            return x, it
        beta = rs_new / rs

        def update_p(start: int, stop: int) -> None:
            lo, hi = start * span, stop * span
            with np.errstate(over="ignore"):  # the next p.Ap reports it
                pb = pf[lo:hi]
                pb *= beta
                pb += rf[lo:hi]

        for_bands(update_p, n0, work)
        rs = rs_new
    raise failure(f"CG did not reach tol {cg_tol:g} in {max_iter} iterations", rs)


def _relax_H(u_sample: Array, h: Array, p: FilterParams, kern: Kernel | None, theta: float) -> None:
    """Exact relaxation of h over one step, in place, with F frozen at u_sample.

    h becomes theta h + (1 - theta) F, each element by the same two products
    and one sum as the out-of-place expression, in bands of its flattened
    values and with no field-sized temporary besides F itself. theta is
    e^(-dt/tau), which the step loop computes once and also carries the
    floor with. h and F are packed, (P,) + dims, and h must be
    C-contiguous, as run()'s packed copy of H is.
    """
    f = response_field(grad_sigma(u_sample, kern), p.response).reshape(-1)
    flat = h.reshape(-1)

    def band(start: int, stop: int) -> None:
        hb, fb = flat[start:stop], f[start:stop]
        hb *= theta
        fb *= 1.0 - theta
        hb += fb

    for_bands(band, flat.size, 2 * flat.size)


def energy(state: FilterState, p: FilterParams) -> float:
    """Discrete energy, on state.u's grid: half the mean-free intensity mass plus the H misfit.

    E = 1/2 ||u - mean||^2 + tau/2 ||H - F(0)||^2 (plain sums over cells).
    The per-channel mean is removed from u because the flux form conserves
    it exactly; convergence toward the flat image happens in the mean-free
    part, which is what this functional measures. The misfit is summed one
    entry (a, b) of H at a time, in row-major order, each entry's square sum
    taken over its plane H[a, b] - F(0)[a, b], or over H[a, b] itself where
    F(0)[a, b] is zero, so no H-sized array is made (H is copied only if it
    is not C-contiguous, which the step loop's H is). H is packed,
    (P,) + dims: each plane's square sum is taken once and added at (a, b)
    and at (b, a). The planes' square sums run in bands of whole planes
    (relaxdiff.bands), each band forming H[a, b] - F(0)[a, b] in one plane
    of scratch allocated here for it.
    """
    umf = mean_free(state.u)
    term_u = 0.5 * inner(umf, umf)
    k, dims = umf.shape[-1], umf.shape[:-1]
    f0 = response_zero(p.response, k, len(dims))
    h = np.ascontiguousarray(state.H, dtype=float)
    if h.shape != f0.shape + dims:
        raise DimensionError(f"tensor field shape {h.shape} != {f0.shape + dims}")
    sums = [0.0] * f0.size
    edges = band_edges(f0.size, h.size)
    scratch = {start: np.empty(dims) for start in edges[:-1]}

    def band(start: int, stop: int) -> None:
        for e in range(start, stop):
            plane = np.subtract(h[e], f0[e], out=scratch[start]) if f0[e] else h[e]
            sums[e] = inner(plane, plane)

    for_bands(band, f0.size, h.size)
    misfit = 0.0
    for e in pack_index(k * len(dims)).flat:
        misfit += sums[e]
    return term_u + 0.5 * p.tau * misfit


def _num_steps(p: FilterParams) -> int:
    if p.t_end <= 0:
        return 0
    n = p.t_end / p.dt
    return max(1, int(math.ceil(n - 1e-9)))


def _step_loop(u: Array, h: Array | None, p: FilterParams, floor: float | None):
    """The step loop of trajectory(), run() and run_baseline(), from validated (u, H).

    It runs p as given: p's kernel (none below DELTA_SIGMA) mollifies the
    gradient and p's response kind gives F. With H given, every step relaxes
    H toward the response sampled at a half-step backward-Euler prediction
    of u, checks the eigenvalue floor of the relaxed H and solves for the
    new u with it; floor is the one trajectory() admitted H0 at, which the
    loop carries as it relaxes H (see the module docstring). With H and
    floor None (no relaxation, the tau -> 0 limit) every step sets
    H = F(grad_sigma u) at the step's left endpoint instead, with no half
    solve and no floor check, and takes H's smallest eigenvalue from the
    response's closed form.

    A generator: it yields (FilterState, TraceRecord) once per step and
    returns the final FilterState, the initial one when there are no steps.
    H, the responses and the state's H are packed, (P,) + dims; h must be
    C-contiguous, as _relax_H relaxes it in place.
    """
    relax = h is not None
    kern = p.kernel()
    theta = math.exp(-p.dt / p.tau)
    # dt * dt, not dt**2: a finite dt**2 may overflow and raise.
    half_tol = max(p.cg_tol, min(HALF_TOL_MAX, HALF_TOL_PER_DT2 * p.dt * p.dt))
    t = 0.0
    # The face tensors of each step's relaxed H serve its main solve and the
    # next step's half-step solve.
    havg = face_average_tensors(h) if relax else None
    for n in range(_num_steps(p)):
        t = (n + 1) * p.dt
        step = f"of step {n + 1} (t={t:g})"
        if relax:
            # Half-step prediction of u fixes the response sample near the
            # step midpoint (second-order consistency with the memory form)
            # while the H-update itself stays the exact convex-combination
            # relaxation.
            u_half, _ = _implicit_solve(u, havg, 0.5 * p.dt, half_tol, f"half solve {step}")
        # The old face tensors are dead now, and so is the old H without
        # relaxation. Dropping them before the response allocates its
        # temporaries lowers a step's peak memory by one H field or two.
        havg = None
        if relax:
            _relax_H(u_half, h, p, kern, theta)
            del u_half  # not read again; held, it would add an image field to the step's peak
            # The floor check runs before the face tensors exist, so its
            # Cholesky blocks share the memory with H alone. A NaN or inf
            # entry would make every comparison with the floor false.
            margin = eig_margin(h)
            if not math.isfinite(margin):  # some entry of h is not finite
                cell = tuple(map(int, np.unravel_index(np.argmin(np.isfinite(h).all(axis=0)), u.shape[:-1])))
                raise InvariantViolation(
                    f"diffusivity became non-finite at t={t:g}: first at cell {cell}",
                    diagnostic={"t": t, "cell": cell, "tensor": unpack(h[(...,) + cell])},
                )
            floor = theta * floor + (1.0 - theta) * p.response.omega - margin
            min_eig, flat = min_eig_field(h, _margin=margin)
            if not min_eig >= floor - margin:
                kappa = kappa_predicted(t, p)
                cell = tuple(map(int, np.unravel_index(flat, u.shape[:-1])))
                tensor = unpack(h[(...,) + cell])
                raise InvariantViolation(
                    f"diffusivity eigenvalue floor broken at t={t:g}: "
                    f"min eig {min_eig:.12g} < predicted {kappa:.12g} at cell {cell}",
                    diagnostic={
                        "t": t,
                        "cell": cell,
                        "kappa_predicted": kappa,
                        "min_eig": min_eig,
                        "tensor": tensor,
                        "eigenvalues": eigvalsh_field(tensor),
                    },
                )
        else:
            h = None
            dfield = grad_sigma(u, kern)
            # H is the response itself, whose minimum has a closed form.
            min_eig = response_min_eig(dfield, p.response)
            h = response_field(dfield, p.response)
            del dfield
        havg = face_average_tensors(h)
        u, iters = _implicit_solve(u, havg, p.dt, p.cg_tol, f"{'main' if relax else 'baseline'} solve {step}")
        if not np.all(np.isfinite(u)):
            raise InvariantViolation(
                f"intensity field became non-finite at t={t:g}",
                diagnostic={"t": t, "step": n + 1},
            )
        # No local holds the yielded state: without relaxation it would keep
        # this step's H alive through the next step.
        yield FilterState(t=t, u=u, H=h), TraceRecord(
            t=t,
            l2_norm_u=l2_norm(u),
            mass=tuple(channel_sums(u)),
            energy=energy(FilterState(t=t, u=u, H=h), p),
            min_eig_H=min_eig,
            cg_iters=iters,
        )
    return FilterState(t=t, u=u, H=h)


def _drain(steps) -> tuple[FilterState, list[TraceRecord]]:
    """(final FilterState, per-step TraceRecords) of a _step_loop generator.

    It holds no state between steps, which would keep the step's u, and
    without relaxation its H, alive through the next one.
    """
    traces = []
    while True:
        try:
            traces.append(next(steps)[1])
        except StopIteration as end:
            return end.value, traces


def trajectory(u0: Array, H0: Array, p: FilterParams) -> Iterator[tuple[FilterState, TraceRecord]]:
    """Iterator over the steps of run(u0, H0, p), one (FilterState, TraceRecord) per step.

    u0 is an image, dims + (k,), and its shape is the grid. The inputs are
    checked here, at call time, as run() checks them, so a bad u0 or H0
    raises before the first step; zero steps yield nothing.
    The yielded arrays belong to the step loop. Each state's u is a new
    array, but its H is one array that the next step relaxes in place: read
    or copy what you need from a state before advancing the iterator.
    """
    u = check_image("u0", u0)
    dims = u.shape[:-1]
    # C order: _relax_H relaxes h in place through h.reshape(-1), which
    # would be a copy of any other layout.
    h = np.array(H0, dtype=float, order="C")
    kd = u.shape[-1] * len(dims)
    shape = (kd * (kd + 1) // 2,) + dims
    if h.shape != shape:
        raise ParameterError(f"H0 shape {h.shape} != {shape}, the packed triangle (see relaxdiff.tensors.pack)")
    _require_finite("H0", h)
    # Only the cells whose Cholesky does not clear the bound are diagonalised:
    # an H0 at alpha Id in its flat cells ties at alpha almost everywhere.
    margin = eig_margin(h)
    floor = p.alpha - 1e-12 - margin
    low = min_eig_below(h, floor, _margin=margin)
    if low is not None and low[0] < floor:
        init_min, flat = low
        cell = tuple(map(int, np.unravel_index(flat, dims)))
        raise ParameterError(
            "initial diffusivity violates the alpha eigenvalue floor: "
            f"min eig {init_min:.6g} < alpha {p.alpha:g} at cell {cell}"
        )
    # Only the step loop holds its copy of u, so each solve frees the last u.
    return _step_loop(u.copy(), h, p, floor)


def run(u0: Array, H0: Array, p: FilterParams) -> tuple[FilterState, list[TraceRecord]]:
    """Integrate the coupled system from the image u0 and H0 until t >= t_end.

    Returns (final FilterState, list of per-step TraceRecords): trajectory()
    drained, keeping only the records. With zero steps the final state is
    the checked initial one.

    H0 and the state's H are packed, (P,) + dims with P = kd(kd+1)/2, one
    plane per entry a <= b (see tensors.pack_index): a symmetric field by
    construction. tensors.pack converts a full-square field, (kd, kd) + dims,
    and tensors.unpack converts back. run() relaxes a copy of H0 of its own
    and lets go of u0 and H0 once trajectory() has copied them.

    Raises InvariantViolation (with a diagnostic dump of the offending cell)
    if a cell's smallest eigenvalue drops below the predicted floor, and
    ParameterError if H0 has another shape, if u0 or H0 holds NaN/inf or if
    a cell of the initial diffusivity does not clear alpha (named too).
    """
    steps = trajectory(u0, H0, p)
    del u0, H0  # a caller that passes H0 inline frees it here
    return _drain(steps)


def decay_rate_fit(traces: list[TraceRecord]) -> float:
    """Least-squares slope of log E(t) over the second half of the trace."""
    if len(traces) < 10:
        raise FitError("need at least 10 trace records to fit a decay rate")
    half = traces[len(traces) // 2 :]
    es = np.array([r.energy for r in half])
    if not np.all((es > 0.0) & (es < math.inf)):  # NaN fails both
        raise FitError("nonpositive or non-finite energies in the fit window")
    ts = np.array([r.t for r in half])
    slope = np.polyfit(ts, np.log(es), 1)[0]
    return float(slope)


def memory_form_check(u0: Array, H0: Array, p: FilterParams) -> float:
    """Largest cell-wise gap between stepped H and its memory-form integral.

    The relaxation law is equivalent to the Volterra form

        H(t) = e^(-t/tau) H0
               + (1/tau) * integral_0^t e^(-(t-s)/tau) F(grad_sigma u(s)) ds,

    whose kernel-weighted integral is re-evaluated here along the u
    trajectory with trapezoidal averaging of the response samples under the
    exact exponential weights (so a constant response reproduces the stepped
    trajectory identically). H0 is packed, as run() takes it. Returns max
    over the steps of run(u0, H0, p), up to p.t_end, and over cells
    of the Frobenius gap, 0.0 without steps; it shrinks as O(dt^2).

    The steps come from trajectory(), one at a time. The packed q is
    updated in place through the older of the two response samples, which
    then takes q - H; that gap is squared in place, and its Frobenius sum
    adds the planes of all kd x kd entries cell by cell in row-major order,
    as a sum over the first axis of the unpacked gap adds them, bit for bit.
    No full-square array is made, and nothing of an earlier step is kept,
    so the memory does not grow with the step count.
    """
    states = trajectory(u0, H0, p)
    shape = np.shape(u0)
    entries = pack_index(shape[-1] * (len(shape) - 1)).ravel()
    kern = p.kernel()
    theta = math.exp(-p.dt / p.tau)
    # trajectory() has checked u0 and H0: q starts from H0 as the loop's
    # copy does, and grad_sigma converts u0 as trajectory() did.
    q = np.array(H0, dtype=float, order="C")
    f_next = response_field(grad_sigma(u0, kern), p.response)
    worst = 0.0
    for state, _ in states:
        f_prev, f_next = f_next, response_field(grad_sigma(state.u, kern), p.response)
        q *= theta
        f_prev += f_next
        f_prev *= (1.0 - theta) * 0.5
        q += f_prev
        gap = np.subtract(q, state.H, out=f_prev)
        del f_prev
        gap *= gap
        total = gap[entries[0]].copy()
        for e in entries[1:]:
            total += gap[e]
        worst = max(worst, float(np.max(np.sqrt(total))))
        del gap  # held, it would add a packed field to the next step's peak
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
