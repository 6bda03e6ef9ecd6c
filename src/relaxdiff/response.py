"""Diffusivity response functions mapping color gradients to PSD tensors.

The workhorse is the thresholded projection response: above the contrast
threshold s (measured in Frobenius norm of the gradient matrix) it returns
the pure projection onto the gradient's orthogonal complement, so intensity
diffuses along edges but not across them; below the threshold it blends the
projection with an isotropic term,

    F_s(D) = P_{D-perp}                                     if D:D >= s^2,
    F_s(D) = 3/2 (1 - D:D/s^2) Id + (D:D/s^2) P_{D-perp}    otherwise,

where the scalar first branch multiplies the identity tensor. Both branches
meet at the threshold, the result is symmetric PSD for every D, and at D = 0
the projection term carries coefficient zero, so F_s(0) = 3/2 Id without ever
forming a degenerate projection. Expanding P removes the division entirely:
on the smooth branch F_s(D) = (3/2 - q/2) Id - vv^T / s^2 with q = D:D/s^2
and v = vec(D), which is the form evaluated here.

An optional uniform shift omega adds omega * Id, giving lambda_min >= omega;
the shifted variant is what the exponential-decay experiments use. A scalar
response g(|D|) Id with g(r) = 1/(1 + r/lambda) is provided for the
Perona-Malik style baseline.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, ParameterError
from .tensors import fro_norm

Array = np.ndarray

THRESHOLDED_PROJECTION = "thresholded_projection"
PERONA_MALIK_SCALAR = "perona_malik_scalar"


@dataclass(frozen=True)
class ResponseParams:
    """Contrast threshold s, uniform positivity shift omega, response kind."""

    s: float = 0.1
    omega: float = 0.0
    kind: str = THRESHOLDED_PROJECTION
    lam: float = 1.0  # Perona-Malik contrast scale, used by that kind only

    def __post_init__(self):
        for name in ("s", "omega", "lam"):
            if not math.isfinite(getattr(self, name)):
                raise ParameterError(f"{name} must be finite")
        if self.kind not in (THRESHOLDED_PROJECTION, PERONA_MALIK_SCALAR):
            raise ParameterError(f"unknown response kind {self.kind!r}")
        if self.s <= 0:
            raise ParameterError("contrast threshold s must be > 0")
        if self.omega < 0:
            raise ParameterError("omega must be >= 0")
        if self.kind == PERONA_MALIK_SCALAR and self.lam <= 0:
            raise ParameterError("lambda must be > 0 for the scalar response")


def response_fs(dmat: Array, p: ResponseParams) -> Array:
    """Thresholded projection response of a single k x d gradient matrix."""
    if p.kind != THRESHOLDED_PROJECTION:
        raise ParameterError("response_fs requires the thresholded-projection kind")
    dmat = np.asarray(dmat, dtype=float)
    if dmat.ndim != 2:
        raise DimensionError(f"expected a k x d matrix, got shape {dmat.shape}")
    v = dmat.ravel()
    n = v.size
    s2 = p.s * p.s
    q = float(np.dot(v, v)) / s2
    if q >= 1.0:
        out = np.eye(n) - np.outer(v, v) / float(np.dot(v, v))
    else:
        out = (1.5 - 0.5 * q) * np.eye(n) - np.outer(v, v) / s2
    if p.omega > 0.0:
        out += p.omega * np.eye(n)
    return out


def response_fs_field(dfield: Array, p: ResponseParams) -> Array:
    """Vectorised thresholded projection response over a gradient field.

    dfield has shape dims + (k, d); the result stacks per-cell tensors with
    shape dims + (k*d, k*d). Identical to mapping response_fs over cells.
    """
    if p.kind != THRESHOLDED_PROJECTION:
        raise ParameterError("response_fs requires the thresholded-projection kind")
    dfield = np.asarray(dfield, dtype=float)
    k, d = dfield.shape[-2:]
    n = k * d
    cells = dfield.shape[:-2]
    v = dfield.reshape(cells + (n,))
    nrm2 = np.einsum("...a,...a->...", v, v)
    s2 = p.s * p.s
    outer = np.einsum("...a,...b->...ab", v, v)

    proj_branch = nrm2 >= s2
    # Smooth branch: (3/2 - q/2) Id - vv^T/s^2, with q = nrm2/s2.
    coef = 1.5 - 0.5 * (nrm2 / s2)
    eye = np.eye(n)
    out = coef[..., None, None] * eye - outer / s2
    if np.any(proj_branch):
        safe = np.where(proj_branch, nrm2, 1.0)
        proj = eye - outer / safe[..., None, None]
        out = np.where(proj_branch[..., None, None], proj, out)
    if p.omega > 0.0:
        out += p.omega * eye
    return out


def response_pm(dmat: Array, p: ResponseParams) -> Array:
    """Scalar isotropic response g(|D|) Id with g(r) = (1 + r/lambda)^-1."""
    if p.kind != PERONA_MALIK_SCALAR:
        raise ParameterError("response_pm requires the Perona-Malik kind")
    dmat = np.asarray(dmat, dtype=float)
    if dmat.ndim != 2:
        raise DimensionError(f"expected a k x d matrix, got shape {dmat.shape}")
    g = 1.0 / (1.0 + fro_norm(dmat) / p.lam)
    n = dmat.size
    out = g * np.eye(n)
    if p.omega > 0.0:
        out += p.omega * np.eye(n)
    return out


def response_pm_field(dfield: Array, p: ResponseParams) -> Array:
    """Vectorised scalar response over a gradient field."""
    if p.kind != PERONA_MALIK_SCALAR:
        raise ParameterError("response_pm requires the Perona-Malik kind")
    dfield = np.asarray(dfield, dtype=float)
    k, d = dfield.shape[-2:]
    n = k * d
    cells = dfield.shape[:-2]
    v = dfield.reshape(cells + (n,))
    nrm = np.sqrt(np.einsum("...a,...a->...", v, v))
    g = 1.0 / (1.0 + nrm / p.lam) + p.omega
    return g[..., None, None] * np.eye(n)


def response_field(dfield: Array, p: ResponseParams) -> Array:
    """Dispatch on the response kind."""
    if p.kind == THRESHOLDED_PROJECTION:
        return response_fs_field(dfield, p)
    return response_pm_field(dfield, p)


def response_zero(p: ResponseParams, k: int, d: int) -> Array:
    """F(0): the stationary tensor the relaxation drives H toward at flat u."""
    return response_field(np.zeros((k, d)), p)


def _naive_projection_response(dmat: Array) -> Array:
    """Pure projection without threshold; test-only.

    Kept out of the user-facing modes: it freezes too many configurations
    into spurious stationary points and retains noise.
    """
    from .tensors import project_orth

    return project_orth(dmat)


def lipschitz_probe(
    p: ResponseParams,
    trials: int,
    radius: float,
    seed: int = 0,
    shape: tuple[int, int] = (3, 2),
) -> float:
    """Empirical Lipschitz bound of the response over a Frobenius ball.

    Draws ``trials`` random matrix pairs with norm <= radius and returns the
    largest ratio ||F(D1) - F(D2)||_F / ||D1 - D2||_F. Deterministic for a
    given seed. The value plays the role of the response's derivative bound
    in the predicted energy-decay rate; it is an estimate, not ground truth.
    """
    if trials < 1:
        raise ParameterError("trials must be >= 1")
    if radius <= 0:
        raise ParameterError("radius must be > 0")
    rng = np.random.default_rng(seed)
    k, d = shape
    n = k * d

    def draw() -> Array:
        g = rng.standard_normal((k, d))
        nrm = np.linalg.norm(g.ravel())
        if nrm == 0.0:
            return g
        r = radius * rng.uniform() ** (1.0 / n)
        return (r / nrm) * g

    if p.kind == THRESHOLDED_PROJECTION:
        f = lambda m: response_fs(m, p)
    else:
        f = lambda m: response_pm(m, p)

    best = 0.0
    for _ in range(trials):
        d1 = draw()
        d2 = draw()
        denom = fro_norm(d1 - d2)
        if denom < 1e-12 * radius:
            continue
        num = fro_norm(f(d1) - f(d2))
        best = max(best, num / denom)
    return best


def predicted_decay_rate(kappa: float, poincare: float, lipschitz: float, tau: float) -> float:
    """Lower bound on the exponential decay rate of the energy functional.

    min(kappa * C_P / c^2, 1/tau), with kappa a uniform eigenvalue floor of
    the diffusivity field, C_P the grid Poincare estimate and c the response
    Lipschitz bound.
    """
    if lipschitz <= 0:
        return 1.0 / tau
    return min(kappa * poincare / (lipschitz * lipschitz), 1.0 / tau)
