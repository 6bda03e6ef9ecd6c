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
forming a degenerate projection. Expanding P gives both branches one form,
F_s(D) = a Id - vv^T / c with v = vec(D): a = 1 and c = D:D above the
threshold, a = 3/2 - q/2 and c = s^2 with q = D:D/s^2 below it, which is
the form evaluated here.

An optional uniform shift omega adds omega * Id, giving lambda_min >= omega;
the shifted variant is what the exponential-decay experiments use. A scalar
response g(|D|) Id with g(r) = 1/(1 + r/lambda) is provided for the
Perona-Malik style baseline.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, ParameterError

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
        if not (self.s > 0 and self.s * self.s > 0):  # the response divides by s^2
            raise ParameterError(f"contrast threshold s must be > 0 with s^2 > 0, got {self.s:g}")
        if self.omega < 0:
            raise ParameterError("omega must be >= 0")
        if self.kind == PERONA_MALIK_SCALAR and self.lam <= 0:
            raise ParameterError("lambda must be > 0 for the scalar response")


def _gradient_field(dfield: Array) -> Array:
    dfield = np.asarray(dfield, dtype=float)
    if dfield.ndim < 2:
        raise DimensionError(f"expected k x d matrices, got shape {dfield.shape}")
    return dfield


def response_fs(dfield: Array, p: ResponseParams) -> Array:
    """Thresholded projection response of every cell of a gradient field.

    dfield has shape dims + (k, d); the result stacks per-cell tensors with
    shape dims + (k*d, k*d). A single k x d matrix is a field with dims = ().
    """
    if p.kind != THRESHOLDED_PROJECTION:
        raise ParameterError("response_fs requires the thresholded-projection kind")
    dfield = _gradient_field(dfield)
    k, d = dfield.shape[-2:]
    n = k * d
    cells = dfield.shape[:-2]
    v = dfield.reshape(cells + (n,))
    nrm2 = np.einsum("...a,...a->...", v, v)
    s2 = p.s * p.s
    proj_branch = nrm2 >= s2
    a = np.where(proj_branch, 1.0, 1.5 - 0.5 * (nrm2 / s2))
    c = np.where(proj_branch, nrm2, s2)
    out = np.einsum("...a,...b->...ab", v, v)
    out /= c[..., None, None]
    idx = np.arange(n)
    diag = a[..., None] - out[..., idx, idx]
    # 0 - x, not -x: an off-diagonal +0.0 stays +0.0.
    np.subtract(0.0, out, out=out)
    out[..., idx, idx] = diag
    if p.omega > 0.0:
        out += p.omega * np.eye(n)
    return out


def response_pm(dfield: Array, p: ResponseParams) -> Array:
    """Scalar isotropic response g(|D|) Id, g(r) = (1 + r/lambda)^-1, per cell.

    Shapes as for response_fs.
    """
    if p.kind != PERONA_MALIK_SCALAR:
        raise ParameterError("response_pm requires the Perona-Malik kind")
    dfield = _gradient_field(dfield)
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
        return response_fs(dfield, p)
    return response_pm(dfield, p)


def response_zero(p: ResponseParams, k: int, d: int) -> Array:
    """F(0): the stationary tensor the relaxation drives H toward at flat u."""
    return response_field(np.zeros((k, d)), p)


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

    best = 0.0
    for _ in range(trials):
        d1 = draw()
        d2 = draw()
        denom = float(np.linalg.norm(d1 - d2))
        if denom < 1e-12 * radius:
            continue
        num = float(np.linalg.norm(response_field(d1, p) - response_field(d2, p)))
        best = max(best, num / denom)
    return best
