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
Perona-Malik style baseline. lipschitz_bound gives either response's
Lipschitz constant over a ball of gradients in closed form; the predicted
energy-decay rate depends on it.

The responses read gradient fields component-first, (k, d) + dims, as
grid.gradient returns them, and return packed tensor fields, (P,) + dims
with P = kd(kd+1)/2, as the step loop holds H: one cell field per entry
pair, numbered by tensors.pack_index. Each product v_a v_b is formed once,
for a <= b; no lower-half product is made. D:D sums the squares in index
order from +0.0, as tensors.apply sums its products (on a field of one cell
einsum unrolls the sum instead).
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, ParameterError
from .tensors import pack, pack_index

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

    dfield is component-first, with shape (k, d) + dims; the result is
    packed, (P,) + dims with P = kd(kd+1)/2. A single k x d matrix is a
    field with dims = ().
    """
    if p.kind != THRESHOLDED_PROJECTION:
        raise ParameterError("response_fs requires the thresholded-projection kind")
    dfield = _gradient_field(dfield)
    n = dfield.shape[0] * dfield.shape[1]
    v = dfield.reshape(n, -1)  # one cell field per component
    s2 = p.s * p.s
    nrm2 = np.einsum("an,an->n", v, v)
    proj_branch = nrm2 >= s2
    a = np.where(proj_branch, 1.0, 1.5 - 0.5 * (nrm2 / s2))
    c = np.where(proj_branch, nrm2, s2)
    out = np.empty((n * (n + 1) // 2, v.shape[1]))
    for r in range(n):
        q = pack_index(n)[r, r]
        row = out[q:q + n - r]  # the planes of entries (r, r), (r, r+1), ..., (r, n-1)
        np.multiply(v[r], v[r:], out=row)
        row /= c
        np.subtract(a, row[0], out=row[0])
        # 0 - x, not -x: an off-diagonal +0.0 stays +0.0. Adding omega * 0.0
        # would change no off-diagonal bit, so omega goes to the diagonal alone.
        np.subtract(0.0, row[1:], out=row[1:])
        if p.omega > 0.0:
            row[0] += p.omega
    return out.reshape(out.shape[:1] + dfield.shape[2:])


def response_pm(dfield: Array, p: ResponseParams) -> Array:
    """Scalar isotropic response g(|D|) Id, g(r) = (1 + r/lambda)^-1, per cell.

    Shapes as for response_fs.
    """
    if p.kind != PERONA_MALIK_SCALAR:
        raise ParameterError("response_pm requires the Perona-Malik kind")
    dfield = _gradient_field(dfield)
    n = dfield.shape[0] * dfield.shape[1]
    v = dfield.reshape(n, -1)
    g = 1.0 / (1.0 + np.sqrt(np.einsum("an,an->n", v, v)) / p.lam) + p.omega
    return np.multiply.outer(pack(np.eye(n)), g.reshape(dfield.shape[2:]))


def response_field(dfield: Array, p: ResponseParams) -> Array:
    """Dispatch on the response kind."""
    if p.kind == THRESHOLDED_PROJECTION:
        return response_fs(dfield, p)
    return response_pm(dfield, p)


def response_zero(p: ResponseParams, k: int, d: int) -> Array:
    """F(0): the stationary tensor the relaxation drives H toward at flat u."""
    return response_field(np.zeros((k, d)), p)


def lipschitz_bound(p: ResponseParams, radius: float, n: int) -> float:
    """Lipschitz constant of the response over the Frobenius ball of `radius`.

    n = k*d is the size of the gradient matrices. The ball is convex, so the
    constant is the largest Frobenius norm of the derivative dF[W] over unit
    W, in closed form and attained:

    - thresholded projection: below the threshold
      ||dF[W]||^2 = ((n+6)(D:W)^2 + 2|D|^2|W|^2)/s^4, largest for W along D;
      above it the projection's derivative is at most sqrt(2)/|D| <= sqrt(2)/s.
      So the constant is sqrt(n+8) min(radius, s)/s^2;
    - scalar Perona-Malik: |g'(r)| <= 1/lambda, at r = 0, so sqrt(n)/lambda.

    The shift omega does not enter.
    """
    if not radius > 0:
        raise ParameterError("radius must be > 0")
    if p.kind == PERONA_MALIK_SCALAR:
        return math.sqrt(n) / p.lam
    return math.sqrt(n + 8) * min(radius, p.s) / (p.s * p.s)
