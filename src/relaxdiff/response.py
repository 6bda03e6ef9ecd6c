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
forming a degenerate projection. A scalar response g(|D|) Id with
g(r) = 1/(1 + r/lambda) serves the Perona-Malik style baseline, and an
optional uniform shift omega adds omega * Id to either, giving
lambda_min >= omega; the shifted variant is what the exponential-decay
experiments use.

Both kinds are one form, F(D) = a Id - vv^T / c + omega Id with
v = vec(D), and differ only in its coefficients:

- thresholded projection: a = 1 and c = D:D above the threshold,
  a = 3/2 - q/2 and c = s^2 with q = D:D/s^2 below it (expanding P);
- Perona-Malik: a = g(|D|), with no projection term.

response_field evaluates the form on a whole gradient field. Its
eigenvalues are a + omega, n - 1 times on the complement of v, and
a + omega - D:D/c along v: omega above the threshold, 3/2 - 3q/2 + omega
below it. response_min_eig takes the smallest over a field from the same
coefficients at its largest D:D; the no-relaxation baselines, where H is
the response itself, report it as their minimum. lipschitz_bound gives
either kind's Lipschitz constant over a ball of gradients in closed form;
the predicted energy-decay rate depends on it.

response_field reads gradient fields component-first, (k, d) + dims, as
grid.gradient returns them, and returns packed tensor fields, (P,) + dims
with P = kd(kd+1)/2, as the step loop holds H: one cell field per entry
pair, numbered by tensors.pack_index. Each product v_a v_b is formed once,
for a <= b; no lower-half product is made. D:D sums the squares in index
order from +0.0, as tensors.apply sums its products. On a field of one cell
einsum unrolls that sum instead, and may round D:D differently. A band of
one cell of a larger field is a strided slice, which einsum sums in index
order, so the bands of response_field keep D:D's bits at any band count.
Without a projection term the off-diagonal planes hold +0.0.
"""

import math
from dataclasses import dataclass

import numpy as np

from .bands import for_bands
from .errors import DimensionError, ParameterError
from .tensors import pack_index

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


def _cells(dfield: Array) -> Array:
    """A gradient field as (kd, cells), one cell field per component."""
    dfield = np.asarray(dfield, dtype=float)
    if dfield.ndim < 2:
        raise DimensionError(f"expected k x d matrices, got shape {dfield.shape}")
    return dfield.reshape(dfield.shape[0] * dfield.shape[1], -1)


def _coefficients(dd: Array, p: ResponseParams, a: Array, c: Array):
    """(a, c) of F = a Id - vv^T / c + omega Id at D:D = dd; c is None without a projection term.

    Each is one chain of ufuncs into the arrays a and c, of dd's shape (c
    may be dd itself). q is taken from min(D:D, s^2): a huge D:D overflows
    nothing, and a = 1 exactly above s^2. c = fmax(D:D, s^2) is
    where(D:D >= s^2, D:D, s^2) bit for bit, also at a NaN.
    """
    if p.kind == PERONA_MALIK_SCALAR:
        np.sqrt(dd, out=a)
        np.divide(a, p.lam, out=a)
        np.add(1.0, a, out=a)
        return np.divide(1.0, a, out=a), None
    s2 = p.s * p.s
    np.minimum(dd, s2, out=a)
    np.divide(a, s2, out=a)
    np.multiply(0.5, a, out=a)
    return np.subtract(1.5, a, out=a), np.fmax(dd, s2, out=c)


def response_field(dfield: Array, p: ResponseParams) -> Array:
    """The response F of every cell of a gradient field, of either kind.

    dfield is component-first, with shape (k, d) + dims; the result is
    packed, (P,) + dims with P = kd(kd+1)/2. A single k x d matrix is a
    field with dims = (). The cells run in bands (relaxdiff.bands), each
    through its own cells of the D:D and a fields allocated here, and each
    entry plane by one-dimensional ufunc calls, which need no buffers; c
    overwrites D:D, which nothing reads after it. Products that overflow,
    past about 1.3e154 per component, give inf or NaN without a warning:
    with relaxation the floor check names the first cell of a non-finite
    H, and without it the CG reports the overflow.
    """
    v = _cells(dfield)
    n, cells = v.shape
    index = pack_index(n)
    out = np.empty((n * (n + 1) // 2, cells))
    dd, a = np.empty(cells), np.empty(cells)

    def band(start: int, stop: int) -> None:
        vb = v[:, start:stop]
        with np.errstate(over="ignore", invalid="ignore"):
            ddb = np.einsum("an,an->n", vb, vb, out=dd[start:stop])
            ab, cb = _coefficients(ddb, p, a[start:stop], ddb)
            for r in range(n):
                for s in range(r, n):
                    plane = out[index[r, s], start:stop]
                    # 0 - x off the diagonal, not -x: a +0.0 stays +0.0.
                    diagonal = ab if s == r else 0.0
                    if cb is None:
                        plane[:] = diagonal
                    else:
                        np.multiply(vb[r], vb[s], out=plane)
                        plane /= cb
                        np.subtract(diagonal, plane, out=plane)
                    # Adding omega * 0.0 would change no off-diagonal bit, so
                    # omega goes to the diagonal alone.
                    if s == r and p.omega > 0.0:
                        plane += p.omega

    for_bands(band, cells, (n + out.shape[0] + 2) * cells)
    return out.reshape(out.shape[:1] + np.shape(dfield)[2:])


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


def response_min_eig(dfield: Array, p: ResponseParams) -> float:
    """Smallest eigenvalue of response_field(dfield, p) over all cells, in closed form.

    A cell's smallest eigenvalue is a - D:D/c + omega, along v, or a + omega
    without a projection term. Both fall as D:D grows, in floating point
    too, so the cell of the largest D:D decides. A NaN gives NaN.
    """
    v = _cells(dfield)
    dd = float(np.max(np.einsum("an,an->n", v, v)))
    with np.errstate(over="ignore"):  # a subnormal lambda: a = 1 / (1 + inf) = 0
        a, c = _coefficients(dd, p, np.empty(()), np.empty(()))
    # D:D/c is 1 from the threshold up, also where D:D overflowed to inf.
    along_v = 0.0 if c is None else (1.0 if dd >= c else dd / c)
    return float(a - along_v + p.omega)
