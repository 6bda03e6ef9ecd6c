"""Spatial mollification and the regularized gradient.

The smoothing kernel is discretised on the pixel lattice, truncated at its
support radius and applied separably, one axis at a time, by a numpy
correlation that sums shifted slices of the field. The convolution
integrates over the image domain only; near the border the visible part of
the kernel is renormalised per output pixel so that constants pass through
unchanged. That choice loses the exact mass-preservation of a free-space
convolution but avoids artificial darkening at the border and matches the
no-flux reading of the boundary. Bandwidths are in pixel units.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .grid import GridSpec, check_image, gradient

Array = np.ndarray

GAUSSIAN = "gaussian"
COMPACT_BUMP = "compact_bump"

# Below half a pixel the discrete kernel degenerates to the center pixel.
DELTA_SIGMA = 0.5


@dataclass(frozen=True)
class Kernel:
    kind: str = GAUSSIAN
    sigma: float = 1.0
    support_radius: float = 0.0  # 0 means the kind's default

    def __post_init__(self):
        if self.kind not in (GAUSSIAN, COMPACT_BUMP):
            raise ParameterError(f"unknown kernel kind {self.kind!r}")
        if self.sigma <= 0:
            raise ParameterError("kernel sigma must be > 0")
        if self.support_radius == 0.0:
            default = 4.0 * self.sigma if self.kind == GAUSSIAN else self.sigma
            object.__setattr__(self, "support_radius", float(default))
        elif self.support_radius < 0:
            raise ParameterError("support_radius must be positive")

    def weights(self) -> Array:
        """Normalised 1-d lattice weights; [1.0] once sigma is sub-pixel.

        A 4-sigma truncation of the Gaussian discards less than 1e-7 of its
        mass, so renormalising the remainder is harmless.
        """
        if self.sigma < DELTA_SIGMA:
            return np.array([1.0])
        r = int(np.ceil(self.support_radius))
        m = np.arange(-r, r + 1, dtype=float)
        if self.kind == GAUSSIAN:
            w = np.exp(-0.5 * (m / self.sigma) ** 2)
        else:
            t = m / self.support_radius
            w = np.zeros_like(m)
            inside = np.abs(t) < 1.0
            w[inside] = np.exp(-1.0 / (1.0 - t[inside] ** 2))
            if not np.any(inside):
                w = np.array([1.0])
                return w
        return w / w.sum()


def _correlate1d(u: Array, w: Array, axis: int) -> Array:
    """Correlate u with odd-length weights w along one axis, zero off the axis.

    out[x] = sum over |m| <= r of w[r + m] u[x + m], with r = len(w) // 2 and
    u taken as zero outside the domain. Offsets of n or more only ever meet
    zeros and are skipped, so a kernel wider than the axis is fine. Pairs of
    equal weights (every kernel of this package is symmetric) are summed
    before the multiply, outermost pair first. That is the summation order of
    the reference correlation the tests compare against, so for symmetric
    weights the two agree bit for bit.
    """
    u = np.moveaxis(u, axis, 0)
    n = u.shape[0]
    r = w.size // 2
    out = w[r] * u
    pair = np.empty_like(out)
    for m in range(min(r, n - 1), 0, -1):
        lo, hi = w[r - m], w[r + m]
        if lo == hi:
            pair[:m] = 0.0
            pair[m:] = u[:-m]
            pair[:-m] += u[m:]
            pair *= lo
            out += pair
        else:
            out[m:] += lo * u[:-m]
            out[:-m] += hi * u[m:]
    return np.moveaxis(out, 0, axis)


def convolve(u: Array, kern: Kernel, grid: GridSpec | None = None) -> Array:
    """Domain-restricted smoothing of every channel, constants preserved.

    Linear in u. Each separable pass divides by the sum of in-domain weights
    for that output pixel, so rows of effective weights always sum to one.
    """
    u = np.asarray(u, dtype=float)
    if grid is None:
        grid = GridSpec.from_field(u)
    u = check_image(u, grid)
    w = kern.weights()
    if w.size == 1:
        return u.copy()
    out = u
    for axis in range(grid.ndim):
        n = grid.dims[axis]
        # In-domain weight sum for each position along this axis.
        norm = _correlate1d(np.ones(n), w, 0)
        shape = [1] * out.ndim
        shape[axis] = n
        out = _correlate1d(out, w, axis)
        out = out / norm.reshape(shape)
    return out


def grad_sigma(u: Array, kern: Kernel | None, grid: GridSpec | None = None) -> Array:
    """Gradient of the mollified image; plain gradient when kern is absent.

    A missing kernel (or a sub-pixel bandwidth) means the sharp limit: the
    result is bit-for-bit gradient(u).
    """
    u = np.asarray(u, dtype=float)
    if grid is None:
        grid = GridSpec.from_field(u)
    if kern is None or kern.sigma < DELTA_SIGMA:
        return gradient(u, grid)
    return gradient(convolve(u, kern, grid), grid)
