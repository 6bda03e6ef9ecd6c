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

# Bandwidths below half a pixel select the sharp limit: no kernel at all
# (FilterParams.kernel() returns None), so Kernel rejects them.
DELTA_SIGMA = 0.5
# The widest bandwidth a Kernel takes, in pixels. Its weights hold about
# 8 sigma values, so a far wider kernel would exhaust memory before it ran.
MAX_SIGMA = 1e4


@dataclass(frozen=True)
class Kernel:
    kind: str = GAUSSIAN
    sigma: float = 1.0

    def __post_init__(self):
        if self.kind not in (GAUSSIAN, COMPACT_BUMP):
            raise ParameterError(f"unknown kernel kind {self.kind!r}")
        if not DELTA_SIGMA <= self.sigma <= MAX_SIGMA:
            raise ParameterError(f"kernel sigma must lie in [{DELTA_SIGMA:g}, {MAX_SIGMA:g}]")
        # The bump vanishes at |m| >= sigma, so at sigma <= 1 only its centre
        # weight is left: the identity, which would run unmollified.
        if self.kind == COMPACT_BUMP and not self.sigma > 1.0:
            raise ParameterError(
                f"the compact_bump kernel needs sigma > 1 (sigma = {self.sigma:g} leaves only its centre weight)"
            )

    def weights(self) -> Array:
        """Normalised 1-d lattice weights within the kind's support radius.

        The Gaussian is truncated at 4 sigma, which discards less than 1e-7 of
        its mass, so renormalising the remainder is harmless; the bump's
        support radius is sigma.
        """
        r = int(np.ceil(4.0 * self.sigma if self.kind == GAUSSIAN else self.sigma))
        m = np.arange(-r, r + 1, dtype=float)
        if self.kind == GAUSSIAN:
            w = np.exp(-0.5 * (m / self.sigma) ** 2)
        else:
            t = m / self.sigma
            w = np.zeros_like(m)
            inside = np.abs(t) < 1.0
            w[inside] = np.exp(-1.0 / (1.0 - t[inside] ** 2))
        return w / w.sum()


def _correlate1d(u: Array, w: Array, axis: int) -> Array:
    """Correlate u with odd-length weights w along one axis, zero off the axis.

    out[x] = sum over |m| <= r of w[r + m] u[x + m], with r = len(w) // 2 and
    u taken as zero outside the domain. Offsets of n or more only ever meet
    zeros and are skipped, so a kernel wider than the axis is fine. w must
    equal its reverse bit for bit, as every kernel here does: each pair of
    equal weights is summed before the multiply, outermost pair first, the
    summation order of the reference correlation the tests compare against.

    A pair sum is u[x - m] + u[x + m] where both exist. At the low edge it is
    0.0 + u[x + m], which turns -0.0 into +0.0, at the high edge the plain
    u[x - m], and where neither exists +0.0.
    """
    u = np.moveaxis(u, axis, 0)
    n = u.shape[0]
    r = w.size // 2
    out = w[r] * u
    pair = np.empty_like(out)
    for m in range(min(r, n - 1), 0, -1):
        low, high = min(m, n - m), max(m, n - m)
        np.add(0.0, u[m:m + low], out=pair[:low])
        if 2 * m <= n:
            np.add(u[:n - 2 * m], u[2 * m:], out=pair[m:n - m])
        else:
            pair[low:high] = 0.0
        pair[high:] = u[high - m:n - m]
        pair *= w[r + m]
        out += pair
    return np.moveaxis(out, 0, axis)


def convolve(u: Array, kern: Kernel, grid: GridSpec) -> Array:
    """Domain-restricted smoothing of every channel, constants preserved.

    Linear in u. Each separable pass divides by the sum of in-domain weights
    for that output pixel, so rows of effective weights always sum to one.
    """
    out = check_image(u, grid)
    w = kern.weights()
    for axis in range(grid.ndim):
        n = grid.dims[axis]
        # In-domain weight sum for each position along this axis.
        norm = _correlate1d(np.ones(n), w, 0)
        shape = [1] * out.ndim
        shape[axis] = n
        out = _correlate1d(out, w, axis)
        out = out / norm.reshape(shape)
    return out


def grad_sigma(u: Array, kern: Kernel | None, grid: GridSpec) -> Array:
    """Gradient of the mollified image; a missing kernel is the sharp limit.

    Without a kernel the result is gradient(u) bit for bit.
    """
    if kern is None:
        return gradient(u, grid)
    return gradient(convolve(u, kern, grid), grid)
