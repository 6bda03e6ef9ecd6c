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

import math
from dataclasses import dataclass

import numpy as np

from .bands import band_edges, for_bands
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


def _correlate_rows(u: Array, w: Array, out: Array, pair: Array, start: int, stop: int) -> None:
    """Rows [start, stop) of u's correlation with w along axis 0, into the same rows of out.

    pair is scratch for those rows. For the offset m, rows below
    min(m, n - m) take the low edge's pair sum, rows from max(m, n - m) the
    high edge's, and the rows between take both terms, or none where
    2m > n; each rule applies to the rows it shares with the band.
    """
    n = u.shape[0]
    r = w.size // 2
    ob = out[start:stop]
    np.multiply(w[r], u[start:stop], out=ob)
    for m in range(min(r, n - 1), 0, -1):
        low, high = (min(max(x, start), stop) for x in (min(m, n - m), max(m, n - m)))
        np.add(0.0, u[start + m:low + m], out=pair[:low - start])
        if 2 * m <= n:
            np.add(u[low - m:high - m], u[low + m:high + m], out=pair[low - start:high - start])
        else:
            pair[low - start:high - start] = 0.0
        pair[high - start:] = u[high - m:stop - m]
        pair *= w[r + m]
        ob += pair


def _correlate_middle(u: Array, w: Array, out: Array, pair: Array) -> None:
    """u's correlation with w along axis 1, into out, for C-contiguous (outer, n, inner) arrays.

    pair is scratch of u's shape. For the offset m the sums of both terms
    are one add over the flat values, m * inner apart. That add is also
    wrong where x - m or x + m leaves the axis, and those values are then
    set by the edge rules, as in _correlate_rows.
    """
    n, inner = u.shape[1:]
    r = w.size // 2
    flat, of, pf = u.reshape(-1), out.reshape(-1), pair.reshape(-1)
    np.multiply(w[r], flat, out=of)
    for m in range(min(r, n - 1), 0, -1):
        low, high = min(m, n - m), max(m, n - m)
        if 2 * m <= n:
            shift = m * inner
            np.add(flat[:-2 * shift], flat[2 * shift:], out=pf[shift:-shift])
        else:
            pair[:, low:high] = 0.0
        np.add(0.0, u[:, m:m + low], out=pair[:, :low])
        pair[:, high:] = u[:, high - m:n - m]
        pf *= w[r + m]
        of += pf


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

    The correlation runs in bands of u's axis 0, its memory rows
    (relaxdiff.bands), each element by the same operations as in one pass.
    Along axis 0 a band takes its own output rows and reads up to r rows past
    its edges; along any other axis a band correlates its own rows whole, as
    (outer, n, inner) blocks of contiguous values. Each band sums its pairs
    in a buffer allocated here for it. A sum that overflows gives inf, or NaN
    where infinities of both signs meet, and no warning: a caller whose
    input can overflow checks the result.
    """
    u = np.ascontiguousarray(u, dtype=float)
    out = np.empty(u.shape)
    rows, n = u.shape[0], u.shape[axis]
    inner = math.prod(u.shape[axis + 1:])
    # 2r values per element, a quarter of those its passes read and write:
    # each offset makes five ufunc calls per band, whose hand-offs of the
    # interpreter lock cost two bands more than they save on small fields
    # (on 2 CPUs, 128 x 128 RGB with the sigma-1 Gaussian took 226 and
    # 236 us along axes 0 and 1 in one band, 280 and 332 us in two).
    work = 2 * min(w.size // 2, n - 1) * u.size
    edges = band_edges(rows, work)
    pair = {a: np.empty((b - a,) + u.shape[1:]) for a, b in zip(edges, edges[1:])}

    def band(start: int, stop: int) -> None:
        with np.errstate(over="ignore", invalid="ignore"):
            if axis == 0:
                _correlate_rows(u, w, out, pair[start], start, stop)
            else:
                block = (-1, n, inner)
                _correlate_middle(u[start:stop].reshape(block), w, out[start:stop].reshape(block),
                                  pair[start].reshape(block))

    for_bands(band, rows, work)
    return out


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
        out /= norm.reshape(shape)
    return out


def grad_sigma(u: Array, kern: Kernel | None, grid: GridSpec) -> Array:
    """Gradient of the mollified image; a missing kernel is the sharp limit.

    Without a kernel the result is gradient(u) bit for bit.
    """
    if kern is None:
        return gradient(u, grid)
    return gradient(convolve(u, kern, grid), grid)
