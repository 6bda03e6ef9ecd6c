"""Input preparation: rescaling, synthetic noise, and the initial diffusivity.

The initial diffusivity field estimates, per pixel, the sample covariance of
the vectorised color gradient over a small window (the observable stand-in
for the unobservable noise-gradient covariance), then adds alpha * Id. The
shift guarantees the eigenvalue floor the integrator's admissibility
precondition asks for, by construction.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, RangeError
from .grid import GridSpec, check_image, gradient
from .mollifier import _correlate1d

Array = np.ndarray

GAUSSIAN_IID = "gaussian_iid"


@dataclass(frozen=True)
class NoiseSpec:
    kind: str = GAUSSIAN_IID
    std: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.kind != GAUSSIAN_IID:
            raise ParameterError(f"unknown noise kind {self.kind!r}")
        if self.std < 0:
            raise ParameterError("noise std must be >= 0")
        if self.seed < 0:
            raise ParameterError("noise seed must be >= 0")


def rescale(u_raw: Array, lo: float, hi: float) -> Array:
    """Affine map of [lo, hi] onto [-1, 1], the filter's working range."""
    if not (math.isfinite(lo) and math.isfinite(hi) and hi > lo):
        raise ParameterError("rescale needs finite lo < hi")
    u_raw = np.asarray(u_raw, dtype=float)
    slack = 1e-12 * (hi - lo)
    if u_raw.size and (u_raw.min() < lo - slack or u_raw.max() > hi + slack):
        raise RangeError(f"values outside [{lo}, {hi}]")
    return (u_raw - lo) * (2.0 / (hi - lo)) - 1.0


def unrescale(u: Array, lo: float, hi: float) -> Array:
    """Inverse of rescale."""
    if not hi > lo:
        raise ParameterError("unrescale needs hi > lo")
    return (np.asarray(u, dtype=float) + 1.0) * (0.5 * (hi - lo)) + lo


def add_noise(u: Array, spec: NoiseSpec) -> Array:
    """Add seeded i.i.d. zero-mean Gaussian noise per pixel and channel.

    The noise field scales linearly in std for a fixed seed (one draw of a
    standard-normal field, multiplied by std). Output is not clamped.
    """
    u = np.asarray(u, dtype=float)
    if spec.std == 0.0:
        return u.copy()
    rng = np.random.default_rng(spec.seed)
    return u + spec.std * rng.standard_normal(u.shape)


def _window_sums(values: Array, dims: tuple[int, ...], window: int) -> Array:
    """Sum of `values` over the clipped window box around every cell.

    `values` has shape dims + tail; summation runs over the spatial axes.
    """
    out = values.astype(float, copy=True)
    w = np.ones(window)
    for axis in range(len(dims)):
        out = _correlate1d(out, w, axis)
    return out


def init_H0(u_noisy: Array, grid: GridSpec, window: int = 5, alpha: float = 0.1) -> Array:
    """Initial diffusivity: windowed gradient covariance plus alpha * Id.

    For every cell, the sample covariance (1/(m-1) divisor, m = number of
    valid window samples) of the vectorised gradients over the window x ...
    x window neighborhood, clipped at the boundary. Only cells carrying a
    forward face along every axis contribute samples; the boundary slots of
    the gradient stencil encode the no-flux convention, not image content,
    and would otherwise fake variation (an affine image must yield zero
    covariance everywhere). Symmetric by construction with
    lambda_min >= alpha.
    """
    if window < 3 or window % 2 == 0:
        raise ParameterError("window must be odd and >= 3")
    if any(window > n for n in grid.dims):
        raise ParameterError(f"window {window} exceeds grid dims {grid.dims}")
    if alpha <= 0:
        raise ParameterError("alpha must be > 0")
    u = check_image(u_noisy, grid)
    g = gradient(u, grid)
    kd = grid.channels * grid.ndim
    gflat = g.reshape(grid.dims + (kd,))

    valid = np.ones(grid.dims)
    for axis, n in enumerate(grid.dims):
        sl = [slice(None)] * len(grid.dims)
        sl[axis] = slice(-1, None)
        valid[tuple(sl)] = 0.0

    counts = _window_sums(valid, grid.dims, window)
    s1 = _window_sums(gflat * valid[..., None], grid.dims, window)
    outer = np.einsum("...a,...b->...ab", gflat, gflat)
    s2 = _window_sums(outer * valid[..., None, None], grid.dims, window)

    # A single-sample window has an identically zero numerator, so clamping
    # the divisor just avoids 0/0 there and leaves cov = 0.
    m = counts[..., None, None]
    mean_outer = np.einsum("...a,...b->...ab", s1, s1) / m
    cov = (s2 - mean_outer) / np.maximum(m - 1.0, 1.0)
    cov = 0.5 * (cov + np.swapaxes(cov, -1, -2))  # exact symmetry
    return cov + alpha * np.eye(kd)
