"""Input preparation: the working range, synthetic noise, and the initial diffusivity.

Images enter on [0, 1] and the filter works on [-1, 1]; rescale and
unrescale are the one place that decision lives.

The initial diffusivity field estimates, per pixel, the sample covariance of
the vectorised color gradient over a small window (the observable stand-in
for the unobservable noise-gradient covariance), then adds alpha * Id. The
shift guarantees the eigenvalue floor the integrator's admissibility
precondition asks for, by construction. It reads the gradient in its own
component-first layout, one contiguous cell field per component, and
returns the symmetric tensor field packed, (P,) + dims with
P = kd(kd+1)/2 (see tensors.pack_index), as run() takes H0.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, integer_param
from .grid import check_image, gradient
from .mollifier import _correlate1d
from .tensors import pack_index

Array = np.ndarray


@dataclass(frozen=True)
class NoiseSpec:
    """Seeded i.i.d. Gaussian noise of standard deviation std."""

    std: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if not 0 <= self.std < math.inf:
            raise ParameterError("noise std must be finite and >= 0")
        if integer_param(self.seed, "noise seed") < 0:
            raise ParameterError("noise seed must be >= 0")


def rescale(u01: Array) -> Array:
    """Map [0, 1] (the loaded image's v/255) onto [-1, 1], the filter's working range."""
    return np.asarray(u01, dtype=float) * 2.0 - 1.0


def unrescale(u: Array) -> Array:
    """Inverse of rescale: [-1, 1] back onto [0, 1]."""
    return (np.asarray(u, dtype=float) + 1.0) * 0.5


def add_noise(u: Array, spec: NoiseSpec) -> Array:
    """Add seeded i.i.d. zero-mean Gaussian noise per pixel and channel.

    The noise field scales linearly in std for a fixed seed (one draw of a
    standard-normal field, multiplied by std). Output is not clamped.
    """
    u = np.asarray(u, dtype=float)
    if spec.std == 0.0:
        return u.copy()
    rng = np.random.default_rng(spec.seed)
    # A std near the largest float overflows to inf without a warning: the
    # filter's finiteness check reports it.
    with np.errstate(over="ignore"):
        return u + spec.std * rng.standard_normal(u.shape)


def _window_sums(values: Array, dims: tuple[int, ...], window: int) -> Array:
    """Sum of `values` over the clipped window box around every cell.

    `values` has shape dims + tail; summation runs over the spatial axes.
    """
    out = np.asarray(values, dtype=float)
    w = np.ones(window)
    for axis in range(len(dims)):
        out = _correlate1d(out, w, axis)
    return out


def init_H0(u_noisy: Array, window: int, alpha: float) -> Array:
    """Initial diffusivity of the image u_noisy: windowed gradient covariance plus alpha * Id.

    For every cell, the sample covariance (1/(m-1) divisor, m = number of
    valid window samples) of the vectorised gradients over the window x ...
    x window neighborhood, clipped at the boundary. Only cells carrying a
    forward face along every axis contribute samples; the boundary slots of
    the gradient stencil encode the no-flux convention, not image content,
    and would otherwise fake variation (an affine image must yield zero
    covariance everywhere). Symmetric by construction with
    lambda_min >= alpha.

    The result is packed, (P,) + dims. Each entry a <= b of the upper
    triangle is computed once, one cell-sized field at a time, and written
    to its plane pack_index(kd)[a, b]; no field of all kd x kd products is
    formed. Off the diagonal alpha * Id adds +0.0, which turns a covariance
    of -0.0 into +0.0. An input whose squared L2 norm is finite may still
    overflow a covariance: that raises ParameterError, naming the entry
    (a, b) and its first cell in C order.
    """
    if window < 3 or window % 2 == 0:
        raise ParameterError("window must be odd and >= 3")
    u = check_image("u_noisy", u_noisy)  # finite before its covariance products can overflow
    dims = u.shape[:-1]
    if any(window > n for n in dims):
        raise ParameterError(f"window {window} exceeds grid dims {dims}")
    if alpha <= 0:
        raise ParameterError("alpha must be > 0")
    kd = u.shape[-1] * len(dims)
    # One contiguous cell field per gradient component: the gradient's own layout.
    gflat = gradient(u).reshape((kd,) + dims)

    valid = np.ones(dims)
    for axis in range(len(dims)):
        sl = [slice(None)] * len(dims)
        sl[axis] = slice(-1, None)
        valid[tuple(sl)] = 0.0

    counts = _window_sums(valid, dims, window)
    gvalid = gflat * valid
    s1 = [_window_sums(g, dims, window) for g in gvalid]
    # A single-sample window has an identically zero numerator, so clamping
    # the divisor just avoids 0/0 there and leaves cov = 0.
    divisor = np.maximum(counts - 1.0, 1.0)
    index = pack_index(kd)
    h0 = np.empty((kd * (kd + 1) // 2,) + dims)
    # A finite input can still overflow the products and window sums below:
    # their inf and NaN are caught per entry, without numpy's warnings.
    with np.errstate(over="ignore", invalid="ignore"):
        for a in range(kd):
            for b in range(a, kd):
                cov = _window_sums(gflat[a] * gvalid[b], dims, window)
                cov -= s1[a] * s1[b] / counts
                cov /= divisor
                cov += alpha if a == b else 0.0
                finite = np.isfinite(cov)
                if not finite.all():
                    cell = tuple(map(int, np.unravel_index(np.argmin(finite), dims)))
                    raise ParameterError(
                        f"u_noisy is too large: its gradient covariance ({a}, {b}) overflows at cell {cell}"
                    )
                h0[index[a, b]] = cov
    return h0
