"""Discrete differential operators on the pixel grid.

Fields are cell-centered numpy arrays of shape dims + (k,). The discrete
gradient takes forward differences along each axis; the value for the face
between cells x and x+e_j is stored at slot (x, :, j), and the last slot per
axis (which has no forward face) holds zero. The divergence is built as the
exact negative adjoint of this gradient under the plain grid inner products,
with zero flux through all boundary faces. That pairing is what the no-flux
boundary treatment means discretely: summation by parts holds to rounding,
so total intensity is conserved and the diffusion operator below is an
exactly symmetric, coercive map.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, ParameterError
from .tensors import apply, require_symmetric

Array = np.ndarray


@dataclass(frozen=True)
class GridSpec:
    """Pixel grid: sizes per axis, spacing per axis, channel count."""

    dims: tuple[int, ...]
    spacing: tuple[float, ...] = ()
    channels: int = 1

    def __post_init__(self):
        dims = tuple(int(n) for n in self.dims)
        if len(dims) == 0:
            raise ParameterError("grid needs at least one axis")
        if any(n < 2 for n in dims):
            raise ParameterError(f"all grid dims must be >= 2, got {dims}")
        spacing = self.spacing or tuple(1.0 for _ in dims)
        spacing = tuple(float(h) for h in spacing)
        if len(spacing) != len(dims):
            raise ParameterError("spacing must have one entry per axis")
        if any(h <= 0 for h in spacing):
            raise ParameterError(f"spacing must be positive, got {spacing}")
        if self.channels < 1:
            raise ParameterError("channels must be >= 1")
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "spacing", spacing)
        object.__setattr__(self, "channels", int(self.channels))

    @property
    def ndim(self) -> int:
        return len(self.dims)

    @property
    def ncells(self) -> int:
        return int(np.prod(self.dims))

    @property
    def cell_volume(self) -> float:
        return float(np.prod(self.spacing))

    def field_shape(self) -> tuple[int, ...]:
        return self.dims + (self.channels,)

    @staticmethod
    def from_field(u: Array, spacing: tuple[float, ...] = ()) -> "GridSpec":
        """Grid implied by a dims + (k,) array (unit spacing by default)."""
        u = np.asarray(u)
        if u.ndim < 2:
            raise DimensionError("image field needs shape dims + (channels,)")
        return GridSpec(dims=u.shape[:-1], spacing=spacing, channels=u.shape[-1])


def check_image(u: Array, grid: GridSpec) -> Array:
    u = np.asarray(u, dtype=float)
    if u.shape != grid.field_shape():
        raise DimensionError(f"field shape {u.shape} != grid shape {grid.field_shape()}")
    return u


def _axis_slices(ndim: int, axis: int):
    """(cells with a forward face, their forward neighbors, last cells)."""
    lo = [slice(None)] * ndim
    hi = [slice(None)] * ndim
    last = [slice(None)] * ndim
    lo[axis] = slice(0, -1)
    hi[axis] = slice(1, None)
    last[axis] = slice(-1, None)
    return tuple(lo), tuple(hi), tuple(last)


def gradient(u: Array, grid: GridSpec) -> Array:
    """Forward-difference gradient field of shape dims + (k, d)."""
    u = check_image(u, grid)
    d = grid.ndim
    out = np.empty(grid.dims + (grid.channels, d))
    for j in range(d):
        lo, hi, last = _axis_slices(d, j)
        face = out[lo + (slice(None), j)]
        np.subtract(u[hi], u[lo], out=face)
        if grid.spacing[j] != 1.0:  # v / 1.0 == v, so skipping it is exact
            face /= grid.spacing[j]
        out[last + (slice(None), j)] = 0.0
    return out


def divergence(jfield: Array, grid: GridSpec) -> Array:
    """Negative adjoint of ``gradient``; boundary faces carry zero flux.

    The padding slot of each axis (last cell) is ignored, which realises the
    vanishing normal flux: sum over all cells of the output is exactly zero.
    """
    jfield = np.asarray(jfield, dtype=float)
    d = grid.ndim
    if jfield.shape != grid.dims + (grid.channels, d):
        raise DimensionError(
            f"flux shape {jfield.shape} != {grid.dims + (grid.channels, d)}"
        )
    out = np.zeros(grid.field_shape())
    for j in range(d):
        lo, hi, _ = _axis_slices(d, j)
        f = jfield[..., j][lo]  # interior faces only; boundary flux is zero
        if grid.spacing[j] != 1.0:
            f = f / grid.spacing[j]
        out[lo] += f
        out[hi] -= f
    return out


def face_average_tensors(hfield: Array, grid: GridSpec) -> Array:
    """One tensor per cell slot, averaged from the tensors at its forward faces.

    Each forward face between x and x+e_j carries the arithmetic mean of the
    two adjacent cell tensors; the slot tensor is the mean over the cell's
    existing forward faces (the far corner keeps its own tensor). Being a
    convex combination of cell tensors, the result stays symmetric and keeps
    any shared eigenvalue floor, which makes the diffusion form below
    exactly symmetric and coercive.
    """
    hfield = np.asarray(hfield, dtype=float)
    d = grid.ndim
    out = np.zeros_like(hfield)
    count = np.zeros(grid.dims)
    for j in range(d):
        lo, hi, _ = _axis_slices(d, j)
        out[lo] += 0.5 * (hfield[lo] + hfield[hi])
        count[lo] += 1.0
    corner = count == 0
    count[corner] = 1.0
    out /= count[..., None, None]
    if np.any(corner):
        out[corner] = hfield[corner]
    return out


def diffusion_apply(hfield: Array, u: Array, grid: GridSpec) -> Array:
    """div(H grad u) with face-averaged tensors; linear and mass conserving."""
    havg = face_average_tensors(require_symmetric(hfield), grid)
    return divergence(apply(havg, gradient(u, grid)), grid)


def inner(u: Array, v: Array, grid: GridSpec) -> float:
    """Volume-weighted grid inner product of two fields of equal shape."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if u.shape != v.shape:
        raise DimensionError(f"shape mismatch: {u.shape} vs {v.shape}")
    return grid.cell_volume * float(np.dot(u.ravel(), v.ravel()))


def l2_norm(u: Array, grid: GridSpec) -> float:
    return float(np.sqrt(max(inner(u, u, grid), 0.0)))


def channel_means(u: Array, grid: GridSpec) -> Array:
    u = check_image(u, grid)
    return u.reshape(-1, grid.channels).mean(axis=0)


def mean_free(u: Array, grid: GridSpec) -> Array:
    """Remove the per-channel spatial mean (the conserved part)."""
    return check_image(u, grid) - channel_means(u, grid)


def poincare_estimate(grid: GridSpec) -> float:
    """Smallest nonzero eigenvalue of the scalar no-flux Laplacian on the grid.

    The operator is a sum of 1-d Neumann Laplacians, one per axis, whose
    eigenvalues are 4 sin^2(pi k / (2 n_j)) / h_j^2 for k = 0 .. n_j - 1, so
    the smallest nonzero one is min_j 4 sin^2(pi / (2 n_j)) / h_j^2. This is
    the discrete constant in ||grad u||^2 >= C ||u||^2 for mean-free u, used
    by the decay-rate predictions.
    """
    return min(
        4.0 * math.sin(math.pi / (2 * n)) ** 2 / (h * h)
        for n, h in zip(grid.dims, grid.spacing)
    )
