"""Discrete differential operators on the pixel grid.

Fields are cell-centered numpy arrays of shape dims + (k,). The discrete
gradient takes forward differences along each axis; the value for the face
between cells x and x+e_j is stored at slot (x, :, j), and the last slot per
axis (which has no forward face) holds zero. The divergence is built as the
exact negative adjoint of this gradient under the plain grid inner products,
with zero flux through all boundary faces. That pairing is what the no-flux
boundary treatment means discretely: summation by parts holds to rounding,
so total intensity is conserved and the integrator's CG operator
div(apply(face_average_tensors(H), grad u)) is exactly symmetric and coercive.

The gradient and the divergence run in row bands over the CPUs
(``relaxdiff.bands``), each element computed by the same operations in the
same order as in one pass over the field, so their bits do not depend on the
CPU count. The inner product sums with numpy's einsum loop, which is
single-threaded, and not with BLAS, whose dot product splits long vectors
over threads and so rounds differently with the number of threads.
"""

import math
from dataclasses import dataclass

import numpy as np

from .bands import band_edges, for_bands
from .errors import DimensionError, ParameterError

Array = np.ndarray

FACE_AVERAGE_CHUNK = 1 << 16  # float64 elements per band scratch buffer of face_average_tensors


@dataclass(frozen=True)
class GridSpec:
    """Grid of unit pixels: sizes per axis and channel count."""

    dims: tuple[int, ...]
    channels: int = 1

    def __post_init__(self):
        dims = tuple(int(n) for n in self.dims)
        if len(dims) == 0:
            raise ParameterError("grid needs at least one axis")
        if any(n < 2 for n in dims):
            raise ParameterError(f"all grid dims must be >= 2, got {dims}")
        if self.channels < 1:
            raise ParameterError("channels must be >= 1")
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "channels", int(self.channels))

    @property
    def ndim(self) -> int:
        return len(self.dims)

    @property
    def ncells(self) -> int:
        return int(np.prod(self.dims))

    def field_shape(self) -> tuple[int, ...]:
        return self.dims + (self.channels,)

    @staticmethod
    def from_field(u: Array) -> "GridSpec":
        """Grid implied by a dims + (k,) array."""
        u = np.asarray(u)
        if u.ndim < 2:
            raise DimensionError("image field needs shape dims + (channels,)")
        return GridSpec(dims=u.shape[:-1], channels=u.shape[-1])


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
    n0 = grid.dims[0]
    out = np.empty(grid.dims + (grid.channels, d))

    def band(start: int, stop: int) -> None:
        # Axis 0 reads one row past the band; the last row has no forward face.
        top = min(stop, n0 - 1)
        np.subtract(u[start + 1:top + 1], u[start:top], out=out[start:top, ..., 0])
        out[top:stop, ..., 0] = 0.0
        ub, ob = u[start:stop], out[start:stop]
        for j in range(1, d):
            lo, hi, last = _axis_slices(d, j)
            np.subtract(ub[hi], ub[lo], out=ob[lo + (slice(None), j)])
            ob[last + (slice(None), j)] = 0.0

    for_bands(band, n0, u.size + out.size)
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
    n0 = grid.dims[0]
    out = np.zeros(grid.field_shape())

    def band(start: int, stop: int) -> None:
        # Per element: + its own face, - the face behind it, axis by axis.
        # Axis 0 reads the flux of one row before the band; the last row's
        # slot is a boundary face and carries no flux.
        top = min(stop, n0 - 1)
        out[start:top] += jfield[start:top, ..., 0]
        first = max(start, 1)
        out[first:stop] -= jfield[first - 1:stop - 1, ..., 0]
        jb, ob = jfield[start:stop], out[start:stop]
        for j in range(1, d):
            lo, hi, _ = _axis_slices(d, j)
            f = jb[..., j][lo]  # interior faces only; boundary flux is zero
            ob[lo] += f
            ob[hi] -= f

    for_bands(band, n0, jfield.size + out.size)
    return out


def face_average_tensors(hfield: Array, grid: GridSpec) -> Array:
    """One tensor per cell slot, averaged from the tensors at its forward faces.

    Each forward face between x and x+e_j carries the arithmetic mean of the
    two adjacent cell tensors; the slot tensor is the mean over the cell's
    existing forward faces (the far corner keeps its own tensor). Being a
    convex combination of cell tensors, the result stays symmetric and keeps
    any shared eigenvalue floor, which makes the diffusion form exactly
    symmetric and coercive.

    Per element the sum starts from 0.0 (so a first term of -0.0 gives
    +0.0), adds 0.5 (h[x] + h[x + e_j]) axis by axis and divides by the face
    count. The rows run in bands, a few rows at a time through one buffer
    per band, so the only field-sized array is the output.
    """
    hfield = np.asarray(hfield, dtype=float)
    d = grid.ndim
    n0 = grid.dims[0]
    # Face counts of the cells of a row: its faces along axes 1.., plus the
    # axis-0 face in every row but the last. Small integers, exact in float.
    faces = np.zeros(grid.dims[1:])
    for j in range(1, d):
        faces[_axis_slices(d - 1, j - 1)[0]] += 1.0
    count = (faces + 1.0)[..., None, None]
    last_count = np.maximum(faces, 1.0)[..., None, None]  # the corner's 0 -> 1
    corner = tuple(n - 1 for n in grid.dims)
    out = np.empty_like(hfield)
    work = 2 * hfield.size
    chunk = max(1, FACE_AVERAGE_CHUNK // hfield[0].size)
    edges = band_edges(n0, work)
    scratch = {start: np.empty((min(chunk, stop - start),) + hfield.shape[1:])
               for start, stop in zip(edges, edges[1:])}

    def band(start: int, stop: int) -> None:
        for a in range(start, stop, chunk):
            b = min(a + chunk, stop)
            top = min(b, n0 - 1) - a  # rows a .. a+top-1 have an axis-0 face
            ob, hb, tmp = out[a:b], hfield[a:b], scratch[start][:b - a]
            np.add(hb[:top], hfield[a + 1:a + top + 1], out=ob[:top])
            ob[:top] *= 0.5
            ob[:top] += 0.0
            ob[top:] = 0.0
            for j in range(1, d):
                lo, hi, _ = _axis_slices(d, j)
                t = tmp[lo]
                np.add(hb[lo], hb[hi], out=t)
                t *= 0.5
                ob[lo] += t
            ob[:top] /= count
            ob[top:] /= last_count
        if stop == n0:
            out[corner] = hfield[corner]

    for_bands(band, n0, work)
    return out


def inner(u: Array, v: Array, grid: GridSpec) -> float:
    """Grid inner product of two fields of equal shape (unit cell volume)."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if u.shape != v.shape:
        raise DimensionError(f"shape mismatch: {u.shape} vs {v.shape}")
    return float(np.einsum("i,i->", u.ravel(), v.ravel()))


def l2_norm(u: Array, grid: GridSpec) -> float:
    return float(np.sqrt(max(inner(u, u, grid), 0.0)))


def mean_free(u: Array, grid: GridSpec) -> Array:
    """Remove the per-channel spatial mean (the conserved part)."""
    u = check_image(u, grid)
    return u - u.reshape(-1, grid.channels).mean(axis=0)


def poincare_estimate(grid: GridSpec) -> float:
    """Smallest nonzero eigenvalue of the scalar no-flux Laplacian on the grid.

    The operator is a sum of 1-d Neumann Laplacians, one per axis, whose
    eigenvalues are 4 sin^2(pi k / (2 n_j)) for k = 0 .. n_j - 1, so the
    smallest nonzero one is min_j 4 sin^2(pi / (2 n_j)). This is the discrete
    constant in ||grad u||^2 >= C ||u||^2 for mean-free u, used by the
    decay-rate predictions.
    """
    return min(4.0 * math.sin(math.pi / (2 * n)) ** 2 for n in grid.dims)
