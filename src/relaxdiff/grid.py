"""Discrete differential operators on the pixel grid.

Image fields are cell-centered numpy arrays of shape dims + (k,). The
discrete gradient takes forward differences along each axis. It is stored
component-first, with shape (k, d) + dims: the value for the face between
cells x and x+e_j is at slot (:, j, x), so each component is one contiguous
cell field, and the last slot per axis (which has no forward face) holds
zero. Fluxes share that layout, and tensor fields have the matching one:
the face averaging takes H packed, (P,) + dims with P = kd(kd+1)/2 (see
``tensors.pack_index``), and returns the face tensors full square,
(kd, kd) + dims, which the CG operator applies to the gradient cell by
cell (``tensors.apply``). The divergence is built as the
exact negative adjoint of this gradient under the plain grid inner products,
with zero flux through all boundary faces. That pairing is what the no-flux
boundary treatment means discretely: summation by parts holds to rounding,
so total intensity is conserved and the integrator's CG operator
div(apply(face_average_tensors(H), grad u)) is exactly symmetric and coercive.

The gradient and the divergence run in row bands over the CPUs
(``relaxdiff.bands``), each element computed by the same operations in the
same order as in one pass over the field, so their bits do not depend on the
CPU count. Each reads or writes the image field through a channel-first view,
one ufunc call per axis for all channels; the face averaging runs in row
bands too. The inner product sums with numpy's einsum loop, which is
single-threaded, and not with BLAS, whose dot product splits long vectors
over threads and so rounds differently with the number of threads.
"""

import math
from dataclasses import dataclass

import numpy as np

from .bands import band_edges, for_bands
from .errors import DimensionError, ParameterError, integer_param
from .tensors import pack_index

Array = np.ndarray

FACE_AVERAGE_CHUNK = 1 << 16  # float64 values per chunk of face_average_tensors, and per band's buffer


@dataclass(frozen=True)
class GridSpec:
    """Grid of unit pixels: sizes per axis and channel count."""

    dims: tuple[int, ...]
    channels: int = 1

    def __post_init__(self):
        dims = tuple(integer_param(n, "grid dims") for n in self.dims)
        channels = integer_param(self.channels, "channels")
        if len(dims) == 0:
            raise ParameterError("grid needs at least one axis")
        if any(n < 2 for n in dims):
            raise ParameterError(f"all grid dims must be >= 2, got {dims}")
        if channels < 1:
            raise ParameterError("channels must be >= 1")
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "channels", channels)

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
    """Forward-difference gradient field of shape (k, d) + dims, component-first."""
    u = check_image(u, grid)
    d = grid.ndim
    n0 = grid.dims[0]
    uk = np.moveaxis(u, -1, 0)  # (k,) + dims view: one ufunc call per axis covers every channel
    out = np.empty((grid.channels, d) + grid.dims)

    def band(start: int, stop: int) -> None:
        # Axis 0 reads one row past the band; the last row has no forward face.
        top = min(stop, n0 - 1)
        np.subtract(uk[:, start + 1:top + 1], uk[:, start:top], out=out[:, 0, start:top])
        out[:, 0, top:stop] = 0.0
        ub = uk[:, start:stop]
        for j in range(1, d):
            lo, hi, last = ((slice(None),) + s for s in _axis_slices(d, j))
            ob = out[:, j, start:stop]
            np.subtract(ub[hi], ub[lo], out=ob[lo])
            ob[last] = 0.0

    for_bands(band, n0, u.size + out.size)
    return out


def divergence(jfield: Array, grid: GridSpec) -> Array:
    """Negative adjoint of ``gradient``; boundary faces carry zero flux.

    jfield has the gradient's layout, (k, d) + dims; the result is an image
    field, dims + (k,). The padding slot of each axis (last cell) is
    ignored, which realises the vanishing normal flux: sum over all cells of
    the output is exactly zero.
    """
    jfield = np.asarray(jfield, dtype=float)
    d = grid.ndim
    if jfield.shape != (grid.channels, d) + grid.dims:
        raise DimensionError(
            f"flux shape {jfield.shape} != {(grid.channels, d) + grid.dims}"
        )
    n0 = grid.dims[0]
    out = np.zeros(grid.field_shape())
    ok = np.moveaxis(out, -1, 0)  # (k,) + dims view, as the flux is laid out

    def band(start: int, stop: int) -> None:
        # Per element: + its own face, - the face behind it, axis by axis.
        # Axis 0 reads the flux of one row before the band; the last row's
        # slot is a boundary face and carries no flux.
        top = min(stop, n0 - 1)
        ok[:, start:top] += jfield[:, 0, start:top]
        first = max(start, 1)
        ok[:, first:stop] -= jfield[:, 0, first - 1:stop - 1]
        ob = ok[:, start:stop]
        for j in range(1, d):
            lo, hi, _ = ((slice(None),) + s for s in _axis_slices(d, j))
            f = jfield[:, j, start:stop][lo]  # interior faces only; boundary flux is zero
            ob[lo] += f
            ob[hi] -= f

    for_bands(band, n0, jfield.size + out.size)
    return out


def face_average_tensors(hfield: Array, grid: GridSpec) -> Array:
    """One tensor per cell slot, averaged from the tensors at its forward faces.

    hfield is packed, (P,) + dims with P = kd(kd+1)/2, as the step loop
    holds H; the result is full square, (kd, kd) + dims, the layout
    ``tensors.apply`` reads. Any other shape raises DimensionError. Each
    forward face between x and x+e_j carries the arithmetic mean of the two
    adjacent cell tensors; the slot tensor is the mean over the cell's
    existing forward faces (the far corner keeps its own tensor). Being a
    convex combination of cell tensors, the result stays symmetric and keeps
    any shared eigenvalue floor, which makes the diffusion form exactly
    symmetric and coercive.

    Per element the sum starts from 0.0 (so a first term of -0.0 gives
    +0.0), adds 0.5 (h[x] + h[x + e_j]) axis by axis and divides by the face
    count. The rows run in bands, a chunk of whole rows at a time, read as
    flat cells of a group of packed planes from one row a of the triangle:
    the neighbour along axis j lies prod(dims[j+1:]) cells further on. A
    chunk and a group hold about FACE_AVERAGE_CHUNK values together (few
    long planes keep the CPU caches from thrashing on planes a power of two
    apart). A group's sums go straight into its output planes (a, b), which
    lie side by side, and are then copied to their mirrors (b, a). The
    axis-0 terms go straight into the output; those of the other axes go
    through one buffer per band, in which the pairs that wrap past the end
    of axis j are set to 0.0 before they are added. Adding +0.0 leaves every
    sum as it is, since a sum that starts from 0.0 is never -0.0. The only
    field-sized array is the output.
    """
    hfield = np.asarray(hfield, dtype=float)
    kd = grid.channels * grid.ndim
    packed = (kd * (kd + 1) // 2,) + grid.dims
    if hfield.shape != packed:
        raise DimensionError(f"packed tensor field shape {hfield.shape} != {packed}")
    d = grid.ndim
    n0 = grid.dims[0]
    row = math.prod(grid.dims[1:])
    # Face counts of the cells of a row: its faces along axes 1.., plus the
    # axis-0 face in every row but the last. Small integers, exact in float.
    faces = np.zeros(grid.dims[1:])
    for j in range(1, d):
        faces[_axis_slices(d - 1, j - 1)[0]] += 1.0
    count = (faces + 1.0).ravel()
    last_count = np.maximum(faces, 1.0).ravel()  # the corner's 0 -> 1
    corner = tuple(n - 1 for n in grid.dims)
    index = pack_index(kd)
    out = np.empty((kd, kd) + grid.dims)
    hp = hfield.reshape(hfield.shape[0], -1)  # one flat cell plane per entry pair
    op = out.reshape(kd * kd, -1)  # one flat cell plane per tensor entry
    work = hfield.size + out.size
    edges = band_edges(n0, work)
    rows = min(max(1, FACE_AVERAGE_CHUNK // row), max(np.diff(edges)))  # rows per chunk
    planes = min(kd, max(1, FACE_AVERAGE_CHUNK // (rows * row)))  # entry planes per chunk
    scratch = {start: np.empty((planes, rows * row)) for start in edges[:-1]}

    def band(start: int, stop: int) -> None:
        for a in range(start, stop, rows):
            b = min(a + rows, stop)
            lo, hi = a * row, b * row
            top = min(b, n0 - 1) - a  # rows a .. a+top-1 have an axis-0 face
            mid = top * row
            for r in range(kd):
                for e in range(r, kd, planes):
                    f = min(e + planes, kd)
                    q = index[r, e]  # the packed planes of entries (r, e) .. (r, f-1)
                    hb, t = hp[q:q + f - e, lo:hi], scratch[start][:f - e, :hi - lo]
                    acc = op[r * kd + e:r * kd + f, lo:hi]
                    np.add(hb[:, :mid], hp[q:q + f - e, lo + row:lo + row + mid], out=acc[:, :mid])
                    acc[:, :mid] *= 0.5
                    acc[:, :mid] += 0.0
                    acc[:, mid:] = 0.0
                    for j in range(1, d):
                        stride = math.prod(grid.dims[j + 1:])
                        np.add(hb[:, :-stride], hb[:, stride:], out=t[:, :-stride])
                        t.reshape(f - e, -1, grid.dims[j], stride)[:, :, -1] = 0.0
                        t *= 0.5
                        acc += t
                    cells = acc.reshape(f - e, b - a, row)
                    cells[:, :top] /= count
                    cells[:, top:] /= last_count
                    for c in range(max(e, r + 1), f):
                        op[c * kd + r, lo:hi] = op[r * kd + c, lo:hi]

    for_bands(band, n0, work)
    out[(...,) + corner] = hfield[(...,) + corner][index]
    return out


def inner(u: Array, v: Array) -> float:
    """Grid inner product of two fields of equal shape (unit cell volume)."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if u.shape != v.shape:
        raise DimensionError(f"shape mismatch: {u.shape} vs {v.shape}")
    return float(np.einsum("i,i->", u.ravel(), v.ravel()))


def l2_norm(u: Array) -> float:
    return float(np.sqrt(max(inner(u, u), 0.0)))


def channel_sums(u: Array, grid: GridSpec) -> Array:
    """Per-channel sums of an image field, u.reshape(-1, k).sum(axis=0) bit for bit.

    For k >= 2 that sum runs in index order, which einsum takes in a fifth of
    the time; for k = 1 it is pairwise, so grey keeps it.
    """
    v = u.reshape(-1, grid.channels)
    return np.einsum("nc->c", v) if grid.channels > 1 else v.sum(axis=0)


def mean_free(u: Array, grid: GridSpec) -> Array:
    """Remove the per-channel spatial mean (the conserved part), numpy's mean bit for bit."""
    u = check_image(u, grid)
    return u - channel_sums(u, grid) / grid.ncells


def poincare_estimate(grid: GridSpec) -> float:
    """Smallest nonzero eigenvalue of the scalar no-flux Laplacian on the grid.

    The operator is a sum of 1-d Neumann Laplacians, one per axis, whose
    eigenvalues are 4 sin^2(pi k / (2 n_j)) for k = 0 .. n_j - 1, so the
    smallest nonzero one is min_j 4 sin^2(pi / (2 n_j)). This is the discrete
    constant in ||grad u||^2 >= C ||u||^2 for mean-free u, used by the
    decay-rate predictions.
    """
    return min(4.0 * math.sin(math.pi / (2 * n)) ** 2 for n in grid.dims)
