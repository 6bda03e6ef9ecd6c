"""Discrete differential operators on the pixel grid.

Image fields are cell-centered numpy arrays of shape dims + (k,), and that
shape is the grid: each kernel here reads dims, k and d = len(dims) from the
arrays it is given, and ``check_image`` checks an image once, where a run
enters. The discrete gradient takes forward differences along each axis. It
is stored component-first, with shape (k, d) + dims: the value for the face
between cells x and x+e_j is at slot (:, j, x), so each component is one
contiguous cell field, and the last slot per axis (which has no forward
face) holds zero. Fluxes share that layout, and tensor fields have the
matching one: the face averaging takes H packed, (P,) + dims with P =
kd(kd+1)/2 (see ``tensors.pack_index``), and returns the face tensors full
square, (kd, kd) + dims, which the CG operator applies to the gradient cell
by cell (``tensors.apply``). For kd <= 2 (grey in 2-D), where the packed
plane of entry (a, b) is plane a + b, that square is a read-only view of
the P packed planes with equal strides on its two tensor axes, so the
mirrored plane is never stored. The divergence is built as the exact
negative adjoint of this gradient under the plain grid inner products,
with zero flux through all boundary faces. That pairing is what the
no-flux boundary treatment means discretely: summation by parts holds to
rounding, so total intensity is conserved and the integrator's CG
operator div(apply(face_average_tensors(H), grad u)) is exactly symmetric
and coercive. The CG forms it as divergence(flux(havg, u)): ``flux`` is the
tensors applied to the gradient in one pass, with no field-sized gradient.

The gradient, the flux, the divergence and the face averaging run in row
bands over the CPUs (``relaxdiff.bands``), each element computed by the same
operations in the same order as in one pass over the field, so their bits do
not depend on the CPU count. The first three read or write channel c of the
image field as the strided line u.reshape(-1)[c::k], and each component as a
flat cell field, by one-dimensional ufunc calls, one per channel and axis:
numpy needs no iterator buffers for them, so their bands allocate nothing.
Along axis j a cell's neighbour lies prod(dims[j+1:]) cells further on.
The inner product sums with numpy's einsum loop, which is single-threaded,
and not with BLAS, whose dot product splits long vectors over threads and so
rounds differently with the number of threads.
"""

import math

import numpy as np

from .bands import band_edges, for_bands
from .errors import DimensionError, ParameterError
from . import tensors
from .tensors import _packed_side, pack_index

Array = np.ndarray

FACE_AVERAGE_CHUNK = 1 << 16  # float64 values per chunk of face_average_tensors, and per band's buffer
# flux: cells per chunk, one tensors.apply each, so that a chunk's slices of
# the tensors, its gradient and the flux stay in cache (whole bands were
# measured up to 10 % slower).
APPLY_CHUNK = 1 << 15


def check_image(name: str, u: Array) -> Array:
    """u as a float image, dims + (k,), checked once at a run's entry.

    Its shape is the grid: every dim must be at least 2 and k at least 1.
    Its squared L2 norm must be finite (see _require_finite), where name
    names it.
    """
    u = np.asarray(u, dtype=float)
    if u.ndim < 2:
        raise DimensionError("image field needs shape dims + (channels,)")
    if any(n < 2 for n in u.shape[:-1]):
        raise ParameterError(f"all grid dims must be >= 2, got {u.shape[:-1]}")
    if u.shape[-1] < 1:
        raise ParameterError("channels must be >= 1")
    _require_finite(name, u)
    return u


def _gradient_rows(uf: Array, k: int, dims: tuple[int, ...], start: int, stop: int, out: Array) -> None:
    """The gradient of rows [start, stop) of axis 0 into out, (k, d, cells of those rows).

    uf is the image's flat values, channel last, so channel c is the strided
    line uf[c::k]; along axis j a cell's neighbour lies prod(dims[j+1:])
    cells further on. Each component is one one-dimensional ufunc call, and
    the slots without a forward face, which that call filled with the pair
    that wraps past the end of axis j, are set to 0.0 after it.
    """
    row = math.prod(dims[1:])
    lo, hi = start * row, stop * row
    top = min(stop, dims[0] - 1) * row  # the last row has no axis-0 face
    for c in range(k):
        uc = uf[c::k]
        np.subtract(uc[lo + row:top + row], uc[lo:top], out=out[c, 0, :top - lo])
        out[c, 0, top - lo:] = 0.0
        for j in range(1, len(dims)):
            stride = math.prod(dims[j + 1:])
            oc = out[c, j]
            np.subtract(uc[lo + stride:hi], uc[lo:hi - stride], out=oc[:hi - lo - stride])
            oc.reshape(-1, dims[j], stride)[:, -1] = 0.0


def gradient(u: Array) -> Array:
    """Forward-difference gradient of an image, dims + (k,), of shape (k, d) + dims, component-first."""
    u = np.asarray(u, dtype=float)
    k, dims = u.shape[-1], u.shape[:-1]
    out = np.empty((k, len(dims)) + dims)
    uf, of = u.reshape(-1), out.reshape(k, len(dims), -1)
    row = math.prod(dims[1:])

    def band(start: int, stop: int) -> None:
        _gradient_rows(uf, k, dims, start, stop, of[:, :, start * row:stop * row])

    for_bands(band, dims[0], u.size + out.size)
    return out


def flux(havg: Array, u: Array) -> Array:
    """tensors.apply(havg, gradient(u)) bit for bit, with no field-sized gradient.

    havg holds the face tensors full square, (kd, kd) + dims, for the image
    u, dims + (k,); any other shape raises DimensionError. The result is
    the flux, (k, d) + dims. One banded pass over the rows of axis 0: each
    chunk of whole rows, about APPLY_CHUNK cells, takes its gradient
    into a buffer of its band, allocated here, and applies the tensors to it
    by one tensors.apply, so every element comes from the same operations as
    in the two calls. Overflow gives inf or NaN without a warning; the CG
    reports it.
    """
    u = np.asarray(u, dtype=float)
    havg = np.asarray(havg, dtype=float)
    k, dims = u.shape[-1], u.shape[:-1]
    d = len(dims)
    kd = k * d
    if havg.shape != (kd, kd) + dims:
        raise DimensionError(f"face tensor shape {havg.shape} != {(kd, kd) + dims}")
    n0 = dims[0]
    row = math.prod(dims[1:])
    work = havg.size + u.size * (1 + d)
    edges = band_edges(n0, work)
    rows = min(max(1, APPLY_CHUNK // row), max(np.diff(edges)))  # rows per chunk
    # The scratch comes before the output, below it in the heap, so that
    # freeing it leaves no free top that glibc trims and faults in again at
    # the next call (measured: 5,384 against 4,616 minor faults per CLI run
    # at 256 x 256 RGB).
    scratch = {start: np.empty((kd, rows * row)) for start in edges[:-1]}
    out = np.empty((k, d) + dims)
    uf, hf, of = u.reshape(-1), havg.reshape(kd, kd, -1), out.reshape(k, d, -1)

    def band(start: int, stop: int) -> None:
        with np.errstate(over="ignore", invalid="ignore"):
            for a in range(start, stop, rows):
                b = min(a + rows, stop)
                g = scratch[start][:, :(b - a) * row].reshape(k, d, -1)
                _gradient_rows(uf, k, dims, a, b, g)
                tensors.apply(hf[:, :, a * row:b * row], g, out=of[:, :, a * row:b * row])

    for_bands(band, n0, work)
    return out


def divergence(jfield: Array) -> Array:
    """Negative adjoint of ``gradient``; boundary faces carry zero flux.

    jfield has the gradient's layout, (k, d) + dims, with d = len(dims): any
    other shape raises DimensionError. The result is an image field, dims +
    (k,). The padding slot of each axis (last cell) is ignored, which
    realises the vanishing normal flux: sum over all cells of the output is
    exactly zero.

    Per element: + its own face, - the face behind it, axis by axis, the sum
    starting from f + 0.0 (so a first term of -0.0 gives +0.0), or from 0.0
    in the last row of axis 0, which has no face of its own. Channel c of
    the output is the strided line out.reshape(-1)[c::k], written by
    one-dimensional ufunc calls over chunks of whole rows, about
    FACE_AVERAGE_CHUNK cells each. The terms of axes 1.. go through one
    buffer per band, in which the padding slots are set to +0.0: adding or
    subtracting it leaves every sum as it is, since a sum that starts so is
    never -0.0. Overflow gives inf or NaN without a warning; the CG reports
    it.
    """
    jfield = np.asarray(jfield, dtype=float)
    if jfield.ndim < 3 or jfield.shape[1] != jfield.ndim - 2:
        raise DimensionError(f"flux shape {jfield.shape} is not (k, d) + dims with d = len(dims)")
    k, d, dims = jfield.shape[0], jfield.shape[1], jfield.shape[2:]
    n0 = dims[0]
    row = math.prod(dims[1:])
    out = np.empty(dims + (k,))
    jf, of = jfield.reshape(k, d, -1), out.reshape(-1)
    work = jfield.size + out.size
    edges = band_edges(n0, work)
    rows = min(max(1, FACE_AVERAGE_CHUNK // row), max(np.diff(edges)))  # rows per chunk
    scratch = {start: np.empty(rows * row) for start in edges[:-1]}

    def band(start: int, stop: int) -> None:
        with np.errstate(over="ignore", invalid="ignore"):
            for a in range(start, stop, rows):
                b = min(a + rows, stop)
                lo, hi = a * row, b * row
                top = min(b, n0 - 1) * row  # cells below top have a face along axis 0
                first = max(a, 1) * row  # cells from first on have one behind them
                for c in range(k):
                    oc, f = of[c::k], jf[c, 0]
                    np.add(f[lo:top], 0.0, out=oc[lo:top])
                    oc[top:hi] = 0.0
                    np.subtract(oc[first:hi], f[first - row:hi - row], out=oc[first:hi])
                    ob = oc[lo:hi]
                    for j in range(1, d):
                        stride = math.prod(dims[j + 1:])
                        t = scratch[start][:hi - lo]
                        np.copyto(t, jf[c, j, lo:hi])
                        t.reshape(-1, dims[j], stride)[:, -1] = 0.0
                        ob += t
                        ob[stride:] -= t[:-stride]

    for_bands(band, n0, work)
    return out


def face_average_tensors(hfield: Array) -> Array:
    """One tensor per cell slot, averaged from the tensors at its forward faces.

    hfield is packed, (P,) + dims with P = kd(kd+1)/2, as the step loop
    holds H; the result is full square, (kd, kd) + dims, the layout
    ``tensors.apply`` reads. A P that no kd gives raises DimensionError;
    ``flux`` checks the result against its image. Each forward face between
    x and x+e_j carries the arithmetic mean of the two adjacent cell
    tensors; the slot tensor is the mean over the cell's existing forward
    faces (the far corner keeps its own tensor). Being a convex combination
    of cell tensors, the result stays symmetric and keeps any shared
    eigenvalue floor, which makes the diffusion form exactly symmetric and
    coercive.

    For kd <= 2 (grey in 2-D, two channels in 1-D), and only there, the
    packed plane of entry (a, b) is plane a + b (``tensors.pack_index``).
    So only the P packed planes are written, and the result is a read-only
    view of them whose two tensor axes have equal strides: (0, 1) and
    (1, 0) are one plane. For kd > 2 the result is a writeable C-ordered
    array of all kd x kd planes.

    Per element the sum starts from 0.0 (so a first term of -0.0 gives
    +0.0), adds 0.5 (h[x] + h[x + e_j]) axis by axis and divides by the face
    count. The rows run in bands, a chunk of whole rows at a time, read as
    flat cells of a group of packed planes from one row a of the triangle:
    the neighbour along axis j lies prod(dims[j+1:]) cells further on. A
    chunk and a group hold about FACE_AVERAGE_CHUNK values together (few
    long planes keep the CPU caches from thrashing on planes a power of two
    apart). A group's sums go straight into its output planes (a, b), which
    lie side by side, and for kd > 2 are then copied to their mirrors
    (b, a). The axis-0 terms go straight into the output; those of the
    other axes go through one buffer per band, in which the pairs that wrap
    past the end of axis j are set to 0.0 before they are added. Adding
    +0.0 leaves every sum as it is, since a sum that starts from 0.0 is
    never -0.0. The only field-sized array is the output. Overflow gives inf
    or NaN without a warning; the CG reports it.
    """
    hfield = np.asarray(hfield, dtype=float)
    kd = _packed_side(hfield.shape[0])
    dims = hfield.shape[1:]
    d = len(dims)
    n0 = dims[0]
    row = math.prod(dims[1:])
    # Face counts of the cells of a row: its faces along axes 1.., plus the
    # axis-0 face in every row but the last. Small integers, exact in float.
    faces = np.zeros(dims[1:])
    for j in range(1, d):
        faces[(slice(None),) * (j - 1) + (slice(0, -1),)] += 1.0  # cells with a face along axis j
    count = (faces + 1.0).ravel()
    last_count = np.maximum(faces, 1.0).ravel()  # the corner's 0 -> 1
    corner = tuple(n - 1 for n in dims)
    index = pack_index(kd)
    packed = kd <= 2  # where index[a, b] == a + b
    slot = index if packed else np.arange(kd * kd).reshape(kd, kd)  # the output plane of entry (a, b)
    out = np.empty((hfield.shape[0] if packed else kd * kd,) + dims)
    hp = hfield.reshape(hfield.shape[0], -1)  # one flat cell plane per entry pair
    op = out.reshape(out.shape[0], -1)  # one flat cell plane per output plane
    work = hfield.size + out.size
    edges = band_edges(n0, work)
    rows = min(max(1, FACE_AVERAGE_CHUNK // row), max(np.diff(edges)))  # rows per chunk
    planes = min(kd, max(1, FACE_AVERAGE_CHUNK // (rows * row)))  # entry planes per chunk
    scratch = {start: np.empty((planes, rows * row)) for start in edges[:-1]}

    def band(start: int, stop: int) -> None:
        with np.errstate(over="ignore", invalid="ignore"):
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
                        acc = op[slot[r, e]:slot[r, e] + f - e, lo:hi]
                        np.add(hb[:, :mid], hp[q:q + f - e, lo + row:lo + row + mid], out=acc[:, :mid])
                        acc[:, :mid] *= 0.5
                        acc[:, :mid] += 0.0
                        acc[:, mid:] = 0.0
                        for j in range(1, d):
                            stride = math.prod(dims[j + 1:])
                            np.add(hb[:, :-stride], hb[:, stride:], out=t[:, :-stride])
                            t.reshape(f - e, -1, dims[j], stride)[:, :, -1] = 0.0
                            t *= 0.5
                            acc += t
                        cells = acc.reshape(f - e, b - a, row)
                        cells[:, :top] /= count
                        cells[:, top:] /= last_count
                        if not packed:
                            for c in range(max(e, r + 1), f):
                                op[slot[c, r], lo:hi] = op[slot[r, c], lo:hi]

    for_bands(band, n0, work)
    out[(slot.ravel(),) + corner] = hfield[(index.ravel(),) + corner]
    if not packed:
        return out.reshape((kd, kd) + dims)
    s = out.strides
    return np.lib.stride_tricks.as_strided(out, (kd, kd) + dims, (s[0], s[0]) + s[1:], writeable=False)


def inner(u: Array, v: Array) -> float:
    """Grid inner product of two fields of equal shape (unit cell volume)."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if u.shape != v.shape:
        raise DimensionError(f"shape mismatch: {u.shape} vs {v.shape}")
    return float(np.einsum("i,i->", u.ravel(), v.ravel()))


def l2_norm(u: Array) -> float:
    return float(np.sqrt(max(inner(u, u), 0.0)))


def _require_finite(name: str, a: Array) -> None:
    """Reject input data, once at a run's entry, if its squared L2 norm is not finite.

    A sum of squares is NaN only where a holds a NaN and inf only where a
    holds an inf or the sum overflows, so one pass serves both checks. A CG
    solve whose right-hand side has an infinite norm would stop at once.
    """
    if not math.isfinite(inner(a, a)):
        if np.all(np.isfinite(a)):
            raise ParameterError(f"{name} is too large: its squared L2 norm overflows")
        raise ParameterError(f"{name} contains NaN or inf")


def channel_sums(u: Array) -> Array:
    """Per-channel sums of an image field, u.reshape(-1, k).sum(axis=0) bit for bit.

    For k >= 2 that sum runs in index order, which einsum takes in a fifth of
    the time; for k = 1 it is pairwise, so grey keeps it.
    """
    v = u.reshape(-1, u.shape[-1])
    return np.einsum("nc->c", v) if v.shape[1] > 1 else v.sum(axis=0)


def mean_free(u: Array) -> Array:
    """Remove the per-channel spatial mean (the conserved part), numpy's mean bit for bit."""
    u = np.asarray(u, dtype=float)
    return u - channel_sums(u) / math.prod(u.shape[:-1])


def poincare_estimate(dims: tuple[int, ...]) -> float:
    """Smallest nonzero eigenvalue of the scalar no-flux Laplacian on a grid of these dims.

    The operator is a sum of 1-d Neumann Laplacians, one per axis, whose
    eigenvalues are 4 sin^2(pi k / (2 n_j)) for k = 0 .. n_j - 1, so the
    smallest nonzero one is min_j 4 sin^2(pi / (2 n_j)). This is the discrete
    constant in ||grad u||^2 >= C ||u||^2 for mean-free u, used by the
    decay-rate predictions.
    """
    return min(4.0 * math.sin(math.pi / (2 * n)) ** 2 for n in dims)
