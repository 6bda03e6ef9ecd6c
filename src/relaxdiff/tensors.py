"""Linear algebra for color-gradient matrices and fourth-order diffusivity tensors.

A color gradient is a real k x d matrix (k channels, d spatial axes). A
diffusivity tensor acts linearly on such matrices; with the pair index
(i, j) flattened to i*d + j it is stored as a dense symmetric
(k*d) x (k*d) matrix. k*d stays small (6 for RGB images in 2D), so dense
storage and dense symmetric eigensolvers are the right tool.

Tensor fields are component-first: one contiguous cell field per entry, a
single tensor being a field with dims = (). The face tensors, which
``apply`` takes with a component-first gradient, (k, d) + dims, are full
square, (kd, kd) + dims. H, the responses and F(0) are packed,
(P,) + dims with P = kd(kd+1)/2 (21 for RGB in 2-D, 3 for grey): entries
(a, b) and (b, a) share one plane, numbered by ``pack_index``, so a packed
field is symmetric by construction. ``pack`` and ``unpack`` convert
between the two layouts. ``min_eig_field`` and ``min_eig_below`` take a
packed field and factorise it packed; only ``eigvalsh_field`` keeps numpy's
(..., n, n) layout, for the few cells that are diagonalised.

All functions here are pure and safe to call concurrently. None of them
runs in bands: ``grid.flux`` calls ``apply`` on each chunk of rows of its
bands (``relaxdiff.bands``), about ``grid.APPLY_CHUNK`` cells each. Each
output element of ``apply`` sums its products in index order from +0.0,
the order einsum takes over a component-first field of two or more cells,
so its bits do not depend on how the cells are split, nor on the CPU count.
"""

import functools
import math

import numpy as np

from .errors import DimensionError

Array = np.ndarray

# min_eig_field: cells diagonalised for the upper bound, cells per Cholesky
# block, and the certification margin in units of n^3 eps max|H|.
MIN_EIG_SAMPLE = 64
MIN_EIG_BLOCK = 4096
MIN_EIG_MARGIN = 4


@functools.cache
def pack_index(n: int) -> Array:
    """The packed plane of each entry (a, b) of an n x n symmetric tensor, as an (n, n) array.

    The n(n+1)/2 planes run along the upper triangle row by row: (0, 0),
    (0, 1), ..., (0, n-1), (1, 1), ..., so the planes of one triangle row
    are contiguous, and (b, a) shares the plane of (a, b). Indexing a packed
    field with it, ``planes[pack_index(n)]``, unpacks it to (n, n) + dims.
    The array is shared between calls, so it is read-only.
    """
    index = np.empty((n, n), dtype=np.intp)
    rows, cols = np.triu_indices(n)
    index[rows, cols] = index[cols, rows] = np.arange(rows.size)
    index.flags.writeable = False
    return index


def _packed_side(planes: int) -> int:
    """n for a packed field of n(n+1)/2 planes; DimensionError for any other count."""
    n = (math.isqrt(8 * planes + 1) - 1) // 2
    if planes < 1 or n * (n + 1) // 2 != planes:
        raise DimensionError(f"{planes} planes are no packed symmetric tensor")
    return n


def pack(h: Array) -> Array:
    """The packed copy, (n(n+1)/2,) + dims, of a tensor field of shape (n, n) + dims.

    Plane pack_index(n)[a, b] takes its values from the lower triangle,
    h[max(a, b), min(a, b)]; the upper triangle is not read.
    """
    h = np.asarray(h, dtype=float)
    if h.ndim < 2 or h.shape[0] != h.shape[1]:
        raise DimensionError(f"expected (n, n) + dims tensors, got shape {h.shape}")
    rows, cols = np.triu_indices(h.shape[0])
    return h[cols, rows]


def unpack(planes: Array) -> Array:
    """The full-square field, (n, n) + dims, of a packed field, (n(n+1)/2,) + dims."""
    planes = np.asarray(planes, dtype=float)
    return planes[pack_index(_packed_side(planes.shape[0]))]


def apply(h: Array, g: Array, out: Array | None = None) -> Array:
    """Apply tensors to k x d matrices cell by cell: (H D)_ij = sum_IJ H_ijIJ D_IJ.

    Both are component-first: h has shape (k*d, k*d) + dims and g (k, d) +
    dims, and so does the result's (k, d) + dims. With p_b = h_ab g_b, each
    output element sums the p_b in index order starting from +0.0: one
    einsum over all cells. A field of one cell (a single tensor and matrix,
    dims = () or all ones) is the exception: einsum then unrolls the sum
    over b, and the last bits may differ from index order. out, if given,
    takes the result; it must reshape to (k*d, cells) as a view, as a slice
    of cells of a C-ordered field does. grid.flux calls this once per chunk
    of a band.
    """
    h = np.asarray(h, dtype=float)
    g = np.asarray(g, dtype=float)
    if g.ndim < 2:
        raise DimensionError(f"expected k x d matrices, got shape {g.shape}")
    kd = g.shape[0] * g.shape[1]
    if h.shape != (kd, kd) + g.shape[2:]:
        raise DimensionError(f"tensor shape {h.shape} does not fit matrix shape {g.shape}")
    n = math.prod(g.shape[2:])
    if out is None:
        out = np.empty(g.shape)
    np.einsum("abn,bn->an", h.reshape(kd, kd, n), g.reshape(kd, n), out=out.reshape(kd, n))
    return out


# ---------------------------------------------------------------------------
# Eigenvalues of tensor fields: the floor check's certified minimum and its cell.


def eigvalsh_field(hfield: Array) -> Array:
    """Eigenvalues of every cell tensor of a (..., n, n) stack, ascending along the last axis."""
    return np.linalg.eigvalsh(hfield)


def min_eig_field(hfield: Array) -> tuple[float, int]:
    """(smallest eigenvalue, flat cell holding it) of a packed symmetric tensor field, (P,) + dims.

    Equal bit for bit to the minimum of eigvalsh_field over every unpacked
    cell and its first np.argmin in C order, NaN, inf and LinAlgError
    included, but certified: the MIN_EIG_SAMPLE cells with the smallest
    diagonal entry give an eigenvalue c that bounds the minimum from above,
    and min_eig_below(hfield, c) finds it among the cells that may hold it.
    """
    hfield = np.asarray(hfield, dtype=float)
    n = _packed_side(hfield.shape[0])
    cells = hfield.reshape(hfield.shape[0], -1)
    count = cells.shape[-1]
    smallest_diag = functools.reduce(np.minimum, [cells[i] for i in pack_index(n).diagonal()])
    sample = np.argpartition(smallest_diag, min(MIN_EIG_SAMPLE, count) - 1)[:MIN_EIG_SAMPLE]
    c = np.min(eigvalsh_field(np.moveaxis(unpack(cells[:, sample]), -1, 0))[:, 0])
    # c is a cell's computed minimum, so that cell breaks down: never None.
    return min_eig_below(hfield, c)


def eig_margin(hfield: Array) -> float:
    """MIN_EIG_MARGIN n^3 eps max|H| of a packed field, (P,) + dims, for n x n cells.

    It bounds the rounding of a computed smallest eigenvalue at the field's
    scale (see min_eig_below), which shifts its Cholesky by it; the floor
    checks of integrate allow it below their bounds. NaN or inf when an
    entry is.
    """
    hfield = np.asarray(hfield, dtype=float)
    n = _packed_side(hfield.shape[0])
    return float(MIN_EIG_MARGIN * n**3 * np.finfo(float).eps * max(hfield.max(), -hfield.min()))


def min_eig_below(hfield: Array, bound: float) -> tuple[float, int] | None:
    """min_eig_field(hfield) if some cell's smallest eigenvalue lies at or below bound, else None.

    Certified: a Cholesky of H - (bound + delta) I that completes proves a
    cell's computed smallest eigenvalue lies above bound, and only the cells
    where it breaks down are diagonalised; None when every cell completes.
    Every cell holding the field's computed minimum breaks down if that
    minimum is at most bound, so the minimum and its first cell in C order
    are those of a full diagonalisation, bit for bit.
    """
    hfield = np.asarray(hfield, dtype=float)
    cells = hfield.reshape(hfield.shape[0], -1)
    # delta covers two backward errors, for n x n cells whose entries are
    # bounded by m = max|H| (so ||H||_2 <= n m); u = eps / 2 is the unit
    # roundoff. A Cholesky of A = H - s I that completes gives
    # R^T R = A + dA, |dA| <= gamma_(n+1) |R^T| |R| (Higham, Accuracy and
    # Stability of Numerical Algorithms, Thm 10.3), so ||dA||_2 <=
    # gamma_(n+1) trace(R^T R) <~ (n + 1) u 2 n^2 m = (n + 1) n^2 eps m, and
    # lambda_min(H) > s - ||dA||_2; the gap up to 2 n^3 eps m absorbs the
    # rounding of H - s I and of s where |s| <= n m (a larger |s| lies far
    # from every eigenvalue). eigvalsh is backward stable: its eigenvalues
    # lie within p(n) u ||H||_2 of the exact ones, and p(n) <= 4 n^2 keeps
    # that below 2 n^3 eps m too. With delta = 4 n^3 eps m, a cell that
    # completes has a computed minimum above bound. A NaN or inf entry
    # makes delta non-finite and every cell break down.
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        shift = bound + eig_margin(cells)
        survivors = np.concatenate([
            start + np.flatnonzero(_cholesky_breaks_down(cells[:, start:start + MIN_EIG_BLOCK], shift))
            for start in range(0, cells.shape[-1], MIN_EIG_BLOCK)
        ])
    if survivors.size == 0:
        return None
    mins = eigvalsh_field(np.moveaxis(unpack(cells[:, survivors]), -1, 0))[:, 0]
    k = int(np.argmin(mins))
    if mins[k] > bound:  # cells that broke down within delta of bound
        return None
    return float(mins[k]), int(survivors[k])


def _cholesky_breaks_down(block: Array, shift: float) -> Array:
    """Mask of the cells of a packed (P, m) block where Cholesky of H - shift I fails.

    Right-looking, vectorised over cells, on a copy of the packed planes, in
    which row j of the upper triangle is the n - j planes from (j, j) on.
    A pivot that is not > 0 (NaN included) marks the cell; it then carries
    NaN or inf along, so callers silence those warnings.
    """
    n = _packed_side(block.shape[0])
    rows = pack_index(n).diagonal()
    a = np.array(block)
    a[rows] -= shift
    completes = np.ones(block.shape[-1], dtype=bool)
    for j in range(n):
        completes &= a[rows[j]] > 0.0
        col = a[rows[j] + 1:rows[j] + n - j] / np.sqrt(a[rows[j]])
        for k in range(j + 1, n):
            a[rows[k]:rows[k] + n - k] -= col[k - j - 1] * col[k - j - 1:]
    return ~completes
