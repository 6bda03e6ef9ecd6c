"""Linear algebra for color-gradient matrices and fourth-order diffusivity tensors.

A color gradient is a real k x d matrix (k channels, d spatial axes). A
diffusivity tensor acts linearly on such matrices; with the pair index
(i, j) flattened to i*d + j it is stored as a dense symmetric
(k*d) x (k*d) matrix. k*d stays small (6 for RGB images in 2D), so dense
storage and dense symmetric eigensolvers are the right tool.

All functions here are pure and safe to call concurrently. ``apply`` splits
its cells into row bands over the CPUs of the affinity mask
(``relaxdiff.bands``); each cell's sum runs in the same order as in one call
over all cells, so its output bits do not depend on the CPU count.
"""

import functools

import numpy as np

from .bands import for_bands
from .errors import DimensionError, SymmetryError

Array = np.ndarray

# Relative tolerance accepted on tensor symmetry before raising.
SYMMETRY_RTOL = 1e-12

# min_eig_field: cells diagonalised for the upper bound, cells per Cholesky
# block, and the certification margin in units of n^3 eps max|H|.
MIN_EIG_SAMPLE = 64
MIN_EIG_BLOCK = 4096
MIN_EIG_MARGIN = 4


def require_symmetric(h: Array) -> None:
    """Raise SymmetryError unless every cell tensor of h (shape dims + (n, n)) is symmetric.

    The tolerance is SYMMETRY_RTOL times max(1, max|h|). The n(n-1)/2 entry
    pairs are compared one cell field at a time: no array of h's size is made.
    """
    tol = SYMMETRY_RTOL * max(1.0, float(np.maximum(h.max(), -h.min())))
    for a in range(h.shape[-1]):
        for b in range(a + 1, h.shape[-1]):
            if float(np.max(np.abs(h[..., a, b] - h[..., b, a]))) > tol:
                raise SymmetryError(f"tensor entries ({a}, {b}) and ({b}, {a}) differ beyond tolerance")


def apply(h: Array, dmat: Array) -> Array:
    """Apply tensors to k x d matrices cell by cell: (H D)_ij = sum_IJ H_ijIJ D_IJ.

    h has shape dims + (k*d, k*d) and dmat dims + (k, d); a single tensor and
    matrix are a field with dims = (), too small to run as more than one band.
    """
    h = np.asarray(h, dtype=float)
    dmat = np.asarray(dmat, dtype=float)
    if dmat.ndim < 2:
        raise DimensionError(f"expected k x d matrices, got shape {dmat.shape}")
    k, d = dmat.shape[-2:]
    if h.shape != dmat.shape[:-2] + (k * d, k * d):
        raise DimensionError(f"tensor shape {h.shape} does not fit matrix shape {dmat.shape}")
    flat = dmat.reshape(dmat.shape[:-2] + (k * d,))
    out = np.empty_like(flat)

    def band(lo: int, hi: int) -> None:
        np.einsum("...ab,...b->...a", h[lo:hi], flat[lo:hi], out=out[lo:hi])

    for_bands(band, flat.shape[0], h.size + 2 * flat.size)
    return out.reshape(dmat.shape)


# ---------------------------------------------------------------------------
# Eigenvalues of tensor fields: the floor check's certified minimum, and the
# full diagonalisation its diagnostic falls back to.


def eigvalsh_field(hfield: Array) -> Array:
    """Eigenvalues of every cell tensor, ascending along the last axis."""
    return np.linalg.eigvalsh(hfield)


def min_eig_field(hfield: Array) -> float:
    """Smallest eigenvalue over all cells of a symmetric tensor field.

    Equal bit for bit to float(np.min(eigvalsh_field(hfield)[..., 0])), NaN,
    inf and LinAlgError included, but certified instead of computed cell by
    cell: the MIN_EIG_SAMPLE cells with the smallest diagonal entry give an
    eigenvalue c that bounds the minimum from above, a Cholesky factorisation
    of H - (c + delta) I that completes proves a cell's computed smallest
    eigenvalue lies above c, and only the cells where it breaks down (the
    minimum, its near-ties and any non-finite cell) are diagonalised.
    """
    hfield = np.asarray(hfield, dtype=float)
    n = hfield.shape[-1]
    cells = hfield.reshape(-1, n, n)
    count = cells.shape[0]
    smallest_diag = functools.reduce(np.minimum, [cells[:, i, i] for i in range(n)])
    sample = np.argpartition(smallest_diag, min(MIN_EIG_SAMPLE, count) - 1)[:MIN_EIG_SAMPLE]
    c = np.min(eigvalsh_field(cells[sample])[:, 0])
    # delta covers two backward errors, for n x n cells whose entries are
    # bounded by m = max|H| (so ||H||_2 <= n m, and |c| <= n m because c is a
    # cell eigenvalue); u = eps / 2 is the unit roundoff. A Cholesky of
    # A = H - s I that completes gives R^T R = A + dA, |dA| <= gamma_(n+1)
    # |R^T| |R| (Higham, Accuracy and Stability of Numerical Algorithms,
    # Thm 10.3), so ||dA||_2 <= gamma_(n+1) trace(R^T R) <~ (n + 1) u 2 n^2 m
    # = (n + 1) n^2 eps m, and lambda_min(H) > s - ||dA||_2; the gap up to
    # 2 n^3 eps m absorbs the rounding of H - s I and of s. eigvalsh is
    # backward stable: its eigenvalues lie within p(n) u ||H||_2 of the exact
    # ones, and p(n) <= 4 n^2 keeps that below 2 n^3 eps m too. With delta =
    # 4 n^3 eps m, a cell that completes has a computed minimum above c, so
    # the cell holding the computed minimum always breaks down. A NaN or inf
    # entry anywhere makes delta non-finite and every cell break down.
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        scale = np.maximum(cells.max(), -cells.min())
        shift = c + MIN_EIG_MARGIN * n**3 * np.finfo(float).eps * scale
        survivors = np.concatenate([
            start + np.flatnonzero(_cholesky_breaks_down(cells[start:start + MIN_EIG_BLOCK], shift))
            for start in range(0, count, MIN_EIG_BLOCK)
        ])
    return float(np.min(eigvalsh_field(cells[survivors])[:, 0], initial=c))


def _cholesky_breaks_down(block: Array, shift: float) -> Array:
    """Mask of the cells of an (m, n, n) block where Cholesky of H - shift I fails.

    Right-looking factorisation vectorised over cells. Like eigvalsh it reads
    the lower triangle only. A pivot that is not > 0 (NaN included) marks the
    cell; it then carries NaN or inf along, so callers silence those warnings.
    """
    n = block.shape[-1]
    a = np.moveaxis(block, 0, -1).copy()  # (n, n, m): each entry contiguous over cells
    diag = np.arange(n)
    a[diag, diag] -= shift
    completes = np.ones(block.shape[0], dtype=bool)
    for j in range(n):
        completes &= a[j, j] > 0.0
        col = a[j + 1:, j] / np.sqrt(a[j, j])
        a[j + 1:, j + 1:] -= col[:, None] * col[None, :]
    return ~completes
