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
from dataclasses import dataclass

import numpy as np

from .bands import for_bands
from .errors import DegenerateDirectionError, DimensionError, SymmetryError

Array = np.ndarray

# Relative tolerance accepted on tensor symmetry before raising.
SYMMETRY_RTOL = 1e-12

# Directions with Frobenius norm below this (times the data scale) cannot
# define a projection.
DEGENERACY_THRESHOLD = 1e-14

# min_eig_field: cells diagonalised for the upper bound, cells per Cholesky
# block, and the certification margin in units of n^3 eps max|H|.
MIN_EIG_SAMPLE = 64
MIN_EIG_BLOCK = 4096
MIN_EIG_MARGIN = 4


@dataclass(frozen=True)
class SpectralBound:
    lambda_min: float
    lambda_max: float


def identity_tensor(k: int, d: int) -> Array:
    """The tensor acting as the identity map on k x d matrices."""
    return np.eye(k * d)


def frobenius(a: Array, b: Array) -> float:
    """Frobenius scalar product sum_ij a_ij b_ij of two equally shaped matrices."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise DimensionError(f"shape mismatch: {a.shape} vs {b.shape}")
    return float(np.dot(a.ravel(), b.ravel()))


def fro_norm(a: Array) -> float:
    return float(np.linalg.norm(np.asarray(a, dtype=float).ravel()))


def require_symmetric(h: Array) -> Array:
    """Validate that every cell tensor of h (shape dims + (n, n)) is symmetric.

    The tolerance is SYMMETRY_RTOL relative to the largest entry (at least 1); a
    single tensor is a field with dims = (). Returns h as a float array.
    """
    h = np.asarray(h, dtype=float)
    if h.ndim < 2 or h.shape[-1] != h.shape[-2]:
        raise DimensionError(f"tensor must be square in its last two axes, got shape {h.shape}")
    scale = max(1.0, float(np.max(np.abs(h), initial=0.0)))
    if float(np.max(np.abs(h - np.swapaxes(h, -1, -2)), initial=0.0)) > SYMMETRY_RTOL * scale:
        raise SymmetryError("tensor is not symmetric within tolerance")
    return h


def apply(h: Array, dmat: Array) -> Array:
    """Apply tensors to k x d matrices cell by cell: (H D)_ij = sum_IJ H_ijIJ D_IJ.

    h has shape dims + (k*d, k*d) and dmat dims + (k, d); a single tensor and
    matrix are a field with dims = ().
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
    if flat.ndim == 1:
        return np.einsum("...ab,...b->...a", h, flat, out=out).reshape(dmat.shape)

    def band(lo: int, hi: int) -> None:
        np.einsum("...ab,...b->...a", h[lo:hi], flat[lo:hi], out=out[lo:hi])

    for_bands(band, flat.shape[0], h.size + 2 * flat.size)
    return out.reshape(dmat.shape)


def project_orth(dhat: Array) -> Array:
    """Tensor of the orthogonal projection onto the complement of dhat.

    apply(P, D) = D - (D:dhat) dhat / (dhat:dhat). P is symmetric, idempotent
    and annihilates dhat. A near-zero dhat has no well-defined complement and
    raises DegenerateDirectionError; callers relying on the thresholded
    response never hit this because its smooth branch gives the projection
    term a vanishing coefficient there.
    """
    dhat = np.asarray(dhat, dtype=float)
    if dhat.ndim != 2:
        raise DimensionError(f"expected a 2-d matrix, got shape {dhat.shape}")
    v = dhat.ravel()
    nrm2 = float(np.dot(v, v))
    scale = max(1.0, float(np.max(np.abs(v))) if v.size else 0.0)
    if np.sqrt(nrm2) < DEGENERACY_THRESHOLD * scale:
        raise DegenerateDirectionError("direction matrix is numerically zero")
    return np.eye(v.size) - np.outer(v, v) / nrm2


def spectral_bounds(h: Array) -> SpectralBound:
    """Extreme eigenvalues of a symmetric tensor in its (k*d) x (k*d) matrix form."""
    h = require_symmetric(h)
    if h.ndim != 2:
        raise DimensionError(f"expected a single tensor, got shape {h.shape}")
    w = np.linalg.eigvalsh(0.5 * (h + h.T))
    return SpectralBound(float(w[0]), float(w[-1]))


def is_psd(h: Array, kappa: float = 0.0, slack: float = 1e-10) -> bool:
    """True iff the smallest eigenvalue of symmetric H is >= kappa - slack."""
    return spectral_bounds(h).lambda_min >= kappa - slack


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
