"""Dense linear-algebra primitives shared by the embedding methods."""

import warnings
from dataclasses import dataclass

import numpy as np

ORTHO_TOL = 1e-10


class DegenerateInputWarning(UserWarning):
    pass


@dataclass(frozen=True)
class TruncatedSvd:
    """Rank-d factorization U diag(S) V^T with column-orthonormal U, V."""

    U: np.ndarray  # n x d
    S: np.ndarray  # d, non-increasing, >= 0
    V: np.ndarray  # m x d

    def __post_init__(self):
        d = self.S.shape[0]
        if self.U.shape[1] != d or self.V.shape[1] != d:
            raise ValueError("factor widths disagree with singular value count")
        if d > 0:
            if np.any(np.diff(self.S) > 0):
                raise ValueError("singular values must be non-increasing")
            if self.S[-1] < 0:
                raise ValueError("singular values must be non-negative")
            for name, m in (("U", self.U), ("V", self.V)):
                drift = np.max(np.abs(m.T @ m - np.eye(d)))
                if drift > ORTHO_TOL:
                    raise ValueError(f"{name} columns not orthonormal (drift {drift:.2e})")

    def reconstruct(self) -> np.ndarray:
        return (self.U * self.S) @ self.V.T


def truncated_svd(a: np.ndarray, d: int) -> TruncatedSvd:
    """Best rank-d approximation factors of a dense matrix.

    Only the top d singular triples are computed, through the Gram matrix
    and one Rayleigh-Ritz step (Golub and Van Loan, Matrix Computations,
    sec. 8.6; Halko, Martinsson and Tropp, SIAM Review 2011):

    1. a is scaled by the power of two 2^-e that brings max|a| into
       [1/2, 1), which is exact, so that the Gram matrix neither overflows
       nor underflows whatever the scale of a;
    2. V0 holds the top d eigenvectors of B^T B for the scaled B (of B B^T,
       with the roles of U and V swapped, when a has fewer rows than
       columns);
    3. the thin SVD of the n x d matrix B V0 = U diag(S) W^T gives
       U and S, V = V0 W, and S is scaled back by 2^e.

    Steps 2 and 3 run on B with its zero rows and columns left out, as long
    as at least d of each remain, so a zero row of a gives an exactly zero
    row of U and a zero column an exactly zero row of V; a full SVD would
    leave rounding noise there. Without zero rows or columns, nothing is
    left out.

    U and V are orthonormal by construction, also for rank-deficient input.
    S is the singular values of a restricted to span(V0), so it matches the
    top d singular values of a to rounding in sigma_1, and the rank-j
    reconstructions match wherever sigma_j - sigma_{j+1} is not a rounding
    error of sigma_1. Where singular values repeat, the vectors are any
    orthonormal basis of their space, and the sign of each singular pair is
    free.
    """
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2:
        raise ValueError("input must be a 2-D matrix")
    if not np.all(np.isfinite(a)):
        raise ValueError("input contains non-finite entries")
    if not 1 <= d <= min(a.shape):
        raise ValueError(f"rank d={d} outside [1, {min(a.shape)}]")
    e = int(np.frexp(np.max(np.abs(a)))[1])
    b = np.ldexp(a, -e)
    wide = b.shape[0] < b.shape[1]
    if wide:
        b = b.T
    rows = np.flatnonzero(b.any(axis=1))
    cols = np.flatnonzero(b.any(axis=0))
    if min(rows.size, cols.size) < d or rows.size * cols.size == b.size:
        rows = cols = slice(None)
    sub = b[rows][:, cols]
    v0 = np.linalg.eigh(sub.T @ sub)[1][:, ::-1][:, :d]
    u_sub, s, wh = np.linalg.svd(sub @ v0, full_matrices=False)
    u = np.zeros((b.shape[0], d))
    v = np.zeros((b.shape[1], d))
    u[rows] = u_sub
    v[cols] = v0 @ wh.T
    s = np.ldexp(s, e)
    if wide:
        u, v = v, u
    return TruncatedSvd(U=u, S=s, V=v)


def procrustes_rotation(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Orthogonal R minimizing ||x @ R - y||_F, via the SVD of x^T y.

    R may be a reflection (det(R) = -1).
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape:
        raise ValueError(f"shape mismatch {x.shape} vs {y.shape}")
    if x.ndim != 2 or x.shape[1] < 1:
        raise ValueError("inputs must be n x d with d >= 1")
    u, _, vh = np.linalg.svd(x.T @ y)
    return u @ vh


def pca_project_2d(x: np.ndarray) -> np.ndarray:
    """Center rows and project onto the top-2 principal directions.

    Signs are fixed so each direction's largest-magnitude entry is positive,
    making the output deterministic. Degenerate input (all rows identical)
    yields zero coordinates and a DegenerateInputWarning.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] < 2:
        raise ValueError("input must be n x d with d >= 2")
    if x.shape[0] < 2:
        raise ValueError("need at least 2 rows")
    centered = x - x.mean(axis=0)
    scale = np.max(np.abs(centered))
    if scale == 0.0:
        warnings.warn("all rows identical; projection is all zeros", DegenerateInputWarning)
        return np.zeros((x.shape[0], 2))
    _, _, vh = np.linalg.svd(centered, full_matrices=False)
    dirs = vh[:2].T  # d x 2
    for j in range(2):
        k = int(np.argmax(np.abs(dirs[:, j])))
        if dirs[k, j] < 0:
            dirs[:, j] = -dirs[:, j]
    return centered @ dirs
