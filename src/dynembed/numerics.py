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

    Computed through a full decomposition, which is fine at the desk scale
    this package targets; the contract is on the result, not the algorithm.
    """
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2:
        raise ValueError("input must be a 2-D matrix")
    if not np.all(np.isfinite(a)):
        raise ValueError("input contains non-finite entries")
    if not 1 <= d <= min(a.shape):
        raise ValueError(f"rank d={d} outside [1, {min(a.shape)}]")
    u, s, vh = np.linalg.svd(a, full_matrices=False)
    return TruncatedSvd(U=u[:, :d].copy(), S=s[:d].copy(), V=vh[:d].T.copy())


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
