"""Numeric rank and nullspace with a relative tolerance.

Both count the singular values above one threshold, so rank + nullity
always equals the column count.  The tolerance scales with the largest
absolute entry times the matrix dimension, so uniformly rescaling a
sheaf's matrices never changes any rank or Betti number.
"""

from __future__ import annotations

import numpy as np

RANK_REL_TOL = 1e-9


def _threshold(m: np.ndarray) -> float:
    peak = float(np.max(np.abs(m))) if m.size else 0.0
    return RANK_REL_TOL * peak * max(m.shape)


def numeric_rank(m) -> int:
    """Number of singular values above the threshold."""
    a = np.asarray(m, dtype=float)
    if a.size == 0:
        return 0
    s = np.linalg.svd(a, compute_uv=False)
    return int(np.sum(s > _threshold(a)))


def nullspace(m) -> np.ndarray:
    """Orthonormal basis of the kernel, columns of the returned matrix."""
    a = np.asarray(m, dtype=float)
    if a.size == 0:
        return np.eye(a.shape[1] if a.ndim == 2 else 0)
    _, s, vh = np.linalg.svd(a)
    rank = int(np.sum(s > _threshold(a)))
    return vh[rank:].T.copy()


def rowspace(m) -> np.ndarray:
    """Orthonormal basis of the row space, columns of the returned
    matrix: the complement of ``nullspace``."""
    a = np.asarray(m, dtype=float)
    if a.size == 0:
        return np.zeros((a.shape[1] if a.ndim == 2 else 0, 0))
    _, s, vh = np.linalg.svd(a, full_matrices=False)
    rank = int(np.sum(s > _threshold(a)))
    return vh[:rank].T.copy()
