import numpy as np
import pytest

from sheaffuse._linalg import nullspace, numeric_rank, rowspace


def rank_deficient(seed, rows, cols, rank):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((rows, rank)) @ rng.standard_normal((rank, cols))


# (matrix, rank): the near-singular block's second singular value,
# about 1.5e-9, lies below the threshold 2e-9; an elimination pivot of
# 3e-9 lies above it
MATRICES = {
    "near_singular": (np.array([[1.0, 1.0], [1.0, 1.0 + 3e-9]]), 1),
    "no_rows": (np.zeros((0, 3)), 0),
    "no_cols": (np.zeros((3, 0)), 0),
    "zero": (np.zeros((4, 5)), 0),
    "wide": (rank_deficient(1, 3, 7, 2), 2),
    "tall": (rank_deficient(2, 9, 4, 3), 3),
    "square": (rank_deficient(3, 6, 6, 5), 5),
    "rank_one": (rank_deficient(4, 12, 6, 1), 1),
}


@pytest.mark.parametrize("name", MATRICES)
def test_rank_plus_nullity_is_column_count(name):
    m, rank = MATRICES[name]
    assert numeric_rank(m) == rank
    assert numeric_rank(m) + nullspace(m).shape[1] == m.shape[1]


@pytest.mark.parametrize("name", MATRICES)
def test_rank_and_nullity_invariant_under_scaling(name):
    m, rank = MATRICES[name]
    assert numeric_rank(m * 1e6) == rank
    assert nullspace(m * 1e6).shape[1] == nullspace(m).shape[1]


@pytest.mark.parametrize("name", MATRICES)
def test_row_space_and_nullspace_split_the_columns(name):
    """Together the two bases are one orthonormal basis of the column
    coordinates, the row space's as many vectors as the rank."""
    m, rank = MATRICES[name]
    rows = rowspace(m)
    assert rows.shape == (m.shape[1], rank)
    both = np.hstack([rows, nullspace(m)])
    assert np.allclose(both.T @ both, np.eye(m.shape[1]))
