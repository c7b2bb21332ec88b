"""Reference routes the tests compare the package against; nothing in the package calls them."""

from __future__ import annotations

import numpy as np


def generic_dilation(A: np.ndarray) -> np.ndarray:
    """Self-adjoint dilation [[0, A], [A^T, 0]] of an arbitrary square matrix.

    The result is symmetric with eigenvalues +/- the singular values of A.
    """
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("expected a square matrix")
    n = A.shape[0]
    e = np.zeros((2 * n, 2 * n))
    e[:n, n:] = A
    e[n:, :n] = A.T
    return e
