"""The second-singular-value kernel, plus two reference eigensolvers.

Every spectral gap in the package is a function of sigma_2, the second
singular value of an n x n matrix: the multiplicative reversiblization gap is
1 - sigma_2^2 (Fill 1991; Paulin 2015) and the reversible dilation gap is
1 - sigma_2. `second_singular_value` computes it by a direct SVD, which keeps
full precision where an eigensolve of the Gram matrix A^T A loses half the
digits, and `second_singular_values` does the same for a stack of matrices.
The dense symmetric spectrum and the seeded two-pass Lanczos iteration are
independent routes to the same number through the dilation
[[0, A], [A^T, 0]], whose eigenvalues are +/- the singular values of A.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import NoConvergenceError

SYMMETRY_TOL = 1e-10
# no solver reads it; kept because the benchmark records it with each workload
DENSE_THRESHOLD = 512


def second_singular_value(A: np.ndarray) -> float:
    """sigma_2 of a square matrix; 0.0 for a 1 x 1 matrix.

    On a one-dimensional space the operator deflated by its top singular pair
    is zero, so its norm, the second singular value, is 0.
    """
    return float(second_singular_values(A))


def second_singular_values(A: np.ndarray) -> np.ndarray:
    """sigma_2 of each matrix of a stack of shape (..., n, n), as `second_singular_value`.

    numpy runs the same LAPACK solve on each matrix of a stack, so each value
    has the bits of that matrix's own `second_singular_value`.
    """
    A = np.asarray(A, dtype=float)
    if A.shape[-1] < 2:
        return np.zeros(A.shape[:-2])
    return np.linalg.svd(A, compute_uv=False)[..., 1]


# kept as a reference route: tests and the benchmark's tracer call it by name
def dense_symmetric_spectrum(A: np.ndarray) -> np.ndarray:
    """Full spectrum of a symmetric matrix, sorted descending.

    Raises:
        ValueError: if max|A - A^T| exceeds the symmetry tolerance.
    """
    A = np.asarray(A, dtype=float)
    if np.max(np.abs(A - A.T)) > SYMMETRY_TOL:
        raise ValueError("matrix is not symmetric within tolerance")
    return np.linalg.eigvalsh(0.5 * (A + A.T))[::-1]


# kept as the iterative reference route for tests and the benchmark's tracer
@dataclass(frozen=True)
class LanczosConfig:
    max_iter: int = 300
    tol: float = 1e-10
    seed: int = 0

    def __post_init__(self):
        if self.max_iter < 2:
            raise ValueError("max_iter must be >= 2")
        if self.tol <= 0:
            raise ValueError("tol must be > 0")


def _ritz(alphas, betas):
    """Eigen-decomposition of the Lanczos tridiagonal, descending order."""
    T = np.diag(alphas)
    if betas:
        T += np.diag(betas, 1) + np.diag(betas, -1)
    theta, S = np.linalg.eigh(T)
    return theta[::-1], S[:, ::-1]


def _lanczos_ritz(matvec, dim, cfg: LanczosConfig, lock=()):
    """Run Lanczos until the top Ritz pair converges.

    ``lock`` holds orthonormal vectors to deflate: every iterate is kept
    orthogonal to them, so the iteration acts on the restriction of the
    operator to their complement.

    Returns (theta, Y) with theta the descending Ritz values and Y the
    corresponding Ritz vectors as columns, once the top pair's residual bound
    beta * |last eigenvector component| is at most cfg.tol, or exactly when
    the Krylov space exhausts the (restricted) dimension.

    Raises:
        NoConvergenceError: residuals above tolerance after max_iter steps.
    """
    rng = np.random.default_rng(cfg.seed)
    lock = [np.asarray(v, dtype=float) for v in lock]
    free_dim = dim - len(lock)

    def project_out(w, vectors):
        for v in vectors:
            w = w - v * float(v @ w)
        return w

    q = project_out(rng.standard_normal(dim), lock)
    q /= np.linalg.norm(q)
    basis = [q]
    alphas: list[float] = []
    betas: list[float] = []
    q_prev = np.zeros(dim)
    beta = 0.0
    max_iter = min(cfg.max_iter, dim)
    for _ in range(max_iter):
        w = project_out(matvec(q), lock)
        alpha = float(q @ w)
        alphas.append(alpha)
        w = w - alpha * q - beta * q_prev
        Q = np.asarray(basis)
        for _ in range(2):
            w = project_out(w - Q.T @ (Q @ w), lock)
        beta = float(np.linalg.norm(w))

        theta, S = _ritz(alphas, betas)
        if len(alphas) == free_dim:
            return theta, np.asarray(basis).T @ S

        q_prev = q
        if beta <= 1e-13:
            # invariant subspace: the residual test cannot rule out an exact
            # multiplicity hiding outside the Krylov space, so restart with a
            # fresh direction against the current basis instead of returning
            w = project_out(rng.standard_normal(dim), lock)
            Q = np.asarray(basis)
            for _ in range(2):
                w = w - Q.T @ (Q @ w)
            norm = float(np.linalg.norm(w))
            if norm <= 1e-13:
                return theta, np.asarray(basis).T @ S
            q = w / norm
            beta = 0.0
        else:
            if len(alphas) >= 2 and beta * abs(S[-1, 0]) <= cfg.tol:
                return theta, np.asarray(basis).T @ S
            q = w / beta
        basis.append(q)
        betas.append(beta)
    raise NoConvergenceError(
        f"Ritz residual above {cfg.tol} after {max_iter} iterations"
    )


# kept as the iterative reference route for tests and the benchmark's tracer
def lanczos_second_eigenvalue(S_plus_I: np.ndarray, cfg: LanczosConfig | None = None) -> float:
    """Second-largest eigenvalue of a symmetric (near-)PSD matrix.

    Intended for shifted dilations S(L) + I whose spectrum lives in [0, 2].
    Runs two passes: the first converges the top Ritz pair, the second
    deflates it and converges the top of the complement, so an exactly
    repeated top eigenvalue is still reported as the second eigenvalue.
    """
    cfg = cfg if cfg is not None else LanczosConfig()
    A = np.asarray(S_plus_I, dtype=float)
    dim = A.shape[0]
    if dim < 2:
        raise ValueError("need dimension >= 2 for a second eigenvalue")
    _, Y1 = _lanczos_ritz(A.dot, dim, cfg)
    top = Y1[:, 0] / np.linalg.norm(Y1[:, 0])
    theta2, _ = _lanczos_ritz(A.dot, dim, replace(cfg, seed=cfg.seed + 1), lock=(top,))
    return float(theta2[0])
