import numpy as np
import pytest
from numpy.testing import assert_allclose

from mixgap.chain import build_L, stationary_distribution
from mixgap.eigensolve import (
    LanczosConfig,
    dense_symmetric_spectrum,
    lanczos_second_eigenvalue,
    second_singular_value,
)
from mixgap.errors import NoConvergenceError, NotSymmetricError

from conftest import random_ergodic, random_reversible
from reference_routes import generic_dilation


def random_symmetric(n, seed):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((n, n))
    return 0.5 * (A + A.T)


class TestDenseSpectrum:
    def test_flip(self):
        assert_allclose(dense_symmetric_spectrum(np.array([[0.0, 1.0], [1.0, 0.0]])), [1, -1])

    def test_diagonal(self):
        assert_allclose(dense_symmetric_spectrum(np.diag([3.0, 2.0, 1.0])), [3, 2, 1])

    def test_rejects_asymmetric(self):
        with pytest.raises(NotSymmetricError):
            dense_symmetric_spectrum(np.array([[0.0, 1.0], [0.5, 0.0]]))

    def test_dilation_spectrum_symmetric_about_zero(self, ex31):
        spectrum = dense_symmetric_spectrum(generic_dilation(build_L(ex31)))
        assert_allclose(spectrum, -spectrum[::-1], atol=1e-10)

    def test_reconstruction_residual(self):
        A = random_symmetric(30, 1)
        w, V = np.linalg.eigh(A)
        assert np.max(np.abs(A - (V * w) @ V.T)) <= 1e-8


class TestLanczos:
    def test_rank_one_doubly_stochastic_example(self):
        L = np.full((2, 2), 0.5)
        S = generic_dilation(L) + np.eye(4)
        # explicit spectrum {2, 1, 1, 0}
        assert_allclose(np.sort(np.linalg.eigvalsh(S)), [0, 1, 1, 2], atol=1e-12)
        lam2 = lanczos_second_eigenvalue(S, LanczosConfig(seed=1))
        assert abs(lam2 - 1.0) <= 1e-8
        assert abs((2.0 - lam2) - 1.0) <= 1e-8

    def test_degenerate_one_state_dilation(self):
        S = np.array([[1.0, 1.0], [1.0, 1.0]])
        lam2 = lanczos_second_eigenvalue(S, LanczosConfig(seed=0))
        assert abs(lam2 - 0.0) <= 1e-10
        assert abs((2.0 - lam2) - 2.0) <= 1e-10

    def test_agrees_with_dense_on_random_matrices(self):
        for trial in range(200):
            n = 5 + (trial % 96)
            A = random_symmetric(n, 1000 + trial)
            lam2_dense = dense_symmetric_spectrum(A)[1]
            lam2_lanczos = lanczos_second_eigenvalue(A, LanczosConfig(seed=trial))
            assert abs(lam2_dense - lam2_lanczos) <= 1e-8

    def test_finds_multiplicity_two_top(self):
        # restart-on-breakdown must still see a duplicated top eigenvalue
        A = np.diag([2.0, 2.0, 1.0, 0.5])
        lam2 = lanczos_second_eigenvalue(A, LanczosConfig(seed=5))
        assert abs(lam2 - 2.0) <= 1e-8

    def test_no_convergence_error(self):
        A = random_symmetric(60, 4)
        cfg = LanczosConfig(max_iter=3, tol=1e-15, seed=0)
        with pytest.raises(NoConvergenceError):
            lanczos_second_eigenvalue(A, cfg)

    def test_seed_determinism(self):
        A = random_symmetric(40, 9)
        cfg = LanczosConfig(seed=123)
        assert lanczos_second_eigenvalue(A, cfg) == lanczos_second_eigenvalue(A, cfg)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            LanczosConfig(max_iter=1)
        with pytest.raises(ValueError):
            LanczosConfig(tol=0.0)


def deflated_dilation_radius(L, q):
    """Spectral radius of S(L) - S(q q^T) from the dense spectrum of the explicit dilation."""
    spectrum = dense_symmetric_spectrum(generic_dilation(L - np.outer(q, q)))
    return max(spectrum[0], -spectrum[-1])


class TestDeflatedRadius:
    """sigma_2(L) is the radius of the dilation of L deflated by its top singular pair."""

    def test_perfect_deflation_rank_one(self):
        q = np.full(4, 0.5)
        assert second_singular_value(np.outer(q, q)) <= 1e-15

    def test_one_state_is_zero(self):
        # the deflated operator on a one-dimensional space is zero
        assert second_singular_value(np.array([[1.0]])) == 0.0

    def test_matches_dilation_gap_on_reversible(self):
        # for symmetric L the radius is the largest non-Perron |eigenvalue|
        P = random_reversible(17)
        L = build_L(P)
        q = np.sqrt(stationary_distribution(P))
        spectrum = dense_symmetric_spectrum(L - np.outer(q, q))
        rho = max(abs(spectrum[0]), abs(spectrum[-1]))
        assert abs(second_singular_value(L) - rho) <= 1e-12

    def test_example_chain_k1(self, ex31):
        L = build_L(ex31)
        q = np.sqrt(stationary_distribution(ex31))
        assert abs(second_singular_value(L) - deflated_dilation_radius(L, q)) <= 1e-12

    def test_shift_and_deflation_routes_agree(self):
        for seed in range(25):
            P = random_ergodic(seed)
            L = build_L(P)
            S = generic_dilation(L) + np.eye(2 * P.n)
            by_shift = 2.0 - lanczos_second_eigenvalue(S, LanczosConfig(seed=seed))
            by_kernel = 1.0 - second_singular_value(L)
            assert abs(by_shift - by_kernel) <= 1e-8
