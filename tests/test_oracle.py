import math

import numpy as np
import pytest

from mixgap.chain import (
    StochasticMatrix,
    build_L,
    generic_dilation,
    stationary_distribution,
)
from mixgap.eigensolve import dense_symmetric_spectrum
from mixgap.errors import NonconvergentGapError, ReducibleChainError
from mixgap.fixtures import get_fixture
from mixgap.oracle import (
    absolute_spectral_gap,
    gamma_dagger,
    gamma_ddagger,
    mixing_time_sandwich,
    pi_norm,
    reversiblization_norm,
    spectral_gaps,
    verify_lemma_properties,
)

from conftest import random_ergodic, random_reversible

UNIFORM2 = StochasticMatrix([[0.5, 0.5], [0.5, 0.5]])


class TestAbsoluteSpectralGap:
    def test_rank_one(self):
        assert absolute_spectral_gap(UNIFORM2) == pytest.approx(1.0, abs=1e-12)

    def test_two_state_closed_form(self):
        # eigenvalues are 1 and 1 - a - b
        for a, b in [(0.3, 0.4), (0.9, 0.8), (0.05, 0.6)]:
            P = StochasticMatrix([[1 - a, a], [b, 1 - b]])
            assert absolute_spectral_gap(P) == pytest.approx(1 - abs(1 - a - b), abs=1e-12)

    def test_two_routes_agree_on_reversible(self):
        for seed in range(20):
            P = random_reversible(seed, n=5)
            via_deflation = absolute_spectral_gap(P)
            # full-spectrum route: drop the Perron eigenvalue of symmetric L
            eigs = dense_symmetric_spectrum(build_L(P))
            rest = np.delete(eigs, np.argmin(np.abs(eigs - 1.0)))
            via_spectrum = 1.0 - np.max(np.abs(rest))
            assert abs(via_deflation - via_spectrum) <= 1e-10

    def test_reducible_propagates(self):
        with pytest.raises(ReducibleChainError):
            absolute_spectral_gap(StochasticMatrix(np.eye(2)))


class TestGammaDagger:
    def test_rank_one(self):
        assert gamma_dagger(UNIFORM2, 1) == pytest.approx(1.0, abs=1e-12)

    def test_example_chain_against_dense_eigensolve(self, ex31):
        L = build_L(ex31)
        lam2 = dense_symmetric_spectrum(L.T @ L)[1]
        assert gamma_dagger(ex31, 1) == pytest.approx(1 - lam2, abs=1e-12)

    def test_corollary_norm_route_agrees(self):
        # 1 - gamma_dagger(P^k) equals ||(P*-Pi)^k (P-Pi)^k||_pi
        for seed in range(15):
            P = random_ergodic(seed)
            for k in (1, 2, 3):
                assert abs((1 - gamma_dagger(P, k)) - reversiblization_norm(P, k)) <= 1e-10


class TestGammaDdagger:
    def test_rank_one(self):
        assert gamma_ddagger(UNIFORM2, 1) == pytest.approx(1.0, abs=1e-12)

    def test_lemma_identity_endpoint(self):
        # gamma_ddagger == 1 forces gamma_dagger == 1
        g = gamma_ddagger(UNIFORM2, 1)
        assert g == pytest.approx(1.0, abs=1e-12)
        assert gamma_dagger(UNIFORM2, 1) == pytest.approx(g * (2 - g), abs=1e-12)

    def test_dilation_route_agrees(self):
        for seed in range(12):
            P = random_ergodic(seed, n=4)
            L = build_L(P)
            for k in (1, 2, 3):
                Lk = np.linalg.matrix_power(L, k)
                # eigenvalues of the dilation are +/- singular values of L^k
                spectrum = dense_symmetric_spectrum(generic_dilation(Lk).entries)
                via_dilation = 1.0 - spectrum[1]
                assert abs(via_dilation - gamma_ddagger(P, k)) <= 1e-10

    def test_fixtures_match_dilation_to_full_precision(self):
        # squaring into a Gram matrix loses about 1e-8 here; the SVD kernel must not
        for name in ("fast3", "rand5a", "rand5b"):
            P = get_fixture(name)
            report = spectral_gaps(P)
            L = build_L(P)
            Lk = np.eye(P.n)
            for k in range(1, 40):
                Lk = Lk @ L
                sigma2 = dense_symmetric_spectrum(generic_dilation(Lk).entries)[1]
                assert abs(gamma_ddagger(P, k) - (1.0 - sigma2)) <= 1e-12, (name, k)
                assert abs(gamma_dagger(P, k) - (1.0 - sigma2**2)) <= 1e-12, (name, k)
                if k in report.gamma_ddagger_at_k:
                    assert abs(report.gamma_ddagger_at_k[k] - (1.0 - sigma2)) <= 1e-12
                    assert abs(report.gamma_dagger_at_k[k] - (1.0 - sigma2**2)) <= 1e-12

    def test_identity_links_the_two_gaps(self):
        for seed in range(25):
            P = random_ergodic(seed)
            for k in (1, 2, 3, 4, 5):
                gd = gamma_dagger(P, k)
                gdd = gamma_ddagger(P, k)
                assert abs(gd - gdd * (2 - gdd)) <= 1e-10
                assert gdd <= gd + 1e-12 <= 2 * gdd + 1e-9 + 1e-12


class TestPseudoSpectralGap:
    def test_rank_one(self):
        rep = spectral_gaps(UNIFORM2)
        assert rep.gamma_ps == pytest.approx(1.0, abs=1e-12)
        assert rep.k_ps == 1

    def test_one_state_chain(self):
        rep = spectral_gaps(StochasticMatrix([[1.0]]))
        assert (rep.gamma_ps, rep.gamma_dps, rep.gamma_star) == (1.0, 1.0, 1.0)
        assert rep.k_ps == rep.k_dps == rep.k_explored == 1

    def test_reversible_identity(self):
        for seed in range(20):
            P = random_reversible(seed)
            g = absolute_spectral_gap(P)
            rep = spectral_gaps(P)
            assert rep.gamma_ps == pytest.approx(g * (2 - g), abs=1e-10)
            assert rep.gamma_dps == pytest.approx(g, abs=1e-10)

    def test_example_chain_against_brute_force(self, ex31):
        rep = spectral_gaps(ex31)
        brute_ps = max(gamma_dagger(ex31, k) / k for k in range(1, 51))
        brute_dps = max(gamma_ddagger(ex31, k) / k for k in range(1, 51))
        assert rep.gamma_ps == pytest.approx(brute_ps, abs=1e-12)
        assert rep.gamma_dps == pytest.approx(brute_dps, abs=1e-12)
        assert rep.k_ps == 2
        assert rep.k_dps == 3

    def test_smallest_maximizer_reported(self):
        # rank-one chain: every k attains gap 1/k, so the smallest wins
        rep = spectral_gaps(UNIFORM2)
        assert rep.k_ps == 1 and rep.k_dps == 1

    def test_self_termination_soundness(self, ex31):
        rep = spectral_gaps(ex31)
        # exploring any further cannot change the maxima
        beyond_ps = max(
            gamma_dagger(ex31, k) / k for k in range(rep.k_explored + 1, rep.k_explored + 20)
        )
        beyond_dps = max(
            gamma_ddagger(ex31, k) / k for k in range(rep.k_explored + 1, rep.k_explored + 20)
        )
        assert beyond_ps <= rep.gamma_ps
        assert beyond_dps <= rep.gamma_dps
        assert spectral_gaps(ex31, k_cap=5000).gamma_ps == rep.gamma_ps

    def test_sandwich_between_gaps(self):
        for seed in range(25):
            rep = spectral_gaps(random_ergodic(seed))
            assert rep.gamma_dps <= rep.gamma_ps + 1e-10
            assert rep.gamma_ps <= 2 * rep.gamma_dps + 1e-10

    def test_periodic_chain_nonconvergent(self):
        flip = StochasticMatrix([[0.0, 1.0], [1.0, 0.0]])
        with pytest.raises(NonconvergentGapError):
            spectral_gaps(flip, k_cap=40)


class TestLemmaLedger:
    def test_rank_one_all_pass(self):
        ledger = verify_lemma_properties(UNIFORM2, k_max=6)
        assert ledger.all_passed

    def test_example_chain_k10(self, ex31):
        ledger = verify_lemma_properties(ex31, k_max=10)
        assert ledger.all_passed
        names = {c.name for c in ledger.checks}
        assert names == {
            "sub_multiplicativity",
            "skipped_gap_lower",
            "skipped_gap_upper",
            "large_skip_half",
            "small_skip_shim",
        }

    def test_k_max_cap(self, ex31):
        with pytest.raises(ValueError):
            verify_lemma_properties(ex31, k_max=21)

    def test_random_sweep_has_no_violations(self):
        for seed in range(30):
            P = random_ergodic(seed, n=2 + seed % 5)
            assert verify_lemma_properties(P, k_max=6).all_passed


class TestMixingSandwich:
    def test_rank_one_bounds(self):
        sw = mixing_time_sandwich(UNIFORM2)
        assert sw.t_mix == 1
        assert sw.ps_bounds[0] == pytest.approx(0.5)
        assert sw.ps_bounds[1] == pytest.approx(math.log(8 * math.e))
        assert sw.holds

    def test_example_chain(self, ex31):
        sw = mixing_time_sandwich(ex31)
        assert sw.holds
        assert sw.ps_bounds[0] <= sw.t_mix <= sw.ps_bounds[1]
        assert sw.dps_bounds[0] <= sw.t_mix <= sw.dps_bounds[1]
        assert sw.reversible_bounds is None

    def test_reversible_third_sandwich(self):
        for seed in (0, 1, 2):
            P = random_reversible(seed)
            sw = mixing_time_sandwich(P)
            assert sw.reversible_bounds is not None
            lo, hi = sw.reversible_bounds
            assert lo <= sw.t_mix <= hi
            assert sw.holds


class TestPiNormIdentities:
    def test_pi_norm_matches_direct_definition(self):
        # sup over f of ||Af||_pi / ||f||_pi via the conjugation identity,
        # cross-checked by random trial vectors
        P = random_ergodic(3, n=4)
        pi = stationary_distribution(P)
        A = P.rows - np.ones((4, 1)) @ pi[None, :]
        norm = pi_norm(A, pi)
        rng = np.random.default_rng(0)
        for _ in range(200):
            f = rng.standard_normal(4)
            num = math.sqrt(float(((A @ f) ** 2 * pi).sum()))
            den = math.sqrt(float((f**2 * pi).sum()))
            assert num <= norm * den + 1e-10


class TestAuxiliaryInequalities:
    def test_taylor_type_lower_bound(self):
        xs = np.arange(0.0, 1.0 + 1e-12, 0.01)
        for p in range(1, 21):
            lhs = 1 - (1 - xs) ** p
            rhs = p * xs * (1 - p * xs / 2)
            assert np.all(lhs >= rhs - 1e-12)

    def test_floor_power_below_half(self):
        ts = np.arange(1e-3, 1.0 + 1e-12, 1e-3)
        vals = (1 - ts) ** np.floor(1.0 / ts)
        assert np.all(vals < 0.5)
