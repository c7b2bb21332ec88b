import math
from bisect import bisect_right

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from mixgap.chain import (
    STATIONARY_TOL,
    StochasticMatrix,
    Trajectory,
    additive_reversiblization,
    build_L,
    generic_dilation,
    is_aperiodic,
    is_ergodic,
    is_irreducible,
    is_reversible,
    matrix_power,
    mixing_time,
    reversible_dilation,
    simulate,
    stationary_distribution,
    stationary_projector,
    time_reversal,
)
from mixgap.errors import NotMixedByCapError, ReducibleChainError
from mixgap.fixtures import FIXTURES, get_fixture

from conftest import random_ergodic, random_reversible

UNIFORM2 = [[0.5, 0.5], [0.5, 0.5]]
FLIP = [[0.0, 1.0], [1.0, 0.0]]


class TestStochasticMatrix:
    def test_rejects_bad_row_sums(self):
        with pytest.raises(ValueError):
            StochasticMatrix([[0.5, 0.6], [0.5, 0.5]])

    def test_rejects_negative_entries(self):
        with pytest.raises(ValueError):
            StochasticMatrix([[1.5, -0.5], [0.5, 0.5]])

    def test_rejects_non_finite_entries(self):
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match="non-finite"):
                StochasticMatrix([[bad, 1.0], [0.5, 0.5]])

    def test_rows_are_immutable(self):
        P = StochasticMatrix(UNIFORM2)
        with pytest.raises(ValueError):
            P.rows[0, 0] = 1.0


class TestStationaryDistribution:
    def test_symmetric_two_state(self):
        assert_allclose(stationary_distribution(StochasticMatrix(UNIFORM2)), [0.5, 0.5])

    def test_example_chain_solved_by_hand(self, ex31):
        # independent solve of pi P = pi, sum(pi) = 1 for the 3x3 system
        A = np.vstack([ex31.rows.T - np.eye(3), np.ones(3)])
        b = np.array([0.0, 0.0, 0.0, 1.0])
        expected, *_ = np.linalg.lstsq(A, b, rcond=None)
        assert_allclose(expected, [0.25, 0.25, 0.5], atol=1e-12)
        assert_allclose(stationary_distribution(ex31), expected, atol=1e-12)

    def test_identity_is_reducible(self):
        with pytest.raises(ReducibleChainError):
            stationary_distribution(StochasticMatrix(np.eye(2)))

    def test_residual_and_positivity_on_random_chains(self):
        for seed in range(30):
            P = random_ergodic(seed)
            pi = stationary_distribution(P)
            assert np.max(np.abs(pi @ P.rows - pi)) < 1e-10
            assert pi.min() > 0
            assert abs(pi.sum() - 1.0) < 1e-12

    def test_large_periodic_chain(self):
        # complete bipartite chain on 1000 + 1100 states: period 2, so power
        # iteration would oscillate forever; the dense solve must not
        a, b = 1000, 1100
        rows = np.zeros((a + b, a + b))
        rows[:a, a:] = 1.0 / b
        rows[a:, :a] = 1.0 / a
        P = StochasticMatrix(rows)
        pi = stationary_distribution(P)
        assert np.max(np.abs(pi @ P.rows - pi)) <= STATIONARY_TOL
        assert_allclose(pi[:a], 0.5 / a, rtol=1e-9)
        assert_allclose(pi[a:], 0.5 / b, rtol=1e-9)


class TestTimeReversal:
    def test_example_chain_entry_by_entry(self, ex31):
        expected = [[0, 0, 1], [1, 0, 0], [0, 0.5, 0.5]]
        assert_allclose(time_reversal(ex31).rows, expected, atol=1e-12)

    def test_reversible_chain_is_fixed_point(self):
        P = random_reversible(5)
        assert_allclose(time_reversal(P).rows, P.rows, atol=1e-12)

    def test_doubly_stochastic_gives_transpose(self):
        P = StochasticMatrix([[0.2, 0.8], [0.8, 0.2]])
        assert_allclose(time_reversal(P).rows, P.rows.T, atol=1e-12)

    @given(st.integers(0, 500))
    @settings(max_examples=40, deadline=None)
    def test_involution(self, seed):
        P = random_ergodic(seed)
        assert np.max(np.abs(time_reversal(time_reversal(P)).rows - P.rows)) <= 1e-12


class TestMatrixPower:
    def test_k_one_is_identity_map(self, ex31):
        assert_allclose(matrix_power(ex31, 1).rows, ex31.rows)

    def test_period_two_square(self):
        assert_allclose(matrix_power(StochasticMatrix(FLIP), 2).rows, np.eye(2))

    def test_example_chain_square_by_hand(self, ex31):
        expected = [[0, 0, 1], [0.5, 0, 0.5], [0.25, 0.5, 0.25]]
        assert_allclose(matrix_power(ex31, 2).rows, expected, atol=1e-14)

    def test_stationary_shared_with_base(self):
        for seed in range(10):
            P = random_ergodic(seed)
            pi = stationary_distribution(P)
            Pk = matrix_power(P, 3)
            assert np.max(np.abs(pi @ Pk.rows - pi)) < 1e-10


class TestBuildL:
    def test_uniform_pi_leaves_P(self):
        P = StochasticMatrix(UNIFORM2)
        assert_allclose(build_L(P), P.rows)

    def test_reversible_gives_symmetric(self):
        L = build_L(random_reversible(11))
        assert np.max(np.abs(L - L.T)) <= 1e-12

    def test_example_chain_entry(self, ex31):
        L = build_L(ex31)
        assert_allclose(L[2, 0], math.sqrt(0.5 / 0.25) * 0.5, atol=1e-14)

    def test_sqrt_pi_is_singular_pair(self, ex31):
        L = build_L(ex31)
        root = np.sqrt(stationary_distribution(ex31))
        assert_allclose(L @ root, root, atol=1e-12)
        assert_allclose(root @ L, root, atol=1e-12)


class TestDilations:
    def test_reversible_P_gives_symmetric_blocks(self):
        P = random_reversible(3)
        S = reversible_dilation(P)
        n = P.n
        assert_allclose(S.entries[:n, n:], P.rows)
        assert_allclose(S.entries[n:, :n], P.rows, atol=1e-12)

    def test_example_chain_communicating_classes(self, ex31):
        # the 6-state dilation splits into classes {0,4} and {1,2,3,5}
        from scipy.sparse import csr_matrix
        from scipy.sparse.csgraph import connected_components

        S = reversible_dilation(ex31)
        ncomp, labels = connected_components(
            csr_matrix(S.entries > 0), directed=True, connection="strong"
        )
        assert ncomp == 2
        groups = {tuple(sorted(np.nonzero(labels == c)[0])) for c in range(ncomp)}
        assert groups == {(0, 4), (1, 2, 3, 5)}

    def test_proposition_properties_on_random_chains(self):
        for seed in range(100):
            P = random_ergodic(seed)
            n = P.n
            S = reversible_dilation(P).entries
            # row-stochastic
            assert np.max(np.abs(S.sum(axis=1) - 1)) <= 1e-10
            # (pi, pi)/2 is stationary
            pi = stationary_distribution(P)
            half = np.concatenate([pi, pi]) / 2
            assert np.max(np.abs(half @ S - half)) <= 1e-10
            # 2-periodic: odd powers have zero diagonal blocks, even powers
            # zero off-diagonal blocks
            power = S.copy()
            for p in range(1, 7):
                if p % 2 == 1:
                    assert np.max(np.abs(power[:n, :n])) <= 1e-10
                    assert np.max(np.abs(power[n:, n:])) <= 1e-10
                else:
                    assert np.max(np.abs(power[:n, n:])) <= 1e-10
                    assert np.max(np.abs(power[n:, :n])) <= 1e-10
                power = power @ S
            # detailed balance D S = S^T D with D = diag(pi, pi)
            D = np.diag(np.concatenate([pi, pi]))
            assert np.max(np.abs(D @ S - S.T @ D)) <= 1e-10

    def test_generic_dilation_spectrum_is_plus_minus_singular_values(self):
        rng = np.random.default_rng(0)
        A = rng.standard_normal((4, 4))
        S = generic_dilation(A).entries
        assert_allclose(S, S.T)
        eig = np.sort(np.linalg.eigvalsh(S))
        sv = np.linalg.svd(A, compute_uv=False)
        assert_allclose(eig, np.sort(np.concatenate([sv, -sv])), atol=1e-10)

    def test_one_by_one(self):
        S = generic_dilation(np.array([[1.0]]))
        assert_allclose(S.entries, [[0, 1], [1, 0]])
        assert_allclose(np.linalg.eigvalsh(S.entries), [-1, 1])


class TestAdditiveReversiblization:
    def test_reversible_fixed_point(self):
        P = random_reversible(7)
        assert_allclose(additive_reversiblization(P).rows, P.rows, atol=1e-12)

    def test_flip_chain_already_reversible(self):
        P = StochasticMatrix(FLIP)
        assert_allclose(additive_reversiblization(P).rows, FLIP)

    def test_example_chain_from_reversal(self, ex31):
        rev = time_reversal(ex31)
        expected = 0.5 * (ex31.rows + rev.rows)
        got = additive_reversiblization(ex31)
        assert_allclose(got.rows, expected, atol=1e-14)
        assert is_reversible(got)


class TestStationaryProjector:
    def test_commutation_identities(self):
        # Pi P = P Pi = Pi = Pi P* = P* Pi
        for seed in range(20):
            P = random_ergodic(seed)
            Pi = stationary_projector(P)
            Pstar = time_reversal(P).rows
            for other in (P.rows, Pstar):
                assert np.max(np.abs(Pi @ other - Pi)) <= 1e-12
                assert np.max(np.abs(other @ Pi - Pi)) <= 1e-12


class TestErgodicityChecks:
    def test_flip_is_irreducible_but_periodic(self):
        P = StochasticMatrix(FLIP)
        assert is_irreducible(P)
        assert not is_aperiodic(P)
        assert not is_ergodic(P)

    def test_dense_chain_is_ergodic(self):
        assert is_ergodic(random_ergodic(0))


class TestMixingTime:
    def test_one_step_chain(self):
        assert mixing_time(StochasticMatrix(UNIFORM2)) == 1

    def test_periodic_never_mixes(self):
        with pytest.raises(NotMixedByCapError):
            mixing_time(StochasticMatrix(FLIP), t_max=4096)

    def test_example_chain_against_direct_iteration(self, ex31):
        pi = stationary_distribution(ex31)
        Pt = np.eye(3)
        expected = None
        for t in range(1, 100):
            Pt = Pt @ ex31.rows
            if 0.5 * np.max(np.abs(Pt - pi).sum(axis=1)) < 0.25:
                expected = t
                break
        assert mixing_time(ex31) == expected

    def test_threshold_parameter(self, ex31):
        assert mixing_time(ex31, threshold=0.01) >= mixing_time(ex31, threshold=0.25)


class TestSimulate:
    def test_absorbing_state_constant(self):
        P = StochasticMatrix([[1.0, 0.0], [0.5, 0.5]])
        tr = simulate(P, 50, start=0, seed=1)
        assert np.all(tr.states == 0)

    def test_deterministic_flip(self):
        tr = simulate(StochasticMatrix(FLIP), 5, start=0, seed=9)
        assert tr.states.tolist() == [0, 1, 0, 1, 0]

    def test_seed_determinism(self, ex31):
        a = simulate(ex31, 2000, start=0, seed=42)
        b = simulate(ex31, 2000, start=0, seed=42)
        assert np.array_equal(a.states, b.states)
        c = simulate(ex31, 2000, start=0, seed=43)
        assert not np.array_equal(a.states, c.states)

    def test_empirical_frequencies_approach_pi(self, ex31):
        tr = simulate(ex31, 200_000, seed=5)
        freq = np.bincount(tr.states, minlength=3) / tr.m
        assert np.max(np.abs(freq - stationary_distribution(ex31))) < 0.01

    @pytest.mark.parametrize("name", sorted(FIXTURES))
    def test_matches_per_step_bisect_reference(self, name):
        P = get_fixture(name)
        rng = np.random.default_rng(11)
        thresholds = [tuple(np.cumsum(row)[:-1]) for row in P.rows]
        u = rng.random(20_000)
        expected = [0]
        for t in range(1, u.size):
            expected.append(bisect_right(thresholds[expected[-1]], u[t]))
        assert simulate(P, 20_000, start=0, seed=11).states.tolist() == expected

    def test_draw_near_one_stays_on_positive_columns(self, monkeypatch):
        # rows 0 and 2 sum to 1 - 5e-13, inside the 1e-12 tolerance, and end in
        # zero-probability columns that a draw in [1 - 5e-13, 1) used to land in
        P = StochasticMatrix([[0.3, 0.7 - 5e-13, 0.0], [0.0, 0.0, 1.0], [1.0 - 5e-13, 0.0, 0.0]])

        class NearOne:
            def random(self, m):
                return np.linspace(1 - 5e-13, np.nextafter(1.0, 0.0), m)

        monkeypatch.setattr("mixgap.chain.np.random.default_rng", lambda seed: NearOne())
        tr = simulate(P, 30, start=0, seed=0)
        assert tr.states.tolist() == [0, 1, 2] * 10

    def test_trajectory_validates_indices(self):
        with pytest.raises(ValueError):
            Trajectory(np.array([0, 3]), n=2)
