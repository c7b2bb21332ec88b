import hashlib
import json
import math
import warnings
from bisect import bisect_right

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import mixgap.chain as chain_module
from mixgap.chain import (
    STATIONARY_TOL,
    StochasticMatrix,
    Trajectory,
    build_L,
    is_aperiodic,
    is_irreducible,
    is_reversible,
    matrix_power,
    mixing_time,
    reversible_dilation,
    simulate,
    stationary_distribution,
    time_reversal,
)
from mixgap.errors import NoConvergenceError, NotMixedByCapError, ReducibleChainError
from mixgap.fixtures import FIXTURES, get_fixture, random_dense_chain, random_reversible_chain
from mixgap.oracle import spectral_gaps
from mixgap.tallies import tally

from conftest import (
    DEFECT_ROWS,
    RESOLVING_BIRTH_DEATH,
    RESOLVING_BIRTH_DEATH_HOLDS,
    birth_death,
    lazy_birth_death,
    lazy_cycle,
    lazy_torus,
    random_ergodic,
    random_reversible,
    rare_cycle_rows,
    simulated_chains,
)
from reference_routes import boolean_power_positive, generic_dilation, reaches_everywhere, strongly_connected

UNIFORM2 = [[0.5, 0.5], [0.5, 0.5]]
FLIP = [[0.0, 1.0], [1.0, 0.0]]


def detailed_balance_pi(rows: np.ndarray) -> np.ndarray:
    """pi(i) proportional to prod_{j < i} P(j, j+1) / P(j+1, j): exact entry by entry."""
    i = np.arange(rows.shape[0] - 1)
    weights = np.cumprod(np.r_[1.0, rows[i, i + 1] / rows[i + 1, i]])
    return weights / weights.sum()


class TestStochasticMatrix:
    def test_rejects_bad_row_sums(self):
        with pytest.raises(ValueError):
            StochasticMatrix([[0.5, 0.6], [0.5, 0.5]])

    def test_rejects_negative_entries(self):
        with pytest.raises(ValueError):
            StochasticMatrix([[1.5, -0.5], [0.5, 0.5]])

    def test_rejects_complex_entries(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # not numpy's ComplexWarning
            with pytest.raises(ValueError, match="must be real"):
                StochasticMatrix(np.array([[0.5 + 1j, 0.5], [0.5, 0.5]]))
            with pytest.raises(ValueError, match="must be real"):
                StochasticMatrix(np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex))

    def test_rejects_non_finite_entries(self):
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match="non-finite"):
                StochasticMatrix([[bad, 1.0], [0.5, 0.5]])

    def test_rows_are_immutable(self):
        P = StochasticMatrix(UNIFORM2)
        with pytest.raises(ValueError):
            P.rows[0, 0] = 1.0

    def test_constructor_takes_no_stationary_vector(self):
        # an unchecked pi must not reach the cache that every gap reads
        with pytest.raises(TypeError):
            StochasticMatrix(UNIFORM2, [np.array([0.5, 0.5])])


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

    def test_rows_inside_the_row_sum_tolerance_resolve(self):
        # a solve with the last equation replaced by sum(pi) = 1 puts the
        # rows' whole defect on the last, smallest entry's residual
        P = StochasticMatrix(DEFECT_ROWS)
        pi = stationary_distribution(P)
        assert np.all(np.abs(pi @ P.rows - pi) < STATIONARY_TOL * pi)
        assert_allclose(pi, [0.5, 0.5 / 1.01, 0.005 / 1.01], rtol=1e-11)

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

    @given(n=st.integers(2, 40), right=st.floats(0.55, 0.95))
    @settings(max_examples=150, deadline=None)
    def test_gaps_are_exact_or_refused_on_birth_death_chains(self, n, right):
        # pi_star is about ((1 - r) / r)^(n - 1), down to 1e-50 here: far below
        # what the LU solve resolves relative to the entry
        rows = birth_death(n, right)
        try:
            rep = spectral_gaps(StochasticMatrix(rows))
        except NoConvergenceError:
            return
        exact = StochasticMatrix(rows)
        exact._stationary.append(detailed_balance_pi(rows))
        ref = spectral_gaps(exact)
        assert abs(rep.gamma_ps - ref.gamma_ps) <= 1e-11
        assert abs(rep.gamma_dps - ref.gamma_dps) <= 1e-11


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

    def test_rows_renormalized_on_a_skewed_chain(self):
        # pi_star = 2.9e-6: (pi P)(x) / pi(x) misses 1 by 1.3e-12 before the division
        P = StochasticMatrix(birth_death(10, 0.8))
        assert is_reversible(P)
        assert_allclose(time_reversal(P).rows, P.rows, atol=1e-12)
        StochasticMatrix(reversible_dilation(P))  # rows sum to 1 within ROW_SUM_TOL

    @given(st.integers(0, 500))
    @settings(max_examples=40, deadline=None)
    def test_involution(self, seed):
        P = random_ergodic(seed)
        assert np.max(np.abs(time_reversal(time_reversal(P)).rows - P.rows)) <= 1e-12


class TestReversibility:
    def test_rare_cycle_is_not_reversible(self):
        # its flows miss detailed balance by about 1e-12, on states of pi about 1e-12
        P = StochasticMatrix(rare_cycle_rows())
        assert not is_reversible(P)

    @pytest.mark.parametrize("n", [1, 2, 3, 10, 40, 100])
    def test_random_reversible_chains(self, n):
        for seed in range(5):
            assert is_reversible(random_reversible_chain(n, seed))

    @pytest.mark.parametrize("n, right", RESOLVING_BIRTH_DEATH)
    @pytest.mark.parametrize("lazy", RESOLVING_BIRTH_DEATH_HOLDS)
    def test_birth_death_chains_that_resolve(self, n, right, lazy):
        P = lazy_birth_death(n, right, lazy)
        stationary_distribution(P)  # resolves
        assert is_reversible(P)

    @pytest.mark.parametrize(
        "rows",
        [random_dense_chain(n, seed).rows for n in (2, 5, 9) for seed in range(3)] + [rare_cycle_rows()],
    )
    def test_irreducible_dilations_are_reversible_and_periodic(self, rows):
        S = StochasticMatrix(reversible_dilation(StochasticMatrix(rows)))
        assert is_irreducible(S)
        assert is_reversible(S) and not is_aperiodic(S)


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

    def test_power_solves_its_own_pi_whatever_the_call_order(self):
        # P^k does not inherit P's pi, so a prior solve on P changes no bit
        for seed in range(200):
            alone = spectral_gaps(matrix_power(random_dense_chain(6, seed), 3)).to_dict()
            P = random_dense_chain(6, seed)
            stationary_distribution(P)
            assert spectral_gaps(matrix_power(P, 3)).to_dict() == alone

    @pytest.mark.parametrize("solve_base_first", [False, True])
    def test_square_of_flip_is_reducible_in_either_order(self, solve_base_first):
        P = StochasticMatrix(FLIP)
        if solve_base_first:
            stationary_distribution(P)
        with pytest.raises(ReducibleChainError):
            spectral_gaps(matrix_power(P, 2))


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
        assert_allclose(S[:n, n:], P.rows)
        assert_allclose(S[n:, :n], P.rows, atol=1e-12)

    def test_example_chain_communicating_classes(self, ex31):
        # the 6-state dilation splits into classes {0,4} and {1,2,3,5}
        from scipy.sparse import csr_matrix
        from scipy.sparse.csgraph import connected_components

        S = reversible_dilation(ex31)
        ncomp, labels = connected_components(
            csr_matrix(S > 0), directed=True, connection="strong"
        )
        assert ncomp == 2
        groups = {tuple(sorted(np.nonzero(labels == c)[0])) for c in range(ncomp)}
        assert groups == {(0, 4), (1, 2, 3, 5)}

    def test_proposition_properties_on_random_chains(self):
        for seed in range(100):
            P = random_ergodic(seed)
            n = P.n
            S = reversible_dilation(P)
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
        S = generic_dilation(A)
        assert_allclose(S, S.T)
        eig = np.sort(np.linalg.eigvalsh(S))
        sv = np.linalg.svd(A, compute_uv=False)
        assert_allclose(eig, np.sort(np.concatenate([sv, -sv])), atol=1e-10)

    def test_one_by_one(self):
        S = generic_dilation(np.array([[1.0]]))
        assert_allclose(S, [[0, 1], [1, 0]])
        assert_allclose(np.linalg.eigvalsh(S), [-1, 1])


class TestStationaryProjector:
    def test_commutation_identities(self):
        # Pi P = P Pi = Pi = Pi P* = P* Pi
        for seed in range(20):
            P = random_ergodic(seed)
            Pi = np.ones((P.n, 1)) @ stationary_distribution(P)[None, :]
            Pstar = time_reversal(P).rows
            for other in (P.rows, Pstar):
                assert np.max(np.abs(Pi @ other - Pi)) <= 1e-12
                assert np.max(np.abs(other @ Pi - Pi)) <= 1e-12


# sizes on both sides of the crossover between `is_irreducible`'s squared
# closure and its level searches
SUPPORT_SIZES = [chain_module._CLOSURE_MAX_N, chain_module._CLOSURE_MAX_N + 1, 2 * chain_module._CLOSURE_MAX_N]


def one_way_cycle(n, rng):
    """Lazy weights on the directed cycle x -> x + 1, with a few random chords."""
    W = np.eye(n) + np.roll(np.eye(n), 1, axis=1)
    W[rng.integers(n, size=n // 10), rng.integers(n, size=n // 10)] = 1.0
    return W * (rng.random((n, n)) + 0.1)


def with_transient_state(n, rng):
    # no other state steps into state 0, which still steps out
    W = one_way_cycle(n, rng)
    W[1:, 0] = 0.0
    return W, False


def with_two_closed_classes(n, rng):
    W = np.zeros((n, n))
    half = n // 2
    W[:half, :half] = one_way_cycle(half, rng)
    W[half:, half:] = one_way_cycle(n - half, rng)
    return W, False


def with_absorbing_state(n, rng):
    W = one_way_cycle(n, rng)
    W[n // 3] = 0.0
    W[n // 3, n // 3] = 1.0
    return W, False


def cycle_without_an_edge(n, rng):
    # the lazy directed cycle n - 1 -> 0 cut leaves a path
    W = np.eye(n) + np.roll(np.eye(n), 1, axis=1)
    W[n - 1, 0] = 0.0
    return W, False


def two_way_cycle_without_an_edge(n, rng):
    # every state still reaches every other the other way round
    W = np.eye(n) + np.roll(np.eye(n), 1, axis=1) + np.roll(np.eye(n), -1, axis=1)
    W[n - 1, 0] = 0.0
    return W, True


SUPPORT_FAMILIES = {
    "transient state": with_transient_state,
    "two closed classes": with_two_closed_classes,
    "absorbing state": with_absorbing_state,
    "cycle without an edge": cycle_without_an_edge,
    "two-way cycle without an edge": two_way_cycle_without_an_edge,
    "one-way cycle with chords": lambda n, rng: (one_way_cycle(n, rng), True),
}


class TestErgodicityChecks:
    def test_flip_is_irreducible_but_periodic(self):
        P = StochasticMatrix(FLIP)
        assert is_irreducible(P)
        assert not is_aperiodic(P)
        assert not (is_irreducible(P) and is_aperiodic(P))

    def test_dense_chain_is_ergodic(self):
        P = random_ergodic(0)
        assert is_irreducible(P) and is_aperiodic(P)

    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 9) | st.sampled_from(SUPPORT_SIZES),
        density=st.sampled_from([0.01, 0.03, 0.1, 0.3, 0.6, 0.9, 1.0]),
    )
    @settings(max_examples=300, deadline=None)
    def test_irreducibility_matches_strong_components(self, seed, n, density):
        # density 1 gives the all-positive rows that skip the graph test; at
        # 100-200 states densities up to 0.03 leave most chains reducible and
        # 0.1 leaves nearly all irreducible
        rng = np.random.default_rng(seed)
        W = (rng.random((n, n)) + 1e-3) * (rng.random((n, n)) < density)
        W[W.sum(axis=1) == 0, 0] = 1.0
        P = StochasticMatrix(W / W.sum(axis=1, keepdims=True))
        assert is_irreducible(P) == strongly_connected(P.rows) == reaches_everywhere(P.rows)
        if density == 1.0:
            assert P.rows.all() and is_irreducible(P)

    @pytest.mark.parametrize("shuffle", [False, True])
    @pytest.mark.parametrize("n", SUPPORT_SIZES)
    @pytest.mark.parametrize("family", sorted(SUPPORT_FAMILIES))
    def test_irreducibility_of_support_families(self, family, n, shuffle):
        # each family on both sides of the route crossover. As built, state
        # 0, where the level searches start, reaches every state of the
        # transient and cut-cycle families but not every state reaches it;
        # shuffled, the special states fall anywhere
        rng = np.random.default_rng(n)
        W, irreducible = SUPPORT_FAMILIES[family](n, rng)
        order = rng.permutation(n) if shuffle else np.arange(n)
        P = StochasticMatrix((W / W.sum(axis=1, keepdims=True))[np.ix_(order, order)])
        assert not P.rows.all()
        assert is_irreducible(P) == irreducible == strongly_connected(P.rows) == reaches_everywhere(P.rows)

    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(2, 7),
        period=st.integers(1, 4),
        self_loops=st.booleans(),
    )
    @settings(max_examples=200, deadline=None)
    def test_aperiodicity_matches_wielandt_power(self, seed, n, period, self_loops):
        # no self-loops, and edges only from cyclic class c to c + 1 when
        # period > 1; then self-loops on some states half the time. An
        # irreducible P is primitive iff P^((n-1)^2 + 1) > 0 (Wielandt).
        rng = np.random.default_rng(seed)
        period = min(period, n)
        cls = rng.permutation(n) % period
        allowed = ((cls[:, None] + 1) % period == cls[None, :]) & ~np.eye(n, dtype=bool)
        W = rng.random((n, n)) * allowed * (rng.random((n, n)) < 0.7)
        for x in np.flatnonzero(W.sum(axis=1) == 0):
            W[x, rng.choice(np.flatnonzero(allowed[x]))] = 1.0
        if self_loops:
            W[np.arange(n), np.arange(n)] += rng.random(n) * (rng.random(n) < 0.5)
        P = StochasticMatrix(W / W.sum(axis=1, keepdims=True))
        if not is_irreducible(P):
            return
        assert is_aperiodic(P) == boolean_power_positive(P.rows, (n - 1) ** 2 + 1)

    @pytest.mark.parametrize(
        "n, parts, chord, aperiodic",
        [(80, 2, False, False), (300, 300, False, False), (300, 300, True, True), (60, 3, False, False)],
    )
    def test_aperiodicity_matches_wielandt_power_at_scale(self, n, parts, chord, aperiodic):
        # each state steps to every state of the next of `parts` cyclic
        # classes: complete bipartite, a pure 300-cycle (with the chord 0 -> 2
        # it has cycles of 300 and 299 states) and complete 3-partite. The
        # diagonals are zero, so the level search decides each
        cls = np.arange(n) % parts
        W = ((cls[:, None] + 1) % parts == cls[None, :]).astype(float)
        W[0, 2] += chord
        P = StochasticMatrix(W / W.sum(axis=1, keepdims=True))
        assert is_irreducible(P) and not P.rows.diagonal().any()
        assert is_aperiodic(P) == aperiodic == boolean_power_positive(P.rows, (n - 1) ** 2 + 1)


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

    @pytest.mark.parametrize("t_max", [0, -5])
    def test_t_max_must_be_at_least_1(self, ex31, t_max):
        with pytest.raises(ValueError, match="t_max"):
            mixing_time(ex31, t_max=t_max)

    @pytest.mark.parametrize("threshold", [0.0, -1.0, float("nan"), 1.5])
    def test_threshold_must_lie_in_0_1(self, ex31, threshold):
        with pytest.raises(ValueError, match="threshold"):
            mixing_time(ex31, threshold=threshold)

    def test_threshold_1_and_t_max_1_are_accepted(self, ex31):
        # pi > 0 on an irreducible chain, so every row is within TV distance < 1 of it
        assert mixing_time(ex31, threshold=1.0, t_max=1) == 1

    @given(
        kind=st.sampled_from(["dense", "sparse", "lazy"]),
        n=st.integers(1, 6),
        seed=st.integers(0, 2**32 - 1),
        threshold=st.sampled_from([0.25, 0.01]),
        t_max=st.sampled_from([1, 2, 3, 5, 8, 13, 64, None]),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_a_scan_over_t(self, kind, n, seed, threshold, t_max):
        rng = np.random.default_rng(seed)
        W = rng.gamma(2.0, size=(n, n))
        if kind != "dense":
            # a ring keeps the support strongly connected; without a self-loop
            # a sparse chain may be periodic and never mix
            W = W * (rng.random((n, n)) < 0.3) + np.roll(np.eye(n), 1, axis=1)
        if kind == "lazy":
            W = W / W.sum(axis=1, keepdims=True) + rng.uniform(0.05, 5.0) * np.eye(n)
        P = StochasticMatrix(W / W.sum(axis=1, keepdims=True))
        pi = stationary_distribution(P)
        cap = 4096 if t_max is None else t_max
        Pt, expected = np.eye(n), None
        for t in range(1, cap + 1):
            Pt = Pt @ P.rows
            if 0.5 * np.max(np.abs(Pt - pi).sum(axis=1)) < threshold:
                expected = t
                break
        if expected is None and t_max is None:
            return  # not mixed within the scan: the default cap is out of its reach
        kwargs = {} if t_max is None else {"t_max": t_max}
        if expected is None:
            with pytest.raises(NotMixedByCapError):
                mixing_time(P, threshold=threshold, **kwargs)
        else:
            assert mixing_time(P, threshold=threshold, **kwargs) == expected


# blake2b-128 of simulate(P, m, start, seed).states for every fixture, seed,
# start and m below, recorded from the one-bisect-per-step walk that the
# coupled walk replaced; seeded trajectories must never change
SIMULATE_DIGESTS = {
    ("ex31", 0, "stationary", 10): "5391445de3799b57ebc80520014f52bf",
    ("ex31", 0, "stationary", 5000): "62cb9e08d1453d48198ab310ff288e4f",
    ("ex31", 0, "stationary", 200000): "1c378cda809260f1a505c77ed4270a3b",
    ("ex31", 0, "0", 10): "a07edcf14b919f83c88d64fc1ba7ce91",
    ("ex31", 0, "0", 5000): "568e4733839ad9560071f3d05894a727",
    ("ex31", 0, "0", 200000): "d8d99b4dc16cac0ef6c45aa0091e14db",
    ("ex31", 0, "uniform", 10): "3e633031e38427714bcb8c9379099b41",
    ("ex31", 0, "uniform", 5000): "49436fddde156a1006e4648ca236f6e2",
    ("ex31", 0, "uniform", 200000): "fc9ec52c2400b3fb08abfe1de0f97efe",
    ("ex31", 1, "stationary", 10): "5979b85b900bcafb89cb764b61f386d3",
    ("ex31", 1, "stationary", 5000): "78c78657054076043ea811b944b1e56c",
    ("ex31", 1, "stationary", 200000): "203fa4e7fb3720bfc6b4ea03e3800890",
    ("ex31", 1, "0", 10): "3f7ba61c83b16240ff53a4049337529a",
    ("ex31", 1, "0", 5000): "bcc77dcdcb8b89fbee5f7912effa7d68",
    ("ex31", 1, "0", 200000): "8dcbbf45ea237a7f612b9a7430bb46ce",
    ("ex31", 1, "uniform", 10): "38b26fdc95c6af1e2b1f28646c212d2d",
    ("ex31", 1, "uniform", 5000): "43e75caf63334cd555b37f3301d47ff3",
    ("ex31", 1, "uniform", 200000): "82d3c974a2bfc2a2c77ad911d59f49b8",
    ("ex31", 7, "stationary", 10): "3afb419696108e0c08e94f9751562ff2",
    ("ex31", 7, "stationary", 5000): "f40b968a0589ce1cff00718bac9f1789",
    ("ex31", 7, "stationary", 200000): "0c1e142b2d9bf85a886c3b93cd33439e",
    ("ex31", 7, "0", 10): "5c2a6ac3a15f8976a4d3ccb721bf05ba",
    ("ex31", 7, "0", 5000): "b6a3a6974a03099a37ef6272bcd7d340",
    ("ex31", 7, "0", 200000): "81461c176afafa614d49c5c7d1ffc1f4",
    ("ex31", 7, "uniform", 10): "ecaba79cd0cce47ae9ee8281308f7a65",
    ("ex31", 7, "uniform", 5000): "419d18def6f4022a82124c072c1ffa7f",
    ("ex31", 7, "uniform", 200000): "b15adb3826d48bd96ce125467671bc02",
    ("fast3", 0, "stationary", 10): "eea29dc702f9db73bdb562e0dfbde048",
    ("fast3", 0, "stationary", 5000): "9bcaad0aba6d22a9784d396e6e57a074",
    ("fast3", 0, "stationary", 200000): "cbe06b533a22deb3b88ff6247f1561a6",
    ("fast3", 0, "0", 10): "e315e45a924d9c24b8131a1354ea996a",
    ("fast3", 0, "0", 5000): "8e0b30c0c95d6aeb162e8b2315ed86cd",
    ("fast3", 0, "0", 200000): "429f40c1695dbbd988fdfd97f2855aa0",
    ("fast3", 0, "uniform", 10): "eea29dc702f9db73bdb562e0dfbde048",
    ("fast3", 0, "uniform", 5000): "9bcaad0aba6d22a9784d396e6e57a074",
    ("fast3", 0, "uniform", 200000): "cbe06b533a22deb3b88ff6247f1561a6",
    ("fast3", 1, "stationary", 10): "d35a7efd234a500d32aaf2db6644f52f",
    ("fast3", 1, "stationary", 5000): "868a8970d22199f046026974f8892ab5",
    ("fast3", 1, "stationary", 200000): "a482967a483b4697c27a7507c4d02eff",
    ("fast3", 1, "0", 10): "f59b3dc0eb39be2307441eea9dafb15f",
    ("fast3", 1, "0", 5000): "24e1dcd0f4a05254660b2ec8bc90387e",
    ("fast3", 1, "0", 200000): "80e551e025512a98731df15c84ef521a",
    ("fast3", 1, "uniform", 10): "d35a7efd234a500d32aaf2db6644f52f",
    ("fast3", 1, "uniform", 5000): "868a8970d22199f046026974f8892ab5",
    ("fast3", 1, "uniform", 200000): "a482967a483b4697c27a7507c4d02eff",
    ("fast3", 7, "stationary", 10): "26aaeed43a532cc9e6ed6091ee40eb3b",
    ("fast3", 7, "stationary", 5000): "e4c40f13e61fb7427d809cc64fee164d",
    ("fast3", 7, "stationary", 200000): "19ee28922f5d7825e2f0293dcaf014b4",
    ("fast3", 7, "0", 10): "1f7c3f156cd999bbaf5bc717d289b320",
    ("fast3", 7, "0", 5000): "70b0b07af58b879c868170498d7ff473",
    ("fast3", 7, "0", 200000): "6758e8fa01ec4613527eb7e84dbaefa8",
    ("fast3", 7, "uniform", 10): "26aaeed43a532cc9e6ed6091ee40eb3b",
    ("fast3", 7, "uniform", 5000): "e4c40f13e61fb7427d809cc64fee164d",
    ("fast3", 7, "uniform", 200000): "19ee28922f5d7825e2f0293dcaf014b4",
    ("rand5a", 0, "stationary", 10): "05d5662a6278e167642001e9e25dde98",
    ("rand5a", 0, "stationary", 5000): "9362c62b796c89b0823517aa27347a28",
    ("rand5a", 0, "stationary", 200000): "66640d7fe006598571cd879bb14a5bc1",
    ("rand5a", 0, "0", 10): "dbd2ca87649584f91970e7664b9e6434",
    ("rand5a", 0, "0", 5000): "36e79568abebcdb6391c897484916dc2",
    ("rand5a", 0, "0", 200000): "3c44951113328aa1aeaff45ed2baa2f5",
    ("rand5a", 0, "uniform", 10): "05d5662a6278e167642001e9e25dde98",
    ("rand5a", 0, "uniform", 5000): "9362c62b796c89b0823517aa27347a28",
    ("rand5a", 0, "uniform", 200000): "66640d7fe006598571cd879bb14a5bc1",
    ("rand5a", 1, "stationary", 10): "473f65a3cdc1a749eaae044ce82a5a82",
    ("rand5a", 1, "stationary", 5000): "4324b3d72ae01dc309efc640c7bf5d70",
    ("rand5a", 1, "stationary", 200000): "47a92a08ab0b8d12e5d426a50c18c686",
    ("rand5a", 1, "0", 10): "562fd205b385733ef4a1c5526a9b03d9",
    ("rand5a", 1, "0", 5000): "b19d843eaf22ec17c3e460ee7ee1f7f1",
    ("rand5a", 1, "0", 200000): "724e91f2fc68c59ea7b29641c563825b",
    ("rand5a", 1, "uniform", 10): "473f65a3cdc1a749eaae044ce82a5a82",
    ("rand5a", 1, "uniform", 5000): "4324b3d72ae01dc309efc640c7bf5d70",
    ("rand5a", 1, "uniform", 200000): "47a92a08ab0b8d12e5d426a50c18c686",
    ("rand5a", 7, "stationary", 10): "f57cf622db3b2bc7b0d02fa119244a29",
    ("rand5a", 7, "stationary", 5000): "9658041abf6ff010ee53c680a08a3074",
    ("rand5a", 7, "stationary", 200000): "240fc3280ec4ac687629790fda2de11c",
    ("rand5a", 7, "0", 10): "add889a6d9798c81fce2af2ade119fcd",
    ("rand5a", 7, "0", 5000): "b612ff997cac2a9e7a958c23c91686f3",
    ("rand5a", 7, "0", 200000): "977f7656af97773ae273d9d5206c8d77",
    ("rand5a", 7, "uniform", 10): "f57cf622db3b2bc7b0d02fa119244a29",
    ("rand5a", 7, "uniform", 5000): "9658041abf6ff010ee53c680a08a3074",
    ("rand5a", 7, "uniform", 200000): "240fc3280ec4ac687629790fda2de11c",
    ("rand5b", 0, "stationary", 10): "da28e5f207110645b764bf5e4e2ee155",
    ("rand5b", 0, "stationary", 5000): "9602f80c6a728e09b52d0a42d8d52d07",
    ("rand5b", 0, "stationary", 200000): "b1fd004d939a1a29667125e67c954232",
    ("rand5b", 0, "0", 10): "a42283c5a84ef49d777b572f54e1f229",
    ("rand5b", 0, "0", 5000): "963ed006e2b10b11de5fe4f40324e330",
    ("rand5b", 0, "0", 200000): "86a816b7cc89cbafb05abd39b124ccfb",
    ("rand5b", 0, "uniform", 10): "a40246547cbe3f30c94002e856b58051",
    ("rand5b", 0, "uniform", 5000): "078d16089b6fa1eddc914df786cb48c7",
    ("rand5b", 0, "uniform", 200000): "b79768cde4d932eb4941c84989e9ca4b",
    ("rand5b", 1, "stationary", 10): "f635150e7bcdf54e90e37c77f88a8a5f",
    ("rand5b", 1, "stationary", 5000): "8a5cda2305f898c5c360aa7813aa36e0",
    ("rand5b", 1, "stationary", 200000): "bb8c1f26e994c0fbe8dff4e8c9b89329",
    ("rand5b", 1, "0", 10): "6ef740f6a070dd097bd7c394e78e11f8",
    ("rand5b", 1, "0", 5000): "517663bc001ac194cc59a75dd5a92e8b",
    ("rand5b", 1, "0", 200000): "ff2f0225c3cf9bc67455c452595ade59",
    ("rand5b", 1, "uniform", 10): "f635150e7bcdf54e90e37c77f88a8a5f",
    ("rand5b", 1, "uniform", 5000): "8a5cda2305f898c5c360aa7813aa36e0",
    ("rand5b", 1, "uniform", 200000): "bb8c1f26e994c0fbe8dff4e8c9b89329",
    ("rand5b", 7, "stationary", 10): "49cc4b977efdd8f16df821df493e1b69",
    ("rand5b", 7, "stationary", 5000): "68ee26163de0205ab1128caf4a417a72",
    ("rand5b", 7, "stationary", 200000): "53e0f0a4aa6541f4b6844b5a7522bfc2",
    ("rand5b", 7, "0", 10): "1d1fcf4a50db777795bff19695b26d67",
    ("rand5b", 7, "0", 5000): "65cf25915c52114a2d0550fa158c94e5",
    ("rand5b", 7, "0", 200000): "5e2144c41972cb2caf10cff200347f0b",
    ("rand5b", 7, "uniform", 10): "6946f6371c1dd77990027346f4b2b2ff",
    ("rand5b", 7, "uniform", 5000): "187f5398a058e710cfe3589bca90b196",
    ("rand5b", 7, "uniform", 200000): "d990919e3f4c9bbf440e396ba7720d39",
}

# blake2b-128 of simulate(P, m, seed=seed).states from the stationary start on
# chains whose paths merge slowly: below m = 3969 they are walked one step at a
# time from the start, and from it on every trial hands over at _CHECK_STEP + 1.
# Recorded from the one-bisect-per-step walk before the symbol table replaced it.
FALLBACK_DIGESTS = {
    ("lazy_cycle(60)", 0, 1000): "936908558b94bc049035d7f843d616fa",
    ("lazy_cycle(60)", 0, 5000): "fe29bb99edb8bc338cb62437245201ca",
    ("lazy_cycle(60)", 0, 300000): "ed5fa9ec33ce015bee4b4b4f0c263211",
    ("lazy_cycle(60)", 7, 1000): "6d3f800b208d93d48138e58868053acb",
    ("lazy_cycle(60)", 7, 5000): "3293382c2aec3d99092f9a051c5e6abf",
    ("lazy_cycle(60)", 7, 300000): "4f95da69f0292d8385cf325704110dee",
    ("lazy_torus(6)", 0, 1000): "c92469f2592995eabc8f5afa403a7413",
    ("lazy_torus(6)", 0, 5000): "092ddc43c7a4c4cbbf6d818559a0b45f",
    ("lazy_torus(6)", 0, 300000): "e3141025c9c3b18b3b3a4f06e756e48d",
    ("lazy_torus(6)", 7, 1000): "5142a1125812cdde2b68558d8071767a",
    ("lazy_torus(6)", 7, 5000): "f65a0b69bdcbbe1f2525eefdc53238d6",
    ("lazy_torus(6)", 7, 300000): "04d1b7f55eb1c04e3af353b07f26d30e",
    # recorded from the symbol-table walk: 324 states, past CPython's small-int
    # cache; m = 5,000 bisects each step and m = 300,000 looks it up
    ("lazy_torus(18)", 0, 5000): "f21a2e029fc8e41bf627aeea30dc67d5",
    ("lazy_torus(18)", 0, 300000): "153928f88c6dcebe381a62cc80da5643",
    ("lazy_torus(18)", 7, 5000): "6b0b0b221bf00693847d01ef961cf552",
    ("lazy_torus(18)", 7, 300000): "dad18da86afedd89de05dedf40ac8205",
}
FALLBACK_CHAINS = {
    "lazy_cycle(60)": lambda: lazy_cycle(60),
    "lazy_torus(6)": lambda: lazy_torus(6),
    "lazy_torus(18)": lambda: lazy_torus(18),
}


def bisect_walk(P, x, u):
    """Per-step reference: bisect_right over each full row's cumulative sums,
    +inf from the row's last positive column on."""
    thresholds = []
    for row in P.rows:
        cuts = np.cumsum(row)[:-1]
        cuts[np.flatnonzero(row)[-1]:] = np.inf
        thresholds.append(tuple(cuts))
    out = [x]
    for t in range(1, u.size):
        out.append(bisect_right(thresholds[out[-1]], u[t]))
    return out


def reference_simulate(P, m, start, seed):
    """simulate's contract: the start draw (if any), then one rng.random(m)."""
    rng = np.random.default_rng(seed)
    if isinstance(start, str):
        start = stationary_distribution(P)
    if np.ndim(start) == 0:
        x = int(start)
    else:
        p = np.asarray(start, dtype=float)
        x = int(rng.choice(P.n, p=p / p.sum()))
    return bisect_walk(P, x, rng.random(m))


# the sequential walk runs below m = 3969, where chunks of round(sqrt(m) / 2)
# steps would end before the merge check at step 32; chunks are 32 steps long
# from m = 3969 to 4225 and 50 near m = 1e4, and the last chunk is full at 4097
# and 10001 and one step long at 4098 and 10002
LENGTHS = st.one_of(
    st.sampled_from([1, 2, 3, 3968, 3969, 4095, 4096, 4097, 4098, 10001, 10002]),
    st.integers(4090, 12000),
)
# batches of up to five trials stay near the lockstep threshold; m - 1 is a
# multiple of the 32-step chunk at 4097 and 4129
BATCH_LENGTHS = st.one_of(
    st.sampled_from([1, 2, 3968, 3969, 4095, 4096, 4097, 4098, 4129]),
    st.integers(4090, 5000),
)


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
            def random(self, out):
                out[:] = np.linspace(1 - 5e-13, np.nextafter(1.0, 0.0), out.size)

        monkeypatch.setattr("mixgap.chain.np.random.default_rng", lambda seed: NearOne())
        tr = simulate(P, 30, start=0, seed=0)
        assert tr.states.tolist() == [0, 1, 2] * 10

    @given(
        P=simulated_chains(),
        m=LENGTHS,
        mode=st.sampled_from(["int", "dist", "stationary"]),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_bisect_reference_on_random_chains(self, P, m, mode, seed):
        start = {
            "int": seed % P.n,
            "dist": np.random.default_rng(seed).dirichlet(np.ones(P.n)),
            "stationary": "stationary",
        }[mode]
        expected = reference_simulate(P, m, start, seed)
        assert simulate(P, m, start=start, seed=seed).states.tolist() == expected

    @pytest.mark.parametrize(
        "P, sequential_calls",
        [(get_fixture("ex31"), 0), (lazy_cycle(60), 1)],
        ids=["ex31-coupled", "lazy-cycle-fallback"],
    )
    def test_coupled_and_fallback_paths(self, monkeypatch, P, sequential_calls):
        calls = []
        walk = chain_module._walk_sequential

        def counted(*args):
            calls.append(args[-1])
            return walk(*args)

        monkeypatch.setattr(chain_module, "_walk_sequential", counted)
        tr = simulate(P, 100_000, start=0, seed=3)
        assert len(calls) == sequential_calls
        if sequential_calls:
            # the merge probe decides before the lockstep pass goes past it
            assert calls == [[(0, chain_module._CHECK_STEP + 1)]]
        assert tr.states.tolist() == reference_simulate(P, 100_000, 0, 3)

    @pytest.mark.parametrize(
        "m", [1000, 3968, 3969, 5000],
        ids=["sequential", "sequential-edge", "lockstep-fallback-edge", "lockstep-fallback"],
    )
    def test_symbol_table_built_once_per_batch(self, monkeypatch, m):
        # every trial of lazy_cycle(60) is walked one step at a time, in one
        # walk that builds one symbol table for all of them
        built, walks = [], []
        symbol_rows, walk = chain_module._symbol_rows, chain_module._walk_sequential

        def counted_build(*args):
            built.append(symbol_rows(*args))
            return built[-1]

        def recorded(*args):
            walks.append(args[-1])
            return walk(*args)

        monkeypatch.setattr(chain_module, "_symbol_rows", counted_build)
        monkeypatch.setattr(chain_module, "_walk_sequential", recorded)
        P, seeds = lazy_cycle(60), [0, 1, 2]
        batch = chain_module._simulate_batch(P, m, seeds, 0)
        # lockstep needs each trial's first chunk to reach the merge check
        lockstep = round(math.sqrt(m) / 2) >= chain_module._CHECK_STEP
        lo = chain_module._CHECK_STEP + 1 if lockstep else 1
        assert lockstep == (m >= 3969)
        assert walks == [[(0, lo), (1, lo), (2, lo)]] and len(built) == 1
        for seed, tr in zip(seeds, batch):
            assert tr.states.tolist() == reference_simulate(P, m, 0, seed)

    @given(
        P=st.one_of(simulated_chains(), st.just(lazy_cycle(60))),
        m=BATCH_LENGTHS,
        mode=st.sampled_from(["int", "dist", "stationary"]),
        seeds=st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=5),
    )
    @settings(max_examples=40, deadline=None)
    def test_batch_matches_bisect_reference_per_trial(self, P, m, mode, seeds):
        start = {
            "int": seeds[0] % P.n,
            "dist": np.random.default_rng(seeds[0]).dirichlet(np.ones(P.n)),
            "stationary": "stationary",
        }[mode]
        batch = chain_module._simulate_batch(P, m, seeds, start)
        assert len(batch) == len(seeds)
        for seed, tr in zip(seeds, batch):
            assert tr.states.tolist() == reference_simulate(P, m, start, seed)

    def test_rerun_through_the_last_step_of_an_inner_trial(self, monkeypatch):
        # at m = 4098 a trial's last chunk is its one last step; on ex31 with
        # seed 0 that step guessed from the start differs from the true one,
        # so a rerun must rewrite it and then stop before the next trial
        P, m = get_fixture("ex31"), 4098
        expected = reference_simulate(P, m, 0, 0)
        u = np.random.default_rng(0).random(m)
        assert bisect_walk(P, 0, u[-2:])[1] != expected[-1]
        calls = []
        monkeypatch.setattr(chain_module, "_walk_sequential", lambda *args: calls.append(args))
        first, second = chain_module._simulate_batch(P, m, [0, 1], 0)
        assert calls == []
        assert first.states.tolist() == expected
        assert second.states.tolist() == reference_simulate(P, m, 0, 1)

    def test_lockstep_batch_at_the_bench_shape(self, monkeypatch):
        # a bench batch at m = 10,002 holds 2^17 // m = 13 trials, whose last
        # chunk is the one step 10,001, so from step 1 on the lockstep views
        # must leave it out; a state written past it lands on the next trial's start
        P, m, seeds = random_dense_chain(5, 3), 10_002, list(range(13))
        calls = []
        monkeypatch.setattr(chain_module, "_walk_sequential", lambda *args: calls.append(args))
        batch = chain_module._simulate_batch(P, m, seeds, "stationary")
        assert calls == []
        for seed, tr in zip(seeds, batch):
            assert tr.states.tolist() == reference_simulate(P, m, "stationary", seed)

    def test_draw_near_one_on_the_coupled_path(self, monkeypatch):
        # rows 0 and 2 sum to 1 - 5e-13 and have fewer positive columns than
        # row 1, so their clamped cut sits inside the searched, padded table
        P = StochasticMatrix(
            [[0, 0.3, 0.7 - 5e-13, 0], [0.1, 0.2, 0.3, 0.4], [0, 1 - 5e-13, 0, 0], [0.5, 0, 0.5, 0]]
        )
        u = np.random.default_rng(4).random(20_000)
        u[::7] = np.linspace(1 - 5e-13, np.nextafter(1.0, 0.0), u[::7].size)

        class Stub:
            def random(self, out):
                out[:] = u[: out.size]

        monkeypatch.setattr("mixgap.chain.np.random.default_rng", lambda seed: Stub())
        tr = simulate(P, u.size, start=0, seed=0)
        assert tr.states.tolist() == bisect_walk(P, 0, u)

    @pytest.mark.parametrize("name", sorted(FIXTURES))
    def test_golden_digests(self, name):
        P = get_fixture(name)
        starts = {"stationary": "stationary", "0": 0, "uniform": np.full(P.n, 1.0 / P.n)}
        for (fixture, seed, label, m), digest in SIMULATE_DIGESTS.items():
            if fixture == name:
                states = simulate(P, m, start=starts[label], seed=seed).states
                got = hashlib.blake2b(states.tobytes(), digest_size=16).hexdigest()
                assert got == digest, (seed, label, m)

    @pytest.mark.parametrize("name", sorted(FALLBACK_CHAINS))
    def test_golden_digests_of_slowly_merging_chains(self, name):
        P = FALLBACK_CHAINS[name]()
        for (chain, seed, m), digest in FALLBACK_DIGESTS.items():
            if chain == name:
                states = simulate(P, m, seed=seed).states
                got = hashlib.blake2b(states.tobytes(), digest_size=16).hexdigest()
                assert got == digest, (seed, m)

    def test_refuses_m_beyond_physical_memory(self, ex31):
        with pytest.raises(ValueError, match="physical memory"):
            simulate(ex31, 10**12)

    @pytest.mark.parametrize(
        "start",
        [[math.nan, 0.0, 1.0], [math.inf, 0.0, 1.0], [0.5, 0.5], [0.6, 0.6, -0.2], [0.5, 0.4, 0.0]],
        ids=["nan", "inf", "short", "negative", "sum-below-one"],
    )
    def test_rejects_a_bad_start_distribution(self, ex31, start):
        with pytest.raises(ValueError, match="probability vector"):
            simulate(ex31, 5, start=start, seed=0)

    @pytest.mark.parametrize("start", [1.5, 1.0, math.nan, True, -1, 3, 2**70], ids=repr)
    def test_rejects_a_start_state_that_is_not_an_index(self, ex31, start):
        # int(1.5) is 1, so a fractional start once walked silently from state 1
        with pytest.raises(ValueError, match="start state must be an integer"):
            simulate(ex31, 5, start=start, seed=0)

    def test_integer_start_state_of_any_integer_type(self, ex31):
        expected = simulate(ex31, 50, start=2, seed=3).states.tolist()
        for start in (np.int64(2), np.uint8(2), np.array(2)):
            assert simulate(ex31, 50, start=start, seed=3).states.tolist() == expected

    def test_states_stay_int64(self, ex31):
        # perfbench's trajectory digest and SIMULATE_DIGESTS hash the raw bytes
        # of `states`, so compact states must wait until those digests stop
        # depending on the dtype; `tally` keeps its own compact codes
        assert simulate(ex31, 100, seed=0).states.dtype == np.int64
        assert Trajectory(np.array([0, 1], dtype=np.uint8), n=2).states.dtype == np.int64

    def test_trajectory_validates_indices(self):
        with pytest.raises(ValueError):
            Trajectory(np.array([0, 3]), n=2)

    def test_trajectory_rejects_states_that_are_not_integers(self):
        for states in ([0, 1.9, 2], np.array([0.0, 1.0]), [True, False], np.array([0, 1], dtype=complex)):
            with pytest.raises(ValueError, match="states must be integers"):
                Trajectory(states, 3)
        # the shape check comes first, for an empty list too (whose dtype is float)
        with pytest.raises(ValueError, match="non-empty 1-d"):
            Trajectory([], 3)

    def test_trajectory_rejects_a_size_that_is_not_an_integer(self):
        for n in (2.5, 3.0, True, "3", np.float64(3.0)):
            with pytest.raises(ValueError, match="size must be an integer"):
                Trajectory([0, 1], n)

    def test_trajectory_size_is_a_python_int(self):
        tr = Trajectory(np.array([0, 1, 2], dtype=np.uint64), np.int64(3))
        assert type(tr.n) is int and tr.states.tolist() == [0, 1, 2]
        assert json.loads(json.dumps(tally(tr, 1).to_dict()))["n"] == 3

    def test_trajectory_leaves_the_callers_array_writeable(self):
        a = np.array([0, 1, 1])
        tr = Trajectory(a, 2)
        a[0] = 1
        assert a.flags.writeable and tr.states.tolist() == [0, 1, 1]
        assert not tr.states.flags.writeable

    def test_trajectory_takes_a_read_only_array_as_frozen(self):
        a = np.array([0, 1, 1])
        a.flags.writeable = False
        assert Trajectory(a, 2).states is a

    # the walk's buffer holds n - 1 = 255 in uint8 and 256 in uint16. Every
    # row of the dense chain sends a draw below 1/2 to state 0, so its paths
    # merge fast and it is walked in lockstep with reruns; a lazy cycle hands
    # over to the sequential walk at the merge check
    @pytest.mark.parametrize("n", [256, 257])
    @pytest.mark.parametrize("kind", ["dense", "lazy-cycle"])
    def test_compact_walk_buffer_at_its_dtype_edges(self, monkeypatch, n, kind):
        if kind == "dense":
            rows = random_ergodic(n, n).rows / 2
            rows[:, 0] += 0.5
            P = StochasticMatrix(rows)
        else:
            P = lazy_cycle(n)
        m, seeds = 5_000, [0, 1, 2]
        assert np.min_scalar_type(n - 1) == (np.uint8 if n == 256 else np.uint16)
        walks = []
        walk = chain_module._walk_sequential
        monkeypatch.setattr(chain_module, "_walk_sequential", lambda *args: walks.append(args[-1]) or walk(*args))
        single = simulate(P, m, start=0, seed=7)
        batch = chain_module._simulate_batch(P, m, seeds, 0)
        lo = chain_module._CHECK_STEP + 1
        assert walks == ([] if kind == "dense" else [[(0, lo)], [(0, lo), (1, lo), (2, lo)]])
        for seed, tr in zip([7, *seeds], [single, *batch]):
            assert tr.states.dtype == np.int64 and not tr.states.flags.writeable
            assert tr.states.tolist() == reference_simulate(P, m, 0, seed)
        assert all(tr.states.base is batch[0].states.base for tr in batch)

    def test_simulated_trials_are_views_of_one_buffer(self, ex31):
        # the batch's states are frozen once, so no trial copies its slice
        first, second = chain_module._simulate_batch(ex31, 100, [0, 1], "stationary")
        assert first.states.base is not None and first.states.base is second.states.base


@st.composite
def adversarial_rows(draw):
    """Stochastic rows whose cuts sit where a symbol count could slip: on the
    dyadic grid of the bins, nextafter neighbours, equal cumulative sums from
    tiny entries, and rows summing to just inside 1 - 1e-12."""
    n = draw(st.integers(4, 10))  # room for the four entries of the fixed rows
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = np.zeros((n, n))
    for x in range(n):
        kind = draw(st.sampled_from(["dyadic", "neighbours", "tiny", "short"]))
        if kind == "dyadic":
            p = int(rng.integers(1, 15))
            points = np.unique(rng.integers(1, 2**p, size=n - 1)) / 2**p
            row = np.diff(np.concatenate([[0.0], points, [1.0]]))
        elif kind == "neighbours":
            c = rng.random()
            ulp = np.spacing(c)
            row = np.array([c, ulp, ulp, 1.0 - c - 2 * ulp])
        elif kind == "tiny":
            row = np.array([0.5, 1e-300, 1e-18, 0.5 - 1e-18])
        else:
            row = rng.dirichlet(np.ones(n)) * (1.0 - 0.99e-12)
        rows[x, rng.permutation(n)[: row.size]] = row
    return rows


def cut_union(rows):
    cut = chain_module._support_tables(rows)[0]
    return np.unique(cut[np.isfinite(cut)])


def probe_draws(U, rng):
    """Draws in [0, 1): random, every member of U with its neighbours, and dyadic points."""
    near = np.concatenate([U, np.nextafter(U, 0.0), np.nextafter(U, 1.0)])
    grid = np.arange(1 << 13) / (1 << 13)
    u = np.concatenate([rng.random(500), near, grid, [0.0, np.nextafter(1.0, 0.0), 1 - 5e-13]])
    return u[(u >= 0.0) & (u < 1.0)]


class TestSymbolTable:
    @given(rows=adversarial_rows(), seed=st.integers(0, 2**32 - 1),
           draws=st.sampled_from([1, 100, 5000, 10**6]))
    @settings(max_examples=80, deadline=None)
    def test_symbol_count_is_searchsorted(self, rows, seed, draws):
        U = cut_union(rows)
        u = probe_draws(U, np.random.default_rng(seed))
        count = chain_module._symbol_counter(U, draws)
        assert count(u).tolist() == np.searchsorted(U, u, side="right").tolist()

    @pytest.mark.parametrize(
        "U",
        [np.linspace(0.5, 0.5 + 1e-9, 40), np.array([0.25, 0.5, 0.75, 1.0, 1.0 + 1e-12]),
         np.array([np.nextafter(0.5, 0.0), 0.5, np.nextafter(0.5, 1.0)]), np.array([])],
        ids=["one-crowded-bin", "cuts-at-and-past-one", "neighbours-at-an-edge", "no-cuts"],
    )
    def test_symbol_count_on_edge_cut_sets(self, U):
        u = probe_draws(U, np.random.default_rng(0))
        for draws in (1, 4096, 10**6):
            count = chain_module._symbol_counter(U, draws)
            assert count(u).tolist() == np.searchsorted(U, u, side="right").tolist()

    @given(rows=adversarial_rows(), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=80, deadline=None)
    def test_table_walk_matches_bisect_reference(self, rows, seed):
        P = StochasticMatrix(rows)
        rng = np.random.default_rng(seed)
        u = probe_draws(cut_union(rows), rng)
        u = np.concatenate([[0.0], rng.permutation(np.tile(u, 2))])
        cut, col, size = chain_module._support_tables(P.rows)
        assert P.n * (cut_union(P.rows).size + 1) <= u.size - 1  # the table serves this walk
        out = np.empty(u.size, dtype=np.int64)
        out[0] = seed % P.n
        chain_module._walk_sequential(cut, col, size, u, out, u.size, [(0, 1)])
        assert out.tolist() == bisect_walk(P, seed % P.n, u)

    def test_table_past_its_entry_cap_keeps_the_bisect(self, monkeypatch):
        built = []
        symbol_rows = chain_module._symbol_rows
        monkeypatch.setattr(chain_module, "_symbol_rows", lambda *args: built.append(args) or symbol_rows(*args))
        P = lazy_cycle(60)
        expected = reference_simulate(P, 5000, 0, 3)
        assert simulate(P, 5000, start=0, seed=3).states.tolist() == expected and len(built) == 1
        # one entry short of the table that the walk would build
        monkeypatch.setattr(chain_module, "_TABLE_ENTRIES", P.n * (cut_union(P.rows).size + 1) - 1)
        assert simulate(P, 5000, start=0, seed=3).states.tolist() == expected and len(built) == 1
