from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from mixgap.chain import Trajectory, build_L, simulate
from mixgap.errors import TrajectoryTooShortError, UnvisitedStateError
from mixgap.fixtures import example_chain
from mixgap.tallies import smoothed_estimates, tally, unsmoothed_L_hat

ZIGZAG = Trajectory(np.array([0, 1, 0, 1, 1]), n=2)


class TestTally:
    def test_skip_one_counts(self):
        t = tally(ZIGZAG, 1)
        assert t.visits.tolist() == [2, 2]
        dense = t.transitions_dense()
        assert dense.tolist() == [[0, 2], [1, 1]]

    def test_skip_two_counts(self):
        # skipped sequence (0, 0, 1): pairs (0,0), (0,1)
        t = tally(ZIGZAG, 2)
        assert t.visits.tolist() == [2, 0]
        assert t.transitions_dense().tolist() == [[1, 1], [0, 0]]

    def test_constant_trajectory(self):
        tr = Trajectory(np.zeros(11, dtype=int), n=2)
        for k in (1, 2, 3):
            t = tally(tr, k)
            pairs = (tr.m - 1) // k
            assert t.visits.tolist() == [pairs, 0]
            assert t.transitions_dense()[0, 0] == pairs

    def test_too_short(self):
        with pytest.raises(TrajectoryTooShortError):
            tally(Trajectory(np.array([0, 1, 0]), n=2), k=3)

    @given(st.integers(0, 10_000), st.integers(2, 6), st.integers(5, 60), st.integers(1, 7))
    @settings(max_examples=60, deadline=None)
    def test_conservation_invariants(self, seed, n, m, k):
        rng = np.random.default_rng(seed)
        tr = Trajectory(rng.integers(0, n, size=m), n=n)
        if m < k + 1:
            with pytest.raises(TrajectoryTooShortError):
                tally(tr, k)
            return
        t = tally(tr, k)
        assert t.visits.sum() == (m - 1) // k
        rowsums = np.asarray(t.transitions.sum(axis=1)).ravel()
        assert np.array_equal(rowsums, t.visits)

    @given(st.data(), st.integers(1, 8), st.integers(2, 200), st.integers(1, 9))
    @settings(max_examples=100, deadline=None)
    def test_counts_match_brute_force(self, data, n, m, k):
        states = data.draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m))
        tr = Trajectory(np.array(states), n=n)
        if m < k + 1:
            with pytest.raises(TrajectoryTooShortError):
                tally(tr, k)
            return
        t = tally(tr, k)
        skipped = states[::k]
        pairs = Counter(zip(skipped[:-1], skipped[1:]))
        expected = np.zeros((n, n), dtype=np.int64)
        for (src, dst), count in pairs.items():
            expected[src, dst] = count
        assert np.array_equal(t.counts, expected)
        assert t.visits.tolist() == [sum(expected[x]) for x in range(n)]
        triples = sorted([src, dst, count] for (src, dst), count in pairs.items())
        assert t.to_dict()["transitions"] == triples

    def test_purity(self):
        a = tally(ZIGZAG, 2)
        b = tally(ZIGZAG, 2)
        assert np.array_equal(a.visits, b.visits)
        assert (a.transitions != b.transitions).nnz == 0


class TestUnsmoothedLHat:
    def test_zigzag_matrix(self):
        L = unsmoothed_L_hat(tally(ZIGZAG, 1))
        assert_allclose(L, [[0.0, 1.0], [0.5, 0.5]])

    def test_unvisited_state_error_lists_states(self):
        with pytest.raises(UnvisitedStateError) as err:
            unsmoothed_L_hat(tally(ZIGZAG, 2))
        assert err.value.states == [1]

    def test_converges_to_L_with_data(self):
        P = example_chain()
        L = build_L(P)
        errors = []
        for m in (2_000, 50_000):
            t = tally(simulate(P, m, seed=3), 1)
            errors.append(np.linalg.norm(unsmoothed_L_hat(t) - L, 2))
        assert errors[1] < errors[0]
        assert errors[1] < 0.05


class TestSmoothedEstimates:
    def test_zigzag_skip_two_arithmetic(self):
        est = smoothed_estimates(tally(ZIGZAG, 2), alpha=0.1)
        assert_allclose(est.P_hat, [[1.1 / 2.2, 1.1 / 2.2], [0.1 / 0.2, 0.1 / 0.2]])
        assert_allclose(est.pi_hat, [2.2 / 2.4, 0.2 / 2.4])

    def test_heavy_smoothing_limits_to_uniform(self):
        est = smoothed_estimates(tally(ZIGZAG, 1), alpha=1e9)
        assert_allclose(est.P_hat, np.full((2, 2), 0.5), atol=1e-8)

    def test_alpha_zero_limit_matches_raw_ratios(self):
        t = tally(ZIGZAG, 1)
        est = smoothed_estimates(t, alpha=1e-12)
        raw = t.transitions_dense() / t.visits[:, None]
        assert np.max(np.abs(est.P_hat - raw)) <= 1e-8

    def test_normalization_invariants(self):
        for seed in range(10):
            rng = np.random.default_rng(seed)
            tr = Trajectory(rng.integers(0, 4, size=200), n=4)
            for alpha in (1e-6, 1e-2, 1.0):
                est = smoothed_estimates(tally(tr, 2), alpha)
                assert np.max(np.abs(est.P_hat.sum(axis=1) - 1)) <= 1e-12
                assert abs(est.pi_hat.sum() - 1) <= 1e-12
                assert est.P_hat.min() > 0
                assert est.pi_hat.min() > 0

    def test_L_hat_consistent_with_rescaling(self):
        t = tally(simulate(example_chain(), 500, seed=1), 1)
        est = smoothed_estimates(t, alpha=0.05)
        root = np.sqrt(est.pi_hat)
        assert_allclose(est.L_hat, (root[:, None] * est.P_hat) / root[None, :])

    def test_rejects_nonpositive_alpha(self):
        with pytest.raises(ValueError):
            smoothed_estimates(tally(ZIGZAG, 1), alpha=0.0)


def test_serialization_roundtrip():
    d = tally(ZIGZAG, 1).to_dict()
    assert d["k"] == 1 and d["m"] == 5 and d["n"] == 2
    assert d["visits"] == [2, 2]
    assert d["transitions"] == [[0, 1, 2], [1, 0, 1], [1, 1, 1]]
