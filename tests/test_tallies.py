import json
import sys
import threading
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from mixgap.chain import Trajectory, build_L, simulate
from mixgap.confidence import confidence_interval
from mixgap.errors import NoTriggerError, TrajectoryTooShortError, UnvisitedStateError
from mixgap.estimators import DEFAULT_ALPHA, gamma_dps_hat, gamma_ps_amplified
from mixgap.fixtures import example_chain
from mixgap.tallies import smoothed_estimates, tally, unsmoothed_L_hat
from reference_routes import tally_counts

ZIGZAG = Trajectory(np.array([0, 1, 0, 1, 1]), n=2)
# the state codes widen past n = 256 and the pair codes past n = 16 and n = 256
EDGE_N = (1, 2, 16, 17, 256, 257)


def memo_bytes(tr: Trajectory) -> int:
    """Bytes the tally memo of tr holds: its compact states plus every cached table."""
    return sum(getattr(v, "counts", v).nbytes for v in tr._tallies.values())


class TestTally:
    def test_skip_one_counts(self):
        t = tally(ZIGZAG, 1)
        assert t.visits.tolist() == [2, 2]
        assert t.counts.tolist() == [[0, 2], [1, 1]]

    def test_skip_two_counts(self):
        # skipped sequence (0, 0, 1): pairs (0,0), (0,1)
        t = tally(ZIGZAG, 2)
        assert t.visits.tolist() == [2, 0]
        assert t.counts.tolist() == [[1, 1], [0, 0]]

    def test_constant_trajectory(self):
        tr = Trajectory(np.zeros(11, dtype=int), n=2)
        for k in (1, 2, 3):
            t = tally(tr, k)
            pairs = (tr.m - 1) // k
            assert t.visits.tolist() == [pairs, 0]
            assert t.counts[0, 0] == pairs

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


class TestCompactKernel:
    @given(st.data(), st.sampled_from(EDGE_N), st.integers(1, 9))
    @settings(max_examples=80, deadline=None)
    def test_matches_int64_reference_at_dtype_edges(self, data, n, k):
        m = data.draw(st.integers(k + 1, 300))
        # lean on the top state, whose pairs make the largest codes
        states = data.draw(st.lists(st.integers(0, n - 1) | st.just(n - 1), min_size=m, max_size=m))
        tr = Trajectory(np.array(states), n=n)
        assert np.array_equal(tally(tr, k).counts, tally_counts(states, n, k))
        assert tr._tallies["codes"].dtype == np.min_scalar_type(n - 1)

    @pytest.mark.parametrize("pairs", [1 << 18, (1 << 18) + 1])
    @pytest.mark.parametrize("n, k", [(16, 1), (257, 1), (17, 3)])
    def test_chunk_edge(self, n, k, pairs):
        # 2^18 pairs fill one chunk exactly; one more starts a second chunk
        rng = np.random.default_rng(pairs + n)
        tr = Trajectory(rng.integers(0, n, size=k * pairs + 1), n=n)
        t = tally(tr, k)
        assert t.num_pairs == pairs
        assert np.array_equal(t.counts, tally_counts(tr.states, n, k))


class TestMemo:
    def test_second_call_returns_the_same_table(self):
        tr = simulate(example_chain(), 1_000, seed=0)
        for k in (1, 2, 5):
            assert tally(tr, k) is tally(tr, k)

    def test_reports_do_not_depend_on_sharing_or_order(self):
        # ex31 at m = 1e5: K_hat = 2 and a two-level amplified scan
        states = simulate(example_chain(), 100_000, seed=1).states
        calls = {"dps": gamma_dps_hat, "interval": confidence_interval, "amplified": gamma_ps_amplified}

        def reports(order, shared, keep_tables=True):
            tr = Trajectory(states, 3)
            out = {}
            for name in order:
                out[name] = json.dumps(calls[name](tr if shared else Trajectory(states, 3)).to_dict())
                if not keep_tables:  # then only the gap memo carries over
                    tr._tallies.clear()
            return out, tr

        fresh, _ = reports(list(calls), shared=False)
        assert json.loads(fresh["interval"])["K_hat"] == 2
        # smoothed gaps of skips 1..K_hat by (k, alpha), unsmoothed ones of both amplified levels by k
        gap_keys = {(1, DEFAULT_ALPHA), (2, DEFAULT_ALPHA)} | set(range(1, 17)) | set(range(2, 33, 2))
        for order in (list(calls), list(reversed(calls))):
            for keep_tables in (True, False):
                out, tr = reports(order, shared=True, keep_tables=keep_tables)
                assert out == fresh
                assert set(tr._gaps) == gap_keys

    def test_memo_stays_within_the_states_bytes(self):
        # an n x n table is 720 kB here against 160 kB of states, so none is cached
        rng = np.random.default_rng(0)
        tr = Trajectory(rng.integers(0, 300, size=20_000), n=300)
        try:
            gamma_ps_amplified(tr)
        except NoTriggerError:
            pass
        assert 0 < memo_bytes(tr) <= tr.states.nbytes
        assert list(tr._tallies) == ["codes"]

    def test_threads_sharing_trajectories_keep_the_limit(self):
        # 4 kB of codes and 12.8 kB tables against 32 kB of states: two fit
        rng = np.random.default_rng(2)
        trs = [Trajectory(rng.integers(0, 40, size=4_000), n=40) for _ in range(40)]
        skips = list(range(1, 13))
        errors = []

        def worker(order):
            try:
                for tr in trs:
                    for k in order:
                        tally(tr, k)
            except Exception as err:  # surfaced by the assertion below
                errors.append(err)

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(skips[i:] + skips[:i],)) for i in range(0, 12, 3)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(switch)
        assert not errors and not any(thread.is_alive() for thread in threads)
        for tr in trs:
            assert memo_bytes(tr) <= tr.states.nbytes
            for k in skips:
                assert np.array_equal(tally(tr, k).counts, tally_counts(tr.states, 40, k))


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
        raw = t.counts / t.visits[:, None]
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
