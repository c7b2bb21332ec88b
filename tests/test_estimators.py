import math

import numpy as np
import pytest

from mixgap.chain import StochasticMatrix, Trajectory, simulate
from mixgap.errors import NoTriggerError, NoUsableKError
from mixgap.estimators import (
    adaptive_K_dps,
    adaptive_K_multiplicative,
    gamma_dps_from_tallies,
    gamma_dps_hat,
    gamma_ps_additive,
    gamma_ps_adaptive_multiplicative,
    gamma_ps_amplified,
    gamma_ps_prefix_hat,
    pi_star_hat,
)
from mixgap.fixtures import example_chain, get_fixture
from mixgap.oracle import gamma_ddagger, spectral_gaps
from mixgap.tallies import SkippedTallies, smoothed_estimates, tally

ZIGZAG = Trajectory(np.array([0, 1, 0, 1, 1]), n=2)
PERIODIC = Trajectory(np.array([0, 1, 0, 1, 0]), n=2)


def make_tallies(counts, k, m):
    counts = np.asarray(counts, dtype=np.int64)
    return SkippedTallies(
        k=k,
        n=counts.shape[0],
        m=m,
        counts=counts,
    )


class TestPiStarHat:
    def test_zigzag(self):
        assert pi_star_hat(ZIGZAG) == pytest.approx(0.5)

    def test_constant_trajectory_unvisited(self):
        tr = Trajectory(np.zeros(10, dtype=int), n=2)
        assert pi_star_hat(tr) == 0.0

    def test_converges_to_pi_min(self):
        P = example_chain()
        medians = []
        for m in (2_000, 100_000):
            errs = sorted(
                abs(pi_star_hat(simulate(P, m, seed=11 + s)) - 0.25) / 0.25
                for s in range(5)
            )
            medians.append(errs[2])
        assert medians[1] < medians[0]
        assert medians[1] < 0.05


class TestPrefixEstimator:
    def test_zigzag_K1_closed_form(self):
        # L_hat^T L_hat = [[0.25, 0.25], [0.25, 1.25]] has eigenvalues
        # (1.5 +/- sqrt(1.25)) / 2 by the trace/determinant formula
        report = gamma_ps_prefix_hat(ZIGZAG, K=1)
        expected = 1.0 - (1.5 - math.sqrt(1.25)) / 2.0
        assert report.value == pytest.approx(expected, abs=1e-12)
        assert report.per_k_values[1] == pytest.approx(expected, abs=1e-12)

    def test_periodic_data_gives_zero(self):
        report = gamma_ps_prefix_hat(PERIODIC, K=1)
        assert report.value == pytest.approx(0.0, abs=1e-12)

    def test_unvisited_skips_are_flagged(self):
        report = gamma_ps_prefix_hat(ZIGZAG, K=2)
        assert report.diagnostics["skipped_k"] == [2]
        assert 2 not in report.per_k_values

    def test_no_usable_k(self):
        tr = Trajectory(np.zeros(6, dtype=int), n=2)
        with pytest.raises(NoUsableKError):
            gamma_ps_prefix_hat(tr, K=3)

    def test_prefix_monotone_in_K(self):
        tr = simulate(example_chain(), 30_000, seed=2)
        values = [gamma_ps_prefix_hat(tr, K).value for K in (1, 2, 4, 8)]
        assert all(b >= a - 1e-15 for a, b in zip(values, values[1:]))

    def test_range_invariant(self):
        for seed in range(5):
            tr = simulate(get_fixture("rand5a"), 5_000, seed=seed)
            value = gamma_ps_prefix_hat(tr, K=6).value
            assert 0.0 <= value <= 1.0

    def test_tracks_oracle_on_long_data(self):
        P = example_chain()
        oracle_10 = max(spectral_gaps(P).gamma_dagger_at_k.get(k, 0) / k for k in range(1, 6))
        tr = simulate(P, 100_000, seed=8)
        assert abs(gamma_ps_prefix_hat(tr, 5).value - oracle_10) < 0.05


class TestAdditiveSchedule:
    def test_K_arithmetic(self):
        assert math.ceil(2 / 0.5) == 4
        assert math.ceil(2 / 0.01) == 200
        tr = simulate(example_chain(), 2_000, seed=1)
        assert gamma_ps_additive(tr, 0.5).K_used == 4

    def test_epsilon_validation(self):
        with pytest.raises(ValueError):
            gamma_ps_additive(ZIGZAG, 1.5)

    def test_error_decays_with_m(self):
        P = example_chain()
        gps = spectral_gaps(P).gamma_ps
        medians = []
        for m in (4_000, 64_000):
            errs = sorted(
                abs(gamma_ps_additive(simulate(P, m, seed=100 + s), 0.5).value - gps)
                for s in range(5)
            )
            medians.append(errs[2])
        assert medians[1] < medians[0]


class TestAmplifiedEstimator:
    def test_fast_chain_triggers_at_p0(self):
        tr = simulate(StochasticMatrix([[0.5, 0.5], [0.5, 0.5]]), 10_000, seed=4)
        report = gamma_ps_amplified(tr)
        assert report.K_star == 1
        assert report.value == pytest.approx(1.0, abs=0.05)

    def test_slow_chain_amplifies(self):
        # sticky symmetric chain: gamma_ps = 0.2775, below the 3/8 threshold,
        # so the scan must move to a skipped power before triggering
        P = StochasticMatrix(
            [[0.9, 0.05, 0.05], [0.05, 0.9, 0.05], [0.05, 0.05, 0.9]]
        )
        gps = spectral_gaps(P).gamma_ps
        assert gps < 3 / 8
        tr = simulate(P, 400_000, seed=5)
        report = gamma_ps_amplified(tr)
        assert report.K_star and report.K_star > 1
        assert abs(report.value - gps) <= 5 * gps

    def test_tiny_degenerate_trajectory_no_trigger(self):
        # periodic data: zero estimate at p = 0, unusable at p = 1, exhausted after
        with pytest.raises(NoTriggerError):
            gamma_ps_amplified(PERIODIC)

    def test_trigger_scan_is_deterministic(self):
        tr = simulate(get_fixture("fast3"), 50_000, seed=6)
        a = gamma_ps_amplified(tr)
        b = gamma_ps_amplified(tr)
        assert a.K_star == b.K_star and a.value == b.value


class TestAdaptivePrefix:
    def test_K_hat_arithmetic(self):
        tr = simulate(example_chain(), 500, seed=3)
        n_min = tally(tr, 1).n_min
        report = gamma_ps_adaptive_multiplicative(tr, 0.1)
        assert report.K_used == math.ceil((n_min / 0.1) ** (1 / 3))

    def test_clamp_arithmetic(self):
        assert adaptive_K_multiplicative(100, 0.1) == 10
        assert adaptive_K_multiplicative(0, 1.0) == 1  # clamped

    def test_unvisited_state_propagates_no_usable_k(self):
        tr = Trajectory(np.array([0, 1, 0, 1, 1]), n=3)  # state 2 never seen
        with pytest.raises(NoUsableKError):
            gamma_ps_adaptive_multiplicative(tr, 1.0)

    def test_epsilon_range(self):
        with pytest.raises(ValueError):
            gamma_ps_adaptive_multiplicative(ZIGZAG, 5.0)


class TestDpsEstimator:
    def test_adaptive_K_formula(self):
        # ceil(100^1.5 / (1000 ln(1000)^1.5)) = ceil(1000 / 18157.9...) -> 1
        assert adaptive_K_dps(100, 1000) == 1
        assert adaptive_K_dps(0, 1000) == 1  # clamped

    def test_zigzag_gap_from_explicit_dilation(self):
        t = tally(ZIGZAG, 1)
        est = smoothed_estimates(t, alpha=0.1)
        S = np.zeros((4, 4))
        S[:2, 2:] = est.L_hat
        S[2:, :2] = est.L_hat.T
        lam2 = np.sort(np.linalg.eigvalsh(S + np.eye(4)))[-2]
        gap = gamma_dps_hat(ZIGZAG, alpha=0.1, K=1).per_k_values[1]
        assert gap == pytest.approx(2 - lam2, abs=1e-10)

    def test_plug_in_fixed_point_matches_oracle(self):
        # counts proportional to pi(x) P^k(x, x') reproduce the oracle gaps
        P = example_chain()
        k1 = make_tallies([[0, 2, 0], [0, 0, 2], [2, 0, 2]], k=1, m=9)
        k2 = make_tallies([[0, 0, 4], [2, 0, 2], [2, 4, 2]], k=2, m=33)
        value, per_k = gamma_dps_from_tallies({1: k1, 2: k2}, alpha=1e-12)
        assert per_k[1] == pytest.approx(gamma_ddagger(P, 1), abs=1e-8)
        assert per_k[2] == pytest.approx(gamma_ddagger(P, 2), abs=1e-8)
        truncated_oracle = max(gamma_ddagger(P, k) / k for k in (1, 2))
        assert value == pytest.approx(truncated_oracle, abs=1e-8)

    def test_reversible_chain_estimates_gamma_star(self):
        from conftest import random_reversible

        P = random_reversible(9, n=4)
        gstar = spectral_gaps(P).gamma_star
        tr = simulate(P, 100_000, seed=12)
        assert abs(gamma_dps_hat(tr).value - gstar) < 0.05

    def test_empirical_sandwich_echo(self):
        P = get_fixture("fast3")
        dps_vals, ps_vals = [], []
        for seed in range(5):
            tr = simulate(P, 100_000, seed=200 + seed)
            dps_vals.append(gamma_dps_hat(tr, K=3).value)
            ps_vals.append(gamma_ps_prefix_hat(tr, K=3).value)
        dps_med = sorted(dps_vals)[2]
        ps_med = sorted(ps_vals)[2]
        assert dps_med <= ps_med + 0.05
        assert ps_med <= 2 * dps_med + 0.05

    def test_one_state_trajectory_gap_is_one(self):
        # sigma_2 of a 1 x 1 matrix is 0, so the per-skip dilation gap is 1, not 2
        report = gamma_dps_hat(Trajectory(np.zeros(50, dtype=np.int64), n=1))
        assert report.per_k_values == {1: 1.0}
        assert report.value == 1.0

    def test_diagnostics_record_adaptive_K(self):
        tr = simulate(example_chain(), 5_000, seed=0)
        report = gamma_dps_hat(tr)
        assert report.diagnostics["K_adaptive"] is True
        assert report.K_used >= 1


class TestAmplifiedScanLevels:
    def test_each_level_is_the_prefix_estimator_on_the_skipped_trajectory(self):
        # the scan tallies skips k j of the trajectory itself; each level must
        # equal the prefix-16 estimator run on an explicit k-skipped copy
        lazy_cycle = StochasticMatrix([[0.98, 0.02, 0], [0, 0.98, 0.02], [0.02, 0, 0.98]])
        for P, m, seed in ((example_chain(), 3_000, 3), (lazy_cycle, 5_000, 0)):
            tr = simulate(P, m, seed=seed)
            report = gamma_ps_amplified(tr)
            assert len(report.diagnostics["scan"]) > 1
            for key, level in report.diagnostics["scan"].items():
                k = int(key)
                skipped = Trajectory(tr.states[::k], tr.n)
                try:
                    inner = gamma_ps_prefix_hat(skipped, 16)
                except NoUsableKError:
                    assert level == 0.0
                    continue
                assert level == inner.value
                if k == report.K_star:
                    assert report.per_k_values == inner.per_k_values


class TestTallyReuse:
    @pytest.fixture
    def tally_calls(self, monkeypatch):
        import mixgap.estimators

        calls = []

        def counting_tally(tr, k=1):
            calls.append(k)
            return tally(tr, k)

        monkeypatch.setattr(mixgap.estimators, "tally", counting_tally)
        return calls

    def test_amplified_tallies_each_skip_once(self, tally_calls):
        # level 1 reads skips 1..16 and level 2 skips 2, 4, ..., 32: 24 distinct
        tr = simulate(example_chain(), 2_000, seed=0)
        report = gamma_ps_amplified(tr)
        assert report.K_star == 2
        assert sorted(tally_calls) == sorted(set(range(1, 17)) | set(range(2, 33, 2)))

    def test_adaptive_prefix_tallies_skip_one_once(self, tally_calls):
        tr = simulate(example_chain(), 2_000, seed=0)
        report = gamma_ps_adaptive_multiplicative(tr, 0.1)
        assert tally_calls == list(range(1, report.K_used + 1))
