import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import mixgap.oracle as oracle_module
from mixgap.chain import StochasticMatrix, Trajectory, _simulate_batch, matrix_power, simulate
from mixgap.confidence import (
    DEFAULT_C,
    DEFAULT_DELTA,
    _empirical_gamma_ps_batch,
    _intervals,
    confidence_interval,
    delta_hat,
    empirical_gamma_ps,
    term_T,
    term_U,
    term_V,
    term_W,
)
from mixgap.errors import MixgapError, NoConvergenceError
from mixgap.fixtures import example_chain, get_fixture
from mixgap.estimators import DEFAULT_ALPHA, gamma_dps_hat
from mixgap.oracle import spectral_gaps
from mixgap.tallies import SkippedTallies, smoothed_estimates, tally

from conftest import DEFECT_ROWS, lazy_cycle, simulated_chains

ZIGZAG = Trajectory(np.array([0, 1, 0, 1, 1]), n=2)


def make_tallies(counts, k, m):
    counts = np.asarray(counts, dtype=np.int64)
    return SkippedTallies(
        k=k,
        n=counts.shape[0],
        m=m,
        counts=counts,
    )


class TestTermW:
    def test_empty_counts(self):
        t = make_tallies([[0, 0], [0, 0]], k=1, m=1)
        assert term_W(t, alpha=0.1, delta=0.1) == pytest.approx(2.0, abs=1e-14)

    def test_zigzag_direct_formula(self):
        t = tally(ZIGZAG, 1)
        root = math.sqrt(math.log(2 * 4 * 2 / 0.1))
        row0 = (math.sqrt(2) + 3 * math.sqrt(2 / 2) * root + 0.2) / 2.2
        row1 = (2.0 + 3 * math.sqrt(2 / 2) * root + 0.2) / 2.2
        assert term_W(t, alpha=0.1, delta=0.1) == pytest.approx(2 * max(row0, row1), abs=1e-14)

    def test_shrinks_when_counts_scale_up(self):
        small = make_tallies([[0, 2], [1, 1]], k=1, m=5)
        big = make_tallies([[0, 20], [10, 10]], k=1, m=41)
        assert term_W(big, 0.1, 0.1) < term_W(small, 0.1, 0.1)

    def test_monotone_in_delta(self):
        t = tally(ZIGZAG, 1)
        assert term_W(t, 0.1, 0.01) > term_W(t, 0.1, 0.2)

    @pytest.mark.parametrize("name", ["ex31", "fast3", "rand5a", "rand5b"])
    def test_bounds_the_realized_transition_error(self, name):
        # W bounds max_x ||P_hat(x, .) - P^k(x, .)||_1 w.p. 1 - delta. On these
        # draws the smallest W / error was 4.9 (rand5a): W / 2 still passes, while
        # W / 10 leaves 13-42% of draws below 1 on fast3, rand5a and rand5b, but
        # only 4.3% on ex31
        P = get_fixture(name)
        covered = []
        for seed in range(200):
            tr = simulate(P, 10_000, seed=seed)
            for k in (1, 2):
                t = tally(tr, k)
                error = np.abs(smoothed_estimates(t, DEFAULT_ALPHA).P_hat - matrix_power(P, k).rows).sum(axis=1).max()
                covered.append(term_W(t, DEFAULT_ALPHA, DEFAULT_DELTA) >= error)
        assert np.mean(covered) >= 1.0 - DEFAULT_DELTA


class TestTermV:
    def test_balanced_counts(self):
        t = tally(ZIGZAG, 1)  # visits (2, 2)
        W = 1.3
        assert term_V(t, 0.1, W) == pytest.approx(math.sqrt(2) * W, abs=1e-14)

    def test_empty_counts_ratio_one(self):
        t = make_tallies([[0, 0], [0, 0]], k=1, m=1)
        assert term_V(t, 0.5, 2.0) == pytest.approx(math.sqrt(2) * 2.0, abs=1e-14)

    def test_unbalanced_counts(self):
        t = make_tallies([[0, 3], [1, 0]], k=1, m=5)  # visits (3, 1)
        W = 0.7
        expected = math.sqrt(2) * (3 + 0.2) / (1 + 0.2) * W
        assert term_V(t, 0.1, W) == pytest.approx(expected, abs=1e-14)


class TestTermT:
    def test_zigzag_skip_two_formula(self):
        t = tally(ZIGZAG, 2)  # pairs = 2, visits (2, 0)
        W = 0.9
        expected = 48.0 * math.log(2 * math.sqrt(2 * 2.4 / 0.2)) * W
        assert term_T(t, 0.1, W, gamma_ps_of_Phat=1.0) == pytest.approx(expected, abs=1e-12)

    def test_zero_W_gives_zero(self):
        t = tally(ZIGZAG, 1)
        assert term_T(t, 0.1, 0.0, 0.5) == 0.0

    def test_monotone_in_gap(self):
        t = tally(ZIGZAG, 1)
        assert term_T(t, 0.1, 1.0, 1.0) < term_T(t, 0.1, 1.0, 0.25)

    def test_degenerate_gap_is_infinite(self):
        t = tally(ZIGZAG, 1)
        assert term_T(t, 0.1, 1.0, gamma_ps_of_Phat=0.0) == math.inf


class TestTermU:
    def test_zero_T(self):
        assert term_U(tally(ZIGZAG, 1), 0.1, 0.0) == 0.0

    def test_frequency_half_example(self):
        # visits (2, 2) over 4 pairs: both smoothed frequencies are exactly 1/2
        t = tally(ZIGZAG, 1)
        U = term_U(t, alpha=0.1, T=0.1)
        assert U == pytest.approx(0.5 * max(0.1 / 0.5, 0.1 / 0.4), abs=1e-14)

    def test_vacuous_when_T_reaches_frequency(self):
        t = tally(ZIGZAG, 1)
        assert term_U(t, 0.1, T=0.5) == math.inf
        assert term_U(t, 0.1, T=10.0) == math.inf


class TestIndependentReevaluation:
    def test_terms_match_literal_transcription(self):
        # plain-loop reimplementation of every display, against the module
        rng = np.random.default_rng(77)
        for trial in range(25):
            n = int(rng.integers(2, 6))
            m = int(rng.integers(50, 4000))
            k = int(rng.integers(1, 4))
            tr = Trajectory(rng.integers(0, n, size=m), n=n)
            t = tally(tr, k)
            alpha = float(rng.uniform(0.01, 1.0))
            delta = float(rng.uniform(0.01, 0.5))
            pairs = (m - 1) // k
            counts = t.counts

            best = 0.0
            for x in range(n):
                num = 0.0
                for y in range(n):
                    num += math.sqrt(counts[x][y])
                num += 3.0 * math.sqrt(t.visits[x] / 2.0) * math.sqrt(
                    math.log(2.0 * pairs * n / delta)
                )
                num += alpha * n
                best = max(best, num / (t.visits[x] + alpha * n))
            W_expected = 2.0 * best
            W = term_W(t, alpha, delta)
            assert W == pytest.approx(W_expected, abs=1e-12)

            V_expected = (
                math.sqrt(n)
                * (max(t.visits) + alpha * n)
                / (min(t.visits) + alpha * n)
                * W
            )
            assert term_V(t, alpha, W) == pytest.approx(V_expected, abs=1e-12)

            gap = float(rng.uniform(0.05, 1.0))
            T_expected = (
                48.0
                / gap
                * math.log(2.0 * math.sqrt(2.0 * (pairs + alpha * n * n) / (min(t.visits) + alpha * n)))
                * W
            )
            T = term_T(t, alpha, W, gap)
            assert T == pytest.approx(T_expected, abs=1e-12 * max(1.0, T_expected))

            Tsmall = float(rng.uniform(0.0, 0.2))
            options = []
            for x in range(n):
                freq = (t.visits[x] + alpha * n) / (pairs + alpha * n * n)
                options.append(Tsmall / freq)
                if freq - Tsmall > 0:
                    options.append(Tsmall / (freq - Tsmall))
                else:
                    options.append(math.inf)
            assert term_U(t, alpha, Tsmall) == pytest.approx(
                0.5 * max(options), abs=1e-12
            )


class TestDeltaHat:
    def test_formula(self):
        m, K, n, d = 1000, 2, 3, 0.05
        expected = math.sqrt(math.log(m) ** 3 / m) * d / (K * n)
        assert delta_hat(m, K, n, d) == pytest.approx(expected, abs=1e-15)


class TestConfidenceInterval:
    def test_interval_contains_point_when_finite(self):
        tr = simulate(get_fixture("fast3"), 20_000, seed=1)
        report = confidence_interval(tr, c=0.01)
        assert not report.vacuous
        lo, hi = report.interval
        assert lo <= report.point <= hi
        assert 0.0 <= lo <= hi <= 1.0

    def test_default_c_is_vacuous_at_desk_scale(self):
        tr = simulate(get_fixture("fast3"), 20_000, seed=1)
        report = confidence_interval(tr)
        assert report.vacuous
        assert report.interval == (0.0, 1.0)

    def test_tiny_m_goes_vacuous_or_wide(self):
        tr = Trajectory(np.array([0, 1, 0, 1, 1]), n=2)
        report = confidence_interval(tr)
        assert report.vacuous or report.half_width >= 1.0

    def test_width_monotone_in_delta(self):
        tr = simulate(get_fixture("fast3"), 20_000, seed=2)
        wide = confidence_interval(tr, delta=0.01, c=0.01)
        narrow = confidence_interval(tr, delta=0.2, c=0.01)
        assert wide.half_width >= narrow.half_width

    def test_half_width_shrinks_with_m(self):
        # at the worst-case constant c = 48 the U term is infinite for any
        # desk-scale m, so the decay is only visible under a c override
        P = example_chain()
        medians = []
        for m in (100_000, 400_000):
            widths = sorted(
                confidence_interval(simulate(P, m, seed=300 + s), c=0.2).half_width
                for s in range(5)
            )
            medians.append(widths[2])
        assert medians[1] < medians[0]

    def test_per_k_terms_and_K_hat_reported(self):
        tr = simulate(example_chain(), 50_000, seed=4)
        report = confidence_interval(tr)
        assert report.K_hat >= 1
        assert set(report.per_k_terms) == set(range(1, min(report.K_hat, tr.m - 1) + 1))
        for terms in report.per_k_terms.values():
            assert terms["W"] >= 0 and terms["V"] >= 0

    def test_one_state_trajectory_gives_valid_report(self):
        report = confidence_interval(Trajectory(np.zeros(50, dtype=np.int64), n=1))
        assert report.point == 1.0
        assert report.vacuous and report.interval == (0.0, 1.0)

    @pytest.mark.parametrize("m", [3, 7, 20, 30, 60, 93, 100])
    @pytest.mark.parametrize("delta", [0.5, 0.9, 0.99])
    def test_one_state_trajectory_takes_every_delta(self, m, delta):
        # delta_hat exceeds 1 when sqrt(log^3 m / m) > 1 / delta
        for c in (0.0, DEFAULT_C):
            report = confidence_interval(Trajectory(np.zeros(m, dtype=np.int64), n=1), delta=delta, c=c)
            assert report.K_hat == 1 and report.interval == (0.0, 1.0)

    def test_degenerate_empirical_gap_makes_interval_vacuous(self, monkeypatch):
        tr = simulate(get_fixture("fast3"), 20_000, seed=1)
        monkeypatch.setattr(
            "mixgap.confidence._empirical_gamma_ps_batch", lambda ts, alpha: [0.0] * len(ts)
        )
        report = confidence_interval(tr, c=0.01)
        assert report.vacuous and report.interval == (0.0, 1.0)
        for terms in report.per_k_terms.values():
            assert terms["T"] == terms["U"] == math.inf
        assert report.diagnostics["degenerate_empirical_gap_k"] == max(report.per_k_terms)

    def test_unresolvable_stationary_vector_makes_interval_vacuous(self):
        # at alpha = 1e-9 the 58 unvisited states of P_hat get pi near 3e-8,
        # too small for the stationary solve to resolve entry by entry
        tr = Trajectory(np.array([30, 29, 30]), 60)
        P_hat = StochasticMatrix(smoothed_estimates(tally(tr, 1), 1e-9).P_hat)
        with pytest.raises(NoConvergenceError):
            spectral_gaps(P_hat)  # the oracle still refuses it as a user's P
        assert empirical_gamma_ps(tally(tr, 1), 1e-9) == 0.0
        report = confidence_interval(tr, alpha=1e-9)
        assert report.vacuous and report.interval == (0.0, 1.0)
        assert report.K_hat == 1 and report.per_k_terms[1]["T"] == math.inf
        assert report.diagnostics["degenerate_empirical_gap_k"] == 1

    def test_unresolvable_cell_of_a_batch_leaves_the_others_alone(self):
        bad = tally(Trajectory(np.array([30, 29, 30]), 60), 1)
        tr = simulate(lazy_cycle(60), 5000, seed=0)
        good = [tally(tr, 1), tally(tr, 2)]
        alone = [empirical_gamma_ps(t, 1e-9) for t in good]
        assert all(gps > 0 for gps in alone)
        assert _empirical_gamma_ps_batch([good[0], bad, good[1]], 1e-9) == [alone[0], 0.0, alone[1]]

    def test_vacuous_exactly_when_some_U_is_infinite(self):
        outcomes = set()
        for name in ("ex31", "fast3", "rand5a", "rand5b"):
            for m in (300, 20_000):
                tr = simulate(get_fixture(name), m, seed=2)
                for c in (0.0, 0.01, 1.0, 48.0):
                    report = confidence_interval(tr, c=c)
                    some_U_infinite = any(math.isinf(t["U"]) for t in report.per_k_terms.values())
                    assert report.vacuous == some_U_infinite
                    outcomes.add(report.vacuous)
        assert outcomes == {True, False}

    @pytest.mark.parametrize("skip", [1, 2])
    def test_one_infinite_U_makes_interval_vacuous(self, skip, monkeypatch):
        tr = simulate(example_chain(), 100_000, seed=2)  # K_hat = 2, finite U at c = 0.01
        exact = _empirical_gamma_ps_batch
        monkeypatch.setattr(
            "mixgap.confidence._empirical_gamma_ps_batch",
            lambda ts, alpha: [0.0 if t.k == skip else gps for t, gps in zip(ts, exact(ts, alpha))],
        )
        report = confidence_interval(tr, c=0.01)
        assert [math.isinf(t["U"]) for t in report.per_k_terms.values()] == [k == skip for k in (1, 2)]
        assert report.vacuous and report.interval == (0.0, 1.0)

    def test_interval_after_the_estimate_solves_each_smoothed_skip_once(self, monkeypatch):
        tr = simulate(example_chain(), 100_000, seed=1)  # K_hat = 2
        solved = []
        svds = oracle_module.second_singular_values
        monkeypatch.setattr(
            oracle_module,
            "second_singular_values",
            lambda A: solved.extend(np.reshape(A, (-1, *np.shape(A)[-2:])).copy()) or svds(A),
        )
        gamma_dps_hat(tr)
        report = confidence_interval(tr)
        assert report.K_hat == 2
        for k in (1, 2):
            L_hat = smoothed_estimates(tally(tr, k), DEFAULT_ALPHA).L_hat
            assert sum(np.array_equal(A, L_hat) for A in solved) == 1

    def test_empirical_gamma_ps_strictly_positive(self):
        t = tally(ZIGZAG, 1)
        assert empirical_gamma_ps(t, alpha=0.1) > 0


def outcome(call):
    """The report of a call as sorted JSON, or the name and message of its typed error."""
    try:
        return json.dumps(call().to_dict(), sort_keys=True)
    except MixgapError as err:
        return type(err).__name__, str(err)


class TestBatchedIntervals:
    @given(
        P=st.one_of(simulated_chains(), st.just(lazy_cycle(60))),
        m=st.integers(3, 5000),
        seeds=st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=5),
        alpha=st.sampled_from([1e-2, 1e-9]),
        c=st.sampled_from([0.0, 48.0]),
    )
    @settings(max_examples=30, deadline=None)
    # K_hat 2 on seed 0, every interval vacuous
    @example(P=StochasticMatrix([[0.1, 0.9], [0.9, 0.1]]), m=5000, seeds=[0, 1, 2, 3], alpha=1e-2, c=48.0)
    # the uncertifiable gap of a periodic P_hat, which maps to 0
    @example(P=StochasticMatrix([[0.0, 1.0], [1.0, 0.0]]), m=1000, seeds=[0, 1], alpha=1e-9, c=0.0)
    # one oracle stack of three P_hat whose loops buy the floor and stop at skips 9, 14 and 18
    @example(P=lazy_cycle(60), m=5000, seeds=[0, 1, 2], alpha=1e-2, c=48.0)
    # rows inside the row-sum tolerance, as simulated_chains scales half its draws
    @example(P=StochasticMatrix(DEFECT_ROWS), m=3, seeds=[0], alpha=1e-2, c=0.0)
    def test_each_report_is_the_trajectory_alone(self, P, m, seeds, alpha, c):
        batch = _simulate_batch(P, m, seeds, "stationary")
        alone = [
            outcome(lambda: confidence_interval(Trajectory(tr.states.copy(), tr.n), alpha=alpha, c=c))
            for tr in batch
        ]
        try:
            reports = _intervals(batch, alpha, DEFAULT_DELTA, c)
        except MixgapError as err:
            # a batch stops at its first error, which one of its trajectories raises alone
            assert (type(err).__name__, str(err)) in alone
        else:
            assert [json.dumps(r.to_dict(), sort_keys=True) for r in reports] == alone

    def test_examples_reach_the_cases_they_are_for(self, monkeypatch):
        two_state = StochasticMatrix([[0.1, 0.9], [0.9, 0.1]])
        batch = _simulate_batch(two_state, 5000, [0, 1, 2, 3], "stationary")
        reports = _intervals(batch, 1e-2, DEFAULT_DELTA, 48.0)
        assert [r.K_hat for r in reports] == [2, 1, 1, 1] and all(r.vacuous for r in reports)
        flip = _simulate_batch(StochasticMatrix([[0.0, 1.0], [1.0, 0.0]]), 1000, [0, 1], "stationary")
        reports = _intervals(flip, 1e-9, DEFAULT_DELTA, 0.0)
        assert all(r.vacuous and r.diagnostics["degenerate_empirical_gap_k"] == 1 for r in reports)
        stops, floors = [], []
        skip_loop, floor = oracle_module._skip_loop, oracle_module._second_modulus_floor

        def recorded(Ps, k_cap, with_dps):
            results = skip_loop(Ps, k_cap, with_dps)
            stops.append([len(r[0]) for r in results])
            return results

        monkeypatch.setattr("mixgap.confidence._skip_loop", recorded)
        monkeypatch.setattr(oracle_module, "_second_modulus_floor", lambda L, root: floors.append(L) or floor(L, root))
        _intervals(_simulate_batch(lazy_cycle(60), 5000, [0, 1, 2], "stationary"), 1e-2, DEFAULT_DELTA, 48.0)
        assert stops == [[9, 14, 18]] and len(floors) == 3
