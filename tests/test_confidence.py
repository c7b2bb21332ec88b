import math

import numpy as np
import pytest

from mixgap.chain import Trajectory, simulate
from mixgap.confidence import (
    confidence_interval,
    delta_hat,
    empirical_gamma_ps,
    term_T,
    term_U,
    term_V,
    term_W,
)
from mixgap.fixtures import example_chain, get_fixture
from mixgap.tallies import SkippedTallies, tally

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

    def test_degenerate_empirical_gap_makes_interval_vacuous(self, monkeypatch):
        tr = simulate(get_fixture("fast3"), 20_000, seed=1)
        monkeypatch.setattr("mixgap.confidence.empirical_gamma_ps", lambda t, alpha: 0.0)
        report = confidence_interval(tr, c=0.01)
        assert report.vacuous and report.interval == (0.0, 1.0)
        for terms in report.per_k_terms.values():
            assert terms["T"] == terms["U"] == math.inf
        assert report.diagnostics["degenerate_empirical_gap_k"] == max(report.per_k_terms)

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
        exact = empirical_gamma_ps
        monkeypatch.setattr(
            "mixgap.confidence.empirical_gamma_ps",
            lambda t, alpha: 0.0 if t.k == skip else exact(t, alpha),
        )
        report = confidence_interval(tr, c=0.01)
        assert [math.isinf(t["U"]) for t in report.per_k_terms.values()] == [k == skip for k in (1, 2)]
        assert report.vacuous and report.interval == (0.0, 1.0)

    def test_empirical_gamma_ps_strictly_positive(self):
        t = tally(ZIGZAG, 1)
        assert empirical_gamma_ps(t, alpha=0.1) > 0
