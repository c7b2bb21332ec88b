"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings. Every random draw is seeded, so the whole suite is
deterministic.
"""

import time

import numpy as np

from mixgap.chain import (
    StochasticMatrix,
    build_L,
    generic_dilation,
    reversible_dilation,
    simulate,
    stationary_distribution,
)
from mixgap.confidence import confidence_interval
from mixgap.eigensolve import (
    LanczosConfig,
    dense_symmetric_spectrum,
    lanczos_second_eigenvalue,
    second_singular_value,
)
from mixgap.bench import bench_convergence
from mixgap.estimators import gamma_dps_hat, gamma_ps_amplified, pi_star_hat
from mixgap.fixtures import example_chain, get_fixture, random_dense_chain
from mixgap.oracle import (
    absolute_spectral_gap,
    gamma_dagger,
    mixing_time_sandwich,
    spectral_gaps,
    verify_lemma_properties,
)

from conftest import random_ergodic, random_reversible

ESTIMATION_FIXTURES = ("ex31", "rand5a", "rand5b")

STICKY3 = StochasticMatrix(
    [[0.9, 0.05, 0.05], [0.05, 0.9, 0.05], [0.05, 0.05, 0.9]]
)


class Criterion:
    """Times one criterion and prints its pass/fail line on exit."""

    def __init__(self, number: int, description: str, budget_s: float | None = None):
        self.number = number
        self.description = description
        self.budget_s = budget_s

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.t0
        status = "PASS" if exc_type is None else "FAIL"
        print(f"{status}  criterion {self.number:2d} ({elapsed:6.1f}s): {self.description}")
        if exc_type is None and self.budget_s is not None:
            assert elapsed < self.budget_s, f"runtime {elapsed:.1f}s over budget {self.budget_s}s"
        return False


def median(values):
    ordered = sorted(values)
    mid = len(ordered) // 2
    return ordered[mid] if len(ordered) % 2 else 0.5 * (ordered[mid - 1] + ordered[mid])


def test_criterion_1_dilation_identity():
    with Criterion(1, "gamma_dagger = gamma_ddagger(2 - gamma_ddagger) on 100 chains", 30):
        for seed in range(100):
            P = random_ergodic(seed)
            L = build_L(P)
            Lk = np.eye(P.n)
            for k in range(1, 6):
                Lk = Lk @ L
                gd = gamma_dagger(P, k)
                # independent route: dense spectrum of the explicit dilation
                gdd = 1.0 - dense_symmetric_spectrum(generic_dilation(Lk).entries)[1]
                assert abs(gd - gdd * (2.0 - gdd)) <= 1e-10
                assert gdd <= gd + 1e-10
                assert gd <= 2.0 * gdd + 1e-10


def test_criterion_2_reversible_reduction():
    with Criterion(2, "gamma_dps equals gamma_star on 50 reversible chains", 30):
        for seed in range(50):
            P = random_reversible(seed)
            report = spectral_gaps(P)
            assert abs(report.gamma_dps - absolute_spectral_gap(P)) <= 1e-10


def test_criterion_3_sandwiches():
    with Criterion(3, "gap sandwich and mixing-time sandwiches on all fixtures", 60):
        fixtures = [example_chain(), get_fixture("fast3"), get_fixture("rand5a"),
                    get_fixture("rand5b"), STICKY3]
        fixtures += [random_ergodic(seed) for seed in range(20)]
        for P in fixtures:
            report = spectral_gaps(P)
            assert report.gamma_dps <= report.gamma_ps + 1e-9
            assert report.gamma_ps <= 2.0 * report.gamma_dps + 1e-9
            sandwich = mixing_time_sandwich(P, slack=1e-9)
            assert sandwich.holds
            assert isinstance(sandwich.t_mix, int)


def test_criterion_4_skipped_gap_lemmas():
    with Criterion(4, "sub-multiplicativity and skipped-gap bounds on 100 chains", 300):
        for seed in range(100):
            ledger = verify_lemma_properties(random_ergodic(seed), k_max=10, slack=1e-9)
            assert ledger.all_passed, ledger.violations[:3]


def test_criterion_5_dilation_properties():
    with Criterion(5, "four reversible-dilation properties on 100 chains"):
        for seed in range(100):
            P = random_ergodic(seed)
            n = P.n
            S = reversible_dilation(P).entries
            assert np.max(np.abs(S.sum(axis=1) - 1.0)) <= 1e-10
            pi = stationary_distribution(P)
            half = np.concatenate([pi, pi]) / 2.0
            assert np.max(np.abs(half @ S - half)) <= 1e-10
            power = S.copy()
            for p in range(1, 7):
                if p % 2:
                    assert np.max(np.abs(power[:n, :n])) <= 1e-10
                    assert np.max(np.abs(power[n:, n:])) <= 1e-10
                else:
                    assert np.max(np.abs(power[:n, n:])) <= 1e-10
                    assert np.max(np.abs(power[n:, :n])) <= 1e-10
                power = power @ S
            D = np.diag(np.concatenate([pi, pi]) / 2.0)
            assert np.max(np.abs(D @ S - S.T @ D)) <= 1e-10


def test_criterion_6_eigensolver_equivalence():
    with Criterion(6, "SVD kernel vs dense dilation and Lanczos on 200 dilations"):
        for trial in range(200):
            n = 5 + (trial * 7) % 96  # sizes spread over 5..100
            P = random_dense_chain(n, seed=5000 + trial)
            L = build_L(P)
            S = generic_dilation(L).entries
            sigma2 = second_singular_value(L)
            # the dilation's eigenvalues are +/- the singular values of L
            assert abs(sigma2 - dense_symmetric_spectrum(S)[1]) <= 1e-12
            lam_lanczos = lanczos_second_eigenvalue(S + np.eye(2 * n), LanczosConfig(seed=trial))
            assert abs((1.0 + sigma2) - lam_lanczos) <= 1e-8


def test_criterion_7_estimator_consistency():
    with Criterion(7, "dps estimator error <= 0.05 at m=1e5 and shrinking at 4e5", 600):
        for name in ESTIMATION_FIXTURES:
            P = get_fixture(name)
            oracle_value = spectral_gaps(P).gamma_dps
            medians = {}
            for m in (100_000, 400_000):
                errors = [
                    abs(gamma_dps_hat(simulate(P, m, seed=1000 + s)).value - oracle_value)
                    for s in range(20)
                ]
                medians[m] = median(errors)
            assert medians[100_000] <= 0.05, (name, medians)
            assert medians[400_000] < medians[100_000], (name, medians)


def test_criterion_8_pi_star_relative_error():
    with Criterion(8, "pi_star_hat relative error <= 0.1 at m=1e5"):
        for name in ESTIMATION_FIXTURES:
            P = get_fixture(name)
            pi_min = float(np.min(stationary_distribution(P)))
            errors = [
                abs(pi_star_hat(simulate(P, 100_000, seed=2000 + s)) - pi_min) / pi_min
                for s in range(20)
            ]
            assert median(errors) <= 0.1, name


def test_criterion_9_coverage():
    with Criterion(9, "interval covers oracle gamma_dps in >= 90% of 200 runs", 1200):
        P = get_fixture("fast3")
        oracle_value = spectral_gaps(P).gamma_dps
        covered = 0
        for s in range(200):
            tr = simulate(P, 100_000, seed=3000 + s)
            lo, hi = confidence_interval(tr, delta=0.05).interval
            covered += int(lo <= oracle_value <= hi)
        assert covered >= 0.9 * 200, covered


def test_criterion_10_amplified_estimator():
    with Criterion(10, "amplified estimator within 5x on >= 18/20 runs at m=1e6"):
        gps = spectral_gaps(STICKY3).gamma_ps
        assert gps >= 0.2
        hits = 0
        for s in range(20):
            tr = simulate(STICKY3, 1_000_000, seed=4000 + s)
            estimate = gamma_ps_amplified(tr).value
            hits += int(abs(estimate - gps) <= 5.0 * gps)
        assert hits >= 18, hits


def test_criterion_11_auxiliary_inequalities():
    with Criterion(11, "scalar inequality grids have zero violations"):
        xs = np.arange(0.0, 1.0 + 1e-12, 0.01)
        for p in range(1, 21):
            assert np.all(1.0 - (1.0 - xs) ** p >= p * xs * (1.0 - p * xs / 2.0) - 1e-12)
        ts = np.arange(1e-3, 1.0 + 1e-12, 1e-3)
        assert np.all((1.0 - ts) ** np.floor(1.0 / ts) < 0.5)


def test_criterion_12_bench_reproducibility():
    with Criterion(12, "bench runs with identical seeds are byte-identical"):
        P = get_fixture("fast3")
        first = bench_convergence(P, m_grid=[1000, 5000], seeds=5)
        second = bench_convergence(P, m_grid=[1000, 5000], seeds=5)
        assert first.encode() == second.encode()
        lines = first.strip().splitlines()
        assert len(lines) == 1 + 10 + 2
