import math
import warnings
from unittest import mock

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import mixgap.oracle as oracle_module
from mixgap.chain import (
    STATIONARY_TOL,
    StochasticMatrix,
    Trajectory,
    _stationary_batch,
    build_L,
    is_aperiodic,
    is_reversible,
    simulate,
    stationary_distribution,
)
from mixgap.eigensolve import dense_symmetric_spectrum
from mixgap.errors import (
    MixgapError,
    NoConvergenceError,
    NonconvergentGapError,
    ReducibleChainError,
    _value,
)
from mixgap.fixtures import get_fixture, random_dense_chain, random_reversible_chain
from mixgap.oracle import (
    absolute_spectral_gap,
    gamma_dagger,
    gamma_ddagger,
    pi_norm,
    reversiblization_norm,
    second_singular_values,
    spectral_gaps,
    verify_lemma_properties,
)
from mixgap.tallies import smoothed_estimates, tally

from conftest import (
    NEAR_PERIODIC_ROWS,
    PERIOD2_ROWS,
    RESOLVING_BIRTH_DEATH,
    RESOLVING_BIRTH_DEATH_HOLDS,
    lazy_birth_death,
    lazy_cycle,
    lazy_torus,
    random_ergodic,
    random_reversible,
    rare_cycle_rows,
    rare_state_chain,
    sparse_chain,
)
from reference_routes import (
    generic_dilation,
    mixing_time_sandwich,
    mp_spectral_gaps,
    mp_stationary_and_modulus,
    second_modulus_floor_two_sided,
)

UNIFORM2 = StochasticMatrix([[0.5, 0.5], [0.5, 0.5]])


# the chains checked against the 40-digit reference of tests/reference_routes.py
REFERENCE_CHAINS = st.one_of(
    st.builds(random_dense_chain, st.integers(2, 6), st.integers(0, 2**31 - 1)),
    st.builds(lazy_cycle, st.integers(5, 9), st.floats(0.1, 0.9), st.floats(0.1, 0.9)),
)
# birth-death chains small enough for the 40-digit reference, with pi_star down to 6e-8
REFERENCE_BIRTH_DEATH = [
    lazy_birth_death(n, right, hold) for n, right in RESOLVING_BIRTH_DEATH[:2] for hold in RESOLVING_BIRTH_DEATH_HOLDS
]


def with_examples(chains):
    """Run a hypothesis test over P on each of chains too, as explicit examples."""

    def decorate(test):
        for P in chains:
            test = example(P=P)(test)
        return test

    return decorate


@st.composite
def reversible_chains(draw) -> StochasticMatrix:
    """A random reversible chain of 2-10 states, a lazy cycle with right step
    0.5, or a birth-death chain whose pi resolves: reversible and ergodic."""
    family = draw(st.sampled_from(["random", "cycle", "birth-death"]))
    if family == "random":
        return random_reversible_chain(draw(st.integers(2, 10)), draw(st.integers(0, 2**31 - 1)))
    if family == "cycle":
        return lazy_cycle(draw(st.integers(2, 30)), draw(st.floats(0.05, 0.95)), 0.5)
    n, right = draw(st.sampled_from(RESOLVING_BIRTH_DEATH))
    return lazy_birth_death(n, right, draw(st.sampled_from(RESOLVING_BIRTH_DEATH_HOLDS)))


def chain_of_family(family: str, n: int, rng: np.random.Generator) -> StochasticMatrix:
    """Random irreducible chain: dense, sparse, lazy drifted cycle, non-normal
    near-path (drift to the end, rare resets to 0) or sticky."""
    if family == "cycle":
        return lazy_cycle(n, rng.uniform(0.05, 0.9), rng.uniform(0.5, 1.0))
    if family == "path":
        reset = rng.uniform(1e-3, 0.1)
        W = np.zeros((n, n))
        i = np.arange(n - 1)
        W[i, i + 1] = rng.uniform(0.5, 0.99) * (1.0 - reset)
        W[i, 0] += reset
        W[i, i] += 1.0 - W[i].sum(axis=1)
        W[n - 1, 0] = rng.uniform(0.1, 1.0)
        W[n - 1, n - 1] = 1.0 - W[n - 1, 0]
    elif family == "sparse":
        W = rng.random((n, n)) * (rng.random((n, n)) < rng.uniform(0.1, 0.5))
        perm = rng.permutation(n)
        W[perm, np.roll(perm, 1)] += rng.random(n) + 0.05
    elif family == "sticky":
        W = rng.gamma(2.0, 1.0, (n, n)) * rng.uniform(1e-3, 0.05)
        np.fill_diagonal(W, 1.0)
    else:
        W = rng.gamma(2.0, 1.0, (n, n)) + 1e-3
    return StochasticMatrix(W / W.sum(axis=1, keepdims=True))


def perron_root(P: StochasticMatrix) -> np.ndarray:
    """sqrt(pi), the unit left and right Perron vector of L."""
    return np.sqrt(stationary_distribution(P))


def full_loop(P: StochasticMatrix):
    """(gamma_ps, gamma_dps, k_ps, k_dps, gamma_star) with only the 1/k exit."""
    L = build_L(P)
    Lk = np.eye(P.n)
    best_ps = best_dps = 0.0
    k_ps = k_dps = k = 0
    while (k + 1) * best_dps < 1.0:
        k += 1
        Lk = Lk @ L
        sigma2 = min(second_singular_values(Lk), 1.0)
        if (1.0 - sigma2**2) / k > best_ps:
            best_ps, k_ps = (1.0 - sigma2**2) / k, k
        if (1.0 - sigma2) / k > best_dps:
            best_dps, k_dps = (1.0 - sigma2) / k, k
    gamma_star = absolute_spectral_gap(P) if is_reversible(P) else None
    return best_ps, best_dps, k_ps, k_dps, gamma_star


def fixed_start_stop(rep, lam2_floor: float) -> float:
    """The skip where the loop would stop had it bought `lam2_floor` at k = 8,
    replayed from the report's per-skip gaps; inf past its last recorded skip."""
    best_ps = best_dps = 0.0
    for k in range(1, rep.k_explored + 1):
        best_ps = max(best_ps, rep.gamma_dagger_at_k[k] / k)
        best_dps = max(best_dps, rep.gamma_ddagger_at_k[k] / k)
        floor, j = (lam2_floor if k >= 8 else 0.0), k + 1
        if (1.0 - floor**j) / j <= best_dps and (1.0 - floor ** (2 * j)) / j <= best_ps:
            return k
    return math.inf


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

    def test_non_reversible_reads_the_complex_spectrum(self, ex31):
        # ex31's non-Perron eigenvalues are -1/4 +- i sqrt(7)/4, of modulus 2^(-1/2)
        assert not is_reversible(ex31) and spectral_gaps(ex31).gamma_star is None
        assert absolute_spectral_gap(ex31) == pytest.approx(1 - 2**-0.5, abs=1e-12)

    def test_rare_cycle_reads_the_complex_spectrum(self):
        # detailed balance fails only by flows of about 1e-12 there; read as
        # reversible, sigma_2(L) would give 1 - 2^(-1/2) for a gap of 1/2
        P = StochasticMatrix(rare_cycle_rows())
        assert not is_reversible(P) and spectral_gaps(P).gamma_star is None
        assert absolute_spectral_gap(P) == pytest.approx(0.5, abs=1e-12)

    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 12))
    @settings(max_examples=60, deadline=None)
    def test_oracle_gamma_star_is_the_absolute_gap(self, seed, n):
        # spectral_gaps reads gamma_star off its skip-1 solve, not a second one
        P = random_reversible(seed, n=n)
        assert spectral_gaps(P).gamma_star == absolute_spectral_gap(P)


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
                spectrum = dense_symmetric_spectrum(generic_dilation(Lk))
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
                sigma2 = dense_symmetric_spectrum(generic_dilation(Lk))[1]
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

    @given(P=reversible_chains())
    @settings(max_examples=150, deadline=None)
    def test_reversible_identity(self, P):
        # the reversible case of the rate (Hsu et al. 2019): L is symmetric, so
        # sigma_2(L^k) = |lambda_*|^k, and (1 - |lambda_*|^(2k)) / k and
        # (1 - |lambda_*|^k) / k both peak at k = 1
        rep = spectral_gaps(P)
        assert rep.k_ps == rep.k_dps == 1
        assert rep.gamma_dps == rep.gamma_star
        assert abs(rep.gamma_ps - rep.gamma_star * (2 - rep.gamma_star)) <= 1e-12
        assert abs(absolute_spectral_gap(P) - rep.gamma_star) <= 1e-12

    @given(P=REFERENCE_CHAINS)
    @settings(max_examples=20, deadline=None)
    # the rare-cycle chain, the rare-state pair of three eps and the birth-death chains
    @with_examples(
        [StochasticMatrix(rare_cycle_rows())]
        + [rare_state_chain(eps, q) for eps in (1e-2, 1e-4, 1e-6) for q in (0.4, 0.05)]
        + REFERENCE_BIRTH_DEATH
    )
    def test_matches_40_digit_reference(self, P):
        # the loop's certificate means no skip past k_explored beats its maxima
        rep = spectral_gaps(P)
        ref_ps, ref_dps = mp_spectral_gaps(P, rep.k_explored + 5)
        assert abs(rep.gamma_ps - ref_ps) <= 1e-12
        assert abs(rep.gamma_dps - ref_dps) <= 1e-12

    # up to 20 states, which the 40-digit reference solves in well under a second
    @given(P=reversible_chains().filter(lambda P: P.n <= 20))
    @settings(max_examples=40, deadline=None)
    @with_examples(REFERENCE_BIRTH_DEATH)
    def test_gamma_star_matches_40_digit_reference(self, P):
        # on a reversible chain gamma_star and the absolute gap are 1 - |lambda_2|
        modulus = mp_stationary_and_modulus(P)[1]
        assert abs(spectral_gaps(P).gamma_star - (1.0 - modulus)) <= 1e-12
        assert abs(absolute_spectral_gap(P) - (1.0 - modulus)) <= 1e-12

    @given(P=st.builds(sparse_chain, st.integers(3, 8), st.integers(0, 2**31 - 1), st.integers(0, 8)))
    @settings(max_examples=25, deadline=None)
    def test_sparse_chain_matches_40_digit_reference_or_is_periodic(self, P):
        # a sparse support may leave the chain periodic: then |lambda_2| = 1
        # and the refusal is the only right answer
        ref_pi, ref_modulus = mp_stationary_and_modulus(P)
        try:
            rep = spectral_gaps(P)
        except NonconvergentGapError:
            assert abs(ref_modulus - 1.0) <= 1e-12
            return
        ref_ps, ref_dps = mp_spectral_gaps(P, rep.k_explored + 5)
        assert abs(rep.gamma_ps - ref_ps) <= 1e-12
        assert abs(rep.gamma_dps - ref_dps) <= 1e-12
        pi = stationary_distribution(P)
        assert np.all(np.abs(pi - ref_pi) <= STATIONARY_TOL * ref_pi)
        assert oracle_module._second_modulus_floor(build_L(P), np.sqrt(pi)) <= ref_modulus

    def test_rare_state_pair_has_close_thresholds_and_distant_gaps(self):
        # the rare-state pair at eps = 1e-2: 1/(gamma_ps pi_star) agree within 1.22x
        A, B = rare_state_chain(1e-2, 0.4), rare_state_chain(1e-2, 0.05)
        gaps = [spectral_gaps(P).gamma_ps for P in (A, B)]
        thresholds = [1.0 / (g * stationary_distribution(P).min()) for g, P in zip(gaps, (A, B))]
        assert [round(g, 3) for g in gaps] == [0.652, 0.116]
        assert [round(t) for t in thresholds] == [63, 52]

    @given(P=REFERENCE_CHAINS)
    @settings(max_examples=20, deadline=None)
    def test_pi_and_floor_match_40_digit_reference(self, P):
        ref_pi, ref_modulus = mp_stationary_and_modulus(P)
        pi = stationary_distribution(P)
        assert np.all(np.abs(pi - ref_pi) <= STATIONARY_TOL * ref_pi)
        assert oracle_module._second_modulus_floor(build_L(P), np.sqrt(pi)) <= ref_modulus

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
        # rejected before the loop; on PERIOD2_ROWS the dilation gap at k = 2
        # is rounding noise, so the 1/k exit alone would run towards k ~ 1e16
        flip = StochasticMatrix([[0.0, 1.0], [1.0, 0.0]])
        for P in (flip, StochasticMatrix(PERIOD2_ROWS)):
            with pytest.raises(NonconvergentGapError, match="periodic"):
                spectral_gaps(P, k_cap=40)

    @pytest.mark.parametrize("k_cap", [0, -3, 1.5, True, "8"])
    def test_k_cap_must_be_an_integer_of_at_least_1(self, ex31, k_cap):
        # the chain is not at fault, so no NonconvergentGapError may blame it
        with pytest.raises(ValueError, match="k_cap"):
            spectral_gaps(ex31, k_cap=k_cap)

    def test_loop_is_bounded_by_k_cap(self):
        # neither exit can fire before k ~ 1e9
        with pytest.raises(NonconvergentGapError, match="k = 50"):
            spectral_gaps(StochasticMatrix(NEAR_PERIODIC_ROWS), k_cap=50)

    def test_stop_reasons(self, ex31):
        rep = spectral_gaps(ex31)
        assert (rep.stop_reason, rep.k_explored) == ("weyl", 3)
        # k_ps = k_dps = 1, but the 1/k exit would wait for k ~ 1/gamma_dps = 166
        rep = spectral_gaps(lazy_cycle(40, 0.5, 0.6))
        assert (rep.stop_reason, rep.k_explored, rep.k_ps, rep.k_dps) == ("weyl", 1, 1, 1)
        assert rep.to_dict()["stop_reason"] == "weyl"

    @pytest.fixture
    def floor_calls(self, monkeypatch):
        calls = []
        floor = oracle_module._second_modulus_floor
        monkeypatch.setattr(oracle_module, "_second_modulus_floor", lambda L, root: calls.append(1) or floor(L, root))
        return calls

    def test_no_eigensolve_when_1_over_k_closes_by_the_latest_start(self, floor_calls):
        # gamma_dps = 0.117 lies in [1/9, 1/8): too close to 1/k for the floor
        # to pay at k = 1, and the 1/k bound closes the loop at k = 8
        rep = spectral_gaps(lazy_cycle(8, 0.6, 0.5))
        assert (rep.stop_reason, rep.k_explored) == ("1/k", 8)
        assert floor_calls == []

    @pytest.mark.parametrize("n", [40, 60, 80])
    def test_slow_cycle_buys_the_floor_at_k_1(self, n, floor_calls):
        rep = spectral_gaps(lazy_cycle(n, 0.5, 0.6))
        assert (rep.stop_reason, rep.k_explored) == ("weyl", 1)
        assert floor_calls == [1]

    @given(
        family=st.sampled_from(["dense", "sparse", "cycle", "path", "sticky"]),
        n=st.integers(2, 25),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=200, deadline=None)
    def test_early_stop_matches_full_loop(self, family, n, seed):
        P = chain_of_family(family, n, np.random.default_rng(seed))
        if not is_aperiodic(P):
            return
        floor = oracle_module._second_modulus_floor
        floors = []
        with mock.patch.object(oracle_module, "_second_modulus_floor", lambda L, root: floors.append(floor(L, root)) or floors[-1]):
            rep = spectral_gaps(P)
        assert (rep.gamma_ps, rep.gamma_dps, rep.k_ps, rep.k_dps, rep.gamma_star) == full_loop(P)
        # one eigensolve at most, and no more skips than buying its floor at k = 8 would take
        assert len(floors) <= 1
        assert rep.k_explored <= fixed_start_stop(rep, floors[0] if floors else floor(build_L(P), perron_root(P)))


def gamma_ps_only(P: StochasticMatrix, k_cap: int = oracle_module.DEFAULT_K_CAP) -> float:
    """gamma_ps from the skip loop that certifies it alone; raises its error."""
    return _value(oracle_module._skip_loop([P], k_cap, with_dps=False)[0])[1][0]


class TestGammaPsOnly:
    """The skip loop that certifies gamma_ps alone, against the full report."""

    @given(
        family=st.sampled_from(["dense", "sparse", "cycle", "p_hat"]),
        n=st.integers(2, 25),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_spectral_gaps_bit_for_bit(self, family, n, seed):
        rng = np.random.default_rng(seed)
        if family == "p_hat":
            # the smoothed estimate from a short trajectory of any other family
            source = chain_of_family(str(rng.choice(["dense", "sparse", "cycle"])), n, rng)
            tr = simulate(source, int(rng.integers(5, 300)), seed=seed)
            t = tally(tr, int(rng.integers(1, 4)))
            P = StochasticMatrix(smoothed_estimates(t, float(rng.uniform(1e-3, 1.0))).P_hat)
        else:
            P = chain_of_family(family, n, rng)
        if not is_aperiodic(P):
            with pytest.raises(NonconvergentGapError, match="periodic"):
                gamma_ps_only(P)
            return
        assert gamma_ps_only(P) == spectral_gaps(P).gamma_ps

    def test_periodic_and_capped_chains_raise(self):
        for rows in ([[0.0, 1.0], [1.0, 0.0]], PERIOD2_ROWS):
            with pytest.raises(NonconvergentGapError, match="periodic"):
                gamma_ps_only(StochasticMatrix(rows), k_cap=40)
        with pytest.raises(NonconvergentGapError, match="k = 50"):
            gamma_ps_only(StochasticMatrix(NEAR_PERIODIC_ROWS), k_cap=50)

    def test_stops_once_gamma_ps_is_certified(self, monkeypatch):
        # gamma_ps = 0.27 closes by 1/k at skip 3 (4 * 0.27 >= 1), gamma_dps = 0.14 only at skip 6
        P = lazy_cycle(8, 0.5, 0.6)
        rep = spectral_gaps(P)
        assert (rep.stop_reason, rep.k_explored) == ("1/k", 6)
        solves = []
        sigma2 = oracle_module._sigma2
        monkeypatch.setattr(oracle_module, "_sigma2", lambda Lk: solves.append(1) or sigma2(Lk))
        monkeypatch.setattr(oracle_module, "_second_modulus_floor", None)  # not bought
        assert gamma_ps_only(P) == rep.gamma_ps
        assert len(solves) == 3


def slot_bits(slot):
    """A batch slot as comparable data: the bytes of a pi, a loop's result, or an error's type and message."""
    if isinstance(slot, MixgapError):
        return type(slot), str(slot)
    return slot.tobytes() if isinstance(slot, np.ndarray) else slot


class TestOneSlotPerChain:
    """A batch gives each chain what it gets alone, errors included."""

    @staticmethod
    def mixed_batch() -> list[StochasticMatrix]:
        n = 60
        # at alpha = 1e-9 the 58 unvisited states get pi near 3e-8, which the solve cannot resolve
        unresolved = smoothed_estimates(tally(Trajectory(np.array([30, 29, 30]), n), 1), 1e-9).P_hat
        periodic = np.roll(np.eye(n), 1, axis=1)
        reducible = np.eye(n)
        rows = [lazy_cycle(n, 0.5, 0.6).rows, unresolved, periodic, reducible]
        return [StochasticMatrix(r) for r in rows]

    def test_stationary_batch(self):
        batch = self.mixed_batch()
        slots = _stationary_batch(batch)
        alone = [_stationary_batch([StochasticMatrix(P.rows)])[0] for P in batch]
        assert [slot_bits(s) for s in slots] == [slot_bits(s) for s in alone]
        kinds = [type(s) for s in slots]
        assert kinds == [np.ndarray, NoConvergenceError, np.ndarray, ReducibleChainError]
        # memoized chains keep their pi and stay out of the solve
        assert all(s is P._stationary[0] for s, P in zip(_stationary_batch(batch), batch) if P._stationary)
        # a caller of one chain raises its slot
        with pytest.raises(NoConvergenceError):
            stationary_distribution(batch[1])
        with pytest.raises(ReducibleChainError):
            stationary_distribution(batch[3])

    def test_skip_loop(self):
        batch = self.mixed_batch()
        slots = oracle_module._skip_loop(batch, oracle_module.DEFAULT_K_CAP, with_dps=False)
        alone = [
            oracle_module._skip_loop([StochasticMatrix(P.rows)], oracle_module.DEFAULT_K_CAP, with_dps=False)[0]
            for P in batch
        ]
        assert [slot_bits(s) for s in slots] == [slot_bits(s) for s in alone]
        kinds = [type(s) for s in slots]
        assert kinds == [tuple, NoConvergenceError, NonconvergentGapError, ReducibleChainError]


class TestSecondModulusFloor:
    """The values-only floor against the two-sided eig it replaced, and its
    subspace route above _SUBSPACE_MIN_N states against both."""

    @staticmethod
    def assert_floor_matches(P: StochasticMatrix) -> None:
        L = build_L(P)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            floor = oracle_module._second_modulus_floor(L, perron_root(P))
        assert abs(floor - second_modulus_floor_two_sided(L)) <= 8 * np.finfo(float).eps

    @staticmethod
    def assert_reports_match(P: StochasticMatrix) -> None:
        fields = ("gamma_ps", "gamma_dps", "k_ps", "k_dps", "k_explored", "stop_reason")
        rep = spectral_gaps(P)
        with mock.patch.object(oracle_module, "_second_modulus_floor", second_modulus_floor_two_sided):
            ref = spectral_gaps(P)
        assert [getattr(rep, f) for f in fields] == [getattr(ref, f) for f in fields]

    @given(
        family=st.sampled_from(["dense", "sparse", "cycle", "path", "sticky"]),
        n=st.integers(2, 25),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_two_sided_reference(self, family, n, seed):
        P = chain_of_family(family, n, np.random.default_rng(seed))
        self.assert_floor_matches(P)
        if is_aperiodic(P):
            self.assert_reports_match(P)

    @pytest.mark.parametrize(
        "P",
        [StochasticMatrix([[1 - a, a], [b, 1 - b]]) for a, b in [(0.3, 0.4), (0.9, 0.8), (0.05, 0.6), (0.25, 0.5)]]
        + [chain_of_family("path", 4, np.random.default_rng(1604))],
    )
    def test_exact_eigenvalues_need_the_pivot_guard(self, P):
        # lambda_2 = 1 - a - b of a 2-state chain is often computed exactly, so
        # L - lambda_2 I factors with a zero pivot; so does this near-path chain's top shift
        self.assert_floor_matches(P)

    @pytest.mark.parametrize("n", [40, 60, 80])
    def test_slow_cycles_report_the_same(self, n):
        self.assert_reports_match(lazy_cycle(n, 0.5, 0.6))

    def test_slow_cycle_factors_one_shift(self, monkeypatch):
        # the top pair's conjugate shares its s, and the next modulus lies below the floor
        factored = []
        lapack = scipy.linalg.get_lapack_funcs

        def counting(names, arrays):
            getrf, getrs = lapack(names, arrays)
            return (lambda A, **kw: factored.append(A.shape) or getrf(A, **kw)), getrs

        # the floor imports the name from scipy.linalg on each call
        monkeypatch.setattr(scipy.linalg, "get_lapack_funcs", counting)
        P = lazy_cycle(80, 0.5, 0.6)
        oracle_module._second_modulus_floor(build_L(P), perron_root(P))
        assert factored == [(80, 80)]

    @staticmethod
    def subspace_chain(family: str, n: int, rng: np.random.Generator) -> StochasticMatrix:
        """A chain of about n > _SUBSPACE_MIN_N states: a torus, a smoothed
        P_hat of a trajectory of another family, or a `chain_of_family` chain."""
        if family == "torus":
            moves = rng.uniform(0.05, 0.5, 4)
            return lazy_torus(max(math.isqrt(n), 7), float(rng.uniform(0.2, 0.8)), tuple(moves))
        if family == "p_hat":
            source = chain_of_family(str(rng.choice(["dense", "sparse", "cycle"])), n, rng)
            tr = simulate(source, int(rng.integers(2_000, 20_000)), seed=int(rng.integers(2**31)))
            return StochasticMatrix(smoothed_estimates(tally(tr, 1), float(rng.uniform(1e-3, 0.5))).P_hat)
        return chain_of_family(family, n, rng)

    @given(
        family=st.sampled_from(["cycle", "torus", "dense", "sparse", "path", "sticky", "p_hat"]),
        n=st.integers(oracle_module._SUBSPACE_MIN_N + 1, 120),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_subspace_route_matches_two_sided_reference(self, family, n, seed):
        P = self.subspace_chain(family, n, np.random.default_rng(seed))
        if isinstance(_stationary_batch([P])[0], MixgapError) or not is_aperiodic(P):
            return
        L = build_L(P)
        floor = oracle_module._second_modulus_floor(L, perron_root(P))
        # the reference's QR eigenvalues carry rounding of up to about n eps
        # (a quarter of the floor's discount), which the refined ones do not;
        # see test_subspace_floor_is_the_exact_discounted_modulus
        assert floor <= second_modulus_floor_two_sided(L) + P.n * np.finfo(float).eps
        self.assert_reports_match(P)

    @staticmethod
    def cycle_top_modulus(P: StochasticMatrix) -> np.longdouble:
        """|lambda_2| of a lazy cycle in extended precision. A lazy cycle is
        circulant and normal (s = 1 for every eigenvalue), with eigenvalues
        P00 + P01 w^k + P0,n-1 w^-k, w = exp(2 pi i / n)."""
        n = P.n
        d, a, b = (np.longdouble(P.rows[0, j]) for j in (0, 1, n - 1))
        t = 2 * np.longdouble("3.14159265358979323846264338327950288") * np.arange(1, n, dtype=np.longdouble) / n
        return np.sqrt(np.max((d + (a + b) * np.cos(t)) ** 2 + ((a - b) * np.sin(t)) ** 2))

    @pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps, reason="needs extended precision")
    @pytest.mark.parametrize("n, lazy, right", [(41, 0.5, 0.6), (60, 0.49, 0.61), (80, 0.5, 0.6), (120, 0.3, 0.9)])
    def test_subspace_floor_is_the_exact_discounted_modulus(self, n, lazy, right):
        P = lazy_cycle(n, lazy, right)
        exact = self.cycle_top_modulus(P) - oracle_module._EIG_MARGIN * n * np.finfo(float).eps
        floor = oracle_module._second_modulus_floor(build_L(P), perron_root(P))
        assert abs(floor - exact) <= 2 * np.finfo(float).eps

    @pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps, reason="needs extended precision")
    @pytest.mark.parametrize("n", range(8, oracle_module._SUBSPACE_MIN_N + 1))
    @pytest.mark.parametrize("lazy, right", [(0.3, 0.5), (0.6, 0.5), (0.5, 0.6)])
    def test_whole_spectrum_floor_of_uniform_pi_cycles(self, n, lazy, right):
        # pi is uniform, so ones(n) is all Perron vector: inverse iteration from
        # it leaves x and y to rounding noise, and on the double eigenvalues of
        # a symmetric cycle they ended far apart (s down to 0.07). The floor
        # must be sound, and its discount at most 4 tol, that is s >= 1/4
        P = lazy_cycle(n, lazy, right)
        top = self.cycle_top_modulus(P)
        tol = oracle_module._EIG_MARGIN * n * np.finfo(float).eps
        floor = oracle_module._second_modulus_floor(build_L(P), perron_root(P))
        assert top - 4 * tol <= floor <= top

    @pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps, reason="needs extended precision")
    @pytest.mark.parametrize("side", range(7, 19))
    def test_degenerate_torus_floor_is_the_exact_discounted_modulus(self, side):
        # a symmetric lazy torus is normal, with eigenvalues
        # lazy + (1 - lazy) (cos(2 pi j / side) + cos(2 pi k / side)) / 2; the
        # largest non-Perron one, at (j, k) = (+-1, 0) and (0, +-1), is 4-fold
        P = lazy_torus(side, 0.5, (0.25, 0.25, 0.25, 0.25))
        d, a = np.longdouble(P.rows[0, 0]), np.longdouble(P.rows[0, 1])
        c = np.cos(2 * np.longdouble("3.14159265358979323846264338327950288") / side)
        exact = d + 2 * a * (c + 1) - oracle_module._EIG_MARGIN * P.n * np.finfo(float).eps
        floor = oracle_module._second_modulus_floor(build_L(P), perron_root(P))
        assert abs(floor - exact) <= 2 * np.finfo(float).eps

    @staticmethod
    def nilpotent_chain() -> StochasticMatrix:
        """P = 1/n + u w^T / n on n = 44 states, u = 22 ones then 22 minus ones
        and w = (1, -1, 1, ...). P is doubly stochastic and w . u = 0, so
        (u w^T)^2 = 0: every eigenvalue but the Perron one is 0, in Jordan
        blocks of size 2."""
        n = 44
        u = np.repeat([1.0, -1.0], n // 2)
        w = np.tile([1.0, -1.0], n // 2)
        return StochasticMatrix(1.0 / n + np.outer(u, w) / n)

    def test_nilpotent_chain_report_reads_no_floor(self):
        # sigma_2(L) = 1 and L^2 = J / n, so gamma_ps = 1/2 at k = 2, and 1/j closes the loop at j = 3
        P = self.nilpotent_chain()
        assert second_modulus_floor_two_sided(build_L(P)) == 0.0
        rep = spectral_gaps(P)
        assert (rep.stop_reason, rep.gamma_ps) == ("1/k", 0.5)

    @pytest.mark.xfail(strict=True, reason="the subspace route's floor is about 2e-9 on this defective spectrum")
    def test_nilpotent_chain_floor_is_sound(self):
        P = self.nilpotent_chain()
        assert oracle_module._second_modulus_floor(build_L(P), perron_root(P)) <= 0.0

    def test_clustered_spectrum_falls_back_to_the_full_solve(self, monkeypatch):
        # lazy 0.95 packs the top eigenvalues too close in modulus for 2^11
        # powers to separate; a refined Ritz value fails the residual test
        P = lazy_cycle(200, 0.95, 0.6)
        L, root = build_L(P), perron_root(P)
        solved = []
        eigvals = np.linalg.eigvals
        monkeypatch.setattr(np.linalg, "eigvals", lambda A: solved.append(A.shape) or eigvals(A))
        floor = oracle_module._second_modulus_floor(L, root)
        assert solved == [(oracle_module._RITZ_DIM,) * 2, (200, 200)]
        monkeypatch.setattr(oracle_module, "_SUBSPACE_MIN_N", 200)
        assert oracle_module._second_modulus_floor(L, root) == floor

    @pytest.mark.parametrize("pi", ["uniform", "random"])
    @pytest.mark.parametrize("n", [41, 64, 100])
    def test_rank_one_chain_has_no_subspace_floor(self, n, pi):
        # every row is pi, so L = root root^T and the deflated L is zero up to
        # rounding, which vanishes in the float32 squarings: there is no Ritz
        # value, the subspace walk runs out of candidates, and the whole
        # spectrum, the Perron root set to 0 and the rest rounding off 0,
        # gives the floor 0
        weights = np.ones(n) if pi == "uniform" else np.random.default_rng(n).uniform(0.5, 2.0, n)
        P = StochasticMatrix(np.tile(weights / weights.sum(), (n, 1)))
        L, root = build_L(P), perron_root(P)
        ritz = oracle_module._ritz_values(L, root)
        assert ritz.size == 0
        assert oracle_module._walk(L, ritz, root, ritz=True) is None
        w = np.linalg.eigvals(L)
        w[np.argmin(np.abs(w - 1.0))] = 0.0
        assert oracle_module._walk(L, w, root, ritz=False) == 0.0 == second_modulus_floor_two_sided(L)
        assert oracle_module._second_modulus_floor(L, root) == 0.0


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

    @pytest.mark.parametrize("n", [20, 40])
    def test_stacked_powers_equal_their_own_loops(self, n, monkeypatch):
        bought, calls = [], []
        floor, skip_loop = oracle_module._second_modulus_floor, oracle_module._skip_loop
        monkeypatch.setattr(oracle_module, "_second_modulus_floor", lambda L, root: bought.append(1) or floor(L, root))

        def recorded(Ps, k_cap, with_dps, floors=None):
            before = len(bought)
            slots = skip_loop(Ps, k_cap, with_dps, floors)
            calls.append((Ps, floors, slots, len(bought) - before))
            return slots

        monkeypatch.setattr(oracle_module, "_skip_loop", recorded)
        P = lazy_cycle(n, 0.5, 0.6)
        stacked = verify_lemma_properties(P, 10).to_dict()
        # P's own loop and the powers' stacked loop share P's floor, so the
        # ledger buys at most one
        [([base], base_floor, base_slots, _), (powers, shared, slots, _)] = calls
        assert base is P and len(bought) <= 1
        assert len(powers) == 9 and max(len(slot[0]) for slot in slots) > 1
        K = oracle_module.DEFAULT_K_CAP
        # P's loop with the shared floor is spectral_gaps(P)'s, which buys its own
        assert base_slots == skip_loop([P], K, True, base_floor) == skip_loop([P], K, True)
        assert slots == [skip_loop([Q], K, False, lambda _, i=i: shared(i))[0] for i, Q in enumerate(powers)]
        # the ledger reads only each power's gamma_ps, so a power's own loop,
        # buying its own floor, gives the same ledger
        monkeypatch.setattr(
            oracle_module,
            "_skip_loop",
            lambda Ps, k_cap, with_dps, floors=None: [r for Q in Ps for r in skip_loop([Q], k_cap, with_dps)],
        )
        assert verify_lemma_properties(lazy_cycle(n, 0.5, 0.6), 10).to_dict() == stacked


# the rare-state, lazy-cycle and sparse families of the lemma ledger's property
LEDGER_CHAINS = st.one_of(
    st.builds(rare_state_chain, st.floats(1e-4, 1e-2), st.sampled_from([0.05, 0.4])),
    st.builds(lazy_cycle, st.integers(5, 40), st.floats(0.05, 0.95), st.floats(0.05, 0.95)),
    st.builds(sparse_chain, st.integers(3, 8), st.integers(0, 2**31 - 1), st.integers(0, 16)),
)


class TestLedgerAndSandwichOverFamilies:
    # both examples pass a check only by the ledger's _SLACK: lhs - rhs is +1.4e-15
    # (sub_multiplicativity at r = 3, s = 4) and +8.9e-16 (skipped_gap_upper at p = 7)
    @given(LEDGER_CHAINS)
    @example(lazy_cycle(20, 0.9, 0.5))
    @example(sparse_chain(8, 29, 4))
    @settings(max_examples=40, deadline=None)
    def test_ledger_passes_and_t_mix_sits_in_its_sandwich(self, P):
        try:
            ledger = verify_lemma_properties(P, 10)
        except NonconvergentGapError:
            assume(False)  # periodic, or no certificate by the skip cap
        assert ledger.all_passed, ledger.violations
        assert mixing_time_sandwich(P).holds


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

    @pytest.mark.parametrize("P", [lazy_cycle(20, 0.9, 0.5), random_dense_chain(30, 1)], ids=["cycle20", "dense30"])
    def test_reversiblization_norm_has_the_bits_of_the_explicit_projector(self, P):
        # P* is Fortran-ordered, so the broadcast must come out in C order, as P* - Pi
        # does, for the matrix powers to sum in the same order
        pi = stationary_distribution(P)
        Pi = np.ones((P.n, 1)) @ pi[None, :]
        Pstar = (P.rows.T * pi[None, :]) / pi[:, None]
        for k in (1, 3, 7):
            A = np.linalg.matrix_power(Pstar - Pi, k) @ np.linalg.matrix_power(P.rows - Pi, k)
            assert reversiblization_norm(P, k) == pi_norm(A, pi)


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
