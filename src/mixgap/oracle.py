"""Exact spectral-gap oracles for a known transition matrix.

Computes the absolute spectral gap, the per-skip gaps of the multiplicative
reversiblization and of the reversible dilation, and the (dilated)
pseudo-spectral gap via a self-terminating loop over skip rates. Also houses
verifier routines for the gap inequalities used as ground truth by the test
suite. The floor on |lambda_2| behind the Weyl stop imports scipy.linalg's
LAPACK LU on first use, so importing the module loads no scipy.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field, replace

import numpy as np

from . import eigensolve
from .chain import (
    StochasticMatrix,
    _report_dict,
    _stack,
    _stationary_batch,
    build_L,
    is_aperiodic,
    is_reversible,
    matrix_power,
    mixing_time,
    stationary_distribution,
    stationary_projector,
)
from .errors import MixgapError, NonconvergentGapError, _value

DEFAULT_K_CAP = 1000
# rounding allowance of every inequality the lemma ledger tests
_SLACK = 1e-9
# cost of the eigenvalue floor behind the Weyl stop, in sigma_2 solves of L^k
# (one OpenBLAS thread): 4.4-5.1 on 40- and 60-state lazy cycles, 10.6-13.2 on
# an 80-state one (LAPACK's values-only QR turns multishift above n = 75) and
# 4.4-5.5 on a dense 324-state chain. 8, the cost of the two-sided eig it
# replaced, is kept so that no loop's k_explored or stop_reason moves
_EIG_COST = 8
# eigenvalue i of the computed L is trusted to within _EIG_MARGIN * n * eps / s_i
_EIG_MARGIN = 4.0


@dataclass(frozen=True)
class SpectralReport:
    """Exact spectral quantities of a known chain."""

    gamma_ps: float
    gamma_dps: float
    k_ps: int
    k_dps: int
    k_explored: int
    stop_reason: str
    gamma_dagger_at_k: dict[int, float]
    gamma_ddagger_at_k: dict[int, float]
    gamma_star: float | None = None
    t_mix: int | None = None

    def to_dict(self) -> dict:
        return _report_dict(self)


def _sigma2(Lk: np.ndarray) -> list[float]:
    """sigma_2(L^k) of each matrix of a stack, clipped to at most 1."""
    return [min(s, 1.0) for s in eigensolve.second_singular_values(Lk).tolist()]


def _sigma2_of_power(P: StochasticMatrix, k: int) -> float:
    if k < 1:
        raise ValueError("k must be >= 1")
    return _sigma2(np.linalg.matrix_power(build_L(P), k)[None])[0]


def gamma_dagger(P: StochasticMatrix, k: int = 1) -> float:
    """Gap of the multiplicative reversiblization of P^k: 1 - sigma_2(L^k)^2."""
    return 1.0 - _sigma2_of_power(P, k) ** 2


def gamma_ddagger(P: StochasticMatrix, k: int = 1) -> float:
    """Gap of the reversible dilation of P^k: 1 - sigma_2(L^k)."""
    return 1.0 - _sigma2_of_power(P, k)


def absolute_spectral_gap(P: StochasticMatrix) -> float:
    """Absolute spectral gap 1 - max{|lambda| : lambda in sigma(P), |lambda| != 1}.

    For reversible chains L is symmetric, so its singular values are the
    moduli of its eigenvalues and the largest non-Perron modulus is
    sigma_2(L); for non-reversible chains (diagnostics only) the complex
    spectrum is used with the Perron eigenvalue removed.
    """
    if is_reversible(P):
        rho = eigensolve.second_singular_value(build_L(P))
    else:
        eigs = np.linalg.eigvals(P.rows)
        perron = int(np.argmin(np.abs(eigs - 1.0)))
        rest = np.delete(eigs, perron)
        rho = float(np.max(np.abs(rest))) if rest.size else 0.0
    return float(min(max(1.0 - rho, 0.0), 1.0))


def _second_modulus_floor(L: np.ndarray) -> float:
    """A lower bound on |lambda_2(P)|, the largest non-Perron eigenvalue modulus.

    L is diagonally similar to P, so it has the same spectrum. Each computed
    eigenvalue w_i is discounted by a few n eps / s_i, where s_i = |y_i^H x_i|
    (unit left and right eigenvectors) is its condition number, so an
    ill-conditioned spectrum only lowers the bound. The eigenvalues come from
    one values-only solve, and the Perron root is the one nearest 1. They are
    walked in decreasing modulus, a conjugate sharing its partner's s, until
    one is no larger than the bound so far. Each s_i takes one LU of L - w_i I
    (real when w_i is) and two inverse-iteration solves for x_i and for y_i.
    A pivot below 4 n eps ||L||_1 is raised to it (LAPACK's xLAEIN guard), so
    an exactly computed eigenvalue still gives finite vectors.
    """
    from scipy.linalg import get_lapack_funcs

    n = L.shape[0]
    w = np.linalg.eigvals(L)
    w[np.argmin(np.abs(w - 1.0))] = 0.0  # the Perron root; a modulus of 0 ends the walk
    tol = _EIG_MARGIN * n * np.finfo(float).eps
    guard = tol * np.linalg.norm(L, 1)
    floor = 0.0
    for mu in sorted(w[w.imag >= 0], key=abs, reverse=True):
        if abs(mu) <= floor:
            break
        A = L - (mu if mu.imag else mu.real) * np.eye(n)
        getrf, getrs = get_lapack_funcs(("getrf", "getrs"), (A,))
        lu, piv, _ = getrf(A, overwrite_a=True)
        tiny = np.flatnonzero(np.abs(lu.diagonal()) < guard)
        lu[tiny, tiny] = guard
        x = y = np.ones(n)
        for _ in range(2):
            x = getrs(lu, piv, x)[0]
            x /= np.linalg.norm(x)
            y = getrs(lu, piv, y, trans=2)[0]
            y /= np.linalg.norm(y)
        floor = max(floor, abs(mu) - tol / abs(np.vdot(y, x)))
    return float(min(floor, 1.0))


def _skip_loop(Ps: Sequence[StochasticMatrix], k_cap: int, with_dps: bool) -> list:
    """For each chain (all of one size): sigma_2(L^k) for k = 1..K, the (gap, k)
    maxima of both gaps and the stop reason, or the MixgapError that ends its
    loop alone.

    A chain's error is the one in its `_stationary_batch` slot, else the
    NonconvergentGapError of a periodic chain or of a loop that reaches k_cap.
    K is the first k where no skip j > k can beat the running gamma_ps, nor
    gamma_dps when `with_dps` is set (see `spectral_gaps`). The chains still
    running share one stacked SVD and one stacked product per k, which give
    each chain the bits of its own loop; each buys its floor by itself.
    """
    out = _stationary_batch(Ps)
    for i, P in enumerate(Ps):
        if not isinstance(out[i], MixgapError) and not is_aperiodic(P):
            out[i] = NonconvergentGapError("chain is periodic: every per-skip gap is zero")
    live = [i for i, slot in enumerate(out) if not isinstance(slot, MixgapError)]
    if not live:
        return out
    s = np.sqrt(_stack([out[i] for i in live]))
    L = s[:, :, None] * _stack([Ps[i].rows for i in live])
    L /= s[:, None, :]
    sigmas: dict[int, list[float]] = {i: [] for i in live}
    best_ps, k_ps = dict.fromkeys(live, 0.0), dict.fromkeys(live, 0)
    best_dps, k_dps = dict.fromkeys(live, 0.0), dict.fromkeys(live, 0)
    # a floor on |lambda_2(P)| once bought; until then skip j is bounded by 1/j
    lam2_floor = dict.fromkeys(live)
    L_live = Lk = L
    k = 0
    while True:
        k += 1
        running, kept = [], []
        for slot, (i, sigma2) in enumerate(zip(live, _sigma2(Lk))):
            sigmas[i].append(sigma2)
            gd, gdd = 1.0 - sigma2**2, 1.0 - sigma2
            if gd / k > best_ps[i]:
                best_ps[i], k_ps[i] = gd / k, k
            if gdd / k > best_dps[i]:
                best_dps[i], k_dps[i] = gdd / k, k
            j = k + 1
            # the smallest maximum the loop must certify; once j best >= 1 the floor cannot matter
            best = best_dps[i] if with_dps else best_ps[i]
            if lam2_floor[i] is None and j * best < 1.0 and (
                best * (j + _EIG_COST) < 1.0 or k == _EIG_COST
            ):
                lam2_floor[i] = _second_modulus_floor(L_live[slot])
            floor = lam2_floor[i] or 0.0
            if (1.0 - floor ** (2 * j)) / j <= best_ps[i] and (
                not with_dps or (1.0 - floor**j) / j <= best_dps[i]
            ):
                stop_reason = "1/k" if j * best >= 1.0 else "weyl"
                out[i] = sigmas[i], (best_ps[i], k_ps[i]), (best_dps[i], k_dps[i]), stop_reason
            elif k >= k_cap:
                out[i] = NonconvergentGapError(
                    f"no certificate closed the skip loop by k = {k_cap} "
                    f"(best gaps {best_ps[i]:.3e}, {best_dps[i]:.3e}); the chain is too close "
                    "to periodic or reducible to resolve"
                )
            else:
                running.append(i)
                kept.append(slot)
        if not running:
            return out
        if len(running) < len(live):
            Lk, L_live = Lk[kept], L_live[kept]
        live = running
        Lk = Lk @ L_live


def spectral_gaps(P: StochasticMatrix, k_cap: int = DEFAULT_K_CAP) -> SpectralReport:
    """Exact pseudo-spectral and dilated pseudo-spectral gaps of P.

    Iterates k = 1, 2, ... computing both per-skip gaps from sigma_2(L^k):
    gamma_dagger(P^k) = 1 - sigma_2(L^k)^2 for the multiplicative
    reversiblization (Fill 1991; Paulin 2015) and gamma_ddagger(P^k) =
    1 - sigma_2(L^k) for the reversible dilation. The loop stops at the
    first k where a certificate shows that no skip j > k can beat either
    running maximum, which makes the result exact rather than truncated.
    ||L||_2 = 1 and lambda_1 = 1, so Weyl's majorant inequality (Weyl 1949)
    gives sigma_2(L^j) >= |lambda_2(P)|^j. For any l <= |lambda_2(P)| the
    per-skip values are then at most (1 - l^(2j))/j and (1 - l^j)/j, both
    decreasing in j, so the loop ends once they fall to the maxima at
    j = k + 1. l = 0 (the bound 1/j) until one eigensolve of L buys it: at the
    first k where the 1/j exit is open and over R = 8 skips away, or at k = R.
    The eigensolve is values-only, plus one guarded LU of L - w I per
    eigenvalue w it needs a condition number for (_second_modulus_floor).
    Callers that read only gamma_ps run `_skip_loop` with `with_dps` unset,
    which applies the same test and the same rule for buying l to the gamma_ps
    maximum alone.

    `stop_reason` is "1/k" if 1/j alone closed the loop, "weyl" if it took l.

    Raises:
        ReducibleChainError, NoConvergenceError: from `stationary_distribution`.
        NonconvergentGapError: if P is periodic (|lambda_2| = 1, so every
            per-skip gap is zero), or if neither certificate fires by k_cap.
    """
    result = _value(_skip_loop([P], k_cap, with_dps=True)[0])
    sigmas, (best_ps, k_ps), (best_dps, k_dps), stop_reason = result
    gamma_dagger_at_k = {k: 1.0 - s**2 for k, s in enumerate(sigmas, 1)}
    gamma_ddagger_at_k = {k: 1.0 - s for k, s in enumerate(sigmas, 1)}
    # for reversible P, L is symmetric and sigma_2(L) is the largest non-Perron modulus
    gamma_star = gamma_ddagger_at_k[1] if is_reversible(P) else None
    return SpectralReport(
        gamma_ps=best_ps,
        gamma_dps=best_dps,
        k_ps=k_ps,
        k_dps=k_dps,
        k_explored=len(sigmas),
        stop_reason=stop_reason,
        gamma_dagger_at_k=gamma_dagger_at_k,
        gamma_ddagger_at_k=gamma_ddagger_at_k,
        gamma_star=gamma_star,
    )


def full_spectral_report(P: StochasticMatrix) -> SpectralReport:
    """Spectral report including the brute-force mixing time."""
    return replace(spectral_gaps(P), t_mix=mixing_time(P))


def pi_norm(A: np.ndarray, pi: np.ndarray) -> float:
    """Operator norm of A on l2(pi), via conjugation with D_pi^{1/2}."""
    s = np.sqrt(pi)
    return float(np.linalg.norm((s[:, None] * A) / s[None, :], 2))


def reversiblization_norm(P: StochasticMatrix, k: int) -> float:
    """||(P* - Pi)^k (P - Pi)^k||_pi, computed through explicit matrix powers.

    Equals 1 - gamma_dagger(P^k); kept as an independent route for the
    oracle cross-checks.
    """
    pi = stationary_distribution(P)
    Pi = stationary_projector(P)
    Pstar = (P.rows.T * pi[None, :]) / pi[:, None]
    A = np.linalg.matrix_power(Pstar - Pi, k)
    B = np.linalg.matrix_power(P.rows - Pi, k)
    return pi_norm(A @ B, pi)


@dataclass(frozen=True)
class LemmaCheck:
    name: str
    params: dict
    lhs: float
    rhs: float
    passed: bool


@dataclass(frozen=True)
class LemmaLedger:
    checks: list[LemmaCheck] = field(default_factory=list)

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def violations(self) -> list[LemmaCheck]:
        return [c for c in self.checks if not c.passed]

    def to_dict(self) -> dict:
        return {"all_passed": self.all_passed, **_report_dict(self)}


def verify_lemma_properties(P: StochasticMatrix, k_max: int = 10) -> LemmaLedger:
    """Check the gap inequalities relating skipped chains against P.

    Covers the sub-multiplicativity of the reversiblization norms
    (lhs <= rhs + _SLACK convention throughout):
      * norm(r+s) <= norm(r) * norm(s) for r + s <= k_max,
      * p*gps*(1 - p*k_ps*gps/2) <= gps(P^p) <= p*gps for p <= k_max,
      * gps(P^p) > 1/2 for p >= 2^ceil(log2(1/gps)),
      * gps(P^p) > p*gps/(2*log(4e/pi_min) + 2) for p < 1/gps.
    """
    if not 1 <= k_max <= 20:
        raise ValueError(f"k_max must be in 1..20, got {k_max}")
    checks: list[LemmaCheck] = []

    def check(name: str, params: dict, lhs: float, rhs: float) -> None:
        checks.append(LemmaCheck(name, params, lhs, rhs, lhs <= rhs + _SLACK))

    pi = stationary_distribution(P)
    norms = {j: reversiblization_norm(P, j) for j in range(1, k_max + 1)}
    for r in range(1, k_max):
        for s in range(r, k_max - r + 1):
            check("sub_multiplicativity", {"r": r, "s": s}, norms[r + s], norms[r] * norms[s])

    base = spectral_gaps(P)
    gps, k_ps = base.gamma_ps, base.k_ps
    # P^2..P^k_max in one gamma_ps-only loop; each power carries the pi of P
    powers = [matrix_power(P, p) for p in range(2, k_max + 1)]
    skipped = {1: gps}
    for p, slot in enumerate(_skip_loop(powers, DEFAULT_K_CAP, with_dps=False), 2):
        skipped[p] = _value(slot)[1][0]

    for p in range(1, k_max + 1):
        check("skipped_gap_lower", {"p": p}, p * gps * (1.0 - p * k_ps * gps / 2.0), skipped[p])
        check("skipped_gap_upper", {"p": p}, skipped[p], p * gps)

    p_big = 2 ** math.ceil(math.log2(1.0 / gps)) if gps < 1.0 else 1
    for p in range(p_big, k_max + 1):
        check("large_skip_half", {"p": p}, 0.5, skipped[p])

    pi_min = float(np.min(pi))
    denom = 2.0 * math.log(4.0 * math.e / pi_min) + 2.0
    for p in range(1, k_max + 1):
        if p < 1.0 / gps:
            check("small_skip_shim", {"p": p}, p * gps / denom, skipped[p])
    return LemmaLedger(checks)
