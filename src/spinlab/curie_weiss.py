"""Exact mean-field (complete-graph) engine: magnetization pmf, moments,
entropy, relative entropy, reconstruction diagnostics.

Everything runs in the log domain (log-binomials via log-gamma,
normalization by log-sum-exp), so n up to 1e5 is fine. Total spin lives on
the lattice {-n, -n+2, ..., n}; the Hamiltonian is
H = -(1/n) * sum over pairs of s_x s_y, giving P[S=s] proportional to
C(n,(n+s)/2) * exp(beta s^2 / (2n)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln, logsumexp

LOG2E = math.log2(math.e)


def _log_binom(n: int, m: np.ndarray) -> np.ndarray:
    # grouped so that m and n-m give bit-identical results (the h=0
    # symmetry of the pmf is exact, not just approximate)
    return gammaln(n + 1) - (gammaln(m + 1) + gammaln(n - m + 1))


@dataclass
class CwMagnetizationPmf:
    n: int
    beta: float
    s_values: np.ndarray  # total spin lattice, step 2
    log_weights: np.ndarray  # unnormalized, natural log
    probabilities: np.ndarray
    log_z: float  # natural-log normalizer of the weights above

    @property
    def log_z_ratio_bits(self) -> float:
        """log2( Z_beta / Z_0 ), with Z_0 = 2^n."""
        return (self.log_z - self.n * math.log(2.0)) * LOG2E

    def moment_s(self, r: int) -> float:
        return float(self.probabilities @ (self.s_values.astype(float) ** r))


def cw_magnetization_pmf(n: int, beta: float) -> CwMagnetizationPmf:
    if n < 1:
        raise ValueError("need n >= 1")
    if beta < 0:
        raise ValueError("need beta >= 0")
    s = np.arange(-n, n + 1, 2, dtype=np.int64)
    m = (n + s) // 2
    logw = _log_binom(n, m) + beta * s.astype(float) ** 2 / (2.0 * n)
    log_z = float(logsumexp(logw))
    return CwMagnetizationPmf(n, beta, s, logw, np.exp(logw - log_z), log_z)


@dataclass(frozen=True)
class CwMomentReport:
    value: float  # E[(S/sqrt(n))^r]
    lebowitz_ratio: float | None = None  # E[S^4] / (3 E[S^2]^2), r=4 only


def cw_moment(n: int, beta: float, r: int) -> CwMomentReport:
    """E[(S/sqrt(n))^r] by exact summation; for r=2 this is E[n M^2]."""
    if r not in (1, 2, 4):
        raise ValueError("supported moments: r in {1, 2, 4}")
    pmf = cw_magnetization_pmf(n, beta)
    value = pmf.moment_s(r) / n ** (r / 2.0)
    if r == 4:
        s2 = pmf.moment_s(2)
        ratio = pmf.moment_s(4) / (3.0 * s2 * s2)
        return CwMomentReport(value, ratio)
    return CwMomentReport(value)


@dataclass(frozen=True)
class CwEntropyReport:
    entropy_bits: float
    deficit_bits: float  # n - H
    magnetization_entropy_bits: float
    conditional_entropy_bits: float  # expected log-count at fixed total spin


def cw_entropy(n: int, beta: float) -> CwEntropyReport:
    """Total entropy in bits: H(S) plus the expected log-count of
    configurations at fixed total spin.

    The deficit n - H is accumulated per total-spin value (each term is
    O(1)); forming H first and subtracting would lose ~1e-8 absolute
    precision at n = 1e4 in double arithmetic.
    """
    pmf = cw_magnetization_pmf(n, beta)
    p = pmf.probabilities
    pos = p > 0
    m = (n + pmf.s_values) // 2
    log_counts = _log_binom(n, m)
    log_p = pmf.log_weights - pmf.log_z
    per_term = (n * math.log(2.0) + log_p - log_counts) * LOG2E
    deficit = float(p[pos] @ per_term[pos])
    h_s = float(-(p[pos] * log_p[pos]).sum()) * LOG2E
    cond = float(p @ (log_counts * LOG2E))
    return CwEntropyReport(
        entropy_bits=n - deficit,
        deficit_bits=deficit,
        magnetization_entropy_bits=h_s,
        conditional_entropy_bits=cond,
    )


@dataclass(frozen=True)
class CwRelativeEntropyReport:
    d_bits: float  # D( measure at beta || fair coins )
    moment_bound_bits: float  # log2(e) * (beta/2) * E[n M^2]
    gap_bits: float  # log2( Z_beta / Z_0 ) >= 0


def cw_relative_entropy(n: int, beta: float) -> CwRelativeEntropyReport:
    """Exact relative entropy against the coin-flip measure.

    Satisfies D = n - H and D = moment_bound - gap with gap >= 0; both are
    asserted here at 1e-9.
    """
    pmf = cw_magnetization_pmf(n, beta)
    p = pmf.probabilities
    log2_ratio = (
        LOG2E * pmf.beta * pmf.s_values.astype(float) ** 2 / (2.0 * n)
        - pmf.log_z_ratio_bits
    )
    d = float(p @ log2_ratio)
    bound = LOG2E * (beta / 2.0) * (pmf.moment_s(2) / n)
    gap = pmf.log_z_ratio_bits
    if gap < -1e-12:
        raise AssertionError(f"normalizer ratio came out negative: {gap}")
    if abs(d - (bound - gap)) > 1e-9 * max(1.0, abs(d)):
        raise AssertionError("relative-entropy decomposition failed")
    deficit = cw_entropy(n, beta).deficit_bits
    if abs(d - deficit) > 1e-9 * max(1.0, abs(d)):
        raise AssertionError(
            f"D = n - H identity failed: D={d!r}, n-H={deficit!r}"
        )
    return CwRelativeEntropyReport(d, bound, gap)


def _observed_grid(n: int, beta: float, k: int):
    """Log-weights of (observed sum a over k spins, remaining sum b)."""
    a = np.arange(-k, k + 1, 2, dtype=np.int64)
    b = np.arange(-(n - k), n - k + 1, 2, dtype=np.int64)
    log_ca = _log_binom(k, (k + a) // 2)
    log_cb = _log_binom(n - k, (n - k + b) // 2)
    total = a[:, None] + b[None, :]
    logw = (
        log_ca[:, None]
        + log_cb[None, :]
        + beta * total.astype(float) ** 2 / (2.0 * n)
    )
    return a, b, total, logw


def _target_values(total: np.ndarray, n: int, target: str) -> np.ndarray:
    if target == "magnetization":
        return total.astype(float) / n
    if target == "majority":
        return np.where(total > 0, 1.0, -1.0)
    raise ValueError("target must be 'magnetization' or 'majority'")


def cw_exact_clue(n: int, beta: float, k: int, target: str = "magnetization") -> float:
    """Exact explained-variance fraction of the target given any k spins.

    Exchangeability makes only |U| = k matter: condition on the observed
    sum a, average the target over the remaining-sum law, and take the
    variance ratio. Cost O(n k).
    """
    if not 0 <= k <= n:
        raise ValueError("need 0 <= k <= n")
    pmf = cw_magnetization_pmf(n, beta)
    t_all = _target_values(pmf.s_values, n, target)
    mean_t = float(pmf.probabilities @ t_all)
    var_t = float(pmf.probabilities @ (t_all - mean_t) ** 2)
    if var_t <= 0:
        return 0.0
    if k == 0:
        return 0.0
    if k == n:
        return 1.0
    a, b, total, logw = _observed_grid(n, beta, k)
    t = _target_values(total, n, target)
    row_max = logw.max(axis=1, keepdims=True)
    w = np.exp(logw - row_max)
    row_sum = w.sum(axis=1)
    cond_mean = (w * t).sum(axis=1) / row_sum
    log_pa = np.log(row_sum) + row_max[:, 0]
    pa = np.exp(log_pa - logsumexp(log_pa))
    overall = float(pa @ cond_mean)
    var_cond = float(pa @ (cond_mean - overall) ** 2)
    return min(max(var_cond / var_t, 0.0), 1.0)


@dataclass(frozen=True)
class CwIclueReport:
    iclue: float
    h_target_bits: float
    bound: float  # (k/n) * (1 + D / H(target))


def cw_iclue(n: int, beta: float, k: int) -> CwIclueReport:
    """Mutual-information share I(majority; observed spins) / H(majority),
    from the exact joint law of (sign of S, observed sum)."""
    if not 0 <= k <= n:
        raise ValueError("need 0 <= k <= n")
    pmf = cw_magnetization_pmf(n, beta)
    sign_all = np.where(pmf.s_values > 0, 1.0, -1.0)
    p_plus = float(pmf.probabilities[sign_all > 0].sum())
    if p_plus <= 0.0 or p_plus >= 1.0:
        raise ValueError("degenerate majority: zero entropy")
    h_z = -(p_plus * math.log2(p_plus) + (1 - p_plus) * math.log2(1 - p_plus))
    d_bits = cw_relative_entropy(n, beta).d_bits
    bound = (k / n) * (1.0 + d_bits / h_z)
    if k == 0:
        return CwIclueReport(0.0, h_z, bound)
    if k == n:
        iclue = 1.0
    else:
        a, b, total, logw = _observed_grid(n, beta, k)
        log_z = float(logsumexp(logw))
        plus = total > 0
        with np.errstate(divide="ignore"):
            log_joint_plus = logsumexp(np.where(plus, logw, -np.inf), axis=1)
            log_joint_minus = logsumexp(np.where(~plus, logw, -np.inf), axis=1)
        joint = np.stack(
            [np.exp(log_joint_minus - log_z), np.exp(log_joint_plus - log_z)]
        )
        pa = joint.sum(axis=0)
        pz = joint.sum(axis=1)
        pos = joint > 0

        def ent(x):
            x = x[x > 0]
            return float(-(x * np.log2(x)).sum())

        i_za = ent(pz) + ent(pa) - ent(joint[pos])
        iclue = min(max(i_za / h_z, 0.0), 1.0)
    if iclue > bound + 1e-9:
        raise AssertionError(
            f"information share {iclue} exceeded the entropy bound {bound}"
        )
    return CwIclueReport(iclue, h_z, bound)


def cw_majority_guess_success(n: int, beta: float, k: int) -> float:
    """P[ sign of the observed sum matches the global majority ], exact;
    both signs use the tie convention sign(0) = -1."""
    if not 1 <= k <= n:
        raise ValueError("need 1 <= k <= n")
    if k == n:
        return 1.0
    a, b, total, logw = _observed_grid(n, beta, k)
    agree = (a[:, None] > 0) == (total > 0)
    log_z = float(logsumexp(logw))
    with np.errstate(divide="ignore"):
        log_hit = float(logsumexp(np.where(agree, logw, -np.inf)))
    return math.exp(log_hit - log_z)


def cw_threshold_k(
    n: int, beta: float, level: float = 0.5, target: str = "majority"
) -> int:
    """Smallest k with clue(target | k) >= level, by bisection (the clue is
    nondecreasing in k)."""
    lo, hi = 0, n
    if cw_exact_clue(n, beta, hi, target) < level:
        raise ValueError("level unreachable even with all spins")
    while lo + 1 < hi:
        mid = (lo + hi) // 2
        if cw_exact_clue(n, beta, mid, target) >= level:
            hi = mid
        else:
            lo = mid
    return hi
