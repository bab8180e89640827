"""Exact mean-field (complete-graph) engine: magnetization pmf, moments,
entropy, relative entropy, reconstruction diagnostics.

Everything runs in the log domain (log-binomials via log-gamma,
normalization by log-sum-exp), so n up to 1e5 is fine. Total spin lives on
the lattice {-n, -n+2, ..., n}; the Hamiltonian is
H = -(1/n) * sum over pairs of s_x s_y, giving P[S=s] proportional to
C(n,(n+s)/2) * exp(beta s^2 / (2n)).

There are two entry points. `cw_magnetization_pmf(n, beta)` builds the law
of S once per (n, beta); its `moment(r)`, `entropy` and `relative_entropy`
read it, and the two entropy reports are cached on it. `cw_observed_law(pmf,
k)` builds the law of the observed sum a of k spins from that pmf, from one
grid of log-weights of (observed sum a, remaining sum b), (k+1) x (n-k+1)
cells: it scales each row by its own maximum, exponentiates in place, and
reduces the grid to four vectors over a: P[a], log P[a], E[S | a] and
P[S > 0 | a]. The clue of the magnetization and of the majority, the
information share and the majority-guess success are O(n) readouts of that
`CwObservedLaw`, and `cw_threshold_k` searches laws of one pmf by
doubling k, then bisecting. The grid costs `_GRID_CELL_BYTES` per cell at
its peak and is refused above `CW_GRID_BYTES_CAP` before anything is
allocated; the O(n) total-spin arrays likewise cost `_PMF_POINT_BYTES` per
value under `CW_PMF_BYTES_CAP`.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln, logsumexp

LOG2E = math.log2(math.e)


def _log_binom(n: int, m: np.ndarray) -> np.ndarray:
    # grouped so that m and n-m give bit-identical results (the h=0
    # symmetry of the pmf is exact, not just approximate)
    return gammaln(n + 1) - (gammaln(m + 1) + gammaln(n - m + 1))


@dataclass(frozen=True)
class CwMomentReport:
    value: float  # E[(S/sqrt(n))^r]
    lebowitz_ratio: float | None = None  # E[S^4] / (3 E[S^2]^2), r=4 only


@dataclass(frozen=True)
class CwEntropyReport:
    entropy_bits: float
    deficit_bits: float  # n - H


@dataclass(frozen=True)
class CwRelativeEntropyReport:
    d_bits: float  # D( measure at beta || fair coins )
    moment_bound_bits: float  # log2(e) * (beta/2) * E[n M^2]
    gap_bits: float  # log2( Z_beta / Z_0 ) >= 0


@dataclass
class CwMagnetizationPmf:
    """Law of the total spin S of n spins at inverse temperature beta, with
    its moments, entropy and relative entropy. The two entropy reports are
    computed once per pmf, on first use."""

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

    def moment(self, r: int) -> CwMomentReport:
        """E[(S/sqrt(n))^r] by exact summation; for r=2 this is E[n M^2]."""
        if r not in (1, 2, 4):
            raise ValueError("supported moments: r in {1, 2, 4}")
        value = self.moment_s(r) / self.n ** (r / 2.0)
        if r == 4:
            s2 = self.moment_s(2)
            return CwMomentReport(value, self.moment_s(4) / (3.0 * s2 * s2))
        return CwMomentReport(value)

    @functools.cached_property
    def entropy(self) -> CwEntropyReport:
        """Total entropy in bits: H(S) plus the expected log-count of
        configurations at fixed total spin.

        The deficit n - H is accumulated per total-spin value (each term is
        O(1)); forming H first and subtracting would lose ~1e-8 absolute
        precision at n = 1e4 in double arithmetic.
        """
        n, p = self.n, self.probabilities
        pos = p > 0
        log_counts = _log_binom(n, (n + self.s_values) // 2)
        log_p = self.log_weights - self.log_z
        per_term = (n * math.log(2.0) + log_p - log_counts) * LOG2E
        deficit = float(p[pos] @ per_term[pos])
        return CwEntropyReport(entropy_bits=n - deficit, deficit_bits=deficit)

    @functools.cached_property
    def relative_entropy(self) -> CwRelativeEntropyReport:
        """Exact relative entropy against the coin-flip measure.

        Satisfies D = n - H and D = moment_bound - gap with gap >= 0; both are
        asserted here at 1e-9.
        """
        n, p = self.n, self.probabilities
        log2_ratio = (
            LOG2E * self.beta * self.s_values.astype(float) ** 2 / (2.0 * n)
            - self.log_z_ratio_bits
        )
        d = float(p @ log2_ratio)
        bound = LOG2E * (self.beta / 2.0) * (self.moment_s(2) / n)
        gap = self.log_z_ratio_bits
        if gap < -1e-12:
            raise AssertionError(f"normalizer ratio came out negative: {gap}")
        if abs(d - (bound - gap)) > 1e-9 * max(1.0, abs(d)):
            raise AssertionError("relative-entropy decomposition failed")
        deficit = self.entropy.deficit_bits
        if abs(d - deficit) > 1e-9 * max(1.0, abs(d)):
            raise AssertionError(
                f"D = n - H identity failed: D={d!r}, n-H={deficit!r}"
            )
        return CwRelativeEntropyReport(d, bound, gap)


#: Bytes of the O(n) total-spin arrays above which `cw_magnetization_pmf`
#: refuses to build them.
CW_PMF_BYTES_CAP = 1 << 30

#: Peak bytes per total-spin value of a pmf and its heaviest readout
#: (`relative_entropy`, which also forms the entropy terms). Measured with
#: scripts/cw_grid_probe.py pmf at n = 4 000 000: peak RSS rose by 65.3 to
#: 73.4 bytes per value over the three readouts and repeated runs, the most
#: for `relative_entropy`.
_PMF_POINT_BYTES = 74


def check_pmf_size(n: int) -> None:
    """Raise `ValueError` unless n >= 1 and the total-spin arrays of n spins
    and their readouts fit under `CW_PMF_BYTES_CAP`."""
    if n < 1:
        raise ValueError("need n >= 1")
    est = _PMF_POINT_BYTES * (n + 1)
    if est > CW_PMF_BYTES_CAP:
        raise ValueError(
            f"the Curie-Weiss pmf for n={n} needs about {est} bytes, "
            f"over the cap of {CW_PMF_BYTES_CAP}")


def cw_magnetization_pmf(n: int, beta: float) -> CwMagnetizationPmf:
    check_pmf_size(n)
    if beta < 0:
        raise ValueError("need beta >= 0")
    s = np.arange(-n, n + 1, 2, dtype=np.int64)
    m = (n + s) // 2
    logw = _log_binom(n, m) + beta * s.astype(float) ** 2 / (2.0 * n)
    log_z = float(logsumexp(logw))
    return CwMagnetizationPmf(n, beta, s, logw, np.exp(logw - log_z), log_z)


#: Bytes of the (observed sum, remaining sum) grid above which
#: `cw_observed_law` refuses to build it.
CW_GRID_BYTES_CAP = 1 << 30

#: Peak bytes per grid cell of `cw_observed_law`: the float64 log-weights
#: plus one float64 temporary while they are built. Measured with
#: scripts/cw_grid_probe.py: n = 8000, k = 4000 (16 M cells) raised peak RSS
#: by 244 MB over the post-import baseline, 16.0 bytes per cell, for the law
#: and its readouts together.
_GRID_CELL_BYTES = 16


def check_grid_size(n: int, k: int) -> None:
    """Raise `ValueError` unless k of n spins can be observed and their
    (observed sum, remaining sum) grid fits under `CW_GRID_BYTES_CAP`."""
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= n={n}, got k={k}")
    est = _GRID_CELL_BYTES * (k + 1) * (n - k + 1)
    if est > CW_GRID_BYTES_CAP:
        raise ValueError(
            f"the Curie-Weiss grid for n={n}, k={k} needs about {est} bytes, "
            f"over the cap of {CW_GRID_BYTES_CAP}")


def _observed_grid(n: int, beta: float, k: int):
    """Observed sums a over k spins, remaining sums b over the other n - k,
    and the log-weight of each (a, b) cell, built in place."""
    check_grid_size(n, k)
    a = np.arange(-k, k + 1, 2, dtype=np.int64)
    b = np.arange(-(n - k), n - k + 1, 2, dtype=np.int64)
    log_ca = _log_binom(k, (k + a) // 2)
    log_cb = _log_binom(n - k, (n - k + b) // 2)
    logw = np.add.outer(a.astype(float), b.astype(float))  # total spin a + b
    np.square(logw, out=logw)
    logw *= beta
    logw /= 2.0 * n
    logw += np.add.outer(log_ca, log_cb)
    return a, b, logw


#: Each reconstruction target by name: its values over the total-spin
#: lattice of a pmf, and its conditional mean given the observed sum of a law.
_TARGETS = {
    "magnetization": (lambda pmf: pmf.s_values.astype(float) / pmf.n,
                      lambda law: law.mean_s / law.pmf.n),
    "majority": (lambda pmf: np.where(pmf.s_values > 0, 1.0, -1.0),
                 lambda law: 2.0 * law.p_plus - 1.0),
}


def _entropy_bits(x: np.ndarray) -> float:
    x = x[x > 0]
    return float(-(x * np.log2(x)).sum())


@dataclass(frozen=True)
class CwIclueReport:
    iclue: float
    h_target_bits: float
    bound: float  # (k/n) * (1 + D / H(target))


@dataclass(frozen=True)
class CwObservedLaw:
    """Exact law of the observed sum a of any k of n spins, reduced to what
    the readouts need of the total spin S given a.

    Exchangeability makes only |U| = k matter, so every exact clue,
    information share and guess success at (n, beta, k) is a sum over a of
    these per-row vectors; `cw_observed_law` builds them from one grid.
    """

    pmf: CwMagnetizationPmf  # law of S
    k: int
    a: np.ndarray  # observed sums -k, -k+2, ..., k
    p_a: np.ndarray  # P[a]
    mean_s: np.ndarray  # E[S | a]
    p_plus: np.ndarray  # P[S > 0 | a]
    log_pa: np.ndarray  # log P[a]

    def clue(self, target: str = "magnetization") -> float:
        """Explained-variance fraction Var(E[t | a]) / Var(t) of the target
        t: S/n for "magnetization", sign(S) (sign(0) = -1) for "majority"."""
        if target not in _TARGETS:
            raise ValueError("target must be 'magnetization' or 'majority'")
        value, cond_mean = _TARGETS[target]
        n, p = self.pmf.n, self.pmf.probabilities
        t_all = value(self.pmf)
        mean_t = float(p @ t_all)
        var_t = float(p @ (t_all - mean_t) ** 2)
        if var_t <= 0 or self.k == 0:
            return 0.0
        if self.k == n:
            return 1.0
        cond = cond_mean(self)
        overall = float(self.p_a @ cond)
        var_cond = float(self.p_a @ (cond - overall) ** 2)
        return min(max(var_cond / var_t, 0.0), 1.0)

    def iclue(self) -> CwIclueReport:
        """Mutual-information share I(majority; a) / H(majority), from the
        joint law P[a] * (P[S <= 0 | a], P[S > 0 | a]); asserts the entropy
        bound (k/n) * (1 + D / H(majority)) at 1e-9."""
        pmf, k = self.pmf, self.k
        n = pmf.n
        p_plus = float(pmf.probabilities[pmf.s_values > 0].sum())
        if p_plus <= 0.0 or p_plus >= 1.0:
            raise ValueError("degenerate majority: zero entropy")
        h_z = -(p_plus * math.log2(p_plus) + (1 - p_plus) * math.log2(1 - p_plus))
        bound = (k / n) * (1.0 + pmf.relative_entropy.d_bits / h_z)
        if k == 0:
            return CwIclueReport(0.0, h_z, bound)
        if k == n:
            iclue = 1.0
        else:
            joint = self.p_a * np.stack([1.0 - self.p_plus, self.p_plus])
            i_za = (_entropy_bits(joint.sum(axis=1)) + _entropy_bits(joint.sum(axis=0))
                    - _entropy_bits(joint))
            iclue = min(max(i_za / h_z, 0.0), 1.0)
        if iclue > bound + 1e-9:
            raise AssertionError(
                f"information share {iclue} exceeded the entropy bound {bound}"
            )
        return CwIclueReport(iclue, h_z, bound)

    def guess_success(self) -> float:
        """P[ sign of a matches the sign of S ], both with sign(0) = -1;
        needs k >= 1."""
        if self.k == 0:
            raise ValueError("need 1 <= k <= n")
        if self.k == self.pmf.n:
            return 1.0
        hit = np.where(self.a > 0, self.p_plus, 1.0 - self.p_plus)
        return float(self.p_a @ hit)


def cw_observed_law(pmf: CwMagnetizationPmf, k: int) -> CwObservedLaw:
    """The observed-sum law of k of the pmf's n spins, from one (observed
    sum, remaining sum) grid: each row is scaled by its own maximum and
    exponentiated in place, then reduced to P[a], E[S | a] and P[S > 0 | a].
    Cost O(n k) time and about `_GRID_CELL_BYTES` per grid cell."""
    a, b, w = _observed_grid(pmf.n, pmf.beta, k)
    row_max = w.max(axis=1)
    w -= row_max[:, None]
    np.exp(w, out=w)
    row_sum = w.sum(axis=1)
    mean_s = a + np.einsum("ij,j->i", w, b.astype(float)) / row_sum
    p_plus = np.sum(w, axis=1, where=np.greater.outer(a, -b)) / row_sum  # a + b > 0
    log_pa = np.log(row_sum) + row_max
    log_pa -= logsumexp(log_pa)
    return CwObservedLaw(pmf, k, a, np.exp(log_pa), mean_s, p_plus, log_pa)


def cw_threshold_k(
    n: int, beta: float, level: float = 0.5, target: str = "majority"
) -> int:
    """Smallest k >= 1 with clue(target | k) >= level (the clue is
    nondecreasing in k). k doubles from 1, capped at n, until the level is
    reached; a bisection inside the last doubling step then finds it, so the
    largest grid built has O(n k) cells for the returned k."""
    pmf = cw_magnetization_pmf(n, beta)
    lo, hi = 0, 1
    while cw_observed_law(pmf, hi).clue(target) < level:
        if hi == n:
            raise ValueError("level unreachable even with all spins")
        lo, hi = hi, min(2 * hi, n)
    while lo + 1 < hi:
        mid = (lo + hi) // 2
        if cw_observed_law(pmf, mid).clue(target) >= level:
            hi = mid
        else:
            lo = mid
    return hi
