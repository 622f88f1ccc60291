"""Closed-form first-moment quantities for independent sets in G(n, p).

Everything is computed exactly at finite (n, p): binomial coefficients via
exact integer arithmetic, expectations carried in natural-log space so that
nothing overflows, and the mu0/mu ratio identity holds to ~1e-15 relative.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, asdict
from typing import Optional

from .graph import RegimeWarning, _count, _real

# strip_color caps pair coverage at CAP_MULTIPLIER * mu0 (backed in build_profile)
CAP_MULTIPLIER = 4.0


def compute_k0(n: int, p: float, theta: float = 1.0) -> Optional[int]:
    """Largest k in [1, n] whose expected independent-set count is >= theta.

    Returns None when no k qualifies (absence is a value, not an error);
    ValueError unless n is a count, 0 < p < 1 and theta is positive and
    finite.
    theta=1 is the first-moment proxy for the independence number; theta=n**4
    reproduces the threshold the asymptotic analysis uses. The expected
    count of independent k-sets is C(n, k) (1-p)^C(k, 2).

    The log of the expected count is concave in k (its increments
    log((n-k)/(k+1)) + k log(1-p) strictly decrease), so the qualifying set
    is a contiguous interval; the ascending scan keeps the binomial exact by
    incremental integer updates and stops once past the peak and below theta.
    """
    _count("n", n)
    _real("p", p, 1.0)
    _real("theta", theta)
    log_theta = math.log(theta)
    log_q = math.log1p(-p)
    best = None
    binom = n  # C(n, 1), advanced exactly via C(n,k+1) = C(n,k)(n-k)/(k+1)
    for k in range(1, n + 1):
        log_mu = math.log(binom) + (k * (k - 1) // 2) * log_q
        if log_mu >= log_theta:
            best = k
        elif k < n and math.log((n - k) / (k + 1)) + k * log_q < 0.0:
            break  # decreasing from here on and already below theta
        if k < n:
            binom = binom * (n - k) // (k + 1)
    return best


def expected_counts(n: int, p: float, k0: int) -> tuple[float, float]:
    """(log mu, log mu0): expected counts of independent k0-sets, total and
    through one fixed vertex pair.

    mu  = C(n, k0)   * (1-p)^C(k0, 2)
    mu0 = C(n-2, k0-2) * (1-p)^C(k0, 2)
    so mu0/mu = k0(k0-1) / (n(n-1)) exactly. Each binomial is exact, then
    rounded once by its log. ValueError unless n is a count, 0 < p < 1 and
    k0 is a count with 2 <= k0 <= n.
    """
    _count("n", n)
    _real("p", p, 1.0)
    _count("k0", k0, 2)
    if k0 > n:
        raise ValueError("k0 must be <= n")
    log_weight = (k0 * (k0 - 1) // 2) * math.log1p(-p)
    return (math.log(math.comb(n, k0)) + log_weight,
            math.log(math.comb(n - 2, k0 - 2)) + log_weight)


@dataclass(frozen=True)
class AnalyticProfile:
    """All closed-form quantities for one (n, p, theta) choice.

    b is the log base 1/(1-p). k0 is the largest size whose expected
    independent-set count clears theta (None if none does). mu/mu0 are kept
    as natural logs. k is the working stripped-set size, clamped below at 2;
    chi_predicted is n / (2 log_b(np)). k and chi_predicted are None when
    np <= 1 (degenerate logarithm).
    """

    n: int
    p: float
    theta: float
    b: float
    k0: Optional[int]
    log_mu: Optional[float]
    log_mu0: Optional[float]
    k: Optional[int]
    chi_predicted: Optional[float]

    @property
    def mu(self) -> Optional[float]:
        return math.exp(self.log_mu) if self.log_mu is not None else None

    @property
    def mu0(self) -> Optional[float]:
        return math.exp(self.log_mu0) if self.log_mu0 is not None else None

    def to_json(self) -> dict:
        d = asdict(self)
        d["mu"] = self.mu
        d["mu0"] = self.mu0
        return d


def _residual_threshold(n: int, p: float, epsilon: float) -> float:
    """eps n / (16 ln np): the remainder size at which strip_color's global
    variant stops stripping and colors the residue, and the largest subset
    size whose edge density density_audit checks, since the residue's
    coloring rests on that density property. Needs np > 1."""
    return epsilon * n / (16.0 * math.log(n * p))


def log_b(p: float, x: float) -> float:
    """log of x to the base b = 1/(1-p)."""
    return math.log(x) / math.log(1.0 / (1.0 - p))


def working_k(n: int, p: float) -> Optional[int]:
    """Stripped-set size max(2, round(2 log_b(np / log^3 n))); None if np <= 1.

    At desk scale the inner ratio is usually < 1 and the clamp bites; the
    stripping procedure treats this value as a lower bound only. ValueError
    unless n is a count and 0 < p < 1.
    """
    _count("n", n)
    _real("p", p, 1.0)
    np_ = n * p
    if np_ <= 1.0:
        return None
    cube = math.log(n) ** 3
    return max(2, round(2 * log_b(p, np_ / cube)))


def build_profile(n: int, p: float, theta: float = 1.0) -> AnalyticProfile:
    """Construct and validate the profile for (n, p, theta)."""
    k0 = compute_k0(n, p, theta)  # raises ValueError on a bad n, p or theta
    log_mu = log_mu0 = None
    if k0 is not None and k0 >= 2:
        log_mu, log_mu0 = expected_counts(n, p, k0)
        # defining property of k0
        if log_mu < math.log(theta) - 1e-9:
            raise AssertionError(f"log mu(k0)={log_mu} is below log theta at k0={k0}")
        # exact ratio identity, used everywhere downstream
        ratio = math.exp(log_mu0 - log_mu)
        exact = k0 * (k0 - 1) / (n * (n - 1))
        if abs(ratio - exact) > 1e-12 * exact:
            raise AssertionError(f"mu0/mu={ratio} differs from k0(k0-1)/(n(n-1))={exact}")
    if p <= 0.5:
        # the pair-coverage cap 4*mu0 dominates 2*mu0/(1-p) exactly here
        if CAP_MULTIPLIER < 2.0 / (1.0 - p):
            raise AssertionError(f"cap {CAP_MULTIPLIER:g}*mu0 is below 2*mu0/(1-p) at p={p}")
    else:
        warnings.warn(
            f"p={p} > 1/2: the default pair-coverage cap has no backing here",
            RegimeWarning,
            stacklevel=2,
        )
    chi_pred, k = predicted_chromatic(n, p, 0.0)
    return AnalyticProfile(
        n=n, p=p, theta=theta, b=1.0 / (1.0 - p), k0=k0,
        log_mu=log_mu, log_mu0=log_mu0,
        k=k, chi_predicted=chi_pred,
    )


@dataclass(frozen=True)
class TailBounds:
    """Evaluated concentration bounds for the capped-family size.

    lower_tail bounds Pr[size <= 3 mu / 5]; two_sided bounds
    Pr[|size - E| > delta * mu]. The raw (positive) exponents are exposed so
    tests can check the coded constants 1/300 and delta^2/40 symbolically.
    """

    lower_tail: float
    two_sided: float
    lower_exponent: float
    two_sided_exponent: float


def tail_bounds(profile: AnalyticProfile, delta: float) -> TailBounds:
    """Evaluate exp(-mu^2/(300 mu0^2 n^2 p)) and 2 exp(-delta^2 mu^2/(40 mu0^2 n^2 p)).

    Both results are clamped to [0, 1]; everything is computed from the
    profile's log-space values so huge ratios cannot overflow.
    """
    if profile.k0 is None or profile.log_mu is None or profile.log_mu0 is None:
        raise ValueError("profile lacks k0/mu/mu0")
    _real("delta", delta, 1.0)
    log_ratio_sq = 2.0 * (profile.log_mu - profile.log_mu0)
    n2p = profile.n * profile.n * profile.p
    lower_exp = math.exp(min(700.0, log_ratio_sq - math.log(300.0 * n2p)))
    two_exp = delta * delta / 40.0 * math.exp(min(700.0, log_ratio_sq - math.log(n2p)))
    lower = min(1.0, math.exp(-lower_exp))
    two = min(1.0, 2.0 * math.exp(-min(700.0, two_exp)))
    return TailBounds(lower_tail=lower, two_sided=two,
                      lower_exponent=lower_exp, two_sided_exponent=two_exp)


def predicted_chromatic(n: int, p: float, epsilon: float) -> tuple[Optional[float], Optional[int]]:
    """(target, k) where target = (1+eps) n / (2 log_b(np)).

    Both are None when np <= 1: the logarithm degenerates and the prediction
    is signaled absent rather than thrown. ValueError unless n is a count,
    0 < p < 1 and epsilon >= 0.
    """
    _count("n", n)
    _real("p", p, 1.0)
    _real("epsilon", epsilon, zero=True)
    np_ = n * p
    if np_ <= 1.0:
        return None, None
    target = (1.0 + epsilon) * n / (2.0 * log_b(p, np_))
    return target, working_k(n, p)
