"""Confidence-interval math behind sequential campaign stopping.

Pure, dependency-free helpers shared by the steering layer
(:mod:`repro.arch.steering`) and its property tests: a Wilson score
interval for binomial proportions, a Hoeffding bound, and the
post-stratified variance estimate a steered campaign uses to decide
when its AVF estimate is tight enough to stop.

All functions are deterministic and accept float "success" counts so
weighted tallies plug in directly.
"""

from __future__ import annotations

import math

__all__ = [
    "normal_quantile",
    "z_value",
    "wilson_interval",
    "wilson_halfwidth",
    "hoeffding_halfwidth",
    "stratified_estimate",
]


def normal_quantile(p):
    """Inverse standard-normal CDF at ``p`` (0 < p < 1).

    Solved by bisection on the closed form ``Phi(x) = (1 + erf(x/sqrt 2))/2``
    — slower than a rational approximation but exact to float precision
    and with no magic constants to mistype.  Called once per interval,
    so speed is irrelevant.
    """
    if not 0.0 < p < 1.0:
        raise ValueError("p must be strictly between 0 and 1")
    lo, hi = -10.0, 10.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if 0.5 * (1.0 + math.erf(mid / math.sqrt(2.0))) < p:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def z_value(confidence):
    """Two-sided critical value for a ``confidence`` (0, 1) level."""
    if not 0.0 < confidence < 1.0:
        raise ValueError("confidence must be strictly between 0 and 1")
    return normal_quantile(0.5 + confidence / 2.0)


def wilson_interval(successes, n, confidence=0.95):
    """Wilson score interval for a binomial proportion.

    Returns ``(lo, hi)`` with ``0 <= lo <= p_hat <= hi <= 1``.  With no
    observations the interval is vacuous: ``(0, 1)``.  ``successes``
    may be a float (weighted tallies); it must lie in ``[0, n]``.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    if not 0 <= successes <= n + 1e-9:
        raise ValueError("successes must lie in [0, n]")
    if n == 0:
        return 0.0, 1.0
    z = z_value(confidence)
    p_hat = min(max(successes / n, 0.0), 1.0)
    z2 = z * z
    denom = 1.0 + z2 / n
    center = (p_hat + z2 / (2.0 * n)) / denom
    spread = (z / denom) * math.sqrt(
        p_hat * (1.0 - p_hat) / n + z2 / (4.0 * n * n)
    )
    # The min/max against p_hat costs nothing analytically (the Wilson
    # interval always brackets p_hat) but keeps the documented
    # lo <= p_hat <= hi invariant exact under float rounding at the
    # p_hat = 0 and p_hat = 1 endpoints.
    return (
        max(0.0, min(center - spread, p_hat)),
        min(1.0, max(center + spread, p_hat)),
    )


def wilson_halfwidth(successes, n, confidence=0.95):
    """Half the Wilson interval width — the sequential stopping statistic."""
    lo, hi = wilson_interval(successes, n, confidence)
    return 0.5 * (hi - lo)


def hoeffding_halfwidth(n, confidence=0.95):
    """Distribution-free half-width for a mean of ``n`` draws in [0, 1].

    ``sqrt(log(2 / alpha) / (2 n))`` — looser than Wilson for binomial
    data but valid for any bounded outcome; the steering layer reports
    it alongside the Wilson width as a conservative cross-check.
    """
    if n <= 0:
        return 1.0
    alpha = 1.0 - confidence
    if not 0.0 < alpha < 1.0:
        raise ValueError("confidence must be strictly between 0 and 1")
    return min(1.0, math.sqrt(math.log(2.0 / alpha) / (2.0 * n)))


def stratified_estimate(weights, failures, counts, confidence=0.95):
    """Post-stratified proportion estimate and its CI half-width.

    ``weights`` are the strata's probabilities under the *uniform*
    campaign measure (must sum to ~1); ``failures``/``counts`` are the
    per-stratum observed tallies.  The estimate
    ``sum_s q_s * f_s / n_s`` is unbiased for the uniform-campaign AVF
    no matter how trials were allocated across strata — allocation only
    moves the variance.  Every stratum with positive weight must have
    at least one observation.

    The variance term ``sum_s q_s^2 p_s (1 - p_s) / n_s`` plugs in the
    Jeffreys-smoothed observed rate ``(f + 1/2) / (n + 1)``, which keeps
    degenerate 0/n and n/n strata from claiming zero variance.

    Returns ``(estimate, halfwidth)``.
    """
    if not (len(weights) == len(failures) == len(counts)):
        raise ValueError("weights, failures, counts must align")
    total_w = sum(weights)
    if weights and not math.isclose(total_w, 1.0, rel_tol=0, abs_tol=1e-6):
        raise ValueError(f"stratum weights must sum to 1, got {total_w!r}")
    z = z_value(confidence)
    estimate = 0.0
    variance = 0.0
    for q, f, n in zip(weights, failures, counts):
        if q < 0 or n < 0 or not 0 <= f <= n + 1e-9:
            raise ValueError("invalid stratum tally")
        if q == 0:
            continue
        if n == 0:
            raise ValueError(
                "every stratum with positive weight needs >= 1 observation"
            )
        estimate += q * (f / n)
        p_tilde = (f + 0.5) / (n + 1.0)
        variance += q * q * p_tilde * (1.0 - p_tilde) / n
    estimate = min(max(estimate, 0.0), 1.0)
    return estimate, z * math.sqrt(variance)
