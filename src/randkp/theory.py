"""Closed-form borderline laws and summability diagnostics.

For each supported gap law there is a critical decay of the envelope W
separating almost-sure finiteness of the negative-eigenvalue count from
almost-sure infinitude.  The driver is the series over renewal intervals
of P(L_k > pi/sqrt(w_k) - c): each interval contributes a level exactly
when its gap can hold a half wave of the local well, and the offset c
absorbs the finite penetration into the flanking bumps.  This module
exposes the critical constants, the piecewise-constant envelope weights
built from the strong-law position estimate x_k ~ alpha*k, the summands of
the diagnostic series with a convergence verdict, and the two-sided
bounds on the expected per-interval count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .randpot import GapDistribution, Perturbation

__all__ = [
    "BorderlineLaw",
    "DiagnosticSum",
    "borderline",
    "approx_weights",
    "bc_sum",
    "expectation_bounds",
]

_PI = math.pi


@dataclass(frozen=True)
class BorderlineLaw:
    """Critical envelope family for a gap law: constant / ln^exponent, or power law."""

    constant: float
    exponent: float
    kind: str  # the Perturbation kind: "logpower" or "powerlaw"

    def perturbation(self, multiplier: float = 1.0) -> Perturbation:
        """The borderline envelope scaled by ``multiplier``."""
        if not 0 < multiplier * self.constant < math.inf:
            raise ValueError(f"need 0 < multiplier * {self.constant:g} < inf, got multiplier={multiplier!r}")
        return Perturbation(self.kind, multiplier * self.constant, self.exponent)


def borderline(dist: GapDistribution) -> BorderlineLaw:
    """Critical decay of W separating finitely from infinitely many negative levels.

    Exponential(eta) tails give eta^2*pi^2 / ln^2 x; stretched tails
    exp(-eta x^alpha/alpha) give (eta/alpha)^(2/alpha)*pi^2 / ln^(2/alpha) x;
    polynomial tails c/x^alpha switch family entirely, to the power law
    k^(-2/alpha).  The lattice law with empty-cell probability q behaves as
    an exponential with rate ln(1/q).
    """
    if dist.kind == "exponential":
        return BorderlineLaw(dist.eta**2 * _PI**2, 2.0, "logpower")
    if dist.kind == "stretched":
        c = (dist.eta / dist.alpha) ** (2.0 / dist.alpha) * _PI**2
        return BorderlineLaw(c, 2.0 / dist.alpha, "logpower")
    if dist.kind == "pareto":
        return BorderlineLaw(1.0, 2.0 / dist.alpha, "powerlaw")
    if dist.kind == "geometric":
        eta = math.log(1.0 / dist.q)
        return BorderlineLaw(eta**2 * _PI**2, 2.0, "logpower")
    raise ValueError(f"no borderline law for distribution kind {dist.kind!r}")


def approx_weights(
    pert: Perturbation, alpha_mean: float, epsilon: float, k_max: int, side: str = "+"
) -> np.ndarray:
    """Envelope weights w_k = W((1 -/+ eps) * alpha * k), k = 1..K.

    The "+" side evaluates W early (at (1-eps)*alpha*k) and so dominates the
    true interval values for large k; the "-" side undershoots them.
    """
    if side not in ("+", "-"):
        raise ValueError("side must be '+' or '-'")
    if not 0.0 <= epsilon < 1.0:
        raise ValueError("epsilon must lie in [0, 1)")
    if not 0 < alpha_mean < math.inf:
        raise ValueError(f"mean spacing must be positive and finite, got alpha_mean={alpha_mean!r}")
    if k_max < 1:
        raise ValueError("need k_max >= 1")
    scale = (1.0 - epsilon) if side == "+" else (1.0 + epsilon)
    ks = np.arange(1, k_max + 1, dtype=float)
    return np.asarray(pert(scale * alpha_mean * ks), dtype=float)


@dataclass(frozen=True, eq=False)
class DiagnosticSum:
    """Summands of the gap-tail series with a finite-K convergence verdict."""

    summands: np.ndarray
    verdict: str  # "converging" | "diverging" | "undetermined"
    fit_exponent: float


_VERDICT_MARGIN = 0.1


def bc_sum(
    dist: GapDistribution,
    pert: Perturbation,
    alpha_mean: float,
    epsilon: float,
    offset: float,
    k_max: int,
) -> DiagnosticSum:
    """Summands P(L > pi/sqrt(w_k) - offset), k = 1..K, and a verdict on their series.

    The verdict fits the summand against k^-s over the last decade [K/10, K]:
    s above 1 + margin reads as a converging series, below 1 - margin as
    diverging, anything near the borderline as undetermined.  A constant
    offset only rescales the summand for exponential-type tails, so verdicts
    are offset-robust there.
    """
    if k_max < 1:
        raise ValueError("need k_max >= 1")
    if not offset >= 0:
        raise ValueError(f"offset must be nonnegative, got offset={offset!r}")
    w = approx_weights(pert, alpha_mean, epsilon, k_max)
    if np.any(w <= 0):
        raise ValueError("perturbation must be strictly positive at the evaluation points")
    x = np.maximum(0.0, _PI / np.sqrt(w) - offset)
    summands = np.asarray(dist.tail(x), dtype=float)

    lo = max(1, k_max // 10)
    ks = np.arange(lo, k_max + 1, dtype=float)
    window = summands[lo - 1 :]
    positive = window > 0.0
    if int(np.count_nonzero(positive)) < 10:
        # tail underflowed to zero across the window: the series converges
        verdict = "converging" if not np.any(positive) else "undetermined"
        return DiagnosticSum(summands, verdict, math.nan)
    # least squares in closed form with elementwise sums: polyfit's SVD was most of the call, and BLAS starts threads
    lx, ly = np.log(ks[positive]), np.log(window[positive])
    lx -= lx.mean()
    fit_exponent = -float(np.sum(lx * (ly - ly.mean())) / np.sum(lx * lx))
    if fit_exponent > 1.0 + _VERDICT_MARGIN:
        verdict = "converging"
    elif fit_exponent < 1.0 - _VERDICT_MARGIN:
        verdict = "diverging"
    else:
        verdict = "undetermined"
    return DiagnosticSum(summands, verdict, fit_exponent)


def _integrated_tail(dist: GapDistribution, a: float) -> float:
    """Integral of the tail F over [a, infinity)."""
    if dist.kind == "exponential":
        return math.exp(-dist.eta * a) / dist.eta
    if dist.kind == "pareto":
        xm, al = dist.x_m, dist.alpha
        tail_part = xm**al / (al - 1.0)
        if a <= xm:
            return (xm - a) + tail_part * xm ** (1.0 - al)
        return tail_part * a ** (1.0 - al)
    if dist.kind == "geometric":
        m = math.ceil(a)
        return (m - a) * dist.q**m + dist.q ** (m + 1) / (1.0 - dist.q)
    # stretched exponential: t = eta*x**alpha/alpha turns the integral into mean * Q(1/alpha, t(a))
    from scipy.special import gammaincc  # imported here: ~0.3 s that no other path needs
    return dist.mean() * float(gammaincc(1.0 / dist.alpha, dist.eta * a**dist.alpha / dist.alpha))


def expectation_bounds(dist: GapDistribution, w: float) -> Tuple[float, float]:
    """Two-sided bounds on the expected count for one well of weight ``w``.

    With a = pi/sqrt(w):  sqrt(w)/pi * integral_a^inf F  <=  E[count]  <=
    the same plus F(a), in closed form for all four tails (the stretched
    one through the regularized upper incomplete gamma function).
    """
    if not 0 < w < math.inf:
        raise ValueError(f"weight must be positive and finite, got w={w!r}")
    a = _PI / math.sqrt(w)
    lower = math.sqrt(w) / _PI * _integrated_tail(dist, a)
    upper = lower + float(dist.tail(a))
    return lower, upper
