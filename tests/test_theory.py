"""Borderline constants, envelope weights, diagnostic sums, expectation bounds."""

import math

import numpy as np
import pytest

from randkp import (
    GapDistribution,
    Perturbation,
    approx_weights,
    bc_sum,
    borderline,
    expectation_bounds,
    mean_spacing,
)

PI = math.pi


# ---------------------------------------------------------------------------
# borderline constants


def test_exponential_constant():
    law = borderline(GapDistribution.exponential(2.0))
    assert law.constant == pytest.approx(4 * PI**2)
    assert law.exponent == 2.0
    assert law.kind == "logpower"


def test_scale_consistency_doubling_eta_quadruples():
    c1 = borderline(GapDistribution.exponential(1.0)).constant
    c2 = borderline(GapDistribution.exponential(2.0)).constant
    assert c2 == pytest.approx(4 * c1)


def test_stretched_alpha_one_matches_exponential():
    law = borderline(GapDistribution.stretched_exponential(1.0, 1.0))
    assert law.constant == pytest.approx(PI**2)
    assert law.exponent == 2.0


def test_stretched_general_constant():
    law = borderline(GapDistribution.stretched_exponential(2.0, 0.5))
    assert law.constant == pytest.approx((2.0 / 0.5) ** 4 * PI**2)
    assert law.exponent == pytest.approx(4.0)


def test_geometric_constant():
    law = borderline(GapDistribution.geometric(0.5))
    assert law.constant == pytest.approx(PI**2 * math.log(2.0) ** 2)


def test_pareto_power_law_exponent():
    law = borderline(GapDistribution.pareto(1.0, 3.0))
    assert law.kind == "powerlaw"
    assert law.exponent == pytest.approx(2.0 / 3.0)


def test_law_builds_perturbation():
    law = borderline(GapDistribution.exponential(1.0))
    pert = law.perturbation(0.25)
    assert pert.kind == "logpower"
    assert pert(0.0) == pytest.approx(0.25 * PI**2)
    plaw = borderline(GapDistribution.pareto(1.0, 2.0)).perturbation(2.0)
    assert plaw.kind == "powerlaw"


# ---------------------------------------------------------------------------
# envelope weights


def test_zero_epsilon_sides_coincide():
    pert = Perturbation.log_power(1.0, 2.0)
    up = approx_weights(pert, 1.5, 0.0, 50, "+")
    dn = approx_weights(pert, 1.5, 0.0, 50, "-")
    np.testing.assert_array_equal(up, dn)


def test_weight_ordering():
    pert = Perturbation.log_power(1.0, 2.0)
    up = approx_weights(pert, 1.5, 0.3, 100, "+")
    dn = approx_weights(pert, 1.5, 0.3, 100, "-")
    assert np.all(dn <= up)


def test_weight_ratio_tends_to_one():
    # the log-power ratio closes like 1/ln k: slow, but strictly monotone
    pert = Perturbation.log_power(1.0, 2.0)
    up1 = approx_weights(pert, 1.5, 0.05, 1, "+")[0]
    dn1 = approx_weights(pert, 1.5, 0.05, 1, "-")[0]
    k = 10**6
    up_far = float(pert((1 - 0.05) * 1.5 * k))
    dn_far = float(pert((1 + 0.05) * 1.5 * k))
    assert abs(up_far / dn_far - 1.0) < abs(up1 / dn1 - 1.0) / 3
    assert up_far / dn_far == pytest.approx(1.0, abs=2e-2)


# ---------------------------------------------------------------------------
# diagnostic sums


def test_constant_w_sum_grows_linearly_and_diverges():
    d = GapDistribution.exponential(2.0)
    res = bc_sum(d, Perturbation.constant(1.0), 1.5, 0.05, 0.0, 2000)
    assert res.verdict == "diverging"
    s = res.summands
    np.testing.assert_allclose(s, s[0])  # constant summand
    assert s.sum() == pytest.approx(2000 * s[0])


def test_sub_borderline_summand_decays_quadratically():
    d = GapDistribution.exponential(1.0)
    res = bc_sum(d, Perturbation.log_power(0.25 * PI**2, 2.0), 1.5, 0.05, 0.0, 10**4)
    assert res.verdict == "converging"
    assert res.fit_exponent == pytest.approx(2.0, abs=0.05)


def test_super_borderline_summand_decays_like_sqrt():
    d = GapDistribution.exponential(1.0)
    res = bc_sum(d, Perturbation.log_power(4 * PI**2, 2.0), 1.5, 0.05, 0.0, 10**4)
    assert res.verdict == "diverging"
    assert res.fit_exponent == pytest.approx(0.5, abs=0.05)


@pytest.mark.parametrize("k_max", [10**3, 10**4, 10**5])
def test_bc_sum_fit_is_polyfits_slope(k_max):
    # the closed-form least-squares slope against np.polyfit's on the same window: power and
    # log-power envelopes of every decay in [0.2, 2], with verdicts of all three kinds
    cases = [(GapDistribution.pareto(1.0, a), Perturbation.power_law(1.0, beta))
             for a in (2.0, 3.0) for beta in np.linspace(0.2, 2.0, 10)]
    cases += [(GapDistribution.exponential(1.0), Perturbation.log_power(m * PI**2, beta))
              for m in (0.25, 1.0, 4.0) for beta in np.linspace(0.2, 2.0, 10)]
    lo = max(1, k_max // 10)
    ks = np.log(np.arange(lo, k_max + 1, dtype=float))
    for dist, pert in cases:
        res = bc_sum(dist, pert, mean_spacing(dist, 0.25), 0.05, 0.0, k_max)
        window = res.summands[lo - 1:]
        positive = window > 0.0
        assert np.count_nonzero(positive) >= 10
        fit = -np.polyfit(ks[positive], np.log(window[positive]), 1)[0]
        verdict = "converging" if fit > 1.1 else "diverging" if fit < 0.9 else "undetermined"
        assert res.verdict == verdict
        assert res.fit_exponent == pytest.approx(fit, rel=0.0, abs=1e-9)


@pytest.mark.parametrize("dist", [GapDistribution.exponential(1.0), GapDistribution.geometric(0.5)],
                         ids=["exponential", "geometric"])
@pytest.mark.parametrize("eps", [0.01, 0.05])
@pytest.mark.parametrize("offset", [0.0, 5.0])
def test_verdicts_bracket_the_borderline(dist, eps, offset):
    law = borderline(dist)
    alpha = mean_spacing(dist, 0.25)
    below = bc_sum(dist, law.perturbation(0.5), alpha, eps, offset, 10**4)
    above = bc_sum(dist, law.perturbation(2.0), alpha, eps, offset, 10**4)
    assert below.verdict == "converging"
    assert above.verdict == "diverging"


@pytest.mark.parametrize(
    "dist",
    [GapDistribution.exponential(1.0), GapDistribution.stretched_exponential(1.0, 2.0)],
    ids=["exponential", "stretched"],
)
def test_offset_robustness(dist):
    # for stretched tails the offset shifts the finite-K fit by O(1/sqrt(ln k)),
    # so the multipliers sit a factor 4 from the borderline
    law = borderline(dist)
    alpha = mean_spacing(dist, 0.25)
    for mult in (0.25, 4.0):
        v0 = bc_sum(dist, law.perturbation(mult), alpha, 0.05, 0.0, 10**4).verdict
        v5 = bc_sum(dist, law.perturbation(mult), alpha, 0.05, 5.0, 10**4).verdict
        assert v0 == v5


def test_bc_sum_rejects_vanishing_w():
    d = GapDistribution.exponential(1.0)
    with pytest.raises(ValueError):
        bc_sum(d, Perturbation.constant(0.0), 1.5, 0.05, 0.0, 100)
    # NaN passes `nan <= 0` and `nan < 0`; let through, it gives all-NaN summands read as "converging"
    pert = Perturbation.log_power(4 * PI**2, 2.0)
    for alpha, offset, name in ((math.nan, 0.0, "alpha_mean=nan"), (math.inf, 0.0, "alpha_mean=inf"),
                                (1.5, math.nan, "offset=nan")):
        with pytest.raises(ValueError, match=name):
            bc_sum(d, pert, alpha, 0.05, offset, 1000)


# ---------------------------------------------------------------------------
# expectation bounds


def test_exponential_closed_form():
    d = GapDistribution.exponential(1.0)
    for w in (0.5, 1.0, 2.0):
        lo, hi = expectation_bounds(d, w)
        a = PI / math.sqrt(w)
        assert lo == pytest.approx(math.sqrt(w) / PI * math.exp(-a))
        assert hi == pytest.approx(lo + math.exp(-a))


def test_pareto_hand_integral():
    lo, hi = expectation_bounds(GapDistribution.pareto(1.0, 3.0), 1.0)
    assert lo == pytest.approx(1.0 / (2 * PI**3))
    assert hi == pytest.approx(lo + PI**-3)


def test_pareto_cutoff_below_the_scale():
    # a = pi/sqrt(16) < x_m = 1: the tail integral is (1 - a) + 1/2 and F(a) = 1
    lo, hi = expectation_bounds(GapDistribution.pareto(1.0, 3.0), 16.0)
    assert lo == pytest.approx(6.0 / PI - 1.0, rel=1e-12)
    assert hi == pytest.approx(6.0 / PI, rel=1e-12)


def test_stretched_quadrature_agrees_with_exponential_at_alpha_one():
    for eta, w in ((1.3, 0.7), (1.3, 2.0), (2.0, 0.1)):
        lo_e, hi_e = expectation_bounds(GapDistribution.exponential(eta), w)
        lo_s, hi_s = expectation_bounds(GapDistribution.stretched_exponential(eta, 1.0), w)
        assert lo_s == pytest.approx(lo_e, rel=1e-12, abs=0)
        assert hi_s == pytest.approx(hi_e, rel=1e-12, abs=0)


def test_stretched_closed_form_at_alpha_two():
    # the tail exp(-eta x^2/2) integrates to sqrt(pi/(2 eta)) * erfc(a sqrt(eta/2)) over [a, inf)
    for eta, w in ((0.5, 1.0), (2.0, 0.3), (1.0, 4.0)):
        lo, hi = expectation_bounds(GapDistribution.stretched_exponential(eta, 2.0), w)
        a = PI / math.sqrt(w)
        expected = math.sqrt(w) / PI * math.sqrt(PI / (2 * eta)) * math.erfc(a * math.sqrt(eta / 2))
        assert lo == pytest.approx(expected, rel=1e-12, abs=0)
        assert hi == pytest.approx(lo + math.exp(-eta * a**2 / 2), rel=1e-12, abs=0)


def test_geometric_integrated_tail():
    # integral of q^ceil(x) over [0, inf) equals the mean gap
    d = GapDistribution.geometric(0.4)
    w = (PI / 0.3) ** 2  # makes the cutoff a = 0.3
    lo, _ = expectation_bounds(d, w)
    a = PI / math.sqrt(w)
    expected_integral = (1 - a) * d.q + d.q**2 / (1 - d.q)
    assert lo == pytest.approx(math.sqrt(w) / PI * expected_integral)


def test_bounds_ordered_and_monotone_in_w():
    d = GapDistribution.exponential(1.0)
    prev = (0.0, 0.0)
    for w in (0.25, 0.5, 1.0, 2.0, 4.0, 8.0):
        lo, hi = expectation_bounds(d, w)
        assert lo <= hi
        assert lo >= prev[0] and hi >= prev[1]
        prev = (lo, hi)


def test_lower_bound_grows_without_limit():
    d = GapDistribution.exponential(1.0)
    assert expectation_bounds(d, 1e6)[0] > 100.0


def test_expectation_bounds_validation():
    with pytest.raises(ValueError):
        expectation_bounds(GapDistribution.exponential(1.0), 0.0)
