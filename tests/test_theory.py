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
    assert law.form == "log-power"


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
    assert law.form == "power-law"
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
    assert res.partial_sums[-1] == pytest.approx(2000 * s[0])


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


def test_stretched_quadrature_agrees_with_exponential_at_alpha_one():
    de = GapDistribution.exponential(1.3)
    ds = GapDistribution.stretched_exponential(1.3, 1.0)
    for w in (0.7, 2.0):
        lo_e, hi_e = expectation_bounds(de, w)
        lo_s, hi_s = expectation_bounds(ds, w)
        assert lo_s == pytest.approx(lo_e, rel=1e-8)
        assert hi_s == pytest.approx(hi_e, rel=1e-8)


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
