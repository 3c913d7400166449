"""Gap laws, realizations, perturbations: tails, sampling, geometry, serialization."""

import io
import math

import numpy as np
import pytest

from randkp import (
    CoverageError,
    GapDistribution,
    Perturbation,
    RealizationParseError,
    bernoulli_lattice,
    build_realization,
    load_realization,
    mean_spacing,
    sample_gaps,
    sample_realization,
    save_realization,
)

ALL_DISTS = [
    GapDistribution.exponential(1.0),
    GapDistribution.stretched_exponential(1.0, 2.0),
    GapDistribution.pareto(1.0, 2.0),
    GapDistribution.geometric(0.5),
]


# ---------------------------------------------------------------------------
# tails


def test_tail_at_zero_is_one_for_exponential_families():
    assert GapDistribution.exponential(1.0).tail(0.0) == 1.0
    assert GapDistribution.stretched_exponential(2.0, 0.7).tail(0.0) == 1.0


def test_stretched_alpha_one_reduces_to_exponential():
    exp1 = GapDistribution.exponential(1.0)
    str1 = GapDistribution.stretched_exponential(1.0, 1.0)
    xs = np.linspace(0.0, 20.0, 257)
    np.testing.assert_allclose(str1.tail(xs), exp1.tail(xs), rtol=1e-14)


def test_geometric_tail_lattice_values():
    d = GapDistribution.geometric(0.5)
    assert d.tail(3.0) == pytest.approx(0.125)  # P(L >= 3) = q^3
    assert d.tail(2.5) == pytest.approx(0.125)  # ceil convention between integers
    assert d.tail(0.0) == 1.0


def test_pareto_tail_is_one_below_scale():
    d = GapDistribution.pareto(2.0, 3.0)
    assert d.tail(1.0) == 1.0
    assert d.tail(4.0) == pytest.approx(0.125)


@pytest.mark.parametrize("dist", ALL_DISTS, ids=lambda d: d.kind)
def test_tail_nonincreasing_on_dense_grid(dist):
    xs = np.linspace(0.0, 50.0, 1000)
    vals = dist.tail(xs)
    assert np.all(np.diff(vals) <= 0)
    assert vals[-1] < 1e-3


def test_tail_rejects_negative_argument():
    for x in (-0.1, math.nan, [1.0, math.nan]):
        with pytest.raises(ValueError):
            GapDistribution.exponential(1.0).tail(x)


def test_parameter_validation():
    with pytest.raises(ValueError):
        GapDistribution.exponential(0.0)
    with pytest.raises(ValueError):
        GapDistribution.pareto(1.0, 1.0)  # needs alpha > 1 for a finite mean
    with pytest.raises(ValueError):
        GapDistribution.geometric(1.0)
    with pytest.raises(ValueError):
        GapDistribution("weibull")


# ---------------------------------------------------------------------------
# sampling


def test_sampling_is_deterministic():
    d = GapDistribution.exponential(1.0)
    a = sample_gaps(d, 3, 42)
    b = sample_gaps(d, 3, 42)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, sample_gaps(d, 3, 43))


def reference_inverse_cdf(d, u):
    """The inverse CDFs as whole-array expressions, the reference for the in-place ones of ``sample``."""
    if d.kind == "exponential":
        return -np.log1p(-u) / d.eta
    if d.kind == "stretched":
        return (d.alpha * (-np.log1p(-u)) / d.eta) ** (1.0 / d.alpha)
    if d.kind == "pareto":
        return d.x_m * (1.0 - u) ** (-1.0 / d.alpha)
    return np.maximum(np.ceil(np.log1p(-u) / math.log(d.q) - 1.0), 0.0)


@pytest.mark.parametrize("dist", ALL_DISTS + [
    GapDistribution.exponential(2.5),
    GapDistribution.stretched_exponential(0.7, 0.5),  # exponent 2: numpy's squaring shortcut
    GapDistribution.stretched_exponential(1.3, 3.0),
    GapDistribution.pareto(0.2, 3.0),
    GapDistribution.geometric(0.9),
], ids=repr)
def test_in_place_sampling_matches_the_expressions_byte_for_byte(dist):
    got = dist.sample(10_000, np.random.default_rng(17))
    expected = reference_inverse_cdf(dist, np.random.default_rng(17).random(10_000))
    assert got.dtype == expected.dtype and got.tobytes() == expected.tobytes()


def test_pareto_samples_respect_support():
    g = sample_gaps(GapDistribution.pareto(1.0, 2.0), 10_000, 7)
    assert np.all(g >= 1.0)


def test_exponential_sample_mean_lln():
    n = 10**5
    g = sample_gaps(GapDistribution.exponential(1.0), n, 314)
    assert abs(g.mean() - 1.0) <= 3.0 / math.sqrt(n)


@pytest.mark.parametrize("dist", ALL_DISTS, ids=lambda d: d.kind)
def test_empirical_cdf_matches_tail_at_one_percent_ks(dist):
    n = 10**5
    g = np.sort(sample_gaps(dist, n, 2718))
    crit = 1.628 / math.sqrt(n)  # 1% Kolmogorov-Smirnov critical value
    if dist.kind == "geometric":
        # lattice law: compare exact CDF on the integer support (the continuous
        # critical value is conservative for discrete laws)
        ms = np.arange(0, int(g.max()) + 1)
        ecdf = np.searchsorted(g, ms, side="right") / n
        exact = 1.0 - dist.q ** (ms + 1)  # P(L <= m) = 1 - P(L >= m+1)
        assert np.max(np.abs(ecdf - exact)) < crit
    else:
        cdf = 1.0 - dist.tail(g)
        d_plus = np.max(np.arange(1, n + 1) / n - cdf)
        d_minus = np.max(cdf - np.arange(0, n) / n)
        assert max(d_plus, d_minus) < crit


def test_mean_values():
    assert GapDistribution.exponential(2.0).mean() == pytest.approx(0.5)
    assert GapDistribution.pareto(1.0, 3.0).mean() == pytest.approx(1.5)
    assert GapDistribution.geometric(0.5).mean() == pytest.approx(1.0)
    # stretched alpha=1 must agree with the plain exponential mean
    assert GapDistribution.stretched_exponential(2.0, 1.0).mean() == pytest.approx(0.5)
    # ... and against quadrature of the tail
    from scipy.integrate import quad
    d = GapDistribution.stretched_exponential(1.5, 2.0)
    ref, _ = quad(lambda x: d.tail(x), 0, np.inf)
    assert d.mean() == pytest.approx(ref, rel=1e-9)


# ---------------------------------------------------------------------------
# realizations


def test_build_realization_centers_cumulative_sum():
    real = build_realization([1.0, 1.0], l=0.25, h=1.0, X=3.0)
    np.testing.assert_allclose(real.centers, [1.25, 2.75])


def test_zero_gaps_make_adjacent_bumps():
    real = build_realization([1.0, 0.0, 0.0, 0.0], l=0.5, h=2.0, X=4.0)
    xs = np.linspace(real.centers[0] - 0.5, 4.0, 301)
    assert np.all(real.potential(xs) == 2.0)  # V == h from the first edge on


def test_center_gap_identity_to_roundoff():
    g = sample_gaps(GapDistribution.exponential(1.0), 500, 5)
    real = build_realization(g, l=0.3, h=1.0, X=float(g.sum()))
    resid = np.diff(real.centers) - 2 * real.l - g[1:]
    assert np.max(np.abs(resid)) < 1e-9


def test_strong_law_center_over_index():
    d = GapDistribution.exponential(1.0)
    l = 0.25
    g = sample_gaps(d, 2000, 101)
    real = build_realization(g, l=l, h=1.0, X=1000.0)
    k = 1000
    ratio = real.centers[k - 1] / k
    assert abs(ratio - mean_spacing(d, l)) / mean_spacing(d, l) < 0.05


def test_heavy_tail_draws_past_the_first_chunk():
    # Pareto(1, 1.05) has mean spacing near 21.5, so the first chunk at X = 1000 is 124 gaps, and
    # its heavy tail leaves X uncovered on many seeds; later chunks continue the same stream
    d = GapDistribution.pareto(1.0, 1.05)
    extended = 0
    for seed in range(20):
        gaps = sample_realization(d, 0.25, 1.0, 1000.0, np.random.default_rng(seed)).gaps
        extended += len(gaps) > 124
        np.testing.assert_array_equal(gaps, d.sample(len(gaps), np.random.default_rng(seed)))
    assert extended > 0


def test_coverage_error_names_the_problem():
    with pytest.raises(CoverageError, match="not covered"):
        build_realization([1.0], l=0.1, h=1.0, X=100.0)


def test_truncate_keeps_prefix():
    g = sample_gaps(GapDistribution.exponential(1.0), 2000, 123)
    real = build_realization(g, l=0.25, h=1.0, X=500.0)
    small = real.truncate(100.0)
    assert small.X == 100.0
    np.testing.assert_array_equal(small.gaps, real.gaps[: len(small.gaps)])
    assert small.centers[-1] + small.l >= 100.0


def test_potential_values_are_zero_or_h():
    g = sample_gaps(GapDistribution.exponential(1.0), 200, 4)
    real = build_realization(g, l=0.25, h=3.0, X=100.0)
    xs = np.linspace(0, 100.0, 4001)
    vals = real.potential(xs)
    assert set(np.unique(vals)) <= {0.0, 3.0}
    on_bump = real.centers[real.centers < 99]
    assert np.all(real.potential(on_bump) == 3.0)
    # NaN lies in no bump and outside none: an error, not 0.0
    for x in (np.array([real.centers[0], np.nan]), math.nan):
        with pytest.raises(ValueError, match="nan"):
            real.potential(x)


# ---------------------------------------------------------------------------
# bernoulli lattice


def test_bernoulli_near_one_is_a_single_run():
    real = bernoulli_lattice(1 - 1e-9, 100.0, 5, h=1.0)
    assert np.all(real.gaps[1:] == 0.0)  # all cells occupied: bumps adjacent


def test_bernoulli_centers_are_the_occupied_cells():
    p, X, seed = 0.3, 500.0, 4
    cells = np.random.default_rng(np.random.SeedSequence(seed)).random(500)
    occupied = np.flatnonzero(cells < p) + 1
    real = bernoulli_lattice(p, X, seed, h=1.0)
    k = len(occupied)
    np.testing.assert_array_equal(real.centers[:k], occupied)
    assert len(real.gaps) == k + int(occupied[-1] + 0.5 < X)  # phantom bump past trailing empty cells
    # no occupied cell: one phantom gap spans [0, X]
    np.testing.assert_array_equal(bernoulli_lattice(1e-12, 20.0, 1, h=1.0).gaps, [20.0])


def test_bernoulli_deterministic():
    a = bernoulli_lattice(0.5, 300.0, 11, h=1.0)
    b = bernoulli_lattice(0.5, 300.0, 11, h=1.0)
    np.testing.assert_array_equal(a.gaps, b.gaps)


def test_bernoulli_gap_tail_is_geometric():
    real = bernoulli_lattice(0.5, 10**5, 21, h=1.0)
    inner = real.gaps[1:-1]  # first gap carries the half-cell offset; last may pad
    n = len(inner)
    for m in range(1, 11):
        emp = float(np.mean(inner >= m))
        expect = 0.5**m
        se = math.sqrt(expect * (1 - expect) / n)
        assert abs(emp - expect) <= 4 * se + 1e-12


def test_bernoulli_pads_vacuum_up_to_x():
    # seed chosen freely; padding logic must keep V = 0 past the last bump
    real = bernoulli_lattice(0.3, 50.0, 2, h=1.0)
    assert real.centers[-1] + real.l >= 50.0
    assert real.potential(49.999) in (0.0, 1.0)


def test_bernoulli_validation():
    with pytest.raises(ValueError):
        bernoulli_lattice(0.0, 10.0, 1)
    with pytest.raises(ValueError):
        bernoulli_lattice(0.5, 0.5, 1)


# ---------------------------------------------------------------------------
# perturbations


def test_perturbation_shapes():
    w = Perturbation.log_power(2.0, 2.0)
    assert w(0.0) == pytest.approx(2.0)  # log(e) == 1
    xs = np.linspace(0, 1e4, 1000)
    assert np.all(np.diff(w(xs)) <= 0)
    p = Perturbation.power_law(3.0, 1.5)
    assert p(0.0) == pytest.approx(3.0)
    assert np.all(np.diff(p(xs)) <= 0)
    c = Perturbation.constant(0.7)
    assert np.all(c(xs) == 0.7)


def test_perturbation_validation():
    with pytest.raises(ValueError):
        Perturbation.log_power(0.0, 2.0)
    with pytest.raises(ValueError):
        Perturbation.constant(-1.0)
    with pytest.raises(ValueError):
        Perturbation("mystery")


@pytest.mark.parametrize("make", [
    lambda: Perturbation.log_power(math.inf, 2.0),
    lambda: Perturbation.log_power(2.0, math.nan),
    lambda: Perturbation.power_law(math.nan, 1.0),
    lambda: Perturbation.constant(math.nan),
    lambda: Perturbation.constant(math.inf),
    lambda: build_realization([1.0], l=math.inf, h=1.0, X=1.0),
    lambda: build_realization([1.0], l=0.5, h=math.inf, X=1.0),
    lambda: build_realization([1.0], l=math.nan, h=1.0, X=1.0),
], ids=["logpower-C", "logpower-s", "powerlaw-A", "constant-nan", "constant-inf",
        "realization-l-inf", "realization-h-inf", "realization-l-nan"])
def test_non_finite_model_parameters_rejected(make):
    with pytest.raises(ValueError):
        make()


# ---------------------------------------------------------------------------
# serialization


def test_roundtrip_is_byte_identical(tmp_path):
    g = sample_gaps(GapDistribution.exponential(1.0), 50, 77)
    real = build_realization(g, l=0.5, h=2.0, X=30.0)
    buf1, buf2 = io.StringIO(), io.StringIO()
    save_realization(real, buf1)
    save_realization(real, buf2)
    assert buf1.getvalue() == buf2.getvalue()
    path = tmp_path / "r.txt"
    path.write_text(buf1.getvalue())
    loaded = load_realization(str(path))
    assert (loaded.l, loaded.h, loaded.X) == (real.l, real.h, real.X)
    np.testing.assert_array_equal(loaded.gaps, real.gaps)
    buf3 = io.StringIO()
    save_realization(loaded, buf3)
    assert buf3.getvalue() == buf1.getvalue()


def test_header_format(tmp_path):
    real = build_realization([1.0, 2.0], l=0.5, h=1.0, X=4.0)
    path = tmp_path / "r.txt"
    save_realization(real, str(path))
    first = path.read_text().splitlines()[0]
    assert first == "l=0.5 h=1 X=4"


def test_parse_errors_carry_line_numbers(tmp_path):
    path = tmp_path / "r.txt"
    path.write_text("bogus header\n")
    with pytest.raises(RealizationParseError, match="line 1"):
        load_realization(str(path))
    path.write_text("l=0.5 h=1.0 X=2.0\n1.0\nnot-a-number\n")
    with pytest.raises(RealizationParseError, match="line 3"):
        load_realization(str(path))
    # a repeated key would let the last one win, and an unknown one would be dropped unread
    for header, match in (("l=0.25 h=100 X=50 X=60", "line 1: repeated header key 'X'"),
                          ("l=0.25 h=100 X=50 seed=7", "line 1: unknown header key 'seed'")):
        path.write_text(header + "\n1.0\n")
        with pytest.raises(RealizationParseError, match=match):
            load_realization(str(path))
