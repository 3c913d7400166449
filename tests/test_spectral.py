"""Counting machinery: oscillation counter, FD inertia oracle, brackets, wells."""

import math
import pickle
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from randkp import (
    GapDistribution,
    Perturbation,
    PiecewisePotential,
    WellGeometry,
    borderline,
    bracket_certificate,
    build_realization,
    count_negative_exact,
    count_with_bracketed_w,
    decoupled_count,
    edge_penetration_depth,
    fd_inertia_count,
    sample_gaps,
    sample_realization,
    sandwich_counts,
    well_ground_asymptotic,
    well_ground_state,
)
from randkp.spectral import (
    IntervalCounts, _domain_count, _edge_matching, _levels, _interface_negatives, _segment_counts, _sweep,
)

from prufer_oracle import propagate_count

PI = math.pi


def constant_well_count(w, X):
    # eigenvalues (n*pi/X)**2 - w for n >= 1 under D-D
    return sum(1 for n in range(1, int(math.sqrt(max(w, 0)) * X / PI) + 2) if (n * PI / X) ** 2 < w)


def random_piecewise(rng, max_pieces=50, x_lo=5.0, x_hi=80.0, q_max=10.0):
    n = int(rng.integers(2, max_pieces + 1))
    X = float(rng.uniform(x_lo, x_hi))
    bp = np.concatenate([[0.0], np.sort(rng.uniform(0, X, n - 1)), [X]])
    vals = rng.uniform(-q_max, q_max, n)
    return PiecewisePotential(bp, vals), X


# ---------------------------------------------------------------------------
# exact counter on closed-form cases


def test_constant_well_single_level():
    q = PiecewisePotential(np.array([0.0, PI]), np.array([-1.5]))
    cert = count_negative_exact(q)
    assert cert.n_lo == cert.n_hi == 1
    assert cert.method == "prufer-exact"


def test_constant_well_two_and_a_half_halfwaves():
    w = 1.0
    X = 2.5 * PI / math.sqrt(w)
    q = PiecewisePotential(np.array([0.0, X]), np.array([-w]))
    assert count_negative_exact(q).n_lo == 2


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_constant_well_matches_closed_form(seed):
    rng = np.random.default_rng(seed)
    for _ in range(20):
        w = float(rng.uniform(0.05, 30.0))
        X = float(rng.uniform(0.5, 20.0))
        q = PiecewisePotential(np.array([0.0, X]), np.array([-w]))
        assert count_negative_exact(q).n_lo == constant_well_count(w, X)


def test_neumann_constant_cases():
    # q == 0: N-N lowest eigenvalue is exactly 0, not negative
    q0 = PiecewisePotential(np.array([0.0, 7.0]), np.array([0.0]))
    assert count_negative_exact(q0, "N", "N").n_lo == 0
    # q == -w on [0, X] under N-N: count #{n >= 0 : (n pi/X)^2 < w}
    w, X = 2.0, 5.0
    qn = PiecewisePotential(np.array([0.0, X]), np.array([-w]))
    expect = sum(1 for n in range(0, 100) if (n * PI / X) ** 2 < w)
    assert count_negative_exact(qn, "N", "N").n_lo == expect


def test_translation_invariance():
    rng = np.random.default_rng(8)
    q, X = random_piecewise(rng)
    shifted = PiecewisePotential(q.breakpoints + 13.7, q.values)
    for bc in (("D", "D"), ("N", "N"), ("D", "N")):
        assert count_negative_exact(q, *bc).n_lo == count_negative_exact(shifted, *bc).n_lo


def test_bc_monotonicity_dd_below_nn():
    rng = np.random.default_rng(17)
    for _ in range(25):
        q, _ = random_piecewise(rng)
        dd = count_negative_exact(q, "D", "D").n_lo
        nn = count_negative_exact(q, "N", "N").n_lo
        dn = count_negative_exact(q, "D", "N").n_lo
        nd = count_negative_exact(q, "N", "D").n_lo
        assert dd <= dn <= nn
        assert dd <= nd <= nn


def test_exact_counter_survives_huge_barriers():
    # tall wide barrier between two wells: cosh would overflow without rescaling
    q = PiecewisePotential(
        np.array([0.0, 4.0, 104.0, 108.0]), np.array([-4.0, 1e8, -4.0])
    )
    n = count_negative_exact(q).n_lo
    # each well is near hard-wall: floor(2*4/pi) = 2 levels apiece
    assert n == 2 * math.floor(2 * 4.0 / PI)


def test_input_validation():
    with pytest.raises(ValueError):
        PiecewisePotential(np.array([0.0]), np.array([]))
    with pytest.raises(ValueError):
        PiecewisePotential(np.array([0.0, 1.0, 1.0]), np.array([1.0, 2.0]))
    q = PiecewisePotential(np.array([0.0, 1.0]), np.array([np.inf]))
    with pytest.raises(ValueError):
        count_negative_exact(q)
    qq = PiecewisePotential(np.array([0.0, 1.0]), np.array([-1.0]))
    with pytest.raises(ValueError):
        count_negative_exact(qq, "D", "X")


# ---------------------------------------------------------------------------
# finite-difference inertia oracle


def test_fd_zero_potential_is_positive():
    assert fd_inertia_count(lambda x: np.zeros_like(x), 10.0, 500) == 0


def test_fd_constant_well():
    assert fd_inertia_count(lambda x: np.full_like(x, -1.5), PI, 10**4) == 1


def test_fd_agrees_with_exact_on_random_instances():
    rng = np.random.default_rng(1001)
    agree = 0
    for _ in range(15):
        q, X = random_piecewise(rng)
        exact = count_negative_exact(q).n_lo
        fd = fd_inertia_count(q.evaluate, X, 50_000)
        agree += exact == fd
    assert agree >= 14  # an eigenvalue within FD error of 0 may flip rarely


def test_fd_neumann_agrees_with_exact():
    rng = np.random.default_rng(2002)
    for _ in range(8):
        q, X = random_piecewise(rng, max_pieces=20)
        exact = count_negative_exact(q, "N", "N").n_lo
        assert fd_inertia_count(q.evaluate, X, 100_000, "N") == exact


def test_fd_rejects_coarse_mesh():
    with pytest.raises(ValueError):
        fd_inertia_count(lambda x: np.zeros_like(x), 1.0, 5)


# ---------------------------------------------------------------------------
# bracketed counts with a decaying envelope


def small_realization(seed=3, X=300.0, l=0.25, h=25.0):
    d = GapDistribution.exponential(1.0)
    g = sample_gaps(d, 2000, seed)
    return build_realization(g, l=l, h=h, X=X)


def test_constant_w_bracket_is_exact():
    real = small_realization()
    cert = count_with_bracketed_w(real, Perturbation.constant(1.3), "D")
    assert cert.n_lo == cert.n_hi
    assert cert.converged


def test_bracket_width_nonincreasing_under_refinement():
    real = small_realization(seed=9)
    pert = Perturbation.log_power(3 * PI**2, 2.0)
    widths = [count_with_bracketed_w(real, pert, "D", refine=r).width for r in (4, 8, 16, 32)]
    assert all(a >= b for a, b in zip(widths, widths[1:]))


def test_logpower_bracket_tightens_and_contains_fd():
    # ~1e3 bumps; budget 32 must close the bracket to width <= 1 and the
    # independent FD count at mesh 1e6 must land inside it
    d = GapDistribution.exponential(1.0)
    g = sample_gaps(d, 3000, 41)
    real = build_realization(g, l=0.25, h=25.0, X=1500.0)
    assert real.bumps_within(real.X) >= 950
    pert = Perturbation.log_power(2 * PI**2, 2.0)
    cert = count_with_bracketed_w(real, pert, "D", refine=32)
    assert cert.width <= 1
    fd = fd_inertia_count(lambda x: real.potential(x) - pert(x), real.X, 10**6)
    assert cert.n_lo <= fd <= cert.n_hi


def test_w_monotonicity_of_counts():
    real = small_realization(seed=12)
    lo = count_with_bracketed_w(real, Perturbation.log_power(1.5 * PI**2, 2.0), "D")
    hi = count_with_bracketed_w(real, Perturbation.log_power(3.0 * PI**2, 2.0), "D")
    assert lo.n_lo <= hi.n_lo and lo.n_hi <= hi.n_hi


def test_zero_w_counts_nothing():
    real = small_realization(seed=6)
    # the unperturbed operator is nonnegative
    nd, cert, nn = sandwich_counts(real, Perturbation.constant(0.0))
    assert (nd, cert.n_lo, cert.n_hi, nn) == (0, 0, 0, 0)


def test_sandwich_chain_holds_on_seeded_instances():
    pert = Perturbation.log_power(2 * PI**2, 2.0)
    for seed in range(20):
        real = small_realization(seed=seed, X=200.0)
        nd, cert, nn = sandwich_counts(real, pert)
        assert nd <= cert.n_lo <= cert.n_hi <= nn


def test_bracket_certificate_intervals():
    real = small_realization(seed=2, X=150.0)
    pert = Perturbation.log_power(2 * PI**2, 2.0)
    cert = bracket_certificate(real, pert)
    assert cert.method == "bracket-DN"
    k_inside = real.bumps_within(150.0 - 1e-12)
    assert len(cert.per_interval) == k_inside + 1  # leading + one per center
    assert cert.n_lo == sum(d for _, d, _ in cert.per_interval)
    assert cert.n_hi == sum(n for _, _, n in cert.per_interval)
    assert all(d <= n for _, d, n in cert.per_interval)


@pytest.mark.parametrize("refine", [4, 16, 64])
def test_entry_points_agree_on_the_shared_refinement(refine):
    for seed in range(3):
        real = small_realization(seed=seed, X=200.0)
        for mult in (0.25, 4.0):
            pert = Perturbation.log_power(mult * PI**2, 2.0)
            whole = count_with_bracketed_w(real, pert, "D", refine=refine)
            assert sandwich_counts(real, pert, refine=refine)[1] == whole
            cert = bracket_certificate(real, pert, refine=refine)
            assert cert.n_lo == sum(d for _, d, _ in cert.per_interval)
            assert cert.n_hi == sum(n for _, _, n in cert.per_interval)


@settings(max_examples=400, derandomize=True, deadline=None)
@given(
    gaps=st.lists(st.one_of(st.just(0.0), st.floats(0.0, 6.0)), min_size=1, max_size=40),
    l=st.sampled_from([0.25, 0.5]),
    reach_share=st.floats(0.05, 1.0),
    refine=st.sampled_from([4, 16]),
)
def test_certificates_chain_and_order_in_w(gaps, l, reach_share, refine):
    # X is a share of the bumps' reach, so it often clips a bump or lands on a center
    X = reach_share * (sum(gaps) + 2.0 * l * len(gaps))
    real = build_realization(gaps, l=l, h=100.0, X=X)
    certs = {}
    for mult in (0.5, 4.0):
        pert = Perturbation.log_power(mult * PI**2, 2.0)
        n_d, whole, n_n = sandwich_counts(real, pert, refine=refine)
        assert n_d <= whole.n_lo <= whole.n_hi <= n_n
        dn = bracket_certificate(real, pert, refine=refine)
        assert dn.n_lo == sum(d for _, d, _ in dn.per_interval)
        assert dn.n_hi == sum(n for _, _, n in dn.per_interval)
        assert all(d <= n for _, d, n in dn.per_interval)
        certs[mult] = (whole, dn)
    # the true count is nondecreasing in W, so each bracket's lower end at
    # the smaller multiplier cannot pass its upper end at the larger one
    for small, large in zip(certs[0.5], certs[4.0]):
        assert small.n_lo <= large.n_hi


@settings(max_examples=300, derandomize=True, deadline=None)
@given(
    gaps=st.lists(st.one_of(st.just(0.0), st.floats(0.0, 6.0)), min_size=1, max_size=40),
    l=st.sampled_from([0.25, 0.5]),
    reach_share=st.floats(0.05, 1.0),
    refine=st.sampled_from([4, 16, 64]),
)
def test_segment_sweep_equals_scalar_counter(gaps, l, reach_share, refine):
    # the inputs of test_certificates_chain_and_order_in_w, plus refine 64; every level is checked
    X = reach_share * (sum(gaps) + 2.0 * l * len(gaps))
    real = build_realization(gaps, l=l, h=100.0, X=X)
    for mult in (0.5, 4.0):
        pert = Perturbation.log_power(mult * PI**2, 2.0)
        for _, (lengths, q_shallow, q_deep, seg_idx) in _levels(real, pert, refine):
            d, n = _segment_counts(_sweep(lengths, (q_shallow, q_deep), seg_idx))
            for e, values in enumerate((q_shallow, q_deep)):
                for bc, got in (("D", d[e]), ("N", n[e])):
                    expected = [
                        propagate_count(lengths[a:b], values[a:b], bc, bc)
                        for a, b in zip(seg_idx[:-1], seg_idx[1:])
                    ]
                    assert got.tolist() == expected


@settings(max_examples=300, derandomize=True, deadline=None)
@given(
    gaps=st.lists(st.one_of(st.just(0.0), st.floats(0.0, 6.0)), min_size=1, max_size=40),
    l=st.sampled_from([0.05, 0.25, 0.5]),
    h=st.sampled_from([0.5, 2.0, 100.0, 1e8]),
    reach_share=st.floats(0.05, 1.0),
    refine=st.sampled_from([4, 16]),
)
def test_whole_domain_count_equals_scalar_counter(gaps, l, h, reach_share, refine):
    # segment Dirichlet counts plus the interface Schur complement against one
    # walk over the whole domain, from weak (h <= 2) to stiff (h = 1e8) barriers
    X = reach_share * (sum(gaps) + 2.0 * l * len(gaps))
    real = build_realization(gaps, l=l, h=h, X=X)
    for mult in (0.5, 4.0):
        pert = Perturbation.log_power(mult * PI**2, 2.0)
        for _, (lengths, q_shallow, q_deep, seg_idx) in _levels(real, pert, refine):
            sweep = _sweep(lengths, (q_shallow, q_deep), seg_idx)
            for e, values in enumerate((q_shallow, q_deep)):
                for bc in ("D", "N"):
                    got = _domain_count(*(a[e] for a in sweep), bc, bc)
                    assert got == propagate_count(lengths, values, bc, bc)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(
    pieces=st.lists(
        st.tuples(
            st.floats(0.01, 5.0),
            st.one_of(st.just(0.0), st.tuples(st.sampled_from([-1.0, 1.0]), st.floats(-2.0, 8.0)).map(
                lambda se: se[0] * 10.0 ** se[1])),
        ),
        min_size=1, max_size=150,
    ),
    bc_left=st.sampled_from(["D", "N"]),
    bc_right=st.sampled_from(["D", "N"]),
)
def test_exact_counter_equals_scalar_counter(pieces, bc_left, bc_right):
    # up to 150 pieces, cut at every change of value; |q| up to 1e8
    lengths, values = np.array(pieces).T
    q = PiecewisePotential(np.concatenate([[0.0], np.cumsum(lengths)]), values)
    expected = propagate_count(q.lengths, q.values, bc_left, bc_right)
    assert count_negative_exact(q, bc_left, bc_right).n_lo == expected


def test_exact_zero_pivot_is_not_negative():
    # [[1, 1], [1, 1]] has eigenvalues 0 and 2: its last pivot is exactly 0 and is no negative mode
    assert _interface_negatives([1.0, 1.0], [1.0]) == 0
    # [[1, 1, 0], [1, 1, 1], [0, 1, 1]] has eigenvalues 1 - sqrt(2), 1, 1 + sqrt(2): the zero
    # pivot in the middle becomes tiny and positive, so the next one is the negative mode
    assert _interface_negatives([1.0, 1.0, 1.0], [1.0, 1.0]) == 1
    # q == 0 on three pieces under N-N: the constant function is an eigenvector at exactly 0
    assert count_negative_exact(PiecewisePotential(np.array([0.0, 1.0, 6.0, 7.0]), np.zeros(3)), "N", "N").n_lo == 0


def test_whole_domain_count_memory_is_bounded():
    # one X = 1e5 count holds no per-piece Python objects: about 55 MB, where a
    # scalar walk over list copies of the piece arrays peaks near 110 MB
    dist = GapDistribution.exponential(1.0)
    real = sample_realization(dist, 0.25, 100.0, 1e5, np.random.default_rng(1))
    pert = borderline(dist).perturbation(4.0)
    tracemalloc.start()
    try:
        count_with_bracketed_w(real, pert, "D", refine=4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 80e6


def test_per_interval_counts_are_an_immutable_int_sequence():
    real = small_realization(seed=4, X=300.0)
    cert = bracket_certificate(real, Perturbation.log_power(4 * PI**2, 2.0), refine=16)
    per = cert.per_interval
    triples = list(per)
    assert len(triples) == len(per) == real.bumps_within(300.0 - 1e-12) + 1
    assert all(type(v) is int for triple in triples for v in triple)
    assert [k for k, _, _ in triples] == list(range(len(per)))
    assert sum(d for _, d, _ in per) == cert.n_lo and sum(n for _, _, n in per) == cert.n_hi
    assert per[0] == triples[0] and per[-1] == triples[-1]
    with pytest.raises(IndexError):
        per[len(per)]
    # smallest unsigned dtype holding the largest count, read-only
    assert per.d.dtype == per.n.dtype == np.uint8
    assert not per.d.flags.writeable and not per.n.flags.writeable
    assert IntervalCounts(np.array([0, 300]), np.array([1, 70000])).n.dtype == np.uint32
    with pytest.raises(ValueError):
        IntervalCounts(np.array([-1]), np.array([0]))
    # equal to a copy, with the same hash; unequal to other counts
    copy = IntervalCounts(per.d.astype(np.int64), per.n.copy())
    assert copy == per and hash(copy) == hash(per)
    assert per != IntervalCounts(per.d, per.n + 1) and per != triples
    # run_experiment ships certificates between processes
    back = pickle.loads(pickle.dumps(cert))
    assert back == cert and hash(back) == hash(cert)
    assert not back.per_interval.d.flags.writeable


def test_hard_wall_interval_matches_floor_formula():
    rng = np.random.default_rng(55)
    h, l = 1e8, 0.5
    for _ in range(100):
        w = float(rng.uniform(0.05, 9.0))
        L = float(rng.uniform(0.2, 12.0))
        q = PiecewisePotential(
            np.array([0.0, l, l + L, L + 2 * l]), np.array([h - w, -w, h - w])
        )
        assert count_negative_exact(q).n_lo == math.floor(math.sqrt(w) * L / PI)


# ---------------------------------------------------------------------------
# decoupled hard-wall model


def test_decoupled_integer_products():
    assert decoupled_count([(PI**2, 1.0), (PI**2, 2.0), (PI**2, 3.0)]) == 6


def test_decoupled_all_below_threshold():
    assert decoupled_count([(0.1, 1.0), (0.05, 2.0)]) == 0


def test_decoupled_matches_exact_hard_wall_termwise():
    rng = np.random.default_rng(606)
    h, l = 1e8, 0.5
    pairs = rng.uniform(0.1, 8.0, (200, 2))
    for w, L in pairs:
        q = PiecewisePotential(
            np.array([0.0, l, l + L, L + 2 * l]), np.array([h - w, -w, h - w])
        )
        assert count_negative_exact(q).n_lo == decoupled_count([(w, L)])


def test_decoupled_validation():
    with pytest.raises(ValueError):
        decoupled_count([(-1.0, 2.0)])


# ---------------------------------------------------------------------------
# single-well ground state


def test_hard_wall_limit():
    geom = WellGeometry(L=1.0, l=1.0, h=1e8, bc="D")
    mu = well_ground_state(geom)
    assert abs(mu - (PI / 2) ** 2) / (PI / 2) ** 2 < 1e-3


def test_neumann_root_below_dirichlet():
    mu_d = well_ground_state(WellGeometry(L=10.0, l=1.0, h=1.0, bc="D"))
    mu_n = well_ground_state(WellGeometry(L=10.0, l=1.0, h=1.0, bc="N"))
    assert mu_n < mu_d


def test_root_matches_asymptotic_at_large_l():
    for bc in ("D", "N"):
        geom = WellGeometry(L=100.0, l=1.0, h=1.0, bc=bc)
        root, asym = well_ground_state(geom), well_ground_asymptotic(geom)
        assert abs(math.sqrt(root) - math.sqrt(asym)) / math.sqrt(root) <= 1e-3


def test_penetration_depth_values():
    assert edge_penetration_depth(1.0, 1.0, "D") == pytest.approx(math.tanh(1.0))
    assert edge_penetration_depth(1.0, 1.0, "N") == pytest.approx(1 / math.tanh(1.0))
    # hard-wall limit: no leakage
    assert edge_penetration_depth(1e10, 1.0, "D") < 2e-5


def test_remainder_scales_like_inverse_cube():
    for bc in ("D", "N"):
        scaled = []
        for L in (25.0, 50.0, 100.0, 200.0):
            geom = WellGeometry(L=L, l=1.0, h=1.0, bc=bc)
            err = abs(math.sqrt(well_ground_state(geom)) - math.sqrt(well_ground_asymptotic(geom)))
            scaled.append(err * L**3)
        assert max(scaled) / min(scaled) < 4.0


@pytest.mark.parametrize(
    "geom",
    [
        WellGeometry(L=25.0, l=1.0, h=1.0, bc="D"),
        WellGeometry(L=25.0, l=1.0, h=1.0, bc="N"),
        WellGeometry(L=1.0, l=1.0, h=1e8, bc="D"),
        WellGeometry(L=100.0, l=0.5, h=4.0, bc="N"),
    ],
    ids=["D-soft", "N-soft", "D-hardwall", "N-wide"],
)
def test_root_residual(geom):
    k = math.sqrt(well_ground_state(geom))
    rhs = _edge_matching(k, geom.h, geom.l, geom.bc)
    assert abs(k * math.tan(k * geom.L) - rhs) <= 1e-9 * (1.0 + abs(rhs))
