"""Trial harness: determinism, oracles, aggregation, growth classification."""

import math

import numpy as np
import pytest

from randkp import (
    ExperimentConfig,
    GapDistribution,
    Perturbation,
    decoupled_count,
    estimate_expected_count,
    expectation_bounds,
    run_experiment,
    run_trial,
)
from randkp import montecarlo
from randkp.montecarlo import summary_csv_rows, trial_csv_rows

PI = math.pi
EXP1 = GapDistribution.exponential(1.0)


def small_cfg(**overrides):
    base = dict(
        dist=EXP1,
        pert=Perturbation.log_power(2 * PI**2, 2.0),
        l=0.25,
        h=25.0,
        checkpoints=(100.0, 300.0, 1000.0),
        trials=6,
        master_seed=77,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def test_zero_perturbation_counts_nothing():
    cfg = small_cfg(pert=Perturbation.constant(0.0), trials=3)
    rep = run_experiment(cfg)
    for t in rep.trials:
        assert t.counts == (0, 0, 0)


def test_trial_determinism():
    cfg = small_cfg()
    assert run_trial(cfg, 4) == run_trial(cfg, 4)
    assert run_trial(cfg, 4) != run_trial(cfg, 5)


def test_counts_nondecreasing_under_dirichlet_truncation():
    cfg = small_cfg(trials=10)
    rep = run_experiment(cfg)
    for t in rep.trials:
        counts = t.counts
        assert all(a <= b for a, b in zip(counts, counts[1:]))


def test_bracket_mode_contains_whole_domain():
    whole = run_experiment(small_cfg(trials=5))
    brack = run_experiment(small_cfg(trials=5, bc_mode="bracket-DN"))
    for tw, tb in zip(whole.trials, brack.trials):
        for cw, cb in zip(tw.certificates, tb.certificates):
            assert cb.n_lo <= cw.n_hi  # D-sum below the whole count
            assert cw.n_lo <= cb.n_hi  # whole count below the N-sum


def test_single_trial_report_is_the_trial():
    cfg = small_cfg(trials=1)
    rep = run_experiment(cfg)
    t = rep.trials[0]
    assert rep.mean_counts == tuple(float(c) for c in t.counts)
    assert rep.median_counts == rep.mean_counts
    assert rep.max_counts == t.counts


def test_parallel_equals_serial():
    cfg = small_cfg(trials=4)
    serial = run_experiment(cfg, workers=1)
    parallel = run_experiment(cfg, workers=2)
    assert serial.trials == parallel.trials
    assert serial.growing_fraction == parallel.growing_fraction


def test_parallel_equals_serial_in_bracket_mode():
    # per-interval counts cross the process boundary and still compare equal
    cfg = small_cfg(trials=4, bc_mode="bracket-DN")
    serial = run_experiment(cfg, workers=1)
    parallel = run_experiment(cfg, workers=2)
    assert all(c.per_interval is not None for t in parallel.trials for c in t.certificates)
    assert serial.trials == parallel.trials


def test_hard_wall_trial_matches_decoupled_model():
    # tall bumps decouple the wells; whole-domain D count must match the
    # floor-formula sum over wells fully inside, give or take the clipped one
    w = 2.5
    cfg = ExperimentConfig(
        dist=EXP1,
        pert=Perturbation.constant(w),
        l=0.5,
        h=1e8,
        checkpoints=(500.0,),
        trials=1,
        master_seed=31,
    )
    trial = run_trial(cfg, 0)
    cert = trial.certificates[0]
    assert cert.n_lo == cert.n_hi  # constant W: bracket exact

    rng = np.random.default_rng(np.random.SeedSequence(entropy=31, spawn_key=(0,)))
    gaps = cfg.dist.sample(int(1.3 * 500 / (1 + 2 * cfg.l)) + 64, rng)
    from randkp import build_realization
    real = build_realization(gaps, cfg.l, cfg.h, 500.0)
    centers = real.centers
    X = 500.0
    wells = [(w, float(real.gaps[0]))]  # leading well [0, x_1 - l]
    clipped = 0
    for k in range(len(centers) - 1):
        if centers[k] >= X:
            break
        right_edge = centers[k + 1] - real.l
        if right_edge <= X:
            wells.append((w, float(real.gaps[k + 1])))
        else:
            clipped += 1
            break
    expect = decoupled_count(wells)
    assert abs(cert.n_lo - expect) <= 1 + clipped


def test_growth_separation_regression():
    # frozen first-run fractions for this exact seed and grid
    sub = run_experiment(small_cfg(
        pert=Perturbation.log_power(0.25 * PI**2, 2.0), trials=20, h=100.0,
        checkpoints=(100.0, 1000.0), master_seed=2024))
    sup = run_experiment(small_cfg(
        pert=Perturbation.log_power(4 * PI**2, 2.0), trials=20, h=100.0,
        checkpoints=(100.0, 1000.0), master_seed=2024))
    assert sub.growing_fraction <= 0.1
    assert sup.growing_fraction >= 0.9
    assert sub.growing_fraction == pytest.approx(GROWING_FRACTION_SUB)
    assert sup.growing_fraction == pytest.approx(GROWING_FRACTION_SUPER)


# first-run regression values for test_growth_separation_regression
GROWING_FRACTION_SUB = 0.0
GROWING_FRACTION_SUPER = 1.0


def test_lattice_trials_use_occupancy_model():
    q = GapDistribution.geometric(0.5)
    cfg = ExperimentConfig(
        dist=q,
        pert=Perturbation.log_power(4 * PI**2 * math.log(2) ** 2, 2.0),
        l=0.5,
        h=100.0,
        checkpoints=(200.0, 1000.0),
        trials=3,
        master_seed=9,
        lattice_p=0.5,
    )
    rep = run_experiment(cfg)
    assert rep.trials[0] == run_trial(cfg, 0)
    # occupied-cell count ~ Binomial(1000, 1/2): far from the renewal default
    assert 380 <= rep.trials[0].k_counts[-1] <= 620


def test_lattice_config_validation():
    with pytest.raises(ValueError):
        small_cfg(lattice_p=0.5)  # l must be 0.5
    with pytest.raises(ValueError):
        small_cfg(l=0.5, lattice_p=1.5)


def test_coverage_cap_raises(monkeypatch):
    import randkp.randpot as randpot
    from randkp import CoverageError
    monkeypatch.setattr(randpot, "_GAP_CAP", 50)
    cfg = small_cfg(checkpoints=(10_000.0,), trials=1)
    with pytest.raises(CoverageError, match="could not cover"):
        run_trial(cfg, 0)


def test_config_validation():
    with pytest.raises(ValueError):
        small_cfg(trials=0)
    with pytest.raises(ValueError):
        small_cfg(checkpoints=(100.0, 50.0))
    with pytest.raises(ValueError):
        small_cfg(bc_mode="periodic")
    with pytest.raises(ValueError):
        small_cfg(h=math.inf)


def test_refine_budget_validated():
    with pytest.raises(ValueError, match="refinement budget"):
        small_cfg(refine=0)


def test_pool_is_capped_at_trial_count(monkeypatch):
    # a stand-in pool records its size and maps serially, so no process is started
    sizes = []

    class SerialPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables, chunksize=1):
            return map(fn, *iterables)

    monkeypatch.setattr(montecarlo, "ProcessPoolExecutor", SerialPool)
    cfg = small_cfg(trials=2, checkpoints=(100.0, 200.0))
    assert run_experiment(cfg, workers=3).trials == run_experiment(cfg, workers=1).trials
    assert sizes == [2]
    run_experiment(small_cfg(trials=1, checkpoints=(100.0,)), workers=3)
    assert sizes == [2]  # one trial runs in this process


# ---------------------------------------------------------------------------
# per-well expectation estimator


def test_estimator_inside_bounds():
    est = estimate_expected_count(EXP1, 1.0, 10**5, 441)
    lo, hi = expectation_bounds(EXP1, 1.0)
    assert lo - 3 * est.stderr <= est.mean <= hi + 3 * est.stderr


def test_estimator_zero_when_no_level_fits():
    # pareto gaps capped near x_m and w so small that pi/sqrt(w) >> typical L
    d = GapDistribution.pareto(1.0, 5.0)
    est = estimate_expected_count(d, 1e-4, 10**4, 3)
    assert est.mean == 0.0


def test_stderr_clt_scaling():
    a = estimate_expected_count(EXP1, 1.0, 10**4, 5)
    b = estimate_expected_count(EXP1, 1.0, 2 * 10**4, 5)
    assert a.stderr / b.stderr == pytest.approx(math.sqrt(2.0), rel=0.12)


def test_estimator_validation():
    with pytest.raises(ValueError):
        estimate_expected_count(EXP1, 1.0, 999, 0)
    with pytest.raises(ValueError):
        estimate_expected_count(EXP1, 0.0, 1000, 0)


# ---------------------------------------------------------------------------
# CSV row shapes


def test_csv_rows_shapes():
    rep = run_experiment(small_cfg(trials=2))
    trows = list(trial_csv_rows(rep))
    assert len(trows) == 2 * 3
    assert all(len(r) == 6 for r in trows)
    srows = list(summary_csv_rows(rep))
    assert len(srows) == 3
    assert all(len(r) == 5 for r in srows)
    assert srows[0][4] == rep.growing_fraction
