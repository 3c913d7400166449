"""Seeded trial harness for the finite/infinite borderline experiments.

A trial samples one gap sequence, truncates it at a growing list of
checkpoints and counts negative eigenvalues at each one.  A trial whose
count still moves between the last two checkpoints is classified as
growing; the fraction of growing trials separates sub- from
super-borderline envelopes.  Almost-sure statements are not decidable at
finite truncation, so checkpoint saturation over the last decade is the
declared proxy and is reported as such.

Trials derive their generators by mixing (master_seed, trial_index)
through a seed sequence, which makes whole experiments replayable and
lets trials run in parallel without sharing state.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from itertools import repeat
from typing import Iterator, Optional, Tuple

import numpy as np

from .randpot import GapDistribution, Perturbation, bernoulli_lattice, sample_gaps, sample_realization
from .spectral import CountCertificate, bracket_certificate, count_with_bracketed_w

__all__ = [
    "ExperimentConfig",
    "TrialResult",
    "GrowthReport",
    "CountEstimate",
    "run_trial",
    "run_experiment",
    "estimate_expected_count",
    "trial_csv_rows",
    "summary_csv_rows",
]

@dataclass(frozen=True)
class ExperimentConfig:
    """Seeded description of one borderline experiment.

    ``bc_mode`` selects whole-domain counting with Dirichlet ends (the
    default; enlarging a Dirichlet domain cannot lose negative modes, so
    growth classification is conservative) or the Dirichlet/Neumann
    interval-sum pair.  When ``lattice_p`` is set, realizations come from
    the unit-cell occupancy model instead of sampled gaps and ``dist``
    only documents the matching geometric law; ``l`` must then be 0.5.
    """

    dist: GapDistribution
    pert: Perturbation
    l: float
    h: float
    checkpoints: Tuple[float, ...] = (1e3, 1e4, 1e5)
    trials: int = 100
    master_seed: int = 0
    bc_mode: str = "whole-domain"
    refine: int = 4
    lattice_p: Optional[float] = None

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError("need at least one trial")
        if self.refine < 1:
            raise ValueError("refinement budget must be >= 1")
        cps = tuple(float(x) for x in self.checkpoints)
        if len(cps) == 0 or any(b <= a for a, b in zip(cps, cps[1:])):
            raise ValueError("checkpoints must be strictly increasing")
        if not all(0.0 < x < math.inf for x in cps):
            raise ValueError("checkpoints must be finite and positive")
        object.__setattr__(self, "checkpoints", cps)
        if self.bc_mode not in ("whole-domain", "bracket-DN"):
            raise ValueError("bc_mode must be 'whole-domain' or 'bracket-DN'")
        if not (self.l > 0 and self.h > 0 and math.isfinite(self.h)):
            raise ValueError("need finite positive bump geometry")
        if self.lattice_p is not None:
            if not 0.0 < self.lattice_p < 1.0:
                raise ValueError("lattice occupation probability must lie in (0, 1)")
            if self.l != 0.5:
                raise ValueError("lattice realizations fix the half-width at l = 0.5")


@dataclass(frozen=True)
class TrialResult:
    """Per-checkpoint certificates plus a small realization summary."""

    index: int
    certificates: Tuple[CountCertificate, ...]
    k_counts: Tuple[int, ...]
    max_gaps: Tuple[float, ...]

    @property
    def counts(self) -> Tuple[int, ...]:
        """Conservative (lower-end) count per checkpoint."""
        return tuple(c.n_lo for c in self.certificates)


@dataclass(frozen=True, eq=False)
class GrowthReport:
    """Aggregated experiment outcome; combination is order-independent."""

    config: ExperimentConfig
    mean_counts: Tuple[float, ...]
    median_counts: Tuple[float, ...]
    max_counts: Tuple[int, ...]
    growing_fraction: float
    trials: Tuple[TrialResult, ...]


def _trial_rng(master_seed: int, trial_index: int) -> np.random.Generator:
    seq = np.random.SeedSequence(entropy=master_seed, spawn_key=(trial_index,))
    return np.random.default_rng(seq)


def run_trial(cfg: ExperimentConfig, trial_index: int) -> TrialResult:
    """One deterministic trial: sample once, count at every checkpoint."""
    rng = _trial_rng(cfg.master_seed, trial_index)
    x_max = cfg.checkpoints[-1]
    if cfg.lattice_p is not None:
        real_full = bernoulli_lattice(cfg.lattice_p, x_max, rng, h=cfg.h)
    else:
        real_full = sample_realization(cfg.dist, cfg.l, cfg.h, x_max, rng)
    certs = []
    k_counts = []
    max_gaps = []
    for x in cfg.checkpoints:
        real_x = real_full.truncate(x)
        if cfg.bc_mode == "whole-domain":
            cert = count_with_bracketed_w(real_x, cfg.pert, bc="D", refine=cfg.refine)
        else:
            cert = bracket_certificate(real_x, cfg.pert, refine=cfg.refine)
        certs.append(cert)
        k = real_full.bumps_within(x)
        k_counts.append(k)
        max_gaps.append(float(np.max(real_full.gaps[:k])) if k else 0.0)
    return TrialResult(
        index=trial_index,
        certificates=tuple(certs),
        k_counts=tuple(k_counts),
        max_gaps=tuple(max_gaps),
    )


def run_experiment(cfg: ExperimentConfig, workers: int = 1) -> GrowthReport:
    """All trials plus per-checkpoint aggregates and the growth classification.

    Trials are independent; with ``workers > 1`` they run in at most
    ``cfg.trials`` separate processes and ``pool.map`` returns them in index
    order, so the report does not depend on completion order.
    """
    workers = min(workers, cfg.trials)
    if workers > 1:
        chunksize = max(1, cfg.trials // (4 * workers))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            trials = list(pool.map(run_trial, repeat(cfg), range(cfg.trials), chunksize=chunksize))
    else:
        trials = [run_trial(cfg, i) for i in range(cfg.trials)]

    counts = np.array([t.counts for t in trials], dtype=float)  # trials x checkpoints
    means = counts.mean(axis=0)
    medians = np.median(counts, axis=0)
    maxima = counts.max(axis=0).astype(int)
    if counts.shape[1] >= 2:
        growing = counts[:, -1] > counts[:, -2]
        growing_fraction = float(np.mean(growing))
    else:
        growing_fraction = 0.0
    return GrowthReport(
        config=cfg,
        mean_counts=tuple(float(v) for v in means),
        median_counts=tuple(float(v) for v in medians),
        max_counts=tuple(int(v) for v in maxima),
        growing_fraction=growing_fraction,
        trials=tuple(trials),
    )


@dataclass(frozen=True)
class CountEstimate:
    mean: float
    stderr: float
    samples: int


def estimate_expected_count(
    dist: GapDistribution, w: float, samples: int, seed: int
) -> CountEstimate:
    """Monte Carlo mean of floor(sqrt(w)*L/pi) over i.i.d. gap draws."""
    if samples < 10**3:
        raise ValueError("need at least 1000 samples for a stable standard error")
    if not w > 0:
        raise ValueError("weight must be positive")
    vals = np.floor(math.sqrt(w) * sample_gaps(dist, samples, seed) / math.pi)
    return CountEstimate(
        mean=float(vals.mean()),
        stderr=float(vals.std(ddof=1) / math.sqrt(samples)),
        samples=samples,
    )


def trial_csv_rows(report: GrowthReport) -> Iterator[Tuple]:
    """(trial, checkpoint_X, n_lo, n_hi, max_gap, k_count) rows."""
    for t in report.trials:
        for x, cert, mg, k in zip(report.config.checkpoints, t.certificates, t.max_gaps, t.k_counts):
            yield t.index, x, cert.n_lo, cert.n_hi, mg, k


def summary_csv_rows(report: GrowthReport) -> Iterator[Tuple]:
    """(checkpoint_X, mean, median, max, growing_fraction) rows."""
    for x, mean, med, mx in zip(
        report.config.checkpoints, report.mean_counts, report.median_counts, report.max_counts
    ):
        yield x, mean, med, mx, report.growing_fraction
