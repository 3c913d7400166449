"""Seeded trial harness for the finite/infinite borderline experiments.

A trial samples one gap sequence and counts negative eigenvalues on its
truncations at a growing list of checkpoints, all settled from one streamed
pass over the largest (each certificate is bit-identical to a count on the
truncation itself).  A trial whose count still moves between the last two
checkpoints is classified as growing; the fraction of growing trials
separates sub- from super-borderline envelopes.  Almost-sure statements are not decidable at
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
from typing import Optional, Tuple

import numpy as np

from .randpot import GapDistribution, Perturbation, bernoulli_lattice, sample_gaps, sample_realization
from .spectral import CountCertificate, _certificates, _dn_certificate

__all__ = [
    "ExperimentConfig",
    "TrialResult",
    "GrowthReport",
    "CountEstimate",
    "run_trial",
    "run_experiment",
    "estimate_expected_count",
]

@dataclass(frozen=True)
class ExperimentConfig:
    """Seeded description of one borderline experiment.

    ``bc_mode`` selects whole-domain counting with Dirichlet ends (the
    default; enlarging a Dirichlet domain cannot lose negative modes, so
    growth classification is conservative) or the Dirichlet/Neumann
    interval-sum pair of ``sandwich_counts``, read off the level where the
    whole-domain count settles.  When ``lattice_p`` is set, realizations
    come from the unit-cell occupancy model instead of sampled gaps and
    ``dist`` only documents the matching geometric law; ``l`` must then be
    0.5.
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
            raise ValueError(f"bc_mode must be 'whole-domain' or 'bracket-DN', got {self.bc_mode!r}")
        if not (0 < self.l < math.inf and 0 < self.h < math.inf):
            raise ValueError(f"bump geometry needs finite l > 0 and h > 0, got l={self.l!r}, h={self.h!r}")
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

    mean_counts: Tuple[float, ...]
    median_counts: Tuple[float, ...]
    max_counts: Tuple[int, ...]
    growing_fraction: float
    trials: Tuple[TrialResult, ...]
    unconverged: Tuple[int, ...]  # per checkpoint, the certificates flagged unconverged


def _trial_rng(master_seed: int, trial_index: int) -> np.random.Generator:
    seq = np.random.SeedSequence(entropy=master_seed, spawn_key=(trial_index,))
    return np.random.default_rng(seq)


def run_trial(cfg: ExperimentConfig, trial_index: int) -> TrialResult:
    """One deterministic trial: sample once, count every checkpoint in one pass."""
    rng = _trial_rng(cfg.master_seed, trial_index)
    x_max = cfg.checkpoints[-1]
    if cfg.lattice_p is not None:
        real_full = bernoulli_lattice(cfg.lattice_p, x_max, rng, h=cfg.h)
    else:
        real_full = sample_realization(cfg.dist, cfg.l, cfg.h, x_max, rng)
    records = _certificates(real_full, cfg.pert, cfg.checkpoints, cfg.refine)
    certs = [r[0] if cfg.bc_mode == "whole-domain" else _dn_certificate(r) for r in records]
    k_counts = [real_full.bumps_within(x) for x in cfg.checkpoints]
    max_gaps = [float(np.max(real_full.gaps[:k])) if k else 0.0 for k in k_counts]
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
        mean_counts=tuple(float(v) for v in means),
        median_counts=tuple(float(v) for v in medians),
        max_counts=tuple(int(v) for v in maxima),
        growing_fraction=growing_fraction,
        trials=tuple(trials),
        unconverged=tuple(sum(not c.converged for c in certs) for certs in zip(*(t.certificates for t in trials))),
    )


@dataclass(frozen=True)
class CountEstimate:
    mean: float
    stderr: float


def estimate_expected_count(
    dist: GapDistribution, w: float, samples: int, seed: int
) -> CountEstimate:
    """Monte Carlo mean of floor(sqrt(w)*L/pi) over i.i.d. gap draws."""
    if samples < 10**3:
        raise ValueError("need at least 1000 samples for a stable standard error")
    if not 0 < w < math.inf:
        raise ValueError(f"weight must be positive and finite, got w={w!r}")
    vals = np.floor(math.sqrt(w) * sample_gaps(dist, samples, seed) / math.pi)
    return CountEstimate(
        mean=float(vals.mean()),
        stderr=float(vals.std(ddof=1) / math.sqrt(samples)),
    )
