"""The four benchmark workloads.

Each workload turns the run's seed into inputs, runs one fixed job (the work
a user waits for), and checks every count the job produced.  A job returns
the number of work units it finished, the checks that failed, and a record
of every count, whose hash is the run's digest.  The traced run adds a
replay that cross-checks the job stage by stage, and ``probe_unused_layers``
makes one small call into each public layer the workload does not use, so
every per-layer figure is measured on every workload.

Why these four: see README.md in this directory.
"""

from __future__ import annotations

import math
import os
import traceback
from dataclasses import dataclass, field, replace
from typing import Any, List, Optional, Tuple

import numpy as np

from randkp import (
    ExperimentConfig,
    GapDistribution,
    Perturbation,
    PiecewisePotential,
    WellGeometry,
    bc_sum,
    bernoulli_lattice,
    borderline,
    bracket_certificate,
    build_realization,
    count_negative_exact,
    count_with_bracketed_w,
    estimate_expected_count,
    expectation_bounds,
    fd_inertia_count,
    load_realization,
    mean_spacing,
    run_experiment,
    run_trial,
    sample_gaps,
    sandwich_counts,
    save_realization,
    well_ground_asymptotic,
    well_ground_state,
)
from randkp.cli import main as cli_main

from tracing import Tracer

PI = math.pi


@dataclass
class JobResult:
    units: int = 0
    failures: List[Tuple[str, str]] = field(default_factory=list)  # (work unit, message)
    record: List[Any] = field(default_factory=list)  # every count, in a fixed order
    cert_width_sum: int = 0  # sum of n_hi - n_lo over whole-domain certificates
    unconverged: int = 0
    dn_gap_sum: int = 0  # sum of n_N - n_D over Dirichlet/Neumann pairs
    fd_near_ties: int = 0  # FD counts off the exact count but inside the tolerance bracket
    reports: List[Any] = field(default_factory=list)  # raw results the replay checks against

    def fail(self, unit: str, what: str) -> None:
        self.failures.append((unit, what))


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, stream]))


def _grid_counts(real) -> Tuple[int, int, int]:
    """(well pieces, bump pieces, renewal segments) of the counting grid on [0, X].

    Derived from public data: the grid cuts [0, X] at bump edges, bump
    centers and the domain ends; segments run between consecutive centers.
    """
    X, c, l = real.X, real.centers, real.l
    inside = c[(c > 0) & (c < X)]
    edges = np.unique(np.concatenate([[0.0, X], np.clip(c - l, 0.0, X), inside, np.clip(c + l, 0.0, X)]))
    in_bump = np.asarray(real.potential(0.5 * (edges[:-1] + edges[1:]))) > 0
    return int(np.count_nonzero(~in_bump)), int(np.count_nonzero(in_bump)), len(inside) + 1


def _subpieces(real, refine: int) -> int:
    """Sub-pieces of a single-level (refine <= 4) grid: wells get ``refine``, bumps one."""
    wells, bumps, _ = _grid_counts(real)
    return wells * refine + bumps


def _check_chain(res: JobResult, where: str, n_d: int, n_lo: int, n_hi: int, n_n: int) -> None:
    if not n_d <= n_lo <= n_hi <= n_n:
        res.fail(where, f"chain n_D={n_d} <= n_lo={n_lo} <= n_hi={n_hi} <= n_N={n_n} violated")


class Workload:
    name = ""

    def __init__(self, seed: int, quick: bool, workdir: str, tr: Tracer):
        self.seed = seed
        self.quick = quick
        self.workdir = workdir
        self.tr = tr

    def setup(self) -> None:
        """Make the inputs and warm up; repeatable."""

    def job(self) -> JobResult:
        raise NotImplementedError

    def replay(self, first: JobResult) -> List[Tuple[str, str]]:
        """Traced run only: stage-by-stage cross-checks of ``first``; returns (unit, message) failures."""
        return []


# ---------------------------------------------------------------------------
# growth experiments


class Growth(Workload):
    """Criteria 7/8-style growth runs through ``run_experiment`` on all cores."""

    bc_mode = ""
    laws: Tuple[str, ...] = ()
    checkpoints: Tuple[float, ...] = ()
    quick_checkpoints: Tuple[float, ...] = ()
    trials = 2
    multipliers = (0.25, 4.0)

    def __init__(self, *args):
        super().__init__(*args)
        self.workers = os.cpu_count() or 1
        self.configs: List[Tuple[str, ExperimentConfig]] = []

    def setup(self) -> None:
        tr = self.tr
        cps = self.quick_checkpoints if self.quick else self.checkpoints
        self.configs = []
        for law in self.laws:
            lattice_p = 0.5 if law == "bernoulli" else None
            dist = GapDistribution.geometric(0.5) if lattice_p else GapDistribution.exponential(1.0)
            c0 = tr.call("theory.borderline", borderline, dist).constant
            for mult in self.multipliers:
                cfg = ExperimentConfig(
                    dist=dist, pert=Perturbation.log_power(mult * c0, 2.0),
                    l=0.5 if lattice_p else 0.25, h=100.0, checkpoints=cps,
                    trials=self.trials, master_seed=self.seed, bc_mode=self.bc_mode,
                    refine=4, lattice_p=lattice_p,
                )
                self.configs.append((f"{law}/m{mult:g}", cfg))
        # warm-up: one short trial per law, outside the timed job
        for _, cfg in self.configs[:: len(self.multipliers)]:
            run_trial(replace(cfg, checkpoints=(100.0,)), 0)

    def job(self) -> JobResult:
        res = JobResult()
        for label, cfg in self.configs:
            self.tr.unit = label
            try:
                rep = self.tr.call("montecarlo.run_experiment", run_experiment, cfg, workers=self.workers,
                                   work={"trials": cfg.trials, "workers": self.workers})
            except Exception:
                res.units += cfg.trials
                for i in range(cfg.trials):
                    res.fail(f"{label}/trial{i}", f"run_experiment raised\n{traceback.format_exc()}")
                res.record.append([label, "error"])
                res.reports.append(None)
                continue
            res.reports.append(rep)
            res.units += len(rep.trials)
            trials = []
            for t in rep.trials:
                where = f"{label}/trial{t.index}"
                certs = t.certificates
                for k, c in enumerate(certs):
                    res.unconverged += not c.converged
                    if self.bc_mode == "bracket-DN":
                        res.dn_gap_sum += c.n_hi - c.n_lo
                        d_sum = sum(d for _, d, _ in c.per_interval)
                        n_sum = sum(n for _, _, n in c.per_interval)
                        if (d_sum, n_sum) != (c.n_lo, c.n_hi) or any(d > n for _, d, n in c.per_interval):
                            res.fail(where, f"X={cfg.checkpoints[k]:g}: per-interval D/N counts inconsistent")
                    else:
                        res.cert_width_sum += c.width
                # Dirichlet domains nest: N(X_k) <= N(X_k+1), so each lower end is
                # at most the next upper end.
                for k in range(len(certs) - 1):
                    if certs[k].n_lo > certs[k + 1].n_hi:
                        res.fail(where, f"n_lo at X={cfg.checkpoints[k]:g} exceeds n_hi at the next checkpoint")
                trials.append([[c.n_lo, c.n_hi, int(c.converged)] for c in certs] + [list(t.k_counts)])
            res.record.append([label, rep.growing_fraction, trials])
        self.tr.unit = None
        return res

    def replay(self, first: JobResult) -> List[Tuple[str, str]]:
        """Serial ``run_trial`` and a staged replay of every trial, against the parallel job."""
        failures = []
        for (label, cfg), rep in zip(self.configs, first.reports):
            if rep is None:
                continue
            for i in range(cfg.trials):
                self.tr.unit = f"{label}/trial{i}"
                serial = self.tr.call("montecarlo.run_trial", run_trial, cfg, i)
                if serial != rep.trials[i]:
                    failures.append((self.tr.unit, f"run_trial differs from run_experiment (workers={self.workers})"))
                staged = self._staged(cfg, i)
                if staged != list(rep.trials[i].certificates):
                    failures.append((self.tr.unit, "staged replay differs from run_trial"))
        self.tr.unit = None
        return failures

    def _staged(self, cfg: ExperimentConfig, i: int):
        """One trial rebuilt from public calls: sample, build, truncate, count."""
        tr = self.tr
        rng = np.random.default_rng(np.random.SeedSequence(entropy=cfg.master_seed, spawn_key=(i,)))
        x_max = cfg.checkpoints[-1]
        if cfg.lattice_p is not None:
            real = tr.call("randpot.bernoulli_lattice", bernoulli_lattice, cfg.lattice_p, x_max, rng,
                           h=cfg.h, work={"cells": math.floor(x_max)})
        else:
            # the harness's covering rule: draw 1.3 X / mean spacing gaps (+64)
            # at a time until the bumps reach X
            chunk = int(1.3 * x_max / mean_spacing(cfg.dist, cfg.l)) + 64
            gaps = tr.call("randpot.sample", cfg.dist.sample, chunk, rng, work={"gaps": chunk})
            while gaps.sum() + 2.0 * cfg.l * len(gaps) < x_max:
                more = tr.call("randpot.sample", cfg.dist.sample, chunk, rng, work={"gaps": chunk})
                gaps = np.concatenate([gaps, more])
            real = tr.call("randpot.build_realization", build_realization, gaps, cfg.l, cfg.h, x_max)
        certs = []
        for x in cfg.checkpoints:
            real_x = tr.call("randpot.truncate", real.truncate, x)
            if cfg.bc_mode == "whole-domain":
                certs.append(tr.call("spectral.count_with_bracketed_w", count_with_bracketed_w, real_x, cfg.pert,
                                     bc="D", refine=cfg.refine, work={"subpieces": _subpieces(real_x, cfg.refine)}))
            else:
                certs.append(tr.call("spectral.bracket_certificate", bracket_certificate, real_x, cfg.pert,
                                     refine=cfg.refine, work={"segments": _grid_counts(real_x)[2]}))
        return certs


class GrowthWhole(Growth):
    name = "growth-whole"
    bc_mode = "whole-domain"
    laws = ("exp", "bernoulli")
    checkpoints = (1e3, 1e4, 1e5)
    quick_checkpoints = (1e2, 1e3)


class GrowthDN(Growth):
    name = "growth-dn"
    bc_mode = "bracket-DN"
    laws = ("exp",)
    checkpoints = (1e2, 1e3, 1e4)
    quick_checkpoints = (1e2, 3e2)


# ---------------------------------------------------------------------------
# randkp count at refine=64


COUNT_C = 16 * PI**2


def replay_counts(tr: Tracer, paths: List[str], c: float, refine: int,
                  expected: List[Optional[Tuple[int, int, int, int]]], scratch: str
                  ) -> Tuple[List[Tuple[str, str]], List[int]]:
    """Recount each file by the CLI and, right after, through the library; check both.

    Per file: ``randkp count`` must repeat the ``expected`` rows (if given);
    ``load_realization`` + ``sandwich_counts`` must equal the CLI rows; and
    ``save_realization`` must reproduce the file.  The CLI call and the library
    calls run back to back under one work-unit id, so the CLI's self time is
    their difference measured at the same machine speed.  Returns the failures
    and, per file, the smallest refine budget that gives the same certificate
    as ``refine`` (found with untraced calls).
    """
    res, levels = JobResult(), []
    pert = Perturbation.log_power(c, 2.0)
    for path, want in zip(paths, expected):
        tr.unit = "replay:" + os.path.basename(path)
        rows = cli_count(tr, path, os.path.join(scratch, "recount.csv"), c, refine, res)
        if want is not None and rows != want:
            res.fail(tr.unit, f"randkp count rows {rows} differ from the job's {want}")
        real = tr.call("randpot.load_realization", load_realization, path)
        n_d, cert, n_n = tr.call("spectral.sandwich_counts", sandwich_counts, real, pert, refine=refine)
        if (cert.n_lo, cert.n_hi, n_d, n_n) != rows:
            res.fail(tr.unit, f"sandwich_counts {(cert.n_lo, cert.n_hi, n_d, n_n)} != randkp count rows {rows}")
        copy = os.path.join(scratch, "resaved.txt")
        tr.call("randpot.save_realization", save_realization, real, copy)
        with open(path) as a, open(copy) as b:
            if a.read() != b.read():
                res.fail(tr.unit, "save(load(file)) does not reproduce the file")
        level, budget = refine, 4
        while budget < refine:
            if sandwich_counts(real, pert, refine=budget) == (n_d, cert, n_n):
                level = budget
                break
            budget *= 2
        levels.append(level)
    tr.unit = None
    return res.failures, levels


def cli_count(tr: Tracer, path: str, csv_path: str, c: float, refine: int,
              res: JobResult) -> Optional[Tuple[int, int, int, int]]:
    """``randkp count`` on one file; returns (n_lo, n_hi, n_D, n_N) or None on failure."""
    args = ["count", f"in={path}", "W=logpower", f"C={c!r}", "s=2", f"refine={refine}", f"out={csv_path}"]
    rc = tr.call("cli.count", cli_main, args)
    if rc != 0:
        res.fail(tr.unit, f"randkp count exited {rc}")
        return None
    with open(csv_path) as fh:
        rows = {r[0]: (int(r[1]), int(r[2])) for r in (line.strip().split(",") for line in fh)
                if r[0] in ("whole-domain", "bracket-DN")}
    (n_lo, n_hi), (n_d, n_n) = rows["whole-domain"], rows["bracket-DN"]
    return n_lo, n_hi, n_d, n_n


def cli_generate(tr: Tracer, path: str, X: float, seed: int) -> None:
    args = ["generate", "dist=exp", "eta=1", "l=0.25", "h=100", f"X={X:g}", f"seed={seed}", f"out={path}"]
    rc = tr.call("cli.generate", cli_main, args)
    if rc != 0:
        raise RuntimeError(f"randkp generate exited {rc}")


class CountRefine64(Workload):
    """``randkp count refine=64`` over a set of generated realization files.

    The refinement level a file needs is set by the few bumps near x = 0,
    where the envelope is steepest, and its cost is heavy-tailed: about 1 file
    in 30 needs level 32 or 64 and costs 10-15 times a level-4 file.  A job
    therefore counts many short files, so that one seed's job time stays
    within a few percent of another's.
    """

    name = "count-refine64"
    X = 300.0

    def __init__(self, *args):
        super().__init__(*args)
        n = 8 if self.quick else 384
        seeds = np.random.SeedSequence([self.seed, 3]).generate_state(n)
        self.files = [(os.path.join(self.workdir, f"real{j:03d}.txt"), int(s)) for j, s in enumerate(seeds)]
        self.levels: List[int] = []

    def setup(self) -> None:
        for path, s in self.files:
            cli_generate(self.tr, path, self.X, s)
        cli_main(["count", f"in={self.files[0][0]}", "W=logpower", f"C={COUNT_C!r}", "s=2", "refine=4",
                  f"out={os.path.join(self.workdir, 'warmup.csv')}"])

    def job(self) -> JobResult:
        res = JobResult()
        csv_path = os.path.join(self.workdir, "counts.csv")
        for path, _ in self.files:
            self.tr.unit = os.path.basename(path)
            res.units += 1
            try:
                rows = cli_count(self.tr, path, csv_path, COUNT_C, 64, res)
            except Exception:
                res.fail(self.tr.unit, f"randkp count raised\n{traceback.format_exc()}")
                rows = None
            res.reports.append(rows)
            if rows is None:
                res.record.append(None)
                continue
            n_lo, n_hi, n_d, n_n = rows
            _check_chain(res, path, n_d, n_lo, n_hi, n_n)
            res.cert_width_sum += n_hi - n_lo
            res.unconverged += n_hi - n_lo > 1
            res.dn_gap_sum += n_n - n_d
            res.record.append(list(rows))
        self.tr.unit = None
        return res

    def replay(self, first: JobResult) -> List[Tuple[str, str]]:
        kept = [(p, r) for (p, _), r in zip(self.files, first.reports) if r is not None]
        failures, self.levels = replay_counts(
            self.tr, [p for p, _ in kept], COUNT_C, 64, [r for _, r in kept], self.workdir,
        )
        return failures


# ---------------------------------------------------------------------------
# acceptance cross-checks on small inputs

FD_TOL = 1e-2


class Crosscheck(Workload):
    """FD vs Prufer, D/N sandwich, hard-wall wells, ground states, theory vs Monte Carlo."""

    name = "crosscheck"

    def __init__(self, *args):
        super().__init__(*args)
        self.n_fd, self.n_sandwich, self.n_wall = (4, 4, 50) if self.quick else (32, 32, 200)

    def job(self) -> JobResult:
        tr, res = self.tr, JobResult()
        rng = _rng(self.seed, 4)
        call = tr.call

        # criterion 2: FD inertia oracle against the exact Prufer count.  The FD
        # matrix moves eigenvalues by up to about mesh step * potential jump
        # (4e-4 * 20 here), so a level within FD_TOL of 0 may flip its count
        # (2 of 3000 random potentials do).  The check is therefore that FD
        # lies in the Prufer bracket [N(-FD_TOL), N(+FD_TOL)], where N(E)
        # counts levels below E; on all other inputs that bracket is one count.
        for j in range(self.n_fd):
            tr.unit = f"fd{j}"
            n = int(rng.integers(2, 51))
            X = float(rng.uniform(5.0, 80.0))
            bp = np.concatenate([[0.0], np.sort(rng.uniform(0, X, n - 1)), [X]])
            vals = rng.uniform(-10, 10, n)
            q = PiecewisePotential(bp, vals)
            cert = call("spectral.count_negative_exact", count_negative_exact, q, work={"pieces": n})
            fd = call("spectral.fd_inertia_count", fd_inertia_count, q.evaluate, X, 200_000,
                      work={"mesh_points": 200_000})
            if fd != cert.n_lo:
                res.fd_near_ties += 1
                lo = count_negative_exact(PiecewisePotential(bp, vals + FD_TOL)).n_lo
                hi = count_negative_exact(PiecewisePotential(bp, vals - FD_TOL)).n_lo
                if not lo <= fd <= hi:
                    res.fail(f"fd{j}", f"FD count {fd} outside Prufer bracket [{lo}, {hi}] at tolerance {FD_TOL}")
            res.record.append([cert.n_lo, fd])
        res.units += self.n_fd

        # criterion 3: exact D/N sandwich on X = 250 realizations
        dist = GapDistribution.exponential(1.0)
        pert = Perturbation.log_power(2 * PI**2, 2.0)
        for j in range(self.n_sandwich):
            tr.unit = f"sandwich{j}"
            gaps = sample_gaps(dist, 1500, int(rng.integers(2**31)))
            real = build_realization(gaps, l=0.25, h=25.0, X=250.0)
            n_d, cert, n_n = call("spectral.sandwich_counts", sandwich_counts, real, pert)
            _check_chain(res, f"sandwich{j}", n_d, cert.n_lo, cert.n_hi, n_n)
            res.cert_width_sum += cert.width
            res.unconverged += not cert.converged
            res.dn_gap_sum += n_n - n_d
            res.record.append([n_d, cert.n_lo, cert.n_hi, n_n])
        res.units += self.n_sandwich

        # criterion 4: hard-wall wells.  Sturm comparison brackets the count
        # between the infinite-wall well of width L and the free box of width
        # L + 2l, so this check is a theorem, not a tolerance.
        h, l = 1e8, 0.5
        counts = []
        for j in range(self.n_wall):
            w, L = float(rng.uniform(0.05, 9.0)), float(rng.uniform(0.2, 12.0))
            q = PiecewisePotential(np.array([0.0, l, l + L, L + 2 * l]), np.array([h - w, -w, h - w]))
            n = call("spectral.count_negative_exact", count_negative_exact, q, work={"pieces": 3}).n_lo
            lo = max(0, math.ceil(math.sqrt(w) * L / PI) - 1)
            hi = max(0, math.ceil(math.sqrt(w) * (L + 2 * l) / PI) - 1)
            if not lo <= n <= hi:
                res.fail(f"wall{j}", f"count {n} outside hard-wall bracket [{lo}, {hi}]")
            counts.append(n)
        res.record.append(counts)
        res.units += self.n_wall

        # one large whole-domain potential: a realization at X = 2e4 minus a flat
        # w0, bracketed by its decoupled hard-wall wells and by the free box.
        tr.unit = "large"
        X, w0 = (2e3 if self.quick else 2e4), 2.0
        gaps = sample_gaps(dist, int(X), int(rng.integers(2**31)))
        real = build_realization(gaps, l=0.25, h=100.0, X=X)
        c = real.centers
        bp = np.unique(np.concatenate([[0.0, X], np.clip(c - 0.25, 0.0, X), np.clip(c + 0.25, 0.0, X)]))
        vals = np.asarray(real.potential(0.5 * (bp[:-1] + bp[1:]))) - w0
        n = call("spectral.count_negative_exact", count_negative_exact, PiecewisePotential(bp, vals),
                 work={"pieces": len(vals)})
        wells = np.diff(bp)[vals < 0]
        lo = int(sum(max(0, math.ceil(math.sqrt(w0) * L / PI) - 1) for L in wells))
        hi = max(0, math.ceil(math.sqrt(w0) * X / PI) - 1)
        if not lo <= n.n_lo <= hi:
            res.fail("large", f"count {n.n_lo} outside [{lo}, {hi}]")
        res.record.append(n.n_lo)
        res.units += 1

        # criterion 5: flanked-well ground state against its large-L asymptotics
        tr.unit = "wells"
        ok = True
        for bc in ("D", "N"):
            scaled, prev = [], math.inf
            for L in (25.0, 50.0, 100.0, 200.0):
                geom = WellGeometry(L=L, l=1.0, h=1.0, bc=bc)
                root = math.sqrt(call("spectral.well_ground_state", well_ground_state, geom))
                asym = math.sqrt(well_ground_asymptotic(geom))
                ok &= root < prev  # a wider well has a lower ground state
                prev = root
                scaled.append(abs(root - asym) * L**3)
                if L == 100.0:
                    ok &= abs(root - asym) / root <= 1e-3
            ok &= max(scaled) / min(scaled) < 4.0
        if not ok:
            res.fail("wells", "ground state vs asymptotics out of criterion-5 tolerance")
        res.units += 1

        # criteria 6 and 9: expectation bounds, Monte Carlo estimator, bc_sum verdicts
        tr.unit = "theory"
        c0 = call("theory.borderline", borderline, dist).constant
        if c0 != PI**2:
            res.fail("theory.borderline", f"borderline constant {c0} != pi^2 for exp(1)")
        for j in range(3):
            w = float(rng.uniform(0.3, 3.0))
            est = call("montecarlo.estimate_expected_count", estimate_expected_count, dist, w, 10**5,
                       int(rng.integers(2**31)))
            lo, hi = call("theory.expectation_bounds", expectation_bounds, dist, w)
            # 5 standard errors: a false alarm rate near 1e-6 per check on random seeds
            if not lo - 5 * est.stderr <= est.mean <= hi + 5 * est.stderr:
                res.fail(f"theory.w{j}", f"estimate {est.mean} outside [{lo}, {hi}] +- 5 se at w={w}")
        heavy = GapDistribution.pareto(1.0, 3.0)
        alpha = mean_spacing(heavy, 0.25)
        verdicts = [
            call("theory.bc_sum", bc_sum, heavy, Perturbation.power_law(1.0, beta), alpha, 0.05, 0.0, 10**5).verdict
            for beta in (1.0, 0.4)
        ]
        if verdicts != ["converging", "diverging"]:
            res.fail("theory.bc_sum", f"bc_sum verdicts {verdicts} != ['converging', 'diverging']")
        res.record.append(verdicts)
        res.units += 5
        tr.unit = None
        return res


WORKLOADS = {w.name: w for w in (GrowthWhole, GrowthDN, CountRefine64, Crosscheck)}


# ---------------------------------------------------------------------------
# probes for layers a workload does not call


def probe_unused_layers(tr: Tracer, seed: int, workdir: str, workers: int) -> List[int]:
    """One small call into each public layer that has no span yet.

    On a workload that does not use a layer, that layer's per-layer figure is
    this probe's, so it is measured (not a constant zero) on every workload.
    Returns the refine levels of the probe's ``randkp count``, if it made one.
    """
    used = set(tr.totals())
    levels: List[int] = []
    rng = _rng(seed, 5)
    dist = GapDistribution.exponential(1.0)
    tr.unit = "probe"

    def want(*names: str) -> bool:
        return any(n not in used for n in names)

    if want("randpot.sample"):
        tr.call("randpot.sample", dist.sample, 10**5, rng, work={"gaps": 10**5})
    if want("randpot.bernoulli_lattice"):
        tr.call("randpot.bernoulli_lattice", bernoulli_lattice, 0.5, 1e4, rng, h=100.0, work={"cells": 10**4})
    gaps = dist.sample(2000, rng)
    real = build_realization(gaps, 0.25, 100.0, 1e3)
    if want("randpot.build_realization"):
        tr.call("randpot.build_realization", build_realization, gaps, 0.25, 100.0, 1e3)
    if want("randpot.truncate"):
        tr.call("randpot.truncate", real.truncate, 500.0)
    pert = Perturbation.log_power(4 * PI**2, 2.0)
    if want("spectral.count_with_bracketed_w"):
        tr.call("spectral.count_with_bracketed_w", count_with_bracketed_w, real, pert, bc="D", refine=4,
                work={"subpieces": _subpieces(real, 4)})
    if want("spectral.bracket_certificate"):
        tr.call("spectral.bracket_certificate", bracket_certificate, real, pert, refine=4,
                work={"segments": _grid_counts(real)[2]})
    if want("spectral.count_negative_exact"):
        bp = np.concatenate([[0.0], np.sort(rng.uniform(0, 50.0, 49)), [50.0]])
        tr.call("spectral.count_negative_exact", count_negative_exact,
                PiecewisePotential(bp, rng.uniform(-10, 10, 50)), work={"pieces": 50})
    if want("spectral.fd_inertia_count"):
        q = PiecewisePotential(np.array([0.0, 10.0, 20.0]), np.array([-1.0, 1.0]))
        tr.call("spectral.fd_inertia_count", fd_inertia_count, q.evaluate, 20.0, 20_000,
                work={"mesh_points": 20_000})
    if want("theory.borderline"):
        tr.call("theory.borderline", borderline, dist)
    if want("theory.bc_sum"):
        tr.call("theory.bc_sum", bc_sum, dist, pert, mean_spacing(dist, 0.25), 0.05, 0.0, 10**4)
    if want("theory.expectation_bounds"):
        tr.call("theory.expectation_bounds", expectation_bounds, dist, 1.0)
    if want("montecarlo.estimate_expected_count"):
        tr.call("montecarlo.estimate_expected_count", estimate_expected_count, dist, 1.0, 10**4, seed)
    if want("montecarlo.run_trial", "montecarlo.run_experiment"):
        cfg = ExperimentConfig(dist=dist, pert=pert, l=0.25, h=100.0, checkpoints=(1e2, 1e3), trials=2,
                               master_seed=seed)
        tr.call("montecarlo.run_experiment", run_experiment, cfg, workers=workers,
                work={"trials": 2, "workers": workers})
        for i in range(2):
            tr.call("montecarlo.run_trial", run_trial, cfg, i)
    if want("cli.count", "cli.generate", "randpot.load_realization", "randpot.save_realization",
            "spectral.sandwich_counts"):
        path = os.path.join(workdir, "probe.txt")
        cli_generate(tr, path, 500.0, seed)
        levels = replay_counts(tr, [path], COUNT_C, 64, [None], workdir)[1]
    tr.unit = None
    return levels
