"""Command-line front end.

Configuration is given as ``key=value`` tokens after the subcommand, plus
an optional ``config=FILE`` whose lines use the same syntax (command-line
tokens win).  CSV outputs start with ``#`` lines echoing the version and
the resolved configuration, so re-running with them reproduces the data
rows; ``generate`` writes an ``l=... h=... X=...`` header, then one gap per line.

Exit codes: 0 success, 2 usage/config error, 3 input-data error,
4 numerical failure or an input too large for memory.
"""

from __future__ import annotations

import math
import os
import sys
from typing import Dict, List, Optional, Sequence

import numpy as np

from . import __version__
from .randpot import (
    CoverageError,
    GapDistribution,
    Perturbation,
    RealizationParseError,
    bernoulli_lattice,
    load_realization,
    sample_realization,
    save_realization,
)
from .spectral import NumericalError, WellGeometry, sandwich_counts, well_ground_asymptotic, well_ground_state
from .theory import borderline, expectation_bounds
from .montecarlo import ExperimentConfig, estimate_expected_count, run_experiment


class UsageError(Exception):
    pass


_REQUIRED = object()

# model tables: kind -> (constructor, parameter keys in argument order)
_DISTS = {
    "exp": (GapDistribution.exponential, ("eta",)),
    "stretched": (GapDistribution.stretched_exponential, ("eta", "alpha")),
    "pareto": (GapDistribution.pareto, ("xm", "alpha")),
    "geom": (GapDistribution.geometric, ("q",)),
    "bernoulli": (lambda p: GapDistribution.geometric(1.0 - p), ("p",)),  # gaps are runs of empty cells
}
_ENVELOPES = {
    "logpower": (Perturbation.log_power, ("C", "s")),
    "powerlaw": (Perturbation.power_law, ("A", "beta")),
    "constant": (Perturbation.constant, ("w",)),
}


def _param_keys(table) -> Dict[str, tuple]:
    """Every parameter key of a model table, optional on each command that takes the table's kind key."""
    return {par: (float, None) for _, pars in table.values() for par in pars}


def _float_list(text: str) -> List[float]:
    try:
        values = [float(tok) for tok in text.split(",") if tok]
    except ValueError:
        raise UsageError(f"bad list value {text!r}") from None
    if not values:
        raise UsageError(f"empty list {text!r}: give at least one value")
    return values


def _seed(text: str) -> int:  # numpy rejects a negative seed without naming the key
    if (seed := int(text)) < 0:
        raise ValueError(text)
    return seed


_USAGE = """\
usage: randkp <command> [key=value ...] [config=FILE]
       key=v shows a default, key=a|b the choices (an optional key defaults to the first)

commands:
  generate    sample a bump realization and write its text serialization
              (dist=exp|stretched|pareto|geom|bernoulli, dist params, l=, h=, X=, seed=, out=)
  count       certified negative-eigenvalue counts for a realization file
              (in=, W=logpower|powerlaw|constant with C= s= or A= beta= or w=, refine=64, out=)
  well        ground state of the flanked well: root vs large-L asymptotics
              (h=, l=, Ls=, bc=D|N, out=)
  borderline  growth experiments around the critical envelope decay, into <out>_m<mult>_*.csv
              (dist=exp|stretched|pareto|geom|bernoulli, dist params, l=, h=, multipliers=0.25,4,
               Xs=1e3,1e4,1e5, trials=100, seed=0, mode=whole-domain|bracket-DN, refine=4,
               workers=0 (all cores), out=)
  expect      Monte Carlo per-well counts against the two-sided expectation bounds
              (dist=exp|stretched|pareto|geom, dist params, ws=, samples=100000, seed=0, out=)
"""


def _parse_tokens(tokens: Sequence[str]) -> Dict[str, str]:
    out: Dict[str, str] = {}
    for tok in tokens:
        if "=" not in tok:
            raise UsageError(f"expected key=value, got {tok!r}")
        key, _, val = tok.partition("=")
        if not key:
            raise UsageError(f"empty key in {tok!r}")
        if key in out:
            raise UsageError(f"key '{key}' given twice")
        out[key] = val
    return out


def _read_config_file(path: str) -> Dict[str, str]:
    try:
        with open(path) as fh:
            tokens = []
            for raw in fh:
                line = raw.split("#", 1)[0].strip()
                if line:
                    tokens.extend(line.split())
            return _parse_tokens(tokens)
    except OSError as exc:
        raise UsageError(f"cannot read config file {path!r}: {exc}") from None


def _resolve(command: str, tokens: Sequence[str]) -> Dict[str, object]:
    spec = _COMMANDS[command][1]
    raw = _parse_tokens(tokens)
    if "config" in raw:
        merged = _read_config_file(raw.pop("config"))
        merged.update(raw)
        raw = merged
    unknown = set(raw) - set(spec)
    if unknown:
        raise UsageError(f"unknown key(s) for {command}: {', '.join(sorted(unknown))}")
    resolved: Dict[str, object] = {}
    for key, (conv, default) in spec.items():
        if key in raw:
            try:
                resolved[key] = conv(raw[key])
            except (TypeError, ValueError):
                raise UsageError(f"bad value for {key}: {raw[key]!r}") from None
        elif default is _REQUIRED:
            raise UsageError(f"missing required key '{key}' for {command}")
        elif default is not None:
            resolved[key] = default
    return resolved


def _model(resolved: Dict[str, object], key: str, table):
    """The ``key=`` model (``dist`` or ``W``) built from ``table``; keys of another kind are usage errors."""
    kind = resolved[key]
    if kind not in table:
        raise UsageError(f"unknown {key} {kind!r} (use {'|'.join(table)})")
    make, needed = table[kind]
    for par in needed:
        if par not in resolved:
            raise UsageError(f"missing required key '{par}' for {key}={kind}")
    extraneous = [par for par in _param_keys(table) if par in resolved and par not in needed]
    if extraneous:
        raise UsageError(f"key(s) {sorted(extraneous)} not used by {key}={kind}")
    return make(*(resolved[par] for par in needed))


def _realization_model(command: str, resolved: Dict[str, object]) -> tuple:
    """(gap law, lattice p) for commands that sample bumps: bernoulli needs p in (0, 1) and
    fixes l = 0.5; other laws have p = None and need l."""
    lattice_p = resolved.get("p") if resolved["dist"] == "bernoulli" else None
    if lattice_p is not None and not 0.0 < lattice_p < 1.0:
        raise UsageError("dist=bernoulli needs p in (0, 1)")
    dist = _model(resolved, "dist", _DISTS)
    if lattice_p is not None:
        if resolved.get("l", 0.5) != 0.5:
            raise UsageError("dist=bernoulli fixes l=0.5; drop the l key")
        resolved["l"] = 0.5
    elif "l" not in resolved:
        raise UsageError(f"missing required key 'l' for {command}")
    return dist, lattice_p


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.12g}"
    if isinstance(value, (list, tuple)):
        return ",".join(_fmt(v) for v in value)
    return str(value)


def _header_lines(command: str, resolved: Dict[str, object]) -> List[str]:
    lines = [f"# randkp {__version__} {command}"]
    for key in sorted(resolved):
        lines.append(f"# {key}={_fmt(resolved[key])}")
    return lines


def _write_csv(out: Optional[str], command: str, resolved: Dict[str, object],
               columns: Sequence[str], rows) -> None:
    lines = _header_lines(command, resolved)
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    text = "\n".join(lines) + "\n"
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w") as fh:
            fh.write(text)


def cmd_generate(resolved: Dict[str, object]) -> int:
    dist, lattice_p = _realization_model("generate", resolved)
    rng = np.random.default_rng(resolved["seed"])
    if lattice_p is not None:
        real = bernoulli_lattice(lattice_p, resolved["X"], rng, h=resolved["h"])
    else:
        real = sample_realization(dist, resolved["l"], resolved["h"], resolved["X"], rng)
    save_realization(real, resolved.get("out", sys.stdout))
    return 0


def cmd_count(resolved: Dict[str, object]) -> int:
    real = load_realization(resolved["in"])
    pert = _model(resolved, "W", _ENVELOPES)
    n_d, cert, n_n = sandwich_counts(real, pert, refine=resolved["refine"])
    rows = [("whole-domain", cert.n_lo, cert.n_hi), ("bracket-DN", n_d, n_n)]
    _write_csv(resolved.get("out"), "count", resolved, ("method", "n_lo", "n_hi"), rows)
    return 0


def cmd_well(resolved: Dict[str, object]) -> int:
    rows = []
    for L in resolved["Ls"]:
        geom = WellGeometry(L=L, l=resolved["l"], h=resolved["h"], bc=resolved["bc"])
        mu_root = well_ground_state(geom)
        mu_asym = well_ground_asymptotic(geom)
        if mu_root < sys.float_info.min or L > sys.float_info.max ** (1 / 3):  # subnormal, or L**3 overflows
            raise NumericalError(f"ground state or L**3 past the float range at L={L!r}")
        err = abs(math.sqrt(mu_root) - math.sqrt(mu_asym))
        rows.append((L, mu_root, mu_asym, err, err * L**3))
    _write_csv(
        resolved.get("out"), "well", resolved,
        ("L", "mu0_root", "mu0_asym", "abs_err_sqrt", "err_sqrt_L3"), rows,
    )
    return 0


def cmd_borderline(resolved: Dict[str, object]) -> int:
    dist, lattice_p = _realization_model("borderline", resolved)
    law = borderline(dist)
    if resolved["workers"] < 0:
        raise UsageError("workers must be >= 0 (0 = available cores)")
    workers = resolved["workers"] or (os.cpu_count() or 1)
    configs = [ExperimentConfig(
        dist=dist,
        pert=law.perturbation(mult),
        l=resolved["l"],
        h=resolved["h"],
        checkpoints=tuple(resolved["Xs"]),
        trials=resolved["trials"],
        master_seed=resolved["seed"],
        bc_mode=resolved["mode"],
        refine=resolved["refine"],
        lattice_p=lattice_p,
    ) for mult in resolved["multipliers"]]  # every multiplier is checked before any file is written
    for mult, cfg in zip(resolved["multipliers"], configs):
        report = run_experiment(cfg, workers=workers)
        echo = dict(resolved)
        echo["multiplier"] = mult
        echo["borderline_constant"] = law.constant
        prefix, xs = resolved["out"], cfg.checkpoints
        _write_csv(
            f"{prefix}_m{mult:g}_summary.csv", "borderline", echo,
            ("checkpoint_X", "mean", "median", "max", "growing_fraction"),
            [(*stats, report.growing_fraction)
             for stats in zip(xs, report.mean_counts, report.median_counts, report.max_counts)],
        )
        _write_csv(
            f"{prefix}_m{mult:g}_trials.csv", "borderline", echo,
            ("trial", "checkpoint_X", "n_lo", "n_hi", "max_gap", "k_count"),
            [(t.index, x, cert.n_lo, cert.n_hi, mg, k)
             for t in report.trials for x, cert, mg, k in zip(xs, t.certificates, t.max_gaps, t.k_counts)],
        )
        if any(report.unconverged):
            sys.stderr.write(f"warning: multiplier {mult:g}: {','.join(map(str, report.unconverged))} of "
                             f"{cfg.trials} whole-domain certificates per checkpoint are wider than 1 "
                             f"at refine={cfg.refine}\n")
    return 0


def cmd_expect(resolved: Dict[str, object]) -> int:
    if resolved["dist"] == "bernoulli":
        raise UsageError("dist=bernoulli is not supported by this command")
    dist = _model(resolved, "dist", _DISTS)
    rows = []
    for w in resolved["ws"]:
        est = estimate_expected_count(dist, w, resolved["samples"], resolved["seed"])
        lo, hi = expectation_bounds(dist, w)
        rows.append((w, est.mean, est.stderr, lo, hi))
    _write_csv(
        resolved.get("out"), "expect", resolved,
        ("w", "estimate", "stderr", "lower", "upper"), rows,
    )
    return 0


# command -> (handler, {key: (converter, default)}); _REQUIRED marks keys that must be supplied
_COMMANDS = {
    "generate": (cmd_generate, {
        "dist": (str, _REQUIRED), **_param_keys(_DISTS),
        "l": (float, None), "h": (float, _REQUIRED), "X": (float, _REQUIRED),
        "seed": (_seed, _REQUIRED), "out": (str, None),
    }),
    "count": (cmd_count, {
        "in": (str, _REQUIRED),
        "W": (str, _REQUIRED), **_param_keys(_ENVELOPES),
        "refine": (int, 64), "out": (str, None),
    }),
    "well": (cmd_well, {
        "h": (float, _REQUIRED), "l": (float, _REQUIRED),
        "Ls": (_float_list, _REQUIRED), "bc": (str, "D"), "out": (str, None),
    }),
    "borderline": (cmd_borderline, {
        "dist": (str, _REQUIRED), **_param_keys(_DISTS),
        "multipliers": (_float_list, [0.25, 4.0]),
        "Xs": (_float_list, [1e3, 1e4, 1e5]),
        "trials": (int, 100), "seed": (_seed, 0),
        "l": (float, None), "h": (float, _REQUIRED),
        "mode": (str, "whole-domain"), "refine": (int, 4),
        "workers": (int, 0),  # 0 = available cores
        "out": (str, _REQUIRED),
    }),
    "expect": (cmd_expect, {
        "dist": (str, _REQUIRED), **_param_keys(_DISTS),
        "ws": (_float_list, _REQUIRED),
        "samples": (int, 10**5), "seed": (_seed, 0), "out": (str, None),
    }),
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = list(sys.argv[1:] if argv is None else argv)
    if not args or args[0] in ("-h", "--help", "help"):
        sys.stderr.write(_USAGE)
        return 0 if args else 2
    command, tokens = args[0], args[1:]
    if command not in _COMMANDS:
        sys.stderr.write(f"unknown command {command!r}\n{_USAGE}")
        return 2
    try:
        return _COMMANDS[command][0](_resolve(command, tokens))
    except UsageError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except (RealizationParseError, OSError) as exc:
        sys.stderr.write(f"input error: {exc}\n")
        return 3
    except (NumericalError, CoverageError) as exc:
        sys.stderr.write(f"numerical failure: {exc}\n")
        return 4
    except MemoryError as exc:  # numpy's names the allocation it could not make
        sys.stderr.write(f"out of memory: {str(exc) or 'the input is too large to hold'}\n")
        return 4
    except ValueError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
