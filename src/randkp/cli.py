"""Command-line front end.

Configuration is given as ``key=value`` tokens after the subcommand, plus
an optional ``config=FILE`` whose lines use the same syntax (command-line
tokens win).  Every output file starts with ``#`` comment lines echoing
the artifact version and the fully resolved configuration, so re-running
a command with the header values reproduces the data rows exactly.

Exit codes: 0 success, 2 usage/config error, 3 input-data error,
4 numerical failure.
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
from .montecarlo import ExperimentConfig, estimate_expected_count, run_experiment, summary_csv_rows, trial_csv_rows


class UsageError(Exception):
    pass


_REQUIRED = object()

_DIST_PARAMS = {
    "exp": ("eta",),
    "stretched": ("eta", "alpha"),
    "pareto": ("xm", "alpha"),
    "geom": ("q",),
    "bernoulli": ("p",),
}
# every dist parameter, optional on each command that takes dist=
_DIST_KEYS = {par: (float, None) for pars in _DIST_PARAMS.values() for par in pars}


def _float_list(text: str) -> List[float]:
    try:
        values = [float(tok) for tok in text.split(",") if tok]
    except ValueError:
        raise UsageError(f"bad list value {text!r}") from None
    if not values:
        raise UsageError(f"empty list {text!r}: give at least one value")
    return values


# key -> (converter, default); _REQUIRED marks keys that must be supplied
_COMMAND_KEYS = {
    "generate": {
        "dist": (str, _REQUIRED), **_DIST_KEYS,
        "l": (float, None), "h": (float, _REQUIRED), "X": (float, _REQUIRED),
        "seed": (int, _REQUIRED), "out": (str, None),
    },
    "count": {
        "in": (str, _REQUIRED),
        "W": (str, _REQUIRED),
        "C": (float, None), "s": (float, None), "A": (float, None),
        "beta": (float, None), "w": (float, None),
        "refine": (int, 64), "out": (str, None),
    },
    "well": {
        "h": (float, _REQUIRED), "l": (float, _REQUIRED),
        "Ls": (_float_list, _REQUIRED), "bc": (str, "D"), "out": (str, None),
    },
    "borderline": {
        "dist": (str, _REQUIRED), **_DIST_KEYS,
        "multipliers": (_float_list, [0.25, 4.0]),
        "Xs": (_float_list, [1e3, 1e4, 1e5]),
        "trials": (int, 100), "seed": (int, 0),
        "l": (float, None), "h": (float, _REQUIRED),
        "mode": (str, "whole-domain"), "refine": (int, 4),
        "workers": (int, 0),  # 0 = available cores
        "out": (str, _REQUIRED),
    },
    "expect": {
        "dist": (str, _REQUIRED), **_DIST_KEYS,
        "ws": (_float_list, _REQUIRED),
        "samples": (int, 10**5), "seed": (int, 0), "out": (str, None),
    },
}

_USAGE = """\
usage: randkp <command> [key=value ...] [config=FILE]

commands:
  generate    sample a bump realization and write its text serialization
              (dist=exp|stretched|pareto|geom|bernoulli, dist params, l=, h=, X=, seed=, out=)
  count       certified negative-eigenvalue counts for a realization file
              (in=, W=logpower|powerlaw|constant with C=/s= or A=/beta= or w=, refine=, out=)
  well        ground state of the flanked well: root vs large-L asymptotics
              (h=, l=, Ls=25,50,100, bc=D|N, out=)
  borderline  growth experiments around the critical envelope decay
              (dist + params, multipliers=0.25,4, Xs=1e3,1e4,1e5, trials=, seed=,
               l=, h=, mode=whole-domain|bracket-DN, refine=, workers=, out=PREFIX)
  expect      Monte Carlo per-well counts against the two-sided expectation bounds
              (dist + params, ws=0.5,1,2, samples=, seed=, out=)
"""


def _parse_tokens(tokens: Sequence[str]) -> Dict[str, str]:
    out: Dict[str, str] = {}
    for tok in tokens:
        if "=" not in tok:
            raise UsageError(f"expected key=value, got {tok!r}")
        key, _, val = tok.partition("=")
        if not key:
            raise UsageError(f"empty key in {tok!r}")
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
    spec = _COMMAND_KEYS[command]
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
            except UsageError:
                raise
            except (TypeError, ValueError):
                raise UsageError(f"bad value for {key}: {raw[key]!r}") from None
        elif default is _REQUIRED:
            raise UsageError(f"missing required key '{key}' for {command}")
        elif default is not None:
            resolved[key] = default
    return resolved


def _build_dist(resolved: Dict[str, object], allow_bernoulli: bool = False) -> tuple:
    """(gap law, lattice p); the bernoulli cell model has geometric(1 - p) gaps, other laws p = None."""
    kind = resolved["dist"]
    if kind not in _DIST_PARAMS:
        raise UsageError(f"unknown dist {kind!r} (use {'|'.join(_DIST_PARAMS)})")
    if kind == "bernoulli" and not allow_bernoulli:
        raise UsageError("dist=bernoulli is not supported by this command")
    needed = _DIST_PARAMS[kind]
    for par in needed:
        if par not in resolved:
            raise UsageError(f"missing required key '{par}' for dist={kind}")
    extraneous = [par for par in _DIST_KEYS if par in resolved and par not in needed]
    if extraneous:
        raise UsageError(f"key(s) {sorted(extraneous)} not used by dist={kind}")
    if kind == "exp":
        return GapDistribution.exponential(resolved["eta"]), None
    if kind == "stretched":
        return GapDistribution.stretched_exponential(resolved["eta"], resolved["alpha"]), None
    if kind == "pareto":
        return GapDistribution.pareto(resolved["xm"], resolved["alpha"]), None
    if kind == "geom":
        return GapDistribution.geometric(resolved["q"]), None
    if not 0.0 < resolved["p"] < 1.0:
        raise UsageError("dist=bernoulli needs p in (0, 1)")
    return GapDistribution.geometric(1.0 - resolved["p"]), resolved["p"]


def _realization_model(command: str, resolved: Dict[str, object]) -> tuple:
    """``_build_dist`` for commands that sample bumps: the lattice sets l = 0.5, other laws need l."""
    dist, lattice_p = _build_dist(resolved, allow_bernoulli=True)
    if lattice_p is not None:
        if "l" in resolved and resolved["l"] != 0.5:
            raise UsageError("dist=bernoulli fixes l=0.5; drop the l key")
        resolved["l"] = 0.5
    elif "l" not in resolved:
        raise UsageError(f"missing required key 'l' for {command}")
    return dist, lattice_p


def _build_pert(resolved: Dict[str, object]) -> Perturbation:
    kind = resolved["W"]
    if kind == "logpower":
        if "C" not in resolved or "s" not in resolved:
            raise UsageError("W=logpower needs C= and s=")
        return Perturbation.log_power(resolved["C"], resolved["s"])
    if kind == "powerlaw":
        if "A" not in resolved or "beta" not in resolved:
            raise UsageError("W=powerlaw needs A= and beta=")
        return Perturbation.power_law(resolved["A"], resolved["beta"])
    if kind == "constant":
        if "w" not in resolved:
            raise UsageError("W=constant needs w=")
        return Perturbation.constant(resolved["w"])
    raise UsageError(f"unknown W kind {kind!r} (use logpower|powerlaw|constant)")


def _fmt(value) -> str:
    if isinstance(value, int):
        return str(value)
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


def cmd_generate(tokens: Sequence[str]) -> int:
    resolved = _resolve("generate", tokens)
    dist, lattice_p = _realization_model("generate", resolved)
    rng = np.random.default_rng(np.random.SeedSequence(resolved["seed"]))
    if lattice_p is not None:
        real = bernoulli_lattice(lattice_p, resolved["X"], rng, h=resolved["h"])
    else:
        real = sample_realization(dist, resolved["l"], resolved["h"], resolved["X"], rng)
    out = resolved.get("out")
    if out is None:
        save_realization(real, sys.stdout)
    else:
        save_realization(real, out)
    return 0


def cmd_count(tokens: Sequence[str]) -> int:
    resolved = _resolve("count", tokens)
    real = load_realization(resolved["in"])
    pert = _build_pert(resolved)
    n_d, cert, n_n = sandwich_counts(real, pert, refine=resolved["refine"])
    rows = [("whole-domain", cert.n_lo, cert.n_hi), ("bracket-DN", n_d, n_n)]
    _write_csv(resolved.get("out"), "count", resolved, ("method", "n_lo", "n_hi"), rows)
    return 0


def cmd_well(tokens: Sequence[str]) -> int:
    resolved = _resolve("well", tokens)
    if resolved["bc"] not in ("D", "N"):
        raise UsageError("bc must be D or N")
    rows = []
    for L in resolved["Ls"]:
        geom = WellGeometry(L=L, l=resolved["l"], h=resolved["h"], bc=resolved["bc"])
        mu_root = well_ground_state(geom)
        mu_asym = well_ground_asymptotic(geom)
        err = abs(math.sqrt(mu_root) - math.sqrt(mu_asym))
        rows.append((L, mu_root, mu_asym, err, err * L**3))
    _write_csv(
        resolved.get("out"), "well", resolved,
        ("L", "mu0_root", "mu0_asym", "abs_err_sqrt", "err_sqrt_L3"), rows,
    )
    return 0


def cmd_borderline(tokens: Sequence[str]) -> int:
    resolved = _resolve("borderline", tokens)
    dist, lattice_p = _realization_model("borderline", resolved)
    law = borderline(dist)
    if resolved["workers"] < 0:
        raise UsageError("workers must be >= 0 (0 = available cores)")
    workers = resolved["workers"] or (os.cpu_count() or 1)
    for mult in resolved["multipliers"]:
        cfg = ExperimentConfig(
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
        )
        report = run_experiment(cfg, workers=workers)
        echo = dict(resolved)
        echo["multiplier"] = mult
        echo["borderline_constant"] = law.constant
        prefix = resolved["out"]
        _write_csv(
            f"{prefix}_m{mult:g}_summary.csv", "borderline", echo,
            ("checkpoint_X", "mean", "median", "max", "growing_fraction"),
            summary_csv_rows(report),
        )
        _write_csv(
            f"{prefix}_m{mult:g}_trials.csv", "borderline", echo,
            ("trial", "checkpoint_X", "n_lo", "n_hi", "max_gap", "k_count"),
            trial_csv_rows(report),
        )
    return 0


def cmd_expect(tokens: Sequence[str]) -> int:
    resolved = _resolve("expect", tokens)
    dist, _ = _build_dist(resolved)
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


_HANDLERS = {
    "generate": cmd_generate,
    "count": cmd_count,
    "well": cmd_well,
    "borderline": cmd_borderline,
    "expect": cmd_expect,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = list(sys.argv[1:] if argv is None else argv)
    if not args or args[0] in ("-h", "--help", "help"):
        sys.stderr.write(_USAGE)
        return 0 if args else 2
    command, tokens = args[0], args[1:]
    handler = _HANDLERS.get(command)
    if handler is None:
        sys.stderr.write(f"unknown command {command!r}\n{_USAGE}")
        return 2
    try:
        return handler(tokens)
    except UsageError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except (RealizationParseError, OSError) as exc:
        sys.stderr.write(f"input error: {exc}\n")
        return 3
    except (NumericalError, CoverageError) as exc:
        sys.stderr.write(f"numerical failure: {exc}\n")
        return 4
    except ValueError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
