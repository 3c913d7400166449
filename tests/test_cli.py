"""Command-line layer: parsing, exit codes, CSV contracts, reproducibility."""

import math
import re
import warnings

import pytest

from randkp import cli
from randkp.cli import main

PI = math.pi


def run(capsys, *args):
    code = main(list(args))
    out = capsys.readouterr()
    return code, out.out, out.err


def data_rows(text):
    return [line for line in text.splitlines() if line and not line.startswith("#")]


# ---------------------------------------------------------------------------
# generate


def test_generate_header_contract(tmp_path, capsys):
    path = tmp_path / "real.txt"
    code, _, _ = run(capsys, "generate", "dist=exp", "eta=1", "l=0.5", "h=1", "X=1000", "seed=7", f"out={path}")
    assert code == 0
    assert path.read_text().splitlines()[0] == "l=0.5 h=1 X=1000"


def test_generate_is_reproducible(tmp_path, capsys):
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    args = ["generate", "dist=exp", "eta=1", "l=0.5", "h=1", "X=200", "seed=9"]
    assert main(args + [f"out={a}"]) == 0
    assert main(args + [f"out={b}"]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_generate_missing_key_names_it(capsys):
    code, _, err = run(capsys, "generate", "dist=exp", "l=0.5", "h=1", "X=10", "seed=1")
    assert code == 2
    assert "eta" in err


def test_generate_bernoulli(tmp_path, capsys):
    path = tmp_path / "bern.txt"
    code, _, _ = run(capsys, "generate", "dist=bernoulli", "p=0.5", "h=2", "X=100", "seed=3", f"out={path}")
    assert code == 0
    assert path.read_text().splitlines()[0].startswith("l=0.5 h=2")


@pytest.mark.parametrize("command", ["generate", "borderline"])
def test_realization_model_checks(tmp_path, capsys, command):
    rest = ["h=1", "X=10", "seed=1"] if command == "generate" else ["h=1", f"out={tmp_path / 'b'}"]
    code, _, err = run(capsys, command, "dist=bernoulli", "p=0.5", "l=0.25", *rest)
    assert code == 2 and "fixes l=0.5" in err
    code, _, err = run(capsys, command, "dist=exp", "eta=1", *rest)
    assert code == 2 and "'l'" in err
    code, _, err = run(capsys, command, "dist=bernoulli", "p=1.5", *rest)
    assert code == 2 and "p in (0, 1)" in err
    assert run(capsys, command, "dist=exp", "eta=1", "l=-1", *rest)[0] == 2  # rejected before sampling


@pytest.mark.parametrize("args", [
    ["generate", "dist=exp", "eta=1", "l=0.25", "h=1", "X=inf", "seed=1"],
    ["generate", "dist=bernoulli", "p=0.5", "h=1", "X=inf", "seed=1"],
    ["generate", "dist=exp", "eta=1", "l=0.25", "h=1", "X=nan", "seed=1"],
    ["borderline", "dist=exp", "eta=1", "l=0.25", "h=1", "Xs=10,inf", "trials=1", "workers=1"],
], ids=["generate-exp-inf", "generate-bernoulli-inf", "generate-nan", "borderline-inf"])
def test_non_finite_x_is_a_usage_error(tmp_path, capsys, args):
    code, _, err = run(capsys, *args, f"out={tmp_path / 'o'}")
    assert code == 2 and "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("args", [
    ["borderline", "dist=exp", "eta=1", "l=0.25", "h=1", "multipliers=", "trials=1", "workers=1"],
    ["borderline", "dist=exp", "eta=1", "l=0.25", "h=1", "Xs=,", "trials=1", "workers=1"],
    ["expect", "dist=exp", "eta=1", "ws="],
    ["well", "h=1", "l=1", "Ls="],
], ids=["borderline-multipliers", "borderline-Xs", "expect-ws", "well-Ls"])
def test_empty_list_is_a_usage_error(tmp_path, capsys, args):
    code, _, err = run(capsys, *args, f"out={tmp_path / 'o'}")
    assert code == 2 and "empty list" in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("args,named", [
    (["workers=-3", "refine=4"], "workers"),
    (["workers=1", "refine=0"], "refinement budget"),
    (["workers=1", "multipliers=inf"], "multiplier=inf"),
    (["workers=1", "multipliers=nan"], "multiplier=nan"),
    (["workers=1", "multipliers=1e308"], "multiplier=1e+308"),
    (["workers=1", "multipliers=1,inf"], "multiplier=inf"),
    (["workers=1", "seed=-1"], "bad value for seed: '-1'"),
    (["workers=1", "mode=foo"], "'foo'"),
], ids=["negative-workers", "zero-refine", "inf-multiplier", "nan-multiplier", "overflowing-multiplier",
        "inf-after-a-valid-multiplier", "negative-seed", "unknown-mode"])
def test_bad_borderline_run_setting_is_a_usage_error(tmp_path, capsys, args, named):
    code, _, err = run(capsys, "borderline", "dist=exp", "eta=1", "l=0.25", "h=1", "Xs=10,20", "trials=1",
                       *args, f"out={tmp_path / 'o'}")
    assert code == 2 and named in err and "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


def test_unknown_key_rejected(capsys):
    code, _, err = run(capsys, "generate", "dist=exp", "eta=1", "l=0.5", "h=1", "X=10", "seed=1", "bogus=3")
    assert code == 2
    assert "bogus" in err


@pytest.mark.parametrize("args, config", [
    (["h=1", "h=4", "l=inf", "Ls=1"], None),
    (["config={cfg}", "Ls=1"], "h=1\nl=inf h=4\n"),
    (["config={cfg}", "config={cfg}", "Ls=1"], "h=1 l=inf\n"),
], ids=["command-line", "config-file", "config-twice"])
def test_repeated_key_is_a_usage_error(tmp_path, capsys, args, config):
    # a repeated key names the key instead of running with its last value
    cfg = tmp_path / "run.cfg"
    if config is not None:
        cfg.write_text(config)
    code, out, err = run(capsys, "well", *(a.format(cfg=cfg) for a in args))
    named = "config" if args.count("config={cfg}") > 1 else "h"
    assert code == 2 and out == "" and f"key '{named}' given twice" in err


def test_unknown_dist_rejected(capsys):
    code, _, err = run(capsys, "generate", "dist=cauchy", "l=0.5", "h=1", "X=10", "seed=1")
    assert code == 2


def test_unknown_command(capsys):
    code, _, _ = run(capsys, "transmogrify")
    assert code == 2


@pytest.mark.parametrize("args,expected", [([], 2), (["--help"], 0)], ids=["no-args", "help"])
def test_usage_names_every_command(capsys, args, expected):
    code, out, err = run(capsys, *args)
    assert code == expected and out == ""
    assert err.startswith("usage: randkp <command>")
    for command in ("generate", "count", "well", "borderline", "expect"):
        assert f"\n  {command} " in err


@pytest.mark.parametrize("command", sorted(cli._COMMANDS))
def test_usage_line_matches_command_spec(command):
    # the block runs from the command's name to the next command's name
    block = re.search(rf"^  {command} .*?(?=^  \w|\Z)", cli._USAGE, re.S | re.M).group(0)
    model_keys = {*cli._param_keys(cli._DISTS), *cli._param_keys(cli._ENVELOPES)}
    for key, (conv, default) in cli._COMMANDS[command][1].items():
        if key in model_keys:
            continue
        shown = re.search(rf"(?<![\w/]){key}=([^\s)]*)", block)
        assert shown, f"{command} usage omits {key}="
        value = shown.group(1).rstrip(",")
        if "|" in value:  # choices: an optional key defaults to the first
            assert default is cli._REQUIRED or default == value.split("|")[0], (command, key, value)
        elif value:
            assert default not in (cli._REQUIRED, None) and conv(value) == default, (command, key, value)
        else:
            assert default in (cli._REQUIRED, None), f"{command} usage hides the default {key}={default!r}"


# ---------------------------------------------------------------------------
# count


@pytest.fixture
def realization_file(tmp_path):
    path = tmp_path / "real.txt"
    assert main(["generate", "dist=exp", "eta=1", "l=0.25", "h=25", "X=300",
                 "seed=42", f"out={path}"]) == 0
    return path


def test_count_zero_amplitude(realization_file, capsys):
    code, out, _ = run(capsys, "count", f"in={realization_file}", "W=constant", "w=0")
    assert code == 0
    rows = data_rows(out)
    assert rows[0] == "method,n_lo,n_hi"
    whole = rows[1].split(",")
    assert whole[0] == "whole-domain" and whole[1] == "0" and whole[2] == "0"


def test_count_rows_sandwich(realization_file, capsys):
    code, out, _ = run(capsys, "count", f"in={realization_file}",
                       "W=logpower", f"C={2 * PI**2}", "s=2")
    assert code == 0
    rows = data_rows(out)
    whole = rows[1].split(",")
    brack = rows[2].split(",")
    n_lo, n_hi = int(whole[1]), int(whole[2])
    n_d, n_n = int(brack[1]), int(brack[2])
    assert n_d <= n_lo <= n_hi <= n_n
    assert n_lo > 0


@pytest.mark.parametrize("args, named", [
    (["count", "W=constant", "w=nan"], "w=nan"),
    (["count", "W=logpower", "C=inf", "s=2"], "C=inf"),
    (["count", "W=powerlaw", "A=1", "beta=nan"], "beta=nan"),
    (["generate", "dist=exp", "eta=1", "l=inf", "h=1", "X=10", "seed=1"], "l=inf"),
    (["generate", "dist=exp", "eta=1", "l=0.25", "h=inf", "X=10", "seed=1"], "h=inf"),
    (["generate", "dist=bernoulli", "p=0.5", "h=nan", "X=10", "seed=1"], "h=nan"),
    (["expect", "dist=exp", "eta=inf", "ws=1"], "eta=inf"),
    (["expect", "dist=stretched", "eta=1", "alpha=inf", "ws=1"], "alpha=inf"),
    (["expect", "dist=pareto", "xm=inf", "alpha=2", "ws=1"], "x_m=inf"),
    (["expect", "dist=geom", "q=nan", "ws=1"], "q=nan"),
    (["expect", "dist=exp", "eta=1", "ws=inf"], "w=inf"),
    (["well", "h=inf", "l=1", "Ls=25"], "h=inf"),
    (["well", "h=1", "l=1", "Ls=inf"], "L=inf"),
    (["borderline", "dist=exp", "eta=1", "l=inf", "h=1", "Xs=10", "trials=1", "workers=1"], "l=inf"),
], ids=["constant-w-nan", "logpower-C-inf", "powerlaw-beta-nan", "generate-l-inf", "generate-h-inf",
        "bernoulli-h-nan", "exp-eta-inf", "stretched-alpha-inf", "pareto-xm-inf", "geom-q-nan",
        "expect-w-inf", "well-h-inf", "well-L-inf", "borderline-l-inf"])
def test_non_finite_model_parameter_is_a_usage_error(realization_file, tmp_path, capsys, args, named):
    out = tmp_path / "o.csv"
    extra = [f"in={realization_file}"] if args[0] == "count" else []
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, _, err = run(capsys, *args, *extra, f"out={out}")
    assert code == 2 and named in err
    assert "Traceback" not in err and "RuntimeWarning" not in err
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert list(tmp_path.iterdir()) == [realization_file]  # no output file, not even a borderline prefix


def test_count_too_large_to_count_exactly_is_a_numerical_failure(tmp_path, capsys):
    real, out = tmp_path / "real.txt", tmp_path / "o.csv"
    assert main(["generate", "dist=exp", "eta=1", "l=0.25", "h=25", "X=2000", "seed=42", f"out={real}"]) == 0
    code, _, err = run(capsys, "count", f"in={real}", "W=logpower", "C=1e300", "s=2", "refine=4", f"out={out}")
    assert code == 4 and "numerical failure" in err
    assert not out.exists()


@pytest.mark.parametrize("args, named", [
    (["count", "W=constant", "w=1", "C=3"], "['C']"),
    (["count", "W=logpower", "C=20", "s=2", "beta=1"], "['beta']"),
    (["generate", "dist=exp", "eta=1", "q=0.3", "l=0.25", "h=1", "X=10", "seed=1"], "['q']"),
    (["well", "h=1", "l=1", "Ls=25", "bc=X"], "'X'"),
    (["generate", "dist=exp", "eta=1", "l=0.25", "h=1", "X=10", "seed=-1"], "bad value for seed: '-1'"),
    (["expect", "dist=exp", "eta=1", "ws=1", "samples=10", "seed=-3"], "bad value for seed: '-3'"),
], ids=["count-constant-C", "count-logpower-beta", "generate-exp-q", "well-bad-bc", "generate-negative-seed",
        "expect-negative-seed"])
def test_unused_model_key_is_a_usage_error(realization_file, tmp_path, capsys, args, named):
    out = tmp_path / "o.csv"
    extra = [f"in={realization_file}"] if args[0] == "count" else []
    code, _, err = run(capsys, *args, *extra, f"out={out}")
    assert code == 2 and named in err and "Traceback" not in err
    assert not out.exists()


def test_count_malformed_file(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("garbage\n")
    code, _, err = run(capsys, "count", f"in={bad}", "W=constant", "w=1")
    assert code == 3
    assert "line 1" in err


def test_count_missing_file(capsys):
    code, _, _ = run(capsys, "count", "in=/no/such/file", "W=constant", "w=1")
    assert code == 3


# ---------------------------------------------------------------------------
# well


def test_well_sweep_error_column(capsys):
    code, out, _ = run(capsys, "well", "h=1", "l=1", "Ls=25,50,100,200", "bc=D")
    assert code == 0
    rows = [r.split(",") for r in data_rows(out)[1:]]
    scaled = [float(r[4]) for r in rows]
    assert max(scaled) / min(scaled) < 4.0
    # column consistency: err_sqrt_L3 == abs_err_sqrt * L^3
    for r in rows:
        assert float(r[4]) == pytest.approx(float(r[3]) * float(r[0]) ** 3, rel=1e-9)


def test_well_neumann_flag(capsys):
    code_d, out_d, _ = run(capsys, "well", "h=1", "l=1", "Ls=50", "bc=D")
    code_n, out_n, _ = run(capsys, "well", "h=1", "l=1", "Ls=50", "bc=N")
    assert code_d == code_n == 0
    mu_d = float(data_rows(out_d)[1].split(",")[1])
    mu_n = float(data_rows(out_n)[1].split(",")[1])
    assert mu_n < mu_d


def test_well_semi_infinite_flank(capsys):
    code, out, _ = run(capsys, "well", "h=1", "l=inf", "Ls=25")
    assert code == 0
    assert math.isfinite(float(data_rows(out)[1].split(",")[1]))


def test_well_hard_wall_root(capsys):
    _, out, _ = run(capsys, "well", "h=1e8", "l=1", "Ls=1", "bc=D")
    mu = float(data_rows(out)[1].split(",")[1])
    assert mu == pytest.approx((PI / 2) ** 2, rel=1e-3)


@pytest.mark.parametrize("args,mu0", [
    (["h=0.01", "l=100"], 0.00999902480246),
    (["h=0.01", "l=100", "bc=N"], 0.00985825331302),
    (["h=1e30", "l=1"], (PI / 2) ** 2),
    (["h=1", "l=inf"], 0.54624683414),
], ids=["low-wide-D", "low-wide-N", "towering-flank", "semi-infinite-flank"])
def test_well_root_in_any_geometry(capsys, args, mu0):
    # the ground state for any h > 0 and l > 0: no failure exit, and not a pole of the flank side
    code, out, err = run(capsys, "well", *args, "Ls=1")
    assert code == 0 and err == ""
    assert float(data_rows(out)[1].split(",")[1]) == pytest.approx(mu0, rel=1e-9)


@pytest.mark.parametrize("args", [
    ["h=1", "l=1e-310", "Ls=1e-310"],
    ["h=1", "l=1e-160", "Ls=1e-160"],
    ["h=1", "l=1", "Ls=1e-200"],
    ["h=1", "l=1", "Ls=1e103"],
    ["h=1", "l=1", "Ls=1e170"],
    ["h=1e-310", "l=1e200", "Ls=1e100"],
], ids=["subnormal-well", "squared-bracket-overflow", "asymptotic-overflow", "cube-overflow",
        "ground-states-round-to-zero", "subnormal-ground-state"])
def test_well_past_the_float_range_is_a_numerical_failure(tmp_path, capsys, args):
    code, _, err = run(capsys, "well", *args, f"out={tmp_path / 'w.csv'}")
    assert code == 4 and "L=" in err and "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


# ---------------------------------------------------------------------------
# borderline


def test_borderline_smoke_single_trial(tmp_path, capsys):
    import time
    t0 = time.time()
    code, _, _ = run(
        capsys, "borderline", "dist=exp", "eta=1", "multipliers=1", "Xs=1000",
        "trials=1", "seed=1", "l=0.25", "h=25", "workers=1", f"out={tmp_path}/smoke",
    )
    assert code == 0
    assert time.time() - t0 < 10.0
    assert (tmp_path / "smoke_m1_summary.csv").exists()
    assert (tmp_path / "smoke_m1_trials.csv").exists()


def test_borderline_separation_and_files(tmp_path, capsys):
    code, _, _ = run(
        capsys, "borderline", "dist=exp", "eta=1", "multipliers=0.25,4",
        "Xs=100,1000", "trials=4", "seed=6", "l=0.25", "h=100", "workers=1",
        f"out={tmp_path}/exp",
    )
    assert code == 0
    fractions = {}
    for mult in ("0.25", "4"):
        summary, trials = ([row.split(",") for row in data_rows((tmp_path / f"exp_m{mult}_{kind}.csv").read_text())[1:]]
                           for kind in ("summary", "trials"))
        assert len(trials) == 4 * 2 and all(len(row) == 6 for row in trials)  # trials x checkpoints
        assert len(summary) == 2 and all(len(row) == 5 for row in summary)  # one per checkpoint
        n_lo = {}
        for row in trials:
            n_lo.setdefault(row[0], []).append(int(row[2]))
        growing = sum(counts[-1] > counts[-2] for counts in n_lo.values()) / len(n_lo)
        assert all(float(row[-1]) == growing for row in summary)
        fractions[mult] = growing
    assert fractions["0.25"] < fractions["4"]


def test_borderline_reports_unconverged_certificates_on_stderr(tmp_path, capsys):
    # one line for each multiplier with a certificate still wider than 1 at the budget, none for
    # the others; the CSV rows are the same either way
    args = ["borderline", "dist=exp", "eta=1", "l=0.25", "h=100", "multipliers=0.25,64", "Xs=100,300",
            "trials=3", "seed=2", "workers=1"]
    code, _, err = run(capsys, *args, f"out={tmp_path}/w")
    assert code == 0
    assert err == "warning: multiplier 64: 3,3 of 3 certificates per checkpoint are wider than 1 at refine=4\n"
    trials = [row.split(",") for row in data_rows((tmp_path / "w_m64_trials.csv").read_text())[1:]]
    assert sum(int(row[3]) - int(row[2]) > 1 for row in trials) == 6
    code, _, err = run(capsys, *args, "mode=bracket-DN", f"out={tmp_path}/dn")
    assert code == 0 and err == ""


def test_borderline_rerun_byte_identical(tmp_path, capsys):
    args = ["borderline", "dist=geom", "q=0.5", "multipliers=2", "Xs=100,400",
            "trials=3", "seed=11", "l=0.25", "h=25", "workers=2"]
    assert main(args + [f"out={tmp_path}/a"]) == 0
    assert main(args + [f"out={tmp_path}/b"]) == 0
    for suffix in ("_m2_summary.csv", "_m2_trials.csv"):
        a = (tmp_path / ("a" + suffix)).read_text()
        b = (tmp_path / ("b" + suffix)).read_text()
        assert data_rows(a) == data_rows(b)
        # headers differ only in the out= echo
        assert [l for l in a.splitlines() if l.startswith("#") and not l.startswith("# out=")] \
            == [l for l in b.splitlines() if l.startswith("#") and not l.startswith("# out=")]


# ---------------------------------------------------------------------------
# expect


def test_expect_columns_and_bounds(capsys):
    code, out, _ = run(capsys, "expect", "dist=exp", "eta=1", "ws=0.5,1,2",
                       "samples=20000", "seed=3")
    assert code == 0
    rows = data_rows(out)
    assert rows[0] == "w,estimate,stderr,lower,upper"
    assert len(rows) == 4
    for r in rows[1:]:
        w, est, se, lo, hi = (float(v) for v in r.split(","))
        assert lo - 3 * se <= est <= hi + 3 * se


def test_expect_zero_samples_exits_two(capsys):
    code, _, _ = run(capsys, "expect", "dist=exp", "eta=1", "ws=1", "samples=0", "seed=1")
    assert code == 2


def test_expect_rejects_the_lattice_law(capsys):
    code, _, err = run(capsys, "expect", "dist=bernoulli", "p=0.5", "ws=1")
    assert code == 2 and "bernoulli" in err
    assert "bernoulli" not in cli._USAGE.split("\n  expect ")[1]


# ---------------------------------------------------------------------------
# config file and headers


def test_config_file_merge_and_override(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("dist=exp\neta=1\n# comment line\nws=1\nsamples=5000 seed=4\n")
    code, out, _ = run(capsys, "expect", f"config={cfg}", "samples=2000")
    assert code == 0
    header = [l for l in out.splitlines() if l.startswith("#")]
    assert "# samples=2000" in header  # command line wins
    assert "# eta=1" in header


def test_header_carries_version_and_resolved_config(capsys):
    _, out, _ = run(capsys, "well", "h=1", "l=1", "Ls=25")
    lines = out.splitlines()
    assert lines[0].startswith("# randkp 0.") and lines[0].endswith("well")
    assert "# bc=D" in lines  # default echoed
