"""Command-line layer: parsing, exit codes, CSV contracts, reproducibility."""

import math
import warnings

import pytest

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
], ids=["negative-workers", "zero-refine"])
def test_bad_borderline_run_setting_is_a_usage_error(tmp_path, capsys, args, named):
    code, _, err = run(capsys, "borderline", "dist=exp", "eta=1", "l=0.25", "h=1", "Xs=10,20", "trials=1",
                       *args, f"out={tmp_path / 'o'}")
    assert code == 2 and named in err and "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


def test_unknown_key_rejected(capsys):
    code, _, err = run(capsys, "generate", "dist=exp", "eta=1", "l=0.5", "h=1", "X=10", "seed=1", "bogus=3")
    assert code == 2
    assert "bogus" in err


def test_unknown_dist_rejected(capsys):
    code, _, err = run(capsys, "generate", "dist=cauchy", "l=0.5", "h=1", "X=10", "seed=1")
    assert code == 2


def test_unknown_command(capsys):
    code, _, _ = run(capsys, "transmogrify")
    assert code == 2


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
], ids=["constant-w-nan", "logpower-C-inf", "powerlaw-beta-nan", "generate-l-inf", "generate-h-inf",
        "bernoulli-h-nan"])
def test_non_finite_model_parameter_is_a_usage_error(realization_file, tmp_path, capsys, args, named):
    out = tmp_path / "o.csv"
    extra = [f"in={realization_file}"] if args[0] == "count" else []
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, _, err = run(capsys, *args, *extra, f"out={out}")
    assert code == 2 and named in err
    assert "Traceback" not in err and "RuntimeWarning" not in err
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
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


def test_well_hard_wall_root(capsys):
    _, out, _ = run(capsys, "well", "h=1e8", "l=1", "Ls=1", "bc=D")
    mu = float(data_rows(out)[1].split(",")[1])
    assert mu == pytest.approx((PI / 2) ** 2, rel=1e-3)


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
        text = (tmp_path / f"exp_m{mult}_summary.csv").read_text()
        fractions[mult] = float(data_rows(text)[-1].split(",")[-1])
    assert fractions["0.25"] < fractions["4"]


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
