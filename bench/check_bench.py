"""The benchmark's own tests: minimal-size runs of every workload.

    python3 -m pytest bench/check_bench.py -q

They check that every printed metric name matches BENCHMARK.json, that no
operation fails, and that a tampered reference digest is reported as a
failure rather than a pass.
"""

import json
import os
import subprocess
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
CHECKOUT = os.path.dirname(BENCH_DIR)
RUN = os.path.join(BENCH_DIR, "run.py")
with open(os.path.join(CHECKOUT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def quick_run(workload, trace, *extra):
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", "1", "--seconds", "1",
         "--trace", str(trace), "--quick", *extra],
        cwd=CHECKOUT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_metric_names_match_and_nothing_fails(workload, trace):
    out = quick_run(workload, trace)
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert sorted(out["metrics"]) == sorted(m["name"] for m in spec)
    for m in spec:
        assert out["metrics"][m["name"]]["unit"] == m["unit"]
    assert out["failed"] == 0 and out["correct"] is True and out["attempted"] >= 1
    if not trace:
        assert out["metrics"]["ok_frac"]["value"] == 1.0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tampered_reference_digest_fails(workload, tmp_path):
    with open(os.path.join(BENCH_DIR, "reference.json")) as fh:
        ref = json.load(fh)
    stored = ref["digests"][f"{workload}@quick"]["1"]
    ref["digests"][f"{workload}@quick"]["1"] = ("0" if stored[0] != "0" else "1") + stored[1:]
    tampered = tmp_path / "reference.json"
    tampered.write_text(json.dumps(ref))
    out = quick_run(workload, 0, "--reference", str(tampered))
    assert out["correct"] is False
    assert out["failed"] >= 1
    assert out["metrics"]["ok_frac"]["value"] < 1.0
