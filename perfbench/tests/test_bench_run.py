"""Checks on every experiment, the result contract and tiny smoke runs."""

import json
import math
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import run as bench  # noqa: E402
import workloads as wl  # noqa: E402
from invlab import cli  # noqa: E402


@pytest.fixture(scope="module")
def record():
    return cli.record_to_json(cli.run_accuracy(cli.ExperimentConfig(n=16, seed=2))).encode()


def test_a_good_record_passes(record):
    assert wl.check_accuracy(record, 16, 2) is None


@pytest.mark.parametrize("corrupt", [
    lambda raw: raw[: len(raw) // 2],                              # truncated
    lambda raw: raw.replace(b'"kappa"', b'"kapa"'),                # missing field
    lambda raw: raw.replace(b'"seed": 2', b'"seed": 3'),           # wrong problem
    lambda raw: raw.replace(b'"converged": true', b'"converged": false'),
])
def test_a_corrupted_record_fails(record, corrupt):
    assert wl.check_accuracy(corrupt(record), 16, 2) is not None


def test_a_record_outside_its_bound_fails(record):
    rec = json.loads(record)
    rec["solves"]["random-b"]["via_inverse"]["backward_error"] = 1e-10
    assert wl.check_accuracy(json.dumps(rec).encode(), 16, 2).startswith("A04")
    rec = json.loads(record)
    rec["bad_inverse"]["forward_error_rel"] = 1e-3
    assert wl.check_accuracy(json.dumps(rec).encode(), 16, 2).startswith("A07")


def _plan():
    return wl.Plan(wl.Workload("t", "accuracy", 16, ""), [])


def test_failed_frac_counts_a_byte_different_rerun(record):
    plan = _plan()
    exp = wl.Experiment("seed2", (wl.Call(("accuracy", "--n", "16", "--seed", "2")),))
    out = wl.Outcomes()
    wl.judge(plan, exp, [(0, record, None)], out)
    wl.judge(plan, exp, [(0, record, None)], out)
    assert (out.attempted, out.failed) == (2, 0)
    different = record.replace(b"\n", b"\r\n")  # same values, other bytes
    wl.judge(plan, exp, [(0, different, None)], out)
    assert (out.attempted, out.failed, out.failed_frac) == (3, 1, 1 / 3)
    assert "bytes differ" in out.failures[0]


def test_failed_frac_counts_a_nonzero_exit_and_a_corrupted_record(record):
    plan = _plan()
    exp = wl.Experiment("seed2", (wl.Call(("accuracy", "--n", "16", "--seed", "2")),))
    out = wl.Outcomes()
    wl.judge(plan, exp, [(1, b"", None)], out)
    wl.judge(plan, exp, [(0, record[:-40], None)], out)
    assert (out.attempted, out.failed) == (2, 2)


def test_inverse_checks_follow_each_method():
    a, a_inv, kappa = wl.haar_problem(32, 0)
    good = np.linalg.inv(a)
    text = lambda m: ("32 32\n" + "\n".join(" ".join(f"{v:.17g}" for v in r) for r in m)).encode()
    for method in wl.INVERT_METHODS:
        assert wl.check_inverse(text(good), method, a, a_inv, kappa) is None
    bad = good + 1e-3 * np.abs(good).max()
    for method in ("rows-gepp", "cols-gepp", "getri", "newton-left", "newton-right"):
        assert wl.check_inverse(text(bad), method, a, a_inv, kappa) is not None
    assert wl.check_inverse(text(bad), "strassen", a, a_inv, kappa) is None
    nan = good.copy()
    nan[0, 0] = np.nan
    assert wl.check_inverse(text(nan), "strassen", a, a_inv, kappa) is not None
    assert wl.check_inverse(b"32 32\n1 2", "getri", a, a_inv, kappa) is not None
    assert wl.check_inverse(b"", "getri", a, a_inv, kappa) is not None


def test_matrix_file_round_trips(tmp_path):
    a, _, _ = wl.haar_problem(8, 1)
    wl.write_matrix(tmp_path / "a.txt", a)
    assert np.array_equal(wl.read_matrix((tmp_path / "a.txt").read_bytes()), a)


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        k: w.why for k, w in wl.WORKLOADS.items()}
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == bench.PER_LAYER


@pytest.mark.parametrize("name", sorted(wl.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_smoke_run(name, trace):
    workload = replace(wl.WORKLOADS[name], n=16)
    details, result = bench.run(workload, seed=5, seconds=0.01, trace=trace)
    assert result["correct"], details["failures"]
    assert result["failed"] == 0 and result["attempted"] >= 2
    assert set(result["metrics"]) == set(bench.PER_LAYER if trace else bench.END_TO_END)
    assert all(math.isfinite(m["value"]) for m in result["metrics"].values())
    assert details["environment"]["nproc"] >= 1
    assert not list((ROOT / ".perfbench_run").glob(f"{workload.name}-5-*"))


def test_without_the_sources_it_fails_without_a_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "accuracy-n64",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == b""
