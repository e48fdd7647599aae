"""End-to-end CLI tests: records, files, pipelines, exit codes.

Fast in-process runs via main(argv) cover structure and error mapping;
subprocess runs cover byte-identical output and the seed environment
variable, which have to hold across interpreter invocations.
"""
import contextlib
import io
import json
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from invlab import InverseMethod, Matrix, load_matrix, save_matrix, save_vector, Vector
from invlab.cli import ExperimentConfig, main, run_accuracy
from invlab.core import EPS

SMALL = ["--n", "12", "--sigma1", "1e2", "--sigman", "1e-2", "--seed", "3"]


def run_cli(args, env_extra=None):
    env = dict(os.environ)
    env.pop("INVLAB_SEED", None)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "invlab", *args],
        capture_output=True,
        text=True,
        env=env,
    )


def assert_usage_error(proc):
    """Exit 2 with the JSON error record as the last stderr line, no traceback."""
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert "RuntimeWarning" not in proc.stderr
    assert json.loads(proc.stderr.splitlines()[-1])["error"]["exit_code"] == 2


# ---------------------------------------------------------------- accuracy


def test_accuracy_json_record_structure(capsys):
    assert main(["accuracy", *SMALL]) == 0
    rec = json.loads(capsys.readouterr().out)
    assert set(rec) == {
        "config",
        "kappa",
        "inverse",
        "residuals",
        "solves",
        "bad_inverse",
        "bounds",
    }
    assert rec["config"] == {
        "n": 12,
        "sigma_1": 100.0,
        "sigma_n": 0.01,
        "seed": 3,
        "method": "getri",
    }
    assert rec["kappa"] == 10000.0
    assert set(rec["solves"]) == {"random-b", "random-x"}
    for mode in rec["solves"].values():
        assert set(mode) == {"via_inverse", "via_gepp"}
        for rep in mode.values():
            assert set(rep) == {
                "forward_error_rel",
                "backward_error",
                "residual_norm",
                "x",
            }
            assert len(rep["x"]) == 12
    assert rec["bounds"]["loose_bound"] == 1e8 * 2.0**-53
    assert rec["bounds"]["tight_bound"] == 1e4 * 2.0**-53
    # timing lines are a stderr affair; the record must not contain them
    assert "timings" not in rec


def test_accuracy_takes_one_exact_norm_per_distinct_matrix(kernel_calls):
    run_accuracy(ExperimentConfig(n=16, sigma_1=1e2, sigma_n=1e-2, seed=3))
    # ||A|| (two LU tolerances, five backward errors), ||Ainv||, ||VA - I||,
    # ||AV - I||, and ||V - Ainv|| for residuals and again for bad_inverse;
    # none of them runs a Jacobi sweep
    assert kernel_calls == {"_norm2": 6, "_jacobi_rotate": 0}


@pytest.mark.parametrize("sigmas", [("1e308", "1e307"), ("1e200", "1e195")])
def test_accuracy_at_extreme_scale(sigmas, capsys):
    # the reference solution's entries sit near 1/sigma; their squares
    # under- or overflow unless the vector norms are prescaled
    assert main(["accuracy", "--n", "4", "--sigma1", sigmas[0], "--sigman", sigmas[1]]) == 0
    rec = json.loads(capsys.readouterr().out)
    bound = 1e3 * rec["kappa"] * EPS  # A03's yardstick
    for mode in rec["solves"].values():
        for rep in mode.values():
            assert 0.0 < rep["forward_error_rel"] <= bound


@pytest.mark.parametrize("method", ["getri", "rows-gepp", "cols-gepp", "newton-left",
                                    "newton-right"])
def test_accuracy_at_the_top_of_the_range(method, capsys):
    # b = A x reaches 1e308, so the GEPP reference solve overflowed in its
    # sweeps, and ||b|| in the backward error, unless both are prescaled
    args = ["--n", "8", "--sigma1", "1e308", "--sigman", "1e308", "--method", method]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["accuracy", *args]) == 0
    rec = json.loads(capsys.readouterr().out)
    for mode in rec["solves"].values():
        for rep in mode.values():
            assert 0.0 < rep["forward_error_rel"] <= 1e3 * EPS  # kappa = 1
            assert 0.0 <= rep["backward_error"] <= 1e3 * EPS
    assert 0.0 <= rec["bad_inverse"]["backward_error"] < math.inf


@pytest.mark.parametrize("sigmas", [("1e-300", "1e-310"), ("1e-310", "5e-324")])
def test_accuracy_rejects_sigma_n_with_no_finite_reciprocal(sigmas):
    proc = run_cli(["accuracy", "--n", "4", "--sigma1", sigmas[0], "--sigman", sigmas[1]])
    assert_usage_error(proc)
    assert "1/sigma_n" in json.loads(proc.stderr.splitlines()[-1])["error"]["message"]


def test_accuracy_newton_at_tiny_scale(capsys):
    # ||A||_1 ||A||_inf underflows to 0 here unless the Newton seed is prescaled
    args = ["--n", "8", "--sigma1", "1e-300", "--sigman", "1e-301", "--method", "newton-right"]
    assert main(["accuracy", *args]) == 0
    assert json.loads(capsys.readouterr().out)["inverse"]["converged"] is True


def test_accuracy_repeat_is_identical_in_process(capsys):
    main(["accuracy", *SMALL])
    first = capsys.readouterr().out
    main(["accuracy", *SMALL])
    assert capsys.readouterr().out == first


def test_accuracy_method_flag(capsys):
    assert main(["accuracy", *SMALL, "--method", "rows-gepp"]) == 0
    rec = json.loads(capsys.readouterr().out)
    assert rec["inverse"]["method"] == "rows-gepp"
    assert rec["inverse"]["iterations"] == 0


def test_accuracy_newton_reports_iterations(capsys):
    assert main(["accuracy", *SMALL, "--method", "newton-left"]) == 0
    rec = json.loads(capsys.readouterr().out)
    assert rec["inverse"]["converged"] is True
    assert rec["inverse"]["iterations"] > 0


def test_accuracy_csv_flat_keys(capsys):
    assert main(["accuracy", *SMALL, "--format", "csv"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "key,value"
    keys = {line.split(",", 1)[0] for line in lines[1:]}
    assert "config.n" in keys
    assert "residuals.left_residual" in keys
    assert "solves.random-b.via_inverse.forward_error_rel" in keys
    assert "bad_inverse.backward_error" in keys


def test_accuracy_out_file_matches_stdout(tmp_path, capsys):
    main(["accuracy", *SMALL])
    stdout_text = capsys.readouterr().out
    out = tmp_path / "rec.json"
    assert main(["accuracy", *SMALL, "--out", str(out)]) == 0
    assert out.read_text() == stdout_text


def test_accuracy_timings_on_stderr_only():
    proc = run_cli(["accuracy", *SMALL])
    assert proc.returncode == 0
    assert "timing" in proc.stderr
    assert "timing" not in proc.stdout


def test_accuracy_byte_identical_across_processes():
    a = run_cli(["accuracy", *SMALL])
    b = run_cli(["accuracy", *SMALL])
    assert a.returncode == b.returncode == 0
    assert a.stdout == b.stdout


def test_seed_env_variable_fallback():
    flagged = run_cli(["accuracy", *SMALL])
    env_run = run_cli(
        ["accuracy", *SMALL[:-2]], env_extra={"INVLAB_SEED": "3"}
    )
    assert env_run.returncode == 0
    assert env_run.stdout == flagged.stdout
    # explicit flag wins over the environment
    override = run_cli(["accuracy", *SMALL], env_extra={"INVLAB_SEED": "9"})
    assert override.stdout == flagged.stdout


def test_seed_env_invalid_is_usage_error():
    proc = run_cli(["accuracy", *SMALL[:-2]], env_extra={"INVLAB_SEED": "4x"})
    assert_usage_error(proc)


# -------------------------------------------------------------------- fig1


def test_fig1_csv_shape(capsys):
    assert main(["fig1", *SMALL]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "row_label,j,sigma_j,magnitude"
    body = [line.split(",") for line in lines[1:]]
    assert len(body) == 3 * 12
    labels = [row[0] for row in body]
    assert labels == ["first"] * 12 + ["middle"] * 12 + ["last"] * 12
    for block in range(3):
        rows = body[block * 12 : (block + 1) * 12]
        assert [int(r[1]) for r in rows] == list(range(1, 13))
        sigmas = [float(r[2]) for r in rows]
        assert sigmas[0] == 100.0 and sigmas[-1] == 0.01
        assert all(a > b for a, b in zip(sigmas, sigmas[1:]))
        assert all(float(r[3]) >= 0.0 for r in rows)


def test_fig1_deterministic(capsys):
    main(["fig1", *SMALL])
    first = capsys.readouterr().out
    main(["fig1", *SMALL])
    assert capsys.readouterr().out == first


# ------------------------------------------------------ gen/invert/solve


def test_gen_writes_problem_directory(tmp_path, capsys):
    out = tmp_path / "prob"
    assert main(["gen", *SMALL, "--rhs", "random-b", "--out", str(out)]) == 0
    capsys.readouterr()
    meta = json.loads((out / "meta.json").read_text())
    assert meta["config"]["n"] == 12
    assert meta["kappa"] == 10000.0
    assert meta["rhs_mode"] == "random-b"
    a = load_matrix(out / "a.txt")
    ainv = load_matrix(out / "ainv.txt")
    assert a.rows == a.cols == 12
    resid = np.abs(a.data @ ainv.data - np.eye(12)).max()
    assert resid <= 1e-10


def test_gen_without_rhs_writes_no_vectors(tmp_path, capsys):
    out = tmp_path / "prob"
    assert main(["gen", *SMALL, "--out", str(out)]) == 0
    capsys.readouterr()
    assert not (out / "b.txt").exists()
    assert not (out / "xref.txt").exists()
    meta = json.loads((out / "meta.json").read_text())
    assert meta["rhs_mode"] is None


def test_invert_stdout_and_file_agree(tmp_path, capsys):
    out = tmp_path / "prob"
    main(["gen", *SMALL, "--out", str(out)])
    capsys.readouterr()
    assert main(["invert", str(out / "a.txt"), "--method", "getri"]) == 0
    text = capsys.readouterr().out
    vfile = tmp_path / "v.txt"
    assert main(["invert", str(out / "a.txt"), "--method", "getri", "--out", str(vfile)]) == 0
    assert vfile.read_text() == text
    v = load_matrix(vfile)
    ainv = load_matrix(out / "ainv.txt")
    assert np.abs(v.data - ainv.data).max() <= 1e-8


def test_pipeline_matches_accuracy_record(tmp_path, capsys):
    """gen + invert + solve must reproduce the accuracy record numbers."""
    main(["accuracy", *SMALL, "--method", "rows-gepp"])
    rec = json.loads(capsys.readouterr().out)

    out = tmp_path / "prob"
    main(["gen", *SMALL, "--rhs", "random-b", "--out", str(out)])
    capsys.readouterr()
    vfile = tmp_path / "v.txt"
    main(["invert", str(out / "a.txt"), "--method", "rows-gepp", "--out", str(vfile)])
    capsys.readouterr()

    assert (
        main(
            [
                "solve",
                str(out / "a.txt"),
                str(out / "b.txt"),
                "--via",
                "inverse",
                "--inverse-file",
                str(vfile),
                "--xref",
                str(out / "xref.txt"),
            ]
        )
        == 0
    )
    solved = json.loads(capsys.readouterr().out)
    want = rec["solves"]["random-b"]["via_inverse"]
    assert solved == want


def test_solve_via_lu_matches_accuracy_record(tmp_path, capsys):
    main(["accuracy", *SMALL])
    rec = json.loads(capsys.readouterr().out)
    out = tmp_path / "prob"
    main(["gen", *SMALL, "--rhs", "random-b", "--out", str(out)])
    capsys.readouterr()
    assert (
        main(
            [
                "solve",
                str(out / "a.txt"),
                str(out / "b.txt"),
                "--via",
                "lu",
                "--xref",
                str(out / "xref.txt"),
            ]
        )
        == 0
    )
    solved = json.loads(capsys.readouterr().out)
    assert solved == rec["solves"]["random-b"]["via_gepp"]


def test_solve_via_qr_small_backward_error(tmp_path, capsys):
    out = tmp_path / "prob"
    main(["gen", *SMALL, "--rhs", "random-b", "--out", str(out)])
    capsys.readouterr()
    assert (
        main(["solve", str(out / "a.txt"), str(out / "b.txt"), "--via", "qr"]) == 0
    )
    solved = json.loads(capsys.readouterr().out)
    assert solved["backward_error"] <= 1e-13
    assert solved["forward_error_rel"] is None  # no --xref given


def test_solve_via_qr_at_tiny_scale(tmp_path, capsys):
    # the squares of 1e-170 underflow unless the column norms are prescaled
    save_matrix(tmp_path / "a.txt", Matrix(np.array([[1e-170, 2e-170], [3e-170, -1e-170]])))
    save_vector(tmp_path / "b.txt", Vector(np.array([1e-170, 1e-170])))
    assert main(["solve", str(tmp_path / "a.txt"), str(tmp_path / "b.txt"), "--via", "qr"]) == 0
    assert json.loads(capsys.readouterr().out)["backward_error"] <= 1e-15


def test_solve_csv_output(tmp_path, capsys):
    out = tmp_path / "prob"
    main(["gen", *SMALL, "--rhs", "random-b", "--out", str(out)])
    capsys.readouterr()
    assert (
        main(
            [
                "solve",
                str(out / "a.txt"),
                str(out / "b.txt"),
                "--via",
                "lu",
                "--format",
                "csv",
            ]
        )
        == 0
    )
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "key,value"
    keys = {line.split(",", 1)[0] for line in lines[1:]}
    assert "backward_error" in keys


# ------------------------------------------------------------- exit codes


def test_exit_usage_unknown_flag():
    proc = run_cli(["accuracy", "--definitely-not-a-flag"])
    assert_usage_error(proc)


def test_exit_usage_solve_inverse_requires_file(tmp_path, capsys):
    out = tmp_path / "p"
    main(["gen", *SMALL, "--rhs", "random-b", "--out", str(out)])
    capsys.readouterr()
    proc = run_cli(["solve", str(out / "a.txt"), str(out / "b.txt"), "--via", "inverse"])
    assert_usage_error(proc)


def test_exit_parse_error_is_3(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("2 2\n1 2\n")
    assert main(["invert", str(bad)]) == 3
    err = capsys.readouterr().err
    payload = json.loads(err)
    assert payload["error"]["exit_code"] == 3


def test_exit_dimension_error_is_4(tmp_path, capsys):
    save_matrix(tmp_path / "a.txt", Matrix(np.eye(3)))
    assert main(["invert", str(tmp_path / "a.txt"), "--method", "strassen"]) == 4
    assert json.loads(capsys.readouterr().err)["error"]["exit_code"] == 4


def test_exit_dimension_error_solve_mismatch(tmp_path, capsys):
    save_matrix(tmp_path / "a.txt", Matrix(np.eye(3)))
    save_vector(tmp_path / "b.txt", Vector(np.ones(2)))
    assert (
        main(["solve", str(tmp_path / "a.txt"), str(tmp_path / "b.txt"), "--via", "lu"])
        == 4
    )
    capsys.readouterr()


def test_exit_singular_is_5(tmp_path, capsys):
    save_matrix(tmp_path / "a.txt", Matrix(np.array([[1.0, 2.0], [2.0, 4.0]])))
    assert main(["invert", str(tmp_path / "a.txt")]) == 5
    payload = json.loads(capsys.readouterr().err)
    assert payload["error"]["exit_code"] == 5
    assert payload["error"]["type"] == "SingularMatrixError"


@pytest.mark.parametrize("method", ["getri", "rows-gepp", "cols-gepp"])
def test_exit_lu_overflow_is_2(tmp_path, method):
    # the Schur update overflows; the factors must not reach the inverse
    save_matrix(tmp_path / "a.txt", Matrix(np.array([[1e308, 1e308], [1e308, -1e308]])))
    proc = run_cli(["invert", str(tmp_path / "a.txt"), "--method", method])
    assert_usage_error(proc)
    assert "overflow" in json.loads(proc.stderr)["error"]["message"]


def test_exit_norm_overflow_is_2(tmp_path):
    # ||A|| = 1.5e308 sqrt(2) lies beyond binary64 while every entry is finite
    save_matrix(tmp_path / "a.txt", Matrix(np.array([[1.5e308, 1.5e308], [1.5e308, -1.5e308]])))
    proc = run_cli(["invert", str(tmp_path / "a.txt"), "--method", "getri"])
    assert_usage_error(proc)
    assert "spectral norm" in json.loads(proc.stderr)["error"]["message"]


def test_exit_nonconvergence_is_6(tmp_path, capsys):
    save_matrix(tmp_path / "a.txt", Matrix(np.diag([1.0, 0.0])))
    assert main(["invert", str(tmp_path / "a.txt"), "--method", "newton-left"]) == 6
    assert json.loads(capsys.readouterr().err)["error"]["exit_code"] == 6


@pytest.mark.parametrize("args", [
    ["accuracy", "--sigman", "0"],
    ["accuracy", "--sigma1", "1", "--sigman", "2"],
    ["accuracy", "--n", "0"],
    ["fig1", "--n", "1"],
    ["accuracy", "--n", "4", "--sigma1", "1e200", "--sigman", "1e-200"],
])
def test_exit_usage_out_of_range_problem(args):
    proc = run_cli(args)
    assert_usage_error(proc)
    assert json.loads(proc.stderr)["error"]["exit_code"] == 2  # the record alone


def test_missing_subcommand_is_usage_error():
    proc = run_cli([])
    assert_usage_error(proc)


# ---------------------------------------------------------- fuzzed flag grid

_N = ["0", "-1", "1", "2", "3", "8", "nan", "inf", "1e3", "x"]  # n never above 8
_SIGMA = ["1", "1e4", "1e-4", "0", "-1", "nan", "inf", "-inf", "1e308", "1e-308",
          "5e-324", "1e400", "x"]
_SEED = ["0", "-1", str(2**64 - 1), str(10**30), "nan", "1e3"]
_METHODS = [m.value for m in InverseMethod] + ["bogus"]


@pytest.fixture(scope="module")
def fuzz_files(tmp_path_factory):
    """Name -> path: good, singular, malformed and mis-shaped inputs."""
    d = tmp_path_factory.mktemp("fuzz")
    a = Matrix(np.array([[4.0, 1, 0, 0], [1, 3, 1, 0], [0, 1, 2, 1], [0, 0, 1, 5]]))
    texts = {
        "bad": "2 2\n1 2\n",
        "inf": "2 2\n1 inf\n0 1\n",
        "empty": "",
    }
    for name, text in texts.items():
        (d / name).write_text(text)
    save_matrix(d / "a", a)
    save_matrix(d / "ainv", Matrix(np.linalg.inv(a.data)))
    save_matrix(d / "singular", Matrix(np.ones((4, 4))))
    save_matrix(d / "rect", Matrix(np.ones((2, 3))))
    save_matrix(d / "one", Matrix(np.array([[2.0]])))
    save_matrix(d / "huge", Matrix(np.array([[1e308, 1e308], [1e308, -1e308]])))
    save_vector(d / "b", Vector(np.arange(1.0, 5.0)))
    save_vector(d / "short", Vector(np.ones(2)))
    save_vector(d / "zero", Vector(np.zeros(4)))
    paths = {p.name: str(p) for p in d.iterdir()}
    paths["missing"] = str(d / "missing")
    paths["unwritable"] = str(d / "a" / "out")  # below a plain file
    paths["outdir"] = str(d / "out")
    return paths


def _grid(draw, options):
    """Each flag present or not, with a value from its grid; maybe a stray flag."""
    argv = []
    for flag, values in options.items():
        if draw(st.booleans()):
            argv += [flag, draw(st.sampled_from(values))]
    if draw(st.booleans()):
        argv.insert(draw(st.integers(0, len(argv))), "--bogus")
    return argv


def _argv(draw, command, f):
    n = ["--n", draw(st.sampled_from(_N))]  # always given: the default is 256
    problem = {"--sigma1": _SIGMA, "--sigman": _SIGMA, "--seed": _SEED}
    matrices = [f[k] for k in ("a", "singular", "bad", "inf", "empty", "rect",
                               "one", "huge", "missing")]
    vectors = [f[k] for k in ("b", "short", "zero", "huge", "a", "bad", "missing")]
    if command == "accuracy":
        return n + _grid(draw, {**problem, "--method": _METHODS,
                                "--format": ["json", "csv", "xml"],
                                "--out": [f["unwritable"]]})
    if command == "fig1":
        return n + _grid(draw, {**problem, "--method": _METHODS})
    if command == "gen":
        return n + _grid(draw, {**problem, "--rhs": ["random-b", "random-x", "bogus"],
                                "--out": [f["outdir"], f["unwritable"]]})
    if command == "invert":
        return [draw(st.sampled_from(matrices)),
                *_grid(draw, {"--method": _METHODS})]
    return [draw(st.sampled_from(matrices)), draw(st.sampled_from(vectors)),
            *_grid(draw, {"--via": ["inverse", "lu", "qr", "bogus"],
                          "--inverse-file": [f["ainv"], f["singular"], f["rect"],
                                             f["bad"]],
                          "--xref": vectors,
                          "--format": ["json", "csv"]})]


@pytest.mark.parametrize("command", ["accuracy", "fig1", "gen", "invert", "solve"])
@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_fuzzed_flags_exit_with_a_code_and_a_record(command, fuzz_files, data):
    argv = [command, *_argv(data.draw, command, fuzz_files)]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)  # nothing may escape
    assert code in {0, 2, 3, 4, 5, 6}
    if code:
        record = json.loads(err.getvalue().splitlines()[-1])
        assert record["error"]["exit_code"] == code
