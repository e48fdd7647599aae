"""Workloads, their inputs and the checks on every experiment's outputs.

An experiment is a short chain of ``invlab`` CLI calls. The same chain runs
either as child processes (the end-to-end measurement) or in process through
``invlab.cli.main`` (the traced run and its untraced twin).
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import os
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

EPS = 2.0 ** -53

# Problem seeds every run of an accuracy workload walks through, in whole
# passes. Jacobi cost depends on the matrix (up to 40% between seeds at
# n=64), so runs stay comparable only if each covers the same problems in
# the same proportion; the run seed picks where the walk starts.
ACCURACY_POOL = (0, 1)
# Matrices an invert run may draw; the run seed picks one.
INVERT_POOL = (0, 1, 2)
# The CLI's default spectrum: sigma from 1e4 down to 1e-4, kappa = 1e8.
SIGMA_1, SIGMA_N = 1e4, 1e-4
INVERT_METHODS = ("rows-gepp", "cols-gepp", "getri", "newton-left", "newton-right", "strassen")


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "accuracy" or "invert"
    n: int
    why: str


WORKLOADS = {w.name: w for w in (
    Workload("accuracy-n64", "accuracy", 64,
             "accuracy at n=64: twelve Jacobi SVDs via norm2 dominate; "
             "the workload where a Jacobi-free lu_gepp tolerance shows"),
    Workload("accuracy-n512", "accuracy", 512,
             "accuracy at n=512: the pure-Python RNG is half the time, then "
             "Haar QR and LU; no Jacobi, so the control for norm2 changes"),
    Workload("invert-n512", "invert", 512,
             "six invert calls on one n=512 file: substitution loops, Newton, "
             "Matrix copies and matio load/format, which accuracy never reaches"),
)}


@dataclass(frozen=True)
class Call:
    argv: tuple[str, ...]
    out: Path | None = None  # file the call writes its result to, if any


@dataclass(frozen=True)
class Experiment:
    key: str
    calls: tuple[Call, ...]


@dataclass
class Plan:
    """Everything one run executes, in order, plus what checks it."""

    workload: Workload
    experiments: list[Experiment]
    a: np.ndarray | None = None      # invert: the matrix in the input file
    a_inv: np.ndarray | None = None  # invert: its reference inverse
    kappa: float = 0.0


def haar_problem(n: int, seed: int):
    """A = L diag(sigma) R^T from numpy's generator; returns (A, A^-1, kappa)."""
    g = np.random.default_rng(seed)

    def haar():
        q, r = np.linalg.qr(g.standard_normal((n, n)))
        return q * np.sign(np.diag(r))

    l, r = haar(), haar()
    sigma = np.geomspace(SIGMA_1, SIGMA_N, n)
    return (l * sigma) @ r.T, (r / sigma) @ l.T, float(sigma[0] / sigma[-1])


def write_matrix(path: Path, m: np.ndarray) -> None:
    """The invlab text format: a ``rows cols`` line, then 17-digit rows."""
    lines = [f"{m.shape[0]} {m.shape[1]}"]
    lines += [" ".join(f"{v:.17g}" for v in row) for row in m.tolist()]
    path.write_text("\n".join(lines) + "\n")


def read_matrix(raw: bytes) -> np.ndarray:
    tok = raw.split()
    if len(tok) < 2:
        raise ValueError("no header")
    rows, cols = int(tok[0]), int(tok[1])
    if len(tok) != 2 + rows * cols:
        raise ValueError(f"{rows}x{cols} header but {len(tok) - 2} entries")
    return np.array(tok[2:], dtype=np.float64).reshape(rows, cols)


def make_plan(workload: Workload, seed: int, workdir: Path) -> Plan:
    """Inputs for one run, all derived from ``seed``; writes files to workdir."""
    if workload.kind == "accuracy":
        start = seed % len(ACCURACY_POOL)
        pool = ACCURACY_POOL[start:] + ACCURACY_POOL[:start]
        exps = [Experiment(f"seed{s}", (Call(("accuracy", "--n", str(workload.n),
                                                 "--seed", str(s))),))
                for s in pool]
        return Plan(workload, exps)
    a, a_inv, kappa = haar_problem(workload.n, INVERT_POOL[seed % len(INVERT_POOL)])
    a_path = workdir / "a.txt"
    write_matrix(a_path, a)
    calls = tuple(Call(("invert", str(a_path), "--method", m, "--out", str(workdir / f"{m}.txt")),
                       workdir / f"{m}.txt")
                  for m in INVERT_METHODS)
    return Plan(workload, [Experiment("chain", calls)], a, a_inv, kappa)


# ----------------------------------------------------------------- checks


def check_accuracy(raw: bytes, n: int, seed: int) -> str | None:
    """The acceptance battery's one-sided per-seed bounds (A03, A04, A07)."""
    try:
        rec = json.loads(raw)
        kappa = rec["kappa"]
        via_inv = rec["solves"]["random-b"]["via_inverse"]
        fwd, bwd = via_inv["forward_error_rel"], via_inv["backward_error"]
        bad = rec["bad_inverse"]
        bad_fwd, bad_bwd = bad["forward_error_rel"], bad["backward_error"]
        echo = rec["config"]["n"], rec["config"]["seed"]
        converged = rec["inverse"]["converged"]
    except (ValueError, KeyError, TypeError) as exc:
        return f"record does not parse: {exc!r}"
    if echo != (n, seed):
        return f"record is for (n, seed) = {echo}, expected {(n, seed)}"
    if converged is not True:
        return "inverse did not converge"
    if not fwd <= 1e3 * kappa * EPS:
        return f"A03: forward error {fwd!r} > 1e3 kappa eps"
    if not bwd <= 1e-13:
        return f"A04: random-b backward error {bwd!r} > 1e-13"
    if not (bad_fwd >= 1e-2 and bad_bwd >= 1e-4):
        return f"A07: bad inverse errors {bad_fwd!r}, {bad_bwd!r} too small"
    return None


def _norm2(m: np.ndarray) -> float:
    return float(np.linalg.norm(m, 2))


def _norm_fro(m: np.ndarray) -> float:
    return float(np.linalg.norm(m))  # >= the 2-norm, without an SVD


def check_inverse(raw: bytes, method: str, a: np.ndarray, a_inv: np.ndarray,
                  kappa: float) -> str | None:
    """The bound that covers each method, with numpy as the oracle.

    rows-gepp and newton-left: left residual (A02, A09); cols-gepp and
    newton-right: right residual (A09); getri: error against the reference
    inverse (A01). Strassen has no bound: finite entries only. Residuals
    are measured in the Frobenius norm, an upper bound on the 2-norm the
    bounds are stated in, so a pass is a pass in the 2-norm too.
    """
    try:
        v = read_matrix(raw)
    except ValueError as exc:
        return f"{method}: output does not parse: {exc}"
    n = a.shape[0]
    if v.shape != a.shape or not np.isfinite(v).all():
        return f"{method}: output is {v.shape} or not finite"
    bound = 100 * n * kappa * EPS
    eye = np.eye(n)
    if method in ("rows-gepp", "newton-left"):
        got, what = _norm_fro(v @ a - eye), "left residual"
    elif method in ("cols-gepp", "newton-right"):
        got, what = _norm_fro(a @ v - eye), "right residual"
    elif method == "getri":
        got, what, bound = _norm2(v - a_inv) / _norm2(a_inv), "inverse error", 1e-7
    else:
        return None
    if not got <= bound:
        return f"{method}: {what} {got!r} > {bound!r}"
    return None


class Outcomes:
    """Attempted and failed experiments, and the byte log behind reruns.

    Every call's output is fingerprinted by (experiment, call index); a
    later call with the same inputs must produce the same bytes.
    """

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []
        self._digests: dict[tuple[str, int], str] = {}

    @property
    def failed(self) -> int:
        return len(self.failures)

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0

    def same_bytes(self, key: tuple[str, int], raw: bytes) -> str | None:
        digest = hashlib.sha256(raw).hexdigest()
        first = self._digests.setdefault(key, digest)
        return None if first == digest else f"{key}: output bytes differ from an earlier run"

    def record(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failures.append("; ".join(problems))


def judge(plan: Plan, exp: Experiment, results, outcomes: Outcomes, extra=()) -> None:
    """Check one experiment. ``results`` holds (exit code, stdout, file) per call;
    ``extra`` lists problems the caller already found."""
    problems = list(extra)
    for i, (call, (code, stdout, produced)) in enumerate(zip(exp.calls, results)):
        if code != 0:
            problems.append(f"{' '.join(call.argv[:4])}: exit {code}")
            continue
        raw = produced if call.out is not None else stdout
        if plan.workload.kind == "accuracy":
            err = check_accuracy(raw, plan.workload.n, int(call.argv[-1]))
        else:
            err = check_inverse(raw, call.argv[3], plan.a, plan.a_inv, plan.kappa)
        err = err or outcomes.same_bytes((exp.key, i), stdout + b"\0" + (produced or b""))
        if err:
            problems.append(err)
    outcomes.record(problems)


def _read_out(call: Call) -> bytes | None:
    if call.out is None:
        return None
    if not call.out.is_file():
        return b""  # fails its check as an unparsable matrix
    data = call.out.read_bytes()
    call.out.unlink()
    return data


# -------------------------------------------------------- experiment runs


def run_child(argv, env, workdir: Path):
    """One Python process: (seconds from spawn to exit, exit code, stdout, max RSS in MB)."""
    out_path = workdir / "stdout"
    with open(out_path, "wb") as out, open(os.devnull, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *argv], stdout=out, stderr=err, env=env)
        _, status, usage = os.wait4(proc.pid, 0)
        elapsed = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return elapsed, proc.returncode, out_path.read_bytes(), usage.ru_maxrss / 1024.0


def run_cli_experiment(exp: Experiment, env, workdir: Path, before_call=None):
    """Run the calls as child processes; (seconds, peak RSS in MB, results).
    ``before_call`` runs, untimed, ahead of each call."""
    total, peak, results = 0.0, 0.0, []
    for call in exp.calls:
        if before_call is not None:
            before_call()
        dt, code, stdout, rss = run_child(("-m", "invlab", *call.argv), env, workdir)
        total += dt
        peak = max(peak, rss)
        results.append((code, stdout, _read_out(call) if code == 0 else None))
    return total, peak, results


def run_inprocess_experiment(exp: Experiment):
    """Run the calls through ``invlab.cli.main``; (seconds, results)."""
    cli = importlib.import_module("invlab.cli")
    total, results = 0.0, []
    for call in exp.calls:
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(list(call.argv))  # looked up per call: may be traced
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 2
            except Exception:  # a child process would print this and exit 1
                code = 1
                traceback.print_exc(file=sys.__stderr__)
        total += time.perf_counter() - t0
        results.append((code, out.getvalue().encode(), _read_out(call) if code == 0 else None))
    return total, results

