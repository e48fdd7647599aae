"""invlab benchmark: CLI workloads end to end, or one traced in-process run.

Run from the repository root:

    python3 perfbench/run.py --workload accuracy-n64 --seed 0 --seconds 30 --trace 0

``--trace 0`` runs the workload's experiments as ``invlab`` child processes,
one at a time (a closed loop with one client), and reports the end-to-end
metrics, with times scaled to a reference machine speed (see measure_cli).
``--trace 1`` runs the same experiments in process through
``invlab.cli.main``, each once untraced and once with every layer traced
(see tracing.py), and reports per-layer numbers per traced experiment plus
the tracing overhead. Experiments are run in whole passes over the
workload's inputs until ``--seconds`` of experiment time is spent.

Every experiment's outputs are checked (workloads.py); a nonzero exit, an
unparsable record, a result outside its bound or output bytes that differ
from an earlier run of the same inputs counts it as failed. The last line
of stdout is the result:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}.
The line before it carries the details: environment, samples, failures.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import json
import os
import platform
import re
import shutil
import statistics
import sys
import time
from pathlib import Path

import numpy as np

import tracing
from workloads import (
    WORKLOADS,
    Outcomes,
    judge,
    make_plan,
    run_child,
    run_cli_experiment,
    run_inprocess_experiment,
)

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPS = 7  # fewest fresh interpreters timed per run for setup_s
REFERENCE = ("-c", "import numpy")
REFERENCE_S = 0.2  # about its median on a 2-core Xeon VM with Python 3.11, numpy 2.4

END_TO_END = {
    "throughput_per_min": "1/min",
    "experiment_p50_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

_SPANS = (
    "rng.normals.calls rng.normals.draws rng.normals.self_s "
    "matgen.build_problem.total_s matgen.random_orthogonal.self_s matgen.bad_inverse.total_s "
    "core.svd_jacobi.calls core.svd_jacobi.self_s core.norm2.calls core.norm2.self_s "
    "core.qr_householder.self_s core.qr_explicit_q.self_s "
    "core.lu_gepp.calls core.lu_gepp.self_s core.lu_gepp.gflops "
    "core.solve_lu.calls core.solve_lu.self_s "
    "core.solve_lu_transposed.calls core.solve_lu_transposed.self_s "
    "core.matmul.calls core.matmul.self_s "
    "core.Matrix.calls core.Matrix.bytes core.Matrix.self_s "
    + " ".join(f"inversion.{f}.total_s inversion.{f}.self_s" for f in (
        "invert_rows_gepp", "invert_cols_gepp", "invert_getri_style",
        "newton_left", "newton_right", "strassen_invert"))
    + " inversion.newton_left.iterations inversion.newton_right.iterations "
    "metrics.residuals.total_s metrics.solve_report.total_s metrics.backward_error.calls "
    "matio.load_matrix.self_s matio.load_matrix.bytes "
    "matio.matrix_to_text.self_s matio.matrix_to_text.bytes "
    "cli.record_to_json.self_s cli.main.self_s"
).split()
_UNITS = {"calls": "count", "draws": "count", "iterations": "count", "bytes": "B",
          "self_s": "s", "total_s": "s", "gflops": "GFLOP/s"}
PER_LAYER = {
    **{name: _UNITS[name.rsplit(".", 1)[1]] for name in _SPANS},
    **{f"{layer}.self_s": "s" for layer in tracing.LAYERS},
    "trace.experiment_s": "s",
    "trace.overhead_frac": "ratio",
}
_WORK_STATS = ("draws", "bytes", "iterations")


# ------------------------------------------------------------ environment


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def _blas_threads() -> int | None:
    """Ask the OpenBLAS that numpy loaded how many threads it uses."""
    try:
        with open("/proc/self/maps") as f:
            libs = sorted(set(re.findall(r"(/\S*openblas\S*\.so\S*)", f.read())))
    except OSError:
        return None
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return int(fn())
    return None


def _git_commit(root: Path) -> str | None:
    """HEAD of the checkout, read from .git directly; None outside git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cpu": _cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": _blas_threads(),
        "commit": _git_commit(ROOT),
    }


# -------------------------------------------------------------- measuring


def _passes(plan, seconds, run_one):
    """Whole passes over the plan until ``seconds`` of experiment time is
    spent, ending at the pass boundary nearest that target."""
    spent, passes = 0.0, 0
    while True:
        for exp in plan.experiments:
            spent += run_one(exp)
        passes += 1
        if spent + 0.5 * spent / passes >= seconds:
            return passes


def measure_cli(plan, seconds, workdir):
    """Child processes, one at a time, with speed-normalized times.

    The machines this runs on share cores with other tenants, and their
    speed drifts by a quarter or more from one minute to the next, which
    moves every wall time of a run alike. So before every CLI call the run
    also times two fresh interpreters: one that imports numpy only (the
    reference: no invlab code, so no change to invlab can move it) and one
    that imports ``invlab.cli`` (set-up). The median reference of the run
    gauges the machine's speed during it, and every reported time is scaled
    by ``REFERENCE_S / median reference``: seconds on a machine where the
    reference takes ``REFERENCE_S``. Raw times go to the details line.
    """
    env = dict(os.environ)
    env.pop("INVLAB_SEED", None)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    setup_child = ("-c", "import invlab.cli")
    run_child(setup_child, env, workdir)  # warm the bytecode cache
    outcomes, times, setups, refs, peak = Outcomes(), [], [], [], [0.0]

    def before_call():
        refs.append(run_child(REFERENCE, env, workdir)[0])
        setups.append(run_child(setup_child, env, workdir)[0])

    def run_one(exp):
        dt, rss, results = run_cli_experiment(exp, env, workdir, before_call)
        judge(plan, exp, results, outcomes)
        times.append(dt)
        peak[0] = max(peak[0], rss)
        return dt

    if _passes(plan, seconds, run_one) == 1:  # rerun once so every run checks bytes
        judge(plan, plan.experiments[0],
              run_cli_experiment(plan.experiments[0], env, workdir)[2], outcomes)
    while len(setups) < SETUP_REPS:
        before_call()
    scale = REFERENCE_S / statistics.median(refs)
    metrics = {
        "throughput_per_min": 60.0 * len(times) / sum(times) / scale,
        "experiment_p50_s": statistics.median(times) * scale,
        "setup_s": statistics.median(setups) * scale,
        "peak_rss_mb": peak[0],
    }
    details = {"samples": len(times), "speed_scale": scale, "experiment_s": times,
               "setup_samples_s": setups, "reference_samples_s": refs}
    return outcomes, metrics, details


def measure_trace(plan, seconds):
    """In-process passes; each experiment runs untraced and traced, in
    alternating order, so their difference is the tracing overhead."""
    outcomes = Outcomes()
    totals: dict[str, dict[str, float]] = {}
    signatures: dict[str, dict] = {}
    spent = {False: 0.0, True: 0.0}
    pairs = [0]

    def run_one(exp):
        started = sum(spent.values())
        pairs[0] += 1
        for traced in ((False, True) if pairs[0] % 2 else (True, False)):
            problems = []
            if traced:
                rec = tracing.Recorder()
                undo = tracing.install(rec)
                try:
                    dt, results = run_inprocess_experiment(exp)
                finally:
                    undo()
                stats = tracing.aggregate(rec.spans)
                problems += _trace_problems(exp, stats, signatures)
                for name, st in stats.items():
                    acc = totals.setdefault(name, dict.fromkeys(st, 0.0))
                    for k, v in st.items():
                        acc[k] += v
            else:
                dt, results = run_inprocess_experiment(exp)
            spent[traced] += dt
            judge(plan, exp, results, outcomes, problems)
        return sum(spent.values()) - started

    passes = _passes(plan, seconds, run_one)
    traced_n = passes * len(plan.experiments)
    metrics = layer_metrics(totals, traced_n, spent[True], spent[False])
    details = {"traced_experiments": traced_n,
               "spans": {k: totals[k] for k in sorted(totals)}}
    return outcomes, metrics, details


def _trace_problems(exp, stats, signatures) -> list[str]:
    """Wiring checks: counts repeat exactly for repeated inputs, and the
    Newton spans saw every iteration that ``invert`` returned."""
    problems = []
    sig = {name: (st["calls"], st["work"]) for name, st in stats.items()}
    if signatures.setdefault(exp.key, sig) != sig:
        problems.append(f"{exp.key}: traced counts differ from an earlier pass")
    if "inversion.invert" in stats:
        newton = sum(stats.get(f"inversion.newton_{side}", {}).get("work", 0)
                     for side in ("left", "right"))
        if newton != stats["inversion.invert"]["work"]:
            problems.append(f"{exp.key}: Newton spans saw {newton} iterations, "
                            f"invert returned {stats['inversion.invert']['work']}")
    return problems


def layer_metrics(totals, experiments, traced_s, untraced_s) -> dict[str, float]:
    """Per-layer values per traced experiment, from aggregated span stats."""
    out = {}
    for name in PER_LAYER:
        span, stat = name.rsplit(".", 1)
        if span == "trace":
            out[name] = (traced_s / experiments if stat == "experiment_s"
                         else (traced_s - untraced_s) / untraced_s)
            continue
        if span in tracing.LAYERS:
            out[name] = sum(st[stat] for k, st in totals.items()
                            if k.startswith(span + ".")) / experiments
            continue
        st = totals.get(span, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "work": 0.0})
        if stat == "gflops":
            out[name] = st["work"] / st["self_s"] / 1e9 if st["self_s"] > 0 else 0.0
        else:
            out[name] = st["work" if stat in _WORK_STATS else stat] / experiments
    return out


# ------------------------------------------------------------------- main


def run(workload, seed: int, seconds: float, trace: bool):
    """One benchmark run; returns (details, result) as printed."""
    workdir = ROOT / ".perfbench_run" / f"{workload.name}-{seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        t0 = time.perf_counter()
        plan = make_plan(workload, seed, workdir)
        inputs_s = time.perf_counter() - t0
        if trace:
            outcomes, metrics, details = measure_trace(plan, seconds)
            units = PER_LAYER
        else:
            outcomes, metrics, details = measure_cli(plan, seconds, workdir)
            units = END_TO_END
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # another run may still use it
            workdir.parent.rmdir()
    details = {
        "workload": workload.name, "seed": seed, "seconds": seconds, "trace": trace,
        "environment": environment(), "inputs_s": inputs_s,
        "failed_frac": outcomes.failed_frac, "failures": outcomes.failures, **details,
    }
    result = {
        "correct": outcomes.failed == 0,
        "attempted": outcomes.attempted,
        "failed": outcomes.failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }
    return details, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "invlab" / "cli.py").is_file():
        print(f"perfbench: no invlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))  # the traced run imports invlab from here
    details, result = run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    print(json.dumps(details))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
