"""Experiment command line.

Subcommands:

* ``accuracy``: generate a problem, invert it, and measure everything the
  inverse-vs-factored-solve comparison needs: both residuals, the direct
  inverse error, forward/backward errors for both right-hand-side styles
  (against a GEPP solve of the same systems), the white-noise control
  inverse, and the conditioning bounds.
* ``fig1``: per-direction projection spectra of three rows of V - Ainv (CSV).
* ``gen`` / ``invert`` / ``solve``: the same pipeline as ``accuracy`` split
  into composable file-to-file steps.

All primary output is deterministic byte for byte for a given
configuration and seed; wall-clock timings go to stderr only. Exit codes:
0 ok, 2 usage, 3 file parse, 4 dimension mismatch, 5 singular matrix,
6 iteration ran out of budget.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from .core import Matrix, lu_gepp, matvec, qr_householder, solve_lu, solve_qr
from .errors import (
    DimensionMismatchError,
    FormatError,
    NonConvergenceError,
    SingularMatrixError,
)
from .inversion import InverseMethod, InverseResult, invert
from .matgen import (
    RHS_STREAMS,
    STREAM_BAD_INV,
    RhsMode,
    bad_inverse,
    build_problem,
    make_rhs,
)
from .matio import (
    load_matrix,
    load_vector,
    matrix_to_text,
    require_same_order,
    save_matrix,
    save_vector,
)
from .metrics import (
    BoundComparison,
    ResidualReport,
    SolveReport,
    bound_comparison,
    gamma_projection_spectrum,
    residuals,
    solve_report,
)
from .rng import Rng, child_seed

SEED_ENV_VAR = "INVLAB_SEED"

DEFAULT_N = 256
DEFAULT_SIGMA_1 = 1e4
DEFAULT_SIGMA_N = 1e-4

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_PARSE = 3
EXIT_DIMENSION = 4
EXIT_SINGULAR = 5
EXIT_NO_CONVERGENCE = 6


class _Parser(argparse.ArgumentParser):
    """argparse whose usage errors reach ``main`` instead of exiting."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise ValueError(message)


@dataclass(frozen=True)
class ExperimentConfig:
    n: int = DEFAULT_N
    sigma_1: float = DEFAULT_SIGMA_1
    sigma_n: float = DEFAULT_SIGMA_N
    seed: int = 0
    method: InverseMethod = InverseMethod.GETRI_STYLE

    def echo(self) -> dict:
        return {
            "n": self.n,
            "sigma_1": self.sigma_1,
            "sigma_n": self.sigma_n,
            "seed": self.seed,
            "method": self.method.value,
        }


@dataclass
class ExperimentRecord:
    """Everything the accuracy experiment measured, ready to serialize.

    ``timings`` is diagnostic only and is deliberately left out of the
    serialized forms so that identical configurations produce identical
    bytes; it is reported on stderr instead.
    """

    config: ExperimentConfig
    kappa: float
    inverse: InverseResult
    residual_report: ResidualReport
    solves: dict  # rhs mode value -> {"via_inverse": SolveReport, "via_gepp": SolveReport}
    bad_inverse_report: SolveReport
    bounds: BoundComparison
    timings: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        out = {
            "config": self.config.echo(),
            "kappa": self.kappa,
            "inverse": {
                "method": self.inverse.method.value,
                "iterations": self.inverse.iterations,
                "converged": self.inverse.converged,
            },
            "residuals": {
                "left_residual": self.residual_report.left_residual,
                "right_residual": self.residual_report.right_residual,
                "gamma_rel": self.residual_report.gamma_rel,
            },
            "solves": {
                mode: {
                    route: _solve_report_dict(rep)
                    for route, rep in routes.items()
                }
                for mode, routes in self.solves.items()
            },
            "bad_inverse": _solve_report_dict(self.bad_inverse_report),
            "bounds": {
                "kappa": self.bounds.kappa,
                "loose_bound": self.bounds.loose_bound,
                "tight_bound": self.bounds.tight_bound,
                "observed": self.bounds.observed,
            },
        }
        return out


def _solve_report_dict(rep: SolveReport) -> dict:
    return {
        "forward_error_rel": rep.forward_error_rel,
        "backward_error": rep.backward_error,
        "residual_norm": rep.residual_norm,
        "x": [float(v) for v in rep.x_v.data],
    }


def run_accuracy(config: ExperimentConfig) -> ExperimentRecord:
    """The full experiment for one configuration."""
    timings: dict[str, float] = {}
    t0 = time.perf_counter()
    problem = build_problem(config.n, config.sigma_1, config.sigma_n, config.seed)
    timings["generate"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    inv = _invert(problem.a, config.method, kappa_est=problem.kappa)
    timings["invert"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    report = residuals(inv.v, problem.a, problem.a_inv)
    timings["residuals"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    factors = lu_gepp(problem.a)
    solves: dict[str, dict[str, SolveReport]] = {}
    pairs = {}
    for mode in RhsMode:
        pair = make_rhs(problem, mode, Rng(child_seed(config.seed, RHS_STREAMS[mode])))
        pairs[mode] = pair
        x_via_inverse = matvec(inv.v, pair.b)
        x_via_gepp = solve_lu(factors, pair.b)
        solves[mode.value] = {
            "via_inverse": solve_report(problem.a, x_via_inverse, pair.b, pair.x_ref),
            "via_gepp": solve_report(problem.a, x_via_gepp, pair.b, pair.x_ref),
        }
    timings["solve"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    control = bad_inverse(problem, inv.v, Rng(child_seed(config.seed, STREAM_BAD_INV)))
    pair_x = pairs[RhsMode.RANDOM_X]
    x_bad = matvec(control, pair_x.b)
    bad_report = solve_report(problem.a, x_bad, pair_x.b, pair_x.x_ref)
    timings["bad_inverse"] = time.perf_counter() - t0

    observed = solves[RhsMode.RANDOM_B.value]["via_inverse"].forward_error_rel
    bounds = bound_comparison(problem.kappa, observed)
    return ExperimentRecord(
        config=config,
        kappa=problem.kappa,
        inverse=inv,
        residual_report=report,
        solves=solves,
        bad_inverse_report=bad_report,
        bounds=bounds,
        timings=timings,
    )


FIG1_ROW_LABELS = ("first", "middle", "last")


def fig1_rows(n: int) -> tuple[int, int, int]:
    return 0, n // 2, n - 1


def run_fig1(config: ExperimentConfig, v_override: Matrix | None = None) -> str:
    """CSV of |l_j . gamma_row| against sigma_j for three rows of V - Ainv."""
    problem = build_problem(config.n, config.sigma_1, config.sigma_n, config.seed)
    if v_override is not None:
        v = v_override
    else:
        v = _invert(problem.a, config.method, kappa_est=problem.kappa).v
    lines = ["row_label,j,sigma_j,magnitude"]
    for label, idx in zip(FIG1_ROW_LABELS, fig1_rows(config.n)):
        spectrum = gamma_projection_spectrum(v, problem.a_inv, problem.svd, idx)
        for j in range(config.n):
            lines.append(
                f"{label},{j + 1},{float(spectrum.sigmas[j])!r},"
                f"{float(spectrum.magnitudes[j])!r}"
            )
    return "\n".join(lines) + "\n"


def _invert(a: Matrix, method: InverseMethod, kappa_est: float | None = None) -> InverseResult:
    """``invert``, with an iteration that ran out of budget raised as an error."""
    result = invert(a, method, kappa_est=kappa_est)
    if not result.converged:
        raise NonConvergenceError(
            f"{method.value} did not converge in {result.iterations} iterations"
        )
    return result


def _to_json(d: dict) -> str:
    return json.dumps(d, indent=2) + "\n"


def record_to_json(record: ExperimentRecord) -> str:
    return _to_json(record.to_dict())


def _flatten(prefix: str, value, rows: list) -> None:
    if isinstance(value, dict):
        for k, v in value.items():
            _flatten(f"{prefix}.{k}" if prefix else str(k), v, rows)
    elif isinstance(value, list):
        for i, v in enumerate(value):
            _flatten(f"{prefix}[{i}]", v, rows)
    else:
        rows.append((prefix, value))


def _to_csv(d: dict) -> str:
    """One ``key,value`` line per leaf of a nested record."""
    rows: list = []
    _flatten("", d, rows)
    lines = ["key,value"]
    for key, value in rows:
        lines.append(f"{key},{_csv_scalar(value)}")
    return "\n".join(lines) + "\n"


def _csv_scalar(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _emit(text: str, out_path: str | None) -> None:
    if out_path is None:
        sys.stdout.write(text)
    else:
        Path(out_path).write_text(text)


def _report_timings(timings: dict) -> None:
    for phase, seconds in timings.items():
        print(f"timing {phase} {seconds:.3f}s", file=sys.stderr)


def _resolve_seed(args, parser: argparse.ArgumentParser) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get(SEED_ENV_VAR)
    if env is not None:
        try:
            return int(env, 0)
        except ValueError:
            parser.error(f"{SEED_ENV_VAR} must be an integer, got {env!r}")
    return 0


def _config_from_args(args, parser) -> ExperimentConfig:
    return ExperimentConfig(
        n=args.n,
        sigma_1=args.sigma1,
        sigma_n=args.sigman,
        seed=_resolve_seed(args, parser),
        method=InverseMethod(getattr(args, "method", InverseMethod.GETRI_STYLE.value)),
    )


def _add_problem_flags(p: argparse.ArgumentParser, with_method: bool = True) -> None:
    p.add_argument("--n", type=int, default=DEFAULT_N, help="matrix order")
    p.add_argument("--sigma1", type=float, default=DEFAULT_SIGMA_1,
                   help="largest singular value")
    p.add_argument("--sigman", type=float, default=DEFAULT_SIGMA_N,
                   help="smallest singular value")
    p.add_argument("--seed", type=int, default=None,
                   help=f"64-bit seed (default: ${SEED_ENV_VAR} or 0)")
    if with_method:
        p.add_argument("--method", choices=[m.value for m in InverseMethod],
                       default=InverseMethod.GETRI_STYLE.value,
                       help="inversion strategy")


def _cmd_accuracy(args, parser) -> int:
    config = _config_from_args(args, parser)
    record = run_accuracy(config)
    text = _to_csv(record.to_dict()) if args.format == "csv" else record_to_json(record)
    _emit(text, args.out)
    _report_timings(record.timings)
    return EXIT_OK


def _cmd_fig1(args, parser) -> int:
    config = _config_from_args(args, parser)
    _emit(run_fig1(config), args.out)
    return EXIT_OK


def _cmd_gen(args, parser) -> int:
    config = _config_from_args(args, parser)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    problem = build_problem(config.n, config.sigma_1, config.sigma_n, config.seed)
    save_matrix(out_dir / "a.txt", problem.a)
    save_matrix(out_dir / "ainv.txt", problem.a_inv)
    files = {"a": "a.txt", "ainv": "ainv.txt"}
    if args.rhs is not None:
        mode = RhsMode(args.rhs)
        pair = make_rhs(problem, mode, Rng(child_seed(config.seed, RHS_STREAMS[mode])))
        save_vector(out_dir / "b.txt", pair.b)
        save_vector(out_dir / "xref.txt", pair.x_ref)
        files["b"] = "b.txt"
        files["xref"] = "xref.txt"
    meta = {
        "config": config.echo(),
        "kappa": problem.kappa,
        "rhs_mode": args.rhs,
        "files": files,
    }
    (out_dir / "meta.json").write_text(_to_json(meta))
    return EXIT_OK


def _cmd_invert(args, parser) -> int:
    a = load_matrix(args.matrix)
    result = _invert(a, InverseMethod(args.method))
    _emit(matrix_to_text(result.v), args.out)
    return EXIT_OK


def _cmd_solve(args, parser) -> int:
    a = load_matrix(args.matrix)
    b = load_vector(args.rhs)
    require_same_order(a, b, "solve")
    if args.via == "inverse":
        if args.inverse_file is None:
            parser.error("--via inverse requires --inverse-file")
        v = load_matrix(args.inverse_file)
        if v.rows != a.rows or v.cols != a.cols:
            raise DimensionMismatchError(
                f"inverse file is {v.rows}x{v.cols}, matrix is {a.rows}x{a.cols}"
            )
        x = matvec(v, b)
    elif args.via == "lu":
        x = solve_lu(lu_gepp(a), b)
    else:
        x = solve_qr(qr_householder(a), b)
    x_ref = load_vector(args.xref) if args.xref else None
    rep = _solve_report_dict(solve_report(a, x, b, x_ref))
    _emit(_to_csv(rep) if args.format == "csv" else _to_json(rep), args.out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="invlab",
        description="inverse-based solves: when they are accurate and when "
                    "they are backward stable",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("accuracy", help="full experiment on one generated problem")
    _add_problem_flags(p)
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.add_argument("--out", default=None, help="output path (default: stdout)")
    p.set_defaults(func=_cmd_accuracy)

    p = sub.add_parser("fig1", help="projection spectra of three rows of V - Ainv")
    _add_problem_flags(p)
    p.add_argument("--out", default=None, help="output path (default: stdout)")
    p.set_defaults(func=_cmd_fig1)

    p = sub.add_parser("gen", help="write a generated problem to a directory")
    _add_problem_flags(p, with_method=False)
    p.add_argument("--rhs", choices=[m.value for m in RhsMode], default=None,
                   help="also write a right-hand side pair")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("invert", help="invert a matrix file")
    p.add_argument("matrix", help="matrix file")
    p.add_argument("--method", choices=[m.value for m in InverseMethod],
                   default=InverseMethod.GETRI_STYLE.value)
    p.add_argument("--out", default=None, help="output path (default: stdout)")
    p.set_defaults(func=_cmd_invert)

    p = sub.add_parser("solve", help="solve A x = b from files")
    p.add_argument("matrix", help="matrix file")
    p.add_argument("rhs", help="right-hand side file (n x 1)")
    p.add_argument("--via", choices=["inverse", "lu", "qr"], required=True)
    p.add_argument("--inverse-file", default=None,
                   help="inverse matrix file (with --via inverse)")
    p.add_argument("--xref", default=None, help="reference solution file")
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.add_argument("--out", default=None, help="output path (default: stdout)")
    p.set_defaults(func=_cmd_solve)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args, parser)
    except FormatError as exc:
        return _fail(EXIT_PARSE, exc)
    except DimensionMismatchError as exc:
        return _fail(EXIT_DIMENSION, exc)
    except SingularMatrixError as exc:
        return _fail(EXIT_SINGULAR, exc)
    except NonConvergenceError as exc:
        return _fail(EXIT_NO_CONVERGENCE, exc)
    except ValueError as exc:  # usage errors, out-of-range problem parameters
        return _fail(EXIT_USAGE, exc)
    except OSError as exc:  # an --out path that cannot be written
        return _fail(EXIT_USAGE, exc)


def _fail(code: int, exc: Exception) -> int:
    record = {
        "error": {
            "exit_code": code,
            "type": type(exc).__name__,
            "message": str(exc),
        }
    }
    print(json.dumps(record), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
