"""Error measures for computed inverses and the solves built from them.

Everything is in the 2-norm. The backward error is the Rigal-Gaches
normwise measure ||A x - b|| / (||A|| ||x|| + ||b||): the size of the
smallest relative perturbation of (A, b) that the computed x solves
exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import EPS, Matrix, SvdFactors, Vector, _prescale, matmul, norm2
from .errors import DimensionMismatchError


@dataclass(frozen=True)
class ResidualReport:
    """Both one-sided residuals of a candidate inverse, plus the direct
    error against a reference inverse when one is available."""

    left_residual: float    # ||V A - I||
    right_residual: float   # ||A V - I||
    gamma_rel: float | None  # ||V - Ainv|| / ||Ainv||


@dataclass(frozen=True)
class SolveReport:
    x_v: Vector
    forward_error_rel: float | None  # needs a reference solution
    backward_error: float
    residual_norm: float             # plain ||A x - b||


@dataclass(frozen=True)
class ProjectionSpectrum:
    """|l_j . gamma_row| per left singular direction, for one row of V - Ainv."""

    row_index: int
    sigmas: np.ndarray
    magnitudes: np.ndarray


@dataclass(frozen=True)
class BoundComparison:
    kappa: float
    loose_bound: float   # kappa^2 eps: inverting, then multiplying, worst case
    tight_bound: float   # kappa eps: what a backward-stable solve promises
    observed: float


def residuals(v: Matrix, a: Matrix, a_inv_ref: Matrix | None = None) -> ResidualReport:
    if v.rows != a.rows or v.cols != a.cols or a.rows != a.cols:
        raise DimensionMismatchError(
            f"inverse candidate {v.rows}x{v.cols} vs matrix {a.rows}x{a.cols}"
        )
    eye = np.eye(a.rows)
    left = norm2(Matrix(matmul(v, a).data - eye))
    right = norm2(Matrix(matmul(a, v).data - eye))
    gamma_rel = None
    if a_inv_ref is not None:
        gamma_rel = norm2(Matrix(v.data - a_inv_ref.data)) / norm2(a_inv_ref)
    return ResidualReport(left, right, gamma_rel)


def forward_error(x_hat: Vector, x_ref: Vector) -> float:
    """Normwise relative error of x_hat against the reference."""
    if x_hat.n != x_ref.n:
        raise DimensionMismatchError("solution vectors differ in length")
    ref = _vnorm(x_ref.data)
    if ref == 0.0:
        raise ValueError("reference solution is zero; relative error undefined")
    return _vnorm(x_hat.data - x_ref.data) / ref


def backward_error(a: Matrix, x: Vector, b: Vector) -> float:
    """Rigal-Gaches normwise backward error of x as a solution of A x = b."""
    if a.rows != b.n or a.cols != x.n:
        raise DimensionMismatchError("shapes do not line up for A x = b")
    r = a.data @ x.data - b.data
    (mr, er), (mx, ex), (mb, eb) = map(_vnorm_parts, (r, x.data, b.data))
    ma, ea = math.frexp(norm2(a))
    # The ratio is taken with every term scaled by 2^-top, exactly, since
    # ||A|| ||x|| or ||b|| alone may lie beyond binary64 when eta does not.
    top = max(ea + ex, eb)
    den = math.ldexp(ma * mx, ea + ex - top) + math.ldexp(mb, eb - top)
    if den == 0.0:
        raise ValueError("x and b are both zero; backward error undefined")
    return math.ldexp(mr, er - top) / den


def solve_report(a: Matrix, x: Vector, b: Vector,
                 x_ref: Vector | None = None) -> SolveReport:
    """Bundle the solve-quality measures for one computed solution."""
    r = a.data @ x.data - b.data
    fwd = forward_error(x, x_ref) if x_ref is not None else None
    return SolveReport(
        x_v=x,
        forward_error_rel=fwd,
        backward_error=backward_error(a, x, b),
        residual_norm=_vnorm(r),
    )


def _vnorm_parts(x: np.ndarray) -> tuple[float, int]:
    """(m, e) with ||x|| = 2^e m: sqrt(x @ x) on x scaled by the power of two
    that brings max |x_i| into [1/2, 1), as ``core.norm2`` does, so the
    squares neither overflow nor underflow. The scaling is exact, so
    ordinary inputs give the same bits."""
    y, e = _prescale(x)
    return math.sqrt(float(y @ y)), e


def _vnorm(x: np.ndarray) -> float:
    """||x||, scaled as in ``_vnorm_parts``. A norm beyond binary64 raises
    ValueError rather than read as inf."""
    m, e = _vnorm_parts(x)
    try:
        return math.ldexp(m, e)
    except OverflowError:
        raise ValueError("vector 2-norm exceeds the binary64 range") from None


def gamma_projection_spectrum(v: Matrix, a_inv_ref: Matrix, s: SvdFactors,
                              row: int) -> ProjectionSpectrum:
    """Resolve one row of the inverse error along the left singular directions.

    Rows of V - Ainv concentrate on the directions with small singular
    values; plotted against the spectrum this is the signature that makes
    ||gamma A|| much smaller than ||gamma|| ||A||.
    """
    if not 0 <= row < v.rows:
        raise IndexError(f"row {row} out of range for {v.rows}x{v.cols}")
    gamma = v.data[row, :] - a_inv_ref.data[row, :]
    magnitudes = np.abs(s.l.data.T @ gamma)
    return ProjectionSpectrum(row, s.sigma.copy(), magnitudes)


def bound_comparison(kappa: float, observed: float) -> BoundComparison:
    if not (kappa >= 1.0 and math.isfinite(kappa)):
        raise ValueError("condition number must be finite and >= 1")
    return BoundComparison(
        kappa=kappa,
        loose_bound=kappa * kappa * EPS,
        tight_bound=kappa * EPS,
        observed=observed,
    )
