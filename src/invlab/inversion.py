"""Six ways to build an explicit inverse, with different stability contracts.

The row-solve route targets a small left residual ||V A - I||, the
column-solve route a small right residual ||A V - I||; the LAPACK-style
triangular composition lands close to the column route. The two Newton
iterations converge to a left or right inverse respectively, and the
recursive block (Schur complement) scheme guarantees neither side.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .core import (
    EPS,
    Matrix,
    _norm2_ceil,
    _norm2_floor,
    _prescale,
    _substitute,
    identity,
    lu_gepp,
    norm2,
    solve_lu,
    solve_lu_transposed,
)
from .errors import DimensionMismatchError, SingularMatrixError

NEWTON_TOL = 100.0     # residual stop: tol * kappa_est * EPS
NEWTON_MAX_ITER = 100
# The stop test is screened with floor(R) <= ||R|| and ||V|| <= ceil(V),
# which hold up to O(n eps) rounding in the bounds; this factor absorbs it.
NEWTON_SCREEN_SLACK = 2.0


class InverseMethod(Enum):
    ROWS_GEPP = "rows-gepp"
    COLS_GEPP = "cols-gepp"
    GETRI_STYLE = "getri"
    NEWTON_LEFT = "newton-left"
    NEWTON_RIGHT = "newton-right"
    STRASSEN = "strassen"


@dataclass(frozen=True)
class InverseResult:
    v: Matrix
    method: InverseMethod
    iterations: int   # 0 for the direct methods
    converged: bool   # False only when an iteration hits its budget


def invert_rows_gepp(a: Matrix) -> InverseResult:
    """Row i of V solves v_i A = e_i: one factorization, one A^T Y = I sweep, V = Y^T."""
    f = lu_gepp(a)
    v = solve_lu_transposed(f, identity(f.n)).data.T
    return InverseResult(Matrix(v), InverseMethod.ROWS_GEPP, 0, True)


def invert_cols_gepp(a: Matrix) -> InverseResult:
    """Column j of V solves A v_j = e_j: one factorization, one A V = I sweep."""
    f = lu_gepp(a)
    return InverseResult(solve_lu(f, identity(f.n)), InverseMethod.COLS_GEPP, 0, True)


def invert_getri_style(a: Matrix) -> InverseResult:
    """Invert through the triangular factors: V = U^-1 L^-1 P.

    U^-1 comes from back substitution against the identity; L^-1 is folded
    in from the right, X L = U^-1 solved as L^T X^T = U^-T, last column
    first; the pivoting permutation is applied to the columns at the end.
    """
    f = lu_gepp(a)
    x = np.eye(f.n)
    _substitute(f.lu, x, lower=False, unit=False)  # x = U^-1
    _substitute(f.lu.T, x.T, lower=False, unit=True)  # x = U^-1 L^-1
    v = np.empty_like(x)
    v[:, f.perm] = x
    return InverseResult(Matrix(v), InverseMethod.GETRI_STYLE, 0, True)


def default_newton_seed(a: Matrix) -> Matrix:
    """Classical safe start V0 = A^T / (||A||_1 ||A||_inf).

    Computed on A prescaled by a power of two, as ``norm2`` does, so the
    norm product neither overflows nor underflows; ordinary inputs give the
    same bits as unscaled.
    """
    d, e = _prescale(a.data)
    norm1 = float(np.abs(d).sum(axis=0).max())
    norminf = float(np.abs(d).sum(axis=1).max())
    if norm1 == 0.0:
        raise SingularMatrixError("cannot seed the iteration from a zero matrix")
    return Matrix(np.ldexp(d.T / (norm1 * norminf), -e))


def _newton(a: Matrix, v0: Matrix | None, tol: float, max_iter: int,
            kappa_est: float | None, left: bool) -> InverseResult:
    n = a.rows
    if a.rows != a.cols:
        raise DimensionMismatchError("newton iteration requires a square matrix")
    v = v0 if v0 is not None else default_newton_seed(a)
    if v.rows != n or v.cols != n:
        raise DimensionMismatchError("seed shape does not match the matrix")
    d = a.data
    varr = v.data
    norm_a = norm2(a)
    eye = np.eye(n)
    two_eye = 2.0 * eye
    iterations = 0
    converged = False
    for t in range(1, max_iter + 1):
        with np.errstate(over="ignore", invalid="ignore"):  # divergence is checked below
            if left:
                nxt = (two_eye - varr @ d) @ varr
                r = nxt @ d - eye
            else:
                nxt = varr @ (two_eye - d @ varr)
                r = d @ nxt - eye
        iterations = t
        if not (np.isfinite(nxt).all() and np.isfinite(r).all()):
            break  # diverged: keep the last finite iterate, report not converged
        varr = nxt
        # a cheap bracket rules out most iterates before the exact norms
        kap_ceil = kappa_est if kappa_est is not None else norm_a * _norm2_ceil(varr)
        if _norm2_floor(r) > NEWTON_SCREEN_SLACK * tol * kap_ceil * EPS:
            continue
        resid = norm2(Matrix(r))
        kap = kappa_est if kappa_est is not None else norm_a * norm2(Matrix(varr))
        if resid <= tol * kap * EPS:
            converged = True
            break
    method = InverseMethod.NEWTON_LEFT if left else InverseMethod.NEWTON_RIGHT
    return InverseResult(Matrix(varr), method, iterations, converged)


def newton_left(a: Matrix, v0: Matrix | None = None, tol: float = NEWTON_TOL,
                max_iter: int = NEWTON_MAX_ITER,
                kappa_est: float | None = None) -> InverseResult:
    """V <- (2I - V A) V, converging to a left inverse (small ||V A - I||).

    Stops once ||V A - I|| <= tol * kappa_est * eps; without a caller-supplied
    conditioning estimate, kappa_est is re-estimated as ||A|| ||V|| per step.
    The exact 2-norms run only on iterates that pass a cheap screen: when
    ||R q0|| (q0 the power-iteration start, a floor under ||R||) exceeds twice
    the threshold with ||V||_F (a ceiling over ||V||) in place of ||V||, the
    test cannot pass. The iterates never depend on a norm.
    """
    return _newton(a, v0, tol, max_iter, kappa_est, left=True)


def newton_right(a: Matrix, v0: Matrix | None = None, tol: float = NEWTON_TOL,
                 max_iter: int = NEWTON_MAX_ITER,
                 kappa_est: float | None = None) -> InverseResult:
    """V <- V (2I - A V), converging to a right inverse (small ||A V - I||)."""
    return _newton(a, v0, tol, max_iter, kappa_est, left=False)


def _invert_block(d: np.ndarray, path: str) -> np.ndarray:
    k = d.shape[0]
    if k == 1:
        if d[0, 0] == 0.0:
            raise SingularMatrixError(f"singular 1x1 block at {path}", detail=path)
        return np.array([[1.0 / d[0, 0]]])
    if k == 2:
        det = d[0, 0] * d[1, 1] - d[0, 1] * d[1, 0]
        fro2 = float((d * d).sum())  # >= sigma_1^2, within a factor 2
        if abs(det) <= 2.0 * EPS * fro2:
            raise SingularMatrixError(f"singular 2x2 block at {path}", detail=path)
        return np.array([[d[1, 1], -d[0, 1]], [-d[1, 0], d[0, 0]]]) / det
    h = k // 2
    a11, a12 = d[:h, :h], d[:h, h:]
    a21, a22 = d[h:, :h], d[h:, h:]
    i11 = _invert_block(a11, path + ".A11")
    t = a21 @ i11
    schur = a22 - t @ a12
    i_s = _invert_block(schur, path + ".S")
    c12 = -(i11 @ a12) @ i_s
    c21 = -(i_s @ t)
    c11 = i11 - c12 @ t
    out = np.empty((k, k))
    out[:h, :h] = c11
    out[:h, h:] = c12
    out[h:, :h] = c21
    out[h:, h:] = i_s
    return out


def strassen_invert(a: Matrix) -> InverseResult:
    """Recursive 2x2 block inversion via Schur complements.

    Requires a power-of-two order (inputs are rejected, never padded) and
    nonsingular leading blocks at every level; a singular block aborts with
    the recursion path that reached it.
    """
    _square_power_of_two(a)
    v = _invert_block(a.data, "A")
    return InverseResult(Matrix(v), InverseMethod.STRASSEN, 0, True)


def _square_power_of_two(a: Matrix) -> int:
    if a.rows != a.cols:
        raise DimensionMismatchError("block inversion requires a square matrix")
    n = a.rows
    if n & (n - 1):
        raise DimensionMismatchError(
            f"block inversion requires a power-of-two order, got {n}"
        )
    return n


_DISPATCH = {
    InverseMethod.ROWS_GEPP: invert_rows_gepp,
    InverseMethod.COLS_GEPP: invert_cols_gepp,
    InverseMethod.GETRI_STYLE: invert_getri_style,
    InverseMethod.STRASSEN: strassen_invert,
}


def invert(a: Matrix, method: InverseMethod,
           kappa_est: float | None = None) -> InverseResult:
    """Dispatch to the chosen strategy (conditioning hint feeds the iterations)."""
    if method is InverseMethod.NEWTON_LEFT:
        return newton_left(a, kappa_est=kappa_est)
    if method is InverseMethod.NEWTON_RIGHT:
        return newton_right(a, kappa_est=kappa_est)
    return _DISPATCH[method](a)
