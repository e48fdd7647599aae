"""Dense binary64 linear algebra kernels.

Square matrices in row-major numpy storage. The factorizations (GEPP-LU,
Householder QR, one-sided Jacobi SVD) are written out longhand, column by
column, and every triangular solve runs through one row-by-row substitution
kernel, so the arithmetic order is fixed and every run reproduces bit for
bit; the dense product is the one place we hand off to the BLAS. All
functions are pure: inputs are never mutated. The one piece of state is
the spectral norm that ``norm2`` caches on a ``Matrix``; it stays valid
only because ``Matrix.data`` is read-only, so never make it writeable.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, NonConvergenceError, SingularMatrixError
from .rng import Rng

EPS = 2.0 ** -53  # binary64 unit roundoff

NORM_SVD_CUTOFF = 64     # norm2 squares the Gram matrix up to this order
POWER_TOL = 1e-6         # relative change stop for power iteration
POWER_MAX_ITERS = 200
JACOBI_MAX_SWEEPS = 30

_POWER_SEED = 0x6E6F726D32  # fixed start-vector stream for power iteration
# Squarings of the Gram matrix in norm2: ||G^(2^J)||_F^(2^-(J+1)) overstates
# sigma_1 by at most n^(2^-(J+2)), and 2^-59 ln 64 < eps, so J = 57 leaves
# that factor at 1 after rounding for every order up to NORM_SVD_CUTOFF.
_GRAM_SQUARINGS = 57
# Above this column norm, squares lost to underflow change x @ x by less than
# n 2^-103 relatively, so the unscaled sum stands. It is kept because the dot
# on the strided column rounds differently from one on a scaled copy.
_QR_NORM_SAFE_MIN = 2.0 ** -486


def _as_array(data, ndim, what):
    arr = np.array(data, dtype=np.float64, order="C", copy=True)
    if arr.ndim != ndim or 0 in arr.shape:
        raise DimensionMismatchError(f"{what} must be {ndim}-d and non-empty")
    if not np.isfinite(arr).all():
        raise ValueError(f"{what} entries must be finite")
    arr.flags.writeable = False
    return arr


class Matrix:
    """Immutable dense real matrix.

    ``_norm2`` caches the spectral norm once ``norm2`` has computed it.
    """

    __slots__ = ("data", "_norm2")

    def __init__(self, data):
        self.data = _as_array(data, 2, "matrix")
        self._norm2: float | None = None

    @property
    def rows(self) -> int:
        return self.data.shape[0]

    @property
    def cols(self) -> int:
        return self.data.shape[1]

    def __repr__(self):
        return f"Matrix({self.rows}x{self.cols})"


class Vector:
    """Immutable dense real vector."""

    __slots__ = ("data",)

    def __init__(self, data):
        self.data = _as_array(data, 1, "vector")

    @property
    def n(self) -> int:
        return self.data.shape[0]

    def __repr__(self):
        return f"Vector({self.n})"


def identity(n: int) -> Matrix:
    return Matrix(np.eye(n))


def _require_square(a: Matrix, what: str) -> int:
    if a.rows != a.cols:
        raise DimensionMismatchError(f"{what} requires a square matrix, got {a.rows}x{a.cols}")
    return a.rows


@dataclass(frozen=True)
class LuFactors:
    """Packed GEPP factorization P A = L U.

    ``lu`` holds U on and above the diagonal and the unit-lower multipliers
    below it; ``perm[i]`` is the source row of A that became row i of P A.
    """

    lu: np.ndarray
    perm: np.ndarray

    @property
    def n(self) -> int:
        return self.lu.shape[0]


@dataclass(frozen=True)
class QrFactors:
    """Packed Householder factorization A = Q R.

    ``qr`` holds R on and above the diagonal and the reflector tails below
    it (leading reflector entry normalized to 1 and implicit); ``tau[k]`` is
    the scale of reflector k, zero meaning the identity reflector.
    """

    qr: np.ndarray
    tau: np.ndarray

    @property
    def n(self) -> int:
        return self.qr.shape[0]


@dataclass(frozen=True)
class SvdFactors:
    """Factors a = l @ diag(sigma) @ r.T with orthonormal l, r columns."""

    l: Matrix
    sigma: np.ndarray
    r: Matrix

    def __post_init__(self):
        sig = np.asarray(self.sigma, dtype=np.float64)
        if sig.ndim != 1:
            raise DimensionMismatchError("sigma must be 1-d")
        if np.any(sig < 0.0) or np.any(sig[:-1] < sig[1:]):
            raise ValueError("singular values must be nonnegative and nonincreasing")
        object.__setattr__(self, "sigma", sig)


def matmul(a: Matrix, b: Matrix) -> Matrix:
    """Dense product (BLAS gemm on the raw arrays)."""
    if a.cols != b.rows:
        raise DimensionMismatchError(f"cannot multiply {a.rows}x{a.cols} by {b.rows}x{b.cols}")
    return Matrix(a.data @ b.data)


def matvec(a: Matrix, x: Vector) -> Vector:
    if a.cols != x.n:
        raise DimensionMismatchError(f"cannot apply {a.rows}x{a.cols} to length-{x.n} vector")
    return Vector(a.data @ x.data)


def lu_gepp(a: Matrix) -> LuFactors:
    """LU with partial pivoting; pivot = first maximal |entry| down the column."""
    n = _require_square(a, "lu_gepp")
    scale = norm2(a)
    tol = n * EPS * scale
    lu = a.data.copy()
    perm = np.arange(n)
    with np.errstate(over="ignore", invalid="ignore"):  # overflow is checked below
        for k in range(n):
            p = k + int(np.argmax(np.abs(lu[k:, k])))  # argmax ties -> lowest row
            if abs(lu[p, k]) <= tol:
                raise SingularMatrixError(
                    f"singular pivot {float(lu[p, k])!r} at elimination step {k}", detail=k
                )
            if p != k:
                lu[[k, p]] = lu[[p, k]]
                perm[[k, p]] = perm[[p, k]]
            lu[k + 1:, k] /= lu[k, k]
            lu[k + 1:, k + 1:] -= np.outer(lu[k + 1:, k], lu[k, k + 1:])
    if not np.isfinite(lu).all():
        raise ValueError("LU factors overflow the binary64 range")
    lu.flags.writeable = False
    perm.flags.writeable = False
    return LuFactors(lu, perm)


def _substitute(t: np.ndarray, b: np.ndarray, lower: bool, unit: bool) -> None:
    """b <- T^-1 b in place, one row at a time, T the lower or upper triangle of t.

    Row i is x[i] = b[i] - t[i, :i] @ x[:i] (lower) or
    b[i] - t[i, i+1:] @ x[i+1:] (upper), divided by t[i, i] unless the
    diagonal is an implicit unit. b is a vector or a matrix whose columns
    are right-hand sides.
    """
    n = t.shape[0]
    for i in (range(n) if lower else range(n - 1, -1, -1)):
        done = slice(0, i) if lower else slice(i + 1, n)
        b[i] -= t[i, done] @ b[done]
        if not unit:
            b[i] /= t[i, i]


def _check_rhs(n: int, b: Vector | Matrix) -> None:
    rows = b.n if isinstance(b, Vector) else b.rows
    if rows != n:
        raise DimensionMismatchError(f"factors are {n}x{n}, rhs has {rows} rows")


def solve_lu(f: LuFactors, b: Vector | Matrix) -> Vector | Matrix:
    """Solve A x = b through the packed factors of A.

    A Matrix b is a block of right-hand sides, solved in one sweep. The
    sweeps run on b and U scaled by powers of two (see ``_prescale``), so
    factors and right-hand sides at either end of the binary64 range
    neither overflow nor underflow on the way. The scaling is exact, so
    ordinary inputs give the same bits as unscaled.
    """
    _check_rhs(f.n, b)
    x, e = _prescale(b.data[f.perm])  # a fresh array: the two sweeps overwrite it
    u, g = _prescale(np.triu(f.lu))
    _substitute(f.lu, x, lower=True, unit=True)
    _substitute(u, x, lower=False, unit=False)
    return _unscaled(type(b), x, e - g)


def solve_lu_transposed(f: LuFactors, b: Vector | Matrix) -> Vector | Matrix:
    """Solve A^T y = b through factors of A (no second factorization).

    With P A = L U this is U^T L^T P y = b: one forward substitution with
    U^T, one back substitution with L^T, then the inverse row permutation.
    Scaled as in ``solve_lu``.
    """
    _check_rhs(f.n, b)
    w, e = _prescale(b.data)
    u, g = _prescale(np.triu(f.lu))
    _substitute(u.T, w, lower=True, unit=False)
    _substitute(f.lu.T, w, lower=False, unit=True)  # L^T (unit) above the diagonal
    y = np.empty_like(w)
    y[f.perm] = w
    return _unscaled(type(b), y, e - g)


def _unscaled(kind, x: np.ndarray, e: int):
    """kind(2^e x); a solution beyond binary64 is a named error, not inf."""
    with np.errstate(over="ignore"):
        x = np.ldexp(x, e)
    if not np.isfinite(x).all():
        raise ValueError("solution overflows the binary64 range")
    return kind(x)


def qr_householder(a: Matrix) -> QrFactors:
    """Householder QR; reflector sign follows the leading entry (no cancellation)."""
    n = _require_square(a, "qr_householder")
    qr = a.data.copy()
    tau = np.zeros(n)
    for k in range(n):
        x = qr[k:, k]
        normx = math.sqrt(float(x @ x))
        if not _QR_NORM_SAFE_MIN <= normx < math.inf:  # squares under- or overflowed
            xs, e = _prescale(x)
            normx = math.ldexp(math.sqrt(float(xs @ xs)), e)
        if normx == 0.0:
            continue  # zero column: identity reflector, tau stays 0
        alpha = -normx if x[0] >= 0.0 else normx
        v = x.copy()
        v[0] -= alpha
        v /= v[0]  # normalize so the stored reflector has leading 1
        tau[k] = 2.0 / float(v @ v)
        w = tau[k] * (v @ qr[k:, k + 1:])
        qr[k:, k + 1:] -= np.outer(v, w)
        qr[k, k] = alpha
        qr[k + 1:, k] = v[1:]
    qr.flags.writeable = False
    tau.flags.writeable = False
    return QrFactors(qr, tau)


def _apply_q_transpose(f: QrFactors, vec: np.ndarray) -> None:
    """vec <- Q^T vec in place (reflectors applied first to last)."""
    qr, tau = f.qr, f.tau
    n = f.n
    for k in range(n):
        if tau[k] == 0.0:
            continue
        tail = qr[k + 1:, k]
        s = tau[k] * (vec[k] + tail @ vec[k + 1:])
        vec[k] -= s
        vec[k + 1:] -= s * tail


def qr_explicit_q(f: QrFactors) -> Matrix:
    """Accumulate the orthogonal factor as a dense matrix."""
    n = f.n
    q = np.eye(n)
    for k in range(n - 1, -1, -1):
        if f.tau[k] == 0.0:
            continue
        v = np.empty(n - k)
        v[0] = 1.0
        v[1:] = f.qr[k + 1:, k]
        q[k:, :] -= np.outer(f.tau[k] * v, v @ q[k:, :])
    return Matrix(q)


def qr_r(f: QrFactors) -> Matrix:
    return Matrix(np.triu(f.qr))


def solve_qr(f: QrFactors, b: Vector) -> Vector:
    """Solve A x = b through the packed QR factors."""
    _check_rhs(f.n, b)
    # max |R| entry stands in for the matrix scale in the rank decision
    scale = float(np.abs(np.triu(f.qr)).max())
    tol = f.n * EPS * scale
    small = np.flatnonzero(np.abs(np.diag(f.qr)) <= tol)
    if small.size:
        i = int(small[-1])  # the back substitution meets the last one first
        raise SingularMatrixError(
            f"R diagonal {float(f.qr[i, i])!r} at column {i} is below tolerance", detail=i
        )
    y = b.data.copy()
    _apply_q_transpose(f, y)
    _substitute(f.qr, y, lower=False, unit=False)
    return Vector(y)


def _complete_zero_columns(w: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    """Left vectors from rotated columns; zero columns get an orthonormal fill.

    Rank deficiency (or deflation of collapsed columns) leaves working
    columns with no usable direction. Each is filled from the canonical
    basis vector farthest from the span of the columns placed so far; that
    projection residual is at least sqrt((n-k)/n), so the pick never
    degenerates no matter how many columns need filling. Two
    re-orthogonalization passes keep the factor orthonormal.
    """
    n = w.shape[0]
    l = np.zeros_like(w)
    filled = [j for j in range(w.shape[1]) if sigma[j] > 0.0]
    for j in filled:
        l[:, j] = w[:, j] / sigma[j]
    for j in range(w.shape[1]):
        if sigma[j] > 0.0:
            continue
        placed = l[:, filled]
        resid = np.eye(n) - placed @ placed.T
        norms = np.sqrt((resid * resid).sum(axis=0))
        cand = resid[:, int(np.argmax(norms))].copy()
        for _ in range(2):  # twice-is-enough re-orthogonalization
            cand -= placed @ (placed.T @ cand)
        nrm = math.sqrt(float(cand @ cand))
        if nrm == 0.0:  # unreachable: the complement has positive dimension
            raise AssertionError("orthonormal completion failed")
        l[:, j] = cand / nrm
        filled.append(j)
    return l


def svd_jacobi(a: Matrix, jacobi_tol: float | None = None,
               max_sweeps: int = JACOBI_MAX_SWEEPS) -> SvdFactors:
    """One-sided Jacobi SVD, cyclic by rows over column pairs.

    Columns p, q are rotated while the Gram entry is large relative to the
    column norms, |w_p . w_q| > jacobi_tol * ||w_p|| ||w_q||. The default
    tolerance is 2 sqrt(n) eps, just above the rounding floor of the dot
    products themselves; an absolute threshold would either stall (matrices
    scaled far above 1) or under-rotate (far below). Raises after
    ``max_sweeps`` sweeps, reporting the largest relative off-diagonal
    Gram measure still standing.

    A column whose norm falls below n * eps * (largest initial column norm)
    is rounding debris of the rotations, not a direction: relative to other
    such columns it can stay correlated forever, so it is deflated; pairs
    touching it are skipped and its singular value is reported as exact
    zero, with the left factor column supplied by orthonormal completion.
    Genuinely small singular values are far above this floor for any
    condition number below 1/(n eps).
    """
    n = _require_square(a, "svd_jacobi")
    w = np.vstack([a.data, np.eye(n)])  # A over I: the bottom rows become R
    sigma = np.sqrt(_jacobi_rotate(w, jacobi_tol, max_sweeps))
    order = np.argsort(-sigma, kind="stable")
    sigma = sigma[order]
    w = w[:, order]
    l = _complete_zero_columns(w[:n], sigma)
    return SvdFactors(Matrix(l), sigma, Matrix(w[n:]))


def _jacobi_rotate(w: np.ndarray, jacobi_tol: float | None = None,
                   max_sweeps: int = JACOBI_MAX_SWEEPS) -> np.ndarray:
    """One-sided Jacobi sweeps on the columns of w, in place, cyclic by rows
    over column pairs; returns the squared column norms of the top block.

    Only the top n rows (n = number of columns) enter the Gram test; rows
    below them take no part and just follow the rotations, which is how
    ``svd_jacobi`` accumulates its right factor. Deflated columns come
    back with exact zero norms. See ``svd_jacobi`` for the tolerance, the
    deflation floor and the error raised when the sweeps run out.
    """
    n = w.shape[1]
    top = w[:n]  # same strides as an n x n array, so the Gram dots round alike
    if jacobi_tol is None:
        jacobi_tol = 2.0 * math.sqrt(n) * EPS
    colsq = (top * top).sum(axis=0)
    tiny_sq = (n * EPS) ** 2 * float(colsq.max())  # deflation floor, squared
    off = math.inf
    converged = False
    for _ in range(max_sweeps):
        colsq = (top * top).sum(axis=0)  # refreshed per sweep, updated per rotation
        off = 0.0
        rotated = False
        for p in range(n - 1):
            for q in range(p + 1, n):
                app, aqq = colsq[p], colsq[q]
                if app <= tiny_sq or aqq <= tiny_sq:
                    continue
                apq = float(top[:, p] @ top[:, q])
                bound = math.sqrt(app * aqq)
                rel = abs(apq) / bound if bound > 0.0 else 0.0
                if rel > off:
                    off = rel
                if rel <= jacobi_tol:
                    continue
                rotated = True
                zeta = (aqq - app) / (2.0 * apq)
                t = math.copysign(1.0, zeta) / (abs(zeta) + math.hypot(1.0, zeta))
                c = 1.0 / math.sqrt(1.0 + t * t)
                s = t * c
                wp = w[:, p].copy()
                w[:, p] = c * wp - s * w[:, q]
                w[:, q] = s * wp + c * w[:, q]
                colsq[p] = app - t * apq
                colsq[q] = aqq + t * apq
        if not rotated:
            converged = True
            break
    if not converged:
        raise NonConvergenceError(
            f"Jacobi sweeps exhausted ({max_sweeps}); largest relative "
            f"off-diagonal Gram measure {off!r}", measure=off,
        )
    colsq = (top * top).sum(axis=0)
    colsq[colsq <= tiny_sq] = 0.0  # deflated columns report exact zeros
    return colsq


def norm2(a: Matrix) -> float:
    """Spectral norm: leading singular value, by repeated squaring of the
    Gram matrix for small square orders, by power iteration on A^T A
    otherwise.

    The squaring path forms G = A^T A and squares it a fixed number of
    times; ||G^(2^J)||_F^(2^-(J+1)) is sigma_1 up to a factor n^(2^-(J+2))
    that rounds to 1, whatever the gap between sigma_1 and sigma_2. The
    work runs on A scaled by the power of two that brings max |a_ij| into
    [1/2, 1), as LAPACK's dlascl does, so squares neither overflow nor
    underflow. The scaling is exact for every entry within 2^1021 of the
    largest, so ordinary inputs give the same bits as unscaled. The result
    is kept on ``a``, so asking again costs nothing. A norm beyond binary64
    raises ValueError.
    """
    if a._norm2 is None:
        try:
            a._norm2 = _norm2(a)
        except OverflowError:
            raise ValueError("spectral norm exceeds the binary64 range") from None
    return a._norm2


def _prescale(x: np.ndarray) -> tuple[np.ndarray, int]:
    """(d, e) with d = 2^-e x and max |d| in [1/2, 1), as LAPACK's dlascl
    scales: squares of d neither overflow nor underflow, and the scaling is
    exact for every entry within 2^1021 of the largest. A zero x gives e = 0."""
    e = math.frexp(max(float(x.max()), -float(x.min())))[1]
    return np.ldexp(x, -e), e


def _norm2(a: Matrix) -> float:
    d, e = _prescale(a.data)
    if a.rows == a.cols and a.rows <= NORM_SVD_CUTOFF:
        return _gram_squaring_norm(d, e)
    q = _power_start(a.cols)
    s_prev = 0.0
    s = 0.0
    for _ in range(POWER_MAX_ITERS):
        y = d @ q
        s = math.sqrt(float(y @ y))
        if s == 0.0:
            return 0.0
        z = d.T @ y
        q = z / math.sqrt(float(z @ z))
        if abs(s - s_prev) <= POWER_TOL * s:
            break
        s_prev = s
    return math.ldexp(s, e)


def _gram_squaring_norm(d: np.ndarray, e: int) -> float:
    """2^e sigma_1(d) from G = d^T d squared _GRAM_SQUARINGS times. Before
    each squaring G is rescaled by the power of two that brings max |g_ij|
    into [1/2, 1), so nothing overflows; the exponents are summed exactly
    in ``scale``, with G^(2^k) = 2^scale g."""
    g = d.T @ d
    scale = 0
    for _ in range(_GRAM_SQUARINGS):
        g, s = _prescale(g)
        g = g @ g
        scale = 2 * (scale + s)
    flat = g.reshape(-1)
    fro = math.sqrt(float(flat @ flat))
    if fro == 0.0:
        return 0.0
    # sigma_1 is the degree-th root of 2^scale fro. scale has more bits
    # than a double, so the integer part of scale / degree is split off exactly.
    degree = 2 ** (_GRAM_SQUARINGS + 1)
    whole, frac = divmod(scale, degree)
    return math.ldexp(2.0 ** ((frac + math.log2(fro)) / degree), whole + e)


def _ldexp_or_inf(s: float, e: int) -> float:
    try:
        return math.ldexp(s, e)
    except OverflowError:
        return math.inf


def _norm2_floor(x: np.ndarray) -> float:
    """||x q0|| for the unit start vector q0 of power iteration: norm2 never
    returns less, up to rounding. It is norm2's first power step, and the
    Rayleigh values of the steps after it never decrease; on the squaring
    path sigma_1 >= ||x q|| for every unit q. Prescaled like norm2; inf when
    the norm is beyond binary64."""
    d, e = _prescale(x)
    y = d @ _power_start(x.shape[1])
    return _ldexp_or_inf(math.sqrt(float(y @ y)), e)


def _norm2_ceil(x: np.ndarray) -> float:
    """Frobenius norm, which norm2 never exceeds, up to rounding: it is at
    least sigma_1. Prescaled like norm2; inf when the norm is beyond binary64."""
    d, e = _prescale(x)
    flat = d.reshape(-1)
    return _ldexp_or_inf(math.sqrt(float(flat @ flat)), e)


@functools.lru_cache(maxsize=8)
def _power_start(n: int) -> np.ndarray:
    """Unit start vector for power iteration at order n, from a fixed
    stream, so every call sees the same one. Read-only: it is shared."""
    q = Rng(_POWER_SEED).normals(n)
    q /= math.sqrt(float(q @ q))
    q.flags.writeable = False
    return q


def cond2(s: SvdFactors) -> float:
    """Spectral condition number from computed singular values."""
    smallest = float(s.sigma[-1])
    if smallest == 0.0:
        raise SingularMatrixError("zero smallest singular value", detail=len(s.sigma) - 1)
    return float(s.sigma[0]) / smallest
