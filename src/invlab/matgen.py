"""Seeded test problems with a known SVD and a reference inverse.

A problem is assembled as A = L diag(sigma) R^T from two independent Haar
orthogonal factors and a geometric spectrum, so the exact inverse
R diag(1/sigma) L^T is available to roughly unit-roundoff accuracy. The
construction factors are stored as the problem's SVD rather than
recomputed; they are the ground truth everything else is judged against.

Substream layout under one master seed (see rng.child_seed): 0 feeds L,
1 feeds R. Callers drawing right-hand sides or perturbations by convention
use RHS_STREAMS[mode] (2 for random b, 3 for random x) and 4 (inverse
perturbation).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .core import Matrix, SvdFactors, Vector, norm2, qr_explicit_q, qr_householder
from .errors import DimensionMismatchError
from .rng import Rng, child_seed

STREAM_L = 0
STREAM_R = 1
STREAM_RHS_B = 2
STREAM_RHS_X = 3
STREAM_BAD_INV = 4


class RhsMode(Enum):
    RANDOM_B = "random-b"
    RANDOM_X = "random-x"


RHS_STREAMS = {RhsMode.RANDOM_B: STREAM_RHS_B, RhsMode.RANDOM_X: STREAM_RHS_X}


@dataclass(frozen=True)
class TestProblem:
    a: Matrix
    a_inv: Matrix         # reference inverse from the construction factors
    svd: SvdFactors       # the factors A was built from, not a recomputation
    kappa: float          # sigma[0] / sigma[-1], exact stored ratio
    seed: int


@dataclass(frozen=True)
class RhsPair:
    b: Vector
    x_ref: Vector
    mode: RhsMode


def random_orthogonal(n: int, rng: Rng) -> Matrix:
    """Haar-distributed orthogonal factor.

    QR of a standard Gaussian matrix, with each column of Q flipped where
    the matching R diagonal is negative; the sign correction is what makes
    the distribution exactly Haar rather than merely orthogonal.
    """
    if n < 1:
        raise DimensionMismatchError("order must be positive")
    g = rng.normals(n * n).reshape(n, n)  # row-major draw order
    f = qr_householder(Matrix(g))
    q = qr_explicit_q(f).data.copy()
    flip = np.diag(f.qr) < 0.0
    q[:, flip] *= -1.0
    return Matrix(q)


def geometric_spectrum(n: int, sigma_1: float, sigma_n: float) -> np.ndarray:
    """n singular values sliding geometrically from sigma_1 down to sigma_n."""
    if n < 1:
        raise ValueError("need at least one singular value")
    if not (np.isfinite(sigma_1) and np.isfinite(sigma_n)):
        raise ValueError("endpoints must be finite")
    if sigma_n <= 0.0 or sigma_1 < sigma_n:
        raise ValueError("need sigma_1 >= sigma_n > 0")
    if n == 1 and sigma_1 != sigma_n:
        raise ValueError("a single singular value needs equal endpoints")
    ratio = sigma_n / sigma_1
    # A ratio below the smallest normal double is subnormal, so it has lost
    # precision, or it is 0 and every interior value vanishes.
    if ratio < np.finfo(np.float64).tiny:
        raise ValueError(
            f"sigma_1/sigma_n = {sigma_1!r}/{sigma_n!r} exceeds 1/(smallest "
            "normal double): the ratio sigma_n/sigma_1 would lose precision"
        )
    if not np.isfinite(1.0 / float(sigma_n)):
        raise ValueError(
            f"1/sigma_n = 1/{sigma_n!r} exceeds binary64: the reference inverse would overflow"
        )
    if n == 1:
        return np.array([sigma_1])
    s = sigma_1 * ratio ** (np.arange(n) / (n - 1))
    s[0] = sigma_1    # pin the endpoints exactly
    s[-1] = sigma_n
    return s


def build_problem(n: int, sigma_1: float = 1e4, sigma_n: float = 1e-4,
                  seed: int = 0) -> TestProblem:
    """Deterministic problem for one (n, spectrum, seed) tuple."""
    sigma = geometric_spectrum(n, sigma_1, sigma_n)
    l = random_orthogonal(n, Rng(child_seed(seed, STREAM_L)))
    r = random_orthogonal(n, Rng(child_seed(seed, STREAM_R)))
    a = Matrix((l.data * sigma) @ r.data.T)
    a_inv = Matrix((r.data * (1.0 / sigma)) @ l.data.T)
    return TestProblem(
        a=a,
        a_inv=a_inv,
        svd=SvdFactors(l, sigma, r),
        kappa=float(sigma[0] / sigma[-1]),
        seed=seed,
    )


def make_rhs(problem: TestProblem, mode: RhsMode, rng: Rng) -> RhsPair:
    """Draw a right-hand side along with its reference solution.

    random-b: b is standard Gaussian and x_ref = R diag(1/sigma) L^T b is
    recovered through the stored factors. Such b has sizeable weight on
    every left singular direction, including the last.

    random-x: x_ref is standard Gaussian and b = L diag(sigma) R^T x_ref.
    The resulting b is dominated by the large-sigma directions, i.e. nearly
    orthogonal to the left singular vectors with small sigma.
    """
    n = problem.a.rows
    l = problem.svd.l.data
    r = problem.svd.r.data
    sigma = problem.svd.sigma
    if mode is RhsMode.RANDOM_B:
        b = rng.normals(n)
        z = l.T @ b
        z = z / sigma
        x = r @ z
    else:
        x = rng.normals(n)
        z = r.T @ x
        z = z * sigma
        b = l @ z
    return RhsPair(Vector(b), Vector(x), mode)


def bad_inverse(problem: TestProblem, v: Matrix, rng: Rng) -> Matrix:
    """Gaussian perturbation of the reference inverse, sized like V's error.

    The perturbation is white, so unlike a computed V its error is not
    aligned with the small singular directions; it is the control case that
    breaks both accuracy and backward stability. An exact V comes back
    unchanged (zero perturbation scale).
    """
    if v.rows != problem.a.rows or v.cols != problem.a.cols:
        raise DimensionMismatchError("candidate inverse has the wrong shape")
    n = problem.a.rows
    scale = norm2(Matrix(v.data - problem.a_inv.data))
    g = rng.normals(n * n).reshape(n, n)
    return Matrix(problem.a_inv.data + scale * g)
