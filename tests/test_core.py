"""Kernel tests: LU, triangular solves, QR, Jacobi SVD, spectral norm.

Expected values come from hand-worked small cases (exact in binary64),
exact rational arithmetic oracles, or closed forms.  Residual bounds use
the standard 10*n*eps*|A| yardstick.
"""
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from invlab import (
    DimensionMismatchError,
    Matrix,
    NonConvergenceError,
    SingularMatrixError,
    Vector,
    cond2,
    identity,
    lu_gepp,
    matmul,
    matvec,
    norm2,
    qr_explicit_q,
    qr_householder,
    qr_r,
    solve_lu,
    solve_lu_transposed,
    solve_qr,
    svd_jacobi,
)
from invlab import core
from invlab.core import EPS, NORM_SVD_CUTOFF
from invlab.rng import Rng

# ---------------------------------------------------------------- helpers


def gaussian_matrix(n: int, seed: int) -> Matrix:
    return Matrix(Rng(seed).normals(n * n).reshape(n, n))


def frac_rows(a: Matrix):
    """Entries of a float matrix as exact Fractions."""
    return [[Fraction(x) for x in row] for row in a.data.tolist()]


def frac_fro(rows) -> float:
    s = sum(x * x for row in rows for x in row)
    return math.sqrt(float(s))


def exact_lu_residual_fro(a: Matrix) -> float:
    """Frobenius norm of P A - L U computed in exact rational arithmetic."""
    f = lu_gepp(a)
    n = a.rows
    pa = [[Fraction(x) for x in a.data[f.perm[i]].tolist()] for i in range(n)]
    lo = [
        [
            Fraction(f.lu.data[i, j]) if j < i else (Fraction(1) if j == i else Fraction(0))
            for j in range(n)
        ]
        for i in range(n)
    ]
    up = [
        [Fraction(f.lu.data[i, j]) if j >= i else Fraction(0) for j in range(n)]
        for i in range(n)
    ]
    resid = [
        [
            pa[i][j] - sum(lo[i][k] * up[k][j] for k in range(n))
            for j in range(n)
        ]
        for i in range(n)
    ]
    return frac_fro(resid)


# ----------------------------------------------------------- Matrix/Vector


def test_matrix_rejects_non_finite():
    with pytest.raises(ValueError):
        Matrix(np.array([[1.0, np.inf], [0.0, 1.0]]))
    with pytest.raises(ValueError):
        Vector(np.array([np.nan]))


def test_matrix_rejects_bad_shape():
    with pytest.raises(DimensionMismatchError):
        Matrix(np.zeros((0, 3)))
    with pytest.raises(DimensionMismatchError):
        Matrix(np.zeros(4))


def test_matrix_data_is_immutable():
    m = Matrix(np.ones((2, 2)))
    with pytest.raises(ValueError):
        m.data[0, 0] = 5.0


def test_identity():
    assert np.array_equal(identity(3).data, np.eye(3))


# ----------------------------------------------------------------- matmul


def test_matmul_hand_example():
    a = Matrix(np.array([[1.0, 2.0], [3.0, 4.0]]))
    b = Matrix(np.array([[5.0, 6.0], [7.0, 8.0]]))
    assert np.array_equal(matmul(a, b).data, [[19.0, 22.0], [43.0, 50.0]])


def test_matmul_rectangular_hand_example():
    a = Matrix(np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]))
    b = Matrix(np.array([[7.0], [8.0], [9.0]]))
    assert np.array_equal(matmul(a, b).data, [[50.0], [122.0]])


def test_matmul_dimension_mismatch():
    a = Matrix(np.ones((2, 3)))
    with pytest.raises(DimensionMismatchError):
        matmul(a, a)


def test_matvec():
    a = Matrix(np.array([[1.0, 2.0], [3.0, 4.0]]))
    assert np.array_equal(matvec(a, Vector(np.array([1.0, 1.0]))).data, [3.0, 7.0])
    with pytest.raises(DimensionMismatchError):
        matvec(a, Vector(np.ones(3)))


# --------------------------------------------------------------------- LU


def test_lu_exchange_matrix():
    f = lu_gepp(Matrix(np.array([[0.0, 1.0], [1.0, 0.0]])))
    assert list(f.perm) == [1, 0]
    assert np.array_equal(f.lu.data, np.eye(2))


def test_lu_pivot_tie_prefers_lowest_row():
    # |1| == |-1| in column 0; the earlier row must win the tie
    f = lu_gepp(Matrix(np.array([[1.0, 2.0], [-1.0, 0.0]])))
    assert list(f.perm) == [0, 1]
    assert f.lu.data[1, 0] == -1.0  # multiplier, not a swap


def test_lu_hilbert_residual_exact_oracle():
    n = 3
    h = Matrix(np.array([[1.0 / (i + j + 1) for j in range(n)] for i in range(n)]))
    resid = exact_lu_residual_fro(h)
    assert resid <= 10 * n * EPS * norm2(h)


def test_lu_random_residual_exact_oracle():
    n = 5
    a = gaussian_matrix(n, 123)
    assert exact_lu_residual_fro(a) <= 10 * n * EPS * norm2(a)


def test_lu_reconstruction_float():
    n = 16
    a = gaussian_matrix(n, 3)
    f = lu_gepp(a)
    lo = np.tril(f.lu.data, -1) + np.eye(n)
    up = np.triu(f.lu.data)
    resid = norm2(Matrix(a.data[f.perm] - lo @ up))
    assert resid <= 10 * n * EPS * norm2(a)


def test_lu_singular_raises_with_step():
    a = Matrix(np.array([[1.0, 2.0, 3.0], [0.0, 0.0, 0.0], [4.0, 5.0, 6.0]]))
    with pytest.raises(SingularMatrixError) as exc:
        lu_gepp(a)
    assert isinstance(exc.value.detail, int)
    assert "np.float64" not in str(exc.value)


def test_lu_rejects_rectangular():
    with pytest.raises(DimensionMismatchError):
        lu_gepp(Matrix(np.ones((2, 3))))


# ----------------------------------------------------------------- solves


def test_solve_lu_diagonal_exact():
    f = lu_gepp(Matrix(np.diag([2.0, 4.0])))
    x = solve_lu(f, Vector(np.array([2.0, 8.0])))
    assert np.array_equal(x.data, [1.0, 2.0])


def test_solve_lu_exact_rational_oracle():
    a = Matrix(np.array([[4.0, -2.0, 1.0], [3.0, 6.0, -4.0], [2.0, 1.0, 8.0]]))
    b = Vector(np.array([5.0, -2.0, 7.0]))
    fa = frac_rows(a)
    # exact solve by Cramer's rule
    def det3(m):
        return (
            m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
            - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
            + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
        )

    d = det3(fa)
    fb = [Fraction(v) for v in b.data.tolist()]
    x_exact = []
    for j in range(3):
        mj = [[fb[i] if k == j else fa[i][k] for k in range(3)] for i in range(3)]
        x_exact.append(det3(mj) / d)
    x = solve_lu(lu_gepp(a), b)
    err = frac_fro([[Fraction(x.data[i]) - x_exact[i] for i in range(3)]])
    scale = frac_fro([x_exact])
    s = svd_jacobi(a)
    kappa = cond2(s)
    assert err <= 100 * kappa * EPS * scale


def test_solve_lu_backward_error_small():
    n = 8
    a = gaussian_matrix(n, 77)
    b = Vector(Rng(78).normals(n))
    x = solve_lu(lu_gepp(a), b)
    r = np.linalg.norm(a.data @ x.data - b.data)
    eta = r / (norm2(a) * np.linalg.norm(x.data) + np.linalg.norm(b.data))
    assert eta <= 50 * EPS


def test_solve_lu_transposed_hand_example():
    # A = [[1,2],[0,1]]: solve A^T y = b with b=(1,1) -> y = (1,-1)
    f = lu_gepp(Matrix(np.array([[1.0, 2.0], [0.0, 1.0]])))
    y = solve_lu_transposed(f, Vector(np.array([1.0, 1.0])))
    assert np.array_equal(y.data, [1.0, -1.0])


def test_solve_lu_transposed_matches_transpose_factorization():
    n = 8
    a = gaussian_matrix(n, 9)
    b = Vector(Rng(10).normals(n))
    y = solve_lu_transposed(lu_gepp(a), b)
    y_ref = solve_lu(lu_gepp(Matrix(a.data.T.copy())), b)
    diff = np.linalg.norm(y.data - y_ref.data) / np.linalg.norm(y_ref.data)
    s = svd_jacobi(a)
    assert diff <= 100 * n * cond2(s) * EPS


def test_solve_dimension_mismatch():
    f = lu_gepp(Matrix(np.eye(2)))
    with pytest.raises(DimensionMismatchError):
        solve_lu(f, Vector(np.ones(3)))
    with pytest.raises(DimensionMismatchError):
        solve_lu_transposed(f, Vector(np.ones(3)))


@pytest.mark.parametrize("solve", [solve_lu, solve_lu_transposed])
def test_solve_matrix_rhs_matches_vector_solves(solve):
    n, m = 12, 5
    a = gaussian_matrix(n, 41)
    b = Rng(42).normals(n * m).reshape(n, m)
    f = lu_gepp(a)
    x = solve(f, Matrix(b))
    assert isinstance(x, Matrix)
    assert (x.rows, x.cols) == (n, m)
    bound = 10 * n * cond2(svd_jacobi(a)) * EPS
    for j in range(m):
        xj = solve(f, Vector(b[:, j])).data
        assert np.linalg.norm(x.data[:, j] - xj) <= bound * np.linalg.norm(xj)
    with pytest.raises(DimensionMismatchError):
        solve(f, Matrix(np.ones((n + 1, m))))


@pytest.mark.parametrize("solve", [solve_lu, solve_lu_transposed])
@settings(max_examples=30, deadline=None)
@given(n=st.integers(1, 12), seed=st.integers(0, 2**16),
       k=st.integers(-900, 1000), j=st.integers(-1000, 1000))
def test_lu_solves_are_exact_under_power_of_two_scaling(solve, n, seed, k, j):
    # b and U are prescaled for the sweeps, so A at 2^k and b at 2^j solve
    # to the same bits scaled by 2^(j-k), up to either end of the range
    # (unscaled, b = A x near 1e308 overflowed on the way)
    assume(abs(j - k) <= 1000)
    a = gaussian_matrix(n, seed).data
    b = Rng(seed + 1).normals(n)
    x = solve(lu_gepp(Matrix(a)), Vector(b)).data
    x_scaled = solve(lu_gepp(Matrix(np.ldexp(a, k))), Vector(np.ldexp(b, j))).data
    assert np.array_equal(x_scaled, np.ldexp(x, j - k))


def test_solve_lu_beyond_binary64_is_a_named_error():
    f = lu_gepp(Matrix(np.ldexp(np.eye(2), -1000)))
    with pytest.raises(ValueError, match="solution overflows"):
        solve_lu(f, Vector(np.ldexp(np.ones(2), 1000)))


# --------------------------------------------------------------------- QR


def test_qr_hand_column():
    # first column (3,4): reflector sends it to (-5, 0) (sign avoids cancellation)
    a = Matrix(np.array([[3.0, 0.0], [4.0, 0.0]]))
    f = qr_householder(a)
    assert f.qr.data[0, 0] == -5.0
    assert f.tau[1] == 0.0  # second column is zero after the first reflector


def test_qr_sign_choice_negative_leading_entry():
    a = Matrix(np.array([[-3.0, 0.0], [4.0, 0.0]]))
    f = qr_householder(a)
    assert f.qr.data[0, 0] == 5.0


def test_qr_orthogonality_and_reconstruction():
    for n, seed in ((5, 21), (16, 22)):
        a = gaussian_matrix(n, seed)
        f = qr_householder(a)
        q = qr_explicit_q(f)
        r = qr_r(f)
        assert norm2(Matrix(q.data.T @ q.data - np.eye(n))) <= 10 * n * EPS
        assert norm2(Matrix(a.data - q.data @ r.data)) <= 10 * n * EPS * norm2(a)
        assert np.array_equal(r.data, np.triu(r.data))


def test_solve_qr_diagonal_exact():
    f = qr_householder(Matrix(np.diag([2.0, 4.0])))
    x = solve_qr(f, Vector(np.array([2.0, 8.0])))
    assert np.array_equal(x.data, [1.0, 2.0])


def test_solve_qr_exact_rational_oracle():
    a = Matrix(np.array([[2.0, 1.0], [1.0, 3.0]]))
    b = Vector(np.array([3.0, 5.0]))
    # exact: x = (4/5, 7/5)
    x = solve_qr(qr_householder(a), b)
    x_exact = [Fraction(4, 5), Fraction(7, 5)]
    err = frac_fro([[Fraction(x.data[i]) - x_exact[i] for i in range(2)]])
    kappa = cond2(svd_jacobi(a))
    assert err <= 100 * kappa * EPS * frac_fro([x_exact])


def test_solve_qr_singular_raises():
    f = qr_householder(Matrix(np.diag([1.0, 0.0])))
    with pytest.raises(SingularMatrixError) as exc:
        solve_qr(f, Vector(np.ones(2)))
    assert exc.value.detail == 1
    assert "np.float64" not in str(exc.value)


def test_qr_backward_error_small():
    n = 8
    a = gaussian_matrix(n, 31)
    b = Vector(Rng(32).normals(n))
    x = solve_qr(qr_householder(a), b)
    r = np.linalg.norm(a.data @ x.data - b.data)
    eta = r / (norm2(a) * np.linalg.norm(x.data) + np.linalg.norm(b.data))
    assert eta <= 50 * EPS


# -------------------------------------------------------------------- SVD


def test_svd_exchange_matrix_exact():
    s = svd_jacobi(Matrix(np.array([[0.0, 1.0], [1.0, 0.0]])))
    assert np.array_equal(s.sigma, [1.0, 1.0])
    recon = (s.l.data * s.sigma) @ s.r.data.T
    assert np.array_equal(recon, [[0.0, 1.0], [1.0, 0.0]])


def test_svd_diagonal_sorts_exactly():
    s = svd_jacobi(Matrix(np.diag([1.0, 3.0, 2.0])))
    assert np.array_equal(s.sigma, [3.0, 2.0, 1.0])
    recon = (s.l.data * s.sigma) @ s.r.data.T
    assert np.array_equal(recon, np.diag([1.0, 3.0, 2.0]))


def test_svd_random_contracts():
    n = 16
    a = gaussian_matrix(n, 55)
    s = svd_jacobi(a)
    assert np.all(s.sigma[:-1] >= s.sigma[1:])
    assert np.all(s.sigma >= 0.0)
    assert norm2(Matrix(s.l.data.T @ s.l.data - np.eye(n))) <= 10 * n * EPS
    assert norm2(Matrix(s.r.data.T @ s.r.data - np.eye(n))) <= 10 * n * EPS
    recon = (s.l.data * s.sigma) @ s.r.data.T
    assert norm2(Matrix(a.data - recon)) <= 10 * n * EPS * norm2(a)


def test_svd_zero_matrix_completes_basis():
    s = svd_jacobi(Matrix(np.zeros((3, 3))))
    assert np.array_equal(s.sigma, np.zeros(3))
    assert norm2(Matrix(s.l.data.T @ s.l.data - np.eye(3))) <= 30 * EPS


def test_svd_rank_deficient_outer_product():
    # [[1,2],[2,4]] has singular values (5, 0)
    s = svd_jacobi(Matrix(np.array([[1.0, 2.0], [2.0, 4.0]])))
    assert abs(s.sigma[0] - 5.0) <= 20 * EPS
    assert s.sigma[1] <= 20 * EPS
    assert norm2(Matrix(s.l.data.T @ s.l.data - np.eye(2))) <= 20 * EPS


def test_svd_sweep_budget_exhaustion():
    a = gaussian_matrix(8, 99)
    with pytest.raises(NonConvergenceError) as exc:
        svd_jacobi(a, max_sweeps=1)
    assert exc.value.measure is not None and exc.value.measure > 0.0


# ------------------------------------------------------------------ norm2


def test_norm2_closed_form_2x2():
    # singular values of [[1,2],[3,4]]: sqrt of eigenvalues of A^T A
    a = Matrix(np.array([[1.0, 2.0], [3.0, 4.0]]))
    sigma1 = math.sqrt((30.0 + math.sqrt(884.0)) / 2.0)
    assert abs(norm2(a) - sigma1) <= 1e-12 * sigma1


def test_norm2_zero_matrix():
    assert norm2(Matrix(np.zeros((4, 4)))) == 0.0
    assert norm2(Matrix(np.zeros((100, 3)))) == 0.0


def test_norm2_power_iteration_path():
    # 65 > the small-matrix cutoff, so this goes through power iteration;
    # a separated top singular value makes the iteration converge sharply
    diag = np.concatenate(([3.0], np.linspace(1.0, 0.5, 64)))
    d = np.zeros((65, 65))
    np.fill_diagonal(d, diag)
    est = norm2(Matrix(d))
    assert abs(est - 3.0) <= 1e-5 * 3.0


def test_norm2_draws_one_power_start_vector_per_order(monkeypatch):
    a, b, c = gaussian_matrix(80, 1), gaussian_matrix(80, 2), gaussian_matrix(81, 3)
    core._power_start.cache_clear()
    draws = []
    normals = Rng.normals
    monkeypatch.setattr(Rng, "normals", lambda self, count: draws.append(count)
                        or normals(self, count))
    assert norm2(a) != norm2(b)
    assert draws == [80]
    norm2(c)
    assert draws == [80, 81]


def test_norm2_rectangular():
    a = Matrix(np.array([[3.0], [4.0]]))
    assert abs(norm2(a) - 5.0) <= 20 * EPS


def test_norm2_power_of_two_scaling_exact():
    for n, seed in ((8, 4), (80, 5)):  # one Jacobi path, one power path
        a = gaussian_matrix(n, seed)
        scaled = Matrix(a.data * 2.0**10)
        assert norm2(scaled) == 2.0**10 * norm2(a)


@st.composite
def _zero_or_binade_matrices(draw, orders):
    """Square matrices with entries 0 or +-m * 2^e, m in [1/2, 1), e in [-20, 20]."""
    n = draw(orders)
    g = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mant = g.uniform(0.5, 1.0, (n, n)) * g.choice([-1.0, 1.0], (n, n))
    d = np.ldexp(mant, g.integers(-20, 21, (n, n)))
    d[g.random((n, n)) < draw(st.sampled_from([0.0, 0.5, 1.0]))] = 0.0
    return d


@pytest.mark.parametrize("orders", [
    st.integers(1, NORM_SVD_CUTOFF),        # Gram-squaring path
    st.integers(NORM_SVD_CUTOFF + 1, 80),   # power iteration path
], ids=["jacobi", "power"])
@settings(max_examples=25, deadline=None)
@given(data=st.data(), k=st.integers(-1000, 1000))
def test_norm2_power_of_two_scaling_exact_over_the_exponent_range(orders, data, k):
    d = data.draw(_zero_or_binade_matrices(orders))
    assert norm2(Matrix(np.ldexp(d, k))) == math.ldexp(norm2(Matrix(d)), k)


@st.composite
def _low_rank_matrices(draw):
    """Square Gaussian products of rank 0..n."""
    n = draw(st.integers(1, NORM_SVD_CUTOFF))
    k = draw(st.integers(0, n))
    g = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return g.standard_normal((n, k)) @ g.standard_normal((k, n))


@st.composite
def _clustered_matrices(draw):
    """Haar U diag(sigma) V^T with sigma = (1, 1 - delta t_2, ..., 1 - delta t_n),
    t_i in [1, 2]: sigma_2..sigma_n crowd sigma_1 at gap delta in [1e-12, 1e-1]."""
    n = draw(st.integers(1, NORM_SVD_CUTOFF))
    delta = 10.0 ** draw(st.floats(-12.0, -1.0))
    g = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def haar():
        q, r = np.linalg.qr(g.standard_normal((n, n)))
        return q * np.where(np.diag(r) < 0.0, -1.0, 1.0)

    sigma = np.concatenate(([1.0], 1.0 - delta * g.uniform(1.0, 2.0, n - 1)))
    return (haar() * sigma) @ haar().T


@settings(max_examples=40, deadline=None)
@given(d=st.one_of(_zero_or_binade_matrices(st.integers(1, NORM_SVD_CUTOFF)),
                   _low_rank_matrices(), _clustered_matrices()))
@example(d=np.zeros((5, 5)))
@example(d=np.array([[1.0, 2.0], [2.0, 4.0]]))           # rank 1
@example(d=np.outer(np.arange(1.0, 65.0), np.ones(64)))  # rank 1 at the cutoff
@example(d=np.diag([1.0, 3.0, 2.0]))
@example(d=gaussian_matrix(1, 30).data)
@example(d=gaussian_matrix(NORM_SVD_CUTOFF, 31).data)
def test_norm2_matches_the_lapack_leading_singular_value(d):
    sigma_1 = np.linalg.norm(d, 2)  # LAPACK's SVD, as the oracle only
    assert abs(norm2(Matrix(d)) - sigma_1) <= 4 * d.shape[0] * EPS * sigma_1


@settings(max_examples=50, deadline=None)
@given(d=st.one_of(_zero_or_binade_matrices(st.integers(1, NORM_SVD_CUTOFF)),
                   _zero_or_binade_matrices(st.integers(NORM_SVD_CUTOFF + 1, 80))),
       k=st.integers(-1000, 1000))
@example(d=np.array([[3.0, 0.0], [4.0, 0.0]]), k=0)  # rank one: ||x||_F = ||x||_2
@example(d=np.eye(80), k=0)  # power path: q0 is a top singular vector
def test_norm2_bracket_holds_over_the_exponent_range(d, k):
    # Newton's screen: ||x q0|| <= ||x||_2 <= ||x||_F in real arithmetic.
    # Where two of them coincide, rounding can cross them by up to about
    # n eps (seen on rank-one matrices), which the screen's factor absorbs.
    x = np.ldexp(d, k)
    rounding = 1.0 + 2 * x.shape[0] * EPS
    exact = norm2(Matrix(x))
    assert core._norm2_floor(x) <= exact * rounding
    assert exact <= core._norm2_ceil(x) * rounding


def test_norm2_is_computed_once_per_matrix(kernel_calls):
    a = gaussian_matrix(12, 21)
    first = norm2(a)
    assert norm2(a) == first
    assert kernel_calls["_norm2"] == 1
    assert norm2(Matrix(a.data)) == first  # a new Matrix starts with no norm
    assert kernel_calls == {"_norm2": 2, "_jacobi_rotate": 0}


@pytest.mark.parametrize("n, c", [(80, 1e80), (4, 1e-170), (80, 1e-170), (4, 1e160)])
def test_norm2_scaled_identity_near_overflow_and_underflow(n, c):
    assert abs(norm2(Matrix(c * np.eye(n))) - c) <= 4 * math.ulp(c)


@pytest.mark.parametrize("n", [2, 80])  # squaring path, power path
def test_norm2_beyond_binary64_is_a_named_error(n):
    # sigma_1 = 1.5e308 n: every entry is finite, the norm is not
    with pytest.raises(ValueError, match="spectral norm exceeds"):
        norm2(Matrix(np.full((n, n), 1.5e308)))


# ------------------------------------------------------------------ cond2


def test_cond2_from_factors():
    s = svd_jacobi(Matrix(np.diag([2.0, 1.0])))
    assert cond2(s) == 2.0


def test_cond2_singular_raises():
    s = svd_jacobi(Matrix(np.zeros((2, 2))))
    with pytest.raises(SingularMatrixError):
        cond2(s)
