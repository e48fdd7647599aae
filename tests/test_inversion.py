"""Tests for the six inversion strategies.

Small diagonal and permutation cases have exact binary64 inverses, so
those assert bitwise equality.  Random cases are checked against the
generator's construction inverse with residual-style bounds.
"""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from invlab import (
    DimensionMismatchError,
    InverseMethod,
    Matrix,
    SingularMatrixError,
    build_problem,
    default_newton_seed,
    identity,
    invert,
    invert_cols_gepp,
    invert_getri_style,
    invert_rows_gepp,
    newton_left,
    newton_right,
    norm2,
    residuals,
    strassen_invert,
)
from invlab import inversion
from invlab.core import EPS, NORM_SVD_CUTOFF
from invlab.inversion import NEWTON_MAX_ITER, NEWTON_TOL


DIRECT_METHODS = (
    InverseMethod.ROWS_GEPP,
    InverseMethod.COLS_GEPP,
    InverseMethod.GETRI_STYLE,
)


# ------------------------------------------------------------ exact cases


@pytest.mark.parametrize("method", list(InverseMethod))
def test_diagonal_power_of_two_exact(method):
    # 1/2 and 1/4 are exact, so direct and recursive methods hit them exactly;
    # the Newton iterations converge to within a few eps instead
    a = Matrix(np.diag([2.0, 4.0]))
    res = invert(a, method)
    expected = np.diag([0.5, 0.25])
    if method in (InverseMethod.NEWTON_LEFT, InverseMethod.NEWTON_RIGHT):
        assert res.converged
        assert np.max(np.abs(res.v.data - expected)) <= 8 * EPS
    else:
        assert np.array_equal(res.v.data, expected)


def test_getri_permuted_exact():
    res = invert_getri_style(Matrix(np.array([[0.0, 2.0], [1.0, 0.0]])))
    assert np.array_equal(res.v.data, [[0.0, 1.0], [0.5, 0.0]])


def test_rows_cols_permuted_exact():
    a = Matrix(np.array([[0.0, 2.0], [1.0, 0.0]]))
    expected = np.array([[0.0, 1.0], [0.5, 0.0]])
    assert np.array_equal(invert_rows_gepp(a).v.data, expected)
    assert np.array_equal(invert_cols_gepp(a).v.data, expected)


def test_strassen_identity_and_diagonal_exact():
    assert np.array_equal(strassen_invert(identity(4)).v.data, np.eye(4))
    a = Matrix(np.diag([2.0, 4.0, 8.0, 16.0]))
    assert np.array_equal(
        strassen_invert(a).v.data, np.diag([0.5, 0.25, 0.125, 0.0625])
    )


# ----------------------------------------------------------- error paths


@pytest.mark.parametrize(
    "method", [m for m in InverseMethod if m not in
               (InverseMethod.NEWTON_LEFT, InverseMethod.NEWTON_RIGHT)]
)
def test_singular_raises(method):
    a = Matrix(np.array([[1.0, 2.0], [2.0, 4.0]]))
    with pytest.raises(SingularMatrixError):
        invert(a, method)


def test_strassen_rejects_non_power_of_two():
    with pytest.raises(DimensionMismatchError):
        strassen_invert(Matrix(np.eye(3)))
    with pytest.raises(DimensionMismatchError):
        strassen_invert(Matrix(np.eye(6)))


def test_strassen_singular_leading_block_path():
    # A11 = [[1,2],[2,4]] is singular; the error names the recursion path
    a = np.eye(4)
    a[:2, :2] = [[1.0, 2.0], [2.0, 4.0]]
    with pytest.raises(SingularMatrixError) as exc:
        strassen_invert(Matrix(a))
    assert "A.A11" in str(exc.value.detail)


def test_strassen_singular_schur_path():
    a = np.eye(4)
    a[3, 3] = 0.0
    with pytest.raises(SingularMatrixError) as exc:
        strassen_invert(Matrix(a))
    assert "A.S" in str(exc.value.detail)


def test_invert_rejects_rectangular():
    with pytest.raises(DimensionMismatchError):
        invert(Matrix(np.ones((2, 3))), InverseMethod.GETRI_STYLE)


# ----------------------------------------------------------- Newton seeds


def test_default_newton_seed_diagonal():
    # A^T / (|A|_1 |A|_inf): both norms are 4, so diag(2,4)/16
    seed = default_newton_seed(Matrix(np.diag([2.0, 4.0])))
    assert np.array_equal(seed.data, np.diag([0.125, 0.25]))


def test_default_newton_seed_zero_matrix_raises():
    with pytest.raises(SingularMatrixError):
        default_newton_seed(Matrix(np.zeros((2, 2))))


def test_newton_scalar_iterates_exact():
    # v <- (2 - v a) v on scalars: 0.25 -> 0.375 -> 0.46875 (exact binary)
    a = Matrix(np.array([[2.0]]))
    v0 = Matrix(np.array([[0.25]]))
    r1 = newton_left(a, v0=v0, max_iter=1)
    assert r1.v.data[0, 0] == 0.375
    assert not r1.converged
    r2 = newton_left(a, v0=v0, max_iter=2)
    assert r2.v.data[0, 0] == 0.46875
    full = newton_left(a, v0=v0)
    assert full.converged
    assert abs(full.v.data[0, 0] - 0.5) <= 4 * EPS
    assert full.iterations <= 10


def test_newton_identity_converges_in_one_update():
    res = newton_left(identity(3), v0=identity(3))
    assert res.converged
    assert res.iterations == 1
    assert np.array_equal(res.v.data, np.eye(3))


def test_newton_singular_never_converges():
    a = Matrix(np.diag([1.0, 0.0]))
    res = newton_left(a, max_iter=5)
    assert not res.converged
    assert res.iterations == 5
    res = newton_right(a, max_iter=5)
    assert not res.converged


@pytest.mark.parametrize("n", [4, 80])
def test_newton_divergence_reports_not_converged(n):
    # v <- (2 - 2v) v from v = 10 grows like v^2 until it overflows
    res = newton_left(Matrix(2.0 * np.eye(n)), v0=Matrix(10.0 * np.eye(n)))
    assert not res.converged
    assert np.isfinite(res.v.data).all()


def test_default_newton_seed_at_extreme_scale():
    # ||A||_1 ||A||_inf under- or overflows at these scales unless A is prescaled
    seed = default_newton_seed(Matrix(np.diag([2.0, 4.0])))
    for k in (-1000, -600, 600, 1000):
        scaled = default_newton_seed(Matrix(np.ldexp(np.diag([2.0, 4.0]), k)))
        assert np.array_equal(scaled.data, np.ldexp(seed.data, -k))


def test_newton_seed_shape_mismatch():
    with pytest.raises(DimensionMismatchError):
        newton_left(identity(2), v0=identity(3))


# ------------------------------------------------- residual-bound checks


def test_all_methods_meet_error_bound():
    n, kappa = 16, 1e2
    p = build_problem(n, 1e1, 1e-1, seed=2)
    ref_norm = norm2(p.a_inv)
    for method in InverseMethod:
        res = invert(p.a, method, kappa_est=p.kappa)
        gamma = norm2(Matrix(res.v.data - p.a_inv.data)) / ref_norm
        assert gamma <= 1e3 * n * kappa * EPS, (method, gamma)


def test_rows_left_cols_right_guarantees():
    n, kappa = 16, 1e2
    p = build_problem(n, 1e1, 1e-1, seed=4)
    bound = 100 * n * kappa * EPS
    rep_rows = residuals(invert_rows_gepp(p.a).v, p.a)
    assert rep_rows.left_residual <= bound
    rep_cols = residuals(invert_cols_gepp(p.a).v, p.a)
    assert rep_cols.right_residual <= bound


def test_newton_left_right_sides():
    n, kappa = 16, 1e2
    p = build_problem(n, 1e1, 1e-1, seed=5)
    bound = 100 * n * kappa * EPS
    left = newton_left(p.a, kappa_est=p.kappa)
    right = newton_right(p.a, kappa_est=p.kappa)
    assert left.converged and right.converged
    assert residuals(left.v, p.a).left_residual <= bound
    assert residuals(right.v, p.a).right_residual <= bound
    # same iteration count by symmetry of the residual recurrences
    assert left.iterations == right.iterations


def test_strassen_agrees_with_getri():
    p = build_problem(8, 1e1, 1e-1, seed=6)
    v_s = strassen_invert(p.a).v
    v_g = invert_getri_style(p.a).v
    diff = norm2(Matrix(v_s.data - v_g.data)) / norm2(v_g)
    assert diff <= 1e3 * 8 * p.kappa * EPS


def test_invert_dispatch_reports_method():
    p = build_problem(4, 2.0, 0.5, seed=7)
    for method in InverseMethod:
        res = invert(p.a, method, kappa_est=p.kappa)
        assert res.method is method
        assert res.v.rows == 4


# ------------------------------------------- Newton against a reference loop


def _reference_newton(a, left, norm, kappa_est=None, v0=None, max_iter=NEWTON_MAX_ITER,
                      tol=NEWTON_TOL):
    """The Newton loop with no screen: the plain recurrence, and the exact
    stop test norm(R) <= tol * kappa * eps on every iterate."""
    d = a.data
    v = (v0 if v0 is not None else default_newton_seed(a)).data
    n = a.rows
    eye = np.eye(n)
    norm_a = norm(a)
    for t in range(1, max_iter + 1):
        with np.errstate(over="ignore", invalid="ignore"):
            nxt = (2.0 * eye - v @ d) @ v if left else v @ (2.0 * eye - d @ v)
            r = nxt @ d - eye if left else d @ nxt - eye
        if not (np.isfinite(nxt).all() and np.isfinite(r).all()):
            return v, t, False
        v = nxt
        kap = kappa_est if kappa_est is not None else norm_a * norm(Matrix(v))
        if norm(Matrix(r)) <= tol * kap * EPS:
            return v, t, True
    return v, max_iter, False


@pytest.fixture
def shared_norm(monkeypatch):
    """norm2 memoized on the bits of its argument and installed in the
    inversion module, so an exact norm the library and the reference loop
    both take runs once."""
    memo = {}

    def norm(m):
        key = (m.data.shape, m.data.tobytes())
        if key not in memo:
            memo[key] = norm2(m)
        return memo[key]

    monkeypatch.setattr(inversion, "norm2", norm)
    return norm


def _assert_matches_reference(res, ref):
    v, iterations, converged = ref
    assert (res.iterations, res.converged) == (iterations, converged)
    assert np.array_equal(res.v.data, v)


@pytest.mark.parametrize("left", [True, False], ids=["left", "right"])
@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("n", [2, 16, 64, 65, 80])
def test_newton_matches_the_unscreened_loop(n, seed, left, shared_norm):
    p = build_problem(n, seed=seed)  # kappa = 1e8, the CLI default
    newton = newton_left if left else newton_right
    for kappa_est in (None, p.kappa):
        res = newton(p.a, kappa_est=kappa_est)
        assert res.converged
        _assert_matches_reference(res, _reference_newton(p.a, left, shared_norm, kappa_est))


@pytest.mark.parametrize("with_kappa", [False, True], ids=["no-kappa", "kappa"])
@pytest.mark.parametrize("left", [True, False], ids=["left", "right"])
@pytest.mark.parametrize("n", [2, 16, 65, 80])
def test_newton_stops_on_an_iterate_at_the_threshold(n, left, with_kappa, shared_norm):
    # tol is set so one iterate's residual meets the threshold with no room
    # to spare: the screen must let exactly that iterate through
    p = build_problem(n, seed=1)
    newton = newton_left if left else newton_right
    kappa_est = p.kappa if with_kappa else None
    last = newton(p.a, kappa_est=kappa_est).iterations - 1
    v = newton(p.a, max_iter=last).v
    r = v.data @ p.a.data - np.eye(n) if left else p.a.data @ v.data - np.eye(n)
    kap = kappa_est if with_kappa else norm2(p.a) * norm2(v)
    tol = norm2(Matrix(r)) / (kap * EPS) * (1.0 + 1e-9)
    res = newton(p.a, kappa_est=kappa_est, tol=tol)
    assert res.converged and res.iterations == last
    _assert_matches_reference(res, _reference_newton(p.a, left, shared_norm, kappa_est, tol=tol))


@pytest.mark.parametrize("left", [True, False], ids=["left", "right"])
def test_newton_singular_matches_the_unscreened_loop(left, shared_norm):
    a = Matrix(np.diag([1.0, 0.0]))
    res = (newton_left if left else newton_right)(a, max_iter=5)
    _assert_matches_reference(res, _reference_newton(a, left, shared_norm, max_iter=5))


@pytest.mark.parametrize("n", [4, 80])
def test_newton_divergence_matches_the_unscreened_loop(n, shared_norm):
    a, v0 = Matrix(2.0 * np.eye(n)), Matrix(10.0 * np.eye(n))
    _assert_matches_reference(newton_left(a, v0=v0),
                              _reference_newton(a, True, shared_norm, v0=v0))


def test_newton_iterate_whose_frobenius_norm_exceeds_binary64(shared_norm):
    # ||V||_F = sqrt(80) 2^1021 overflows while ||V||_2 = 2^1021 does not:
    # the screen's ceiling reads inf and leaves the decision to the exact test
    a, v0 = Matrix(np.ldexp(np.eye(80), -1021)), Matrix(np.ldexp(np.eye(80), 1021))
    res = newton_left(a, v0=v0)
    assert res.converged and res.iterations == 1
    _assert_matches_reference(res, _reference_newton(a, True, shared_norm, v0=v0))


def test_newton_takes_few_exact_norms_at_the_jacobi_cutoff(kernel_calls):
    # one norm for ||A||, then two per iterate that reaches the exact test;
    # without the screen it was two per iterate, 121 norms here
    p = build_problem(NORM_SVD_CUTOFF, seed=0)
    res = newton_left(p.a)
    assert res.converged and res.iterations > 50
    assert kernel_calls["_norm2"] <= 5


@settings(max_examples=15, deadline=None)
@given(n=st.integers(2, 12), seed=st.integers(0, 2**32 - 1),
       k=st.integers(-900, 900), left=st.booleans())
def test_newton_is_exact_under_power_of_two_scaling(n, seed, k, left):
    a = build_problem(n, 1e2, 1e-2, seed).a
    newton = newton_left if left else newton_right
    res = newton(a)
    scaled = newton(Matrix(np.ldexp(a.data, k)))
    assert (scaled.iterations, scaled.converged) == (res.iterations, res.converged)
    assert np.array_equal(scaled.v.data, np.ldexp(res.v.data, -k))
