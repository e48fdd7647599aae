"""Tests for error measures: residuals, forward/backward error, spectra.

Diagonal cases give closed-form values; scale invariance is checked
exactly with power-of-two factors (those multiplications are exact, so
the measures must come out bit-identical).
"""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from invlab import (
    InverseMethod,
    Matrix,
    RhsMode,
    Vector,
    backward_error,
    bound_comparison,
    build_problem,
    forward_error,
    gamma_projection_spectrum,
    identity,
    invert,
    matvec,
    norm2,
    residuals,
    solve_report,
    svd_jacobi,
)
from invlab.core import EPS
from invlab.rng import Rng


def test_residuals_of_exact_inverse_of_identity():
    rep = residuals(identity(3), identity(3))
    assert rep.left_residual == 0.0
    assert rep.right_residual == 0.0
    assert rep.gamma_rel is None


def test_residuals_diagonal_closed_form():
    a = Matrix(np.diag([2.0, 4.0]))
    a_inv = Matrix(np.diag([0.5, 0.25]))
    delta = 2.0**-20
    v = Matrix(np.diag([0.5 + delta, 0.25]))
    rep = residuals(v, a, a_inv_ref=a_inv)
    # E = diag(delta, 0): EA = diag(2 delta, 0), AE likewise
    assert abs(rep.left_residual - 2.0 * delta) <= 4 * EPS
    assert abs(rep.right_residual - 2.0 * delta) <= 4 * EPS
    assert abs(rep.gamma_rel - 2.0 * delta) <= 4 * EPS


def test_residuals_shape_check():
    with pytest.raises(Exception):
        residuals(identity(2), identity(3))


def test_forward_error_doubling_is_exactly_one():
    x_ref = Vector(Rng(3).normals(6))
    x = Vector(2.0 * x_ref.data)
    assert forward_error(x, x_ref) == 1.0


def test_forward_error_exact_is_zero():
    x = Vector(np.array([1.0, -2.0]))
    assert forward_error(x, x) == 0.0


def test_forward_error_zero_reference_raises():
    with pytest.raises(ValueError):
        forward_error(Vector(np.ones(2)), Vector(np.zeros(2)))


def test_backward_error_exact_solution_is_zero():
    a = Matrix(np.diag([2.0, 4.0]))
    assert backward_error(a, Vector(np.array([1.0, 2.0])), Vector(np.array([2.0, 8.0]))) == 0.0


def test_backward_error_zero_everything_raises():
    a = Matrix(np.zeros((2, 2)))
    with pytest.raises(ValueError):
        backward_error(a, Vector(np.zeros(2)), Vector(np.zeros(2)))


def test_backward_error_diagonal_closed_form():
    # A = I2, x = (1, 0), b = (1, delta): |Ax-b| = delta, |A| = 1, |x| = 1, |b| ~ 1
    delta = 2.0**-30
    a = identity(2)
    eta = backward_error(a, Vector(np.array([1.0, 0.0])), Vector(np.array([1.0, delta])))
    denom = 1.0 + np.sqrt(1.0 + delta * delta)
    assert abs(eta - delta / denom) <= 4 * EPS


def test_backward_error_power_of_two_scale_invariance():
    n = 6
    a = Matrix(Rng(11).normals(n * n).reshape(n, n))
    x = Vector(Rng(12).normals(n))
    b = Vector(Rng(13).normals(n))
    eta = backward_error(a, x, b)
    for c in (2.0**8, 2.0**-8):
        scaled = backward_error(Matrix(c * a.data), x, Vector(c * b.data))
        assert scaled == eta


@settings(max_examples=30, deadline=None)
@given(n=st.integers(1, 12), seed=st.integers(0, 2**32 - 1), k=st.integers(-900, 900))
def test_errors_unchanged_by_power_of_two_scaling(n, seed, k):
    # vector norms must neither overflow nor underflow at any scale here, so
    # the ratios are the same bits as unscaled
    g = np.random.default_rng(seed)
    a, x, b, x_ref = (g.standard_normal(shape) for shape in ((n, n), n, n, n))
    fwd = forward_error(Vector(x), Vector(x_ref))
    assert forward_error(Vector(np.ldexp(x, k)), Vector(np.ldexp(x_ref, k))) == fwd
    eta = backward_error(Matrix(a), Vector(x), Vector(b))
    assert eta == backward_error(Matrix(np.ldexp(a, k)), Vector(x), Vector(np.ldexp(b, k)))
    assert eta == backward_error(Matrix(a), Vector(np.ldexp(x, k)), Vector(np.ldexp(b, k)))


def test_solve_report_bundles_measures():
    a = Matrix(np.diag([2.0, 4.0]))
    x = Vector(np.array([1.0, 2.0]))
    b = Vector(np.array([2.0, 8.0]))
    rep = solve_report(a, x, b, x_ref=x)
    assert rep.forward_error_rel == 0.0
    assert rep.backward_error == 0.0
    assert rep.residual_norm == 0.0
    assert np.array_equal(rep.x_v.data, x.data)
    rep2 = solve_report(a, x, b)
    assert rep2.forward_error_rel is None


def test_gamma_projection_identity_left_factor():
    # with L = I the magnitudes are just |gamma| entries
    a = Matrix(np.diag([3.0, 2.0]))
    s = svd_jacobi(a)
    assert np.array_equal(s.l.data, np.eye(2))
    v = Matrix(np.array([[1.0, 2.0], [3.0, 4.0]]))
    a_inv = Matrix(np.zeros((2, 2)))
    spectrum = gamma_projection_spectrum(v, a_inv, s, 0)
    assert spectrum.row_index == 0
    assert np.array_equal(spectrum.sigmas, s.sigma)
    assert np.array_equal(spectrum.magnitudes, [1.0, 2.0])


def test_gamma_projection_parseval():
    p = build_problem(64, 1e2, 1e-2, seed=3)
    res = invert(p.a, InverseMethod.GETRI_STYLE, kappa_est=p.kappa)
    gamma = res.v.data - p.a_inv.data
    for row in (0, 31, 63):
        spectrum = gamma_projection_spectrum(res.v, p.a_inv, p.svd, row)
        lhs = float(spectrum.magnitudes @ spectrum.magnitudes)
        rhs = float(gamma[row] @ gamma[row])
        assert abs(lhs - rhs) <= 8 * 64 * EPS * max(rhs, EPS)


def test_gamma_projection_row_out_of_range():
    p = build_problem(4, 2.0, 0.5, seed=1)
    with pytest.raises(IndexError):
        gamma_projection_spectrum(p.a_inv, p.a_inv, p.svd, 4)


def test_bound_comparison_closed_form():
    cmp = bound_comparison(100.0, observed=1e-15)
    assert cmp.kappa == 100.0
    assert cmp.loose_bound == 1e4 * EPS
    assert cmp.tight_bound == 100.0 * EPS
    assert cmp.observed == 1e-15


def test_bound_comparison_rejects_bad_kappa():
    with pytest.raises(ValueError):
        bound_comparison(0.5, observed=1.0)
    with pytest.raises(ValueError):
        bound_comparison(float("nan"), observed=1.0)


def test_forward_error_bounded_by_left_residual(lab):
    # forward error of x = V b is bounded by the left residual plus n kappa eps
    for kappa in (1e2, 1e4, 1e8):
        p = lab.problem(kappa, 0)
        rep = lab.report(kappa, 0, InverseMethod.GETRI_STYLE)
        errs = lab.solve_errors(kappa, 0, RhsMode.RANDOM_B, InverseMethod.GETRI_STYLE)
        bound = 10.0 * (rep.left_residual + 256 * kappa * EPS)
        assert errs["fwd_inv"] <= bound
