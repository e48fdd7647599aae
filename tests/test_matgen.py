"""Tests for problem generation: Haar factors, spectra, right-hand sides.

The generator is the reference oracle for the rest of the suite, so its
own contracts get checked hard: orthogonality to rounding level, exact
spectrum endpoints, and consistency A x_ref ~ b to factorization accuracy.
"""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from invlab import (
    Matrix,
    RhsMode,
    bad_inverse,
    build_problem,
    geometric_spectrum,
    make_rhs,
    matvec,
    norm2,
    random_orthogonal,
)
from invlab.core import EPS
from invlab.rng import Rng, child_seed
from invlab.matgen import (
    STREAM_BAD_INV,
    STREAM_L,
    STREAM_R,
    RHS_STREAMS,
)


# ------------------------------------------------------------- orthogonal


def test_random_orthogonal_is_orthonormal():
    for n in (2, 8, 33):
        q = random_orthogonal(n, Rng(5))
        assert norm2(Matrix(q.data.T @ q.data - np.eye(n))) <= 10 * n * EPS


def test_random_orthogonal_deterministic():
    a = random_orthogonal(8, Rng(9))
    b = random_orthogonal(8, Rng(9))
    assert np.array_equal(a.data, b.data)


def test_random_orthogonal_seeds_differ():
    a = random_orthogonal(8, Rng(1))
    b = random_orthogonal(8, Rng(2))
    assert norm2(Matrix(a.data - b.data)) > 0.1


# --------------------------------------------------------------- spectrum


def test_geometric_spectrum_hand_example():
    assert np.array_equal(geometric_spectrum(3, 4.0, 1.0), [4.0, 2.0, 1.0])


def test_geometric_spectrum_endpoints_pinned():
    s = geometric_spectrum(256, 1e4, 1e-4)
    assert s[0] == 1e4
    assert s[-1] == 1e-4
    assert np.all(s[:-1] > s[1:])


def test_geometric_spectrum_flat():
    assert np.array_equal(geometric_spectrum(4, 2.0, 2.0), [2.0, 2.0, 2.0, 2.0])


def test_geometric_spectrum_single_point():
    assert np.array_equal(geometric_spectrum(1, 3.0, 3.0), [3.0])
    with pytest.raises(ValueError):
        geometric_spectrum(1, 3.0, 1.0)


def test_geometric_spectrum_validation():
    with pytest.raises(ValueError):
        geometric_spectrum(4, 1.0, 2.0)  # increasing
    with pytest.raises(ValueError):
        geometric_spectrum(4, 1.0, 0.0)  # zero endpoint
    with pytest.raises(ValueError):
        geometric_spectrum(0, 2.0, 1.0)  # no points
    with pytest.raises(ValueError, match="sigma_1/sigma_n"):
        geometric_spectrum(4, 1e200, 1e-200)  # the ratio underflows to 0
    with pytest.raises(ValueError, match="sigma_1/sigma_n"):
        geometric_spectrum(4, 1.0, 1e-310)  # the ratio is subnormal
    tiny = np.finfo(np.float64).tiny
    assert geometric_spectrum(4, 1.0, tiny)[-1] == tiny  # smallest normal: kept
    for s1, sn in ((1e-300, 1e-310), (1e-310, 5e-324), (1e-310, 1e-310)):
        with pytest.raises(ValueError, match="1/sigma_n"):
            geometric_spectrum(4, s1, sn)  # the reference inverse overflows
    with pytest.raises(ValueError, match="1/sigma_n"):
        geometric_spectrum(1, 1e-310, 1e-310)


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=40),
    e1=st.floats(min_value=-6.0, max_value=6.0),
    gap=st.floats(min_value=0.1, max_value=8.0),
)
def test_geometric_spectrum_properties(n, e1, gap):
    s1 = 10.0**e1
    sn = 10.0 ** (e1 - gap)
    s = geometric_spectrum(n, s1, sn)
    assert s[0] == s1
    assert s[-1] == sn
    assert np.all(s[:-1] >= s[1:])
    assert np.all(s > 0.0)


# ---------------------------------------------------------------- problem


def test_build_problem_factors_are_construction():
    p = build_problem(16, 1e2, 1e-2, seed=0)
    recon_a = (p.svd.l.data * p.svd.sigma) @ p.svd.r.data.T
    assert np.array_equal(p.a.data, recon_a)
    recon_inv = (p.svd.r.data * (1.0 / p.svd.sigma)) @ p.svd.l.data.T
    assert np.array_equal(p.a_inv.data, recon_inv)


def test_build_problem_kappa_exact():
    p = build_problem(16, 1e4, 1e-4, seed=0)
    assert p.kappa == 1e8
    assert p.seed == 0


def test_build_problem_inverse_consistency():
    n = 32
    p = build_problem(n, 1e2, 1e-2, seed=1)
    resid = norm2(Matrix(p.a.data @ p.a_inv.data - np.eye(n)))
    assert resid <= 100 * n * p.kappa * EPS


def test_build_problem_deterministic():
    a = build_problem(8, 2.0, 0.5, seed=3)
    b = build_problem(8, 2.0, 0.5, seed=3)
    assert np.array_equal(a.a.data, b.a.data)
    assert np.array_equal(a.a_inv.data, b.a_inv.data)


def test_build_problem_left_right_factors_differ():
    p = build_problem(8, 2.0, 0.5, seed=3)
    assert norm2(Matrix(p.svd.l.data - p.svd.r.data)) > 0.1


def test_build_problem_uses_child_streams():
    # the two factors come from child streams 0 and 1 of the problem seed
    p = build_problem(8, 2.0, 0.5, seed=3)
    l = random_orthogonal(8, Rng(child_seed(3, STREAM_L)))
    r = random_orthogonal(8, Rng(child_seed(3, STREAM_R)))
    assert np.array_equal(p.svd.l.data, l.data)
    assert np.array_equal(p.svd.r.data, r.data)


def test_build_problem_validation():
    with pytest.raises(ValueError):
        build_problem(0, 2.0, 1.0, seed=0)
    with pytest.raises(ValueError):
        build_problem(4, 1.0, 2.0, seed=0)


# -------------------------------------------------------------------- rhs


@pytest.mark.parametrize("mode", list(RhsMode))
def test_make_rhs_pair_is_consistent(mode):
    n = 32
    p = build_problem(n, 1e2, 1e-2, seed=2)
    pair = make_rhs(p, mode, Rng(child_seed(2, RHS_STREAMS[mode])))
    assert pair.mode is mode
    r = np.linalg.norm(p.a.data @ pair.x_ref.data - pair.b.data)
    assert r <= 100 * n * p.kappa * EPS * np.linalg.norm(pair.b.data)


def test_make_rhs_random_b_draws_b_directly():
    p = build_problem(8, 2.0, 0.5, seed=4)
    rng = Rng(77)
    pair = make_rhs(p, RhsMode.RANDOM_B, rng)
    assert np.array_equal(pair.b.data, Rng(77).normals(8))


def test_make_rhs_random_x_draws_x_directly():
    p = build_problem(8, 2.0, 0.5, seed=4)
    pair = make_rhs(p, RhsMode.RANDOM_X, Rng(78))
    assert np.array_equal(pair.x_ref.data, Rng(78).normals(8))


def test_random_x_rhs_avoids_small_directions(lab):
    # b built from a random x has weight sigma_j on direction j, so its
    # overlap with the smallest-sigma left vector is around sigma_n/sigma_1
    p = lab.problem(1e8, 0)
    pair = lab.rhs(1e8, 0, RhsMode.RANDOM_X)
    last = p.svd.l.data[:, -1]
    overlap = abs(last @ pair.b.data) / np.linalg.norm(pair.b.data)
    assert overlap <= 1e-6


def test_random_b_rhs_keeps_small_directions(lab):
    p = lab.problem(1e8, 0)
    pair = lab.rhs(1e8, 0, RhsMode.RANDOM_B)
    last = p.svd.l.data[:, -1]
    overlap = abs(last @ pair.b.data) / np.linalg.norm(pair.b.data)
    assert overlap >= 1e-3


# -------------------------------------------------------------- bad V


def test_bad_inverse_of_exact_inverse_is_unchanged():
    p = build_problem(8, 2.0, 0.5, seed=5)
    out = bad_inverse(p, p.a_inv, Rng(1))
    assert np.array_equal(out.data, p.a_inv.data)


def test_bad_inverse_perturbation_scale():
    n = 32
    p = build_problem(n, 1e2, 1e-2, seed=6)
    delta = 2.0**-30
    v = Matrix(p.a_inv.data + delta * np.eye(n))
    out = bad_inverse(p, v, Rng(2))
    scale_in = norm2(Matrix(v.data - p.a_inv.data))
    scale_out = norm2(Matrix(out.data - p.a_inv.data))
    # white Gaussian noise of entry size s has spectral norm about 2 sqrt(n) s
    assert 0.5 * np.sqrt(n) * scale_in <= scale_out <= 4.0 * np.sqrt(n) * scale_in


def test_bad_inverse_shape_check():
    p = build_problem(4, 2.0, 0.5, seed=7)
    with pytest.raises(Exception):
        bad_inverse(p, Matrix(np.eye(5)), Rng(3))
