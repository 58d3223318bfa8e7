"""Interaction blocks, Jacobi eigensolver, and evolution amplitudes."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tjcm import (
    ContractViolationError,
    InvalidParameterError,
    block_matrices,
    closed_form_x,
    eigen_table,
    evolve_grid,
)
from tjcm.blocks import jacobi_eigh, transition_strength


def block(n, l, g):
    """Spectrum (vals (1, 4), vecs (1, 4, 4)) of block n alone, sliced
    from the batched eigen_table."""
    vals, vecs = eigen_table(n, l, g)
    return vals[n:], vecs[n:]


def evolve_one(spectrum, T):
    """(x1, x2, x3, x4) of one block at one time, through evolve_grid."""
    return evolve_grid(spectrum, np.array([float(T)]))[:, 0, 0]


def test_build_block_lowest_symmetric():
    h = block_matrices(0, 1, 1.0)
    assert h.shape == (1, 4, 4)
    assert h[0, 0, 2] == 1.0  # f1
    assert h[0, 1, 3] == pytest.approx(math.sqrt(2.0))  # f2
    vals, _ = eigen_table(0, 1, 1.0)
    # nonzero pair at +-sqrt(6), double zero in between
    assert np.allclose(vals[0], [-math.sqrt(6), 0.0, 0.0, math.sqrt(6)], atol=1e-12)


def test_build_block_factorial_ratios():
    h = block_matrices(5, 2, 0.5)
    assert h.shape == (6, 4, 4)
    f1 = math.sqrt(5 * 4)
    f2 = math.sqrt(7 * 6)
    expected = np.array(
        [
            [0.0, 0.5 * f1, f1, 0.0],
            [0.5 * f1, 0.0, 0.0, f2],
            [f1, 0.0, 0.0, 0.5 * f2],
            [0.0, f2, 0.5 * f2, 0.0],
        ]
    )
    assert np.array_equal(h[3], expected)
    # every row of the stack is its own block n
    for n in range(6):
        f1, f2 = math.sqrt((n + 1) * (n + 2)), math.sqrt((n + 3) * (n + 4))
        assert (h[n, 0, 2], h[n, 1, 3], h[n, 0, 1], h[n, 2, 3]) == (f1, f2, 0.5 * f1, 0.5 * f2)


def test_block_matrices_rejects_bad_parameters():
    for args in ((-1, 1, 1.0), (2.0, 1, 1.0), (3, 0, 1.0), (3, 1, -0.5), (3, 1, math.inf)):
        with pytest.raises(InvalidParameterError):
            block_matrices(*args)


def test_transition_strength_matches_factorials():
    for n in range(12):
        for l in range(1, 5):
            exact = math.factorial(n + l) // math.factorial(n)
            assert transition_strength(n, l) == pytest.approx(math.sqrt(exact), rel=1e-14)
    # ints and a float array of n both keep the left-to-right product
    # (n+1)(n+2)...(n+l), bit for bit
    for l in range(1, 5):
        ref = [math.sqrt(math.prod(range(n + 1, n + l + 1), start=1.0)) for n in range(200)]
        assert [transition_strength(n, l) for n in range(200)] == ref
        assert np.array_equal(transition_strength(np.arange(200.0), l), ref)


def test_block_decoupling_at_g_zero():
    # g = 0 detaches atom 2: the initial vector Rabi-flops against
    # component 3 alone at the one-atom frequency f1
    f1 = transition_strength(0, 1)
    ts = np.array([0.3, 1.1, 2.5])
    x1, x2, x3, x4 = evolve_grid(block(0, 1, 0.0), ts)[:, :, 0]
    assert np.max(np.abs(x1 - np.cos(f1 * ts))) < 1e-12
    assert np.max(np.abs(x3 + np.sin(f1 * ts))) < 1e-12
    assert np.max(np.abs(x2)) < 1e-12 and np.max(np.abs(x4)) < 1e-12


def test_bipartite_sparsity():
    h = block_matrices(6, 2, 0.7)
    e1 = np.array([1.0, 0.0, 0.0, 0.0])
    once = h @ e1
    twice = np.einsum("nij,nj->ni", h, once)
    assert np.all(once[:, 0] == 0.0) and np.all(once[:, 3] == 0.0)
    assert np.all(twice[:, 1] == 0.0) and np.all(twice[:, 2] == 0.0)


def test_jacobi_zero_matrix():
    vals, vecs = jacobi_eigh(np.zeros((1, 4, 4)))
    assert np.array_equal(vals, np.zeros((1, 4)))
    assert np.array_equal(vecs, np.eye(4)[None])


def test_jacobi_reconstruction_and_orthonormality():
    rng = np.random.default_rng(7)
    m = rng.normal(size=(25, 4, 4))
    h = m + m.transpose(0, 2, 1)
    vals, vecs = jacobi_eigh(h)
    vecs_t = vecs.transpose(0, 2, 1)
    recon = vecs @ (vals[:, :, None] * vecs_t)
    assert np.max(np.abs(recon - h)) < 1e-12
    assert np.max(np.abs(vecs_t @ vecs - np.eye(4))) < 1e-12
    assert np.all(np.diff(vals, axis=1) >= 0.0)


def test_diagonalize_rejects_non_symmetric():
    h = np.zeros((3, 4, 4))
    h[1, 0, 1] = 1.0
    with pytest.raises(ContractViolationError):
        jacobi_eigh(h)
    for shape in ((4, 4), (2, 3, 3), (2, 4, 5)):
        with pytest.raises(ContractViolationError):
            jacobi_eigh(np.zeros(shape))


def test_diagonalize_deterministic_and_sign_fixed():
    vals1, vecs1 = eigen_table(12, 1, 0.5)
    vals2, vecs2 = eigen_table(12, 1, 0.5)
    assert np.array_equal(vals1, vals2)
    assert np.array_equal(vecs1, vecs2)
    for n in range(13):
        for k in range(4):
            col = vecs1[n, :, k]
            assert col[np.argmax(np.abs(col))] > 0.0


@pytest.mark.parametrize("l", [1, 2, 3, 4])
def test_batched_spectrum_matches_each_block_alone(l):
    # the convergence mask gives every block exactly the rotations it
    # would take diagonalized on its own
    for g in (0.0, 0.5, 1.0, 5.0):
        h = block_matrices(40, l, g)
        vals, vecs = jacobi_eigh(h)
        for n in range(h.shape[0]):
            one_vals, one_vecs = jacobi_eigh(h[n:n + 1])
            assert np.array_equal(vals[n:n + 1], one_vals)
            assert np.array_equal(vecs[n:n + 1], one_vecs)


def test_evolve_identity_at_t_zero():
    assert tuple(evolve_one(block(9, 2, 0.5), 0.0)) == pytest.approx((1.0, 0.0, 0.0, 0.0), abs=1e-14)


def test_evolve_half_period_lowest_block():
    x1, x2, x3, x4 = evolve_one(block(0, 1, 1.0), math.pi / math.sqrt(6.0))
    assert x1 == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert x2 == pytest.approx(0.0, abs=1e-12)
    assert x3 == pytest.approx(0.0, abs=1e-12)
    assert x4 == pytest.approx(-2.0 * math.sqrt(2.0) / 3.0, abs=1e-12)


def test_closed_form_examples():
    assert tuple(closed_form_x(0, 0.0)) == (1.0, 0.0, 0.0, 0.0)
    x1, _, _, x4 = closed_form_x(0, math.pi / math.sqrt(6.0))
    assert x1 == pytest.approx(1.0 / 3.0, abs=1e-14)
    assert x4 == pytest.approx(-2.0 * math.sqrt(2.0) / 3.0, abs=1e-14)
    # a grid of times evaluates each time independently
    ts = np.array([0.0, math.pi / math.sqrt(6.0), 2.2])
    grid = closed_form_x(0, ts)
    assert grid.shape == (4, 3)
    for i, T in enumerate(ts):
        assert np.array_equal(grid[:, i], closed_form_x(0, float(T)))


def test_closed_form_cross_check_single_point():
    assert np.max(np.abs(evolve_one(block(5, 1, 1.0), 1.7) - closed_form_x(5, 1.7))) < 1e-10


def test_symmetric_coupling_equalizes_middle_amplitudes():
    blocks = eigen_table(12, 1, 1.0)
    x = evolve_grid(blocks, np.linspace(0.0, 10.0, 101))
    assert np.max(np.abs(x[1] - x[2])) < 1e-10


def test_evolve_grid_per_block_matches_all_blocks():
    vals, vecs = eigen_table(6, 2, 0.5)
    ts = np.array([0.0, 3.3, 7.1])
    table = evolve_grid((vals, vecs), ts)
    for n in range(7):
        one = evolve_grid((vals[n:n + 1], vecs[n:n + 1]), ts)
        assert np.array_equal(table[:, :, n], one[:, :, 0])


def test_evolve_rejects_malformed_block():
    # identity "eigenvectors" with a generic spectrum are no bipartite
    # block: e1's sine term falls on component 1, which keeps cosine sums
    # only, so x = (cos 0.7, 0, 0, 0) and the norm check must catch the
    # lost weight (cos^2(0.7) = 0.585)
    from tjcm import InternalConsistencyError

    vals = np.array([[1.0, 2.0, 3.0, 4.0]])
    with pytest.raises(InternalConsistencyError, match="norm"):
        evolve_grid((vals, np.eye(4)[None]), np.array([0.7]))


@pytest.mark.parametrize("l", [1, 2, 3])
def test_evolve_grid_matches_complex_reference(l):
    # the real cosine/sine sums are the real and imaginary parts of
    # sum_k exp(-i w_k T) <v_k|e1> v_k, evaluated here in complex arithmetic
    vals, vecs = eigen_table(40, l, 0.7)
    ts = np.linspace(-6.0, 9.0, 31)
    for lo, hi in ((0, 41), (0, 1), (17, 23), (40, 41)):
        spectrum = vals[lo:hi], vecs[lo:hi]
        phases = np.exp(-1j * ts[:, None, None] * spectrum[0])
        ref = np.einsum("tnk,nk,njk->jtn", phases, spectrum[1][:, 0, :], spectrum[1])
        expected = np.stack([ref[0].real, ref[1].imag, ref[2].imag, ref[3].real])
        assert np.max(np.abs(evolve_grid(spectrum, ts) - expected)) <= 1e-15


def test_evolve_refuses_ill_conditioned_phases():
    # max|w| * max|T| * eps above 1e-8 is refused, for negative T as well;
    # the same spectrum on a shorter grid is evaluated
    vals, vecs = eigen_table(5, 1, 1.0)
    t_limit = 1e-8 / (np.max(np.abs(vals)) * np.finfo(float).eps)
    for t in (2.0 * t_limit, -2.0 * t_limit):
        with pytest.raises(InvalidParameterError, match="phase conditioning"):
            evolve_grid((vals, vecs), np.array([0.0, t]))
    assert evolve_grid((vals, vecs), np.array([0.0, 0.5 * t_limit])).shape == (4, 2, 6)


def test_evolve_grid_bitwise_deterministic():
    blocks = eigen_table(10, 1, 0.5)
    ts = np.linspace(0.0, 7.0, 23)
    assert np.array_equal(evolve_grid(blocks, ts), evolve_grid(blocks, ts))


def test_backward_evolution_allowed():
    spectrum = block(1, 1, 0.8)
    fwd = evolve_one(spectrum, 0.9)
    back = evolve_one(spectrum, -0.9)
    # time reversal flips the imaginary components only
    assert np.max(np.abs(back - fwd * np.array([1.0, -1.0, -1.0, 1.0]))) < 1e-12


@given(
    n=st.integers(min_value=0, max_value=60),
    l=st.integers(min_value=1, max_value=4),
    g=st.floats(min_value=0.05, max_value=5.0),
    T=st.floats(min_value=-10.0, max_value=30.0),
)
@settings(max_examples=80, deadline=None)
def test_unitarity_property(n, l, g, T):
    norm = float(np.sum(evolve_one(block(n, l, g), T) ** 2))
    assert norm == pytest.approx(1.0, abs=1e-10)
