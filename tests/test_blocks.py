"""Interaction blocks, Jacobi eigensolver, and evolution amplitudes."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tjcm import (
    ContractViolationError,
    build_block,
    closed_form_x,
    diagonalize_block,
    eigen_table,
    evolve_grid,
)
from tjcm.blocks import EigenBlock, InteractionBlock, jacobi_eigh, transition_strength


def evolve_one(eb, T):
    """(x1, x2, x3, x4) of one block at one time, through evolve_grid."""
    return evolve_grid([eb], np.array([float(T)]))[:, 0, 0]


def test_build_block_lowest_symmetric():
    b = build_block(0, 1, 1.0)
    assert b.h[0, 2] == 1.0  # f1
    assert b.h[1, 3] == pytest.approx(math.sqrt(2.0))  # f2
    eb = diagonalize_block(b)
    # nonzero pair at +-sqrt(6), double zero in between
    assert np.allclose(np.sort(eb.eigvals), [-math.sqrt(6), 0.0, 0.0, math.sqrt(6)], atol=1e-12)


def test_build_block_factorial_ratios():
    b = build_block(3, 2, 0.5)
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
    assert np.array_equal(b.h, expected)


def test_transition_strength_matches_factorials():
    for n in range(12):
        for l in range(1, 5):
            exact = math.factorial(n + l) // math.factorial(n)
            assert transition_strength(n, l) == pytest.approx(math.sqrt(exact), rel=1e-14)


def test_block_decoupling_at_g_zero():
    # g = 0 detaches atom 2: the initial vector Rabi-flops against
    # component 3 alone at the one-atom frequency f1
    f1 = transition_strength(0, 1)
    eb = diagonalize_block(build_block(0, 1, 0.0))
    ts = np.array([0.3, 1.1, 2.5])
    x1, x2, x3, x4 = evolve_grid([eb], ts)[:, :, 0]
    assert np.max(np.abs(x1 - np.cos(f1 * ts))) < 1e-12
    assert np.max(np.abs(x3 + np.sin(f1 * ts))) < 1e-12
    assert np.max(np.abs(x2)) < 1e-12 and np.max(np.abs(x4)) < 1e-12


def test_bipartite_sparsity():
    h = build_block(2, 2, 0.7).h
    e1 = np.array([1.0, 0.0, 0.0, 0.0])
    once = h @ e1
    twice = h @ once
    assert once[0] == 0.0 and once[3] == 0.0
    assert twice[1] == 0.0 and twice[2] == 0.0


def test_jacobi_zero_matrix():
    vals, vecs = jacobi_eigh(np.zeros((4, 4)))
    assert np.array_equal(vals, np.zeros(4))
    assert np.array_equal(vecs, np.eye(4))


def test_jacobi_reconstruction_and_orthonormality():
    rng = np.random.default_rng(7)
    for _ in range(25):
        m = rng.normal(size=(4, 4))
        h = m + m.T
        eb = diagonalize_block(InteractionBlock(n=0, h=h))
        recon = eb.eigvecs @ np.diag(eb.eigvals) @ eb.eigvecs.T
        assert np.max(np.abs(recon - h)) < 1e-12
        assert np.max(np.abs(eb.eigvecs.T @ eb.eigvecs - np.eye(4))) < 1e-12


def test_diagonalize_rejects_non_symmetric():
    h = np.zeros((4, 4))
    h[0, 1] = 1.0
    with pytest.raises(ContractViolationError):
        diagonalize_block(InteractionBlock(n=0, h=h))


def test_diagonalize_deterministic_and_sign_fixed():
    b = build_block(5, 1, 0.5)
    eb1 = diagonalize_block(b)
    eb2 = diagonalize_block(build_block(5, 1, 0.5))
    assert np.array_equal(eb1.eigvals, eb2.eigvals)
    assert np.array_equal(eb1.eigvecs, eb2.eigvecs)
    for k in range(4):
        col = eb1.eigvecs[:, k]
        assert col[np.argmax(np.abs(col))] > 0.0


def test_evolve_identity_at_t_zero():
    eb = diagonalize_block(build_block(9, 2, 0.5))
    assert tuple(evolve_one(eb, 0.0)) == pytest.approx((1.0, 0.0, 0.0, 0.0), abs=1e-14)


def test_evolve_half_period_lowest_block():
    eb = diagonalize_block(build_block(0, 1, 1.0))
    x1, x2, x3, x4 = evolve_one(eb, math.pi / math.sqrt(6.0))
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
    eb = diagonalize_block(build_block(5, 1, 1.0))
    assert np.max(np.abs(evolve_one(eb, 1.7) - closed_form_x(5, 1.7))) < 1e-10


def test_symmetric_coupling_equalizes_middle_amplitudes():
    blocks = eigen_table(12, 1, 1.0)
    x = evolve_grid(blocks, np.linspace(0.0, 10.0, 101))
    assert np.max(np.abs(x[1] - x[2])) < 1e-10


def test_evolve_grid_per_block_matches_all_blocks():
    blocks = eigen_table(6, 2, 0.5)
    ts = np.array([0.0, 3.3, 7.1])
    table = evolve_grid(blocks, ts)
    for n, eb in enumerate(blocks):
        assert np.array_equal(table[:, :, n], evolve_grid([eb], ts)[:, :, 0])


def test_evolve_rejects_malformed_block():
    # identity "eigenvectors" with a generic spectrum break the bipartite
    # phase structure, which the cross-term check must catch
    from tjcm import InternalConsistencyError

    bad = EigenBlock(n=0, eigvals=np.array([1.0, 2.0, 3.0, 4.0]), eigvecs=np.eye(4))
    with pytest.raises(InternalConsistencyError):
        evolve_grid([bad], np.array([0.7]))


def test_evolve_grid_bitwise_deterministic():
    blocks = eigen_table(10, 1, 0.5)
    ts = np.linspace(0.0, 7.0, 23)
    assert np.array_equal(evolve_grid(blocks, ts), evolve_grid(blocks, ts))


def test_backward_evolution_allowed():
    eb = diagonalize_block(build_block(1, 1, 0.8))
    fwd = evolve_one(eb, 0.9)
    back = evolve_one(eb, -0.9)
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
    eb = diagonalize_block(build_block(n, l, g))
    norm = float(np.sum(evolve_one(eb, T) ** 2))
    assert norm == pytest.approx(1.0, abs=1e-10)
