"""Brute-force route: joint Hamiltonian, RK4 grid walk, partial trace."""

import math
from dataclasses import astuple

import numpy as np
import pytest

from tjcm import (
    AtomId,
    FockWeights,
    InvalidParameterError,
    ReducedAtomState,
    StepSizeError,
    TruncationError,
    bloch,
    coherent_weights,
)
from tjcm import oracle
from tjcm.blocks import transition_strength

from conftest import excitation_expectation


def dense(h, blocks):
    """The operator with the given (K, s, s) blocks over h's components, as
    a dense array (the pad slot dim is dropped)."""
    blocks = np.asarray(blocks)
    out = np.zeros((h.dim + 1, h.dim + 1), dtype=blocks.dtype)
    out[h.index[:, :, None], h.index[:, None, :]] = blocks
    return out[:-1, :-1]


def dense_h(h):
    return dense(h, h.blocks)


def test_joint_hamiltonian_symmetric():
    h = dense_h(oracle.build_joint_hamiltonian(1, 0.5, 12))
    assert np.array_equal(h, h.T)


def test_joint_hamiltonian_lowest_excitation_block():
    # one excitation quantum lives on {|+,-,0>, |-,+,0>, |-,-,1>} and the
    # couplings there are unit strength at g = 1: eigenfrequencies 0, +-sqrt(2)
    jh = oracle.build_joint_hamiltonian(1, 1.0, 1)
    h = dense_h(jh)

    def idx(s1, s2, n):
        return (s1 * 2 + s2) * (jh.n_f + 1) + n

    sub = [idx(0, 1, 0), idx(1, 0, 0), idx(1, 1, 1)]
    block = h[np.ix_(sub, sub)]
    vals = np.linalg.eigvalsh(block)
    assert np.allclose(np.sort(vals), [-math.sqrt(2.0), 0.0, math.sqrt(2.0)], atol=1e-12)


def test_joint_hamiltonian_decouples_at_g_zero():
    jh = oracle.build_joint_hamiltonian(1, 0.0, 8)
    h = dense_h(jh)
    n1 = jh.n_f + 1

    def block(s1, s2, t1, t2):
        return h[
            (s1 * 2 + s2) * n1 : (s1 * 2 + s2 + 1) * n1,
            (t1 * 2 + t2) * n1 : (t1 * 2 + t2 + 1) * n1,
        ]

    # no element changes the atom-2 letter
    for s1 in (0, 1):
        for t1 in (0, 1):
            assert np.all(block(s1, 0, t1, 1) == 0.0)
            assert np.all(block(s1, 1, t1, 0) == 0.0)


def _loop_hamiltonian(l, g, n_f):
    """Reference: H element by element, one scalar transition_strength per n."""
    n1 = n_f + 1

    def idx(s1, s2, n):
        return (s1 * 2 + s2) * n1 + n

    h = np.zeros((4 * n1, 4 * n1))
    for n in range(n_f + 1 - l):
        f = transition_strength(n, l)
        for s2 in (0, 1):
            h[idx(1, s2, n + l), idx(0, s2, n)] = h[idx(0, s2, n), idx(1, s2, n + l)] = f
        for s1 in (0, 1):
            h[idx(s1, 1, n + l), idx(s1, 0, n)] = h[idx(s1, 0, n), idx(s1, 1, n + l)] = g * f
    return h


def _loop_dt(w, h, t_total):
    """Reference: suggest_dt's weighted phase bound, summed one n at a time."""
    lam5 = 0.0
    for n in range(w.c.size):
        f1 = transition_strength(n, h.l)
        f2 = transition_strength(n + h.l, h.l)
        lam5 += w.c[n] ** 2 * math.sqrt((1.0 + h.g**2) * (f1 * f1 + f2 * f2)) ** 5
    dt_acc = (120.0 * oracle.PHASE_TOL / (t_total * lam5)) ** 0.25
    return min(oracle.DT_MAX, dt_acc, 0.1 / h.norm_inf)


@pytest.mark.parametrize("alpha, g, l", [
    (5.0, 0.5, 1), (5.0, 0.5, 2), (5.0, 1.0, 1), (2.0, 0.0, 3), (3.0, 1.7, 6),
])
def test_array_setup_matches_scalar_loops(alpha, g, l):
    # same products, so H is bitwise equal; the lam^5 sum runs in another
    # order, so dt may move in its last digits
    w = coherent_weights(alpha)
    h = oracle.build_joint_hamiltonian(l, g, w.n_max + 2 * l)
    assert np.array_equal(dense_h(h), _loop_hamiltonian(l, g, h.n_f))
    for t_total in (0.3, 3.0, 25.0):
        assert oracle.suggest_dt(w, h, t_total) == pytest.approx(
            _loop_dt(w, h, t_total), rel=1e-14, abs=0.0)


def test_joint_hamiltonian_rejects_tiny_space():
    with pytest.raises(TruncationError):
        oracle.build_joint_hamiltonian(2, 1.0, 1)


def test_initial_state_and_truncation_guard():
    w = coherent_weights(1.0)
    h = oracle.build_joint_hamiltonian(1, 1.0, w.n_max + 2)
    psi = oracle.initial_state(w, h)
    assert np.linalg.norm(psi) == pytest.approx(1.0, abs=1e-12)
    small = oracle.build_joint_hamiltonian(1, 1.0, w.n_max)
    with pytest.raises(TruncationError):
        oracle.initial_state(w, small)


def test_rk4_zero_time_identity():
    # count 0 takes no step
    w = coherent_weights(1.0)
    h = oracle.build_joint_hamiltonian(1, 1.0, w.n_max + 2)
    psi0 = oracle.initial_state(w, h)
    psi = next(oracle.walk_grid(h, psi0, 1.0, [0], 1e-3))
    assert np.array_equal(psi, psi0)


def test_rk4_two_level_rabi():
    # vacuum field, decoupled second atom: |+,+,0> <-> |-,+,1> at unit rate
    c = np.zeros(1)
    c[0] = 1.0
    w = FockWeights(c=c)
    h = oracle.build_joint_hamiltonian(1, 0.0, 2)
    psi0 = oracle.initial_state(w, h)
    step, counts, dt = 0.13, [0, 5, 10], 1e-3

    def idx(s1, s2, n):
        return (s1 * 2 + s2) * 3 + n

    mask = np.ones(h.dim, bool)
    mask[[idx(0, 0, 0), idx(1, 0, 1)]] = False
    for n, psi in zip(counts, oracle.walk_grid(h, psi0, step, counts, dt)):
        T = n * step
        assert psi[idx(0, 0, 0)] == pytest.approx(math.cos(T), abs=1e-10)
        assert psi[idx(1, 0, 1)] == pytest.approx(-1j * math.sin(T), abs=1e-10)
        assert np.max(np.abs(psi[mask])) < 1e-12


def test_rk4_rejects_unstable_step():
    h = oracle.build_joint_hamiltonian(1, 1.0, 30)
    norm_inf = h.norm_inf
    cases = [
        # (start state, grid step, dt, match)
        # dt beyond the stability margin 0.5 / ||H||_inf
        (0, 1.0, 1.0 / norm_inf, "stability margin"),
        # inside the margin, but two steps this coarse from |+,-,28>
        # (row sum near ||H||_inf) lose 8.7e-5 of the norm
        (28, 0.98 / norm_inf, 0.49 / norm_inf, "norm deviates"),
    ]
    for start, step, dt, match in cases:
        psi0 = np.zeros(h.dim, dtype=complex)
        psi0[start] = 1.0
        with pytest.raises(StepSizeError, match=match):
            oracle.trace_trajectory(h, psi0, step, [1], dt)


def _stepped_rk4(h, psi0, steps, step):
    """Reference: the classic RK4 stages, one step at a time, on dense H."""
    m = dense_h(h)

    def mul(v):
        # real H on the (re, im) pairs of v: one real product, no complex copy of H
        return (m @ v.view(float).reshape(-1, 2)).view(complex).ravel()

    psi = np.asarray(psi0, dtype=complex).copy()
    for _ in range(steps):
        k1 = -1j * mul(psi)
        k2 = -1j * mul(psi + (0.5 * step) * k1)
        k3 = -1j * mul(psi + (0.5 * step) * k2)
        k4 = -1j * mul(psi + step * k3)
        psi += (step / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return psi


# (alpha, g, l, T, grid steps, RK4 steps per grid step): the fig1, fig2
# and fig4 verify sets over T = 3 at their suggested dt (None), the
# decoupled g = 0 limit, and an odd (every bit set) and a power-of-two
# count, of grid steps in one interval and of RK4 steps in one grid step
POWERING_CASES = [
    pytest.param(5.0, 0.5, 1, 3.0, 3, None, id="fig1"),
    pytest.param(5.0, 0.5, 2, 3.0, 3, None, id="fig2"),
    pytest.param(5.0, 1.0, 1, 3.0, 3, None, id="fig4"),
    pytest.param(5.0, 0.0, 1, 3.0, 3, None, id="g0"),
    pytest.param(5.0, 0.5, 1, 1.0, 1023, 1, id="odd"),
    pytest.param(5.0, 0.5, 1, 1.0, 1024, 1, id="pow2"),
    pytest.param(5.0, 0.5, 1, 1.0, 1, 1023, id="odd_m"),
    pytest.param(5.0, 0.5, 1, 1.0, 1, 1024, id="pow2_m"),
]


def _case(alpha, g, l, T, grid, m):
    w = coherent_weights(alpha)
    h = oracle.build_joint_hamiltonian(l, g, w.n_max + 2 * l)
    step = T / grid
    # dt = step / (m - 0.5) makes ceil(step / dt) == m exactly
    dt = oracle.suggest_dt(w, h, T) if m is None else step / (m - 0.5)
    return h, oracle.initial_state(w, h), step, dt


@pytest.mark.parametrize("alpha, g, l, T, grid, m", POWERING_CASES)
def test_rk4_powering_matches_stepped_reference(alpha, g, l, T, grid, m):
    h, psi0, step, dt = _case(alpha, g, l, T, grid, m)
    m_walk = math.ceil(step / dt)
    if m is not None:
        assert m_walk == m
    psi = next(oracle.walk_grid(h, psi0, step, [grid], dt))
    ref = _stepped_rk4(h, psi0, grid * m_walk, step / m_walk)
    assert np.max(np.abs(psi - ref)) < 1e-12


# sum of squared component sizes at dim 392 (l = 1) and 400 (l = 2) for
# g > 0: the nnz of the smallest product-closed pattern, which is the one-step
# operator's, as excitation conservation keeps the components small
CLOSED_NNZ = {392: 1556, 400: 1576}


@pytest.mark.parametrize("alpha, g, l, T, grid, m", POWERING_CASES)
def test_rk4_step_operator_powers_stay_sparse(alpha, g, l, T, grid, m):
    # the component cliques S are closed under products, and every operator
    # that walk_grid forms, computed densely, vanishes off S: the RK4 step
    # R, its squarings and their products towards P = R^m, and the
    # squarings of P up to the interval of grid steps
    h, _, step, dt = _case(alpha, g, l, T, grid, m)
    on_s = dense(h, np.ones(h.blocks.shape, dtype=int))
    assert np.all(on_s[(on_s @ on_s) > 0] == 1)
    if g > 0.0:
        assert np.sum(np.sum(h.index < h.dim, axis=1) ** 2) == CLOSED_NNZ[h.dim]
    m = math.ceil(step / dt)
    zh = (-1j * (step / m)) * dense_h(h)
    term = np.eye(h.dim, dtype=complex)
    r = term
    for k in range(1, 5):
        term = (zh @ term) / k
        r = r + term
    p = np.eye(h.dim, dtype=complex)
    formed = []
    for j in range(m.bit_length()):
        if m >> j & 1:
            p = r @ p
            formed.append(p)
        formed.append(r)
        r = r @ r
    for _ in range(grid.bit_length()):
        formed.append(p)
        p = p @ p
    for x in formed:
        assert np.all(x[on_s == 0] == 0.0)


@pytest.mark.parametrize("alpha, g, l", [(5.0, 0.5, 1), (5.0, 0.5, 2), (5.0, 0.0, 1)])
def test_closed_pattern_products_match_dense(alpha, g, l):
    # the stacked product of the component blocks is H H, and nothing
    # couples to the pad slot
    w = coherent_weights(alpha)
    h = oracle.build_joint_hamiltonian(l, g, w.n_max + 2 * l)
    hh = dense_h(h) @ dense_h(h)
    assert np.max(np.abs(dense(h, h.blocks @ h.blocks) - hh)) < 1e-12 * np.max(np.abs(hh))
    pad = h.index == h.dim
    assert np.all(h.blocks[pad] == 0.0) and np.all(h.blocks.transpose(0, 2, 1)[pad] == 0.0)


def test_components():
    # a path 0 - 1 - ... - 5 conserves nothing and is one component; no edges
    # leave singletons; two disjoint paths and a lone node are three
    # components, padded by dim
    up, down = np.arange(5), np.arange(1, 6)
    assert np.array_equal(oracle._components(6, up, down), [np.arange(6)])
    assert np.array_equal(oracle._components(6, down, up), [np.arange(6)])
    none = np.array([], dtype=int)
    assert np.array_equal(oracle._components(3, none, none), [[0], [1], [2]])
    rows, cols = np.array([4, 0, 5]), np.array([2, 3, 4])
    assert np.array_equal(oracle._components(6, rows, cols), [[0, 3, 6], [1, 6, 6], [2, 4, 5]])


def test_norm_and_excitation_conserved():
    # the documented regime: alpha = 5, dt = 1e-3, full window T in [0, 25]
    w = coherent_weights(5.0)
    l, g = 1, 0.5
    h = oracle.build_joint_hamiltonian(l, g, w.n_max + 2 * l)
    psi0 = oracle.initial_state(w, h)
    exc0 = excitation_expectation(psi0, h.n_f, l)
    for psi in oracle.walk_grid(h, psi0, 1.0, [6, 15, 25], 1e-3):
        assert abs(np.linalg.norm(psi) - 1.0) < 1e-7
        assert abs(excitation_expectation(psi, h.n_f, l) - exc0) < 1e-8


def test_walk_grid_continues_one_trajectory():
    w = coherent_weights(1.0)
    h = oracle.build_joint_hamiltonian(1, 1.0, w.n_max + 2)
    psi0 = oracle.initial_state(w, h)
    step, dt = 0.25, oracle.suggest_dt(w, h, 1.25)
    walked = list(oracle.walk_grid(h, psi0, step, [0, 2, 2, 5], dt))
    assert np.array_equal(walked[0], psi0)
    assert np.array_equal(walked[1], walked[2])
    # the same grid steps grouped as one interval, or taken one at a time,
    # differ only by the rounding of the products
    direct = next(oracle.walk_grid(h, psi0, step, [5], dt))
    single = list(oracle.walk_grid(h, psi0, step, range(6), dt))
    assert np.max(np.abs(walked[-1] - direct)) < 1e-14
    assert np.max(np.abs(walked[1] - single[2])) < 1e-14
    assert np.max(np.abs(walked[-1] - single[-1])) < 1e-14
    for counts in ([2, 1], [-1, 0], [0.0, 0.5]):
        with pytest.raises(InvalidParameterError, match="non-decreasing integers"):
            list(oracle.walk_grid(h, psi0, step, counts, dt))


def trace_at_zero(psi, n_f):
    """Both atoms' states of psi (a sample at T = 0, so no RK4 step runs)
    through trace_trajectory, as scalars."""
    h = oracle.build_joint_hamiltonian(1, 1.0, n_f)
    traced = oracle.trace_trajectory(h, psi, 1.0, [0], 1e-3)
    return {atom: [float(v[0]) for v in astuple(s)] for atom, s in traced.items()}


def test_partial_trace_product_state():
    psi = np.zeros(4 * 3, dtype=complex)
    psi[0] = 1.0  # |+,+,0> with n_f = 2
    for state in trace_at_zero(psi, 2).values():
        assert state == [1.0, 0.0, 0.0, 1.0]  # trace, sx, sy, sz


def test_partial_trace_bell_like_state():
    n_f = 2

    def idx(s1, s2, n):
        return (s1 * 2 + s2) * (n_f + 1) + n

    psi = np.zeros(4 * (n_f + 1), dtype=complex)
    psi[idx(0, 1, 0)] = 1.0 / math.sqrt(2.0)
    psi[idx(1, 0, 0)] = 1.0 / math.sqrt(2.0)
    for trace, sx, sy, sz in trace_at_zero(psi, n_f).values():
        assert 0.5 * (trace + sz) == pytest.approx(0.5, abs=1e-15)
        assert 0.5 * (trace - sz) == pytest.approx(0.5, abs=1e-15)
        assert (sx, sy) == (0.0, 0.0)


def test_sy_is_minus_the_standard_sigma_y():
    """The package's sy is 2 Im rho_{+-}, which is -tr(rho sigma_y) for
    sigma_y = [[0, -i], [i, 0]] in the {|+>, |->} basis: atom 1 in
    (|+> + i|->) / sqrt(2), the +1 eigenstate of that sigma_y, reads
    sy = -1, and its Bloch vector (0, -1, 0)."""
    n_f = 2
    psi = np.zeros(4 * (n_f + 1), dtype=complex)
    psi[0] = 1.0 / math.sqrt(2.0)  # |+,+,0>
    psi[2 * (n_f + 1)] = 1j / math.sqrt(2.0)  # |-,+,0>
    sigma_y = np.array([[0.0, -1j], [1j, 0.0]])
    assert np.vdot(psi[[0, 2 * (n_f + 1)]], sigma_y @ psi[[0, 2 * (n_f + 1)]]).real == pytest.approx(1.0)
    trace, sx, sy, sz = trace_at_zero(psi, n_f)[AtomId.FIRST]
    assert sy == pytest.approx(-1.0, abs=1e-15)
    assert trace == pytest.approx(1.0, abs=1e-15) and (sx, sz) == (0.0, 0.0)
    b = bloch(ReducedAtomState(trace, sx, sy, sz))
    assert (b.sx, b.sz) == (0.0, 0.0) and b.sy == pytest.approx(-1.0, abs=1e-15)


def test_partial_trace_rejects_unnormalized():
    psi = np.zeros(12, dtype=complex)
    psi[0] = 0.9
    with pytest.raises(StepSizeError, match="norm deviates"):
        trace_at_zero(psi, 2)


def test_trace_trajectory_matches_dense_partial_trace():
    """Each sample of one trajectory, traced into (nS,) arrays, equals the
    partial trace of the dense density matrix of that sample, and the
    norm drift is read off the trace."""
    w = coherent_weights(1.5)
    h = oracle.build_joint_hamiltonian(2, 0.7, w.n_max + 4)
    psi0 = oracle.initial_state(w, h)
    step, counts = 0.1, [0, 4, 11, 25]
    dt = oracle.suggest_dt(w, h, 2.5)
    traced = oracle.trace_trajectory(h, psi0, step, counts, dt)
    for i, psi in enumerate(oracle.walk_grid(h, psi0, step, counts, dt)):
        rho = np.outer(psi, psi.conj()).reshape(2, 2, h.n_f + 1, 2, 2, h.n_f + 1)
        for atom, ref in ((AtomId.FIRST, np.einsum("ajnbjn->ab", rho)),
                          (AtomId.SECOND, np.einsum("janjbn->ab", rho))):
            tr, sx, sy, sz = (v[i] for v in astuple(traced[atom]))
            got = 0.5 * np.array([[tr + sz, sx + 1j * sy], [sx - 1j * sy, tr - sz]])
            assert np.max(np.abs(got - ref)) <= 1e-15
    assert oracle.norm_drift(traced[AtomId.FIRST]) < 1e-9


def test_suggest_dt_caps():
    w = coherent_weights(5.0)
    h = oracle.build_joint_hamiltonian(1, 0.5, w.n_max + 2)
    dt_short = oracle.suggest_dt(w, h, 1.0)
    dt_long = oracle.suggest_dt(w, h, 100.0)
    assert dt_long < dt_short <= oracle.DT_MAX
    assert h.norm_inf == np.abs(dense_h(h)).sum(axis=1).max()
    assert dt_short <= 0.1 / h.norm_inf or dt_short <= oracle.DT_MAX


def test_suggest_dt_refuses_overflowing_estimate():
    """A block frequency bound whose fifth power overflows is refused
    rather than turned into a zero step."""
    w = coherent_weights(5.0)
    h = oracle.build_joint_hamiltonian(1, 1e70, w.n_max + 2)
    with pytest.raises(InvalidParameterError, match="step-size estimate overflows"):
        oracle.suggest_dt(w, h, 1e-70)
