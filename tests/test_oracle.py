"""Brute-force route: joint Hamiltonian, RK4 integrator, partial trace."""

import math

import numpy as np
import pytest

from tjcm import AtomId, FockWeights, StepSizeError, TruncationError, coherent_weights
from tjcm import oracle
from tjcm.blocks import transition_strength

from conftest import excitation_expectation


def dense(pattern, values):
    """The operator with the given values on the pattern, as a dense array."""
    out = np.zeros((pattern.dim, pattern.dim), dtype=np.asarray(values).dtype)
    out[pattern.rows, pattern.indices] = values
    return out


def dense_h(h):
    return dense(h.pattern, h.values)


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
    w = coherent_weights(1.0)
    h = oracle.build_joint_hamiltonian(1, 1.0, w.n_max + 2)
    psi0 = oracle.initial_state(w, h)
    psi = oracle.rk4_evolve(h, psi0, 0.0, 1e-3)
    assert np.array_equal(psi, psi0)


def test_rk4_two_level_rabi():
    # vacuum field, decoupled second atom: |+,+,0> <-> |-,+,1> at unit rate
    c = np.zeros(1)
    c[0] = 1.0
    w = FockWeights(c=c)
    h = oracle.build_joint_hamiltonian(1, 0.0, 2)
    psi0 = oracle.initial_state(w, h)
    T, dt = 1.3, 1e-3

    def idx(s1, s2, n):
        return (s1 * 2 + s2) * 3 + n

    psi = oracle.rk4_evolve(h, psi0, T, dt)
    assert psi[idx(0, 0, 0)] == pytest.approx(math.cos(T), abs=1e-10)
    assert psi[idx(1, 0, 1)] == pytest.approx(-1j * math.sin(T), abs=1e-10)
    mask = np.ones(h.dim, bool)
    mask[[idx(0, 0, 0), idx(1, 0, 1)]] = False
    assert np.max(np.abs(psi[mask])) < 1e-12


def test_rk4_rejects_unstable_step():
    h = oracle.build_joint_hamiltonian(1, 1.0, 30)
    norm_inf = h.norm_inf
    cases = [
        # (start state, T, dt, match)
        # dt beyond the stability margin 0.5 / ||H||_inf
        (0, 1.0, 1.0 / norm_inf, "stability margin"),
        # inside the margin, but two steps this coarse from |+,-,28>
        # (row sum near ||H||_inf) lose 8.7e-5 of the norm
        (28, 0.98 / norm_inf, 0.49 / norm_inf, "norm drifted"),
    ]
    for start, T, dt, match in cases:
        psi0 = np.zeros(h.dim, dtype=complex)
        psi0[start] = 1.0
        with pytest.raises(StepSizeError, match=match):
            oracle.rk4_evolve(h, psi0, T, dt)


def _stepped_rk4(h, psi0, T, dt):
    """Reference: the classic RK4 stages, one step at a time, on dense H."""
    steps = max(1, math.ceil(T / dt))
    step = T / steps
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


# (alpha, g, l, T, steps): the fig1, fig2 and fig4 verify sets over T = 3
# at their suggested dt (steps None), the decoupled g = 0 limit, and an
# odd (every bit set) and a power-of-two step count
POWERING_CASES = [
    pytest.param(5.0, 0.5, 1, 3.0, None, id="fig1"),
    pytest.param(5.0, 0.5, 2, 3.0, None, id="fig2"),
    pytest.param(5.0, 1.0, 1, 3.0, None, id="fig4"),
    pytest.param(5.0, 0.0, 1, 3.0, None, id="g0"),
    pytest.param(5.0, 0.5, 1, 1.0, 1023, id="odd"),
    pytest.param(5.0, 0.5, 1, 1.0, 1024, id="pow2"),
]


def _case(alpha, g, l, T, steps):
    w = coherent_weights(alpha)
    h = oracle.build_joint_hamiltonian(l, g, w.n_max + 2 * l)
    # dt = T / (steps - 0.5) makes ceil(T / dt) == steps exactly
    dt = oracle.suggest_dt(w, h, T) if steps is None else T / (steps - 0.5)
    return h, oracle.initial_state(w, h), dt


@pytest.mark.parametrize("alpha, g, l, T, steps", POWERING_CASES)
def test_rk4_powering_matches_stepped_reference(alpha, g, l, T, steps):
    h, psi0, dt = _case(alpha, g, l, T, steps)
    if steps is not None:
        assert math.ceil(T / dt) == steps
    psi = oracle.rk4_evolve(h, psi0, T, dt)
    assert np.max(np.abs(psi - _stepped_rk4(h, psi0, T, dt))) < 1e-12


# nnz of the closed pattern at dim 392 (l = 1) and 400 (l = 2) for g > 0:
# the one-step operator's nnz, as excitation conservation keeps it sparse
CLOSED_NNZ = {392: 1556, 400: 1576}


@pytest.mark.parametrize("alpha, g, l, T, steps", POWERING_CASES)
def test_rk4_step_operator_powers_stay_sparse(alpha, g, l, T, steps):
    # S S lies inside S, and every power of the one-step operator that
    # binary powering forms, computed densely, vanishes off S
    h, _, dt = _case(alpha, g, l, T, steps)
    s = h.pattern
    on_s = dense(s, np.ones(s.nnz, dtype=int))
    assert np.all(on_s[(on_s @ on_s) > 0] == 1)
    if g > 0.0:
        assert s.nnz == CLOSED_NNZ[h.dim]
    steps = max(1, math.ceil(T / dt))
    zh = (-1j * (T / steps)) * dense_h(h)
    term = np.eye(h.dim, dtype=complex)
    p = term
    for k in range(1, 5):
        term = (zh @ term) / k
        p = p + term
    for _ in range(steps.bit_length()):
        assert np.all(p[on_s == 0] == 0.0)
        p = p @ p


@pytest.mark.parametrize("alpha, g, l", [(5.0, 0.5, 1), (5.0, 0.5, 2), (5.0, 0.0, 1)])
def test_closed_pattern_products_match_dense(alpha, g, l):
    w = coherent_weights(alpha)
    s = oracle.build_joint_hamiltonian(l, g, w.n_max + 2 * l).pattern
    rng = np.random.default_rng(3)
    a, b, x = (rng.normal(size=n) + 1j * rng.normal(size=n) for n in (s.nnz, s.nnz, s.dim))
    ab = dense(s, a) @ dense(s, b)
    assert np.max(np.abs(dense(s, s.matmul(a, b)) - ab)) < 1e-12 * np.max(np.abs(ab))
    assert np.max(np.abs(s.matvec(a, x) - dense(s, a) @ x)) < 1e-12 * np.max(np.abs(x))
    assert np.array_equal(dense(s, s.identity()), np.eye(s.dim))


def test_closed_pattern_of_a_general_matrix():
    # a path 0 - 1 - ... - 5 conserves nothing: both directions close to the
    # full 6 x 6 pattern, one direction to the upper triangle, and products
    # on either still match dense arithmetic
    up, down = np.arange(5), np.arange(1, 6)
    rng = np.random.default_rng(4)
    for rows, cols, nnz in [(np.r_[up, down], np.r_[down, up], 36), (up, down, 21)]:
        s = oracle.close_pattern(6, rows, cols)
        assert s.nnz == nnz
        a, b = rng.normal(size=(2, nnz))
        assert np.max(np.abs(dense(s, s.matmul(a, b)) - dense(s, a) @ dense(s, b))) < 1e-14
    # no entries close to the diagonal
    assert oracle.close_pattern(3, np.array([], int), np.array([], int)).nnz == 3


def test_norm_and_excitation_conserved():
    # the documented regime: alpha = 5, dt = 1e-3, full window T in [0, 25]
    w = coherent_weights(5.0)
    l, g = 1, 0.5
    h = oracle.build_joint_hamiltonian(l, g, w.n_max + 2 * l)
    psi0 = oracle.initial_state(w, h)
    exc0 = excitation_expectation(psi0, h.n_f, l)
    psi = psi0
    for t_prev, t in zip((0.0, 6.0, 15.0), (6.0, 15.0, 25.0)):
        psi = oracle.rk4_evolve(h, psi, t - t_prev, 1e-3)
        assert abs(np.linalg.norm(psi) - 1.0) < 1e-7
        assert abs(excitation_expectation(psi, h.n_f, l) - exc0) < 1e-8


def test_sample_states_walks_one_trajectory():
    w = coherent_weights(1.0)
    h = oracle.build_joint_hamiltonian(1, 1.0, w.n_max + 2)
    psi0 = oracle.initial_state(w, h)
    times = np.array([0.0, 0.5, 0.5, 1.25])
    dt = oracle.suggest_dt(w, h, 1.25)
    samples = list(oracle.sample_states(h, psi0, times, dt))
    assert [t for t, _ in samples] == [0.0, 0.5, 0.5, 1.25]
    direct = oracle.rk4_evolve(h, psi0, 1.25, dt)
    # trajectory continuation differs from one straight run only through
    # step-count rounding at the segment joints
    assert np.max(np.abs(samples[-1][1] - direct)) < 1e-9
    with pytest.raises(Exception):
        list(oracle.sample_states(h, psi0, np.array([1.0, 0.5]), dt))


def test_partial_trace_product_state():
    psi = np.zeros(4 * 3, dtype=complex)
    psi[0] = 1.0  # |+,+,0> with n_f = 2
    s = oracle.partial_trace_atom(psi, 2, AtomId.FIRST)
    assert (s.p_plus, s.p_minus, s.coh) == (1.0, 0.0, 0j)


def test_partial_trace_bell_like_state():
    n_f = 2

    def idx(s1, s2, n):
        return (s1 * 2 + s2) * (n_f + 1) + n

    psi = np.zeros(4 * (n_f + 1), dtype=complex)
    psi[idx(0, 1, 0)] = 1.0 / math.sqrt(2.0)
    psi[idx(1, 0, 0)] = 1.0 / math.sqrt(2.0)
    for atom in AtomId:
        s = oracle.partial_trace_atom(psi, n_f, atom)
        assert s.p_plus == pytest.approx(0.5, abs=1e-15)
        assert s.p_minus == pytest.approx(0.5, abs=1e-15)
        assert s.coh == 0j


def test_partial_trace_rejects_unnormalized():
    psi = np.zeros(12, dtype=complex)
    psi[0] = 0.9
    with pytest.raises(Exception):
        oracle.partial_trace_atom(psi, 2, AtomId.FIRST)


def test_suggest_dt_caps():
    w = coherent_weights(5.0)
    h = oracle.build_joint_hamiltonian(1, 0.5, w.n_max + 2)
    dt_short = oracle.suggest_dt(w, h, 1.0)
    dt_long = oracle.suggest_dt(w, h, 100.0)
    assert dt_long < dt_short <= oracle.DT_MAX
    assert h.norm_inf == np.abs(dense_h(h)).sum(axis=1).max()
    assert dt_short <= 0.1 / h.norm_inf or dt_short <= oracle.DT_MAX
