"""Reduced density matrices: per-index summands, traces, oracle and mpmath
agreement, and the spectrum checks."""

import math
from dataclasses import astuple
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tjcm.blocks
import tjcm.reduced
import tjcm.transform
from tjcm import (
    AtomId,
    BlochVector,
    FockWeights,
    InternalConsistencyError,
    InvalidParameterError,
    ReducedAtomState,
    TruncationError,
    bloch,
    coherent_weights,
    swap_transform,
)
from tjcm import oracle
from tjcm.reduced import max_deviation, reduced_states

from conftest import eigen_table, reduced_direct, reduced_truth, sliced, through


def reduced(weights, l, g, ts, atom):
    """ReducedAtomState of one atom at the times ts."""
    return reduced_states(weights, l, g, ts, [atom])[atom]


def reduced_at(weights, l, g, T, atom):
    """ReducedAtomState of one atom at the one time T, the last of a grid
    from T = 0."""
    return sliced(reduced(weights, l, g, through(T), atom), np.s_[-1:])


def field_levels(size, *levels):
    """Field spread evenly over the given Fock levels: isolates the summands
    (q1, q2 at each level, q3 between levels l apart) of the reduction."""
    c = np.zeros(size)
    c[list(levels)] = 1.0 / math.sqrt(len(levels))
    return FockWeights(c=c)


def test_q_terms_at_t_zero():
    """psi(0) = e1 in every block: at T = 0 the inversion is exactly the
    trace, the window mass, and the coherence exactly 0."""
    w = coherent_weights(2.0)
    for weights in [w] + [field_levels(w.n_max + 1, n) for n in (0, 3, w.n_max)]:
        mass = math.fsum(weights.window(1)[1])
        for atom in AtomId:
            s = reduced(weights, 1, 0.7, [0.0], atom)
            assert s.sz[0] == s.trace == mass
            assert s.sy[0] == 0.0


def entry_moduli_squared(a, b):
    """|rho_a - rho_b|^2 of every entry of the 2x2 matrices rho = [[trace +
    sz, sx + i sy], [sx - i sy, trace - sz]] / 2 built from the fields of a
    and b, at every time, exactly (Fractions)."""
    def entries(state):
        # twice rho_++, rho_+-, rho_-+ and rho_-- as (real, imaginary) at each time
        fields = (np.broadcast_to(v, np.shape(state.sz)).tolist() for v in astuple(state))
        return [[(t + z, 0), (x, y), (x, -y), (t - z, 0)]
                for t, x, y, z in zip(*(map(Fraction, f) for f in fields))]
    return [((ra - rb) ** 2 + (ia - ib) ** 2) / 4
            for ea, eb in zip(entries(a), entries(b)) for (ra, ia), (rb, ib) in zip(ea, eb)]


finite = st.floats(min_value=-4.0, max_value=4.0)


@st.composite
def state_pairs(draw):
    """Two states over the same 1-4 times: trace, sy and sz arrays, sx a
    scalar."""
    n = draw(st.integers(min_value=1, max_value=4))
    def state():
        trace, sy, sz = (np.array(draw(st.lists(finite, min_size=n, max_size=n)))
                         for _ in range(3))
        return ReducedAtomState(trace=trace, sx=draw(finite), sy=sy, sz=sz)
    return state(), state()


@given(state_pairs())
@settings(max_examples=500, deadline=None)
def test_max_deviation_is_the_largest_entry_distance(pair):
    """max_deviation, read off the Pauli fields as |dtrace +- dsz| / 2 and
    |dsx + i dsy| / 2, is the largest |d rho_ij| of the two 2x2 complex
    matrices built explicitly from those fields, exactly, to 2 ulps of the
    result: the two differences round, and so does their sum or hypot.
    One ulp is not enough: |dtrace - dsz| / 2 = 2.53, with dtrace 1.03
    and dsz -4.03, misses by 1.1 ulps."""
    a, b = pair
    got = max_deviation(a, b)
    worst = max(entry_moduli_squared(a, b))
    ulps = 2 * math.ulp(got)
    lo, hi = Fraction(max(0.0, got - ulps)), Fraction(got + ulps)
    assert lo * lo <= worst <= hi * hi, (got, math.sqrt(worst))


def test_q_terms_symmetric_coupling_atom_independent():
    w = coherent_weights(2.0)
    for n in (0, 5, 11):
        pair = field_levels(w.n_max + 1, n, n + 1)
        a = reduced(pair, 1, 1.0, [0.0, 2.7], AtomId.FIRST)
        b = reduced(pair, 1, 1.0, [0.0, 2.7], AtomId.SECOND)
        assert max_deviation(a, b) < 1e-12


def test_q_terms_beyond_cutoff_coherence_vanishes():
    # with l = 3, levels 0 and 3 pair through the coherence ...
    sy = reduced(field_levels(4, 0, 3), 3, 0.5, [0.0, 1.0], AtomId.FIRST).sy
    assert abs(sy[1]) > 2e-3
    # ... but in a table that stops at n = 2 every partner n + 3 lies
    # beyond the truncation
    sy = reduced(field_levels(3, 0, 2), 3, 0.5, [0.0, 1.0], AtomId.FIRST).sy
    assert sy.tolist() == [0.0, 0.0]


def test_q_terms_against_oracle_two_level_field():
    """Isolate the n = 24 coherence summand with a two-level field fixture
    c24 = c25 = 1/sqrt(2) and compare against the brute-force trace."""
    w = field_levels(26, 24, 25)
    l, g, T = 1, 0.5, 2.0
    h = oracle.build_joint_hamiltonian(l, g, w.n_max + 2 * l)
    ref = oracle.trace_trajectory(h, oracle.initial_state(w, h), T, [1],
                                 oracle.suggest_dt(w, h, T))
    for atom in AtomId:
        assert max_deviation(reduced_at(w, l, g, T, atom), ref[atom]) < 1e-8
        # only the n = 24 summand feeds the coherence
        sy25 = reduced(field_levels(26, 25), l, g, [0.0, T], atom).sy
        assert sy25.tolist() == [0.0, 0.0]


def test_reduced_state_initial_conditions():
    w = coherent_weights(5.0)
    s = reduced(w, 1, 0.5, [0.0], AtomId.FIRST)
    assert s.trace == pytest.approx(1.0, abs=1e-11)
    assert s.sz[0] == pytest.approx(1.0, abs=1e-11)
    assert s.sy[0] == pytest.approx(0.0, abs=1e-11)


def test_reduced_state_trace_and_positivity_along_trajectory():
    w = coherent_weights(3.0)
    ts = np.linspace(0.0, 20.0, 41)
    for atom in AtomId:
        trace, sx, sy, sz = astuple(reduced(w, 1, 0.5, ts, atom))
        p_plus, p_minus = 0.5 * (trace + sz), 0.5 * (trace - sz)
        coh2 = 0.25 * (sx ** 2 + sy ** 2)
        assert np.max(np.abs(p_plus + p_minus - 1.0)) < 1e-10
        assert np.all((-1e-10 <= p_plus) & (p_plus <= 1.0 + 1e-10))
        assert np.all(coh2 <= p_plus * p_minus + 1e-10)
        # eigenvalues of the 2x2 matrix stay in [0, 1]
        r = np.sqrt((p_plus - p_minus) ** 2 + 4.0 * coh2)
        assert np.all(0.5 * (1.0 - r) >= -1e-10)
        assert np.all(0.5 * (1.0 + r) <= 1.0 + 1e-10)


def test_trace_at_t_zero_is_window_mass():
    """At T = 0 each block sits in its initial state, so the trace, and
    the inversion, is the window mass sum pop up to rounding: within 4 eps
    of it, and so below 1e-14, a hundredth of the 1e-12 that the
    observables clamp as rounding."""
    eps = np.finfo(float).eps
    for alpha in (0.5, 1.0, 5.0, 12.0, 20.0):
        w = coherent_weights(alpha)
        for l in (1, 2):
            mass_dev = abs(math.fsum(w.window(l)[1]) - 1.0)
            for g in (0.5, 1.0, 2.0):
                for state in reduced_states(w, l, g, np.array([0.0]), AtomId).values():
                    inv_dev = abs(state.sz[0] - 1.0)
                    assert inv_dev <= mass_dev + 4.0 * eps
                    assert inv_dev < 1e-14


def test_reduced_state_coherence_purely_imaginary():
    """reduced_states gives the coherence a real part of 0.0 (sx); rebuild
    the coherence here from the complex block amplitudes, real part
    included."""
    w = coherent_weights(4.0)
    l, ts = 2, np.linspace(0.0, 12.0, 25)
    vals, vecs = eigen_table(w.n_max, l, 0.5)
    phases = np.exp(-1j * ts[:, None, None] * vals[None, :, :])
    a = np.einsum("tnk,nk,njk->jtn", phases, vecs[:, 0, :], vecs)
    c, m = w.c, w.c.size - l
    for atom in AtomId:
        a2, a3 = (a[1], a[2]) if atom is AtomId.FIRST else (a[2], a[1])
        full = (a[0][:, l:] * np.conj(a3[:, :m]) + a2[:, l:] * np.conj(a[3][:, :m])) @ (
            c[l:] * c[:m]
        )
        assert np.max(np.abs(full.real)) < 1e-10
        s = reduced_states(w, l, 0.5, ts, [atom])[atom]
        assert s.sx == 0.0
        assert np.max(np.abs(0.5 * (s.sx + 1j * s.sy) - full)) < 1e-10


def test_reduced_state_symmetric_coupling_atoms_identical():
    w = coherent_weights(3.0)
    ts = np.linspace(0.0, 17.3, 174)  # through 0.5, 4.0 and 17.3
    a = reduced(w, 1, 1.0, ts, AtomId.FIRST)
    b = reduced(w, 1, 1.0, ts, AtomId.SECOND)
    for qa, qb in zip(astuple(a), astuple(b)):
        assert np.max(np.abs(qa - qb)) < 1e-12


def test_reduced_state_against_oracle():
    w = coherent_weights(5.0)
    l, g, T = 1, 0.5, 5.0
    h = oracle.build_joint_hamiltonian(l, g, w.n_max + 2 * l)
    ref = oracle.trace_trajectory(h, oracle.initial_state(w, h), T, [1],
                                 oracle.suggest_dt(w, h, T))
    for atom in AtomId:
        assert max_deviation(reduced_at(w, l, g, T, atom), ref[atom]) < 1e-8


def test_atom_swap_symmetry_pointwise():
    """Atom 1 at (g, T) matches atom 2 at (1/g, g T)."""
    w = coherent_weights(3.0)
    g = 0.5
    ts = np.linspace(0.0, 9.5, 96)  # through 0.8, 3.0 and 9.5
    g_swapped, ts_swapped = swap_transform(g, ts)
    a = reduced(w, 1, g, ts, AtomId.FIRST)
    b = reduced(w, 1, g_swapped, ts_swapped, AtomId.SECOND)
    for qa, qb in zip(astuple(a), astuple(b)):
        assert np.max(np.abs(qa - qb)) < 1e-9


def test_swap_transform_rejects_nonpositive_or_infinite_g():
    assert swap_transform(0.5, 2.0) == (2.0, 1.0)
    for g in (0.0, math.inf):
        with pytest.raises(InvalidParameterError, match="g must be > 0"):
            swap_transform(g, 1.0)


def test_reduced_states_grid_matches_single_times():
    """A grid of times reduces to what each time gives on its own, as the
    last of the grid [0, T] (a grid through 1.3 and 6.6, every time
    checked)."""
    w = coherent_weights(2.5)
    ts = np.linspace(0.0, 6.6, 67)
    grid = reduced_states(w, 2, 0.8, ts, AtomId)
    for i, T in enumerate(ts):
        single = reduced_states(w, 2, 0.8, through(T), AtomId)
        for atom in AtomId:
            assert single[atom].sx == grid[atom].sx == 0.0
            assert single[atom].trace == grid[atom].trace
            for field in ("sy", "sz"):
                got, want = getattr(single[atom], field), getattr(grid[atom], field)
                assert abs(got[-1] - want[i]) <= 1e-15


def test_reduced_states_match_direct_contraction_on_long_grids(monkeypatch):
    """Up to 2500 times (fig1 and fig2) and alpha 19.6, and at g = 1 (the
    double zero eigenvalue) and g = 0: at every time within 1e-15 of the
    direct long-double contraction of the same spectrum, block_spectrum's
    own, unmerged (conftest.reduced_direct).  The trig sums run over the
    merged frequencies of the +- symmetric spectrum: 4 per block for the
    populations and 8 per pair of blocks n + l, n for the coherences."""
    real, sizes = tjcm.transform.trig_sum, []

    def spy(freqs, coefs, plan, sine=False):
        sizes.append((sine, np.size(freqs)))
        return real(freqs, coefs, plan, sine=sine)

    monkeypatch.setattr(tjcm.transform, "trig_sum", spy)
    for alpha, l, g, steps in ((5.0, 1, 0.5, 2500), (5.0, 2, 0.5, 2500), (5.0, 1, 1.0, 2500),
                               (5.0, 2, 1.0, 2500), (5.0, 1, 0.0, 500), (12.0, 2, 2.0, 500),
                               (19.6, 2, 1.3, 500)):
        w = coherent_weights(alpha)
        grid = np.linspace(0.0, 25.0, steps)
        sizes.clear()
        states = reduced_states(w, l, g, grid, AtomId)
        _, pop, pair = w.window(l)
        assert sizes == [(False, 4 * pop.size), (True, 8 * pair.size)]
        ref = reduced_direct(w, l, g, grid)
        for atom in AtomId:
            assert states[atom].trace == math.fsum(pop)
            assert max_deviation(states[atom], ref[atom]) <= 1e-15, (alpha, l, g)


def test_reduced_states_on_a_backward_grid():
    """A grid from T = 0 that runs backward (negative step) is a uniform
    grid: time reversal gives the forward grid's populations and flips its
    coherence."""
    w = coherent_weights(5.0)
    grid = np.linspace(0.0, 25.0, 500)
    fwd = reduced_states(w, 2, 0.5, grid, AtomId)
    back = reduced_states(w, 2, 0.5, -grid, AtomId)
    for atom in AtomId:
        assert back[atom].trace == fwd[atom].trace
        for field, sign in (("sz", 1.0), ("sy", -1.0)):
            got, want = getattr(back[atom], field), getattr(fwd[atom], field)
            assert np.max(np.abs(sign * got - want)) <= 1e-15


def test_reduced_states_on_an_empty_grid():
    states = reduced_states(coherent_weights(3.0), 1, 0.5, np.zeros(0), AtomId)
    assert list(states) == list(AtomId)
    for state in states.values():
        assert state.sy.shape == state.sz.shape == (0,)


def test_reduced_states_refuse_times_off_a_uniform_grid():
    w = coherent_weights(3.0)
    for ts in ([0.0, 1.3, 6.6], [0.5, 4.0, 17.3], np.linspace(0.0, 25.0, 500) + np.r_[1e-9, [0.0] * 499]):
        with pytest.raises(InvalidParameterError, match="uniform grid"):
            reduced_states(w, 1, 0.5, ts, AtomId)


def test_reduced_states_match_long_double_sums():
    """The photon-index contraction against the direct one in long double
    over the amplitudes of every block from n = 0, with block_spectrum's
    own spectrum (conftest.reduced_direct with window=False), up to alpha
    = 30 (n_max = 1220), at every time of a grid through 1.3, 6.6 and
    17.9: from alpha 12 on, reduced_states sums only its window
    n_min..n_max, and the blocks it leaves out move nothing beyond the
    bound.  Each reference sum errs by at most 1220 * 5.4e-20 = 6.6e-17
    times the sum of its |terms| (at most 1) before its rounding to
    float64, beside the 1e-15 bound."""
    for alpha, l, g in ((2.5, 2, 0.8), (5.0, 1, 0.8), (5.0, 2, 0.8), (12.0, 1, 2.0),
                        (12.0, 2, 2.0), (20.0, 1, 1.7), (20.0, 2, 1.7), (30.0, 1, 0.4),
                        (30.0, 2, 0.4)):
        w = coherent_weights(alpha)
        assert (w.window(l)[0] > 0) == (alpha >= 12.0)
        ts = np.linspace(0.0, 17.9, 180)
        ref = reduced_direct(w, l, g, ts, window=False)
        for atom, state in reduced_states(w, l, g, ts, AtomId).items():
            assert state.sx == 0.0
            # every entry of the 2x2 matrix: the populations and the coherence
            assert max_deviation(state, ref[atom]) <= 1e-15


def test_sigma_off_the_closed_form_refused(monkeypatch):
    """Negative control for the cross-check of the Jacobi's sigma1 and
    sigma2 against the closed form's (bound 16 eps * sigma1, measured worst
    5.9): either, nudged by 64 eps * sigma1 in one block with its +-
    symmetry kept, fails the call with InternalConsistencyError before any
    trig sum runs."""
    real = tjcm.blocks.jacobi_eigh
    calls = []
    eps = np.finfo(float).eps

    def nudged(state):
        vals = real(state)
        n, (lo, hi) = vals.shape[0] // 2, pair
        step = 64 * eps * 0.5 * (vals[n, 3] - vals[n, 0])
        vals[n, lo] -= step
        vals[n, hi] += step
        return vals

    monkeypatch.setattr(tjcm.blocks, "jacobi_eigh", nudged)
    monkeypatch.setattr(tjcm.transform, "trig_sum", lambda *a, **k: calls.append(a))
    w = coherent_weights(5.0)
    for pair in ((0, 3), (1, 2)):
        with pytest.raises(InternalConsistencyError, match="misses the closed form's sigma"):
            reduced_states(w, 1, 0.5, np.linspace(0.0, 25.0, 2500), AtomId)
    assert calls == []


def test_asymmetric_spectrum_refused(monkeypatch):
    """A spectrum that misses the +- symmetry the merged trig sums rely on
    (one block's w_0 and w_3 both shifted by 1e-13 w_3, which keeps sigma1
    and makes |w_0 + w_3| about 900 eps * max|w|) fails the call with
    InternalConsistencyError before any trig sum runs."""
    real = tjcm.blocks.jacobi_eigh
    calls = []

    def shifted(state):
        vals = real(state)
        n = vals.shape[0] // 2
        vals[n, [0, 3]] += 1e-13 * vals[n, 3]
        return vals

    monkeypatch.setattr(tjcm.blocks, "jacobi_eigh", shifted)
    monkeypatch.setattr(tjcm.transform, "trig_sum", lambda *a, **k: calls.append(a))
    w = coherent_weights(5.0)
    with pytest.raises(InternalConsistencyError, match="symmetric"):
        reduced_states(w, 1, 0.5, np.linspace(0.0, 25.0, 2500), AtomId)
    assert calls == []


@pytest.mark.parametrize("alpha, l", [(3.0, 1), (3.0, 2), (3.0, 3), (5.0, 2), (12.0, 2)])
def test_double_zero_eigenvalue_enters_at_second_order(monkeypatch, alpha, l):
    """At g = 1 sigma2 = 0, but the Jacobi's is +-tiny (1.8e-13 at alpha 3,
    l 3).  The closed form has no v2 term there, so the Jacobi's sigma2
    enters only through cos sigma2 T: zeroing it moves no state by more
    than 2 eps over T <= 25 (measured worst 1 eps; with the Jacobi's
    null-space vectors, as before the closed form, 0.9e-15 to 2.7e-14)."""
    w = coherent_weights(alpha)
    grid = np.linspace(0.0, 25.0, 500)
    states = reduced_states(w, l, 1.0, grid, AtomId)
    real = tjcm.blocks.jacobi_eigh

    def zeroed(state):
        vals = real(state)
        assert 0.0 < np.abs(vals[:, 1:3]).max() < 1e-12
        vals[:, 1:3] = 0.0
        return vals

    monkeypatch.setattr(tjcm.blocks, "jacobi_eigh", zeroed)
    for atom, state in reduced_states(w, l, 1.0, grid, AtomId).items():
        for field in ("sy", "sz"):
            dev = np.max(np.abs(getattr(state, field) - getattr(states[atom], field)))
            assert dev <= 2 * np.finfo(float).eps, (atom, field)


@pytest.mark.parametrize("l", [2, 3])
def test_double_zero_eigenvalue_against_mpmath(l):
    """At alpha 3, g = 1, over T <= 3: every entry within 1e-14 of the
    30-digit truth (conftest.reduced_truth; measured 3.1e-15 at l 2 and
    6.4e-15 at l 3, against 4.0e-15 and 7.2e-15 with the Jacobi's
    vectors), where the Jacobi's eigenvalues alone allow max|w| T eps,
    8.2e-14 and 6.6e-13."""
    w = coherent_weights(3.0)
    grid = np.linspace(0.0, 3.0, 61)
    truth = reduced_truth(w, l, 1.0, grid)
    for atom, state in reduced_states(w, l, 1.0, grid, AtomId).items():
        assert max_deviation(state, truth[atom]) <= 1e-14, atom


def test_phase_conditioning_refused_before_any_transform(monkeypatch):
    """max|w| max|T| eps beyond 1e-8 is refused before any trig sum runs:
    l = 8 over t_max 25 (1.3e-6), and l = 1 on a grid that runs back to T
    = -5e6 (sqrt(386) * 5e6 * eps = 2.2e-8), for negative T as well."""
    calls = []
    monkeypatch.setattr(tjcm.transform, "trig_sum", lambda *a: calls.append(a))
    w = coherent_weights(5.0)
    for l, grid in ((8, np.linspace(0.0, 25.0, 50)), (1, np.linspace(0.0, -5e6, 50))):
        with pytest.raises(InvalidParameterError, match="phase conditioning"):
            reduced_states(w, l, 1.0, grid, AtomId)
    assert calls == []


def test_bloch_check_refuses_a_faulty_inversion_row(monkeypatch):
    """An inversion row raised by 1e-9 at one time, T = 1e-6, where the
    state is within 2e-12 of pure, carries the Bloch vector past the trace
    there by far more than _BLOCH_TOL, and the call is refused over the
    assembled arrays.  The negative control: the same run with the rows as
    the transform gives them passes, its Bloch vectors within _BLOCH_TOL
    of the trace."""
    w = coherent_weights(2.0)
    grid = np.linspace(0.0, 1e-6, 2000)
    real, fault = tjcm.transform.trig_sum, []

    def faulty(*args, **kwargs):
        out = real(*args, **kwargs)
        if not kwargs.get("sine"):
            out[0, -1] += fault[0]
        return out

    monkeypatch.setattr(tjcm.transform, "trig_sum", faulty)
    fault.append(0.0)
    mass = math.fsum(w.window(1)[1])
    for state in reduced_states(w, 1, 1.0, grid, AtomId).values():
        radius = np.hypot(state.sz, state.sy)
        assert 0.0 < mass - radius[-1] < 3e-12
        assert np.max(radius) <= mass * (1.0 + tjcm.reduced._BLOCH_TOL)
    fault[0] = 1e-9
    with pytest.raises(InternalConsistencyError, match="Bloch vector of atom 1"):
        reduced_states(w, 1, 1.0, grid, AtomId)


def test_trace_check_refuses_excess_window_mass():
    """The populations sum to the window mass at every time, so the trace
    is checked once, on that mass: a table that FockWeights accepts (mass
    1 + 5e-13, within its 1e-12) but whose mass strays beyond 10 *
    cutoff_eps is refused; at cutoff_eps 1e-13 it passes."""
    c = np.array([math.sqrt(0.5 + 5e-13), math.sqrt(0.5)])
    with pytest.raises(TruncationError, match="reduced trace deviates from 1 by 5.0"):
        reduced_states(FockWeights(c=c, cutoff_eps=1e-14), 1, 1.0, [0.0, 1.0], AtomId)
    reduced_states(FockWeights(c=c, cutoff_eps=1e-13), 1, 1.0, [0.0, 1.0], AtomId)


def test_populations_sum_to_the_window_mass():
    """The trace is the window mass S, exactly as math.fsum gives it, and
    the normalized state's inversion is sz / S, bit for bit, wherever (sy,
    sz) / S lies in the unit ball.  Atom 2, frozen at g = 0 and 1e-300, has
    for sz a float64 dot that rounds past S at alpha 5 (by 2 eps, at 499 of
    the 500 times): there bloch reads an inversion of 1, and no Bloch
    vector leaves the ball."""
    grid = np.linspace(0.0, 25.0, 500)
    outside = 0
    for alpha in (0.5, 5.0, 12.0, 20.0):
        w = coherent_weights(alpha)
        for l in (1, 2):
            mass = math.fsum(w.window(l)[1])
            for g in (0.0, 1e-300, 0.5, 2.0):
                for state in reduced_states(w, l, g, grid, AtomId).values():
                    assert state.trace == mass
                    b, raw = bloch(state), BlochVector(0.0, state.sy / mass, state.sz / mass)
                    inside = raw.norm() <= 1.0
                    assert np.array_equal(b.sz[inside], raw.sz[inside])
                    assert np.all(b.norm() <= 1.0)
                    assert np.all(b.sz[~inside] == 1.0)
                    outside += np.count_nonzero(~inside)
    assert outside > 0
