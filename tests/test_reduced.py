"""Reduced density matrices: per-index summands, traces, oracle agreement."""

import math
import sys
import threading
from dataclasses import astuple

import numpy as np
import pytest

import tjcm.blocks
import tjcm.reduced
from tjcm import (
    AtomId,
    FockWeights,
    InternalConsistencyError,
    InvalidParameterError,
    TruncationError,
    coherent_weights,
    eigen_table,
    swap_transform,
)
from tjcm import oracle
from tjcm.blocks import chunk_rows, evolve_grid, map_chunks
from tjcm.reduced import reduced_states


def reduced(weights, l, g, ts, atom):
    """ReducedAtomState of one atom at the times ts."""
    return reduced_states(weights, eigen_table(weights.n_max, l, g), ts, l, [atom])[atom]


def field_levels(size, *levels):
    """Field spread evenly over the given Fock levels: isolates the summands
    (q1, q2 at each level, q3 between levels l apart) of the reduction."""
    c = np.zeros(size)
    c[list(levels)] = 1.0 / math.sqrt(len(levels))
    return FockWeights(c=c)


def test_q_terms_at_t_zero():
    w = coherent_weights(2.0)
    for atom in AtomId:
        s = reduced(w, 1, 0.7, [0.0], atom)
        assert s.p_plus[0] == pytest.approx(float(np.sum(w.c**2)), rel=1e-12)
        assert s.p_minus[0] == pytest.approx(0.0, abs=1e-28)
        assert s.coh[0] == pytest.approx(0j, abs=1e-15)
    for n in (0, 3, w.n_max):
        single = field_levels(w.n_max + 1, n)
        for atom in AtomId:
            s = reduced(single, 1, 0.7, [0.0], atom)
            assert s.p_plus[0] == pytest.approx(1.0, rel=1e-12)
            assert s.p_minus[0] == pytest.approx(0.0, abs=1e-28)
            assert s.coh[0] == 0j


def test_q_terms_symmetric_coupling_atom_independent():
    w = coherent_weights(2.0)
    for n in (0, 5, 11):
        pair = field_levels(w.n_max + 1, n, n + 1)
        a = reduced(pair, 1, 1.0, [2.7], AtomId.FIRST)
        b = reduced(pair, 1, 1.0, [2.7], AtomId.SECOND)
        for qa, qb in zip(astuple(a), astuple(b)):
            assert abs(qa[0] - qb[0]) < 1e-12


def test_q_terms_beyond_cutoff_coherence_vanishes():
    # with l = 3, levels 0 and 3 pair through the coherence ...
    coh = reduced(field_levels(4, 0, 3), 3, 0.5, [1.0], AtomId.FIRST).coh
    assert abs(coh[0]) > 1e-3
    # ... but in a table that stops at n = 2 every partner n + 3 lies
    # beyond the truncation
    coh = reduced(field_levels(3, 0, 2), 3, 0.5, [1.0], AtomId.FIRST).coh
    assert coh[0] == 0j


def test_q_terms_against_oracle_two_level_field():
    """Isolate the n = 24 coherence summand with a two-level field fixture
    c24 = c25 = 1/sqrt(2) and compare against the brute-force trace."""
    w = field_levels(26, 24, 25)
    l, g, T = 1, 0.5, 2.0
    h = oracle.build_joint_hamiltonian(l, g, w.n_max + 2 * l)
    psi = oracle.rk4_evolve(
        h, oracle.initial_state(w, h), T, oracle.suggest_dt(w, h, T)
    )
    for atom in AtomId:
        ref = oracle.partial_trace_atom(psi, h.n_f, atom)
        s = reduced(w, l, g, [T], atom)
        assert s.p_plus[0] == pytest.approx(ref.p_plus, abs=1e-8)
        assert s.p_minus[0] == pytest.approx(ref.p_minus, abs=1e-8)
        assert abs(s.coh[0] - ref.coh) < 1e-8
        # only the n = 24 summand feeds the coherence
        coh25 = reduced(field_levels(26, 25), l, g, [T], atom).coh
        assert coh25[0] == 0j


def test_reduced_state_initial_conditions():
    w = coherent_weights(5.0)
    s = reduced(w, 1, 0.5, [0.0], AtomId.FIRST)
    assert s.p_plus[0] == pytest.approx(1.0, abs=1e-11)
    assert s.p_minus[0] == pytest.approx(0.0, abs=1e-11)
    assert s.coh[0] == pytest.approx(0j, abs=1e-11)


def test_reduced_state_trace_and_positivity_along_trajectory():
    w = coherent_weights(3.0)
    ts = np.linspace(0.0, 20.0, 41)
    for atom in AtomId:
        p_plus, p_minus, coh = astuple(reduced(w, 1, 0.5, ts, atom))
        assert np.max(np.abs(p_plus + p_minus - 1.0)) < 1e-10
        assert np.all((-1e-10 <= p_plus) & (p_plus <= 1.0 + 1e-10))
        assert np.all(np.abs(coh) ** 2 <= p_plus * p_minus + 1e-10)
        # eigenvalues of the 2x2 matrix stay in [0, 1]
        r = np.sqrt((p_plus - p_minus) ** 2 + 4.0 * np.abs(coh) ** 2)
        assert np.all(0.5 * (1.0 - r) >= -1e-10)
        assert np.all(0.5 * (1.0 + r) <= 1.0 + 1e-10)


def test_reduced_state_coherence_purely_imaginary():
    """reduced_states keeps only the imaginary part of the coherence; rebuild
    it here from the complex block amplitudes, real part included."""
    w = coherent_weights(4.0)
    l, ts = 2, np.linspace(0.0, 12.0, 25)
    blocks = eigen_table(w.n_max, l, 0.5)
    vals, vecs = blocks
    phases = np.exp(-1j * ts[:, None, None] * vals[None, :, :])
    a = np.einsum("tnk,nk,njk->jtn", phases, vecs[:, 0, :], vecs)
    c, m = w.c, w.c.size - l
    for atom in AtomId:
        a2, a3 = (a[1], a[2]) if atom is AtomId.FIRST else (a[2], a[1])
        full = (a[0][:, l:] * np.conj(a3[:, :m]) + a2[:, l:] * np.conj(a[3][:, :m])) @ (
            c[l:] * c[:m]
        )
        assert np.max(np.abs(full.real)) < 1e-10
        coh = reduced_states(w, blocks, ts, l, [atom])[atom].coh
        assert np.max(np.abs(coh - full)) < 1e-10


def test_reduced_state_symmetric_coupling_atoms_identical():
    w = coherent_weights(3.0)
    ts = [0.5, 4.0, 17.3]
    a = reduced(w, 1, 1.0, ts, AtomId.FIRST)
    b = reduced(w, 1, 1.0, ts, AtomId.SECOND)
    for qa, qb in zip(astuple(a), astuple(b)):
        assert np.max(np.abs(qa - qb)) < 1e-12


def test_reduced_state_against_oracle():
    w = coherent_weights(5.0)
    l, g, T = 1, 0.5, 5.0
    h = oracle.build_joint_hamiltonian(l, g, w.n_max + 2 * l)
    psi = oracle.rk4_evolve(
        h, oracle.initial_state(w, h), T, oracle.suggest_dt(w, h, T)
    )
    for atom in AtomId:
        s = reduced(w, l, g, [T], atom)
        ref = oracle.partial_trace_atom(psi, h.n_f, atom)
        assert abs(s.p_plus[0] - ref.p_plus) < 1e-8
        assert abs(s.p_minus[0] - ref.p_minus) < 1e-8
        assert abs(s.coh[0] - ref.coh) < 1e-8


def test_reduced_state_rejects_short_table():
    w = coherent_weights(2.0)
    with pytest.raises(TruncationError, match="spectrum covers"):
        reduced_states(w, eigen_table(w.n_max - 2, 1, 1.0), [1.0], 1, AtomId)


def test_atom_swap_symmetry_pointwise():
    """Atom 1 at (g, T) matches atom 2 at (1/g, g T)."""
    w = coherent_weights(3.0)
    g = 0.5
    ts = np.array([0.8, 3.0, 9.5])
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
    """A grid of times reduces to what each time gives on its own."""
    w = coherent_weights(2.5)
    blocks = eigen_table(w.n_max, 2, 0.8)
    ts = np.array([0.0, 1.3, 6.6])
    grid = reduced_states(w, blocks, ts, 2, AtomId)
    for i, T in enumerate(ts):
        single = reduced_states(w, blocks, [T], 2, AtomId)
        for atom in AtomId:
            for got, want in zip(astuple(single[atom]), astuple(grid[atom])):
                assert abs(got[0] - want[i]) <= 1e-15


def test_reduced_states_match_fsum():
    """The photon-index contraction against an exactly rounded per-time
    sum (math.fsum) over the amplitudes of evolve_grid, up to alpha = 30
    (n_max = 1220)."""
    for alpha, l, g in ((2.5, 2, 0.8), (5.0, 1, 0.8), (5.0, 2, 0.8), (20.0, 1, 1.7),
                        (20.0, 2, 1.7), (30.0, 1, 0.4), (30.0, 2, 0.4)):
        w = coherent_weights(alpha)
        ts = np.array([0.0, 1.3, 6.6, 17.9])
        spectrum = eigen_table(w.n_max, l, g)
        x = evolve_grid(spectrum, ts)
        c, m = w.c, w.c.size - l
        for atom, state in reduced_states(w, spectrum, ts, l, AtomId).items():
            pp, pm, coh = astuple(state)
            x1, x2, x3, x4 = x if atom is AtomId.FIRST else x[[0, 2, 1, 3]]
            for i in range(ts.size):
                ref_pp = math.fsum(c * c * (x1[i] ** 2 + x2[i] ** 2))
                ref_pm = math.fsum(c * c * (x3[i] ** 2 + x4[i] ** 2))
                ref_coh = math.fsum(
                    c[l:] * c[:m] * (x2[i, l:] * x4[i, :m] - x3[i, :m] * x1[i, l:])
                )
                assert abs(pp[i] - ref_pp) <= 1e-15
                assert abs(pm[i] - ref_pm) <= 1e-15
                assert abs(coh[i] - 1j * ref_coh) <= 1e-15


@pytest.mark.parametrize("alpha, g, l, steps", [
    (5.0, 0.5, 1, 2500),  # fig1
    (5.0, 0.5, 2, 2500),  # fig2
    (19.6, 1.3, 2, 500),  # n_max 601: 24 rows per chunk
])
def test_streamed_states_bitwise_equal_to_whole_grid(alpha, g, l, steps, monkeypatch):
    """reduced_states in cache-sized chunks on every worker gives, bit for
    bit, what it gives as one chunk over the whole grid on one worker."""
    w = coherent_weights(alpha)
    spectrum = eigen_table(w.n_max, l, g)
    grid = np.linspace(0.0, 25.0, steps)
    assert steps > 2 * chunk_rows(w.n_max + 1)
    streamed = reduced_states(w, spectrum, grid, l, AtomId)
    monkeypatch.setattr(tjcm.blocks, "_CHUNK_ELEMS", (steps + 8) * (w.n_max + 1))
    monkeypatch.setattr(tjcm.blocks, "_WORKERS", 1)
    assert chunk_rows(w.n_max + 1) >= steps
    whole = reduced_states(w, spectrum, grid, l, AtomId)
    assert list(streamed) == list(AtomId)
    for atom in AtomId:
        for got, want in zip(astuple(streamed[atom]), astuple(whole[atom])):
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)


def test_chunk_rows_multiple_of_eight():
    for n in (1, 36, 96, 602, 1221, 5000):
        rows = chunk_rows(n)
        assert rows % 8 == 0 and rows >= 8
        assert rows * n <= tjcm.blocks._CHUNK_ELEMS or rows == 8


def test_map_chunks_covers_every_row_once(monkeypatch):
    """More workers than cores, switching threads every microsecond: every
    row is still written by exactly one chunk, and each worker allocates
    its scratch once."""
    monkeypatch.setattr(tjcm.blocks, "_WORKERS", 5)
    hits = np.zeros(1000, dtype=int)
    scratches = {}  # address -> array; holding each keeps addresses unique

    def fill(start, stop, scratch):
        assert scratch.shape == (2, 8)
        scratches.setdefault(scratch.ctypes.data, scratch)
        for i in range(start, stop):
            hits[i] += 1

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        map_chunks(hits.size, 8, (2, 8), fill)
    finally:
        sys.setswitchinterval(interval)
    assert np.all(hits == 1)
    assert len(scratches) == 5  # one scratch array per worker


def test_worker_error_reaches_caller_with_its_type(monkeypatch):
    class WorkerFault(RuntimeError):
        pass

    monkeypatch.setattr(tjcm.blocks, "_WORKERS", 2)

    def fill(start, stop, scratch):
        if threading.current_thread() is not threading.main_thread():
            raise WorkerFault(f"chunk at {start}")

    with pytest.raises(WorkerFault, match="chunk at 8"):
        map_chunks(64, 8, (1,), fill)


def test_streamed_norm_check_covers_every_chunk(monkeypatch):
    """A norm defect in the chunks of the second worker thread fails the
    whole call with the amplitude-norm error."""
    monkeypatch.setattr(tjcm.blocks, "_WORKERS", 2)
    real = tjcm.reduced.amplitudes_into

    def faulty(factors, t, *bufs):
        dev = real(factors, t, *bufs)
        return dev if threading.current_thread() is threading.main_thread() else 1e-6

    monkeypatch.setattr(tjcm.reduced, "amplitudes_into", faulty)
    w = coherent_weights(5.0)
    with pytest.raises(InternalConsistencyError, match="amplitude norm deviates"):
        reduced_states(w, eigen_table(w.n_max, 1, 0.5), np.linspace(0.0, 25.0, 2500), 1,
                       AtomId)


def test_streamed_phase_conditioning_refused_before_any_chunk(monkeypatch):
    calls = []
    monkeypatch.setattr(tjcm.reduced, "amplitudes_into", lambda *a: calls.append(a))
    w = coherent_weights(5.0)
    spectrum = eigen_table(w.n_max, 8, 1.0)  # conditioning 1.3e-6 over t_max 25
    with pytest.raises(InvalidParameterError, match="phase conditioning"):
        reduced_states(w, spectrum, np.linspace(0.0, 25.0, 50), 8, AtomId)
    assert calls == []


def test_streamed_trace_check_over_assembled_arrays(monkeypatch):
    """Trace lost in one chunk (the dominant block's amplitudes zeroed,
    which drains visible trace mass) is refused."""
    w = coherent_weights(2.0)
    real = tjcm.reduced.amplitudes_into

    def draining(factors, t, x, *bufs):
        dev = real(factors, t, x, *bufs)
        if t[0] > 0.0:
            x[:, -1, int(np.argmax(w.c))] = 0.0
        return dev

    monkeypatch.setattr(tjcm.reduced, "amplitudes_into", draining)
    with pytest.raises(TruncationError, match="reduced trace"):
        reduced_states(w, eigen_table(w.n_max, 1, 1.0), np.linspace(0.0, 25.0, 2000), 1,
                       AtomId)
