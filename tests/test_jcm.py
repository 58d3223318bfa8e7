"""Single-atom baseline and the strong-field approximation."""

import math

import numpy as np
import pytest
from scipy.linalg import expm

from tjcm import (
    FockWeights,
    coherent_weights,
    entropy_squeezing,
    jcm_bloch,
    tjcm_harmonic_sy,
)


def jcm_entropy_squeezing(weights, T):
    """Transverse entropy-squeezing witness of the single-atom baseline, as
    the scan's jcm_ey channel computes it."""
    return entropy_squeezing(jcm_bloch(weights, T), "y")


def jcm_bloch_by_matrix_exponential(weights, T):
    """Independent route: evolve each (|+,n>, |-,n+1>) pair with a Pade
    matrix exponential and trace the assembled joint state directly."""
    c = weights.c
    n_f = weights.n_max + 1
    plus = np.zeros(n_f + 1, dtype=complex)
    minus = np.zeros(n_f + 1, dtype=complex)
    for n in range(weights.n_max + 1):
        f = math.sqrt(n + 1.0)
        u = expm(-1j * T * np.array([[0.0, f], [f, 0.0]]))
        plus[n] += u[0, 0] * c[n]
        minus[n + 1] += u[1, 0] * c[n]
    sz = float(np.sum(np.abs(plus) ** 2) - np.sum(np.abs(minus) ** 2))
    coh = complex(np.sum(plus * np.conj(minus)))
    return 2.0 * coh.real, 2.0 * coh.imag, sz


def test_initial_state():
    w = coherent_weights(5.0)
    b = jcm_bloch(w, 0.0)
    assert b.sx == 0.0
    assert b.sy == pytest.approx(0.0, abs=1e-15)
    assert b.sz == pytest.approx(1.0, abs=1e-12)
    assert jcm_entropy_squeezing(w, 0.0) == pytest.approx(0.0, abs=1e-9)


def test_vacuum_rabi_oscillation():
    w = coherent_weights(0.0)
    for T in (0.3, 1.0, math.pi / 2.0):
        b = jcm_bloch(w, T)
        assert b.sz == pytest.approx(math.cos(2.0 * T), abs=1e-14)
        assert b.sy == pytest.approx(0.0, abs=1e-14)
    b = jcm_bloch(w, math.pi / 2.0)
    assert b.sz == pytest.approx(-1.0, abs=1e-14)
    assert jcm_entropy_squeezing(w, math.pi / 2.0) == pytest.approx(0.0, abs=1e-12)


def test_single_fock_level_reduces_to_rabi():
    c = np.zeros(8)
    c[3] = 1.0
    w = FockWeights(c=c)
    for T in (0.4, 2.2):
        b = jcm_bloch(w, T)
        assert b.sz == pytest.approx(math.cos(2.0 * T * 2.0), abs=1e-14)
        assert b.sy == pytest.approx(0.0, abs=1e-14)  # no adjacent weight


def test_against_matrix_exponential_oracle():
    w = coherent_weights(5.0)
    for T in (0.7, 6.0, 14.2):
        b = jcm_bloch(w, T)
        sx_ref, sy_ref, sz_ref = jcm_bloch_by_matrix_exponential(w, T)
        assert b.sz == pytest.approx(sz_ref, abs=1e-10)
        assert b.sy == pytest.approx(sy_ref, abs=1e-10)
        assert abs(sx_ref) < 1e-10


def test_bloch_norm_bounded():
    w = coherent_weights(5.0)
    b = jcm_bloch(w, np.linspace(0.0, 25.0, 201))
    assert np.max(b.norm()) <= 1.0 + 1e-10


def test_array_times_match_scalar_times():
    w = coherent_weights(5.0)
    ts = np.linspace(0.0, 25.0, 41)
    b = jcm_bloch(w, ts)
    assert b.sz.shape == b.sy.shape == b.sx.shape == ts.shape
    harm = tjcm_harmonic_sy(w, ts)
    ey = jcm_entropy_squeezing(w, ts)
    for i, T in enumerate(ts):
        s = jcm_bloch(w, float(T))
        assert abs(b.sz[i] - s.sz) <= 1e-15 and abs(b.sy[i] - s.sy) <= 1e-15
        assert abs(harm[i] - tjcm_harmonic_sy(w, float(T))) <= 1e-15
        assert abs(ey[i] - jcm_entropy_squeezing(w, float(T))) <= 1e-15


def test_harmonic_zero_at_t_zero():
    w = coherent_weights(5.0)
    assert tjcm_harmonic_sy(w, 0.0) == 0.0


def test_harmonic_tracks_exact_symmetric_case():
    """The approximation must reproduce the exact symmetric-case coherence
    away from large times: pointwise here, envelope checks below."""
    from tjcm import AtomId, eigen_table, reduced_states

    w = coherent_weights(5.0)
    ts = np.array([0.5, 3.0, 8.0])
    spectrum = eigen_table(w.n_max, 1, 1.0)
    coh = reduced_states(w, spectrum, ts, 1, [AtomId.FIRST])[AtomId.FIRST].coh
    assert np.max(np.abs(tjcm_harmonic_sy(w, ts) - 2.0 * coh.imag)) < 0.02


def test_harmonic_envelope_and_peak_in_revival_window(preset_series):
    """Principal post-transient peak of the approximate coherence lands on
    the exact one (within 5% of the revival time pi*sqrt(4 alpha^2 + 6))
    and its envelope there is wrong by less than 15%."""
    ts = preset_series["fig4"]
    grid = ts.grid
    sy = ts.channels["sy1"]
    harm = ts.channels["harmonic_sy"]
    post = grid >= 2.0
    t_exact = float(grid[post][int(np.argmax(np.abs(sy[post])))])
    t_harm = float(grid[post][int(np.argmax(np.abs(harm[post])))])
    t_rev = math.pi * math.sqrt(4.0 * 25.0 + 6.0)
    assert abs(t_exact - t_harm) <= 0.05 * t_rev
    window = (grid >= t_exact - 2.0) & (grid <= t_exact + 2.0)
    peak_exact = float(np.max(np.abs(sy[window])))
    peak_harm = float(np.max(np.abs(harm[window])))
    assert abs(peak_harm - peak_exact) / peak_exact < 0.15
