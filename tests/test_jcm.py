"""Single-atom baseline and the strong-field approximation.

The baseline is no function of its own: at g = 0 atom 2 is frozen and
atom 1 of the two-atom pipeline is the one-photon one-atom model, which
the scan's jcm_* channels take at l = 1.  Its tests check that slice."""

import math

import numpy as np
import pytest
from scipy.linalg import expm

from tjcm import (
    AtomId,
    BlochVector,
    FockWeights,
    bloch,
    coherent_weights,
    entropy_squeezing,
    reduced_states,
    tjcm_harmonic_sy,
)

from conftest import through


def one_atom_bloch(weights, T):
    """Bloch vector of the one-atom model on a uniform grid T from 0 (or
    the one time 0): atom 1 at g = 0 and l = 1, as run_scan takes it."""
    return bloch(reduced_states(weights, 1, 0.0, T, [AtomId.FIRST])[AtomId.FIRST])


def jcm_entropy_squeezing(weights, T):
    """Transverse entropy-squeezing witness of the single-atom baseline, as
    the scan's jcm_ey channel computes it."""
    return entropy_squeezing(one_atom_bloch(weights, T), "y")


def one_atom_at(weights, T):
    """one_atom_bloch at the one time T, the last of a grid from T = 0."""
    b = one_atom_bloch(weights, through(T))
    return BlochVector(sx=b.sx, sy=b.sy[-1], sz=b.sz[-1])


def one_atom_by_matrix_exponential(weights, T):
    """Independent route, with no block of the two-atom model: evolve each
    (|+,n>, |-,n+1>) pair with a Pade matrix exponential and trace the
    assembled joint state directly."""
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
    b = one_atom_bloch(w, 0.0)
    assert b.sx == 0.0
    assert b.sy == pytest.approx(0.0, abs=1e-15)
    assert b.sz == pytest.approx(1.0, abs=1e-12)
    assert jcm_entropy_squeezing(w, 0.0) == pytest.approx(0.0, abs=1e-9)


def test_vacuum_rabi_oscillation():
    w = coherent_weights(0.0)
    for T in (0.3, 1.0, math.pi / 2.0):
        b = one_atom_at(w, T)
        assert b.sz == pytest.approx(math.cos(2.0 * T), abs=1e-14)
        assert b.sy == pytest.approx(0.0, abs=1e-14)
    b = one_atom_at(w, math.pi / 2.0)
    assert b.sz == pytest.approx(-1.0, abs=1e-14)
    assert entropy_squeezing(b, "y") == pytest.approx(0.0, abs=1e-12)


def test_single_fock_level_reduces_to_rabi():
    c = np.zeros(8)
    c[3] = 1.0
    w = FockWeights(c=c)
    for T in (0.4, 2.2):
        b = one_atom_at(w, T)
        assert b.sz == pytest.approx(math.cos(2.0 * T * 2.0), abs=1e-14)
        assert b.sy == pytest.approx(0.0, abs=1e-14)  # no adjacent weight


def test_against_matrix_exponential_oracle():
    w = coherent_weights(5.0)
    for T in (0.7, 6.0, 14.2):
        b = one_atom_at(w, T)
        sx_ref, sy_ref, sz_ref = one_atom_by_matrix_exponential(w, T)
        assert b.sz == pytest.approx(sz_ref, abs=1e-10)
        assert b.sy == pytest.approx(sy_ref, abs=1e-10)
        assert abs(sx_ref) < 1e-10


def test_bloch_norm_bounded():
    w = coherent_weights(5.0)
    b = one_atom_bloch(w, np.linspace(0.0, 25.0, 201))
    assert np.max(b.norm()) <= 1.0 + 1e-10


def test_array_times_match_scalar_times():
    """Each time of a grid gives what it gives on its own, as the last of
    the grid [0, T] (the one time 0 at T = 0)."""
    w = coherent_weights(5.0)
    ts = np.linspace(0.0, 25.0, 41)
    b = one_atom_bloch(w, ts)
    assert b.sz.shape == b.sy.shape == ts.shape and b.sx == 0.0
    harm = tjcm_harmonic_sy(w, ts)
    assert np.array_equal(one_atom_bloch(w, 0.0).sz, b.sz[:1])
    assert np.array_equal(tjcm_harmonic_sy(w, [0.0]), harm[:1])
    for i, T in enumerate(ts):
        s = one_atom_at(w, float(T))
        assert abs(b.sz[i] - s.sz) <= 1e-15 and abs(b.sy[i] - s.sy) <= 1e-15
        assert abs(harm[i] - tjcm_harmonic_sy(w, through(float(T)))[-1]) <= 1e-15


def test_references_match_fsum_from_n_zero():
    """At alpha 12 both references sum only their window (n_min 48); an
    exactly rounded sum over every n from 0 agrees with them to 1e-15 at
    every time of a grid through 1.3, 6.6 and 17.9.  Both take their
    phases T w in long double: rounded to float64 they move these sums
    by up to 4.4e-15 on this grid.  The harmonic reference is taken in its
    sum form, which the implementation evaluates (see the product-form
    test below)."""
    w = coherent_weights(12.0)
    assert w.window(1)[0] == 48
    ts = np.linspace(0.0, 17.9, 180)
    b, harm = one_atom_bloch(w, ts), tjcm_harmonic_sy(w, ts)
    c = w.c
    n = np.arange(w.n_max + 1.0)
    pair = c[:-1] * c[1:]
    wn, wn1 = np.sqrt(4.0 * n[:-1] + 6.0), np.sqrt(4.0 * n[:-1] + 10.0)
    for i, T in enumerate(ts.astype(np.longdouble)):
        sz = math.fsum(c * c * np.cos(2.0 * T * np.sqrt(n + 1.0)).astype(float))
        sy = 2.0 * math.fsum(pair * (np.cos(T * np.sqrt(n[:-1] + 2.0))
                                     * np.sin(T * np.sqrt(n[:-1] + 1.0))).astype(float))
        h = 0.5 * math.fsum(pair * (np.sin(T * (wn - wn1)) + np.sin(T * wn)
                                    + np.sin(T * wn1)).astype(float))
        assert abs(b.sz[i] - sz) <= 1e-15
        assert abs(b.sy[i] - sy) <= 1e-15
        assert abs(harm[i] - h) <= 1e-15


def test_references_on_an_empty_grid():
    w = coherent_weights(5.0)
    b = one_atom_bloch(w, np.zeros(0))
    assert b.sz.shape == b.sy.shape == tjcm_harmonic_sy(w, np.zeros(0)).shape == (0,)


@pytest.mark.parametrize("alpha", [5.0, 12.0, 20.0])
def test_harmonic_sum_form_matches_product_form(alpha):
    """The sum form the implementation evaluates equals the documented
    product form sin[T(w_n + w_{n+1})/2] cos[T(w_n - w_{n+1})/2] up to the
    rounding of the trig arguments: each argument of size T w is off by
    about eps T w, so the two forms differ by at most
    4 eps max|T| max w sum_n C_n C_{n+1}."""
    w = coherent_weights(alpha)
    ts = np.linspace(0.0, 25.0, 2500)
    n = np.arange(w.n_max + 1.0)
    wn, wn1 = np.sqrt(4.0 * n[:-1] + 6.0), np.sqrt(4.0 * n[:-1] + 10.0)
    pair = w.c[:-1] * w.c[1:]
    t = ts[:, None]
    product = (np.sin(t * (wn - wn1)) / 2.0
               + np.sin(t * (wn + wn1) / 2.0) * np.cos(t * (wn - wn1) / 2.0)) @ pair
    bound = 4.0 * np.finfo(float).eps * ts.max() * wn1.max() * math.fsum(pair)
    assert np.max(np.abs(tjcm_harmonic_sy(w, ts) - product)) <= bound


def test_harmonic_zero_at_t_zero():
    w = coherent_weights(5.0)
    assert tjcm_harmonic_sy(w, [0.0]).tolist() == [0.0]


def test_harmonic_tracks_exact_symmetric_case():
    """The approximation must reproduce the exact symmetric-case coherence
    away from large times: pointwise here, envelope checks below."""
    w = coherent_weights(5.0)
    ts = np.linspace(0.0, 8.0, 17)
    sy = reduced_states(w, 1, 1.0, ts, [AtomId.FIRST])[AtomId.FIRST].sy
    at = np.s_[1::5]  # 0.5, 3, 5.5, 8
    assert np.max(np.abs(tjcm_harmonic_sy(w, ts)[at] - sy[at])) < 0.02


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
