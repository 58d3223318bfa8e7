"""Coherent weight tables and truncation policy."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tjcm import FockWeights, InvalidParameterError, ModelParams, coherent_weights
from tjcm.params import WINDOW_FRACTION, truncation_floor


def test_vacuum_limit():
    w = coherent_weights(0.0, 1e-12)
    assert w.c[0] == 1.0
    assert np.all(w.c[1:] == 0.0)


def test_alpha_one_first_amplitude():
    w = coherent_weights(1.0, 1e-12)
    assert w.c[1] == pytest.approx(math.exp(-0.5), abs=1e-15)


def test_alpha_five_mass_and_mode():
    w = coherent_weights(5.0, 1e-12)
    mass = float(np.sum(w.c**2))
    assert 1.0 - 1e-12 <= mass <= 1.0 + 1e-12
    # Poissonian weights with mean 25 tie at 24/25
    assert int(np.argmax(w.c**2)) in (24, 25)


def test_recurrence_matches_log_formula_alpha_12():
    # independent evaluation via lgamma keeps the reference overflow-free
    alpha = 12.0
    w = coherent_weights(alpha, 1e-12)
    for n in range(w.n_max + 1):
        ref = math.exp(
            n * math.log(alpha) - 0.5 * math.lgamma(n + 1.0) - 0.5 * alpha * alpha
        )
        if ref > 1e-150:
            assert w.c[n] == pytest.approx(ref, rel=1e-10)


def test_truncation_floor_applied():
    # alpha = 1 has negligible mass beyond ~15 but the floor pads the table
    w = coherent_weights(1.0, 1e-6)
    assert w.n_max == truncation_floor(1.0) == 31


def test_tail_rule_dominates_floor_for_tiny_eps():
    # at alpha = 5 the floor (95) exceeds any reasonable tail index
    assert coherent_weights(5.0, 1e-12).n_max == 95
    # a loose eps still keeps the floor
    assert coherent_weights(5.0, 1e-2).n_max == 95


def test_invalid_parameters_rejected():
    with pytest.raises(InvalidParameterError):
        coherent_weights(-0.5, 1e-12)
    with pytest.raises(InvalidParameterError):
        coherent_weights(1.0, 0.0)
    with pytest.raises(InvalidParameterError):
        coherent_weights(1.0, 1.5)
    with pytest.raises(InvalidParameterError):
        ModelParams(alpha=40.0, g=1.0, l=1)  # exp(-alpha^2 / 2) underflows
    # a subnormal exp(-alpha^2 / 2) would start the recurrence from fewer
    # than 53 significant bits
    for alpha in (37.7, 38.0, 38.1):
        with pytest.raises(InvalidParameterError, match="below the smallest normal double"):
            coherent_weights(alpha, 1e-8)
    assert coherent_weights(37.5, 1e-8).c[0] > 0.0
    with pytest.raises(InvalidParameterError):
        ModelParams(alpha=1.0, g=0.0, l=1)
    with pytest.raises(InvalidParameterError):
        ModelParams(alpha=1.0, g=1.0, l=0)


def running_mass_cutoff(alpha, eps):
    """The earlier truncation rule: stop once 1 minus the running mass of
    C_n^2 falls below eps.  Stalls where rounding keeps the mass short of
    1 - eps, but wherever it stops it defines the truncation to keep."""
    c = math.exp(-0.5 * alpha * alpha)
    mass, m = c * c, 0
    while 1.0 - mass >= eps:
        m += 1
        c *= alpha / math.sqrt(m)
        mass += c * c
    return max(m, truncation_floor(alpha))


def test_tail_bound_keeps_running_mass_truncation():
    for alpha in np.linspace(0.0, 30.0, 121):
        for eps in (1e-4, 1e-8, 1e-12):
            assert coherent_weights(float(alpha), eps).n_max == running_mass_cutoff(float(alpha), eps)


def test_eps_below_weight_rounding_is_named():
    # the dropped tail is below 1e-15, but the recurrence's rounding leaves
    # the table's total weight 1.1e-15 short of 1
    with pytest.raises(InvalidParameterError, match="finer than the weight table's rounding"):
        coherent_weights(4.26, 1e-15)


def test_cutoff_eps_below_the_trace_rounding_is_refused():
    """Below 1e-15 the weight table's own rounding can exceed the reduced
    trace's 10 * cutoff_eps check, so such a cutoff_eps is refused up front,
    by the model parameters and by a weight table alike."""
    for eps in (5e-16, 1e-20):
        with pytest.raises(InvalidParameterError, match="below 1e-15"):
            ModelParams(alpha=5.0, g=0.5, l=1, cutoff_eps=eps)
        with pytest.raises(InvalidParameterError, match="below 1e-15"):
            FockWeights(c=np.array([1.0]), cutoff_eps=eps)


def test_weights_validation():
    with pytest.raises(InvalidParameterError):
        FockWeights(c=np.array([0.5, 0.5]))  # mass 0.5
    with pytest.raises(InvalidParameterError):
        FockWeights(c=np.array([-1.0, 0.0]))
    # cutoff_eps is checked as coherent_weights checks it: with
    # cutoff_eps >= 1 an all-zero table would pass the mass check
    for eps in (2.0, 0.0, -1.0, math.nan):
        for c in (np.zeros(4), np.array([1.0])):
            with pytest.raises(InvalidParameterError, match=r"cutoff_eps must lie in \(0, 1\)"):
                FockWeights(c=c, cutoff_eps=eps)


def test_model_params_derives_n_max():
    p = ModelParams(alpha=5.0, g=0.5, l=2)
    assert p.n_max == coherent_weights(5.0, p.cutoff_eps).n_max == 95


@given(
    alpha=st.floats(min_value=0.0, max_value=12.0),
    eps=st.floats(min_value=1e-14, max_value=1e-4),
)
@settings(max_examples=40, deadline=None)
@example(alpha=11.999999999999998, eps=1e-14)
@example(alpha=11.664737609610047, eps=1e-14)
def test_weights_invariants(alpha, eps):
    w = coherent_weights(alpha, eps)
    assert np.all(w.c >= 0.0)
    mass = float(np.sum(w.c**2))
    assert 1.0 - eps <= mass <= 1.0 + 1e-12
    assert w.n_max >= truncation_floor(alpha)
    # every accepted table has a window, within its bound
    for l in (1, 2):
        assert_window_maximal(w, l)


def dropped_sums(w, l, n):
    """Population and coherence-pair weight below base photon number n,
    each exactly rounded (c_k = 0 past n_max)."""
    c = np.concatenate([w.c, np.zeros(l)])
    return math.fsum(c[:n] ** 2), math.fsum(c[:n] * c[l : n + l])


def assert_window_maximal(w, l):
    """Both sums that the window drops are within WINDOW_FRACTION *
    cutoff_eps, and one more block would break one of them."""
    n_min, bound = w.window(l)[0], WINDOW_FRACTION * w.cutoff_eps
    assert 0 <= n_min <= w.n_max
    assert max(dropped_sums(w, l, n_min)) <= bound
    if n_min < w.n_max:
        assert max(dropped_sums(w, l, n_min + 1)) > bound


def test_window_drops_at_most_its_bound_and_is_maximal():
    for alpha in (0.0, 1.0, 5.0, 7.0, 12.0, 19.6, 20.0, 30.0, 37.5):
        for eps in (1e-4, 1e-8, 1e-12):
            w = coherent_weights(alpha, eps)
            for l in (1, 2, 3, 6):
                assert_window_maximal(w, l)
    # at alpha 20 the 229 lowest blocks hold less than 1e-20 of the weight
    assert coherent_weights(20.0).window(1)[0] == 229


def test_window_weights_bitwise_those_of_the_table():
    """window(l) hands out pop = c_n^2 and pair = c_n c_{n+l} over its
    photon numbers, bit for bit the products of the table's entries."""
    for alpha in (0.0, 5.0, 12.0, 20.0):
        w = coherent_weights(alpha)
        for l in (1, 2, 6):
            n_min, pop, pair = w.window(l)
            c = w.c[n_min:]
            assert np.array_equal(pop, c**2)
            assert np.array_equal(pair, c[:-l] * w.c[n_min + l :])


def test_window_empty_up_to_alpha_6_9():
    """At the default cutoff the sums start at n = 0 for alpha <= 6.9, so
    the presets and verify at alpha 5 sum every block."""
    for alpha in np.linspace(0.0, 6.9, 70):
        w = coherent_weights(float(alpha))
        assert [w.window(l)[0] for l in range(1, 7)] == [0] * 6
    assert coherent_weights(7.0).window(1)[0] > 0


def test_window_of_sparse_weights():
    # zero weight below the first occupied level is dropped; a pair sum that
    # is empty (l beyond the table) drops nothing
    w = FockWeights(c=np.array([0.0, 0.0, 0.6, 0.8]))
    assert w.window(1)[0] == 2
    n_min, pop, pair = w.window(5)
    assert (n_min, pop.tolist(), pair.size) == (2, [0.6 * 0.6, 0.8 * 0.8], 0)
    assert FockWeights(c=np.array([1.0])).window(1)[0] == 0
