"""blocks.trig_sum against direct long-double sums.

Each of the last four tests sits where one way of losing precision in the
transform costs 1e-12 or more, so that it fails if that precision is lost:
reducing positions by a float64 2 pi, taking kernel offsets or the index
shift's phase in float64, and dropping (or flipping the sign of) the
first-order correction for the rounding of np.linspace.  They allow
TOL, trig_sum's worst case per unit of sum |c| (measured: 1.4e-15 over
these tests), under a four-hundredth of what any of the four losses costs.
"""

import numpy as np
import pytest

from tjcm import InvalidParameterError, blocks
from tjcm.blocks import trig_sum

LD = np.longdouble
TWO_PI = 8 * np.arctan(LD(1))
TOL = 2.5e-15


def direct(freqs, coefs, times):
    """Re sum_m coefs[m] exp(i freqs[m] T) at each time, phases and sums in
    long double."""
    phase = np.mod(np.multiply.outer(np.asarray(times, dtype=LD), np.asarray(freqs, dtype=LD)),
                   TWO_PI)
    re, im = np.real(coefs).astype(LD), np.imag(coefs).astype(LD)
    return (np.cos(phase) @ re - np.sin(phase) @ im).astype(float)


def random_sum(seed, size, lo, hi):
    """Frequencies uniform in [lo, hi] with either sign, and complex
    coefficients with sum |c| = 1."""
    rng = np.random.default_rng(seed)
    freqs = rng.uniform(lo, hi, size) * rng.choice([-1.0, 1.0], size)
    coefs = rng.normal(size=size) + 1j * rng.normal(size=size)
    return freqs, coefs / np.sum(np.abs(coefs))


@pytest.mark.parametrize("steps", [500, 2500, 20000])
def test_trig_sum_matches_long_double_sums(steps):
    """Random frequencies up to 4000 over [0, 25] (and backward over
    [7.5, -17.5]): within TOL of the direct sums (measured: 1.1e-15)."""
    freqs, coefs = random_sum(steps, 48, 0.0, 4000.0)
    for times in (np.linspace(0.0, 25.0, steps), np.linspace(7.5, -17.5, steps)):
        assert np.max(np.abs(trig_sum(freqs, coefs, times) - direct(freqs, coefs, times))) <= TOL


def test_trig_sum_rows_share_frequencies():
    """Rows of coefs are independent sums over the same frequencies, and a
    single time is the direct sum."""
    freqs, coefs = random_sum(1, 30, 0.0, 50.0)
    rows = np.stack([coefs, 2.0 * coefs.conj(), -1j * coefs])
    times = np.linspace(-3.0, 9.0, 700)
    out = trig_sum(freqs, rows, times)
    assert out.shape == (3, 700)
    for got, c in zip(out, rows):
        assert np.array_equal(got, trig_sum(freqs, c, times))
    for T in (0.0, 3.7, -2.2):
        assert abs(trig_sum(freqs, coefs, [T])[0] - direct(freqs, coefs, [T])[0]) <= 1e-16
    assert trig_sum(freqs, np.zeros(30), times).tolist() == [0.0] * 700
    assert trig_sum(np.zeros(0), np.zeros(0), times).tolist() == [0.0] * 700


def test_trig_sum_one_frequency_worst_case():
    """One frequency at 11 positions from one fine-grid point to the next
    (7500 points for 2500 times), near the grid's end modes and away from
    them, over exactly representable times: within TOL |c|.  A position
    within rounding of a fine-grid point keeps its offset from it, which
    float64 positions lose (7.7e-14 at point 1249)."""
    times = np.arange(2500) * 2.0 ** -7
    for point in (1, 1234, 1249, 3700):
        for frac in np.linspace(0.0, 1.0, 11):
            freq = np.array([(point + frac) * 2.0 * np.pi / 7500.0 / 2.0 ** -7])
            err = np.abs(trig_sum(freq, [1.0], times) - direct(freq, [1.0], times))
            assert np.max(err) <= TOL, (point, frac)


def test_trig_sum_bitwise_independent_of_block_size(monkeypatch):
    """The kernel table is filled, and the terms spread, _SPREAD_BLOCK
    kernel points at a time, and the kernel's transform is summed from
    cosine tables of about as many entries: the same operations in the
    same order at any size.  One kernel row per block (two modes per
    table), and one block for the whole table, give the default's sums bit
    for bit, on grids of 2, 3 and 700 times (351 modes, more than one
    table at the default), forward and backward, from T = 0 and not."""
    freqs, coefs = random_sum(8, 300, 0.0, 400.0)
    rows = np.stack([coefs, -1j * coefs.real, coefs.conj()])
    cases = [(rows, np.linspace(0.0, 25.0, 700)), (coefs, np.linspace(7.5, -17.5, 700)),
             (coefs.real, np.linspace(0.0, 1.0, 2)), (rows, np.linspace(-1.0, 2.0, 3))]
    default = [trig_sum(freqs, c, times) for c, times in cases]
    for block in (1, 1000, 10**9, blocks._SPREAD_BLOCK):
        monkeypatch.setattr(blocks, "_SPREAD_BLOCK", block)
        for (c, times), expected in zip(cases, default):
            assert np.array_equal(trig_sum(freqs, c, times), expected)


def test_trig_sum_on_an_empty_grid():
    freqs, coefs = random_sum(7, 5, 0.0, 5.0)
    assert trig_sum(freqs, coefs, []).shape == (0,)
    assert trig_sum(freqs, np.stack([coefs, coefs]), np.zeros(0)).shape == (2, 0)


def test_trig_sum_refuses_times_off_a_uniform_grid():
    freqs, coefs = random_sum(2, 4, 0.0, 5.0)
    grid = np.linspace(0.0, 25.0, 100)
    grid[40] += 1e-12
    for times in (grid, [0.0, 1.0, 3.0]):
        with pytest.raises(InvalidParameterError, match="uniform grid"):
            trig_sum(freqs, coefs, times)
    # a uniform grid scaled (g T) or shifted keeps within the rounding bound
    for times in (0.37 * np.linspace(0.0, 25.0, 100), np.linspace(0.0, 25.0, 100) + 1e3):
        assert np.max(np.abs(trig_sum(freqs, coefs, times) - direct(freqs, coefs, times))) <= TOL


def test_positions_reduced_by_long_double_two_pi():
    """Between 1 and 2 turns of phase per step over 5000 steps: a float64
    2 pi (2.4e-16 off) would shift step j's phase by j * 2.4e-16 per turn,
    about 1e-12 at the end."""
    h = 25.0 / 4999
    freqs, coefs = random_sum(3, 48, 2.0 * np.pi / h, 4.0 * np.pi / h)
    times = np.linspace(0.0, 25.0, 5000)
    assert np.max(np.abs(trig_sum(freqs, coefs, times) - direct(freqs, coefs, times))) <= TOL


def test_kernel_offsets_from_long_double_positions():
    """20000 steps, so positions reach 60000 fine-grid points: a float64
    position there is off by up to 3.6e-12 points, which modes near 10000
    turn into phase errors near 4e-12."""
    freqs, coefs = random_sum(4, 48, 0.0, 1200.0)
    times = np.linspace(0.0, 25.0, 20000)
    assert np.max(np.abs(trig_sum(freqs, coefs, times) - direct(freqs, coefs, times))) <= TOL


def test_index_shift_phase_in_long_double():
    """The index shift exp(i j0 x) with j0 = 10000: a float64 product
    j0 * x of about 3e4 rad is off by up to 3.6e-12 rad."""
    freqs, coefs = random_sum(5, 48, 100.0, 1200.0)
    times = np.linspace(0.0, 25.0, 20001)
    assert np.max(np.abs(trig_sum(freqs, coefs, times) - direct(freqs, coefs, times))) <= TOL


def test_linspace_rounding_corrected_to_first_order():
    """np.linspace(0, 25, 2500) rounds its times by up to 2.7e-15 off
    T_0 + j h; at frequencies near 4000 that is 1e-11 rad, which only the
    correction (with its sign: d/dT cos wT = -w sin wT) takes out."""
    times = np.linspace(0.0, 25.0, 2500)
    h = np.longdouble(25.0) / 2499
    assert np.max(np.abs(times - np.arange(2500) * h)) > 1e-15
    freqs, coefs = random_sum(6, 48, 3000.0, 4000.0)
    assert np.max(np.abs(trig_sum(freqs, coefs, times) - direct(freqs, coefs, times))) <= TOL
