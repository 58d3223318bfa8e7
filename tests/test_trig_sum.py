"""transform.trig_sum against direct long-double sums.

Each of the last three tests sits where one way of losing precision in the
transform costs 1e-12 or more, so that it fails if that precision is lost:
reducing positions by a float64 2 pi, taking kernel offsets in float64,
and dropping (or flipping the sign of) the first-order correction for the
rounding of np.linspace.  They allow TOL, trig_sum's worst case per unit
of sum |c| (measured: 1.4e-15 over these tests), under a four-hundredth of
what any of the three losses costs.  The one-sided transform has no index
shift, so the test of its long-double phase went with it.
"""

import sys
import threading

import numpy as np
import pytest

from tjcm import (AtomId, InvalidParameterError, ModelParams, ScanConfig, coherent_weights, reduced_states,
                  run_scan, tjcm_harmonic_sy, transform)
from tjcm.scan import run_preset
from tjcm.transform import grid_plan, trig_sum

from conftest import through

LD = np.longdouble
TWO_PI = 8 * np.arctan(LD(1))
TOL = 2.5e-15


def direct(freqs, coefs, times, sine=False):
    """sum_m coefs[m] cos(freqs[m] T) (sin for sine) at each time, phases
    and sums in long double."""
    phase = np.mod(np.multiply.outer(np.asarray(times, dtype=LD), np.asarray(freqs, dtype=LD)),
                   TWO_PI)
    return ((np.sin if sine else np.cos)(phase) @ np.asarray(coefs, dtype=LD)).astype(float)


def random_sum(seed, size, lo, hi):
    """Frequencies uniform in [lo, hi] with either sign, and real
    coefficients with sum |c| = 1."""
    rng = np.random.default_rng(seed)
    freqs = rng.uniform(lo, hi, size) * rng.choice([-1.0, 1.0], size)
    coefs = rng.normal(size=size)
    return freqs, coefs / np.sum(np.abs(coefs))


def worst(freqs, coefs, times):
    """Largest distance from the direct sums over cosine and sine rows."""
    return max(np.max(np.abs(trig_sum(freqs, coefs, times, sine) - direct(freqs, coefs, times, sine)))
               for sine in (False, True))


@pytest.mark.parametrize("steps", [500, 2500, 20000])
def test_trig_sum_matches_long_double_sums(steps):
    """Random frequencies up to 4000 over [0, 25] and backward over
    [0, -25]: cosine and sine rows within TOL of the direct sums (measured:
    1.1e-15)."""
    freqs, coefs = random_sum(steps, 48, 0.0, 4000.0)
    for times in (np.linspace(0.0, 25.0, steps), np.linspace(0.0, -25.0, steps)):
        assert worst(freqs, coefs, times) <= TOL


def test_trig_sum_rows_share_frequencies():
    """Rows of coefs are independent sums over the same frequencies, and a
    single time T, as the last of the grid [0, T], is the direct sum."""
    freqs, coefs = random_sum(1, 30, 0.0, 50.0)
    rows = np.stack([coefs, -2.0 * coefs[::-1], np.abs(coefs)])
    times = np.linspace(0.0, -12.0, 700)
    for sine in (False, True):
        out = trig_sum(freqs, rows, times, sine)
        assert out.shape == (3, 700)
        for got, c in zip(out, rows):
            assert np.array_equal(got, trig_sum(freqs, c, times, sine))
        for T in (0.0, 3.7, -2.2):
            assert abs(trig_sum(freqs, coefs, through(T), sine)[-1] - direct(freqs, coefs, [T], sine)[0]) <= 1e-16
        assert trig_sum(freqs, np.zeros(30), times, sine).tolist() == [0.0] * 700
        assert trig_sum(np.zeros(0), np.zeros(0), times, sine).tolist() == [0.0] * 700
    # a sine sum from T = 0 starts at +0
    assert str(trig_sum(freqs, coefs, np.linspace(0.0, 1.0, 9), sine=True)[0]) == "0.0"


@pytest.mark.parametrize("steps, count", [(500, 7), (20000, 3)])
def test_trig_sum_stack_equals_rows_alone(steps, count):
    """A stack of rows is spread and transformed a batch of fine grids at
    a time (_FFT_STACK_BYTES: five rows at nT 500, one at nT 20000), and
    each row of it equals, bit for bit, the row summed alone, in cosine
    and in sine sums."""
    size = (6 * steps + transform._ES_WIDTH) * 8
    assert 1 <= max(transform._FFT_STACK_BYTES // size, 1) < count
    freqs, coefs = random_sum(steps + count, 200, 0.0, 900.0)
    rows = np.stack([coefs * (k + 1) * (-1.0) ** k for k in range(count)])
    for times in (np.linspace(0.0, 25.0, steps), np.linspace(0.0, -25.0, steps)):
        plan = grid_plan(times)
        for sine in (False, True):
            stack = trig_sum(freqs, rows, plan, sine)
            for got, c in zip(stack, rows):
                assert np.array_equal(got, trig_sum(freqs, c, plan, sine))


def test_trig_sum_one_frequency_worst_case():
    """One frequency at 11 positions from one fine-grid point to the next
    (15000 points for 2500 times), at the ends of the grid and within it,
    over exactly representable times: within TOL |c|.  A position within
    rounding of a fine-grid point keeps its offset from it, which float64
    positions lose."""
    times = np.arange(2500) * 2.0 ** -7
    for point in (1, 2499, 7499, 14998):
        for frac in np.linspace(0.0, 1.0, 11):
            freq = np.array([(point + frac) * 2.0 * np.pi / 15000.0 / 2.0 ** -7])
            assert worst(freq, [1.0], times) <= TOL, (point, frac)


@pytest.mark.parametrize("steps", [7, 42, 43, 2500, 2501])
def test_trig_sum_last_mode(steps):
    """The last time is mode nT - 1, where the kernel's transform is
    smallest and the even-odd split reads the transform's first index past
    the middle third: one frequency at positions across a fine-grid cell
    there, on grids on the 256-point floor (nT 7, 42) and off it."""
    times = np.arange(steps) * 2.0 ** -7
    n_fine = grid_plan(times).n_fine
    assert n_fine == max(6 * steps, 256)
    for point in (0, n_fine // 2 - steps + 1, n_fine - 1):
        for frac in (0.0, 0.3, 0.5, 0.9):
            freq = np.array([(point + frac) * 2.0 * np.pi / n_fine / 2.0 ** -7])
            for sine in (False, True):
                got = trig_sum(freq, [1.0], times, sine)[-1]
                assert abs(got - direct(freq, [1.0], times[-1:], sine)[0]) <= TOL


def test_shared_plan_equals_a_fresh_one(monkeypatch):
    """A GridPlan shared by several sums, and kept by grid_plan, gives each
    of them, bit for bit, what a plan built afresh (the kept one dropped
    first) gives."""
    freqs, coefs = random_sum(10, 60, 0.0, 300.0)
    other, _ = random_sum(11, 60, 0.0, 30.0)
    for times in (np.linspace(0.0, 25.0, 500), np.linspace(0.0, -3.0, 31), [0.0]):
        plan = grid_plan(times)
        monkeypatch.setattr(transform, "_last_plan", None)
        fresh = grid_plan(times)
        assert fresh is not plan
        assert fresh.h == plan.h and fresh.n_fine == plan.n_fine
        assert np.array_equal(fresh.delta, plan.delta) and np.array_equal(fresh.tables, plan.tables)
        for f, sine in ((freqs, False), (other, True), (freqs, True), (other, False)):
            expected = trig_sum(f, coefs, fresh, sine)
            assert np.array_equal(trig_sum(f, coefs, plan, sine), expected)
            assert np.array_equal(trig_sum(f, coefs, times, sine), expected)


def test_grid_plan_keeps_the_last_plan_for_equal_times(monkeypatch):
    """Times bitwise equal to the last grid's, in another array, a strided
    view or a list, get its plan object back; times one ulp apart, a sign
    of zero apart or of another length get a new plan, and so do the first
    times once changed in place (the plan keeps a copy of them)."""
    monkeypatch.setattr(transform, "_last_plan", None)
    times = np.linspace(0.0, 25.0, 500)
    plan = grid_plan(times)
    assert grid_plan(times.copy()) is plan
    assert grid_plan(times.tolist()) is plan
    strided = np.linspace(0.0, 25.0, 999)[::2]
    assert np.array_equal(strided, times) and grid_plan(strided) is plan
    nudged = times.copy()
    nudged[-1] = np.nextafter(nudged[-1], 26.0)
    negative_zero = times.copy()
    negative_zero[0] = -0.0
    for other in (nudged, negative_zero, np.linspace(0.0, 25.0, 501), times[:499]):
        kept = grid_plan(times)
        assert grid_plan(other) is not kept
        assert grid_plan(other) is grid_plan(other.copy())
    kept = grid_plan(times)
    assert kept is not plan and grid_plan(times) is kept
    times *= 2.0
    assert grid_plan(times) is not kept


def test_kept_plan_is_read_only(monkeypatch):
    monkeypatch.setattr(transform, "_last_plan", None)
    plan = grid_plan(np.linspace(0.0, 25.0, 500))
    assert transform._last_plan[1] is plan
    for a in (plan.delta, plan.tables, transform._last_plan[0]):
        with pytest.raises(ValueError, match="read-only"):
            a[..., 0] = 1.0


def test_grid_plan_keeps_no_plan_above_the_cap(monkeypatch):
    """A plan is kept only while its delta, tables and times, 48 bytes a
    time, fit _FFT_STACK_BYTES: the longest such grid's plan is kept, and
    one time more is built afresh on each call, the kept plan untouched."""
    longest = transform._FFT_STACK_BYTES // 48
    monkeypatch.setattr(transform, "_last_plan", None)
    kept = grid_plan(np.linspace(0.0, 25.0, longest))
    assert grid_plan(np.linspace(0.0, 25.0, longest)) is kept
    times = np.linspace(0.0, 25.0, longest + 1)
    first = grid_plan(times)
    assert grid_plan(times) is not first
    assert transform._last_plan[1] is kept
    assert np.array_equal(grid_plan(times).tables, first.tables)


def test_refused_grid_is_never_kept(monkeypatch):
    """A grid off uniform, or not from T = 0, raises on every call and
    leaves the kept plan as it was."""
    monkeypatch.setattr(transform, "_last_plan", None)
    times = np.linspace(0.0, 25.0, 500)
    kept = grid_plan(times)
    off = np.linspace(0.0, 25.0, 100)
    off[40] += 1e-12
    for bad, message in ((off, "they stray"), (np.linspace(0.5, 25.0, 100), "from T = 0")):
        for _ in range(2):
            with pytest.raises(InvalidParameterError, match=message):
                grid_plan(bad)
            assert transform._last_plan[1] is kept
    assert grid_plan(times) is kept


def test_concurrent_callers_get_their_own_grids_plan(monkeypatch):
    """Threads planning two grids in turn, switching often, each get a plan
    of their own times: the kept (times, plan) pair is replaced whole."""
    monkeypatch.setattr(transform, "_last_plan", None)
    grids = [np.linspace(0.0, 25.0, n) for n in (50, 60)]
    expected = [grid_plan(t).delta.copy() for t in grids]
    wrong = []

    def plan_in_turn(first):
        for k in range(500):
            i = (first + k) % 2
            if not np.array_equal(grid_plan(grids[i]).delta, expected[i]):
                wrong.append(i)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=plan_in_turn, args=(k,)) for k in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert wrong == []


@pytest.mark.parametrize("preset", ["fig3", "fig4"])
def test_preset_plans_its_grid_once(monkeypatch, preset):
    """fig3's two scans and fig4's three transforms (ey1, jcm_ey, sy1,
    jcm_sy, harmonic_sy: the scan's atom, the baseline at g = 0 and the
    harmonic reference) share one 2500-time grid, which a fresh process
    plans once: one _mode_tables call, where a plan per call site made
    2 and 3."""
    calls = []
    mode_tables = transform._mode_tables
    monkeypatch.setattr(transform, "_mode_tables", lambda *a: calls.append(a) or mode_tables(*a))
    monkeypatch.setattr(transform, "_last_plan", None)
    run_preset(preset)
    assert calls == [(2500, 15000)]


def test_one_wrap_of_trig_sum_sees_every_sum(monkeypatch):
    """Every sum in the package goes through transform.trig_sum as a module
    attribute: one counting wrapper sees the scan's 5 calls (2 for the
    atoms, 2 for the jcm_* baseline, 1 for harmonic_sy), and the scan's
    output is what it is unwrapped."""
    cfg = ScanConfig(params=ModelParams(alpha=5.0, g=0.5, l=2), t_max=25.0, steps=500,
                     channels=("inv1", "sy2", "jcm_sz", "harmonic_sy"))
    expected = run_scan(cfg)
    calls = []
    real = transform.trig_sum
    monkeypatch.setattr(transform, "trig_sum", lambda *a, **k: calls.append(a) or real(*a, **k))
    got = run_scan(cfg)
    assert len(calls) == 5
    assert np.array_equal(got.grid, expected.grid)
    assert got.channels.keys() == expected.channels.keys()
    for name, values in expected.channels.items():
        assert np.array_equal(got.channels[name], values), name


@pytest.mark.parametrize("steps", [1, 2, 500, 2500, 20001])
def test_mode_tables_match_cosine_sums(steps):
    """The table product gives 1 / (2 phi) within 1e-15 (relative) of the
    Gauss-Legendre sums of phi taken one cosine at a time, and the
    twiddles are cos and sin 2 pi k / n_fine within 2.5e-16."""
    n_fine = max(6 * steps, 256)
    got = transform._mode_tables(steps, n_fine)
    assert got.shape == (4, steps)
    theta = np.arange(steps, dtype=LD) * TWO_PI / n_fine
    assert np.max(np.abs(got[:2] - [np.cos(theta), np.sin(theta)])) <= 2.5e-16
    for width, inv in zip((transform._ES_WIDTH, transform._CORRECTION_WIDTH), got[2:]):
        beta = transform._ES_BETA_PER_POINT * width
        nodes = transform._GL_Z * (width * np.pi / n_fine)
        weights = (transform._GL_W * np.exp(-2.0 * beta * transform._GL_HALF_SQ))[:, None]
        ft = (weights * np.cos(np.multiply.outer(nodes, np.arange(steps)))).sum(axis=0)
        assert np.max(np.abs(inv * 2.0 * width * ft - 1.0)) <= 1e-15


def test_trig_sum_bitwise_independent_of_block_size(monkeypatch):
    """The kernel table is filled, and the terms spread, _SPREAD_BLOCK
    kernel points at a time: the same operations in the same order at any
    size.  One kernel row per block, and one block for the whole table,
    give the default's sums bit for bit, on grids of 2, 3 and 700 times,
    forward and backward."""
    freqs, coefs = random_sum(8, 300, 0.0, 400.0)
    rows = np.stack([coefs, -coefs[::-1], np.abs(coefs)])
    cases = [(rows, np.linspace(0.0, 25.0, 700), True), (coefs, np.linspace(0.0, -25.0, 700), False),
             (coefs, np.linspace(0.0, 1.0, 2), False), (rows, np.linspace(0.0, -3.0, 3), True)]
    default = [trig_sum(freqs, c, times, sine) for c, times, sine in cases]
    for block in (1, 1000, 10**9, transform._SPREAD_BLOCK):
        monkeypatch.setattr(transform, "_SPREAD_BLOCK", block)
        for (c, times, sine), expected in zip(cases, default):
            assert np.array_equal(trig_sum(freqs, c, times, sine), expected)


def test_trig_sum_on_an_empty_grid():
    freqs, coefs = random_sum(7, 5, 0.0, 5.0)
    assert trig_sum(freqs, coefs, []).shape == (0,)
    assert trig_sum(freqs, np.stack([coefs, coefs]), np.zeros(0), sine=True).shape == (2, 0)


def test_trig_sum_refuses_times_off_a_uniform_grid():
    freqs, coefs = random_sum(2, 4, 0.0, 5.0)
    grid = np.linspace(0.0, 25.0, 100)
    grid[40] += 1e-12
    for times in (grid, [0.0, 1.0, 3.0]):
        with pytest.raises(InvalidParameterError, match="uniform grid"):
            trig_sum(freqs, coefs, times)
        with pytest.raises(InvalidParameterError, match="uniform grid"):
            grid_plan(times)
    # a uniform grid scaled (g T) keeps within the rounding bound
    assert worst(freqs, coefs, 0.37 * np.linspace(0.0, 25.0, 100)) <= TOL


def test_every_entry_point_refuses_grids_not_from_zero():
    """trig_sum, grid_plan, reduced_states (at g = 0.5 and at g = 0, the
    one-atom baseline) and tjcm_harmonic_sy evaluate uniform grids from
    T = 0 only: a grid from 0.5 and the single time 3.7 are refused with
    that message, times off a uniform grid are still reported as such, and
    [0], the time 0, an empty grid and a backward grid from 0 evaluate."""
    freqs, coefs = random_sum(5, 4, 0.0, 5.0)
    w = coherent_weights(2.0)
    for entry in (lambda t: trig_sum(freqs, coefs, t), grid_plan,
                  lambda t: reduced_states(w, 1, 0.5, t, AtomId),
                  lambda t: reduced_states(w, 1, 0.0, t, AtomId),
                  lambda t: tjcm_harmonic_sy(w, t)):
        for times in ([0.5, 1.0], [3.7], 3.7):
            with pytest.raises(InvalidParameterError, match="uniform grid from T = 0"):
                entry(times)
        for times in ([0.5, 1.3, 6.6], [0.0, 1.0, 3.0]):
            with pytest.raises(InvalidParameterError, match="uniform grid: they stray"):
                entry(times)
        for times in ([0.0], 0.0, [], np.linspace(0.0, -5.0, 11)):
            entry(times)


def test_positions_reduced_by_long_double_two_pi():
    """Between 1 and 2 turns of phase per step over 5000 steps: a float64
    2 pi (2.4e-16 off) would shift step j's phase by j * 2.4e-16 per turn,
    about 1e-12 at the end."""
    h = 25.0 / 4999
    freqs, coefs = random_sum(3, 48, 2.0 * np.pi / h, 4.0 * np.pi / h)
    assert worst(freqs, coefs, np.linspace(0.0, 25.0, 5000)) <= TOL


def test_kernel_offsets_from_long_double_positions():
    """20000 steps, so positions reach 120000 fine-grid points: a float64
    position there is off by up to 7.3e-12 points, which modes near 20000
    turn into phase errors near 8e-12."""
    freqs, coefs = random_sum(4, 48, 0.0, 1200.0)
    assert worst(freqs, coefs, np.linspace(0.0, 25.0, 20000)) <= TOL


def test_linspace_rounding_corrected_to_first_order():
    """np.linspace(0, 25, 2500) rounds its times by up to 2.7e-15 off
    T_0 + j h; at frequencies near 4000 that is 1e-11 rad, which only the
    correction (with its sign: d/dT (cos, sin) wT = w (-sin, cos) wT)
    takes out, in cosine rows and in sine rows."""
    times = np.linspace(0.0, 25.0, 2500)
    h = np.longdouble(25.0) / 2499
    assert np.max(np.abs(times - np.arange(2500) * h)) > 1e-15
    freqs, coefs = random_sum(6, 48, 3000.0, 4000.0)
    assert worst(freqs, coefs, times) <= TOL
