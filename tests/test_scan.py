"""Scans, presets, CSV round trips, and verification runs."""

import io
import math
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from decimal import Decimal

import numpy as np
import pytest

import tjcm.observables
import tjcm.scan
from tjcm import (
    AtomId,
    InvalidParameterError,
    ModelParams,
    ResourceRefusalError,
    ScanConfig,
    TimeSeries,
    UsageError,
    coherent_weights,
    read_csv,
    reduced_states,
    run_preset,
    run_scan,
    run_verify,
    write_csv,
)
from tjcm.observables import bloch, entropy_squeezing, eur_residual, variance_squeezing, von_neumann
from tjcm.scan import ATOM_CHANNELS, CHANNEL_NAMES, PRESET_CONFIGS, validate_channels


def small_cfg(**kw):
    defaults = dict(
        params=ModelParams(alpha=1.5, g=0.5, l=1),
        t_max=4.0,
        steps=33,
        channels=("inv1", "inv2", "sy1", "ey1", "ey2", "ex1", "fy2", "gamma2", "eur1"),
    )
    defaults.update(kw)
    return ScanConfig(**defaults)


def test_channel_validation():
    assert validate_channels(("inv1", "jcm_ey")) == ("inv1", "jcm_ey")
    with pytest.raises(UsageError) as err:
        validate_channels(("inv1", "nope"))
    # the error names every valid channel
    for name in CHANNEL_NAMES:
        assert name in str(err.value)
    with pytest.raises(UsageError):
        validate_channels(())
    # a repeated name would collapse into one CSV column
    with pytest.raises(UsageError, match="more than once: inv1"):
        validate_channels(("inv1", "ey2", "inv1"))


def test_config_validation():
    with pytest.raises(InvalidParameterError):
        small_cfg(t_max=0.0)
    with pytest.raises(InvalidParameterError):
        small_cfg(steps=1)


def test_config_refuses_a_subnormal_step():
    """A step t_max / (steps - 1) below the smallest normal double would
    leave np.linspace not strictly increasing; it is refused before any
    work, and a normal step still scans."""
    with pytest.raises(InvalidParameterError, match="below the smallest normal double"):
        small_cfg(t_max=5e-324, steps=3)
    assert run_scan(small_cfg(t_max=1e-300, steps=5)).grid.size == 5


def test_scan_initial_values():
    ts = run_scan(small_cfg())
    assert ts.grid[0] == 0.0
    assert ts.grid[-1] == 4.0
    assert ts.channels["inv1"][0] == pytest.approx(1.0, abs=1e-9)
    assert ts.channels["inv2"][0] == pytest.approx(1.0, abs=1e-9)
    assert ts.channels["ey1"][0] == pytest.approx(0.0, abs=1e-9)
    assert ts.channels["gamma2"][0] == pytest.approx(0.0, abs=1e-9)


def test_scan_matches_pointwise_pipeline():
    """Every channel is an observable of the reduced_states output."""
    cfg = small_cfg()
    ts = run_scan(cfg)
    w = coherent_weights(1.5)
    states = reduced_states(w, 1, 0.5, ts.grid, AtomId)
    b1, b2 = bloch(states[AtomId.FIRST]), bloch(states[AtomId.SECOND])
    expected = {
        "inv1": b1.sz,
        "inv2": b2.sz,
        "sy1": b1.sy,
        "ey1": entropy_squeezing(b1, "y"),
        "ey2": entropy_squeezing(b2, "y"),
        "ex1": entropy_squeezing(b1, "x"),
        "fy2": variance_squeezing(b2, "y"),
        "gamma2": von_neumann(b2),
        "eur1": eur_residual(b1),
    }
    assert list(expected) == list(cfg.channels)
    for name, values in expected.items():
        assert np.array_equal(ts.channels[name], values), name


def test_scan_forms_each_entropy_once_per_atom(monkeypatch):
    """A scan of all 14 per-atom channels takes H(sy) and H(sz) once per
    atom, which ey, ex and eur share, and von_neumann its own: six
    grid-length entropies where each channel alone would take twelve."""
    real, sizes = tjcm.observables.binary_entropy_of_mean, []
    monkeypatch.setattr(tjcm.observables, "binary_entropy_of_mean",
                        lambda m: sizes.append(np.size(m)) or real(m))
    run_scan(small_cfg(channels=CHANNEL_NAMES[:14]))
    assert sorted(sizes) == [1, 1] + [small_cfg().steps] * 6


def test_scan_channel_order_preserved():
    cfg = small_cfg(channels=("ey2", "inv1", "jcm_sz"))
    ts = run_scan(cfg)
    assert list(ts.channels) == ["ey2", "inv1", "jcm_sz"]


def test_jcm_baseline_ignores_the_scans_l_and_g():
    """The jcm_* channels are the one-photon one-atom baseline whatever the
    scan's l and g: l = 2, g = 0.5 gives them bitwise as l = 1, g = 1 at
    the same alpha and grid."""
    channels = ("jcm_sz", "jcm_sy", "jcm_ey")
    a = run_scan(small_cfg(params=ModelParams(alpha=3.0, g=0.5, l=2), channels=channels))
    b = run_scan(small_cfg(params=ModelParams(alpha=3.0, g=1.0, l=1), channels=channels))
    for name in channels:
        assert np.array_equal(a.channels[name], b.channels[name]), name


def test_scan_deterministic():
    a = run_scan(small_cfg())
    b = run_scan(small_cfg())
    assert np.array_equal(a.grid, b.grid)
    for name in a.channels:
        assert np.array_equal(a.channels[name], b.channels[name])


@pytest.mark.parametrize("alpha, g, l", [(5.0, 1e4, 1), (5.0, 1e3, 2), (10.0, 1.0, 5)])
def test_strong_coupling_and_many_photons_give_physical_output(alpha, g, l):
    # strong coupling and l = 5: phase conditioning 5.5e-10, 5.5e-10 and
    # 8.5e-9 over t_max 25, inside the 1e-8 bound
    channels = tuple(f"{kind}{atom}" for kind in ATOM_CHANNELS for atom in (1, 2))
    cfg = ScanConfig(params=ModelParams(alpha=alpha, g=g, l=l), t_max=25.0,
                     steps=200, channels=channels)
    ts = run_scan(cfg)
    w = coherent_weights(alpha)
    for atom, state in reduced_states(w, l, g, ts.grid, AtomId).items():
        assert abs(state.trace - 1.0) <= 1e-12
        assert np.max(bloch(state).norm()) <= 1.0 + 1e-12
        tag = str(atom.value)
        assert np.array_equal(ts.channels[f"inv{tag}"], bloch(state).sz)
        assert np.min(ts.channels[f"eur{tag}"]) >= -1e-12
        assert np.min(ts.channels[f"ex{tag}"]) >= 0.0


def test_phase_conditioning_refused_with_typed_error():
    # l = 8 at alpha 5 over t_max 25: max|w| * T * eps = 1.3e-6 > 1e-8
    cfg = ScanConfig(params=ModelParams(alpha=5.0, g=1.0, l=8), t_max=25.0,
                     steps=50, channels=("inv1", "ey2"))
    with pytest.raises(InvalidParameterError, match="phase conditioning"):
        run_scan(cfg)
    # negative control: the same parameters over t_max 0.1 (5.2e-9) run,
    # so the refusal bounds the conditioning, not the parameters
    ts = run_scan(replace(cfg, t_max=0.1))
    assert np.max(np.abs(ts.channels["inv1"])) <= 1.0 + 1e-12


def test_scan_memory_does_not_grow_with_steps():
    """Ten times the steps add to the traced peak at most the output arrays
    (grid and channels; inv and sy are the Bloch vectors themselves) and
    the working arrays of the one observable channel being evaluated (five
    grid-length temporaries, in entropy_squeezing, von_neumann and
    eur_residual), plus a fixed slack: no working array spans the grid
    times the photon index.  Both grids are long enough for grid-length
    arrays, not the fixed working set, to set the peak."""
    channels = tuple(f"{kind}{atom}" for kind in ATOM_CHANNELS for atom in (1, 2))

    def peak(steps):
        cfg = ScanConfig(params=ModelParams(alpha=5.0, g=0.5, l=1), t_max=25.0,
                         steps=steps, channels=channels)
        tracemalloc.start()
        try:
            run_scan(cfg)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(2000)  # first-call costs
    grid_arrays = (200000 - 20000) * (len(channels) + 1 + 5) * 8
    assert peak(200000) - peak(20000) <= grid_arrays + 2**20


def test_scan_refuses_output_beyond_physical_memory():
    with pytest.raises(ResourceRefusalError, match="physical memory"):
        run_scan(small_cfg(steps=10**12))
    with pytest.raises(ResourceRefusalError, match="physical memory"):
        run_verify(small_cfg(steps=10**12), 10)


def test_presets_frozen():
    assert PRESET_CONFIGS["fig1"].params == ModelParams(alpha=5.0, g=0.5, l=1)
    assert PRESET_CONFIGS["fig2"].params == ModelParams(alpha=5.0, g=0.5, l=2)
    assert PRESET_CONFIGS["fig4"].params == ModelParams(alpha=5.0, g=1.0, l=1)
    for cfg in PRESET_CONFIGS.values():
        assert cfg.t_max == 25.0 and cfg.steps == 2500
    assert PRESET_CONFIGS["fig1"].channels[:4] == ("inv1", "inv2", "ey1", "ey2")


def test_preset_fig3_merges_both_transition_parameters():
    ts = run_preset("fig3", t_max=2.0, steps=9)
    assert list(ts.channels) == ["gamma2_l1", "gamma2_l2"]
    ref_l1 = run_scan(
        ScanConfig(params=ModelParams(alpha=5.0, g=0.5, l=1), t_max=2.0,
                   steps=9, channels=("gamma2",))
    )
    ref_l2 = run_scan(
        ScanConfig(params=ModelParams(alpha=5.0, g=0.5, l=2), t_max=2.0,
                   steps=9, channels=("gamma2",))
    )
    assert np.array_equal(ts.channels["gamma2_l1"], ref_l1.channels["gamma2"])
    assert np.array_equal(ts.channels["gamma2_l2"], ref_l2.channels["gamma2"])


def test_unknown_preset():
    with pytest.raises(UsageError):
        run_preset("fig9")


def test_csv_round_trip_bit_exact(tmp_path):
    ts = run_scan(small_cfg())
    path = tmp_path / "scan.csv"
    write_csv(ts, str(path))
    back = read_csv(str(path))
    assert np.array_equal(back.grid, ts.grid)
    assert list(back.channels) == list(ts.channels)
    for name in ts.channels:
        assert np.array_equal(back.channels[name], ts.channels[name])
    # identical config -> identical bytes
    path2 = tmp_path / "scan2.csv"
    write_csv(run_scan(small_cfg()), str(path2))
    assert path.read_bytes() == path2.read_bytes()
    # a path takes the bytes as they are, a text stream decoded
    text = io.StringIO()
    write_csv(ts, text)
    assert path.read_bytes() == text.getvalue().encode("ascii")
    header = path.read_text(encoding="utf-8").splitlines()[0]
    assert header.split(",")[0] == "T"


def test_numpy_scalar_parameters_give_the_same_bytes():
    """alpha, g, l and cutoff_eps as numpy scalars (an integer and a float32
    alpha, a float32 g) write the bytes of the same Python numbers, and
    reduced_states takes a numpy g as its float."""

    def csv(params):
        write_csv(run_scan(small_cfg(params=params, channels=CHANNEL_NAMES)), text := io.StringIO())
        return text.getvalue()

    want = csv(ModelParams(alpha=5.0, g=0.5, l=1))
    for params in (ModelParams(np.int64(5), 0.5, 1), ModelParams(np.float32(5.0), 0.5, 1),
                   ModelParams(5.0, np.float32(0.5), np.int64(1), np.float64(1e-12))):
        assert {type(v) for v in (params.alpha, params.g, params.cutoff_eps)} == {float}
        assert csv(params) == want
    assert np.array_equal(coherent_weights(np.int64(3)).c, coherent_weights(3.0).c)
    w, grid = coherent_weights(5.0), np.linspace(0.0, 4.0, 33)
    want = reduced_states(w, 1, 0.5, grid, AtomId)
    for atom, state in reduced_states(w, 1, np.float32(0.5), grid, AtomId).items():
        assert np.array_equal(state.sz, want[atom].sz) and np.array_equal(state.sy, want[atom].sy)


def per_value_csv(series):
    """The CSV as formatted one value at a time with f"{v:.17g}": the
    definition of write_csv's bytes."""
    names = list(series.channels)
    cols = [series.grid] + [series.channels[n] for n in names]
    lines = [",".join(["T"] + names)]
    lines += [",".join(f"{v:.17g}" for v in row) for row in zip(*cols)]
    return "".join(line + "\n" for line in lines)


def exact_ties(rng, per_exponent=20):
    """Doubles (2k+1) 2**-n whose exact decimal expansion has 18
    significant digits, the last a 5: ties at 17 digits, for every
    exponent from 15 down to -8."""
    values = []
    for n in range(2, 26):
        lo, hi = -(-10 ** 17 * 2**n // 10**n), min(2**53, 10 ** 18 * 2**n // 10**n)
        odd = rng.integers(lo // 2, (hi - 1) // 2, per_exponent) * 2 + 1
        values += [math.ldexp(int(m), -n) for m in odd]
    for v in values:
        digits = Decimal(v).as_tuple().digits
        assert len(digits) == 18 and digits[-1] == 5
    return np.array(values)


def remainder_ties(rng, size=20000):
    """Doubles v of the fast range, 1e-11 <= |v| < 1e16, whose exact
    v * 10**(16 - floor(log10 |v|)) lies within 1/64 of a half-integer:
    17-digit near-ties, in exact decimal arithmetic, with both signs."""
    v = rng.standard_normal(size) * 10.0 ** rng.integers(-11, 16, size)
    v = v[(np.abs(v) >= 1e-11) & (np.abs(v) < 1e16)]
    picked = []
    for w in v.tolist():
        exact = abs(Decimal(w))
        scaled = exact.scaleb(16 - exact.adjusted())
        if abs(scaled - scaled.to_integral_value(rounding="ROUND_FLOOR") - Decimal("0.5")) < Decimal(1) / 64:
            picked.append(w)
    return np.array(picked)


def fallback_texts(monkeypatch):
    """The list that collects every text write_csv formats with
    f"{v:.17g}" itself, from now on."""
    formatted = []
    real = tjcm.scan._byte_rows
    monkeypatch.setattr(tjcm.scan, "_byte_rows",
                        lambda texts, width: real(formatted.extend(texts) or texts, width))
    return formatted


def test_csv_near_ties_take_the_fast_digits(monkeypatch):
    """17-digit near-ties and exact ties are rounded from the exact bits
    the integer digits shift out: none of them takes f"{v:.17g}", and the
    bytes are its bytes."""
    rng = np.random.default_rng(12)
    values = np.concatenate([remainder_ties(rng), exact_ties(rng)])
    assert values.size > 500
    formatted = fallback_texts(monkeypatch)
    series = TimeSeries(grid=np.linspace(0.0, 25.0, values.size), channels={"v": values})
    out = io.StringIO()
    write_csv(series, out)
    assert out.getvalue() == per_value_csv(series)
    assert formatted == []


@pytest.mark.parametrize("long_double", [True, False])
def test_csv_zeros_take_no_fallback(monkeypatch, long_double):
    """0.0 and -0.0 are laid out in numpy as "0" and "-0", also with
    numpy's long double replaced by float64 while the CSV is written, as
    on platforms whose long double is a double; in the first rows of a
    sweep-sized scan (T = 0 and the values rounding leaves near it) only
    the values with 0 < |v| < 1e-11 take f"{v:.17g}"."""
    def csv_text(series):
        out = io.StringIO()
        with monkeypatch.context() as m:
            if not long_double:
                m.setattr(np, "longdouble", np.float64)
            write_csv(series, out)
        return out.getvalue()

    formatted = fallback_texts(monkeypatch)
    zeros = np.resize([0.0, -0.0, -0.0], 40)
    series = TimeSeries(grid=np.linspace(0.0, 1.0, 40), channels={"a": zeros, "b": -zeros})
    text = csv_text(series)
    assert text == per_value_csv(series)
    assert "-0," in text
    assert formatted == []
    ts = run_scan(ScanConfig(params=ModelParams(alpha=5.0, g=0.5, l=1), t_max=25.0, steps=500,
                             channels=CHANNEL_NAMES[:14]))
    first = TimeSeries(grid=ts.grid[:3], channels={n: c[:3] for n, c in ts.channels.items()})
    values = np.stack([first.grid, *first.channels.values()], axis=1).ravel()
    assert np.count_nonzero(values == 0.0) >= 2
    formatted.clear()
    assert csv_text(first) == per_value_csv(first)
    assert formatted == [f"{v:.17g}" for v in values.tolist() if 0.0 < abs(v) < 1e-11]


def group_boundaries(rng):
    """Doubles near d 10**e for 17-digit d on the boundaries of the digit
    groups (lead digit and four groups of four): 10**16 and 10**17 - 1,
    and d ending in 4, 8, 12 or 16 zeros or nines, over exponents that
    put d 10**e on both sides of the fast range."""
    digits = [10**16, 10**17 - 1]
    for d in rng.integers(10**16, 10**17 - 10**16, 8).tolist():
        for split in (10**4, 10**8, 10**12, 10**16):
            digits += [d // split * split, d // split * split + split - 1]
    values = [float(f"{d}e{e}") for d in digits for e in range(-30, 2, 3)]
    return np.array(values + [-v for v in values])


SPECIAL = [-0.0, 0.0, 5e-324, -5e-324, 2.225073858507201e-308, 1e-310, math.inf, -math.inf,
           math.nan, -math.nan, 1.8e308, -1.8e308, np.finfo(float).max, -np.finfo(float).max, 0.1,
           1.0 / 3.0, 1e16, 123456789012345678.0]


def edge_values(rng):
    """The special values, the neighbours of every power of ten and of the
    fast range's edges, exact and near 18-digit ties, 17-digit near-ties
    and the boundaries of the digit groups."""
    powers = np.concatenate([10.0 ** np.arange(-13, 18), [1e-11, 1e16]])
    neighbours = np.concatenate([powers, np.nextafter(powers, 0), np.nextafter(powers, np.inf)])
    near_ties = np.array([float(f"{d}5e{e}") for d, e in zip(
        rng.integers(10**16, 10**17, 600).tolist(), rng.integers(-28, 18, 600).tolist())])
    return np.concatenate([SPECIAL, neighbours, exact_ties(rng), near_ties, remainder_ties(rng),
                           group_boundaries(rng)])


def test_csv_bytes_equal_per_value_formatting(monkeypatch):
    """write_csv's numpy digits give the bytes of per-value formatting on
    random doubles of every exponent and on the edge values, for any block
    size."""
    rng = np.random.default_rng(7)
    edge = edge_values(rng)
    steps = edge.size
    bits = rng.integers(0, 2**64, size=(4, steps), dtype=np.uint64).view(float)
    channels = {f"c{k}": bits[k] for k in range(4)}
    channels["special"] = np.resize(np.array(SPECIAL), steps)
    channels["normal"] = rng.standard_normal(steps) * 10.0 ** rng.integers(-300, 300, steps)
    channels["decades"] = rng.standard_normal(steps) * 10.0 ** rng.integers(-20, 20, steps)
    channels["edge"] = edge
    channels["-edge"] = -edge
    series = TimeSeries(grid=np.linspace(0.0, 25.0, steps), channels=channels)
    expected = per_value_csv(series)
    for values in (tjcm.scan._CSV_VALUES, 20, 7, 1):
        monkeypatch.setattr(tjcm.scan, "_CSV_VALUES", values)
        out = io.StringIO()
        write_csv(series, out)
        assert out.getvalue() == expected


FLOAT64_LONG_DOUBLE = """
import sys
import numpy

numpy.longdouble = numpy.float64
import tjcm.scan

formatted = []
real = tjcm.scan._byte_rows
tjcm.scan._byte_rows = lambda texts, width: real(formatted.extend(texts) or texts, width)
edge = numpy.load(sys.argv[1])
series = tjcm.scan.TimeSeries(grid=numpy.linspace(0.0, 25.0, edge.size),
                              channels={"edge": edge, "-edge": -edge})
tjcm.scan.write_csv(series, sys.argv[2])
print("\\n".join(formatted))
"""


def test_csv_digits_need_no_long_double(tmp_path):
    """With numpy's long double replaced by float64 before tjcm is
    imported, as on platforms whose long double is a double, write_csv
    still gives the bytes of per-value formatting on the edge values, and
    of the values with 1e-11 <= |v| < 1e16 only neighbours of a power of
    ten, where floor(log10 |v|) can miss the exponent, take f"{v:.17g}"."""
    edge = edge_values(np.random.default_rng(7))
    npy, out = tmp_path / "edge.npy", tmp_path / "edge.csv"
    np.save(npy, edge)
    proc = subprocess.run([sys.executable, "-c", FLOAT64_LONG_DOUBLE, str(npy), str(out)],
                          capture_output=True, text=True, timeout=120, check=True)
    series = TimeSeries(grid=np.linspace(0.0, 25.0, edge.size), channels={"edge": edge, "-edge": -edge})
    assert out.read_text(encoding="ascii") == per_value_csv(series)
    fallen = [abs(float(text)) for text in proc.stdout.split()]
    assert fallen
    for w in fallen:
        if 1e-11 <= w < 1e16:
            assert abs(w / 10.0 ** round(math.log10(w)) - 1) < 1e-15, w


def test_csv_word_tables_are_their_byte_tables():
    """Each word table the CSV layout gathers from is a view of its byte
    table: the same bytes in the same order, whatever the byte order."""
    scan = tjcm.scan
    for words, table in ((scan._HEAD_WORDS, scan._HEAD), (scan._TAIL_WORDS, scan._TAIL),
                         (scan._QUAD_WORDS, scan._QUAD), (scan._MASK_WORDS, scan._MASK)):
        assert np.shares_memory(words, table)
        assert words.size * words.itemsize == table.size
        assert words.tobytes() == table.tobytes()
    assert scan._QUAD[1200].tobytes() == b"1200" and scan._TRAILING[1200] == 2
    assert (scan._QUAD_WORDS[1200] & scan._MASK_WORDS[2]).tobytes() == b"12\0\0"
    assert [f"{n:04d}" for n in range(10000)] == [q.tobytes().decode() for q in scan._QUAD]
    assert [len(f"{n:04d}") - len(f"{n:04d}".rstrip("0")) for n in range(10000)] == scan._TRAILING.tolist()


def test_csv_bytes_survive_misestimated_exponents(monkeypatch):
    """An exponent estimate floor(log10 |v|) that is one too high or one
    too low puts the integer digits out of their 17-digit range, so the
    value takes the exact fallback and keeps its bytes."""
    rng = np.random.default_rng(11)
    values = rng.standard_normal(500) * 10.0 ** rng.integers(-12, 17, 500)
    series = TimeSeries(grid=np.linspace(0.0, 1.0, 500), channels={"v": values})
    expected = per_value_csv(series)
    log10 = np.log10
    for shift in (1.0, -1.0):
        monkeypatch.setattr(np, "log10", lambda a, shift=shift: log10(a) + shift)
        out = io.StringIO()
        write_csv(series, out)
        assert out.getvalue() == expected


def test_write_csv_memory_does_not_grow_with_steps(tmp_path):
    """write_csv's working memory is a fixed number of blocks: ten times
    the steps add less than 1 MiB to its traced peak (stacking the whole
    table adds about 20 MiB)."""
    def peak(steps):
        grid = np.linspace(0.0, 25.0, steps)
        channels = {name: np.sin((k + 1) * grid) for k, name in enumerate(CHANNEL_NAMES[:14])}
        series = TimeSeries(grid=grid, channels=channels)
        tracemalloc.start()
        try:
            write_csv(series, str(tmp_path / "series.csv"))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(2000)  # first-call costs
    assert peak(200000) - peak(20000) < 2**20


def test_csv_rejects_foreign_file(tmp_path):
    p = tmp_path / "x.csv"
    p.write_text("a,b\n1,2\n")
    with pytest.raises(UsageError):
        read_csv(str(p))
    p.write_text("T,inv1\n0,1\n1,0.5,7\n")
    with pytest.raises(UsageError, match="ragged CSV"):
        read_csv(str(p))
    p.write_text("T,inv1\n")
    with pytest.raises(UsageError, match="no data rows"):
        read_csv(str(p))
    p.write_text("T,inv1\n0,1\n1,abc\n")
    with pytest.raises(UsageError, match="non-numeric cell"):
        read_csv(str(p))
    p.write_text("T,a,a\n0,1,2\n")
    with pytest.raises(UsageError, match="more than once: a"):
        read_csv(str(p))


@pytest.mark.parametrize("times", ["0,nan,2", "0,inf", "nan"])
def test_csv_refuses_a_time_column_not_finite(tmp_path, times):
    """A T column holding NaN or inf is refused like a decreasing one: a
    NaN difference compares false both ways, so <= 0 alone let it through."""
    p = tmp_path / "x.csv"
    p.write_text("T,inv1\n" + "".join(f"{t},1\n" for t in times.split(",")))
    with pytest.raises(InvalidParameterError, match="finite and strictly increasing"):
        read_csv(str(p))


def test_time_series_shape_guard():
    with pytest.raises(InvalidParameterError):
        TimeSeries(grid=np.zeros(4), channels={"inv1": np.zeros(3)})


def test_verify_passes_small_config():
    report = run_verify(small_cfg(), 10)
    assert report.passed
    assert report.max_state_dev < 1e-8
    assert report.max_eur_violation <= 1e-10
    assert report.norm_drift < 1e-7
    assert "PASS" in report.summary()


def test_verify_vacuum_field_trivially_periodic():
    cfg = small_cfg(params=ModelParams(alpha=0.0, g=1.0, l=1))
    report = run_verify(cfg, 10)
    assert report.passed


def test_verify_detects_injected_fault():
    report = run_verify(small_cfg(), 10, inject_fault=True)
    assert not report.passed
    assert report.max_state_dev > 1e-8
    assert "FAIL" in report.summary()


def test_verify_sample_count_guard():
    with pytest.raises(UsageError):
        run_verify(small_cfg(), 9)
    with pytest.raises(UsageError, match="32 times after T = 0, fewer than the 40"):
        run_verify(small_cfg(), 40)


def test_verify_resource_refusal():
    with pytest.raises(ResourceRefusalError) as err:
        run_verify(small_cfg(), 10, max_oracle_dim=16)
    assert "alpha" in str(err.value)


def test_verify_samples_evenly_spaced():
    """The samples are the grid indices (j * 32) // 12 for j = 1..12: their
    gaps differ by at most one step, and the last is the last grid time."""
    cfg = small_cfg()
    report = run_verify(cfg, 12)
    samples = [2, 5, 8, 10, 13, 16, 18, 21, 24, 26, 29, 32]
    assert np.array_equal(report.times, cfg.grid()[samples])
    assert report.times[-1] == cfg.t_max
    every = run_verify(cfg, cfg.steps - 1)
    assert np.array_equal(every.times, cfg.grid()[1:]) and every.passed


def test_numpy_integers_are_normalized():
    """numpy integers are taken as the Python ints they equal; other
    non-integers are refused with the typed error naming the bound."""
    cfg = small_cfg(params=ModelParams(alpha=1.5, g=0.5, l=np.int64(1)),
                    steps=np.int64(33))
    assert type(cfg.params.l) is int and type(cfg.steps) is int
    assert cfg == small_cfg()
    assert run_verify(cfg, np.int32(10)).passed
    with pytest.raises(InvalidParameterError, match="l must be an integer >= 1, got 1.0"):
        ModelParams(alpha=1.5, g=0.5, l=1.0)
    with pytest.raises(InvalidParameterError, match="steps must be an integer >= 2"):
        small_cfg(steps=33.0)
    with pytest.raises(UsageError, match="sample_count must be an integer >= 10, got 10.5"):
        run_verify(cfg, 10.5)


def test_preset_fig1_second_atom_squeezing_profile(preset_series):
    """fig1 second-atom witness: deep early squeezing, then a slow climb
    to near-maximal mixing peaking around half the revival time pi*alpha."""
    ts = preset_series["fig1"]
    grid, ey2 = ts.grid, ts.channels["ey2"]
    early = (grid > 0.0) & (grid <= 3.0)
    assert float(ey2[early].min()) < -0.15
    t_peak = float(grid[int(np.argmax(ey2))])
    assert abs(t_peak - math.pi * 5.0) < 2.0
    # the peak value closes on the maximal-mixing bound 2 - sqrt(2)
    assert float(ey2.max()) == pytest.approx(2.0 - math.sqrt(2.0), abs=5e-4)
