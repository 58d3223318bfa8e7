"""Scans, presets, CSV round trips, and verification runs."""

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import tjcm.blocks
from tjcm import (
    AtomId,
    InvalidParameterError,
    ModelParams,
    ResourceRefusalError,
    ScanConfig,
    TimeSeries,
    UsageError,
    coherent_weights,
    eigen_table,
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
    states = reduced_states(w, eigen_table(w.n_max, 1, 0.5), ts.grid, 1, AtomId)
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


def test_scan_channel_order_preserved():
    cfg = small_cfg(channels=("ey2", "inv1", "jcm_sz"))
    ts = run_scan(cfg)
    assert list(ts.channels) == ["ey2", "inv1", "jcm_sz"]


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
    for atom, state in reduced_states(w, eigen_table(w.n_max, l, g), ts.grid, l,
                                      AtomId).items():
        assert np.max(np.abs(state.p_plus + state.p_minus - 1.0)) <= 1e-12
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


def test_scan_channels_independent_of_worker_count(monkeypatch):
    """Every channel, analytic and reference, is bitwise the same on one
    worker, on every available core and on more workers than cores."""
    cfg = ScanConfig(params=ModelParams(alpha=19.6, g=1.3, l=2), t_max=25.0,
                     steps=500, channels=CHANNEL_NAMES)
    every_core = run_scan(cfg)
    for workers in (1, 3):
        monkeypatch.setattr(tjcm.blocks, "_WORKERS", workers)
        ts = run_scan(cfg)
        for name in CHANNEL_NAMES:
            assert np.array_equal(ts.channels[name], every_core.channels[name]), (workers, name)


def test_scan_memory_does_not_grow_with_steps():
    """Ten times the steps add at most the output arrays (grid and
    channels) to the traced peak, plus a fixed slack: no working array
    spans the grid times the photon index."""
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
    outputs = (20000 - 2000) * (len(channels) + 1) * 8
    assert peak(20000) - peak(2000) <= outputs + 2**20


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
    header = path.read_text(encoding="utf-8").splitlines()[0]
    assert header.split(",")[0] == "T"


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


def test_verify_resource_refusal():
    with pytest.raises(ResourceRefusalError) as err:
        run_verify(small_cfg(), 10, max_oracle_dim=16)
    assert "alpha" in str(err.value)


def test_verify_deterministic_times():
    a = run_verify(small_cfg(), 12)
    b = run_verify(small_cfg(), 12)
    assert np.array_equal(a.times, b.times)
    assert a.max_state_dev == b.max_state_dev


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
