"""Shared fixtures: full-channel preset scans and oracle cross-checks.

The expensive artifacts (2500-point scans, full product-space RK4
trajectories) are session-scoped so the unit tests and the acceptance
suite share one computation.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from tjcm import oracle
from tjcm.blocks import (
    amplitudes_into,
    check_norm,
    check_phase_conditioning,
    evolution_factors,
)
from tjcm.params import coherent_weights
from tjcm.reduced import AtomId, max_deviation, reduced_states
from tjcm.scan import PRESET_CONFIGS, run_scan

ALL_ATOM_CHANNELS = (
    "inv1", "inv2", "sy1", "sy2", "ey1", "ey2", "ex1", "ex2",
    "fy1", "fy2", "gamma1", "gamma2", "eur1", "eur2",
)

FULL_CHANNELS = {
    "fig1": ALL_ATOM_CHANNELS,
    "fig2": ALL_ATOM_CHANNELS,
    "fig4": ALL_ATOM_CHANNELS + ("jcm_sz", "jcm_sy", "jcm_ey", "harmonic_sy"),
}


def excitation_expectation(psi: np.ndarray, n_f: int, l: int) -> float:
    """Expectation of the conserved excitation number
    n + (l/2)(sz1 + sz2 + 2), i.e. the photon number plus l per excited
    atom, over the product basis (atom 1, atom 2, n) with + before -;
    constant along exact trajectories."""
    excited = np.array([2.0, 1.0, 1.0, 0.0])[:, None]
    return float(np.sum(np.abs(np.reshape(psi, (4, n_f + 1))) ** 2
                        * (np.arange(n_f + 1.0) + l * excited)))


def amplitudes(spectrum, ts) -> np.ndarray:
    """(x1, x2, x3, x4) of every block of ``spectrum`` at the times ts, shape
    (4, nT, N), through the kernel that reduced_states streams
    (evolution_factors + amplitudes_into) run on the whole grid at once,
    with the same phase-conditioning and norm checks."""
    ts = np.atleast_1d(np.asarray(ts, dtype=float))
    check_phase_conditioning(spectrum[0], ts)
    x, phase, trig = np.empty((3, 4, ts.size, spectrum[0].shape[0]))
    check_norm(amplitudes_into(evolution_factors(spectrum), ts, x, phase, trig))
    return x


def full_preset_config(name: str):
    """Preset parameters and grid, with every channel the criteria need."""
    return replace(PRESET_CONFIGS[name], channels=FULL_CHANNELS[name])


@pytest.fixture(scope="session")
def preset_series():
    """name -> TimeSeries for the three scan presets, full channel set."""
    return {name: run_scan(full_preset_config(name)) for name in FULL_CHANNELS}


@pytest.fixture(scope="session")
def oracle_cross():
    """Factory: preset name -> cross-path comparison at 100 sample times.

    Integrates and traces the full joint trajectory once per preset and
    compares the oracle's reduced states against the analytic pipeline
    entrywise, for both atoms (max_deviation).  Cached per preset.
    """
    cache: dict[str, dict] = {}

    def run(name: str, sample_count: int = 100) -> dict:
        if name in cache:
            return cache[name]
        cfg = PRESET_CONFIGS[name]
        p = cfg.params
        weights = coherent_weights(p.alpha, p.cutoff_eps)
        times = np.linspace(cfg.t_max / sample_count, cfg.t_max, sample_count)

        analytic = reduced_states(weights, p.l, p.g, times, AtomId)

        h = oracle.build_joint_hamiltonian(p.l, p.g, weights.n_max + 2 * p.l)
        psi0 = oracle.initial_state(weights, h)
        dt = oracle.suggest_dt(weights, h, float(times[-1]))
        traced = oracle.trace_trajectory(h, psi0, times, dt)
        cache[name] = {
            "max_dev": max(max_deviation(analytic[a], traced[a]) for a in AtomId),
            "dt": dt,
            "times": times,
        }
        return cache[name]

    return run
