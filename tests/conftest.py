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
from tjcm.blocks import eigen_table
from tjcm.params import coherent_weights
from tjcm.reduced import AtomId, reduced_states
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

    Integrates the full joint trajectory once per preset and compares the
    oracle's partial-trace reduced states against the analytic pipeline
    entrywise, for both atoms.  Cached per preset.
    """
    cache: dict[str, dict] = {}

    def run(name: str, sample_count: int = 100) -> dict:
        if name in cache:
            return cache[name]
        cfg = PRESET_CONFIGS[name]
        p = cfg.params
        weights = coherent_weights(p.alpha, p.cutoff_eps)
        times = np.linspace(cfg.t_max / sample_count, cfg.t_max, sample_count)

        blocks = eigen_table(weights.n_max, p.l, p.g)
        analytic = reduced_states(weights, blocks, times, p.l, AtomId)

        h = oracle.build_joint_hamiltonian(p.l, p.g, weights.n_max + 2 * p.l)
        psi0 = oracle.initial_state(weights, h)
        dt = oracle.suggest_dt(weights, h, float(times[-1]))
        exc0 = excitation_expectation(psi0, h.n_f, p.l)

        max_dev = 0.0
        max_norm_drift = 0.0
        max_exc_drift = 0.0
        for i, (_, psi) in enumerate(oracle.sample_states(h, psi0, times, dt)):
            max_norm_drift = max(
                max_norm_drift, abs(float(np.linalg.norm(psi)) - 1.0)
            )
            max_exc_drift = max(
                max_exc_drift,
                abs(excitation_expectation(psi, h.n_f, p.l) - exc0),
            )
            for atom in AtomId:
                ref = oracle.partial_trace_atom(psi, h.n_f, atom)
                state = analytic[atom]
                max_dev = max(
                    max_dev,
                    abs(float(state.p_plus[i]) - ref.p_plus),
                    abs(float(state.p_minus[i]) - ref.p_minus),
                    abs(complex(state.coh[i]) - ref.coh),
                )
        cache[name] = {
            "max_dev": max_dev,
            "norm_drift": max_norm_drift,
            "excitation_drift": max_exc_drift,
            "dt": dt,
            "times": times,
        }
        return cache[name]

    return run
