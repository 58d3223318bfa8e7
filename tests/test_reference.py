"""The output contract: the four figure presets and the benchmark's 24
default-seed sweep ops reproduce the committed reference tables in
``benchmarks/reference`` to 1e-12, the tolerance of the benchmark's
reference gate.  The tables were parsed from the CSVs that ``tjcm preset``
and the sweep wrote (17 significant digits, so they hold the exact
doubles); this module only reads them.  On the same inputs, the T = 0 row
is exactly the pure initial state's.
"""

from pathlib import Path

import numpy as np
import pytest

from tjcm import ModelParams, ScanConfig, run_preset, run_scan
from tjcm.scan import ATOM_CHANNELS

REFERENCE_DIR = Path(__file__).resolve().parents[1] / "benchmarks" / "reference"
REFERENCE_TOL = 1e-12
# the grid of every sweep op
SWEEP_T_MAX = 25.0
SWEEP_STEPS = 500


def load_reference(name):
    with np.load(REFERENCE_DIR / f"{name}.npz") as z:
        return {k: z[k] for k in z.files}


def table(series):
    """The series as the CSV lays it out: header, then (T, channels...)."""
    return ["T", *series.channels], np.column_stack([series.grid, *series.channels.values()])


@pytest.mark.parametrize("name", ["fig1", "fig2", "fig3", "fig4"])
def test_preset_matches_reference(name):
    ref = load_reference("presets")
    header, data = table(run_preset(name))
    assert header == list(ref[f"{name}_header"])
    assert data.shape == ref[name].shape
    dev = float(np.max(np.abs(data - ref[name])))
    assert dev <= REFERENCE_TOL, f"{name}: max deviation {dev:.3e}"


def test_sweep_matches_reference():
    ref = load_reference("sweep")
    channels = tuple(str(c) for c in ref["header"][1:])
    assert len(ref["params"]) == 24
    devs = []
    for (alpha, g, l), want in zip(ref["params"], ref["data"]):
        cfg = ScanConfig(params=ModelParams(alpha=float(alpha), g=float(g), l=int(l)),
                         t_max=SWEEP_T_MAX, steps=SWEEP_STEPS, channels=channels)
        header, data = table(run_scan(cfg))
        assert header == list(ref["header"])
        assert data.shape == want.shape
        devs.append(float(np.max(np.abs(data - want))))
    worst = int(np.argmax(devs))
    assert devs[worst] <= REFERENCE_TOL, (
        f"op {worst} {ref['params'][worst].tolist()}: max deviation {devs[worst]:.3e}"
    )


def test_t_zero_row_is_the_pure_state():
    """Both atoms start in |+>, a pure state of inversion 1 and coherence 0,
    so at T = 0 every channel of the normalized state is exact: inv 1.0,
    the jcm baseline's jcm_sz 1.0 and every other channel 0.0, although the
    window mass, the trace, is rounded off 1.  On the 24 sweep ops and at
    alpha 20, g 2, l 2 over three steps, whose window mass is
    1 + 1.1e-15."""
    pure = {"inv": 1.0, "jcm_sz": 1.0}
    channels = (*(f"{kind}{atom}" for kind in ATOM_CHANNELS for atom in (1, 2)),
                "jcm_sz", "jcm_sy", "jcm_ey")
    cases = [((20.0, 2.0, 2), 3)] + [(p, SWEEP_STEPS) for p in load_reference("sweep")["params"]]
    for (alpha, g, l), steps in cases:
        cfg = ScanConfig(params=ModelParams(alpha=float(alpha), g=float(g), l=int(l)),
                         t_max=SWEEP_T_MAX, steps=steps, channels=channels)
        row = {name: float(v[0]) for name, v in run_scan(cfg).channels.items()}
        assert row == {name: pure.get(name.rstrip("12"), 0.0) for name in channels}, (alpha, g, l)
