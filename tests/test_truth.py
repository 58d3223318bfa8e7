"""The analytic outputs against an extended-precision truth: the benchmark's
24 default-seed sweep ops and the four figure presets, every channel at
every time, against conftest.truth_channels, which sums every block from
n = 0 in long double with its own closed form and channel formulas, and
which is itself spot-checked against 30-digit mpmath (conftest.mp_block).
The 1e-12 output contract (test_reference.py) compares with tables the
float64 code wrote; these tests bound the distance to the truth itself."""

from pathlib import Path

import numpy as np
import pytest

import tjcm.reduced
from tjcm import AtomId, ModelParams, ScanConfig, run_preset, run_scan
from tjcm.scan import PRESET_CONFIGS

from conftest import (ALL_ATOM_CHANNELS, block_amplitudes, mp_block, truth_channels, truth_spectrum,
                      truth_states)

SWEEP_REFERENCE = Path(__file__).resolve().parents[1] / "benchmarks" / "reference" / "sweep.npz"
# the largest distance to the truth at any time, over the sweep and the
# presets, of the linear channels (inv, sy) and of the other ten; measured
# 2.61e-12 (sweep op 23) and 2.95e-12 (op 17); the presets' worst is
# 1.8e-13 and 2.2e-13 (fig2).  The Jacobi's eigenvalues set them: its
# sigma1 errs by up to 16 eps * sigma1, which T = 25 turns into phase.
LINEAR_TOL = 4e-12
NONLINEAR_TOL = 4.5e-12


def sweep_params():
    with np.load(SWEEP_REFERENCE) as z:
        return [(float(alpha), float(g), int(l)) for alpha, g, l in z["params"]]


def sweep_config(alpha, g, l):
    return ScanConfig(params=ModelParams(alpha=alpha, g=g, l=l), t_max=25.0, steps=500,
                      channels=ALL_ATOM_CHANNELS)


def distances(channels, truth):
    """(linear, nonlinear): the largest |channel - truth| over the channels
    that truth has a value for."""
    dev = {name: float(np.max(np.abs(v - truth[name].astype(float)), initial=0.0))
           for name, v in channels.items() if name in truth}
    linear = {name: d for name, d in dev.items() if name.rstrip("12") in ("inv", "sy")}
    nonlinear = [d for name, d in dev.items() if name not in linear]
    return max(linear.values(), default=0.0), max(nonlinear, default=0.0)


def assert_sweep_op_near_truth(k, alpha, g, l):
    cfg = sweep_config(alpha, g, l)
    series = run_scan(cfg)
    linear, nonlinear = distances(series.channels,
                                  truth_channels(cfg.params.weights, l, g, series.grid))
    assert linear <= LINEAR_TOL and nonlinear <= NONLINEAR_TOL, (k, linear, nonlinear)


def test_sweep_near_the_truth():
    params = sweep_params()
    assert len(params) == 24
    for k, p in enumerate(params):
        assert_sweep_op_near_truth(k, *p)


def test_truth_sees_sigma1_nudged_near_the_poisson_mode(monkeypatch):
    """Negative control: sigma1 of the block at the Poisson mode of sweep op
    23 raised by 3e-14 of itself (about 140 eps, which check_spectrum would
    refuse, so the spectrum is nudged after it) moves the op 1.6e-11
    (linear) and 2.3e-11 (nonlinear) from the truth, and the check fails."""
    alpha, g, l = sweep_params()[23]
    weights = sweep_config(alpha, g, l).params.weights
    block = int(np.argmax(weights.c)) - weights.window(l)[0]
    real = tjcm.reduced.block_spectrum

    def nudged(*args):
        w, *rest = real(*args)
        w[block, 3] *= 1 + np.longdouble(3e-14)
        w[block, 0] = -w[block, 3]
        return (w, *rest)

    monkeypatch.setattr(tjcm.reduced, "block_spectrum", nudged)
    with pytest.raises(AssertionError, match=r"\(23, "):
        assert_sweep_op_near_truth(23, alpha, g, l)


def test_presets_near_the_truth():
    """Every channel of the four presets but harmonic_sy (an approximation,
    not a state): jcm_* against the truth's atom 1 at g = 0, l = 1, and
    fig3's gamma2 columns against fig1's and fig2's."""
    truths = {}
    for name in ("fig1", "fig2", "fig4"):
        p = PRESET_CONFIGS[name].params
        series = run_preset(name)
        truths[name] = truth_channels(p.weights, p.l, p.g, series.grid)
        truth = dict(truths[name])
        if name == "fig4":
            jcm = truth_channels(p.weights, 1, 0.0, series.grid)
            truth.update({f"jcm_{kind}": jcm[f"{kind}1"] for kind in ("ey", "sy")})
        assert set(series.channels) - set(truth) <= {"harmonic_sy"}
        linear, nonlinear = distances(series.channels, truth)
        assert linear <= LINEAR_TOL and nonlinear <= NONLINEAR_TOL, (name, linear, nonlinear)
    series = run_preset("fig3")
    truth = {f"gamma2_{tag}": truths[base]["gamma2"]
             for tag, base in (("l1", "fig1"), ("l2", "fig2"))}
    assert set(series.channels) == set(truth)
    assert distances(series.channels, truth)[1] <= NONLINEAR_TOL


def mp_exact(v):
    """The long double v as an mpf, exactly: its float64 rounding plus the
    remainder, which a double holds."""
    mp = pytest.importorskip("mpmath").mp
    hi = float(v)
    return mp.mpf(hi) + mp.mpf(float(v - np.longdouble(hi)))


@pytest.mark.parametrize("op", [17, 23])
def test_truth_against_mpmath(op):
    """At sweep ops 17 and 23 (the farthest from the truth), at T = 0.05,
    12.5 and 25, on the blocks 0-2, the 41 around the Poisson mode and the
    last two: the amplitudes within 4e-15 of 30-digit mpmath.eigsy's
    (measured 1.2e-15: the phases sigma1 T reach 1e4, where a long double
    is spaced 9e-16), and the trace, sz and sy of a field on those blocks
    alone, weighted by their c_n, within 3e-16 (measured 9.2e-17)."""
    mp = pytest.importorskip("mpmath").mp
    alpha, g, l = sweep_params()[op]
    c = ModelParams(alpha=alpha, g=g, l=l).weights.c
    mode = int(np.argmax(c))
    blocks = np.unique(np.r_[0:3, mode - 20:mode + 21, c.size - 2:c.size])
    ts = np.linspace(0.0, 25.0, 500)[[1, 250, 499]]
    x = block_amplitudes(truth_spectrum(blocks, l, g), ts)
    states = truth_states(np.where(np.isin(np.arange(c.size), blocks), c, 0.0), l, g, ts)
    with mp.workdps(30):
        ref = np.empty(x.shape, dtype=object)  # (4, nT, N) as x
        for j, n in enumerate(blocks):
            vals, vecs = mp_block(int(n), l, g)
            for i, t in enumerate(map(mp.mpf, ts)):
                ref[:, i, j] = [mp.fsum((mp.cos(w * t) if b in (0, 3) else -mp.sin(w * t))
                                        * vecs[0][k] * vecs[b][k] for k, w in enumerate(vals))
                                for b in range(4)]
        assert max(abs(mp_exact(v) - r) for v, r in zip(x.ravel(), ref.ravel())) <= 4e-15
        weight = [mp.mpf(v) for v in c[blocks]]
        up = {int(n): j for j, n in enumerate(blocks)}
        pairs = [(j, up[n + l]) for j, n in enumerate(blocks.tolist()) if n + l in up]
        for atom, (trace, sz, sy) in states.items():
            i2, i3 = (1, 2) if atom is AtomId.FIRST else (2, 1)
            for i in range(ts.size):
                r = ref[:, i, :]
                plus, minus = (mp.fsum(weight[j] ** 2 * (r[a, j] ** 2 + r[b, j] ** 2)
                                       for j in range(blocks.size)) for a, b in ((0, i2), (i3, 3)))
                coh = 2 * mp.fsum(weight[j] * weight[k] * (r[i2, k] * r[3, j] - r[i3, j] * r[0, k])
                                  for j, k in pairs)
                for got, want in ((trace, plus + minus), (sz, plus - minus), (sy, coh)):
                    assert abs(mp_exact(got[i]) - want) <= 3e-16, (atom, i)
