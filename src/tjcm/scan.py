"""Time-series scans, figure presets, verification runs, and CSV output."""

from __future__ import annotations

import math
import os
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from typing import Iterable, TextIO

import numpy as np

from . import jcm
from .blocks import eigen_table
from .errors import InvalidParameterError, ResourceRefusalError, UsageError
from .observables import bloch, entropy_squeezing, eur_residual, variance_squeezing, \
    von_neumann
from .params import ModelParams, coherent_weights
from .reduced import AtomId, reduced_states

# Per-atom channel kinds, each an array expression over the atom's Bloch
# vector on the whole grid.
_ATOM_CHANNEL_FNS = {
    "inv": lambda b: b.sz,
    "sy": lambda b: b.sy,
    "ey": lambda b: entropy_squeezing(b, "y"),
    "ex": lambda b: entropy_squeezing(b, "x"),
    "fy": lambda b: variance_squeezing(b, "y"),
    "gamma": von_neumann,
    "eur": eur_residual,
}
ATOM_CHANNELS = tuple(_ATOM_CHANNEL_FNS)
FIELD_CHANNELS = ("jcm_sz", "jcm_sy", "jcm_ey", "harmonic_sy")
CHANNEL_NAMES = tuple(
    f"{kind}{atom}" for kind in ATOM_CHANNELS for atom in (1, 2)
) + FIELD_CHANNELS

DEFAULT_MAX_ORACLE_DIM = 8192
VERIFY_SEED = 0
STATE_DEV_TOL = 1e-8
EUR_TOL = 1e-10


@dataclass(frozen=True)
class ScanConfig:
    """One scan: physics parameters, a uniform time grid, and channels."""

    params: ModelParams
    t_max: float
    steps: int
    channels: tuple[str, ...]

    def __post_init__(self) -> None:
        if not (self.t_max > 0.0 and math.isfinite(self.t_max)):
            raise InvalidParameterError(f"t_max must be > 0, got {self.t_max}")
        if not isinstance(self.steps, int) or self.steps < 2:
            raise InvalidParameterError(f"steps must be an integer >= 2, got {self.steps}")
        object.__setattr__(self, "channels", tuple(self.channels))

    def grid(self) -> np.ndarray:
        return np.linspace(0.0, self.t_max, self.steps)


@dataclass(frozen=True)
class TimeSeries:
    """Named observable channels sampled on a shared uniform time grid."""

    grid: np.ndarray
    channels: dict[str, np.ndarray]

    def __post_init__(self) -> None:
        if self.grid.ndim != 1 or np.any(np.diff(self.grid) <= 0.0):
            raise InvalidParameterError("grid must be strictly increasing")
        for name, values in self.channels.items():
            if values.shape != self.grid.shape:
                raise InvalidParameterError(
                    f"channel {name!r} length {values.size} != grid length {self.grid.size}"
                )


def validate_channels(names: Iterable[str]) -> tuple[str, ...]:
    names = tuple(names)
    unknown = [n for n in names if n not in CHANNEL_NAMES]
    if unknown:
        raise UsageError(
            f"unknown channel(s) {', '.join(unknown)}; "
            f"valid channels: {', '.join(CHANNEL_NAMES)}"
        )
    if not names:
        raise UsageError("at least one channel is required")
    repeated = sorted({n for n in names if names.count(n) > 1})
    if repeated:
        raise UsageError(f"channel(s) requested more than once: {', '.join(repeated)}")
    return names


def run_scan(cfg: ScanConfig) -> TimeSeries:
    """Evaluate every requested channel on the configured time grid.

    Blocks are diagonalized once and shared read-only by the chunks of the
    grid, which ``reduced_states`` evolves and reduces on every core in
    the process's affinity mask; single-atom channels come from that
    reduction, the jcm_* and harmonic_sy channels from the closed-form
    references, streamed over the same chunks.  Memory grows with the
    grid only by grid-length arrays (states, Bloch vectors, channels); a
    grid whose outputs alone would not fit in physical memory is refused
    before anything is allocated.
    """
    names = validate_channels(cfg.channels)
    _check_grid_fits(cfg.steps, len(names) + 1)
    p = cfg.params
    grid = cfg.grid()
    weights = coherent_weights(p.alpha, p.cutoff_eps)
    series: dict[str, np.ndarray] = {}

    atoms_needed = {n[-1] for n in names if n[:-1] in ATOM_CHANNELS}
    if atoms_needed:
        atoms = [AtomId(int(tag)) for tag in sorted(atoms_needed)]
        spectrum = eigen_table(weights.n_max, p.l, p.g)
        # the reduced states are dropped once their Bloch vectors exist
        states = {str(atom.value): bloch(state) for atom, state in
                  reduced_states(weights, spectrum, grid, p.l, atoms).items()}
        for name in names:
            kind, tag = name[:-1], name[-1]
            if kind in ATOM_CHANNELS:
                series[name] = _ATOM_CHANNEL_FNS[kind](states[tag])

    if any(n.startswith("jcm_") for n in names):
        jcm_b = jcm.jcm_bloch(weights, grid)
        if "jcm_sz" in names:
            series["jcm_sz"] = jcm_b.sz
        if "jcm_sy" in names:
            series["jcm_sy"] = jcm_b.sy
        if "jcm_ey" in names:
            series["jcm_ey"] = entropy_squeezing(jcm_b, "y")
    if "harmonic_sy" in names:
        series["harmonic_sy"] = jcm.tjcm_harmonic_sy(weights, grid)

    return TimeSeries(grid=grid, channels={n: series[n] for n in names})


def _check_grid_fits(steps: int, columns: int) -> None:
    """Refuse a run whose grid-length arrays alone (columns of 8-byte
    values: the grid and one per channel) exceed physical memory; checked
    before the grid exists."""
    need = steps * columns * 8
    phys = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    if need > phys:
        raise ResourceRefusalError(
            f"{steps} steps x {columns} columns need {need:.3e} bytes, beyond "
            f"physical memory {phys:.3e} bytes; lower steps"
        )


# Frozen figure presets.  fig3 spans two transition parameters (l = 1 and
# l = 2 at the same alpha, g), so it is assembled from two scans; see
# run_preset.
PRESET_CONFIGS: dict[str, ScanConfig] = {
    "fig1": ScanConfig(
        params=ModelParams(alpha=5.0, g=0.5, l=1),
        t_max=25.0, steps=2500,
        channels=("inv1", "inv2", "ey1", "ey2", "fy2"),
    ),
    "fig2": ScanConfig(
        params=ModelParams(alpha=5.0, g=0.5, l=2),
        t_max=25.0, steps=2500,
        channels=("inv1", "inv2", "ey1", "ey2", "fy1", "fy2"),
    ),
    "fig4": ScanConfig(
        params=ModelParams(alpha=5.0, g=1.0, l=1),
        t_max=25.0, steps=2500,
        channels=("ey1", "jcm_ey", "sy1", "jcm_sy", "harmonic_sy"),
    ),
}

PRESET_NAMES = ("fig1", "fig2", "fig3", "fig4")


def run_preset(name: str, t_max: float | None = None, steps: int | None = None) -> TimeSeries:
    """Run a named figure preset, optionally overriding the grid."""
    if name not in PRESET_NAMES:
        raise UsageError(
            f"unknown preset {name!r}; valid presets: {', '.join(PRESET_NAMES)}"
        )
    grid = {k: v for k, v in (("t_max", t_max), ("steps", steps)) if v is not None}
    if name == "fig3":
        gammas = {
            f"gamma2_{tag}": run_scan(
                replace(PRESET_CONFIGS[base], channels=("gamma2",), **grid)
            )
            for tag, base in (("l1", "fig1"), ("l2", "fig2"))
        }
        return TimeSeries(
            grid=gammas["gamma2_l1"].grid,
            channels={k: ts.channels["gamma2"] for k, ts in gammas.items()},
        )
    return run_scan(replace(PRESET_CONFIGS[name], **grid))


@dataclass(frozen=True)
class VerifyReport:
    """Outcome of one oracle verification run."""

    times: np.ndarray
    max_state_dev: float
    max_eur_violation: float
    norm_drift: float
    dt: float
    oracle_dim: int
    passed: bool = field(init=False)

    def __post_init__(self) -> None:
        from . import oracle

        object.__setattr__(
            self,
            "passed",
            self.max_state_dev <= STATE_DEV_TOL
            and self.max_eur_violation <= EUR_TOL
            and self.norm_drift <= oracle.NORM_DRIFT_TOL,
        )

    def summary(self) -> str:
        from . import oracle

        status = "PASS" if self.passed else "FAIL"
        return (
            f"verify {status}: max state deviation {self.max_state_dev:.3e} "
            f"(tol {STATE_DEV_TOL:.0e}), max EUR violation "
            f"{self.max_eur_violation:.3e} (tol {EUR_TOL:.0e}), norm drift "
            f"{self.norm_drift:.3e} (tol {oracle.NORM_DRIFT_TOL:.0e}), "
            f"dim {self.oracle_dim}, dt {self.dt:.3e}, "
            f"{self.times.size} sample times"
        )


def run_verify(
    cfg: ScanConfig,
    sample_count: int,
    max_oracle_dim: int = DEFAULT_MAX_ORACLE_DIM,
    inject_fault: bool = False,
) -> VerifyReport:
    """Cross-check the analytic pipeline against the brute-force oracle.

    Draws sample_count times from the configured grid (deterministic seed),
    integrates the full product-space trajectory once, and compares the
    reduced states of both atoms entrywise at every sample.  Also scans the
    entropic-uncertainty residual of the analytic states.  inject_fault
    corrupts one analytic coherence, for exercising the failure path.
    """
    if sample_count < 10:
        raise UsageError(f"sample_count must be >= 10, got {sample_count}")
    p = cfg.params
    weights = coherent_weights(p.alpha, p.cutoff_eps)
    n_f = weights.n_max + 2 * p.l
    dim = 4 * (n_f + 1)
    if dim > max_oracle_dim:
        raise ResourceRefusalError(
            f"oracle dimension {dim} exceeds bound {max_oracle_dim}; "
            "lower alpha (or raise --max-dim) to verify this configuration"
        )

    _check_grid_fits(cfg.steps, 1)
    grid = cfg.grid()
    rng = np.random.default_rng(VERIFY_SEED)
    count = min(sample_count, grid.size - 1)
    times = np.sort(rng.choice(grid[1:], size=count, replace=False))

    from . import oracle  # imported only when verifying

    h = oracle.build_joint_hamiltonian(p.l, p.g, n_f)
    psi0 = oracle.initial_state(weights, h)
    dt = oracle.suggest_dt(weights, h, float(times[-1]))

    blocks = eigen_table(weights.n_max, p.l, p.g)
    analytic = reduced_states(weights, blocks, times, p.l, AtomId)
    if inject_fault:
        coh = analytic[AtomId.FIRST].coh.copy()
        coh[times.size // 2] += 1e-6j
        analytic[AtomId.FIRST] = replace(analytic[AtomId.FIRST], coh=coh)
    max_eur_violation = max(
        float(np.max(-eur_residual(bloch(state)))) for state in analytic.values()
    )

    max_dev = 0.0
    norm_drift = 0.0
    for i, (_, psi) in enumerate(oracle.sample_states(h, psi0, times, dt)):
        norm_drift = max(norm_drift, abs(float(np.linalg.norm(psi)) - 1.0))
        for atom, state in analytic.items():
            ref = oracle.partial_trace_atom(psi, n_f, atom)
            max_dev = max(
                max_dev,
                abs(float(state.p_plus[i]) - ref.p_plus),
                abs(float(state.p_minus[i]) - ref.p_minus),
                abs(complex(state.coh[i]) - ref.coh),
            )
    return VerifyReport(
        times=times,
        max_state_dev=max_dev,
        max_eur_violation=max(0.0, max_eur_violation),
        norm_drift=norm_drift,
        dt=dt,
        oracle_dim=dim,
    )


def write_csv(series: TimeSeries, out: str | os.PathLike | TextIO) -> None:
    """Emit the series as CSV to a path (UTF-8) or an open text stream:
    column T first, then each channel, all values with 17 significant
    digits so parsing reproduces the exact doubles."""
    names = list(series.channels)
    cols = [series.grid] + [series.channels[n] for n in names]
    if hasattr(out, "write"):
        stream = nullcontext(out)
    else:
        try:
            stream = open(out, "w", encoding="utf-8", newline="\n")
        except OSError as exc:
            raise UsageError(f"cannot write {out}: {exc.strerror}") from exc
    with stream as fh:
        fh.write(",".join(["T"] + names) + "\n")
        for row in zip(*cols):
            fh.write(",".join(f"{v:.17g}" for v in row) + "\n")


def read_csv(path: str) -> TimeSeries:
    """Parse a CSV produced by write_csv back into a TimeSeries.

    Public API: the inverse of write_csv, so output that `tjcm scan` or
    `tjcm preset` wrote reads back as the exact doubles it held."""
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        if not header or header[0] != "T":
            raise UsageError(f"{path} is not a scan CSV (missing T column)")
        rows = [line.strip().split(",") for line in fh if line.strip()]
    if not rows:
        raise UsageError(f"{path} has no data rows")
    if any(len(row) != len(header) for row in rows):
        raise UsageError(f"{path}: ragged CSV")
    data = np.array([[float(v) for v in row] for row in rows])
    return TimeSeries(
        grid=data[:, 0],
        channels={name: data[:, j + 1] for j, name in enumerate(header[1:])},
    )
