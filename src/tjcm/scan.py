"""Time-series scans, figure presets, verification runs, and CSV output."""

from __future__ import annotations

import math
import os
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from typing import Iterable, TextIO

import numpy as np

from . import jcm
from .errors import InvalidParameterError, ResourceRefusalError, UsageError, \
    integer_at_least
from .observables import bloch, entropy_squeezing, eur_residual, variance_squeezing, \
    von_neumann
from .params import ModelParams
from .reduced import AtomId, ReducedAtomState, max_deviation, reduced_states

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
STATE_DEV_TOL = 1e-8
EUR_TOL = 1e-10
# Values that write_csv formats at a time.
_CSV_VALUES = 4096
# The exact digits need a long double with a 64-bit significand (x87).
_FAST_DIGITS = np.finfo(np.longdouble).nmant >= 63
# 2**7 * 10**k for k = 0..27, each exact: 5**27 < 2**63.
_DIGIT_SCALE = 128 * np.cumprod(np.array([1] + [10] * 27, dtype=np.longdouble))
# Veltkamp's split of long doubles into halves with exact products.
_SPLIT = np.longdouble(2 ** ((np.finfo(np.longdouble).nmant + 2) // 2) + 1)
_EXPONENTS = range(-11, 16)
_SLOT = np.arange(18, dtype=np.uint8)[:, None]
# The decimal digits of 0..9999, most significant first.
_QUAD = np.indices((10,) * 4, np.uint8).reshape(4, 10000)


def _byte_columns(texts: list[str], width: int) -> np.ndarray:
    """ASCII texts as the columns of a (width, len(texts)) uint8 table,
    padded with NUL."""
    table = np.array(texts, dtype=f"S{width}").view(np.uint8)
    return table.reshape(-1, width).T.copy()


# Per decimal exponent x of the fast range, and sign: the sign and the
# "0.000" of -4 <= x < 0; per x: the "e-XX" of x < -4, and the digit that
# the point follows (17: none, the point is in the prefix).
_HEAD = _byte_columns([sign + ("0." + "0" * (-x - 1) if -4 <= x < 0 else "")
                       for x in _EXPONENTS for sign in ("", "-")], 6)
_TAIL = _byte_columns([f"e-{-x:02d}" if x < -4 else "" for x in _EXPONENTS], 4)
_POINT = np.array([x if x >= 0 else 17 if x >= -4 else 0 for x in _EXPONENTS], np.uint8)


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
        object.__setattr__(self, "steps", integer_at_least(self.steps, 2, "steps"))
        step, tiny = self.t_max / (self.steps - 1), np.finfo(float).tiny
        if step < tiny:  # a normal step keeps np.linspace strictly increasing
            raise InvalidParameterError(f"t_max / (steps - 1) = {step:.3e} is below the smallest "
                                        f"normal double {tiny:.3e}; raise t_max or lower steps")
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

    Single-atom channels come from ``reduced_states``, which diagonalizes
    the blocks once and evaluates each entry of the states on the whole
    grid as a trig sum over the spectrum (``blocks.trig_sum``); the jcm_*
    and harmonic_sy channels are trig sums too.  The weight table is the
    one ``ModelParams`` built.  Memory grows with the grid only by
    grid-length arrays; a grid whose outputs alone would not fit in
    physical memory is refused before anything is allocated.
    """
    names = validate_channels(cfg.channels)
    _check_grid_fits(cfg.steps, len(names) + 1)
    p = cfg.params
    grid = cfg.grid()
    weights = p.weights
    series: dict[str, np.ndarray] = {}

    atoms_needed = {n[-1] for n in names if n[:-1] in ATOM_CHANNELS}
    if atoms_needed:
        atoms = [AtomId(int(tag)) for tag in sorted(atoms_needed)]
        # the reduced states are dropped once their Bloch vectors exist
        states = {str(atom.value): bloch(state) for atom, state in
                  reduced_states(weights, p.l, p.g, grid, atoms).items()}
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

    Compares at sample_count evenly spaced grid times after T = 0, the
    grid indices (j * (steps - 1)) // sample_count for j = 1..sample_count,
    which end at the last grid time.  The oracle walks the full
    product-space trajectory once over the grid (oracle.trace_trajectory),
    and the reduced states of both atoms are compared entrywise at every
    sample.  The analytic states are evaluated on the whole grid and
    indexed at the samples; they come first, so their coupling and phase
    checks refuse an input before the oracle's arithmetic could overflow.
    Also scans the entropic-uncertainty residual of the analytic states.
    inject_fault corrupts one analytic coherence, for exercising the
    failure path.
    """
    sample_count = integer_at_least(sample_count, 10, "sample_count", UsageError)
    if cfg.steps - 1 < sample_count:
        raise UsageError(
            f"the grid has {cfg.steps - 1} times after T = 0, fewer than the "
            f"{sample_count} samples requested; raise steps or lower samples"
        )
    p = cfg.params
    weights = p.weights
    n_f = weights.n_max + 2 * p.l
    dim = 4 * (n_f + 1)
    if dim > max_oracle_dim:
        raise ResourceRefusalError(
            f"oracle dimension {dim} exceeds bound {max_oracle_dim}; "
            "lower alpha (or raise --max-dim) to verify this configuration"
        )

    _check_grid_fits(cfg.steps, 7)
    grid = cfg.grid()
    samples = np.arange(1, sample_count + 1) * (cfg.steps - 1) // sample_count
    times = grid[samples]

    analytic = {
        atom: ReducedAtomState(state.p_plus[samples], state.p_minus[samples],
                               state.coh_re, state.coh_im[samples])
        for atom, state in reduced_states(weights, p.l, p.g, grid, AtomId).items()
    }
    if inject_fault:  # the indexed states are copies
        analytic[AtomId.FIRST].coh_im[times.size // 2] += 1e-6
    max_eur_violation = max(
        float(np.max(-eur_residual(bloch(state)))) for state in analytic.values()
    )

    from . import oracle  # imported only when verifying

    h = oracle.build_joint_hamiltonian(p.l, p.g, n_f)
    dt = oracle.suggest_dt(weights, h, float(times[-1]))
    # grid[k] is k times linspace's step t_max / (steps - 1), to rounding
    traced = oracle.trace_trajectory(h, oracle.initial_state(weights, h),
                                     cfg.t_max / (cfg.steps - 1), samples, dt)
    return VerifyReport(
        times=times,
        max_state_dev=max(max_deviation(analytic[a], traced[a]) for a in AtomId),
        max_eur_violation=max(0.0, max_eur_violation),
        norm_drift=oracle.norm_drift(traced[AtomId.FIRST]),
        dt=dt,
        oracle_dim=dim,
    )


def _format_17g(block: np.ndarray) -> str:
    """The rows of a (rows, cols) float block as CSV lines: the bytes of
    f"{v:.17g}" for each value, joined by "," and ended by "\\n".

    Values with 1e-11 <= |v| < 1e16 get their 17 significant digits in
    numpy: with x = floor(log10 |v|), q = |v| * 2**7 * 10**(16 - x) is one
    long-double product (the factor is exact), so q is within 1/2 of the
    exact value, and d = q >> 7, rounded up when q & 127 > 64, is the
    correctly rounded digit string whenever it has 17 digits before and
    after rounding.  At the remainder 64, a tie within q's error, the
    product's exact error decides (to even on an exact tie).  A misestimated
    x, every value outside the range and every value on a platform without
    a 64-bit long double take f"{v:.17g}" itself.  Each
    field is laid out in one column of a (29, n) byte table padded with
    NUL: sign and "0.000" prefix, 18 slots for the digits and the point,
    "e-XX", separator.  Apart from uint8 products it keeps to the numpy
    loops that a scan runs anyway, so it faults in little more of numpy's
    code."""
    cols = block.shape[1]
    v = block.ravel()
    n = v.size
    a = np.abs(v)
    fast = (a >= 1e-11) & (a < 1e16) & _FAST_DIGITS
    a = np.where(fast, a, 1.0)
    x = np.clip(np.floor(np.log10(a)).astype(np.intp), -11, 15)
    scale = np.take(_DIGIT_SCALE, 16 - x)
    product = a * scale  # in long double, as scale
    fast &= (product >= _DIGIT_SCALE[16]) & (product < _DIGIT_SCALE[17] - 128)
    q = np.where(fast, product, _DIGIT_SCALE[16]).astype(np.uint64)
    d = ((q + 63) >> 7).view(np.int64)
    # remainder 64: the product's exact rounding error (Dekker) gives the
    # sign of |v| scale - (q >> 7 << 7 | 64); d rounds up, or to even on 0
    tie = np.flatnonzero(fast & (q - (q >> 7 << 7) == 64))
    p, qt, y = product[tie], q[tie], np.stack([a[tie], scale[tie]])
    a_hi, s_hi = y_hi = y * _SPLIT - (y * _SPLIT - y)
    a_lo, s_lo = y - y_hi
    above = (p - qt) + (((a_hi * s_hi - p) + a_hi * s_lo + a_lo * s_hi) + a_lo * s_lo)
    d[tie] += (above > 0) | ((above == 0) & (qt >> 7 != qt >> 8 << 1))
    # d = 10**16 lead + the 4-digit groups quad; the long-double quotient
    # d / 1e8 cannot round up to the next integer
    hi = (d.astype(np.longdouble) / 1e8).astype(np.int64)
    halves = np.stack([hi, d - hi * 100000000]).astype(np.float64)
    tops = np.floor(halves / 1e4)
    lead = np.floor(tops[0] / 1e4)
    quad = np.stack([tops[0] - 1e4 * lead, halves[0] - 1e4 * tops[0], tops[1],
                     halves[1] - 1e4 * tops[1]]).astype(np.intp)
    # digit k in row k + 1 of a (19, n) table with a zero row either side
    digits = np.zeros((19, n), np.uint8)
    digits[1] = lead
    digits[2:18].reshape(4, 4, n)[...] = np.take(_QUAD, quad, axis=1).transpose(1, 0, 2)
    # %g drops trailing zeros, except those of an integer part
    last = ((digits[1:18] != 0) * _SLOT[:17]).max(axis=0)
    keep = np.maximum(x, last).astype(np.uint8)
    digits[1:18] += 48
    digits[1:18] *= _SLOT[:17] <= keep
    xi = x + 11
    p = np.take(_POINT, xi)
    point = 46 * (keep > p).astype(np.uint8)
    out = np.empty((29, n), np.uint8)
    np.take(_HEAD, 2 * xi + (v < 0), axis=1, out=out[:6])
    run = out[6:24]
    np.multiply(digits[1:], _SLOT <= p, out=run)
    run += digits[:-1] * (_SLOT > p + 1)
    run += point * (_SLOT == p + 1)
    np.take(_TAIL, xi, axis=1, out=out[24:28])
    out[28] = 44
    out[28, cols - 1::cols] = 10
    slow = np.flatnonzero(~fast)
    if slow.size:
        out[:28, slow] = _byte_columns([f"{w:.17g}" for w in v[slow].tolist()], 28)
    return out.T.tobytes().translate(None, b"\0").decode("ascii")


def write_csv(series: TimeSeries, out: str | os.PathLike | TextIO) -> None:
    """Emit the series as CSV to a path (UTF-8) or an open text stream:
    column T first, then each channel, all values with 17 significant
    digits so parsing reproduces the exact doubles: the bytes of
    f"{v:.17g}" for each value.  _format_17g formats the rows in blocks
    of about _CSV_VALUES values, so no working array spans the grid, and
    the bytes do not depend on the block size."""
    names = list(series.channels)
    cols = [series.grid] + [series.channels[n] for n in names]
    rows = max(1, _CSV_VALUES // len(cols))
    if hasattr(out, "write"):
        stream = nullcontext(out)
    else:
        try:
            stream = open(out, "w", encoding="utf-8", newline="\n")
        except OSError as exc:
            raise UsageError(f"cannot write {out}: {exc.strerror}") from exc
    with stream as fh:
        fh.write(",".join(["T"] + names) + "\n")
        for start in range(0, series.grid.size, rows):
            fh.write(_format_17g(np.stack([c[start : start + rows] for c in cols], axis=1)))


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
    repeated = sorted({name for name in header if header.count(name) > 1})
    if repeated:
        raise UsageError(f"{path}: column(s) named more than once: {', '.join(repeated)}")
    if any(len(row) != len(header) for row in rows):
        raise UsageError(f"{path}: ragged CSV")
    try:
        data = np.array([[float(v) for v in row] for row in rows])
    except ValueError as exc:
        raise UsageError(f"{path}: non-numeric cell: {exc}") from exc
    return TimeSeries(
        grid=data[:, 0],
        channels={name: data[:, j + 1] for j, name in enumerate(header[1:])},
    )
