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
from .reduced import AtomId, max_deviation, reduced_states

# Per-atom channel kinds, each an array expression over the atom's Bloch
# vector on the whole grid, in evaluation order: ey, ex and eur last, so
# the entropies they share (BlochVector.entropy) live only while they run.
_ATOM_CHANNEL_FNS = {
    "inv": lambda b: b.sz,
    "sy": lambda b: b.sy,
    "fy": lambda b: variance_squeezing(b, "y"),
    "gamma": von_neumann,
    "ey": lambda b: entropy_squeezing(b, "y"),
    "ex": lambda b: entropy_squeezing(b, "x"),
    "eur": eur_residual,
}
ATOM_CHANNELS = ("inv", "sy", "ey", "ex", "fy", "gamma", "eur")
# The one-atom baseline's channels and the per-atom kind each one is.
_JCM_KINDS = {"jcm_sz": "inv", "jcm_sy": "sy", "jcm_ey": "ey"}
FIELD_CHANNELS = (*_JCM_KINDS, "harmonic_sy")
CHANNEL_NAMES = tuple(
    f"{kind}{atom}" for kind in ATOM_CHANNELS for atom in (1, 2)
) + FIELD_CHANNELS

DEFAULT_MAX_ORACLE_DIM = 8192
STATE_DEV_TOL = 1e-8
EUR_TOL = 1e-10
# Values that write_csv formats at a time.  8192, one call for a 500-step
# scan of 14 channels, was no faster in the sweep benchmark: the heap was
# trimmed after each scan and the formatter's 1 MB of arrays faulted in
# again (about 100 more minor page faults a scan).
_CSV_VALUES = 4096
# 5**j for j = 0..27 as 32-bit halves: 5**27 < 2**63.
_FIVE_HI, _FIVE_LO = np.array([[5**j >> 32, 5**j & 0xFFFFFFFF] for j in range(28)], np.uint64).T
_EXPONENTS = range(-11, 16)


def _byte_rows(texts: list[str], width: int) -> np.ndarray:
    """ASCII texts as the rows of a (len(texts), width) uint8 table,
    padded with NUL."""
    return np.array(texts, dtype=f"S{width}").view(np.uint8).reshape(-1, width)


# Byte tables, each with a view as words of its rows: a word holds its
# bytes in memory order on either byte order, and every NUL is dropped
# from the output.  Per decimal exponent x of the fast range, sign, lead
# digit and whether a digit follows it: sign, the "0.000" of -4 <= x < 0
# and the lead digit in 7 bytes, then the point when it follows the lead
# (x = 0 or x < -4) and a digit follows it.
_HEAD = _byte_rows([(sign + ("0." + "0" * (-x - 1) if -4 <= x < 0 else "") + lead).rjust(7, "\0")
                    + ("." if more and (x == 0 or x < -4) else "")
                    for x in _EXPONENTS for sign in ("", "-") for lead in "0123456789"
                    for more in (0, 1)], 8)
# Per x: the "e-XX" of x < -4.
_TAIL = _byte_rows([f"e-{-x:02d}" if x < -4 else "" for x in _EXPONENTS], 4)
# The four digits of 0..9999, most significant first; each column is a
# run of bytes, which leaves less on the heap than index arithmetic.
_QUAD = np.stack([np.frombuffer(b"".join(bytes([48 + i]) * 10 ** (3 - k) for i in range(10))
                                * 10 ** k, np.uint8) for k in range(4)], axis=1)
# The trailing zeros of 0..9999 (4 for 0), and per count the word mask
# that clears them.
_TRAILING = sum(np.frombuffer((b"\1" + b"\0" * (10 ** j - 1)) * 10 ** (4 - j), np.uint8)
                for j in range(1, 5))
_MASK = np.array([[255] * (4 - t) + [0] * t for t in range(5)], np.uint8)
_HEAD_WORDS, _TAIL_WORDS, _QUAD_WORDS, _MASK_WORDS = (
    t.view(dtype).ravel() for t, dtype in ((_HEAD, np.uint64), (_TAIL, np.uint32), (_QUAD, np.uint32),
                                           (_MASK, np.uint32)))


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
        grid = self.grid
        if grid.ndim != 1 or not (np.all(np.isfinite(grid)) and np.all(np.diff(grid) > 0.0)):
            raise InvalidParameterError("grid must be finite and strictly increasing")
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
    grid as a trig sum over the spectrum (``transform.trig_sum``).  The jcm_*
    channels are the one-atom Jaynes-Cummings baseline: atom 1 of the same
    path at g = 0, where atom 2 is frozen, and l = 1, whatever the scan's
    g and l.  harmonic_sy is a trig sum too.  The weight table is the
    one ``ModelParams`` built.  Memory grows with the grid only by
    grid-length arrays; a grid whose outputs alone would not fit in
    physical memory is refused before anything is allocated.
    """
    names = validate_channels(cfg.channels)
    _check_grid_fits(cfg.steps, len(names) + 1)
    p = cfg.params
    grid = cfg.grid()
    weights = p.weights
    # the Bloch-vector channels by source, atom "1" or "2" of the scan or
    # "jcm", the baseline, as {kind: name}
    wanted = {}
    for n in names:
        kind, source = (n[:-1], n[-1]) if n[:-1] in ATOM_CHANNELS else (_JCM_KINDS.get(n), "jcm")
        if kind:
            wanted.setdefault(source, {})[kind] = n
    # the reduced states are dropped once their Bloch vectors exist
    states = {}
    if atoms := [AtomId(int(tag)) for tag in sorted(wanted.keys() - {"jcm"})]:
        states = {str(atom.value): bloch(state) for atom, state in
                  reduced_states(weights, p.l, p.g, grid, atoms).items()}
    if "jcm" in wanted:
        states["jcm"] = bloch(reduced_states(weights, 1, 0.0, grid, [AtomId.FIRST])[AtomId.FIRST])
    # each Bloch vector, with the entropies it keeps, is dropped in turn
    series = {kinds[kind]: fn(b) for source, kinds in wanted.items() for b in [states.pop(source)]
              for kind, fn in _ATOM_CHANNEL_FNS.items() if kind in kinds}
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

    analytic = {atom: replace(state, sy=state.sy[samples], sz=state.sz[samples])
                for atom, state in reduced_states(weights, p.l, p.g, grid, AtomId).items()}
    if inject_fault:  # the indexed states are copies; sy is twice the coherence
        analytic[AtomId.FIRST].sy[times.size // 2] += 2e-6
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


def _format_17g(block: np.ndarray) -> bytes:
    """The rows of a (rows, cols) float block as CSV lines, in ASCII: the
    bytes of f"{v:.17g}" for each value, joined by "," and ended by "\\n".

    Zeros ("0", "-0") and values with 1e-11 <= |v| < 1e16 are laid out in
    numpy, from their exponent and 17-digit integer (_digits) as rows of
    table words (_layout); every other value takes f"{v:.17g}" itself.
    The helpers' working arrays are gone before the rows are joined."""
    v = np.asarray(block, dtype=float).ravel()
    return _layout(v, block.shape[1], *_digits(v)).tobytes().translate(None, b"\0")


def _digits(v: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Where the digits are exact (fast), and there x = floor(log10 |v|)
    and the correctly rounded 17-digit integer d of |v|; x = d = 0
    elsewhere, which is how zeros are laid out.

    In integers, as in Adams, "Ryu revisited: printf floating point
    conversion" (OOPSLA 2019): with |v| = m 2**(e - 53), m < 2**53, and
    j = 16 - x, d is m 5**j shifted by s = 53 - e - j bits, right (s <= 63)
    or left, rounded half to even from the bits shifted out; m 5**j fits
    two uint64 limbs while 5**j < 2**63, that is x >= -11, which is why
    smaller values are not fast.  d is correct whenever it has 17 digits
    before and after rounding; a misestimated x puts it out of that range."""
    a = np.abs(v)
    fast = (a >= 1e-11) & (a < 1e16)
    a = np.where(fast, a, 1.0)
    x = np.clip(np.floor(np.log10(a)).astype(np.intp), -11, 15)
    j = 16 - x
    e = (a.view(np.uint64) >> 52).view(np.int64) - 1022  # frexp's exponent: a is normal
    m = a.view(np.uint64) & 2**52 - 1 | 2**52  # and its significand, times 2**53
    # m 5**j = hi 2**64 + lo; no partial sum overflows: mh < 2**21, ph < 2**31
    mh, ml = m >> 32, m & 0xFFFFFFFF
    ph, pl = np.take(_FIVE_HI, j), np.take(_FIVE_LO, j)
    mid = mh * pl + ml * ph
    hi = mh * ph + (mid >> 32)
    mid <<= 32
    lo = ml * pl + mid
    hi += lo < mid  # the carry
    s = 53 - e - j
    r = np.maximum(s, 0).astype(np.uint64)
    d = lo >> r | hi << (63 - r) << 1
    frac = lo << (63 - r) << 1  # the bits shifted out, over 2**64
    d <<= np.maximum(-s, 0).astype(np.uint64)
    fast &= d - 10**16 < 9 * 10**16 - 1  # 10**16 <= d < 10**17 - 1
    # frac | (d & 1) > 2**63 iff frac > 2**63, or frac = 2**63 and d is odd
    d += (frac | d & 1) > 2**63
    d *= fast
    x *= fast
    return fast, x, d.view(np.int64)


def _layout(v: np.ndarray, cols: int, fast: np.ndarray, x: np.ndarray,
            d: np.ndarray) -> np.ndarray:
    """The values v of a block with cols columns as (v.size, 32) bytes:
    each value's text and separator, padded with NUL.

    Each row is NUL-padded words, each gathered from a table: sign,
    "0.000" prefix, lead digit and point (8 bytes); the four 4-digit
    groups of d, split off by integer division (16); "e-XX" (4); the
    separator (4).  Values whose last digit is 0 take the groups from the
    last nonzero one on without their trailing zeros, and values with
    x >= 1 move the digits before the point one byte forward, over the
    lead's point slot.  The values that are not fast, except zeros, are
    written by f"{v:.17g}"."""
    n = v.size
    # d = 10**16 lead + 10**12 g0 + 10**8 g1 + 10**4 g2 + g3
    halves = np.empty((2, n), np.int64)
    hi = np.floor_divide(d, 100000000, out=halves[0])
    np.subtract(d, hi * 100000000, out=halves[1])
    lead = hi // 100000000
    hi -= lead * 100000000
    tops = halves // 10000
    halves -= tops * 10000
    groups = tops[0], halves[0], tops[1], halves[1]
    out = np.empty((n, 8), np.uint32)
    row = out.view(np.uint8)
    for k, group in enumerate(groups):  # "clip" writes to out unbuffered
        np.take(_QUAD_WORDS, group, out=out[:, 2 + k], mode="clip")
    # %g drops trailing zeros: where the last digit is 0, the groups from
    # the last nonzero one on lose theirs
    zeros = np.flatnonzero(row[:, 23] == 48)
    for k in (3, 2, 1, 0):
        group = groups[k][zeros]
        out[zeros, 2 + k] &= _MASK_WORDS[_TRAILING[group]]
        zeros = zeros[group == 0]
    wide = np.flatnonzero(x > 0)
    at = x[wide]
    x += 11
    np.take(_TAIL_WORDS, x, out=out[:, 6], mode="clip")
    # the head's row of _HEAD: x, sign, lead digit, whether a digit follows
    x *= 2
    x -= v.view(np.int64) >> 63  # +1 where the sign bit is set
    x *= 20
    lead *= 2
    lead += x
    lead += row[:, 8] != 0
    np.take(_HEAD_WORDS, lead, out=out.view(np.uint64)[:, 0], mode="clip")
    out[:, 7] = 44  # as a word: its one nonzero byte
    out[cols - 1::cols, 7] = 10
    # x >= 1: the digits 1..x move one byte forward, over the lead's point
    # slot, each a "0" where the trailing zeros left a NUL, and the point
    # follows them if a digit does
    if wide.size:
        run, r = row[wide, 7:24], np.arange(wide.size)
        point = run[r, at + 1] != 0
        for j in range(at.max()):
            shift = at > j
            run[shift, j] = np.maximum(run[shift, j + 1], 48)
        run[r, at] = 46 * point
        row[wide, 7:24] = run
    slow = np.flatnonzero(~fast & (v != 0))
    if slow.size:
        row[slow, :28] = _byte_rows([f"{w:.17g}" for w in v[slow].tolist()], 28)
    return row


def write_csv(series: TimeSeries, out: str | os.PathLike | TextIO) -> None:
    """Emit the series as CSV to a path (UTF-8) or an open text stream:
    column T first, then each channel, all values with 17 significant
    digits so parsing reproduces the exact doubles: the bytes of
    f"{v:.17g}" for each value.  _format_17g formats whole rows, at most
    _CSV_VALUES values at a time (one row if it is wider), so no working
    array spans the grid, and the bytes do not depend on the block size;
    only a text stream has them decoded."""
    names = list(series.channels)
    cols = [series.grid] + [series.channels[n] for n in names]
    rows = max(1, _CSV_VALUES // len(cols))
    text = hasattr(out, "write")
    if text:
        stream = nullcontext(out)
    else:
        try:
            stream = open(out, "wb")
        except OSError as exc:
            raise UsageError(f"cannot write {out}: {exc.strerror}") from exc
    with stream as fh:
        header = ",".join(["T"] + names) + "\n"
        fh.write(header if text else header.encode("utf-8"))
        for start in range(0, series.grid.size, rows):
            block = _format_17g(np.stack([c[start : start + rows] for c in cols], axis=1))
            fh.write(block.decode("ascii") if text else block)


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
