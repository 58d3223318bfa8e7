"""Finite trig sums on a uniform time grid.

Every analytic output is a finite cosine or sine sum with real
coefficients over known frequencies.  trig_sum evaluates one on a uniform
grid from T = 0 as a one-sided type-1 nonuniform FFT (Dutt & Rokhlin, SIAM
J. Sci. Comput. 14 (1993) 1368) with the "exponential of semicircle"
kernel of Barnett, Magland & af Klinteberg (SIAM J. Sci. Comput. 41 (2019)
C479), in O(M w + nT log nT) for M terms on nT times instead of O(M nT)
cosines; the sums on one grid share its GridPlan (grid_plan).
check_phase_conditioning refuses a grid on which the float64 phases of
the given frequencies could miss the accuracy verify promises.
"""

from __future__ import annotations

import math
from collections import namedtuple

import numpy as np

from .errors import InvalidParameterError

_EPS = np.finfo(float).eps
# phase error bound max|w|*max|T|*eps: the accuracy verify promises (STATE_DEV_TOL)
_PHASE_COND_TOL = 1e-8
# trig_sum: kernel widths (sum, rounding correction) and beta per point;
# fine points per time, at least _MIN_FINE (well over a kernel width);
# allowed stray in eps * max|T|.  At 6 points per time the kernel's
# transform at the last mode is within 2.4x of its centre (7x at 4, where
# one frequency erred by 1.8e-14), and beta 2.50 per point, not 2.30,
# brings its relative error at every mode from 1.7e-15 to 7e-16.
_ES_WIDTH, _CORRECTION_WIDTH, _ES_BETA_PER_POINT = 16, 4, 2.50
_UPSAMPLE, _MIN_FINE = 6, 256
_UNIFORM_ULPS = 16
# kernel points trig_sum evaluates and spreads at a time: a 64 kB block,
# which stays in cache (its results do not depend on the count)
_SPREAD_BLOCK = 8192
# bytes of fine grids trig_sum transforms at once: 5 at nT 500, 1 from 1363
_FFT_STACK_BYTES = 2**17
# float64 2 pi is off by 2.4e-16 per turn, which grows along the grid
_TWO_PI = 8 * np.arctan(np.longdouble(1))


def _kernel_quadrature(n: int) -> tuple[np.ndarray, ...]:
    """Gauss-Legendre rule for int_0^1 f(z) dz over z = sin(theta), where the
    kernel is smooth: nodes z, weights, sin(theta / 2)^2.  The Legendre
    roots come from Newton steps in long double (numpy's leggauss weights
    are off by 7e-13 at n = 40, and it would import numpy.polynomial)."""
    x = np.cos(np.pi * (np.arange(1, n + 1) - 0.25) / (n + 0.5)).astype(np.longdouble)
    for _ in range(6):
        p0, p1 = np.ones_like(x), x
        for k in range(2, n + 1):
            p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
        dp = n * (x * p1 - p0) / (x * x - 1)
        x = x - p1 / dp
    theta = 0.25 * np.pi * (x.astype(float) + 1.0)
    weight = 0.25 * np.pi * np.cos(theta) * (2 / ((1 - x * x) * dp * dp)).astype(float)
    return np.sin(theta), weight, np.sin(0.5 * theta) ** 2


_GL_Z, _GL_W, _GL_HALF_SQ = _kernel_quadrature(40)


def check_phase_conditioning(vals: np.ndarray, t_grid: np.ndarray,
                             knobs: tuple[str, ...] = ("t_max", "alpha", "g", "l")) -> None:
    """Refuse a grid whose phase error bound max|w| * max|T| * eps exceeds
    _PHASE_COND_TOL, naming the knobs that move it.  vals are the
    frequencies given, not those summed: reduced_states passes the block
    spectrum w = (-s1, -s2, s2, s1) (blocks.block_spectrum), whose largest
    |w| is s1, and sums at up to 2 s1, so its accepted sums reach |w T| of
    up to twice _PHASE_COND_TOL / eps."""
    with np.errstate(over="ignore"):  # an infinite bound is refused below
        cond = np.abs(vals).max(initial=0.0) * np.abs(t_grid).max(initial=0.0) * _EPS
    if cond > _PHASE_COND_TOL:
        raise InvalidParameterError(
            f"phase conditioning max|w|*max|T|*eps = {cond:.3e} exceeds "
            f"{_PHASE_COND_TOL:.0e}; lower {', '.join(knobs[:-1])} or {knobs[-1]}"
        )


# trig_sum's view of a uniform grid T_j = j h + delta_j, j < nT: h in long
# double, the roundings delta_j, the fine grid's size, the _mode_tables.
GridPlan = namedtuple("GridPlan", "h delta n_fine tables")

# grid_plan's last plan and a copy of its times, (times, plan), kept only
# while their arrays fit _FFT_STACK_BYTES together (48 bytes a time: up to
# 2730 times).  One tuple, replaced in one assignment, so concurrent
# callers at worst build a plan twice.
_last_plan: tuple[np.ndarray, GridPlan] | None = None


def grid_plan(times: np.ndarray) -> GridPlan:
    """The GridPlan of a uniform grid from T = 0 ([0] is one such grid).
    Times off a uniform grid by more than _UNIFORM_ULPS * eps * max|T|, and
    then a uniform grid that starts elsewhere, raise InvalidParameterError.

    A process plans each short grid once: the last plan is returned again
    for times bitwise equal to its own (as float64), which the channels of
    a scan and the scans of a sweep share.  A plan of a longer grid is
    built afresh on each call, so a long scan keeps no grid-length arrays.
    A plan's delta and tables are read-only."""
    global _last_plan
    times = np.asarray(times, dtype=float).reshape(-1)
    last = _last_plan
    if last is not None and np.array_equal(last[0].view(np.uint64), times.view(np.uint64)):
        return last[1]
    n_t = times.size
    t0, t_end = (times[[0, -1]] if n_t else np.zeros(2)).astype(np.longdouble)
    h = (t_end - t0) / max(n_t - 1, 1)
    delta = (times - (t0 + np.arange(n_t) * h)).astype(float)
    stray = float(np.abs(delta).max(initial=0.0))
    if not stray <= _UNIFORM_ULPS * _EPS * float(np.abs(times).max(initial=0.0)):
        raise InvalidParameterError(f"times must form a uniform grid: they stray by {stray:.3e}")
    if t0 != 0.0:
        raise InvalidParameterError(f"times must form a uniform grid from T = 0: they start at "
                                    f"T = {float(t0)}")
    n_fine = max(_UPSAMPLE * n_t, _MIN_FINE)
    plan = GridPlan(h, delta, n_fine, _mode_tables(n_t, n_fine))
    delta.flags.writeable = plan.tables.flags.writeable = False
    if times.nbytes + delta.nbytes + plan.tables.nbytes <= _FFT_STACK_BYTES:
        key = times.copy()
        key.flags.writeable = False
        _last_plan = key, plan
    return plan


def trig_sum(freqs: np.ndarray, coefs: np.ndarray, grid: np.ndarray | GridPlan,
             sine: bool = False) -> np.ndarray:
    """sum_m coefs[..., m] cos(freqs[m] T_j), or sin for sine, for real
    coefs on a uniform grid T_j = j h from T = 0 (h may be negative; [0] is
    a grid), shape coefs.shape[:-1] + (nT,).  grid is the times or their
    GridPlan, which sums on one grid share (given times, grid_plan's, which
    is the kept plan when they are the last short grid planned);
    long-double freqs let sums and differences of float64 frequencies
    enter exactly.

    A row is a one-sided type-1 transform: c_m is spread from
    x_m = freqs[m] h mod 2 pi onto a real grid of 6 nT points by the kernel
    exp(beta (sqrt(1 - z^2) - 1)), |z| <= 1, and one complex FFT of half
    its length gives F_k = phi(k) sum_m c_m exp(i k x_m), k < nT; the row
    is Re F_k / phi(k), or Im for sine.  x_m and the kernel offsets are
    long double, and the rounding delta_j (an ulp in np.linspace) is
    corrected to first order by the other part of the transform of
    freqs c_m: each is worth 1e-12.  With sum |c| = 1 the error is below
    2.5e-15 for random frequencies up to nT = 20000 and for one frequency
    at any position, while max|w T| is far below the phase-conditioning
    limit 4.5e7; the long-double positions add about |w T| * 5.4e-20 rad
    beyond it.  That limit bounds the frequencies check_phase_conditioning
    is given; reduced_states gives it the block eigenvalues and sums at up
    to twice them, so its sums reach |w T| 9e7 (about 4.9e-12 rad, not
    2.4e-12).  The first time, T = 0, is summed directly (an entropy of
    sz near 1 magnifies 1e-16 to several 1e-15).  The rows share a kernel
    table per width (_kernel_table) and run in batches of _FFT_STACK_BYTES
    of fine grids, spreading _SPREAD_BLOCK kernel points at a time: the
    same additions in the same order at any block or batch size.
    """
    plan = grid if isinstance(grid, GridPlan) else grid_plan(grid)
    w = np.asarray(freqs, dtype=np.longdouble)
    coefs = np.asarray(coefs, dtype=float)
    n_t = plan.delta.size
    out = np.empty(coefs.shape[:-1] + (n_t,))
    if n_t == 0:
        return out
    # positions in fine-grid points, in [0, n_fine): x < 2 pi, but the
    # product may round up to n_fine, which wraps to 0 as np.mod would
    u = np.mod(w * plan.h, _TWO_PI) * (plan.n_fine / _TWO_PI)
    u[u >= plan.n_fine] -= plan.n_fine
    main, fix = (_kernel_table(u, width) for width in (_ES_WIDTH, _CORRECTION_WIDTH))
    rows = out.reshape(-1, n_t)
    flat = coefs.reshape(rows.shape[0], w.size)
    # a batch's fine grids, each padded by half a main kernel at each end
    size = plan.n_fine + _ES_WIDTH
    batch = max(min(_FFT_STACK_BYTES // (8 * size), rows.shape[0]), 1)
    buf = np.empty((batch, size))
    w = w.astype(float)
    for lo in range(0, rows.shape[0], batch):
        a, part = flat[lo:lo + batch], rows[lo:lo + batch]
        grids = buf[:a.shape[0]]
        part[:] = _modes(a, *main, plan, 0, sine, grids)
        # d/dT (cos, sin) w T = w (-sin, cos) w T
        modes = _modes((w if sine else -w) * a, *fix, plan, 1, not sine, grids)
        part += np.multiply(modes, plan.delta, out=modes)
    out[..., 0] = 0.0 if sine else coefs.sum(axis=-1)
    return out


def _modes(values: np.ndarray, starts: np.ndarray, kernel: np.ndarray, plan: GridPlan,
           width_index: int, sine: bool, buf: np.ndarray) -> np.ndarray:
    """Re (Im for sine) sum_m values[r, m] exp(i k x_m), k < nT, per row r, as
    a view of buf's rows: spread in place, each block of kernel-point
    indices serving every row (a bincount returns a grid-length temporary),
    and transformed together."""
    m, width = kernel.shape
    half, pad, n_fine, n_t = width // 2, _ES_WIDTH // 2, plan.n_fine, plan.delta.size
    padded = buf[:, pad - half:pad + n_fine + half]
    padded.fill(0.0)
    rows, points = max(_SPREAD_BLOCK // width, 1), np.arange(width)
    spread = np.empty((min(rows, m), width))
    index = np.empty((min(rows, m), width), dtype=np.int64)
    for lo in range(0, m, rows):
        hi = min(lo + rows, m)
        at = np.add(starts[lo:hi, None], points, out=index[:hi - lo]).reshape(-1)
        for grid, v in zip(padded, values):
            block = np.multiply(v[lo:hi, None], kernel[lo:hi], out=spread[:hi - lo])
            np.add.at(grid, at, block.reshape(-1))
    fine = padded[:, half:half + n_fine]
    fine[:, :half] += padded[:, n_fine + half:]
    fine[:, n_fine - half:] += padded[:, :half]
    # the transform Z of the points as complex ones, even + i odd, gives with
    # Z'_k = Z_{n_fine/2 - k} (Z_{n_fine/2} = Z_0, in the pad) and twiddles c, s
    # 2 Re F_k = (Zr + Z'r) + c (Zi + Z'i) + s (Zr - Z'r) and
    # 2 Im F_k = (Zi - Z'i) + s (Zi + Z'i) - c (Zr - Z'r), in the middle third
    z = buf[:, pad:pad + n_fine + 2].view(complex)
    np.fft.ifft(z[:, :-1], norm="forward", out=z[:, :-1])
    z[:, -1] = z[:, 0]
    zk, zk_ = z[:, :n_t], z[:, n_fine // 2 - n_t + 1:][:, ::-1]
    t = buf[:, pad + 2 * n_t:pad + 4 * n_t].reshape(-1, 2, n_t)
    t1, t2 = t[:, 0], t[:, 1]
    c, s = plan.tables[1::-1] if sine else plan.tables[:2]
    op, own, own_ = (np.subtract, zk.imag, zk_.imag) if sine else (np.add, zk.real, zk_.real)
    np.multiply(np.add(zk.imag, zk_.imag, out=t1), c, out=t1)
    op(t1, np.multiply(np.subtract(zk.real, zk_.real, out=t2), s, out=t2), out=t1)
    t1 += op(own, own_, out=t2)
    t1 *= plan.tables[2 + width_index]
    return t1


def _kernel_table(u: np.ndarray, width: int) -> tuple[np.ndarray, np.ndarray]:
    """Each term's first kernel point on the fine grid padded by width / 2
    at each end, (M,), and the kernel values (M, width) at offsets from the
    long-double positions u, filled _SPREAD_BLOCK points at a time."""
    beta = _ES_BETA_PER_POINT * width
    half = width // 2
    # first kernel point floor(u) + 1 - half, in [1 - half, n_fine - half]
    # (the cast truncates u >= 0; np.floor is slow in long double)
    start = u.astype(np.int64) + (1 - half)
    off = (start - u).astype(float)  # in (-half, 1 - half]
    m = u.size
    kernel = np.empty((m, width))
    rows, points = max(_SPREAD_BLOCK // width, 1), np.arange(width)
    z, den = np.empty((2, min(rows, m), width))
    for lo in range(0, m, rows):
        hi = min(lo + rows, m)
        zb, db, kb = z[:hi - lo], den[:hi - lo], kernel[lo:hi]
        np.add(off[lo:hi, None], points, out=zb)
        zb *= 2.0 / width  # in (-1, 1]
        # exp(-beta z^2 / (1 + sqrt(1 - z^2))): without cancellation
        np.multiply(np.multiply(zb, -beta, out=kb), zb, out=kb)
        np.sqrt(np.subtract(1.0, np.multiply(zb, zb, out=db), out=db), out=db)
        db += 1.0
        np.exp(np.divide(kb, db, out=kb), out=kb)
    return start + half, kernel


def _mode_tables(n_t: int, n_fine: int) -> np.ndarray:
    """cos, sin 2 pi k / n_fine and 1 / (2 phi(k)) per kernel width at the
    modes k < n_t, (4, n_t); phi(k) = (width / 2) int_{-1}^{1} exp(beta
    (sqrt(1 - z^2) - 1)) cos(k z width pi / n_fine) dz = width Re sum_i
    W_i e^(i k nu_i) (Gauss-Legendre) is, with k = s B + b and B about
    sqrt(n_t), one product of tables W_i e^(i s B nu_i) and e^(i b nu_i)."""
    widths = np.array([_ES_WIDTH, _CORRECTION_WIDTH])
    b = math.isqrt(max(n_t - 1, 0)) + 1
    nu = np.multiply.outer(widths * (np.pi / n_fine), _GL_Z)
    weight = _GL_W * np.exp(-2.0 * _ES_BETA_PER_POINT * np.multiply.outer(widths, _GL_HALF_SQ))
    coarse = weight[:, None] * np.exp(1j * np.arange(0.0, n_t, b)[:, None] * nu[:, None])
    ft = (coarse[:, :, None, :] @ np.exp(1j * nu[:, None, :, None] * np.arange(b, dtype=float))).real
    theta = np.arange(n_t) * (2.0 * np.pi / n_fine)
    return np.concatenate([[np.cos(theta), np.sin(theta)],
                           0.5 / (widths[:, None] * ft.reshape(2, -1)[:, :n_t])])
