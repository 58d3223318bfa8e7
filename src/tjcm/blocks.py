"""Excitation-conserving 4x4 blocks of the interaction Hamiltonian, and
trig sums over their spectrum.

With both atoms initially excited and the field in a number state |n>, the
interaction couples only |+,+,n>, |+,-,n+l>, |-,+,n+l> and |-,-,n+2l>, so
the joint dynamics factorizes into independent 4x4 blocks labelled by the
base photon number n.  Callers pass the base range n_min..n_max of the
coherent weights' window (params.FockWeights.window): the blocks below
n_min carry at most 1e-8 * cutoff_eps of the weight together.  Each block
is bipartite, H = [[0, C], [C^T, 0]] between the components (0, 3) and
(1, 2), so its spectrum is +-sigma1, +-sigma2 and its eigenvectors
(u_i, +-v_i) / sqrt(2) come from the SVD of the 2x2 matrix C in closed
form (block_svd; Golub & Van Loan, Matrix Computations, 4th ed., 8.6).
The eigenvalues the package evaluates are those of a batched cyclic Jacobi
eigensolver (jacobi_eigh), cross-checked against the closed form's
(check_spectrum).  Block n's amplitudes are sum_k exp(-i w_k T) <v_k|e1>
v_k, so every analytic output is a finite cosine or sine sum with real
coefficients; trig_sum evaluates one on a uniform grid as a one-sided
type-1 nonuniform FFT (Dutt & Rokhlin, SIAM J. Sci. Comput. 14 (1993)
1368) with the "exponential of semicircle" kernel of Barnett, Magland &
af Klinteberg (SIAM J. Sci. Comput. 41 (2019) C479), in O(M w + nT log nT)
for M terms on nT times instead of O(M nT) cosines.
"""

from __future__ import annotations

import itertools
import math
from collections import namedtuple

import numpy as np

from .errors import ContractViolationError, InternalConsistencyError, InvalidParameterError

# block_svd's closed-form eigenvectors are orthonormal, and the block
# amplitudes they give unit vectors, within 9 eps: the measured worst is 3 eps for the
# vectors and 6 for the amplitudes (1500 sets, alpha 0-30, l 1-10, g 0, 1
# and 1e-6-1e6)
_NORM_TOL = 2e-15
# |w_0 + w_3|, |w_1 + w_2| in eps * max|w|: the Jacobi's measured worst is 8
_SYMMETRY_TOL = 16.0
# |sigma_i - closed form| in eps * sigma1: the Jacobi's measured worst is 5.9
# (the sweeps of seeds 0-2; g 0-1e6, l 1-10, n <= 400)
_SIGMA_TOL = 16.0
_EPS, _MAX = np.finfo(float).eps, np.finfo(float).max
# phase error bound max|w|*max|T|*eps: the accuracy verify promises (STATE_DEV_TOL)
_PHASE_COND_TOL = 1e-8
_JACOBI_TOL = 1e-14
_JACOBI_MAX_SWEEPS = 50
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


def transition_strength(n: int | np.ndarray, l: int) -> float | np.ndarray:
    """Matrix element sqrt((n+l)! / n!) of the l-photon ladder operator, for
    an int or a float array of n: the square root of _ladder_product."""
    return np.sqrt(_ladder_product(n, l))


def _ladder_product(n: int | np.ndarray, l: int) -> float | np.ndarray:
    """(n+l)! / n! accumulated as the product (n+1)(n+2)...(n+l), never a
    full factorial, which would overflow; exact while it stays below 2^53."""
    p = 1.0
    for k in range(1, l + 1):
        p = p * (n + k)
    return p


def _squared_strengths(n_max: int, l: int, g: float, n_min: int) -> tuple[np.ndarray, np.ndarray]:
    """The squared couplings f1^2 = f(n, l)^2 and f2^2 = f(n + l, l)^2 of
    the blocks n = n_min..n_max (_ladder_product), after the parameters
    and check_coupling pass."""
    if not isinstance(n_max, int) or n_max < 0:
        raise InvalidParameterError(f"n_max must be an integer >= 0, got {n_max}")
    if not isinstance(n_min, int) or not 0 <= n_min <= n_max:
        raise InvalidParameterError(
            f"n_min must be an integer in [0, n_max = {n_max}], got {n_min}"
        )
    if not isinstance(l, int) or l < 1:
        raise InvalidParameterError(f"l must be an integer >= 1, got {l}")
    if not (g >= 0.0 and math.isfinite(g)):
        raise InvalidParameterError(f"g must be >= 0, got {g}")
    check_coupling(n_max, l, g)
    n = np.arange(n_min, n_max + 1, dtype=float)
    return _ladder_product(n, l), _ladder_product(n + l, l)


def block_matrices(n_max: int, l: int, g: float, n_min: int = 0) -> np.ndarray:
    """Interaction blocks for base photon numbers n_min..n_max, shape
    (N, 4, 4) with N = n_max - n_min + 1.

    Atom 1 couples |+,+,n> to |-,+,n+l> (and |+,-,n+l> to |-,-,n+2l>)
    with unit weight; atom 2 couples the corresponding pair with weight g.
    g = 0 is allowed as the decoupling limit (atom 2 frozen, atom 1
    Rabi-flops alone), which makes a convenient structural check.
    """
    f1, f2 = np.sqrt(_squared_strengths(n_max, l, g, n_min))
    h = np.zeros((f1.size, 4, 4))
    for (i, j), f in (((0, 1), g * f1), ((0, 2), f1), ((1, 3), f2), ((2, 3), g * f2)):
        h[:, i, j] = h[:, j, i] = f
    return h


def check_coupling(n_max: int, l: int, g: float) -> None:
    """Refuse couplings whose largest block, n = n_max, has a squared
    Frobenius norm 2 (1 + g^2) (f(n, l)^2 + f(n + l, l)^2) beyond the
    largest double, where the Jacobi scale overflows; in logarithms, with
    log f(n, l)^2 = lgamma(n + l + 1) - lgamma(n + 1), so nothing overflows."""
    log_f1, log_f2 = (math.lgamma(n + l + 1) - math.lgamma(n + 1) for n in (n_max, n_max + l))
    log_sq = (math.log(2.0) + 2.0 * math.log(math.hypot(1.0, g))
              + log_f2 + math.log1p(math.exp(log_f1 - log_f2)))
    if log_sq > math.log(_MAX):
        raise InvalidParameterError(
            f"coupling too strong: the squared norm of block n = {n_max}, about "
            f"1e{log_sq / math.log(10.0):.0f}, exceeds the largest double "
            f"{_MAX:.1e}; lower g, l or alpha"
        )


def block_svd(n_max: int, l: int, g: float, n_min: int = 0) -> tuple[np.ndarray, ...]:
    """Closed-form SVD C = sigma1 u1 v1^T + sigma2 u2 v2^T of the coupling
    C = [[g f1, f1], [f2, g f2]] of the blocks n_min..n_max (rows the
    components 0 and 3, columns 1 and 2; f1 = f(n, l), f2 = f(n + l, l)):
    sigma (2, N), c and s (N,) with u1 = (c, s), and v1 (2, N).  The other
    pair is u2 = (-s, c) and v2 = sign(g^2 - 1) (-v1[1], v1[0]), since
    C^T J = det(C) J C^-1 for the quarter turn J and det C = f1 f2 (g^2 - 1).

    With a, d = (1 + g^2) f1^2, f2^2 and b = 2 g f1 f2 the entries of C C^T
    and r = hypot((d - a) / 2, b): sigma1 = sqrt((a + d) / 2 + r), sigma2 =
    f1 f2 |g^2 - 1| / sigma1, and u1 = (cos t, sin t), t = atan2(2b, a - d)
    / 2, is the unit vector along (b, r + (d - a) / 2), where nothing
    cancels (d >= a) and g = 0 gives (0, 1) exactly.  d - a comes from the
    exact ladder products f^2, not squared square roots (which cost u1 100
    eps at g 1e3, l 1).  v1 is C^T u1 over its length."""
    sq1, sq2 = _squared_strengths(n_max, l, g, n_min)
    f1, f2 = np.sqrt(sq1), np.sqrt(sq2)
    gg = 1.0 + g * g
    half, b = (0.5 * gg) * (sq2 - sq1), 2.0 * g * f1 * f2
    r = np.hypot(half, b)
    sigma1 = np.sqrt((0.5 * gg) * (sq1 + sq2) + r)
    sigma2 = f1 * f2 * abs(g * g - 1.0) / sigma1
    up = r + half
    norm = np.hypot(b, up)
    c, s = b / norm, up / norm
    v1 = np.array([g * f1 * c + f2 * s, f1 * c + g * f2 * s])
    v1 /= np.hypot(v1[0], v1[1])
    return np.array([sigma1, sigma2]), c, s, v1


# jacobi_eigh's packed state, one column per block: the upper triangle of
# a (row-major), a row per entry
_UPPER = [(i, j) for i in range(4) for j in range(i, 4)]


def _packed_row(i: int, j: int) -> int:
    """Row of a[i, j] (= a[j, i]) in jacobi_eigh's packed state."""
    return _UPPER.index((min(i, j), max(i, j)))


_DIAG_ROWS = [_packed_row(i, i) for i in range(4)]
# a[0, 2], a[1, 2], a[0, 1], a[0, 3], a[1, 3], a[2, 3]: the order in which
# np.sum(np.tril(a, -1) ** 2, axis=(1, 2)) adds their squares
_OFF_ROWS = [_packed_row(i, j) for i, j in ((0, 2), (1, 2), (0, 1), (0, 3), (1, 3), (2, 3))]
# per cyclic rotation (p, q): the rows of a[p, p], a[q, q] and a[p, q], and
# of the pairs (x, y) = (a[i, p], a[i, q]) it turns, i not p or q: x's 2
# rows then y's
_ROTATIONS = [
    (_packed_row(p, p), _packed_row(q, q), _packed_row(p, q), np.array(
        [[_packed_row(i, k) for i in range(4) if i != p and i != q] for k in (p, q)]).reshape(-1))
    for p, q in itertools.combinations(range(4), 2)
]


def _atan2(y: np.ndarray, x: np.ndarray, z: np.ndarray) -> np.ndarray:
    """The C library's atan2(y, x) (math.atan2) elementwise, bit for bit,
    for y != 0: the argument of z = x + i y, which numpy's complex log
    takes from libm's carg, that is atan2.  np.arctan2 is not libm's: its
    own SIMD loops differ in the last bit on up to 7.7% of the Jacobi's
    inputs.  y != 0 keeps z off 0, where the log divides by zero; the
    discarded real part, log |z|, may underflow.  z is a complex buffer of
    y's shape to work in, and the result is a view of it."""
    z.real, z.imag = x, y
    return np.log(z, out=z).imag


def jacobi_eigh(h: np.ndarray) -> np.ndarray:
    """Eigenvalues (N, 4), ascending, of a stack of real symmetric 4x4
    matrices, by cyclic Jacobi rotations.

    Each matrix is swept until its off-diagonal Frobenius norm drops below
    _JACOBI_TOL relative to its norm; a converged matrix takes no further
    rotations, and none zeroes an a[p, q] that is already 0, so every
    matrix gets the arithmetic it would get alone.  Rotation-based, so
    degenerate eigenvalues (the symmetric-coupling case has a double zero)
    need no special handling.  No eigenvectors are accumulated: the
    blocks' come from block_svd.

    The stack is held as one packed (10, N) state, the entries of a's
    upper triangle (a stays exactly symmetric), a row per entry.  A
    rotation (p, q) updates a[p, p] and a[q, q], zeroes a[p, q] and turns
    2 pairs (x, y) into (c x - s y, s x + c y) with one gather and one
    scatter; it works on the whole state in place while every block takes
    it, and on a gathered copy of the blocks that do once some have
    converged.

    A rotation's angle is half the C library's atan2(2 a[p, q], a[q, q] -
    a[p, p]), for all its blocks in one call (_atan2, through numpy's
    complex log).  np.arctan2 in its place changed every spectrum and
    moved the benchmark's default-seed sweep outputs 6.2e-13 from their
    reference (62% of its 1e-12 gate).  np.cos and np.sin matched math.cos
    and math.sin on all 1e6 inputs tested.
    """
    a = np.array(h, dtype=float)
    if a.ndim != 3 or a.shape[1:] != (4, 4) or not np.array_equal(a, a.transpose(0, 2, 1)):
        raise ContractViolationError("blocks must be a stack of symmetric 4x4 matrices")
    with np.errstate(over="ignore", invalid="ignore"):
        scale = np.maximum(np.linalg.norm(a, axis=(1, 2)), 1.0)
    if not np.all(np.isfinite(scale)):
        raise ContractViolationError("blocks must have finite Frobenius norms")
    n = a.shape[0]
    state = a.reshape(n, 16)[:, [4 * i + j for i, j in _UPPER]].T.copy()
    buf = np.empty(n, complex)
    for _ in range(_JACOBI_MAX_SWEEPS):
        sq = state[_OFF_ROWS] ** 2
        off = np.sqrt(((sq[0] + sq[1]) + (((sq[2] + sq[3]) + sq[4]) + sq[5])) * 2.0)
        live = off > _JACOBI_TOL * scale
        if not live.any():
            break
        for pp, qq, pq, pairs in _ROTATIONS:
            # one two-sided rotation zeroing a[p, q] in every live block
            # where it is nonzero
            idx = (live & (state[pq] != 0.0)).nonzero()[0]
            if idx.size == 0:
                continue
            sub = state if idx.size == n else state[:, idx]
            apq, app, aqq = sub[pq], sub[pp], sub[qq]
            phi = 0.5 * _atan2(2.0 * apq, aqq - app, buf[:idx.size])
            c, s = np.cos(phi), np.sin(phi)
            sc2 = 2.0 * s * c * apq
            ends = sub[[pp, qq]]
            c_diag, s_diag = (c * c) * ends, (s * s) * ends
            np.add(c_diag[0], s_diag[1], out=app)  # c^2 app + s^2 aqq - 2 s c apq
            app -= sc2
            np.add(s_diag[0], c_diag[1], out=aqq)  # s^2 app + c^2 aqq + 2 s c apq
            aqq += sc2
            apq[:] = 0.0
            xy = sub[pairs]
            cxy, sxy = c * xy, s * xy
            np.subtract(cxy[:2], sxy[2:], out=xy[:2])
            np.add(sxy[:2], cxy[2:], out=xy[2:])
            sub[pairs] = xy
            if sub is not state:
                state[:, idx] = sub
    else:
        raise InternalConsistencyError("Jacobi sweeps failed to converge")
    return np.sort(state[_DIAG_ROWS].T, axis=1, kind="stable")


def check_phase_conditioning(vals: np.ndarray, t_grid: np.ndarray,
                             knobs: tuple[str, ...] = ("t_max", "alpha", "g", "l")) -> None:
    """Refuse a grid whose phase error bound max|w| * max|T| * eps exceeds
    _PHASE_COND_TOL, naming the knobs that move it."""
    with np.errstate(over="ignore"):  # an infinite bound is refused below
        cond = np.abs(vals).max(initial=0.0) * np.abs(t_grid).max(initial=0.0) * _EPS
    if cond > _PHASE_COND_TOL:
        raise InvalidParameterError(
            f"phase conditioning max|w|*max|T|*eps = {cond:.3e} exceeds "
            f"{_PHASE_COND_TOL:.0e}; lower {', '.join(knobs[:-1])} or {knobs[-1]}"
        )


def check_spectrum(vals: np.ndarray, sigma: np.ndarray) -> None:
    """Refuse Jacobi eigenvalues whose sigma1 = (w_3 - w_0) / 2 or sigma2 =
    (w_2 - w_1) / 2 misses the closed form's sigma (block_svd) by more than
    _SIGMA_TOL eps * sigma1, or that are off +- symmetry by more than
    _SYMMETRY_TOL, which reduced_states assumes."""
    miss = np.maximum(np.abs(0.5 * (vals[:, 3] - vals[:, 0]) - sigma[0]),
                      np.abs(0.5 * (vals[:, 2] - vals[:, 1]) - sigma[1]))
    worst = float((miss / (_EPS * sigma[0])).max(initial=0.0))
    if not worst <= _SIGMA_TOL:
        raise InternalConsistencyError(
            f"block spectrum misses the closed form's sigma by {worst:.1f} eps * sigma1, "
            f"beyond {_SIGMA_TOL:.0f}"
        )
    skew = np.maximum(np.abs(vals[:, 0] + vals[:, 3]), np.abs(vals[:, 1] + vals[:, 2]))
    worst = float((skew / (_EPS * np.abs(vals).max(axis=1))).max(initial=0.0))
    if not worst <= _SYMMETRY_TOL:
        raise InternalConsistencyError(
            f"block spectrum is not +- symmetric: |w_0 + w_3| or |w_1 + w_2| is "
            f"{worst:.1f} eps * max|w|, beyond {_SYMMETRY_TOL:.0f}"
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
    beyond it.  The first time, T = 0, is summed directly (an entropy of
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
