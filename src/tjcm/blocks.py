"""Excitation-conserving 4x4 blocks of the interaction Hamiltonian and
their spectrum.

With both atoms initially excited and the field in a number state |n>, the
interaction couples only |+,+,n>, |+,-,n+l>, |-,+,n+l> and |-,-,n+2l>, so
the joint dynamics factorizes into independent 4x4 blocks labelled by the
base photon number n.  Callers pass the base range n_min..n_max of the
coherent weights' window (params.FockWeights.window): the blocks below
n_min carry at most 1e-8 * cutoff_eps of the weight together.  Each block
is bipartite, H = [[0, C], [C^T, 0]] between the components (0, 3) and
(1, 2), so its spectrum is +-sigma1, +-sigma2 and its eigenvectors
(u_i, +-v_i) / sqrt(2) come from the SVD of the 2x2 matrix C in closed
form (_coupling_svd; Golub & Van Loan, Matrix Computations, 4th ed., 8.6).
block_spectrum, the one entry, returns those vectors and the eigenvalues
of a batched cyclic Jacobi eigensolver (jacobi_eigh), cross-checked
against the closed form's (check_spectrum).  Block n's amplitudes are
sum_k exp(-i w_k T) <v_k|e1> v_k, so every analytic output is a finite
cosine or sine sum with real coefficients over this spectrum
(transform.trig_sum).
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .errors import InternalConsistencyError, InvalidParameterError

# _coupling_svd's closed-form eigenvectors are orthonormal, and the block
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
_JACOBI_TOL = 1e-14
_JACOBI_MAX_SWEEPS = 50


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


def _coupling_svd(sq1: np.ndarray, sq2: np.ndarray, g: float) -> tuple[np.ndarray, ...]:
    """Closed-form SVD C = sigma1 u1 v1^T + sigma2 u2 v2^T of the coupling
    C = [[g f1, f1], [f2, g f2]] of blocks whose squared strengths are sq1 =
    f1^2 and sq2 = f2^2 (_squared_strengths; rows the components 0 and 3,
    columns 1 and 2): sigma (2, N), c and s (N,) with u1 = (c, s), and v1
    (2, N).  The other pair is u2 = (-s, c) and v2 = sign(g^2 - 1) (-v1[1],
    v1[0]), since C^T J = det(C) J C^-1 for the quarter turn J and det C =
    f1 f2 (g^2 - 1).

    With a, d = (1 + g^2) f1^2, f2^2 and b = 2 g f1 f2 the entries of C C^T
    and r = hypot((d - a) / 2, b): sigma1 = sqrt((a + d) / 2 + r), sigma2 =
    f1 f2 |g^2 - 1| / sigma1, and u1 = (cos t, sin t), t = atan2(2b, a - d)
    / 2, is the unit vector along (b, r + (d - a) / 2), where nothing
    cancels (d >= a) and g = 0 gives (0, 1) exactly.  d - a comes from the
    exact ladder products f^2, not squared square roots (which cost u1 100
    eps at g 1e3, l 1).  v1 is C^T u1 over its length."""
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
# the rows of the coupling entries g f1, f1, f2 and g f2 of a block
_COUPLING_ROWS = [_packed_row(i, j) for i, j in ((0, 1), (0, 2), (1, 3), (2, 3))]
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


def jacobi_eigh(state: np.ndarray) -> np.ndarray:
    """Eigenvalues (N, 4), ascending, of N real symmetric 4x4 matrices held
    in a packed (10, N) state, by cyclic Jacobi rotations.  The state holds
    the entries of each matrix's upper triangle (_UPPER), a row per entry
    and a column per matrix, and the rotations overwrite it.

    Each matrix is swept until its off-diagonal Frobenius norm drops below
    _JACOBI_TOL relative to its norm; a converged matrix takes no further
    rotations, and none zeroes an a[p, q] that is already 0, so every
    matrix gets the arithmetic it would get alone.  Rotation-based, so
    degenerate eigenvalues (the symmetric-coupling case has a double zero)
    need no special handling.  No eigenvectors are accumulated: the
    blocks' come from the closed form (_coupling_svd).

    A rotation (p, q) updates a[p, p] and a[q, q], zeroes a[p, q] and turns
    2 pairs (x, y) into (c x - s y, s x + c y) with one gather and one
    scatter; it works on the whole state in place while every matrix takes
    it, and on a gathered copy of the matrices that do once some have
    converged.

    A rotation's angle is half the C library's atan2(2 a[p, q], a[q, q] -
    a[p, p]), for all its matrices in one call (_atan2, through numpy's
    complex log).  np.arctan2 in its place changed every spectrum and
    moved the benchmark's default-seed sweep outputs 6.2e-13 from their
    reference (62% of its 1e-12 gate).  np.cos and np.sin matched math.cos
    and math.sin on all 1e6 inputs tested.
    """
    sq = state ** 2
    scale = np.maximum(np.sqrt(sq[_DIAG_ROWS].sum(axis=0) + 2.0 * sq[_OFF_ROWS].sum(axis=0)), 1.0)
    n = state.shape[1]
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


def check_spectrum(vals: np.ndarray, sigma: np.ndarray) -> None:
    """Refuse Jacobi eigenvalues whose sigma1 = (w_3 - w_0) / 2 or sigma2 =
    (w_2 - w_1) / 2 misses the closed form's sigma (_coupling_svd) by more
    than _SIGMA_TOL eps * sigma1, or that are off +- symmetry by more than
    _SYMMETRY_TOL, which block_spectrum's w assumes."""
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


def block_spectrum(n_max: int, l: int, g: float, n_min: int = 0) -> tuple[np.ndarray, ...]:
    """The checked spectrum of the blocks n_min..n_max: w (N, 4), (-s1,
    -s2, s2, s1) in long double, and the closed form's c, s and v1
    (_coupling_svd).  The parameters and the coupling are checked
    (InvalidParameterError) and the squared strengths formed once; s1 =
    (w_3 - w_0) / 2 and s2 = (w_2 - w_1) / 2 of the Jacobi's eigenvalues
    of the blocks packed from their couplings g f1, f1, f2 and g f2,
    which are checked first (check_spectrum; InternalConsistencyError)."""
    sq1, sq2 = _squared_strengths(n_max, l, g, n_min)
    sigma, c, s, v1 = _coupling_svd(sq1, sq2, g)
    f1, f2 = np.sqrt(sq1), np.sqrt(sq2)
    state = np.zeros((len(_UPPER), f1.size))
    state[_COUPLING_ROWS] = g * f1, f1, f2, g * f2
    vals = jacobi_eigh(state)
    check_spectrum(vals, sigma)
    w = vals.astype(np.longdouble)
    w[:, 2:] -= w[:, 1::-1]
    w[:, 2:] /= 2
    w[:, :2] = -w[:, :1:-1]
    return w, c, s, v1
