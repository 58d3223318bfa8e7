"""Shared fixtures: full-channel preset scans and oracle cross-checks,
and the references the analytic path is checked against: the dense
blocks, the Jacobi's spectrum with its eigenvectors (eigen_table), mpmath,
and one long-double evaluator (block_amplitudes, contract) fed either
blocks.block_spectrum's own spectrum (package_spectrum, reduced_direct)
or the exact closed form (truth_spectrum, truth_states).

The expensive artifacts (2500-point scans, full product-space RK4
trajectories) are session-scoped so the unit tests and the acceptance
suite share one computation.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import replace

import numpy as np
import pytest

from tjcm import InternalConsistencyError, blocks, oracle
from tjcm.blocks import _NORM_TOL, jacobi_eigh
from tjcm.params import coherent_weights
from tjcm.reduced import AtomId, ReducedAtomState, max_deviation, reduced_states
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


def through(T: float) -> list[float]:
    """The shortest uniform grid from T = 0 that ends at the time T: [0, T],
    or [0] at T = 0.  The analytic layer evaluates one time as its last."""
    return [0.0, T] if T != 0.0 else [0.0]


def sliced(state: ReducedAtomState, index) -> ReducedAtomState:
    """The state at the times state.sz[index] (trace and sx are scalars)."""
    return replace(state, sy=state.sy[index], sz=state.sz[index])


def block_matrices(n_max: int, l: int, g: float, n_min: int = 0) -> np.ndarray:
    """Interaction blocks for base photon numbers n_min..n_max, shape
    (N, 4, 4) with N = n_max - n_min + 1: the dense matrices the block
    spectrum is checked against.

    Atom 1 couples |+,+,n> to |-,+,n+l> (and |+,-,n+l> to |-,-,n+2l>)
    with unit weight; atom 2 couples the corresponding pair with weight g.
    g = 0 is allowed as the decoupling limit (atom 2 frozen, atom 1
    Rabi-flops alone), which makes a convenient structural check.  The
    parameters are checked as blocks.block_spectrum checks them.
    """
    f1, f2 = np.sqrt(blocks._squared_strengths(n_max, l, g, n_min))
    h = np.zeros((f1.size, 4, 4))
    for (i, j), f in (((0, 1), g * f1), ((0, 2), f1), ((1, 3), f2), ((2, 3), g * f2)):
        h[:, i, j] = h[:, j, i] = f
    return h


def packed(h: np.ndarray) -> np.ndarray:
    """The packed (10, N) state that blocks.jacobi_eigh takes, of a stack h
    of symmetric 4x4 matrices: the entries of each upper triangle, a row
    per entry (blocks._UPPER)."""
    h = np.asarray(h, dtype=float)
    return np.array([h[:, i, j] for i, j in blocks._UPPER])


def coupling_svd(n_max: int, l: int, g: float, n_min: int = 0) -> tuple[np.ndarray, ...]:
    """The closed-form SVD (sigma (2, N), c, s, v1 (2, N)) of the couplings
    of the blocks n_min..n_max (blocks._coupling_svd), the sigma included
    that block_spectrum only checks against."""
    return blocks._coupling_svd(*blocks._squared_strengths(n_max, l, g, n_min), g)


def eigen_table(
    n_max: int, l: int, g: float, n_min: int = 0
) -> tuple[np.ndarray, np.ndarray]:
    """Block spectrum (vals (N, 4), vecs (N, 4, 4)) for every base photon
    number n_min..n_max: the Jacobi's eigenvalues, ascending, and as
    columns the closed-form eigenvectors (u1, -v1), (u2, -v2), (u2, v2),
    (u1, v1) over sqrt(2) (coupling_svd; at g = 1, where sigma2 = 0, v2 is
    (-v1[1], v1[0])), each signed so that its largest-magnitude entry is
    positive.  Every block's arithmetic is its own, so these rows are
    bitwise those of the table from 0."""
    vals = jacobi_eigh(packed(block_matrices(n_max, l, g, n_min)))
    _, c, s, (p1, p2) = coupling_svd(n_max, l, g, n_min)
    sign = np.sign(g * g - 1.0) or 1.0
    q1, q2 = -sign * p2, sign * p1
    # (component, column): components 0..3 are (u[0], v[0], v[1], u[1])
    vecs = np.sqrt(0.5) * np.array([[c, -s, -s, c], [-p1, -q1, q1, p1],
                                    [-p2, -q2, q2, p2], [s, c, c, s]]).transpose(2, 0, 1)
    pivot = np.take_along_axis(vecs, np.argmax(np.abs(vecs), axis=1)[:, None, :], axis=1)
    vecs *= np.where(pivot < 0.0, -1.0, 1.0)
    return vals, vecs


def closed_form_x(n: int, T: float | np.ndarray) -> np.ndarray:
    """Closed-form amplitudes (x1, x2, x3, x4) for the single-photon
    symmetric case (l = 1, g = 1), where the block spectrum is
    {0, 0, +w, -w} with w = sqrt(4n + 6):

        x1 = [(n+1) cos(wT) + (n+2)] / (2n+3)
        x2 = x3 = -sqrt(n+1) sin(wT) / w
        x4 = sqrt((n+1)(n+2)) [cos(wT) - 1] / (2n+3)

    Returns an array of shape (4,) + shape(T): an independent reference
    for the closed form (coupling_svd).
    """
    w = math.sqrt(4.0 * n + 6.0)
    T = np.asarray(T, dtype=float)
    c, s = np.cos(T * w), np.sin(T * w)
    x1 = ((n + 1.0) * c + (n + 2.0)) / (2.0 * n + 3.0)
    x23 = -math.sqrt(n + 1.0) / w * s
    x4 = math.sqrt((n + 1.0) * (n + 2.0)) / (2.0 * n + 3.0) * (c - 1.0)
    return np.stack([x1, x23, x23, x4])


def jacobi_reference(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """blocks.jacobi_eigh as it was written on the (N, 4, 4) stack, with its
    eigenvectors: the same cyclic rotations, formulas, convergence mask,
    sort and sign fix, about 60 fancy-indexed operations per rotation.
    jacobi_eigh of the packed stack must give its eigenvalues bit for bit,
    and eigen_table's closed-form eigenvectors must match its vectors to
    rounding."""
    a = np.array(h, dtype=float)
    if a.ndim != 3 or a.shape[1:] != (4, 4) or not np.array_equal(a, a.transpose(0, 2, 1)):
        raise AssertionError("blocks must be a stack of symmetric 4x4 matrices")
    v = np.broadcast_to(np.eye(4), a.shape).copy()
    with np.errstate(over="ignore", invalid="ignore"):
        scale = np.maximum(np.linalg.norm(a, axis=(1, 2)), 1.0)
    if not np.all(np.isfinite(scale)):
        raise AssertionError("blocks must have finite Frobenius norms")
    for _ in range(blocks._JACOBI_MAX_SWEEPS):
        off = np.sqrt(np.sum(np.tril(a, -1) ** 2, axis=(1, 2)) * 2.0)
        live = off > blocks._JACOBI_TOL * scale
        if not live.any():
            break
        for p, q in itertools.combinations(range(4), 2):
            # one two-sided rotation zeroing a[p, q] in every live block
            # where it is nonzero, accumulated into v
            idx = np.flatnonzero(live & (a[:, p, q] != 0.0))
            s_a, s_v = a[idx], v[idx]
            apq, app, aqq = s_a[:, p, q].copy(), s_a[:, p, p].copy(), s_a[:, q, q].copy()
            y, x = (2.0 * apq).tolist(), (aqq - app).tolist()
            phi = 0.5 * np.array(list(map(math.atan2, y, x)))  # libm atan2
            c, s = np.cos(phi), np.sin(phi)
            s_a[:, p, p] = c * c * app + s * s * aqq - 2.0 * s * c * apq
            s_a[:, q, q] = s * s * app + c * c * aqq + 2.0 * s * c * apq
            s_a[:, p, q] = s_a[:, q, p] = 0.0
            rest = [i for i in range(4) if i != p and i != q]
            aip, aiq = s_a[:, rest, p], s_a[:, rest, q]
            c, s = c[:, None], s[:, None]
            s_a[:, rest, p] = s_a[:, p, rest] = c * aip - s * aiq
            s_a[:, rest, q] = s_a[:, q, rest] = c * aiq + s * aip
            vip, viq = s_v[:, :, p].copy(), s_v[:, :, q].copy()
            s_v[:, :, p] = c * vip - s * viq
            s_v[:, :, q] = s * vip + c * viq
            a[idx], v[idx] = s_a, s_v
    else:
        raise InternalConsistencyError("Jacobi sweeps failed to converge")
    diag = np.diagonal(a, axis1=1, axis2=2)
    order = np.argsort(diag, axis=1, kind="stable")
    vals = np.take_along_axis(diag, order, axis=1)
    vecs = np.take_along_axis(v, order[:, None, :], axis=2)
    pivot = np.take_along_axis(vecs, np.argmax(np.abs(vecs), axis=1)[:, None, :], axis=1)
    vecs *= np.where(pivot < 0.0, -1.0, 1.0)
    return vals, vecs


def package_spectrum(n_max, l, g, n_min=0):
    """blocks.block_spectrum's own spectrum of the blocks n_min..n_max as
    block_amplitudes takes it: sigma1 = w_3 and sigma2 = w_2 in long
    double, its c, s and v1, and v2 = sign(g^2 - 1) (-v1[1], v1[0]) as
    reduced_states forms it (0 at g = 1, where the Jacobi's sigma2 is
    +-tiny)."""
    w, c, s, v1 = blocks.block_spectrum(n_max, l, g, n_min)
    return w[:, 3], w[:, 2], c, s, v1, np.sign(g * g - 1.0) * np.array([-v1[1], v1[0]])


def truth_spectrum(ns, l, g):
    """(sigma1, sigma2, c, s, v1, v2) of the blocks with the base photon
    numbers ns, in long double by the closed form of blocks._coupling_svd
    from the exact ladder products f1^2 = (n+1)...(n+l) and f2^2 =
    (n+l+1)...(n+2l), and v2 = sign(g^2 - 1) (-v1[1], v1[0])."""
    ld = np.longdouble
    n = np.asarray(ns, dtype=ld)
    sq1, sq2 = (np.prod([m + k for k in range(1, l + 1)], axis=0) for m in (n, n + l))
    g, f1, f2 = ld(g), np.sqrt(sq1), np.sqrt(sq2)
    half, b = (1 + g * g) / 2 * (sq2 - sq1), 2 * g * f1 * f2
    r = np.hypot(half, b)
    sigma1 = np.sqrt((1 + g * g) / 2 * (sq1 + sq2) + r)
    sigma2 = f1 * f2 * abs(g * g - 1) / sigma1
    norm = np.hypot(b, r + half)
    c, s = b / norm, (r + half) / norm
    v1 = np.array([g * f1 * c + f2 * s, f1 * c + g * f2 * s])
    v1 /= np.hypot(v1[0], v1[1])
    return sigma1, sigma2, c, s, v1, np.sign(g * g - 1) * np.array([-v1[1], v1[0]])


def block_amplitudes(spectrum, ts):
    """(x1, x2, x3, x4) of the blocks of a spectrum (sigma1, sigma2, c, s,
    v1, v2) (package_spectrum or truth_spectrum) at the times ts, shape
    (4, nT, N), in long double by the closed form

        x1 = c^2 cos sigma1 T + s^2 cos sigma2 T,
        x4 = c s (cos sigma1 T - cos sigma2 T),
        (x2, x3) = -(c sin sigma1 T v1 - s sin sigma2 T v2),

    the times being the float64 grid's, made long double exactly.  A
    spectrum whose amplitudes miss unit norm at some (T, n) by more than
    _NORM_TOL is refused (InternalConsistencyError)."""
    sigma1, sigma2, c, s, v1, v2 = (np.asarray(a, dtype=np.longdouble) for a in spectrum)
    t = np.asarray(ts, dtype=float).astype(np.longdouble)[:, None]
    e1, e2 = np.exp(1j * (t * sigma1)), np.exp(1j * (t * sigma2))
    x = np.array([c * c * e1.real + s * s * e2.real, s * e2.imag * v2[0] - c * e1.imag * v1[0],
                  s * e2.imag * v2[1] - c * e1.imag * v1[1], c * s * (e1.real - e2.real)])
    norm_dev = float(np.max(np.abs(np.einsum("jtn,jtn->tn", x, x) - 1), initial=0.0))
    if norm_dev > _NORM_TOL:
        raise InternalConsistencyError(f"amplitude norm deviates from 1 by {norm_dev:.3e}")
    return x


def contract(x, pop, pair, l):
    """{atom: (trace, sz, sy)} in long double of the amplitudes x (4, nT, N)
    of consecutive blocks n, weighted by pop (N,) = c_n^2 and by pair =
    c_n c_{n+l}, one per block n whose block n + l is in x: trace and sz
    are pop @ (x1^2 + x2^2 +- (x3^2 + x4^2)) and sy is 2 pair @ (x2(n + l)
    x4(n) - x3(n) x1(n + l)); atom 2 swaps x2 and x3."""
    pop, pair = (np.asarray(v, dtype=np.longdouble) for v in (pop, pair))
    p = (x * x) @ pop  # (4, nT): each component's population
    up, lo = x[:, :, l:], x[:, :, :pair.size]  # blocks n + l and n
    out = {}
    for atom, (i2, i3) in ((AtomId.FIRST, (1, 2)), (AtomId.SECOND, (2, 1))):
        plus, minus = p[0] + p[i2], p[i3] + p[3]
        out[atom] = plus + minus, plus - minus, 2 * ((up[i2] * lo[3] - lo[i3] * up[0]) @ pair)
    return out


def reduced_direct(weights, l, g, ts, window=True):
    """{atom: ReducedAtomState} at the times ts, contracted directly in long
    double (block_amplitudes, contract) from the spectrum reduced_states
    sums (package_spectrum), unmerged and with no transform: the reference
    for its trig sums.  Over the blocks of its window with its weights
    (weights.window), or, with window=False, over every block from n = 0
    with the weights c_n^2 and c_n c_{n+l}."""
    if window:
        n_min, pop, pair = weights.window(l)
    else:
        c = weights.c
        n_min, pop, pair = 0, c * c, c[:-l] * c[l:]
    x = block_amplitudes(package_spectrum(weights.n_max, l, g, n_min), ts)
    return {atom: ReducedAtomState(trace=trace.astype(float), sx=0.0, sy=sy.astype(float),
                                   sz=sz.astype(float))
            for atom, (trace, sz, sy) in contract(x, pop, pair, l).items()}


def mp_block(n: int, l: int, g: float, dps: int = 30):
    """Block n's eigenvalues (ascending) and eigenvectors (columns), from
    mpmath.eigsy at dps digits on the exactly built block: the truth the
    closed form is checked against."""
    mp = pytest.importorskip("mpmath").mp
    with mp.workdps(dps):
        g, (f1, f2) = mp.mpf(g), (mp.sqrt(math.prod(range(k + 1, k + l + 1))) for k in (n, n + l))
        h = mp.zeros(4, 4)
        for (i, j), f in (((0, 1), g * f1), ((0, 2), f1), ((1, 3), f2), ((2, 3), g * f2)):
            h[i, j] = h[j, i] = f
        vals, vecs = mp.eigsy(h)
        order = sorted(range(4), key=lambda k: vals[k])
        return [vals[k] for k in order], [[vecs[b, k] for k in order] for b in range(4)]


def reduced_truth(weights, l, g, ts, dps=30):
    """reduced_direct's {atom: ReducedAtomState} from mp_block's
    spectra, every phase and sum in mpmath at dps digits, rounded to
    float64 at the end."""
    mp = pytest.importorskip("mpmath").mp
    n_min, pop, pair = weights.window(l)
    out = {}
    with mp.workdps(dps):
        x = []  # x[n][t] = (x1, x2, x3, x4)
        for n in range(n_min, weights.n_max + 1):
            vals, vecs = mp_block(n, l, g, dps)
            x.append([[mp.fsum((mp.cos(w * t) if b in (0, 3) else -mp.sin(w * t)) * vecs[0][k]
                                * vecs[b][k] for k, w in enumerate(vals)) for b in range(4)]
                      for t in map(mp.mpf, ts)])
        for atom in AtomId:
            i2, i3 = (1, 2) if atom is AtomId.FIRST else (2, 1)
            rows = [[], [], []]  # trace, sz, sy
            for t in range(len(ts)):
                xt = [block[t] for block in x]
                for row, sign in zip(rows, (1, -1)):
                    row.append(mp.fsum(mp.mpf(p) * (a[0] ** 2 + a[i2] ** 2
                                                    + sign * (a[i3] ** 2 + a[3] ** 2))
                                       for p, a in zip(pop, xt)))
                rows[2].append(2 * mp.fsum(mp.mpf(q) * (up[i2] * a[3] - a[i3] * up[0])
                                           for q, up, a in zip(pair, xt[l:], xt)))
            trace, sz, sy = (np.array([float(v) for v in row]) for row in rows)
            out[atom] = ReducedAtomState(trace=trace, sx=0.0, sy=sy, sz=sz)
    return out


def truth_states(c, l, g, ts):
    """{atom: (trace, sz, sy)} in long double at the times ts, contracted
    directly (block_amplitudes, contract) over every block 0..n_max of the
    amplitude table c, with the closed form's spectrum (truth_spectrum) and
    the weights c_n^2 and c_n c_{n+l} in long double: no window and no
    transform."""
    c = np.asarray(c, dtype=float).astype(np.longdouble)
    x = block_amplitudes(truth_spectrum(np.arange(c.size), l, g), ts)
    return contract(x, c * c, c[:-l] * c[l:], l)


def _truth_entropy(m):
    """Shannon entropy in nats of the outcomes (1 +- m) / 2, in long double,
    with 0 ln 0 = 0 and m clamped to [-1, 1]."""
    p = np.clip((1 + m) / 2, 0, 1)
    return -sum(np.where(q > 0, q * np.log(np.where(q > 0, q, 1)), 0) for q in (p, 1 - p))


def truth_channels(weights, l, g, ts):
    """The 14 per-atom channels (ALL_ATOM_CHANNELS) of the normalized
    states of truth_states at the times ts, each by its own long-double
    formula over the Bloch vector (0, my, mz) = (0, sy, sz) / trace:
    inv = mz, sy = my, ey and ex = exp H(y or x) - 2 / sqrt(exp H(z)),
    fy = (1 - my^2) - |mz|, gamma = H(|m|) and eur = H(x) + H(y) + H(z) -
    ln 4, with H the binary entropy of a mean (H(x) = ln 2)."""
    out = {}
    for atom, (trace, sz, sy) in truth_states(weights.c, l, g, ts).items():
        mz, my = sz / trace, sy / trace
        hy, hz, ln2 = _truth_entropy(my), _truth_entropy(mz), np.log(np.longdouble(2))
        channels = {"inv": mz, "sy": my, "ey": np.exp(hy) - 2 / np.sqrt(np.exp(hz)),
                    "ex": 2 - 2 / np.sqrt(np.exp(hz)), "fy": (1 - my * my) - abs(mz),
                    "gamma": _truth_entropy(np.minimum(np.hypot(my, mz), 1)),
                    "eur": hy + hz - ln2}
        out.update({f"{kind}{atom.value}": v for kind, v in channels.items()})
    return out


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
        step = cfg.t_max / sample_count
        counts = np.arange(1, sample_count + 1)
        # the analytic states on a grid from T = 0, compared after it
        grid = np.linspace(0.0, cfg.t_max, sample_count + 1)
        times = grid[1:]
        analytic = {atom: sliced(s, np.s_[1:])
                    for atom, s in reduced_states(weights, p.l, p.g, grid, AtomId).items()}

        h = oracle.build_joint_hamiltonian(p.l, p.g, weights.n_max + 2 * p.l)
        psi0 = oracle.initial_state(weights, h)
        dt = oracle.suggest_dt(weights, h, float(times[-1]))
        traced = oracle.trace_trajectory(h, psi0, step, counts, dt)
        cache[name] = {
            "max_dev": max(max_deviation(analytic[a], traced[a]) for a in AtomId),
            "dt": dt,
            "times": times,
        }
        return cache[name]

    return run
