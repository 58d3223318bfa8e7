"""Interaction blocks, the block spectrum (block_spectrum: the Jacobi's
eigenvalues, the closed-form SVD and eigenvectors), and the block
amplitudes of block_spectrum's spectrum (evaluated in long double by
conftest.block_amplitudes, the evaluator behind the references for the
package's trig sums)."""

import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tjcm import (AtomId, InternalConsistencyError, InvalidParameterError, coherent_weights,
                  reduced_states)
from tjcm import blocks as blocks_module
from tjcm.blocks import _NORM_TOL, block_spectrum, jacobi_eigh, transition_strength
from tjcm.transform import check_phase_conditioning

from conftest import (block_amplitudes, block_matrices, closed_form_x, coupling_svd, eigen_table,
                      jacobi_reference, mp_block, package_spectrum, packed)

EPS = np.finfo(float).eps

SWEEP_REFERENCE = Path(__file__).resolve().parents[1] / "benchmarks" / "reference" / "sweep.npz"


def evolve_one(n, l, g, T):
    """(x1, x2, x3, x4) of block n alone at the one time T, from
    block_spectrum's spectrum of the base range n..n."""
    return block_amplitudes(package_spectrum(n, l, g, n), [T])[:, 0, 0]


def test_build_block_lowest_symmetric():
    h = block_matrices(0, 1, 1.0)
    assert h.shape == (1, 4, 4)
    assert h[0, 0, 2] == 1.0  # f1
    assert h[0, 1, 3] == pytest.approx(math.sqrt(2.0))  # f2
    w = block_spectrum(0, 1, 1.0)[0]
    # nonzero pair at +-sqrt(6), double zero in between
    assert np.allclose(w[0].astype(float), [-math.sqrt(6), 0.0, 0.0, math.sqrt(6)], atol=1e-12)


def test_build_block_factorial_ratios():
    h = block_matrices(5, 2, 0.5)
    assert h.shape == (6, 4, 4)
    f1 = math.sqrt(5 * 4)
    f2 = math.sqrt(7 * 6)
    expected = np.array(
        [
            [0.0, 0.5 * f1, f1, 0.0],
            [0.5 * f1, 0.0, 0.0, f2],
            [f1, 0.0, 0.0, 0.5 * f2],
            [0.0, f2, 0.5 * f2, 0.0],
        ]
    )
    assert np.array_equal(h[3], expected)
    # every row of the stack is its own block n
    for n in range(6):
        f1, f2 = math.sqrt((n + 1) * (n + 2)), math.sqrt((n + 3) * (n + 4))
        assert (h[n, 0, 2], h[n, 1, 3], h[n, 0, 1], h[n, 2, 3]) == (f1, f2, 0.5 * f1, 0.5 * f2)


def test_block_matrices_rejects_bad_parameters():
    for args in ((-1, 1, 1.0), (2.0, 1, 1.0), (3, 0, 1.0), (3, 1, -0.5), (3, 1, math.inf),
                 (3, 1, 1.0, -1), (3, 1, 1.0, 4), (3, 1, 1.0, 1.0)):
        for entry in (block_matrices, block_spectrum):
            with pytest.raises(InvalidParameterError):
                entry(*args)


@pytest.mark.parametrize("alpha, l", [(12.0, 1), (12.0, 2), (20.0, 1), (20.0, 2)])
def test_windowed_eigen_table_bitwise_rows_of_full_table(alpha, l):
    """The spectrum of blocks n_min..n_max is, bit for bit, those rows of
    the spectrum from n = 0: the window changes no block's arithmetic."""
    w = coherent_weights(alpha)
    n_min = w.window(l)[0]
    assert n_min > 0
    for g in (0.5, 1.0, 3.0):
        full_vals, full_vecs = eigen_table(w.n_max, l, g)
        vals, vecs = eigen_table(w.n_max, l, g, n_min)
        assert np.array_equal(block_matrices(w.n_max, l, g, n_min),
                              block_matrices(w.n_max, l, g)[n_min:])
        assert np.array_equal(vals, full_vals[n_min:])
        assert np.array_equal(vecs, full_vecs[n_min:])
        (full_w, *full_rest), (win_w, *win_rest) = (block_spectrum(w.n_max, l, g, n)
                                                    for n in (0, n_min))
        assert np.array_equal(win_w, full_w[n_min:])
        for a, b in zip(win_rest, full_rest):
            assert np.array_equal(a, b[..., n_min:])


def spectrum_of(vals):
    """(-s1, -s2, s2, s1) in long double from ascending eigenvalues: s1 =
    (w_3 - w_0) / 2 and s2 = (w_2 - w_1) / 2."""
    vals = vals.astype(np.longdouble)
    s1, s2 = (vals[:, 3] - vals[:, 0]) / 2, (vals[:, 2] - vals[:, 1]) / 2
    return np.stack([-s1, -s2, s2, s1], axis=1)


def test_block_spectrum_is_the_dense_stacks_spectrum():
    """block_spectrum packs the blocks straight from their couplings: its w
    is, bit for bit, the one formed from the Jacobi's eigenvalues of the
    dense stack block_matrices, and its c, s and v1 are the closed form's
    (coupling_svd); on the 24 default-seed sweep windows and across
    couplings, the decoupled g = 0 and the double zero at g = 1 included."""
    with np.load(SWEEP_REFERENCE) as z:
        cases = [(coherent_weights(float(alpha)), int(l), float(g)) for alpha, g, l in z["params"]]
    cases = [(w.n_max, l, g, w.window(l)[0]) for w, l, g in cases]
    cases += [(150, l, g, 0) for l in (1, 2, 3) for g in (0.0, 1e-3, 1.0, 1e3)]
    for args in cases:
        w, c, s, v1 = block_spectrum(*args)
        assert w.dtype == np.longdouble
        assert np.array_equal(w, spectrum_of(jacobi_eigh(packed(block_matrices(*args))))), args
        _, ref_c, ref_s, ref_v1 = coupling_svd(*args)
        assert np.array_equal(c, ref_c) and np.array_equal(s, ref_s) and np.array_equal(v1, ref_v1)


def test_block_spectrum_forms_the_squared_strengths_once(monkeypatch):
    real, calls = blocks_module._squared_strengths, []

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(blocks_module, "_squared_strengths", counted)
    block_spectrum(40, 2, 0.5, 3)
    assert calls == [(40, 2, 0.5, 3)]


def test_block_matrices_refuses_overflowing_coupling():
    """Couplings whose largest block has a squared norm beyond the largest
    double are refused before any arithmetic overflows; one just inside
    the bound still diagonalizes to a finite spectrum."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for n_max, l, g in ((95, 1, 1e300), (95, 1, 1e154), (95, 200, 1.0), (0, 10**6, 0.0)):
            for entry in (block_matrices, block_spectrum):
                with pytest.raises(InvalidParameterError, match="exceeds the largest double"):
                    entry(n_max, l, g)
        # squared norm of block 95 at g = 5e151: about 9.3e307
        vals, vecs = eigen_table(95, 1, 5e151)
        spectrum = block_spectrum(95, 1, 5e151)
    assert np.all(np.isfinite(vals)) and np.all(np.isfinite(vecs))
    assert all(np.all(np.isfinite(a)) for a in spectrum)


def test_transition_strength_matches_factorials():
    for n in range(12):
        for l in range(1, 5):
            exact = math.factorial(n + l) // math.factorial(n)
            assert transition_strength(n, l) == pytest.approx(math.sqrt(exact), rel=1e-14)
    # ints and a float array of n both keep the left-to-right product
    # (n+1)(n+2)...(n+l), bit for bit
    for l in range(1, 5):
        ref = [math.sqrt(math.prod(range(n + 1, n + l + 1), start=1.0)) for n in range(200)]
        assert [transition_strength(n, l) for n in range(200)] == ref
        assert np.array_equal(transition_strength(np.arange(200.0), l), ref)


def test_block_decoupling_at_g_zero():
    # g = 0 detaches atom 2: the initial vector Rabi-flops against
    # component 3 alone at the one-atom frequency f1
    f1 = transition_strength(0, 1)
    ts = np.array([0.3, 1.1, 2.5])
    x = block_amplitudes(package_spectrum(0, 1, 0.0), ts)[:, :, 0]
    assert np.max(np.abs(x - [np.cos(f1 * ts), 0.0 * ts, -np.sin(f1 * ts), 0.0 * ts])) < 1e-12


def test_bipartite_sparsity():
    h = block_matrices(6, 2, 0.7)
    e1 = np.array([1.0, 0.0, 0.0, 0.0])
    once = h @ e1
    twice = np.einsum("nij,nj->ni", h, once)
    assert np.all(once[:, 0] == 0.0) and np.all(once[:, 3] == 0.0)
    assert np.all(twice[:, 1] == 0.0) and np.all(twice[:, 2] == 0.0)


def test_jacobi_zero_matrix():
    assert np.array_equal(jacobi_eigh(packed(np.zeros((1, 4, 4)))), np.zeros((1, 4)))


def test_jacobi_eigenvalues_of_random_matrices():
    rng = np.random.default_rng(7)
    m = rng.normal(size=(25, 4, 4))
    h = m + m.transpose(0, 2, 1)
    vals = jacobi_eigh(packed(h))
    assert np.max(np.abs(vals - np.linalg.eigvalsh(h))) < 1e-12
    assert np.all(np.diff(vals, axis=1) >= 0.0)


@pytest.mark.parametrize("l", [1, 2, 3])
def test_eigen_table_reconstruction_and_orthonormality(l):
    """eigen_table's closed-form vectors with the Jacobi's values rebuild
    block_matrices to 16 eps of the block's norm, and are orthonormal, with
    overlaps sum_k <v_k|e1>^2 = 1, within _NORM_TOL; at g = 1 too, where
    the double zero eigenvalue takes v2 = (-v1[1], v1[0])."""
    for g in (0.0, 1e-3, 0.5, 1.0, 3.7, 1e3):
        h = block_matrices(150, l, g)
        vals, vecs = eigen_table(150, l, g)
        vecs_t = vecs.transpose(0, 2, 1)
        recon = vecs @ (vals[:, :, None] * vecs_t)
        scale = np.linalg.norm(h, axis=(1, 2))[:, None, None]
        assert np.max(np.abs(recon - h) / scale) <= 16 * EPS, g
        assert np.max(np.abs(vecs_t @ vecs - np.eye(4))) <= _NORM_TOL
        assert np.max(np.abs(np.sum(vecs[:, 0, :] ** 2, axis=1) - 1.0)) <= _NORM_TOL
        assert np.all(np.diff(vals, axis=1) >= 0.0)


def test_diagonalize_deterministic_and_sign_fixed():
    for g in (0.0, 0.5, 1.0, 3.7):
        vals1, vecs1 = eigen_table(12, 1, g)
        vals2, vecs2 = eigen_table(12, 1, g)
        assert np.array_equal(vals1, vals2)
        assert np.array_equal(vecs1, vecs2)
        for n in range(13):
            for k in range(4):
                col = vecs1[n, :, k]
                assert col[np.argmax(np.abs(col))] > 0.0


@pytest.mark.parametrize("l", [1, 2, 3, 4])
def test_batched_spectrum_matches_each_block_alone(l):
    # the convergence mask gives every block exactly the rotations it
    # would take diagonalized on its own
    for g in (0.0, 0.5, 1.0, 5.0):
        h = block_matrices(40, l, g)
        vals = jacobi_eigh(packed(h))
        for n in range(h.shape[0]):
            assert np.array_equal(vals[n:n + 1], jacobi_eigh(packed(h[n:n + 1])))


def assert_reference_arithmetic(h):
    """jacobi_eigh of the packed stack gives jacobi_reference's eigenvalues
    bit for bit."""
    assert np.array_equal(jacobi_eigh(packed(h)), jacobi_reference(h)[0])


def sweep_stack(op):
    """The blocks reduced_states diagonalizes for default-seed sweep op op."""
    with np.load(SWEEP_REFERENCE) as z:
        alpha, g, l = z["params"][op]
    w = coherent_weights(float(alpha))
    return block_matrices(w.n_max, int(l), float(g), w.window(int(l))[0])


def assert_libm_atan2(y, x):
    """_atan2(y, x) is math.atan2(y, x) bit for bit, the sign of a zero
    included, and raises no divide-by-zero, overflow or invalid flag (its
    discarded real part, log |z|, may underflow, which numpy ignores)."""
    y, x = np.asarray(y, dtype=float), np.asarray(x, dtype=float)
    with np.errstate(divide="raise", over="raise", invalid="raise"):
        got = blocks_module._atan2(y, x, np.empty(y.shape, complex))
    want = np.array([math.atan2(b, a) for b, a in zip(y.tolist(), x.tolist())])
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_atan2_is_libm_on_jacobi_reference_rotation_inputs(monkeypatch):
    """The (y, x) = (2 a[p, q], a[q, q] - a[p, p]) of every rotation that
    jacobi_reference takes on the largest default-seed sweep stack."""
    atan2, seen = math.atan2, []

    def recorded(y, x):
        seen.append((y, x))
        return atan2(y, x)

    monkeypatch.setattr(math, "atan2", recorded)
    jacobi_reference(sweep_stack(23))
    monkeypatch.undo()
    y, x = np.array(seen).T
    assert y.size > 5000 and np.all(y != 0.0)
    assert_libm_atan2(y, x)


def test_atan2_is_libm_over_every_scale_and_quadrant():
    rng = np.random.default_rng(30)
    y, x = rng.choice([-1.0, 1.0], size=(2, 50000)) * 10.0 ** rng.uniform(-300, 300, (2, 50000))
    assert_libm_atan2(y, x)


def test_atan2_is_libm_on_edge_inputs():
    """x = +-0, subnormal and huge y, |y / x| tiny and huge, and x < 0 with
    y = +-tiny, next to the branch cut at +-pi: every pair of these
    magnitudes, each signed and each with its neighbouring doubles."""
    tiny, top = np.finfo(float).smallest_subnormal, np.finfo(float).max
    mags = np.array([tiny, 1e-320, 1e-310, np.finfo(float).tiny, 1e-300, 1e-200, 1e-20,
                     1e-8, 0.5, 1.0, 2.0, 1e8, 1e20, 1e200, 1e300, top])
    mags = np.unique(np.concatenate([mags, np.nextafter(mags[1:], 0.0), np.nextafter(mags[:-1], top)]))
    ys = np.concatenate([mags, -mags])
    xs = np.concatenate([ys, [0.0, -0.0]])
    y, x = (a.ravel() for a in np.meshgrid(ys, xs))
    assert_libm_atan2(y, x)


def test_jacobi_bitwise_reference_sees_a_one_ulp_angle(monkeypatch):
    """Negative control: one rotation angle of one block one ulp off, and
    the bitwise comparison with jacobi_reference fails."""
    atan2, calls = blocks_module._atan2, []

    def nudged(y, x, z):
        angle = atan2(y, x, z)
        if not calls:
            angle[0] = np.nextafter(angle[0], np.inf)
        calls.append(y.size)
        return angle

    monkeypatch.setattr(blocks_module, "_atan2", nudged)
    with pytest.raises(AssertionError):
        assert_reference_arithmetic(sweep_stack(0))
    assert calls


def test_jacobi_bitwise_reference_on_sweep_stacks():
    """The blocks of the benchmark's 24 default-seed sweep ops, over the
    window reduced_states diagonalizes and from n = 0."""
    with np.load(SWEEP_REFERENCE) as z:
        params = z["params"]
    assert params.shape == (24, 3)
    for alpha, g, l in params:
        w = coherent_weights(float(alpha))
        for n_min in {0, w.window(int(l))[0]}:
            assert_reference_arithmetic(block_matrices(w.n_max, int(l), float(g), n_min))


def test_closed_form_vectors_match_jacobi_reference_on_sweep_stacks():
    """On the blocks of the 24 default-seed sweep ops (g from 0.25 to 4, none
    1), eigen_table's closed-form vectors are jacobi_reference's sign-fixed
    vectors within 64 eps (measured worst 31.5 eps)."""
    with np.load(SWEEP_REFERENCE) as z:
        params = z["params"]
    for alpha, g, l in params:
        assert g != 1.0
        w = coherent_weights(float(alpha))
        n_min = w.window(int(l))[0]
        vals, vecs = eigen_table(w.n_max, int(l), float(g), n_min)
        ref_vals, ref_vecs = jacobi_reference(block_matrices(w.n_max, int(l), float(g), n_min))
        assert np.array_equal(vals, ref_vals)
        assert np.max(np.abs(vecs - ref_vecs)) <= 64 * EPS, (alpha, g, l)


@pytest.mark.parametrize("g", [0.0, 1e-3, 1.0, 1e3])
def test_jacobi_bitwise_reference_across_couplings(g):
    for l in (1, 2, 3):
        assert_reference_arithmetic(block_matrices(150, l, g))


def test_jacobi_bitwise_reference_when_blocks_converge_at_different_sweeps(monkeypatch):
    """Dense random blocks interleaved with nearly and exactly diagonal
    ones, over six decades of scale, so that after the first sweep only
    some blocks still rotate (the gathered path): the nearly diagonal
    blocks converge within three sweeps, where the dense ones do not."""
    rng = np.random.default_rng(11)
    scale = 10.0 ** rng.uniform(-3.0, 3.0, size=(3, 60, 1, 1))
    m = rng.normal(size=(60, 4, 4))
    dense = scale[0] * (m + m.transpose(0, 2, 1))
    e = 1e-9 * rng.normal(size=(60, 4, 4))
    near = scale[1] * (np.eye(4) * rng.normal(size=(60, 1, 4)) + e + e.transpose(0, 2, 1))
    diagonal = scale[2] * np.eye(4) * rng.normal(size=(60, 1, 4))
    h = np.stack([dense, near, diagonal], axis=1).reshape(180, 4, 4)
    assert_reference_arithmetic(h)
    monkeypatch.setattr(blocks_module, "_JACOBI_MAX_SWEEPS", 3)
    jacobi_eigh(packed(np.concatenate([near, diagonal])))
    with pytest.raises(InternalConsistencyError):
        jacobi_eigh(packed(dense))


def test_jacobi_bitwise_reference_with_exact_zero_off_diagonals():
    """Blocks whose off-diagonal entries are exactly 0 in every pattern
    (each of the 64 subsets of the 6 pairs), which rotations skip until
    another rotation fills them, all-zero blocks and an empty stack."""
    rng = np.random.default_rng(12)
    rows, cols = np.triu_indices(4, 1)
    h = np.zeros((64, 4, 4))
    for n in range(64):
        h[n] = np.diag(rng.normal(size=4))
        on = [(n >> bit) & 1 == 1 for bit in range(6)]
        h[n, rows[on], cols[on]] = h[n, cols[on], rows[on]] = rng.normal(size=sum(on))
    assert_reference_arithmetic(h)
    assert_reference_arithmetic(np.zeros((3, 4, 4)))
    assert_reference_arithmetic(np.zeros((0, 4, 4)))


def test_jacobi_refuses_sweeps_that_do_not_converge(monkeypatch):
    monkeypatch.setattr(blocks_module, "_JACOBI_MAX_SWEEPS", 1)
    with pytest.raises(InternalConsistencyError, match="failed to converge"):
        block_spectrum(30, 1, 0.5)


def test_evolve_identity_at_t_zero():
    for g in (0.0, 0.5, 1.0, 3.7):
        assert tuple(evolve_one(9, 2, g, 0.0)) == pytest.approx((1.0, 0.0, 0.0, 0.0), abs=1e-14)


def test_evolve_half_period_lowest_block():
    x = evolve_one(0, 1, 1.0, math.pi / math.sqrt(6.0))
    assert x == pytest.approx([1.0 / 3.0, 0.0, 0.0, -2.0 * math.sqrt(2.0) / 3.0], abs=1e-12)


def test_closed_form_examples():
    assert tuple(closed_form_x(0, 0.0)) == (1.0, 0.0, 0.0, 0.0)
    x1, _, _, x4 = closed_form_x(0, math.pi / math.sqrt(6.0))
    assert x1 == pytest.approx(1.0 / 3.0, abs=1e-14)
    assert x4 == pytest.approx(-2.0 * math.sqrt(2.0) / 3.0, abs=1e-14)
    # a grid of times evaluates each time independently
    ts = np.array([0.0, math.pi / math.sqrt(6.0), 2.2])
    grid = closed_form_x(0, ts)
    assert grid.shape == (4, 3)
    for i, T in enumerate(ts):
        assert np.array_equal(grid[:, i], closed_form_x(0, float(T)))


def test_general_closed_form_reproduces_closed_form_x():
    """The closed form (coupling_svd) at l = 1, g = 1 is closed_form_x's:
    sigma1 = sqrt(4n + 6) within an ulp, sigma2 = 0, and with the phases
    sigma1 T taken as closed_form_x takes them and no v2 term, the
    amplitudes within 4 eps (measured worst 2 eps; with the closed form's
    own sigma1, an ulp off, the phases alone move them by up to 128 eps
    here)."""
    ts = np.linspace(0.0, 7.0, 15)
    n_max = 600
    sigma, c, s, (p1, p2) = coupling_svd(n_max, 1, 1.0)
    w = np.sqrt(4.0 * np.arange(n_max + 1) + 6.0)
    assert np.all(sigma[1] == 0.0)
    assert np.max(np.abs(sigma[0] - w) / w) <= EPS
    cos1, sin1 = np.cos(np.multiply.outer(ts, w)), np.sin(np.multiply.outer(ts, w))
    x = np.array([c * c * cos1 + s * s, -c * p1 * sin1, -c * p2 * sin1, c * s * (cos1 - 1.0)])
    for n in range(n_max + 1):
        assert np.max(np.abs(x[:, :, n] - closed_form_x(n, ts))) <= 4 * EPS, n


@pytest.mark.parametrize("l", [1, 2, 3])
def test_closed_form_amplitudes_against_mpmath(l):
    """The closed form's amplitude coefficients, per block the weights of
    cos sigma_i T in x1 and x4 and of sin sigma_i T in x2 and x3 (c^2, s^2;
    cs, -cs; -c v1, s v2 with v2 = sign(g^2 - 1) (-v1[1], v1[0])), against those of mpmath.eigsy's 30-digit
    spectrum, sum_k <v_k|e1> v_bk over the k at +-sigma_i: within 8 eps
    (measured worst 1 eps, against 312 eps for jacobi_reference's vectors
    at g 1e3, l 1).  At g = 1 the sine weights of the double zero
    eigenvalue multiply sin 0 and are not compared."""
    for g in (0.0, 0.3, 1.0, 3.7, 1e3):
        sign = np.sign(g * g - 1.0)
        for n in (0, 1, 7, 60, 600):
            _, c, s, v1 = coupling_svd(n, l, g, n)
            c, s, (p1, p2) = c[0], s[0], v1[:, 0]
            ours = np.array([[c * c, s * s], [-c * p1, -sign * s * p2], [-c * p2, sign * s * p1],
                             [c * s, -c * s]])
            vals, vecs = mp_block(n, l, g)
            r = [[vecs[0][k] * vecs[b][k] for k in range(4)] for b in range(4)]
            truth = np.array([[float(r[b][0] + r[b][3]), float(r[b][1] + r[b][2])] if b in (0, 3)
                              else [float(r[b][0] - r[b][3]), float(r[b][1] - r[b][2])]
                              for b in range(4)])
            if g == 1.0:
                ours[1:3, 1] = truth[1:3, 1] = 0.0
            assert np.max(np.abs(ours - truth)) <= 8 * EPS, (g, n)


def test_closed_form_cross_check_single_point():
    assert np.max(np.abs(evolve_one(5, 1, 1.0, 1.7) - closed_form_x(5, 1.7))) < 1e-10


def test_symmetric_coupling_equalizes_middle_amplitudes():
    x = block_amplitudes(package_spectrum(12, 1, 1.0), np.linspace(0.0, 10.0, 101))
    assert np.max(np.abs(x[1] - x[2])) < 1e-10


def test_evolve_rejects_malformed_block():
    """A spectrum whose u1 = (c, s) or v1 is off the unit circle, by 1e-12
    or by half, gives amplitudes off unit norm, and the evaluator's norm
    check refuses it at _NORM_TOL."""
    sigma1, sigma2, c, s, v1, v2 = package_spectrum(0, 1, 0.5)
    for bad in ((sigma1, sigma2, c * (1 + 1e-12), s * (1 + 1e-12), v1, v2),
                (sigma1, sigma2, c, s, 1.5 * v1, v2)):
        with pytest.raises(InternalConsistencyError, match="norm"):
            block_amplitudes(bad, [0.7])


def test_evolve_refuses_ill_conditioned_phases():
    """max|w| * max|T| * eps above 1e-8 is refused for block_spectrum's
    spectrum, for negative T as well; the same spectrum on a shorter grid
    passes, and its amplitudes are evaluated."""
    w = block_spectrum(5, 1, 1.0)[0]
    t_limit = 1e-8 / (float(np.max(np.abs(w))) * EPS)
    for t in (2.0 * t_limit, -2.0 * t_limit):
        with pytest.raises(InvalidParameterError, match="phase conditioning"):
            check_phase_conditioning(w, np.array([0.0, t]))
    short = np.array([0.0, 0.5 * t_limit])
    check_phase_conditioning(w, short)
    assert block_amplitudes(package_spectrum(5, 1, 1.0), short).shape == (4, 2, 6)


def test_backward_evolution_allowed():
    fwd = evolve_one(1, 1, 0.8, 0.9)
    back = evolve_one(1, 1, 0.8, -0.9)
    # time reversal flips the imaginary components only
    assert np.max(np.abs(back - fwd * np.array([1.0, -1.0, -1.0, 1.0]))) < 1e-12
    # so on a grid with a negative step the reduced states keep their
    # populations and flip their coherence
    w = coherent_weights(3.0)
    ts = np.linspace(0.0, 9.0, 300)
    fwd, back = (reduced_states(w, 1, 0.8, grid, AtomId) for grid in (ts, -ts))
    for atom in AtomId:
        assert back[atom].trace == fwd[atom].trace
        assert np.max(np.abs(back[atom].sz - fwd[atom].sz)) < 1e-12
        assert np.max(np.abs(back[atom].sy + fwd[atom].sy)) < 1e-12


@given(
    n=st.integers(min_value=0, max_value=60),
    l=st.integers(min_value=1, max_value=4),
    g=st.floats(min_value=0.05, max_value=5.0),
    T=st.floats(min_value=-10.0, max_value=30.0),
)
@settings(max_examples=80, deadline=None)
def test_unitarity_property(n, l, g, T):
    norm = float(np.sum(evolve_one(n, l, g, T) ** 2))
    assert norm == pytest.approx(1.0, abs=_NORM_TOL)
