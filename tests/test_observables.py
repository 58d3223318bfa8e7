"""Bloch-vector diagnostics: entropies, squeezing witnesses, bounds."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tjcm import (
    BlochVector,
    ContractViolationError,
    InvalidParameterError,
    ReducedAtomState,
    binary_entropy_of_mean,
    bloch,
    entropy_squeezing,
    eur_residual,
    variance_squeezing,
    von_neumann,
)

LN2 = math.log(2.0)
E_MIN = 1.0 - math.sqrt(2.0)
E_MAX = 2.0 - math.sqrt(2.0)


def e_x_identity_check(b):
    """Residual of the identity E_x = 2 [1 - 1/sqrt(exp H(z))], which holds
    whenever <x> = 0 (always true in this model) and pins E_x >= 0."""
    if np.any(np.abs(b.sx) > 1e-12):
        raise ContractViolationError(f"identity requires sx = 0, got sx = {b.sx}")
    dh_z = np.exp(binary_entropy_of_mean(b.sz))
    return np.abs(entropy_squeezing(b, "x") - 2.0 * (1.0 - 1.0 / np.sqrt(dh_z)))


def disk_states(max_norm=1.0):
    """Bloch vectors with sx = 0 (the only states this model produces)."""
    return st.tuples(
        st.floats(min_value=-1.0, max_value=1.0),
        st.floats(min_value=-1.0, max_value=1.0),
    ).map(
        lambda p: BlochVector(0.0, p[0] * max_norm, p[1] * max_norm * math.sqrt(max(0.0, 1.0 - p[0] ** 2)))
    )


def test_bloch_readoff():
    assert bloch(ReducedAtomState(1.0, 0.0, 0j)) == BlochVector(0.0, 0.0, 1.0)
    b = bloch(ReducedAtomState(0.5, 0.5, 0.25j))
    assert (b.sx, b.sy, b.sz) == (0.0, 0.5, 0.0)
    b = bloch(ReducedAtomState(0.3, 0.7, 0.1 + 0.2j))
    assert b.sx == pytest.approx(0.2)
    assert b.sy == pytest.approx(0.4)
    assert b.sz == pytest.approx(-0.4)


def test_binary_entropy_values():
    assert binary_entropy_of_mean(1.0) == 0.0
    assert binary_entropy_of_mean(-1.0) == 0.0
    assert binary_entropy_of_mean(0.0) == pytest.approx(LN2, abs=1e-15)
    # hand evaluation: -0.75 ln 0.75 - 0.25 ln 0.25
    expected = 0.75 * math.log(4.0 / 3.0) + 0.25 * math.log(4.0)
    assert expected == pytest.approx(0.5623351446188083, abs=1e-15)
    assert binary_entropy_of_mean(0.5) == pytest.approx(expected, abs=1e-15)
    assert binary_entropy_of_mean(-0.5) == binary_entropy_of_mean(0.5)
    # just-outside roundoff is clamped, far outside is rejected
    assert binary_entropy_of_mean(1.0 + 5e-13) == 0.0
    with pytest.raises(InvalidParameterError):
        binary_entropy_of_mean(1.1)


def test_entropy_squeezing_reference_points():
    assert entropy_squeezing(BlochVector(0.0, 0.0, 1.0), "y") == pytest.approx(0.0, abs=1e-14)
    for sy in (1.0, -1.0):
        assert entropy_squeezing(BlochVector(0.0, sy, 0.0), "y") == pytest.approx(
            E_MIN, abs=1e-14
        )
    # derived from the closed forms: exp H(1/2) = 4 * 3^(-3/4), so
    # E_y = 4 * 3^(-3/4) - 3^(3/8)
    expected = 4.0 * 3.0 ** -0.75 - 3.0 ** 0.375
    assert expected == pytest.approx(0.24496170212621826, abs=1e-15)
    assert entropy_squeezing(BlochVector(0.0, 0.5, 0.5), "y") == pytest.approx(
        expected, abs=1e-13
    )
    with pytest.raises(InvalidParameterError):
        entropy_squeezing(BlochVector(0.0, 0.0, 1.0), "z")


def test_variance_squeezing_reference_points():
    assert variance_squeezing(BlochVector(0.0, 0.0, 1.0), "y") == 0.0
    # blind exactly where the entropy witness is optimal
    for sy in (1.0, -1.0):
        assert variance_squeezing(BlochVector(0.0, sy, 0.0), "y") == 0.0
    assert variance_squeezing(BlochVector(0.0, 0.5, 0.5), "y") == pytest.approx(0.25)


def test_von_neumann_reference_points():
    assert von_neumann(bloch(ReducedAtomState(1.0, 0.0, 0j))) == 0.0
    assert von_neumann(bloch(ReducedAtomState(0.5, 0.5, 0j))) == pytest.approx(LN2, abs=1e-15)
    # Bloch (0, 0.6, 0): eigenvalues 0.8 / 0.2
    s = ReducedAtomState(0.5, 0.5, 0.3j)
    expected = -(0.8 * math.log(0.8) + 0.2 * math.log(0.2))
    assert expected == pytest.approx(0.5004024235381879, abs=1e-15)
    assert von_neumann(bloch(s)) == pytest.approx(expected, abs=1e-14)


def test_eur_residual_reference_points():
    assert eur_residual(BlochVector(0.0, 0.0, 1.0)) == pytest.approx(0.0, abs=1e-14)
    assert eur_residual(BlochVector(0.0, 0.0, -1.0)) == pytest.approx(0.0, abs=1e-14)
    assert eur_residual(BlochVector(0.0, 0.0, 0.0)) == pytest.approx(LN2, abs=1e-14)


def test_e_x_identity():
    assert e_x_identity_check(BlochVector(0.0, 0.0, 1.0)) < 1e-12
    assert e_x_identity_check(BlochVector(0.0, 0.0, 0.0)) < 1e-12
    assert e_x_identity_check(BlochVector(0.0, 0.3, 0.4)) < 1e-12
    # value itself: 2 (1 - 1/sqrt(2)) at maximal mixing
    assert entropy_squeezing(BlochVector(0.0, 0.0, 0.0), "x") == pytest.approx(
        2.0 - math.sqrt(2.0), abs=1e-14
    )
    with pytest.raises(ContractViolationError):
        e_x_identity_check(BlochVector(0.5, 0.0, 0.0))


def test_paired_limits():
    # transverse eigenstates: maximal squeezing, zero entropy
    for sy in (1.0, -1.0):
        b = BlochVector(0.0, sy, 0.0)
        assert entropy_squeezing(b, "y") == pytest.approx(E_MIN, abs=1e-14)
        s = ReducedAtomState(0.5, 0.5, 0.5j * sy)
        assert von_neumann(bloch(s)) == pytest.approx(0.0, abs=1e-12)
    # energy eigenstates: no squeezing, zero entropy
    for p_plus in (1.0, 0.0):
        s = ReducedAtomState(p_plus, 1.0 - p_plus, 0j)
        assert entropy_squeezing(bloch(s), "y") == pytest.approx(0.0, abs=1e-14)
        assert von_neumann(bloch(s)) == pytest.approx(0.0, abs=1e-14)


def test_array_matches_elementwise_scalar():
    rng = np.random.default_rng(11)
    sy = np.concatenate([[0.0, 1.0, -1.0, 0.0, 0.6], rng.uniform(-1.0, 1.0, 300)])
    sz = np.concatenate([[1.0, 0.0, 0.0, 0.0, 0.8], rng.uniform(-1.0, 1.0, 300)])
    sz *= np.sqrt(np.clip(1.0 - sy**2, 0.0, None))
    b = BlochVector(np.zeros_like(sy), sy, sz)
    state = ReducedAtomState(0.5 * (1.0 + sz), 0.5 * (1.0 - sz), 0.5j * sy)
    diagnostics = {
        "e_y": lambda b, s: entropy_squeezing(b, "y"),
        "e_x": lambda b, s: entropy_squeezing(b, "x"),
        "f_y": lambda b, s: variance_squeezing(b, "y"),
        "gamma": lambda b, s: von_neumann(bloch(s)),
        "eur": lambda b, s: eur_residual(b),
        "e_x_identity": lambda b, s: e_x_identity_check(b),
        "h_y": lambda b, s: binary_entropy_of_mean(b.sy),
        "norm": lambda b, s: b.norm(),
    }
    for name, fn in diagnostics.items():
        values = fn(b, state)
        assert values.shape == sy.shape, name
        for i in range(sy.size):
            one = fn(BlochVector(0.0, float(sy[i]), float(sz[i])), ReducedAtomState(
                float(state.p_plus[i]), float(state.p_minus[i]), complex(state.coh[i])
            ))
            assert abs(values[i] - one) <= 1e-15, name
    h = binary_entropy_of_mean(np.stack([sy, sz]))
    assert np.all((0.0 <= h) & (h <= LN2))
    # one bad entry rejects the whole array
    with pytest.raises(InvalidParameterError):
        binary_entropy_of_mean(np.array([0.0, 1.1, 0.5]))


@given(disk_states())
@settings(max_examples=300, deadline=None)
def test_bounds_on_disk(b):
    ey = entropy_squeezing(b, "y")
    ex = entropy_squeezing(b, "x")
    assert ex >= -1e-12
    assert E_MIN - 1e-10 <= ey <= E_MAX + 1e-10
    assert eur_residual(b) >= -1e-10
    # uncertainty product (sx = 0 makes it the Bloch-norm statement)
    assert (1.0 - b.sx**2) * (1.0 - b.sy**2) >= b.sz**2 - 1e-10
    assert e_x_identity_check(b) < 1e-12


@given(disk_states())
@settings(max_examples=200, deadline=None)
def test_sign_invariance(b):
    for flip_y in (1.0, -1.0):
        for flip_z in (1.0, -1.0):
            o = BlochVector(0.0, flip_y * b.sy, flip_z * b.sz)
            assert entropy_squeezing(o, "y") == pytest.approx(
                entropy_squeezing(b, "y"), abs=1e-13
            )
            state = ReducedAtomState(
                0.5 * (1.0 + o.sz), 0.5 * (1.0 - o.sz), 0.5j * o.sy
            )
            ref = ReducedAtomState(
                0.5 * (1.0 + b.sz), 0.5 * (1.0 - b.sz), 0.5j * b.sy
            )
            assert von_neumann(bloch(state)) == pytest.approx(
                von_neumann(bloch(ref)), abs=1e-13
            )


@given(st.floats(min_value=0.0, max_value=1.0))
@settings(max_examples=200, deadline=None)
def test_entropy_extremes_track_norm(r):
    state = ReducedAtomState(0.5 * (1.0 + r), 0.5 * (1.0 - r), 0j)
    gamma = von_neumann(bloch(state))
    if r > 1.0 - 1e-8:
        assert gamma < 1e-7
    if r < 1e-8:
        assert abs(gamma - LN2) < 1e-8
    assert 0.0 <= gamma <= LN2 + 1e-15
