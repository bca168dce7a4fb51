import math

import numpy as np
import pytest

from disslab.fields import ModeOverflowError, SpectralConvention, SpectralField, random_sparse_field
from disslab.pulsed import (
    PulsedSystem,
    TruncatedKoopman,
    ball_modes,
    evolve,
    inviscid_gap,
    step,
)
from disslab.toral import ToralAutomorphism

CAT_ORBIT_SQUARES = [5, 34, 233, 1597]  # |A^j (1,0)|^2 along the orbit


def test_step_single_mode(cat, lattice2):
    system = PulsedSystem(cat, 0.01, lattice2)
    theta = SpectralField(lattice2, {(1, 0): 1.0})
    out = step(theta, system)
    assert set(out.modes()) == {(2, 1)}
    assert out.amplitude((2, 1)) == pytest.approx(math.exp(-0.05), rel=1e-14)


def test_step_two_pulses(cat, lattice2):
    system = PulsedSystem(cat, 0.01, lattice2)
    theta = SpectralField(lattice2, {(1, 0): 1.0})
    out = step(step(theta, system), system)
    assert set(out.modes()) == {(5, 3)}
    assert out.amplitude((5, 3)) == pytest.approx(math.exp(-0.01 * 39), rel=1e-13)


def test_inviscid_step_is_isometry(cat, lattice2, rng):
    system = PulsedSystem(cat, 0.0, lattice2, allow_inviscid=True)
    theta = random_sparse_field(lattice2, rng)
    out = step(theta, system)
    assert out.norm_sq() == pytest.approx(theta.norm_sq(), rel=1e-14)


def test_step_of_empty_field_raises(cat, lattice2):
    # step is evolve's one-pulse case and shares its empty-field contract
    with pytest.raises(ValueError):
        step(SpectralField(lattice2, {}), PulsedSystem(cat, 0.01, lattice2))


def test_zero_nu_requires_flag(cat, lattice2):
    with pytest.raises(ValueError):
        PulsedSystem(cat, 0.0, lattice2)


def test_evolve_energies_match_orbit_squares(cat, lattice2):
    theta = SpectralField(lattice2, {(1, 0): 1.0})
    traj = evolve(theta, PulsedSystem(cat, 0.01, lattice2), 4)
    cum = np.cumsum(CAT_ORBIT_SQUARES)
    expected = np.exp(-0.02 * np.concatenate([[0], cum]))
    assert traj.energies == pytest.approx(expected, rel=1e-13)


def test_evolve_matches_step_composition(cat, lattice2, rng):
    theta = random_sparse_field(lattice2, rng, n_modes=4, kmax=4)
    system = PulsedSystem(cat, 0.05, lattice2)
    traj = evolve(theta, system, 1)
    stepped = step(theta, system)
    assert traj.field(1).coefficients.keys() == stepped.coefficients.keys()
    for m, a in stepped.coefficients.items():
        assert traj.field(1).coefficients[m] == pytest.approx(a, rel=1e-12)


@pytest.mark.parametrize("matrix", [
    ((0, 0, 1), (1, 0, 0), (0, 1, 1)),
    ((0, 0, 0, -1), (1, 0, 0, 1), (0, 1, 0, 0), (0, 0, 1, 3)),
])
def test_evolve_orbits_match_push_mode(matrix, rng):
    auto = ToralAutomorphism(matrix)
    conv = SpectralConvention(auto.dimension, "lattice")
    theta = random_sparse_field(conv, rng, n_modes=10, kmax=5)
    traj = evolve(theta, PulsedSystem(auto, 1e-6, conv), 12)
    orbit = sorted(theta.modes())
    for n in range(traj.n_steps + 1):
        assert [tuple(m) for m in traj.mode_orbits[n]] == orbit
        orbit = [auto.push_mode(m) for m in orbit]


def test_energy_identity_battery(cat, lattice2, rng):
    for nu in (1e-1, 1e-3, 1e-6):
        for _ in range(10):
            theta = random_sparse_field(lattice2, rng, n_modes=6, kmax=6)
            traj = evolve(theta, PulsedSystem(cat, nu, lattice2), 12)
            assert float(np.max(traj.energy_identity_residuals())) < 1e-12


def test_sandwich_battery(cat, lattice2, rng):
    for nu in (1e-1, 1e-2, 1e-4, 1e-6):
        theta = random_sparse_field(lattice2, rng, n_modes=6, kmax=6)
        traj = evolve(theta, PulsedSystem(cat, nu, lattice2), 12)
        lower, upper = traj.sandwich_residuals()
        assert np.min(lower) >= -1e-12
        assert np.min(upper) >= -1e-12


def test_energies_positive_and_decreasing(cat, lattice2, rng):
    theta = random_sparse_field(lattice2, rng)
    traj = evolve(theta, PulsedSystem(cat, 1e-3, lattice2), 15)
    assert np.all(np.isfinite(traj.log_energies))  # positive in log space
    assert np.all(np.diff(traj.log_energies) < 0)


def test_trivial_decay_per_step(cat, lattice2, rng):
    theta = random_sparse_field(lattice2, rng)
    nu = 1e-2
    traj = evolve(theta, PulsedSystem(cat, nu, lattice2), 10)
    # ||theta_n|| <= exp(-nu lambda_1) ||theta_{n-1}||
    assert np.all(traj.dln <= -2 * nu * lattice2.lambda_1 + 1e-12)


def test_inviscid_gap_single_mode_closed_form(cat, lattice2):
    theta = SpectralField(lattice2, {(1, 0): 1.0})
    nu = 0.01
    res = inviscid_gap(theta, PulsedSystem(cat, nu, lattice2), 3)
    s3 = sum(CAT_ORBIT_SQUARES[:3])
    assert res["gap"] == pytest.approx(1 - math.exp(-nu * s3), rel=1e-12)
    assert res["gap"] < res["bound"]


def test_inviscid_gap_vanishes_with_nu(cat, lattice2):
    theta = SpectralField(lattice2, {(1, 0): 1.0})
    gaps = [inviscid_gap(theta, PulsedSystem(cat, nu, lattice2), 4)["gap"] for nu in (1e-2, 1e-5, 1e-8)]
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[2] < 2e-4


def test_gap_bound_battery(cat, lattice2, rng):
    for nu in (1e-1, 1e-3, 1e-5):
        theta = random_sparse_field(lattice2, rng, n_modes=5, kmax=5)
        res = inviscid_gap(theta, PulsedSystem(cat, nu, lattice2), 8)
        assert res["gap"] <= res["bound"] * (1 + 1e-12)


def test_mode_overflow_detected(cat, lattice2):
    theta = SpectralField(lattice2, {(1, 0): 1.0})
    with pytest.raises(ModeOverflowError):
        evolve(theta, PulsedSystem(cat, 1e-3, lattice2), 120)


# ---------------------------------------------------------------------------
# truncated Koopman operators
# ---------------------------------------------------------------------------

def test_ball_modes_excludes_origin():
    modes = ball_modes(2, 3)
    assert not np.any(np.all(modes == 0, axis=1))
    assert modes.shape[0] == 28  # lattice points with 0 < |k|^2 <= 9


def test_truncated_permutation_matches_exact_path(cat, lattice2):
    koopman = TruncatedKoopman.from_automorphism(cat, 40)
    nu = 1e-2
    lam = lattice2.scale_factor * np.sum(koopman.modes.astype(float) ** 2, axis=1)
    damp = np.exp(-nu * lam)
    index = {tuple(m): i for i, m in enumerate(koopman.modes)}
    vec = np.zeros(koopman.size, dtype=complex)
    vec[index[(1, 0)]] = 1.0
    vec[index[(0, 1)]] = 0.5j
    field = SpectralField(lattice2, {(1, 0): 1.0, (0, 1): 0.5j})
    system = PulsedSystem(cat, nu, lattice2)
    for _ in range(3):  # orbit stays inside |k| <= 40 for three pulses
        out, lost = koopman.koopman_apply(vec)
        vec = damp * out
        field = step(field, system)
        assert float(lost[0]) == 0.0
    for mode, amp in field.coefficients.items():
        assert vec[index[mode]] == pytest.approx(amp, rel=1e-12)
    assert np.sum(np.abs(vec) ** 2) == pytest.approx(field.norm_sq(), rel=1e-12)


def test_koopman_adjoint_is_adjoint(cat, rng):
    koopman = TruncatedKoopman.from_automorphism(cat, 6)
    u = rng.standard_normal(koopman.size) + 1j * rng.standard_normal(koopman.size)
    v = rng.standard_normal(koopman.size) + 1j * rng.standard_normal(koopman.size)
    ku, _ = koopman.koopman_apply(u)
    lhs = np.vdot(v, ku)
    rhs = np.vdot(koopman.koopman_adjoint(v), u)
    assert lhs == pytest.approx(rhs, rel=1e-12)
