import math
import re
import sys
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from disslab import pulsed
from disslab.fields import MODE_LIMIT, ModeOverflowError, SpectralConvention, SpectralField, random_sparse_field
from disslab.pulsed import (
    PulsedSystem,
    TruncatedKoopman,
    ball_modes,
    evolve,
    evolve_many,
    exact_norm_sq,
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
        assert [tuple(m) for m in traj.state(n)[0].tolist()] == orbit
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


def test_inviscid_gap_reads_from_a_longer_run(cat, lattice2, rng):
    # the verify suite reads the gap at n = 8 off its 12-step trajectory
    for nu in (1e-1, 1e-3, 1e-6):
        for _ in range(10):
            theta = random_sparse_field(lattice2, rng, n_modes=6, kmax=6)
            system = PulsedSystem(cat, nu, lattice2)
            res = inviscid_gap(theta, system, 8)
            assert evolve(theta, system, 12).inviscid_gap(8) == (res["gap"], res["bound"])


# ---------------------------------------------------------------------------
# machine-integer pulses against the Python-int reference
# ---------------------------------------------------------------------------

def _logsumexp(terms):
    """ln sum exp of the finite terms of a 1-D array, -inf if there are none."""
    finite = terms[np.isfinite(terms)]
    if finite.size == 0:
        return -math.inf
    m = float(np.max(finite))
    return m + math.log(float(np.sum(np.exp(finite - m))))


def _reference_evolve(theta0, system, n):
    """The object-dtype pulse loop that ``evolve`` replaced: every product,
    range check and square sum on Python ints, every orbit and damping row
    kept, one step at a time."""
    nu, scale = system.nu, system.convention.scale_factor
    modes0 = sorted(theta0.coefficients.keys())
    amps0 = np.array([theta0.coefficients[m] for m in modes0], dtype=complex)
    a = np.array(system.automorphism.matrix, dtype=object)
    current = np.array(modes0, dtype=object)
    orbits = [current]
    log_damp = np.zeros((n + 1, len(modes0)))
    log_energies, log_r = np.empty(n + 1), np.empty(n + 1)
    dln, enu_rel, uh1_rel, h1next_rel = np.empty(n), np.empty(n), np.empty(n), np.empty(n)
    logw = 2.0 * np.log(np.abs(amps0))
    lam = scale * np.sum(current * current, axis=1).astype(float)
    log_energies[0] = _logsumexp(logw)
    cum = np.zeros(len(modes0))
    for it in range(n):
        w = np.exp(logw - float(np.max(logw)))
        total = float(np.sum(w))
        log_r[it] = math.log(float(np.sum(w * lam)) / total)
        nxt = current @ a
        over = np.any(np.abs(nxt) >= MODE_LIMIT, axis=1)
        if over.any():
            raise ModeOverflowError(f"mode {tuple(nxt[over][0])} left the 63-bit range")
        lam_next = scale * np.sum(nxt * nxt, axis=1).astype(float)
        x = 2.0 * nu * lam_next
        decay = np.exp(-x)
        enu_rel[it] = float(np.sum(w * (-np.expm1(-x)))) / total / nu if nu > 0 else 0.0
        uh1_rel[it] = float(np.sum(w * lam_next)) / total
        h1next_rel[it] = float(np.sum(w * decay * lam_next)) / total
        with np.errstate(divide="ignore"):
            dln[it] = _logsumexp(np.log(w) - x) - math.log(total)
        log_energies[it + 1] = log_energies[it] + dln[it]
        cum = cum - x
        log_damp[it + 1, :] = cum
        logw = logw - x
        lam = lam_next
        orbits.append(nxt)
        current = nxt
    w = np.exp(logw - float(np.max(logw)))
    log_r[n] = math.log(float(np.sum(w * lam)) / float(np.sum(w)))
    return {"mode_orbits": [o.tolist() for o in orbits], "log_damp": log_damp, "log_energies": log_energies,
            "dln": dln, "log_r": log_r, "enu_rel": enu_rel, "uh1_rel": uh1_rel, "h1next_rel": h1next_rel}


def _assert_states(traj, orbits, log_damp):
    """``traj.state(n)`` replays the int64 orbit rows and the damping row of
    every step n, and ``inviscid_gap`` at the last step is
    sqrt(sum |theta0^(k)|^2 expm1(-nu S_n(k))^2) on that damping."""
    for n in range(traj.n_steps + 1):
        modes, cum = traj.state(n)
        assert modes.dtype == np.int64 and modes.tolist() == orbits[n], n
        assert cum.tobytes() == log_damp[n].tobytes(), n
    gap_sq = float(np.sum(np.abs(traj.amps0) ** 2 * np.expm1(0.5 * log_damp[-1]) ** 2))
    assert traj.inviscid_gap(traj.n_steps)[0] == math.sqrt(gap_sq)


def _assert_matches_reference(theta, system, n):
    try:
        expected = _reference_evolve(theta, system, n)
    except ModeOverflowError as exc:
        with pytest.raises(ModeOverflowError) as caught:
            evolve(theta, system, n)
        assert str(caught.value) == str(exc)
        return None
    traj = evolve(theta, system, n)
    _assert_states(traj, expected.pop("mode_orbits"), expected.pop("log_damp"))
    for name, value in expected.items():
        assert getattr(traj, name).tobytes() == value.tobytes(), name
    return traj


_GROWING = {  # spectral radii 2.62, 1.47 and 3.07
    2: ((2, 1), (1, 1)),
    3: ((0, 0, 1), (1, 0, 0), (0, 1, 1)),
    4: ((0, 0, 0, -1), (1, 0, 0, 1), (0, 1, 0, 0), (0, 0, 1, 3)),
}


@st.composite
def _crossing_runs(draw):
    """A field with coordinates up to 2^22..2^29 and up to enough pulses that
    its orbits cross 2^30 and 2^32 or overflow (d = 3 grows slowest)."""
    d = draw(st.sampled_from([2, 3, 4]))
    top = 2 ** draw(st.integers(22, 29))
    coord = st.one_of(st.integers(-top, top), st.integers(-3, 3))
    modes = draw(st.lists(st.tuples(*[coord] * d).filter(any), min_size=1, max_size=6, unique=True))
    amps = draw(st.lists(st.complex_numbers(min_magnitude=1e-3, max_magnitude=1e3), min_size=len(modes),
                         max_size=len(modes)))
    conv = SpectralConvention(d, draw(st.sampled_from(["lattice", "geometric"])))
    nu = draw(st.sampled_from([1e-30, 1e-20, 1e-12]))
    steps = draw(st.integers(1, 70 if d == 3 else 30))
    return SpectralField(conv, dict(zip(modes, amps))), PulsedSystem(ToralAutomorphism(_GROWING[d]), nu, conv), steps


@settings(max_examples=60)
@given(_crossing_runs())
@example((SpectralField(SpectralConvention(2, "lattice"), {(2**27, -5): 1.0, (1, 0): 0.5j}),
          PulsedSystem(ToralAutomorphism(_GROWING[2]), 1e-20, SpectralConvention(2, "lattice")), 12))
@example((SpectralField(SpectralConvention(3, "geometric"), {(2**29, 3, -2**28): 1.0}),
          PulsedSystem(ToralAutomorphism(_GROWING[3]), 1e-30, SpectralConvention(3, "geometric")), 12))
@example((SpectralField(SpectralConvention(4, "lattice"), {(2**26, 0, 1, -2**25): 2.0, (0, 0, 0, 1): 1.0}),
          PulsedSystem(ToralAutomorphism(_GROWING[4]), 1e-20, SpectralConvention(4, "lattice")), 25))
# the largest column sum of |A| (5 here), not the largest row sum (4), bounds m @ A
@example((SpectralField(SpectralConvention(4, "lattice"), {(1 - 2**60, 2**60 - 1, 0, 2**60 - 1): 1.0}),
          PulsedSystem(ToralAutomorphism(_GROWING[4]), 1e-20, SpectralConvention(4, "lattice")), 1))
# nine modes whose smallest weights underflow by the last pulses: the energy
# ratio sums the finite terms alone, an order that a sum with zeros misses
@example((SpectralField(SpectralConvention(2, "lattice"), {
    (-6, 2): 1.0, (-5, -2): 1j, (-3, -4): 1j, (-3, 0): 2.0, (-3, 5): 0.5, (-1, -1): 3.0, (-1, 1): 3.0,
    (2, -4): 0.5, (4, 6): 1j}), PulsedSystem(ToralAutomorphism(_GROWING[2]), 1e-3, SpectralConvention(2, "lattice")), 8))
# a weight subnormal in its step's frame whose mode, damped far less than the
# leading one, leads the energy ratio's terms
@example((SpectralField(SpectralConvention(2, "lattice"), {(8, -6): 0.02, (-12, -3): 600.0, (-5, -3): 0.001}),
          PulsedSystem(ToralAutomorphism(((1, 1), (0, 1))), 30.0, SpectralConvention(2, "lattice")), 7))
# damping so strong that exp(-x) is subnormal (e^-720 at the first pulse) or exactly zero
@example((SpectralField(SpectralConvention(2, "lattice"), {(1, 0): 1.0}),
          PulsedSystem(ToralAutomorphism(_GROWING[2]), 72.0, SpectralConvention(2, "lattice")), 3))
def test_evolve_matches_python_int_reference(run):
    _assert_matches_reference(*run)


# ---------------------------------------------------------------------------
# batched pulses against one field at a time
# ---------------------------------------------------------------------------

_SHEAR2 = ((1, 0), (5, 1))
_SERIES = ("amps0", "log_energies", "dln", "log_r", "enu_rel", "uh1_rel", "h1next_rel")


@st.composite
def _batches(draw):
    """2..8 fields over 1..3 kinds (dimension, automorphism, convention, mode
    count), so that groups of several rows form next to groups of one; nu
    differs per row.  Coordinates reach 2^22..2^29 and pulses
    run long enough that orbits cross 2^30 and 2^32, take the Python-int path
    or overflow; nu = 1e-3 underflows weights, whose rows drop their
    non-finite terms in ``_logsumexp_rows``."""
    kind = st.sampled_from([2, 3, 4]).flatmap(lambda d: st.tuples(
        st.just(d),
        st.sampled_from([_GROWING[2], _SHEAR2] if d == 2 else [_GROWING[d]]),
        st.sampled_from(["lattice", "geometric"]),
        st.sampled_from([1, 2, 9, 17]),
    ))
    kinds = draw(st.lists(kind, min_size=1, max_size=3))
    runs = []
    for _ in range(draw(st.integers(2, 8))):
        d, matrix, scaling, count = draw(st.sampled_from(kinds))
        top = 2 ** draw(st.integers(22, 29))
        coord = st.one_of(st.integers(-top, top), st.integers(-3, 3))
        modes = draw(st.lists(st.tuples(*[coord] * d).filter(any), min_size=count, max_size=count, unique=True))
        amps = draw(st.lists(st.complex_numbers(min_magnitude=1e-3, max_magnitude=1e3), min_size=count,
                             max_size=count))
        conv = SpectralConvention(d, scaling)
        nu = draw(st.sampled_from([1e-30, 1e-20, 1e-12, 1e-3]))
        system = PulsedSystem(ToralAutomorphism(matrix), nu, conv)
        runs.append((SpectralField(conv, dict(zip(modes, amps))), system))
    return runs, draw(st.integers(1, 40))


def _single_runs(runs, n):
    """Each field's trajectory alone, or the message of its ModeOverflowError."""
    out = []
    for theta, system in runs:
        try:
            out.append(evolve(theta, system, n))
        except ModeOverflowError as exc:
            out.append(str(exc))
    return out


@settings(max_examples=60)
@given(_batches())
def test_evolve_many_matches_one_field_at_a_time(batch):
    runs, n = batch
    singles = _single_runs(runs, n)
    errors = [single for single in singles if isinstance(single, str)]
    if errors:
        # the batch raises the error of one of its overflowing fields, then
        # runs without them
        with pytest.raises(ModeOverflowError) as caught:
            evolve_many(*zip(*runs), n)
        assert str(caught.value) in errors
        runs = [run for run, single in zip(runs, singles) if not isinstance(single, str)]
        singles = [single for single in singles if not isinstance(single, str)]
        if not runs:
            return
    for traj, single, run in zip(evolve_many(*zip(*runs), n), singles, runs):
        assert traj.system is single.system and traj.modes0 == single.modes0
        for name in _SERIES:
            assert getattr(traj, name).tobytes() == getattr(single, name).tobytes(), name
        # the single run's states, replayed once by the reference loop (which
        # the single run matches in test_evolve_matches_python_int_reference)
        expected = _reference_evolve(*run, n)
        _assert_states(traj, expected["mode_orbits"], expected["log_damp"])
        assert traj.inviscid_gap(n) == single.inviscid_gap(n)
        assert traj.field(n).coefficients == single.field(n).coefficients


def _walk_or_error(runs, n):
    """Every series of a batch, the states replayed at steps 0, n // 2 and n
    and the inviscid gap at n, or its ModeOverflowError message."""
    try:
        trajs = evolve_many(*zip(*runs), n)
    except ModeOverflowError as exc:
        return str(exc)
    return [([getattr(traj, name).tobytes() for name in _SERIES],
             [(modes.tolist(), cum.tobytes()) for modes, cum in map(traj.state, (0, n // 2, n))],
             traj.inviscid_gap(n)) for traj in trajs]


@settings(max_examples=40)
@given(_batches())
def test_series_and_states_do_not_depend_on_the_block_size(batch):
    # one step per block, blocks of a few steps cut across fields, and the
    # whole run in one block all give the default walk's bytes
    runs, n = batch
    expected = _walk_or_error(runs, n)
    for mode_steps in (1, 7, sys.maxsize):
        with mock.patch.object(pulsed, "BLOCK_MODE_STEPS", mode_steps):
            assert _walk_or_error(runs, n) == expected, mode_steps


@pytest.mark.parametrize("matrix, modes, short", [
    (((1, 1), (0, 1)), [(1, k) for k in range(400)], 50),  # ten-step blocks, int64 square sums
    (((1, 1, 0), (0, 1, 1), (0, 0, 1)), [(2**40 + k, -k, 3) for k in range(100)], 50),  # 40-step blocks, 128-bit sums
    (((1, 1, 0, 0), (0, 1, 0, 0), (0, 0, 1, 1), (0, 0, 0, 1)), [(2**40, k, -(2**41), k) for k in range(4100)], 10),
], ids=["d2", "d3", "d4-one-step-blocks"])
def test_walk_memory_is_priced_and_does_not_grow_with_the_step_count(monkeypatch, matrix, modes, short):
    # the per-mode state of one block, not of every step: a run 20 times
    # longer peaks within 2x, and no peak exceeds the price checked before it
    conv = SpectralConvention(len(matrix), "lattice")
    theta = SpectralField(conv, {mode: 1.0 + 0.5j for mode in modes})
    system = PulsedSystem(ToralAutomorphism(matrix), 1e-12, conv)
    prices, peaks = [], []
    monkeypatch.setattr(pulsed, "require_memory", lambda need, what: prices.append(need))
    for n in (short, 20 * short):
        tracemalloc.start()
        evolve(theta, system, n)
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
    assert peaks[1] < 2 * peaks[0]
    assert all(peak <= price for peak, price in zip(peaks, prices)), (peaks, prices)


def test_logsumexp_rows_matches_each_row_alone(rng):
    # rows with 0, some and all terms finite, including terms whose exp underflows
    terms = rng.normal(0.0, 400.0, size=(40, 17))
    terms[rng.random(terms.shape) < 0.4] = -math.inf
    terms[3] = -math.inf
    terms[5, :3] = [math.inf, math.nan, -math.inf]
    terms[7] = rng.normal(0.0, 1.0, size=17)
    got = pulsed._logsumexp_rows(terms)
    assert got.tobytes() == np.array([_logsumexp(row) for row in terms]).tobytes()


def test_exp_skips_only_exact_zeros():
    # every entry, around the underflow edge (-745.13...) and the subnormal
    # range included, has the bits of np.exp
    edge = np.array([-746.0, np.nextafter(-746.0, 0.0), -745.2, -745.1, -744.0, -708.4, -700.0, -1.0, 0.0])
    values = np.concatenate([edge, np.linspace(-800.0, 0.0, 4001), [-np.inf, np.nan]])
    assert pulsed._exp(values).tobytes() == np.exp(values).tobytes()
    live = np.linspace(-745.0, 0.0, 1000)
    assert pulsed._exp(live).tobytes() == np.exp(live).tobytes()


def test_state_of_a_step_outside_the_run_raises(cat, lattice2):
    traj = evolve(SpectralField(lattice2, {(1, 0): 1.0}), PulsedSystem(cat, 1e-3, lattice2), 3)
    assert traj.state(3)[0].tolist() == [[13, 8]]
    for n in (-1, 4):
        with pytest.raises(ValueError, match=f"step {n} is outside 0..3"):
            traj.state(n)


@pytest.mark.parametrize("bad, kind", [
    ({(2**40, 3): 1.0, (0, 1): 0.5}, "left the 63-bit range"),
    ({(2**62, 1): 1.0, (0, 1): 0.5}, "is outside the 63-bit range"),
], ids=["pulse", "initial"])
def test_overflowing_field_in_a_batch_raises_its_single_run_error(cat, lattice2, rng, bad, kind):
    # one field that overflows during the 20 pulses, or before the first,
    # in the same group as fields that do not
    system = PulsedSystem(cat, 1e-30, lattice2)
    fine = [random_sparse_field(lattice2, rng, n_modes=2, kmax=2) for _ in range(3)]
    theta = SpectralField(lattice2, bad)
    with pytest.raises(ModeOverflowError, match=kind) as single:
        evolve(theta, system, 20)
    with pytest.raises(ModeOverflowError) as batched:
        evolve_many([fine[0], theta, *fine[1:]], [system] * 4, 20)
    assert str(batched.value) == str(single.value)
    assert len(evolve_many(fine, [system] * 3, 20)) == 3


def test_evolve_many_checks_its_arguments(cat, lattice2):
    system = PulsedSystem(cat, 1e-3, lattice2)
    theta = SpectralField(lattice2, {(1, 0): 1.0})
    with pytest.raises(ValueError, match="at least one step"):
        evolve_many([theta], [system], 0)
    with pytest.raises(ValueError, match="empty"):
        evolve_many([theta, SpectralField(lattice2, {})], [system] * 2, 3)
    with pytest.raises(ValueError, match="2 fields but 1 systems"):
        evolve_many([theta, theta], [system], 3)
    with pytest.raises(ValueError, match="a 3-D lattice field cannot run under a 2-D lattice system"):
        evolve_many([theta, SpectralField(SpectralConvention(3, "lattice"), {(1, 0, 0): 1.0})], [system] * 2, 3)
    with pytest.raises(ValueError, match="a 2-D geometric field cannot run under a 2-D lattice system"):
        evolve_many([theta, SpectralField(SpectralConvention(2, "geometric"), {(1, 0): 1.0})], [system] * 2, 3)
    assert evolve_many([], [], 3) == []


@pytest.mark.parametrize("matrix, modes, last, uncertified", [
    (((2, 1), (1, 1)), {(1, 0): 1.0, (0, 1): 0.5}, 44, 0),  # max|m| * 3 < 2^62 until pulse 45 overflows
    (((1, 0), (5, 1)), {(2**62 - 12, 1): 1.0, (1, 0): 0.5}, 2, 2),  # max|m| * 6 >= 2^62 from the start
], ids=["cat", "shear"])
def test_overflow_matches_python_int_reference(lattice2, monkeypatch, matrix, modes, last, uncertified):
    # pulses 1..last succeed, bit for bit, with only the uncertified ones in
    # Python ints; pulse last + 1 raises the same error as the reference
    theta = SpectralField(lattice2, modes)
    system = PulsedSystem(ToralAutomorphism(matrix), 1e-30, lattice2)
    assert _assert_matches_reference(theta, system, last) is not None
    assert _assert_matches_reference(theta, system, last + 1) is None
    # the pulses of the walk itself, not those that ``state`` replays
    calls = []
    exact_pulse = pulsed._exact_pulse
    monkeypatch.setattr(pulsed, "_exact_pulse", lambda *args: calls.append(1) or exact_pulse(*args))
    evolve(theta, system, last)
    assert len(calls) == uncertified


def test_certified_pulses_build_no_python_ints(cat, lattice2, rng, monkeypatch):
    def refuse(*args):
        raise AssertionError("a certified step ran in Python ints")

    monkeypatch.setattr(pulsed, "_exact_pulse", refuse)
    theta = random_sparse_field(lattice2, rng, n_modes=400, kmax=60)
    evolve(theta, PulsedSystem(cat, 1e-6, lattice2), 30)


@pytest.mark.parametrize("mode", [(2**62, 1), (-(2**62), 1), (3, 2**70)], ids=["limit", "minus-limit", "past-int64"])
def test_initial_mode_past_the_limit_raises_before_the_first_pulse(lattice2, mode, monkeypatch):
    monkeypatch.setattr(pulsed, "_exact_pulse", lambda *args: pytest.fail("a pulse ran"))
    theta = SpectralField(lattice2, {(1, 0): 1.0, mode: 1.0})
    system = PulsedSystem(ToralAutomorphism(((1, 1), (0, 1))), 1e-30, lattice2)
    with pytest.raises(ModeOverflowError, match=re.escape(f"initial mode {mode} is outside the 63-bit range")):
        evolve(theta, system, 1)


_TIES = [  # hi 2^64 + lo exactly halfway between two floats, rounding down and up to even
    row for p in range(31, 62)
    for row in ([2**p, 2 ** (p - 27), 2 ** (p - 27), 0], [2**p, 2 ** (p - 26), 2 ** (p - 27), 2 ** (p - 27)],
                [2**p, 2 ** (p - 27), 2 ** (p - 27), 1])
]
_POWERS = [[2**p + delta, sign * (2**q + delta), 0, 0] for p in range(29, 62) for q in (0, 29, 30, 31, 32, p)
           for delta in (-1, 0, 1) for sign in (1, -1)]


@settings(max_examples=200)
@given(st.integers(2, 4).flatmap(lambda d: st.lists(
    st.lists(st.integers(-(2**62) + 1, 2**62 - 1), min_size=d, max_size=d), min_size=1, max_size=30)))
def test_exact_norm_sq_matches_python_int_rounding(rows):
    expected = [float(sum(int(c) ** 2 for c in row)) for row in rows]
    assert exact_norm_sq(np.array(rows, dtype=np.int64)).tolist() == expected


@pytest.mark.parametrize("rows", [
    _TIES,
    _POWERS,
    [[2**62 - 1, 0, 0, 0], [2**62 - 1] * 4, [2**62 - 1, 2**31, -1, 0]],  # hi = 2^60 - 1 rounds up to 2^60 as a float
    [[2**30, -(2**30)]],
    [[2**31 - 1] * 4, [2**30 + 1, 0, 0, 0]],
    [[0, 0, 0]],
], ids=["ties", "powers", "top", "fast-path-top", "past-fast-path", "zero"])
def test_exact_norm_sq_near_powers_of_two_and_ties(rows):
    expected = [float(sum(int(c) ** 2 for c in row)) for row in rows]
    assert exact_norm_sq(np.array(rows, dtype=np.int64)).tolist() == expected


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
