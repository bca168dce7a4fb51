"""Acceptance gate: every criterion at its stated tolerance, one line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
summary lines; each test is one criterion and fails loudly on violation.
"""

import math

import numpy as np
import pytest

from disslab import checks
from disslab.dissipation import dissipation_sweep, tau_d_exact, tau_d_operator
from disslab.fields import SpectralConvention, SpectralField, random_sparse_field
from disslab.fitting import line_fit
from disslab.mixing import (
    RateFunction,
    strong_envelope,
    transfer_exponents,
    transfer_rate,
    weak_cesaro,
    weak_rate_envelope,
)
from disslab.pulsed import PulsedSystem, evolve_many
from disslab.shear import CtsState, ShearFlow, tau_d_cts, transport_gap_cts
from disslab.toral import ToralAutomorphism, verify_norm_form

LAM_PLUS = (3 + math.sqrt(5)) / 2
BATTERY_NUS = (1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6)
N_FIELDS = 100
N_STEPS = 20


def report(criterion: int, ok: bool, detail: str):
    print(f"ACCEPTANCE {criterion:2d}: {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"criterion {criterion}: {detail}"


@pytest.fixture(scope="module")
def cat():
    return ToralAutomorphism(((2, 1), (1, 1)))


@pytest.fixture(scope="module")
def conv():
    return SpectralConvention(2, "lattice")


@pytest.fixture(scope="module")
def battery(cat, conv):
    """100 random sparse fields evolved 20 steps at each battery nu."""
    rng = np.random.default_rng(1234)
    fields = [random_sparse_field(conv, rng, n_modes=6, kmax=6) for _ in range(N_FIELDS)]
    trajs = evolve_many(fields * len(BATTERY_NUS),
                        [PulsedSystem(cat, nu, conv) for nu in BATTERY_NUS for _ in fields], N_STEPS)
    runs = {nu: trajs[i * N_FIELDS:(i + 1) * N_FIELDS] for i, nu in enumerate(BATTERY_NUS)}
    return fields, runs


@pytest.fixture(scope="module")
def identity_margins(battery):
    """Worst energy residual, sandwich margin and gap margin over all 600 runs."""
    return checks.identity_margins((traj for runs in battery[1].values() for traj in runs), N_STEPS)


@pytest.fixture(scope="module")
def exact_sweep(cat):
    nus = np.exp(np.linspace(math.log(1e-8), math.log(1e-2), 13))
    return dissipation_sweep(cat, nus, "exact")


@pytest.fixture(scope="module")
def cts_results():
    flow = ShearFlow.sinusoidal()
    geo = SpectralConvention(2, "geometric")
    nus = np.logspace(-2, -4, 5)
    taus, hint = [], None
    for nu in nus:
        tau = tau_d_cts(flow, float(nu), geo, k1_max=16, grid_size=64, t_hint=hint)
        hint = 2.5 * tau
        taus.append(tau)
    return flow, geo, nus, np.array(taus)


def test_criterion_01_energy_identity(identity_margins):
    worst = identity_margins[0]
    report(1, worst < 1e-12, f"one-step energy equality, max relative residual {worst:.2e}")


def test_criterion_02_sandwich(identity_margins):
    worst = identity_margins[1]
    report(2, worst >= -1e-12, f"H1 sandwich of E_nu, worst relative margin {worst:.2e}")


def test_criterion_03_inviscid_gap(identity_margins):
    worst = identity_margins[2]
    report(3, worst >= -1e-12, f"transport-gap bound, worst margin {worst:.2e}")


def test_criterion_04_oracle_equivalence(cat):
    pairs = {}
    for nu in (1e-2, 1e-3, 1e-4):
        pairs[nu] = (tau_d_exact(cat, nu), tau_d_operator(cat, nu))
    agree = all(a == b for a, b in pairs.values())

    # exhaustive lattice check of tau_d(0.1) = 4: the incumbent 21 certifies
    # the scan radius sqrt(21)/sigma_min < 13
    a = np.array(cat.matrix, dtype=np.int64)
    rng_box = np.arange(-13, 14)
    k1, k2 = np.meshgrid(rng_box, rng_box, indexing="ij")
    pts = np.stack([k1.ravel(), k2.ravel()], axis=1)
    pts = pts[np.any(pts != 0, axis=1)]
    mins = []
    cur = pts
    total = np.zeros(len(pts), dtype=np.int64)
    for _ in range(4):
        cur = cur @ a  # A^T k as row vectors
        total = total + np.sum(cur * cur, axis=1)
        mins.append(int(np.min(total)))
    exhaustive = mins[2] <= 10 < mins[3] and tau_d_exact(cat, 0.1) == 4
    report(
        4,
        agree and exhaustive,
        f"exact vs operator {pairs}; exhaustive S_3={mins[2]}, S_4={mins[3]}, tau_d(0.1)=4",
    )


def test_criterion_05_log_scaling(exact_sweep):
    slope_target = 1.0 / math.log(LAM_PLUS)
    fit = exact_sweep.fit
    ok = abs(fit.slope - slope_target) / slope_target < 0.15 and fit.r_squared >= 0.99
    report(5, ok, f"tau_d vs |ln nu| slope {fit.slope:.4f} (target {slope_target:.4f}), r^2 {fit.r_squared:.4f}")


def test_criterion_06_double_exponential_decay(cat):
    fit_op, fit_single = checks.decay_fits(cat, 1e-6, 14)
    ok = (
        abs(fit_op.gamma_hat - LAM_PLUS) / LAM_PLUS < 0.05
        and abs(fit_single.gamma_hat - LAM_PLUS**2) / LAM_PLUS**2 < 0.05
        and fit_op.model == fit_single.model == "double_exponential"
    )
    report(6, ok, f"gamma_hat worst-case {fit_op.gamma_hat:.4f} (target {LAM_PLUS:.4f}), "
                  f"single-mode {fit_single.gamma_hat:.4f} (target {LAM_PLUS**2:.4f})")


def test_criterion_07_lower_bound_chain(cat, battery):
    failures = [res for runs in battery[1].values() for res in checks.chain_violations(runs)]
    report(7, not failures, f"per-step decay chain with 1e-9 slack, {len(failures)} violations")


def test_criterion_08_strong_mixing_slopes(cat):
    target = -math.log(LAM_PLUS)
    env11 = strong_envelope(cat, 1.0, 1.0, 12)
    env21 = strong_envelope(cat, 2.0, 1.0, 12)
    s11 = env11.slope_fit(3, 12).slope
    s21 = env21.slope_fit(3, 12).slope
    ok = abs(s11 - target) / abs(target) < 0.10 and abs(s21 - target) / abs(target) < 0.10
    report(8, ok, f"envelope slopes (1,1): {s11:.4f}, (2,1): {s21:.4f} (target {target:.4f})")


def test_criterion_09_weak_mixing(cat, conv):
    f = SpectralField(conv, {(1, 0): 1.0})
    vals = weak_cesaro(cat, f, f, 10_000)
    ns = np.arange(1, 10_001)
    exact = bool(np.all(vals == np.sqrt(1.0 / ns)))  # bit-for-bit

    exps = {}
    grid = np.unique(np.round(np.logspace(1.5, 5, 25)).astype(int))
    for beta, target in ((2.0, 0.5), (0.5, 0.25)):
        env = weak_rate_envelope(2, beta, grid)
        exps[beta] = -line_fit(np.log(grid), np.log(env)).slope
    ok = (
        exact
        and abs(exps[2.0] - 0.5) / 0.5 < 0.15
        and abs(exps[0.5] - 0.25) / 0.25 < 0.15
    )
    report(9, ok, f"Cesaro = 1/sqrt(n) exactly to n = 1e4: {exact}; "
                  f"alpha=0 exponents beta=2: {exps[2.0]:.3f}, beta=0.5: {exps[0.5]:.3f}")


def test_criterion_10_bound_consistency(cat, exact_sweep):
    fitted, verdicts = checks.strong_bound_verdicts(exact_sweep, cat, 12)
    assert fitted.kind == "exponential"
    bound_ok = all(v["satisfied"] for v in verdicts)
    worst = checks.h1_bisection_error(np.logspace(-8, -2, 20))
    report(10, bound_ok and worst < 1e-6,
           f"tau_d <= 34/(nu H1) at {len(verdicts)} sweep points; "
           f"closed form vs bisection max rel diff {worst:.2e}")


def test_criterion_11_trivial_bound(cat, exact_sweep, cts_results):
    lam1_lattice = 1.0
    all_taus = [(e["nu"], e["tau_d"], lam1_lattice) for e in exact_sweep.entries]
    for nu in (1e-2, 1e-3):
        all_taus.append((nu, tau_d_operator(cat, nu), lam1_lattice))
    flow, geo, nus_cts, taus_cts = cts_results
    lam1_geo = geo.eigenvalue((1, 0))
    all_taus.extend((float(nu), float(tau), lam1_geo) for nu, tau in zip(nus_cts, taus_cts))
    trivial_ok = all(tau <= 1.0 / (nu * lam1) + 1.0 for nu, tau, lam1 in all_taus)

    entries = sorted(exact_sweep.entries, key=lambda e: -e["nu"])
    nutau = [e["nu"] * e["tau_d"] for e in entries]
    decreasing = all(b < a for a, b in zip(nutau, nutau[1:]))
    at_1e6 = next(e["nu"] * e["tau_d"] for e in entries if abs(e["nu"] - 1e-6) < 1e-9)
    report(11, trivial_ok and decreasing and at_1e6 < 0.05,
           f"tau_d <= 1/(nu lambda_1) + 1 at {len(all_taus)} points; "
           f"nu*tau_d strictly decreasing, {at_1e6:.2e} at nu = 1e-6")


def test_criterion_12_number_theory(cat):
    checked, violations = checks.kronecker_box_scan(3)
    nf = verify_norm_form(cat, 200)
    ok = (
        violations == 0
        and nf["integer_form_ok"]
        and abs(nf["min_product"] - 0.2) < 1e-9
    )
    report(12, ok, f"Kronecker scan: {checked} SL2 matrices, {violations} violations; "
                   f"norm form nonzero up to |k| <= 200, min product {nf['min_product']:.6f}")


def test_criterion_13_continuous_time(cts_results):
    flow, geo, nus, taus = cts_results
    state = CtsState.from_modes({(1, 0): 1.0, (2, 1): 0.5}, 16, 64, 1e-2, geo)
    d_coarse, d_fine = checks.cts_energy_defects(state, flow, 1.0, 0.02)
    second_order = 2.5 < d_coarse / d_fine < 6.0

    gap = transport_gap_cts(CtsState.from_modes({(1, 0): 1.0}, 16, 64, 1e-3, geo), flow, 2.0)
    gap_ok = gap["gap_sq"] <= gap["bound"]

    fit = line_fit(np.log(nus), np.log(taus))
    exponent = -fit.slope
    nutau = nus * taus
    order = np.argsort(nus)[::-1]
    monotone = bool(np.all(np.diff(nutau[order]) < 0))
    ok = second_order and gap_ok and 0.45 <= exponent <= 0.65 and monotone
    report(13, ok, f"energy defect ratio {d_coarse / d_fine:.2f} (~4); transport gap ok; "
                   f"tau_d ~ nu^-{exponent:.3f} in [0.45, 0.65]; nu*tau_d monotone to "
                   f"{float(np.min(nutau)):.2e}")


def test_criterion_14_rate_transfer():
    h = RateFunction.exponential(2.0, 0.7, 1.0, 1.0)
    identity = transfer_rate(h, 1.0, 1.0, 1.0)
    id_ok = identity.kind == "exponential" and identity.params == h.params

    hand = (
        ((1, 1, 0.5, 0.5), (0.25, 0.25)),
        ((1, 2, 2, 1), (0.75, 0.5)),
        ((2, 1, 1, 3), (1.25, 0.5)),
    )
    formulas_ok = all(
        transfer_exponents(*args) == pytest.approx(expect) for args, expect in hand
    )

    out = transfer_rate(h, 0.5, 0.5, 2.0)
    ts = (1.0, 5.0, 10.0)
    measured = -(math.log(out(ts[2])) - math.log(out(ts[0]))) / (ts[2] - ts[0])
    delta = transfer_exponents(1, 1, 0.5, 0.5)[1]
    decay_ok = abs(measured - delta * 0.7) / (delta * 0.7) < 0.01
    report(14, id_ok and formulas_ok and decay_ok,
           f"identity transfer exact; gamma/delta hand values match; "
           f"transferred decay constant {measured:.4f} = delta*c2 within 1%")
