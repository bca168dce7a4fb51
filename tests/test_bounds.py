import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from disslab import bounds
from disslab.bounds import (
    BoundProfile,
    _feasible,
    check_bound,
    corollary_exponents,
    eigenvalue_floor,
    eval_H,
    h1_exponential_fixed_point,
    h1_exponential_relation_defect,
    h1_power_closed_form,
    h2_power_closed_form,
    lattice_count,
    weyl_constant,
)
from disslab.dissipation import DissipationReport, dissipation_sweep
from disslab.fields import SpectralConvention
from disslab.mixing import RateFunction, fit_rate, strong_envelope


# ---------------------------------------------------------------------------
# Weyl constant
# ---------------------------------------------------------------------------

def test_weyl_geometric_d2():
    assert weyl_constant(2, 1.0, 0.1, scaling="geometric") == pytest.approx(1.1 / (4 * math.pi), rel=1e-14)


def test_weyl_lattice_is_ball_volume():
    assert weyl_constant(2, scaling="lattice") == pytest.approx(math.pi, rel=1e-14)
    assert weyl_constant(3, scaling="lattice") == pytest.approx(4 * math.pi / 3, rel=1e-14)


def test_weyl_geometric_d4():
    assert weyl_constant(4, 1.0, 0.0, scaling="geometric") == pytest.approx(1 / (32 * math.pi**2), rel=1e-14)


@pytest.mark.parametrize("d", [2, 3, 4])
@pytest.mark.parametrize("lam", [10, 10.5, 50])
def test_lattice_count_matches_brute_force(d, lam):
    # non-square and non-integer lam: k = (3, 1) has |k|^2 = 10 > floor(sqrt(10))^2
    r = math.isqrt(int(lam))
    brute = sum(1 for k in itertools.product(range(-r, r + 1), repeat=d) if 0 < sum(c * c for c in k) <= lam)
    assert lattice_count(d, lam) == brute


@pytest.mark.parametrize("lam", [1e3, 1e4])
def test_weyl_matches_lattice_count(lam):
    count = lattice_count(2, lam)
    assert count == pytest.approx(weyl_constant(2, scaling="lattice") * lam, rel=0.01)


# ---------------------------------------------------------------------------
# H evaluation
# ---------------------------------------------------------------------------

def test_h1_power_closed_form_vs_bisection():
    rate = RateFunction.power(1.0, 1.0, 1.0, 1.0)
    profile = BoundProfile("H1", rate)
    for nu in np.logspace(-8, -2, 20):
        h_bis, degenerate = eval_H(profile, float(nu))
        assert not degenerate
        assert h_bis == pytest.approx(h1_power_closed_form(1, 1, 1, 1, float(nu)), rel=1e-6)


def test_h1_power_closed_form_general_parameters():
    rate = RateFunction.power(0.7, 0.5, 1.5, 0.5)
    profile = BoundProfile("H1", rate)
    for nu in (1e-6, 1e-4):
        h_bis, _ = eval_H(profile, nu)
        assert h_bis == pytest.approx(h1_power_closed_form(0.7, 0.5, 1.5, 0.5, nu), rel=1e-6)


def test_h2_power_closed_form_vs_bisection():
    ct = weyl_constant(2, scaling="lattice")
    rate = RateFunction.power(1.0, 0.5, 1.0, 1.0, mode="weak")
    profile = BoundProfile("H2", rate, dimension=2, weyl_c=ct)
    for nu in (1e-8, 1e-6, 1e-4):
        h_bis, degenerate = eval_H(profile, nu)
        assert not degenerate
        assert h_bis == pytest.approx(h2_power_closed_form(1.0, 0.5, 1.0, 1.0, 2, ct, nu), rel=1e-6)
    # at desk-size nu the sup drops below lambda_1 and the bound degenerates
    _, degenerate = eval_H(profile, 1e-2)
    assert degenerate


@pytest.mark.parametrize("nu", [0.0, -1e-3, math.nan, math.inf])
def test_eval_H_refuses_a_nonfinite_or_nonpositive_nu(nu):
    # a NaN or infinite nu once read as the degenerate point (lambda_1, True)
    with pytest.raises(ValueError, match="nu must be finite and positive"):
        eval_H(BoundProfile("H1", RateFunction.power(1, 1)), nu)


def test_a_level_that_underflows_rules_out_every_larger_lambda():
    # H4's level lambda^(-3/2) / (2 sqrt(ct)) is 0 at lambda = 1e300, and
    # h^-1(0) refused it ("inverse needs y > 0")
    rate = RateFunction.power(2.0, 0.25, mode="weak")
    profile = BoundProfile("H4", rate, grad_u_norm=1.0, weyl_c=weyl_constant(2, scaling="lattice"))
    with pytest.raises(ValueError, match="inverse needs y > 0"):
        rate.inverse(1e300 ** -1.5)
    assert _feasible(profile, 1e-2, 1e300) is False


@pytest.mark.parametrize("which, rate", [
    ("H2", RateFunction.power(1.0, 0.5, mode="weak")),
    ("H3", RateFunction.exponential(1.0, 0.5)),
    ("H4", RateFunction.exponential(1.0, 0.5, mode="weak")),
    ("H3", RateFunction.tabulated((1.0, 2.0, 4.0, 8.0), (1.0, 0.6, 0.35, 0.2))),
])
def test_a_degenerate_H_costs_one_feasible_call_per_start(monkeypatch, which, rate):
    # "degenerate" is decided at the starts alone: each is asked once and
    # answers False, and no lambda past them is scanned (the tabulated rate
    # has starts above lambda_1 = 1)
    profile = BoundProfile(which, rate, grad_u_norm=50.0, weyl_c=weyl_constant(2, scaling="lattice"))
    calls = []
    feasible = bounds._feasible

    def recording(profile, nu, lam):
        calls.append((lam, feasible(profile, nu, lam)))
        return calls[-1][1]

    monkeypatch.setattr(bounds, "_feasible", recording)
    assert eval_H(profile, 1e-2) == (1.0, True)
    assert calls == [(lam, False) for lam in bounds._starts(profile)]


# lambda over [1, 1e14] in steps of 0.8%, scaled by lambda_1
LAMBDA_GRID = np.exp(np.linspace(0.0, math.log(1e14), 4001)).tolist()


@st.composite
def rates(draw):
    """(kind, params, alpha, beta): a power law, an exponential or 2-6 log-linear samples.

    Samples start at t >= 1 with h >= 1 and local exponents <= 1/2 (3 for a
    strong rate), so they keep above the weak floor 1/sqrt(t) in either mode.
    """
    kind = draw(st.sampled_from(["power", "exponential", "tabulated"]))
    alpha, beta = draw(st.floats(0.25, 2.0)), draw(st.floats(0.25, 2.0))
    if kind != "tabulated":
        return kind, (draw(st.floats(0.1, 3.0)), draw(st.floats(0.1, 5.0))), alpha, beta
    n = draw(st.integers(2, 6))
    ts = np.cumsum(draw(st.lists(st.floats(0.2, 3.0), min_size=n, max_size=n))) + 1.0
    exponents = draw(st.lists(st.floats(0.05, draw(st.sampled_from([0.5, 3.0]))), min_size=n - 1, max_size=n - 1))
    hs = [draw(st.floats(1.0, 3.0))]
    for t0, t1, p in zip(ts, ts[1:], exponents):
        hs.append(hs[-1] * (t1 / t0) ** -p)
    return kind, (tuple(ts.tolist()), tuple(hs)), alpha, beta


def _missed_by_the_scan(c1, c2, grad, nu):
    # feasible sets just above lambda_1 and narrower than one 1.6x step: a
    # scan from lambda_1 in such steps meets no feasible point and calls H degenerate
    return example("H3", "lattice", ("exponential", (c1, c2), 1.0, 1.0), grad, nu)


@_missed_by_the_scan(0.5, 2.0, 2 * math.pi, 1e-2)
@_missed_by_the_scan(0.5, 2.0, 2 * math.pi, 1e-1)
@_missed_by_the_scan(0.5, 2.0, 50.0, 1e-8)
@_missed_by_the_scan(0.5, 2.0, 50.0, 1e-4)
@_missed_by_the_scan(0.5, 2.0, 50.0, 1e-2)
@_missed_by_the_scan(0.5, 2.0, 50.0, 1e-1)
@_missed_by_the_scan(0.3, 5.0, 2 * math.pi, 1e-1)
@_missed_by_the_scan(0.3, 5.0, 50.0, 1e-4)
@_missed_by_the_scan(0.3, 5.0, 50.0, 1e-2)
@_missed_by_the_scan(0.3, 5.0, 50.0, 1e-1)
@settings(max_examples=100)
@given(st.sampled_from(["H1", "H2", "H3", "H4"]), st.sampled_from(["lattice", "geometric"]), rates(),
       st.floats(0.1, 50.0), st.floats(-8.0, -1.0).map(lambda e: 10.0**e))
def test_H_is_the_sup_of_its_feasible_set_on_a_fine_grid(which, scaling, rate, grad, nu):
    kind, params, alpha, beta = rate
    mode = "weak" if which in ("H2", "H4") else "strong"
    if kind == "tabulated":
        h = RateFunction.tabulated(*params, alpha, beta, mode)
    else:
        h = RateFunction(kind, params, alpha=alpha, beta=beta, mode=mode)
    lam1 = SpectralConvention(2, scaling).lambda_1
    profile = BoundProfile(which, h, grad_u_norm=grad, weyl_c=weyl_constant(2, scaling=scaling), lambda_1=lam1)
    H, degenerate = eval_H(profile, nu)
    feasible = [lam1 * lam for lam in LAMBDA_GRID if _feasible(profile, nu, lam1 * lam)]
    if degenerate:
        assert H == lam1 and not feasible
    else:
        assert _feasible(profile, nu, H)
        assert all(lam <= H * (1 + 1e-6) for lam in feasible)


def test_h1_exponential_satisfies_implicit_relation():
    rate = RateFunction.exponential(1.0, 1.0, 1.0, 1.0)
    profile = BoundProfile("H1", rate)
    for nu in np.logspace(-8, -4, 9):
        h, _ = eval_H(profile, float(nu))
        assert h1_exponential_relation_defect(1.0, 1.0, 1.0, 1.0, float(nu), h) < 1e-6


def test_h1_exponential_log_squared_scaling():
    # H1 ~ C / (nu |ln nu|^2) up to ln|ln nu| corrections; at desk nu the
    # ratio drifts slowly but stays within a factor 1.6 across four decades
    rate = RateFunction.exponential(1.0, 1.0, 1.0, 1.0)
    profile = BoundProfile("H1", rate)
    ratios = []
    for nu in np.logspace(-8, -4, 9):
        h, _ = eval_H(profile, float(nu))
        ratios.append(h * nu * math.log(nu) ** 2)
    assert max(ratios) / min(ratios) < 1.6


def test_h1_exponential_fixed_point_refinement():
    raw = h1_exponential_fixed_point(1.0, 1.0, 1.0, 1.0, 1e-6, refine=0)
    refined = h1_exponential_fixed_point(1.0, 1.0, 1.0, 1.0, 1e-6, refine=1)
    assert refined >= raw
    rate = RateFunction.exponential(1.0, 1.0, 1.0, 1.0)
    h_sup, _ = eval_H(BoundProfile("H1", rate), 1e-6)
    deep = h1_exponential_fixed_point(1.0, 1.0, 1.0, 1.0, 1e-6, refine=40)
    assert deep == pytest.approx(h_sup, rel=1e-6)
    assert raw <= h_sup  # the unrefined value is a certified lower bound


def test_h3_log_power_scaling():
    rate = RateFunction.power(1.0, 1.0, 1.0, 1.0)
    profile = BoundProfile("H3", rate, grad_u_norm=1.0)
    ratios = []
    for nu in np.logspace(-8, -4, 9):
        h, degenerate = eval_H(profile, float(nu))
        assert not degenerate
        ratios.append(h / abs(math.log(nu)) ** (2 * 1.0 / 2.0))
    assert max(ratios) / min(ratios) < 1.2


def test_h4_evaluates_and_grows():
    # the weak continuous bound opens up only for mild velocity gradients:
    # h_inv enters a double exponential, so t(lambda_1) must stay O(1)
    ct = weyl_constant(2, scaling="lattice")
    rate = RateFunction.power(0.2, 0.5, 1.0, 1.0)
    profile = BoundProfile("H4", rate, dimension=2, grad_u_norm=0.05, weyl_c=ct)
    h_coarse, deg_coarse = eval_H(profile, 1e-4)
    h_fine, deg_fine = eval_H(profile, 1e-7)
    assert not deg_coarse and not deg_fine
    assert h_fine > h_coarse > 1.0


def test_h_monotone_in_nu():
    rate = RateFunction.power(1.0, 1.0, 1.0, 1.0)
    profile = BoundProfile("H1", rate)
    values = [eval_H(profile, float(nu))[0] for nu in np.logspace(-8, -2, 10)]
    assert all(a >= b for a, b in zip(values, values[1:]))  # grid is nu increasing


def test_h_degenerate_flag():
    # a rate so slow that no eigenvalue qualifies at huge nu
    rate = RateFunction.power(50.0, 0.1, 1.0, 1.0)
    profile = BoundProfile("H1", rate)
    h, degenerate = eval_H(profile, 10.0)
    assert degenerate and h == profile.lambda_1


def test_profile_requirements():
    rate = RateFunction.power(1.0, 1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        BoundProfile("H3", rate)  # missing grad_u_norm
    with pytest.raises(ValueError):
        BoundProfile("H2", rate)  # missing weyl constant


# ---------------------------------------------------------------------------
# corollary exponents
# ---------------------------------------------------------------------------

def test_corollary_exponents():
    assert corollary_exponents("discrete_strong_power", alpha=1, beta=1, p=1) == pytest.approx(2 / 3)
    assert corollary_exponents("discrete_weak_power", alpha=1, beta=1, p=0.5, d=2) == pytest.approx(6 / 7)
    assert corollary_exponents("cts_strong_power", alpha=1, beta=1, p=1) == pytest.approx(1.0)
    assert corollary_exponents(
        "cts_strong_exponential", alpha=1, beta=1, c2=2.0, grad_u_norm=1.0
    ) == pytest.approx(4 / 6)
    assert corollary_exponents("cts_weak_power", alpha=1, beta=1, p=0.5, d=2) == pytest.approx(1 / 3)
    assert corollary_exponents(
        "eigenvalue_floor_exponential", alpha=1, beta=1, c2=2.0, grad_u_norm=1.0
    ) == pytest.approx(2 / 6)


def test_corollary_p_to_zero_limit():
    assert corollary_exponents("discrete_strong_power", alpha=1, beta=1, p=1e-12) == pytest.approx(1.0)


def test_weak_corollary_rejects_fast_p():
    with pytest.raises(ValueError, match="1/sqrt"):
        corollary_exponents("discrete_weak_power", alpha=1, beta=1, p=0.7, d=2)


# ---------------------------------------------------------------------------
# bound verdicts
# ---------------------------------------------------------------------------

def test_check_bound_cat_map(cat):
    nus = np.exp(np.linspace(math.log(1e-5), math.log(1e-2), 6))
    report = dissipation_sweep(cat, nus, "exact")
    env = strong_envelope(cat, 1.0, 1.0, 12)
    fitted = fit_rate(env.n_values[1:], env.values[1:])
    assert fitted.kind == "exponential"
    verdicts = check_bound(report, BoundProfile("H1", fitted))
    assert all(v["satisfied"] for v in verdicts)
    assert all(v["margin"] > 0 for v in verdicts)


def test_check_bound_detects_violation(cat):
    report = DissipationReport()
    report.entries = [{"nu": 1e-3, "tau_d": 10**9, "method": "exact"}]
    rate = RateFunction.exponential(1.0, 1.0, 1.0, 1.0)
    verdicts = check_bound(report, BoundProfile("H1", rate))
    assert not verdicts[0]["satisfied"]


def test_eigenvalue_floor():
    assert eigenvalue_floor(50.0) == pytest.approx(0.02)
    assert eigenvalue_floor(1e12) == pytest.approx(1e-12)
    with pytest.raises(ValueError):
        eigenvalue_floor(0.0)


def test_weyl_constant_needs_its_scaling():
    # a default scaling mixed conventions: the geometric constant with the
    # lattice lambda_1 = 1 of a default BoundProfile
    with pytest.raises(TypeError, match="scaling"):
        weyl_constant(2)
