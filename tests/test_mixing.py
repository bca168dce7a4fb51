import hashlib
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from conftest import ergodic_automorphisms
from disslab import dissipation, fields, mixing
from disslab.fields import SpectralField, random_sparse_field, shell_counts, sobolev_norm
from disslab.fitting import line_fit
from disslab.mixing import (
    RateFunction,
    fit_rate,
    lattice_ball_sum,
    strong_envelope,
    transfer_exponents,
    transfer_rate,
    weak_cesaro,
    weak_rate_envelope,
)
from disslab.toral import ToralAutomorphism

LOG_LAM = math.log((3 + math.sqrt(5)) / 2)


# ---------------------------------------------------------------------------
# rate functions
# ---------------------------------------------------------------------------

def test_rate_function_kinds():
    h = RateFunction.power(2.0, 1.5)
    assert h(4.0) == pytest.approx(2.0 * 4.0**-1.5)
    assert h.inverse(h(4.0)) == pytest.approx(4.0)
    e = RateFunction.exponential(3.0, 0.5)
    assert e(2.0) == pytest.approx(3.0 * math.exp(-1.0))
    assert e.inverse(e(2.0)) == pytest.approx(2.0)
    t = RateFunction.tabulated([1, 2, 4, 8], [1.0, 0.5, 0.25, 0.125])
    assert t(2.0) == pytest.approx(0.5)
    assert t(3.0) == pytest.approx(1.0 / 3.0, rel=1e-12)  # log-log chord is exact on 1/t
    assert t.inverse(0.25) == pytest.approx(4.0)


def test_rate_function_validation():
    with pytest.raises(ValueError):
        RateFunction.power(1.0, 1.0, alpha=0.0, beta=1.0)  # strong needs alpha > 0
    with pytest.raises(ValueError):
        RateFunction.tabulated([1, 2], [0.5, 0.7])  # increasing
    with pytest.raises(ValueError):
        RateFunction.tabulated([1, 4], [1.0, 0.1], mode="weak", alpha=0.0)  # below 1/sqrt(n)
    RateFunction.tabulated([1, 4], [1.0, 0.5], mode="weak", alpha=0.0)  # exactly the floor


# ---------------------------------------------------------------------------
# strong envelope
# ---------------------------------------------------------------------------

def test_envelope_at_zero(cat):
    env = strong_envelope(cat, 1.0, 1.0, 4)
    assert env.values[0] == pytest.approx(1.0)


def test_envelope_requires_conditions():
    shear_like = ToralAutomorphism(((1, 1), (0, 1)))
    with pytest.raises(ValueError):
        strong_envelope(shear_like, 1.0, 1.0, 4)


def test_envelope_slope_alpha_beta_11(cat):
    env = strong_envelope(cat, 1.0, 1.0, 12)
    fit = env.slope_fit(3, 12)
    assert fit.slope == pytest.approx(-LOG_LAM, rel=0.10)


def test_envelope_slope_alpha_2_beta_1(cat):
    # (d-1) alpha > beta: the decay exponent saturates at beta/(d-1) = 1
    env = strong_envelope(cat, 2.0, 1.0, 12)
    fit = env.slope_fit(3, 12)
    assert fit.slope == pytest.approx(-LOG_LAM, rel=0.10)


def test_envelope_monotone(cat):
    env = strong_envelope(cat, 1.0, 1.0, 12)
    assert np.all(np.diff(env.values[1:]) <= 1e-15)


def test_envelope_needs_no_orbit_step_past_n_max(cat):
    # e(n) does not depend on n_max
    env14 = strong_envelope(cat, 1.0, 1.0, 14)
    env15 = strong_envelope(cat, 1.0, 1.0, 15)
    assert env15.values[:15].tobytes() == env14.values.tobytes()


@pytest.mark.parametrize("beta", [math.nextafter(1e-12, 0.0), 1e-12, math.nextafter(1e-12, 1.0)])
def test_strong_shell_limit_matches_the_dyadic_count(cat, beta):
    # at n = 0, v0 = 1 and log2 P = 1e-9: the 4-adic count floor(1e-9 / (2 beta)) + 1
    # passes 500 exactly when the dyadic count floor(1e-9 / beta) + 1 passes 1000
    assert mixing.STRONG_SHELL_LIMIT == 500 and mixing._LOG2_PAD == 1e-9
    if math.floor(1e-9 / beta) + 1 > 1000:
        with pytest.raises(ValueError, match="at n = 0 needs 501 shells"):
            strong_envelope(cat, 1.0, beta, 0)
    else:
        assert strong_envelope(cat, 1.0, beta, 0).values[0] == 1.0


@pytest.mark.parametrize("alpha, beta, digest", [
    (1.0, 1.0, "2dfbba43157b1bdcf7e8398aaf892b39922d1bc33378cdd60d6514f654eafa42"),
    (2.0, 1.0, "f7b9221f92349931d302dae79f4a2ef2169575e04320bdd9fc058d31d6bb7ac4"),
    (0.5, 2.0, "f5d34c21c1839c4c36d88b9dcf2c81fba7c6c349d7269b4a1574d11aa508d0ab"),
    (1.5, 0.7, "acbb5af819f7860254455e9b32355c54154dc818e74a50ee9bdc9c432dc54fd1"),
])
def test_envelope_cat_values_pinned(cat, alpha, beta, digest):
    # sha256 of the float64 values written by the radius-400 ball scan
    values = strong_envelope(cat, alpha, beta, 12).values
    assert hashlib.sha256(values.tobytes()).hexdigest() == digest


@pytest.mark.parametrize("rows, expected", [
    (((0, 0, 1), (1, 0, 0), (0, 1, 1)),
     [1.0, 1.0, 1.0, 0.7071067811865476, 0.7071067811865476, 0.5773502691896257, 0.4472135954999579]),
    (((0, 0, 0, -1), (1, 0, 0, 1), (0, 1, 0, 0), (0, 0, 1, 3)),
     [1.0, 1.0, 0.7071067811865476, 0.5773502691896257, 0.24253562503633297, 0.18257418583505536,
      0.10846522890932808]),
], ids=["3d", "4d"])
def test_envelope_companions_pinned(rows, expected):
    # values captured before the candidate set was halved and left undeduplicated
    assert strong_envelope(ToralAutomorphism(rows), 1.0, 1.0, 6).values.tolist() == expected


def _reference_envelope(rows, alpha, beta, values):
    """e(n) as a pure-Python max over the full +-ball |k| <= ceil(P^{1/beta}), P = 1/values[n].

    |B^n k| >= 1 for k != 0, so a mode beating values[n] has |k|^beta < P
    and lies in that ball.
    """
    (a, b), (c, d) = rows
    out = []
    for n, value in enumerate(values):
        radius = math.ceil((1.0 / value) ** (1.0 / beta))
        best = 0.0
        for x in range(-radius, radius + 1):
            for y in range(-radius, radius + 1):
                if 0 < x * x + y * y <= radius * radius:
                    u, v = x, y
                    for _ in range(n):
                        u, v = d * u - c * v, -b * u + a * v  # k -> (A^T)^{-1} k
                    best = max(best, float(u * u + v * v) ** (-alpha / 2) * float(x * x + y * y) ** (-beta / 2))
        out.append(best)
    return out


# [[1, p], [0, 1]] [[1, 0], [q, 1]] [[1, r], [0, 1]] has determinant 1 and
# trace 2 + q (p + r); it is hyperbolic when the trace exceeds 2 in size
hyperbolic_sl2 = st.tuples(st.integers(-4, 4), st.integers(-4, 4), st.integers(-4, 4)).map(
    lambda pqr: ((1 + pqr[0] * pqr[1], pqr[2] * (1 + pqr[0] * pqr[1]) + pqr[0]),
                 (pqr[1], pqr[1] * pqr[2] + 1))
).filter(lambda rows: abs(rows[0][0] + rows[1][1]) > 2)


@settings(max_examples=40, deadline=None, database=None, derandomize=True,
          suppress_health_check=[HealthCheck.filter_too_much])
@given(hyperbolic_sl2, st.floats(0.1, 3.0), st.floats(1.0, 3.0), st.integers(1, 4))
def test_envelope_matches_brute_force(rows, alpha, beta, n_max):
    env = strong_envelope(ToralAutomorphism(rows), alpha, beta, n_max)
    # the reference ball of radius ceil(e(n)^{-1/beta}) stays small
    assume(math.ceil(float(np.min(env.values)) ** (-1.0 / beta)) <= 30)
    expected = _reference_envelope(rows, alpha, beta, env.values.tolist())
    # scalar and vectorised powers may differ in the last ulp
    assert env.values.tolist() == pytest.approx(expected, rel=1e-14)


def _dyadic_envelope(automorphism, alpha, beta, n_max):
    """e(0..n_max) by the enumeration ``strong_envelope`` ran before its shells widened.

    One ellipsoid k^T (4^(j+1) G_n + C_j I) k <= 2 C_j 4^(j+1) per dyadic shell
    2^j <= |k| < 2^(j+1), C_j = ceil((P 2^(-j beta))^(2/alpha)), each reduced
    by integral LLL from the unit basis and enumerated there (the LLL and the
    enumerator are checked against box scans in test_dissipation.py).
    """
    d = automorphism.dimension
    b = np.array(automorphism.inverse_transpose, dtype=object)
    units = [tuple(int(i == j) for j in range(d)) for i in range(d)]
    power = np.array(units, dtype=object)
    incumbents = units
    values = np.empty(n_max + 1)
    for n in range(n_max + 1):
        v0 = float(np.max(mixing._envelope_terms(power, incumbents, alpha, beta)))
        log_p = mixing._LOG2_PAD - math.log2(v0)
        gram = (power.T @ power).tolist()
        candidates = list(incumbents)
        for j in range(math.floor(log_p / beta) + 1):
            c_j = math.ceil(2.0 ** ((log_p - j * beta) * 2.0 / alpha))
            shell = 4 ** (j + 1)
            form = [[shell * gram[i][l] + c_j * (i == l) for l in range(d)] for i in range(d)]
            basis, _, dm, lam = dissipation._lll_reduce(form)
            candidates += [dissipation._map_back(x, basis) for _, x in dissipation._enumerate(dm, lam, 2 * c_j * shell)]
        terms = mixing._envelope_terms(power, candidates, alpha, beta)
        best = int(np.argmax(terms))
        values[n] = float(terms[best])
        incumbents = units + [candidates[best]]
        power = b @ power
    return values


def _shell_of(form, bound, grams):
    """(n, j, C) with form = 16^(j+1) G_n + C I and bound = 2 C 16^(j+1), or None."""
    d = len(form)
    for n, g in enumerate(grams):
        for j in range(64):
            shell = 16 ** (j + 1)
            c = form[0][0] - shell * g[0][0]
            if c > 0 and bound == 2 * c * shell and all(
                    form[i][l] == shell * g[i][l] + c * (i == l) for i in range(d) for l in range(d)):
                return n, j, c
    return None


@settings(max_examples=100, deadline=None, database=None, derandomize=True)
@given(automorphism=ergodic_automorphisms(),
       exponents=st.sampled_from([(1.0, 1.0), (2.0, 1.0), (0.5, 2.0), (1.5, 0.75), (1.0, 0.5)]),
       n_max=st.integers(1, 8))
def test_envelope_matches_the_dyadic_unit_basis_enumeration(automorphism, exponents, n_max):
    alpha, beta = exponents
    b = np.array(automorphism.inverse_transpose, dtype=object)
    powers = [np.eye(automorphism.dimension, dtype=int).astype(object)]
    for _ in range(n_max):
        powers.append(b @ powers[-1])
    grams = [(p.T @ p).tolist() for p in powers]
    shells = []
    enumerate_ellipsoid = mixing.carried_short_vectors

    def enumerate_shell(form, bound, basis):
        # each shell is the 4-adic ellipsoid of some n and j, checked before it is enumerated
        shells.append(_shell_of(form, bound, grams))
        assert shells[-1] is not None, (form, bound)
        return enumerate_ellipsoid(form, bound, basis)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(mixing, "carried_short_vectors", enumerate_shell)
        env = strong_envelope(automorphism, alpha, beta, n_max)
    assert env.values.tobytes() == _dyadic_envelope(automorphism, alpha, beta, n_max).tobytes()
    # shells j = 0..J per n in turn, which together cover every mode that could reach e(n)
    order = [(n, j) for n, j, _ in shells]
    last = dict(order)
    assert order == [(n, j) for n in range(n_max + 1) for j in range(last[n] + 1)]
    for n, j, c in shells:
        assert c >= (4.0 ** (-j * beta) / env.values[n]) ** (2.0 / alpha) * (1 - 1e-12)
    for n, value in enumerate(env.values):
        assert 4.0 ** (last[n] + 1) > value ** (-1.0 / beta)


def test_envelope_dominates_correlations(cat, lattice2, rng):
    env = strong_envelope(cat, 1.0, 1.0, 8)
    for _ in range(50):
        f = random_sparse_field(lattice2, rng, n_modes=4, kmax=5)
        g = random_sparse_field(lattice2, rng, n_modes=4, kmax=5)
        na, nb = sobolev_norm(f, 1.0), sobolev_norm(g, 1.0)
        current = dict(f.coefficients)
        for n in range(9):
            corr = sum(a * g.coefficients.get(m, 0j).conjugate() for m, a in current.items())
            assert abs(corr) <= env.values[n] * na * nb * (1 + 1e-9)
            current = {cat.push_mode(m): a for m, a in current.items()}


# ---------------------------------------------------------------------------
# weak rates
# ---------------------------------------------------------------------------

def test_cesaro_single_mode_exact(cat, lattice2):
    f = SpectralField(lattice2, {(1, 0): 1.0})
    vals = weak_cesaro(cat, f, f, 200)
    ns = np.arange(1, 201)
    assert np.max(np.abs(vals * np.sqrt(ns) - 1.0)) < 1e-14


def test_cesaro_first_term_is_inner_product(cat, lattice2):
    f = SpectralField(lattice2, {(1, 0): 1.0, (0, 1): 0.5})
    g = SpectralField(lattice2, {(1, 0): 2.0})
    vals = weak_cesaro(cat, f, g, 1)
    assert vals[0] == pytest.approx(2.0)


def test_cesaro_disjoint_orbits(cat, lattice2):
    f = SpectralField(lattice2, {(1, 0): 1.0})
    g = SpectralField(lattice2, {(1, 1): 1.0})  # never hit by the (1,0) orbit
    assert np.max(weak_cesaro(cat, f, g, 60)) == 0.0


def test_cesaro_nonincreasing_and_floored(cat, lattice2, rng):
    f = random_sparse_field(lattice2, rng, n_modes=4, kmax=4)
    vals = weak_cesaro(cat, f, f, 100)
    assert np.all(np.diff(vals) <= 1e-12)
    ns = np.arange(1, 101)
    floor = f.norm_sq() / np.sqrt(ns)
    assert np.all(vals >= floor * (1 - 1e-12))


# m <= 20 in 4-D keeps the exact sums quick; (4, 40) is the 4-D weak CLI
# artifact's radius and (3, 87) the 3-D one's
@settings(max_examples=40, deadline=None, database=None, derandomize=True)
@given(st.integers(2, 4).flatmap(lambda d: st.tuples(st.just(d), st.integers(0, 40 if d < 4 else 20))),
       st.floats(0.1, 3.0))
@example((2, 40), 1.0)
@example((3, 40), 0.5)
@example((4, 40), 1.0)
@example((3, 87), 1.0)
def test_lattice_ball_sum_within_its_error_bound(dim_and_radius, beta):
    # against the exact rational sum of the float weights s^-beta: within
    # gamma_(n+1) over n nonempty shells, and within 200 ulps
    d, m_max = dim_and_radius
    got = lattice_ball_sum(d, beta, m_max)
    assert got.shape == (m_max,)
    counts = shell_counts(d, m_max * m_max)
    shells = np.flatnonzero(counts[1:]) + 1
    terms = iter(zip(shells.tolist(), (shells.astype(float) ** (-beta)).tolist()))
    exact, nonempty, pending = Fraction(0), 0, next(terms, None)
    u = Fraction(1, 2**53)
    for m, value in enumerate(got.tolist(), start=1):
        while pending is not None and pending[0] <= m * m:
            exact += int(counts[pending[0]]) * Fraction(pending[1])
            nonempty += 1
            pending = next(terms, None)
        gamma = (nonempty + 1) * u / (1 - (nonempty + 1) * u)
        error = abs(Fraction(value) - exact)
        assert error <= gamma * exact, (m, value)
        assert error <= 200 * Fraction(math.ulp(float(exact))), (m, value)


@pytest.mark.parametrize("d, m_max", [(2, 400), (3, 87), (4, 100)])
def test_lattice_ball_sum_peak_within_its_price(monkeypatch, d, m_max):
    prices = []
    for module in (fields, mixing):
        monkeypatch.setattr(module, "require_memory", lambda need, what: prices.append(need))
    tracemalloc.start()
    try:
        lattice_ball_sum(d, 1.0, m_max)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= max(prices)


@pytest.mark.parametrize("beta,target", [(2.0, 0.5), (0.5, 0.25)])
def test_weak_envelope_regimes(beta, target):
    ns = np.unique(np.round(np.logspace(1.5, 5, 25)).astype(int))
    vals = weak_rate_envelope(2, beta, ns)
    fit = line_fit(np.log(ns), np.log(vals))
    assert -fit.slope == pytest.approx(target, rel=0.15)


# ---------------------------------------------------------------------------
# rate transfer
# ---------------------------------------------------------------------------

def test_transfer_identity():
    h = RateFunction.exponential(2.0, 0.7, 1.0, 1.0)
    out = transfer_rate(h, 1.0, 1.0, 1.0)
    assert out.kind == "exponential" and out.params == h.params


def test_transfer_exponent_hand_values():
    assert transfer_exponents(1, 1, 0.5, 0.5) == pytest.approx((0.25, 0.25))
    assert transfer_exponents(1, 2, 2, 1) == pytest.approx((0.75, 0.5))
    assert transfer_exponents(2, 1, 1, 3) == pytest.approx((1.25, 0.5))


def test_transfer_quarter_power():
    h = RateFunction.exponential(1.0, 0.8, 1.0, 1.0)
    out = transfer_rate(h, 0.5, 0.5, 1.0)
    for t in (1.0, 5.0, 10.0):
        assert out(t) == pytest.approx(h(t) ** 0.25, rel=1e-12)


def test_transfer_exponential_decay_constant():
    h = RateFunction.exponential(2.0, 0.7, 1.0, 1.0)
    out = transfer_rate(h, 0.5, 0.5, 2.0)
    ts = [1.0, 5.0, 10.0]
    measured = -(math.log(out(ts[2])) - math.log(out(ts[0]))) / (ts[2] - ts[0])
    assert measured == pytest.approx(0.25 * 0.7, rel=0.01)


def test_transfer_rejects_zero_exponents():
    h = RateFunction.exponential(1.0, 1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        transfer_rate(h, 0.0, 1.0, 1.0)


# ---------------------------------------------------------------------------
# model selection
# ---------------------------------------------------------------------------

def test_fit_rate_exponential():
    ns = np.arange(1, 12)
    vals = 4.0 * 2.0 ** (-ns.astype(float))
    fit = fit_rate(ns, vals)
    assert fit.kind == "exponential"
    assert fit.params[1] == pytest.approx(math.log(2), rel=0.01)


def test_fit_rate_power():
    ns = np.arange(1, 12)
    vals = 3.0 / ns.astype(float)
    fit = fit_rate(ns, vals)
    assert fit.kind == "power"
    assert fit.params[1] == pytest.approx(1.0, rel=0.01)


def test_fit_rate_from_envelope(cat):
    env = strong_envelope(cat, 1.0, 1.0, 12)
    fit = fit_rate(env.n_values[1:], env.values[1:])
    assert fit.kind == "exponential"
    assert fit.params[1] == pytest.approx(LOG_LAM, rel=0.1)


def test_fit_rate_rejects_increasing():
    with pytest.raises(ValueError):
        fit_rate([1, 2, 3, 4, 5], [1.0, 0.9, 1.1, 0.7, 0.6])


def test_strong_envelopes_pinned():
    # sha256 over the float64 values of e(0..10) for three automorphisms at four
    # (alpha, beta), captured when B^n and G_n were formed by list comprehensions
    h = hashlib.sha256()
    for rows in [((2, 1), (1, 1)), ((0, 0, 1), (1, 0, 0), (0, 1, 1)),
                 ((0, 0, 0, -1), (1, 0, 0, 1), (0, 1, 0, 0), (0, 0, 1, 3))]:
        for alpha, beta in [(1.0, 1.0), (2.0, 1.0), (0.5, 2.0), (1.5, 0.75)]:
            h.update(strong_envelope(ToralAutomorphism(rows), alpha, beta, 10).values.tobytes())
    assert h.hexdigest() == "465d6f4e2433cf51a669289e6b6209cd200b00e2b23056c69b702a09b781c7a8"
