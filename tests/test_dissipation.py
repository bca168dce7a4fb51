import hashlib
import inspect
import math
from fractions import Fraction
from itertools import accumulate, islice

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from disslab import cli, dissipation
from disslab.dissipation import (
    check_lower_bound_chain,
    dissipation_sweep,
    fit_energy_decay,
    integer_form_minimum,
    min_energies,
    operator_norm_energies,
    pulse_energy_form,
    tau_d_exact,
    tau_d_operator,
    tau_d_operator_catmap,
)
from disslab.fields import SpectralConvention, SpectralField, random_sparse_field
from disslab import pulsed
from disslab.pulsed import PulsedSystem, TruncatedKoopman, evolve
from disslab.toral import ToralAutomorphism

LAM_PLUS = (3 + math.sqrt(5)) / 2
PROPERTY_SETTINGS = dict(suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow])


# ---------------------------------------------------------------------------
# exact lattice minimisation
# ---------------------------------------------------------------------------

def brute_force_min(automorphism, n, radius=25):
    """Independent oracle: exhaustive scan of the cumulative orbit energy."""
    best = None
    g = np.array(pulse_energy_form(automorphism, n), dtype=object)
    for k1 in range(-radius, radius + 1):
        for k2 in range(-radius, radius + 1):
            if k1 == 0 and k2 == 0:
                continue
            v = np.array([k1, k2], dtype=object)
            val = int(v @ g @ v)
            if best is None or val < best:
                best = val
    return best


def test_min_cumulative_energy_first_values(cat):
    mins = [integer_form_minimum(pulse_energy_form(cat, n))[0] for n in range(1, 5)]
    assert mins == [1, 3, 8, 21]
    assert [v for v, _ in islice(min_energies(cat), 4)] == mins


def test_min_cumulative_energy_vs_brute_force(cat):
    for n in range(1, 7):
        assert integer_form_minimum(pulse_energy_form(cat, n))[0] == brute_force_min(cat, n)


def test_minimizer_witness(cat):
    val, vec = integer_form_minimum(pulse_energy_form(cat, 3))
    assert val == 8
    assert tuple(np.abs(vec)) in {(3, 5), (2, 3)}
    g = np.array(pulse_energy_form(cat, 3), dtype=object)
    v = np.array(vec, dtype=object)
    assert int(v @ g @ v) == 8


def test_min_energy_monotone_in_n(cat):
    mins = [integer_form_minimum(pulse_energy_form(cat, n))[0] for n in range(1, 12)]
    assert all(b > a for a, b in zip(mins, mins[1:]))


def test_integer_form_minimum_3d():
    auto = ToralAutomorphism(((0, 1, 0), (0, 0, 1), (1, 1, 0)))
    g = pulse_energy_form(auto, 4)
    val, vec = integer_form_minimum(g)
    # brute force in 3d
    best = None
    ga = np.array(g, dtype=object)
    for k1 in range(-6, 7):
        for k2 in range(-6, 7):
            for k3 in range(-6, 7):
                if k1 == k2 == k3 == 0:
                    continue
                v = np.array([k1, k2, k3], dtype=object)
                best = min(best, int(v @ ga @ v)) if best is not None else int(v @ ga @ v)
    assert val == best


def test_huge_entries_stay_exact(cat):
    # G_25 entries exceed 2^53; the integer route must not lose the minimum
    val, vec = integer_form_minimum(pulse_energy_form(cat, 25))
    g = np.array(pulse_energy_form(cat, 25), dtype=object)
    v = np.array(vec, dtype=object)
    assert int(v @ g @ v) == val
    ratio = val / integer_form_minimum(pulse_energy_form(cat, 24))[0]
    assert ratio == pytest.approx(LAM_PLUS, rel=0.05)


CAT = ToralAutomorphism(((2, 1), (1, 1)))
A3 = ToralAutomorphism(((0, 0, 1), (1, 0, 0), (0, 1, 1)))
A4 = ToralAutomorphism(((0, 0, 0, -1), (1, 0, 0, 1), (0, 1, 0, 0), (0, 0, 1, 3)))


@st.composite
def unimodular_pairs(draw, dimension):
    """(M, M^-1) in SL_d(Z) from a few elementary row operations."""
    m = [[int(i == j) for j in range(dimension)] for i in range(dimension)]
    inv = [row[:] for row in m]
    for _ in range(draw(st.integers(1, 8))):
        i, j = draw(st.permutations(range(dimension)))[:2]
        c = draw(st.sampled_from((-2, -1, 1, 2)))
        m[i] = [a + c * b for a, b in zip(m[i], m[j])]  # M <- (I + c e_i e_j^T) M
        for row in inv:  # M^-1 <- M^-1 (I - c e_i e_j^T)
            row[j] -= c * row[i]
    return np.array(m, dtype=np.int64), np.array(inv, dtype=np.int64)


def check_form_minimum_against_scan(data, dimension):
    m, inv = data.draw(unimodular_pairs(dimension))
    # G = M^T W M: W = 1 gives the form M^T M, whose minimum is always 1;
    # positive integer weights make the minimum nontrivial
    w = np.array(data.draw(st.lists(st.integers(1, 9), min_size=dimension, max_size=dimension)))
    g = m.T @ (w[:, None] * m)
    # |k_i|^2 <= (k^T G k) (G^-1)_ii <= (k^T G k) (M^-1 M^-T)_ii since W >= 1,
    # so the box of these radii holds every vector at or below min_i G_ii
    radii = [math.isqrt(int(np.min(np.diag(g))) * int(c)) for c in np.diag(inv @ inv.T)]
    assume(math.prod(2 * r + 1 for r in radii) <= 200_000)
    box = np.stack(np.meshgrid(*[np.arange(-r, r + 1) for r in radii], indexing="ij"), -1).reshape(-1, dimension)
    box = box[np.any(box != 0, axis=1)]
    scan = int(np.min(np.einsum("ki,ij,kj->k", box, g, box)))
    # LLL bases of forms this small nearly always hold a shortest vector, so
    # the enumeration is also run alone on the unreduced form
    gram = g.tolist()
    least = min(gram[i][i] for i in range(dimension))
    alone = min(dissipation._enumerate(*dissipation._gram_schmidt(gram), least))
    for val, vec in (integer_form_minimum(gram), alone):
        assert val == scan
        k = np.array(vec, dtype=np.int64)
        assert int(k @ g @ k) == val


@settings(max_examples=40, **PROPERTY_SETTINGS)
@given(data=st.data())
def test_form_minimum_matches_scan_sl2(data):
    check_form_minimum_against_scan(data, 2)


@settings(max_examples=40, **PROPERTY_SETTINGS)
@given(data=st.data())
def test_form_minimum_matches_scan_sl3(data):
    check_form_minimum_against_scan(data, 3)


@settings(max_examples=40, **PROPERTY_SETTINGS)
@given(data=st.data())
def test_form_minimum_matches_scan_sl4(data):
    check_form_minimum_against_scan(data, 4)


def inverse_diagonal(g):
    """Exact diagonal of g^-1 (Gauss-Jordan over the rationals; g positive definite)."""
    d = len(g)
    a = [[Fraction(v) for v in row] + [Fraction(int(i == j)) for j in range(d)] for i, row in enumerate(g)]
    for c in range(d):
        a[c] = [v / a[c][c] for v in a[c]]
        for r in range(d):
            if r != c:
                a[r] = [x - a[r][c] * y for x, y in zip(a[r], a[c])]
    return [a[i][d + i] for i in range(d)]


@settings(max_examples=60, **PROPERTY_SETTINGS)
@given(data=st.data(), dimension=st.integers(2, 4), reduced=st.booleans())
def test_short_vectors_match_box_scan(data, dimension, reduced):
    m, _ = data.draw(unimodular_pairs(dimension))
    w = np.array(data.draw(st.lists(st.integers(1, 9), min_size=dimension, max_size=dimension)))
    g = (m.T @ (w[:, None] * m)).tolist()
    if reduced:
        g = dissipation._lll_reduce(g)[1]
    # a bound at, just below or just above a value the form attains
    x = data.draw(st.lists(st.integers(-2, 2), min_size=dimension, max_size=dimension).filter(any))
    bound = int(np.array(x) @ np.array(g) @ np.array(x)) + data.draw(st.sampled_from((-1, 0, 1)))
    # |x_i|^2 <= (x^T g x) (g^-1)_ii, so this box holds every x with x^T g x <= bound
    radii = [math.isqrt(math.floor(bound * c)) for c in inverse_diagonal(g)]
    assume(math.prod(2 * r + 1 for r in radii) <= 100_000)
    box = np.stack(np.meshgrid(*[np.arange(-r, r + 1) for r in radii], indexing="ij"), -1).reshape(-1, dimension)
    values = np.einsum("ki,ij,kj->k", box, np.array(g), box)
    expected = sorted(tuple(int(c) for c in k) for k, v in zip(box, values) if 0 < v <= bound)
    # one of each pair +-k is listed, and the pairs are every point of the box scan
    found = dissipation.carried_short_vectors(g, bound)[0]
    assert sorted(found + [tuple(-c for c in k) for k in found]) == expected
    # the enumerator alone, on the form's own (unreduced or reduced) Gram-Schmidt data,
    # lists the k of each pair whose last nonzero coordinate is negative
    found = list(dissipation._enumerate(*dissipation._gram_schmidt(g), bound))
    assert sorted(k for _, k in found) == [k for k in expected if [c for c in k if c][-1] < 0]
    assert all(q == int(np.array(k) @ np.array(g) @ np.array(k)) for q, k in found)


@settings(max_examples=40, **PROPERTY_SETTINGS)
@given(data=st.data(), dimension=st.integers(2, 4))
def test_carried_short_vectors_do_not_depend_on_the_start_basis(data, dimension):
    # from any unimodular start basis B the pairs are those of the unit
    # basis, each listed once, up to the sign that picks one of the pair
    m, _ = data.draw(unimodular_pairs(dimension))
    w = np.array(data.draw(st.lists(st.integers(1, 9), min_size=dimension, max_size=dimension)))
    g = (m.T @ (w[:, None] * m)).tolist()
    bound = data.draw(st.integers(int(min(w)), 40))  # min g <= min(w), at k = M^-1 e_i: never an empty ellipsoid
    start, _ = data.draw(unimodular_pairs(dimension))

    def pairs(points):
        canonical = [max(k, tuple(-c for c in k)) for k in points]
        assert len(set(canonical)) == len(canonical)
        return sorted(canonical)

    unit = dissipation.carried_short_vectors(g, bound)[0]
    assert pairs(dissipation.carried_short_vectors(g, bound, start.tolist())[0]) == pairs(unit)


@st.composite
def c1_companions(draw, dimension):
    """Companion matrices of x^d + c_{d-1} x^{d-1} + ... + c_0, filtered to C1.

    The determinant is (-1)^d c_0, so c_0 = (-1)^d puts them in SL_d(Z).
    """
    coeffs = [(-1) ** dimension] + [draw(st.integers(-3, 3)) for _ in range(dimension - 1)]
    rows = [[int(i == j + 1) for j in range(dimension - 1)] + [-coeffs[i]] for i in range(dimension)]
    auto = ToralAutomorphism(tuple(tuple(r) for r in rows))
    assume(auto.conditions().c1_no_root_of_unity)
    return auto


def check_walk_against_cold(data, dimension):
    # the only C1 companions in d = 2 are the two of trace +-3
    auto = data.draw(c1_automorphisms(2) if dimension == 2 else c1_companions(dimension))
    for n, (val, vec) in enumerate(islice(min_energies(auto), 12), start=1):
        g = pulse_energy_form(auto, n)
        assert val == integer_form_minimum(g)[0]
        k = np.array(vec, dtype=object)
        assert int(k @ np.array(g, dtype=object) @ k) == val


@settings(max_examples=25, **PROPERTY_SETTINGS)
@given(data=st.data())
def test_min_energies_match_cold_minima_2d(data):
    check_walk_against_cold(data, 2)


@settings(max_examples=25, **PROPERTY_SETTINGS)
@given(data=st.data())
def test_min_energies_match_cold_minima_3d(data):
    check_walk_against_cold(data, 3)


@settings(max_examples=25, **PROPERTY_SETTINGS)
@given(data=st.data())
def test_min_energies_match_cold_minima_4d(data):
    check_walk_against_cold(data, 4)


@pytest.mark.parametrize("g", [
    [[1, 1, 0], [1, 1, 0], [0, 0, 1]],  # singular, positive semidefinite
    [[2, 3, 0, 0], [3, 2, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],  # indefinite
    [[1, 2], [2, 1]],  # indefinite
    [[1, 1], [1, 1]],  # singular, positive semidefinite
])
def test_non_positive_definite_form_is_a_validation_error(g):
    with pytest.raises(ValueError):
        integer_form_minimum(g)


def test_exact_route_uses_integer_arithmetic_only():
    source = inspect.getsource(dissipation)
    assert "fractions" not in source
    assert "cholesky" not in source


# ---------------------------------------------------------------------------
# dissipation times
# ---------------------------------------------------------------------------

def test_tau_d_exact_cat_at_point_one(cat):
    assert tau_d_exact(cat, 0.1) == 4


def test_tau_d_exact_one_step_regime(cat):
    # 1/nu < min S_1 = 1 means a single pulse suffices
    assert tau_d_exact(cat, 1.5) == 1


def test_tau_d_exact_threshold_is_strict(cat):
    # min S_3 = 8, min S_4 = 21: at nu = 1/8 the inequality is an exact tie
    assert tau_d_exact(cat, 1.0 / 8.0) == 4
    assert tau_d_exact(cat, 1.0 / 8.0 + 1e-9) == 3


def test_tau_d_exact_n_max_raises(monkeypatch):
    monkeypatch.setattr(dissipation, "N_MAX", 50)
    with pytest.raises(RuntimeError, match="exceeds n_max = 50"):
        tau_d_exact(A3, 1e-30)


@settings(max_examples=200, **PROPERTY_SETTINGS)
@given(steps=st.lists(st.integers(1, 3), min_size=1, max_size=30), data=st.data())
def test_first_passages_match_brute_force(steps, data):
    # a strictly increasing min S_n and unsorted integer bounds, tied with
    # each other and with the S_n: tau_d is the first n with S_n > bound
    sums = list(accumulate(steps))
    bounds = data.draw(st.lists(st.integers(0, sums[-1] - 1), max_size=40))

    def stream():
        return (lambda bound, s=s: s > bound for s in sums)

    want = [next(n for n, s in enumerate(sums, start=1) if s > b) for b in bounds]
    assert dissipation._first_passages(stream(), bounds, len(sums)) == want
    with pytest.raises(RuntimeError, match="exceeds n_max"):
        dissipation._first_passages(stream(), bounds + [sums[-1]], len(sums))


def test_bounds_are_exact_integer_floors(lattice2):
    # 1/nu = 8 exactly, and its neighbours: the nu above puts 1/nu just below 8
    eighth = 0.125
    assert dissipation._bounds([eighth, math.nextafter(eighth, 1.0), math.nextafter(eighth, 0.0)], lattice2) == [8, 7, 8]
    # the float 1/1e-300 floored to an exact 300-digit int, no rounding on the way
    (bound,) = dissipation._bounds([1e-300], lattice2)
    assert type(bound) is int and len(str(bound)) == 300
    assert bound == math.floor(Fraction(1.0 / 1e-300))


@pytest.mark.parametrize("nu, message", [
    (math.nan, "nu must be finite and positive, got nu = nan"),
    (math.inf, "nu must be finite and positive, got nu = inf"),
    (0.0, "nu must be finite and positive, got nu = 0.0"),
    (-1.0, "nu must be finite and positive, got nu = -1.0"),
    (5e-324, "nu = 5e-324 is too small: 1/(nu * scale) overflows float64"),
])
def test_bounds_refuse_bad_nu(lattice2, nu, message):
    with pytest.raises(ValueError) as refused:
        dissipation._bounds([1e-2, nu], lattice2)
    assert str(refused.value) == message


@pytest.mark.parametrize("auto, want", [(A3, [178, 142, 106, 70, 34]), (A4, [83, 66, 50, 33, 17])])
def test_tau_d_exact_pinned_3d_4d(auto, want):
    nus = np.exp(np.linspace(math.log(1e-20), math.log(1e-4), 5))
    assert [e["tau_d"] for e in dissipation_sweep(auto, nus, "exact").entries] == want
    assert [tau_d_exact(auto, nu) for nu in nus] == want


@pytest.mark.parametrize("auto, want", [(A3, 269), (A4, 124), (CAT, 73)])
def test_tau_d_exact_pinned_at_1e_minus_30(auto, want):
    assert tau_d_exact(auto, 1e-30) == want
    # certified by cold minima on either side of the threshold
    threshold = 1.0 / 1e-30
    below, above = (integer_form_minimum(pulse_energy_form(auto, n))[0] for n in (want - 1, want))
    assert below <= threshold < above


@pytest.mark.parametrize("matrix, grid, want", [
    ("2,1,1,1", "1e-300:1e-2:9", [719, 630, 541, 452, 363, 273, 184, 95, 6]),
    ("0,0,1,1,0,0,0,1,1", "1e-300:1e-4:9", [2708, 2374, 2040, 1705, 1371, 1037, 702, 368, 34]),
    ("0,0,0,-1,1,0,0,1,0,1,0,0,0,0,1,3", "1e-300:1e-4:9", [1231, 1080, 928, 777, 625, 473, 321, 169, 17]),
], ids=["2d", "3d", "4d"])
def test_tau_d_exact_pinned_on_deep_grids(matrix, grid, want):
    # values of the walk that computed min S_n at every n
    auto = cli._parse_matrix(matrix)
    nus = cli._parse_nu_grid(grid, cli.GRID_POINT_BYTES["dissipation-time"])
    assert dissipation._tau_d_grid(auto, nus, "exact", None) == want


def check_exceeds_against_minima(auto, n_max=12):
    for form, (m, _) in islice(zip(dissipation._walk(auto), min_energies(auto)), n_max):
        for bound in (m - 1, m, m + 1):
            assert form.exceeds(bound) == (m > bound)


@pytest.mark.parametrize("dimension", [2, 3, 4])
@settings(max_examples=15, **PROPERTY_SETTINGS)
@given(data=st.data())
def test_exceeds_decides_min_energy_above_threshold(data, dimension):
    check_exceeds_against_minima(data.draw(c1_companions(dimension)))


@pytest.mark.parametrize("rows, n, diagonal, minimum", [
    (((0, 0, 1), (1, 0, -1), (0, 1, 2)), 12, 181, 179),
    (((0, 0, 0, -1), (1, 0, 0, 3), (0, 1, 0, 0), (0, 0, 1, -2)), 5, 27, 25),
])
def test_exceeds_enumerates_when_lll_misses_the_minimum(rows, n, diagonal, minimum):
    # the warm LLL basis of G_n has no vector at min S_n: only the enumeration sees it
    auto = ToralAutomorphism(rows)
    for form in islice(dissipation._walk(auto), n):
        form.reduced
    assert form.reduced.least == diagonal
    assert next(islice(min_energies(auto), n - 1, None))[0] == minimum
    # G_n written in that LLL basis: steps 1 and 2 pass every bound up to diagonal - 1
    in_lll_basis = dissipation._Form(form.reduced.basis, form.reduced.gram)
    assert in_lll_basis.least == in_lll_basis.reduced.least == diagonal
    for bound in (minimum - 1, minimum, minimum + 1):
        assert in_lll_basis.exceeds(bound) == (minimum > bound)
    check_exceeds_against_minima(auto, n)


@pytest.mark.parametrize("rows, n, minimum", [
    (((0, 0, 0, -1), (1, 0, 0, -3), (0, 1, 0, -3), (0, 0, 1, 0)), 5, 23),
    (((0, 0, 1), (1, 0, -2), (0, 1, 3)), 14, 4104),
])
def test_exceeds_answers_later_thresholds_from_one_minimum(monkeypatch, rows, n, minimum):
    # asked at min S_n at every n, the walk's carried and reduced bases both
    # miss the minimum at this n: the first bound computes min S_n in one
    # LLL and one enumeration, and the others compare with it
    auto = ToralAutomorphism(rows)
    minima = [m for m, _ in islice(min_energies(auto), n)]
    reductions, enumerations = [], []
    lll, enumerate_ = dissipation._lll_reduce, dissipation._enumerate
    monkeypatch.setattr(dissipation, "_lll_reduce", lambda *a: reductions.append(1) or lll(*a))
    monkeypatch.setattr(dissipation, "_enumerate", lambda *a: enumerations.append(1) or enumerate_(*a))
    for k, (form, m) in enumerate(zip(dissipation._walk(auto), minima), 1):
        before = len(reductions), len(enumerations)
        assert not form.exceeds(m)
        if k == n:
            assert (m, len(enumerations) - before[1]) == (minimum, 1)
            for bound in (m - 1, m, m + 1, m):
                assert form.exceeds(bound) == (m > bound)
            assert (len(reductions) - before[0], len(enumerations) - before[1]) == (1, 1)


@pytest.mark.parametrize("auto, digest", [
    (CAT, "bd1144c0460777e31c7ab4b436d93da502da4c0e175d9dc9e7f343bc6e8b34ab"),
    (A3, "f2d90dd46371aa179a90edfa56701e5563ed900c18572282c734465f1ae17af6"),
    (A4, "0ecc07f008d20ff09ea0cfb6fa798e2a70c979214f07f922af6d86c807b8e480"),
], ids=["cat", "3d", "4d"])
def test_min_energies_pinned_to_n_80(auto, digest):
    # sha256 of repr(list of (min S_n, minimiser)) for n = 1..80, as first computed
    # by the walk that reduced each G_n in a basis of its own
    text = repr(list(islice(min_energies(auto), 80)))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


@settings(max_examples=20, **PROPERTY_SETTINGS)
@given(data=st.data(), dimension=st.integers(2, 4))
def test_walk_carries_g_n_in_its_basis(data, dimension):
    # whichever n reduce, the walk's Gram matrix is B G_n B^T for the basis B
    # the last reduction handed on, and every reduction is of that form
    auto = data.draw(c1_companions(dimension))
    reduce_at = data.draw(st.lists(st.booleans(), min_size=12, max_size=12))
    basis = np.eye(dimension, dtype=object)
    for n, (form, reduces) in enumerate(zip(dissipation._walk(auto), reduce_at), start=1):
        g = np.array(pulse_energy_form(auto, n), dtype=object)
        assert form.basis == basis.tolist()
        assert form.gram == (basis @ g @ basis.T).tolist()
        if reduces:
            reduced = form.reduced
            assert form.reduced is reduced  # at most one LLL per n
            basis = np.array(reduced.basis, dtype=object)
            assert reduced.gram == (basis @ g @ basis.T).tolist()
            assert (reduced.dm, reduced.lam) == dissipation._gram_schmidt(reduced.gram)
    check_exceeds_against_minima(auto)


def test_exceeds_answers_from_the_carried_basis_without_lll(cat, monkeypatch):
    # a carried basis vector at exactly the bound already answers False
    reductions = []
    lll = dissipation._lll_reduce
    monkeypatch.setattr(dissipation, "_lll_reduce", lambda *a: reductions.append(1) or lll(*a))
    g = pulse_energy_form(cat, 1)
    form = next(dissipation._walk(cat))
    assert not form.exceeds(min(g[0][0], g[1][1]) + 1)
    assert not form.exceeds(min(g[0][0], g[1][1]))
    assert reductions == []


def test_exact_4d_grid_reduces_21_forms_and_enumerates_5(monkeypatch, tmp_path):
    # the walk that computed min S_n at every n reduced and enumerated all 83 forms
    reductions, enumerations = [], []
    lll, enumerate_ = dissipation._lll_reduce, dissipation._enumerate
    monkeypatch.setattr(dissipation, "_lll_reduce", lambda *a: reductions.append(1) or lll(*a))
    monkeypatch.setattr(dissipation, "_enumerate", lambda *a: enumerations.append(1) or enumerate_(*a))
    assert cli.main(["dissipation-time", "--matrix", "0,0,0,-1,1,0,0,1,0,1,0,0,0,0,1,3", "--nu-grid",
                     "1e-20:1e-4:5", "--out", str(tmp_path / "exact-4d.json")]) == 0
    assert (len(reductions), len(enumerations)) == (21, 5)


def test_thresholds_passed_at_one_n_share_one_minimum(cat, monkeypatch):
    # the 20,000 points of 1e-4:1e-2 pass at 6 distinct n; each n that
    # reaches step 3 enumerates once, for its exact minimum (it made one
    # enumeration per threshold, 20,000 in all)
    nus = cli._parse_nu_grid("1e-4:1e-2:20000", cli.GRID_POINT_BYTES["dissipation-time"])
    want = [tau_d_exact(cat, nu) for nu in nus[::997]]
    enumerations = []
    enumerate_ = dissipation._enumerate
    monkeypatch.setattr(dissipation, "_enumerate", lambda *a: enumerations.append(1) or enumerate_(*a))
    taus = dissipation._tau_d_grid(cat, nus, "exact", None)
    assert taus[::997] == want
    assert len(set(taus)) == 6
    assert len(enumerations) <= max(taus)


def test_tau_d_exact_requires_c1():
    with pytest.raises(ValueError):
        tau_d_exact(ToralAutomorphism(((1, 1), (0, 1))), 0.1)


def test_tau_d_exact_convention_rescaling(cat):
    lat = SpectralConvention(2, "lattice")
    geo = SpectralConvention(2, "geometric")
    nu_lat = 1e-3
    nu_geo = lat.convert_nu(nu_lat, geo)
    assert tau_d_exact(cat, nu_lat, lat) == tau_d_exact(cat, nu_geo, geo)


def test_oracle_equivalence(cat):
    # min S_2 = 3 and min S_4 = 21: 1/nu just below either is a tie the
    # routes must decide alike (the old float operator rule returned 3 and 5)
    ties = (math.nextafter(1 / 3, math.inf), 1 / 3, math.nextafter(1 / 21, math.inf), 1 / 21)
    for nu in (1e-2, 1e-3, *ties):
        assert tau_d_exact(cat, nu) == tau_d_operator(cat, nu)


# largest tie energy per dimension: keeps the threshold ball below about 10^6 modes
TIE_ENERGY_CAP = {2: 200_000, 3: 3_000, 4: 300}


@pytest.mark.parametrize("dimension", [2, 3, 4])
@settings(max_examples=20, **PROPERTY_SETTINGS)
@given(data=st.data())
def test_operator_route_matches_exact_at_ties(data, dimension):
    auto = data.draw(c1_companions(dimension))
    conv = SpectralConvention(dimension, data.draw(st.sampled_from(("lattice", "geometric"))))
    n = data.draw(st.integers(1, 8))
    energy = next(islice(min_energies(auto), n - 1, None))[0]
    assume(energy <= TIE_ENERGY_CAP[dimension])
    tie = 1.0 / (energy * conv.scale_factor)
    nu = data.draw(st.sampled_from((tie, math.nextafter(tie, math.inf), math.nextafter(tie, 0.0))))
    assert tau_d_operator(auto, nu, conv) == tau_d_exact(auto, nu, conv)


def test_operator_sweep_builds_one_ball_per_grid(cat, monkeypatch):
    balls, scan = [], pulsed.ball_modes

    def counting(dimension, radius):
        balls.append((dimension, radius))
        return scan(dimension, radius)

    monkeypatch.setattr(pulsed, "ball_modes", counting)
    nus = [1e-2, 1e-4, 1e-3]
    report = dissipation_sweep(cat, nus, "operator")
    assert balls == [(2, 101)]  # isqrt(floor(1/1e-4)) + 1
    assert [e["tau_d"] for e in report.entries] == [tau_d_exact(cat, nu) for nu in nus]


def test_tau_d_operator_identity_is_heat():
    identity = ToralAutomorphism(((1, 0), (0, 1)))
    conv = SpectralConvention(2, "lattice")
    nu = 0.007
    tau = tau_d_operator(identity, nu, conv)
    assert tau == math.ceil(1.0 / nu)


def test_tau_d_operator_is_the_one_operator_entry_point():
    assert tau_d_operator_catmap is tau_d_operator


def test_operator_entry_points_share_one_horizon():
    # the parabolic shear keeps (0, 1) fixed, so min S_n = n and tau_d =
    # floor(1/nu) + 1; a ball-taking tau_d_operator with its own horizon
    # used to return 10,051 at nu = 1/10,050, where the sweep raised
    shear = ToralAutomorphism(((1, 1), (0, 1)))
    assert tau_d_operator(shear, 1 / 9950) == dissipation_sweep(shear, [1 / 9950], "operator").entries[0]["tau_d"] == 9951
    for route in (lambda: tau_d_operator(shear, 1 / 10050), lambda: dissipation_sweep(shear, [1 / 10050], "operator")):
        with pytest.raises(RuntimeError, match="exceeds n_max = 10000"):
            route()


@pytest.mark.parametrize("nu", [math.nan, math.inf, 5e-324, 0.0, -1.0])
def test_tau_d_operator_rejects_bad_nu(cat, lattice2, nu):
    # the grid routes' checks: nan used to walk the whole horizon, inf to
    # return 1, and 5e-324 (threshold 1/nu overflows) to fail numerically
    with pytest.raises(ValueError, match="nu"):
        tau_d_operator(cat, nu, lattice2)


@st.composite
def c1_automorphisms(draw, dimension):
    """SL_d(Z) matrices as products of elementary row operations, filtered to C1."""
    rows = [[int(i == j) for j in range(dimension)] for i in range(dimension)]
    for _ in range(draw(st.integers(2, 6))):
        i, j = draw(st.permutations(range(dimension)))[:2]
        sign = draw(st.sampled_from((-1, 1)))
        rows[i] = [a + sign * b for a, b in zip(rows[i], rows[j])]
    auto = ToralAutomorphism(tuple(tuple(r) for r in rows))
    assume(auto.conditions().c1_no_root_of_unity)
    return auto


def dense_operator_norm(koopman, rate, n):
    """2-norm of the dense (D P)^{n-1} D, D = diag(exp(-rate)), P the induced partial permutation."""
    perm = koopman.permutation
    p = np.zeros((koopman.size, koopman.size))
    inside = np.nonzero(perm >= 0)[0]
    p[perm[inside], inside] = 1.0
    damp = np.diag(np.exp(-rate))
    return np.linalg.norm(np.linalg.matrix_power(damp @ p, n - 1) @ damp, 2)


def check_walk_against_dense(data, dimension, radii):
    auto = data.draw(c1_automorphisms(dimension))
    radius = data.draw(st.integers(*radii))
    nu = data.draw(st.floats(0.1 / radius**2, 3.0 / radius))
    n = data.draw(st.integers(1, 8))
    koopman = TruncatedKoopman.from_automorphism(auto, radius)
    rate = nu * np.sum(koopman.modes.astype(float) ** 2, axis=1)
    # sigma_n = exp(-nu min S_n) (lattice scale), as _orbit_minima argues
    sigma = math.exp(-nu * next(islice(dissipation._orbit_minima(koopman), n - 1, None)))
    assert sigma == pytest.approx(dense_operator_norm(koopman, rate, n), rel=1e-12, abs=0.0)


@settings(max_examples=40, **PROPERTY_SETTINGS)
@given(data=st.data())
def test_operator_walk_matches_dense_power_sl2(data):
    check_walk_against_dense(data, 2, (6, 10))


# the dense SVD of a radius-7 ball in d = 3 (1,400 modes) takes about a second
@settings(max_examples=6, **PROPERTY_SETTINGS)
@given(data=st.data())
def test_operator_walk_matches_dense_power_sl3(data):
    check_walk_against_dense(data, 3, (6, 7))


# ---------------------------------------------------------------------------
# decay fits
# ---------------------------------------------------------------------------

def test_fit_worst_case_gamma(cat):
    energies = operator_norm_energies(cat, 1e-6, 14)
    fit = fit_energy_decay(energies, window=(4, 14))
    assert fit.model == "double_exponential"
    assert fit.gamma_hat == pytest.approx(LAM_PLUS, rel=0.05)


def test_fit_single_mode_gamma(cat, lattice2):
    theta = SpectralField(lattice2, {(1, 0): 1.0})
    traj = evolve(theta, PulsedSystem(cat, 1e-6, lattice2), 14)
    fit = fit_energy_decay(traj, window=(4, 14))
    assert fit.gamma_hat == pytest.approx(LAM_PLUS**2, rel=0.05)


def test_fit_rejects_pure_heat(cat):
    n = np.arange(30)
    energies = np.exp(-2 * 0.05 * n)
    fit = fit_energy_decay(energies, window=(1, 29))
    assert fit.model == "single_exponential"


def test_fit_needs_enough_usable_steps(cat, lattice2):
    theta = SpectralField(lattice2, {(1, 0): 1.0})
    traj = evolve(theta, PulsedSystem(cat, 1e-6, lattice2), 6)
    with pytest.raises(ValueError, match="only 5 usable steps"):
        fit_energy_decay(traj, window=(1, 5))  # a window of 5 usable steps


def test_chain_single_mode_first_step(cat, lattice2):
    theta = SpectralField(lattice2, {(1, 0): 1.0})
    traj = evolve(theta, PulsedSystem(cat, 1e-3, lattice2), 3)
    r = np.exp(traj.log_r)
    assert r[0] == pytest.approx(1.0)
    assert r[1] == pytest.approx(5.0)
    assert r[1] <= cat.lipschitz**2 * r[0]
    assert check_lower_bound_chain(traj)["ok"]


def test_chain_battery(cat, lattice2, rng):
    for nu in (1e-2, 1e-4, 1e-6):
        for _ in range(10):
            theta = random_sparse_field(lattice2, rng, n_modes=5, kmax=5)
            traj = evolve(theta, PulsedSystem(cat, nu, lattice2), 20)
            res = check_lower_bound_chain(traj)
            assert res["ok"], res


def test_chain_detects_violation(cat, lattice2):
    theta = SpectralField(lattice2, {(1, 0): 1.0})
    traj = evolve(theta, PulsedSystem(cat, 1e-3, lattice2), 5)
    traj.dln[2] = traj.dln[2] * 4.0  # corrupt one increment
    res = check_lower_bound_chain(traj)
    assert not res["ok"] and res["step"] == 2


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------

def test_sweep_log_scaling(cat):
    nus = np.exp(np.linspace(math.log(1e-8), math.log(1e-2), 13))
    report = dissipation_sweep(cat, nus, "exact")
    assert report.fit.slope == pytest.approx(1 / math.log(LAM_PLUS), rel=0.15)
    assert report.fit.r_squared > 0.99
    assert report.validate_trivial_bound(1.0)


def test_sweep_nu_tau_decreasing(cat):
    nus = np.exp(np.linspace(math.log(1e-6), math.log(1e-2), 7))
    report = dissipation_sweep(cat, nus, "exact")
    order = np.argsort(report.nus)[::-1]  # nu decreasing
    nutau = (report.nus * report.taus)[order]
    assert np.all(np.diff(nutau) < 0)
