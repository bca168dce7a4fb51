import hashlib
import itertools
import math
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import ergodic_automorphisms
from disslab import checks, fields
from disslab.checks import roots_in_closed_disk
from disslab.toral import (
    ToralAutomorphism,
    _cyclotomic_table,
    _int_det,
    _leverrier,
    char_poly,
    check_conditions,
    cyclotomic,
    discriminant,
    irreducible_over_q,
    kronecker_classify,
    norm_form,
    poly_divides,
    poly_divmod,
    poly_mul,
    verify_norm_form,
)

PLASTIC = ((0, 1, 0), (0, 0, 1), (1, 1, 0))  # char poly x^3 - x - 1


def test_char_poly_cat(cat):
    assert char_poly(cat.matrix) == (1, -3, 1)


def test_char_poly_plastic():
    assert char_poly(PLASTIC) == (-1, -1, 0, 1)


def test_cyclotomic_polynomials():
    assert cyclotomic(1) == (-1, 1)
    assert cyclotomic(4) == (1, 0, 1)
    assert cyclotomic(6) == (1, -1, 1)
    assert cyclotomic(12) == (1, 0, -1, 0, 1)


def test_conditions_cat(cat):
    rep = check_conditions(cat.matrix)
    assert rep.in_SL and rep.c1_no_root_of_unity and rep.c2_irreducible_char_poly


def test_conditions_identity():
    rep = check_conditions([[1, 0], [0, 1]])
    assert not rep.c1_no_root_of_unity
    assert rep.witness["m"] == 1 and rep.witness["poly"] == [-1, 1]


def test_conditions_rotation():
    rep = check_conditions([[0, -1], [1, 0]])
    assert not rep.c1_no_root_of_unity
    assert rep.witness["m"] == 4 and rep.witness["poly"] == [1, 0, 1]


def test_conditions_reducible_block():
    # block diagonal cat+cat in d=4: C1 holds, C2 fails
    m = [[2, 1, 0, 0], [1, 1, 0, 0], [0, 0, 2, 1], [0, 0, 1, 1]]
    rep = check_conditions(m)
    assert rep.c1_no_root_of_unity and not rep.c2_irreducible_char_poly
    assert rep.witness["kind"] == "rational_factor"


def _companion(p):
    # companion matrix of the monic p = (c_0, ..., c_{d-1}, 1): its char poly is p
    d = len(p) - 1
    return [[int(i == j + 1) for j in range(d - 1)] + [-p[i]] for i in range(d)]


@pytest.mark.parametrize("p, irreducible", [
    ((1, 0, 0, -1000, 1), True),  # x^4 - 1000 x^3 + 1
    (poly_mul((1, 500, 1), (1, -300, 1)), False),  # (x^2 + 500 x + 1)(x^2 - 300 x + 1)
    ((1, 0, 0, -10**6, 1), True),  # x^4 - 10^6 x^3 + 1
    (poly_mul((1, 1000, 1), (-1, -999, 1)), False),  # (x^2 + 1000 x + 1)(x^2 - 999 x - 1)
])
def test_conditions_decide_wide_companions_quickly(p, irreducible):
    # a factor's constant term divides p(0) = +-1, and its middle
    # coefficient is solved for, not scanned over a root bound
    matrix = _companion(p)
    assert char_poly(matrix) == p
    start = time.perf_counter()
    rep = check_conditions(matrix)
    assert time.perf_counter() - start < 1.0
    assert rep.c1_no_root_of_unity
    assert rep.c2_irreducible_char_poly == irreducible
    if not irreducible:
        factor = tuple(rep.witness["poly"])
        assert rep.witness["kind"] == "rational_factor"
        assert len(factor) == 3 and poly_divides(factor, p)


@settings(max_examples=40, deadline=None, database=None, derandomize=True)
@given(q=st.tuples(st.integers(-30, 30), st.integers(-60, 60)),
       r=st.tuples(st.integers(-30, 30), st.integers(-60, 60)))
def test_products_of_quadratics_are_reducible_with_a_dividing_witness(q, r):
    q, r = q + (1,), r + (1,)
    if q[0] == 0 or r[0] == 0:
        return  # x divides the product: the trivial witness
    p = poly_mul(q, r)
    ok, factor = irreducible_over_q(p)
    assert not ok
    assert 1 <= len(factor) - 1 <= 2 and factor[-1] == 1 and poly_divides(factor, p)


def brute_force_factor(p):
    """Scan every monic factor of degree <= deg/2 within Fujiwara's root bound."""
    deg = len(p) - 1
    if p[0] == 0:
        return (0, 1)
    # rho = 2 max_i |p_{deg-i}|^{1/i}, each root rounded up in integers
    rho = 2 * max(next(r for r in itertools.count() if r**i >= abs(p[deg - i])) for i in range(1, deg + 1))
    constants = [c for r in range(1, abs(p[0]) + 1) if p[0] % r == 0 for c in (r, -r)]
    for fdeg in range(1, deg // 2 + 1):
        ranges = [range(-b, b + 1) for b in (math.comb(fdeg, j) * rho ** (fdeg - j) for j in range(1, fdeg))]
        for tail in itertools.product(constants, *ranges):
            if poly_divides(tail + (1,), p):
                return tail + (1,)
    return None


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(p=st.tuples(st.integers(-6, 6), st.integers(-6, 6), st.integers(-6, 6), st.integers(-6, 6)))
def test_quartic_factor_search_matches_brute_force(p):
    p = p + (1,)
    factor = brute_force_factor(p)
    assert irreducible_over_q(p) == (factor is None, factor)


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(q=st.tuples(st.integers(-4, 4), st.integers(-6, 6)), r=st.tuples(st.integers(-4, 4), st.integers(-6, 6)))
def test_quartic_products_match_brute_force(q, r):
    p = poly_mul(q + (1,), r + (1,))
    assert irreducible_over_q(p) == (False, brute_force_factor(p))


def test_irreducibility_is_decided_up_to_degree_4():
    with pytest.raises(ValueError, match="degree must be <= 4"):
        irreducible_over_q((1, 0, 0, 0, 0, 1))


def test_conditions_transpose_and_inverse_transpose_match(cat):
    rep_a = check_conditions(cat.matrix)
    rep_b = check_conditions(cat.inverse_transpose)
    assert rep_a.c1_no_root_of_unity == rep_b.c1_no_root_of_unity
    assert rep_a.c2_irreducible_char_poly == rep_b.c2_irreducible_char_poly


def test_irreducibility():
    assert irreducible_over_q((1, -3, 1))[0]
    ok, factor = irreducible_over_q((1, 0, 2, 0, 1))  # (x^2+1)^2 + ... check a product
    prod = (1, 0, 1)  # x^2 + 1
    assert not irreducible_over_q((1, 0, 2, 0, 1))[0]  # (x^2+1)^2


def _roots(p):
    """Floating point roots of an integer polynomial, constant term first."""
    return np.roots(list(reversed(p)))


def _largest_root(p):
    roots = _roots(p)
    return complex(roots[int(np.argmax(np.abs(roots)))])


def test_kronecker_outside():
    res = kronecker_classify((1, -3, 1))
    assert res.kind == "root_outside_disk"
    assert abs(_largest_root(res.cofactor) - (3 + math.sqrt(5)) / 2) < 1e-9


def test_kronecker_golden():
    res = kronecker_classify((-1, -1, 1))
    assert res.kind == "root_outside_disk"
    assert abs(_largest_root(res.cofactor) - (1 + math.sqrt(5)) / 2) < 1e-9


def test_kronecker_roots_of_unity():
    assert kronecker_classify((1, 0, 1)).kind == "all_roots_of_unity"
    # 1 + x + x^3 + x^4 + x^5 has two roots of modulus 1.261
    assert kronecker_classify((1, 1, 0, 1, 1, 1)).kind == "root_outside_disk"


def test_kronecker_box_scan_classifies_each_trace_once(monkeypatch):
    # the 116 SL2 matrices of the box [-3, 3] have 9 traces; a violation still
    # counts once per matrix: flipping the Graeffe verdict at trace 2 (the
    # parabolic matrices) gives as many violations as there are of them
    box = range(-3, 4)
    sl2 = [(a, d) for a, b, c, d in itertools.product(box, repeat=4) if a * d - b * c == 1]
    classified = []
    classify = checks.kronecker_classify
    monkeypatch.setattr(checks, "kronecker_classify", lambda p: classified.append(p) or classify(p))
    assert checks.kronecker_box_scan(3) == (len(sl2), 0) == (116, 0)
    assert sorted(classified) == sorted({(1, -(a + d), 1) for a, d in sl2}) and len(classified) == 9
    monkeypatch.setattr(checks, "roots_in_closed_disk", lambda p: (p[1] == -2) != roots_in_closed_disk(p))
    assert checks.kronecker_box_scan(3) == (116, sum(a + d == 2 for a, d in sl2))


@pytest.mark.parametrize("p", [
    (-1, 3, -3, 1),  # (x - 1)^3, the unipotent [[1,1,0],[0,1,1],[0,0,1]]
    (1, -4, 6, -4, 1),  # (x - 1)^4
    poly_mul(poly_mul(cyclotomic(3), cyclotomic(3)), poly_mul(cyclotomic(3), cyclotomic(3))),  # Phi_3^4
    poly_mul(cyclotomic(8), cyclotomic(8)),  # Phi_8^2
    poly_mul((-1, 1), poly_mul((1, 1), (1, 1))),  # (x - 1)(x + 1)^2
])
def test_kronecker_repeated_cyclotomic_factors(p):
    # a root of multiplicity m moves by about eps^(1/m) in floating point
    res = kronecker_classify(p)
    assert (res.kind, res.cofactor) == ("all_roots_of_unity", (1,))


def _cyclotomics_times_factors(draw):
    """A monic integer polynomial of degree <= 8 with p(0) != 0: a product
    of cyclotomic polynomials and random monic factors."""
    p = (1,)
    for _ in range(draw(st.integers(0, 4))):
        if draw(st.booleans()):
            factor = draw(st.sampled_from([phi for _, phi in _cyclotomic_table(8)]))
        else:
            middle = draw(st.lists(st.integers(-3, 3), max_size=3))
            factor = (draw(st.sampled_from([-2, -1, 1, 2])), *middle, 1)
        if len(p) + len(factor) - 2 <= 8:
            p = poly_mul(p, factor)
    return p


@settings(max_examples=400, deadline=None, database=None, derandomize=True)
@given(st.composite(_cyclotomics_times_factors)())
def test_kronecker_matches_graeffe_root_squaring(p):
    res = kronecker_classify(p)
    assert (res.kind == "all_roots_of_unity") == roots_in_closed_disk(p)
    # the cofactor divides p, and its largest root lies outside the disk
    assert poly_divides(res.cofactor, p)
    if res.kind == "root_outside_disk":
        assert abs(_largest_root(res.cofactor)) > 1 + 1e-6


def test_kronecker_rejects_non_monic_and_zero_root():
    with pytest.raises(ValueError):
        kronecker_classify((1, 2))  # 2x + 1
    with pytest.raises(ValueError):
        kronecker_classify((0, 0, 1))  # x^2


def test_kronecker_exhaustive_sl2_box():
    """Every SL2 matrix with entries in [-3,3] whose roots stay in the disk
    must classify as roots of unity; classification must agree with the
    direct root computation."""
    for a in range(-3, 4):
        for b in range(-3, 4):
            for c in range(-3, 4):
                for d in range(-3, 4):
                    if a * d - b * c != 1:
                        continue
                    p = (1, -(a + d), 1)
                    roots = _roots(p)
                    res = kronecker_classify(p)
                    if np.max(np.abs(roots)) <= 1 + 1e-9:
                        assert res.kind == "all_roots_of_unity"
                    else:
                        assert res.kind == "root_outside_disk"


def test_kronecker_exhaustive_sl3_box():
    # every SL3 matrix with entries in [-1, 1]: the division rule against
    # Graeffe root squaring, on polynomials with repeated cyclotomic factors
    # such as (x - 1)^3 and (x - 1)(x + 1)^2, which float roots misplace
    polys = [char_poly(np.reshape(entries, (3, 3)).tolist())
             for entries in itertools.product((-1, 0, 1), repeat=9)
             if round(np.linalg.det(np.reshape(entries, (3, 3)))) == 1]
    assert len(polys) == 3480 and len(set(polys)) == 32
    disagree = [p for p in polys if (kronecker_classify(p).kind == "all_roots_of_unity") != roots_in_closed_disk(p)]
    assert disagree == []


def test_norm_form_values(cat):
    assert norm_form(cat, (2, 3)) == -11
    assert norm_form(cat, (1, -2)) == -1
    assert norm_form(cat, (1, 0)) == 1


def test_norm_form_accepts_mode_columns(cat):
    modes = np.array([(2, 3), (1, -2), (1, 0), (-89, -55)], dtype=np.int64)
    assert norm_form(cat, modes.T).tolist() == [norm_form(cat, tuple(int(c) for c in m)) for m in modes]


def test_verify_norm_form_radius_200(cat):
    res = verify_norm_form(cat, 200)
    assert res["integer_form_ok"]
    assert res["min_product"] == pytest.approx(0.2, abs=1e-9)
    assert res["min_abs_norm_form"] == 1


@pytest.mark.parametrize("automorphism, radius", [
    (ToralAutomorphism(((2, 1), (1, 1))), 200),
    (ToralAutomorphism(PLASTIC), 8),
    (ToralAutomorphism(((0, 0, 0, -1), (1, 0, 0, 1), (0, 1, 0, 0), (0, 0, 1, 3))), 5),
], ids=["cat", "plastic", "companion-4d"])
def test_verify_norm_form_is_batch_size_independent(monkeypatch, automorphism, radius):
    default = verify_norm_form(automorphism, radius)
    monkeypatch.setattr(fields, "BATCH_ROWS", 2**4)
    assert verify_norm_form(automorphism, radius) == default


@pytest.mark.parametrize("automorphism, radius", [
    (ToralAutomorphism(((2, 1), (1, 1))), 200),
    (ToralAutomorphism(PLASTIC), 8),
    (ToralAutomorphism(((0, 0, 0, -1), (1, 0, 0, 1), (0, 1, 0, 0), (0, 0, 1, 3))), 5),
], ids=["cat", "plastic", "companion-4d"])
def test_verify_norm_form_argmin_attains_the_minimum(automorphism, radius):
    # the minimum is read off min |N| and one frame constant; the returned k
    # must attain min |N|, and its float eigencoordinates the product
    res = verify_norm_form(automorphism, radius)
    assert abs(norm_form(automorphism, res["argmin"])) == res["min_abs_norm_form"]
    coords = np.linalg.solve(_float_frame(automorphism)[1], np.array(res["argmin"], dtype=complex))
    assert math.isclose(float(np.prod(np.abs(coords))), res["min_product"], rel_tol=1e-9)


@pytest.mark.parametrize("automorphism", [
    ToralAutomorphism(((2, 1), (1, 1))),
    ToralAutomorphism(PLASTIC),
    ToralAutomorphism(((0, 0, 0, -1), (1, 0, 0, 1), (0, 1, 0, 0), (0, 0, 1, 3))),
], ids=["cat", "plastic", "companion-4d"])
def test_verify_norm_form_is_float_free(monkeypatch, automorphism):
    # the frame constant is an integer pair: no eigensolver, determinant or solve
    expected = verify_norm_form(automorphism, 3)

    def refuse(*args, **kwargs):
        raise AssertionError("verify_norm_form called a floating point np.linalg routine")

    for name in ("eig", "eigvals", "det", "solve"):
        monkeypatch.setattr(np.linalg, name, refuse)
    assert verify_norm_form(automorphism, 3) == expected
    assert set(expected) == {"min_product", "argmin", "integer_form_ok", "min_abs_norm_form", "scanned", "frame_constant"}


def test_verify_norm_form_holds_one_batch(cat):
    # the whole radius-200 ball, its complex coordinates and norm form took 9.6 MB
    tracemalloc.start()
    try:
        verify_norm_form(cat, 200)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2e6


def test_norm_form_plateau(cat):
    mins = [verify_norm_form(cat, r)["min_product"] for r in (50, 100, 200)]
    assert mins[0] >= mins[1] >= mins[2] > 0.19


def test_norm_form_requires_conditions():
    with pytest.raises(ValueError):
        verify_norm_form(ToralAutomorphism(((1, 1), (0, 1))), 10)


def test_norm_form_d3_near_integer():
    auto = ToralAutomorphism(PLASTIC)
    res = verify_norm_form(auto, 8)
    assert res["integer_form_ok"]


@pytest.mark.parametrize("matrix, constant", [
    (((0, 0, 1), (1, 0, -7), (0, 1, -7)), 1492),
    (((0, 0, 1), (1, 0, -5), (0, 1, 11)), 1836),
    (((0, 0, 0, -1), (1, 0, 0, -8), (0, 1, 0, 8), (0, 0, 1, 5)), 1083797),
    (((0, 0, 0, -1), (1, 0, 0, 11), (0, 1, 0, 8), (0, 0, 1, -3)), 776552),
], ids=["3d-1492", "3d-1836", "4d-1083797", "4d-776552"])
def test_norm_form_exact_in_higher_dimensions(matrix, constant):
    # a denominator guessed from the float product at the first ball row
    # (373 for the first, whose true constant is 1492) once made these
    # C1-and-C2 companions fail the nonvanishing check
    res = verify_norm_form(ToralAutomorphism(matrix), 4)
    assert res["integer_form_ok"] and res["min_abs_norm_form"] == 1
    assert res["frame_constant"] == (constant, 1)


@pytest.mark.parametrize("matrix, radius, frame_constant", [
    (((2, 1), (1, 1)), 40, (5, 1)),
    (PLASTIC, 8, (23, 1)),
    (((0, 0, 1), (1, 0, 0), (0, 1, 1)), 8, (31, 1)),
    (((0, 0, 0, -1), (1, 0, 0, 1), (0, 1, 0, 0), (0, 0, 1, 3)), 5, (2696, 1)),
    (((2, 3), (1, 2)), 40, (12, 1)),  # K of e_1 has det 3: the pivot is the last coordinate
    (((2, 1), (3, 2)), 40, (12, 3)),
], ids=["cat", "plastic", "A3", "A4", "trace-4", "trace-4-transpose"])
def test_norm_form_over_eigencoordinate_product(matrix, radius, frame_constant):
    automorphism = ToralAutomorphism(matrix)
    ratios = _norm_form_ratios(automorphism, radius)
    assert verify_norm_form(automorphism, 1)["frame_constant"] == frame_constant
    assert np.allclose(ratios, frame_constant[0] / frame_constant[1], rtol=1e-9, atol=0)


def _float_frame(automorphism):
    """Test-local float eigenframe: LAPACK eig, each eigenvector scaled so its last coordinate is 1."""
    values, vecs = np.linalg.eig(np.array(automorphism.matrix, dtype=float))
    return values, vecs / vecs[-1, :]


def _norm_form_ratios(automorphism, radius):
    """|N(k)| / prod_i |a_i(k)| over the ball, and its closed form |det V det W|."""
    modes = fields.ball_modes(automorphism.dimension, radius)
    values, vecs = _float_frame(automorphism)
    products = np.prod(np.abs(np.linalg.solve(vecs, modes.T.astype(complex))), axis=0)
    ratios = np.abs(norm_form(automorphism, modes.T)) / products
    vandermonde = values[:, None] ** np.arange(automorphism.dimension)[None, :]
    assert np.allclose(ratios, abs(np.linalg.det(vecs) * np.linalg.det(vandermonde)), rtol=1e-9, atol=0)
    return ratios


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(automorphism=ergodic_automorphisms(),
       rows=st.lists(st.lists(st.integers(-9, 9), min_size=4, max_size=4), min_size=1, max_size=4),
       shift=st.integers(40, 61))
def test_norm_form_is_the_krylov_determinant(automorphism, rows, shift):
    d = automorphism.dimension
    a = np.array(automorphism.matrix, dtype=object)
    small = np.array(rows, dtype=np.int64)[:, :d]  # summed in int64
    large = small.copy()
    large[:, 0] += 2**shift  # an int64 array summed in Python ints
    for k in small.tolist() + large.tolist():
        krylov = [np.array(k, dtype=object)]
        for _ in range(d - 1):
            krylov.append(a @ krylov[-1])
        assert norm_form(automorphism, tuple(k)) == _int_det(np.array(krylov).T.tolist())
    for modes in (small, large):
        assert norm_form(automorphism, modes.T).tolist() == [norm_form(automorphism, tuple(k)) for k in modes.tolist()]
    ratios = _norm_form_ratios(automorphism, {2: 12, 3: 4, 4: 2}[d])
    assert np.allclose(ratios, ratios[0], rtol=1e-9, atol=0)


@settings(max_examples=100, deadline=None, database=None, derandomize=True)
@given(automorphism=ergodic_automorphisms())
def test_frame_constant_is_the_float_frame_determinant(automorphism):
    # |disc| / |N_(A^T)(e_d)| against |det V det W| of the float frame
    values, vecs = _float_frame(automorphism)
    disc, krylov = verify_norm_form(automorphism, 1)["frame_constant"]
    assert disc == abs(discriminant(char_poly(automorphism.matrix))) and krylov > 0
    assert math.isclose(disc / krylov, abs(np.linalg.det(vecs) * np.linalg.det(np.vander(values, increasing=True))),
                        rel_tol=1e-9)


@pytest.mark.parametrize("p, disc", [
    ((1, -3, 1), 5),
    ((-1, -1, 0, 1), -23),
    ((-1, 0, -1, 1), -31),
    ((1, -1, 0, -3, 1), -2696),
    ((1, 0, 1), -4),
    ((1, -2, 1), 0),
    ((-6, 11, -6, 1), 4),
    ((24, -50, 35, -10, 1), 144),
], ids=["cat", "plastic", "A3", "A4", "x2+1", "(x-1)^2", "roots-1-2-3", "roots-1-2-3-4"])
def test_discriminant_is_the_product_of_squared_root_differences(p, disc):
    assert discriminant(p) == disc
    roots = _roots(p)
    product = np.prod([(x - y) ** 2 for x, y in itertools.combinations(roots, 2)])
    assert abs(product - disc) <= 1e-9 * max(abs(disc), 1)


@pytest.mark.parametrize("build", [ToralAutomorphism, check_conditions], ids=["automorphism", "conditions"])
def test_matrix_entries_must_be_integers(build):
    # int() used to truncate each entry: (2.9, 1) became the cat map's row (2, 1)
    for rows, entry in ((((2.9, 1), (1, 1)), "2.9"), ([[2.5, 1], [1, 1]], "2.5"), (((2, 1), (1, None)), "None")):
        with pytest.raises(ValueError, match=f"has an entry that is not an integer: {entry}$"):
            build(rows)
    assert build(((2.0, 1), (1, np.int64(1)))) == build(((2, 1), (1, 1)))


def test_automorphism_requires_unimodular():
    with pytest.raises(ValueError):
        ToralAutomorphism(((2, 0), (0, 2)))


def test_inverse_transpose_exact(cat):
    b = np.array(cat.inverse_transpose)
    assert np.array_equal(b @ np.array(cat.matrix).T, np.eye(2, dtype=np.int64))


# References for the one LeVerrier pass and the cyclotomics by division: the
# Laplace determinant, the adjugate from minors and the Moebius product that
# the package used before.

def laplace_det(a):
    if len(a) == 1:
        return a[0][0]
    return sum((-1) ** j * a[0][j] * laplace_det([row[:j] + row[j + 1:] for row in a[1:]]) for j in range(len(a)))


def minors_adjugate(a):
    d = len(a)
    return [[(-1) ** (i + j) * laplace_det([row[:i] + row[i + 1:] for k, row in enumerate(a) if k != j])
             for j in range(d)] for i in range(d)]


def moebius(n):
    result, p = 1, 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            result = -result
        p += 1
    return -result if n > 1 else result


def moebius_cyclotomic(m):
    """prod_{d | m} (x^d - 1)^{mu(m/d)}: the numerator product, then one long division."""
    num, den = (1,), (1,)
    for d in (d for d in range(1, m + 1) if m % d == 0):
        xd_minus_1 = (-1,) + (0,) * (d - 1) + (1,)
        if moebius(m // d) == 1:
            num = poly_mul(num, xd_minus_1)
        elif moebius(m // d) == -1:
            den = poly_mul(den, xd_minus_1)
    num, quot = list(num), [0] * (len(num) - len(den) + 1)
    for shift in reversed(range(len(quot))):
        quot[shift] = num[shift + len(den) - 1]
        for i, b in enumerate(den):
            num[shift + i] -= quot[shift] * b
    assert not any(num)
    return tuple(quot)


square_matrices = st.integers(2, 4).flatmap(
    lambda d: st.lists(st.lists(st.integers(-9, 9), min_size=d, max_size=d), min_size=d, max_size=d))


@settings(max_examples=400, deadline=None, database=None, derandomize=True)
@given(square_matrices)
def test_leverrier_matches_laplace_and_minors(a):
    d = len(a)
    p, m_d = _leverrier(a)
    assert char_poly(a) == p
    assert p[-1] == 1 and len(p) == d + 1
    det = laplace_det(a)
    assert _int_det(a) == det == (-1) ** d * p[0]
    assert check_conditions(a).in_SL == (det == 1)
    # A M_d = -c_0 I, so adj A = (-1)^{d+1} M_d for every A, singular or not
    assert ((-1) ** (d + 1) * m_d).tolist() == minors_adjugate(a)
    # the trace of A is -c_{d-1}
    assert p[d - 1] == -sum(a[i][i] for i in range(d))
    if det == 1:
        assert [list(row) for row in ToralAutomorphism(a).inverse] == minors_adjugate(a)


# unimodular matrices: products of elementary column operations from I
unimodular = st.integers(2, 4).flatmap(lambda d: st.lists(
    st.tuples(st.integers(0, d - 1), st.integers(0, d - 1), st.integers(-3, 3)), max_size=10).map(
    lambda ops: _elementary_product(d, ops)))


def _elementary_product(d, ops):
    a = [[int(i == j) for j in range(d)] for i in range(d)]
    for i, j, c in ops:
        if i != j:
            for row in a:
                row[i] += c * row[j]
    return a


@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(unimodular)
def test_inverse_is_the_minors_adjugate(a):
    auto = ToralAutomorphism(a)
    inv = [list(row) for row in auto.inverse]
    assert inv == minors_adjugate(a)
    assert np.array_equal(np.array(a, dtype=object) @ np.array(inv, dtype=object), np.eye(len(a), dtype=int))
    assert all(type(v) is int for row in inv for v in row)


def test_cyclotomic_by_division_matches_moebius_product():
    for m in range(1, 131):
        assert cyclotomic(m) == moebius_cyclotomic(m), m


def test_cyclotomic_table_pinned():
    # sha256 of repr(_cyclotomic_table(8)) as the Moebius-product construction built it
    digest = "378611ebccfee38919bd240e83eeafa204e40b1f52077f4300b753502f127458"
    assert hashlib.sha256(repr(_cyclotomic_table(8)).encode()).hexdigest() == digest


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(st.lists(st.integers(-6, 6), max_size=9), st.lists(st.integers(-6, 6), max_size=5), st.booleans())
def test_poly_divmod_is_division_with_remainder(p, q, monic):
    if monic:
        q = q + [1]
    quot, rem = poly_divmod(p, q)
    trimmed = list(q)
    while trimmed and trimmed[-1] == 0:
        trimmed.pop()
    if not trimmed or trimmed[-1] != 1:
        assert quot is None
        return
    product = poly_mul(quot, trimmed)
    padded = [0] * max(len(p), len(product), len(rem))
    for poly, sign in ((product, 1), (rem, 1), (p, -1)):
        for i, c in enumerate(poly):
            padded[i] += sign * c
    assert not any(padded)
    assert len(rem) < len(trimmed) and (not rem or rem[-1] != 0)
