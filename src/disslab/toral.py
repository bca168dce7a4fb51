"""Exact algebra of toral automorphisms x -> Ax mod Z^d, A in SL_d(Z).

Provides the ergodicity / irreducibility condition checks

  C1: no eigenvalue of A is a root of unity,
  C2: the characteristic polynomial of A is irreducible over Q,

the Kronecker dichotomy for monic integer polynomials (a root strictly
outside the unit disk, or every root a root of unity), the discriminant,
and the integer norm form N(k) = det[k | Ak | ... | A^(d-1) k] in every
dimension d = 2, 3, 4, a fixed multiple of the eigencoordinate product
prod_i a_i(k), k = sum_i a_i(k) v_i, whose nonvanishing quantifies how far
lattice vectors stay from the expanding / contracting eigendirections.

Integer polynomials are dense coefficient tuples, constant term first,
as in (1, -3, 1) for 1 - 3x + x^2.  The condition checks, the Kronecker
dichotomy, the norm form and its frame constant are decided in exact
integer arithmetic; only the displayed eigenvalues and the Lipschitz
constant are floating point.  One Faddeev-LeVerrier pass gives
the characteristic polynomial, the determinant and the adjugate (hence the
inverse); the cyclotomic polynomial Phi_m is x^m - 1 divided exactly by the
Phi_d of the proper divisors d of m.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .fields import ball_batches, ball_size_bound, integer_tuple, require_work

IntPoly = Tuple[int, ...]

# seconds per norm-form row, one integer pass, by dimension: a row took 28-48,
# 42-62 and 128-149 ns in d = 2, 3, 4 (fastest of three scans of 1.5-3.1
# million rows)
_NORM_FORM_ROW_SECONDS = {2: 60e-9, 3: 100e-9, 4: 250e-9}


# ---------------------------------------------------------------------------
# integer polynomial helpers
# ---------------------------------------------------------------------------

def _poly_trim(p: Sequence[int]) -> IntPoly:
    end = len(p)
    while end > 0 and p[end - 1] == 0:
        end -= 1
    return tuple(p[:end])


def poly_mul(p: Sequence[int], q: Sequence[int]) -> IntPoly:
    out = [0] * (len(p) + len(q) - 1) if p and q else []
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return _poly_trim(out)


def poly_divmod(p: Sequence[int], q: Sequence[int]) -> Tuple[Optional[IntPoly], IntPoly]:
    """Division by a monic integer polynomial; quotient None if q not monic."""
    q = _poly_trim(q)
    if not q or q[-1] != 1:
        return None, _poly_trim(p)
    rem = list(_poly_trim(p))
    quot = [0] * max(len(rem) - len(q) + 1, 0)
    for shift in reversed(range(len(quot))):
        coef = rem[shift + len(q) - 1]
        quot[shift] = coef
        for i, b in enumerate(q):
            rem[shift + i] -= coef * b
    return _poly_trim(quot), _poly_trim(rem[: len(q) - 1])


def poly_divides(q: Sequence[int], p: Sequence[int]) -> bool:
    _, rem = poly_divmod(p, q)
    return len(rem) == 0


def cyclotomic(m: int) -> IntPoly:
    """m-th cyclotomic polynomial: Phi_n = (x^n - 1) / prod_{d | n, d < n} Phi_d, for the divisors n of m in turn."""
    phis = {}
    for n in _divisors(m):
        p: IntPoly = (-1,) + (0,) * (n - 1) + (1,)
        for d, phi in phis.items():
            if n % d == 0:
                p, rem = poly_divmod(p, phi)
                assert not rem, "cyclotomic division must be exact"
        phis[n] = p
    return phis[m]


@functools.lru_cache(maxsize=None)
def _cyclotomic_table(max_degree: int) -> Tuple[Tuple[int, IntPoly], ...]:
    """All (m, Phi_m) with deg Phi_m = phi(m) <= max_degree, in increasing m.

    Built once per degree (at most 8) and shared, hence an immutable tuple.
    """
    table = []
    m = 1
    # phi(m) >= sqrt(m/2), so m <= 2*max_degree^2 exhausts phi(m) <= max_degree
    while m <= 2 * max_degree * max_degree + 2:
        phi = cyclotomic(m)
        if len(phi) - 1 <= max_degree:
            table.append((m, phi))
        m += 1
    return tuple(table)


def _leverrier(matrix: Sequence[Sequence[int]]) -> Tuple[IntPoly, np.ndarray]:
    """One Faddeev-LeVerrier pass in Python integers: (det(xI - A), M_d).

    M_1 = I, c_{d-k} = -tr(A M_k) / k (exact over Z), M_{k+1} = A M_k + c_{d-k} I.
    Cayley-Hamilton gives A M_d = -c_0 I, so det A = (-1)^d c_0 and
    adj A = (-1)^{d+1} M_d.
    """
    a = np.array([[int(v) for v in row] for row in matrix], dtype=object)
    d = len(a)
    eye = np.eye(d, dtype=int).astype(object)
    coeffs = [0] * d + [1]
    m = eye
    for k in range(1, d + 1):
        am = a @ m
        trace = int(np.trace(am))
        assert trace % k == 0, "LeVerrier division must be exact"
        coeffs[d - k] = -trace // k
        if k < d:
            m = am + coeffs[d - k] * eye
    return tuple(coeffs), m


def char_poly(matrix: Sequence[Sequence[int]]) -> IntPoly:
    """Characteristic polynomial det(xI - A) with exact integer coefficients."""
    return _leverrier(matrix)[0]


def _int_det(matrix: Sequence[Sequence[int]]) -> int:
    """Exact determinant, (-1)^d p(0) of the characteristic polynomial p."""
    p = char_poly(matrix)
    return (-1) ** (len(p) - 1) * p[0]


def discriminant(p: Sequence[int]) -> int:
    """Discriminant prod_{i<j} (x_j - x_i)^2 of a monic integer polynomial.

    It is det W^2 = det(W^T W), W_im = x_i^m (m < d): the determinant of the
    Hankel matrix of the power sums s_m = sum_i x_i^m (tr A^m for p = char(A)),
    which Newton's identities give in integers from s_0 = d.
    """
    p = _poly_trim(p)
    d = len(p) - 1
    sums = [d]
    for m in range(1, 2 * d - 1):
        s = -sum(p[d - i] * sums[m - i] for i in range(1, min(m - 1, d) + 1))
        sums.append(s - m * p[d - m] if m <= d else s)
    return _int_det([[sums[i + j] for j in range(d)] for i in range(d)])


def irreducible_over_q(p: IntPoly) -> Tuple[bool, Optional[IntPoly]]:
    """Is the monic integer polynomial of degree <= 4 irreducible over Q?

    A reducible monic p has a monic integer factor of degree <= deg/2 (Gauss's
    lemma) whose constant term c divides p(0).  A linear factor is x + c.  For
    the quartic x^4 + p3 x^3 + p2 x^2 + p1 x + p0, a quadratic factor
    x^2 + b x + c has the cofactor x^2 + (p3 - b) x + f with f = p0 / c, and
    the x coefficient gives b (f - c) = p1 - c p3.  For f != c that fixes b;
    for f = c the x^2 coefficient gives b^2 - p3 b + p2 - 2c = 0, solved with
    ``math.isqrt``.  Each candidate is confirmed by exact division, so the
    search takes no root bound and no scan.  Returns (flag, witness factor).
    """
    p = _poly_trim(p)
    deg = len(p) - 1
    if deg > 4:
        raise ValueError(f"degree must be <= 4, got {deg}")
    if deg <= 1:
        return True, None
    if p[0] == 0:
        return False, (0, 1)  # x divides p
    # constant terms of a factor: the divisors of p(0), with either sign
    constants = [c for r in _divisors(p[0]) for c in (r, -r)]
    candidates = [(c, 1) for c in constants]
    if deg == 4:
        p0, p1, p2, p3 = p[:4]
        for c in constants:
            f = p0 // c
            if f != c:
                b, rem = divmod(p1 - c * p3, f - c)
                candidates += [(c, b, 1)] if rem == 0 else []
            else:
                delta = p3 * p3 - 4 * (p2 - 2 * c)
                s = math.isqrt(max(delta, 0))  # p3^2 - s^2 = 4 (p2 - 2c): p3 and s share a parity
                if s * s == delta:
                    candidates += [(c, b, 1) for b in sorted({(p3 - s) // 2, (p3 + s) // 2})]
    for cand in candidates:
        if poly_divides(cand, p):
            return False, cand
    return True, None


def _divisors(n: int) -> List[int]:
    """The positive divisors of n, ascending, found up to isqrt(|n|)."""
    n = abs(n)
    small = [i for i in range(1, math.isqrt(n) + 1) if n % i == 0]
    return small + [n // i for i in reversed(small) if i * i != n]


# ---------------------------------------------------------------------------
# condition reports and the Kronecker dichotomy
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConditionReport:
    """Outcome of the C1/C2 checks for an integer matrix."""

    in_SL: bool
    c1_no_root_of_unity: bool
    c2_irreducible_char_poly: bool
    witness: Optional[dict] = None

    @property
    def ergodic_irreducible(self) -> bool:
        return self.c1_no_root_of_unity and self.c2_irreducible_char_poly


def check_conditions(matrix: Sequence[Sequence[int]]) -> ConditionReport:
    """Decide C1 (no eigenvalue a root of unity) and C2 (irreducible char poly).

    C1 is exact: an eigenvalue is a root of unity iff some cyclotomic
    polynomial Phi_m with phi(m) <= d divides char(A).  C2 is exact trial
    factorisation.  det != 1 is flagged but a report is still produced.
    An entry that is not an integer raises ValueError.
    """
    rows = [integer_tuple(row, "matrix row", "an entry") for row in matrix]
    d = len(rows)
    if any(len(row) != d for row in rows):
        raise ValueError("matrix must be square")
    if d not in (2, 3, 4):
        raise ValueError(f"dimension must be 2, 3 or 4, got {d}")
    p = char_poly(rows)
    det = (-1) ** d * p[0]  # p(0) = det(-A)

    witness = None
    c1 = True
    for m, phi in _cyclotomic_table(d):
        if poly_divides(phi, p):
            c1 = False
            witness = {"kind": "cyclotomic_factor", "m": m, "poly": list(phi)}
            break

    c2, factor = irreducible_over_q(p)
    if not c2 and witness is None:
        witness = {"kind": "rational_factor", "poly": list(factor)}
    return ConditionReport(in_SL=(det == 1), c1_no_root_of_unity=c1, c2_irreducible_char_poly=c2, witness=witness)


@dataclass(frozen=True)
class KroneckerResult:
    kind: str  # "root_outside_disk" | "all_roots_of_unity"
    cofactor: IntPoly = (1,)  # p with every cyclotomic factor divided out


def kronecker_classify(p: Sequence[int]) -> KroneckerResult:
    """Classify a monic integer polynomial of degree <= 8, exactly.

    Either some root lies strictly outside the unit disk, or every root is a
    root of unity.  By Kronecker's theorem a monic integer polynomial with
    p(0) != 0 and every root in the closed unit disk is a product of
    cyclotomic polynomials, so every Phi_m with phi(m) <= deg p is divided
    out as often as it divides: the roots are all roots of unity exactly
    when the cofactor is 1, and otherwise the cofactor, which has no
    cyclotomic factor, has a root outside the disk.
    """
    p = _poly_trim(p)
    if not p or p[-1] != 1:
        raise ValueError("polynomial must be monic with integer coefficients")
    deg = len(p) - 1
    if deg > 8:
        raise ValueError("degree must be <= 8")
    if deg > 0 and p[0] == 0:
        raise ValueError("zero root (constant term 0): outside the dichotomy")
    cofactor = p
    for _, phi in _cyclotomic_table(deg):
        while len(phi) <= len(cofactor):
            quot, rem = poly_divmod(cofactor, phi)
            if rem:
                break
            cofactor = quot
    kind = "all_roots_of_unity" if cofactor == (1,) else "root_outside_disk"
    return KroneckerResult(kind, cofactor)


# ---------------------------------------------------------------------------
# the automorphism object
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ToralAutomorphism:
    """Integer matrix A in SL_d(Z).

    Exposes the transpose action A_* = A^T on Fourier modes, the inverse
    transpose B = (A^T)^{-1} (integer, since det A = 1), the C1/C2 report,
    the eigenvalues (floats, for display) and the Lipschitz constant |A|_2.
    """

    matrix: Tuple[Tuple[int, ...], ...]

    def __post_init__(self):
        rows = tuple(integer_tuple(row, "matrix row", "an entry") for row in self.matrix)
        object.__setattr__(self, "matrix", rows)
        d = len(rows)
        if any(len(r) != d for r in rows):
            raise ValueError("matrix must be square")
        if d not in (2, 3, 4):
            raise ValueError("dimension must be 2, 3 or 4")
        if _int_det(rows) != 1:
            raise ValueError("matrix must have determinant exactly 1")

    # -- basic integer data --------------------------------------------------

    @property
    def dimension(self) -> int:
        return len(self.matrix)

    @property
    def transpose(self) -> Tuple[Tuple[int, ...], ...]:
        d = self.dimension
        return tuple(tuple(self.matrix[j][i] for j in range(d)) for i in range(d))

    @property
    def inverse(self) -> Tuple[Tuple[int, ...], ...]:
        """Exact integer inverse: the adjugate (-1)^{d+1} M_d of ``_leverrier`` (det = 1)."""
        sign = (-1) ** (self.dimension + 1)
        return tuple(tuple(sign * v for v in row) for row in _leverrier(self.matrix)[1].tolist())

    @property
    def inverse_transpose(self) -> Tuple[Tuple[int, ...], ...]:
        inv = self.inverse
        d = self.dimension
        return tuple(tuple(inv[j][i] for j in range(d)) for i in range(d))

    def push_mode(self, mode: Sequence[int]) -> Tuple[int, ...]:
        """Koopman pushforward of Fourier modes: m -> A^T m (exact integers)."""
        at = self.transpose
        return tuple(sum(at[i][j] * int(mode[j]) for j in range(self.dimension)) for i in range(self.dimension))

    # -- conditions and spectrum ---------------------------------------------

    def conditions(self) -> ConditionReport:
        return check_conditions(self.matrix)

    @property
    def eigenvalues(self) -> np.ndarray:
        """Floating point eigenvalues by decreasing modulus, for display."""
        values = np.linalg.eigvals(np.array(self.matrix, dtype=float))
        return values[np.argsort(-np.abs(values))]

    @property
    def lipschitz(self) -> float:
        """Spectral norm of A = sup norm of the gradient of the map."""
        return float(np.linalg.norm(np.array(self.matrix, dtype=float), 2))


def norm_form(automorphism: ToralAutomorphism, mode):
    """Integer norm form N(k) = det[k | Ak | ... | A^(d-1) k], of degree d in k.

    With k = V a(k) in an eigenframe V, the Krylov matrix is V diag(a(k)) W
    with W_im = lambda_i^m, so prod_i a_i(k) = N(k) / (det V det W), and
    N(k) = 0 at some k != 0 exactly when char(A) is reducible over Q.  For
    the cat map N(k) = k1^2 - k1 k2 - k2^2.  ``mode`` is one mode or a (d, N)
    integer array of modes (one per column).  The d! Leibniz terms are summed
    in int64 when d! g^(d(d-1)/2) max|k|^d < 2^63, g the largest row sum of
    |A| (so |A^m k| <= g^m max|k|), and in Python ints otherwise.
    """
    d, a = automorphism.dimension, automorphism.matrix
    machine = isinstance(mode, np.ndarray) and mode.dtype == np.int64
    cols = mode if machine else np.frompyfunc(int, 1, 1)(np.array(mode, dtype=object))  # Python ints
    g = max(sum(map(abs, row)) for row in a)
    if math.factorial(d) * g ** (d * (d - 1) // 2) * int(np.max(np.abs(cols))) ** d >= 2**63:
        cols = cols.astype(object)
    krylov = [list(cols)]  # krylov[m][i] = (A^m k)_i
    for _ in range(d - 1):
        krylov.append([sum(c * v for c, v in zip(row, krylov[-1]) if c) for row in a])
    total = 0
    for perm in itertools.permutations(range(d)):
        term = functools.reduce(operator.mul, (krylov[m][i] for m, i in enumerate(perm)))
        odd = sum(i > j for i, j in itertools.combinations(perm, 2)) % 2
        total = total - term if odd else total + term
    return int(total) if np.ndim(total) == 0 else total


def verify_norm_form(automorphism: ToralAutomorphism, radius: int) -> dict:
    """Scan 0 < |k| <= radius for the minimal eigencoordinate product.

    By ``norm_form``, prod_i |a_i(k)| = |N(k)| / c with the frame constant
    c = |det V det W|, so the scan is one exact integer pass: it keeps
    min |N(k)|, the first k (in the lexicographic order of the ball) that
    attains it, and the row count.  Every such k attains the minimal product,
    and N's nonvanishing on the ball is checked exactly.  Requires C1 and C2.

    Under C2 no eigenvector has a zero coordinate (the Galois group, transitive
    on the roots, would carry e_j^T v_i = 0 to every i, putting the eigenbasis
    in one hyperplane), so the frame is normalised by e_d^T v_i = 1.
    The Krylov matrix K of e_d (rows e_d^T A^m, m < d) then has K V = W^T, and
    c = det W^2 / |det K| = |disc char(A)| / |N_(A^T)(e_d)|: the integer pair
    ``frame_constant``.  min |N| |det K| / |disc| is rounded once.

    The ball streams through ``fields.ball_batches``, one batch and one
    (d-1)-box held at a time, whatever the radius; its ``ball_size_bound``
    rows are priced at their measured cost against the work limit before
    any allocation.
    """
    if radius < 1:
        raise ValueError("radius must be >= 1")
    if not automorphism.conditions().ergodic_irreducible:
        raise ValueError("norm-form verification requires conditions C1 and C2")
    d = automorphism.dimension
    rows = ball_size_bound(d, radius)
    require_work(rows * _NORM_FORM_ROW_SECONDS[d], f"norm-form scan of radius {radius} in d = {d} ({rows:.3e} rows)")

    min_abs, argmin, scanned = math.inf, None, 0
    for batch in ball_batches(d, radius):
        values = np.abs(norm_form(automorphism, batch.T))
        i_min = int(np.argmin(values))
        if values[i_min] < min_abs:  # strict: the first minimum, as one argmin over the ball
            min_abs, argmin = int(values[i_min]), tuple(int(c) for c in batch[i_min])
        scanned += batch.shape[0]
    disc = abs(discriminant(char_poly(automorphism.matrix)))
    krylov = abs(norm_form(ToralAutomorphism(automorphism.transpose), (0,) * (d - 1) + (1,)))
    return {"min_product": min_abs * krylov / disc, "argmin": argmin, "integer_form_ok": min_abs > 0,
            "min_abs_norm_form": min_abs, "scanned": scanned, "frame_constant": (disc, krylov)}
