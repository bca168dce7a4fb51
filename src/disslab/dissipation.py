"""Dissipation times of pulsed diffusions, exact and operator-norm routes.

Exact route (toral automorphisms): after relabeling, the n-step operator is
diagonal with weights exp(-nu * S_n(k)), S_n(k) = sum_{j=1..n} |A_*^j k|^2,
so its norm is exp(-nu * min_k S_n(k)) and

    tau_d = min { n : min_{k != 0} S_n(k) > 1/nu }.

S_n is an exact integer quadratic form G_n = sum_j (A_*^j)^T A_*^j.  One
walk, ``_walk``, yields one ``_Form`` per n: G_n in a carried basis B (the
unit basis at first) as gram = B G_n B^T, grown by (B P^T)(B P^T)^T with
P = A_*^n.  A form's warm reduction runs integral LLL on gram (Cohen, Alg.
2.6.7: integer Gram-Schmidt data, exact divisions, no round cap; each swap
shrinks an integer potential by a factor below 3/4, and a nonpositive minor
raises ValueError), and the walk hands the reduced basis to the next n.
One exact enumerator, ``_enumerate``, runs on the reduced form's integral
Gram-Schmidt data (Fincke-Pohst with interval ends from ``math.isqrt`` and
floor division, no floats): the minimum is the least value among the points
at or below the smallest diagonal entry, and ``carried_short_vectors`` lists
the points of an integer ellipsoid for the strong mixing envelope, one of
each pair +-x.  The walk and the envelope reduce through one helper,
``_reduce``: LLL of a form written in a carried basis, returning the new
basis.
``min_energies`` reduces at every n; ``pulse_energy_form`` never does.

tau_d only asks whether min S_n > T = 1/(nu * scale).  min S_n is an
integer, so that holds exactly when min S_n > floor(T), and ``_bounds``
takes floor(T) once per nu.  A nu grid is served by one walk: each nu takes
the first n whose form ``exceeds`` its integer bound.  A form answers False
from a carried Gram diagonal entry <= bound, else from its warm LLL
reduction (a diagonal entry <= bound), else from min S_n, enumerated once
per n; most n never reach LLL and few reach the enumeration.

Operator route (toral automorphisms): the same first-passage rule on an
independent stream of tests, exact orbit minima compared with the integer
bounds, brute force over the orbits of the induced permutation
on one certified threshold ball per grid, |k| <= isqrt(floor(1/nu')) + 1 for
the grid's smallest nu' = nu * scale.  A mode outside it has |k|^2 > 1/nu',
so an orbit leaving the ball has passed every threshold and is dropped
exactly.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from functools import cached_property
from itertools import islice
from typing import Callable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .fields import SpectralConvention
from .fitting import LineFit, line_fit
from .pulsed import Trajectory, TruncatedKoopman
from .toral import ToralAutomorphism

# ---------------------------------------------------------------------------
# exact integer quadratic-form minimisation
# ---------------------------------------------------------------------------

# a basis (rows), its Gram matrix and that matrix's integral Gram-Schmidt data
_Reduction = Tuple[List[List[int]], List[List[int]], List[int], List[List[int]]]


def _gram_schmidt(gram: List[List[int]]) -> Tuple[List[int], List[List[int]]]:
    """Integral Gram-Schmidt data (Cohen, Alg. 2.6.7) of an integer Gram matrix.

    ``dm[i]`` is the leading i x i principal minor (``dm[0] = 1``) and
    ``lam[k][j] = dm[j+1] mu_kj`` for j < k; every division is exact.  By
    Sylvester's criterion a minor ``dm[i] <= 0`` means the form is not
    positive definite, which raises ValueError.
    """
    d = len(gram)
    dm = [1] * (d + 1)
    lam = [[0] * d for _ in range(d)]
    for k in range(d):
        for j in range(k + 1):
            u = gram[k][j]
            for i in range(j):
                u = (dm[i + 1] * u - lam[k][i] * lam[j][i]) // dm[i]
            if j < k:
                lam[k][j] = u
            elif u <= 0:
                raise ValueError("form is not positive definite")
            else:
                dm[k + 1] = u
    return dm, lam


def _lll_reduce(gram: Sequence[Sequence[int]]) -> _Reduction:
    """Integral LLL (Cohen, Alg. 2.6.7) of an integer Gram matrix, from its own basis.

    Returns the transform rows U (the reduced basis in the coordinates of
    ``gram``), the reduced Gram matrix U gram U^T, LLL-reduced with
    delta = 3/4, and its integral Gram-Schmidt data ``dm, lam`` (see
    ``_gram_schmidt``), kept exact through every size reduction and swap.
    The loop reads only ``dm`` and ``lam``, so the reduced Gram matrix is
    formed once at the end.  Each swap multiplies prod d_i by less than 3/4,
    hence the loop ends without a round cap.
    """
    g = [[int(v) for v in row] for row in gram]
    d = len(g)
    dm, lam = _gram_schmidt(g)
    u = _identity(d)

    def size_reduce(k: int, l: int) -> None:
        if abs(2 * lam[k][l]) > dm[l + 1]:
            q = (2 * lam[k][l] + dm[l + 1]) // (2 * dm[l + 1])  # nearest integer
            u[k] = [x - q * y for x, y in zip(u[k], u[l])]
            lam[k][l] -= q * dm[l + 1]
            for i in range(l):
                lam[k][i] -= q * lam[l][i]

    def swap(k: int) -> None:
        u[k], u[k - 1] = u[k - 1], u[k]
        for j in range(k - 1):
            lam[k][j], lam[k - 1][j] = lam[k - 1][j], lam[k][j]
        m = lam[k][k - 1]
        dk = (dm[k - 1] * dm[k + 1] + m * m) // dm[k]
        for i in range(k + 1, d):
            t = lam[i][k]
            lam[i][k] = (dm[k + 1] * lam[i][k - 1] - m * t) // dm[k]
            lam[i][k - 1] = (dk * t + m * lam[i][k]) // dm[k + 1]
        dm[k] = dk

    k = 1
    while k < d:
        size_reduce(k, k - 1)
        if 4 * dm[k + 1] * dm[k - 1] < 3 * dm[k] ** 2 - 4 * lam[k][k - 1] ** 2:
            swap(k)
            k = max(1, k - 1)
        else:
            for l in range(k - 2, -1, -1):
                size_reduce(k, l)
            k += 1
    return u, [[_dot(row, v) for v in u] for row in _matmul(u, g)], dm, lam


def _enumerate(dm: List[int], lam: List[List[int]], bound: int) -> Iterator[Tuple[int, Tuple[int, ...]]]:
    """Yield (q(x), x) for one x of each pair +-x of nonzero integer vectors with q(x) <= bound.

    Fincke-Pohst: q is the form with integral Gram-Schmidt data ``dm, lam``;
    with N_i = dm[i+1] x_i + sum_{j>i} lam[j][i] x_j, level i contributes
    N_i^2 / (dm[i] dm[i+1]).  Levels run from d - 1 down to 0 and x_i
    increases within a level.  The budget left for levels i, ..., 0 is the
    exact fraction num/den, so |N_i| <= isqrt(floor(num dm[i] dm[i+1] / den))
    and the ends of x_i's interval are integer floor divisions.  Since
    q(-x) = q(x), a level whose higher coordinates are all 0 stops at
    x_i = 0: the x yielded is the one of its pair whose last nonzero
    coordinate is negative, which this order meets first.
    """
    d = len(dm) - 1
    x = [0] * d

    def level(i: int, num: int, den: int, lead: bool) -> Iterator[Tuple[int, Tuple[int, ...]]]:
        scale = dm[i] * dm[i + 1]
        reach = math.isqrt(num * scale // den)
        shift = sum(lam[j][i] * x[j] for j in range(i + 1, d))
        top = (reach - shift) // dm[i + 1]
        for xi in range(-((reach + shift) // dm[i + 1]), (min(top, 0) if lead else top) + 1):
            x[i] = xi
            n_i = dm[i + 1] * xi + shift
            rest, rest_den = num * scale - n_i * n_i * den, den * scale
            if i:
                yield from level(i - 1, rest, rest_den, lead and not xi)
            elif xi or not lead:
                yield bound - rest // rest_den, tuple(x)  # the rest is the integer bound - q(x)
        x[i] = 0

    yield from level(d - 1, bound, 1, True)


def _dot(x: Sequence[int], y: Sequence[int]) -> int:
    return sum(map(operator.mul, x, y))


def _matmul(x: List[List[int]], y: List[List[int]]) -> List[List[int]]:
    """Exact product of integer matrices given as lists of rows."""
    return [[_dot(row, col) for col in zip(*y)] for row in x]


def _identity(d: int) -> List[List[int]]:
    return [[1 if i == j else 0 for j in range(d)] for i in range(d)]


def _map_back(x: Sequence[int], basis: List[List[int]]) -> Tuple[int, ...]:
    """The vector with coordinates x in ``basis`` (rows), in original coordinates."""
    return tuple(_dot(x, column) for column in zip(*basis))


def _reduced_minimum(basis: List[List[int]], gram: List[List[int]], dm: List[int],
                     lam: List[List[int]]) -> Tuple[int, Tuple[int, ...]]:
    """Exact minimum of the form over nonzero vectors, from a reduced basis and its data.

    The minimum is at most min_i gram_ii (a unit vector), so it is the least
    value among the points the enumeration finds at that bound; the first
    point attaining it is mapped back to original coordinates through
    ``basis``.
    """
    d = len(gram)
    best_val, best_vec = min((gram[i][i], tuple(int(i == j) for j in range(d))) for i in range(d))
    for val, vec in _enumerate(dm, lam, best_val):
        if val < best_val:
            best_val, best_vec = val, vec
    return best_val, _map_back(best_vec, basis)


def integer_form_minimum(g: Sequence[Sequence[int]]) -> Tuple[int, Tuple[int, ...]]:
    """Exact minimum of k^T G k over nonzero integer vectors, G pos. definite.

    Integral LLL from the unit basis, then the exact enumeration on the
    reduced form; a form that is not positive definite raises ValueError.
    """
    return _reduced_minimum(*_lll_reduce(g))


def _reduce(basis: List[List[int]], gram: List[List[int]]) -> Tuple[List[List[int]], _Reduction]:
    """LLL of gram = B F B^T, the form F written in the carried basis B (rows).

    Returns the transform U of ``_lll_reduce`` and the reduction of F: the
    reduced basis U B in original coordinates, its Gram matrix U gram U^T
    and that matrix's integral Gram-Schmidt data.  A basis that is already
    nearly reduced for F needs few swaps.
    """
    u, reduced, dm, lam = _lll_reduce(gram)
    return u, (_matmul(u, basis), reduced, dm, lam)


def carried_short_vectors(g: Sequence[Sequence[int]], bound: int, basis: Optional[List[List[int]]] = None
                          ) -> Tuple[List[Tuple[int, ...]], List[List[int]]]:
    """One of each pair +-x of nonzero integer vectors with x^T g x <= bound, and a reduced basis of g.

    g is a positive definite integer form and ``basis`` (rows; the unit
    basis when None) the basis its LLL starts from: ``_reduce`` takes
    B g B^T to a reduced basis, ``_enumerate`` lists the ellipsoid's pairs
    in that basis, and ``_map_back`` returns them in original coordinates.
    The start basis changes neither the set of pairs nor its count, only
    the work.
    """
    g = [[int(v) for v in row] for row in g]
    if basis is None:
        basis, gram = _identity(len(g)), g
    else:
        gram = _matmul(_matmul(basis, g), [list(col) for col in zip(*basis)])
    _, (reduced_basis, _, dm, lam) = _reduce(basis, gram)
    return [_map_back(x, reduced_basis) for _, x in _enumerate(dm, lam, int(bound))], reduced_basis


class _Form:
    """G_n in the walk's carried basis B, with what the exact tests need, each computed once, on first use.

    ``gram`` = B G_n B^T for the rows of ``basis`` (original coordinates)
    and ``least`` its smallest diagonal entry.  ``reduction`` is ``_reduce``
    of gram, the warm LLL from B (U and the reduced basis, Gram matrix and
    Gram-Schmidt data), ``reduced_least`` the reduced Gram matrix's smallest
    diagonal entry and ``minimum`` (min S_n, a minimiser) from it.
    """

    def __init__(self, basis: List[List[int]], gram: List[List[int]]):
        self.basis, self.gram = basis, gram
        self.least = min(gram[i][i] for i in range(len(gram)))

    @cached_property
    def reduction(self) -> Tuple[List[List[int]], _Reduction]:
        return _reduce(self.basis, self.gram)

    @cached_property
    def reduced_least(self) -> int:
        reduced = self.reduction[1][1]
        return min(reduced[i][i] for i in range(len(reduced)))

    @cached_property
    def minimum(self) -> Tuple[int, Tuple[int, ...]]:
        return _reduced_minimum(*self.reduction[1])

    def exceeds(self, bound: int) -> bool:
        """True exactly when min S_n > bound, an integer; cheapest step first.

        Each of ``least``, ``reduced_least`` and min S_n is a value of the
        form, so one at or below bound answers False:

        1. a carried diagonal entry answers without any LLL at this n;
        2. otherwise the warm reduction runs, once for this n;
        3. otherwise min S_n is enumerated, once for this n, and every later
           bound at this n compares with it.  LLL's shortest diagonal entry
           is not always the minimum, so this step cannot be skipped.
        """
        return bound < self.least and bound < self.reduced_least and bound < self.minimum[0]


def _walk(automorphism: ToralAutomorphism) -> Iterator[_Form]:
    """Yield the ``_Form`` of G_n for n = 1, 2, ...

    Each form is G_n in the basis of the last form reduced before the walk
    moved on (the unit basis until one is), so a walk that never reduces
    yields G_n itself.
    """
    step = [list(row) for row in automorphism.matrix]
    basis, image = _identity(len(step)), step  # image = B P^T, P = A_*^n and P^T = A^n
    gram = [[0] * len(step) for _ in step]
    while True:
        gram = [[gij + _dot(u, v) for gij, v in zip(row, image)] for row, u in zip(gram, image)]
        form = _Form(basis, gram)
        yield form
        if "reduction" in vars(form):  # reduced at this n: carry its basis and Gram matrix
            u, (basis, gram, _, _) = form.reduction
            image = _matmul(u, image)
        image = _matmul(image, step)


def pulse_energy_form(automorphism: ToralAutomorphism, n: int) -> List[List[int]]:
    """Integer Gram matrix G_n with k^T G_n k = sum_{j=1..n} |A_*^j k|^2."""
    d = automorphism.dimension
    g = [[0] * d for _ in range(d)]
    for form in islice(_walk(automorphism), n):
        g = form.gram
    return g


def min_energies(automorphism: ToralAutomorphism) -> Iterator[Tuple[int, Tuple[int, ...]]]:
    """Yield (min_{k != 0} S_n(k), minimiser) for n = 1, 2, ...

    The walk reduces at every n, each LLL starting from the reduced basis
    of G_{n-1}: the forms differ by one positive term, so the old basis is
    nearly reduced and few swaps remain.
    """
    return (form.minimum for form in _walk(automorphism))


# the step horizon of both routes: a tau_d past it raises RuntimeError
N_MAX = 10_000


def _first_passages(exceeds: Iterator[Callable[[int], bool]], bounds: Sequence[int], n_max: int) -> List[int]:
    """tau_d for each integer bound floor(1/(nu * scale)) from one stream of tests, n = 1, 2, ...

    The n-th item of ``exceeds`` answers, exactly, whether min S_n > bound.
    min S_n grows strictly with n, so bounds are passed in increasing order
    and each n is asked only about the bounds not yet passed.
    """
    order = sorted(range(len(bounds)), key=bounds.__getitem__)
    taus = [0] * len(bounds)
    passed = 0
    for n, exceeds_n in enumerate(exceeds, start=1):
        while passed < len(order) and exceeds_n(bounds[order[passed]]):
            taus[order[passed]] = n
            passed += 1
        if passed == len(order):
            return taus
        if n >= n_max:
            raise RuntimeError(f"tau_d exceeds n_max = {n_max}; nu too small for this horizon")


def _bounds(nus: Sequence[float], convention: SpectralConvention) -> List[int]:
    """floor(1/(nu * scale)) per nu, an exact int: min S_n > 1/(nu * scale) exactly when min S_n exceeds it.

    A nu that is not finite and positive, or whose 1/(nu * scale) overflows
    float64, is refused.
    """
    bad = [nu for nu in nus if not 0 < nu < math.inf]
    if bad:
        raise ValueError(f"nu must be finite and positive, got nu = {bad[0]}")
    thresholds = [1.0 / (float(nu) * convention.scale_factor) for nu in nus]
    if math.inf in thresholds:  # never passed: the walk would run to N_MAX
        raise ValueError(f"nu = {nus[thresholds.index(math.inf)]} is too small: 1/(nu * scale) overflows float64")
    return [math.floor(t) for t in thresholds]


def _tau_d_grid(automorphism: ToralAutomorphism, nus: Sequence[float], method: str,
                convention: Optional[SpectralConvention]) -> List[int]:
    """tau_d over a nu grid from one walk of the route's stream of min S_n > bound tests."""
    if convention is None:
        convention = SpectralConvention(automorphism.dimension, "lattice")
    bounds = _bounds(nus, convention)
    if method == "exact":
        if not automorphism.conditions().c1_no_root_of_unity:
            raise ValueError("tau_d_exact requires condition C1 (no root-of-unity eigenvalue)")
        exceeds = (form.exceeds for form in _walk(automorphism))
    elif method == "operator":
        radius = math.isqrt(max(bounds, default=0)) + 1
        exceeds = _orbit_tests(TruncatedKoopman.from_automorphism(automorphism, radius))
    else:
        raise ValueError(f"unknown method {method!r}")
    return _first_passages(exceeds, bounds, N_MAX)


def tau_d_exact(
    automorphism: ToralAutomorphism,
    nu: float,
    convention: Optional[SpectralConvention] = None,
) -> int:
    """Dissipation time of the pulsed toral system, exact lattice route.

    Requires condition C1 (otherwise some mode orbit is periodic and the
    n-step norm never drops below the trivial heat bound horizon).  The
    threshold is strict: min S_n exactly equal to 1/nu does not qualify.
    """
    return _tau_d_grid(automorphism, [nu], "exact", convention)[0]


def operator_norm_energies(automorphism: ToralAutomorphism, nu: float, n_max: int) -> np.ndarray:
    """Worst-case energy series ||(e^{nu Lap} U)^n||^2 = exp(-2 nu min S_n), lattice scale."""
    out = np.empty(n_max + 1)
    out[0] = 1.0
    for n, (min_s, _) in enumerate(islice(min_energies(automorphism), n_max), start=1):
        out[n] = math.exp(-2.0 * nu * min_s)
    return out


# ---------------------------------------------------------------------------
# operator-norm route
# ---------------------------------------------------------------------------

def _orbit_minima(koopman: TruncatedKoopman) -> Iterator[float]:
    """Yield min S_n = sum_j |k_j|^2 (exact int64) over orbits k_1, ..., k_n in the ball.

    Orbits are indexed by their first mode k_1 = A^T m, so start modes m
    outside the ball are covered; an orbit leaving the ball is dropped.

    This gives the truncated operator's norms exactly.  With
    D = diag(exp(-nu lambda_k)) on the ball and the induced partial
    permutation P, every column of (D P)^{n-1} D is one damped orbit
    k_1, ..., k_n inside the ball, and distinct columns land on distinct
    modes, so sigma_n = ||(D P)^{n-1} D|| = exp(-nu * scale * min S_n).
    """
    energy = np.sum(koopman.modes * koopman.modes, axis=1)
    sums, images = energy, koopman.permutation  # images: where each orbit goes next
    while sums.size:
        yield int(np.min(sums))
        alive = images >= 0
        ends = images[alive]
        sums = sums[alive] + energy[ends]
        images = koopman.permutation[ends]
    while True:
        yield math.inf


def _orbit_tests(koopman: TruncatedKoopman) -> Iterator[Callable[[int], bool]]:
    """``_orbit_minima`` as first-passage tests of integer bounds (inf, once no orbit is left, exceeds them all)."""
    return (lambda bound, m=m: m > bound for m in _orbit_minima(koopman))


def tau_d_operator(automorphism: ToralAutomorphism, nu: float,
                   convention: Optional[SpectralConvention] = None) -> int:
    """Operator-route dissipation time: first n with min S_n > 1/(nu * scale).

    The orbit walk over the certified threshold ball; by ``_orbit_minima``
    that is the first n with sigma_n < 1/e, decided in exact integers, so
    ties agree with the exact route.
    """
    return _tau_d_grid(automorphism, [nu], "operator", convention)[0]


tau_d_operator_catmap = tau_d_operator  # the old name, while perfbench/tracer.py wraps it


# ---------------------------------------------------------------------------
# decay fits and the lower-bound chain
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DecayFit:
    """Fit of ln(-ln(||theta_n||^2 / ||theta_0||^2)) against n.

    Slope = ln(gamma_hat); model is "double_exponential" when the double-log
    series is closer to linear in n than in ln n, else "single_exponential".
    """

    gamma_hat: float
    c_hat: float
    window: Tuple[int, int]
    residual: float
    model: str
    r_squared: float


def fit_energy_decay(energies_or_traj, window: Tuple[int, int]) -> DecayFit:
    """Fit a double-exponential decay law to an energy series over steps lo..hi of ``window``.

    Usable steps have energy ratio within (1e-300, 1); ratios arbitrarily
    close to 1 stay usable because energies are accumulated in log space.
    """
    if isinstance(energies_or_traj, Trajectory):
        log_ratio = energies_or_traj.log_energies - energies_or_traj.log_energies[0]
    else:
        energies = np.asarray(energies_or_traj, dtype=float)
        with np.errstate(divide="ignore"):
            log_ratio = np.log(energies / energies[0])
    n_all = np.arange(log_ratio.size)
    lo, hi = window
    usable = (log_ratio > -690.0) & (log_ratio < 0.0) & (n_all >= lo) & (n_all <= hi)  # ratio in (1e-300, 1)
    idx = np.nonzero(usable)[0]
    if idx.size < 6:
        raise ValueError(
            f"only {idx.size} usable steps (need >= 6); increase nu, take more "
            "steps, or widen the window"
        )
    y = np.log(-log_ratio[idx])
    fit_n = line_fit(idx.astype(float), y)
    fit_logn = line_fit(np.log(idx.astype(float)), y)
    if fit_n.residual <= fit_logn.residual:
        model = "double_exponential"
        best = fit_n
    else:
        model = "single_exponential"
        best = fit_logn
    return DecayFit(
        gamma_hat=math.exp(fit_n.slope),
        c_hat=math.exp(fit_n.intercept),  # -ln(ratio_n) ~ c_hat * gamma_hat^n
        window=(int(idx[0]), int(idx[-1])),
        residual=best.residual,
        model=model,
        r_squared=best.r_squared,
    )


def check_lower_bound_chain(traj: Trajectory) -> dict:
    """Per-step inequalities behind the double-exponential lower bound.

    With r_n = ||theta_n||_1^2 / ||theta_n||^2 and Lip the spectral norm of A:

      (i)  ln||theta_{n+1}||^2 - ln||theta_n||^2 >= -2 nu Lip^2 r_n
      (ii) r_{n+1} <= Lip^2 r_n
      (sum) ||theta_n||^2 >= ||theta_0||^2 exp(-C nu r_0 gamma^n)
            with gamma = Lip^2 and C = 2 gamma / (gamma - 1), the constant
            the geometric sum of (i) and (ii) actually yields.

    A and nu are the trajectory's own.  The slack of 1e-9 is relative:
    for modes aligned with the expanding direction both (i) and (ii) become
    asymptotically tight, with margins far below the slack but provably
    positive.  All quantities come from the trajectory's per-step
    normalized frame so their relative error is at machine level even when
    the absolute log scales reach 1e10.

    Returns ok flag plus the first violating step, if any.
    """
    slack = 1e-9
    nu = traj.system.nu
    lip_sq = traj.system.automorphism.lipschitz ** 2
    log_r = traj.log_r
    n_steps = traj.n_steps
    for n in range(n_steps):
        rhs = -2.0 * nu * lip_sq * math.exp(log_r[n])
        if traj.dln[n] < rhs + slack * rhs - slack:
            return {"ok": False, "step": n, "which": "log-energy increment"}
        if log_r[n + 1] > log_r[n] + math.log(lip_sq) + slack:
            return {"ok": False, "step": n, "which": "H1 ratio growth"}
    if lip_sq > 1.0:
        c_sum = 2.0 * lip_sq / (lip_sq - 1.0)
        r0 = math.exp(log_r[0])
        cum = 0.0
        for n in range(n_steps + 1):
            lower = -c_sum * nu * r0 * lip_sq**n
            if cum < lower + slack * lower - slack:
                return {"ok": False, "step": n, "which": "summed double-exponential bound"}
            if n < n_steps:
                cum += traj.dln[n]
    return {"ok": True, "step": None, "which": None}


# ---------------------------------------------------------------------------
# sweeps and reports
# ---------------------------------------------------------------------------

@dataclass
class DissipationReport:
    """tau_d over a nu sweep with the fitted tau_d ~ slope*|ln nu| law."""

    entries: List[dict] = field(default_factory=list)  # {nu, tau_d, method}
    fit: Optional[LineFit] = None
    bound_checks: List[dict] = field(default_factory=list)

    @property
    def nus(self) -> np.ndarray:
        return np.array([e["nu"] for e in self.entries])

    @property
    def taus(self) -> np.ndarray:
        return np.array([e["tau_d"] for e in self.entries])

    def validate_trivial_bound(self, lambda_1: float) -> bool:
        """tau_d <= 1/(nu lambda_1) + 1 at every measured point."""
        return bool(np.all(self.taus <= 1.0 / (self.nus * lambda_1) + 1.0))

    def to_json_dict(self) -> dict:
        out = {"entries": self.entries, "bound_checks": self.bound_checks}
        if self.fit is not None:
            out["fit"] = {
                "model": "tau_d ~ slope*|ln nu| + intercept",
                "slope": self.fit.slope,
                "intercept": self.fit.intercept,
                "r_squared": self.fit.r_squared,
            }
        return out


def dissipation_sweep(
    automorphism: ToralAutomorphism,
    nus: Sequence[float],
    method: str = "exact",
    convention: Optional[SpectralConvention] = None,
) -> DissipationReport:
    """Measure tau_d over a nu grid and fit tau_d against |ln nu|.

    Either route serves the whole grid from one walk over n; the operator
    route builds one mode ball, for the grid's smallest nu.
    """
    taus = _tau_d_grid(automorphism, nus, method, convention)
    report = DissipationReport([{"nu": float(nu), "tau_d": int(tau), "method": method} for nu, tau in zip(nus, taus)])
    if len(report.entries) >= 2:
        report.fit = line_fit(np.abs(np.log(report.nus)), report.taus.astype(float))
    return report
