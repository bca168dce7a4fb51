"""Dissipation times of pulsed diffusions, exact and operator-norm routes.

Exact route (toral automorphisms): after relabeling, the n-step operator is
diagonal with weights exp(-nu * S_n(k)), S_n(k) = sum_{j=1..n} |A_*^j k|^2,
so its norm is exp(-nu * min_k S_n(k)) and

    tau_d = min { n : min_{k != 0} S_n(k) > 1/nu }.

S_n is an exact integer quadratic form G_n = sum_j (A_*^j)^T A_*^j, and the
lattice minimum is certified by branch-and-bound enumeration of the form
(Fincke-Pohst over an exactly reduced basis; any partial assignment whose
quadratic partial sum exceeds the incumbent is pruned, which also bounds
the search radius through the smallest reduced diagonal entry).

Operator route (any truncated Koopman operator): smallest n with the norm
of the n-step truncated operator below 1/e, computed exactly: by a walk
over the orbits of an induced permutation (brute force over the mode
ball), or as the norm of a dense matrix power.  The two routes are
independent and are cross-checked against each other in the test suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .fields import SpectralConvention
from .fitting import LineFit, line_fit
from .pulsed import Trajectory, TruncatedKoopman, TruncationLeakError, koopman_ball_radius
from .toral import ToralAutomorphism

LEAK_THRESHOLD = 1e-8
_E_INV = 1.0 / math.e


# ---------------------------------------------------------------------------
# exact integer quadratic-form minimisation
# ---------------------------------------------------------------------------

def _gauss_reduce_2d(g: List[List[int]]) -> Tuple[int, Tuple[int, int]]:
    """Lagrange-Gauss reduction of a 2x2 positive definite integer form.

    Exact integer arithmetic throughout; returns (min value, minimizer).
    The entries of G_n grow like lambda_+^{2n} and overflow float64's
    53-bit mantissa long before the runs end, so floats are not an option.
    """
    # basis vectors in original coordinates
    u, v = [1, 0], [0, 1]

    def q(w):
        return g[0][0] * w[0] * w[0] + 2 * g[0][1] * w[0] * w[1] + g[1][1] * w[1] * w[1]

    def b(w, z):
        return g[0][0] * w[0] * z[0] + g[0][1] * (w[0] * z[1] + w[1] * z[0]) + g[1][1] * w[1] * z[1]

    if q(u) > q(v):
        u, v = v, u
    while True:
        # nearest integer to b(u,v)/q(u), exact
        num, den = b(u, v), q(u)
        m = (2 * num + den) // (2 * den) if num >= 0 else -((-2 * num + den) // (2 * den))
        v = [v[0] - m * u[0], v[1] - m * u[1]]
        if q(v) < q(u):
            u, v = v, u
        else:
            break
    return q(u), (u[0], u[1])


def _lll_reduce(g: List[List[int]]) -> List[List[int]]:
    """Unimodular transform columns U with U^T G U balanced (exact rational LLL).

    Needed for d >= 3 where the form's condition number exceeds float range;
    the Gram updates stay exact over Q.
    """
    d = len(g)
    u = [[1 if i == j else 0 for j in range(d)] for i in range(d)]

    def gram(i, j):
        return sum(u[a][i] * g[a][b] * u[b][j] for a in range(d) for b in range(d))

    def size_reduce():
        # Gram-Schmidt over Fraction
        gs = [[Fraction(gram(i, j)) for j in range(d)] for i in range(d)]
        mu = [[Fraction(0)] * d for _ in range(d)]
        bstar = [Fraction(0)] * d
        for i in range(d):
            bstar[i] = gs[i][i]
            for k in range(i):
                if bstar[k] == 0:
                    continue
                mu[i][k] = Fraction(gs[i][k]) - sum(mu[i][l] * mu[k][l] * bstar[l] for l in range(k))
                mu[i][k] /= bstar[k]
                bstar[i] -= mu[i][k] ** 2 * bstar[k]
        return mu, bstar

    changed = True
    guard = 0
    while changed and guard < 200:
        guard += 1
        changed = False
        mu, bstar = size_reduce()
        for i in range(1, d):
            for k in range(i - 1, -1, -1):
                r = round(mu[i][k])
                if r != 0:
                    for a in range(d):
                        u[a][i] -= r * u[a][k]
                    mu, bstar = size_reduce()
        for i in range(d - 1):
            if bstar[i + 1] < (Fraction(3, 4) - mu[i + 1][i] ** 2) * bstar[i]:
                for a in range(d):
                    u[a][i], u[a][i + 1] = u[a][i + 1], u[a][i]
                changed = True
                break
    return u


def integer_form_minimum(g: Sequence[Sequence[int]]) -> Tuple[int, Tuple[int, ...]]:
    """Exact minimum of k^T G k over nonzero integer vectors, G pos. definite.

    d = 2 uses exact Gauss reduction.  d = 3, 4 reduce exactly, then run a
    Fincke-Pohst branch-and-bound on the reduced form: candidates are
    enumerated inside the ellipsoid of the incumbent value and every
    candidate is re-evaluated in exact integer arithmetic.
    """
    gi = [[int(v) for v in row] for row in g]
    d = len(gi)
    if d == 2:
        return _gauss_reduce_2d(gi)

    u = _lll_reduce(gi)
    gr = [[sum(u[a][i] * gi[a][b] * u[b][j] for a in range(d) for b in range(d)) for j in range(d)] for i in range(d)]

    def to_original(vec):
        return tuple(sum(u[a][i] * vec[i] for i in range(d)) for a in range(d))

    def q_exact(vec):
        return sum(gr[i][j] * vec[i] * vec[j] for i in range(d) for j in range(d))

    incumbent = min(
        (q_exact(e), tuple(e))
        for e in ([1 if i == j else 0 for j in range(d)] for i in range(d))
    )
    best_val, best_vec = incumbent

    gf = np.array([[float(v) for v in row] for row in gr])
    try:
        chol = np.linalg.cholesky(gf)
    except np.linalg.LinAlgError as exc:  # reduced form must stay PD
        raise ValueError("form is not positive definite") from exc
    # q(x) = sum_i r_ii^2 (x_i + sum_{j>i} mu_ij x_j)^2 with R = chol^T
    r = chol.T
    mu = r / np.diag(r)[:, None]
    diag = np.diag(r) ** 2

    bound = float(best_val) * (1.0 + 1e-9)
    x = [0] * d

    def recurse(level: int, partial: float):
        nonlocal best_val, best_vec, bound
        center = -sum(mu[level][j] * x[j] for j in range(level + 1, d))
        radius = math.sqrt(max(bound - partial, 0.0) / diag[level])
        lo = math.ceil(center - radius - 1e-12)
        hi = math.floor(center + radius + 1e-12)
        for xi in range(lo, hi + 1):
            x[level] = xi
            term = diag[level] * (xi - center) ** 2
            if partial + term > bound:
                continue
            if level == 0:
                if all(v == 0 for v in x):
                    continue
                val = q_exact(x)
                if 0 < val < best_val:
                    best_val, best_vec = val, tuple(x)
                    bound = float(best_val) * (1.0 + 1e-9)
            else:
                recurse(level - 1, partial + term)
        x[level] = 0

    recurse(d - 1, 0.0)
    return best_val, to_original(best_vec)


def pulse_energy_form(automorphism: ToralAutomorphism, n: int) -> List[List[int]]:
    """Integer Gram matrix G_n with k^T G_n k = sum_{j=1..n} |A_*^j k|^2."""
    d = automorphism.dimension
    at = [list(row) for row in automorphism.transpose]
    acc = [[1 if i == j else 0 for j in range(d)] for i in range(d)]
    g = [[0] * d for _ in range(d)]
    for _ in range(n):
        acc = [[sum(at[i][l] * acc[l][j] for l in range(d)) for j in range(d)] for i in range(d)]
        for i in range(d):
            for j in range(d):
                g[i][j] += sum(acc[l][i] * acc[l][j] for l in range(d))
    return g


def min_cumulative_energy(automorphism: ToralAutomorphism, n: int) -> Tuple[int, Tuple[int, ...]]:
    """min_{k != 0} S_n(k) with a certified integer minimiser."""
    return integer_form_minimum(pulse_energy_form(automorphism, n))


def tau_d_exact(
    automorphism: ToralAutomorphism,
    nu: float,
    convention: Optional[SpectralConvention] = None,
    n_max: int = 10_000,
) -> int:
    """Dissipation time of the pulsed toral system, exact lattice route.

    Requires condition C1 (otherwise some mode orbit is periodic and the
    n-step norm never drops below the trivial heat bound horizon).  The
    threshold is strict: min S_n exactly equal to 1/nu does not qualify.
    """
    if nu <= 0:
        raise ValueError("nu must be positive")
    report = automorphism.conditions()
    if not report.c1_no_root_of_unity:
        raise ValueError("tau_d_exact requires condition C1 (no root-of-unity eigenvalue)")
    if convention is None:
        convention = SpectralConvention(automorphism.dimension, "lattice")
    scale = convention.scale_factor
    threshold = 1.0 / (nu * scale)  # compare against integer min S_n
    for n in range(1, n_max + 1):
        min_s, _ = min_cumulative_energy(automorphism, n)
        if min_s > threshold:
            return n
    raise RuntimeError(f"tau_d exceeds n_max = {n_max}; nu too small for this horizon")


def operator_norm_energies(
    automorphism: ToralAutomorphism,
    nu: float,
    n_max: int,
    convention: Optional[SpectralConvention] = None,
) -> np.ndarray:
    """Worst-case energy series ||(e^{nu Lap} U)^n||^2 = exp(-2 nu min S_n)."""
    if convention is None:
        convention = SpectralConvention(automorphism.dimension, "lattice")
    out = np.empty(n_max + 1)
    out[0] = 1.0
    for n in range(1, n_max + 1):
        min_s, _ = min_cumulative_energy(automorphism, n)
        out[n] = math.exp(-2.0 * nu * convention.scale_factor * min_s)
    return out


# ---------------------------------------------------------------------------
# operator-norm route
# ---------------------------------------------------------------------------

def operator_norms(koopman: TruncatedKoopman, nu: float, convention: SpectralConvention) -> Iterator[float]:
    """Yield the exact norms ||T^n||, n = 1, 2, ..., of T = diag(exp(-nu lambda_k)) K.

    For an induced permutation K every column of T^n is a single damped mode,
    and distinct columns land on distinct modes, so ||T^n|| is the largest
    damping product exp(-nu S_n) along an n-step orbit that stays inside the
    ball; one vectorised walk carries every orbit's exponent sum S_n.  The
    leak monitor aborts when a start mode whose orbit escapes keeps more
    than LEAK_THRESHOLD of its mass after damping.  A dense unitary K gives
    the norm of the matrix power directly.
    """
    lam = convention.scale_factor * np.sum(koopman.modes.astype(float) ** 2, axis=1)
    rate = nu * lam
    if koopman.matrix is not None:
        step = np.exp(-rate)[:, None] * koopman.matrix
        power = step
        while True:
            yield float(np.linalg.norm(power, 2))
            power = step @ power
    # escaped images land beyond the ball, so their damping is at most the
    # smallest damping inside it: that is the conservative leak weight
    edge_rate = float(np.max(rate))
    current = np.arange(koopman.size)
    exponent = np.zeros(koopman.size)
    while True:
        images = koopman.permutation[current]
        inside = images >= 0
        if not np.all(inside):
            leak = math.exp(-2.0 * (float(np.min(exponent[~inside])) + edge_rate))
            if leak > LEAK_THRESHOLD:
                raise TruncationLeakError(
                    f"damped escaping mass {leak:.3e} of input exceeds "
                    f"{LEAK_THRESHOLD:.0e}; increase the mode ball radius"
                )
        current = images[inside]
        exponent = exponent[inside] + rate[current]
        yield math.exp(-float(np.min(exponent))) if current.size else 0.0


def tau_d_operator(
    koopman: TruncatedKoopman,
    nu: float,
    convention: SpectralConvention,
    n_max: int = 100_000,
) -> int:
    """Dissipation time from the truncated operator: first n with ||T^n|| < 1/e."""
    if nu <= 0:
        raise ValueError("nu must be positive")
    for n, sigma in enumerate(operator_norms(koopman, nu, convention), start=1):
        if sigma < _E_INV:
            return n
        if n >= n_max:
            raise RuntimeError("dissipation time exceeds n_max")


def tau_d_operator_catmap(
    automorphism: ToralAutomorphism,
    nu: float,
    convention: Optional[SpectralConvention] = None,
    radius: Optional[int] = None,
) -> int:
    """Operator-route dissipation time for an automorphism's induced action."""
    if convention is None:
        convention = SpectralConvention(automorphism.dimension, "lattice")
    nu_lattice = nu * convention.scale_factor  # ball sizing is scale aware
    radius = radius or koopman_ball_radius(nu_lattice)
    koopman = TruncatedKoopman.from_automorphism(automorphism, radius)
    return tau_d_operator(koopman, nu, convention)


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


def fit_energy_decay(
    energies_or_traj,
    window: Optional[Tuple[int, int]] = None,
    skip_transient: int = 2,
    max_ratio: float = 0.99,
) -> DecayFit:
    """Fit a double-exponential decay law to an energy series.

    Without an explicit window, usable steps have energy ratio within
    (1e-300, max_ratio) and the first ``skip_transient`` steps are dropped.
    An explicit window bypasses the ratio ceiling (ratios arbitrarily close
    to 1 stay usable because energies are accumulated in log space).
    """
    if isinstance(energies_or_traj, Trajectory):
        log_ratio = energies_or_traj.log_energies - energies_or_traj.log_energies[0]
    else:
        energies = np.asarray(energies_or_traj, dtype=float)
        with np.errstate(divide="ignore"):
            log_ratio = np.log(energies / energies[0])
    n_all = np.arange(log_ratio.size)

    usable = (log_ratio > -690.0) & (log_ratio < 0.0)  # ratio in (1e-300, 1)
    if window is None:
        usable &= log_ratio < math.log(max_ratio)
        usable &= n_all >= max(1, skip_transient)
    else:
        lo, hi = window
        usable &= (n_all >= lo) & (n_all <= hi)
    idx = np.nonzero(usable)[0]
    if idx.size < 6:
        raise ValueError(
            f"only {idx.size} usable steps (need >= 6); increase nu, take more "
            "steps, or pass an explicit window"
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


def check_lower_bound_chain(
    traj: Trajectory,
    automorphism: ToralAutomorphism,
    nu: float,
    slack: float = 1e-9,
) -> dict:
    """Per-step inequalities behind the double-exponential lower bound.

    With r_n = ||theta_n||_1^2 / ||theta_n||^2 and Lip the spectral norm of A:

      (i)  ln||theta_{n+1}||^2 - ln||theta_n||^2 >= -2 nu Lip^2 r_n
      (ii) r_{n+1} <= Lip^2 r_n
      (sum) ||theta_n||^2 >= ||theta_0||^2 exp(-C nu r_0 gamma^n)
            with gamma = Lip^2 and C = 2 gamma / (gamma - 1), the constant
            the geometric sum of (i) and (ii) actually yields.

    The slack is relative: for modes aligned with the expanding direction
    both (i) and (ii) become asymptotically tight, with margins far below
    the slack but provably positive.  All quantities come from the
    trajectory's per-step normalized frame so their relative error is at
    machine level even when the absolute log scales reach 1e10.

    Returns ok flag plus the first violating step, if any.
    """
    lip_sq = automorphism.lipschitz ** 2
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
    """Measure tau_d over a nu grid and fit tau_d against |ln nu|."""
    if convention is None:
        convention = SpectralConvention(automorphism.dimension, "lattice")
    report = DissipationReport()
    for nu in nus:
        if method == "exact":
            tau = tau_d_exact(automorphism, nu, convention)
        elif method == "operator":
            tau = tau_d_operator_catmap(automorphism, nu, convention)
        else:
            raise ValueError(f"unknown method {method!r}")
        report.entries.append({"nu": float(nu), "tau_d": int(tau), "method": method})
    if len(report.entries) >= 2:
        report.fit = line_fit(np.abs(np.log(report.nus)), report.taus.astype(float))
    return report
