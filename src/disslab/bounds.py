"""Implicit bound functions H1..H4 and the dissipation-time bound checks.

Each H is the sup of an explicit feasible set of Laplacian eigenvalues
lambda coupling the mixing rate h to the diffusivity:

  H1(mu) = sup { l : h(1/(2 sqrt(l mu)))          <= l^{-(a+b)/2} / 2 }
  H2(mu) = sup { l : h(1/(2 sqrt(l mu)))          <= l^{-(2a+2b+d)/4} / (2 sqrt(ct)) }
  H3(mu) = sup { l : l exp(4 G t(l)) / t(l)       <= G^2 / (2 mu) },
           t(l) = hinv(l^{-(a+b)/2} / 2)
  H4(mu) =      as H3 with t(l) = hinv(l^{-(2a+2b+d)/4} / (2 sqrt(ct)))

with G = |grad u|_inf and ct the Weyl constant (checked against the exact
lattice count, a sum of shell counts r_d(s)).  The discrete bound is
tau_d <= 34 / (mu H1or2(mu)); the continuous bound is 18 / (mu H3or4(mu)).
Feasibility is monotone towards small lambda in the asymptotic regime, so
the sup is located by a geometric bracket plus bisection.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .dissipation import DissipationReport
from .fields import shell_counts
from .mixing import RateFunction

DISCRETE_CONSTANT = 34.0
CONTINUOUS_CONSTANT = 18.0


# ---------------------------------------------------------------------------
# Weyl eigenvalue-counting constant
# ---------------------------------------------------------------------------

def weyl_constant(d: int, vol: float = 1.0, eps: float = 0.0, scaling: str = "geometric") -> float:
    """Prefactor ct in the eigenvalue count N(lambda) ~ ct * lambda^{d/2}.

    geometric: ct = (1+eps) vol / ((4 pi)^{d/2} Gamma(d/2 + 1)); with the
    bare-lattice eigenvalues |k|^2 the count of modes is the ball volume,
    ct = (1+eps) pi^{d/2} / Gamma(d/2 + 1).
    """
    if d < 1 or not 0 < vol < math.inf:
        raise ValueError(f"need d >= 1 and a finite vol > 0, got d = {d}, vol = {vol}")
    if not 0 <= eps <= 1:
        raise ValueError("eps must lie in [0, 1]")
    gamma = math.gamma(d / 2.0 + 1.0)
    if scaling == "geometric":
        return (1.0 + eps) * vol / ((4.0 * math.pi) ** (d / 2.0) * gamma)
    if scaling == "lattice":
        return (1.0 + eps) * math.pi ** (d / 2.0) / gamma
    raise ValueError(f"unknown scaling {scaling!r}")


def lattice_count(d: int, lam_max: float) -> int:
    """Number of nonzero modes with |k|^2 <= lam_max (direct lattice count).

    |k|^2 is an integer, so this is the sum of the exact shell counts
    r_d(s) over 0 < s <= floor(lam_max); no mode rows are built.
    """
    return int(np.sum(shell_counts(d, math.floor(lam_max))[1:]))


# ---------------------------------------------------------------------------
# bound profiles and H evaluation
# ---------------------------------------------------------------------------

@dataclass
class BoundProfile:
    """One of the four implicit bounds, ready to evaluate on a nu grid."""

    which: str  # "H1" | "H2" | "H3" | "H4"
    rate: RateFunction
    dimension: int = 2
    grad_u_norm: Optional[float] = None  # continuous bounds only
    weyl_c: Optional[float] = None  # weak bounds only
    lambda_1: float = 1.0

    def __post_init__(self):
        if self.which not in ("H1", "H2", "H3", "H4"):
            raise ValueError(f"unknown bound {self.which!r}")
        # None, nan and inf all fail 0 < x < inf
        if self.which in ("H3", "H4") and not 0 < (self.grad_u_norm or 0) < math.inf:
            raise ValueError(f"{self.which} needs a finite grad_u_norm > 0, got {self.grad_u_norm}")
        if self.which in ("H2", "H4") and not 0 < (self.weyl_c or 0) < math.inf:
            raise ValueError(f"{self.which} needs a finite Weyl constant weyl_c > 0, got {self.weyl_c}")

    @property
    def universal_constant(self) -> float:
        return DISCRETE_CONSTANT if self.which in ("H1", "H2") else CONTINUOUS_CONSTANT

    def evaluate_grid(self, nus: Sequence[float]) -> List[dict]:
        """One {nu, H, bound, degenerate} record per nu."""
        c = self.universal_constant
        evaluated = []
        for nu in map(float, nus):
            h_val, degenerate = eval_H(self, nu)
            evaluated.append({"nu": nu, "H": h_val, "bound": c / (nu * h_val), "degenerate": degenerate})
        return evaluated


def _feasible(profile: BoundProfile, nu: float, lam: float) -> bool:
    h = profile.rate
    a, b, d = h.alpha, h.beta, profile.dimension
    if profile.which in ("H1", "H3"):  # strong rates
        level = 0.5 * lam ** (-(a + b) / 2.0)
    else:  # weak rates, through the Weyl constant
        level = lam ** (-(2 * a + 2 * b + d) / 4.0) / (2.0 * math.sqrt(profile.weyl_c))
    if profile.which in ("H1", "H2"):  # discrete time
        return h(1.0 / (2.0 * math.sqrt(lam * nu))) <= level
    grad = profile.grad_u_norm
    t = h.inverse(level)
    if t <= 0:
        return False  # rate already below threshold at time 0: no mixing window
    exponent = 4.0 * grad * t
    if exponent > 700.0:  # certainly beyond the right-hand side
        return False
    return lam * math.exp(exponent) / t <= grad * grad / (2.0 * nu)


def eval_H(profile: BoundProfile, nu: float) -> Tuple[float, bool]:
    """Sup of the feasible eigenvalue set, by bracket expansion + bisection to relative width 1e-9.

    Feasibility holds on an interval of lambda and fails beyond it (the
    left side grows with lambda, the right side shrinks).  Returns
    (lambda_1, True) when no feasible lambda >= lambda_1 exists, i.e. the
    bound degenerates to the trivial heat bound.
    """
    if not 0 < nu < math.inf:
        raise ValueError(f"nu must be finite and positive, got {nu}")
    lam1 = profile.lambda_1
    # geometric scan upward to find some feasible point and the first
    # infeasible point beyond it
    lam = lam1
    last_feasible = None
    first_infeasible = None
    for _ in range(400):
        if _feasible(profile, nu, lam):
            last_feasible = lam
        elif last_feasible is not None:
            first_infeasible = lam
            break
        lam *= 1.6
        if lam > 1e300:
            break
    if last_feasible is None:
        return lam1, True
    if first_infeasible is None:
        raise RuntimeError("feasible set appears unbounded; rate function is not decreasing")
    lo, hi = last_feasible, first_infeasible
    while (hi - lo) > 1e-9 * hi:
        mid = 0.5 * (lo + hi)
        if _feasible(profile, nu, mid):
            lo = mid
        else:
            hi = mid
    return lo, False


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------

def h1_power_closed_form(c: float, p: float, alpha: float, beta: float, nu: float) -> float:
    """Exact sup of the H1 set for the power law h(t) = c t^{-p}.

    Feasibility c (2 sqrt(l nu))^p <= l^{-(a+b)/2} / 2 solves to
    l = (4^{-(p+1)} / (c^2 nu^p))^{1/(a+b+p)}.  (Solving the printed
    corollary constant 4^{p-1} does not satisfy the definition; the
    derivation here is verified against bisection to 1e-6.)
    """
    return (4.0 ** (-(p + 1.0)) / (c * c * nu**p)) ** (1.0 / (alpha + beta + p))


def h2_power_closed_form(
    c: float, p: float, alpha: float, beta: float, d: int, weyl_c: float, nu: float
) -> float:
    """Exact sup of the H2 set for the power law."""
    # c (2 sqrt(l nu))^p = l^{-(2a+2b+d)/4} / (2 sqrt(ct))
    expo = p / 2.0 + (2 * alpha + 2 * beta + d) / 4.0
    rhs = 1.0 / (2.0 * math.sqrt(weyl_c) * c * 2.0**p * nu ** (p / 2.0))
    return rhs ** (1.0 / expo)


def h1_exponential_relation_defect(
    c1: float, c2: float, alpha: float, beta: float, nu: float, h1_value: float
) -> float:
    """Relative defect of the implicit H1 relation for h(t) = c1 exp(-c2 t).

    The sup of the H1 set satisfies exactly
    H1 = (c2^2 / 4 nu) (ln 2 + ln c1 + (a+b)/2 ln H1)^{-2}; the returned
    defect should be at roundoff for the bisection value.
    """
    s = (alpha + beta) / 2.0
    rhs = (c2 * c2 / (4.0 * nu)) / (math.log(2.0) + math.log(c1) + s * math.log(h1_value)) ** 2
    return abs(h1_value - rhs) / rhs


def h1_exponential_fixed_point(
    c1: float, c2: float, alpha: float, beta: float, nu: float, refine: int = 0
) -> float:
    """Closed-form iterates for H1 with the exponential law.

    Seeds the logarithm with the crude bound ln(c2^2 / 4 nu) (an upper
    bound on ln H1 for small nu, so iterate 0 sits below the sup); each
    refinement feeds the previous value back into the logarithm.  The
    iterates alternate around the sup and converge to it; one refinement
    already tightens the unrefined bound.
    """
    s = (alpha + beta) / 2.0
    log_arg = math.log(max(c2 * c2 / (4.0 * nu), 2.0))
    est = (c2 * c2 / (4.0 * nu)) / (math.log(2.0) + math.log(c1) + s * log_arg) ** 2
    for _ in range(refine):
        log_arg = math.log(max(est, 2.0))
        est = (c2 * c2 / (4.0 * nu)) / (math.log(2.0) + math.log(c1) + s * log_arg) ** 2
    return est


def corollary_exponents(case: str, **kw) -> float:
    """Closed-form exponents of the dissipation-time corollaries.

    discrete_strong_power:   tau_d <= C nu^{-delta},       delta = (a+b)/(a+b+p)
    discrete_weak_power:     tau_d <= C nu^{-delta},       delta = (d+2a+2b)/(d+2p+2a+2b), p in (0, 1/2]
    cts_strong_power:        tau_d <= C/(nu |ln nu|^delta), delta = 2p/(a+b)
    cts_strong_exponential:  tau_d <= C nu^{-delta},       delta = 2(a+b)L/(c2 + 2(a+b)L)
    cts_weak_power:          tau_d <= C/(nu |ln nu|^delta), delta = 4p/(d+2a+2b)
    eigenvalue_floor_exponential: mu_0/nu >= nu^{-gamma}/C, gamma = c2/(c2 + 2(a+b)L)
    """
    a, b = kw.get("alpha"), kw.get("beta")
    if case == "discrete_strong_power":
        p = kw["p"]
        return (a + b) / (a + b + p)
    if case == "discrete_weak_power":
        p, d = kw["p"], kw["d"]
        if not 0 < p <= 0.5:
            raise ValueError(
                "weak power corollary needs p in (0, 1/2]: a weak rate can "
                "never decay faster than 1/sqrt(n) (take f = g in the Cesaro average)"
            )
        return (d + 2 * a + 2 * b) / (d + 2 * p + 2 * a + 2 * b)
    if case == "cts_strong_power":
        p = kw["p"]
        return 2.0 * p / (a + b)
    if case == "cts_strong_exponential":
        c2, grad = kw["c2"], kw["grad_u_norm"]
        return 2.0 * (a + b) * grad / (c2 + 2.0 * (a + b) * grad)
    if case == "cts_weak_power":
        p, d = kw["p"], kw["d"]
        return 4.0 * p / (d + 2 * a + 2 * b)
    if case == "eigenvalue_floor_exponential":
        c2, grad = kw["c2"], kw["grad_u_norm"]
        return c2 / (c2 + 2.0 * (a + b) * grad)
    raise ValueError(f"unknown corollary case {case!r}")


# ---------------------------------------------------------------------------
# bound verdicts
# ---------------------------------------------------------------------------

def check_bound(report: DissipationReport, profile: BoundProfile) -> List[dict]:
    """Verdict tau_d <= C/(nu H(nu)) at every measured sweep point."""
    verdicts = []
    for entry, evaluated in zip(report.entries, profile.evaluate_grid(report.nus)):
        tau, bound = entry["tau_d"], evaluated["bound"]
        verdicts.append(
            {
                "nu": evaluated["nu"],
                "tau_d": tau,
                "H": evaluated["H"],
                "bound": bound,
                "satisfied": bool(tau <= bound),
                "margin": bound - tau,
                "degenerate": evaluated["degenerate"],
                "theorem": "discrete strong bound C=34" if profile.which == "H1" else profile.which,
            }
        )
    report.bound_checks = verdicts
    return verdicts


def eigenvalue_floor(tau_d: float) -> float:
    """Certified lower bound 1/tau_d on the principal eigenvalue mu_0(nu, u).

    Evolving the principal Dirichlet eigenfunction gives a pure exponential
    decay exp(-mu_0 t), which cannot beat the dissipation time: report only.
    """
    if tau_d <= 0:
        raise ValueError("tau_d must be positive")
    return 1.0 / tau_d
