"""Measurements shared by ``disslab verify`` and the acceptance criteria.

Each returns the measured quantity; callers keep their own inputs and thresholds.
"""

from __future__ import annotations

import collections
import itertools
import math
from typing import Iterable, List, Sequence, Tuple

import numpy as np

from .bounds import BoundProfile, check_bound, eval_H, h1_power_closed_form
from .dissipation import DecayFit, DissipationReport, check_lower_bound_chain, fit_energy_decay, operator_norm_energies
from .fields import SpectralConvention, SpectralField
from .mixing import RateFunction, fit_rate, strong_envelope
from .pulsed import PulsedSystem, Trajectory, evolve
from .shear import CtsState, ShearFlow, energy_identity_defects
from .toral import ToralAutomorphism, kronecker_classify, poly_mul


def identity_margins(trajs: Iterable[Trajectory], gap_step: int) -> Tuple[float, float, float]:
    """(worst energy-identity residual, worst sandwich margin, worst bound - gap at step ``gap_step``).

    The gap is read off each trajectory, so no field is evolved again."""
    worst_energy, worst_sandwich, worst_gap = 0.0, math.inf, math.inf
    for traj in trajs:
        worst_energy = max(worst_energy, float(np.max(traj.energy_identity_residuals())))
        lower, upper = traj.sandwich_residuals()
        worst_sandwich = min(worst_sandwich, float(np.min(lower)), float(np.min(upper)))
        gap, bound = traj.inviscid_gap(gap_step)
        worst_gap = min(worst_gap, bound - gap)
    return worst_energy, worst_sandwich, worst_gap


def roots_in_closed_disk(p: Sequence[int]) -> bool:
    """Do all roots of the monic integer polynomial p lie in |z| <= 1?  Exact.

    Graeffe root squaring q(x^2) = (-1)^deg p(x) p(-x) squares every root.
    While all roots lie in the closed disk, Vieta bounds each coefficient
    of every iterate by |q_i| <= C(deg, i), so the iterates repeat; a root
    outside the disk drives the Mahler measure, and with it some
    coefficient, past that bound."""
    q = tuple(int(c) for c in p)
    deg = len(q) - 1
    seen = set()
    while q not in seen:
        if any(abs(c) > math.comb(deg, i) for i, c in enumerate(q)):
            return False
        seen.add(q)
        square = poly_mul(q, [c if i % 2 == 0 else -c for i, c in enumerate(q)])
        q = tuple((-1) ** deg * c for c in square[::2])
    return True


def kronecker_box_scan(box: int) -> Tuple[int, int]:
    """(checked, violations) over the SL2 matrices with entries in [-box, box].

    A violation is a characteristic polynomial that ``kronecker_classify``
    calls all roots of unity exactly when Graeffe root squaring
    (``roots_in_closed_disk``) finds a root outside the closed unit disk.
    The polynomial x^2 - (a + d) x + 1 depends on the trace alone, so each
    trace is classified once and counted for every matrix that has it
    (116 matrices but 9 traces at box 3)."""
    traces = collections.Counter(
        a + d for a, b, c, d in itertools.product(range(-box, box + 1), repeat=4) if a * d - b * c == 1)
    violations = 0
    for trace, count in traces.items():
        p = (1, -trace, 1)
        unity = kronecker_classify(p).kind == "all_roots_of_unity"
        violations += count * (unity != roots_in_closed_disk(p))
    return sum(traces.values()), violations


def h1_bisection_error(nus: Sequence[float]) -> float:
    """Largest relative gap between the bisected H1 and its closed form, power law c = p = alpha = beta = 1."""
    profile = BoundProfile("H1", RateFunction.power(1.0, 1.0, 1.0, 1.0))
    worst = 0.0
    for nu in map(float, nus):
        h_cf = h1_power_closed_form(1.0, 1.0, 1.0, 1.0, nu)
        worst = max(worst, abs(eval_H(profile, nu)[0] - h_cf) / h_cf)
    return worst


def strong_bound_verdicts(report: DissipationReport, automorphism: ToralAutomorphism,
                          n_max: int) -> Tuple[RateFunction, List[dict]]:
    """The rate fitted to the strong envelope e(1..n_max) at alpha = beta = 1, and its H1 verdicts on ``report``."""
    env = strong_envelope(automorphism, 1.0, 1.0, n_max)
    rate = fit_rate(env.n_values[1:], env.values[1:])
    return rate, check_bound(report, BoundProfile("H1", rate))


def decay_fits(automorphism: ToralAutomorphism, nu: float, n: int) -> Tuple[DecayFit, DecayFit]:
    """Decay fits over steps 4..n: the worst case ||(e^{nu Lap} U)^n||^2 and the single mode e_1."""
    conv = SpectralConvention(automorphism.dimension, "lattice")
    worst = fit_energy_decay(operator_norm_energies(automorphism, nu, n), window=(4, n))
    e1 = SpectralField(conv, {(1,) + (0,) * (automorphism.dimension - 1): 1.0})
    single = fit_energy_decay(evolve(e1, PulsedSystem(automorphism, nu, conv), n), window=(4, n))
    return worst, single


def chain_violations(trajs: Iterable[Trajectory]) -> List[dict]:
    """The failed ``check_lower_bound_chain`` results over ``trajs``."""
    results = (check_lower_bound_chain(traj) for traj in trajs)
    return [res for res in results if not res["ok"]]


def cts_energy_defects(state: CtsState, flow: ShearFlow, t: float, dt: float) -> Tuple[float, float]:
    """Summed energy-identity defects over [0, t] at steps dt and dt/2 (``energy_identity_defects``)."""
    return tuple(float(np.sum(energy_identity_defects(state, flow, t, h))) for h in (dt, dt / 2))
