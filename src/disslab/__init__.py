"""Spectral laboratory for dissipation enhancement by mixing on the flat torus.

The package measures dissipation times, energy decay, and mixing rates of

* pulsed diffusions ``theta_{n+1} = exp(nu*Lap) U theta_n`` driven by toral
  automorphisms (exact Fourier-lattice dynamics), and
* continuous-time advection-diffusion by shear flows on T^2,

and evaluates the implicit bound functions (H1..H4) that convert a mixing
rate into a dissipation-time bound.
"""

from .fields import SpectralConvention, SpectralField, sobolev_norm, dissipation_functional
from .toral import ToralAutomorphism, ConditionReport, check_conditions, kronecker_classify
from .pulsed import PulsedSystem, Trajectory, TruncatedKoopman, step, evolve, evolve_many, inviscid_gap
from .dissipation import (
    DissipationReport,
    DecayFit,
    tau_d_exact,
    tau_d_operator,
    fit_energy_decay,
    check_lower_bound_chain,
    dissipation_sweep,
)
from .mixing import RateFunction, MixingEnvelope, strong_envelope, weak_cesaro, transfer_rate, fit_rate
from .bounds import BoundProfile, weyl_constant, eval_H, corollary_exponents, check_bound, eigenvalue_floor
from .shear import ShearFlow, CtsState, tau_d_cts, transport_gap_cts

__all__ = [
    "SpectralConvention",
    "SpectralField",
    "sobolev_norm",
    "dissipation_functional",
    "ToralAutomorphism",
    "ConditionReport",
    "check_conditions",
    "kronecker_classify",
    "PulsedSystem",
    "Trajectory",
    "TruncatedKoopman",
    "step",
    "evolve",
    "evolve_many",
    "inviscid_gap",
    "DissipationReport",
    "DecayFit",
    "tau_d_exact",
    "tau_d_operator",
    "fit_energy_decay",
    "check_lower_bound_chain",
    "dissipation_sweep",
    "RateFunction",
    "MixingEnvelope",
    "strong_envelope",
    "weak_cesaro",
    "transfer_rate",
    "fit_rate",
    "BoundProfile",
    "weyl_constant",
    "eval_H",
    "corollary_exponents",
    "check_bound",
    "eigenvalue_floor",
    "ShearFlow",
    "CtsState",
    "tau_d_cts",
    "transport_gap_cts",
]

__version__ = "0.1.0"
