"""Dissipation times of the cat map: exact lattice route vs operator route.

The n-step operator norm is exp(-nu min_k S_n(k)) with S_n the integer
quadratic form of cumulative orbit energies, minimized exactly by lattice
reduction and branch-and-bound.  The independent oracle truncates the
Koopman operator to a mode ball and walks its orbits.  tau_d then grows like |ln nu| / ln
lambda_+, and the energy decays double exponentially with base lambda_+
(worst case) or lambda_+^2 (single mode).
"""

import math
from itertools import islice

import numpy as np

from disslab import (
    PulsedSystem,
    SpectralConvention,
    SpectralField,
    ToralAutomorphism,
    dissipation_sweep,
    evolve,
    fit_energy_decay,
    tau_d_exact,
)
from disslab.dissipation import min_energies, operator_norm_energies, tau_d_operator

cat = ToralAutomorphism(((2, 1), (1, 1)))
lam_plus = (3 + math.sqrt(5)) / 2

print("minimal cumulative orbit energies min_k S_n(k):")
for n, (val, vec) in enumerate(islice(min_energies(cat), 7), start=1):
    print(f"  n = {n}: min S_n = {val:6d} at k = {vec}")

print("\ntau_d at nu = 0.1:", tau_d_exact(cat, 0.1), "(min S_3 = 8 <= 10 < 21 = min S_4)")

print("\nexact vs truncated-operator oracle:")
for nu in (1e-2, 1e-3):
    print(f"  nu = {nu:.0e}: exact {tau_d_exact(cat, nu)}, operator {tau_d_operator(cat, nu)}")

nus = np.exp(np.linspace(math.log(1e-8), math.log(1e-2), 13))
report = dissipation_sweep(cat, nus, "exact")
print("\nlogarithmic law tau_d ~ |ln nu| / ln lambda_+:")
print(f"  fitted slope {report.fit.slope:.4f} vs 1/ln(lambda_+) = {1 / math.log(lam_plus):.4f},"
      f" r^2 = {report.fit.r_squared:.4f}")

energies = operator_norm_energies(cat, 1e-6, 14)
fit_op = fit_energy_decay(energies, window=(4, 14))
conv = SpectralConvention(2, "lattice")
traj = evolve(SpectralField(conv, {(1, 0): 1.0}), PulsedSystem(cat, 1e-6, conv), 14)
fit_single = fit_energy_decay(traj, window=(4, 14))
print("\ndouble-exponential decay exp(-c gamma^n):")
print(f"  worst case   gamma_hat = {fit_op.gamma_hat:.4f}  (lambda_+   = {lam_plus:.4f})")
print(f"  single mode  gamma_hat = {fit_single.gamma_hat:.4f}  (lambda_+^2 = {lam_plus**2:.4f})")
