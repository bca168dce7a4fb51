"""The implicit bound functions H1..H4 and the dissipation-time bounds.

Each H(nu) is the sup of a feasible set of Laplacian eigenvalues coupling
the mixing rate to the diffusivity; the dissipation time is then at most
34/(nu H) in discrete time and 18/(nu H) in continuous time.  For power
laws the sup has a closed form; for exponential rates it satisfies an
implicit log relation solved here by bisection.
"""

import math

import numpy as np

from disslab import BoundProfile, ToralAutomorphism, check_bound, dissipation_sweep, eval_H, weyl_constant
from disslab.bounds import h1_exponential_relation_defect, h1_power_closed_form, lattice_count
from disslab.mixing import RateFunction, fit_rate, strong_envelope

print("Weyl eigenvalue-count prefactors (N(lambda) ~ ct lambda^{d/2}):")
for d in (2, 3, 4):
    print(f"  d = {d}: geometric {weyl_constant(d, scaling='geometric'):.6f}, bare lattice {weyl_constant(d, scaling='lattice'):.6f}")
count = lattice_count(2, 1e4)
print(f"  direct count of |k|^2 <= 1e4 on Z^2: {count} vs pi * 1e4 = {math.pi * 1e4:.0f}")

print("\nH1 for the power law h(t) = t^{-1} (alpha = beta = 1):")
profile = BoundProfile("H1", RateFunction.power(1.0, 1.0, 1.0, 1.0))
for nu in (1e-3, 1e-6):
    h_bis, _ = eval_H(profile, nu)
    print(f"  nu = {nu:.0e}: bisection {h_bis:.6f}, closed form {h1_power_closed_form(1, 1, 1, 1, nu):.6f}")

print("\nH1 for the exponential law h(t) = e^{-t} satisfies its implicit relation:")
prof_e = BoundProfile("H1", RateFunction.exponential(1.0, 1.0, 1.0, 1.0))
for nu in (1e-4, 1e-6, 1e-8):
    h, _ = eval_H(prof_e, nu)
    defect = h1_exponential_relation_defect(1.0, 1.0, 1.0, 1.0, nu, h)
    print(f"  nu = {nu:.0e}: H1 = {h:12.2f}, relation defect {defect:.2e}")

print("\nmeasured cat-map dissipation times versus the discrete bound 34/(nu H1):")
cat = ToralAutomorphism(((2, 1), (1, 1)))
report = dissipation_sweep(cat, np.logspace(-6, -2, 5), "exact")
env = strong_envelope(cat, 1.0, 1.0, 12)
fitted = fit_rate(env.n_values[1:], env.values[1:])
for v in check_bound(report, BoundProfile("H1", fitted)):
    print(f"  nu = {v['nu']:.1e}: tau_d = {v['tau_d']:3d} <= {v['bound']:12.1f}  ({'ok' if v['satisfied'] else 'VIOLATED'})")
