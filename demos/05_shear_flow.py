"""Enhanced dissipation by the shear flow u = (sin(2 pi y), 0) on T^2.

Fourier in x and in y: each x-band evolves by the exact exponential
exp(t L) of its y-Fourier generator, diffusion plus the circulant of the
profile, computed on a binary ladder of squared rungs with no time step.
The energy check integrates d/dt ||theta||^2 = -2 nu ||grad theta||^2 by
the trapezoid rule along exp(h L) steps (second order in h, hence the
ratio near 4 at h = 0.02 vs 0.01).  On the zero-horizontal-average subspace the dissipation time scales like
nu^{-1/2} up to logarithms, far below the heat-only 1/(nu lambda_1), and
the inviscid transport correlation decays like t^{-1/2} (stationary phase
at the nondegenerate critical points of the profile).
"""

import numpy as np

from disslab import CtsState, ShearFlow, SpectralConvention, checks, tau_d_cts, transport_gap_cts
from disslab.fitting import line_fit
from disslab.shear import shear_correlation

flow = ShearFlow.sinusoidal()
conv = SpectralConvention(2, "geometric")
print(f"profile v(y) = sin(2 pi y): |grad u| = {flow.grad_norm:.4f} (= 2 pi)")

state = CtsState.from_modes({(1, 0): 1.0, (2, 1): 0.5}, 16, 64, 1e-2, conv)
d1, d2 = checks.cts_energy_defects(state, flow, 1.0, 0.02)
print(f"\nenergy identity defect, dt = 0.02 vs 0.01: ratio {d1 / d2:.2f} (second order)")

gap = transport_gap_cts(CtsState.from_modes({(1, 0): 1.0}, 16, 64, 1e-3, conv), flow, 2.0)
print(f"transport gap at t = 2, nu = 1e-3: {gap['gap_sq']:.3e} <= bound {gap['bound']:.3e}")

print("\ndissipation times (exact band norms + bisection):")
nus = np.logspace(-2, -4, 5)
taus = []
for nu in nus:
    tau = tau_d_cts(flow, float(nu), conv, k1_max=16, grid_size=64)
    taus.append(tau)
    heat_only = 1.0 / (nu * conv.eigenvalue((1, 0)))
    print(f"  nu = {nu:.2e}: tau_d = {tau:7.3f}   (heat alone would need {heat_only:8.1f})")
fit = line_fit(np.log(nus), np.log(taus))
print(f"  fitted tau_d ~ nu^-{-fit.slope:.3f}   (enhanced dissipation: 1/2 up to logs)")

print("\nstationary-phase decay of the transport correlations:")
probe = CtsState.from_modes({(1, 0): 1.0}, 2, 64, 0.0, conv)
times = np.linspace(0.25, 24.0, 2000)
corr = shear_correlation(probe, flow, probe, times)
peaks_t, peaks_v = [], []
for i in range(0, len(times) - 125, 125):
    j = i + int(np.argmax(corr[i : i + 125]))
    peaks_t.append(times[j])
    peaks_v.append(corr[j])
fit = line_fit(np.log(peaks_t), np.log(peaks_v))
print(f"  peak envelope of |<f o phi_t, f>| ~ t^-{-fit.slope:.3f}   (stationary phase: 1/2)")
