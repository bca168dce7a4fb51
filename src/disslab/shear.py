"""Advection-diffusion by shear flows u = (v(y), 0) on T^2.

Spectral in x (nonzero integer wavenumbers |k1| <= K1, the zero-horizontal-
average subspace), collocation in y (M points, M a power of two).  Strang
splitting alternates an exact diffusion half-step in the y-spectral basis
with an exact advection step, the pointwise phase exp(-2 pi i k1 v(y) dt):
shear advection is diagonal in this representation, so both substeps are
unconditionally stable and only the splitting commutator contributes error
(global O(dt^2)).

The x-bands never couple, so the dissipation time uses the exact norm of
the discretized solution map: the largest norm over the bands of one
M x M Strang matrix raised to the step count.  The diffusion half-step is
real (its multiplier is real and even in m) and the phase of band -k1 is
the conjugate of that of band k1, so the two bands have conjugate
matrices, equal singular values, and one matrix per |k1| is built.
Advection is unitary and diffusion contracts band k1 by at most its heat
factor exp(-nu scale k1^2 t), so a band whose heat factor lies below a
norm already found cannot set the maximum and is never built
(``cts_norm``).  The dissipation time asks only whether the norm reaches
1/e: ``cts_norm_reaches`` stops at the first band that reaches it and
never builds a band whose heat factor lies below it.  Both walk the bands
through one generator, ``_band_walk``.

Each piece of the discretisation has one home: ``_phase`` is the transport
factor exp(-2 pi i t k1 v(y)) of the Strang step, of pure transport and of
the correlations; ``CtsState.eigenvalues`` is the band eigenvalue grid
scale (k1^2 + m^2) of the diffusion step and of the H^1 norm; ``_steps``
turns a time and a target step into the step count of every integration.
``cts_step`` is the one-step case of ``evolve_cts``, and the transport gap
diffuses at the state's own nu.
"""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from .fields import SpectralConvention

_E_INV = 1.0 / math.e
NU_DESK = (1e-4, 1e-1)  # the nu range tau_d_cts supports


@dataclass(frozen=True)
class ShearFlow:
    """Shear profile v(y) = mean + sum_m a_m cos(2 pi m y) + b_m sin(2 pi m y).

    ``grad_norm`` bounds sup |v'| (the L-infinity norm of the velocity
    gradient) from above by sum_m 2 pi m hypot(a_m, b_m), which it equals
    for a single harmonic.
    """

    cos_coeffs: Tuple[float, ...] = ()
    sin_coeffs: Tuple[float, ...] = ()
    mean: float = 0.0

    @staticmethod
    def sinusoidal(amplitude: float = 1.0) -> "ShearFlow":
        """v(y) = amplitude * sin(2 pi y)."""
        return ShearFlow(sin_coeffs=(amplitude,))

    @property
    def bandwidth(self) -> int:
        return max(len(self.cos_coeffs), len(self.sin_coeffs), 1)

    def values(self, y: np.ndarray) -> np.ndarray:
        out = np.full_like(y, self.mean, dtype=float)
        for m, a in enumerate(self.cos_coeffs, start=1):
            out += a * np.cos(2.0 * math.pi * m * y)
        for m, b in enumerate(self.sin_coeffs, start=1):
            out += b * np.sin(2.0 * math.pi * m * y)
        return out

    @property
    def grad_norm(self) -> float:
        # |v'| <= sum_m 2 pi m |a_m sin + b_m cos| <= sum_m 2 pi m hypot(a_m, b_m)
        harmonics = itertools.zip_longest(self.cos_coeffs, self.sin_coeffs, fillvalue=0.0)
        return sum((2.0 * math.pi * m * math.hypot(a, b) for m, (a, b) in enumerate(harmonics, start=1)), 0.0)

    def min_grid(self) -> int:
        return max(32, 8 * self.bandwidth)


@dataclass
class CtsState:
    """theta_hat_{k1}(y_j) on nonzero x-wavenumbers and y collocation points.

    ``data`` has shape (n_bands, M) (collocation values per band).  The
    k1 = 0 band is excluded by default (functions with zero horizontal
    average); ``include_zero_x_band`` re-admits it for trivial-bound runs,
    with the constant (0, 0) mode always projected out.
    """

    convention: SpectralConvention
    nu: float
    k1: np.ndarray  # (n_bands,) int
    data: np.ndarray  # (n_bands, M) complex

    def __post_init__(self):
        if not (math.isfinite(self.nu) and self.nu >= 0):
            raise ValueError(f"nu must be finite and nonnegative, got {self.nu}")
        _check_grid_size(self.data.shape[-1])
        if self.convention.dimension != 2:
            raise ValueError("shear solver lives on T^2")

    @property
    def grid_size(self) -> int:
        return int(self.data.shape[-1])

    @staticmethod
    def from_modes(
        modes: dict,
        k1_max: int,
        grid_size: int,
        nu: float,
        convention: Optional[SpectralConvention] = None,
        include_zero_x_band: bool = False,
    ) -> "CtsState":
        """Build a state from {(k1, m): amplitude} full Fourier modes."""
        conv = convention or SpectralConvention(2, "geometric")
        k1_vals = [k for k in range(-k1_max, k1_max + 1) if k != 0 or include_zero_x_band]
        k1_arr = np.array(k1_vals, dtype=np.int64)
        data = np.zeros((len(k1_vals), grid_size), dtype=complex)
        j = np.arange(grid_size)
        for (k1, m), amp in modes.items():
            if k1 == 0 and not include_zero_x_band:
                raise ValueError("mode with k1 = 0 in a zero-horizontal-average state")
            if k1 == 0 and m == 0:
                raise ValueError("constant mode is excluded (mean zero)")
            if abs(k1) > k1_max or abs(m) > grid_size // 2 - 1:
                raise ValueError(f"mode {(k1, m)} outside the truncation")
            row = int(np.nonzero(k1_arr == k1)[0][0])
            data[row] += amp * np.exp(2j * math.pi * m * j / grid_size)
        return CtsState(conv, nu, k1_arr, data)

    def spectral(self) -> np.ndarray:
        """True Fourier coefficients c_{k1, m} (FFT / M)."""
        return np.fft.fft(self.data, axis=-1) / self.grid_size

    def energy(self) -> float:
        return float(np.sum(np.abs(self.data) ** 2) / self.grid_size)

    def eigenvalues(self) -> np.ndarray:
        """Laplacian eigenvalues scale (k1^2 + m^2), in the layout of ``data``'s FFT."""
        m = np.fft.fftfreq(self.grid_size) * self.grid_size  # exact integers: M is a power of two
        return self.convention.scale_factor * (self.k1[:, None].astype(float) ** 2 + m[None, :] ** 2)

    def h1_norm_sq(self) -> float:
        return float(np.sum(self.eigenvalues() * np.abs(self.spectral()) ** 2))

    def lambda_1(self) -> float:
        """Smallest eigenvalue present in the truncated space."""
        lam = self.eigenvalues()
        return float(np.min(lam[lam > 0]))


def _check_grid_size(m: int):
    if m < 2 or m & (m - 1):
        raise ValueError(f"M must be a power of two, at least 2, got {m}")


def _check_dt(dt: float):
    if not (math.isfinite(dt) and dt > 0):
        raise ValueError(f"dt must be finite and positive, got {dt}")


def _steps(t: float, dt_target: float) -> Tuple[int, float]:
    """The Strang step count for time t at step dt_target, and the step t / steps."""
    if not (math.isfinite(t) and t > 0):
        raise ValueError(f"t must be finite and positive, got {t}")
    _check_dt(dt_target)
    steps = max(1, math.ceil(t / dt_target))
    return steps, t / steps


def _phase(k1: np.ndarray, v: np.ndarray, t: float) -> np.ndarray:
    """exp(-2 pi i t k1 v(y)): pure transport of bands k1 over time t, per collocation value v."""
    return np.exp(-2j * math.pi * t * k1[:, None].astype(float) * v[None, :])


def _profile(flow: ShearFlow, m: int) -> np.ndarray:
    """v at the m collocation points y_j = j / m."""
    return flow.values(np.arange(m) / m)


def _check_grid(flow: ShearFlow, state: CtsState):
    if state.grid_size < flow.min_grid():
        raise ValueError(
            f"M = {state.grid_size} under-resolves the shear profile "
            f"(bandwidth {flow.bandwidth}; need M >= {flow.min_grid()})"
        )


class _Stepper:
    """Precomputed Strang factors for one (flow, state shape, dt) triple."""

    def __init__(self, flow: ShearFlow, state: CtsState, dt: float):
        _check_grid(flow, state)
        lam = state.eigenvalues()
        self.half_damp = np.exp(-state.nu * lam * dt / 2.0)
        self.full_damp = self.half_damp * self.half_damp
        self.phase = _phase(state.k1, _profile(flow, state.grid_size), dt)
        # the constant mode (k1, m) = (0, 0), the one zero eigenvalue, never
        # participates, even with the zero band included
        constant = lam == 0
        self.kill_mean = constant if np.any(constant) else None

    def diffuse(self, data: np.ndarray, half: bool) -> np.ndarray:
        coeffs = np.fft.fft(data, axis=-1)
        coeffs *= self.half_damp if half else self.full_damp
        if self.kill_mean is not None:
            coeffs[..., self.kill_mean] = 0.0
        return np.fft.ifft(coeffs, axis=-1)

    def advect(self, data: np.ndarray) -> np.ndarray:
        return data * self.phase

    def strang(self, data: np.ndarray) -> np.ndarray:
        """One unfused Strang step: half diffusion, advection, half diffusion."""
        return self.diffuse(self.advect(self.diffuse(data, half=True)), half=True)


def cts_step(state: CtsState, flow: ShearFlow, dt: float) -> CtsState:
    """One Strang step: half diffusion, exact advection, half diffusion."""
    _check_dt(dt)  # before evolve_cts, which would read a bad dt as a bad time
    return evolve_cts(state, flow, dt, dt_target=dt)  # dt / dt is exactly 1: one step of length dt


def evolve_cts(
    state: CtsState,
    flow: ShearFlow,
    t: float,
    dt_target: float = 0.02,
) -> CtsState:
    """Advance the state by time t with merged Strang substeps.

    Consecutive diffusion half-steps are fused into full steps, halving
    the FFT count; the endpoint state is the exact Strang composition.  One
    step is the unfused Strang step of ``cts_step``.
    """
    steps, dt = _steps(t, dt_target)
    stepper = _Stepper(flow, state, dt)
    data = stepper.diffuse(state.data, half=True)
    for s in range(steps):
        data = stepper.advect(data)
        data = stepper.diffuse(data, half=(s == steps - 1))
    return CtsState(state.convention, state.nu, state.k1, data)


def advect_exact(state: CtsState, flow: ShearFlow, t: float) -> CtsState:
    """Pure transport (nu = 0): multiply each band by exp(-2 pi i k1 v(y) t)."""
    phase = _phase(state.k1, _profile(flow, state.grid_size), t)
    return CtsState(state.convention, state.nu, state.k1, state.data * phase)


def energy_identity_defects(
    state: CtsState, flow: ShearFlow, t: float, dt: float
) -> np.ndarray:
    """Per-step defect of d/dt ||theta||^2 + 2 nu ||theta||_1^2 = 0.

    Uses the unfused Strang steps of ``cts_step``, with the factors built
    once, and a midpoint H^1 value; each state's energy and H^1 norm are
    computed once and carried into the next step.  The defect per step is
    O(dt^3) locally, O(dt^2) accumulated, which the self-convergence test
    verifies by halving dt.
    """
    steps, dt = _steps(t, dt)
    stepper = _Stepper(flow, state, dt)
    cur = state
    energy, h1 = cur.energy(), cur.h1_norm_sq()
    defects = np.empty(steps)
    for s in range(steps):
        cur = CtsState(state.convention, state.nu, state.k1, stepper.strang(cur.data))
        next_energy, next_h1 = cur.energy(), cur.h1_norm_sq()
        mid_h1 = 0.5 * (h1 + next_h1)
        defects[s] = abs(next_energy - energy + 2.0 * state.nu * dt * mid_h1)
        energy, h1 = next_energy, next_h1
    return defects


# ---------------------------------------------------------------------------
# dissipation time and the transport gap
# ---------------------------------------------------------------------------

def _band_walk(state: CtsState, flow: ShearFlow, t: float, dt_target: float):
    """The bands of the time-t map of ``evolve_cts``, by increasing |k1|.

    Yields (padded heat bound, norm) per distinct |k1|, where norm() builds
    the band and returns its exact 2-norm.  Consumers read the bound first
    and build only the bands they need; a band map that is not finite
    raises ``RuntimeError``, so a NaN never reads as a small norm.

    The shear u = (v(y), 0) never couples x-bands, so the map is block
    diagonal: each band's fused Strang step S = H diag(phase) H is an M x M
    matrix (H the half-step diffusion), built by stepping the unit vectors,
    and the time-t map is S^steps.

    H is real, since its Fourier multiplier is real and even in m, and the
    phase of band -k1 is the complex conjugate of the phase of band k1.  So
    S(-k1) = conj S(k1), S(-k1)^steps = conj(S(k1)^steps), and both have
    the same singular values: one matrix is built per distinct |k1|, with
    k1 = +|k1|, and stands for every signed band.

    H is unitarily similar to its damping diagonal, whose largest entry is
    exp(-nu scale k1^2 dt / 2) at m = 0, and the phase is unitary, so
    ||S^steps|| <= exp(-nu scale k1^2 t), the band's heat factor.  The
    factor is padded for rounding by 1e-12 + 4 steps eps relative: the
    rounded damping is raised to the power 2 steps, and computed band norms
    exceed the heat factor by up to 1.7 steps eps.  Heat factors fall with
    |k1|, so once a bound lies below a threshold every later one does too.
    Bands are built one at a time, which keeps the working set at a few
    M x M matrices.
    """
    steps, dt = _steps(t, dt_target)
    scale = state.convention.scale_factor
    pad = 1.0 + 1e-12 + 4.0 * steps * sys.float_info.epsilon
    units = np.eye(state.grid_size)[:, None, :]  # (M, 1, M): one single-band state per unit vector

    def norm(k1: int) -> float:
        band = CtsState(state.convention, state.nu, np.array([k1], dtype=np.int64), state.data[:1])
        strang = _Stepper(flow, band, dt).strang(units)[:, 0, :].T  # column j is the step applied to e_j
        power = np.linalg.matrix_power(strang, steps)
        # a NaN entry would stop the SVD with LinAlgError, a ValueError, and an inf one gives a NaN norm
        if not np.isfinite(power).all():
            raise RuntimeError(f"solution map norm at t = {t} is not finite")
        return float(np.linalg.norm(power, 2))

    for k1 in sorted(set(np.abs(state.k1).tolist())):  # not np.unique, which imports numpy.ma
        yield math.exp(-state.nu * scale * k1 * k1 * t) * pad, lambda k1=k1: norm(k1)


def cts_norm(state: CtsState, flow: ShearFlow, t: float, dt_target: float = 0.02) -> float:
    """Exact 2-norm of the time-t map of ``evolve_cts`` on the state's bands.

    The norm is the largest band norm over all signed k1 of the state (see
    ``_band_walk``).  The walk stops at the first band whose padded heat
    factor lies below the largest norm found so far: that band and every
    later one cannot change the maximum, which is returned bit for bit.
    ``tau_d_cts`` does not call this; it needs only ``cts_norm_reaches``.
    """
    norms = []
    for bound, norm in _band_walk(state, flow, t, dt_target):
        if bound < max(norms, default=0.0):
            break
        norms.append(norm())
    return float(np.max(norms))


def cts_norm_reaches(state: CtsState, flow: ShearFlow, t: float, level: float, dt_target: float = 0.02) -> bool:
    """Whether ``cts_norm(state, flow, t, dt_target) >= level``, decided without the maximum.

    The walk returns True at the first band whose norm is >= level, and
    False at the first band whose padded heat factor is < level: that
    band's norm and every later one's lie at or below their padded heat
    factors, hence below the level.  Each band it builds is built as
    ``cts_norm`` builds it and gives the same float, and ``cts_norm`` builds
    every band this walk builds (none of them has reached the level, so the
    running maximum stays below it and below their bounds).  So the answer
    equals the comparison of the maximum with the level, bit for bit, on
    the same rounding assumption on which ``cts_norm`` skips bands.
    """
    for bound, norm in _band_walk(state, flow, t, dt_target):
        if bound < level:
            return False
        if norm() >= level:
            return True
    return False


def tau_d_cts(
    flow: ShearFlow,
    nu: float,
    convention: Optional[SpectralConvention] = None,
    k1_max: int = 16,
    grid_size: int = 64,
    rel_tol: float = 0.01,
    dt_target: float = 0.02,
    t_hint: Optional[float] = None,
) -> float:
    """Continuous dissipation time: smallest t with operator norm < 1/e.

    The flow is time independent, so the sup over start times in the
    definition is vacuous.  The norm sigma(t) is the exact norm of the
    discretized solution map (``cts_norm``), and the search uses it only
    through sigma(t) >= 1/e: each probe is decided by ``cts_norm_reaches``,
    which stops at the first band that reaches 1/e and never builds a band
    whose heat bound lies below it.  Each decision equals the comparison of
    the full maximum with 1/e, so the probes and the result are those of
    the maximum.  t is located by bracket doubling and bisection to 1%
    relative.  A start past tau_d is walked down by halving; a walk that
    reaches t = 1e-6 without a norm >= 1/e raises ``RuntimeError`` instead
    of bisecting an invalid bracket, and so does a band norm that is not
    finite.
    """
    if not NU_DESK[0] <= nu <= NU_DESK[1]:
        raise ValueError("nu outside the supported desk range [1e-4, 1e-1]")
    if k1_max > 32 or grid_size > 128:
        raise ValueError("truncation exceeds the supported range (K1 <= 32, M <= 128)")
    if k1_max < 1:
        raise ValueError(f"k1_max must be at least 1, got {k1_max}")
    _check_grid_size(grid_size)
    _check_dt(dt_target)
    template = CtsState.from_modes({}, k1_max, grid_size, nu, convention)
    _check_grid(flow, template)

    def reaches(t: float) -> bool:  # sigma(t) >= 1/e
        return cts_norm_reaches(template, flow, t, _E_INV, dt_target=dt_target)

    lam1 = template.convention.lambda_1
    t_cap = 1.2 / (nu * lam1) + 1.0  # trivial heat bound, padded
    hi = min(t_hint or 1.0, t_cap)
    doubled = False
    while reaches(hi):
        hi *= 2.0
        doubled = True
        if hi > 4.0 * t_cap:
            raise RuntimeError("no norm drop below 1/e within the trivial bound horizon")
    lo = hi / 2.0  # after doubling, the previous hi: its norm is already >= 1/e
    if not doubled:
        # the start may overshoot: walk the bracket down
        while not reaches(lo):
            if lo <= 1e-6:
                raise RuntimeError(f"norm below 1/e already at t = {lo:.3g}: no valid bracket")
            hi = lo
            lo /= 2.0
    while (hi - lo) > rel_tol * hi:
        mid = 0.5 * (lo + hi)
        if not reaches(mid):
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def transport_gap_cts(state: CtsState, flow: ShearFlow, t: float, dt_target: float = 0.02) -> dict:
    """Squared distance to the inviscid transport and its a priori bound.

    gap^2 = ||theta(t) - phi(t)||^2  with theta evolved at the state's nu
    and phi the exact nu = 0 shear flow;
    bound = (nu / (2 |grad u|)) exp(2 |grad u| t) ||theta_0||_1^2.
    """
    if t <= 0 or t > 10.0:
        raise ValueError("t must lie in (0, 10]")
    evolved = evolve_cts(state, flow, t, dt_target=dt_target)
    transported = advect_exact(state, flow, t)
    diff = evolved.data - transported.data
    gap_sq = float(np.sum(np.abs(diff) ** 2) / state.grid_size)
    grad = flow.grad_norm
    bound = state.nu / (2.0 * grad) * math.exp(2.0 * grad * t) * state.h1_norm_sq()
    return {"gap_sq": gap_sq, "bound": bound}


def shear_correlation(
    state: CtsState, flow: ShearFlow, other: CtsState, times: Sequence[float], quad_size: int = 4096
) -> np.ndarray:
    """|<theta_0 o phi_t, g>| along pure transport (stationary-phase decay).

    The transported field is theta_hat_{k1}(y) e^{-2 pi i k1 v(y) t}; the
    pairing reduces to a y-quadrature per shared band.  The states are
    band-limited in y, but the transport phase is not: both fields are
    upsampled by trigonometric interpolation to ``quad_size`` points so
    the quadrature resolves phases up to |k1| * t * |v'| ~ quad_size / 4.
    """
    if not np.array_equal(state.k1, other.k1):
        raise ValueError("states must share the same band layout")
    # a band where either field vanishes adds exact zeros to the pairing: its
    # phase is never built, and its zero row keeps the summation order
    shared = np.any(state.data != 0, axis=-1) & np.any(other.data != 0, axis=-1)
    k1 = state.k1[shared]

    def upsample(data: np.ndarray) -> np.ndarray:
        m = data.shape[-1]
        spec = np.fft.fft(data, axis=-1) / m
        wide = np.zeros(data.shape[:-1] + (quad_size,), dtype=complex)
        half = m // 2
        wide[..., :half] = spec[..., :half]
        wide[..., quad_size - half :] = spec[..., half:]
        return np.fft.ifft(wide, axis=-1) * quad_size

    a = upsample(state.data[shared])
    b = np.conj(upsample(other.data[shared]))
    v = _profile(flow, quad_size)
    vals = np.zeros((state.k1.size, quad_size), dtype=complex)
    out = np.empty(len(times))
    for i, t in enumerate(times):
        vals[shared] = a * _phase(k1, v, t) * b
        out[i] = abs(complex(np.sum(vals) / quad_size))
    return out
