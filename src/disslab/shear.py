"""Advection-diffusion by shear flows u = (v(y), 0) on T^2.

Spectral in x (nonzero integer wavenumbers |k1| <= K1, the zero-horizontal-
average subspace), collocation in y (M points, M a power of two).  Strang
splitting alternates an exact diffusion half-step in the y-spectral basis
with an exact advection step, the pointwise phase exp(-2 pi i k1 v(y) dt):
shear advection is diagonal in this representation, so both substeps are
unconditionally stable and only the splitting commutator contributes error
(global O(dt^2)).

The x-bands never couple, so the dissipation time reads the discretized
solution map band by band: one M x M Strang matrix per band, raised to the
step count, built in the y-Fourier basis as D C D (D the diffusion
half-step diagonal, C the circulant of the advection phase), which is
unitarily similar to the collocation-basis step and has its singular
values.  The diffusion half-step is real (its multiplier is real and even
in m) and the phase of band -k1 is the conjugate of that of band k1, so the
two bands have conjugate matrices, equal singular values, and one matrix
per |k1| is built; for a sine-series shear (an odd profile) every band
matrix is real and is built and decided in float64.  Advection is unitary
and diffusion contracts band k1 by at most its heat factor
exp(-nu scale k1^2 t), so a band whose heat factor lies below a norm
already found cannot set the maximum and is never built (``cts_norm``, the
exact norm by SVD).  The dissipation time asks only
whether the norm reaches 1/e: ``cts_norm_reaches`` stops at the first band
that reaches it, never builds a band whose heat factor lies below it, and
decides each band it builds by two Cholesky factorisations of shifted
Gram matrices, certified against the rounding, with the SVD kept for a
level within a relative 1e-9 of the band's norm.  Both walk the bands
through one generator, ``_band_walk``.

Each piece of the discretisation has one home: ``_phase`` is the transport
factor exp(-2 pi i t k1 v(y)) of the Strang step, of pure transport and of
the correlations; ``CtsState.eigenvalues`` is the band eigenvalue grid
scale (k1^2 + m^2) of the diffusion step and of the H^1 norm; ``_steps``
turns a time and a target step into the step count of every integration;
``_Strang`` builds the y-Fourier Strang matrices D C D of a state's bands.
Those matrices are the one operator that the dissipation time decides and
that the checks read: ``_band_walk`` raises them to the step count,
``energy_identity_defects`` steps the Fourier coefficients by one product
with them per step, and ``transport_gap_cts`` applies their power, at the
state's own nu.  ``evolve_cts`` (``cts_step`` is its one-step case) is the
FFT collocation solver of the same Strang step, kept as the independent
oracle the tests compare these matrices with.
"""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from .fields import SpectralConvention, require_memory

_E_INV = 1.0 / math.e
NU_DESK = (1e-4, 1e-1)  # the nu range tau_d_cts supports


@dataclass(frozen=True)
class ShearFlow:
    """Shear profile v(y) = sum_m a_m cos(2 pi m y) + b_m sin(2 pi m y).

    ``grad_norm`` bounds sup |v'| (the L-infinity norm of the velocity
    gradient) from above by sum_m 2 pi m hypot(a_m, b_m), which it equals
    for a single harmonic.  A coefficient that is not finite, or finite
    coefficients whose bound overflows (1e308), is refused: the profile,
    its transport phase and every bound built on ``grad_norm`` would be
    NaN or infinite.  v is odd exactly when every a_m is 0, and then every
    band of the Strang step is real (see ``_band_walk``).
    """

    cos_coeffs: Tuple[float, ...] = ()
    sin_coeffs: Tuple[float, ...] = ()

    def __post_init__(self):
        if not all(math.isfinite(c) for c in (*self.cos_coeffs, *self.sin_coeffs)):
            raise ValueError(f"shear coefficients must be finite, got {self.cos_coeffs}, {self.sin_coeffs}")
        if not math.isfinite(self.grad_norm):
            raise ValueError(f"the shear gradient bound grad_norm must be finite, got {self.grad_norm}")

    @staticmethod
    def sinusoidal() -> "ShearFlow":
        """v(y) = sin(2 pi y)."""
        return ShearFlow(sin_coeffs=(1.0,))

    @property
    def bandwidth(self) -> int:
        return max(len(self.cos_coeffs), len(self.sin_coeffs), 1)

    def values(self, y: np.ndarray) -> np.ndarray:
        out = np.zeros_like(y, dtype=float)
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

    ``data`` has shape (n_bands, M) (collocation values per band), one row
    per entry of ``k1``; any other shape is refused.  The
    state lives in the zero-horizontal-average subspace: there is no k1 = 0
    band, so every Laplacian eigenvalue of the state is positive.
    """

    convention: SpectralConvention
    nu: float
    k1: np.ndarray  # (n_bands,) int
    data: np.ndarray  # (n_bands, M) complex

    def __post_init__(self):
        if not (math.isfinite(self.nu) and self.nu >= 0):
            raise ValueError(f"nu must be finite and nonnegative, got {self.nu}")
        if self.data.ndim != 2 or np.shape(self.k1) != self.data.shape[:1]:
            raise ValueError(f"data must hold one row per k1, got shapes {np.shape(self.k1)} and {self.data.shape}")
        _check_grid_size(self.data.shape[-1])
        if self.convention.dimension != 2:
            raise ValueError("shear solver lives on T^2")
        if not np.all(self.k1):
            raise ValueError("the k1 = 0 band lies outside the zero-horizontal-average subspace")

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
    ) -> "CtsState":
        """Build a state from {(k1, m): amplitude} full Fourier modes, all with k1 != 0."""
        conv = convention or SpectralConvention(2, "geometric")
        k1_vals = [k for k in range(-k1_max, k1_max + 1) if k != 0]
        k1_arr = np.array(k1_vals, dtype=np.int64)
        data = np.zeros((len(k1_vals), grid_size), dtype=complex)
        j = np.arange(grid_size)
        for (k1, m), amp in modes.items():
            if k1 == 0:
                raise ValueError("mode with k1 = 0 in a zero-horizontal-average state")
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
        return float(np.min(self.eigenvalues()))


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
        self.half_damp = np.exp(-state.nu * state.eigenvalues() * dt / 2.0)
        self.full_damp = self.half_damp * self.half_damp
        self.phase = _phase(state.k1, _profile(flow, state.grid_size), dt)

    def diffuse(self, data: np.ndarray, half: bool) -> np.ndarray:
        coeffs = np.fft.fft(data, axis=-1)
        coeffs *= self.half_damp if half else self.full_damp
        return np.fft.ifft(coeffs, axis=-1)

    def advect(self, data: np.ndarray) -> np.ndarray:
        return data * self.phase


class _Strang:
    """The y-Fourier Strang steps of a state's signed bands, for one step dt.

    A call returns S = D C D for the bands ``rows`` (every band by default),
    stacked (bands, M, M): D the diffusion half-step diagonal
    exp(-nu lambda dt / 2) on the band's eigenvalue row and C the circulant
    C[m, m'] = fft(phase)[(m - m') % M] / M of the advection phase, so that
    S maps the band's coefficients ``CtsState.spectral`` one Strang step on
    (``_band_walk`` derives it).  For a sine-series shear C is real and its
    real part is kept.  The profile v(y), the lag index (m - m') % M and the
    eigenvalue rows are built once per instance.

    Before anything M x M is allocated, 32 (n + 1) M^2 bytes are priced
    for n bands: building S holds at most about two stacks of n complex
    M x M matrices at once, and the lag index is one M x M array
    (tracemalloc peaks of the build and of both checks were 1.1 and 2.1
    times 16 n M^2 bytes for real and complex S, n = 4..16, M = 64..512).
    ``_band_walk`` prices every band it may build and builds one at a time.
    """

    def __init__(self, flow: ShearFlow, state: CtsState, dt: float):
        _check_grid(flow, state)
        m = state.grid_size
        self.real = not any(flow.cos_coeffs)  # v(-y) = -v(y)
        require_memory(32 * (state.k1.size + 1) * m * m, f"Strang matrices of {state.k1.size} bands at M = {m}")
        self.k1, self.nu, self.dt, self.eigenvalues = state.k1, state.nu, dt, state.eigenvalues()
        self.v = _profile(flow, m)
        self.lag = np.subtract.outer(np.arange(m), np.arange(m)) & (m - 1)  # (m - m') % M, M a power of two

    def __call__(self, rows: slice = slice(None)) -> np.ndarray:
        damp = np.exp(-self.nu * self.eigenvalues[rows] * self.dt / 2.0)
        symbol = np.fft.fft(_phase(self.k1[rows], self.v, self.dt), axis=-1) / self.v.size
        symbol = symbol.real if self.real else symbol  # real in exact arithmetic: the imaginary parts are rounding
        return damp[:, :, None] * np.take(symbol, self.lag, axis=-1) * damp[:, None, :]


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


def _spectral_steps(state: CtsState, flow: ShearFlow, t: float, dt_target: float):
    """The state's Fourier coefficients at 0, dt, ..., t, stepped by the Strang matrices of ``_Strang``.

    Takes the steps of ``evolve_cts`` (``_steps``), each one batched product
    c <- S c with the matrices S that ``tau_d_cts`` decides, built once.  The
    coefficients are those of ``CtsState.spectral``.  For a real S (every
    sine-series shear) c is carried as a real (bands, M, 2) array of its real
    and imaginary parts, so nothing is promoted to complex; otherwise as a
    complex (bands, M, 1) array.  ``c.view(complex)[..., 0]`` is the complex
    (bands, M) array either way.  One product per step keeps the working set
    at S and two coefficient arrays, where a matrix power would hold several
    stacks of M x M matrices.
    """
    steps, dt = _steps(t, dt_target)
    strang = _Strang(flow, state, dt)()
    c = state.spectral()
    c = np.stack([c.real, c.imag], axis=-1) if np.isrealobj(strang) else c[..., None]
    yield c
    for _ in range(steps):
        c = strang @ c
        yield c


def energy_identity_defects(state: CtsState, flow: ShearFlow, t: float, dt: float) -> np.ndarray:
    """Per-step defect of d/dt ||theta||^2 + 2 nu ||theta||_1^2 = 0.

    Reads the operator that ``tau_d_cts`` decides: the coefficients of
    ``_spectral_steps``, stepped by the y-Fourier Strang matrices of
    ``_Strang``, the unfused Strang step of ``cts_step``.  Each state's
    energy and H^1 norm are read from its coefficients by Parseval, and each
    step takes the midpoint H^1 value.  The defects agree with a loop over
    ``cts_step`` to within rounding (at most 4 eps E_0 per step on the cases
    the tests check), not bit for bit.  The defect per step is O(dt^3)
    locally, O(dt^2) accumulated, which the self-convergence test verifies
    by halving dt.
    """
    _, step = _steps(t, dt)
    eigenvalues = state.eigenvalues()[..., None]
    weights = (np.abs(c) ** 2 for c in _spectral_steps(state, flow, t, dt))
    energy, h1 = np.array([(np.sum(w), np.sum(eigenvalues * w)) for w in weights]).T  # per state
    return np.abs(np.diff(energy) + 2.0 * state.nu * step * (0.5 * (h1[:-1] + h1[1:])))


# ---------------------------------------------------------------------------
# dissipation time and the transport gap
# ---------------------------------------------------------------------------

def _band_walk(state: CtsState, flow: ShearFlow, t: float, dt_target: float):
    """The bands of the time-t map of ``evolve_cts``, by increasing |k1|.

    Yields (padded heat bound, power) per distinct |k1|, where power()
    builds the band and returns its time-t map X, an M x M matrix whose
    singular values are those of the band's solution map.  Consumers read
    the bound first and build only the bands they need; a band map that is
    not finite raises ``RuntimeError``, so a NaN never reads as a small
    norm.

    The shear u = (v(y), 0) never couples x-bands, so the map is block
    diagonal, and each band's time-t map is its fused Strang step raised to
    the step count.  In collocation values the step is F^-1 D F P F^-1 D F,
    with F the unnormalised DFT, D = diag(half_damp) the diffusion half-step
    in the FFT layout and P = diag(phase) the advection.  F / sqrt(M) is
    unitary, so conjugating by it keeps the singular values, and the step
    is built in the y-Fourier basis as S = D C D (``_Strang``), where
    C = F P F^-1 is the circulant C[m, m'] = fft(phase)[(m - m') % M] / M,
    and X = S^steps.  The profile, the lag index and the eigenvalue rows
    are built once per walk, and each band's S when it is built.

    D is real, since its multiplier is real and even in m, and the phase of
    band -k1 is the complex conjugate of the phase of band k1.  So S(-k1)
    and S(k1) are conjugate up to the reflection m -> -m, a permutation,
    and their powers have the same singular values: one matrix is built per
    distinct |k1|, with k1 = +|k1|, and stands for every signed band.

    For a sine-series shear S is real, and X is built in float64 (a real
    64 x 64 product takes 13 us against 41 us for a complex one, on 2 cores
    with numpy 2.4).  v is odd exactly when every cosine coefficient
    vanishes, and then v(y_(M-j)) = -v(y_j) at the collocation points
    y_j = j / M, so phase(y_(M-j)) = conj(phase(y_j)) and
    c_m = fft(phase)[m] / M equals its own conjugate: C is real.  The
    computed imaginary parts are rounding (at most 5.4e-16 of max |c_m|
    over the bands measured below), and dropping them gives the transform
    of the symmetrised phase (phase_j + conj(phase_(M-j))) / 2, whose
    entries are as accurate as the computed phase's.  The pad below and the
    Cholesky margin of ``cts_norm_reaches`` thus still hold, and real
    arithmetic only shrinks the gamma_n constants of its rounding bounds.
    A profile with a cosine term keeps the complex symbol.

    C is unitary and the largest entry of D is exp(-nu scale k1^2 dt / 2),
    at m = 0, so ||S^steps|| <= exp(-nu scale k1^2 t), the band's heat
    factor.  The factor is padded for rounding by 1e-12 + 4 steps eps
    relative: the rounded damping is raised to the power 2 steps.  Computed
    band norms exceeded the heat factor by up to 1.1 steps eps over 900
    random bands in complex arithmetic, with and without shear.  Re-measured
    over 1,637 random bands built in float64 (K1 <= 32, M <= 128, the zero
    shear and three odd profiles), the largest excess was 0.15 of the pad,
    and 2.9 steps eps among bands of 50 steps or more; the same bands built
    in complex arithmetic gave the same excess.  Heat factors fall with
    |k1|, so once a bound lies below a threshold every later one does too.
    Bands are built one at a time, which keeps the working set at a few
    M x M matrices.
    """
    steps, dt = _steps(t, dt_target)
    scale = state.convention.scale_factor
    pad = 1.0 + 1e-12 + 4.0 * steps * sys.float_info.epsilon
    k1s = np.array(sorted(set(np.abs(state.k1).tolist())), dtype=np.int64)  # not np.unique, which imports numpy.ma
    strang = _Strang(flow, CtsState(state.convention, state.nu, k1s, np.zeros((k1s.size, state.grid_size))), dt)

    def power(i: int) -> np.ndarray:
        x = np.linalg.matrix_power(strang(slice(i, i + 1))[0], steps)
        # a NaN entry would stop the SVD with LinAlgError, a ValueError, and an inf one gives a NaN norm
        if not np.isfinite(x).all():
            raise RuntimeError(f"solution map norm at t = {t} is not finite")
        return x

    for i, k1 in enumerate(k1s.tolist()):
        yield math.exp(-state.nu * scale * k1 * k1 * t) * pad, lambda i=i: power(i)


def cts_norm(state: CtsState, flow: ShearFlow, t: float, dt_target: float = 0.02) -> float:
    """Exact 2-norm of the time-t map of ``evolve_cts`` on the state's bands.

    The norm is the largest band norm, by SVD, over all signed k1 of the
    state (see ``_band_walk``).  The walk stops at the first band whose
    padded heat factor lies below the largest norm found so far: that band
    and every later one cannot change the maximum, which is returned bit
    for bit.  ``tau_d_cts`` does not call this; it needs only
    ``cts_norm_reaches``.
    """
    norms = []
    for bound, power in _band_walk(state, flow, t, dt_target):
        if bound < max(norms, default=0.0):
            break
        norms.append(float(np.linalg.norm(power(), 2)))
    return float(np.max(norms))


# relative margin of the Cholesky decision; see cts_norm_reaches
_GRAM_MARGIN = 1e-9


def _below(gram: np.ndarray, square: float) -> bool:
    """Whether square I - gram is positive definite, by whether its Cholesky factorisation succeeds."""
    shifted = -gram
    shifted.reshape(-1)[:: gram.shape[0] + 1] += square  # the diagonal, square - g_ii
    try:
        np.linalg.cholesky(shifted)
    except np.linalg.LinAlgError:
        return False
    return True


def cts_norm_reaches(state: CtsState, flow: ShearFlow, t: float, level: float, dt_target: float = 0.02) -> bool:
    """Whether ``cts_norm(state, flow, t, dt_target) >= level``, decided without the maximum.

    The walk returns True at the first band whose norm is >= level, and
    False at the first band whose padded heat factor is < level: that
    band's norm and every later one's lie at or below their padded heat
    factors, hence below the level.  Each band it builds is built as
    ``cts_norm`` builds it, and ``cts_norm`` builds every band this walk
    builds (none of them has reached the level, so the running maximum
    stays below it and below their bounds).

    A band is decided without its SVD.  With X its map, s = ||X||_2,
    G = fl(X^H X), delta = ``_GRAM_MARGIN`` = 1e-9 and L = level:

    * if (1 - delta) L^2 I - G has a Cholesky factor, s < L: the band
      does not reach the level;
    * if (1 + delta) L^2 I - G has none, s > L: it does;
    * otherwise ``np.linalg.norm(X, 2) >= L``, the SVD of ``cts_norm``,
      decides.

    Rounding moves each step by far less than delta, for M <= 128 (Higham,
    Accuracy and Stability of Numerical Algorithms, 2nd ed., ch. 3 and 10;
    gamma_n = n u / (1 - n u), u = 2^-53, gamma_129 < 1.5e-14).  The
    product: |G - X^H X| <= gamma_M |X|^H |X| entrywise, and
    || |X| ||_2 <= sqrt(M) s, so ||G - X^H X||_2 <= M gamma_M s^2 < 2e-12 s^2
    for a real X, G = fl(X^T X) (every sine-series shear, ``_band_walk``),
    and a few times that for a complex one (a cosine term), whose products
    take four real ones each.  A Cholesky factorisation that succeeds is
    exact for A + dA with ||dA||_2 <= eta ||A||_2, and one that fails
    leaves lambda_min(A) <= eta max_i a_ii (Demmel's condition; a
    nonpositive a_ii is itself an eigenvalue bound), with
    eta = M gamma_(M+1) / (1 - M gamma_(M+1)) < 2e-12; forming A rounds by
    u (L^2 + s^2) more.  So success gives s^2 <= (1 - delta + 5e-11) L^2,
    hence s < (1 - 2e-10) L, and failure gives
    s^2 >= (1 + delta - 5e-11) L^2, hence s > (1 + 2e-10) L.  The SVD's
    singular values are exact for X + E with ||E||_2 <= p(M) u s, p(M) a
    modest multiple of M^2, which moves the computed norm by less than a
    relative 2e-12.  Both decided cases thus agree with the comparison of
    the computed SVD norm with the level, and the answer equals that of the
    maximum of ``cts_norm``, bit for bit, on the rounding assumption on
    which ``cts_norm`` skips bands.

    These bounds hold while nothing underflows.  Gradual underflow adds at
    most M^2 2^-1074 < 1e-318 to the entries of G and of the factor, far
    below delta L^2 while that is a normal float, L >= 4.72e-150; below
    that the SVD decides every band (at L = 2.5e-182, L^2 and G underflow
    to 0 and both factorisations fail).
    """
    square = level * level
    certified = _GRAM_MARGIN * square >= sys.float_info.min  # underflow lies far below delta L^2
    for bound, power in _band_walk(state, flow, t, dt_target):
        if bound < level:
            return False
        x = power()
        if certified:
            gram = x.conj().T @ x
            if _below(gram, (1.0 - _GRAM_MARGIN) * square):
                continue
            if not _below(gram, (1.0 + _GRAM_MARGIN) * square):
                return True
        if np.linalg.norm(x, 2) >= level:
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
) -> float:
    """Continuous dissipation time: smallest t with operator norm < 1/e.

    The flow is time independent, so the sup over start times in the
    definition is vacuous.  The norm sigma(t) is the exact norm of the
    discretized solution map (``cts_norm``), and the search uses it only
    through sigma(t) >= 1/e: each probe is decided by ``cts_norm_reaches``,
    which stops at the first band that reaches 1/e, never builds a band
    whose heat bound lies below it, and decides each band it builds by a
    certified Cholesky test on its Gram matrix, with an SVD only for a norm
    within a relative 1e-9 of 1/e.  Each decision equals the comparison of
    the full SVD maximum with 1/e, so the probes and the result are those
    of the maximum.  t is located by bracket doubling and bisection to
    ``rel_tol`` relative (1% by default; a finite value in [1e-12, 1), so
    the bisection ends).  A start past tau_d is walked down by halving; a
    walk that reaches t = 1e-6 without a norm >= 1/e raises
    ``RuntimeError`` instead of bisecting an invalid bracket, and so does a
    band map that is not finite.  The search starts at the power of two
    nearest sqrt(t_cap), t_cap = 1.2 / (nu lambda_1) + 1, a start set by the
    arguments alone; where sigma(t) >= 1/e at exactly the probes below tau_d
    (as the bisection assumes), every power-of-two start ends in the one
    bracket (2^j, 2^(j+1)] holding tau_d, so no start can move tau_d.
    """
    if not NU_DESK[0] <= nu <= NU_DESK[1]:
        raise ValueError("nu outside the supported desk range [1e-4, 1e-1]")
    if k1_max > 32 or grid_size > 128:
        raise ValueError("truncation exceeds the supported range (K1 <= 32, M <= 128)")
    if k1_max < 1:
        raise ValueError(f"k1_max must be at least 1, got {k1_max}")
    if not (math.isfinite(rel_tol) and 1e-12 <= rel_tol < 1.0):
        raise ValueError(f"rel_tol must be finite and in [1e-12, 1), got {rel_tol}")
    _check_grid_size(grid_size)
    # the first probe's walk checks dt and the grid's resolution of the shear before it builds a band
    template = CtsState.from_modes({}, k1_max, grid_size, nu, convention)

    def reaches(t: float) -> bool:  # sigma(t) >= 1/e
        return cts_norm_reaches(template, flow, t, _E_INV, dt_target=dt_target)

    lam1 = template.convention.lambda_1
    t_cap = 1.2 / (nu * lam1) + 1.0  # trivial heat bound, padded
    hi = start = 2.0 ** round(math.log2(t_cap) / 2.0)
    while reaches(hi):
        hi *= 2.0
        if hi > 4.0 * t_cap:
            raise RuntimeError("no norm drop below 1/e within the trivial bound horizon")
    lo = hi / 2.0  # after doubling, the previous hi: its norm is already >= 1/e
    if hi == start:  # the start may overshoot: walk the bracket down
        while not reaches(lo):
            if lo <= 1e-6:
                raise RuntimeError(f"norm below 1/e already at t = {lo:.3g}: no valid bracket")
            hi = lo
            lo /= 2.0
    while (hi - lo) > rel_tol * hi:
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if reaches(mid) else (lo, mid)
    return 0.5 * (lo + hi)


def transport_gap_cts(state: CtsState, flow: ShearFlow, t: float, dt_target: float = 0.02) -> dict:
    """Squared distance to the inviscid transport and its a priori bound.

    gap^2 = ||theta(t) - phi(t)||^2  with theta evolved at the state's nu
    and phi the exact nu = 0 shear flow;
    bound = (nu / (2 |grad u|)) exp(2 |grad u| t) ||theta_0||_1^2.

    theta(t) is read from the operator that ``tau_d_cts`` decides: the
    last coefficients of ``_spectral_steps``, stepped by the y-Fourier
    Strang matrices of ``_Strang`` over the steps of ``evolve_cts``, then
    one inverse FFT.  It equals ``evolve_cts``'s endpoint to within
    rounding.
    """
    if t <= 0 or t > 10.0:
        raise ValueError("t must lie in (0, 10]")
    grad = flow.grad_norm
    if grad == 0:
        raise ValueError("the transport gap bound nu / (2 |grad u|) needs a flow with grad_norm > 0, got 0")
    for c in _spectral_steps(state, flow, t, dt_target):
        pass  # to the coefficients at time t
    evolved = np.fft.ifft(c.view(complex)[..., 0], axis=-1) * state.grid_size
    diff = evolved - advect_exact(state, flow, t).data
    gap_sq = float(np.sum(np.abs(diff) ** 2) / state.grid_size)
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
