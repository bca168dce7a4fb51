"""Advection-diffusion by shear flows u = (v(y), 0) on T^2.

Spectral in x (nonzero integer wavenumbers |k1| <= K1, the zero-horizontal-
average subspace) and in y (M Fourier modes, M a power of two, with the
profile sampled at M collocation points).  The x-bands never couple, so the
semi-discrete flow is block diagonal: band k1 evolves its y-Fourier
coefficients by exp(t L), with the generator
L = -nu scale diag(k1^2 + m^2) - 2 pi i k1 C_v and C_v the circulant of the
profile's Fourier coefficients (``_Ladder``).  There is no time step on the
dissipation time's path, hence no splitting error.  The transport part of L
is skew-Hermitian, so the band contracts by at most its heat factor
exp(-nu scale k1^2 t); bands k1 and -k1 have conjugate maps with equal
singular values, so one map per |k1| is built, and for a sine-series shear
(an odd profile) every generator is real and is exponentiated and decided
in float64.  A band whose heat factor lies below a norm already found
cannot set the maximum and is never built (``cts_norm``, the exact norm by
SVD).  The dissipation time asks only whether the norm reaches 1/e:
``cts_norm_reaches`` stops at the first band that reaches it, never builds
a band whose heat factor lies below it, and decides each band it builds by
two Cholesky factorisations of shifted Gram matrices, certified against the
rounding, with the SVD kept for a level within a relative 1e-9 of the
band's norm.  Both walk the bands through one generator, ``_band_walk``.

Each piece of the discretisation has one home: ``_phase`` is the transport
factor exp(-2 pi i t k1 v(y)) of pure transport and of the correlations;
``CtsState.eigenvalues`` is the band eigenvalue grid scale (k1^2 + m^2) of
the diffusion and of the H^1 norm; ``_Ladder`` builds each band's generator
and computes its map exp(t L) at any time t, the product of rungs
exp(2^e L) over t's binary digits and one Taylor kernel (``_taylor``) on
the rest.  That map is the one evolution operator, the one that the
dissipation time decides and that the checks read: ``_band_walk`` yields
it per |k1|, ``evolve_cts`` applies exp(t L) to a state,
``energy_identity_defects`` steps the Fourier coefficients by exp(h L) and
``transport_gap_cts`` reads theta(t) from ``evolve_cts``, at the state's
own nu.  Bands never couple, so a zero band stays zero: the three skip
such bands (``_live``) and build maps for the nonzero ones alone.
"""

from __future__ import annotations

import functools
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
    band's generator is real (see ``_Ladder``).
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


def _check_positive(value: float, name: str):
    if not (math.isfinite(value) and value > 0):
        raise ValueError(f"{name} must be finite and positive, got {value}")


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


def advect_exact(state: CtsState, flow: ShearFlow, t: float) -> CtsState:
    """Pure transport (nu = 0): multiply each band by exp(-2 pi i k1 v(y) t)."""
    phase = _phase(state.k1, _profile(flow, state.grid_size), t)
    return CtsState(state.convention, state.nu, state.k1, state.data * phase)


# _BLOCKS[j, i] = 1 / (4 j + i)!, the coefficient of a^i in the Taylor block B_j of exp(a)
_BLOCKS = np.array([[1.0 / math.factorial(4 * j + i) for i in range(4)] for j in range(4)])


def _taylor(a: np.ndarray) -> np.ndarray:
    """exp(a) for ||a||_1 <= 1/2, by its degree-16 Taylor polynomial: six products and no solve.

    Paterson-Stockmeyer: with a^2, a^3 and a^4 (three products) the
    polynomial is B_0 + a^4 (B_1 + a^4 (B_2 + a^4 (B_3 + a^4 / 16!))), where
    each block B_j = sum_(i < 4) a^i / (4 j + i)! is a sum of scaled powers
    (all four formed by one contraction) and the nesting takes three
    products more.  The terms left out sum to at most
    sum_(k >= 17) 2^-k / k! < 2.2e-20 in the 1-norm, far below the rounding
    of the products.
    """
    a2 = a @ a
    blocks = np.tensordot(_BLOCKS, np.stack([np.eye(a.shape[0]), a, a2, a2 @ a]), axes=1)
    a4 = a2 @ a2
    p = a4 / math.factorial(16) + blocks[3]
    for block in blocks[2::-1]:
        p = p @ a4 + block
    return p


class _Ladder:
    """exp(t L) of each band of a state, from the rungs exp(2^e L) of a binary ladder.

    Band k1 of the semi-discrete flow moves its y-Fourier coefficients
    (those of ``CtsState.spectral``) by dc/dt = L c, with
    L = -nu scale diag(k1^2 + m^2) - 2 pi i k1 C_v: diffusion is diagonal
    in m, and transport multiplies theta_k1(y) by -2 pi i k1 v(y), which on
    the M collocation points is the circulant C_v[m, m'] = v_hat((m - m') % M),
    v_hat = fft(v(y_j)) / M.  These are the generators of the two substeps
    of ``evolve_cts`` (its advection F diag(phase) F^-1, F the DFT from
    values to coefficients, is exp(-2 pi i k1 dt C_v)), so exp(t L) is
    that solver's dt -> 0 limit.  v
    is real, and v_hat is replaced by its exactly Hermitian part
    (v_hat + conj(v_hat(-l))) / 2, which makes -2 pi i k1 C_v exactly
    skew-Hermitian: ||exp(t L)||_2 <= exp(-nu scale k1^2 t), the band's
    heat factor, by the logarithmic norm of the diffusion part.  When every
    cosine coefficient vanishes v is odd, v_hat is imaginary and
    -2 pi i k1 C_v is real; its computed imaginary parts are rounding, and
    the band is built and exponentiated in float64.  A profile with a cosine
    term keeps the complex generator.

    The map at time t: b is the largest integer with 2^b N < 1/2 for the
    bound N = nu scale (k1^2 + M^2 / 4) + 2 pi |k1| sum (|a_m| + |b_m|) >=
    ||L||_1, read from the arguments before anything is built.  t splits
    exactly (2^b is a power of two) into q 2^b + r, q an integer and
    0 <= r < 2^b.  The map is the product, largest first, of the rungs
    exp(2^(b + j) L) over the set bits j of q, times ``_taylor``(r L) when
    r > 0; rung 0 is ``_taylor``(2^b L) and rung j + 1 the square of rung
    j.  The rungs depend on the band alone, so a given (band, t) always
    gives the same bits, whatever was computed before.  Each band keeps its
    generator and the rungs built so far, and nothing else: a bisection
    probe lo + 2^(j - i) of ``tau_d_cts`` then costs a few products.  A map
    that is not finite raises ``RuntimeError``, so a NaN never reads as a
    small norm.

    Before anything M x M is allocated, 16 (R + 3 n + 8) M^2 bytes are
    priced for n bands, R the rungs their maps may hold up to ``t_max``:
    each band holds its generator and its rungs, the checks hold every
    band's map twice (listed, then stacked), and the kernel, the products
    and the Gram matrix of a decision hold fewer than eight M x M arrays
    more, lag index included.  Traced peaks were 0.08-0.23 of the price for
    the searches and single norms and 0.45-0.97 for the checks and for
    every rung of every band built at ``t_max`` (K1 = 4..16, M = 32..128,
    real and complex generators).
    """

    def __init__(self, flow: ShearFlow, state: CtsState, t_max: float):
        _check_grid(flow, state)
        m, n = state.grid_size, state.k1.size
        self.state, self.real = state, not any(flow.cos_coeffs)  # v(-y) = -v(y)
        spread = 2.0 * math.pi * sum(map(abs, (*flow.cos_coeffs, *flow.sin_coeffs)))
        bounds = state.nu * state.convention.scale_factor * (state.k1.astype(float) ** 2 + (m // 2) ** 2)
        self.base = [-math.frexp(bound + abs(k1) * spread)[1] - 1 for k1, bound in zip(state.k1.tolist(), bounds)]
        rungs = sum(int(t_max // 2.0**b).bit_length() for b in self.base)
        require_memory(16 * (rungs + 3 * n + 8) * m * m, f"band exponentials of {n} bands at M = {m}")
        v_hat = np.fft.fft(_profile(flow, m)) / m
        v_hat = 0.5 * (v_hat + np.conj(v_hat[-np.arange(m)]))  # v_hat(-l) = conj(v_hat(l)) exactly
        self.circulant = np.take(v_hat, np.subtract.outer(np.arange(m), np.arange(m)) & (m - 1))  # (m - m') % M
        self.decay = -state.nu * state.eigenvalues()
        self.generators, self.rungs = [None] * n, [[] for _ in range(n)]

    def split(self, i: int, t: float) -> Tuple[float, int, float]:
        """(2^b, q, r) with t = q 2^b + r, 0 <= r < 2^b, for band i; exact, since 2^b is a power of two."""
        unit = math.ldexp(1.0, self.base[i])
        q, rest = divmod(t, unit)
        return unit, int(q), rest

    def __call__(self, i: int, t: float) -> np.ndarray:
        unit, q, rest = self.split(i, t)
        if self.generators[i] is None:
            gen = -2j * math.pi * float(self.state.k1[i]) * self.circulant
            gen = gen.real.copy() if self.real else gen  # real in exact arithmetic: the imaginary parts are rounding
            gen.reshape(-1)[:: gen.shape[0] + 1] += self.decay[i]
            self.generators[i] = gen
        rungs = self.rungs[i]
        while len(rungs) < q.bit_length():
            rungs.append(rungs[-1] @ rungs[-1] if rungs else _taylor(unit * self.generators[i]))
        factors = [rungs[j] for j in reversed(range(q.bit_length())) if q >> j & 1]
        if rest:
            factors.append(_taylor(rest * self.generators[i]))
        x = functools.reduce(np.matmul, factors)
        # a NaN entry would stop the SVD with LinAlgError, a ValueError, and an inf one gives a NaN norm
        if not np.isfinite(x).all():
            raise RuntimeError(f"solution map norm at t = {t} is not finite")
        return x


def _live(state: CtsState) -> Tuple[np.ndarray, CtsState]:
    """(mask, view) of the state's nonzero bands: bands never couple under a shear, so a zero band stays zero."""
    live = np.any(state.data != 0, axis=-1)
    return live, CtsState(state.convention, state.nu, state.k1[live], state.data[live])


def _fourier_path(state: CtsState, flow: ShearFlow, h: float, steps: int):
    """The state's Fourier coefficients at 0, h, ..., steps h, stepped by exp(h L) on each signed band.

    The coefficients are those of ``CtsState.spectral``.  For a real map
    (every sine-series shear) c is carried as a real (bands, M, 2) array of
    its real and imaginary parts, so nothing is promoted to complex;
    otherwise as a complex (bands, M, 1) array.  ``c.view(complex)[..., 0]``
    is the complex (bands, M) array either way.  A state without bands
    gives empty arrays.
    """
    ladder, n, m = _Ladder(flow, state, h), state.k1.size, state.grid_size
    step = np.reshape([ladder(i, h) for i in range(n)], (n, m, m))  # np.stack refuses no bands
    c = state.spectral()
    c = np.stack([c.real, c.imag], axis=-1) if ladder.real else c[..., None]
    return itertools.accumulate(itertools.repeat(step, steps), lambda c, s: s @ c, initial=c)


def evolve_cts(state: CtsState, flow: ShearFlow, t: float) -> CtsState:
    """The state at time t > 0 under exp(t L), the map that ``tau_d_cts`` decides.

    Each nonzero band's Fourier coefficients are mapped by its exp(t L)
    (``_fourier_path``, one map per band) and read back in collocation
    values by one inverse FFT.  A zero band stays zero and its map is never
    built, so a state without a nonzero band comes back as it is.
    """
    _check_positive(t, "t")
    live, view = _live(state)
    *_, c = _fourier_path(view, flow, t, 1)
    data = state.data.astype(complex)
    data[live] = np.fft.ifft(c.view(complex)[..., 0], axis=-1) * state.grid_size
    return CtsState(state.convention, state.nu, state.k1, data)


def energy_identity_defects(state: CtsState, flow: ShearFlow, t: float, dt: float) -> np.ndarray:
    """Per-step trapezoid defect of d/dt ||theta||^2 + 2 nu ||theta||_1^2 = 0.

    Reads the map that ``tau_d_cts`` decides: the coefficients of the
    state's nonzero bands (``_live``), stepped by exp(h L) per band
    (``_fourier_path``), with h = t / ceil(t / dt); t and dt must be finite
    and positive.  Each state's energy E_i and H^1 norm H_i are read from
    its coefficients by Parseval, and the defect of step i is
    |E_(i+1) - E_i + nu h (H_i + H_(i+1))|.  The semi-discrete flow meets
    the identity exactly, so the defect is the trapezoid rule's error on
    the integral of 2 nu H over the step: O(h^3) locally, O(h^2) summed,
    which ``verify cts`` and the tests check by halving dt.
    """
    _check_positive(t, "t")
    _check_positive(dt, "dt")
    steps = max(1, math.ceil(t / dt))
    h = t / steps
    _, state = _live(state)
    eigenvalues = state.eigenvalues()[..., None]
    weights = (np.abs(c) ** 2 for c in _fourier_path(state, flow, h, steps))
    energy, h1 = np.array([(np.sum(w), np.sum(eigenvalues * w)) for w in weights]).T  # per state
    return np.abs(np.diff(energy) + 2.0 * state.nu * h * (0.5 * (h1[:-1] + h1[1:])))


# ---------------------------------------------------------------------------
# dissipation time and the transport gap
# ---------------------------------------------------------------------------

def _abs_bands(flow: ShearFlow, state: CtsState, t_max: float) -> _Ladder:
    """The ladder of one band per distinct |k1| of the state, k1 = +|k1|, by increasing |k1|."""
    k1s = np.array(sorted(set(np.abs(state.k1).tolist())), dtype=np.int64)  # not np.unique, which imports numpy.ma
    return _Ladder(flow, CtsState(state.convention, state.nu, k1s, np.zeros((k1s.size, state.grid_size))), t_max)


def _band_walk(ladder: _Ladder, t: float):
    """The bands of exp(t L), one per distinct |k1| (``_abs_bands``), by increasing |k1|.

    Yields (padded heat bound, band map) per band, where band map() builds
    the band's time-t map exp(t L) (``_Ladder``), an M x M matrix whose
    singular values are those of the band's solution map.  Consumers read
    the bound first and build only the bands they need.

    The shear u = (v(y), 0) never couples x-bands, so the map is block
    diagonal.  The diffusion part of L is real and even in m, and the
    transport part of band -k1 is the complex conjugate of that of band k1
    with m -> -m: so L(-k1) = P conj(L(k1)) P, P the reflection m -> -m, a
    permutation, and their exponentials have the same singular values.  One
    map is built per distinct |k1|, with k1 = +|k1|, and stands for every
    signed band.

    The transport part of L is skew-Hermitian, so
    ||exp(t L)|| <= exp(-nu scale k1^2 t), the band's heat factor, padded
    here for rounding by 1e-12 + 4 (2^s + d) eps relative.  The computed
    map is a product of d = popcount(q) + 1 factors or fewer (the set bits
    of q = floor(t / 2^b) and the kernel on the remainder), and its largest
    rung is the kernel squared s = floor(log2 q) times.  A squaring doubles
    the relative error it is given and adds a rounding of its own, so that
    rung carries about 2^s times the kernel's rounding (a few eps: the
    kernel's truncation is below 2.2e-20), and each product adds about one
    eps more.  Measured over 6,000 random bands (the zero, a weak, the sin
    and a three-harmonic sine shear and two cosine shears; |k1| <= 32,
    M <= 128, both conventions, nu in the desk range, t = k 2^e with
    k < 256 clamped to 2^-7..2^11), the computed band norm exceeded its
    heat factor by up to 3.0e-11, above the fixed 1e-12, and by at most
    1.69 (2^s + d) eps; ``test_band_norms_lie_within_their_padded_heat_
    factors`` reruns 300 of them.  Heat factors fall with |k1|, so once a
    bound lies below a threshold every later one does too.  Bands are built
    one at a time.
    """
    heat = ladder.state.nu * ladder.state.convention.scale_factor
    for i, k1 in enumerate(ladder.state.k1.tolist()):
        _, q, _ = ladder.split(i, t)
        pad = 1.0 + 1e-12 + 4.0 * (2 ** max(q.bit_length() - 1, 0) + q.bit_count() + 1) * sys.float_info.epsilon
        yield math.exp(-heat * k1 * k1 * t) * pad, lambda i=i: ladder(i, t)


def cts_norm(state: CtsState, flow: ShearFlow, t: float) -> float:
    """Exact 2-norm of the time-t map exp(t L) on the state's bands.

    The norm is the largest band norm, by SVD, over all signed k1 of the
    state (see ``_band_walk``).  The walk stops at the first band whose
    padded heat factor lies below the largest norm found so far: that band
    and every later one cannot change the maximum, which is returned bit
    for bit.  ``tau_d_cts`` does not call this; it needs only
    ``cts_norm_reaches``.
    """
    _check_positive(t, "t")
    norms = []
    for bound, band_map in _band_walk(_abs_bands(flow, state, t), t):
        if bound < max(norms, default=0.0):
            break
        norms.append(float(np.linalg.norm(band_map(), 2)))
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


def cts_norm_reaches(state: CtsState, flow: ShearFlow, t: float, level: float) -> bool:
    """Whether ``cts_norm(state, flow, t) >= level``, decided without the maximum.

    t and the level must be finite and positive (every norm is >= 0).  The
    decision is ``_reaches`` on the state's bands, whose ladder
    ``tau_d_cts`` keeps across the probes of one search.
    """
    _check_positive(t, "t")
    _check_positive(level, "level")
    return _reaches(_abs_bands(flow, state, t), t, level)


def _reaches(ladder: _Ladder, t: float, level: float) -> bool:
    """Whether the largest band norm of exp(t L) over ``ladder``'s bands is >= level.

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
    for bound, band_map in _band_walk(ladder, t):
        if bound < level:
            return False
        x = band_map()
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
) -> float:
    """Continuous dissipation time: smallest t with operator norm < 1/e.

    The flow is time independent, so the sup over start times in the
    definition is vacuous.  The norm sigma(t) is the exact norm of the
    semi-discrete solution map exp(t L) (``cts_norm``), and the search uses
    it only through sigma(t) >= 1/e: each probe is decided by ``_reaches``,
    the walk of ``cts_norm_reaches``, which stops at the first band that
    reaches 1/e, never builds a band whose heat bound lies below it, and
    decides each band it builds by a certified Cholesky test on its Gram
    matrix, with an SVD only for a norm within a relative 1e-9 of 1/e.
    Each decision equals the comparison of the full SVD maximum with 1/e,
    so the probes and the result are those of the maximum.  One ladder
    (``_Ladder``) serves every probe of the search, so each band's rungs
    are built once.  t is located by bracket doubling and bisection to
    ``rel_tol`` relative (1% by default; a finite value in [1e-12, 1), so
    the bisection ends).  A start past tau_d is walked down by halving; a
    walk that reaches t = 1e-6 without a norm >= 1/e raises
    ``RuntimeError`` instead of bisecting an invalid bracket, and so does a
    band map that is not finite.  The search starts at the power of two
    nearest sqrt(t_cap), t_cap = 1.2 / (nu lambda_1) + 1, a start set by the
    arguments alone; where sigma(t) >= 1/e at exactly the probes below tau_d
    (as the bisection assumes), every power-of-two start ends in the one
    bracket (2^j, 2^(j+1)] holding tau_d, so no start can move tau_d.  The
    doubling stops past 4 t_cap, the largest time the ladder is priced for.
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
    template = CtsState.from_modes({}, k1_max, grid_size, nu, convention)
    t_cap = 1.2 / (nu * template.convention.lambda_1) + 1.0  # trivial heat bound, padded
    ladder = _abs_bands(flow, template, 4.0 * t_cap)  # checks the grid's resolution of the shear

    def reaches(t: float) -> bool:  # sigma(t) >= 1/e
        return _reaches(ladder, t, _E_INV)

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


def transport_gap_cts(state: CtsState, flow: ShearFlow, t: float) -> dict:
    """Squared distance to the inviscid transport and its a priori bound.

    gap^2 = ||theta(t) - phi(t)||^2  with theta evolved at the state's nu
    and phi the exact nu = 0 shear flow;
    bound = (nu / (2 |grad u|)) exp(2 |grad u| t) ||theta_0||_1^2.

    theta(t) is ``evolve_cts``, the map that ``tau_d_cts`` decides, and
    both terms are read on the state's nonzero bands (``_live``): a zero
    band adds nothing to either.  t must lie in (0, 10]; NaN and inf are
    refused.
    """
    if not 0.0 < t <= 10.0:
        raise ValueError(f"t must lie in (0, 10], got {t}")
    grad = flow.grad_norm
    if grad == 0:
        raise ValueError("the transport gap bound nu / (2 |grad u|) needs a flow with grad_norm > 0, got 0")
    _, state = _live(state)
    diff = evolve_cts(state, flow, t).data - advect_exact(state, flow, t).data
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
