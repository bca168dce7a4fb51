"""Pulsed diffusion theta_{n+1} = exp(nu*Lap) U theta_n in Fourier space.

For a toral automorphism the Koopman step is an exact relabeling of modes
(m -> A^T m) followed by diagonal heat damping, so trajectories are exact
up to floating point.  ``evolve_many`` runs the pulses of a battery of
fields: those that share an automorphism, a convention and a mode count
walk as the rows of one array walk, each row bit-identical to its field
run alone.  ``evolve`` is its one-field case and ``step`` the one-pulse
case of ``evolve``.  Mode orbits are int64: a step runs in machine integers
when max|m| times the largest column sum of |A| is below ``MODE_LIMIT``,
which certifies that no product or partial sum can overflow, and in Python
integers otherwise.  Each |k|^2 is rounded to float once, exactly as
float(sum of integer squares) would be (``exact_norm_sq``).  Per-mode
damping exponents nu * S_n(m) reach 1e10 and
beyond within a dozen steps, so all scalar series are accumulated in a
per-step normalized frame: weights are renormalized at every step and the
series are stored as exact-log increments.  Differencing two large
accumulated logs would otherwise wipe out the inequality margins that the
energy identities are tested against.

``TruncatedKoopman`` restricts the Koopman action of an automorphism to a
finite mode ball as the induced partial permutation; the ball goes through
the pulses' one certified push, and each |A^T m|^2 is exact.  The operator
route of ``dissipation`` walks that permutation over the certified
threshold ball: a brute-force oracle for dissipation times, independent of
the lattice route.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np

from .fields import (
    MODE_LIMIT,
    Mode,
    ModeOverflowError,
    SpectralConvention,
    SpectralField,
    ball_modes,
    ball_size_bound,
    require_memory,
)
from .toral import ToralAutomorphism

# peak bytes per ball mode of the operator route after the ball scan: building
# the permutation, then the orbit walk (59-80 measured in d = 2..4)
_ROUTE_BYTES_PER_MODE = 100


@dataclass(frozen=True)
class PulsedSystem:
    """A Koopman action plus a diffusivity.

    ``automorphism`` gives the exact lattice path.  ``nu`` must be finite;
    ``nu = 0`` is refused unless ``allow_inviscid`` is set (pure relabeling,
    used for oracle runs).
    """

    automorphism: ToralAutomorphism
    nu: float
    convention: SpectralConvention
    allow_inviscid: bool = False

    def __post_init__(self):
        if not math.isfinite(self.nu) or self.nu < 0 or (self.nu == 0 and not self.allow_inviscid):
            raise ValueError(f"nu must be finite and positive (or zero with allow_inviscid), got {self.nu}")
        if self.automorphism.dimension != self.convention.dimension:
            raise ValueError("automorphism and convention dimensions differ")


def step(theta: SpectralField, system: PulsedSystem) -> SpectralField:
    """One pulse: relabel modes by A^T, then damp by exp(-nu*lambda_k).

    The relabeling alone is unitary (a permutation of modes); the new
    coefficient at k = A^T m is exp(-nu*lambda(k)) * theta^(m).  This is
    ``evolve``'s one-pulse case, so an empty field raises ValueError.
    """
    return evolve(theta, system, 1).field(1)


def _log(values: np.ndarray) -> np.ndarray:
    """``math.log`` of each entry, which NumPy's vectorized log need not match bit for bit."""
    return np.array([math.log(v) for v in values.tolist()])


def _logsumexp(terms: np.ndarray) -> float:
    finite = terms[np.isfinite(terms)]
    if finite.size == 0:
        return -math.inf
    m = float(np.max(finite))
    return m + math.log(float(np.sum(np.exp(finite - m))))


def _logsumexp_rows(terms: np.ndarray) -> np.ndarray:
    """``_logsumexp`` of each row of a 2-D array.

    A row sum of a C-contiguous array has the bits of ``np.sum`` on that row,
    so all-finite rows go in one reduction; a row with a non-finite term,
    which ``_logsumexp`` drops, changing the summation order, goes alone."""
    top = np.max(terms, axis=1)
    with np.errstate(invalid="ignore"):
        out = top + _log(np.sum(np.exp(terms - top[:, None]), axis=1))
    for row in np.flatnonzero(~np.all(np.isfinite(terms), axis=1)):
        out[row] = _logsumexp(terms[row])
    return out


@dataclass
class Trajectory:
    """Scalar series of a pulsed run in per-step normalized form.

    With w_n the per-mode squared magnitudes at step n (normalized within
    each step to avoid underflow):

      log_energies[n]   ln ||theta_n||^2, accumulated from the increments
      dln[n]            ln(||theta_{n+1}||^2 / ||theta_n||^2)
      log_r[n]          ln(||theta_n||_1^2 / ||theta_n||^2)
      enu_rel[n]        E_nu theta_n / ||theta_n||^2
      uh1_rel[n]        ||U theta_n||_1^2 / ||theta_n||^2
      h1next_rel[n]     ||theta_{n+1}||_1^2 / ||theta_n||^2

    Fields are reconstructed on demand from the exact mode orbits and the
    accumulated per-mode damping: relabeling keeps phases fixed, only
    positive damping factors accumulate.
    """

    system: PulsedSystem
    modes0: List[Mode]
    amps0: np.ndarray
    mode_orbits: List[np.ndarray]  # per step, (n_modes, d) int64, every |coordinate| < MODE_LIMIT
    log_damp: np.ndarray  # (n_steps+1, n_modes): -2 nu S_n(mode_j)
    log_energies: np.ndarray
    dln: np.ndarray
    log_r: np.ndarray
    enu_rel: np.ndarray
    uh1_rel: np.ndarray
    h1next_rel: np.ndarray

    @property
    def n_steps(self) -> int:
        return self.log_damp.shape[0] - 1

    @property
    def energies(self) -> np.ndarray:
        return np.exp(self.log_energies)

    @property
    def log_h1(self) -> np.ndarray:
        return self.log_energies + self.log_r

    @property
    def h1_norms_sq(self) -> np.ndarray:
        return np.exp(self.log_h1)

    @property
    def log_enu(self) -> np.ndarray:
        with np.errstate(divide="ignore"):
            return self.log_energies[:-1] + np.log(self.enu_rel)

    @property
    def enu_values(self) -> np.ndarray:
        return np.exp(self.log_enu)

    def field(self, n: int) -> SpectralField:
        coeffs = {}
        for j, mode in enumerate(self.mode_orbits[n].tolist()):
            damp = math.exp(0.5 * self.log_damp[n, j])
            coeffs[tuple(mode)] = complex(self.amps0[j]) * damp
        return SpectralField(self.system.convention, coeffs)

    def energy_identity_residuals(self) -> np.ndarray:
        """| ||theta_{n+1}||^2 - ||theta_n||^2 + nu E_nu theta_n | / ||theta_n||^2.

        The energy ratio and the dissipation functional come from separate
        reductions of the per-step weights, so this is a genuine floating
        point consistency check of the one-step energy equality.
        """
        return np.abs(1.0 - np.exp(self.dln) - self.system.nu * self.enu_rel)

    def sandwich_residuals(self) -> Tuple[np.ndarray, np.ndarray]:
        """Relative margins of 2||theta_{n+1}||_1^2 <= E_nu theta_n <= 2||U theta_n||_1^2.

        Both returned arrays should be >= 0 up to roundoff; they are scaled
        by E_nu theta_n.
        """
        lower = (self.enu_rel - 2.0 * self.h1next_rel) / self.enu_rel
        upper = (2.0 * self.uh1_rel - self.enu_rel) / self.enu_rel
        return lower, upper

    def inviscid_gap(self, n: int) -> Tuple[float, float]:
        """(gap, bound) of ``inviscid_gap`` at step n <= n_steps.

        Step n of a longer run is bit-identical to the last step of an
        n-step run, so one trajectory serves every n up to its length.
        """
        half = 0.5 * self.log_damp[n, :]  # = -nu S_n per mode
        gap_sq = float(np.sum(np.abs(self.amps0) ** 2 * np.expm1(half) ** 2))
        bound = float(np.sum(np.sqrt(self.system.nu * self.enu_values[:n])))
        return math.sqrt(gap_sq), bound


def exact_norm_sq(k: np.ndarray) -> np.ndarray:
    """float(sum_i k_i^2) per row of an int64 array with every |k_i| < 2^62.

    Each result is the square sum rounded once to nearest-even, bit-identical
    to ``float`` of the Python-int sum.  Rows up to 2^30 square-sum exactly
    in int64.  Otherwise |k_i| = h 2^32 + l, so k_i^2 = h^2 2^64 + 2hl 2^32
    + l^2, accumulated as a 128-bit (hi, lo) pair of uint64 with carries;
    the top 63 or 64 bits of hi 2^64 + lo, with a sticky bit for the bits
    below them, then round exactly as the full value does.
    """
    mag = np.abs(k)
    if mag.size == 0 or int(mag.max()) <= 2**30:
        return np.einsum("ij,ij->i", k, k).astype(float)
    mag = mag.astype(np.uint64)
    high, low = mag >> 32, mag & 0xFFFFFFFF
    hi = np.zeros(k.shape[0], dtype=np.uint64)
    lo = np.zeros(k.shape[0], dtype=np.uint64)
    for h, l in zip(high.T, low.T):
        cross = 2 * h * l  # < 2^63
        hi += h * h + (cross >> 32)
        for part in (l * l, cross << 32):  # the shift keeps the low 32 bits of cross
            lo += part
            hi += lo < part  # carry out of the low word
    out = lo.astype(float)
    big = np.flatnonzero(hi)
    if big.size:
        hi, lo = hi[big], lo[big]
        # bit length of hi, or one more where the float rounds hi up to a power
        # of two; top then keeps 63 bits, still past the 53 + 2 rounding needs
        shift = np.frexp(hi.astype(float))[1].astype(np.uint64)
        top = (hi << (64 - shift)) | (lo >> shift) | ((lo & ((1 << shift) - 1)) != 0)
        out[big] = np.ldexp(top.astype(float), shift.astype(np.int64))
    return out


def _exact_pulse(modes: np.ndarray, matrix) -> np.ndarray:
    """m @ A in Python integers, for a step whose int64 product is not certified."""
    nxt = modes.astype(object) @ np.array(matrix, dtype=object)
    over = np.any(np.abs(nxt) >= MODE_LIMIT, axis=1)
    if over.any():
        raise ModeOverflowError(f"mode {tuple(nxt[over][0])} left the 63-bit range")
    return nxt.astype(np.int64)


def _pusher(matrix) -> Callable[[np.ndarray], np.ndarray]:
    """The certified push of int64 mode rows, m -> m @ A (row convention: A^T m = m @ A).

    With g the largest column sum of |A|, rows with max|m| g < MODE_LIMIT
    push in int64, where no entry or partial sum can overflow; other rows
    push in Python integers (``_exact_pulse``).  g and the int64 matrix are
    formed once, here.
    """
    gain = max(sum(abs(v) for v in column) for column in zip(*matrix))
    a = np.array(matrix, dtype=np.int64) if gain < MODE_LIMIT else None

    def push(modes: np.ndarray) -> np.ndarray:
        if int(np.max(np.abs(modes))) * gain < MODE_LIMIT:
            return modes @ a
        return _exact_pulse(modes, matrix)

    return push


def evolve(theta0: SpectralField, system: PulsedSystem, n: int) -> Trajectory:
    """Run n pulses, recording every scalar series of the energy identities.

    The final energies satisfy
    ||theta_n||^2 = sum_k exp(-2 nu sum_{j=1..n} lambda(A_*^j k)) |theta0^(k)|^2.
    This is ``evolve_many``'s one-field case: an empty field or n < 1 raises
    ValueError, and an initial mode at or past ``MODE_LIMIT``, or a mode
    leaving the 63-bit range during a pulse, raises ModeOverflowError.
    """
    return evolve_many([theta0], [system], n)[0]


def evolve_many(fields: Sequence[SpectralField], systems: Sequence[PulsedSystem], n: int) -> List[Trajectory]:
    """Run n pulses of each field under its system, one trajectory per field.

    Fields whose systems share the automorphism and convention, and whose
    mode counts are equal, walk together as the rows of (fields x modes)
    arrays; nu may differ per row.  Each pulse pushes a whole group in one
    certified product m @ A (``_pusher``), and a mode leaving the 63-bit
    range raises the ModeOverflowError that the single run of its field
    raises.  Every |k|^2 is exact before its one rounding to
    float (``exact_norm_sq``), and each trajectory is bit-identical to its
    field's run alone.

    Every field is checked before the first pulse: an empty field raises
    ValueError and an initial mode at or past ``MODE_LIMIT`` raises
    ModeOverflowError.  The stored series, (n + 1) (8 + 8 d) bytes per
    mode, are priced before anything is allocated: a run that needs more
    than physical memory raises ValueError.
    """
    if n < 1:
        raise ValueError("need at least one step")
    if len(fields) != len(systems):
        raise ValueError(f"{len(fields)} fields but {len(systems)} systems")
    starts = [_start(theta0) for theta0 in fields]
    # each of the n + 1 steps keeps, per mode, one float of log_damp and d int64 orbit coordinates
    modes = sum(len(rows) for _, _, rows in starts)
    words = sum(rows.size for _, _, rows in starts) + modes
    require_memory(8 * (n + 1) * words, f"{n} pulses of {modes} modes")
    groups: Dict[tuple, List[int]] = {}
    for i, (system, (_, _, rows)) in enumerate(zip(systems, starts)):
        groups.setdefault((system.automorphism.matrix, system.convention, rows.shape), []).append(i)
    trajs: List[Trajectory] = [None] * len(fields)
    for rows in groups.values():
        walked = _walk([systems[i] for i in rows], [starts[i] for i in rows], n)
        for i, traj in zip(rows, walked):
            trajs[i] = traj
    return trajs


def _start(theta0: SpectralField) -> Tuple[List[Mode], np.ndarray, np.ndarray]:
    """(sorted modes, their amplitudes, the modes as int64 rows) of an initial field."""
    if not theta0.coefficients:
        raise ValueError("initial field is empty")
    modes0 = sorted(theta0.coefficients.keys())
    amps0 = np.array([theta0.coefficients[m] for m in modes0], dtype=complex)
    try:
        current = np.array(modes0, dtype=np.int64)
        inside = -MODE_LIMIT < int(current.min()) and int(current.max()) < MODE_LIMIT
    except OverflowError:
        inside = False
    if not inside:
        first = next(m for m in modes0 if max(abs(c) for c in m) >= MODE_LIMIT)
        raise ModeOverflowError(f"initial mode {first} is outside the 63-bit range")
    return modes0, amps0, current


def _walk(systems: List[PulsedSystem], starts: list, n: int) -> List[Trajectory]:
    """n pulses of fields that share an automorphism, a convention and a mode count.

    Row f of every (fields x modes) array is field f; each per-trajectory
    series is a reduction along axis 1."""
    nu = np.array([system.nu for system in systems])
    scale = systems[0].convention.scale_factor
    push = _pusher(systems[0].automorphism.matrix)
    n_fields, n_modes = len(starts), len(starts[0][0])
    amps0 = np.array([amps for _, amps, _ in starts])
    current = np.concatenate([rows for _, _, rows in starts])  # field-major (fields * modes, d)

    orbits: List[np.ndarray] = [current]
    log_damp = np.zeros((n_fields, n + 1, n_modes))
    log_energies = np.empty((n_fields, n + 1))
    dln = np.empty((n_fields, n))
    log_r = np.empty((n_fields, n + 1))
    enu_rel = np.empty((n_fields, n))
    uh1_rel = np.empty((n_fields, n))
    h1next_rel = np.empty((n_fields, n))

    logw = 2.0 * np.log(np.abs(amps0))  # unnormalized log weights, step 0
    # bit-identical to SpectralConvention.eigenvalue: exact integer |k|^2, then scale
    lam = scale * exact_norm_sq(current).reshape(n_fields, n_modes)
    log_energies[:, 0] = _logsumexp_rows(logw)

    viscous = nu > 0
    cum = np.zeros((n_fields, n_modes))
    for it in range(n):
        # normalized frame of step `it`
        w = np.exp(logw - np.max(logw, axis=1, keepdims=True))
        total = np.sum(w, axis=1)
        log_r[:, it] = _log(np.sum(w * lam, axis=1) / total)

        nxt = push(current)
        lam_next = scale * exact_norm_sq(nxt).reshape(n_fields, n_modes)
        x = (2.0 * nu)[:, None] * lam_next
        decay = np.exp(-x)
        with np.errstate(invalid="ignore"):  # 0 / 0 on the inviscid rows
            enu_rel[:, it] = np.where(viscous, np.sum(w * (-np.expm1(-x)), axis=1) / total / nu, 0.0)
        uh1_rel[:, it] = np.sum(w * lam_next, axis=1) / total
        h1next_rel[:, it] = np.sum(w * decay * lam_next, axis=1) / total
        # the energy ratio can land deep in the denormal range, where direct
        # summation loses mantissa bits; stay in log space unconditionally
        with np.errstate(divide="ignore"):
            dln[:, it] = _logsumexp_rows(np.log(w) - x) - _log(total)
        log_energies[:, it + 1] = log_energies[:, it] + dln[:, it]

        cum = cum - x
        log_damp[:, it + 1, :] = cum
        logw = logw - x
        lam = lam_next
        orbits.append(nxt)
        current = nxt

    w = np.exp(logw - np.max(logw, axis=1, keepdims=True))
    log_r[:, n] = _log(np.sum(w * lam, axis=1) / np.sum(w, axis=1))

    orbits = [orbit.reshape(n_fields, n_modes, -1) for orbit in orbits]
    return [
        Trajectory(
            system=system,
            modes0=modes0,
            amps0=amps,
            mode_orbits=[orbit[f] for orbit in orbits],
            log_damp=log_damp[f],
            log_energies=log_energies[f],
            dln=dln[f],
            log_r=log_r[f],
            enu_rel=enu_rel[f],
            uh1_rel=uh1_rel[f],
            h1next_rel=h1next_rel[f],
        )
        for f, (system, (modes0, amps, _)) in enumerate(zip(systems, starts))
    ]


def inviscid_gap(theta0: SpectralField, system: PulsedSystem, n: int) -> dict:
    """Distance between the pulsed run and the pure dynamical system.

    gap = ||theta_n - U^n theta0||, bound = sum_{k<n} sqrt(nu E_nu theta_k);
    the contract gap <= bound holds for every n.  Since relabeling keeps
    phases, the gap needs only the accumulated damping per mode:
    gap^2 = sum_k (1 - exp(-nu S_n(k)))^2 |theta0^(k)|^2.
    """
    traj = evolve(theta0, system, n)
    gap, bound = traj.inviscid_gap(n)
    return {"gap": gap, "bound": bound, "trajectory": traj}


# ---------------------------------------------------------------------------
# truncated Koopman operators on a finite mode ball
# ---------------------------------------------------------------------------

@dataclass
class TruncatedKoopman:
    """Koopman action of an automorphism restricted to the modes in a ball.

    ``permutation`` holds, per source mode index, the target index of
    A^T m, or -1 if the image escapes the ball; it is the compression of a
    unitary relabeling (a partial isometry).
    """

    modes: np.ndarray  # (N, d) int64
    permutation: np.ndarray  # (N,) target index or -1

    @property
    def size(self) -> int:
        return self.modes.shape[0]

    @staticmethod
    def from_automorphism(automorphism: ToralAutomorphism, radius: int) -> "TruncatedKoopman":
        """Induced partial permutation m -> A^T m on the ball |m| <= radius.

        Memory is checked first, on the volume of the ball of radius
        R + sqrt(d)/2, which holds the unit cube around every mode.  The ball
        goes through the one certified push of ``evolve_many`` and each
        image's |A^T m|^2 is exact (``exact_norm_sq``), so an image outside
        the ball never wraps into it; an image past the 63-bit range raises
        ModeOverflowError.
        """
        d = automorphism.dimension
        count = ball_size_bound(d, radius)
        require_memory(
            count * _ROUTE_BYTES_PER_MODE,
            f"operator route over the mode ball of radius {radius} in d = {d} ({count:.3e} modes)",
        )
        modes = ball_modes(d, radius)
        images = _pusher(automorphism.matrix)(modes)
        inside = np.flatnonzero(exact_norm_sq(images) <= radius * radius)
        images = images[inside]
        perm = -np.ones(modes.shape[0], dtype=np.int64)
        # ball_modes rows are lexicographic, so their keys are sorted
        perm[inside] = np.searchsorted(_row_keys(modes, radius), _row_keys(images, radius))
        return TruncatedKoopman(modes=modes, permutation=perm)

    def koopman_apply(self, vec: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Apply the truncated Koopman step; returns (result, escaped mass).

        ``vec`` may be (N,) or (N, r).  Escaped mass is per column: the
        squared magnitude relocated outside the ball (before damping)."""
        out = np.zeros_like(vec)
        ok = self.permutation >= 0
        out[self.permutation[ok]] = vec[ok]
        lost = np.sum(np.abs(vec[~ok]) ** 2, axis=0)
        return out, np.atleast_1d(lost)

    def koopman_adjoint(self, vec: np.ndarray) -> np.ndarray:
        out = np.zeros_like(vec)
        ok = self.permutation >= 0
        out[ok] = vec[self.permutation[ok]]
        return out


def _row_keys(rows: np.ndarray, radius: int) -> np.ndarray:
    """Keys of rows in the box [-radius, radius]^d, increasing in lexicographic order."""
    keys = np.zeros(rows.shape[0], dtype=np.int64)
    for column in rows.T:
        keys = keys * (2 * radius + 1) + (column + radius)
    return keys
