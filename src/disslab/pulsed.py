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

A run stores scalar series only, 6 floats per field and step.  The walk
holds per-mode state (orbit rows, log-weights, |k|^2) for one block of
steps, so its memory does not grow with the step count;
``Trajectory.state`` and ``Trajectory.field`` replay the orbit and the
damping of any step with the walk's own arithmetic.

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
from typing import Callable, Dict, Iterator, List, Sequence, Tuple

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

# mode-steps of per-mode state one block of the pulse walk holds: a group of
# (fields x modes) rows advances max(1, BLOCK_MODE_STEPS // rows) steps per block
BLOCK_MODE_STEPS = 4096


@dataclass(frozen=True)
class PulsedSystem:
    """A Koopman action plus a diffusivity.

    ``automorphism`` gives the exact lattice path.  ``nu`` must be finite
    and positive: the pure relabeling, nu = 0, is compared with a run
    through its damping alone (``inviscid_gap``), never run itself.
    """

    automorphism: ToralAutomorphism
    nu: float
    convention: SpectralConvention

    def __post_init__(self):
        if not (math.isfinite(self.nu) and self.nu > 0):
            raise ValueError(f"nu must be finite and positive, got {self.nu}")
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
    return np.array([math.log(v) for v in values.ravel().tolist()]).reshape(values.shape)


def _exp(values: np.ndarray) -> np.ndarray:
    """``np.exp`` of each entry, bit for bit.

    An entry at or below -746 has exp exactly 0.0 and is left at 0.0
    uncomputed: NumPy's underflow path takes 4-14 ns per entry, and about
    100 ns where the result is subnormal, against about 1 ns for a normal
    one, and the weights of modes damped out of a run take it at every step.
    """
    dead = values <= -746.0
    if not dead.any():
        return np.exp(values)
    out = np.zeros(values.shape)
    live = ~dead
    out[live] = np.exp(values[live])
    return out


def _logsumexp_rows(terms: np.ndarray) -> np.ndarray:
    """ln sum exp of the finite terms of each row of a 2-D array (-inf for a row with none).

    Each row has the bits of the one-row computation on its finite terms
    alone: their max m, then m + ln sum exp(t - m), with ``np.sum`` over
    the row.  A row sum of a C-contiguous array has the bits of ``np.sum``
    on that row, so rows with the same number of finite terms are
    compacted into one array, in row order, and reduced together."""
    finite = np.isfinite(terms)
    counts = np.count_nonzero(finite, axis=1)
    out = np.full(terms.shape[0], -math.inf)
    for count in set(counts.tolist()) - {0}:
        rows = np.flatnonzero(counts == count)
        kept = terms[rows]
        if count < terms.shape[1]:
            kept = kept[finite[rows]].reshape(rows.size, count)
        top = np.max(kept, axis=1)
        out[rows] = top + _log(np.sum(_exp(kept - top[:, None]), axis=1))
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

    Only these series are stored, about 6 floats per step, whatever the
    mode count.  ``state(n)`` replays the exact mode orbit and the
    accumulated per-mode damping of step n; ``field(n)`` rebuilds theta_n
    from them: relabeling keeps phases fixed, only positive damping factors
    accumulate.
    """

    system: PulsedSystem
    modes0: List[Mode]
    amps0: np.ndarray
    log_energies: np.ndarray
    dln: np.ndarray
    log_r: np.ndarray
    enu_rel: np.ndarray
    uh1_rel: np.ndarray
    h1next_rel: np.ndarray

    @property
    def n_steps(self) -> int:
        return self.dln.shape[0]

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
        return self.log_energies[:-1] + np.log(self.enu_rel)

    @property
    def enu_values(self) -> np.ndarray:
        return np.exp(self.log_enu)

    def state(self, n: int) -> Tuple[np.ndarray, np.ndarray]:
        """(mode rows, -2 nu S_n per mode) at step 0 <= n <= n_steps.

        The rows are the (n_modes, d) int64 orbit of ``modes0`` after n
        pulses and -2 nu S_n(m) is the accumulated log-damping of each
        mode's squared magnitude.  Both are replayed from step 0 through the
        walk's own blocks (``_orbit_blocks``) and repeated subtraction, so
        they are bit-identical to the walk's; replay costs n pulses of one
        field and holds one block.
        """
        if not 0 <= n <= self.n_steps:
            raise ValueError(f"step {n} is outside 0..{self.n_steps}")
        modes = np.array(self.modes0, dtype=np.int64)
        cum = np.zeros(len(self.modes0))
        scale = self.system.convention.scale_factor
        for orbit, lam in _orbit_blocks(self.system.automorphism.matrix, modes, n, scale):
            for x in (2.0 * self.system.nu) * lam:
                cum = cum - x
            modes = orbit[-1]
        return modes, cum

    def field(self, n: int) -> SpectralField:
        modes, cum = self.state(n)
        coeffs = {}
        for j, mode in enumerate(modes.tolist()):
            coeffs[tuple(mode)] = complex(self.amps0[j]) * math.exp(0.5 * cum[j])
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
        n-step run, so one trajectory serves every n up to its length.  The
        gap replays the damping of step n (``state``).
        """
        half = 0.5 * self.state(n)[1]  # = -nu S_n per mode
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
        if int(np.abs(modes).max()) * gain < MODE_LIMIT:
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

    Every field is checked before the first pulse: an empty field or one
    whose convention differs from its system's raises ValueError and an
    initial mode at or past ``MODE_LIMIT`` raises ModeOverflowError.  A run
    keeps its scalar series, 6 (n + 1) floats per field, and the per-mode
    state of one block of one group (``_block_words``); neither grows with
    the mode count times n.  That price is checked before anything is
    allocated, and a run that needs more than physical memory raises
    ValueError.
    """
    if n < 1:
        raise ValueError("need at least one step")
    if len(fields) != len(systems):
        raise ValueError(f"{len(fields)} fields but {len(systems)} systems")
    for theta0, system in zip(fields, systems):
        own, run = theta0.convention, system.convention
        if own != run:
            raise ValueError(f"a {own.dimension}-D {own.scaling} field cannot run under a "
                             f"{run.dimension}-D {run.scaling} system")
    starts = [_start(theta0) for theta0 in fields]
    groups: Dict[tuple, List[int]] = {}
    for i, (system, (_, _, rows)) in enumerate(zip(systems, starts)):
        groups.setdefault((system.automorphism.matrix, system.convention, rows.shape), []).append(i)
    block = max((_block_words(len(group) * n_modes, d, n) for (_, _, (n_modes, d)), group in groups.items()),
                default=0)
    modes = sum(len(rows) for _, _, rows in starts)
    # the six scalar series, 6 floats per field-step, and one block
    require_memory(8 * (6 * len(fields) * (n + 1) + block), f"{n} pulses of {modes} modes")
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


def _block_steps(rows: int) -> int:
    """Steps per block of a walk over ``rows`` (fields x modes) rows."""
    return max(1, BLOCK_MODE_STEPS // rows)


def _block_words(rows: int, d: int, n: int) -> int:
    """Words that one block of an n-step walk over ``rows`` rows of d coordinates holds at its peak.

    Priced at 20 + 5 d words per mode-step, counting the block's start as
    one more step.  tracemalloc peaks of whole walks, less their series,
    were 28.7, 33.7 and 38.7 words per mode-step in d = 2, 3 and 4 over
    40-step blocks, and 41, 49 and 57 words per row over one-step blocks
    (coordinates past 2^30, where ``exact_norm_sq`` takes its 128-bit path).
    """
    return (min(n, _block_steps(rows)) + 1) * rows * (20 + 5 * d)


def _orbit_blocks(matrix, current: np.ndarray, n: int, scale: float) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
    """Yield (orbit rows, scale |k|^2) of steps 1..n of the rows ``current``, a block of steps at a time.

    Each block is a (b, rows, d) int64 array pushed one step at a time by
    the certified push, with b = ``_block_steps(rows)`` (fewer in the last
    block), and its (b, rows) eigenvalues, each |k|^2 exact before its one
    rounding (``exact_norm_sq``), from one call per block.
    """
    push = _pusher(matrix)
    rows, d = current.shape
    block = _block_steps(rows)
    for start in range(0, n, block):
        orbit = np.empty((min(block, n - start), rows, d), dtype=np.int64)
        for j in range(orbit.shape[0]):
            orbit[j] = current = push(current)
        yield orbit, scale * exact_norm_sq(orbit.reshape(-1, d)).reshape(orbit.shape[:2])


def _walk(systems: List[PulsedSystem], starts: list, n: int) -> List[Trajectory]:
    """n pulses of fields that share an automorphism, a convention and a mode count.

    Row f of every (fields x modes) array is field f.  The walk advances a
    block of b = ``_block_steps`` steps at a time (``_orbit_blocks``) and
    holds per-mode state for that block alone: each per-step series is a
    reduction over the last axis of (b, fields, modes) arrays.  Log-weights
    carry from step to step by one subtraction per step, and log-energies
    by ``np.add.accumulate`` along the step axis, which adds in step order,
    so every value is bit-identical to a one-step walk's."""
    nu = np.array([system.nu for system in systems])
    scale = systems[0].convention.scale_factor
    n_fields, n_modes = len(starts), len(starts[0][0])
    amps0 = np.array([amps for _, amps, _ in starts])
    current = np.concatenate([rows for _, _, rows in starts])  # field-major (fields * modes, d)

    log_energies = np.empty((n_fields, n + 1))
    dln = np.empty((n_fields, n))
    log_r = np.empty((n_fields, n + 1))
    enu_rel = np.empty((n_fields, n))
    uh1_rel = np.empty((n_fields, n))
    h1next_rel = np.empty((n_fields, n))

    def frame(logw: np.ndarray, lam: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The normalized weights w of ``logw``, their sums and ln(||theta||_1^2 / ||theta||^2) per row."""
        w = _exp(logw - np.max(logw, axis=-1, keepdims=True))
        total = np.sum(w, axis=-1)
        return w, total, _log(np.sum(w * lam, axis=-1) / total)

    logw = 2.0 * np.log(np.abs(amps0))  # unnormalized log weights, step 0
    # bit-identical to SpectralConvention.eigenvalue: exact integer |k|^2, then scale
    lam = scale * exact_norm_sq(current).reshape(n_fields, n_modes)
    log_energies[:, 0] = _logsumexp_rows(logw)

    start = 0
    for orbit, lam_next in _orbit_blocks(systems[0].automorphism.matrix, current, n, scale):
        b = orbit.shape[0]
        steps = slice(start, start + b)
        lam_next = lam_next.reshape(b, n_fields, n_modes)
        x = (2.0 * nu)[:, None] * lam_next
        # log-weights of steps start .. start + b, each step one subtraction
        # as in a one-step walk (NumPy's accumulate would give the same bits
        # but costs 3-14 ns per element)
        logws = np.empty((b + 1, n_fields, n_modes))
        logws[0] = logw
        for j in range(b):
            np.subtract(logws[j], x[j], out=logws[j + 1])
        lams = np.concatenate([lam[None], lam_next[:-1]])
        logw, lam = logws[-1], lam_next[-1]

        w, total, log_r_block = frame(logws[:-1], lams)
        log_r[:, steps] = log_r_block.T
        decay = _exp(-x)
        enu_rel[:, steps] = (np.sum(w * (-np.expm1(-x)), axis=-1) / total / nu).T
        uh1_rel[:, steps] = (np.sum(w * lam_next, axis=-1) / total).T
        h1next_rel[:, steps] = (np.sum(w * decay * lam_next, axis=-1) / total).T
        # the energy ratio can land deep in the denormal range, where direct
        # summation loses mantissa bits; stay in log space unconditionally.
        # A zero weight gives the term ln 0 - x = -inf, set without NumPy's
        # slow log of 0 (4-5 ns per entry against 1)
        live = w > 0.0
        terms = np.full(w.shape, -math.inf)
        terms[live] = np.log(w[live]) - x[live]
        dln[:, steps] = (_logsumexp_rows(terms.reshape(-1, n_modes)).reshape(b, n_fields) - _log(total)).T
        log_energies[:, start:start + b + 1] = np.add.accumulate(
            np.concatenate([log_energies[:, start, None], dln[:, steps]], axis=1), axis=1)
        start += b

    log_r[:, n] = frame(logw, lam)[2]
    return [
        Trajectory(
            system=system,
            modes0=modes0,
            amps0=amps,
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
