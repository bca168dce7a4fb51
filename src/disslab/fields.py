"""Fourier-lattice representation of mean-zero scalar fields on T^d.

Fields are sparse maps from nonzero lattice modes k in Z^d to complex
amplitudes.  Two Laplacian eigenvalue conventions are supported:

* ``lattice``:    lambda_k = |k|^2          (bare lattice squares)
* ``geometric``:  lambda_k = 4 pi^2 |k|^2   (Laplace-Beltrami on R^d/Z^d)

Toral dynamics permute modes, so supports stay finite and no grid or FFT
is ever needed for a field.  ``ball_batches`` is the package's one scan of
the lattice ball |k| <= R: it streams the ball in lexicographic batches of
about ``BATCH_ROWS`` rows, so a scan that reduces as it goes holds one batch
and one (d-1)-box, never the ball; ``ball_modes`` is the concatenation of
its batches, for the operator route, which needs the whole ball.  A sum
over the ball that depends on |k| alone is one pass over the shell counts
r_d(s) = #{k : |k|^2 = s}, which ``shell_counts`` returns without building
a single mode row.  What a scan keeps resident is priced against physical
memory (``require_memory``) and its time, each unit at its measured cost,
against the one work limit ``WORK_SECONDS`` (``require_work``), both before
any allocation.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from itertools import compress
from typing import Callable, Dict, Iterable, Iterator, Optional, Tuple

import numpy as np

Mode = Tuple[int, ...]

# squared-magnitude threshold below which coefficients are dropped
PRUNE_TOL = 1e-30

# pulsed dynamics stores modes as machine integers downstream (CSV/JSON,
# int64 lattice scans), so coordinates must stay inside 63 bits
MODE_LIMIT = 2**62

# rows per batch of a streamed ball scan: slabs are concatenated until a
# batch holds at least this many
BATCH_ROWS = 2**13

# seconds a scan may be priced at (about 7 10^9 shell adds).  Units are
# priced above the cost measured on a 2-vCPU host (Python 3.11, numpy 2.4),
# fastest of three scans: a shell add of ``shell_counts`` took 0.44-0.54 ns
# (d = 3..5, top 10^4 to 4 10^6), a ``ball_batches`` row 20-38 ns (d = 2..4,
# about 1.4e7 rows)
WORK_SECONDS = 5.0
_SHELL_ADD_SECONDS = 0.7e-9
_BALL_ROW_SECONDS = 50e-9


class ModeOverflowError(OverflowError):
    """A lattice mode left the 63-bit integer range."""


@dataclass(frozen=True)
class SpectralConvention:
    """Dimension and eigenvalue scaling of the Fourier lattice."""

    dimension: int
    scaling: str = "lattice"  # "lattice" or "geometric"

    def __post_init__(self):
        if self.dimension not in (2, 3, 4):
            raise ValueError(f"dimension must be 2, 3 or 4, got {self.dimension}")
        if self.scaling not in ("lattice", "geometric"):
            raise ValueError(f"unknown eigenvalue scaling {self.scaling!r}")

    @property
    def scale_factor(self) -> float:
        return 1.0 if self.scaling == "lattice" else 4.0 * math.pi**2

    def eigenvalue(self, mode: Mode) -> float:
        """Laplacian eigenvalue of a single mode (positive for mode != 0)."""
        return self.scale_factor * float(sum(int(c) * int(c) for c in mode))

    @property
    def lambda_1(self) -> float:
        """Smallest nonzero eigenvalue, attained at |k| = 1."""
        return self.scale_factor

    def convert_nu(self, nu: float, target: "SpectralConvention") -> float:
        """Rescale a diffusivity so that nu*lambda_k is convention independent."""
        return nu * self.scale_factor / target.scale_factor


def integer_tuple(values: Iterable, name: str, part: str) -> Tuple[int, ...]:
    """``values`` as Python ints, refusing any value whose ``int()`` differs from it.

    The ValueError names the values and the first such value, as in
    "mode (1.7, 0) has a coordinate that is not an integer: 1.7".
    """
    raw = tuple(values)
    for v in raw:
        try:
            exact = int(v) == v
        except (OverflowError, TypeError, ValueError):  # int(inf), int(None), int(nan)
            exact = False
        if not exact:
            raise ValueError(f"{name} {raw} has {part} that is not an integer: {v!r}")
    return tuple(int(v) for v in raw)


def _check_mode(mode: Iterable[int], dimension: int) -> Mode:
    m = integer_tuple(mode, "mode", "a coordinate")
    if len(m) != dimension:
        raise ValueError(f"mode {m} has wrong dimension (expected {dimension})")
    return m


def _integer_coefficients(coefficients: Dict, dimension: int) -> Optional[Dict[Mode, complex]]:
    """The pruned coefficients of valid integer modes, checked as one int64 array.

    Returns None, for ``SpectralField``'s per-mode checks to accept or reject
    in order, unless every key is an integer d-tuple other than mode 0 and
    every amplitude converts to a complex number of finite squared magnitude.
    """
    try:
        keys = np.array(list(coefficients))
        amps = [complex(a) for a in coefficients.values()]
    except (ValueError, TypeError, OverflowError):
        return None
    if keys.dtype != np.int64 or keys.shape != (len(amps), dimension) or not np.all(np.any(keys, axis=1)):
        return None
    with np.errstate(over="ignore"):
        mag_sq = np.abs(np.array(amps, dtype=complex)) ** 2
    if not np.all(np.isfinite(mag_sq)):
        return None  # abs(a) ** 2 overflows or a part is not finite: left to the per-mode path
    keep = mag_sq > PRUNE_TOL
    if not keep.all():
        keys, amps = keys[keep], list(compress(amps, keep))
    return dict(zip(map(tuple, keys.tolist()), amps))


@dataclass(frozen=True)
class SpectralField:
    """Sparse mean-zero field: finite map from nonzero modes to amplitudes.

    Amplitudes are complex and need not be hermitian symmetric.  Mode 0 and
    an amplitude with a part that is not finite raise ValueError; an
    amplitude of squared magnitude at most ``PRUNE_TOL`` is dropped.
    """

    convention: SpectralConvention
    coefficients: Dict[Mode, complex] = field(default_factory=dict)

    def __post_init__(self):
        clean = _integer_coefficients(self.coefficients, self.convention.dimension)
        if clean is None:
            clean = {}
            for mode, amp in self.coefficients.items():
                m = _check_mode(mode, self.convention.dimension)
                if all(c == 0 for c in m):
                    raise ValueError("mode 0 is not allowed (fields are mean zero)")
                a = complex(amp)
                if not (math.isfinite(a.real) and math.isfinite(a.imag)):
                    raise ValueError(f"mode {m} has an amplitude that is not finite: {a}")
                if abs(a) ** 2 > PRUNE_TOL:
                    clean[m] = a
        object.__setattr__(self, "coefficients", clean)

    def modes(self):
        return self.coefficients.keys()

    def amplitude(self, mode: Iterable[int]) -> complex:
        return self.coefficients.get(_check_mode(mode, self.convention.dimension), 0j)

    def norm_sq(self) -> float:
        """Parseval: squared L^2 norm is the sum of squared magnitudes."""
        return float(sum(abs(a) ** 2 for a in self.coefficients.values()))

    def norm(self) -> float:
        return math.sqrt(self.norm_sq())

    def to_json(self) -> str:
        payload = {
            "convention": {"dimension": self.convention.dimension, "scaling": self.convention.scaling},
            "modes": [
                {"k": list(m), "re": a.real, "im": a.imag}
                for m, a in sorted(self.coefficients.items())
            ],
        }
        return json.dumps(payload, indent=1)

    @staticmethod
    def from_json(text: str) -> "SpectralField":
        payload = json.loads(text)
        conv = SpectralConvention(payload["convention"]["dimension"], payload["convention"]["scaling"])
        coeffs = {}
        for rec in payload["modes"]:
            mode = tuple(rec["k"])
            if mode in coeffs:
                raise ValueError(f"mode {mode} appears twice in the field JSON")
            coeffs[mode] = complex(rec["re"], rec["im"])
        return SpectralField(conv, coeffs)


def sobolev_norm(field: SpectralField, s: float) -> float:
    """Homogeneous Sobolev norm (sum_k lambda_k^s |coef|^2)^(1/2).

    Negative s is allowed (dual norms); s = 0 is the L^2 norm; the empty
    field has norm 0.
    """
    total = 0.0
    for mode, amp in field.coefficients.items():
        lam = field.convention.eigenvalue(mode)
        total += lam**s * abs(amp) ** 2
    return math.sqrt(total)


def dissipation_functional(
    field: SpectralField, pushforward: Callable[[Mode], Mode], nu: float
) -> float:
    """One-step dissipation of the pulsed system.

    Returns (1/nu) * sum_k (1 - exp(-2 nu lambda_k)) |(U theta)^(k)|^2 where
    the Koopman image has (U theta)^(pushforward(m)) = theta^(m).  As
    nu -> 0+ this tends to 2 ||theta||_1^2.
    """
    if not 0 < nu < math.inf:
        raise ValueError(f"nu must be finite and positive, got {nu}")
    total = 0.0
    for mode, amp in field.coefficients.items():
        image = _check_mode(pushforward(mode), field.convention.dimension)
        lam = field.convention.eigenvalue(image)
        total += -math.expm1(-2.0 * nu * lam) * abs(amp) ** 2
    return total / nu


def random_sparse_field(
    convention: SpectralConvention,
    rng: np.random.Generator,
    n_modes: int = 8,
    kmax: int = 8,
) -> SpectralField:
    """Random sparse field with modes drawn from the box [-kmax, kmax]^d."""
    coeffs: Dict[Mode, complex] = {}
    d = convention.dimension
    while len(coeffs) < n_modes:
        mode = tuple(int(c) for c in rng.integers(-kmax, kmax + 1, size=d))
        if all(c == 0 for c in mode):
            continue
        coeffs[mode] = complex(rng.standard_normal(), rng.standard_normal())
    return SpectralField(convention, coeffs)


def require_memory(need: float, what: str) -> None:
    """Raise ValueError when ``need`` bytes exceed the host's physical memory."""
    have = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    if need > have:
        raise ValueError(f"{what} needing {need / 1e9:.1f} GB, above the {have / 1e9:.1f} GB of physical memory")


def require_work(seconds: float, what: str) -> None:
    """Raise ValueError when a scan, ``what`` with its unit count, is priced above ``WORK_SECONDS``."""
    if seconds > WORK_SECONDS:
        raise ValueError(f"{what} priced at {seconds:.3g} s, above the work limit of {WORK_SECONDS:g} s")


def ball_size_bound(dimension: int, radius: int) -> float:
    """Upper bound on the number of modes |k| <= radius: the volume of the
    ball of radius R + sqrt(d)/2, which holds the unit cube around each."""
    return math.pi ** (dimension / 2) / math.gamma(dimension / 2 + 1) * (radius + math.sqrt(dimension) / 2) ** dimension


def ball_batches(dimension: int, radius: int) -> Iterator[np.ndarray]:
    """The nonzero integer modes with |k| <= radius, in lexicographic batches.

    Each batch is an (n, d) int64 array; the batches concatenate to
    ``ball_modes``.  The ball is cut into slabs of the first coordinate i,
    each the rows of the (d-1)-box of radius R with |rest|^2 <= R^2 - i^2,
    and consecutive slabs are concatenated until a batch holds at least
    ``BATCH_ROWS`` rows.

    Resident are the (d-1)-box with its norms (8d + 9 bytes per box row)
    and at most three batches of under BATCH_ROWS + box rows each: the
    slabs of the next batch, their concatenation and the batch a consumer
    still holds, 24d bytes per row.  Both are priced against physical
    memory (tracemalloc peaks of 0.7-1.0 of the price for d = 2..4 when the
    batches are dropped), and the ``ball_size_bound`` rows against the work
    limit, before any allocation.
    """
    rows = ball_size_bound(dimension, radius)
    require_work(rows * _BALL_ROW_SECONDS, f"mode ball scan of radius {radius} in d = {dimension} ({rows:.3e} rows)")
    box = (2 * radius + 1) ** (dimension - 1)
    require_memory(
        box * (8 * dimension + 9) + 24 * dimension * (BATCH_ROWS + box),
        f"mode ball scan of radius {radius} in d = {dimension} (a (d-1)-box of {box:.3e} rows)",
    )
    rng = np.arange(-radius, radius + 1, dtype=np.int64)
    grids = np.meshgrid(np.zeros(1, dtype=np.int64), *([rng] * (dimension - 1)), indexing="ij", copy=False)
    widest = np.stack(grids, axis=-1).reshape(-1, dimension)  # the slab i = 0 of the box
    norm_sq = np.einsum("ij,ij->i", widest, widest)
    pending, rows = [], 0
    for first in range(-radius, radius + 1):
        keep = norm_sq <= radius * radius - first * first
        if first == 0:
            keep &= norm_sq > 0
        slab = widest[keep]
        slab[:, 0] = first
        pending.append(slab)
        rows += len(slab)
        if rows >= BATCH_ROWS:
            yield np.concatenate(pending)
            pending, rows = [], 0
    if pending:
        yield np.concatenate(pending)


def ball_modes(dimension: int, radius: int) -> np.ndarray:
    """All nonzero integer modes with |k| <= radius, shape (N, d), int64.

    Rows come in lexicographic order: the concatenation of ``ball_batches``.
    The batches and their concatenation hold the ball twice, 16d bytes per
    mode, plus the scan's (d-1)-box; priced at 16d + 16 bytes per mode of
    ``ball_size_bound`` (tracemalloc peaks of 32-53 per bounded mode in
    d = 2..4 for R >= 10), a ball that would not fit in physical memory
    raises ValueError before any allocation.
    """
    count = ball_size_bound(dimension, radius)
    require_memory(
        count * (16 * dimension + 16),
        f"mode ball of radius {radius} in d = {dimension} ({count:.3e} modes)",
    )
    return np.concatenate(list(ball_batches(dimension, radius)))


# the r_2 quadrant is counted in this many blocks of rows, so that the sums
# of one block take 8 / SHELL_BLOCKS bytes per shell
SHELL_BLOCKS = 2


def shell_counts(dimension: int, top: int) -> np.ndarray:
    """Exact counts r_d(s) = #{k in Z^d : |k|^2 = s} for s = 0..top, int64.

    Every k != 0 of Z^2 is one of the four quarter turns of exactly one
    point of the quadrant 0 < x <= R, 0 <= y <= R, R = isqrt(top), so r_2
    is four times the bincount of x^2 + y^2 over that quadrant, taken in
    ``SHELL_BLOCKS`` blocks of rows with the sums past top clipped into one
    spare bin.  Each further coordinate x adds shifted copies in place,
    r_{j+1}(s) = sum_{|x| <= R} r_j(s - x^2).  No mode rows are built: the
    work is O(top) for r_2 plus O(R top) per further dimension, against
    the O(top^{d/2}) rows of the ball.  The counts, one block's bincount
    and its sums hold about 16 + 8 / SHELL_BLOCKS bytes per shell, and the
    further coordinates the counts and their double, 16; priced at 28
    bytes per shell (tracemalloc peaks of 20.0-25.9 per shell in d = 2..4
    for top >= 10^3, under 5 kB in all for smaller top), a request that
    would not fit in physical memory raises ValueError before any
    allocation.

    The further coordinates cost at most (d - 2) R (top + 1) element adds,
    priced against the work limit before any allocation.
    """
    if dimension < 2 or top < 0:
        raise ValueError(f"shell counts need dimension >= 2 and top >= 0, got {dimension} and {top}")
    require_memory(28 * (top + 1), f"lattice shell counts up to |k|^2 = {top} ({top + 1} shells)")
    root = math.isqrt(top)
    adds = (dimension - 2) * root * (top + 1)
    require_work(adds * _SHELL_ADD_SECONDS, f"shell counts up to |k|^2 = {top} in d = {dimension} ({adds:.3e} adds)")
    squares = np.arange(root + 1, dtype=np.int64) ** 2
    counts = np.zeros(top + 2, dtype=np.int64)  # bin top + 1 gathers every sum past top
    for rows in np.array_split(squares[1:], SHELL_BLOCKS):
        sums = np.add.outer(rows, squares).ravel()
        counts += np.bincount(np.minimum(sums, top + 1, out=sums), minlength=top + 2)
    counts = counts[: top + 1]
    counts *= 4  # each point of the quadrant x > 0, y >= 0 stands for its four rotations
    counts[0] = 1
    doubled = np.empty_like(counts)
    for _ in range(dimension - 2):
        np.multiply(counts, 2, out=doubled)
        for x in range(1, root + 1):
            counts[x * x:] += doubled[: top + 1 - x * x]
    return counts
