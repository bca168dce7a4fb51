"""Fourier-lattice representation of mean-zero scalar fields on T^d.

Fields are sparse maps from nonzero lattice modes k in Z^d to complex
amplitudes.  Two Laplacian eigenvalue conventions are supported:

* ``lattice``:    lambda_k = |k|^2          (bare lattice squares)
* ``geometric``:  lambda_k = 4 pi^2 |k|^2   (Laplace-Beltrami on R^d/Z^d)

Toral dynamics permute modes, so supports stay finite and no grid or FFT
is ever needed for a field; ``ball_modes`` is the package's one scan of
the lattice ball |k| <= R.  Sums over the ball that depend on |k| alone
need only the shell counts r_d(s) = #{k : |k|^2 = s}, which
``shell_counts`` returns without building a single mode row.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from itertools import compress
from typing import Callable, Dict, Iterable, Optional, Tuple

import numpy as np

Mode = Tuple[int, ...]

# squared-magnitude threshold below which coefficients are dropped
PRUNE_TOL = 1e-30

# pulsed dynamics stores modes as machine integers downstream (CSV/JSON,
# int64 lattice scans), so coordinates must stay inside 63 bits
MODE_LIMIT = 2**62

# element adds that ``shell_counts`` may spend on the coordinates past the
# second; priced in adds, not seconds, so that a refusal is reproducible
SHELL_ADDS_LIMIT = 10**10


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


def _check_mode(mode: Iterable[int], dimension: int) -> Mode:
    raw = tuple(mode)
    try:
        m = tuple(int(c) for c in raw)
    except (OverflowError, TypeError):  # int(inf), int(None)
        m = None
    if m != raw:
        raise ValueError(f"mode {raw} has a coordinate that is not an integer")
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
        return None  # abs(a) ** 2 overflows or is nan: left to the per-mode path
    keep = mag_sq > PRUNE_TOL
    if not keep.all():
        keys, amps = keys[keep], list(compress(amps, keep))
    return dict(zip(map(tuple, keys.tolist()), amps))


@dataclass(frozen=True)
class SpectralField:
    """Sparse mean-zero field: finite map from nonzero modes to amplitudes.

    ``enforce_reality`` asserts hermitian symmetry coef(-k) == conj(coef(k)),
    i.e. the field is real valued on the torus.
    """

    convention: SpectralConvention
    coefficients: Dict[Mode, complex] = field(default_factory=dict)
    enforce_reality: bool = False

    def __post_init__(self):
        clean = _integer_coefficients(self.coefficients, self.convention.dimension)
        if clean is None:
            clean = {}
            for mode, amp in self.coefficients.items():
                m = _check_mode(mode, self.convention.dimension)
                if all(c == 0 for c in m):
                    raise ValueError("mode 0 is not allowed (fields are mean zero)")
                a = complex(amp)
                if abs(a) ** 2 > PRUNE_TOL:
                    clean[m] = a
        object.__setattr__(self, "coefficients", clean)
        if self.enforce_reality:
            for m, a in clean.items():
                neg = tuple(-c for c in m)
                b = clean.get(neg, 0j)
                if abs(b - a.conjugate()) > 1e-12 * max(1.0, abs(a)):
                    raise ValueError(f"reality violated at mode {m}")

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
    if nu <= 0:
        raise ValueError(f"nu must be positive, got {nu}")
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


def ball_size_bound(dimension: int, radius: int) -> float:
    """Upper bound on the number of modes |k| <= radius: the volume of the
    ball of radius R + sqrt(d)/2, which holds the unit cube around each."""
    return math.pi ** (dimension / 2) / math.gamma(dimension / 2 + 1) * (radius + math.sqrt(dimension) / 2) ** dimension


def ball_modes(dimension: int, radius: int) -> np.ndarray:
    """All nonzero integer modes with |k| <= radius, shape (N, d), int64.

    Rows come in lexicographic order.  The ball is built one slab of the
    first coordinate i at a time, each slab the rows of the (d-1)-box of
    radius R with |rest|^2 <= R^2 - i^2, so the scan holds the ball twice
    (the slabs and their concatenation) plus one (d-1)-box, never the
    (2R+1)^d box.  That is 16d bytes per mode plus the (d-1)-box; priced at
    16d + 16 bytes per mode of ``ball_size_bound`` (tracemalloc peaks of
    32-56 per bounded mode in d = 2..4 for R >= 4), a ball that would not fit
    in physical memory raises ValueError before any allocation.
    """
    count = ball_size_bound(dimension, radius)
    require_memory(
        count * (16 * dimension + 16),
        f"mode ball of radius {radius} in d = {dimension} ({count:.3e} modes)",
    )
    rng = np.arange(-radius, radius + 1, dtype=np.int64)
    grids = np.meshgrid(np.zeros(1, dtype=np.int64), *([rng] * (dimension - 1)), indexing="ij", copy=False)
    widest = np.stack(grids, axis=-1).reshape(-1, dimension)  # the slab i = 0 of the box
    norm_sq = np.einsum("ij,ij->i", widest, widest)
    slabs = []
    for first in range(-radius, radius + 1):
        keep = norm_sq <= radius * radius - first * first
        if first == 0:
            keep &= norm_sq > 0
        slab = widest[keep]
        slab[:, 0] = first
        slabs.append(slab)
    return np.concatenate(slabs)


def shell_counts(dimension: int, top: int) -> np.ndarray:
    """Exact counts r_d(s) = #{k in Z^d : |k|^2 = s} for s = 0..top, int64.

    r_2 is one ``np.bincount`` of x^2 + y^2 over the box |x|, |y| <= R,
    R = isqrt(top); each further coordinate x adds shifted copies,
    r_{j+1}(s) = sum_{|x| <= R} r_j(s - x^2).  No mode rows are built: the
    work is O(top) for r_2 plus O(R top) per further dimension, against
    the O(top^{d/2}) rows of the ball.  The box sums and their bincount
    hold 8 (2R+1)^2 + 8 (2R^2 + 1) bytes, about 48 per shell; priced at
    56 bytes per shell (tracemalloc peaks of 48.0-48.5 per shell in
    d = 2..4 for top >= 10^4, under 2 kB in all for smaller top), a request
    that would not fit in physical memory raises ValueError before any
    allocation.

    The further coordinates cost at most (d - 2) R (top + 1) element adds.
    Above ``SHELL_ADDS_LIMIT`` = 10^10 adds, about 4 s on a 2-vCPU host
    (0.39-0.44 ns per priced add for d = 3..5), the request also raises
    ValueError before any allocation.
    """
    if dimension < 2 or top < 0:
        raise ValueError(f"shell counts need dimension >= 2 and top >= 0, got {dimension} and {top}")
    require_memory(56 * (top + 1), f"lattice shell counts up to |k|^2 = {top} ({top + 1} shells)")
    root = math.isqrt(top)
    adds = (dimension - 2) * root * (top + 1)
    if adds > SHELL_ADDS_LIMIT:
        raise ValueError(
            f"lattice shell counts up to |k|^2 = {top} in d = {dimension} need {adds:.3e} element adds, "
            f"above the limit of {SHELL_ADDS_LIMIT:.0e}"
        )
    squares = np.arange(-root, root + 1, dtype=np.int64) ** 2
    counts = np.bincount(np.add.outer(squares, squares).ravel(), minlength=top + 1)[: top + 1].copy()
    for _ in range(dimension - 2):
        doubled = 2 * counts
        grown = counts.copy()
        for x in range(1, root + 1):
            grown[x * x:] += doubled[: top + 1 - x * x]
        counts = grown
    return counts
