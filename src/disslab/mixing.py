"""Strong and weak mixing rates of toral automorphisms.

Strong rate: the correlation |<U^n f, g>| of an automorphism is bounded by
e(n) ||f||_alpha ||g||_beta with the lattice envelope

    e(n) = sup_{k != 0} lambda(B^n k)^{-alpha/2} lambda(k)^{-beta/2},

B = (A^T)^{-1}.  The sup is exact: since |B^n k| >= 1 on the punctured
lattice, every mode that can beat an incumbent lies in one integer
ellipsoid per 4-adic shell 4^j <= |k| < 4^(j+1), and
``dissipation.carried_short_vectors`` enumerates those ellipsoids exactly
(Fincke-Pohst on integral LLL data), each shell's LLL starting from the
basis it reduced to at the previous n.

Weak rate: the Cesaro quantity ((1/n) sum_k |<U^k f, g>|^2)^{1/2} evaluated
exactly from the mode orbits (big integers, orbits never wrap), plus the
certified two-term lattice envelope whose n-exponent reproduces the
alpha = 0 regime table (1/2 above d/2, beta/d below).  Its ball sums
A(m) = sum_{0<|k|<=m} |k|^{-2 beta} depend on |k| alone, so they run over
the exact shell counts r_d(s) of ``fields.shell_counts`` and build no mode
row; ``lattice_ball_sum`` states the error bound of its floats.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .dissipation import carried_short_vectors
from .fields import SpectralConvention, SpectralField, require_memory, shell_counts
from .fitting import LineFit, line_fit
from .toral import ToralAutomorphism

Mode = Tuple[int, ...]


# ---------------------------------------------------------------------------
# rate functions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RateFunction:
    """Decreasing positive rate h with its (alpha, beta) class.

    kind "power": h(t) = c * t^{-p}; kind "exponential": h(t) = c1 e^{-c2 t};
    kind "tabulated": monotone samples (t_i, h_i) with log-linear
    interpolation.  Every parameter and sample must be finite, the law
    parameters positive and the class exponents nonnegative.  Strong mode
    requires alpha > 0 and beta > 0; weak mode tabulated rates must respect
    the 1/sqrt(n) floor.
    """

    kind: str
    params: Tuple[float, ...] = ()
    samples: Optional[Tuple[Tuple[float, ...], Tuple[float, ...]]] = None
    alpha: float = 1.0
    beta: float = 1.0
    mode: str = "strong"

    def __post_init__(self):
        if self.kind not in ("power", "exponential", "tabulated"):
            raise ValueError(f"unknown rate kind {self.kind!r}")
        if self.mode not in ("strong", "weak"):
            raise ValueError(f"unknown mode {self.mode!r}")
        for name, value in (("alpha", self.alpha), ("beta", self.beta)):
            if not 0 <= value < math.inf:
                raise ValueError(f"class exponents must be finite and nonnegative, got {name} = {value}")
        if self.mode == "strong" and (self.alpha == 0 or self.beta == 0):
            raise ValueError("strong rates need alpha > 0 and beta > 0")
        if self.kind in ("power", "exponential"):
            names = ("c", "p") if self.kind == "power" else ("c1", "c2")
            for name, value in zip(names, self.params, strict=True):
                if not 0 < value < math.inf:
                    raise ValueError(f"{self.kind} law needs finite {names[0]} > 0 and {names[1]} > 0, "
                                     f"got {name} = {value}")
        else:
            t, h = self.samples
            t = np.asarray(t, dtype=float)
            h = np.asarray(h, dtype=float)
            if not (np.all(np.isfinite(t)) and np.all(np.isfinite(h))):
                raise ValueError("tabulated times and rates must be finite")
            if np.any(t <= 0):
                raise ValueError(f"tabulated times must be positive, got t = {t[t <= 0].tolist()}")
            if t.size < 2 or np.any(np.diff(t) <= 0):
                raise ValueError("tabulated times must be strictly increasing")
            if np.any(h <= 0) or np.any(np.diff(h) >= 0):
                raise ValueError("tabulated rate must be strictly positive and decreasing")
            if self.mode == "weak":
                floor = 1.0 / np.sqrt(np.maximum(t, 1.0))
                if np.any(h < floor * (1.0 - 1e-12)):
                    raise ValueError("weak rates cannot decay faster than 1/sqrt(n)")
            object.__setattr__(self, "samples", (tuple(t), tuple(h)))

    @staticmethod
    def power(c: float, p: float, alpha: float = 1.0, beta: float = 1.0, mode: str = "strong"):
        return RateFunction("power", (c, p), alpha=alpha, beta=beta, mode=mode)

    @staticmethod
    def exponential(c1: float, c2: float, alpha: float = 1.0, beta: float = 1.0, mode: str = "strong"):
        return RateFunction("exponential", (c1, c2), alpha=alpha, beta=beta, mode=mode)

    @staticmethod
    def tabulated(t, h, alpha: float = 1.0, beta: float = 1.0, mode: str = "strong"):
        return RateFunction("tabulated", (), (tuple(t), tuple(h)), alpha=alpha, beta=beta, mode=mode)

    def __call__(self, t: float) -> float:
        if self.kind == "power":
            c, p = self.params
            return c * float(t) ** (-p) if t > 0 else math.inf
        if self.kind == "exponential":
            c1, c2 = self.params
            return c1 * math.exp(-c2 * float(t))
        ts, hs = self.samples
        if t <= ts[0]:
            return hs[0]
        if t >= ts[-1]:
            return hs[-1]
        i = bisect_right(ts, t) - 1
        w = (math.log(t) - math.log(ts[i])) / (math.log(ts[i + 1]) - math.log(ts[i]))
        return math.exp((1 - w) * math.log(hs[i]) + w * math.log(hs[i + 1]))

    def inverse(self, y: float) -> float:
        """h^{-1}(y): the time at which the rate has dropped to y (0 if y >= h(0+))."""
        if y <= 0:
            raise ValueError("inverse needs y > 0")
        if self.kind == "power":
            c, p = self.params
            return (c / y) ** (1.0 / p)
        if self.kind == "exponential":
            c1, c2 = self.params
            return max(0.0, math.log(c1 / y) / c2)
        ts, hs = self.samples
        if y >= hs[0]:
            return float(ts[0])
        if y <= hs[-1]:
            return float(ts[-1])
        # hs decreasing: find bracketing samples and invert the log-linear chord
        i = 0
        while hs[i + 1] > y:
            i += 1
        w = (math.log(hs[i]) - math.log(y)) / (math.log(hs[i]) - math.log(hs[i + 1]))
        return math.exp((1 - w) * math.log(ts[i]) + w * math.log(ts[i + 1]))


def transfer_rate(
    h: RateFunction, alpha_new: float, beta_new: float, lambda_1: float
) -> RateFunction:
    """Move a strong (alpha, beta) rate to class (alpha', beta').

    h'(t) = lambda_1^{-gamma} h(t)^delta with

      gamma = [ (a'-a)^+ + (b'-b)^+ + (b' ^ b)(1 - a'/a)^+ + (a' ^ a)(1 - b'/b)^+ ] / 2
      delta = (a' ^ a)(b' ^ b) / (a b).

    The identity case a' = a, b' = b returns h unchanged.
    """
    if h.mode != "strong":
        raise ValueError("rate transfer applies to strong rates")
    a, b = h.alpha, h.beta
    ap, bp = alpha_new, beta_new
    if min(a, b, ap, bp) <= 0:
        raise ValueError("all class exponents must be positive")
    if lambda_1 <= 0:
        raise ValueError("lambda_1 must be positive")
    gamma, delta = transfer_exponents(a, b, ap, bp)
    prefactor = lambda_1 ** (-gamma)
    if h.kind == "exponential":
        c1, c2 = h.params
        return RateFunction.exponential(prefactor * c1**delta, delta * c2, ap, bp)
    if h.kind == "power":
        c, p = h.params
        return RateFunction.power(prefactor * c**delta, delta * p, ap, bp)
    ts, hs = h.samples
    new_hs = tuple(prefactor * v**delta for v in hs)
    return RateFunction.tabulated(ts, new_hs, ap, bp)


def transfer_exponents(alpha: float, beta: float, alpha_new: float, beta_new: float) -> Tuple[float, float]:
    """(gamma, delta) of the rate transfer, for direct formula checks."""
    pos = lambda x: max(x, 0.0)
    gamma = 0.5 * (
        pos(alpha_new - alpha)
        + pos(beta_new - beta)
        + min(beta_new, beta) * pos(1 - alpha_new / alpha)
        + min(alpha_new, alpha) * pos(1 - beta_new / beta)
    )
    delta = (min(alpha_new, alpha) * min(beta_new, beta)) / (alpha * beta)
    return gamma, delta


# ---------------------------------------------------------------------------
# strong envelope
# ---------------------------------------------------------------------------

@dataclass
class MixingEnvelope:
    """Lattice correlation envelope e(n), n = 0..n_max, exact up to float evaluation.

    ``values[n]`` is the max of one float expression over a candidate set
    that holds every mode able to beat it (see ``strong_envelope``), so it
    is the float sup over all nonzero k.
    """

    n_values: np.ndarray
    values: np.ndarray
    alpha: float
    beta: float

    def slope_fit(self, n_lo: int, n_hi: int) -> LineFit:
        mask = (self.n_values >= n_lo) & (self.n_values <= n_hi)
        return line_fit(self.n_values[mask], np.log(self.values[mask]))


# log2 slack on P = 1/v0: covers the float rounding of the evaluated terms
# (a few ulps) and of the shell bounds, so every mode whose float term can
# reach v0 is enumerated
_LOG2_PAD = 1e-9

# 4-adic shells 4^j <= |k| < 4^(j+1) that one n of the strong envelope may
# enumerate.  Shell j costs one warm LLL and one enumeration on integers of
# about 4j bits, so an n of S shells costs about S^2: for the cat map
# (alpha = 1, 2-vCPU host) 501 at n = 1 (beta = 5e-4) took 0.19-0.20 s and
# 582 at n = 2 (beta = 1e-3) took 0.24-0.33 s, against 0.60 and 0.82-0.91 s
# with one unit-basis LLL per dyadic shell 2^j <= |k| < 2^(j+1) enumerating
# both points of each pair +-k.  The README, verify and demo runs need at
# most 9 shells per n, the tier-1 tests 21
STRONG_SHELL_LIMIT = 500


def _envelope_terms(power: np.ndarray, modes: List[Mode], alpha: float, beta: float) -> np.ndarray:
    """lambda(B^n k)^{-alpha/2} lambda(k)^{-beta/2} per mode, with B^n k exact."""
    k = np.array(modes, dtype=object).T  # (d, N): one column per mode
    bk = power @ k
    lam_bk = np.sum(bk.astype(float) ** 2, axis=0)
    return lam_bk ** (-alpha / 2.0) * np.sum(k.astype(float) ** 2, axis=0) ** (-beta / 2.0)


def strong_envelope(automorphism: ToralAutomorphism, alpha: float, beta: float, n_max: int) -> MixingEnvelope:
    """Evaluate e(n) = sup_{k != 0} lambda(B^n k)^{-alpha/2} lambda(k)^{-beta/2} exactly.

    For each n the incumbent v0 is the best of the unit vectors and the
    previous n's maximiser; set P = 1/v0, padded outward.  On the punctured
    lattice |B^n k| >= 1, so a mode that beats v0 has |k|^beta < P, that is
    |k| < 4^(J+1) with J = floor(log2 P / (2 beta)).  In the shell
    4^j <= |k| < 4^(j+1), j = 0..J, such a mode has

        |B^n k|^alpha < P |k|^(-beta) <= P 4^(-j beta),

    so |B^n k|^2 <= C_j with the integer C_j >= (P 4^(-j beta))^(2/alpha),
    and |k|^2 < 16^(j+1).  Adding 16^(j+1) times the first to C_j times the
    second gives

        k^T (16^(j+1) G_n + C_j I) k <= 2 C_j 16^(j+1),   G_n = (B^n)^T B^n,

    an integer ellipsoid that the exact enumerator lists point by point.
    k and -k have the same term, so one of each pair is listed; extra
    candidates cannot change a max, so the candidates are not deduplicated
    across shells.  B^n and G_n are exact Python integers at every n.

    Shell j starts its LLL from the reduced basis it had at the previous n
    (a shell new at this n from shell j - 1's, the first from the unit
    basis): G_n grows by a near-constant factor per step, so that basis is
    nearly reduced and few swaps remain.  The enumeration lists every pair
    +-k of the ellipsoid in whatever basis it runs, so the candidate terms,
    and hence every e(n), do not depend on the carried basis; only the
    maximiser reported among tied modes may.

    An n that needs more than ``STRONG_SHELL_LIMIT`` shells (a small beta)
    raises ValueError before its first shell.
    """
    if not (0 < alpha < math.inf and 0 < beta < math.inf):
        raise ValueError(f"strong envelopes need finite alpha > 0 and beta > 0, got alpha = {alpha}, beta = {beta}")
    if n_max < 0:
        raise ValueError(f"strong envelopes need n_max >= 0, got n_max = {n_max}")
    require_memory(16 * (n_max + 1), f"strong envelope of {n_max + 1} values")  # values and n_values
    report = automorphism.conditions()
    if not report.ergodic_irreducible:
        raise ValueError("strong envelope requires conditions C1 and C2")
    d = automorphism.dimension
    b = np.array(automorphism.inverse_transpose, dtype=object)  # Python-int entries: exact at every n
    units = [tuple(int(i == j) for j in range(d)) for i in range(d)]
    power = np.array(units, dtype=object)  # B^n
    incumbents = units
    bases: List[List[List[int]]] = []  # bases[j]: shell j's reduced basis (rows) at the last n it ran
    values = np.empty(n_max + 1)
    for n in range(n_max + 1):
        v0 = float(np.max(_envelope_terms(power, incumbents, alpha, beta)))
        if v0 == 0.0:
            raise OverflowError(f"e({n}) underflows float64; reduce n_max")
        log_p = _LOG2_PAD - math.log2(v0)
        shells = math.floor(log_p / (2.0 * beta)) + 1
        if shells > STRONG_SHELL_LIMIT:
            raise ValueError(f"strong envelope at n = {n} needs {shells} shells, above the limit of "
                             f"{STRONG_SHELL_LIMIT}; raise beta = {beta} or lower n_max")
        gram = (power.T @ power).tolist()
        candidates = list(incumbents)
        for j in range(shells):
            c_j = math.ceil(2.0 ** ((log_p - 2.0 * j * beta) * 2.0 / alpha))
            shell = 16 ** (j + 1)
            form = [[shell * gram[i][l] + c_j * (i == l) for l in range(d)] for i in range(d)]
            start = bases[j] if j < len(bases) else bases[-1] if bases else None
            points, basis = carried_short_vectors(form, 2 * c_j * shell, start)
            candidates += points
            bases[j:j + 1] = [basis]  # replaces shell j's basis, or appends a new shell's
        terms = _envelope_terms(power, candidates, alpha, beta)
        best = int(np.argmax(terms))
        values[n] = float(terms[best])
        incumbents = units + [candidates[best]]
        power = b @ power
    return MixingEnvelope(n_values=np.arange(n_max + 1), values=values, alpha=alpha, beta=beta)


# ---------------------------------------------------------------------------
# weak rates
# ---------------------------------------------------------------------------

def weak_cesaro(
    automorphism: ToralAutomorphism,
    f: SpectralField,
    g: SpectralField,
    n: int,
) -> np.ndarray:
    """((1/n) sum_{k<n} |<U^k f, g>|^2)^{1/2} for all n' = 1..n, exactly.

    Correlations are evaluated as sum_m f^(m) conj(g^(A_*^k m)): the f
    support is pushed forward exactly (arbitrary-precision integers, the
    orbit of a mode never revisits the lattice ball once it leaves).
    """
    if not f.coefficients or not g.coefficients:
        raise ValueError("f and g need nonempty supports")
    if n < 1:
        raise ValueError(f"weak Cesaro averages need n_max >= 1, got n_max = {n}")
    require_memory(8 * n, f"weak Cesaro series of {n} values")
    fmodes = list(f.coefficients.items())
    gdict: Dict[Mode, complex] = dict(g.coefficients.items())
    cum = 0.0
    out = np.empty(n)
    current: List[Tuple[Mode, complex]] = [(m, a) for m, a in fmodes]
    for k in range(n):
        corr = 0j
        for m, a in current:
            gm = gdict.get(m)
            if gm is not None:
                corr += a * gm.conjugate()
        cum += abs(corr) ** 2
        out[k] = math.sqrt(cum / (k + 1))
        current = [(automorphism.push_mode(m), a) for m, a in current]
    return out


def lattice_ball_sum(d: int, beta: float, m_max: int) -> np.ndarray:
    """Partial sums A(m) = sum_{0 < |k| <= m} |k|^{-2 beta} for m = 1..m_max.

    Every mode of the shell |k|^2 = s carries the same weight s^{-beta}, so
    the sum needs only the shell counts r_d(s) of ``fields.shell_counts``:
    one running sum of r_d(s) s^{-beta} over the nonempty shells in
    increasing s, read at the last shell s <= m^2.  Every term is positive
    and each product r_d(s) s^{-beta} is rounded once, so each A(m) lies
    within a relative gamma_{n+1} = (n+1) u / (1 - (n+1) u), u = 2^-53, of
    the exact sum of the float weights s^{-beta}, where n is the number of
    nonempty shells up to m^2 (Higham, Accuracy and Stability of Numerical
    Algorithms, ch. 4).

    Resident are the shell counts (8 bytes per shell) and, per nonempty
    shell, its s, its product and one temporary (24 bytes), with ufunc
    buffers of at most 64 kB; priced at 40 bytes per shell plus 64 kB
    (tracemalloc peaks of 20.0-38.7 bytes per shell in d = 2..4 for
    top >= 10^4, and at most 0.72 of the price below) against physical
    memory before the counts are built, which price their own memory and
    work.
    """
    top = m_max * m_max
    require_memory(40 * (top + 1) + 2**16, f"lattice ball sum of radius {m_max} in d = {d} ({top + 1} shells)")
    counts = shell_counts(d, top)
    shells = np.flatnonzero(counts[1:])
    shells += 1
    sums = shells.astype(float)
    sums **= -beta
    sums *= counts[shells]
    np.cumsum(sums, out=sums)
    return sums[np.searchsorted(shells, np.arange(1, m_max + 1) ** 2, side="right") - 1]


def weak_rate_envelope(d: int, beta: float, n_values: Sequence[int]) -> np.ndarray:
    """Certified weak-rate envelope for the alpha = 0 class.

    h_w(n)^2 = min_m [ A(m)/n + m^{-2 beta} ] with A(m) the exact lattice
    ball sum: the two-term splitting of the Cesaro average over scales.
    Its n-exponent is 1/2 when beta > d/2 and beta/d when beta < d/2.  For
    ergodic irreducible automorphisms the realizable Cesaro sup is Theta(
    n^{-1/2}) for every beta > 0, so the sub-1/2 regime is exhibited by
    this envelope rather than by any concrete pair (f, g).
    """
    if not 0 < beta < math.inf:
        raise ValueError(f"weak envelopes need a finite beta > 0, got beta = {beta}")
    n_values = np.asarray(n_values, dtype=float)
    if n_values.size == 0 or not np.all(n_values >= 1):
        raise ValueError(f"weak envelopes need n >= 1 (n_max >= 1), got n = {n_values.tolist()}")
    m_cap = int(math.ceil(max(n_values.max() ** (1.0 / d) * 4.0, 8.0)))
    sums = lattice_ball_sum(d, beta, m_cap)
    scale_terms = np.arange(1, m_cap + 1, dtype=float) ** (-2.0 * beta)
    out = np.empty(n_values.size)
    for i, n in enumerate(n_values):
        out[i] = math.sqrt(float(np.min(sums / n + scale_terms)))
    return out


def weak_series(
    automorphism: ToralAutomorphism, convention: SpectralConvention, alpha: float, beta: float, n_max: int
) -> Tuple[Sequence[int], np.ndarray]:
    """The weak values (n, value) for the class (alpha, beta).

    At alpha = 0 the certified ``weak_rate_envelope`` on about 40 log-spaced
    n up to n_max; otherwise the Cesaro series n = 1..n_max of the first unit
    mode with itself, which uses neither exponent but takes only finite ones.
    """
    if alpha == 0:
        # no log grid reaches an n_max below 1; the envelope's own check reports it
        ns = [n_max]
        if n_max >= 1:
            # sorted(set()), not np.unique, which loads numpy.ma
            ns = sorted(set(np.round(np.logspace(0, math.log10(n_max), 40)).astype(int).tolist()))
        return ns, weak_rate_envelope(automorphism.dimension, beta, ns)
    for name, value in (("alpha", alpha), ("beta", beta)):
        if not math.isfinite(value):
            raise ValueError(f"weak Cesaro series need a finite {name}, got {name} = {value}")
    unit = SpectralField(convention, {tuple([1] + [0] * (automorphism.dimension - 1)): 1.0})
    return range(1, n_max + 1), weak_cesaro(automorphism, unit, unit, n_max)


# ---------------------------------------------------------------------------
# rate fitting
# ---------------------------------------------------------------------------

def fit_rate(n_values: Sequence[float], values: Sequence[float]) -> RateFunction:
    """Model selection between power and exponential decay on samples.

    Power:       ln v linear in ln n.   Exponential: ln v linear in n.
    The better RMS residual on the log scale wins; the fitted rate is a
    strong rate of class (1, 1).
    """
    n_values = np.asarray(n_values, dtype=float)
    values = np.asarray(values, dtype=float)
    if n_values.size < 5:
        raise ValueError("need at least 5 samples")
    if np.any(values <= 0):
        raise ValueError("samples must be positive")
    if np.any(np.diff(values) > 0):
        raise ValueError("samples must be non-increasing")
    pos = n_values > 0
    logv = np.log(values)
    fit_exp = line_fit(n_values, logv)
    fit_pow = line_fit(np.log(n_values[pos]), logv[pos])
    if fit_exp.residual <= fit_pow.residual:
        return RateFunction.exponential(math.exp(fit_exp.intercept), -fit_exp.slope)
    return RateFunction.power(math.exp(fit_pow.intercept), -fit_pow.slope)
