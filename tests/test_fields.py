import ast
import collections
import itertools
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import disslab
from disslab import fields
from disslab.fields import (
    SpectralConvention,
    SpectralField,
    ball_modes,
    dissipation_functional,
    random_sparse_field,
    shell_counts,
    sobolev_norm,
)


def _inner(f, g):
    return sum(a * g.coefficients.get(m, 0j).conjugate() for m, a in f.coefficients.items())


def test_sobolev_single_mode_lattice(lattice2):
    f = SpectralField(lattice2, {(1, 0): 1.0})
    assert sobolev_norm(f, 1.0) == pytest.approx(1.0, abs=1e-15)


def test_sobolev_mode_34(lattice2):
    f = SpectralField(lattice2, {(3, 4): 2.0})
    assert sobolev_norm(f, 1.0) == pytest.approx(10.0, rel=1e-14)


def test_sobolev_negative_order_geometric(geometric2):
    f = SpectralField(geometric2, {(1, 0): 1.0})
    assert sobolev_norm(f, -1.0) == pytest.approx(1.0 / (2 * math.pi), rel=1e-14)


def test_sobolev_empty_field(lattice2):
    assert sobolev_norm(SpectralField(lattice2, {}), 1.0) == 0.0


def test_mode_zero_rejected(lattice2):
    with pytest.raises(ValueError):
        SpectralField(lattice2, {(0, 0): 1.0})


@pytest.mark.parametrize("mode", [(1.7, 0), (1, 0, 0)], ids=["fractional", "wrong-dimension"])
def test_amplitude_checks_its_mode(lattice2, mode):
    f = SpectralField(lattice2, {(1, 0): 1.0})
    assert f.amplitude((1, 0)) == 1.0
    with pytest.raises(ValueError, match="mode"):
        f.amplitude(mode)


def _built_or_refused(convention, coefficients):
    """(key, coordinate types, amplitude) per kept mode, or (error type, message)."""
    try:
        field = SpectralField(convention, coefficients)
    except Exception as exc:  # noqa: BLE001 - the refusal itself is compared
        return type(exc), str(exc)
    return [(m, [type(c) for c in m], type(m), a) for m, a in field.coefficients.items()]


@pytest.mark.parametrize("coefficients", [
    {(1, 0): 1.0, (-3, 7): 2 - 1j, (0, 5): 1e-16, (4, 4): 0.5j},  # one amplitude pruned
    {(np.int64(2), np.int64(-1)): 1.0, (True, 0): 3},  # numpy and bool coordinates
    {(1.0, 2): 1.0, (3, 4): 1.0},  # integral float
    {(1.5, 2): 1.0},
    {(1, 2, 3): 1.0},
    {(1, 2): 1.0, (0, 0): 1.0},
    {(0, 0): 1.0, (1, 2): "x"},  # mode 0 before a bad amplitude
    {(1, 2): "x", (0, 0): 1.0},  # a bad amplitude before mode 0
    {(0, 0): 1.0, (1, 2): 10**400},  # mode 0 before an amplitude past float range
    {(1, 2): 1e200, (0, 0): 1.0},  # abs(a) ** 2 overflows in Python floats before mode 0
    {(1, 2): complex("nan"), (2, 1): complex("inf")},
    {(2**63, 1): 1.0},
    {(2**70, 1): 1.0},
    {(True, False): 1.0},
    {(1, 2): 1.0, (3,): 1.0},
    {5: 1.0},
    {},
], ids=lambda c: repr(list(c.items())[:2]))
def test_integer_key_check_matches_per_mode_checks(lattice2, monkeypatch, coefficients):
    # the one-array check of an integer key set accepts, prunes and keys
    # (tuples of Python ints) as the per-mode checks do, and any other key
    # set reaches those checks and their messages
    batched = _built_or_refused(lattice2, coefficients)
    monkeypatch.setattr(fields, "_integer_coefficients", lambda *args: None)
    assert batched == _built_or_refused(lattice2, coefficients)


_NOT_FINITE = (ValueError, r"mode \(1, 2\) has an amplitude that is not finite")


@pytest.mark.parametrize("amp, error", [
    (complex("nan"), _NOT_FINITE),
    (complex("inf"), _NOT_FINITE),
    (complex(1.0, -math.inf), _NOT_FINITE),
    (complex(math.nan, 0.0), _NOT_FINITE),
    (1e200, (OverflowError, "out of range")),  # finite, but abs(a) ** 2 overflows
])
def test_amplitudes_must_be_finite(lattice2, amp, error):
    # a nan amplitude used to be pruned and an infinite one kept
    with pytest.raises(error[0], match=error[1]):
        SpectralField(lattice2, {(3, 1): 1.0, (1, 2): amp})


def test_parseval(lattice2, rng):
    for _ in range(20):
        f = random_sparse_field(lattice2, rng)
        assert f.norm_sq() == pytest.approx(sobolev_norm(f, 0.0) ** 2, rel=1e-12)


def test_interpolation_inequality(lattice2, rng):
    for _ in range(200):
        f = random_sparse_field(lattice2, rng, n_modes=6, kmax=9)
        s = rng.uniform(0, 1)
        lhs = sobolev_norm(f, s)
        rhs = f.norm() ** (1 - s) * sobolev_norm(f, 1.0) ** s
        assert lhs <= rhs * (1 + 1e-12)


@pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
def test_duality_pairing(lattice2, rng, alpha):
    for _ in range(50):
        f = random_sparse_field(lattice2, rng, n_modes=5, kmax=7)
        g = random_sparse_field(lattice2, rng, n_modes=5, kmax=7)
        lhs = abs(_inner(f, g))
        rhs = sobolev_norm(f, alpha) * sobolev_norm(g, -alpha)
        assert lhs <= rhs * (1 + 1e-12)


def test_dissipation_functional_identity_map(lattice2):
    f = SpectralField(lattice2, {(1, 0): 1.0})
    val = dissipation_functional(f, lambda m: m, 0.1)
    assert val == pytest.approx(-math.expm1(-0.2) / 0.1, rel=1e-14)


def test_dissipation_functional_small_nu_limit(lattice2, rng):
    f = random_sparse_field(lattice2, rng, n_modes=6, kmax=5)
    val = dissipation_functional(f, lambda m: m, 1e-8)
    assert val == pytest.approx(2.0 * sobolev_norm(f, 1.0) ** 2, rel=1e-6)


def test_dissipation_functional_cat_pushforward(lattice2, cat):
    f = SpectralField(lattice2, {(1, 0): 1.0})
    val = dissipation_functional(f, cat.push_mode, 0.01)
    assert val == pytest.approx(-math.expm1(-0.1) / 0.01, rel=1e-14)


def test_dissipation_functional_rejects_nonpositive_nu(lattice2):
    f = SpectralField(lattice2, {(1, 0): 1.0})
    for nu in (0.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="nu must be finite and positive"):
            dissipation_functional(f, lambda m: m, nu)


def test_json_round_trip(lattice2, rng):
    f = random_sparse_field(lattice2, rng)
    g = SpectralField.from_json(f.to_json())
    assert g.convention == f.convention
    assert g.coefficients == f.coefficients


def test_nu_conversion():
    lat = SpectralConvention(2, "lattice")
    geo = SpectralConvention(2, "geometric")
    nu = 1e-3
    # nu * lambda_k must be invariant under the conversion
    assert lat.convert_nu(nu, geo) * geo.eigenvalue((2, 1)) == pytest.approx(
        nu * lat.eigenvalue((2, 1)), rel=1e-14
    )


# ---------------------------------------------------------------------------
# the lattice-ball scan
# ---------------------------------------------------------------------------

@settings(max_examples=30)
@given(st.integers(2, 4), st.integers(0, 6))
def test_ball_modes_match_product_scan(dimension, radius):
    # lexicographic order, as itertools.product yields the box
    expected = [k for k in itertools.product(range(-radius, radius + 1), repeat=dimension)
                if 0 < sum(c * c for c in k) <= radius * radius]
    got = ball_modes(dimension, radius)
    assert got.dtype == np.int64
    assert got.shape == (len(expected), dimension)
    assert [tuple(int(c) for c in row) for row in got] == expected


@pytest.mark.parametrize("batch_rows", [2, 16])
@pytest.mark.parametrize("dimension, radius", [(2, 1), (2, 2), (2, 30), (3, 6), (4, 4)])
def test_ball_modes_are_the_concatenated_batches(monkeypatch, dimension, radius, batch_rows):
    whole = ball_modes(dimension, radius)  # at the default batch size
    monkeypatch.setattr(fields, "BATCH_ROWS", batch_rows)
    batches = list(fields.ball_batches(dimension, radius))
    assert np.concatenate(batches).tobytes() == whole.tobytes()
    assert ball_modes(dimension, radius).tobytes() == whole.tobytes()
    # each batch but the last reaches the batch size
    assert all(len(batch) >= batch_rows for batch in batches[:-1])


def _traced_peak(scan):
    tracemalloc.start()
    try:
        scan()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("scan", [
    lambda: shell_counts(2, 10**5),
    lambda: shell_counts(3, 10**4),
    lambda: shell_counts(4, 10**3),
    lambda: collections.deque(fields.ball_batches(2, 300), maxlen=0),
    lambda: collections.deque(fields.ball_batches(3, 40), maxlen=0),
    lambda: collections.deque(fields.ball_batches(4, 12), maxlen=0),
], ids=["shells-2", "shells-3", "shells-4", "batches-2", "batches-3", "batches-4"])
def test_scans_stay_within_their_memory_price(monkeypatch, scan):
    prices = []
    monkeypatch.setattr(fields, "require_memory", lambda need, what: prices.append(need))
    peak = _traced_peak(scan)
    assert prices and peak <= max(prices)


def test_one_module_scans_the_lattice_ball():
    # every lattice-ball scan goes through fields.ball_batches, and sums over
    # |k| alone (the weak envelope, the Weyl count) scan no ball at all
    src = Path(disslab.__file__).parent
    scanners = sorted(p.name for p in src.glob("*.py") if "np.meshgrid" in p.read_text())
    assert scanners == ["fields.py"]
    for name in ("mixing.py", "bounds.py"):
        assert "ball_modes" not in (src / name).read_text()


def test_one_module_holds_the_work_limit():
    # the scans price their own units in seconds; the one limit and its check
    # live in fields, and no module keeps a limit of its own
    src = Path(disslab.__file__).parent
    holders = {}
    for path in src.glob("*.py"):
        tree = ast.parse(path.read_text())
        names = [t.id for node in tree.body if isinstance(node, (ast.Assign, ast.AnnAssign))
                 for t in (node.targets if isinstance(node, ast.Assign) else [node.target]) if isinstance(t, ast.Name)]
        names += [node.name for node in tree.body if isinstance(node, ast.FunctionDef)]
        limits = sorted(n for n in names if "LIMIT" in n or "WORK" in n or n == "require_work")
        if limits:
            holders[path.name] = limits
    assert holders == {"fields.py": ["MODE_LIMIT", "WORK_SECONDS", "require_work"]}
    assert sorted(p.name for p in src.glob("*.py") if "WORK_SECONDS" in p.read_text()) == ["fields.py"]


@settings(max_examples=40)
@given(st.integers(2, 4), st.integers(0, 15))
def test_shell_counts_match_ball_norms(dimension, radius):
    norms = np.sum(ball_modes(dimension, radius) ** 2, axis=1)
    expected = np.bincount(norms, minlength=radius * radius + 1)[: radius * radius + 1]
    expected[0] += 1  # the origin, which the ball leaves out
    got = shell_counts(dimension, radius * radius)
    assert got.dtype == np.int64
    assert got.tolist() == expected.tolist()
