import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from disslab import cli, shear
from disslab.fields import SpectralConvention
from disslab.fitting import line_fit
from disslab.shear import (
    CtsState,
    ShearFlow,
    advect_exact,
    cts_norm,
    cts_norm_reaches,
    energy_identity_defects,
    evolve_cts,
    shear_correlation,
    tau_d_cts,
    transport_gap_cts,
)


@pytest.fixture(scope="module")
def flow():
    return ShearFlow.sinusoidal()


@pytest.fixture(scope="module")
def conv():
    return SpectralConvention(2, "geometric")


def make_state(conv, nu, modes=None, k1_max=8, grid=64):
    modes = modes or {(1, 0): 1.0, (3, 2): 0.3}
    return CtsState.from_modes(modes, k1_max, grid, nu, conv)


# [13/13] Pade coefficients b_0..b_13 (Higham, SIAM J. Matrix Anal. Appl. 26, 2005)
_PADE13 = (64764752532480000.0, 32382376266240000.0, 7771770303897600.0, 1187353796428800.0, 129060195264000.0,
           10559470521600.0, 670442572800.0, 33522128640.0, 1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0)


def _expm(a):
    # exp(a) by the [13/13] Pade approximant, scaled to ||a||_1 <= theta_13 and
    # squared back: a kernel other than the ladder's Taylor polynomial
    squarings = max(0, math.ceil(math.log2(max(float(np.abs(a).sum(axis=0).max()), 1e-300) / 5.371920351148152)))
    a = a / 2.0**squarings
    b, eye = _PADE13, np.eye(a.shape[0])
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a4 @ a2
    u = a @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2) + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * eye)
    v = a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2) + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * eye
    x = np.linalg.solve(v - u, v + u)
    for _ in range(squarings):
        x = x @ x
    return x


def _generator(flow, state, i):
    # L of the signed band state.k1[i] in the y-Fourier basis, built as
    # F diag(-2 pi i k1 v(y_j)) F^-1 - nu diag(lambda), without the ladder's lag index
    m = state.grid_size
    v = flow.values(np.arange(m) / m)
    transport = np.fft.fft(v[:, None] * np.fft.ifft(np.eye(m), axis=0), axis=0)
    return -2j * math.pi * float(state.k1[i]) * transport - np.diag(state.nu * state.eigenvalues()[i])


def _band_norm(state, flow, t, i):
    # the 2-norm of exp(t L) on the signed band state.k1[i], by the reference exponential
    return np.linalg.norm(_expm(t * _generator(flow, state, i)), 2)


def _strang(state, flow, t, dt):
    # the FFT collocation solver of the Strang splitting of the same
    # semi-discrete flow, an oracle independent of the ladder: half diffusion,
    # exact advection, half diffusion per step of t / ceil(t / dt), with the
    # two half diffusions between consecutive advections fused into one
    steps = max(1, math.ceil(t / dt))
    h, m = t / steps, state.grid_size
    half = np.exp(-state.nu * state.eigenvalues() * h / 2.0)
    phase = np.exp(-2j * math.pi * h * state.k1[:, None] * flow.values(np.arange(m) / m))
    data = np.fft.ifft(np.fft.fft(state.data, axis=-1) * half, axis=-1)
    for s in range(steps):
        data = np.fft.ifft(np.fft.fft(data * phase, axis=-1) * (half if s == steps - 1 else half * half), axis=-1)
    return CtsState(state.convention, state.nu, state.k1, data)


def test_grad_norm(flow):
    assert flow.grad_norm == pytest.approx(2 * math.pi, rel=1e-10)


def test_grad_norm_of_sin_is_2_pi(flow):
    assert flow.grad_norm == 2 * math.pi


@pytest.mark.parametrize("shear_spec", ["coeffs:0.3,1,0.2,-0.5", "coeffs:-0.7,0.4,0,0.25"])
def test_grad_norm_bounds_the_sampled_gradient(shear_spec):
    # sup |v'| is attained between samples; the bound must lie above every sample
    flow = cli._parse_shear(shear_spec)
    y = np.arange(2**20) / 2**20
    dv = np.zeros_like(y)
    for m, a in enumerate(flow.cos_coeffs, start=1):
        dv -= 2 * math.pi * m * a * np.sin(2 * math.pi * m * y)
    for m, b in enumerate(flow.sin_coeffs, start=1):
        dv += 2 * math.pi * m * b * np.cos(2 * math.pi * m * y)
    assert flow.grad_norm >= np.max(np.abs(dv))


@pytest.mark.parametrize("coeffs, message", [
    ({"sin_coeffs": (math.nan,)}, "shear coefficients must be finite"),
    ({"cos_coeffs": (0.3, -math.inf)}, "shear coefficients must be finite"),
    ({"cos_coeffs": (1e308,), "sin_coeffs": (1e308,)}, "grad_norm must be finite"),
])
def test_shear_flow_refuses_a_profile_that_is_not_finite(coeffs, message):
    # a NaN profile gave a NaN transport gap, bound and correlation, and an
    # infinite grad_norm a meaningless tau_d, all without an error
    with pytest.raises(ValueError, match=message):
        ShearFlow(**coeffs)


@pytest.mark.parametrize("nu", [math.nan, math.inf, -1e-3])
def test_cts_state_refuses_a_nu_that_is_not_finite_and_nonnegative(conv, nu):
    with pytest.raises(ValueError, match="nu must be finite and nonnegative"):
        CtsState.from_modes({(1, 0): 1.0}, 4, 64, nu, conv)
    state = make_state(conv, 1e-3)
    with pytest.raises(ValueError, match="nu must be finite and nonnegative"):
        CtsState(conv, nu, state.k1, state.data)


def test_cts_state_refuses_data_that_is_not_one_row_per_k1(conv):
    # a one-entry k1 broadcast over all six rows: h1_norm_sq read 59.2
    # instead of 138.2 and the transport gap 0.922 instead of 0.988
    state = CtsState.from_modes({(1, 0): 1.0, (3, 1): 0.5}, 3, 64, 1e-2, conv)
    for k1, data in ((np.array([1]), state.data), (state.k1, state.data[:2]), (state.k1[:1], state.data[0])):
        with pytest.raises(ValueError, match="one row per k1"):
            CtsState(conv, 1e-2, k1, data)


@pytest.fixture()
def capped_memory(monkeypatch, physical_memory_32gb):
    # at most 32 GB of physical memory, and fail loudly if the band
    # exponentials start to be built anyway
    monkeypatch.setattr(shear, "_profile", lambda *args: pytest.fail("band exponentials built past their price"))


@pytest.mark.parametrize("shear_spec", ["sin", "coeffs:0.3,1"])
def test_strang_matrices_past_physical_memory_are_a_validation_error(conv, capped_memory, shear_spec):
    # 2 bands at M = 2^16: one matrix is 2^32 entries, about 34 GB in
    # float64; 2^b = 2^-27 at this stiffness, so 22 rungs per band reach
    # h = 0.02 and 28 reach t = 1, priced with the generators, the maps and
    # the kernel.  Only nonzero bands are built, so both bands carry a mode
    flow = cli._parse_shear(shear_spec)
    state = CtsState.from_modes({(1, 0): 1.0, (-1, 0): 1.0}, 1, 2**16, 1e-3, conv)
    message = "band exponentials of 2 bands at M = 65536 needing"
    with pytest.raises(ValueError, match=message + " 3985.7 GB"):
        energy_identity_defects(state, flow, 1.0, 0.02)
    with pytest.raises(ValueError, match=message + " 4810.4 GB"):
        transport_gap_cts(state, flow, 1.0)


def test_grid_guard(conv):
    wide = ShearFlow(sin_coeffs=tuple([0.0] * 15 + [1.0]))
    state = CtsState.from_modes({(1, 0): 1.0}, 4, 64, 1e-2, conv)
    with pytest.raises(ValueError, match="under-resolves"):
        evolve_cts(state, wide, 0.01)


def test_zero_band_excluded(conv):
    with pytest.raises(ValueError):
        CtsState.from_modes({(0, 1): 1.0}, 4, 64, 1e-2, conv)
    state = make_state(conv, 1e-2)
    with pytest.raises(ValueError, match="k1 = 0 band"):
        CtsState(conv, 1e-2, np.zeros_like(state.k1), state.data)


def test_inviscid_evolution_is_transport(flow, conv):
    state = make_state(conv, 0.0)
    out = evolve_cts(state, flow, 1.3)
    exact = advect_exact(state, flow, 1.3)
    assert np.max(np.abs(out.data - exact.data)) < 1e-12


def test_pure_heat_band_decay(conv):
    still = ShearFlow()
    state = CtsState.from_modes({(1, 0): 1.0}, 4, 64, 1e-2, conv)
    out = evolve_cts(state, still, 2.0)
    lam = conv.eigenvalue((1, 0))
    assert out.energy() == pytest.approx(math.exp(-2 * 1e-2 * lam * 2.0), rel=1e-10)


def test_heat_with_y_mode(conv):
    still = ShearFlow()
    state = CtsState.from_modes({(2, 3): 1.0}, 4, 64, 1e-2, conv)
    out = evolve_cts(state, still, 0.5)
    lam = conv.eigenvalue((2, 3))
    assert out.energy() == pytest.approx(math.exp(-2 * 1e-2 * lam * 0.5), rel=1e-10)


def test_self_convergence_second_order(flow, conv):
    # the Strang oracle converges to the exact map at second order
    state = make_state(conv, 1e-2)
    ref = evolve_cts(state, flow, 1.0)
    err_coarse = np.sqrt(np.sum(np.abs(_strang(state, flow, 1.0, 0.02).data - ref.data) ** 2))
    err_fine = np.sqrt(np.sum(np.abs(_strang(state, flow, 1.0, 0.01).data - ref.data) ** 2))
    assert err_coarse / err_fine == pytest.approx(4.0, rel=0.4)


def test_energy_identity_defect_order(flow, conv):
    state = make_state(conv, 1e-2)
    d1 = float(np.sum(energy_identity_defects(state, flow, 1.0, 0.02)))
    d2 = float(np.sum(energy_identity_defects(state, flow, 1.0, 0.01)))
    assert 2.5 < d1 / d2 < 6.0


def test_advection_is_isometry(flow, conv):
    state = make_state(conv, 1e-2)
    out = advect_exact(state, flow, 0.37)
    assert out.energy() == pytest.approx(state.energy(), rel=1e-13)


def test_trivial_decay_bound(flow, conv):
    state = make_state(conv, 1e-2)
    lam1 = state.lambda_1()
    out = evolve_cts(state, flow, 2.0)
    assert out.energy() <= state.energy() * math.exp(-2 * 1e-2 * lam1 * 2.0) * (1 + 1e-9)


def test_transport_gap_inequality(flow, conv):
    state = make_state(conv, 1e-3, modes={(1, 0): 1.0})
    res = transport_gap_cts(state, flow, 2.0)
    assert res["gap_sq"] <= res["bound"]
    assert res["gap_sq"] > 0


def test_transport_gap_zero_without_diffusion(flow, conv):
    state = make_state(conv, 0.0)
    res = transport_gap_cts(state, flow, 1.0)
    assert res["gap_sq"] < 1e-25


def test_transport_gap_short_time(flow, conv):
    state = make_state(conv, 1e-3)
    r1 = transport_gap_cts(state, flow, 0.01)
    r2 = transport_gap_cts(state, flow, 0.02)
    # gap^2 = O(t^2): quadrupling under doubling; bound stays order one
    assert r2["gap_sq"] / r1["gap_sq"] == pytest.approx(4.0, rel=0.3)
    assert r1["bound"] > 1e-5


@settings(max_examples=4)
@given(t=st.floats(0.05, 2.0), nu=st.floats(1e-4, 1e-1))
def test_cts_norm_matches_evolved_unit_vectors(flow, conv, t, nu):
    # every unit vector of the whole state evolved by the reference
    # exponential of the block-diagonal generator of all its signed bands
    template = CtsState.from_modes({}, k1_max=2, grid_size=32, nu=nu, convention=conv)
    m = template.grid_size
    whole = np.zeros((template.data.size, template.data.size), dtype=complex)
    for i in range(template.k1.size):
        whole[i * m : (i + 1) * m, i * m : (i + 1) * m] = _generator(flow, template, i)
    dense = np.linalg.norm(_expm(t * whole), 2)
    assert cts_norm(template, flow, t) == pytest.approx(dense, rel=1e-10)


@settings(max_examples=30)
@given(
    nu=st.floats(1e-4, 1e-1),
    t=st.floats(0.05, 20.0),
    k1_max=st.integers(1, 8),
    grid=st.sampled_from([32, 64]),
    convention=st.sampled_from(["geometric", "lattice"]),
    sheared=st.booleans(),
)
# 10,000 steps without shear: the |k1| = 1 band's computed norm sits on its
# heat factor (1.5e-12 and 3.2e-12 relative above it), and the walk must
# return it bit for bit while it skips the |k1| = 2 band
@example(nu=3e-3, t=200.0, k1_max=2, grid=32, convention="lattice", sheared=False)
@example(nu=3e-4, t=200.0, k1_max=2, grid=64, convention="geometric", sheared=False)
def test_cts_norm_pruning_matches_every_band(nu, t, k1_max, grid, convention, sheared):
    # skipping bands by their heat factor must not change the maximum by a
    # single bit; without shear norms sit on their bounds, so this also
    # probes the rounding margin
    flow = ShearFlow.sinusoidal() if sheared else ShearFlow()
    template = CtsState.from_modes({}, k1_max, grid, nu, SpectralConvention(2, convention))
    brute = max(cts_norm(CtsState(template.convention, nu, template.k1[i : i + 1], template.data[i : i + 1]),
                         flow, t) for i in range(template.k1.size))
    assert cts_norm(template, flow, t) == brute


@pytest.fixture()
def built_bands(monkeypatch):
    # the k1 of every band whose map exp(t L) is built
    built = []
    band_map = shear._Ladder.__call__

    def counting(self, i, t):
        built.append(int(self.state.k1[i]))
        return band_map(self, i, t)

    monkeypatch.setattr(shear._Ladder, "__call__", counting)
    return built


def test_cts_norm_builds_only_the_bands_the_heat_bound_admits(flow, conv, built_bands):
    template = CtsState.from_modes({}, 16, 64, 1e-2, conv)
    # at t = 1.08 the |k1| = 1 norm is about 1/e; |k1| = 2 is heat-bounded by 0.18
    assert cts_norm(template, flow, 1.08) > 0.36
    assert built_bands == [1]


@settings(max_examples=25)
@given(
    nu=st.floats(1e-4, 1e-1),
    t=st.floats(0.05, 20.0),
    k1_max=st.integers(1, 8),
    grid=st.sampled_from([32, 64]),
    convention=st.sampled_from(["geometric", "lattice"]),
    shear_spec=st.sampled_from(["sin", "coeffs:0.3,1,0.2,-0.5", "coeffs:-0.7,0.4,0,0.25"]),
)
def test_cts_norm_over_one_band_per_abs_k1_matches_every_signed_band(
    nu, t, k1_max, grid, convention, shear_spec
):
    # band -k1 is the conjugate of band k1, so building k1 = +|k1| alone
    # must give the maximum over every signed band
    flow = cli._parse_shear(shear_spec)
    template = CtsState.from_modes({}, k1_max, grid, nu, SpectralConvention(2, convention))
    brute = max(_band_norm(template, flow, t, i) for i in range(template.k1.size))
    assert cts_norm(template, flow, t) == pytest.approx(brute, rel=1e-12)


@pytest.mark.parametrize("convention, shear_spec, dt, modes", [
    ("geometric", "sin", 0.02, None),
    ("geometric", "sin", 0.3, None),
    ("lattice", "coeffs:0.3,1,0.2,-0.5", 0.01, None),
    # both signed bands of |k1| = 1 and 2 under a cosine shear: the complex band maps
    ("geometric", "coeffs:0.3,1", 0.02, {(1, 0): 1.0, (-1, 1): 0.5j, (2, -1): 0.3, (-2, 3): -0.4}),
], ids=["geometric-sin-0.02", "geometric-sin-0.3", "lattice-coeffs:0.3,1,0.2,-0.5-0.01",
        "geometric-coeffs:0.3,1-0.02-both-signs"])
def test_energy_identity_defects_match_the_cts_step_loop(convention, shear_spec, dt, modes):
    # the batched steps agree to rounding, per step, with a loop of states
    # each stepped band by band by the same maps exp(h L) and read in
    # collocation values; the maps themselves are checked against the
    # reference exponential in test_ladder_matches_a_direct_exponential_at_every_probe
    def reference(state, flow, t, dt):
        steps = max(1, math.ceil(t / dt))
        dt = t / steps
        ladder = shear._Ladder(flow, state, dt)
        maps = [ladder(i, dt) for i in range(state.k1.size)]
        cur = state
        defects = np.empty(steps)
        for s in range(steps):
            coeffs = [x @ c for x, c in zip(maps, cur.spectral())]
            nxt = CtsState(state.convention, state.nu, state.k1, np.fft.ifft(coeffs, axis=-1) * state.grid_size)
            mid_h1 = 0.5 * (cur.h1_norm_sq() + nxt.h1_norm_sq())
            defects[s] = abs(nxt.energy() - cur.energy() + 2.0 * state.nu * dt * mid_h1)
            cur = nxt
        return defects

    modes = modes or {(1, 0): 1.0, (2, 1): 0.5, (-3, 2): 0.2j}
    state = CtsState.from_modes(modes, 8, 64, 1e-2, SpectralConvention(2, convention))
    flow = cli._parse_shear(shear_spec)
    got = energy_identity_defects(state, flow, 1.0, dt)
    want = reference(state, flow, 1.0, dt)
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= 64 * np.finfo(float).eps * state.energy()


@pytest.mark.parametrize("shear_spec", ["sin", "coeffs:0,1,0,-0.5,0,0.25", "coeffs:0.3,1,0.2,-0.5"])
def test_transport_gap_matches_the_evolved_gap(conv, shear_spec):
    # the coefficients mapped by the ladder against the reference exponential, band by band
    flow = cli._parse_shear(shear_spec)
    state = CtsState.from_modes({(1, 0): 1.0, (-1, 2): 0.5j, (2, 1): 0.3, (-3, -1): 0.2}, 3, 64, 1e-3, conv)
    evolved = [np.fft.ifft(_expm(2.0 * _generator(flow, state, i)) @ c) * 64 for i, c in enumerate(state.spectral())]
    diff = np.array(evolved) - advect_exact(state, flow, 2.0).data
    want = float(np.sum(np.abs(diff) ** 2) / state.grid_size)
    assert transport_gap_cts(state, flow, 2.0)["gap_sq"] == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("shear_spec, nu, t", [
    ("sin", 1e-2, 1.3),
    ("coeffs:0,1,0,-0.5,0,0.25", 1e-3, 2.0),
    ("coeffs:0.3,1,0.2,-0.5", 3e-3, 0.7),
])
def test_evolve_cts_is_the_exponential_of_each_band_generator(conv, shear_spec, nu, t):
    # each band's coefficients mapped by the reference exponential of its
    # generator and read back in collocation values; bands 3 and -2 are zero
    flow = cli._parse_shear(shear_spec)
    state = CtsState.from_modes({(1, 0): 1.0, (-1, 2): 0.5j, (2, 1): 0.3, (-3, -1): 0.2}, 3, 64, nu, conv)
    want = [np.fft.ifft(_expm(t * _generator(flow, state, i)) @ c) * 64 for i, c in enumerate(state.spectral())]
    assert np.max(np.abs(evolve_cts(state, flow, t).data - np.array(want))) <= 1e-12


def test_a_state_without_a_nonzero_band_comes_back_as_it_is(flow, conv, built_bands):
    # zero bands are skipped; with none left nothing is built or stacked,
    # and the energy check keeps one defect per step
    zero = CtsState.from_modes({}, 2, 32, 1e-2, conv)
    out = evolve_cts(zero, flow, 1.0)
    assert (out.nu, out.k1.tolist(), out.data.tobytes()) == (zero.nu, zero.k1.tolist(), zero.data.tobytes())
    assert energy_identity_defects(zero, flow, 1.0, 0.25).tolist() == [0.0] * 4
    assert transport_gap_cts(zero, flow, 1.0) == {"gap_sq": 0.0, "bound": 0.0}
    assert built_bands == []


@pytest.mark.parametrize("shear_spec", ["sin", "coeffs:0.3,1"])
def test_checks_on_a_full_state_equal_those_on_its_nonzero_bands(conv, shear_spec):
    # the K1 = 16 state of verify cts against its two nonzero bands, bit for bit
    flow = cli._parse_shear(shear_spec)
    full = CtsState.from_modes({(1, 0): 1.0, (2, 1): 0.5}, 16, 64, 1e-2, conv)
    rows = np.isin(full.k1, [1, 2])
    live = CtsState(conv, 1e-2, full.k1[rows], full.data[rows])
    assert energy_identity_defects(full, flow, 1.0, 0.02).tobytes() == (
        energy_identity_defects(live, flow, 1.0, 0.02).tobytes())
    assert transport_gap_cts(full, flow, 2.0) == transport_gap_cts(live, flow, 2.0)
    evolved = evolve_cts(full, flow, 1.0).data
    assert evolved[rows].tobytes() == evolve_cts(live, flow, 1.0).data.tobytes()
    assert not evolved[~rows].any()


def test_only_nonzero_bands_build_maps(flow, conv, built_bands):
    full = CtsState.from_modes({(1, 0): 1.0, (-2, 1): 0.5}, 16, 64, 1e-2, conv)
    evolve_cts(full, flow, 1.0)
    energy_identity_defects(full, flow, 1.0, 0.02)
    transport_gap_cts(full, flow, 2.0)
    assert built_bands == [-2, 1] * 3


def test_tau_d_cts_evaluates_each_time_once(flow, conv, monkeypatch):
    times = []
    reaches = shear._reaches

    def recording(ladder, t, level):
        times.append(t)
        return reaches(ladder, t, level)

    monkeypatch.setattr(shear, "_reaches", recording)
    for nu, first in ((1e-3, [4.0, 8.0]), (1e-1, [1.0, 0.5, 0.25, 0.125])):  # doubling, walking down
        times.clear()
        tau_d_cts(flow, nu, conv, k1_max=4, grid_size=32)
        assert times[:len(first)] == first
        assert len(times) == len(set(times))


def test_tau_d_cts_walk_down_without_bracket_raises(flow, conv, monkeypatch):
    monkeypatch.setattr(shear, "_reaches", lambda *args: False)
    with pytest.raises(RuntimeError, match="no valid bracket"):
        tau_d_cts(flow, 1e-2, conv)


def test_tau_d_cts_rejects_a_band_map_that_is_not_finite(flow, conv, monkeypatch):
    # the SVD stops on a NaN with LinAlgError, a ValueError: the walk must
    # report a numerical failure, never a norm below 1/e or a bad input
    monkeypatch.setattr(shear, "_profile", lambda flow, m: np.full(m, np.nan))
    with pytest.raises(RuntimeError, match="not finite"):
        tau_d_cts(flow, 1e-2, conv)


@settings(max_examples=30)
@given(
    nu=st.floats(1e-4, 1e-1),
    t=st.floats(0.05, 20.0),
    k1_max=st.integers(1, 8),
    grid=st.sampled_from([32, 64]),
    convention=st.sampled_from(["geometric", "lattice"]),
    sheared=st.booleans(),
    level=st.sampled_from(["sigma", "below", "above", "1/e"]),
)
# 2^14 squarings without shear: the |k1| = 1 band's norm sits 5.9e-12 and
# 4.0e-12 relative above its heat factor, past the pad's fixed 1e-12, so the
# level sigma fails without the pad's 2^s term; one float above sigma the
# walk must pass that band and stop at the next
@example(nu=3e-2, t=20.0, k1_max=2, grid=64, convention="geometric", sheared=False, level="sigma")
@example(nu=3e-2, t=13.7, k1_max=2, grid=64, convention="geometric", sheared=False, level="above")
@example(nu=1e-2, t=1.08, k1_max=16, grid=64, convention="geometric", sheared=True, level="1/e")
def test_cts_norm_reaches_decides_as_the_maximum(nu, t, k1_max, grid, convention, sheared, level):
    # the decision walk must answer sigma >= level exactly as the maximum
    # does, also at sigma itself and one float to either side of it
    flow = ShearFlow.sinusoidal() if sheared else ShearFlow()
    template = CtsState.from_modes({}, k1_max, grid, nu, SpectralConvention(2, convention))
    sigma = cts_norm(template, flow, t)
    level = {"sigma": sigma, "below": math.nextafter(sigma, -math.inf),
             "above": math.nextafter(sigma, math.inf), "1/e": 1.0 / math.e}[level]
    assert cts_norm_reaches(template, flow, t, level) == (sigma >= level)


def test_readme_cts_grid_builds_66_band_matrices(monkeypatch, tmp_path, built_bands):
    # 43 decisions on the README grid; the full maximum built 87 band matrices
    decisions = []
    reaches = shear._reaches

    def recording(ladder, t, level):
        decisions.append(t)
        return reaches(ladder, t, level)

    monkeypatch.setattr(shear, "_reaches", recording)
    assert cli.main(["cts", "--shear", "sin", "--nu-grid", "1e-4:1e-2:5", "--k1max", "16", "--ygrid", "64",
                     "--out", str(tmp_path / "cts.csv")]) == 0
    assert (len(decisions), len(built_bands)) == (43, 66)


@pytest.fixture()
def svd_calls(monkeypatch):
    # every 2-norm of a band map is an SVD through np.linalg.norm
    calls = []
    norm = np.linalg.norm

    def counting(x, *args, **kwargs):
        calls.append(x.shape)
        return norm(x, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "norm", counting)
    return calls


def _single_band(nu, k1, grid, convention="geometric"):
    return CtsState(SpectralConvention(2, convention), nu, np.array([k1]), np.zeros((1, grid), dtype=complex))


@settings(max_examples=30)
@given(
    nu=st.floats(1e-4, 1e-1),
    t=st.floats(0.05, 20.0),
    k1=st.integers(1, 32),
    grid=st.sampled_from([32, 64, 128]),
    convention=st.sampled_from(["geometric", "lattice"]),
    shear_spec=st.sampled_from(["sin", "coeffs:0.3,1,0.2,-0.5", "coeffs:-0.7,0.4,0,0.25", "coeffs:0"]),
)
# norm 2.5e-182: its square and the Gram matrix underflow to 0
@example(nu=1e-3, t=10.0, k1=32, grid=128, convention="geometric", shear_spec="sin")
def test_cholesky_band_decision_matches_the_svd(nu, t, k1, grid, convention, shear_spec):
    # at relative distances 1e-3 .. 1e-15 from the band's SVD norm, on both
    # sides, the decision must be that of the SVD norm
    flow = cli._parse_shear(shear_spec)
    band = _single_band(nu, k1, grid, convention)
    sigma = cts_norm(band, flow, t)
    for k in range(3, 16):
        for level in (sigma * (1.0 - 10.0**-k), sigma * (1.0 + 10.0**-k)):
            if level > 0:  # a norm that underflows to 0 has no positive level at or below it
                assert cts_norm_reaches(band, flow, t, level) == (sigma >= level)
    assert not cts_norm_reaches(band, flow, t, math.nextafter(sigma, math.inf))


@pytest.mark.parametrize("nu, t, k1, grid, shear_spec", [
    (1e-2, 1.08, 1, 64, "sin"),
    (1e-3, 4.0, 3, 64, "sin"),
    (3e-4, 20.0, 5, 128, "coeffs:0.3,1,0.2,-0.5"),
    (1e-2, 30.0, 1, 32, "coeffs:0"),
])
def test_only_levels_within_the_margin_reach_the_svd(nu, t, k1, grid, shear_spec, svd_calls):
    flow = cli._parse_shear(shear_spec)
    band = _single_band(nu, k1, grid)
    sigma = cts_norm(band, flow, t)
    svd_calls.clear()
    for rel in (-1e-6, 1e-6):
        assert cts_norm_reaches(band, flow, t, sigma * (1.0 + rel)) == (rel < 0)
    assert svd_calls == []
    for rel in (-1e-12, 1e-12):
        assert cts_norm_reaches(band, flow, t, sigma * (1.0 + rel)) == (rel < 0)
    assert svd_calls == [(grid, grid)] * 2


def test_readme_cts_grid_decides_without_an_svd(tmp_path, svd_calls):
    # the 43 decisions of test_readme_cts_grid_builds_66_band_matrices, none of them by SVD
    assert cli.main(["cts", "--shear", "sin", "--nu-grid", "1e-4:1e-2:5", "--k1max", "16", "--ygrid", "64",
                     "--out", str(tmp_path / "cts.csv")]) == 0
    assert svd_calls == []


@pytest.fixture()
def band_map_dtypes(monkeypatch):
    # the dtype of every band map exp(t L) built
    dtypes = []
    band_map = shear._Ladder.__call__

    def recording(self, i, t):
        x = band_map(self, i, t)
        dtypes.append(x.dtype)
        return x

    monkeypatch.setattr(shear._Ladder, "__call__", recording)
    return dtypes


@pytest.mark.parametrize("shear_spec, dtype", [
    ("sin", np.float64),
    ("coeffs:0,1,0,-0.5", np.float64),
    ("still", np.float64),
    ("coeffs:0.3,1", np.complex128),
])
def test_band_maps_are_real_exactly_for_sine_series_shears(conv, band_map_dtypes, shear_spec, dtype):
    # an odd profile has a real generator; a cosine term keeps it complex
    flow = ShearFlow() if shear_spec == "still" else cli._parse_shear(shear_spec)
    cts_norm(CtsState.from_modes({}, 4, 32, 1e-3, conv), flow, 2.0)
    assert band_map_dtypes and set(band_map_dtypes) == {np.dtype(dtype)}


def test_readme_cts_grid_builds_only_real_band_maps(tmp_path, band_map_dtypes):
    # the 66 bands of test_readme_cts_grid_builds_66_band_matrices, all in float64
    assert cli.main(["cts", "--shear", "sin", "--nu-grid", "1e-4:1e-2:5", "--k1max", "16", "--ygrid", "64",
                     "--out", str(tmp_path / "cts.csv")]) == 0
    assert band_map_dtypes == [np.dtype(np.float64)] * 66


@settings(max_examples=30)
@given(
    nu=st.floats(1e-4, 1e-1),
    t=st.floats(0.05, 20.0),
    k1=st.integers(-16, 16).filter(bool),
    grid=st.sampled_from([32, 64]),
    convention=st.sampled_from(["geometric", "lattice"]),
    sin_coeffs=st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=4),
)
def test_real_band_norm_of_a_sine_series_matches_the_fft_built_band(nu, t, k1, grid, convention, sin_coeffs):
    # the float64 band of an odd profile against the reference exponential of
    # the complex generator built by FFTs, for the signed k1 as it stands
    flow = ShearFlow(sin_coeffs=tuple(sin_coeffs))
    band = _single_band(nu, k1, grid, convention)
    assert cts_norm(band, flow, t) == pytest.approx(_band_norm(band, flow, t, 0), rel=1e-12)


@pytest.mark.parametrize("shear_spec, nu, t, k1, grid", [
    ("coeffs:0.3,1", 1e-3, 2.0, 1, 64),
    ("coeffs:1", 1e-2, 1.0, 2, 32),
    ("coeffs:-0.7,0.4,0,0.25", 3e-4, 5.0, 3, 64),
])
def test_cosine_profile_band_decides_as_the_fft_built_band(shear_spec, nu, t, k1, grid):
    # a cosine term makes the generator complex: its real part alone is
    # another band, whose norm this decision must not follow
    flow = cli._parse_shear(shear_spec)
    band = _single_band(nu, k1, grid)
    sigma = _band_norm(band, flow, t, 0)
    for rel in (-1e-6, 1e-6):
        assert cts_norm_reaches(band, flow, t, sigma * (1.0 + rel)) == (rel < 0)


# tau_d of sine-series shears; the last row is the dt -> 0 limit of the
# Strang power, which that power missed by 0.86% at dt 0.02 (0.2275390625).
# The ids of the first six rows still name the time step they were pinned
# at, so that each row keeps its name
@pytest.mark.parametrize("shear_spec, nu, convention, k1_max, grid, rel_tol, tau", [
    ("sin", 1e-2, "geometric", 8, 32, 1e-3, 1.08056640625),
    ("sin", 1e-4, "geometric", 16, 64, 1e-2, 14.3125),
    ("sin", 3e-3, "lattice", 4, 32, 1e-3, 16.4921875),
    ("coeffs:0,1,0,-0.5", 1e-3, "geometric", 8, 64, 1e-3, 4.912109375),
    ("coeffs:0,0.5,0,0,0,0.25", 3e-2, "lattice", 16, 128, 1e-2, 4.421875),
    ("still", 1e-2, "geometric", 2, 32, 1e-3, 2.5322265625),
    ("coeffs:0,1,0,0,0,-0.5", 1e-1, "geometric", 16, 64, 1e-2, 0.2294921875),
], ids=["sin-0.01-geometric-8-32-0.02-0.001-1.08056640625", "sin-0.0001-geometric-16-64-0.02-0.01-14.3125",
        "sin-0.003-lattice-4-32-0.05-0.001-16.4921875", "coeffs:0,1,0,-0.5-0.001-geometric-8-64-0.01-0.001-4.912109375",
        "coeffs:0,0.5,0,0,0,0.25-0.03-lattice-16-128-0.02-0.01-4.421875",
        "still-0.01-geometric-2-32-0.02-0.001-2.5322265625", "coeffs:0,1,0,0,0,-0.5-0.1-geometric-16-64-0.01-0.2294921875"])
def test_tau_d_cts_of_sine_series_shears_is_pinned(shear_spec, nu, convention, k1_max, grid, rel_tol, tau):
    flow = ShearFlow() if shear_spec == "still" else cli._parse_shear(shear_spec)
    assert tau_d_cts(flow, nu, SpectralConvention(2, convention), k1_max=k1_max, grid_size=grid,
                     rel_tol=rel_tol) == tau


def _search_from_one(flow, nu, conv, k1_max, grid, rel_tol):
    # the bracket doubling or walking down from t = 1, then the bisection,
    # each probe on a ladder of its own
    template = CtsState.from_modes({}, k1_max, grid, nu, conv)

    def reaches(t):
        return cts_norm_reaches(template, flow, t, 1.0 / math.e)

    hi = 1.0
    while reaches(hi):
        hi *= 2.0
    lo = hi / 2.0
    while not reaches(lo):
        hi, lo = lo, lo / 2.0
    while (hi - lo) > rel_tol * hi:
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if reaches(mid) else (lo, mid)
    return 0.5 * (lo + hi)


@settings(max_examples=25)
@given(
    log_nu=st.floats(math.log(1e-4), math.log(1e-1)),
    shear_spec=st.sampled_from(["sin", "coeffs:0,1,0,-0.5", "coeffs:0,0.5,0,0,0,0.25", "coeffs:0.3,1", "still"]),
    convention=st.sampled_from(["geometric", "lattice"]),
    k1_max=st.sampled_from([2, 4, 8]),
    grid=st.sampled_from([32, 64]),
    rel_tol=st.sampled_from([1e-2, 1e-3]),
)
def test_tau_d_cts_start_does_not_move_the_result(log_nu, shear_spec, convention, k1_max, grid, rel_tol):
    # tau_d_cts starts near sqrt(t_cap) and shares one ladder across its
    # probes; a search from t = 1, a ladder per probe, must end at the same bits
    flow = ShearFlow() if shear_spec == "still" else cli._parse_shear(shear_spec)
    nu, conv = math.exp(log_nu), SpectralConvention(2, convention)
    assert tau_d_cts(flow, nu, conv, k1_max=k1_max, grid_size=grid, rel_tol=rel_tol) == (
        _search_from_one(flow, nu, conv, k1_max, grid, rel_tol))


@pytest.mark.parametrize("rel_tol", [0.0, -1.0, 1e-17, 1.0, 2.0, math.nan, math.inf])
def test_tau_d_cts_refuses_a_tolerance_the_bisection_cannot_meet(flow, conv, rel_tol):
    # 0, -1 and 1e-17 bisected forever; NaN returned the unbisected midpoint
    with pytest.raises(ValueError, match="rel_tol must be finite and in"):
        tau_d_cts(flow, 1e-2, conv, rel_tol=rel_tol)


@pytest.mark.parametrize("still", [ShearFlow(), cli._parse_shear("coeffs:0")])
def test_transport_gap_refuses_a_flow_without_gradient(conv, still):
    # the bound divides by |grad u|
    with pytest.raises(ValueError, match="grad_norm"):
        transport_gap_cts(make_state(conv, 1e-3), still, 1.0)


@pytest.mark.parametrize("dt", [0.0, -0.02, math.inf, math.nan])
def test_time_step_must_be_finite_and_positive(flow, conv, dt):
    state = make_state(conv, 1e-2)
    # the energy check alone takes a time step; evolve_cts refuses the same values as a time
    with pytest.raises(ValueError, match="dt must be finite and positive"):
        energy_identity_defects(state, flow, 1.0, dt)
    with pytest.raises(ValueError, match="t must be finite and positive"):
        energy_identity_defects(state, flow, dt, 0.02)
    with pytest.raises(ValueError, match="t must be finite and positive"):
        evolve_cts(state, flow, dt)


def test_tau_d_cts_resolved_in_truncation(conv):
    # the error budget is the bisection: doubling K1 and M moves tau_d by
    # less than the 1e-3 bisection tolerance, for sin and for the
    # three-harmonic sine up to nu = 0.1
    for shear_spec, nus in (("sin", (1e-2, 1e-3, 1e-4)), ("coeffs:0,1,0,0,0,-0.5", (1e-1, 1e-2, 1e-3, 1e-4))):
        flow = cli._parse_shear(shear_spec)
        for nu in nus:
            coarse = tau_d_cts(flow, nu, conv, k1_max=16, grid_size=64, rel_tol=1e-3)
            fine = tau_d_cts(flow, nu, conv, k1_max=32, grid_size=128, rel_tol=1e-3)
            assert fine == pytest.approx(coarse, rel=1e-3)


def test_tau_d_cts_pure_heat_band(conv):
    still = ShearFlow()
    tau = tau_d_cts(still, 1e-2, conv, k1_max=2, grid_size=32)
    lam1 = conv.eigenvalue((1, 0))
    assert tau == pytest.approx(1.0 / (1e-2 * lam1), rel=0.02)


def test_tau_d_cts_enhanced_by_shear(flow, conv):
    tau_shear = tau_d_cts(flow, 1e-3, conv, k1_max=16, grid_size=64)
    lam1 = conv.eigenvalue((1, 0))
    tau_heat = 1.0 / (1e-3 * lam1)
    assert tau_shear < 0.25 * tau_heat


def test_tau_d_cts_range_guards(flow, conv):
    with pytest.raises(ValueError):
        tau_d_cts(flow, 1e-5, conv)
    with pytest.raises(ValueError):
        tau_d_cts(flow, 1e-2, conv, k1_max=64)
    with pytest.raises(ValueError, match="k1_max must be at least 1"):
        tau_d_cts(flow, 1e-2, conv, k1_max=0)


@pytest.mark.parametrize("shear_spec", ["sin", "coeffs:0.3,1,0.2,-0.5"])
def test_shear_correlation_skips_empty_bands_bit_for_bit(conv, shear_spec):
    # bands where either field vanishes are skipped; the result must equal
    # the pairing over every band, float for float
    flow = cli._parse_shear(shear_spec)
    state = CtsState.from_modes({(1, 0): 1.0, (-2, 1): 0.5, (3, 2): 0.2}, 3, 64, 0.0, conv)
    other = CtsState.from_modes({(1, 2): 0.3, (-2, 1): 1j, (-3, 0): 0.4}, 3, 64, 0.0, conv)
    times = np.linspace(0.1, 6.0, 40)
    quad = 512
    y = np.arange(quad) / quad

    def upsample(data):
        spec = np.fft.fft(data, axis=-1) / 64
        wide = np.zeros((data.shape[0], quad), dtype=complex)
        wide[:, :32], wide[:, quad - 32 :] = spec[:, :32], spec[:, 32:]
        return np.fft.ifft(wide, axis=-1) * quad

    a, b, v = upsample(state.data), upsample(other.data), flow.values(y)
    want = [abs(complex(np.sum(a * np.exp(-2j * math.pi * t * state.k1[:, None].astype(float) * v[None, :])
                               * np.conj(b)) / quad)) for t in times]
    got = shear_correlation(state, flow, other, times, quad_size=quad)
    assert got.tobytes() == np.array(want).tobytes()


def test_stationary_phase_correlation_decay(flow, conv):
    # |<f o phi_t, f>| for the lowest band is a Bessel-type integral whose
    # peak envelope decays like t^{-1/2} for nondegenerate critical points
    state = CtsState.from_modes({(1, 0): 1.0}, 2, 64, 0.0, conv)
    times = np.linspace(0.25, 24.0, 2000)
    corr = shear_correlation(state, flow, state, times)
    # upper envelope over windows
    peaks_t, peaks_v = [], []
    window = 125
    for i in range(0, len(times) - window, window):
        j = i + int(np.argmax(corr[i : i + window]))
        peaks_t.append(times[j])
        peaks_v.append(corr[j])
    fit = line_fit(np.log(peaks_t), np.log(peaks_v))
    assert 0.35 <= -fit.slope <= 0.65


@pytest.mark.parametrize("level", [-1.0, 0.0, math.nan, math.inf])
def test_cts_norm_reaches_refuses_a_level_that_is_not_finite_and_positive(flow, conv, level):
    # every norm is >= 0: the level -1 read False, as did NaN
    with pytest.raises(ValueError, match="level must be finite and positive"):
        cts_norm_reaches(make_state(conv, 1e-2), flow, 1.0, level)


@pytest.mark.parametrize("t", [math.nan, math.inf, 0.0, -1.0])
def test_cts_norms_refuse_a_time_that_is_not_finite_and_positive(flow, conv, t):
    state = make_state(conv, 1e-2)
    with pytest.raises(ValueError, match="t must be finite and positive"):
        cts_norm(state, flow, t)
    with pytest.raises(ValueError, match="t must be finite and positive"):
        cts_norm_reaches(state, flow, t, 1.0 / math.e)


@pytest.mark.parametrize("t", [math.nan, math.inf, 0.0, -1.0, 11.0])
def test_transport_gap_refuses_a_time_outside_its_range(flow, conv, t):
    # NaN passed the old t <= 0 or t > 10 test
    with pytest.raises(ValueError, match=r"t must lie in \(0, 10\]"):
        transport_gap_cts(make_state(conv, 1e-3), flow, t)


def test_cts_norm_is_the_dt_to_0_limit_of_the_fft_solver(flow, conv):
    # the dense map of the Strang oracle converges to exp(t L) at second
    # order: its norm errors at dt, dt/2 and dt/4 shrink by about 4
    template = CtsState.from_modes({}, k1_max=2, grid_size=32, nu=1e-2, convention=conv)
    exact = cts_norm(template, flow, 1.0)
    errors = []
    for dt in (0.1, 0.05, 0.025):
        columns = []
        for j in range(template.data.size):
            unit = np.zeros(template.data.size, dtype=complex)
            unit[j] = 1.0
            start = CtsState(conv, 1e-2, template.k1, unit.reshape(template.data.shape))
            columns.append(_strang(start, flow, 1.0, dt).data.ravel())
        errors.append(abs(np.linalg.norm(np.array(columns).T, 2) - exact))
    assert 3.0 <= errors[0] / errors[1] <= 5.0
    assert 3.0 <= errors[1] / errors[2] <= 5.0


@pytest.mark.parametrize("shear_spec, nu", [("sin", 1e-3), ("coeffs:0.3,1", 1e-2), ("coeffs:0,1,0,0,0,-0.5", 1e-1)])
def test_ladder_matches_a_direct_exponential_at_every_probe(conv, monkeypatch, shear_spec, nu):
    # every band map of one search against the reference exponential of its
    # generator, and bit for bit against a fresh ladder for the same time
    flow = cli._parse_shear(shear_spec)
    probes = []
    reaches = shear._reaches

    def recording(ladder, t, level):
        probes.append((ladder, t))
        return reaches(ladder, t, level)

    monkeypatch.setattr(shear, "_reaches", recording)
    tau_d_cts(flow, nu, conv, k1_max=4, grid_size=32)
    assert len(probes) >= 8 and len({id(ladder) for ladder, _ in probes}) == 1
    ladder = probes[0][0]
    for _, t in probes:
        fresh = shear._abs_bands(flow, ladder.state, t)
        for i in range(ladder.state.k1.size):
            got, want = ladder(i, t), _expm(t * _generator(flow, ladder.state, i))
            assert np.linalg.norm(got - want, 2) <= 1e-12 * max(1.0, np.linalg.norm(want, 2))
            assert got.tobytes() == fresh(i, t).tobytes()


def test_band_norms_lie_within_their_padded_heat_factors():
    # the sweep behind the pad of _band_walk: random bands of the zero, a
    # weak, the sin, a three-harmonic sine and two cosine shears, both
    # conventions, K1 <= 32, M <= 128, binary times in 2^-7 .. 2^11
    rng = np.random.default_rng(41)
    flows = [ShearFlow(), ShearFlow(sin_coeffs=(1e-3,)), ShearFlow.sinusoidal(), ShearFlow(sin_coeffs=(1.0, 0, -0.5)),
             ShearFlow(cos_coeffs=(0.3,), sin_coeffs=(1.0,)), ShearFlow(cos_coeffs=(1e-3,))]
    for _ in range(300):
        flow = flows[rng.integers(len(flows))]
        conv = SpectralConvention(2, str(rng.choice(["geometric", "lattice"])))
        band = _single_band(float(10 ** rng.uniform(-4, -1)), int(rng.integers(1, 33)), int(rng.choice([32, 64, 128])),
                            conv.scaling)
        t = min(max(float(rng.integers(1, 256)) * 2.0 ** int(rng.integers(-14, 4)), 2.0**-7), 2.0**11)
        ((bound, band_map),) = shear._band_walk(shear._abs_bands(flow, band, t), t)
        assert np.linalg.norm(band_map(), 2) <= bound
