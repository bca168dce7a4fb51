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
    cts_step,
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


@pytest.mark.parametrize("nu", [math.nan, math.inf, -1e-3])
def test_cts_state_refuses_a_nu_that_is_not_finite_and_nonnegative(conv, nu):
    with pytest.raises(ValueError, match="nu must be finite and nonnegative"):
        CtsState.from_modes({(1, 0): 1.0}, 4, 64, nu, conv)
    state = make_state(conv, 1e-3)
    with pytest.raises(ValueError, match="nu must be finite and nonnegative"):
        CtsState(conv, nu, state.k1, state.data)


def test_grid_guard(conv):
    wide = ShearFlow(sin_coeffs=tuple([0.0] * 15 + [1.0]))
    state = CtsState.from_modes({(1, 0): 1.0}, 4, 64, 1e-2, conv)
    with pytest.raises(ValueError, match="under-resolves"):
        cts_step(state, wide, 0.01)


def test_zero_band_excluded(conv):
    with pytest.raises(ValueError):
        CtsState.from_modes({(0, 1): 1.0}, 4, 64, 1e-2, conv)
    state = make_state(conv, 1e-2)
    with pytest.raises(ValueError, match="k1 = 0 band"):
        CtsState(conv, 1e-2, np.zeros_like(state.k1), state.data)


def test_inviscid_evolution_is_transport(flow, conv):
    state = make_state(conv, 0.0)
    out = evolve_cts(state, flow, 1.3, dt_target=0.01)
    exact = advect_exact(state, flow, 1.3)
    assert np.max(np.abs(out.data - exact.data)) < 1e-12


def test_pure_heat_band_decay(conv):
    still = ShearFlow()
    state = CtsState.from_modes({(1, 0): 1.0}, 4, 64, 1e-2, conv)
    out = evolve_cts(state, still, 2.0, dt_target=0.01)
    lam = conv.eigenvalue((1, 0))
    assert out.energy() == pytest.approx(math.exp(-2 * 1e-2 * lam * 2.0), rel=1e-10)


def test_heat_with_y_mode(conv):
    still = ShearFlow()
    state = CtsState.from_modes({(2, 3): 1.0}, 4, 64, 1e-2, conv)
    out = evolve_cts(state, still, 0.5, dt_target=0.005)
    lam = conv.eigenvalue((2, 3))
    assert out.energy() == pytest.approx(math.exp(-2 * 1e-2 * lam * 0.5), rel=1e-10)


def test_self_convergence_second_order(flow, conv):
    state = make_state(conv, 1e-2)
    ref = evolve_cts(state, flow, 1.0, dt_target=0.0025)
    err_coarse = np.sqrt(np.sum(np.abs(evolve_cts(state, flow, 1.0, dt_target=0.02).data - ref.data) ** 2))
    err_fine = np.sqrt(np.sum(np.abs(evolve_cts(state, flow, 1.0, dt_target=0.01).data - ref.data) ** 2))
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
    out = evolve_cts(state, flow, 2.0, dt_target=0.01)
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


@settings(max_examples=4, deadline=None, database=None, derandomize=True)
@given(t=st.floats(0.05, 2.0), nu=st.floats(1e-4, 1e-1))
def test_cts_norm_matches_evolved_unit_vectors(flow, conv, t, nu):
    template = CtsState.from_modes({}, k1_max=2, grid_size=32, nu=nu, convention=conv)
    columns = []
    for j in range(template.data.size):
        unit = np.zeros(template.data.size, dtype=complex)
        unit[j] = 1.0
        start = CtsState(conv, nu, template.k1, unit.reshape(template.data.shape))
        columns.append(evolve_cts(start, flow, t).data.ravel())
    dense = np.linalg.norm(np.array(columns).T, 2)
    assert cts_norm(template, flow, t) == pytest.approx(dense, rel=1e-10)


@settings(max_examples=30, deadline=None, database=None, derandomize=True)
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


def test_cts_norm_builds_only_the_bands_the_heat_bound_admits(flow, conv, monkeypatch):
    built = []

    class Counting(shear._Stepper):
        def __init__(self, flow, state, dt):
            built.extend(state.k1.tolist())
            super().__init__(flow, state, dt)

    monkeypatch.setattr(shear, "_Stepper", Counting)
    template = CtsState.from_modes({}, 16, 64, 1e-2, conv)
    # at t = 1.08 the |k1| = 1 norm is about 1/e; |k1| = 2 is heat-bounded by 0.18
    assert cts_norm(template, flow, 1.08) > 0.36
    assert sorted(built) == [1]


def _signed_band_norm(state, flow, t, i, dt_target=0.02):
    # the band of the signed k1 = state.k1[i], built as it stands
    steps = max(1, math.ceil(t / dt_target))
    band = CtsState(state.convention, state.nu, state.k1[i : i + 1], state.data[i : i + 1])
    stepper = shear._Stepper(flow, band, t / steps)
    columns = stepper.diffuse(stepper.advect(stepper.diffuse(np.eye(state.grid_size)[:, None, :], half=True)),
                              half=True)
    return np.linalg.norm(np.linalg.matrix_power(columns[:, 0, :].T, steps), 2)


@settings(max_examples=25, deadline=None, database=None, derandomize=True)
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
    brute = max(_signed_band_norm(template, flow, t, i) for i in range(template.k1.size))
    assert cts_norm(template, flow, t) == pytest.approx(brute, rel=1e-12)


@pytest.mark.parametrize("convention, shear_spec, dt", [
    ("geometric", "sin", 0.02),
    ("geometric", "sin", 0.3),
    ("lattice", "coeffs:0.3,1,0.2,-0.5", 0.01),
])
def test_energy_identity_defects_match_the_cts_step_loop(convention, shear_spec, dt):
    def reference(state, flow, t, dt):
        steps = max(1, math.ceil(t / dt))
        dt = t / steps
        cur = state
        defects = np.empty(steps)
        for s in range(steps):
            nxt = cts_step(cur, flow, dt)
            mid_h1 = 0.5 * (cur.h1_norm_sq() + nxt.h1_norm_sq())
            defects[s] = abs(nxt.energy() - cur.energy() + 2.0 * state.nu * dt * mid_h1)
            cur = nxt
        return defects

    modes = {(1, 0): 1.0, (2, 1): 0.5, (-3, 2): 0.2j}
    state = CtsState.from_modes(modes, 8, 64, 1e-2, SpectralConvention(2, convention))
    flow = cli._parse_shear(shear_spec)
    got = energy_identity_defects(state, flow, 1.0, dt)
    want = reference(state, flow, 1.0, dt)
    assert got.tobytes() == want.tobytes()


def test_tau_d_cts_evaluates_each_time_once(flow, conv, monkeypatch):
    times = []
    reaches = shear.cts_norm_reaches

    def recording(state, flow, t, level, dt_target=0.02):
        times.append(t)
        return reaches(state, flow, t, level, dt_target)

    monkeypatch.setattr(shear, "cts_norm_reaches", recording)
    for hint in (None, 0.3, 9.0):  # doubling from 1, doubling from a short hint, walking down
        times.clear()
        tau_d_cts(flow, 1e-2, conv, k1_max=4, grid_size=32, t_hint=hint)
        assert times
        assert len(times) == len(set(times))


def test_tau_d_cts_walk_down_without_bracket_raises(flow, conv, monkeypatch):
    monkeypatch.setattr(shear, "cts_norm_reaches", lambda *args, **kwargs: False)
    with pytest.raises(RuntimeError, match="no valid bracket"):
        tau_d_cts(flow, 1e-2, conv)


def test_tau_d_cts_rejects_a_band_map_that_is_not_finite(flow, conv, monkeypatch):
    # the SVD stops on a NaN with LinAlgError, a ValueError: the walk must
    # report a numerical failure, never a norm below 1/e or a bad input
    monkeypatch.setattr(shear, "_phase", lambda k1, v, t: np.full((k1.size, v.size), np.nan, dtype=complex))
    with pytest.raises(RuntimeError, match="not finite"):
        tau_d_cts(flow, 1e-2, conv)


@settings(max_examples=30, deadline=None, database=None, derandomize=True)
@given(
    nu=st.floats(1e-4, 1e-1),
    t=st.floats(0.05, 20.0),
    k1_max=st.integers(1, 8),
    grid=st.sampled_from([32, 64]),
    convention=st.sampled_from(["geometric", "lattice"]),
    sheared=st.booleans(),
    level=st.sampled_from(["sigma", "below", "above", "1/e"]),
)
# 10,000 steps without shear: the |k1| = 1 band's norm sits 1.5e-12 and
# 3.2e-12 relative above its heat factor, past the pad's fixed 1e-12, so the
# level sigma fails without the pad's step-count term; one float above sigma
# the walk must pass that band and stop at the next
@example(nu=3e-3, t=200.0, k1_max=2, grid=32, convention="lattice", sheared=False, level="sigma")
@example(nu=3e-4, t=200.0, k1_max=2, grid=64, convention="geometric", sheared=False, level="above")
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


def test_readme_cts_grid_builds_60_band_matrices(monkeypatch, tmp_path):
    # 41 decisions on the README grid; the full maximum built 87 band matrices
    built, decisions = [], []
    reaches = shear.cts_norm_reaches

    class Counting(shear._Stepper):
        def __init__(self, flow, state, dt):
            built.append(state.k1.tolist())
            super().__init__(flow, state, dt)

    def recording(*args, **kwargs):
        decisions.append(args[2])
        return reaches(*args, **kwargs)

    monkeypatch.setattr(shear, "_Stepper", Counting)
    monkeypatch.setattr(shear, "cts_norm_reaches", recording)
    assert cli.main(["cts", "--shear", "sin", "--nu-grid", "1e-4:1e-2:5", "--k1max", "16", "--ygrid", "64",
                     "--out", str(tmp_path / "cts.csv")]) == 0
    assert (len(decisions), len(built)) == (41, 60)


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


@settings(max_examples=30, deadline=None, database=None, derandomize=True)
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
            assert cts_norm_reaches(band, flow, t, level) == (sigma >= level)


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
    # the 41 decisions of test_readme_cts_grid_builds_60_band_matrices, none of them by SVD
    assert cli.main(["cts", "--shear", "sin", "--nu-grid", "1e-4:1e-2:5", "--k1max", "16", "--ygrid", "64",
                     "--out", str(tmp_path / "cts.csv")]) == 0
    assert svd_calls == []


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
    with pytest.raises(ValueError, match="dt must be finite and positive"):
        evolve_cts(state, flow, 1.0, dt_target=dt)
    with pytest.raises(ValueError, match="dt must be finite and positive"):
        cts_norm(state, flow, 1.0, dt_target=dt)
    with pytest.raises(ValueError, match="dt must be finite and positive"):
        energy_identity_defects(state, flow, 1.0, dt)
    with pytest.raises(ValueError, match="dt must be finite and positive"):
        tau_d_cts(flow, 1e-2, conv, dt_target=dt)
    with pytest.raises(ValueError, match="dt must be finite and positive"):
        cts_step(state, flow, dt)
    with pytest.raises(ValueError, match="dt must be finite and positive"):
        transport_gap_cts(state, flow, 1.0, dt_target=dt)


def test_tau_d_cts_resolved_in_truncation_and_step(flow, conv):
    # the error budget is the bisection: doubling K1 and M and halving dt
    # moves tau_d by less than the 1e-3 bisection tolerance
    for nu in (1e-2, 1e-3, 1e-4):
        coarse = tau_d_cts(flow, nu, conv, k1_max=16, grid_size=64, rel_tol=1e-3, dt_target=0.02)
        fine = tau_d_cts(flow, nu, conv, k1_max=32, grid_size=128, rel_tol=1e-3, dt_target=0.01)
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
