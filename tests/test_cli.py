import collections
import hashlib
import importlib.util
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from disslab import cli, dissipation
from disslab.bounds import BoundProfile, lattice_count, weyl_constant
from disslab.cli import main
from disslab.fields import SpectralConvention, random_sparse_field
from disslab.mixing import RateFunction, lattice_ball_sum
from disslab.pulsed import Trajectory
from disslab.toral import ToralAutomorphism, verify_norm_form


def run_cli(args):
    return main(args)


def test_simulate_single_mode(tmp_path):
    out = tmp_path / "trajectory.csv"
    code = run_cli([
        "simulate", "--matrix", "2,1,1,1", "--nu", "0.01", "--steps", "4",
        "--initial", "mode:1,0", "--out", str(out),
    ])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("# disslab-csv")
    assert lines[1] == "n,energy,h1,e_nu"
    energies = [float(line.split(",")[1]) for line in lines[2:]]
    expected = [math.exp(-0.02 * s) for s in (0, 5, 39, 272, 1869)]
    assert energies == pytest.approx(expected, rel=1e-12)


def test_simulate_reads_each_series_once(tmp_path, monkeypatch):
    # the CSV rows come from one read of each series, not one per row
    reads = collections.Counter()
    for name in ("energies", "h1_norms_sq", "enu_values"):
        get = getattr(Trajectory, name).fget
        monkeypatch.setattr(Trajectory, name, property(lambda self, name=name, get=get: reads.update([name]) or get(self)))
    assert run_cli(["simulate", "--matrix", "1,1,0,1", "--nu", "1e-9", "--steps", "200",
                    "--initial", "mode:1,0", "--out", str(tmp_path / "traj.csv")]) == 0
    assert reads == {"energies": 1, "h1_norms_sq": 1, "enu_values": 1}
    assert len((tmp_path / "traj.csv").read_text().splitlines()) == 2 + 201


def test_simulate_initial_from_file(tmp_path):
    from disslab.fields import SpectralConvention, SpectralField

    field = SpectralField(SpectralConvention(2, "lattice"), {(1, 0): 1.0, (0, 1): 2.0})
    path = tmp_path / "field.json"
    path.write_text(field.to_json())
    out = tmp_path / "traj.csv"
    code = run_cli([
        "simulate", "--matrix", "2,1,1,1", "--nu", "0.1", "--steps", "2",
        "--initial", str(path), "--out", str(out),
    ])
    assert code == 0
    first_energy = float(out.read_text().splitlines()[2].split(",")[1])
    assert first_energy == pytest.approx(5.0, rel=1e-14)


def test_dissipation_time_report(tmp_path):
    out = tmp_path / "report.json"
    code = run_cli([
        "dissipation-time", "--matrix", "2,1,1,1", "--nu-grid", "1e-4:1e-2:5",
        "--method", "exact", "--out", str(out),
    ])
    assert code == 0
    payload = json.loads(out.read_text())
    assert len(payload["entries"]) == 5
    assert payload["fit"]["slope"] > 0
    csv_lines = (tmp_path / "report.csv").read_text().splitlines()
    assert csv_lines[1] == "nu,tau_d,ln_inv_nu"
    assert len(csv_lines) == 7


@pytest.mark.parametrize("command", ["dissipation-time", "sweep"])
def test_dissipation_time_csv_takes_the_stem_of_the_file_name(tmp_path, monkeypatch, capsys, command):
    # the CSV path used to be cut at the last dot anywhere: dir.v2/report wrote dir.csv outside dir.v2
    monkeypatch.chdir(tmp_path)
    os.mkdir("dir.v2")
    assert run_cli([command, "--matrix", "2,1,1,1", "--nu-grid", "1e-3:1e-2:2", "--out", "dir.v2/report"]) == 0
    assert sorted(os.listdir()) == ["dir.v2"]
    assert sorted(os.listdir("dir.v2")) == ["report", "report.csv"]
    assert json.loads(Path("dir.v2/report").read_text())["entries"]
    assert capsys.readouterr().out.endswith("wrote dir.v2/report and dir.v2/report.csv\n")


@pytest.mark.parametrize("command", ["dissipation-time", "sweep"])
def test_dissipation_time_refuses_an_out_that_is_its_csv(tmp_path, capsys, command):
    # --out r.csv used to write the JSON report and then overwrite it with the CSV, exit 0
    out = tmp_path / "r.csv"
    assert run_cli([command, "--matrix", "2,1,1,1", "--nu-grid", "1e-3:1e-2:2", "--out", str(out)]) == 2
    assert "is where the CSV goes" in capsys.readouterr().err
    assert os.listdir(tmp_path) == []


def test_dissipation_time_on_a_wide_4d_companion(tmp_path):
    # the companion of x^4 - 1000 x^3 + 1: the C1/C2 checks must not scan
    # every constant term up to the square of a root bound
    out = tmp_path / "report.json"
    assert run_cli(["dissipation-time", "--matrix", "0,0,0,-1,1,0,0,0,0,1,0,0,0,0,1,1000",
                    "--nu-grid", "1e-3:1e-2:2", "--out", str(out)]) == 0
    assert len(json.loads(out.read_text())["entries"]) == 2


def test_deterministic_output(tmp_path):
    digests = []
    for name in ("a.json", "b.json"):
        out = tmp_path / name
        run_cli([
            "dissipation-time", "--matrix", "2,1,1,1", "--nu-grid", "1e-3:1e-2:4",
            "--method", "operator", "--seed", "7", "--out", str(out),
        ])
        csv = out.with_suffix(".csv").read_bytes()
        digests.append(hashlib.sha256(csv + out.read_bytes()).hexdigest())
    assert digests[0] == digests[1]


def test_sweep_matches_serial(tmp_path):
    grids = {
        "2d": ["--matrix", "2,1,1,1", "--nu-grid", "1e-4:1e-2:4", "--method", "exact"],
        "4d": ["--matrix", "0,0,0,-1,1,0,0,1,0,1,0,0,0,0,1,3", "--dim", "4", "--nu-grid", "1e-20:1e-4:5",
               "--method", "exact"],
    }
    for label, base in grids.items():
        serial = tmp_path / f"serial-{label}.json"
        parallel = tmp_path / f"parallel-{label}.json"
        assert run_cli(["dissipation-time", *base, "--out", str(serial)]) == 0
        assert run_cli(["sweep", *base, "--jobs", "2", "--out", str(parallel)]) == 0
        # sweep is an alias of dissipation-time and ignores --jobs
        assert serial.read_bytes() == parallel.read_bytes()
        assert serial.with_suffix(".csv").read_bytes() == parallel.with_suffix(".csv").read_bytes()


def test_mixing_rate_strong(tmp_path):
    out = tmp_path / "envelope.csv"
    code = run_cli([
        "mixing-rate", "--matrix", "2,1,1,1", "--alpha", "1", "--beta", "1",
        "--n-max", "6", "--mode", "strong", "--out", str(out),
    ])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[1] == "n,value,tail_cert"
    assert len(lines) == 9
    assert float(lines[2].split(",")[1]) == pytest.approx(1.0)


def test_bounds_h1(tmp_path):
    out = tmp_path / "bounds.csv"
    code = run_cli([
        "bounds", "--which", "H1", "--rate", "power:1,1", "--alpha", "1", "--beta", "1",
        "--nu-grid", "1e-6:1e-2:9", "--out", str(out),
    ])
    assert code == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[2:]]
    by_nu = {float(r[0]): float(r[1]) for r in rows}
    key = min(by_nu, key=lambda nu: abs(nu - 1e-3))
    # definition-consistent sup of the H1 set (see the closed form's docstring)
    assert by_nu[key] == pytest.approx((4.0 ** -2 / 1e-3) ** (1 / 3), rel=1e-6)


def test_config_file_merging(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"nu": 0.01, "steps": 4, "initial": "mode:1,0"}))
    out = tmp_path / "t.csv"
    code = run_cli([
        "simulate", "--config", str(cfg), "--matrix", "2,1,1,1",
        "--nu", "0.1",  # explicit flag wins over the config value
        "--steps", "2", "--initial", "mode:1,0", "--out", str(out),
    ])
    assert code == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 2 + 3  # header, columns, n = 0..2
    e1 = float(lines[3].split(",")[1])
    assert e1 == pytest.approx(math.exp(-2 * 0.1 * 5), rel=1e-12)


def test_config_values_are_parsed_like_flags(tmp_path):
    # a string value used to reach the solver raw: TypeError, exit 1
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"k1max": "4"}))
    base = ["cts", "--nu-grid", "1e-2:1e-2:1"]
    assert run_cli([*base, "--config", str(cfg), "--out", str(tmp_path / "a.csv")]) == 0
    assert run_cli([*base, "--k1max", "4", "--out", str(tmp_path / "b.csv")]) == 0
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


@pytest.mark.parametrize("entry, option", [({"n-max": "x"}, "--n-max"), ({"convention": "bogus"}, "--convention")])
def test_bad_config_value_is_a_usage_error(tmp_path, capsys, entry, option):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(entry))
    with pytest.raises(SystemExit) as done:
        run_cli(["mixing-rate", "--matrix", "2,1,1,1", "--config", str(cfg), "--out", str(tmp_path / "m.csv")])
    assert done.value.code == 2
    assert f"argument {option}" in capsys.readouterr().err
    assert not (tmp_path / "m.csv").exists()


def test_config_keys_the_subcommand_lacks_are_ignored(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"bogus": 1, "command": "cts", "suite": "cts", "nu-grid": "1e-2:1e-2:1",
                               "n-max": 3}))
    base = ["mixing-rate", "--matrix", "2,1,1,1"]
    assert run_cli([*base, "--config", str(cfg), "--out", str(tmp_path / "a.csv")]) == 0
    assert run_cli([*base, "--n-max", "3", "--out", str(tmp_path / "b.csv")]) == 0
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def test_bounds_names_its_degenerate_points(tmp_path, capsys):
    # H4 of exp:1,0.5 falls back to lambda_1 = 1 at the five largest nu of the grid
    out = tmp_path / "h4.csv"
    assert run_cli(["bounds", "--which", "H4", "--rate", "exp:1,0.5", "--nu-grid", "1e-8:1e-2:13",
                    "--out", str(out)]) == 0
    line = capsys.readouterr().out.splitlines()[0]
    prefix = "H fell back to lambda_1 (the trivial heat bound) at nu = "
    assert line.startswith(prefix)
    named = [float(v) for v in line[len(prefix):].split(", ")]
    assert named == pytest.approx([10 ** e for e in (-4, -3.5, -3, -2.5, -2)], rel=1e-12)
    rows = np.loadtxt(out, delimiter=",", skiprows=2)
    assert [nu for nu, h, _ in rows if h == 1.0] == named


def test_bounds_dim_zero_is_a_validation_error(tmp_path, capsys):
    # --dim 0 used to fall back to d = 2 and exit 0
    out = tmp_path / "bounds.csv"
    assert run_cli(["bounds", "--which", "H1", "--rate", "power:1,1", "--nu-grid", "1e-6:1e-2:9", "--dim", "0",
                    "--out", str(out)]) == 2
    assert "dimension must be 2, 3 or 4, got 0" in capsys.readouterr().err
    assert not out.exists()


def test_validation_error_exit_code(tmp_path):
    assert run_cli(["simulate", "--matrix", "2,1,1", "--nu", "0.1", "--steps", "1",
                    "--initial", "mode:1,0", "--out", str(tmp_path / "x.csv")]) == 2
    assert run_cli(["dissipation-time", "--matrix", "2,1,1,1", "--nu-grid", "bogus",
                    "--out", str(tmp_path / "y.json")]) == 2


@pytest.mark.parametrize("argv, given, actual", [
    (["dissipation-time", "--matrix", "2,1,1,1", "--dim", "3", "--nu-grid", "1e-2:1e-2:1"], 3, 2),
    (["mixing-rate", "--matrix", "2,1,1,1", "--dim", "3", "--mode", "weak", "--alpha", "1"], 3, 2),
    (["simulate", "--matrix", "0,0,1,1,0,0,0,1,1", "--dim", "2", "--nu", "0.1", "--steps", "1",
      "--initial", "mode:1,0,0"], 2, 3),
    (["dissipation-time", "--matrix", "2,1,1,1", "--nu-grid", "1e-2:1e-2:1", "--config", "run.json"], 3, 2),
], ids=["dissipation-time", "mixing-rate", "simulate", "config"])
def test_dim_disagreeing_with_matrix_is_a_validation_error(tmp_path, capsys, monkeypatch, argv, given, actual):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "run.json").write_text(json.dumps({"dim": 3}))
    assert run_cli([*argv, "--out", "out.json"]) == 2
    assert f"--dim {given} disagrees with the dimension {actual} of --matrix" in capsys.readouterr().err
    assert not (tmp_path / "out.json").exists()


@pytest.mark.parametrize("argv, message", [
    (["dissipation-time", "--matrix", "2,1,1,1", "--method", "exact", "--nu-grid", "nan:1e-2:3"], "nu ends"),
    (["dissipation-time", "--matrix", "2,1,1,1", "--method", "exact", "--nu-grid", "1e-2:inf:3"], "nu ends"),
    (["dissipation-time", "--matrix", "2,1,1,1", "--method", "exact", "--nu-grid", "1e-320:1e-2:3"], "nu = 1e-320"),
    (["dissipation-time", "--matrix", "2,1,1,1", "--method", "operator", "--nu-grid", "nan:1e-2:3"], "nu ends"),
    (["dissipation-time", "--matrix", "2,1,1,1", "--method", "operator", "--nu-grid", "1e-320:1e-2:3"],
     "nu = 1e-320"),
    (["bounds", "--which", "H1", "--rate", "power:1,1", "--nu-grid", "nan:1e-2:3"], "nu ends"),
], ids=["exact-nan", "exact-inf", "exact-underflow", "operator-nan", "operator-underflow", "bounds-nan"])
def test_nu_grid_ends_must_be_finite(tmp_path, argv, message):
    # a nan or inf threshold 1/(nu * scale) is never passed, so the exact
    # walk used to run towards n_max; a subprocess bounds the wait
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    out = tmp_path / "out.json"
    done = subprocess.run([sys.executable, "-m", "disslab.cli", *argv, "--out", str(out)], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 2, done.stderr
    assert message in done.stderr
    assert not out.exists()


@pytest.mark.parametrize("nu", ["nan", "inf"])
def test_simulate_nu_must_be_finite(tmp_path, capsys, nu):
    out = tmp_path / "t.csv"
    assert run_cli(["simulate", "--matrix", "2,1,1,1", "--nu", nu, "--steps", "2", "--initial", "mode:1,0",
                    "--out", str(out)]) == 2
    assert "nu must be finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("records, message", [
    ([[1, 0], [1.7, 0]], "mode (1.7, 0) has a coordinate that is not an integer"),
    ([[1, 0], [1, 0]], "mode (1, 0) appears twice"),
    ([[1, 0], [1.0, 0]], "mode (1.0, 0) appears twice"),
], ids=["fractional", "duplicate", "duplicate-as-float"])
def test_field_json_is_never_rewritten(tmp_path, capsys, records, message):
    # the second record used to overwrite the amplitude of (1, 0): energy 4, exit 0
    payload = {"convention": {"dimension": 2, "scaling": "lattice"},
               "modes": [{"k": k, "re": float(i + 1), "im": 0.0} for i, k in enumerate(records)]}
    path, out = tmp_path / "field.json", tmp_path / "t.csv"
    path.write_text(json.dumps(payload))
    assert run_cli(["simulate", "--matrix", "2,1,1,1", "--nu", "0.1", "--steps", "2", "--initial", str(path),
                    "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("re", [math.nan, math.inf], ids=["NaN", "Infinity"])
def test_field_json_amplitudes_must_be_finite(tmp_path, capsys, re):
    # json reads the NaN and Infinity tokens; a NaN amplitude used to be
    # pruned, and an infinite one gave energy 1 at step 0 and NaN after it
    payload = {"convention": {"dimension": 2, "scaling": "lattice"},
               "modes": [{"k": [1, 0], "re": 1.0, "im": 0.0}, {"k": [2, 1], "re": re, "im": 0.0}]}
    path, out = tmp_path / "field.json", tmp_path / "t.csv"
    path.write_text(json.dumps(payload))
    assert run_cli(["simulate", "--matrix", "2,1,1,1", "--nu", "0.1", "--steps", "2", "--initial", str(path),
                    "--out", str(out)]) == 2
    assert "mode (2, 1) has an amplitude that is not finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flags, name", [
    (["--which", "H3", "--rate", "power:1,1", "--grad-u", "nan"], "grad_u_norm"),
    (["--which", "H3", "--rate", "power:1,1", "--grad-u", "-1"], "grad_u_norm"),
    (["--which", "H1", "--rate", "power:nan,1"], "c = nan"),
    (["--which", "H1", "--rate", "exp:inf,1"], "c1 = inf"),
    (["--which", "H1", "--rate", "power:1,inf"], "p = inf"),
    (["--which", "H1", "--rate", "power:1,1", "--alpha", "nan"], "alpha = nan"),
    (["--which", "H1", "--rate", "power:1,1", "--alpha", "inf"], "alpha = inf"),
    (["--which", "H2", "--rate", "power:1,0.5", "--vol", "nan"], "vol = nan"),
    (["--which", "H2", "--rate", "power:1,0.5", "--vol", "inf"], "vol = inf"),
], ids=["grad-u-nan", "grad-u-negative", "power-c-nan", "exp-c1-inf", "power-p-inf", "alpha-nan", "alpha-inf",
        "vol-nan", "vol-inf"])
def test_bound_parameters_must_be_finite_and_positive(tmp_path, capsys, flags, name):
    # each used to exit 0 with H = lambda_1 or finite bounds, or, for a
    # negative --grad-u, to report an unbounded feasible set (exit 3)
    out = tmp_path / "bounds.csv"
    assert run_cli(["bounds", *flags, "--nu-grid", "1e-4:1e-2:3", "--out", str(out)]) == 2
    assert name in capsys.readouterr().err
    assert not out.exists()


def test_dim_comes_from_the_matrix(tmp_path):
    base = ["simulate", "--matrix", "0,0,1,1,0,0,0,1,1", "--nu", "0.1", "--steps", "2", "--initial", "mode:1,0,0"]
    assert run_cli([*base, "--out", str(tmp_path / "a.csv")]) == 0
    assert run_cli([*base, "--dim", "3", "--out", str(tmp_path / "b.csv")]) == 0
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def test_numerical_failure_exit_code(tmp_path):
    # 120 pulses of the cat map overflow the 63-bit mode range
    code = run_cli([
        "simulate", "--matrix", "2,1,1,1", "--nu", "1e-3", "--steps", "120",
        "--initial", "mode:1,0", "--out", str(tmp_path / "t.csv"),
    ])
    assert code == 3


def test_verify_identities_and_lemmas():
    assert run_cli(["verify", "identities"]) == 0
    assert run_cli(["verify", "lemmas"]) == 0


def test_verify_identities_evolves_each_field_once(monkeypatch):
    # one batch of 30 fields of 12 pulses; the gap at n = 8 is read off the same runs
    from disslab import cli, pulsed

    calls = []
    original = pulsed.evolve_many

    def counted(fields, systems, n):
        calls.append((len(fields), n))
        return original(fields, systems, n)

    monkeypatch.setattr(cli, "evolve_many", counted)
    monkeypatch.setattr(pulsed, "evolve_many", counted)
    assert run_cli(["verify", "identities"]) == 0
    assert calls == [(30, 12)]


# sha256 of the stdout of `verify identities` and `verify decay` for seeds 0-2,
# as printed by the field-at-a-time pulse loop that `evolve_many` replaced
_VERIFY_STDOUT_SHA256 = {
    ("identities", 0): "4d102d70a0ec03bf52a736169ba4dcd4330e9c893a38e6350ef36d043cc3a82d",
    ("identities", 1): "5d34b0f73a3f8b2673d3d57a3602681175f339d647ea8682bba59b976e8718d8",
    ("identities", 2): "967630ff1bbf39cfea7797aa4c3b81ed52fd942a56258092e5a8e34004af2ef0",
    ("decay", 0): "fe9ec7e072ae6d4e18fce18cc35064976ab9f33da809b3f7de074ccfe98d4adc",
    ("decay", 1): "fe9ec7e072ae6d4e18fce18cc35064976ab9f33da809b3f7de074ccfe98d4adc",
    ("decay", 2): "fe9ec7e072ae6d4e18fce18cc35064976ab9f33da809b3f7de074ccfe98d4adc",
    ("cts", 0): "b20207720a20e6ec638ed08c878e62b553323483f53dc2bce3180f363cac4acc",
    ("lemmas", 0): "28534b9c222093630e35728a072ca15a02a2ab7f850b49b64c18deb1b26e519b",
    ("bounds", 0): "498e604e616e273d9da251dc82b8dc9f6b6ddc61bc5de20dd7ab4158c003588b",
}


@pytest.mark.parametrize("suite, seed", sorted(_VERIFY_STDOUT_SHA256))
def test_verify_batch_stdout_pinned(capsys, suite, seed):
    assert run_cli(["verify", suite, "--seed", str(seed)]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == _VERIFY_STDOUT_SHA256[suite, seed]


def test_verify_identities_prints_the_worst_sandwich_margin(monkeypatch, capsys):
    from disslab import checks

    margins, measure = [], checks.identity_margins

    def recorded(trajs, gap_step):
        margins.append(measure(trajs, gap_step))
        return margins[-1]

    monkeypatch.setattr(checks, "identity_margins", recorded)
    assert run_cli(["verify", "identities"]) == 0
    line = next(row for row in capsys.readouterr().out.splitlines() if row.startswith("H1 sandwich of E_nu"))
    assert margins[0][1] > 0
    assert line.split()[-1] == f"{margins[0][1]:.2e}"


def test_verify_bounds_rejects_corrupted_report(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"entries": [{"nu": 1e-3, "tau_d": 10**9, "method": "exact"}]}))
    assert run_cli(["verify", "bounds", "--report", str(bad)]) == 1
    assert run_cli(["verify", "bounds"]) == 0


def test_operator_and_cts_artifacts_pinned(tmp_path):
    # values of the seed-0 artifacts written before the exact norms replaced
    # power iteration; both routes must reproduce them bit for bit
    report = tmp_path / "operator.json"
    assert run_cli(["dissipation-time", "--matrix", "2,1,1,1", "--nu-grid", "1e-3:1e-2:3",
                    "--method", "operator", "--out", str(report)]) == 0
    entries = json.loads(report.read_text())["entries"]
    assert [(e["nu"], e["tau_d"]) for e in entries] == [
        (0.0010000000000000002, 9), (0.003162277660168382, 7), (0.010000000000000004, 6)]
    cts = tmp_path / "cts.csv"
    assert run_cli(["cts", "--nu-grid", "1e-3:1e-2:2", "--k1max", "16", "--ygrid", "64",
                    "--out", str(cts)]) == 0
    rows = [tuple(float(v) for v in line.split(",")) for line in cts.read_text().splitlines()[2:]]
    assert rows == [(0.0010000000000000002, 4.14215087890625), (0.010000000000000004, 1.08203125)]


def test_readme_cts_artifact_pinned(tmp_path):
    # sha256 of the README cts artifact written before bands were skipped by
    # their heat bound; the bytes must not change
    out = tmp_path / "cts.csv"
    assert run_cli(["cts", "--shear", "sin", "--nu-grid", "1e-4:1e-2:5", "--k1max", "16", "--ygrid", "64",
                    "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "baef1a6e39431d464c1072f7ecfe80a10a22654198111d89353c8e42b740ad08")


_README_REPORT = {"report.json": "d94b7e4c8a162890f45f3db014ac5babaffb7cf831f27d63ee0d876e4dd65c3c",
                  "report.csv": "13ea541e28578c6609fa52cc196a4a0c100543489398e6f9780b9817e6de9fa0"}


@pytest.mark.parametrize("argv, digests", [
    (["simulate", "--matrix", "2,1,1,1", "--nu", "0.01", "--steps", "4", "--initial", "mode:1,0",
      "--out", "trajectory.csv"],
     {"trajectory.csv": "9fad0d9afb0ba19a3d69dd22ef0ebaf05291f26c020d915aa730664667210f02"}),
    (["dissipation-time", "--matrix", "2,1,1,1", "--nu-grid", "1e-6:1e-2:9", "--method", "exact",
      "--out", "report.json"], _README_REPORT),
    (["bounds", "--which", "H1", "--rate", "power:1,1", "--alpha", "1", "--beta", "1", "--nu-grid", "1e-6:1e-2:9",
      "--out", "bounds.csv"],
     {"bounds.csv": "7c4471d4fdaecf803e68f960501e04d50887e718824e793cfa5fbbce2c8b3930"}),
    (["sweep", "--matrix", "2,1,1,1", "--nu-grid", "1e-6:1e-2:9", "--out", "report.json"], _README_REPORT),
], ids=["simulate", "dissipation-time", "bounds", "sweep"])
def test_readme_artifacts_pinned(tmp_path, monkeypatch, argv, digests):
    # sha256 of the artifacts the README commands write (the cts and
    # mixing-rate ones are pinned above); the bytes must not change
    monkeypatch.chdir(tmp_path)
    assert run_cli(argv) == 0
    assert {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in digests} == digests


@pytest.mark.parametrize("option, value, message", [
    ("--dt", "0", "dt must be finite and positive"),
    ("--dt", "-0.02", "dt must be finite and positive"),
    ("--k1max", "0", "k1_max must be at least 1"),
    ("--ygrid", "-64", "M must be a power of two, at least 2, got -64"),
    ("--ygrid", "0", "M must be a power of two, at least 2, got 0"),
    ("--ygrid", "1", "M must be a power of two, at least 2, got 1"),
    ("--nu-grid", "1e-5:1e-2:2", "nu outside the supported desk range"),
    ("--shear", "coeffs:nan,1", "--shear coefficients must be finite"),
    ("--shear", "coeffs:inf", "--shear coefficients must be finite"),
    ("--shear", "coeffs:0.3,-inf", "--shear coefficients must be finite"),
])
def test_cts_rejects_bad_truncation(tmp_path, capsys, option, value, message):
    out = tmp_path / "cts.csv"
    assert run_cli(["cts", "--nu-grid", "1e-2:1e-2:1", option, value, "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_cts_without_bracket_is_a_numerical_failure(tmp_path, capsys, monkeypatch):
    from disslab import shear

    monkeypatch.setattr(shear, "cts_norm_reaches", lambda *args, **kwargs: False)
    assert run_cli(["cts", "--nu-grid", "1e-2:1e-2:1", "--out", str(tmp_path / "cts.csv")]) == 3
    assert "no valid bracket" in capsys.readouterr().err


def test_cts_band_map_that_is_not_finite_is_a_numerical_failure(tmp_path, capsys, monkeypatch):
    from disslab import shear

    monkeypatch.setattr(shear, "_phase", lambda k1, v, t: np.full((k1.size, v.size), np.nan, dtype=complex))
    out = tmp_path / "cts.csv"
    assert run_cli(["cts", "--nu-grid", "1e-2:1e-2:1", "--out", str(out)]) == 3
    assert "not finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("grid", ["1e-2:1e-1:2", "1e-1:1e-2:2"])
def test_cts_grid_may_end_at_the_desk_edge(tmp_path, grid):
    # exp(log 0.1) rounds to 0.10000000000000002, just past the desk range
    out = tmp_path / "cts.csv"
    assert run_cli(["cts", "--nu-grid", grid, "--out", str(out)]) == 0
    assert [line.split(",")[0] for line in out.read_text().splitlines()[2:]] == [
        "0.010000000000000004", "0.10000000000000001"]


def test_scan_values_pinned(cat):
    # the integer outputs are exact and pinned; min_product = min |N| |det K| / |disc|
    # is one integer quotient, so it is the correctly rounded 1/5 and 1/23
    nf = verify_norm_form(cat, 200)
    assert (nf["argmin"], nf["min_abs_norm_form"], nf["scanned"]) == ((-144, -89), 1, 125628)
    assert nf["min_product"] == 1 / 5
    nf = verify_norm_form(ToralAutomorphism(((0, 1, 0), (0, 0, 1), (1, 1, 0))), 8)
    assert (nf["argmin"], nf["min_abs_norm_form"], nf["scanned"]) == ((-4, 0, 3), 1, 2108)
    assert nf["min_product"] == 1 / 23
    assert lattice_count(2, 1e4) == 31416


def test_mixing_and_simulate_artifacts_pinned(tmp_path):
    # sha256 of the artifacts written before the scans and the pulse were
    # folded into single implementations; the bytes must not change, except
    # that the strong tail_cert column reads 0 since the envelope is exact
    # and the weak values come from one running sum over the lattice shells
    def sha256(data):
        return hashlib.sha256(data).hexdigest()

    def n_value_columns(path):
        lines = path.read_text().splitlines()[1:]
        return "\n".join(line.rsplit(",", 1)[0] for line in lines).encode()

    strong, weak, sim = tmp_path / "strong.csv", tmp_path / "weak.csv", tmp_path / "sim.csv"
    assert run_cli(["mixing-rate", "--matrix", "2,1,1,1", "--alpha", "1", "--beta", "1", "--n-max", "12",
                    "--mode", "strong", "--out", str(strong)]) == 0
    assert sha256(strong.read_bytes()) == "5ae47bda716467e960eea8883ab3b8424877593c3ab073e8dbdda62809ce92cf"
    # the n,value columns as written before the exact envelope
    assert sha256(n_value_columns(strong)) == "7a48cbf7c99056da10fcd55874451541c93ca65addbdca1182be399428b0e1fc"
    assert run_cli(["mixing-rate", "--matrix", "2,1,1,1", "--alpha", "2", "--beta", "1", "--n-max", "12",
                    "--mode", "strong", "--out", str(strong)]) == 0
    assert sha256(strong.read_bytes()) == "476fda06bbd98d5d2fbd777f9e3638de26f028316b53bd93b21b62380038d186"
    assert sha256(n_value_columns(strong)) == "83e09cb5cdf937db5c9381ea2b2cbd7265c98e016153b12e0fe45707a79fac5c"
    assert run_cli(["mixing-rate", "--matrix", "2,1,1,1", "--alpha", "0", "--beta", "1", "--n-max", "10000",
                    "--mode", "weak", "--out", str(weak)]) == 0
    assert sha256(weak.read_bytes()) == "f9f2d07536989432cb52703a3b9f6b33ca73eb075eacd39dbee6600c65de479f"
    field = random_sparse_field(SpectralConvention(2, "lattice"), np.random.default_rng(7), n_modes=12, kmax=9)
    (tmp_path / "field.json").write_text(field.to_json())
    assert run_cli(["simulate", "--matrix", "2,1,1,1", "--nu", "1e-4", "--steps", "30",
                    "--initial", str(tmp_path / "field.json"), "--out", str(sim)]) == 0
    assert sha256(sim.read_bytes()) == "485d05e792512e80d7e5fa250f9cd44f8c8d6f297977938e9f233d2937a7b568"


@pytest.mark.parametrize("matrix, digest", [
    ("0,0,1,1,0,0,0,1,1", "62185bb5194636d4d8f0657e65d461978bf98cd8c45dbd8a940bb52098c9afe8"),
    ("0,0,0,-1,1,0,0,1,0,1,0,0,0,0,1,3", "c94ff59674df8dc867f086ff2d0209098898d027479393d0b6e31829bc51854d"),
], ids=["3d", "4d"])
def test_weak_envelope_artifacts_pinned(tmp_path, matrix, digest):
    # sha256 of the weak CSVs written since the lattice sums are one running
    # sum over the shells; every value lies within its error bound of the
    # value from the exact ball sums
    out = tmp_path / "weak.csv"
    assert run_cli(["mixing-rate", "--matrix", matrix, "--alpha", "0", "--beta", "1", "--n-max", "10000",
                    "--mode", "weak", "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


@pytest.mark.parametrize("flags, name", [
    (["--mode", "weak", "--alpha", "0", "--beta", "nan"], "beta"),
    (["--mode", "weak", "--alpha", "0", "--n-max", "0"], "n_max"),
    (["--mode", "weak", "--alpha", "0", "--n-max", "-3"], "n_max"),
    (["--mode", "weak", "--alpha", "1", "--n-max", "0"], "n_max"),
    (["--mode", "weak", "--alpha", "nan", "--beta", "-5", "--n-max", "3"], "alpha"),
    (["--mode", "weak", "--alpha", "1", "--beta", "inf", "--n-max", "3"], "beta"),
    (["--mode", "strong", "--n-max", "-1"], "n_max"),
    (["--mode", "strong", "--alpha", "nan"], "alpha"),
    (["--mode", "strong", "--beta", "inf"], "beta"),
    # n = 1 would walk 2,501 shells of integers up to 10^4 bits
    (["--mode", "strong", "--beta", "1e-4", "--n-max", "12"], "at n = 1 needs 2501 shells"),
], ids=["weak-beta-nan", "weak-n-max-0", "weak-n-max-negative", "cesaro-n-max-0", "cesaro-alpha-nan",
        "cesaro-beta-inf", "strong-n-max-negative", "strong-alpha-nan", "strong-beta-inf", "strong-beta-tiny"])
def test_mixing_rate_inputs_are_validation_errors(tmp_path, capsys, flags, name):
    out = tmp_path / "envelope.csv"
    assert run_cli(["mixing-rate", "--matrix", "2,1,1,1", *flags, "--out", str(out)]) == 2
    assert name in capsys.readouterr().err
    assert not out.exists()


def test_strong_envelope_runs_past_the_int64_range(tmp_path):
    # B^16 k leaves int64 for the cat map; the exact envelope works in Python ints
    short, long = tmp_path / "short.csv", tmp_path / "long.csv"
    for n_max, out in (("12", short), ("30", long)):
        assert run_cli(["mixing-rate", "--matrix", "2,1,1,1", "--n-max", n_max, "--mode", "strong",
                        "--out", str(out)]) == 0
    rows = long.read_text().splitlines()
    assert len(rows) == 2 + 31
    assert rows[:2 + 13] == short.read_text().splitlines()
    assert all(line.endswith(",0") for line in rows[2:])


@pytest.fixture()
def capped_memory(monkeypatch):
    # report at most 32 GB of physical memory, so that no host allocates an
    # oversized ball, and fail loudly if a scan starts anyway
    sysconf = os.sysconf
    cap_pages = 32 * 10**9 // sysconf("SC_PAGE_SIZE")
    monkeypatch.setattr(os, "sysconf", lambda name: min(sysconf(name), cap_pages)
                        if name == "SC_PHYS_PAGES" else sysconf(name))

    def no_scan(*args, **kwargs):
        raise AssertionError("an oversized lattice-ball scan started")

    # the ball scan starts with np.meshgrid, the shell counts with np.bincount
    for name in ("meshgrid", "bincount"):
        monkeypatch.setattr(np, name, no_scan)


@pytest.mark.parametrize("matrix, dim, nu", [
    ("2,1,1,1", "2", "1e-10"),  # radius 100,001: 3.1e10 ball modes, about 3.1 TB
    ("0,0,0,-1,1,0,0,1,0,1,0,0,0,0,1,3", "4", "1e-4"),  # radius 101: 5.3e8 ball modes, about 53 GB
])
def test_oversized_mode_ball_is_a_validation_error(tmp_path, capped_memory, capsys, matrix, dim, nu):
    code = run_cli(["dissipation-time", "--matrix", matrix, "--dim", dim, "--nu-grid", f"{nu}:{nu}:1",
                    "--method", "operator", "--out", str(tmp_path / "r.json")])
    assert code == 2
    assert "GB" in capsys.readouterr().err


def test_pulse_walk_past_physical_memory_is_a_validation_error(tmp_path, capsys, capped_memory, monkeypatch):
    # the orbits of this shear grow linearly and never reach MODE_LIMIT; the
    # walk keeps 6 floats per step whatever the mode count, so 800,000,000
    # pulses of 4,000 modes would store 6 * 8 * 800,000,001 B, about 38 GB
    field = random_sparse_field(SpectralConvention(2, "lattice"), np.random.default_rng(0), n_modes=4000, kmax=60)
    path, out = tmp_path / "field.json", tmp_path / "trajectory.csv"
    path.write_text(field.to_json())
    monkeypatch.setattr(np, "zeros", lambda *args, **kwargs: pytest.fail("the pulse walk allocated its series"))
    code = run_cli(["simulate", "--matrix", "1,1,0,1", "--nu", "1e-6", "--steps", "800000000",
                    "--initial", str(path), "--out", str(out)])
    assert code == 2
    assert "800000000 pulses of 4000 modes needing 38.4 GB" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("dimension, scaling, flags, message", [
    # used to end in NumPy's "matmul: Input operand 1 has a mismatch in its core dimension 0"
    (3, "lattice", [], "a 3-D lattice field cannot run under a 2-D lattice system"),
    # used to run silently with the lattice eigenvalues
    (2, "geometric", [], "a 2-D geometric field cannot run under a 2-D lattice system"),
    (2, "lattice", ["--convention", "geometric"], "a 2-D lattice field cannot run under a 2-D geometric system"),
], ids=["dimension", "scaling", "scaling-flag"])
def test_field_file_must_match_the_run_convention(tmp_path, capsys, dimension, scaling, flags, message):
    mode = [1] + [0] * (dimension - 1)
    payload = {"convention": {"dimension": dimension, "scaling": scaling},
               "modes": [{"k": mode, "re": 1.0, "im": 0.0}]}
    path, out = tmp_path / "field.json", tmp_path / "t.csv"
    path.write_text(json.dumps(payload))
    assert run_cli(["simulate", "--matrix", "2,1,1,1", *flags, "--nu", "0.1", "--steps", "2",
                    "--initial", str(path), "--out", str(out)]) == 2
    assert f"error: {message}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("args, message", [
    # each nu grid is priced at what its command holds per point
    (["bounds", "--which", "H1", "--rate", "power:1,1", "--nu-grid", "1e-4:1e-2:100000000000"],
     "nu grid of 100000000000 points needing 34000.0 GB"),
    (["dissipation-time", "--matrix", "2,1,1,1", "--nu-grid", "1e-4:1e-2:100000000000"],
     "nu grid of 100000000000 points needing 32000.0 GB"),
    (["cts", "--nu-grid", "1e-4:1e-2:100000000000"], "nu grid of 100000000000 points needing 19000.0 GB"),
    (["mixing-rate", "--matrix", "2,1,1,1", "--n-max", "100000000000"],
     "strong envelope of 100000000001 values needing 1600.0 GB"),
    (["mixing-rate", "--matrix", "2,1,1,1", "--mode", "weak", "--alpha", "1", "--n-max", "100000000000"],
     "weak Cesaro series of 100000000000 values needing 800.0 GB"),
], ids=["bounds", "dissipation-time", "cts", "mixing-rate-strong", "mixing-rate-cesaro"])
def test_series_lengths_are_priced_before_allocation(tmp_path, capsys, capped_memory, args, message):
    # these used to end in numpy's _ArrayMemoryError traceback (exit 1)
    assert run_cli([*args, "--out", str(tmp_path / "out.json")]) == 2
    assert message in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("args, owner, sweep", [
    (["dissipation-time", "--matrix", "2,1,1,1"], cli, "dissipation_sweep"),
    (["bounds", "--which", "H1", "--rate", "power:1,1"], BoundProfile, "evaluate_grid"),
    (["cts"], cli, "tau_d_cts"),
], ids=["dissipation-time", "bounds", "cts"])
def test_nu_grids_are_priced_per_point_of_their_command(tmp_path, capsys, capped_memory, monkeypatch,
                                                        args, owner, sweep):
    # 2e8 points fit the grid's own 16 B per point (3.2 GB) but not what each
    # command holds per point (38-68 GB, above the 32 GB the fixture reports)
    monkeypatch.setattr(np, "linspace", lambda *a, **k: pytest.fail("the nu grid was built"))
    monkeypatch.setattr(owner, sweep, lambda *a, **k: pytest.fail(f"{sweep} started"))
    assert run_cli([*args, "--nu-grid", "1e-4:1e-2:200000000", "--out", str(tmp_path / "out")]) == 2
    assert "nu grid of 200000000 points needing" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("scan, message", [
    (lambda cat: lattice_count(4, 1e10), "GB"),  # radius 100,001: 4.9e20 ball modes
    # the streamed scans hold one batch, so their size is priced as work
    (lambda cat: verify_norm_form(cat, 10**6), "1.257e+15 element adds (3.142e+12 ball rows at 400 each)"),
    # the rows of the norm-form scan are priced at its own per-row cost, so
    # radius 10^4 (3e8 rows, about 20 s of scan) is refused too
    (lambda cat: verify_norm_form(cat, 10**4), "1.257e+11 element adds (3.142e+08 ball rows at 400 each)"),
    # the shell counts under it, about 160 MB, cost 2 * 2000 * (4e6 + 1) element adds
    (lambda cat: lattice_ball_sum(4, 1.0, 2000), "1.600e+10 element adds, above the work limit"),
], ids=["lattice_count", "verify_norm_form", "verify_norm_form_by_row_cost", "lattice_ball_sum"])
def test_oversized_scans_are_validation_errors(capped_memory, cat, scan, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        scan(cat)


@pytest.mark.parametrize("commands, forbidden", [
    # np.unique loads numpy.ma lazily, about 1 MB of resident memory; the
    # shear route and its verify suite must run without it
    ([["cts", "--nu-grid", "1e-2:1e-3:2", "--k1max", "4", "--ygrid", "32", "--out", "{tmp}/cts.csv"],
      ["verify", "cts"]], ["numpy.ma"]),
    # one walk over n serves a whole nu grid, so no command starts a process pool
    ([["sweep", "--matrix", "2,1,1,1", "--nu-grid", "1e-4:1e-2:4", "--jobs", "2", "--out", "{tmp}/sweep.json"],
      ["dissipation-time", "--matrix", "2,1,1,1", "--nu-grid", "1e-4:1e-2:4", "--out", "{tmp}/report.json"]],
     ["concurrent.futures.process", "multiprocessing"]),
    # numpy.random (about 6 MB resident) loads only for the verify suites that
    # draw from it, and the weak envelope's log grid needs no np.unique
    ([["verify", "lemmas"], ["verify", "bounds"], ["verify", "cts"],
      ["mixing-rate", "--matrix", "2,1,1,1", "--mode", "weak", "--alpha", "0", "--n-max", "10000",
       "--out", "{tmp}/weak.csv"]], ["numpy.random", "numpy.ma"]),
], ids=["numpy-ma", "process-pool", "numpy-random"])
def test_commands_never_import(tmp_path, commands, forbidden):
    src = Path(__file__).resolve().parents[1] / "src"
    argvs = [[arg.format(tmp=tmp_path) for arg in argv] for argv in commands]
    script = (
        "import sys\n"
        "from disslab.cli import main\n"
        f"assert all(main(argv) == 0 for argv in {argvs!r})\n"
        f"print([name for name in {forbidden!r} if name in sys.modules])\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[]"


def test_shell_counts_past_the_work_limit_are_validation_errors(monkeypatch):
    # lattice_count(4, 1e8) needs 5.6 GB, which a reported 64 GB host holds,
    # and 2e12 element adds, which the work price refuses before np.bincount
    sysconf = os.sysconf
    monkeypatch.setattr(os, "sysconf", lambda name: 64 * 10**9 // sysconf("SC_PAGE_SIZE")
                        if name == "SC_PHYS_PAGES" else sysconf(name))

    def no_count(*args, **kwargs):
        raise AssertionError("an oversized shell count started")

    monkeypatch.setattr(np, "bincount", no_count)
    with pytest.raises(ValueError, match="element adds"):
        lattice_count(4, 1e8)


def test_perfbench_tracer_installs_and_uninstalls():
    # importing disslab.cli (above) loads every module the tracer patches; a
    # traced name that is renamed or deleted makes install() raise
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    originals = {name: dissipation.__dict__[name] for name in module.SPANS["dissipation"]}
    tracer = module.Tracer()
    tracer.install()
    try:
        assert all(dissipation.__dict__[name] is not fn for name, fn in originals.items())
        assert dissipation.tau_d_exact(ToralAutomorphism(((2, 1), (1, 1))), 0.1) == 4
    finally:
        tracer.uninstall()
    assert all(dissipation.__dict__[name] is fn for name, fn in originals.items())
    assert tracer.metrics()["dissipation.tau_d_exact.calls"] == 1


@pytest.mark.parametrize("name, content, argv, message", [
    ("field.json", {"convention": {"dimension": 2, "scaling": "lattice"}},
     ["simulate", "--matrix", "2,1,1,1", "--nu", "0.01", "--steps", "4", "--initial", "{file}"], "has no key 'modes'"),
    ("rate.json", {"t": [1, 2]},
     ["bounds", "--which", "H1", "--rate", "file:{file}", "--nu-grid", "1e-4:1e-2:3"], "has no key 'h'"),
    ("report.json", {"fit": None}, ["verify", "bounds", "--report", "{file}"], "has no key 'entries'"),
    ("report.json", {"entries": [1, 2]}, ["verify", "bounds", "--report", "{file}"],
     "holds a value of the wrong type: 'int' object is not subscriptable"),
    ("report.json", {"entries": [{"nu": 0.01}]}, ["verify", "bounds", "--report", "{file}"], "has no key 'tau_d'"),
    ("run.json", [1, 2],
     ["simulate", "--config", "{file}", "--matrix", "2,1,1,1", "--nu", "0.01", "--steps", "4", "--initial", "mode:1,0"],
     "holds a value of the wrong type: 'list'"),
], ids=["field-without-modes", "rate-without-h", "report-without-entries", "report-entries-not-objects",
      "report-entry-without-tau_d", "config-list"])
def test_outside_json_of_the_wrong_shape_is_a_validation_error(tmp_path, capsys, name, content, argv, message):
    path, out = tmp_path / name, tmp_path / "out.csv"
    path.write_text(json.dumps(content))
    argv = [arg.format(file=path) for arg in argv]
    code = run_cli(argv if argv[0] == "verify" else [*argv, "--out", str(out)])
    printed = capsys.readouterr()
    assert code == 2
    assert f"error: {path} {message}" in printed.err
    assert "Traceback" not in printed.err and not printed.out
    assert not out.exists()


def test_weak_bounds_take_alpha_zero(tmp_path, capsys):
    # H2 and H4 are the weak-rate bounds: their rates are built in weak mode,
    # where alpha = 0 is the weak class; H1 still asks for a strong rate
    weyl_c = weyl_constant(2, scaling="lattice")
    rate = RateFunction.power(1.0, 0.5, 0.0, 1.0, mode="weak")
    for which in ("H2", "H4"):
        profile = BoundProfile(which, rate, weyl_c=weyl_c, grad_u_norm=1.0)
        assert all(math.isfinite(e["bound"]) and e["bound"] > 0 for e in profile.evaluate_grid([1e-4, 1e-3, 1e-2]))
        out = tmp_path / f"{which}.csv"
        assert run_cli(["bounds", "--which", which, "--rate", "power:1,0.5", "--alpha", "0",
                        "--nu-grid", "1e-4:1e-2:3", "--out", str(out)]) == 0
        assert np.all(np.isfinite(np.loadtxt(out, delimiter=",", skiprows=2)))
    assert run_cli(["bounds", "--which", "H1", "--rate", "power:1,0.5", "--alpha", "0",
                    "--nu-grid", "1e-4:1e-2:3", "--out", str(tmp_path / "H1.csv")]) == 2
    assert "strong rates need alpha > 0" in capsys.readouterr().err


def test_weak_bounds_refuse_a_tabulated_rate_below_the_weak_floor(tmp_path, capsys):
    path = tmp_path / "rate.json"
    path.write_text(json.dumps({"t": [1, 4, 16], "h": [1.0, 0.4, 0.1]}))  # 0.4 < 1/sqrt(4)
    for which in ("H2", "H4"):
        out = tmp_path / f"{which}.csv"
        assert run_cli(["bounds", "--which", which, "--rate", f"file:{path}", "--nu-grid", "1e-4:1e-2:3",
                        "--out", str(out)]) == 2
        assert "weak rates cannot decay faster than 1/sqrt(n)" in capsys.readouterr().err
        assert not out.exists()
    assert run_cli(["bounds", "--which", "H1", "--rate", f"file:{path}", "--nu-grid", "1e-4:1e-2:3",
                    "--out", str(tmp_path / "H1.csv")]) == 0


@pytest.mark.parametrize("times", [[-2, -1, 3], [0, 1, 3]], ids=["negative", "zero"])
@pytest.mark.parametrize("which", ["H1", "H2", "H3", "H4"])
def test_bounds_refuse_tabulated_rate_times_at_or_below_zero(tmp_path, capsys, which, times):
    # the times were once taken: H1 wrote a CSV and H3 failed with only "math domain error"
    path, out = tmp_path / "rate.json", tmp_path / "out.csv"
    path.write_text(json.dumps({"t": times, "h": [1.0, 0.5, 0.25]}))
    assert run_cli(["bounds", "--which", which, "--rate", f"file:{path}", "--nu-grid", "1e-4:1e-2:3",
                    "--out", str(out)]) == 2
    bad = [float(t) for t in times if t <= 0]
    assert f"tabulated times must be positive, got t = {bad}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("matrix", ["1,1000,0,1", "1,3000000000,0,1", "1,10000000000,0,1"])
def test_operator_ball_images_past_int64_squares(tmp_path, matrix):
    # the modes (0, +-1) are fixed, so min S_n = n and tau_d = 101 at nu = 1e-2;
    # for the two wide shears |A^T m|^2 of the radius-11 ball passes 2^63
    out = tmp_path / "report.json"
    assert run_cli(["dissipation-time", "--method", "operator", "--matrix", matrix, "--nu-grid", "1e-2:1e-2:1",
                    "--out", str(out)]) == 0
    assert [e["tau_d"] for e in json.loads(out.read_text())["entries"]] == [101]
