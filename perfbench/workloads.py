"""The benchmark's workloads: seeded inputs, CLI command lists and checks.

Each workload is a fixed list of README-style ``disslab`` commands.  The
three lists share almost no code inside the program:

* ``exact-lattice``: the exact integer route (quadratic forms, LLL,
  Fincke-Pohst) in d = 2, 3, 4, plus simulate, bounds and two verify suites.
  It builds no mode ball and runs no FFT.
* ``operator-ball``: power iteration of the truncated Koopman operator over
  mode balls of up to 321,656 modes, the ball-scanning envelopes and two
  verify suites.  It is the memory-heavy workload.
* ``shear-cts``: FFT Strang solves inside the continuous-time dissipation
  time of the sin shear, and the cts verify suite.  No lattice code.

The seed goes to every command's ``--seed`` and generates the simulate
field; the program sees only the generated files and argv.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np
from disslab.bounds import h1_power_closed_form

MATRIX_2D = "2,1,1,1"
MATRIX_3D = "0,0,1,1,0,0,0,1,1"
MATRIX_4D = "0,0,0,-1,1,0,0,1,0,1,0,0,0,0,1,3"

# simulate input: distinct nonzero modes of the box |k|_inf <= FIELD_KMAX
FIELD_MODES = 4000
FIELD_KMAX = 60

PINNED = json.loads((Path(__file__).with_name("pinned.json")).read_text())


class Checks:
    """Counts correctness checks; each failure keeps a one-line reason."""

    def __init__(self):
        self.attempted = 0
        self.failures: list = []

    def check(self, label: str, ok: bool, detail: str = ""):
        self.attempted += 1
        if not ok:
            self.failures.append(f"{label}: {detail}")


def read_csv(path) -> list:
    """Rows of a disslab CSV as floats, skipping the version and header lines."""
    with open(path) as fh:
        lines = fh.read().splitlines()[2:]
    return [[float(v) for v in line.split(",")] for line in lines]


def max_rel_err(got, want) -> float:
    if len(got) != len(want):
        return math.inf
    return max(abs(g - w) / abs(w) for g, w in zip(got, want))


def _tau_values(report_path) -> list:
    with open(report_path) as fh:
        return [int(e["tau_d"]) for e in json.load(fh)["entries"]]


def _check_rcs(checks: Checks, rcs: dict, logs: dict):
    for label, rc in rcs.items():
        checks.check(f"{label} exit code", rc == 0, f"exit {rc}; output: {logs[label].strip()[-400:]}")


# ---------------------------------------------------------------------------
# exact-lattice
# ---------------------------------------------------------------------------

class ExactLattice:
    name = "exact-lattice"

    def make_inputs(self, seed: int, run_dir: Path) -> dict:
        rng = np.random.default_rng(seed)
        box = np.stack(np.meshgrid(*[np.arange(-FIELD_KMAX, FIELD_KMAX + 1)] * 2, indexing="ij"), -1).reshape(-1, 2)
        box = box[np.any(box != 0, axis=1)]
        modes = box[np.sort(rng.choice(box.shape[0], FIELD_MODES, replace=False))]
        amps = rng.standard_normal((FIELD_MODES, 2))
        payload = {
            "convention": {"dimension": 2, "scaling": "lattice"},
            "modes": [
                {"k": [int(k1), int(k2)], "re": float(re), "im": float(im)}
                for (k1, k2), (re, im) in zip(modes, amps)
            ],
        }
        path = run_dir / "field.json"
        path.write_text(json.dumps(payload))
        energy = math.fsum(float(re) ** 2 + float(im) ** 2 for re, im in amps)
        return {"field": str(path), "energy": energy}

    def commands(self, seed: int, inputs: dict, out: Path) -> list:
        s = ["--seed", str(seed)]
        return [
            ("exact-2d", ["dissipation-time", "--matrix", MATRIX_2D, "--nu-grid", "1e-12:1e-2:11",
                          "--method", "exact", *s, "--out", str(out / "exact-2d.json")]),
            ("exact-3d", ["dissipation-time", "--matrix", MATRIX_3D, "--dim", "3", "--nu-grid", "1e-20:1e-4:5",
                          "--method", "exact", *s, "--out", str(out / "exact-3d.json")]),
            ("exact-4d", ["dissipation-time", "--matrix", MATRIX_4D, "--dim", "4", "--nu-grid", "1e-20:1e-4:5",
                          "--method", "exact", *s, "--out", str(out / "exact-4d.json")]),
            ("simulate", ["simulate", "--matrix", MATRIX_2D, "--nu", "1e-6", "--steps", "30",
                          "--initial", inputs["field"], *s, "--out", str(out / "simulate.csv")]),
            ("verify-identities", ["verify", "identities", *s]),
            ("verify-decay", ["verify", "decay", *s]),
            ("bounds-h1", ["bounds", "--which", "H1", "--rate", "power:1,1", "--nu-grid", "1e-8:1e-2:13",
                           *s, "--out", str(out / "h1.csv")]),
            ("bounds-h4", ["bounds", "--which", "H4", "--rate", "exp:1,0.5", "--nu-grid", "1e-8:1e-2:13",
                           *s, "--out", str(out / "h4.csv")]),
        ]

    def sweep_commands(self, seed: int, out: Path) -> dict:
        """The 4-D exact grid through ``sweep`` at 1 and 2 jobs (traced run only)."""
        return {
            jobs: ["sweep", "--matrix", MATRIX_4D, "--dim", "4", "--nu-grid", "1e-20:1e-4:5", "--method", "exact",
                   "--jobs", str(jobs), "--seed", str(seed), "--out", str(out / f"sweep{jobs}.json")]
            for jobs in (1, 2)
        }

    def check_sweeps(self, checks: Checks, rcs: dict, logs: dict, out: Path):
        _check_rcs(checks, rcs, logs)
        for jobs in rcs:
            if rcs[jobs] == 0:
                got = _tau_values(out / f"sweep{jobs}.json")
                want = PINNED["tau_d_exact"]["exact-4d"]
                checks.check(f"sweep --jobs {jobs} tau_d", got == want, f"{got} != {want}")

    def check(self, checks: Checks, inputs: dict, rcs: dict, logs: dict, out: Path):
        _check_rcs(checks, rcs, logs)
        for label, want_all in PINNED["tau_d_exact"].items():
            if rcs[label] != 0:
                continue
            got_all = _tau_values(out / f"{label}.json")
            for i, want in enumerate(want_all):
                got = got_all[i] if i < len(got_all) else None
                checks.check(f"{label} tau_d[{i}]", got == want, f"{got} != {want}")
        if rcs["simulate"] == 0:
            energy = [row[1] for row in read_csv(out / "simulate.csv")]
            start_err = abs(energy[0] - inputs["energy"]) / inputs["energy"]
            checks.check("simulate start energy", start_err <= 1e-12, f"relative error {start_err:.3e}")
            rises = [n for n in range(1, len(energy)) if not energy[n] <= energy[n - 1]]
            checks.check("simulate energy non-increasing", not rises, f"rises at steps {rises[:5]}")
        if rcs["bounds-h1"] == 0:
            rows = read_csv(out / "h1.csv")
            err = max_rel_err([r[1] for r in rows], [h1_power_closed_form(1.0, 1.0, 1.0, 1.0, r[0]) for r in rows])
            checks.check("H1 vs closed form", err <= 1e-6, f"max relative error {err:.3e}")
        if rcs["bounds-h4"] == 0:
            err = max_rel_err([r[1] for r in read_csv(out / "h4.csv")], PINNED["h4"])
            checks.check("H4 vs pinned", err <= 1e-8, f"max relative error {err:.3e}")


# ---------------------------------------------------------------------------
# operator-ball
# ---------------------------------------------------------------------------

class OperatorBall:
    name = "operator-ball"

    def make_inputs(self, seed: int, run_dir: Path) -> dict:
        return {}

    def commands(self, seed: int, inputs: dict, out: Path) -> list:
        s = ["--seed", str(seed)]
        strong = ["mixing-rate", "--matrix", MATRIX_2D, "--mode", "strong", "--n-max", "12"]
        return [
            ("operator-2d", ["dissipation-time", "--matrix", MATRIX_2D, "--nu-grid", "1e-4:1e-2:5",
                             "--method", "operator", *s, "--out", str(out / "operator.json")]),
            ("strong-1-1", [*strong, "--alpha", "1", "--beta", "1", *s, "--out", str(out / "strong-1-1.csv")]),
            ("strong-2-1", [*strong, "--alpha", "2", "--beta", "1", *s, "--out", str(out / "strong-2-1.csv")]),
            ("weak-0", ["mixing-rate", "--matrix", MATRIX_2D, "--mode", "weak", "--alpha", "0", "--n-max", "10000",
                        *s, "--out", str(out / "weak-0.csv")]),
            ("verify-bounds", ["verify", "bounds", *s]),
            ("verify-lemmas", ["verify", "lemmas", *s]),
        ]

    def check(self, checks: Checks, inputs: dict, rcs: dict, logs: dict, out: Path):
        _check_rcs(checks, rcs, logs)
        if rcs["operator-2d"] == 0:
            got_all = _tau_values(out / "operator.json")
            # oracle: the exact lattice route on the same grid
            for i, want in enumerate(PINNED["tau_d_oracle"]):
                got = got_all[i] if i < len(got_all) else None
                checks.check(f"operator tau_d[{i}] == exact", got == want, f"{got} != {want}")
        for label, want in PINNED["envelopes"].items():
            if rcs[label] == 0:
                err = max_rel_err([r[1] for r in read_csv(out / f"{label}.csv")], want)
                checks.check(f"{label} envelope vs pinned", err <= 1e-12, f"max relative error {err:.3e}")


# ---------------------------------------------------------------------------
# shear-cts
# ---------------------------------------------------------------------------

class ShearCts:
    name = "shear-cts"

    def make_inputs(self, seed: int, run_dir: Path) -> dict:
        return {}

    def commands(self, seed: int, inputs: dict, out: Path) -> list:
        s = ["--seed", str(seed)]
        return [
            ("cts", ["cts", "--shear", "sin", "--nu-grid", "1e-4:1e-2:3", "--k1max", "16", "--ygrid", "64",
                     *s, "--out", str(out / "cts.csv")]),
            ("verify-cts", ["verify", "cts", *s]),
        ]

    def check(self, checks: Checks, inputs: dict, rcs: dict, logs: dict, out: Path):
        _check_rcs(checks, rcs, logs)
        if rcs["cts"] != 0:
            return
        rows = read_csv(out / "cts.csv")
        nus = [r[0] for r in rows]
        taus = [r[1] for r in rows]
        # 3% leaves room for the expected shift of an exact sigma(t)
        err = max_rel_err(taus, PINNED["cts_tau_d"])
        checks.check("cts tau_d within 3% of pinned", err <= 0.03, f"max relative error {err:.3e}")
        lam1 = 4.0 * math.pi**2  # geometric convention
        over = [(nu, t) for nu, t in zip(nus, taus) if t > 1.0 / (nu * lam1)]
        checks.check("cts tau_d <= trivial heat bound", not over, f"exceeded at {over}")
        slope = np.polyfit(np.log(nus), np.log(taus), 1)[0]
        checks.check("cts exponent in [0.45, 0.65]", 0.45 <= -slope <= 0.65, f"exponent {-slope:.4f}")
        nutau = [nu * t for nu, t in sorted(zip(nus, taus), reverse=True)]
        checks.check("nu*tau_d decreases as nu decreases", all(b < a for a, b in zip(nutau, nutau[1:])), f"{nutau}")


WORKLOADS = {w.name: w for w in (ExactLattice(), OperatorBall(), ShearCts())}
