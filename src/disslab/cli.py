"""Command line front end: simulate, dissipation-time, mixing-rate, bounds,
cts, verify, and sweep (an alias of dissipation-time).  ``verify`` takes its
measurements from ``disslab.checks``, as the acceptance tests do.

Conventions shared by all subcommands:

* matrices are row-major integer lists (``--matrix 2,1,1,1``),
* nu grids are log spaced ``lo:hi:points``,
* every float is printed with 17 significant digits and CSV headers carry a
  format version, so identical configurations produce byte-identical files,
* ``--config run.json`` may supply any long option; explicit flags win,
* exit codes: 0 success, 2 validation error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import os
import sys
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from . import checks
from .bounds import BoundProfile, lattice_count, weyl_constant
from .dissipation import DissipationReport, dissipation_sweep
from .fields import ModeOverflowError, SpectralConvention, SpectralField, random_sparse_field, require_memory
from .mixing import RateFunction, strong_envelope, weak_series
from .pulsed import PulsedSystem, evolve, evolve_many
from .shear import NU_DESK, CtsState, ShearFlow, tau_d_cts, transport_gap_cts
from .toral import ToralAutomorphism, verify_norm_form

CSV_VERSION = "disslab-csv v1"


def _fmt(x) -> str:
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return f"{float(x):.17g}"


def _write_csv(path: str, columns: Sequence[str], rows: Iterable[Sequence]) -> None:
    with open(path, "w") as fh:
        fh.write(f"# {CSV_VERSION}\n")
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def _parse_matrix(text: str) -> ToralAutomorphism:
    vals = [int(v) for v in text.split(",")]
    d = math.isqrt(len(vals))
    if d * d != len(vals) or d < 2:
        raise ValueError(f"matrix needs d*d integers, got {len(vals)}")
    rows = tuple(tuple(vals[i * d : (i + 1) * d]) for i in range(d))
    return ToralAutomorphism(rows)


# bytes a command holds per nu-grid point: its report rows, their JSON and
# CSV text, the grid and its sorted copies.  Peak RSS of in-process runs on
# 1e-4:1e-2:N grew by 305-309 B per point for dissipation-time (exact and
# operator routes alike), 297-306 B for bounds H1 and 327-337 B for H4
# (1e-8:1e-2:N), and 183 B for cts with its solver stubbed out, between
# N = 2, 100,000 and 200,000 (2 vCPU, Python 3.11, numpy 2.4)
GRID_POINT_BYTES = {"dissipation-time": 320, "bounds": 340, "cts": 190}


def _parse_nu_grid(text: str, point_bytes: int) -> np.ndarray:
    """The log-spaced nu grid ``lo:hi:points``, priced at ``point_bytes`` per
    point before it is built."""
    lo, hi, pts = text.split(":")
    lo, hi, pts = float(lo), float(hi), int(pts)
    if not (0 < lo < math.inf and 0 < hi < math.inf) or pts < 1:
        raise ValueError(f"bad nu grid {text!r}: nu ends must be finite and positive, points >= 1")
    if pts == 1:
        return np.array([lo])
    require_memory(point_bytes * pts, f"nu grid of {pts} points")
    return np.exp(np.linspace(math.log(lo), math.log(hi), pts))


@contextlib.contextmanager
def _json_file(path: str):
    """Open a JSON input file; a missing key or a value of the wrong type met
    while reading it is a ValueError that names the file."""
    with open(path) as fh:
        try:
            yield fh
        except KeyError as exc:
            raise ValueError(f"{path} has no key {exc}") from None
        except (TypeError, AttributeError) as exc:
            raise ValueError(f"{path} holds a value of the wrong type: {exc}") from None


def _parse_initial(text: str, convention: SpectralConvention) -> SpectralField:
    if text.startswith("mode:"):
        mode = tuple(int(v) for v in text[len("mode:") :].split(","))
        return SpectralField(convention, {mode: 1.0 + 0j})
    with _json_file(text) as fh:
        return SpectralField.from_json(fh.read())


def _parse_rate(text: str, alpha: float, beta: float, mode: str) -> RateFunction:
    if text.startswith("power:"):
        c, p = (float(v) for v in text[len("power:") :].split(","))
        return RateFunction.power(c, p, alpha, beta, mode)
    if text.startswith("exp:"):
        c1, c2 = (float(v) for v in text[len("exp:") :].split(","))
        return RateFunction.exponential(c1, c2, alpha, beta, mode)
    if text.startswith("file:"):
        with _json_file(text[len("file:") :]) as fh:
            payload = json.load(fh)
            return RateFunction.tabulated(payload["t"], payload["h"], alpha, beta, mode)
    raise ValueError(f"unknown rate spec {text!r} (power:c,p | exp:c1,c2 | file:path)")


def _parse_shear(text: str) -> ShearFlow:
    if text == "sin":
        return ShearFlow.sinusoidal()
    if text.startswith("coeffs:"):
        # alternating cos/sin coefficients per harmonic: a1,b1,a2,b2,...
        vals = [float(v) for v in text[len("coeffs:") :].split(",")]
        if not all(math.isfinite(v) for v in vals):
            raise ValueError(f"--shear coefficients must be finite, got {text!r}")
        cos = tuple(vals[0::2])
        sin = tuple(vals[1::2])
        return ShearFlow(cos_coeffs=cos, sin_coeffs=sin)
    raise ValueError(f"unknown shear spec {text!r}")


def _matrix_and_convention(args) -> Tuple[ToralAutomorphism, SpectralConvention]:
    """The automorphism of ``--matrix`` and a convention in its dimension.

    ``--dim`` is optional next to a matrix; one that disagrees is an error.
    """
    auto = _parse_matrix(args.matrix)
    if args.dim is not None and args.dim != auto.dimension:
        raise ValueError(f"--dim {args.dim} disagrees with the dimension {auto.dimension} of --matrix")
    return auto, SpectralConvention(auto.dimension, args.convention)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_simulate(args) -> int:
    auto, conv = _matrix_and_convention(args)
    theta0 = _parse_initial(args.initial, conv)
    system = PulsedSystem(auto, args.nu, conv)
    traj = evolve(theta0, system, args.steps)
    rows = zip(range(traj.n_steps + 1), traj.energies, traj.h1_norms_sq, [*traj.enu_values, float("nan")])
    _write_csv(args.out, ["n", "energy", "h1", "e_nu"], rows)
    print(f"wrote {args.out} ({traj.n_steps} steps)")
    return 0


def _cmd_dissipation_time(args) -> int:
    out = args.out
    csv_path = os.path.splitext(out)[0] + ".csv"  # the stem of the file name, never of a directory
    if csv_path == out:
        raise ValueError(f"--out {out} is where the CSV goes; give the JSON report another extension")
    auto, conv = _matrix_and_convention(args)
    report = dissipation_sweep(auto, _parse_nu_grid(args.nu_grid, GRID_POINT_BYTES["dissipation-time"]),
                               args.method, conv)
    with open(out, "w") as fh:
        json.dump(report.to_json_dict(), fh, indent=1, default=float)
    rows = ((e["nu"], e["tau_d"], abs(math.log(e["nu"]))) for e in report.entries)
    _write_csv(csv_path, ["nu", "tau_d", "ln_inv_nu"], rows)
    if report.fit:
        print(f"slope vs |ln nu|: {_fmt(report.fit.slope)} (r^2 = {_fmt(report.fit.r_squared)})")
    print(f"wrote {out} and {csv_path}")
    return 0


def _cmd_mixing_rate(args) -> int:
    auto, conv = _matrix_and_convention(args)
    if args.mode == "strong":
        env = strong_envelope(auto, args.alpha, args.beta, args.n_max)
        ns, vals = env.n_values, env.values
    else:
        ns, vals = weak_series(auto, conv, args.alpha, args.beta, args.n_max)
    _write_csv(args.out, ["n", "value", "tail_cert"], ((n, v, 0.0) for n, v in zip(ns, vals)))
    print(f"wrote {args.out}")
    return 0


def _cmd_bounds(args) -> int:
    # H2 and H4 are the weak-rate bounds
    rate = _parse_rate(args.rate, args.alpha, args.beta, "weak" if args.which in ("H2", "H4") else "strong")
    conv = SpectralConvention(2 if args.dim is None else args.dim, args.convention)
    kwargs = dict(dimension=conv.dimension, lambda_1=conv.lambda_1)
    if args.which in ("H2", "H4"):
        kwargs["weyl_c"] = weyl_constant(conv.dimension, args.vol, args.eps, scaling=conv.scaling)
    if args.which in ("H3", "H4"):
        kwargs["grad_u_norm"] = args.grad_u
    profile = BoundProfile(args.which, rate, **kwargs)
    nus = _parse_nu_grid(args.nu_grid, GRID_POINT_BYTES["bounds"])
    evaluated = profile.evaluate_grid(nus)
    rows = ((e["nu"], e["H"], e["bound"]) for e in evaluated)
    _write_csv(args.out, ["nu", "H", "bound"], rows)
    degenerate = [_fmt(e["nu"]) for e in evaluated if e["degenerate"]]
    if degenerate:
        print(f"H fell back to lambda_1 (the trivial heat bound) at nu = {', '.join(degenerate)}")
    print(f"wrote {args.out}")
    return 0


def _cmd_cts(args) -> int:
    flow = _parse_shear(args.shear)
    conv = SpectralConvention(2, args.convention)
    # the written ends must lie in the desk range; the log-spaced points may
    # round just past it (exp(log 0.1) = 0.10000000000000002) and are clamped
    lo, hi = NU_DESK
    nus = _parse_nu_grid(args.nu_grid, GRID_POINT_BYTES["cts"])
    if not all(lo <= float(end) <= hi for end in args.nu_grid.split(":")[:2]):
        raise ValueError(f"nu outside the supported desk range [1e-4, 1e-1]: {args.nu_grid!r}")
    rows = [(nu, tau_d_cts(flow, nu, conv, k1_max=args.k1max, grid_size=args.ygrid))
            for nu in map(float, sorted(np.clip(nus, lo, hi)))]
    _write_csv(args.out, ["nu", "tau_d"], rows)
    print(f"wrote {args.out}")
    return 0


# ---------------------------------------------------------------------------
# verify suites
# ---------------------------------------------------------------------------

def _verify_identities(rng) -> List[tuple]:
    conv = SpectralConvention(2, "lattice")
    cat = ToralAutomorphism(((2, 1), (1, 1)))
    nus = [nu for nu in (1e-1, 1e-3, 1e-6) for _ in range(10)]
    fields = [random_sparse_field(conv, rng, n_modes=6, kmax=6) for _ in nus]
    trajs = evolve_many(fields, [PulsedSystem(cat, nu, conv) for nu in nus], 12)
    energy, sandwich, gap = checks.identity_margins(trajs, 8)
    return [
        ("one-step energy equality", energy < 1e-12, f"max residual {energy:.2e}"),
        ("H1 sandwich of E_nu", sandwich >= -1e-12, f"worst margin {sandwich:.2e}"),
        ("inviscid gap bound", gap >= -1e-12, ""),
    ]


def _verify_lemmas() -> List[tuple]:
    _, violations = checks.kronecker_box_scan(3)
    nf = verify_norm_form(ToralAutomorphism(((2, 1), (1, 1))), 200)
    nf_ok = nf["integer_form_ok"] and abs(nf["min_product"] - 0.2) < 1e-9
    return [
        ("Kronecker scan of SL2 box [-3,3]", not violations, f"{violations} violations"),
        ("nonvanishing integer norm form (r <= 200)", nf_ok, f"min product {nf['min_product']:.6f}"),
    ]


def _is_number(value) -> bool:
    """Is ``value`` a JSON number (a bool is JSON true/false, not a number)?"""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _report_entries(path: str) -> List[dict]:
    """The (nu, tau_d) entries of a dissipation report file: at least one,
    each nu a finite positive number and each tau_d an integer >= 1."""
    with _json_file(path) as fh:
        entries = [{"nu": e["nu"], "tau_d": e["tau_d"]} for e in json.load(fh)["entries"]]
        if not entries:
            raise ValueError(f"{path} has no entries")
        for i, e in enumerate(entries):
            if not (_is_number(e["nu"]) and 0 < e["nu"] < math.inf):
                raise ValueError(f"{path} entry {i} has nu = {json.dumps(e['nu'])}, not a finite positive number")
            if not (type(e["tau_d"]) is int and e["tau_d"] >= 1):  # JSON true/false load as bool
                raise ValueError(f"{path} entry {i} has tau_d = {json.dumps(e['tau_d'])}, not an integer >= 1")
    return entries


def _verify_bounds(report_path: Optional[str] = None) -> List[tuple]:
    worst = checks.h1_bisection_error(np.exp(np.linspace(math.log(1e-8), math.log(1e-2), 20)))
    count = lattice_count(2, 1e4)
    weyl = weyl_constant(2, scaling="lattice") * 1e4
    cat = ToralAutomorphism(((2, 1), (1, 1)))
    if report_path:
        report = DissipationReport(entries=_report_entries(report_path))
    else:
        report = dissipation_sweep(cat, np.exp(np.linspace(math.log(1e-4), math.log(1e-2), 5)), "exact")
    _, verdicts = checks.strong_bound_verdicts(report, cat, 10)
    return [
        ("H1 power law: closed form vs bisection", worst < 1e-6, f"max rel diff {worst:.2e}"),
        ("Weyl constant vs direct lattice count", abs(count - weyl) / weyl < 0.01, f"count {count}, asym {weyl:.1f}"),
        ("discrete strong bound tau_d <= 34/(nu H1)", all(v["satisfied"] for v in verdicts), f"{len(verdicts)} points"),
    ]


def _verify_decay(rng) -> List[tuple]:
    cat = ToralAutomorphism(((2, 1), (1, 1)))
    conv = SpectralConvention(2, "lattice")
    lam_plus = (3 + math.sqrt(5)) / 2
    fit_op, fit_single = checks.decay_fits(cat, 1e-6, 14)
    fields = [random_sparse_field(conv, rng, n_modes=5, kmax=5) for _ in range(10)]
    trajs = evolve_many(fields, [PulsedSystem(cat, 1e-4, conv)] * len(fields), 15)
    return [
        ("worst-case decay gamma = lambda_+", abs(fit_op.gamma_hat - lam_plus) / lam_plus < 0.05,
         f"gamma_hat {fit_op.gamma_hat:.4f}"),
        ("single-mode decay gamma = lambda_+^2", abs(fit_single.gamma_hat - lam_plus**2) / lam_plus**2 < 0.05,
         f"gamma_hat {fit_single.gamma_hat:.4f}"),
        ("double-exponential lower-bound chain", not checks.chain_violations(trajs), ""),
    ]


def _verify_cts() -> List[tuple]:
    flow = ShearFlow.sinusoidal()
    conv = SpectralConvention(2, "geometric")
    state = CtsState.from_modes({(1, 0): 1.0, (2, 1): 0.5}, k1_max=8, grid_size=64, nu=1e-2, convention=conv)
    d1, d2 = checks.cts_energy_defects(state, flow, 1.0, 0.02)
    gap = transport_gap_cts(CtsState(conv, 1e-3, state.k1, state.data), flow, 2.0)
    return [
        ("energy identity defect is O(dt^2)", d1 / max(d2, 1e-300) > 2.5, f"ratio {d1 / d2:.2f}"),
        ("transport gap bound", gap["gap_sq"] <= gap["bound"], f"{gap['gap_sq']:.3e} <= {gap['bound']:.3e}"),
    ]


def _cmd_verify(args) -> int:
    # only the suites that draw from the rng build it: numpy.random costs
    # about 6 MB of resident memory
    suites = {
        "identities": lambda: _verify_identities(np.random.default_rng(args.seed)),
        "lemmas": _verify_lemmas,
        "bounds": lambda: _verify_bounds(args.report),
        "decay": lambda: _verify_decay(np.random.default_rng(args.seed)),
        "cts": _verify_cts,
    }
    rows = suites[args.suite]()
    width = max(len(r[0]) for r in rows) + 2
    for name, ok, detail in rows:
        print(f"{name:<{width}} {'pass' if ok else 'FAIL'}   {detail}")
    return 0 if all(ok for _, ok, _ in rows) else 1


# ---------------------------------------------------------------------------
# argument wiring
# ---------------------------------------------------------------------------

def _add_common(sub, matrix=True):
    if matrix:
        sub.add_argument("--matrix", required=True, help="row-major integers, e.g. 2,1,1,1")
    sub.add_argument("--convention", default="lattice", choices=["lattice", "geometric"])
    sub.add_argument("--dim", type=int, help="defaults to the --matrix dimension, else 2")
    sub.add_argument("--seed", type=int, default=0)


def _add_tau_grid(sub):
    _add_common(sub)
    sub.add_argument("--nu-grid", required=True, help="lo:hi:points (log spaced)")
    sub.add_argument("--method", default="exact", choices=["exact", "operator"])
    sub.add_argument("--out", default="report.json")


# parsed names that are not long options, so a config file cannot set them
_POSITIONALS = ("command", "suite")

# argparse refuses an unknown command or verify suite (exit 2) before dispatch
_COMMANDS = {"simulate": _cmd_simulate, "dissipation-time": _cmd_dissipation_time, "sweep": _cmd_dissipation_time,
             "mixing-rate": _cmd_mixing_rate, "bounds": _cmd_bounds, "cts": _cmd_cts, "verify": _cmd_verify}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and reused by every later ``main``.

    Parsing reads the parser and never changes it; building its seven
    subcommands takes about 1.4 ms (2-vCPU host), which in-process callers
    pay once.
    """
    parser = argparse.ArgumentParser(prog="disslab", description=__doc__)
    config_parent = argparse.ArgumentParser(add_help=False)
    config_parent.add_argument("--config", help="JSON file of long options; explicit flags win")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=argparse.ArgumentParser)

    def add_parser(name, **kw):
        return sub.add_parser(name, parents=[config_parent], **kw)

    p = add_parser("simulate", help="pulsed diffusion trajectory")
    _add_common(p)
    p.add_argument("--nu", type=float, required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--initial", required=True, help="field JSON path or mode:k1,k2")
    p.add_argument("--out", default="trajectory.csv")

    _add_tau_grid(add_parser("dissipation-time", help="tau_d over a nu grid"))

    p = add_parser("mixing-rate", help="strong envelope or weak Cesaro series")
    _add_common(p)
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--beta", type=float, default=1.0)
    p.add_argument("--n-max", type=int, default=12)
    p.add_argument("--mode", default="strong", choices=["strong", "weak"])
    p.add_argument("--out", default="envelope.csv")

    p = add_parser("bounds", help="evaluate H1..H4 and the tau_d bound")
    _add_common(p, matrix=False)
    p.add_argument("--which", required=True, choices=["H1", "H2", "H3", "H4"])
    p.add_argument("--rate", required=True, help="power:c,p | exp:c1,c2 | file:path")
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--beta", type=float, default=1.0)
    p.add_argument("--grad-u", type=float, default=1.0)
    p.add_argument("--vol", type=float, default=1.0)
    p.add_argument("--eps", type=float, default=0.0)
    p.add_argument("--nu-grid", required=True)
    p.add_argument("--out", default="bounds.csv")

    p = add_parser("cts", help="continuous shear dissipation times")
    p.add_argument("--shear", default="sin", help="sin | coeffs:a1,b1,a2,b2,...")
    p.add_argument("--convention", default="geometric", choices=["lattice", "geometric"])
    p.add_argument("--nu-grid", required=True)
    p.add_argument("--k1max", type=int, default=16)
    p.add_argument("--ygrid", type=int, default=64)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="cts.csv")

    p = add_parser("verify", help="run an invariant battery")
    p.add_argument("suite", choices=["identities", "lemmas", "bounds", "decay", "cts"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--report", help="check an existing dissipation report (bounds suite)")

    p = add_parser("sweep", help="alias of dissipation-time")
    _add_tau_grid(p)
    p.add_argument("--jobs", type=int, help="ignored: one walk over n serves the whole grid")

    return parser


def _apply_config(args: argparse.Namespace, parser: argparse.ArgumentParser, argv: List[str]):
    """Re-parse argv with the config file's long options placed before the user's flags.

    Each entry the subcommand has becomes a ``--key=value`` token, so argparse
    converts and checks it like a flag and keeps the last value: explicit
    flags win.  Its value must be a JSON string or number.  A ``config`` key
    (a config file names no other) is refused; other keys are ignored.
    """
    if not args.config:
        return args
    tokens = []
    with _json_file(args.config) as fh:
        for key, value in json.load(fh).items():
            attr = key.replace("-", "_")
            if attr == "config":
                raise ValueError(f"{args.config} key {key!r} cannot name another config file")
            if hasattr(args, attr) and attr not in _POSITIONALS:
                if not (_is_number(value) or isinstance(value, str)):
                    raise ValueError(f"{args.config} key {key!r} holds {json.dumps(value)}, not a string or number")
                tokens.append(f"--{attr.replace('_', '-')}={value}")
    at = argv.index(args.command) + 1
    return parser.parse_args([*argv[:at], *tokens, *argv[at:]])


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        args = _apply_config(args, parser, argv)
        return _COMMANDS[args.command](args)
    except (ValueError, OSError) as exc:  # json.JSONDecodeError is a ValueError, FileNotFoundError an OSError
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ModeOverflowError, OverflowError, RuntimeError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
