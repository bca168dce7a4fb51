"""One benchmark run of one workload, in a fresh interpreter.

Started by ``run.py``; not meant to be run by hand.  It imports disslab from
the checkout's ``src``, generates the seeded inputs, records the moment set-up
ended, then runs the workload's command list in-process through
``disslab.cli.main(argv)`` and checks the outputs.  The last line of its
standard output is one JSON object with the timings, checks and counts.

Untraced: passes of the command list repeat until ``--seconds`` have elapsed
(at least one pass).  Traced: one untraced pass, the sweep-pool timings where
the workload has them, then one pass under the span tracer.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path


def clock() -> float:
    """System-wide monotonic clock, comparable with the parent's readings."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def import_disslab(root: Path):
    src = root / "src"
    sys.path.insert(0, str(src))
    import disslab
    import disslab.cli

    if Path(disslab.__file__).resolve().parent != (src / "disslab").resolve():
        raise SystemExit(f"imported disslab from {disslab.__file__}, not from {src}")
    return disslab.cli


def run_commands(cli, commands) -> tuple:
    """Run (label, argv) pairs through cli.main; returns walls, exit codes, output."""
    walls, rcs, logs = {}, {}, {}
    for label, argv in commands:
        buf = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(buf):
            try:
                # looked up on each call so that the tracer's wrapper applies
                rcs[label] = cli.main(argv)
            except SystemExit as exc:  # argparse rejects argv this way
                rcs[label] = exc.code
            except Exception as exc:  # a crash is a failed check, not a lost run
                traceback.print_exc()
                rcs[label] = f"{type(exc).__name__}: {exc}"
        walls[label] = time.perf_counter() - start
        logs[label] = buf.getvalue()
    return walls, rcs, logs


def artifact_hashes(out: Path) -> dict:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.iterdir())}


class Pass:
    """One run of the workload's command list in its own output directory."""

    def __init__(self, cli, workload, seed, inputs, out: Path, checks):
        out.mkdir()
        walls, rcs, logs = run_commands(cli, workload.commands(seed, inputs, out))
        self.wall = sum(walls.values())
        self.command_walls = walls
        try:
            workload.check(checks, inputs, rcs, logs, out)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            checks.check("outputs readable", False, f"{type(exc).__name__}: {exc}")
        self.artifacts = artifact_hashes(out)
        shutil.rmtree(out)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--root", required=True, type=Path)
    parser.add_argument("--run-dir", required=True, type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans", type=Path, help="where the traced run writes its spans")
    args = parser.parse_args(argv)

    cli = import_disslab(args.root)
    from workloads import WORKLOADS, Checks

    workload = WORKLOADS[args.workload]
    args.run_dir.mkdir(parents=True, exist_ok=True)
    inputs = workload.make_inputs(args.seed, args.run_dir)
    result = {"ready": clock()}
    if args.setup_only:
        print(json.dumps(result))
        return 0

    checks = Checks()
    start = clock()
    first = Pass(cli, workload, args.seed, inputs, args.run_dir / "pass0", checks)
    # later passes can only grow the heap through fragmentation, and their
    # number depends on machine speed, so the peak is taken here
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    passes = [first]
    if args.trace:
        from tracer import Tracer

        layers = {}
        if hasattr(workload, "sweep_commands"):
            out = args.run_dir / "sweep"
            out.mkdir()
            walls, rcs, logs = run_commands(cli, workload.sweep_commands(args.seed, out).items())
            workload.check_sweeps(checks, rcs, logs, out)
            layers["cli.sweep.jobs1_s"] = walls[1]
            layers["cli.sweep.jobs2_s"] = walls[2]
        tracer = Tracer()
        tracer.install()
        try:
            traced = Pass(cli, workload, args.seed, inputs, args.run_dir / "traced", checks)
        finally:
            tracer.uninstall()
        checks.check("traced artifacts identical", traced.artifacts == first.artifacts, "tracing changed an artifact")
        layers.update(tracer.metrics())
        layers["trace.overhead_s"] = traced.wall - first.wall
        tracer.dump(args.spans)
        result["layers"] = layers
    else:
        while clock() - start < args.seconds:
            p = Pass(cli, workload, args.seed, inputs, args.run_dir / f"pass{len(passes)}", checks)
            checks.check("artifacts identical across passes", p.artifacts == first.artifacts, f"pass {len(passes)}")
            passes.append(p)

    result.update(
        walls=[p.wall for p in passes],
        command_walls=[p.command_walls for p in passes],
        artifacts=first.artifacts,
        attempted=checks.attempted,
        failed=len(checks.failures),
        failures=checks.failures,
        peak_rss_mb=peak_rss_mb,
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
