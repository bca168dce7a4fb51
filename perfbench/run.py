"""disslab benchmark: three CLI workloads, end-to-end and per-layer metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload exact-lattice --seed 1 --seconds 20 --trace 0

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json:

* ``wall_s``: median wall time of one pass over the workload's command list;
* ``setup_s``: median, over several fresh worker processes, of the time from
  launching the process until disslab is imported and the inputs exist;
* ``peak_rss_mb``: peak resident memory of the measuring worker.

``--trace 1`` reports the per-layer metrics: one untraced pass, then one pass
with spans recorded around the layer modules' public functions (see
``tracer.py``); the spans go to ``.perfbench_out/trace-<workload>-seed<n>.json``.

Correctness checks count into ``attempted`` and ``failed``; a command that
exits non-zero is a failed check.  Provenance (machine, versions, source
hash, artifact sha256) is printed on the line before the result.  The last
line of standard output is the result object.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from worker import clock  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("exact-lattice", "operator-ball", "shear-cts")
SETUP_PROBES = 9  # set-up-only processes per run, besides the measuring one
RUN_DEADLINE_S = 170.0


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def worker_env() -> dict:
    env = dict(os.environ)
    threads = str(nproc())
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = threads
    env.pop("DISSLAB_JOBS", None)
    env.pop("PYTHONPATH", None)
    return env


def launch(args, run_dir: Path, deadline: float, setup_only: bool = False, spans: Path = None) -> tuple:
    """Start one worker; returns (set-up seconds, its result object)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--root", str(ROOT), "--run-dir", str(run_dir),
           "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    if spans:
        cmd += ["--spans", str(spans)]
    launched = clock()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=worker_env(), cwd=ROOT, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - clock()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError("worker exceeded the run deadline")
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    result = json.loads(out.strip().splitlines()[-1])
    return result["ready"] - launched, result


def source_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def git_commit():
    """HEAD of the checkout when it is a git repository, read without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_path = ROOT / ".git" / ref[5:]
    if ref_path.is_file():
        return ref_path.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def provenance(args, worker_result: dict, setups: list) -> dict:
    import numpy

    cpu = next((line.split(":", 1)[1].strip() for line in Path("/proc/cpuinfo").read_text().splitlines()
                if line.startswith("model name")), platform.processor())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": nproc(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": git_commit(),
        "src_sha256": source_sha256(),
        "setup_samples_s": setups,
        "pass_walls_s": worker_result["walls"],
        "command_walls_s": worker_result["command_walls"],
        "artifact_sha256": worker_result["artifacts"],
        "failures": worker_result["failures"],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "disslab" / "__init__.py").is_file():
        print(f"error: no disslab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    deadline = clock() + RUN_DEADLINE_S
    out_root = ROOT / ".perfbench_out"
    run_dir = out_root / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    try:
        setups = []
        if not args.trace:
            for i in range(SETUP_PROBES):
                setups.append(launch(args, run_dir / f"probe{i}", deadline, setup_only=True)[0])
        spans = out_root / f"trace-{args.workload}-seed{args.seed}.json" if args.trace else None
        setup, result = launch(args, run_dir / "main", deadline, spans=spans)
        setups.append(setup)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    if args.trace:
        measured = result["layers"]
        metrics = {m["name"]: {"value": measured.get(m["name"], 0.0), "unit": m["unit"]} for m in spec["per_layer"]}
    else:
        measured = {
            "wall_s": statistics.median(result["walls"]),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": result["peak_rss_mb"],
        }
        metrics = {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]} for m in spec["end_to_end"]}
    print("provenance " + json.dumps(provenance(args, result, setups), sort_keys=True))
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
