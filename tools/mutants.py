"""A committed mutant catalogue: each entry breaks one piece of ``src/`` that a test must catch.

An entry names a file, an exact text in it, the text that replaces it, and
the test files expected to fail on the result.  Run from the repository
root::

    python tools/mutants.py

The runner first runs every named test file on an unmutated copy, which
must pass.  Then, one entry at a time, it writes the mutant into a fresh
temporary copy of ``src/`` and ``tests/`` (with ``pyproject.toml``,
``README.md``, ``demos/`` and ``perfbench/``, which some tests read) and
runs the entry's files with ``pytest -x -q`` one after another.  It prints
the files each entry failed, lists every entry that failed no test, and
exits 1 if there is one (2 if the unmutated copy fails).

``tests/test_mutants.py`` checks in tier-1 that each entry's text occurs
exactly once in its file, so a refactor that makes an entry stale must
update it.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple, Tuple

ROOT = Path(__file__).resolve().parents[1]
COPIED = ("src", "tests", "pyproject.toml", "README.md", "demos", "perfbench")


class Mutant(NamedTuple):
    name: str
    file: str
    old: str
    new: str
    tests: Tuple[str, ...]


SHEAR, LADDER_TESTS = "src/disslab/shear.py", ("tests/test_shear.py",)

MUTANTS = (
    Mutant("one squaring dropped: each rung repeats the one below it", SHEAR,
           "rungs.append(rungs[-1] @ rungs[-1] if rungs", "rungs.append(rungs[-1] if rungs", LADDER_TESTS),
    Mutant("one Taylor block dropped: B_2 leaves the nesting", SHEAR,
           "for block in blocks[2::-1]:", "for block in blocks[1::-1]:", LADDER_TESTS),
    Mutant("the remainder kernel dropped", SHEAR,
           "factors.append(_taylor(rest * self.generators[i]))", "pass", LADDER_TESTS),
    Mutant("the transport sign flipped", SHEAR,
           "gen = -2j * math.pi * float(self.state.k1[i]) * self.circulant",
           "gen = 2j * math.pi * float(self.state.k1[i]) * self.circulant", LADDER_TESTS),
    Mutant("the diffusion doubled", SHEAR,
           "self.decay = -state.nu * state.eigenvalues()", "self.decay = -2.0 * state.nu * state.eigenvalues()",
           LADDER_TESTS),
    Mutant("no rounding pad on the band heat bound", SHEAR,
           "pad = 1.0 + 1e-12 + 4.0 * (2 ** max(q.bit_length() - 1, 0) + q.bit_count() + 1) * sys.float_info.epsilon",
           "pad = 1.0", LADDER_TESTS),
    Mutant("zero bands no longer skipped", SHEAR,
           "live = np.any(state.data != 0, axis=-1)", "live = np.ones(state.k1.size, dtype=bool)", LADDER_TESTS),
    Mutant("the tabulated inverse holds the last sample time past the last sample", "src/disslab/mixing.py",
           "return float(ts[-1]) if y == hs[-1] else math.inf", "return float(ts[-1])",
           ("tests/test_mixing.py", "tests/test_cli.py")),
    Mutant("the tabulated inverse holds the first sample time before the first sample", "src/disslab/mixing.py",
           "if y >= hs[0]:\n            return 0.0", "if y >= hs[0]:\n            return float(ts[0])",
           ("tests/test_mixing.py",)),
)


def _copy(dest: Path):
    for name in COPIED:
        src = ROOT / name
        if src.is_dir():
            shutil.copytree(src, dest / name, ignore=shutil.ignore_patterns("__pycache__"))
        else:
            shutil.copy2(src, dest / name)


def _failing(tree: Path, tests) -> list:
    """The test files among ``tests`` that fail in ``tree``, each run with ``pytest -x -q``."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    return [test for test in tests if subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", test],
        cwd=tree, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL).returncode != 0]


def _run(mutant: Mutant | None, tests) -> list:
    with tempfile.TemporaryDirectory(prefix="disslab-mutant-") as tmp:
        tree = Path(tmp)
        _copy(tree)
        if mutant is not None:
            path = tree / mutant.file
            path.write_text(path.read_text().replace(mutant.old, mutant.new, 1))
        return _failing(tree, tests)


def main() -> int:
    start = time.perf_counter()
    every = sorted({test for mutant in MUTANTS for test in mutant.tests})
    broken = _run(None, every)
    if broken:
        print(f"the unmutated copy fails {', '.join(broken)}: no mutant can be judged")
        return 2
    survivors = []
    for i, mutant in enumerate(MUTANTS):
        failed = _run(mutant, mutant.tests)
        print(f"[{i}] {mutant.name}: {'fails ' + ', '.join(failed) if failed else 'SURVIVES'}", flush=True)
        if not failed:
            survivors.append(mutant.name)
    print(f"{len(MUTANTS) - len(survivors)} of {len(MUTANTS)} mutants caught in {time.perf_counter() - start:.1f} s")
    for name in survivors:
        print(f"failed no test: {name}")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
