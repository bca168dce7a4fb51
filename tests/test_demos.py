import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


# sha256 of each demo's standard output, captured before the cts band walk
# stopped at its first decisive band; the demos must print the same bytes
DIGESTS = {
    "01_pulsed_cat_map.py": "1f8e51b936ba2236338cfc9ffad91153ef95be02406809e8caa7a7faa46c7627",
    "02_dissipation_scaling.py": "f3c9158f515481b27e20ec01bbf3a2d88c59af33b80a6dc40dcd5b55bd855a01",
    "03_mixing_rates.py": "f138dc915eedcc43f6bb7612192047e2ceb4fc9bf44b5f0a83ec79d76320f173",
    "04_bound_functions.py": "60e313f271425d943a5b8cccafbaeff304a3ba19ecca71eb2d795d33adec2e52",
    "05_shear_flow.py": "ce3ef94eabf32df8d9d9ab3333be8747d61643d193a2648d63ea6549169a1bce",
}


@pytest.mark.parametrize("demo", sorted(DIGESTS))
def test_demo_output_pinned(demo):
    src = ROOT / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, str(ROOT / "demos" / demo)], cwd=ROOT, env=env,
                          capture_output=True, timeout=120)
    assert done.returncode == 0, done.stderr.decode()
    assert hashlib.sha256(done.stdout).hexdigest() == DIGESTS[demo]
