"""Golden output digests: the determinism contract as bytes.

``tests/golden_digests.json`` pins the SHA-256 of every ``.cir`` /
``.cir.sense`` file, ``metrics.csv`` and the ``analysis.csv`` of
``chansim6g analyze --metrics ds,gini,rsrp,xcorr``, for the five presets,
a BASE config (uma, ``link_state`` null, 8x2 ULAs, moving UE) and a RIS
variant (4x2 ULAs, moving UE, two time samples, uniform codebook) at
seed 42, 3 drops each: 38 digests. The digests were pinned on numpy 2.4.6,
scipy 1.17.1 and OpenBLAS 0.3.31; another toolchain may round differently.
A deliberate change of output bytes re-baselines them with
``python3 scripts/golden_digests.py --write``.

Each check runs in a fresh interpreter, once with ``OPENBLAS_NUM_THREADS=1``
and once with it unset, so BLAS threading cannot change a byte; and with the
campaigns at ``jobs=1`` and at ``jobs=3``, so neither can the parallel path
(which sets the process's OpenBLAS to one thread before it forks).
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "golden_digests.py"
GOLDEN = ROOT / "tests" / "golden_digests.json"


@pytest.mark.parametrize("jobs,openblas_threads", [
    pytest.param(1, "1", id="openblas-1"),
    pytest.param(1, None, id="openblas-unset"),
    pytest.param(3, "1", id="jobs3-openblas-1"),
    pytest.param(3, None, id="jobs3-openblas-unset"),
])
def test_output_bytes_match_golden_digests(jobs, openblas_threads):
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    if openblas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = openblas_threads
    proc = subprocess.run([sys.executable, str(SCRIPT), "--jobs", str(jobs)],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout)
    want = json.loads(GOLDEN.read_text())
    assert sorted(got) == sorted(want)
    changed = sorted(k for k in want if got[k] != want[k])
    assert not changed, f"output bytes changed: {changed}"
