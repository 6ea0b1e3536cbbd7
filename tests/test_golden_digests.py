"""Golden output digests: the determinism contract as bytes.

``tests/golden_digests.json`` pins the SHA-256 of every ``.cir`` /
``.cir.sense`` file, ``metrics.csv`` and the ``analysis.csv`` of
``chansim6g analyze --metrics ds,gini,rsrp,xcorr``, for the five presets,
four BASE configs with a link-state draw (uma: 8x2 ULAs, moving UE; umi, rma
and inh_office, so every LOS-probability family runs and each draws both
states) and nine preset variants (``ris-ula``: 4x2 ULAs, moving UE, two
time samples, uniform codebook; ``isac-bistatic``: a bistatic sensing
receiver and a self-interference row; ``thz-table``: the sparsity K from the
scenario table; ``isac-moving``: three time samples and a moving UE;
``<preset>-nlos``: each preset with ``link_state`` NLOS) at seed 42, 3 drops
each: 102 digests. The digests were pinned on numpy 2.4.6,
scipy 1.17.1 and OpenBLAS 0.3.31; another toolchain may round differently.
A deliberate change of output bytes re-baselines them with
``python3 scripts/golden_digests.py --write``; ``--keep`` and ``--compare``
show how far the bytes moved. The 10 ``ris/*`` and ``ris-ula/*`` digests
were re-pinned when the RIS cascade kernel moved to GEMM-built pattern
weights and a fused tap reduction: those files moved by rounding only
(at most 6e-14 of the largest tap), and the other 28 stayed the same.
The 9 ``isac/*.cir``, ``isac/*.cir.sense`` and ``sagin/*.cir`` digests were
re-pinned when the presets lost their unread keys: ``config_hash`` covers
those keys, so only the header line moved; every payload byte and the other
29 digests stayed the same. The 13 ``isac-bistatic/*`` and ``thz-table/*``
digests were pinned from the code before the config schema replaced the
per-module config checks, so they guard the ISAC and THz branches that
change rewired. The 43 ``base-*/*`` and ``*-nlos/*`` digests were pinned
from the code before the drop skeleton replaced the per-feature prologues,
so every feature's NLOS branch and every LOS-probability family guards it.
The 8 ``isac-moving/*`` digests were pinned from the code before the
coefficient synthesis lost its antenna-pattern hook, so they guard the
Doppler of both ISAC sides, the monostatic echo's doubled shift included
(every other ISAC config has one time sample, where the Doppler phase is 1).
38 digests were re-pinned when the angle-spread calibration moved from a
bisection to a safeguarded Newton solve and synthesis contracted its rays
with a batched matmul instead of einsum. The Newton solve lands gamma
elsewhere inside the same 1e-10 spread tolerance: the tensors of base,
emimo and ris (multi-element arrays or a RIS cascade) moved by at most
6.4e-8 of the largest tap, and the realized arrival spread in the
``metrics.csv`` of thz and base-* by under 1e-8 degrees; no ISAC or SAGIN
file moved.
The matmul moved base and isac-moving tensors by rounding (at most 3.3e-16
of the largest tap).

Each check runs in a fresh interpreter, once with ``OPENBLAS_NUM_THREADS=1``
and once with it unset, so BLAS threading cannot change a byte; and with the
campaigns at ``jobs=1`` and at ``jobs=3``, so neither can the parallel path
(which sets the process's OpenBLAS to one thread before it forks).
"""

import importlib.util
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from chansim6g.cir import CirTensor, write_cir

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


def _script():
    spec = importlib.util.spec_from_file_location("golden_digests", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _tree(root, coefficients, metrics, analysis="drop,ds_ns\n0,1.5\n"):
    """One config directory ``x`` as ``--keep`` writes it."""
    out = root / "x"
    out.mkdir(parents=True)
    h = np.asarray(coefficients)
    write_cir(CirTensor(coefficients=h, tap_delays_s=1e-8 * np.arange(h.shape[3]),
                        sample_times_s=np.zeros(1)), out / "drop00000.cir")
    (out / "metrics.csv").write_text(metrics)
    (out / "analysis.csv").write_text(analysis)
    return root


def test_compare_trees_reports_differences(tmp_path):
    compare = _script().compare_trees
    h = np.array([[[[4.0 + 0.0j, 1.0j]]]])
    metrics = "drop,rsrp_dbm,state\n0,-70.25,LOS\n"
    a = _tree(tmp_path / "a", h, metrics)
    same = _tree(tmp_path / "same", h.copy(), metrics)
    assert compare(a, same) == {"x": {"files": 3, "identical": 3, "cir": 0.0, "csv": 0.0}}

    moved = _tree(tmp_path / "moved", h + np.array([0.0, 1e-3]),
                  "drop,rsrp_dbm,state\n0,-70.5,LOS\n")
    row = compare(a, moved)["x"]
    assert row["identical"] == 1
    assert row["cir"] == pytest.approx(1e-3 / 4.0, rel=1e-9)
    assert row["csv"] == 0.25

    # A text cell, a tensor shape or a missing file that differs is infinite.
    text = _tree(tmp_path / "text", h, "drop,rsrp_dbm,state\n0,-70.25,NLOS\n")
    assert compare(a, text)["x"]["csv"] == math.inf
    shape = _tree(tmp_path / "shape", h[..., :1], metrics)
    assert compare(a, shape)["x"]["cir"] == math.inf
    (same / "x" / "analysis.csv").unlink()
    assert compare(a, same)["x"]["csv"] == math.inf
