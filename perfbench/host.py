"""Host facts, the fixed host probe, set-up timing and peak memory."""

from __future__ import annotations

import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")


def host_facts() -> dict:
    """Versions, core counts and BLAS thread settings. Thread settings are
    recorded as found, never changed."""
    import scipy
    blas = {}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: deps.get(k) for k in ("name", "version", "openblas configuration")}
    except (KeyError, TypeError, ValueError):
        pass
    with open("/proc/loadavg") as fh:
        load = fh.read().split()[:3]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "loadavg": load,
    }


class HostProbe:
    """Fixed work that does not use chansim6g, run before every block so a
    slow host can be told apart from a slow program.

    Two parts, timed apart: ``drop``, a Python loop over small numpy
    operations shaped like one light drop (a seeded generator, a bisection
    over a weighted circular spread, a small einsum, a JSON header), and
    ``numpy``, a vectorized numpy loop over 40 000 elements.
    """

    # Part times on the reference host the figures are scaled to.
    REFERENCE_MS = {"drop": 5.5, "numpy": 2.5}

    def __init__(self):
        rng = np.random.default_rng(0)
        self._x = rng.standard_normal(40_000)
        self.ms = {"drop": [], "numpy": []}

    def _mini_drop(self) -> None:
        rng = np.random.default_rng(np.random.SeedSequence(7, spawn_key=(1, 2, 3)))
        n, m = 20, 20
        delays = np.sort(-np.log(rng.uniform(size=n)))
        powers = np.exp(-delays) * 10.0 ** (-rng.normal(0.0, 3.0, n) / 10.0)
        powers /= powers.sum()
        weights = powers[:, None] * np.ones(m)
        for _ in range(4):
            dev = rng.normal(0.0, 0.3, n)
            offsets = rng.normal(0.0, 0.05, m)
            lo, hi = 0.0, 4.0
            for _ in range(30):
                gamma = 0.5 * (lo + hi)
                ang = gamma * dev[:, None] + offsets[None, :]
                r = abs(complex(np.sum(weights * np.exp(1j * ang)) / weights.sum()))
                if math.sqrt(-2.0 * math.log(max(r, 1e-300))) < 0.4:
                    lo = gamma
                else:
                    hi = gamma
        chain = np.exp(1j * rng.uniform(-np.pi, np.pi, (n, m)))
        rx = np.exp(1j * rng.standard_normal((n, m, 2)))
        tx = np.exp(1j * rng.standard_normal((n, m, 8)))
        dop = np.exp(1j * rng.standard_normal((n, m, 4)))
        coeffs = np.einsum("nm,nmu,nms,nmt->tusn", chain, rx, tx, dop, optimize=True)
        json.dumps({"dims": list(coeffs.shape), "delays": [float(d) for d in delays]})
        coeffs.tobytes()

    def run(self) -> None:
        t0 = time.perf_counter()
        self._mini_drop()
        t1 = time.perf_counter()
        for _ in range(2):
            np.sort(np.exp(np.sin(self._x))).sum()
        t2 = time.perf_counter()
        self.ms["drop"].append((t1 - t0) * 1e3)
        self.ms["numpy"].append((t2 - t1) * 1e3)

    def speed(self, parts) -> float:
        """Host speed against the reference, from the median times of the
        named parts: above 1 on a faster host."""
        return (sum(self.REFERENCE_MS[p] for p in parts)
                / sum(statistics.median(self.ms[p]) for p in parts))


_CHILD = Path(__file__).with_name("setup_child.py")


def time_setup(root: Path, spec: dict, work: Path, starts: int) -> list:
    """Seconds from launching a fresh interpreter to the end of its first
    one-drop campaign of every config, once per cold start.

    The child reports CLOCK_MONOTONIC (``time.monotonic``) when its last
    campaign has finished, so interpreter teardown is not counted.
    """
    spec_path = work / "setup_spec.json"
    spec_path.write_text(json.dumps(spec))
    samples = []
    for i in range(starts):
        out = work / f"setup{i}"
        t0 = time.monotonic()
        proc = subprocess.run([sys.executable, str(_CHILD), str(root), str(spec_path),
                               str(out)], capture_output=True, text=True, timeout=120)
        shutil.rmtree(out, ignore_errors=True)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up child failed ({proc.returncode}): "
                               f"{proc.stderr.strip()[-400:]}")
        samples.append(float(proc.stdout.strip().splitlines()[-1]) - t0)
    return samples


def peak_rss_mb() -> float:
    """Largest resident set of this process and of every child waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0       # ru_maxrss is in KiB on Linux
