#!/usr/bin/env python3
"""SHA-256 digests of the output bytes of fixed campaigns.

Runs the five shipped presets, a BASE config (uma, ``link_state`` null,
8x2 ULAs, moving UE) and a RIS variant (4x2 ULAs, moving UE, two time
samples, uniform codebook, 70 degree incidence) at seed 42 with 3 drops
each (``jobs=1`` unless ``--jobs N`` is given), then
``chansim6g analyze --metrics ds,gini,rsrp,xcorr`` over each output
directory, and hashes every ``.cir`` / ``.cir.sense`` file, ``metrics.csv``
and ``analysis.csv``. ``tests/test_golden_digests.py`` compares the result
with the committed ``tests/golden_digests.json``.

    python3 scripts/golden_digests.py                  # print the digests
    python3 scripts/golden_digests.py --write          # re-baseline the file
    python3 scripts/golden_digests.py --seeds 1-50     # one digest per config
    python3 scripts/golden_digests.py --jobs 3         # campaigns at jobs=3

``--seeds A-B`` runs every config at each seed from A to B (3 drops, same
analysis) and prints one combined SHA-256 per config over all those files, so
two checkouts can be compared over many seeds at once.

chansim6g is imported from ``src/`` of the checkout this script sits in.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden_digests.json"
SEED = 42
DROPS = 3
PRESETS = ("thz", "emimo", "isac", "ris", "sagin")
ANALYZE_METRICS = "ds,gini,rsrp,xcorr"

# The BASE config of the benchmark's light workloads: the only covered
# input with a link-state draw, MIMO synthesis and time evolution.
BASE_CONFIG = {
    "scenario": "uma",
    "feature": "BASE",
    "center_freq_hz": 3.5e9,
    "bandwidth_hz": 20e6,
    "link_state": None,
    "bs_position": [0.0, 0.0, 25.0],
    "ue_position": [120.0, 60.0, 1.5],
    "bs_array": {"type": "ula", "n": 8, "spacing": "half_wavelength"},
    "ue_array": {"type": "ula", "n": 2, "spacing": "half_wavelength"},
    "ue_velocity": [3.0, 0.0, 0.0],
    "time_samples": 4,
}


# The ris preset with ULAs at both ends, two time samples and a moving UE,
# so the cascade's array-phase and Doppler terms are not trivial.
RIS_ULA_OVERRIDES = {
    "bs_array": {"type": "ula", "n": 4, "spacing": "half_wavelength"},
    "ue_array": {"type": "ula", "n": 2, "spacing": "half_wavelength"},
    "time_samples": 2,
    "ue_velocity": [1.0, 0.5, 0.0],
}
RIS_ULA_BLOCK = {"codebook": "uniform", "bs_incidence_deg": 70.0}


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def campaign_configs(seed: int = SEED, drops: int = DROPS) -> dict:
    """``{name: CampaignConfig}`` of every covered config."""
    sys.path.insert(0, str(ROOT / "src"))
    from chansim6g.config import config_from_dict, load_preset, preset_path

    configs = {name: load_preset(name, seed=seed, drops=drops) for name in PRESETS}
    configs["base"] = config_from_dict({**BASE_CONFIG, "seed": seed, "drops": drops})
    ris_raw = json.loads(preset_path("ris").read_text())
    configs["ris-ula"] = config_from_dict(
        {**ris_raw, **RIS_ULA_OVERRIDES, "seed": seed, "drops": drops,
         "ris": {**ris_raw["ris"], **RIS_ULA_BLOCK}})
    return configs


def compute_digests(seed: int = SEED, jobs: int = 1) -> dict:
    """``{"<config>/<file>": sha256}`` for every covered output file, with
    every campaign run at ``jobs``."""
    configs = campaign_configs(seed)
    from chansim6g.campaign import run_campaign
    from chansim6g.cli import main as cli_main

    digests = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, cfg in configs.items():
            out = Path(tmp) / name
            run_campaign(cfg, out, jobs=jobs)
            with contextlib.redirect_stdout(sys.stderr):
                rc = cli_main(["analyze", "--in", str(out), "--metrics", ANALYZE_METRICS])
            if rc != 0:
                raise SystemExit(f"golden_digests: analyze failed on {name}")
            files = sorted(out.glob("drop*.cir*")) + [out / "metrics.csv",
                                                      out / "analysis.csv"]
            for path in files:
                digests[f"{name}/{path.name}"] = _sha256(path)
    return digests


def sweep_digests(seeds, jobs: int = 1) -> dict:
    """``{config: sha256}`` over the file digests of every seed, in order."""
    combined = {}
    for seed in seeds:
        for key, digest in sorted(compute_digests(seed, jobs).items()):
            name, filename = key.split("/", 1)
            h = combined.setdefault(name, hashlib.sha256())
            h.update(f"{seed} {filename} {digest}\n".encode())
    return {name: h.hexdigest() for name, h in combined.items()}


def _seed_range(text: str) -> range:
    first, _, last = text.partition("-")
    return range(int(first), int(last or first) + 1)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--write", action="store_true",
                   help=f"write the digests to {GOLDEN.relative_to(ROOT)}")
    p.add_argument("--seeds", type=_seed_range, metavar="A-B",
                   help="print one combined digest per config over seeds A..B")
    p.add_argument("--jobs", type=int, default=1,
                   help="run every campaign with this many processes (default 1)")
    args = p.parse_args(argv)
    if args.seeds is not None:
        if args.write:
            p.error("--seeds does not write the golden file")
        sys.stdout.write(json.dumps(sweep_digests(args.seeds, args.jobs), indent=1,
                                    sort_keys=True) + "\n")
        return 0
    text = json.dumps(compute_digests(jobs=args.jobs), indent=1, sort_keys=True) + "\n"
    if args.write:
        GOLDEN.write_text(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
