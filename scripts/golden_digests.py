#!/usr/bin/env python3
"""SHA-256 digests of the output bytes of fixed campaigns.

Runs the five shipped presets, five BASE configs with ``link_state`` null
(uma: 8x2 ULAs, moving UE; umi, rma and inh_office: single elements, each
placed so its 3 drops draw LOS, NLOS, LOS; ``base-inh-near``: inh_office
with the UE 1.12 m from the BS horizontally, where the LOS probability is
1) and thirteen preset variants at
seed 42 with 3 drops each: ``ris-ula`` (4x2 ULAs, moving UE, two time
samples, uniform codebook, 70 degree incidence), ``isac-bistatic`` (a
sensing receiver at (8, 4, 1.5) and a 30 dB self-interference row),
``thz-table`` (no ``intra_cluster_k_db``, so the sparsity K comes from the
scenario table), ``isac-moving`` (three time samples and a moving UE, so
both ISAC sides carry their Doppler), ``ris-bisector`` (no
``bs_incidence_deg``, so the panel faces the bisector of its endpoint
vectors), ``isac-echoes`` (15 monostatic targets in three velocity groups,
no shared clusters and three time samples, so the sensing side is echoes
only), ``ris-drawn`` (``link_state`` null with the UE at (60, 30, 1.5), so
its drops draw LOS, NLOS, LOS, and ``asa_deg``, ``leg_k_db`` and
``leg_xpr_db`` null, so both legs take the table's values),
``isac-drawn`` (``link_state`` null with the UE at (6, 0, 1.5), so its
drops draw LOS, NLOS, LOS) and ``<preset>-nlos`` (``link_state`` NLOS) for
each preset. The campaigns run at ``jobs=1`` unless ``--jobs N`` is given; then
``chansim6g analyze --metrics ds,gini,rsrp,xcorr`` over each output
directory, and hashes every ``.cir`` / ``.cir.sense`` file, ``metrics.csv``
and ``analysis.csv``. ``tests/test_golden_digests.py`` compares the result
with the committed ``tests/golden_digests.json``.

    python3 scripts/golden_digests.py                  # print the digests
    python3 scripts/golden_digests.py --write          # re-baseline the file
    python3 scripts/golden_digests.py --seeds 1-50     # one digest per config
    python3 scripts/golden_digests.py --jobs 3         # campaigns at jobs=3
    python3 scripts/golden_digests.py --keep DIR       # keep the outputs in DIR
    python3 scripts/golden_digests.py --compare A B    # two kept trees

``--seeds A-B`` runs every config at each seed from A to B (3 drops, same
analysis) and prints one combined SHA-256 per config over all those files, so
two checkouts can be compared over many seeds at once.

``--keep DIR`` writes each config's output directory to ``DIR/<config>``
instead of a temporary directory. ``--compare A B`` reads two such trees
(say, of two checkouts) and prints per config how many files are
byte-identical, the largest ``.cir`` coefficient difference relative to the
largest coefficient of its file, and the largest difference of a
``metrics.csv`` / ``analysis.csv`` value. A file, header, CSV column or text
cell that differs in kind counts as an infinite difference.

chansim6g is imported from ``src/`` of the checkout this script sits in.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import json
import math
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
GOLDEN = ROOT / "tests" / "golden_digests.json"
SEED = 42
DROPS = 3
PRESETS = ("thz", "emimo", "isac", "ris", "sagin")
ANALYZE_METRICS = "ds,gini,rsrp,xcorr"

# BASE configs, all with a link-state draw. "base" is the config of the
# benchmark's light workloads (uma, MIMO synthesis, time evolution); the
# next three run the other LOS-probability families, each at a distance
# where the draws of seed 42 give both states, and "base-inh-near" runs
# inh_office's branch at or below 1.2 m.
_BASE = {"feature": "BASE", "bandwidth_hz": 20e6, "link_state": None}
BASES = {
    "base": {
        **_BASE,
        "scenario": "uma",
        "center_freq_hz": 3.5e9,
        "bs_position": [0.0, 0.0, 25.0],
        "ue_position": [120.0, 60.0, 1.5],
        "bs_array": {"type": "ula", "n": 8, "spacing": "half_wavelength"},
        "ue_array": {"type": "ula", "n": 2, "spacing": "half_wavelength"},
        "ue_velocity": [3.0, 0.0, 0.0],
        "time_samples": 4,
    },
    "base-umi": {**_BASE, "scenario": "umi", "center_freq_hz": 28e9,
                 "bs_position": [0.0, 0.0, 10.0], "ue_position": [60.0, 30.0, 1.5]},
    "base-rma": {**_BASE, "scenario": "rma", "center_freq_hz": 3.5e9,
                 "bs_position": [0.0, 0.0, 35.0], "ue_position": [1200.0, 900.0, 1.5]},
    "base-inh": {**_BASE, "scenario": "inh_office", "center_freq_hz": 28e9,
                 "bs_position": [0.0, 0.0, 3.0], "ue_position": [8.0, 6.0, 1.5]},
    # 1.12 m apart horizontally: inh_office's LOS probability is 1 at or
    # below 1.2 m, so every drop draws LOS.
    "base-inh-near": {**_BASE, "scenario": "inh_office", "center_freq_hz": 28e9,
                      "bs_position": [0.0, 0.0, 3.0], "ue_position": [1.0, 0.5, 1.5]},
}


# Preset variants: name -> (preset, top-level overrides, the feature block
# made from the preset's block).
VARIANTS = {
    # ULAs at both ends, two time samples and a moving UE, so the cascade's
    # array-phase and Doppler terms are not trivial.
    "ris-ula": ("ris", {
        "bs_array": {"type": "ula", "n": 4, "spacing": "half_wavelength"},
        "ue_array": {"type": "ula", "n": 2, "spacing": "half_wavelength"},
        "time_samples": 2,
        "ue_velocity": [1.0, 0.5, 0.0],
    }, lambda blk: {**blk, "codebook": "uniform", "bs_incidence_deg": 70.0}),
    # The bistatic sensing branch and the self-interference row.
    "isac-bistatic": ("isac", {}, lambda blk: {
        **blk, "rx_s_position": [8.0, 4.0, 1.5], "self_interference_db": 30.0}),
    # The sparsity K from the scenario table.
    "thz-table": ("thz", {}, lambda blk: {
        k: v for k, v in blk.items() if k != "intra_cluster_k_db"}),
    # Three time samples and a moving UE, so the Doppler of both ISAC sides
    # (the moving target's monostatic echo included) reaches the bytes.
    "isac-moving": ("isac", {"time_samples": 3, "ue_velocity": [1.5, -0.7, 0.0]}, dict),
    # No incidence: the panel faces the bisector of its endpoint vectors.
    "ris-bisector": ("ris", {}, lambda blk: {
        k: v for k, v in blk.items() if k != "bs_incidence_deg"}),
    # As many monostatic targets as inh_office LOS has clusters and nothing
    # shared: the sensing side has no environment clusters, so the clutter
    # ratio takes its empty-environment sentinel. Three velocities, each
    # shared by five targets, and three time samples carry their Doppler.
    "isac-echoes": ("isac", {"time_samples": 3}, lambda blk: {
        **blk, "n_shared": 0, "targets": [
            {"position": [2.0 + i % 5, -4.0 + 3.0 * (i // 5), 1.0 + 0.5 * (i % 3)],
             "rcs_dbsm": -5.0 + i,
             "velocity": [[1.0, 0.0, 0.0], [0.0, -0.8, 0.0], [0.6, 0.6, 0.2]][i % 3]}
            for i in range(15)]}),
    # A drawn link state (seed 42 gives LOS, NLOS, LOS) and no leg
    # overrides: both legs take the table's XPR, arrival spreads and K.
    "ris-drawn": ("ris", {"link_state": None, "ue_position": [60.0, 30.0, 1.5]},
                  lambda blk: {**blk, "asa_deg": None, "leg_k_db": None,
                               "leg_xpr_db": None}),
    # A drawn ISAC link state (seed 42 gives LOS, NLOS, LOS) at a 6 m
    # horizontal distance, inside inh_office's 1.2-6.5 m LOS-probability
    # branch.
    "isac-drawn": ("isac", {"link_state": None, "ue_position": [6.0, 0.0, 1.5]}, dict),
    # Every feature's NLOS drop.
    **{f"{p}-nlos": (p, {"link_state": "NLOS"}, dict) for p in PRESETS},
}


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def campaign_configs(seed: int = SEED, drops: int = DROPS) -> dict:
    """``{name: CampaignConfig}`` of every covered config."""
    from chansim6g.config import config_from_dict, load_preset, preset_path

    configs = {name: load_preset(name, seed=seed, drops=drops) for name in PRESETS}
    for name, raw in BASES.items():
        configs[name] = config_from_dict({**raw, "seed": seed, "drops": drops})
    for name, (preset, overrides, block) in VARIANTS.items():
        raw = json.loads(preset_path(preset).read_text())
        configs[name] = config_from_dict(
            {**raw, **overrides, "seed": seed, "drops": drops,
             preset: block(raw[preset])})
    return configs


def _covered_files(out: Path) -> list:
    return sorted(out.glob("drop*.cir*")) + [out / "metrics.csv", out / "analysis.csv"]


def compute_digests(seed: int = SEED, jobs: int = 1, keep=None) -> dict:
    """``{"<config>/<file>": sha256}`` for every covered output file, with
    every campaign run at ``jobs``; the outputs go to ``keep/<config>`` when
    ``keep`` is given."""
    configs = campaign_configs(seed)
    from chansim6g.campaign import run_campaign
    from chansim6g.cli import main as cli_main

    digests = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, cfg in configs.items():
            out = Path(keep or tmp) / name
            run_campaign(cfg, out, jobs=jobs)
            with contextlib.redirect_stdout(sys.stderr):
                rc = cli_main(["analyze", "--in", str(out), "--metrics", ANALYZE_METRICS])
            if rc != 0:
                raise SystemExit(f"golden_digests: analyze failed on {name}")
            for path in _covered_files(out):
                digests[f"{name}/{path.name}"] = _sha256(path)
    return digests


def _cir_difference(a: Path, b: Path) -> float:
    """max |a - b| / max |a| over the coefficients of two tensor files."""
    from chansim6g.cir import read_cir

    ta, tb = read_cir(a), read_cir(b)
    if (ta.coefficients.shape != tb.coefficients.shape
            or not all(map(np.array_equal, (ta.tap_delays_s, ta.sample_times_s),
                           (tb.tap_delays_s, tb.sample_times_s)))):
        return math.inf
    diff = float(np.max(np.abs(ta.coefficients - tb.coefficients), initial=0.0))
    scale = float(np.max(np.abs(ta.coefficients), initial=0.0))
    return 0.0 if not diff else diff / scale if scale else math.inf


def _csv_difference(a: Path, b: Path) -> float:
    """Largest |x - y| over the numeric cells of two CSV files."""
    ra, rb = (list(csv.reader(p.read_text().splitlines())) for p in (a, b))
    if ra[:1] != rb[:1] or [len(r) for r in ra] != [len(r) for r in rb]:
        return math.inf
    worst = 0.0
    for x, y in zip((c for r in ra[1:] for c in r), (c for r in rb[1:] for c in r)):
        try:
            worst = max(worst, abs(float(x) - float(y)))
        except ValueError:
            worst = worst if x == y else math.inf
    return worst


def compare_trees(a: Path, b: Path) -> dict:
    """Per config of two ``--keep`` trees: ``files``, ``identical`` (byte
    for byte), ``cir`` (largest max-normalized coefficient difference) and
    ``csv`` (largest value difference)."""
    report = {}
    for name in sorted({d.name for d in a.iterdir()} | {d.name for d in b.iterdir()}):
        names = sorted({p.name for p in _covered_files(a / name) + _covered_files(b / name)})
        row = {"files": len(names), "identical": 0, "cir": 0.0, "csv": 0.0}
        for fname in names:
            fa, fb = a / name / fname, b / name / fname
            kind = "csv" if fname.endswith(".csv") else "cir"
            if not (fa.is_file() and fb.is_file()):
                row[kind] = math.inf
            elif fa.read_bytes() == fb.read_bytes():
                row["identical"] += 1
            else:
                diff = (_csv_difference if kind == "csv" else _cir_difference)(fa, fb)
                row[kind] = max(row[kind], diff)
        report[name] = row
    return report


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
    p.add_argument("--keep", type=Path, metavar="DIR",
                   help="write the campaign outputs to DIR/<config>")
    p.add_argument("--compare", type=Path, nargs=2, metavar=("A", "B"),
                   help="compare two --keep trees per config")
    args = p.parse_args(argv)
    if args.compare is not None:
        report = compare_trees(*args.compare)
        for name, row in report.items():
            sys.stdout.write(f"{name}: {row['identical']}/{row['files']} files identical, "
                             f"cir max-normalized diff {row['cir']:.3g}, "
                             f"csv value diff {row['csv']:.3g}\n")
        return 0
    if args.seeds is not None:
        if args.write or args.keep:
            p.error("--seeds neither writes the golden file nor keeps outputs")
        sys.stdout.write(json.dumps(sweep_digests(args.seeds, args.jobs), indent=1,
                                    sort_keys=True) + "\n")
        return 0
    text = json.dumps(compute_digests(jobs=args.jobs, keep=args.keep), indent=1,
                      sort_keys=True) + "\n"
    if args.write:
        GOLDEN.write_text(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
