"""Command-line interface: run campaigns, analyze outputs, validate configs.

Set CHANSIM6G_DATA to override the data-asset directory.
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path

import numpy as np

from . import analysis
from .campaign import run_campaign
from .cir import read_cir
from .config import ConfigError, load_config, load_preset
from .geometry import ConfigurationError


def _cmd_run(args) -> int:
    if args.jobs < 1:
        print(f"run: --jobs must be at least 1, got {args.jobs}", file=sys.stderr)
        return 2
    if args.config:
        cfg = load_config(args.config)
    elif args.preset:
        cfg = load_preset(args.preset)
    else:
        print("run: need --config FILE or --preset NAME", file=sys.stderr)
        return 2
    overrides = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.drops is not None:
        overrides["drops"] = args.drops
    if overrides:
        from dataclasses import replace
        cfg = replace(cfg, **overrides).validate()
    summary = run_campaign(cfg, args.out, jobs=args.jobs)
    print(f"campaign complete: {summary['drops']} drops, "
          f"config {summary['config_hash']}, outputs in {args.out}")
    return 0


def _tensor_metrics(path: Path, wanted):
    cir = read_cir(path)
    taps = cir.coefficients
    powers = np.mean(np.abs(taps) ** 2, axis=(0, 1, 2))
    row = {}
    if "ds" in wanted:
        row["ds_ns"] = analysis.rms_delay_spread(powers, cir.tap_delays_s) * 1e9
    if "gini" in wanted:
        row["gini"] = analysis.gini_index(powers)
    if "rsrp" in wanted:
        row["rsrp_dbm"] = analysis.rsrp(cir)
    if "xcorr" in wanted and taps.shape[1] > 1:
        freqs = np.linspace(0.0, 1.0 / max(cir.tap_delays_s.max(), 1e-9), 64)
        basis = np.exp(-2j * np.pi * freqs[None, :] * cir.tap_delays_s[:, None])
        cfr = taps[0, [0, -1], 0, :] @ basis    # reference and last element
        rho, _ = analysis.array_cross_correlation(cfr)
        row["xcorr_last"] = float(rho[-1])
    return row


def _cmd_analyze(args) -> int:
    wanted = [m.strip() for m in args.metrics.split(",") if m.strip()]
    known = {"ds", "as", "gini", "rsrp", "xcorr"}
    unknown = set(wanted) - known
    if unknown:
        print(f"analyze: unknown metrics {sorted(unknown)}; known: {sorted(known)}",
              file=sys.stderr)
        return 2
    in_dir = Path(args.in_dir)
    # (drop, path) in drop order; the drop number comes from the file name.
    tensor_files = sorted((int(m[1]), path) for path in in_dir.glob("drop*.cir")
                          if (m := re.fullmatch(r"drop(\d+)\.cir", path.name)))
    if not tensor_files:
        print(f"analyze: no tensor files in {in_dir}", file=sys.stderr)
        return 2
    report = analysis.MetricReport()
    gen_rows = {}
    metrics_csv = in_dir / "metrics.csv"
    if "as" in wanted:
        if not metrics_csv.exists():
            print("analyze: 'as' needs the generation-time metrics.csv",
                  file=sys.stderr)
            return 2
        import csv
        with metrics_csv.open() as fh:
            for row in csv.DictReader(fh):
                if row.get("asa_deg"):
                    gen_rows[int(row["drop"])] = float(row["asa_deg"])
    for drop, path in tensor_files:
        row = _tensor_metrics(path, wanted)
        if "as" in wanted and drop in gen_rows:
            row["asa_deg"] = gen_rows[drop]
        report.add(drop, **row)
    out_dir = Path(args.out) if args.out else in_dir
    out_dir.mkdir(parents=True, exist_ok=True)
    analysis.export_metrics_csv(report, out_dir / "analysis.csv")
    for name in report.rows[0]:
        if name == "drop":
            continue
        analysis.export_cdf_csv(report.column(name), out_dir / f"cdf_{name}.csv")
    print(f"analyzed {len(tensor_files)} drops -> {out_dir / 'analysis.csv'}")
    return 0


def _cmd_validate(args) -> int:
    try:
        cfg = load_config(args.config)
    except (ConfigError, ConfigurationError) as exc:
        print(f"invalid: {exc}", file=sys.stderr)
        return 1
    print(f"valid: feature {cfg.feature}, scenario {cfg.scenario}, "
          f"{cfg.center_freq_hz / 1e9:g} GHz, {cfg.drops} drops")
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="chansim6g",
                                description="Link-level 6G stochastic channel simulator")
    sub = p.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a simulation campaign")
    run.add_argument("--config", help="configuration JSON file")
    run.add_argument("--preset", choices=["thz", "emimo", "isac", "ris", "sagin"],
                     help="shipped preset name")
    run.add_argument("--seed", type=int, default=None)
    run.add_argument("--drops", type=int, default=None)
    run.add_argument("--out", default="out", help="output directory")
    run.add_argument("--jobs", type=int, default=1,
                     help="processes that share the drops, this one included")
    run.set_defaults(func=_cmd_run)

    an = sub.add_parser("analyze", help="compute metrics over campaign outputs")
    an.add_argument("--in", dest="in_dir", required=True)
    an.add_argument("--metrics", default="ds,gini,rsrp")
    an.add_argument("--out", default=None)
    an.set_defaults(func=_cmd_analyze)

    val = sub.add_parser("validate", help="validate a configuration file")
    val.add_argument("--config", required=True)
    val.set_defaults(func=_cmd_validate)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ConfigurationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
