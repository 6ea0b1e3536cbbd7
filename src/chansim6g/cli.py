"""Command-line interface: run campaigns, analyze outputs, validate configs.

Set CHANSIM6G_DATA to override the data-asset directory.
"""

from __future__ import annotations

import argparse
import functools
import re
import sys
from pathlib import Path

import numpy as np

from . import analysis
from .campaign import _BLOCK, run_campaign
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


def _stack_rows(cirs, wanted) -> list:
    """Metric rows of same-shape tensors, in their order: each of ds, gini
    and rsrp is one reduction over the stacked tensors."""
    coeffs = np.stack([cir.coefficients for cir in cirs])       # (k, t, u, s, n)
    powers = np.mean(np.abs(coeffs) ** 2, axis=(1, 2, 3))       # (k, n)
    columns = {}
    if "ds" in wanted:
        delays = np.stack([cir.tap_delays_s for cir in cirs])
        columns["ds_ns"] = analysis.rms_delay_spread(powers, delays) * 1e9
    if "gini" in wanted:
        columns["gini"] = analysis.gini_index(powers)
    if "rsrp" in wanted:
        columns["rsrp_dbm"] = analysis.rsrp(coeffs)
    return [{name: col[i] for name, col in columns.items()} for i in range(len(cirs))]


def _group_rows(paths, cirs, wanted) -> list:
    """``_stack_rows`` of one shape group. If a metric fails, the ValueError
    names the first file whose metric fails alone."""
    try:
        return _stack_rows(cirs, wanted)
    except ValueError:
        for path, cir in zip(paths, cirs):
            try:
                _stack_rows([cir], wanted)
            except ValueError as exc:
                raise ValueError(f"{path}: {exc}") from exc
        raise


def _xcorr_last(cir) -> float:
    taps = cir.coefficients
    freqs = np.linspace(0.0, 1.0 / max(cir.tap_delays_s.max(), 1e-9), 64)
    basis = np.exp(-2j * np.pi * freqs[None, :] * cir.tap_delays_s[:, None])
    cfr = taps[0, [0, -1], 0, :] @ basis    # reference and last element
    rho, _ = analysis.array_cross_correlation(cfr)
    return float(rho[-1])


def _chunk_rows(paths, wanted) -> list:
    """Metric rows of one chunk of tensor files, in its order. Tensors of one
    shape share their reductions."""
    cirs = [read_cir(path) for path in paths]
    rows = [None] * len(cirs)
    groups = {}
    for i, cir in enumerate(cirs):
        groups.setdefault(cir.shape, []).append(i)
    for idx in groups.values():
        group = _group_rows([paths[i] for i in idx], [cirs[i] for i in idx], wanted)
        for i, row in zip(idx, group):
            rows[i] = row
    if "xcorr" in wanted:
        for row, cir in zip(rows, cirs):
            if cir.shape[1] > 1:
                row["xcorr_last"] = _xcorr_last(cir)
    return rows


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
    # One chunk of tensors in memory at a time.
    for start in range(0, len(tensor_files), _BLOCK):
        chunk = tensor_files[start:start + _BLOCK]
        try:
            rows = _chunk_rows([path for _, path in chunk], wanted)
        except ValueError as exc:
            print(f"analyze: {exc}", file=sys.stderr)
            return 1
        for (drop, _), row in zip(chunk, rows):
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


@functools.cache
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

    an = sub.add_parser("analyze", help="compute metrics over campaign outputs")
    an.add_argument("--in", dest="in_dir", required=True)
    an.add_argument("--metrics", default="ds,gini,rsrp")
    an.add_argument("--out", default=None)

    val = sub.add_parser("validate", help="validate a configuration file")
    val.add_argument("--config", required=True)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # The command is looked up per call, not bound into the cached parser,
    # so a module attribute replaced at run time is the one called.
    command = {"run": _cmd_run, "analyze": _cmd_analyze,
               "validate": _cmd_validate}[args.command]
    try:
        return command(args)
    except (ConfigError, ConfigurationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
