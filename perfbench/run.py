"""Benchmark chansim6g campaigns end to end, or per module with tracing.

    python3 perfbench/run.py --workload light-serial --seed 1 --seconds 35 --trace 0

A run builds its inputs from ``--seed``, repeats whole rounds for
``--seconds`` seconds, checks every output, and prints one JSON object as
the last line of stdout: ``correct``, ``attempted``, ``failed`` and
``metrics``. ``--trace 0`` gives the end-to-end metrics, ``--trace 1`` the
per-layer ones. A human summary goes to stderr, and the full record
(per-config medians, host probe, host facts, check failures) to
``perfbench/_work/result-<workload>-s<seed>-t<trace>.json``.

One round visits every config of the workload once. For each config it
times one ``run_campaign`` block into a fresh directory, two
``chansim6g analyze`` passes over that directory and a few direct ``run_drop``
calls, then checks the outputs and deletes them. A fixed host probe runs
before every block. Throughput and latency figures are scaled by the
run's host speed, measured with the probe against a reference host
(``HostProbe.REFERENCE_MS``); the raw figures go to the record file. Set-up time and peak memory are not
scaled. Set-up time is measured after the rounds, over cold interpreter
starts.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import shutil
import statistics
import sys
import traceback
from dataclasses import replace
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / "perfbench" / "_work"
SETUP_STARTS = 7
WARMUP_DROPS = 4
ANALYZE_METRICS = "ds,gini,rsrp,xcorr"

sys.path.insert(0, str(ROOT))

from perfbench import checks, host, metrics, workloads  # noqa: E402
from perfbench.tracing import Tracer, check_self_time_sums  # noqa: E402


def import_program():
    """Import chansim6g from this checkout's ``src`` and nowhere else."""
    src = (ROOT / "src").resolve()
    sys.path.insert(0, str(src))
    try:
        import chansim6g
        from chansim6g import campaign, cli
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import chansim6g from {src}: {exc}")
    if src not in Path(chansim6g.__file__).resolve().parents:
        raise SystemExit(f"perfbench: chansim6g came from {chansim6g.__file__}, "
                         f"not from {src}")
    return campaign, cli


class Tally:
    """Operations attempted and failed, and the failed checks."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.bad_checks: list = []

    def add(self, n: int = 1, failed: int = 0) -> None:
        self.attempted += n
        self.failed += failed

    def checks(self, results, where: str) -> None:
        for r in results:
            self.add(1, 0 if r.ok else 1)
            if not r.ok:
                self.bad_checks.append(f"{where}: {r.name}: {r.error}")


class Bench:
    def __init__(self, wl, seed: int, run_dir: Path):
        self.wl = wl
        self.seed = seed
        self.run_dir = run_dir
        self.campaign, self.cli = import_program()
        self.configs = workloads.load_configs(wl)
        self.tally = Tally()
        self.probe = host.HostProbe()

    # -- timed operations ------------------------------------------------
    def run_campaign(self, cfg, out: Path, jobs: int):
        """Seconds for one campaign block, or None if it raised."""
        try:
            t0 = perf_counter()
            self.campaign.run_campaign(cfg, out, jobs=jobs)
            dt = perf_counter() - t0
        except Exception:
            traceback.print_exc()
            self.tally.add(cfg.drops, failed=cfg.drops)
            return None
        self.tally.add(cfg.drops)
        return dt

    def analyze(self, out: Path):
        """Seconds for ``chansim6g analyze`` over one directory, or None."""
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                t0 = perf_counter()
                rc = self.cli.main(["analyze", "--in", str(out),
                                    "--metrics", ANALYZE_METRICS])
                dt = perf_counter() - t0
            if rc != 0:
                raise RuntimeError(f"analyze exited {rc}")
        except Exception:
            traceback.print_exc()
            self.tally.add(1, failed=1)
            return None
        self.tally.add(1)
        return dt

    def run_drops(self, cfg, drops) -> list:
        """Milliseconds of direct ``run_drop`` calls (the library path)."""
        out = []
        for d in drops:
            try:
                t0 = perf_counter()
                self.campaign.run_drop(cfg, d)
                out.append((perf_counter() - t0) * 1e3)
                self.tally.add(1)
            except Exception:
                traceback.print_exc()
                self.tally.add(1, failed=1)
        return out

    def check(self, out: Path, cfg, rnd: int, ci: int) -> None:
        where = f"round {rnd} {self.wl.configs[ci]} seed {cfg.seed}"
        self.tally.checks(checks.check_campaign(out, cfg), where)
        if self.wl.jobs > 1:
            drop = workloads.drop_indices(self.seed, rnd, ci, 1, high=cfg.drops)[0]
            scratch = self.run_dir / "serial"
            scratch.mkdir(exist_ok=True)
            self.tally.checks([checks.check_serial_bytes(out, cfg, drop, scratch)], where)

    def block_config(self, rnd: int, ci: int, drops: int):
        return replace(self.configs[ci], seed=workloads.block_seed(self.seed, rnd, ci),
                       drops=drops)

    def warm_up(self) -> None:
        """One small untimed round, so lazy set-up is done before timing."""
        for ci in range(len(self.configs)):
            cfg = self.block_config(-1, ci, WARMUP_DROPS)
            out = self.run_dir / f"warm{ci}"
            if self.run_campaign(cfg, out, self.wl.jobs) is not None \
                    and self.analyze(out) is not None:
                self.check(out, cfg, -1, ci)
            self.run_drops(cfg, [0])
            shutil.rmtree(out, ignore_errors=True)
        self.probe.run()

    # -- timed run -------------------------------------------------------
    def timed(self, seconds: float) -> tuple:
        n = len(self.configs)
        camp = {ci: [] for ci in range(n)}
        anal = {ci: [] for ci in range(n)}
        lat = {ci: [] for ci in range(n)}
        drops = self.wl.drops_per_block
        deadline = perf_counter() + seconds
        rnd = 0
        while rnd == 0 or perf_counter() < deadline:
            for ci in range(n):
                cfg = self.block_config(rnd, ci, drops)
                out = self.run_dir / f"r{rnd}c{ci}"
                self.probe.run()
                dt = self.run_campaign(cfg, out, self.wl.jobs)
                if dt is not None:
                    camp[ci].append(dt)
                    # two analyze passes per block: each call is short
                    da = [self.analyze(out) for _ in range(2)]
                    if None not in da:
                        anal[ci] += da
                        self.check(out, cfg, rnd, ci)
                shutil.rmtree(out, ignore_errors=True)
                lat[ci] += self.run_drops(cfg, workloads.drop_indices(
                    self.seed, rnd, ci, self.wl.drop_calls))
            rnd += 1
        rss = host.peak_rss_mb()
        setup = self.setup_times()
        work = {ci: drops for ci in range(n)}
        raw = {
            "drops_per_s": metrics.block_rate(work, camp),
            "drop_ms_p50": metrics.mean_of_medians(lat),
            "analyze_drops_per_s": metrics.block_rate(work, anal),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": rss,
        }
        speed = self.host_speed()
        figures = dict(raw, drops_per_s=raw["drops_per_s"] / speed,
                       drop_ms_p50=raw["drop_ms_p50"] * speed,
                       analyze_drops_per_s=raw["analyze_drops_per_s"] / speed)
        detail = {
            "rounds": rnd,
            "host_speed": speed,
            "raw_figures": raw,
            "per_config": {
                self.wl.configs[ci]: {
                    "blocks": len(camp[ci]),
                    "drops_per_s_median": drops / statistics.median(camp[ci]),
                    "drops_per_s_spread": metrics.quartile_spread(camp[ci]),
                    "analyze_drops_per_s_median": drops / statistics.median(anal[ci]),
                    "run_drop_ms_median": statistics.median(lat[ci]),
                    "run_drop_calls": len(lat[ci]),
                } for ci in range(n)},
            "setup_s_samples": setup,
        }
        return figures, detail

    def host_speed(self) -> float:
        return self.probe.speed(self.wl.probe_parts)

    def setup_times(self) -> list:
        sources = []
        for name in self.wl.configs:
            if name == "base":
                path = self.run_dir / "base_config.json"
                path.write_text(json.dumps(dict(workloads.BASE_CONFIG, seed=self.seed)))
                sources.append({"config": str(path)})
            else:
                sources.append({"preset": name})
        spec = {"configs": sources, "jobs": self.wl.jobs, "seed": self.seed}
        n = len(sources)
        try:
            samples = host.time_setup(ROOT, spec, self.run_dir, SETUP_STARTS)
        except (RuntimeError, OSError, ValueError):
            traceback.print_exc()
            self.tally.add(SETUP_STARTS * n, failed=SETUP_STARTS * n)
            raise
        self.tally.add(SETUP_STARTS * n)
        return samples

    # -- traced run ------------------------------------------------------
    def traced(self, seconds: float) -> tuple:
        n = len(self.configs)
        drops = self.wl.drops_per_block
        tracer = Tracer(self.run_dir / "trace_parts")
        traced_s = {ci: [] for ci in range(n)}
        serial_s = {ci: [] for ci in range(n)}
        jobs2_s = {ci: [] for ci in range(n)}
        drops_traced = analysed = 0
        deadline = perf_counter() + seconds
        rnd = 0
        while rnd == 0 or perf_counter() < deadline:
            for ci in range(n):
                cfg = self.block_config(rnd, ci, drops)
                out = self.run_dir / f"r{rnd}c{ci}"
                self.probe.run()
                tracer.install()
                try:
                    dt = self.run_campaign(cfg, out, self.wl.jobs)
                    tracer.collect_parts()
                    da = self.analyze(out) if dt is not None else None
                finally:
                    tracer.uninstall()
                if dt is not None:
                    traced_s[ci].append(dt)
                    drops_traced += drops
                if da is not None:
                    analysed += drops
                    self.check(out, cfg, rnd, ci)
                # jobs=2 over jobs=1 on the same block, untraced; the two
                # outputs must match byte for byte.
                pair = []
                for jobs, acc in ((1, serial_s), (2, jobs2_s)):
                    p_out = self.run_dir / f"r{rnd}c{ci}j{jobs}"
                    t = self.run_campaign(cfg, p_out, jobs)
                    if t is not None:
                        acc[ci].append(t)
                    pair.append(p_out)
                self.tally.checks([same_files(*pair)], f"round {rnd} {self.wl.configs[ci]}")
                for d in [out, *pair]:
                    shutil.rmtree(d, ignore_errors=True)
            rnd += 1
        sums = check_self_time_sums(tracer.spans)
        bad = [s for s in sums if s[3] != s[2] + s[4]
               or (self.wl.jobs == 1 and s[4] != 0)]
        self.tally.add(len(sums), failed=len(bad))
        self.tally.bad_checks += [f"self-time sum of root {s[1]}: {s}" for s in bad]
        work = {ci: drops for ci in range(n)}
        figures = metrics.layer_metrics(tracer.spans, drops_traced, analysed)
        figures["campaign.jobs2_speedup"] = (metrics.block_rate(work, jobs2_s)
                                             / metrics.block_rate(work, serial_s))
        figures["campaign.run_campaign.traced_drops_per_s"] = (
            metrics.block_rate(work, traced_s) / self.host_speed())
        trace_path = WORK / f"trace-{self.wl.name}.json.gz"
        tracer.write(trace_path)
        detail = {
            "rounds": rnd,
            "host_speed": self.host_speed(),
            "spans": len(tracer.spans),
            "trace_file": str(trace_path.relative_to(ROOT)),
            "roots_checked": len(sums),
            "concurrent_overlap_ms": sum(s[4] for s in sums) / 1e6,
            "per_config": {
                self.wl.configs[ci]: {
                    "traced_drops_per_s_median": drops / statistics.median(traced_s[ci]),
                    "jobs1_drops_per_s_median": drops / statistics.median(serial_s[ci]),
                    "jobs2_drops_per_s_median": drops / statistics.median(jobs2_s[ci]),
                } for ci in range(n)},
        }
        return figures, detail


def same_files(a: Path, b: Path) -> checks.CheckResult:
    names = sorted(p.name for p in a.iterdir())
    if names != sorted(p.name for p in b.iterdir()):
        return checks.CheckResult("pair_bytes", "jobs=1 and jobs=2 wrote different files")
    for name in names:
        if (a / name).read_bytes() != (b / name).read_bytes():
            return checks.CheckResult("pair_bytes", f"{name} differs between jobs=1 and jobs=2")
    return checks.CheckResult("pair_bytes")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    wl = workloads.WORKLOADS[args.workload]
    WORK.mkdir(parents=True, exist_ok=True)
    run_dir = WORK / f"run-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir()
    try:
        bench = Bench(wl, args.seed, run_dir)
        bench.warm_up()
        if args.trace:
            figures, detail = bench.traced(args.seconds)
            units = metrics.PER_LAYER
        else:
            figures, detail = bench.timed(args.seconds)
            units = metrics.END_TO_END
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    tally = bench.tally
    probe = bench.probe
    record = {
        "workload": wl.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "figures": figures, **detail,
        "host_probe": {
            "reference_ms": probe.REFERENCE_MS,
            "parts": list(wl.probe_parts),
            **{f"{p}_ms_median": statistics.median(v) for p, v in probe.ms.items()},
            **{f"{p}_spread": metrics.quartile_spread(v) for p, v in probe.ms.items()},
            "samples": len(probe.ms["drop"]),
        },
        "host": host.host_facts(),
        "attempted": tally.attempted, "failed": tally.failed,
        "failed_checks": tally.bad_checks,
    }
    result_path = WORK / f"result-{wl.name}-s{args.seed}-t{args.trace}.json"
    result_path.write_text(json.dumps(record, indent=1))
    for line in tally.bad_checks:
        print(f"CHECK FAILED {line}", file=sys.stderr)
    print(f"{wl.name} seed {args.seed} trace {args.trace}: {detail['rounds']} rounds, "
          f"{tally.attempted} operations, {tally.failed} failed; "
          f"host speed {bench.host_speed():.3f}; "
          f"record {result_path.relative_to(ROOT)}", file=sys.stderr)
    print(json.dumps({
        "correct": not tally.bad_checks,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": figures[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
