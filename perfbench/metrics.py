"""Metric definitions and the estimators that turn samples into figures."""

from __future__ import annotations

import statistics

import numpy as np

from .tracing import BYTES, ID, NAME, T0, T1, root_of, self_times

END_TO_END = {
    "drops_per_s": "1/s",
    "drop_ms_p50": "ms",
    "analyze_drops_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# Inclusive time per generated drop, by span name.
_GEN_MS = ("smallscale.gen_ray_angles", "smallscale.generate_clusters",
           "largescale.lookup_lsp_table", "largescale.generate_lsps",
           "seeding.child_rng", "config.config_hash", "emimo.sns_cfr_band",
           "emimo.spherical_manifold", "emimo.gen_sns_mask",
           "ris.cascade_cir_multi", "cir.synthesize_cir", "thz.apply_sparsity",
           "isac.gen_isac_drop", "cir.write_cir")
_GEN_CALLS = ("largescale.lookup_lsp_table", "seeding.child_rng", "config.config_hash")
_GEN_SELF = ("campaign.run_drop", "sagin.ntn_drop", "campaign.run_campaign")

PER_LAYER = {
    **{f"{n}.ms_per_drop": "ms" for n in _GEN_MS},
    **{f"{n}.calls_per_drop": "count" for n in _GEN_CALLS},
    **{f"{n}.self_ms_per_drop": "ms" for n in _GEN_SELF},
    "cir.write_cir.bytes_per_drop": "B",
    "cir.read_cir.ms_per_drop": "ms",
    "analysis.ms_per_drop": "ms",
    "cli.analyze.self_ms_per_drop": "ms",
    "campaign.jobs2_speedup": "x",
    "campaign.run_drop.ms_p99": "ms",
    "campaign.run_drop.samples": "count",
    "campaign.run_campaign.traced_drops_per_s": "1/s",
}


def block_rate(work: dict, seconds: dict) -> float:
    """Work per second of one rotation through the configs, each config
    taken at the median of its blocks: sum(work) / sum(median seconds).

    ``work`` maps config -> units of work per block (drops), ``seconds``
    maps config -> list of block wall times. Taking each config's median
    before combining keeps a config that runs at another speed from landing
    the median in the gap between two configs.
    """
    total = sum(work[c] for c in seconds)
    return total / sum(statistics.median(seconds[c]) for c in seconds)


def mean_of_medians(samples: dict) -> float:
    """Mean over configs of each config's median sample."""
    return statistics.fmean(statistics.median(v) for v in samples.values())


def quartile_spread(values) -> float:
    """(Q3 - Q1) / median, quartiles as statistics.quantiles(n=4) gives
    them; 0 for fewer than two values."""
    if len(values) < 2:
        return 0.0
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med


def layer_metrics(spans, drops: int, analysed: int) -> dict:
    """Per-layer figures from the traced run's spans.

    ``drops`` is the number of drops generated under the traced
    ``run_campaign`` roots, ``analysed`` the number of drops read under the
    ``cli.analyze`` roots.
    """
    by_id = {s[ID]: s for s in spans}
    roots = root_of(spans)
    selfs = self_times(spans)
    ms: dict = {}
    calls: dict = {}
    self_ms: dict = {}
    written = 0
    drop_ms = []
    analyze_ms = {"read": 0.0, "analysis": 0.0, "self": 0.0}
    for s in spans:
        root = by_id[roots[s[ID]]][NAME]
        name = s[NAME]
        dur = (s[T1] - s[T0]) / 1e6
        if root == "campaign.run_campaign":
            ms[name] = ms.get(name, 0.0) + dur
            calls[name] = calls.get(name, 0) + 1
            self_ms[name] = self_ms.get(name, 0.0) + selfs[s[ID]] / 1e6
            written += s[BYTES]
            if name == "campaign.run_drop":
                drop_ms.append(dur)
        elif root == "cli.analyze":
            if name == "cir.read_cir":
                analyze_ms["read"] += dur
            elif name.startswith("analysis."):
                analyze_ms["analysis"] += dur
            elif name == "cli.analyze":
                analyze_ms["self"] += selfs[s[ID]] / 1e6
    out = {}
    for n in _GEN_MS:
        out[f"{n}.ms_per_drop"] = ms.get(n, 0.0) / drops
    for n in _GEN_CALLS:
        out[f"{n}.calls_per_drop"] = calls.get(n, 0) / drops
    for n in _GEN_SELF:
        out[f"{n}.self_ms_per_drop"] = self_ms.get(n, 0.0) / drops
    out["cir.write_cir.bytes_per_drop"] = written / drops
    out["cir.read_cir.ms_per_drop"] = analyze_ms["read"] / analysed
    out["analysis.ms_per_drop"] = analyze_ms["analysis"] / analysed
    out["cli.analyze.self_ms_per_drop"] = analyze_ms["self"] / analysed
    out["campaign.run_drop.ms_p99"] = float(np.percentile(drop_ms, 99))
    out["campaign.run_drop.samples"] = len(drop_ms)
    return out
