"""Span tracing from outside the program, for the traced run only.

The tracer replaces public functions at the module attributes their
callers look them up through (``generate_clusters`` as imported by
``campaign`` and by ``sagin``, ``child_rng`` in ``seeding``, ...) with
wrappers that record one span per call. Spans stay in memory and are
written out when the run ends.

Pool workers are forked from the process that holds the tracer, so they
inherit the wrappers and the open span stack: their spans name the parent
process's ``run_campaign`` span as parent. Each worker writes its spans to
a part file when it exits; ``collect_parts`` merges them.
"""

from __future__ import annotations

import functools
import gzip
import json
import os
from multiprocessing import util as mp_util
from pathlib import Path
from time import perf_counter_ns

# (module, attribute, span name). Span names are <module>.<function> of the
# function's home module.
TARGETS = (
    ("chansim6g.campaign", "run_campaign", "campaign.run_campaign"),
    ("chansim6g.campaign", "run_drop", "campaign.run_drop"),
    ("chansim6g.campaign", "config_hash", "config.config_hash"),
    ("chansim6g.campaign", "lookup_lsp_table", "largescale.lookup_lsp_table"),
    ("chansim6g.sagin", "lookup_lsp_table", "largescale.lookup_lsp_table"),
    ("chansim6g.campaign", "generate_lsps", "largescale.generate_lsps"),
    ("chansim6g.sagin", "generate_lsps", "largescale.generate_lsps"),
    ("chansim6g.campaign", "generate_clusters", "smallscale.generate_clusters"),
    ("chansim6g.sagin", "generate_clusters", "smallscale.generate_clusters"),
    ("chansim6g.smallscale", "gen_ray_angles", "smallscale.gen_ray_angles"),
    ("chansim6g.seeding", "child_rng", "seeding.child_rng"),
    ("chansim6g.campaign", "synthesize_cir", "cir.synthesize_cir"),
    ("chansim6g.sagin", "synthesize_cir", "cir.synthesize_cir"),
    ("chansim6g.thz", "apply_sparsity", "thz.apply_sparsity"),
    ("chansim6g.isac", "gen_isac_drop", "isac.gen_isac_drop"),
    ("chansim6g.sagin", "ntn_drop", "sagin.ntn_drop"),
    ("chansim6g.emimo", "sns_cfr_band", "emimo.sns_cfr_band"),
    ("chansim6g.emimo", "spherical_manifold", "emimo.spherical_manifold"),
    ("chansim6g.emimo", "gen_sns_mask", "emimo.gen_sns_mask"),
    ("chansim6g.ris", "cascade_cir_multi", "ris.cascade_cir_multi"),
    ("chansim6g.campaign", "write_cir", "cir.write_cir"),
    ("chansim6g.cli", "read_cir", "cir.read_cir"),
    ("chansim6g.cli", "_cmd_analyze", "cli.analyze"),
    ("chansim6g.analysis", "rms_delay_spread", "analysis.rms_delay_spread"),
    ("chansim6g.analysis", "gini_index", "analysis.gini_index"),
    ("chansim6g.analysis", "rsrp", "analysis.rsrp"),
    ("chansim6g.analysis", "array_cross_correlation", "analysis.array_cross_correlation"),
    ("chansim6g.analysis", "export_metrics_csv", "analysis.export_metrics_csv"),
    ("chansim6g.analysis", "export_cdf_csv", "analysis.export_cdf_csv"),
)

# Span tuple fields.
ID, PARENT, NAME, T0, T1, BYTES = range(6)


def _written_bytes(args, kwargs) -> int:
    path = kwargs.get("path", args[1] if len(args) > 1 else None)
    return os.path.getsize(path)


_POST = {"cir.write_cir": _written_bytes}


class Tracer:
    """Records (id, parent, name, t0_ns, t1_ns, bytes) spans in memory."""

    def __init__(self, part_dir):
        self.part_dir = Path(part_dir)
        self.spans: list = []
        self.stack: list = []
        self._count = 0
        self._pid = os.getpid()
        self._in_worker = False
        self._originals: list = []
        os.register_at_fork(after_in_child=self._after_fork)

    # -- recording -------------------------------------------------------
    def _after_fork(self) -> None:
        # Keep the stack: it names the parent's open span. Drop the
        # parent's finished spans; they are the parent's to write.
        self.spans = []
        self._pid = os.getpid()
        self._count = 0
        self._in_worker = True

    def _record(self, span: tuple) -> None:
        if self._in_worker:
            self._in_worker = False
            # ProcessPoolExecutor workers run multiprocessing finalizers
            # when they exit normally.
            mp_util.Finalize(None, self.write_part, exitpriority=100)
        self.spans.append(span)

    def wrap(self, fn, name: str):
        post = _POST.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._count += 1
            sid = (self._pid << 32) | self._count
            parent = self.stack[-1] if self.stack else None
            self.stack.append(sid)
            t0 = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter_ns()
                self.stack.pop()
                extra = post(args, kwargs) if post else 0
                self._record((sid, parent, name, t0, t1, extra))
        return traced

    def install(self) -> None:
        import importlib
        for mod_name, attr, name in TARGETS:
            mod = importlib.import_module(mod_name)
            fn = getattr(mod, attr)
            self._originals.append((mod, attr, fn))
            setattr(mod, attr, self.wrap(fn, name))

    def uninstall(self) -> None:
        while self._originals:
            mod, attr, fn = self._originals.pop()
            setattr(mod, attr, fn)

    # -- output ----------------------------------------------------------
    def write_part(self) -> None:
        self.part_dir.mkdir(parents=True, exist_ok=True)
        tmp = self.part_dir / f"{os.getpid()}.tmp"
        tmp.write_text(json.dumps(self.spans))
        tmp.rename(tmp.with_suffix(".json"))

    def collect_parts(self) -> int:
        """Merge the span files written by exited pool workers."""
        merged = 0
        for part in sorted(self.part_dir.glob("*.json")):
            spans = [tuple(s) for s in json.loads(part.read_text())]
            self.spans.extend(spans)
            merged += len(spans)
            part.unlink()
        return merged

    def write(self, path) -> None:
        with gzip.open(path, "wt") as fh:
            json.dump({"fields": ["id", "parent", "name", "t0_ns", "t1_ns", "bytes"],
                       "spans": self.spans}, fh)


# ---------------------------------------------------------------------------
# Span arithmetic
# ---------------------------------------------------------------------------

def _covered(intervals, lo: int, hi: int) -> int:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total, end = 0, lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


def children_of(spans) -> dict:
    kids: dict = {}
    for s in spans:
        kids.setdefault(s[PARENT], []).append(s)
    return kids


def self_times(spans) -> dict:
    """Span id -> duration minus the part of it that child spans cover."""
    kids = children_of(spans)
    return {s[ID]: (s[T1] - s[T0]) - _covered(
        [(c[T0], c[T1]) for c in kids.get(s[ID], ())], s[T0], s[T1])
        for s in spans}


def overlap(spans) -> dict:
    """Span id -> time its children ran concurrently with each other (the
    sum of child durations minus their union); zero for serial code."""
    kids = children_of(spans)
    out = {}
    for s in spans:
        ch = [(c[T0], c[T1]) for c in kids.get(s[ID], ())]
        out[s[ID]] = sum(b - a for a, b in ch) - _covered(ch, s[T0], s[T1])
    return out


def root_of(spans) -> dict:
    """Span id -> id of its root span."""
    parent = {s[ID]: s[PARENT] for s in spans}
    roots: dict = {}

    def find(sid):
        path = []
        while sid not in roots and parent.get(sid) is not None:
            path.append(sid)
            sid = parent[sid]
        root = roots.get(sid, sid)
        for p in path:
            roots[p] = root
        roots[sid] = root
        return root

    for s in spans:
        find(s[ID])
    return roots


def check_self_time_sums(spans) -> list:
    """For every root: (root id, name, duration, sum of self times over its
    tree, concurrent overlap inside the tree). The sum equals the duration
    plus the overlap; the overlap is zero unless pool workers ran at once."""
    selfs, ovl, roots = self_times(spans), overlap(spans), root_of(spans)
    by_id = {s[ID]: s for s in spans}
    sums: dict = {}
    over: dict = {}
    for s in spans:
        r = roots[s[ID]]
        sums[r] = sums.get(r, 0) + selfs[s[ID]]
        over[r] = over.get(r, 0) + ovl[s[ID]]
    return [(r, by_id[r][NAME], by_id[r][T1] - by_id[r][T0], sums[r], over[r])
            for r in sums if r in by_id]
