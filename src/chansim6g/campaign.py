"""Multi-drop campaign orchestration: one drop skeleton with a runner per
feature, deterministic seeding, file output and metric collection.

A campaign slice builds one ``_Plan`` (config hash, positions, arrays, LOS
directions, sample times, a RIS slice's panel geometry and an ISAC slice's
``isac.build_geometry``, which ``validate`` runs too) and stages its drops
``_BLOCK`` at a time: each drop's prologue (rng streams, link state, the
table entry of a terrestrial feature), then, per drawn link state, the
LSPs of every terrestrial feature, steps 5-10 of BASE, THz and E-MIMO as one
``generate_clusters`` block, those of each RIS leg as one block on the
leg's shifted streams, and SAGIN's drops as one ``sagin.ntn_drop`` block.
Blocks are the only input form of steps 5-10.
``run_drop`` then finishes each drop: the feature's runner in ``_RUNNERS``
returns its tensors and metrics, and ``run_drop`` alone stamps the tensors
and builds the ``DropResult``. Alone, ``run_drop(cfg, drop)`` builds its
own plan and stages the drop as a block of one. Every terrestrial link loss
is ``_ci_loss`` over legs floored at 1 m, as is ISAC's radar-echo loss.

Drops are schedule-independent: each consumes only its own child rng streams,
a block computes every drop as it would alone, and each drop writes its own
tensor file, so serial, parallel and blocked runs produce byte-identical
outputs.
"""

from __future__ import annotations

import ctypes
import json
import math
import multiprocessing
import traceback
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import analysis, emimo, isac, ris, sagin, thz
from .cir import CirTensor, apply_large_scale, synthesize_cir, write_cir
from .config import FROM_TABLE, ScenarioConfig, config_hash
from .geometry import ArrayGeometry, LosDirections, Position3D, assign_link_state, \
    los_directions
from .largescale import LSPSet, LspTableEntry, generate_lsps, lookup_lsp_table, \
    scenario_los_curve, scenario_pathloss
from .pathloss import PathLossSample, pl_ci
from .seeding import DropStreams
from .smallscale import ClusterSet, generate_clusters
from .analysis import circular_angular_spread, gini_index, rms_delay_spread, rsrp

# Drops a campaign slice stages together.
_BLOCK = 24


@dataclass
class DropResult:
    drop: int
    tensors: dict      # file suffix -> CirTensor
    metrics: dict


@dataclass(frozen=True)
class _RisGeometry:
    """The panel between a RIS slice's two legs, from config constants."""
    pos: Position3D
    dirs1: LosDirections            # BS -> panel (leg 1)
    dirs2: LosDirections            # panel -> UE (leg 2)
    panels: tuple                   # (non-ideal, ideal): one cascade pass
    design_u: np.ndarray            # read-only codebook design vector


def _ris_geometry(cfg: ScenarioConfig, bs: Position3D, ue: Position3D) -> _RisGeometry:
    blk = cfg.feature_block()
    pos = Position3D.from_iterable(blk["position"])
    dirs1, dirs2 = los_directions(bs, pos), los_directions(pos, ue)
    panel = ris.build_panel(blk, cfg.bs_position, cfg.ue_position, cfg.center_freq_hz)
    if blk["codebook"] == "steering":
        design_u = ris.steering_codebook(panel.to_local(dirs1.zoa, dirs1.aoa),
                                         panel.to_local(dirs2.zod, dirs2.aod))
    else:
        design_u = ris.uniform_codebook()
    design_u.flags.writeable = False   # every drop's cascade shares it
    return _RisGeometry(pos=pos, dirs1=dirs1, dirs2=dirs2,
                        panels=(panel, replace(panel, ideal=True)), design_u=design_u)


@dataclass(frozen=True)
class _Plan:
    """What every drop of a campaign shares, built once per slice."""
    cfg: ScenarioConfig
    chash: str                      # config_hash(cfg)
    bs: Position3D
    ue: Position3D
    tx: ArrayGeometry               # bs_array
    rx: ArrayGeometry               # ue_array
    dirs: LosDirections | None      # BS -> UE; None for SAGIN (a slant link)
    times: np.ndarray               # read-only sample times
    d2d: float                      # horizontal BS-UE distance
    ris: _RisGeometry | None        # RIS only, else None
    isac: isac.IsacGeometry | None  # ISAC only, else None


def _plan(cfg: ScenarioConfig) -> _Plan:
    bs, ue = cfg.bs_position3d(), cfg.ue_position3d()
    times = np.arange(cfg.time_samples, dtype=np.float64) * cfg.time_spacing_s
    times.flags.writeable = False   # every drop's tensors share it
    return _Plan(cfg=cfg, chash=config_hash(cfg), bs=bs, ue=ue,
                 tx=cfg.build_array(cfg.bs_array), rx=cfg.build_array(cfg.ue_array),
                 dirs=None if cfg.feature == "SAGIN" else los_directions(bs, ue),
                 times=times,
                 d2d=math.hypot(cfg.ue_position[0] - cfg.bs_position[0],
                                cfg.ue_position[1] - cfg.bs_position[1]),
                 ris=_ris_geometry(cfg, bs, ue) if cfg.feature == "RIS" else None,
                 isac=isac.build_geometry(cfg.feature_block(), bs, ue, cfg.center_freq_hz,
                                          cfg.ue_velocity) if cfg.feature == "ISAC" else None)


@dataclass
class _Drop:
    """One drop as staging hands it to its runner: what it drew, by feature."""
    plan: _Plan
    streams: DropStreams
    state: str
    entry: LspTableEntry | None = None    # None for SAGIN: its table is elevation-keyed
    lsps: LSPSet | None = None            # every terrestrial feature; RIS: leg 1's
    clusters: ClusterSet | None = None    # BASE, THz and E-MIMO: steps 5-10
    legs: tuple | None = None             # RIS: (Tx -> RIS, RIS -> Rx) ClusterSets
    cir: CirTensor | None = None          # SAGIN: the drop's tensor


def _stage(plan: _Plan, drops) -> list:
    """Each drop's prologue, in drop order. Drops that drew the same link
    state then draw their LSPs and run steps 5-10 as one block (see the
    module docstring for which features stage what)."""
    cfg = plan.cfg
    curve = scenario_los_curve(cfg.scenario) if cfg.link_state is None else None
    staged = []
    for drop in drops:
        streams = DropStreams(cfg.seed, drop)
        state = cfg.link_state
        if state is None:   # drawn against the scenario's LOS-probability curve
            state = assign_link_state(streams.get("link_state"), curve, plan.d2d)
        staged.append(_Drop(plan, streams, state))
    groups: dict = {}
    for d in staged:
        groups.setdefault(d.state, []).append(d)
    fc = cfg.center_freq_hz
    for state, group in groups.items():
        streams = [d.streams for d in group]
        if cfg.feature == "SAGIN":
            blk = cfg.feature_block()
            cirs = sagin.ntn_drop(cfg.scenario, state, fc, blk["height_m"],
                                  math.radians(blk["elevation_deg"]), streams,
                                  extra_atten_db=blk["extra_atten_db"],
                                  k_rain_db=blk["k_rain_db"],
                                  k_cloud_db=blk["k_cloud_db"], times=plan.times)
            for d, cir in zip(group, cirs):
                d.cir = cir
            continue
        entry = lookup_lsp_table(cfg.scenario, state, fc)
        for d in group:
            d.entry = entry
        if cfg.feature == "RIS":
            _stage_ris_legs(plan, entry, state, group)
            continue
        lsps = [generate_lsps(entry, s.get("lsp")) for s in streams]
        for d, drawn in zip(group, lsps):
            d.lsps = drawn
        if cfg.feature in ("BASE", "THZ", "EMIMO"):
            clusters = generate_clusters(entry, lsps, plan.dirs, state,
                                         cfg.ue_velocity, fc, streams)
            for d, cl in zip(group, clusters):
                d.clusters = cl
    return staged


def _stage_ris_legs(plan: _Plan, entry: LspTableEntry, state: str, group: list) -> None:
    """Both legs of the RIS drops that drew ``state``: leg 1 (Tx -> RIS, its
    ASA at the panel the configured sweep value) and leg 2 (RIS -> Rx) each
    draw their LSPs per drop and run steps 5-10 as one block. The legs draw
    on the drop's streams at steps 1 and 2, which keeps them insulated."""
    cfg, geo = plan.cfg, plan.ris
    blk = cfg.feature_block()
    s1 = [d.streams.shifted(1) for d in group]
    s2 = [d.streams.shifted(2) for d in group]
    lsps1 = [generate_lsps(entry, s.get("lsp")) for s in s1]
    lsps2 = [generate_lsps(entry, s.get("lsp")) for s in s2]
    if blk["leg_xpr_db"] is not None:
        # Co-polarized comparison study: the ideal/non-ideal pairing isolates
        # the reflection magnitude, so cross-polar leakage is suppressed.
        entry = replace(entry, xpr_mu_db=blk["leg_xpr_db"], xpr_sigma_db=0.0)
    entry1 = entry
    if blk["asa_deg"] is not None:
        # The sweep controls the realized arrival spread at the panel: the
        # intra-cluster spread shrinks with it so narrow settings stay narrow.
        asa = blk["asa_deg"]
        entry1 = replace(entry, c_asa_deg=min(entry.c_asa_deg, asa / 3.0),
                         c_zsa_deg=min(entry.c_zsa_deg, asa / 3.0))
        lsps1 = [replace(x, asa_deg=asa, zsa_deg=min(x.zsa_deg, asa)) for x in lsps1]
    if blk["leg_k_db"] is not None:
        lsps1 = [replace(x, k_db=blk["leg_k_db"]) for x in lsps1]
        lsps2 = [replace(x, k_db=blk["leg_k_db"]) for x in lsps2]
    fc = cfg.center_freq_hz
    legs1 = generate_clusters(entry1, lsps1, geo.dirs1, state, (0.0, 0.0, 0.0), fc, s1)
    legs2 = generate_clusters(entry, lsps2, geo.dirs2, state, cfg.ue_velocity, fc, s2)
    for d, lsps, leg1, leg2 in zip(group, lsps1, legs1, legs2):
        d.lsps, d.legs = lsps, (leg1, leg2)


def _ci_loss(d: _Drop, sf_db: float, *legs) -> PathLossSample:
    """CI path loss summed over the ``(a, b)`` legs, each floored at 1 m like
    the loss anchors, with shadow fading."""
    cfg = d.plan.cfg
    alpha = scenario_pathloss(cfg.scenario, d.state)
    pl = sum(pl_ci(max(a.distance_to(b), 1.0), cfg.center_freq_hz, alpha)
             for a, b in legs)
    return PathLossSample(pl_db=pl, shadow_db=sf_db)


def _run_standard(d: _Drop) -> tuple[dict, dict]:
    p, clusters = d.plan, d.clusters
    cfg = p.cfg
    if cfg.feature == "THZ":
        # Config value wins over the table entry's intra-cluster K.
        sparsity_k_db = cfg.feature_block()["intra_cluster_k_db"]
        if sparsity_k_db == FROM_TABLE:
            sparsity_k_db = d.entry.intra_cluster_k_db
        if sparsity_k_db is not None:
            clusters = thz.apply_sparsity(clusters, sparsity_k_db)
    cir = synthesize_cir(clusters, p.tx, p.rx, cfg.center_freq_hz, p.times)
    cir = apply_large_scale(cir, _ci_loss(d, d.lsps.sf_db, (p.bs, p.ue)))
    return {"": cir}, {
        "ds_ns": rms_delay_spread(clusters.powers, clusters.delays_s) * 1e9,
        "asa_deg": circular_angular_spread(clusters.ray_powers.ravel(),
                                           clusters.aoa.ravel()),
        "gini": gini_index(clusters.ray_powers.ravel()),
        "rsrp_dbm": rsrp(cir, cfg.tx_power_dbm),
        "n_clusters": clusters.n_clusters,
        "state": d.state,
    }


def _run_emimo(d: _Drop) -> tuple[dict, dict]:
    p, clusters = d.plan, d.clusters
    cfg, blk = p.cfg, p.cfg.feature_block()
    n_freq = blk["freq_samples"]
    fc = cfg.center_freq_hz
    # The receive array sweeps the large aperture; the spherical manifold and
    # the visibility mask act along its elements.
    paths = emimo.paths_from_clusters(clusters, p.bs.distance_to(p.ue))
    mask = emimo.gen_sns_mask(p.tx.element_count, paths.tau_s.size,
                              blk["stationary_region"], d.streams.get("sns"))
    manifold = emimo.spherical_manifold(paths, p.tx, fc)
    tap_gain = mask.s * manifold * paths.alpha[None, :]
    coeffs = tap_gain[None, :, None, :]                      # (1, M, 1, K)
    # Path delays are the link delay plus the sorted cluster delays: in order.
    delays = paths.tau_s
    cir = CirTensor(coefficients=coeffs, tap_delays_s=delays - delays.min(),
                    sample_times_s=p.times)
    cir = apply_large_scale(cir, _ci_loss(d, d.lsps.sf_db, (p.bs, p.ue)))
    freqs = fc + np.linspace(-cfg.bandwidth_hz / 2, cfg.bandwidth_hz / 2, n_freq)
    rows = sorted({0, p.tx.element_count - 1})    # the two elements xcorr_last reads
    cfr = emimo.sns_cfr_band(paths, p.tx.element_positions[rows],
                             emimo.SnsMask(s=mask.s[rows]), freqs)
    rho, _ = analysis.array_cross_correlation(cfr)
    return {"": cir}, {
        "ds_ns": rms_delay_spread(clusters.powers, clusters.delays_s) * 1e9,
        "gini": gini_index(clusters.ray_powers.ravel()),
        "rsrp_dbm": rsrp(cir, cfg.tx_power_dbm),
        "n_clusters": clusters.n_clusters,
        "state": d.state,
        "xcorr_last": float(rho[-1]),
    }


def _run_isac(d: _Drop) -> tuple[dict, dict]:
    p, cfg = d.plan, d.plan.cfg
    pair = isac.gen_isac_drop(p.isac, d.entry, d.lsps, d.state, d.streams)
    cir_c = synthesize_cir(pair.comm, p.tx, p.rx, cfg.center_freq_hz, p.times)
    cir_c = apply_large_scale(cir_c, _ci_loss(d, d.lsps.sf_db, (p.bs, p.ue)))
    cir_s = synthesize_cir(pair.sense, p.tx, p.tx, cfg.center_freq_hz, p.times)
    metrics = {
        "ds_ns": rms_delay_spread(pair.comm.powers, pair.comm.delays_s) * 1e9,
        "rsrp_dbm": rsrp(cir_c, cfg.tx_power_dbm),
        "sd_sensing": isac.sharing_degree(pair, "sensing"),
        "sd_comm": isac.sharing_degree(pair, "comm"),
        "state": d.state,
        "n_clusters": pair.comm.n_clusters,
    }
    if p.isac.echo_loss_db is not None:     # every target has an echo cluster
        cir_s = apply_large_scale(cir_s, PathLossSample(pl_db=p.isac.echo_loss_db,
                                                        shadow_db=0.0))
        powers, idx = pair.sense.powers, pair.target_sense_idx
        pr = isac.clutter_power_ratio(float(powers[idx].sum()), np.delete(powers, idx))
        metrics["clutter_pr_db"] = (10.0 * math.log10(pr)
                                    if math.isfinite(pr) else math.inf)
    return {"": cir_c, ".sense": cir_s}, metrics


def _run_ris(d: _Drop) -> tuple[dict, dict]:
    p, geo = d.plan, d.plan.ris
    cfg, blk = p.cfg, p.cfg.feature_block()
    leg1, leg2 = d.legs
    cir_ni, cir_id = ris.cascade_cir_multi(leg1, leg2, geo.panels, geo.design_u,
                                           p.tx, p.rx, cfg.center_freq_hz, p.times)
    pl = _ci_loss(d, d.lsps.sf_db, (p.bs, geo.pos), (geo.pos, p.ue))
    cir_ni = apply_large_scale(cir_ni, pl)
    cir_id = apply_large_scale(cir_id, pl)
    noise = blk["noise_floor_dbm"]
    rsrp_ni = rsrp(cir_ni, cfg.tx_power_dbm)
    snr_ni = rsrp_ni - noise
    snr_id = rsrp(cir_id, cfg.tx_power_dbm) - noise
    return {"": cir_ni}, {
        "ds_ns": rms_delay_spread(
            np.abs(cir_ni.coefficients[0, 0, 0]) ** 2, cir_ni.tap_delays_s) * 1e9,
        "rsrp_dbm": rsrp_ni,
        "snr_nonideal_db": snr_ni,
        "snr_ideal_db": snr_id,
        "snr_gap_db": snr_id - snr_ni,
        "state": d.state,
        "n_clusters": leg1.n_clusters * leg2.n_clusters,
    }


def _run_sagin(d: _Drop) -> tuple[dict, dict]:
    cir = d.cir
    powers = np.abs(cir.coefficients[0, 0, 0]) ** 2
    return {"": cir}, {
        "ds_ns": rms_delay_spread(powers, cir.tap_delays_s) * 1e9,
        "rsrp_dbm": rsrp(cir, d.plan.cfg.tx_power_dbm),
        "pl_db": cir.meta["pl_db"],
        "slant_km": cir.meta["slant_range_m"] / 1e3,
        "k_total_db": cir.meta["k_total_db"],
        "state": d.state,
    }


# Each feature's runner: (tensors by file suffix, metrics) of one drop.
_RUNNERS = {
    "BASE": _run_standard,
    "THZ": _run_standard,
    "EMIMO": _run_emimo,
    "ISAC": _run_isac,
    "RIS": _run_ris,
    "SAGIN": _run_sagin,
}


def run_drop(cfg: ScenarioConfig, drop: int, staged: _Drop | None = None) -> DropResult:
    """One drop: the feature's runner on the staged drop, then the result.

    ``staged`` is the drop as a campaign slice staged it, in a block with
    the slice's plan. Without it the drop builds its own plan and is staged
    alone, a block of one, which gives the same bytes.
    """
    d = staged or _stage(_plan(cfg), [drop])[0]
    tensors, metrics = _RUNNERS[cfg.feature](d)
    for tensor in tensors.values():
        tensor.meta.update(config_hash=d.plan.chash, seed=cfg.seed)
    return DropResult(drop=drop, tensors=tensors, metrics=metrics)


def _add_note(exc: BaseException, note: str) -> None:
    if hasattr(exc, "add_note"):        # Python 3.11+
        exc.add_note(note)


def _run_slice(cfg: ScenarioConfig, drops: range, out: Path) -> list:
    """Run ``drops`` in order and write their tensors; one
    ``(drop, metrics, files)`` row per drop.

    The slice builds one plan and stages its drops ``_BLOCK`` at a time,
    then ``run_drop`` finishes each staged drop. If staging a chunk raises,
    its drops rerun one at a time. A failure is re-raised with a note naming
    the drop, so ``run_drop(cfg, drop)`` replays it alone.
    """
    rows = []
    plan = None
    for start in range(0, len(drops), _BLOCK):
        chunk = drops[start:start + _BLOCK]
        try:
            plan = plan or _plan(cfg)
            staged = _stage(plan, chunk)
        except Exception:
            staged = [None] * len(chunk)    # run_drop stages each drop alone
        for drop, d in zip(chunk, staged):
            try:
                result = run_drop(cfg, drop, d)
                files = []
                for suffix, tensor in result.tensors.items():
                    path = out / f"drop{drop:05d}.cir{suffix}"
                    tmp = path.with_suffix(path.suffix + ".tmp")
                    write_cir(tensor, tmp)
                    tmp.rename(path)
                    files.append(str(path))
            except Exception as exc:
                _add_note(exc, f"drop {drop} (seed {cfg.seed}) failed; "
                               f"run_drop(cfg, {drop}) replays it alone")
                raise
            rows.append((drop, result.metrics, files))
    return rows


def _slice_process(cfg: ScenarioConfig, drops: range, out: Path, conn) -> None:
    """Child process body: send the slice's rows, or its exception with the
    child's traceback as a note, over the write end ``conn``."""
    try:
        conn.send(_run_slice(cfg, drops, out))
    except Exception as exc:
        _add_note(exc, "Traceback in the drop process (most recent call last):\n"
                       + "".join(traceback.format_tb(exc.__traceback__)).rstrip())
        conn.send(exc)
    finally:
        conn.close()


# OpenBLAS's set-num-threads symbol, by build: numpy's bundled 64-bit-integer
# library, other 64-bit-integer builds, the plain build.
_OPENBLAS_SET_THREADS = ("scipy_openblas_set_num_threads64_",
                         "openblas_set_num_threads64_", "openblas_set_num_threads")


def _one_blas_thread() -> None:
    """Set every OpenBLAS loaded in this process to one thread.

    Forked children inherit the setting and so never start a BLAS thread of
    their own. It is made here, before any fork, and never undone: raising
    the count after a fork, or setting it inside a child, re-creates the
    BLAS thread pool, which then spins about 0.1 s of CPU.
    """
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split(maxsplit=5)[5].strip() for line in fh
                    if "openblas" in line}
    except OSError:             # no procfs: leave the BLAS as it is
        return
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:         # e.g. the file was replaced since it was mapped
            continue
        for name in _OPENBLAS_SET_THREADS:
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.argtypes = [ctypes.c_int]
                fn.restype = None
                fn(1)
                break


def _run_slices(cfg: ScenarioConfig, out: Path, n: int) -> list:
    """Rows of every drop, from ``n`` processes: the caller runs drops
    ``0, n, 2n, ...`` and child ``k`` runs ``k, k + n, ...``. Every child
    is joined before this returns or raises; if anything raised, children
    still running are terminated first."""
    children = []
    try:
        for k in range(1, n):
            recv, send = multiprocessing.Pipe(duplex=False)
            proc = multiprocessing.Process(
                target=_slice_process, args=(cfg, range(k, cfg.drops, n), out, send))
            proc.start()
            send.close()
            children.append((proc, recv))
        rows = _run_slice(cfg, range(0, cfg.drops, n), out)
        for proc, recv in children:
            try:
                got = recv.recv()
            except EOFError:
                proc.join()
                raise RuntimeError(f"drop process {proc.pid} exited with code "
                                   f"{proc.exitcode} before sending its drops") from None
            if isinstance(got, BaseException):
                raise got
            rows += got
        return rows
    except BaseException:
        for proc, _ in children:
            proc.terminate()
        raise
    finally:
        for proc, recv in children:
            proc.join()
            recv.close()


def run_campaign(cfg: ScenarioConfig, out_dir, jobs: int = 1) -> dict:
    """Run all configured drops and write tensors, metrics.csv and
    summary.json into ``out_dir``. Returns the summary dict.

    ``min(jobs, cfg.drops)`` processes share the drops round-robin, the
    calling process among them, so ``jobs=1`` or a one-drop campaign starts
    no process. A parallel run first sets the process's OpenBLAS to one
    thread and leaves it there. A failing drop's exception is re-raised
    with its type and a note naming the drop and seed.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    n = max(1, min(jobs, cfg.drops))
    if n > 1:
        _one_blas_thread()
    try:
        results = _run_slices(cfg, out, n)
    except BaseException:
        for tmp in out.glob("*.tmp"):
            tmp.unlink(missing_ok=True)
        raise
    results.sort(key=lambda r: r[0])

    report = analysis.MetricReport()
    for drop, metrics, _files in results:
        report.add(drop, **metrics)
    analysis.export_metrics_csv(report, out / "metrics.csv")

    summary = {
        "config": cfg.to_dict(),
        "config_hash": config_hash(cfg),
        "drops": cfg.drops,
        "outputs": sorted(Path(f).name for _, _, files in results for f in files),
    }
    (out / "summary.json").write_text(json.dumps(summary, indent=1, sort_keys=True))
    return summary
