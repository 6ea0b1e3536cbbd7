"""Multi-drop campaign orchestration: one drop skeleton with a runner per
feature, deterministic seeding, file output and metric collection.

``run_drop`` runs each drop's shared prologue once (rng streams, link state,
the table entry of a terrestrial feature, positions, arrays, sample times);
the feature's runner in ``_RUNNERS`` returns its tensors and metrics; and
``run_drop`` alone stamps the tensors and builds the ``DropResult``. Every
terrestrial loss is ``_ci_loss`` over legs floored at 1 m by ``_leg``.

Drops are schedule-independent: each consumes only its own child rng streams
and writes its own tensor file, so serial and parallel runs produce
byte-identical outputs.
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
from .geometry import ArrayGeometry, Position3D, assign_link_state, los_directions
from .largescale import LspTableEntry, generate_lsps, lookup_lsp_table, \
    scenario_los_curve, scenario_pathloss
from .pathloss import PathLossSample, pl_ci, pl_radar_echo
from .seeding import DropStreams
from .smallscale import generate_clusters
from .analysis import circular_angular_spread, gini_index, rms_delay_spread, rsrp


@dataclass
class DropResult:
    drop: int
    tensors: dict      # file suffix -> CirTensor
    metrics: dict


@dataclass
class _Drop:
    """What the shared prologue hands every runner."""
    cfg: ScenarioConfig
    streams: DropStreams
    state: str
    entry: LspTableEntry | None     # None for SAGIN: its table is elevation-keyed
    bs: Position3D
    ue: Position3D
    tx: ArrayGeometry               # bs_array
    rx: ArrayGeometry               # ue_array
    times: np.ndarray


def _leg(a: Position3D, b: Position3D) -> float:
    """Length of one link leg, floored at 1 m like the loss anchors."""
    return max(a.distance_to(b), 1.0)


def _ci_loss(d: _Drop, sf_db: float, *legs) -> PathLossSample:
    """CI path loss summed over the ``(a, b)`` legs, with shadow fading."""
    alpha = scenario_pathloss(d.cfg.scenario, d.state)
    pl = sum(pl_ci(_leg(a, b), d.cfg.center_freq_hz, alpha) for a, b in legs)
    return PathLossSample(pl_db=pl, shadow_db=sf_db)


def _run_standard(d: _Drop) -> tuple[dict, dict]:
    cfg = d.cfg
    lsps = generate_lsps(d.entry, d.streams.get("lsp"))
    clusters = generate_clusters(d.entry, lsps, los_directions(d.bs, d.ue), d.state,
                                 cfg.ue_velocity, cfg.center_freq_hz, d.streams)
    if cfg.feature == "THZ":
        # Config value wins over the table entry's intra-cluster K.
        sparsity_k_db = cfg.feature_block()["intra_cluster_k_db"]
        if sparsity_k_db == FROM_TABLE:
            sparsity_k_db = d.entry.intra_cluster_k_db
        if sparsity_k_db is not None:
            clusters = thz.apply_sparsity(clusters, sparsity_k_db)
    cir = synthesize_cir(clusters, d.tx, d.rx, cfg.center_freq_hz, d.times)
    cir = apply_large_scale(cir, _ci_loss(d, lsps.sf_db, (d.bs, d.ue)))
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
    cfg, blk = d.cfg, d.cfg.feature_block()
    n_freq = blk["freq_samples"]
    fc = cfg.center_freq_hz
    lsps = generate_lsps(d.entry, d.streams.get("lsp"))
    clusters = generate_clusters(d.entry, lsps, los_directions(d.bs, d.ue), d.state,
                                 cfg.ue_velocity, fc, d.streams)
    # The receive array sweeps the large aperture; the spherical manifold and
    # the visibility mask act along its elements.
    paths = emimo.paths_from_clusters(clusters, d.bs.distance_to(d.ue))
    mask = emimo.gen_sns_mask(d.tx.element_count, len(paths),
                              blk["stationary_region"], d.streams.get("sns"))
    manifold = emimo.spherical_manifold(paths, d.tx, fc)
    alpha = np.array([p.alpha for p in paths])
    tap_gain = mask.s * manifold * alpha[None, :]
    coeffs = tap_gain[None, :, None, :]                      # (1, M, 1, K)
    delays = np.array([p.tau_s for p in paths])
    delays = delays - delays.min()
    order = np.argsort(delays, kind="stable")
    cir = CirTensor(coefficients=np.ascontiguousarray(coeffs[..., order]),
                    tap_delays_s=delays[order], sample_times_s=d.times)
    cir = apply_large_scale(cir, _ci_loss(d, lsps.sf_db, (d.bs, d.ue)))
    freqs = fc + np.linspace(-cfg.bandwidth_hz / 2, cfg.bandwidth_hz / 2, n_freq)
    rows = sorted({0, d.tx.element_count - 1})    # the two elements xcorr_last reads
    cfr = emimo.sns_cfr_band(paths, d.tx.element_positions[rows],
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
    cfg, blk = d.cfg, d.cfg.feature_block()
    lsps = generate_lsps(d.entry, d.streams.get("lsp"))
    targets, rx_s = isac.build_targets(blk, d.bs)
    pair = isac.gen_isac_drop(
        d.entry, lsps, d.bs, d.ue, d.state, blk["n_shared"], d.streams,
        cfg.center_freq_hz, targets=targets, rx_s_pos=rx_s,
        ue_velocity=cfg.ue_velocity, self_interference_db=blk["self_interference_db"])
    cir_c = synthesize_cir(pair.comm, d.tx, d.rx, cfg.center_freq_hz, d.times)
    cir_c = apply_large_scale(cir_c, _ci_loss(d, lsps.sf_db, (d.bs, d.ue)))
    cir_s = synthesize_cir(pair.sense, d.tx, d.tx, cfg.center_freq_hz, d.times)
    metrics = {
        "ds_ns": rms_delay_spread(pair.comm.powers, pair.comm.delays_s) * 1e9,
        "rsrp_dbm": rsrp(cir_c, cfg.tx_power_dbm),
        "sd_sensing": isac.sharing_degree(pair, "sensing"),
        "sd_comm": isac.sharing_degree(pair, "comm"),
        "state": d.state,
        "n_clusters": pair.comm.n_clusters,
    }
    if targets:     # every target has an echo cluster in pair.target_sense_idx
        t0 = targets[int(np.argmin(pair.target_echo_delays_s))]
        echo_pl = pl_radar_echo(_leg(d.bs, t0.position), _leg(t0.position, rx_s or d.bs),
                                cfg.center_freq_hz, t0.rcs_dbsm)
        cir_s = apply_large_scale(cir_s, PathLossSample(pl_db=echo_pl, shadow_db=0.0))
        p_targets = pair.sense.powers[pair.target_sense_idx]
        env_mask = np.ones(pair.sense.n_clusters, dtype=bool)
        env_mask[pair.target_sense_idx] = False
        pr = isac.clutter_power_ratio(float(p_targets.sum()),
                                      pair.sense.powers[env_mask])
        metrics["clutter_pr_db"] = (10.0 * math.log10(pr)
                                    if math.isfinite(pr) else math.inf)
    return {"": cir_c, ".sense": cir_s}, metrics


def _run_ris(d: _Drop) -> tuple[dict, dict]:
    cfg, blk, entry = d.cfg, d.cfg.feature_block(), d.entry
    ris_pos = Position3D.from_iterable(blk["position"])
    f_hz = cfg.center_freq_hz

    # Leg 1: Tx -> RIS (its ASA at the panel is the configured sweep value);
    # leg 2: RIS -> Rx. Separate stream steps keep the legs insulated.
    s1, s2 = d.streams.shifted(1), d.streams.shifted(2)
    lsps1 = generate_lsps(entry, s1.get("lsp"))
    lsps2 = generate_lsps(entry, s2.get("lsp"))
    if blk["leg_xpr_db"] is not None:
        # Co-polarized comparison study: the ideal/non-ideal pairing isolates
        # the reflection magnitude, so cross-polar leakage is suppressed.
        entry = replace(entry, xpr_mu_db=blk["leg_xpr_db"], xpr_sigma_db=0.0)
    entry1 = entry
    if blk["asa_deg"] is not None:
        # The sweep controls the realized arrival spread at the panel: the
        # intra-cluster spread shrinks with it so narrow settings stay narrow.
        asa = blk["asa_deg"]
        lsps1 = replace(lsps1, asa_deg=asa)
        entry1 = replace(entry, c_asa_deg=min(entry.c_asa_deg, asa / 3.0),
                         c_zsa_deg=min(entry.c_zsa_deg, asa / 3.0))
        lsps1 = replace(lsps1, zsa_deg=min(lsps1.zsa_deg, asa))
    if blk["leg_k_db"] is not None:
        lsps1 = replace(lsps1, k_db=blk["leg_k_db"])
        lsps2 = replace(lsps2, k_db=blk["leg_k_db"])
    dirs1 = los_directions(d.bs, ris_pos)
    dirs2 = los_directions(ris_pos, d.ue)
    leg1 = generate_clusters(entry1, lsps1, dirs1, d.state, (0.0, 0.0, 0.0),
                             f_hz, s1)
    leg2 = generate_clusters(entry, lsps2, dirs2, d.state, cfg.ue_velocity,
                             f_hz, s2)

    panel_ni = ris.build_panel(blk, cfg.bs_position, cfg.ue_position, f_hz)
    panel_id = replace(panel_ni, ideal=True)
    if blk["codebook"] == "steering":
        in_local = panel_ni.to_local(dirs1.zoa, dirs1.aoa)
        out_local = panel_ni.to_local(dirs2.zod, dirs2.aod)
        codebook = ris.steering_codebook(in_local, out_local)
    else:
        codebook = ris.uniform_codebook()

    cir_ni, cir_id = ris.cascade_cir_multi(leg1, leg2, [panel_ni, panel_id],
                                           codebook, d.tx, d.rx, f_hz, d.times)
    pl = _ci_loss(d, lsps1.sf_db, (d.bs, ris_pos), (ris_pos, d.ue))
    cir_ni = apply_large_scale(cir_ni, pl)
    cir_id = apply_large_scale(cir_id, pl)
    noise = blk["noise_floor_dbm"]
    snr_ni = rsrp(cir_ni, cfg.tx_power_dbm) - noise
    snr_id = rsrp(cir_id, cfg.tx_power_dbm) - noise
    return {"": cir_ni}, {
        "ds_ns": rms_delay_spread(
            np.abs(cir_ni.coefficients[0, 0, 0]) ** 2, cir_ni.tap_delays_s) * 1e9,
        "rsrp_dbm": rsrp(cir_ni, cfg.tx_power_dbm),
        "snr_nonideal_db": snr_ni,
        "snr_ideal_db": snr_id,
        "snr_gap_db": snr_id - snr_ni,
        "state": d.state,
        "n_clusters": leg1.n_clusters * leg2.n_clusters,
    }


def _run_sagin(d: _Drop) -> tuple[dict, dict]:
    cfg, blk = d.cfg, d.cfg.feature_block()
    cir = sagin.ntn_drop(cfg.scenario, d.state, cfg.center_freq_hz,
                         blk["height_m"], math.radians(blk["elevation_deg"]),
                         d.streams, extra_atten_db=blk["extra_atten_db"],
                         k_rain_db=blk["k_rain_db"], k_cloud_db=blk["k_cloud_db"],
                         times=d.times)
    powers = np.abs(cir.coefficients[0, 0, 0]) ** 2
    return {"": cir}, {
        "ds_ns": rms_delay_spread(powers, cir.tap_delays_s) * 1e9,
        "rsrp_dbm": rsrp(cir, cfg.tx_power_dbm),
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


def run_drop(cfg: ScenarioConfig, drop: int) -> DropResult:
    """One drop: the shared prologue, the feature's runner, the result."""
    streams = DropStreams(cfg.seed, drop)
    state = cfg.link_state
    if state is None:       # drawn against the scenario's LOS-probability curve
        d2d = math.hypot(cfg.ue_position[0] - cfg.bs_position[0],
                         cfg.ue_position[1] - cfg.bs_position[1])
        state = assign_link_state(streams.get("link_state"),
                                  scenario_los_curve(cfg.scenario), d2d)
    entry = None if cfg.feature == "SAGIN" else \
        lookup_lsp_table(cfg.scenario, state, cfg.center_freq_hz)
    times = np.arange(cfg.time_samples, dtype=np.float64) * cfg.time_spacing_s
    tensors, metrics = _RUNNERS[cfg.feature](_Drop(
        cfg, streams, state, entry, cfg.bs_position3d(), cfg.ue_position3d(),
        cfg.build_array(cfg.bs_array), cfg.build_array(cfg.ue_array), times))
    chash = config_hash(cfg)
    for tensor in tensors.values():
        tensor.meta.update(config_hash=chash, seed=cfg.seed)
    return DropResult(drop=drop, tensors=tensors, metrics=metrics)


def _add_note(exc: BaseException, note: str) -> None:
    if hasattr(exc, "add_note"):        # Python 3.11+
        exc.add_note(note)


def _run_slice(cfg: ScenarioConfig, drops: range, out: Path) -> list:
    """Run ``drops`` in order and write their tensors; one
    ``(drop, metrics, files)`` row per drop. A failure is re-raised with a
    note naming the drop, so ``run_drop(cfg, drop)`` replays it alone."""
    rows = []
    for drop in drops:
        try:
            result = run_drop(cfg, drop)
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
