"""ISAC extension: coupled sensing + communication drops with shared and
non-shared clusters, target echoes with RCS weighting, clutter, and the
sharing-degree metric.

``build_geometry`` builds a slice's fixed layout once, with the checks
``validate`` runs; ``gen_isac_drop`` adds one drop's draws to it.

Sharing follows the cluster-level model: shared clusters reuse the same
excess-delay and departure-azimuth draws in both channels (arrival angles
and zeniths are channel-specific), amplitudes are always channel-specific.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import C_LIGHT
from .geometry import ConfigurationError, Position3D, check_apart, los_directions, \
    unit_vector
from .largescale import LSPSet, LspTableEntry
from .pathloss import pl_radar_echo
from .smallscale import ClusterSet, _k_split, _reflect_zenith, _wrap_pi, \
    doppler_per_ray, gen_cluster_powers, gen_xpr_phases, ray_offsets, ray_powers


@dataclass
class IsacChannelPair:
    comm: ClusterSet
    sense: ClusterSet
    shared_comm_idx: np.ndarray    # positions of shared clusters, comm order
    shared_sense_idx: np.ndarray   # positions of shared clusters, sense order
    target_sense_idx: np.ndarray   # positions of target-echo clusters


# The columns of one side's cluster rows, a float (n, 11) array with one
# row per cluster: absolute delay, angles, the shared-cluster id (>= 0 marks
# a shared cluster), the target id (>= 0 marks a target echo), the RCS or
# self-interference power weight (linear) and the velocity (NaN: static).
_DELAY, _AOD, _AOA, _ZOA, _ZOD, _SHARED, _TARGET, _WEIGHT = range(8)
_VELOCITY = slice(8, 11)


def _rows(delay, aod, aoa, zoa, zod, shared_id=-1, target_id=-1, weight=1.0,
          velocity=math.nan) -> np.ndarray:
    """Cluster rows from their columns; a scalar fills every row."""
    rows = np.empty((np.size(delay), 11))
    for col, value in enumerate((delay, aod, aoa, zoa, zod, shared_id, target_id, weight)):
        rows[:, col] = value
    rows[:, _VELOCITY] = velocity
    return rows


def _doppler(velocity, arrival, f_hz, scale):
    """(n, m) Doppler shifts of rows with (n, 3) velocities (NaN: static)
    and (n, m, 3) ray arrivals: one product per distinct velocity, told
    apart by its bytes. Static rows are exact zeros."""
    vel = np.ascontiguousarray(velocity)
    rows_of: dict = {}      # a velocity's bytes -> its rows
    for i, key in enumerate(vel.view(np.dtype((np.void, vel.itemsize * 3))).ravel().tolist()):
        rows_of.setdefault(key, []).append(i)
    doppler = np.zeros(arrival.shape[:2])
    for idx in rows_of.values():
        if not math.isnan(vel[idx[0], 0]):
            doppler[idx] = scale * doppler_per_ray(vel[idx[0]], arrival[idx], f_hz)
    return doppler


def _assemble_side(rows, entry, lsps, rng, f_hz, specular, doppler_scale=1.0):
    """Order rows by absolute delay and build a ClusterSet (LOS when
    ``specular``) plus index maps. The draws are blocks of one drop."""
    rows = rows[np.argsort(rows[:, _DELAY], kind="stable")]
    offset = float(rows[0, _DELAY])
    n = len(rows)
    m = entry.rays_per_cluster
    excess = rows[:, _DELAY] - offset
    excess[0] = 0.0  # exact zero despite float subtraction

    # NLOS form: the LOS split below comes before the RCS weights.
    powers = gen_cluster_powers(excess[None], lsps.ds_s, entry.delay_scaling,
                                entry.per_cluster_shadow_db, None, "NLOS", [rng])
    k_db = [lsps.k_db] if specular else None
    if specular:
        k_plus_1, spec = _k_split(k_db)
        powers = powers / k_plus_1
        powers[:, :1] += spec
    powers = powers[0] * rows[:, _WEIGHT]
    powers = powers / powers.sum()

    offs = ray_offsets(m)
    aod, aoa, zoa, zod = rows[:, _AOD:_ZOD + 1].T
    az_a = _wrap_pi(aoa[:, None] + math.radians(entry.c_asa_deg) * offs[None, :])
    zen_a = _reflect_zenith(zoa[:, None] + math.radians(entry.c_zsa_deg) * offs[None, :])
    az_d = _wrap_pi(aod[:, None] + math.radians(entry.c_asd_deg) * offs[None, :])
    zen_d = _reflect_zenith(zod[:, None] + math.radians(entry.c_zsd_deg) * offs[None, :])

    kappa, phases = gen_xpr_phases(entry, n, m, [rng])
    rp = ray_powers(powers[None], m, los=specular, k_db=k_db)[0]

    doppler = _doppler(rows[:, _VELOCITY], unit_vector(zen_a, az_a), f_hz, doppler_scale)
    cs = ClusterSet(delays_s=excess, powers=powers, ray_powers=rp,
                    zoa=zen_a, aoa=az_a, zod=zen_d, aod=az_d,
                    kappa=kappa[0], phases=phases[0], doppler_hz=doppler,
                    state="LOS" if specular else "NLOS")
    shared_idx = np.flatnonzero(rows[:, _SHARED] >= 0)
    target_idx = np.flatnonzero(rows[:, _TARGET] >= 0)
    return cs, shared_idx, rows[shared_idx, _SHARED].astype(int), target_idx


def _env_rows(rng, n_env, shared, base_abs, base_dirs, spreads, excess_scale,
              velocity):
    """One side's environment cluster rows: the shared ones, then ``n_env``
    of its own.

    ``shared`` is the (excess delays, departure azimuths) of the shared
    clusters; each draws its arrival azimuth, arrival zenith and departure
    zenith deviation on ``rng``. The side's own clusters then draw excess
    delays (``excess_scale * ln U``), then deviations of (aod, aoa, zoa, zod)
    per cluster about ``base_dirs``. ``spreads`` holds the (asd, asa, zsa,
    zsd) standard deviations in radians.
    """
    shared_excess, shared_aod = shared
    base_aod, base_aoa, base_zoa, base_zod = base_dirs
    asd, asa, zsa, zsd = spreads
    n_shared = shared_excess.size
    own_sh = rng.normal(0.0, [asa, zsa, zsd], size=(n_shared, 3))
    env_excess = excess_scale * np.log(rng.uniform(size=n_env))
    own_env = rng.normal(0.0, [asd, asa, zsa, zsd], size=(n_env, 4))
    return _rows(
        delay=base_abs + np.concatenate([shared_excess, env_excess]),
        aod=np.concatenate([shared_aod, _wrap_pi(base_aod + own_env[:, 0])]),
        aoa=_wrap_pi(base_aoa + np.concatenate([own_sh[:, 0], own_env[:, 1]])),
        zoa=_reflect_zenith(base_zoa + np.concatenate([own_sh[:, 1], own_env[:, 2]])),
        zod=_reflect_zenith(base_zod + np.concatenate([own_sh[:, 2], own_env[:, 3]])),
        shared_id=np.concatenate([np.arange(n_shared), np.full(n_env, -1)]),
        velocity=velocity)


def cluster_budget(entry: LspTableEntry, los: bool, n_shared: int,
                   n_targets: int) -> tuple:
    """Environment cluster counts (comm, sensing) left from the table's
    cluster count after the shared clusters, the LOS ray and the echoes."""
    n_total = entry.n_clusters
    n_comm_env = n_total - n_shared - (1 if los else 0)
    n_sense_env = n_total - n_shared - n_targets
    if n_shared < 0 or n_comm_env < 0 or n_sense_env < 0:
        raise ConfigurationError(
            f"isac.n_shared: cluster budget infeasible: total {n_total}, "
            f"shared {n_shared}, targets {n_targets}, LOS {los}")
    return n_comm_env, n_sense_env


def check_echo_powers(geo: IsacGeometry, entry: LspTableEntry) -> None:
    """Reject a target whose echo cluster power can underflow to 0 in a drop
    on ``entry``'s table, naming ``isac.targets[i].position``.

    ``_assemble_side`` gives echo i, at excess delay x_i past the first
    sensing row (the self-interference row or the nearest echo: clutter
    comes after the nearest echo), the power exp(-x_i (r - 1) / (r DS))
    10^(-z_i / 10) over the sum of that term over the side's n rows, times
    its RCS weight w_i over the sum of the weighted powers. The bound takes
    the drawn DS at or above DS_min = 10^(mu - 6 sigma) of the table's lg
    DS and every shadow z within 6 zeta dB of 0. A row's term is then at
    most 10^(6 zeta / 10) and the weighted sum at most max(1, w_max), so the
    echo stays at or above the smallest normal float when

        x_i (r - 1) / (r DS_min) + (12 zeta / 10) ln 10 + ln n
            + ln max(1, w_max) - ln w_i <= -ln(smallest normal).
    """
    if geo.echo_delays.size == 0:
        return
    r, delays, weights = entry.delay_scaling, geo.rows_s[:, _DELAY], geo.rows_s[:, _WEIGHT]
    ds_min = 10.0 ** (entry.lsp_mu[0] - 6.0 * entry.lsp_sigma[0])
    n = entry.n_clusters + len(delays) - geo.echo_delays.size
    budget = -math.log(np.finfo(np.float64).tiny) - 1.2 * entry.per_cluster_shadow_db \
        * math.log(10.0) - math.log(n) - math.log(max(1.0, weights.max()))
    for i, (x, w) in enumerate(zip(geo.echo_delays - delays.min(),
                                   weights[:geo.echo_delays.size])):
        if x * (r - 1.0) / (r * ds_min) > budget + math.log(w):
            raise ConfigurationError(
                f"isac.targets[{i}].position: its echo arrives {x:.3g} s after the "
                f"first sensing tap, where its power can underflow to 0")


@dataclass(frozen=True)
class IsacGeometry:
    """The fixed layout of an ISAC slice, built once by ``build_geometry``:
    every part of a drop that its draws do not move. Arrays are read-only."""
    n_shared: int
    f_hz: float
    ue_velocity: tuple
    dirs_c: tuple                   # (aod, aoa, zoa, zod), BS -> UE
    tau_c: float                    # comm link delay
    los_row_c: np.ndarray           # the comm side's LOS cluster row
    echo_delays: np.ndarray         # per target: Tx -> target -> sensing Rx
    base_abs_s: float               # the nearest echo's delay, else tau_c
    dirs_s: tuple                   # (aod, aoa, zoa, zod) of sensing clutter
    rows_s: np.ndarray              # echo rows, then the self-interference row
    mono_static: bool               # echoes return to the transmitter
    echo_loss_db: float | None      # the nearest target's; None: no target


def build_geometry(block: dict, tx_pos: Position3D, rx_c_pos: Position3D,
                   f_hz: float, ue_velocity=(0.0, 0.0, 0.0)) -> IsacGeometry:
    """The geometry of a checked, filled ``isac`` config block with the
    transmitter at ``tx_pos`` and the comm receiver at ``rx_c_pos``.

    A sensing receiver (None: monostatic) on or too far from the
    transmitter, or a target on or too far from either, raises
    ConfigurationError naming the field. Target echoes are deterministic:
    delay |Tx-target| + |target-Rx_S| over c, monostatic echoes returning
    on the departure ray, each weighted by its RCS. The radar-echo loss of
    the nearest target scales the sensing tensor; its legs take the 1 m
    floor of the link losses.
    """
    mono_static = block["rx_s_position"] is None
    rx_s = tx_pos if mono_static else Position3D.from_iterable(block["rx_s_position"])
    if not mono_static:
        check_apart("isac.rx_s_position", rx_s.distance_to(tx_pos), "bs_position")
    targets = block["targets"]
    pos = [Position3D.from_iterable(t["position"]) for t in targets]
    legs = [(tx_pos.distance_to(p), p.distance_to(rx_s)) for p in pos]
    for i, (d1, d2) in enumerate(legs):
        check_apart(f"isac.targets[{i}].position", d1, "bs_position")
        if not mono_static:
            check_apart(f"isac.targets[{i}].position", d2, "rx_s_position")

    d_c = los_directions(tx_pos, rx_c_pos)
    dirs_c = (d_c.aod, d_c.aoa, d_c.zoa, d_c.zod)
    tau_c = tx_pos.distance_to(rx_c_pos) / C_LIGHT
    dirs_t = [los_directions(tx_pos, p) for p in pos]
    if mono_static:
        dirs_s = (d_c.aod, d_c.aod, d_c.zod, d_c.zod)
        # Echoes return along the departure ray.
        echo_aoa, echo_zoa = [d.aod for d in dirs_t], [d.zod for d in dirs_t]
    else:
        d_s = los_directions(rx_s, tx_pos)
        dirs_s = (d_c.aod, d_s.aod, d_s.zod, d_c.zod)
        back = [los_directions(p, rx_s) for p in pos]
        echo_aoa, echo_zoa = [b.aoa for b in back], [b.zoa for b in back]
    echo_delays = np.array([(d1 + d2) / C_LIGHT for d1, d2 in legs])
    rows_s = [_rows(delay=echo_delays, aod=[d.aod for d in dirs_t], aoa=echo_aoa,
                    zoa=echo_zoa, zod=[d.zod for d in dirs_t], target_id=np.arange(len(pos)),
                    weight=[10.0 ** (t["rcs_dbsm"] / 10.0) for t in targets],
                    velocity=np.reshape([t["velocity"] for t in targets], (-1, 3)))]
    if block["self_interference_db"] is not None:
        rows_s.append(_rows(tx_pos.distance_to(rx_s) / C_LIGHT, *dirs_s,
                            weight=10.0 ** (-block["self_interference_db"] / 10.0)))
    echo_loss_db = None
    if pos:
        near = int(np.argmin(echo_delays))
        d1, d2 = legs[near]
        echo_loss_db = pl_radar_echo(max(d1, 1.0), max(d2, 1.0), f_hz,
                                     targets[near]["rcs_dbsm"])
    geo = IsacGeometry(
        n_shared=block["n_shared"], f_hz=f_hz, ue_velocity=tuple(ue_velocity),
        dirs_c=dirs_c, tau_c=tau_c, los_row_c=_rows(tau_c, *dirs_c, velocity=ue_velocity),
        echo_delays=echo_delays, base_abs_s=float(echo_delays.min()) if pos else tau_c,
        dirs_s=dirs_s, rows_s=np.concatenate(rows_s), mono_static=mono_static,
        echo_loss_db=echo_loss_db)
    for a in (geo.los_row_c, geo.echo_delays, geo.rows_s):
        a.flags.writeable = False   # every drop shares them
    return geo


def gen_isac_drop(geo: IsacGeometry, entry: LspTableEntry, lsps: LSPSet,
                  state: str, streams) -> IsacChannelPair:
    """One coupled communication + sensing drop over the slice's geometry.

    Shared environment clusters are drawn once on a dedicated sub-stream and
    instantiated in both channels; the target echoes and the
    self-interference row come from ``geo``. Per-side shadowing, XPRs and
    phases come from per-channel streams.
    """
    los = state.upper() == "LOS"
    n_shared = geo.n_shared
    n_comm_env, n_sense_env = cluster_budget(entry, los, n_shared, geo.echo_delays.size)
    rng_shared, rng_c, rng_s = (streams.get(f"isac_{k}") for k in ("shared", "comm", "sense"))
    spreads = tuple(map(math.radians, (lsps.asd_deg, lsps.asa_deg, lsps.zsa_deg,
                                       lsps.zsd_deg)))   # asd, asa, zsa, zsd
    excess_scale = -entry.delay_scaling * lsps.ds_s

    # Shared scatterer draws, consumed identically by both sides.
    shared = (excess_scale * np.log(rng_shared.uniform(size=n_shared)),
              _wrap_pi(geo.dirs_c[0] + rng_shared.normal(0.0, spreads[0], size=n_shared)))

    # --- communication side --------------------------------------------
    rows_c = _env_rows(rng_c, n_comm_env, shared, geo.tau_c, geo.dirs_c, spreads,
                       excess_scale, geo.ue_velocity)
    if los:
        rows_c = np.concatenate([rows_c, geo.los_row_c])
    comm, shared_c_idx, shared_c_ids, _ = _assemble_side(
        rows_c, entry, lsps, rng_c, geo.f_hz, los)

    # --- sensing side ----------------------------------------------------
    rows_s = _env_rows(rng_s, n_sense_env, shared, geo.base_abs_s, geo.dirs_s, spreads,
                       excess_scale, math.nan)
    sense, shared_s_idx, shared_s_ids, target_idx = _assemble_side(
        np.concatenate([rows_s, geo.rows_s]), entry, lsps, rng_s, geo.f_hz, False,
        doppler_scale=2.0 if geo.mono_static else 1.0)

    # Shared departure rays bitwise identical across the two channels: copy
    # the comm side's ray array rows by shared id.
    comm_of = np.empty(n_shared, dtype=int)
    comm_of[shared_c_ids] = shared_c_idx
    sense.aod[shared_s_idx] = comm.aod[comm_of[shared_s_ids]]
    if geo.mono_static:
        # Echoes retrace their rays: per-ray arrival equals departure.
        sense.aoa[target_idx] = sense.aod[target_idx]
        sense.zoa[target_idx] = sense.zod[target_idx]

    return IsacChannelPair(
        comm=comm, sense=sense,
        shared_comm_idx=shared_c_idx, shared_sense_idx=shared_s_idx,
        target_sense_idx=target_idx)


def sharing_degree(pair: IsacChannelPair, side: str) -> float:
    """Power fraction of the shared clusters on the chosen side, in [0, 1]."""
    if side == "sensing":
        powers, idx = pair.sense.powers, pair.shared_sense_idx
    elif side == "comm":
        powers, idx = pair.comm.powers, pair.shared_comm_idx
    else:
        raise ValueError(f"side must be 'sensing' or 'comm', got {side!r}")
    total = float(powers.sum())
    if total <= 0:
        raise ValueError("sharing degree undefined for all-zero power")
    return float(powers[idx].sum() / total)


def clutter_power_ratio(target_power: float, env_powers) -> float:
    """PR = target power over the sum of effective environment power.

    An empty environment returns the +inf sentinel rather than raising.
    """
    if target_power <= 0:
        raise ValueError(f"target power must be positive, got {target_power}")
    env = np.asarray(env_powers, dtype=np.float64)
    total = float(env.sum()) if env.size else 0.0
    if total <= 0:
        return math.inf
    return target_power / total
