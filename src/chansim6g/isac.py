"""ISAC extension: coupled sensing + communication drops with shared and
non-shared clusters, target echoes with RCS weighting, clutter, and the
sharing-degree metric.

Sharing follows the cluster-level model: shared clusters reuse the same
excess-delay and departure-azimuth draws in both channels (arrival angles
and zeniths are channel-specific), amplitudes are always channel-specific.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .constants import C_LIGHT
from .geometry import ConfigurationError, Position3D, check_apart, los_directions, \
    unit_vector
from .largescale import LSPSet, LspTableEntry
from .smallscale import ClusterSet, _k_split, _reflect_zenith, _wrap_pi, \
    doppler_per_ray, gen_cluster_powers, gen_xpr_phases, ray_offsets, ray_powers


@dataclass(frozen=True)
class SensingTarget:
    position: Position3D
    rcs_dbsm: float = 0.0
    velocity: tuple = (0.0, 0.0, 0.0)

    def __post_init__(self):
        if not math.isfinite(self.rcs_dbsm):
            raise ConfigurationError("target RCS must be finite")


@dataclass
class IsacChannelPair:
    comm: ClusterSet
    sense: ClusterSet
    shared_comm_idx: np.ndarray    # positions of shared clusters, comm order
    shared_sense_idx: np.ndarray   # positions of shared clusters, sense order
    target_sense_idx: np.ndarray   # positions of target-echo clusters
    sense_delay_offset_s: float    # absolute delay of sensing tap 0
    target_echo_delays_s: np.ndarray = field(default_factory=lambda: np.empty(0))


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
    return cs, shared_idx, rows[shared_idx, _SHARED].astype(int), target_idx, offset


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
            f"cluster budget infeasible: total {n_total}, shared {n_shared}, "
            f"targets {n_targets}, LOS {los}")
    return n_comm_env, n_sense_env


def build_targets(block: dict, tx_pos: Position3D) -> tuple:
    """Targets and sensing receiver (None: monostatic) of a checked, filled
    ``isac`` config block. A target on (or too far from) the transmitter or
    the sensing receiver, or a sensing receiver on (or too far from) the
    transmitter, raises ConfigurationError naming the field."""
    rx_s = block["rx_s_position"]
    rx_s = None if rx_s is None else Position3D.from_iterable(rx_s)
    if rx_s is not None:
        check_apart("isac.rx_s_position", rx_s.distance_to(tx_pos), "bs_position")
    targets = []
    for i, t in enumerate(block["targets"]):
        target = SensingTarget(position=Position3D.from_iterable(t["position"]),
                               rcs_dbsm=t["rcs_dbsm"], velocity=tuple(t["velocity"]))
        for name, pos in (("bs_position", tx_pos), ("rx_s_position", rx_s)):
            if pos is not None:
                check_apart(f"isac.targets[{i}].position",
                            target.position.distance_to(pos), name)
        targets.append(target)
    return targets, rx_s


def gen_isac_drop(entry: LspTableEntry, lsps: LSPSet, tx_pos: Position3D,
                  rx_c_pos: Position3D, state: str, n_shared: int,
                  streams, f_hz: float, targets=(),
                  rx_s_pos: Position3D | None = None,
                  ue_velocity=(0.0, 0.0, 0.0),
                  self_interference_db: float | None = None) -> IsacChannelPair:
    """One coupled communication + sensing drop.

    Shared environment clusters are drawn once on a dedicated sub-stream and
    instantiated in both channels. Target echoes are deterministic from
    geometry (mono-static when ``rx_s_pos`` is None: echo returns on the
    departure ray with delay 2|Tx-target|/c) and weighted by their RCS.
    Per-side shadowing, XPRs and phases come from per-channel streams.
    """
    los = state.upper() == "LOS"
    n_targets = len(targets)
    n_comm_env, n_sense_env = cluster_budget(entry, los, n_shared, n_targets)

    mono_static = rx_s_pos is None
    rx_s = tx_pos if mono_static else rx_s_pos
    dirs_c = los_directions(tx_pos, rx_c_pos)
    d_link_c = tx_pos.distance_to(rx_c_pos)
    tau_link_c = d_link_c / C_LIGHT

    rng_shared = streams.get("isac_shared")
    rng_c = streams.get("isac_comm")
    rng_s = streams.get("isac_sense")

    asd_rad = math.radians(lsps.asd_deg)
    asa_rad = math.radians(lsps.asa_deg)
    zsa_rad = math.radians(lsps.zsa_deg)
    zsd_rad = math.radians(lsps.zsd_deg)
    r_tau, ds = entry.delay_scaling, lsps.ds_s

    # Shared scatterer draws, consumed identically by both sides.
    shared_excess = -r_tau * ds * np.log(rng_shared.uniform(size=n_shared))
    shared_aod = _wrap_pi(dirs_c.aod + rng_shared.normal(0.0, asd_rad, size=n_shared))

    shared = (shared_excess, shared_aod)
    spreads = (asd_rad, asa_rad, zsa_rad, zsd_rad)

    # --- communication side --------------------------------------------
    ue_v = tuple(ue_velocity)
    rows_c = _env_rows(rng_c, n_comm_env, shared, tau_link_c,
                       (dirs_c.aod, dirs_c.aoa, dirs_c.zoa, dirs_c.zod),
                       spreads, -r_tau * ds, ue_v)
    if los:
        rows_c = np.concatenate([rows_c, _rows(
            delay=tau_link_c, aod=dirs_c.aod, aoa=dirs_c.aoa, zoa=dirs_c.zoa,
            zod=dirs_c.zod, velocity=ue_v)])
    comm, shared_c_idx, shared_c_ids, _, _ = _assemble_side(
        rows_c, entry, lsps, rng_c, f_hz, los)

    # --- sensing side ----------------------------------------------------
    dirs_t = [los_directions(tx_pos, t.position) for t in targets]
    echo_delays = np.array([(tx_pos.distance_to(t.position)
                             + t.position.distance_to(rx_s)) / C_LIGHT
                            for t in targets])
    base_abs_s = float(echo_delays.min()) if n_targets else tau_link_c
    if mono_static:
        base_aoa_s, base_zoa_s, base_zod_s = dirs_c.aod, dirs_c.zod, dirs_c.zod
        # Echoes return along the departure ray.
        echo_aoa, echo_zoa = [d.aod for d in dirs_t], [d.zod for d in dirs_t]
    else:
        d_s = los_directions(rx_s, tx_pos)
        base_aoa_s, base_zoa_s, base_zod_s = d_s.aod, d_s.zod, dirs_c.zod
        back = [los_directions(t.position, rx_s) for t in targets]
        echo_aoa, echo_zoa = [b.aoa for b in back], [b.zoa for b in back]
    rows_s = [
        _env_rows(rng_s, n_sense_env, shared, base_abs_s,
                  (dirs_c.aod, base_aoa_s, base_zoa_s, base_zod_s),
                  spreads, -r_tau * ds, math.nan),
        _rows(delay=echo_delays, aod=[d.aod for d in dirs_t], aoa=echo_aoa,
              zoa=echo_zoa, zod=[d.zod for d in dirs_t], target_id=np.arange(n_targets),
              weight=[10.0 ** (t.rcs_dbsm / 10.0) for t in targets],
              velocity=np.reshape([t.velocity for t in targets], (-1, 3)))]
    if self_interference_db is not None:
        rows_s.append(_rows(
            delay=tx_pos.distance_to(rx_s) / C_LIGHT,
            aod=dirs_c.aod, aoa=base_aoa_s, zoa=base_zoa_s, zod=dirs_c.zod,
            weight=10.0 ** (-self_interference_db / 10.0)))
    sense, shared_s_idx, shared_s_ids, target_idx, off_s = _assemble_side(
        np.concatenate(rows_s), entry, lsps, rng_s, f_hz, False,
        doppler_scale=2.0 if mono_static else 1.0)

    # Shared departure rays bitwise identical across the two channels: copy
    # the comm side's ray array rows by shared id.
    comm_of = np.empty(n_shared, dtype=int)
    comm_of[shared_c_ids] = shared_c_idx
    sense.aod[shared_s_idx] = comm.aod[comm_of[shared_s_ids]]
    if mono_static:
        # Echoes retrace their rays: per-ray arrival equals departure.
        sense.aoa[target_idx] = sense.aod[target_idx]
        sense.zoa[target_idx] = sense.zod[target_idx]

    return IsacChannelPair(
        comm=comm, sense=sense,
        shared_comm_idx=shared_c_idx, shared_sense_idx=shared_s_idx,
        target_sense_idx=target_idx, sense_delay_offset_s=off_s,
        target_echo_delays_s=echo_delays)


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
