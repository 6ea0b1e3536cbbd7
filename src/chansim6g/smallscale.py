"""Per-drop small-scale parameters: cluster delays, powers, ray angles in
four dimensions, cross-polarization ratios, initial phases and Doppler.

The recipes follow the public 5G standard (exponential delay profile,
power-decay law, inverse-shape angle mapping, 20-ray offset table), with one
addition: after the inverse-shape step, cluster angle deviations are rescaled
so the realized power-weighted circular spread of the drop equals the drawn
spread to within 1e-10 rad. Sub-cluster splitting of the two strongest
clusters is deliberately omitted so cluster counts match the tables exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import C_LIGHT
from .geometry import LosDirections, unit_vector
from .largescale import LspTableEntry

# Standard 20-ray offset table; RMS is 1 so the intra-cluster spread scale
# multiplies through directly.
RAY_OFFSETS_20 = np.array([
    0.0447, -0.0447, 0.1413, -0.1413, 0.2492, -0.2492, 0.3715, -0.3715,
    0.5129, -0.5129, 0.6797, -0.6797, 0.8844, -0.8844, 1.1481, -1.1481,
    1.5195, -1.5195, 2.1551, -2.1551,
])

# Inverse-shape normalization constants keyed by cluster count.
_C_PHI_NLOS = {4: 0.779, 5: 0.860, 8: 1.018, 10: 1.090, 11: 1.123, 12: 1.146,
               14: 1.190, 15: 1.211, 16: 1.226, 19: 1.273, 20: 1.289}
_C_THETA_NLOS = {8: 0.889, 10: 0.957, 11: 1.031, 12: 1.104, 15: 1.1088,
                 19: 1.184, 20: 1.178}


def ray_offsets(m: int) -> np.ndarray:
    """Unit-RMS, zero-mean intra-cluster offsets for m rays per cluster."""
    if m == 20:
        return RAY_OFFSETS_20.copy()
    if m == 1:
        return np.zeros(1)
    # Gaussian quantile midpoints, symmetrized and normalized to unit RMS.
    from scipy.stats import norm
    q = norm.ppf((np.arange(m) + 0.5) / m)
    q = q - q.mean()
    rms = math.sqrt(float(np.mean(q ** 2)))
    return q / rms if rms > 0 else q


def _interp_const(table: dict, n: int) -> float:
    if n in table:
        return table[n]
    keys = sorted(table)
    if n <= keys[0]:
        return table[keys[0]]
    if n >= keys[-1]:
        return table[keys[-1]]
    lo = max(k for k in keys if k < n)
    hi = min(k for k in keys if k > n)
    w = (n - lo) / (hi - lo)
    return table[lo] * (1 - w) + table[hi] * w


def c_phi(n: int, los: bool, k_db: float = 0.0) -> float:
    c = _interp_const(_C_PHI_NLOS, n)
    if los:
        k = k_db
        c *= 1.1035 - 0.028 * k - 0.002 * k ** 2 + 0.0001 * k ** 3
    return c


def c_theta(n: int, los: bool, k_db: float = 0.0) -> float:
    c = _interp_const(_C_THETA_NLOS, n)
    if los:
        k = k_db
        c *= 1.3086 + 0.0339 * k - 0.0077 * k ** 2 + 0.0002 * k ** 3
    return c


def los_delay_scale(k_db: float) -> float:
    """Compensation factor for the specular peak's effect on delay spread."""
    k = k_db
    return 0.7705 - 0.0433 * k + 0.0002 * k ** 2 + 0.000017 * k ** 3


def gen_cluster_delays(ds_s, r_tau: float, n: int, rng) -> np.ndarray:
    """Sorted cluster delays of a block of B drops, (B, n), with each drop's
    minimum subtracted (tau_1 = 0).

    Exponential profile tau' = -r_tau * DS * ln U, without the LOS delay
    scaling: power generation uses these delays, and ``generate_clusters``
    scales them afterwards. ``ds_s`` is a (B, 1) array and ``rng`` a
    sequence of B generators.
    """
    if (np.asarray(ds_s) <= 0).any():
        raise ValueError(f"delay spread must be positive, got {ds_s}")
    if r_tau <= 1:
        raise ValueError(f"delay scaling factor must exceed 1, got {r_tau}")
    if n < 1:
        raise ValueError(f"cluster count must be >= 1, got {n}")
    tau = -r_tau * ds_s * np.log(_each(rng, lambda g: g.uniform(size=n)))
    return np.sort(tau - tau.min(axis=-1, keepdims=True), axis=-1)


def gen_cluster_powers(delays: np.ndarray, ds_s, r_tau: float,
                       zeta_db: float, k_db, state: str, rng) -> np.ndarray:
    """Cluster powers of a block of B drops, (B, n), each row normalized to
    sum 1.

    Exponential decay over delay with per-cluster log-normal shadowing; in
    LOS the first cluster receives K/(K+1) of the total and the remainder is
    scaled by 1/(K+1). ``delays`` is (B, n), ``ds_s`` a scalar or (B, 1),
    ``k_db`` a list of one K per drop and ``rng`` one generator per drop.
    """
    tau = np.asarray(delays, dtype=np.float64)
    if (tau[..., 1:] < tau[..., :-1]).any():
        raise ValueError("delays must be sorted")
    n = tau.shape[-1]
    z = _each(rng, lambda g: g.normal(0.0, zeta_db, size=n)) if zeta_db > 0 \
        else np.zeros(tau.shape)
    p = np.exp(-tau * (r_tau - 1.0) / (r_tau * ds_s)) * 10.0 ** (-z / 10.0)
    p = p / p.sum(axis=-1, keepdims=True)
    if state.upper() == "LOS":
        if k_db is None:
            raise ValueError("LOS power generation needs the K-factor")
        k_plus_1, spec = _k_split(k_db)
        p = p / k_plus_1
        p[..., :1] += spec
        p = p / p.sum(axis=-1, keepdims=True)  # guards rounding; analytically already 1
    return p


def _each(rng, draw) -> np.ndarray:
    """``draw(g)`` of each generator of a block's sequence, stacked on a
    leading drop axis."""
    return np.array([draw(g) for g in rng])


def _k_split(k_db) -> tuple:
    """(B, 1) columns of K + 1 and K / (K + 1) for a list of one K-factor
    in dB per drop. Scalar Python arithmetic: numpy's vectorized power
    rounds differently on AVX-512 hosts."""
    k_lin = [10.0 ** (k / 10.0) for k in k_db]
    return np.array([[k + 1.0] for k in k_lin]), np.array([[k / (k + 1.0)] for k in k_lin])


# ---------------------------------------------------------------------------
# Ray angles
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RayAngles:
    """Per-ray angle sets, radians, shape (clusters, rays)."""

    zoa: np.ndarray
    aoa: np.ndarray
    zod: np.ndarray
    aod: np.ndarray


def _wrap_pi(a: np.ndarray) -> np.ndarray:
    return (a + np.pi) % (2.0 * np.pi) - np.pi


def _reflect_zenith(a: np.ndarray) -> np.ndarray:
    """Fold zenith angles into [0, pi]."""
    a = np.mod(a, 2.0 * np.pi)
    return np.where(a > np.pi, 2.0 * np.pi - a, a)


# Angle-spread calibration: iteration cap and tolerance on the spread (radians).
_CALIBRATION_STEPS = 48
_CALIBRATION_TOL = 1e-10


def _spread_of(phasor: complex, total: float) -> float:
    """Circular spread sqrt(-2 ln r) of a summed phasor, r = |phasor|/total.

    Scalar ``abs`` and ``math.log`` on purpose: numpy's vectorized complex
    abs and log can round differently from libm (they do on AVX-512 hosts),
    and a one-ulp change can flip a bracket decision.
    """
    r = min(abs(phasor) / total, 1.0 - 1e-16)
    return math.sqrt(-2.0 * math.log(r))


def _calibrate_scales(devs: np.ndarray, q: np.ndarray, totals, targets) -> list:
    """Scale factor gamma per lane so the circular spread of the rays, with
    cluster deviations scaled by gamma, equals the lane's target.

    ``devs`` is (lanes, n) per-cluster deviations and ``q`` (lanes, n) the
    per-cluster phasors sum_m w_nm exp(j o_nm) of the ray powers w and
    per-ray offsets o; ``totals`` holds each lane's summed ray power P. With
    S(gamma) = sum_n q_n exp(j gamma d_n) the spread is
    s(gamma) = sqrt(-2 ln(|S|/P)), and its slope is Im(conj(S) T) / (s |S|^2)
    with T = sum_n d_n q_n exp(j gamma d_n).

    Within [0, 0.9 pi / max|dev|] the spread is monotone. A target at or
    below s(0) gives gamma = 0, one at or above the upper end gives that
    end. Otherwise a safeguarded Newton solve starts at gamma = 1 clipped
    into the bracket, narrows the bracket by the sign of s - target at every
    iterate, and takes the bracket midpoint whenever the Newton step leaves
    the bracket. It stops once |s - target| < 1e-10, or after 48 iterates
    with the bracket midpoint (a spread quantized near r = 1 may never get
    that close). A NaN target or end spread has no bracket to solve in and
    gets hi * 2**-49, where 48 bisection steps that never raise the lower
    end stop.

    The lanes run in lockstep: each iterate evaluates S and T of every lane
    in one array expression, and a lane's gamma does not depend on the other
    lanes. On arrays the solve uses only complex ``exp``, ``*`` and
    ``add.reduce``, whose results do not depend on numpy's SIMD dispatch;
    every spread, slope and step is scalar Python (``abs``, ``math.log``,
    ``math.sqrt``).
    """
    n_lanes, n = devs.shape
    gammas = [1.0] * n_lanes
    if n < 2:
        return gammas
    dmax = np.abs(devs).max(axis=1).tolist()
    # |dev| <= 1e-8 everywhere keeps gamma at 1 (a NaN or inf does not).
    lanes = [lane for lane in range(n_lanes) if not dmax[lane] <= 1e-8]
    if not lanes:
        return gammas
    dev, q = devs[lanes], q[lanes]
    # q and d*q side by side: one reduction gives S and T.
    qd = np.concatenate([q, q * dev], axis=1).reshape(len(lanes), 2, n)

    def sums(gam):
        """Per lane, the (S, T) pair at each of the lane's gammas, ``gam``
        (lanes, gammas)."""
        phase = np.exp(1j * gam[:, :, None] * dev[:, None, :])
        return np.add.reduce(qd[:, None] * phase[:, :, None], axis=-1).tolist()

    # Keep scaled deviations within +-0.9 pi so the spread stays monotone.
    hi = [(0.9 * math.pi) / dmax[lane] for lane in lanes]
    lo = [0.0] * len(lanes)
    gam = [min(1.0, h) for h in hi]
    # The bracket ends and the first iterate in one evaluation.
    rows = sums(np.array([[0.0, h, g] for h, g in zip(hi, gam)]))
    solving = []
    for i, ((s0, _), (s1, _), _) in enumerate(rows):
        lane, target = lanes[i], targets[lanes[i]]
        lo_s, hi_s = _spread_of(s0, totals[lane]), _spread_of(s1, totals[lane])
        if target <= lo_s:
            gammas[lane] = 0.0  # intra-cluster dispersion alone exceeds target
        elif hi_s <= target:
            gammas[lane] = hi[i]
        elif not lo_s < target < hi_s:  # a NaN target or end spread
            gammas[lane] = math.ldexp(hi[i], -_CALIBRATION_STEPS - 1)
        else:
            solving.append(i)

    for _ in range(_CALIBRATION_STEPS):
        still = []
        for i in solving:
            s_sum, t_sum = rows[i][-1]
            g, target = gam[i], targets[lanes[i]]
            s = _spread_of(s_sum, totals[lanes[i]])
            if abs(s - target) < _CALIBRATION_TOL:
                gammas[lanes[i]] = g
                continue
            if s < target:
                lo[i] = g
            else:
                hi[i] = g
            slope = s_sum.real * t_sum.imag - s_sum.imag * t_sum.real
            step = g - (s - target) * s * abs(s_sum) ** 2 / slope if slope else math.nan
            gam[i] = step if lo[i] < step < hi[i] else 0.5 * (lo[i] + hi[i])
            still.append(i)
        solving = still
        if not solving:
            break
        rows = sums(np.array(gam)[:, None])
    for i in solving:
        gammas[lanes[i]] = 0.5 * (lo[i] + hi[i])
    return gammas


def gen_ray_angles(lsps, powers: np.ndarray, ray_p: np.ndarray,
                   los_dirs: LosDirections, entry: LspTableEntry, state: str,
                   rng) -> RayAngles:
    """Arrival/departure cluster+ray angles for a block of B drops: ``lsps``
    and ``rng`` hold one item per drop, ``powers`` is (B, n), ``ray_p``
    (B, n, m) and every angle array (B, n, m).

    Cluster angles follow the inverse-shape method about the geometric
    direction: the Gaussian shape in azimuth, the Laplacian in zenith, a
    random sign and a jitter of a seventh of the spread per cluster, and in
    LOS cluster 1 exactly on the geometric direction. Per-ray angles are
    the cluster angle plus the fixed offset table scaled by the
    intra-cluster spread; cluster deviations are then rescaled so the
    realized circular spread under the ray powers ``ray_p`` matches the drawn
    spread. In LOS the specular ray (cluster 1, ray 1) sits exactly on the
    geometric direction. The four dimensions of every drop are calibrated
    together, as independent lanes of one solve.
    """
    los = state.upper() == "LOS"
    b, n = powers.shape

    # Rows (aoa, aod, zoa, zod): azimuths first, then zeniths.
    refs = np.array([los_dirs.aoa, los_dirs.aod, los_dirs.zoa, los_dirs.zod])
    spreads = ([math.radians(x.asa_deg) for x in lsps]
               + [math.radians(x.asd_deg) for x in lsps]
               + [math.radians(x.zsa_deg) for x in lsps]
               + [math.radians(x.zsd_deg) for x in lsps])
    # Each drop draws, per dimension, the cluster signs, then the jitter;
    # rng.choice of a two-element array draws exactly integers(0, 2, size).
    signs, jitter = np.empty((2, 4, b, n))
    for j, g in enumerate(rng):
        for i in range(4):
            signs[i, j] = g.integers(0, 2, size=n)
            jitter[i, j] = g.normal(0.0, spreads[i * b + j] / 7.0, size=n)
    s = np.array(spreads).reshape(4, b, 1)
    c_az = np.array([c_phi(n, los, x.k_db) for x in lsps])[:, None]
    c_ze = np.array([c_theta(n, los, x.k_db) for x in lsps])[:, None]
    log_ratio = np.log(powers / powers.max(axis=-1, keepdims=True))
    prime = np.concatenate([2.0 * (s[:2] / 1.4) * np.sqrt(-log_ratio) / c_az,
                            -s[2:] * log_ratio / c_ze])
    dev = (2.0 * signs - 1.0) * prime + jitter
    if los:
        dev = dev - dev[..., :1]  # cluster 1 exactly on the geometric direction
    devs = (refs[:, None, None] + dev) - refs[:, None, None]

    # Every cluster's rays share one offset row per dimension; in LOS the
    # specular ray (cluster 1, ray 1) has none.
    offsets = np.array([math.radians(entry.c_asa_deg), math.radians(entry.c_asd_deg),
                        math.radians(entry.c_zsa_deg), math.radians(entry.c_zsd_deg)]
                       )[:, None] * ray_offsets(entry.rays_per_cluster)
    ray_phasors = np.exp(1j * offsets)
    q = np.add.reduce(ray_p * ray_phasors[:, None, None, :], axis=-1)
    if los:
        ray_phasors[:, 0] = 1.0
        q[:, :, 0] = np.add.reduce(ray_p[:, 0] * ray_phasors[:, None, :], axis=-1)
    # Lane i * b + j is dimension i of drop j.
    gammas = _calibrate_scales(devs.reshape(-1, n), q.reshape(-1, n),
                               ray_p.reshape(b, -1).sum(axis=1).tolist() * 4, spreads)

    ang = (refs[:, None, None, None] + np.array(gammas).reshape(4, b, 1, 1)
           * devs[..., None] + offsets[:, None, None, :])
    ang[:2] = _wrap_pi(ang[:2])
    ang[2:] = _reflect_zenith(ang[2:])
    if los:
        ang[:, :, 0, 0] = refs[:, None]  # exact geometric direction despite wrapping
    return RayAngles(aoa=ang[0], aod=ang[1], zoa=ang[2], zod=ang[3])


def ray_powers(cluster_powers: np.ndarray, m: int, los: bool = False,
               k_db=None) -> np.ndarray:
    """Per-ray power split of a block of B drops, (B, n, m): uniform within
    each cluster; in LOS the specular ray of cluster 1 carries the K/(K+1)
    mass on top of its diffuse share. ``cluster_powers`` is (B, n) and
    ``k_db`` a list of one K per drop."""
    p = np.asarray(cluster_powers, dtype=np.float64)
    rp = np.repeat(p[..., None], m, axis=-1) / m
    if los:
        if k_db is None:
            raise ValueError("LOS ray powers need the K-factor")
        _, spec = _k_split(k_db)
        diffuse_c1 = p[..., :1] - spec
        diffuse_c1 = np.where(0.0 > diffuse_c1, 0.0, diffuse_c1)  # max(., 0.0)
        rp[..., 0, :] = diffuse_c1 / m
        rp[..., 0, :1] += spec
    return rp


def gen_xpr_phases(entry: LspTableEntry, n: int, m: int, rng):
    """Log-normal XPR kappa (linear), (B, n, m), and four uniform phases per
    ray, (B, n, m, 4), of a block of B drops: ``rng`` holds one generator
    per drop."""
    x_db = _each(rng, lambda g: g.normal(entry.xpr_mu_db, entry.xpr_sigma_db, size=(n, m))
                 if entry.xpr_sigma_db > 0 else np.full((n, m), entry.xpr_mu_db))
    phases = _each(rng, lambda g: g.uniform(-np.pi, np.pi, size=(n, m, 4)))
    return 10.0 ** (x_db / 10.0), phases


def doppler_per_ray(velocity, arrival_units: np.ndarray, f_hz: float) -> np.ndarray:
    """Doppler shift nu = (r_hat . v) * f / c for each arrival direction."""
    v = np.asarray(velocity, dtype=np.float64)
    if v.shape != (3,):
        raise ValueError(f"velocity must be a 3-vector, got shape {v.shape}")
    # np.tensordot's own operands to np.dot, so the BLAS call keeps its
    # shape (and the bytes), without tensordot's set-up.
    u = np.asarray(arrival_units, dtype=np.float64)
    nu = np.dot(u.reshape(-1, 3), v.reshape(3, 1)).reshape(u.shape[:-1])
    return nu * f_hz / C_LIGHT


# ---------------------------------------------------------------------------
# Drop assembly
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ClusterSet:
    """All small-scale parameters of one drop."""

    delays_s: np.ndarray      # (n,), sorted, delays_s[0] == 0
    powers: np.ndarray        # (n,), sum == 1
    ray_powers: np.ndarray    # (n, m)
    zoa: np.ndarray           # (n, m) radians
    aoa: np.ndarray
    zod: np.ndarray
    aod: np.ndarray
    kappa: np.ndarray         # (n, m) linear XPR
    phases: np.ndarray        # (n, m, 4) radians, order (tt, tp, pt, pp)
    doppler_hz: np.ndarray    # (n, m)
    state: str                # "LOS" | "NLOS"; in LOS ray (0, 0) is the specular ray

    def __post_init__(self):
        if self.state not in ("LOS", "NLOS"):
            raise ValueError(f"state must be 'LOS' or 'NLOS', got {self.state!r}")
        p = self.powers
        if abs(float(p.sum()) - 1.0) > 1e-12:
            raise ValueError(f"cluster powers must sum to 1, got {p.sum()!r}")
        if np.any(p < 0):
            raise ValueError("negative cluster power")
        tau = self.delays_s
        if tau[0] != 0.0 or np.any(np.diff(tau) < 0):
            raise ValueError("delays must be sorted with delays_s[0] == 0")
        if np.any(self.kappa <= 0):
            raise ValueError("XPR must be positive")

    @property
    def n_clusters(self) -> int:
        return self.delays_s.size


def generate_clusters(entry: LspTableEntry, lsps, los_dirs: LosDirections,
                      state: str, velocity, f_hz: float, streams):
    """Steps 5-10 for a block of drops: one ClusterSet per drop.

    ``lsps`` and ``streams`` are equal-length sequences, one item per drop;
    a single drop is a block of one. The drops share the entry, link state,
    directions and velocity. Each drop's streams provide named child
    generators ("delays", "powers", "angles", and "xpr" for the XPRs and the
    initial phases) so each stage's draws are insulated from the others.
    Each drop draws from its own streams in the order it does alone, every
    array step acts elementwise or reduces within one drop, and the Doppler
    product runs per drop, so its BLAS call keeps its shape: a drop's
    ClusterSet does not depend on the block it ran in.
    """
    los = state.upper() == "LOS"
    n, m = entry.n_clusters, entry.rays_per_cluster
    k_db = [x.k_db for x in lsps] if los else None
    ds = np.array([[x.ds_s] for x in lsps])

    raw_delays = gen_cluster_delays(ds, entry.delay_scaling, n,
                                    [s.get("delays") for s in streams])
    powers = gen_cluster_powers(raw_delays, ds, entry.delay_scaling,
                                entry.per_cluster_shadow_db, k_db, state,
                                [s.get("powers") for s in streams])
    delays = raw_delays / np.array([[los_delay_scale(k)] for k in k_db]) if los \
        else raw_delays

    rp = ray_powers(powers, m, los=los, k_db=k_db)
    angles = gen_ray_angles(lsps, powers, rp, los_dirs, entry, state,
                            [s.get("angles") for s in streams])
    kappa, phases = gen_xpr_phases(entry, n, m, [s.get("xpr") for s in streams])
    arrival = unit_vector(angles.zoa, angles.aoa)

    return [ClusterSet(delays_s=delays[i], powers=powers[i], ray_powers=rp[i],
                       zoa=angles.zoa[i], aoa=angles.aoa[i], zod=angles.zod[i],
                       aod=angles.aod[i], kappa=kappa[i], phases=phases[i],
                       doppler_hz=doppler_per_ray(velocity, arrival[i], f_hz),
                       state="LOS" if los else "NLOS")
            for i in range(len(lsps))]
