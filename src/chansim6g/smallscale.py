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
from .largescale import LSPSet, LspTableEntry

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


def gen_cluster_delays(ds_s: float, r_tau: float, n: int,
                       rng: np.random.Generator) -> np.ndarray:
    """Sorted cluster delays with the minimum subtracted (tau_1 = 0).

    Exponential profile tau' = -r_tau * DS * ln U, without the LOS delay
    scaling: power generation uses these delays, and ``generate_clusters``
    scales them afterwards.
    """
    if ds_s <= 0:
        raise ValueError(f"delay spread must be positive, got {ds_s}")
    if r_tau <= 1:
        raise ValueError(f"delay scaling factor must exceed 1, got {r_tau}")
    if n < 1:
        raise ValueError(f"cluster count must be >= 1, got {n}")
    tau = -r_tau * ds_s * np.log(rng.uniform(size=n))
    return np.sort(tau - tau.min())


def gen_cluster_powers(delays: np.ndarray, ds_s: float, r_tau: float,
                       zeta_db: float, k_db: float | None, state: str,
                       rng: np.random.Generator) -> np.ndarray:
    """Cluster powers, normalized to sum 1.

    Exponential decay over delay with per-cluster log-normal shadowing; in
    LOS the first cluster receives K/(K+1) of the total and the remainder is
    scaled by 1/(K+1).
    """
    tau = np.asarray(delays, dtype=np.float64)
    if np.any(np.diff(tau) < 0):
        raise ValueError("delays must be sorted")
    z = rng.normal(0.0, zeta_db, size=tau.size) if zeta_db > 0 else np.zeros(tau.size)
    p = np.exp(-tau * (r_tau - 1.0) / (r_tau * ds_s)) * 10.0 ** (-z / 10.0)
    p = p / p.sum()
    if state.upper() == "LOS":
        if k_db is None:
            raise ValueError("LOS power generation needs the K-factor")
        k_lin = 10.0 ** (k_db / 10.0)
        p = p / (k_lin + 1.0)
        p[0] += k_lin / (k_lin + 1.0)
        p = p / p.sum()  # guards rounding; analytically already 1
    return p


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


def _calibrate_scales(devs: np.ndarray, q: np.ndarray, total: float,
                      targets) -> list:
    """Scale factor gamma per lane so the circular spread of the rays, with
    cluster deviations scaled by gamma, equals the lane's target.

    ``devs`` is (lanes, n) per-cluster deviations and ``q`` (lanes, n) the
    per-cluster phasors sum_m w_nm exp(j o_nm) of the ray powers w and
    per-ray offsets o; ``total`` is the summed ray power P. With
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
        """Per lane, the (S, T) pair at each of the lane's gammas."""
        phase = np.exp(1j * np.array(gam)[:, :, None] * dev[:, None, :])
        return np.add.reduce(qd[:, None] * phase[:, :, None], axis=-1).tolist()

    # Keep scaled deviations within +-0.9 pi so the spread stays monotone.
    hi = [(0.9 * math.pi) / dmax[lane] for lane in lanes]
    lo = [0.0] * len(lanes)
    gam = [min(1.0, h) for h in hi]
    # The bracket ends and the first iterate in one evaluation.
    rows = sums([[0.0, h, g] for h, g in zip(hi, gam)])
    solving = []
    for i, ((s0, _), (s1, _), _) in enumerate(rows):
        lane, target = lanes[i], targets[lanes[i]]
        lo_s, hi_s = _spread_of(s0, total), _spread_of(s1, total)
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
            s = _spread_of(s_sum, total)
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
        rows = sums([[g] for g in gam])
    for i in solving:
        gammas[lanes[i]] = 0.5 * (lo[i] + hi[i])
    return gammas


def _cluster_angles(powers: np.ndarray, spread_deg: float, reference: float,
                    los: bool, k_db: float, zenith: bool,
                    rng: np.random.Generator) -> np.ndarray:
    """Cluster-level angles about ``reference`` via the inverse-shape method.

    Azimuth uses the Gaussian shape, zenith the Laplacian shape. In LOS the
    first cluster is forced onto the reference (geometric) direction.
    """
    n = powers.size
    s = math.radians(spread_deg)
    ratio = powers / powers.max()
    if zenith:
        prime = -s * np.log(ratio) / c_theta(n, los, k_db)
    else:
        prime = 2.0 * (s / 1.4) * np.sqrt(-np.log(ratio)) / c_phi(n, los, k_db)
    signs = rng.choice(np.array([-1.0, 1.0]), size=n)
    jitter = rng.normal(0.0, s / 7.0, size=n)
    dev = signs * prime + jitter
    if los:
        dev = dev - dev[0]  # cluster 1 exactly on the geometric direction
    return reference + dev


def gen_ray_angles(lsps: LSPSet, powers: np.ndarray, ray_p: np.ndarray,
                   los_dirs: LosDirections, entry: LspTableEntry, state: str,
                   rng: np.random.Generator) -> RayAngles:
    """Arrival/departure cluster+ray angles for one drop.

    Per-ray angles are the cluster angle plus the fixed offset table scaled
    by the intra-cluster spread; cluster deviations are then rescaled so the
    realized circular spread under the ray powers ``ray_p`` matches the drawn
    spread. In LOS the specular ray (cluster 1, ray 1) sits exactly on the
    geometric direction.
    """
    los = state.upper() == "LOS"
    n = powers.size
    m = entry.rays_per_cluster
    offs = ray_offsets(m)

    # Azimuths first, then zeniths: rows (aoa, aod, zoa, zod).
    dims = ((lsps.asa_deg, entry.c_asa_deg, los_dirs.aoa, False),
            (lsps.asd_deg, entry.c_asd_deg, los_dirs.aod, False),
            (lsps.zsa_deg, entry.c_zsa_deg, los_dirs.zoa, True),
            (lsps.zsd_deg, entry.c_zsd_deg, los_dirs.zod, True))
    refs = np.array([d[2] for d in dims])
    # Draw every dimension's cluster angles first; the calibration draws no
    # random numbers, so the stream is consumed in the same order.
    devs = np.empty((len(dims), n))
    for i, (spread_deg, _, ref, zenith) in enumerate(dims):
        devs[i] = _cluster_angles(powers, spread_deg, ref, los, lsps.k_db,
                                  zenith, rng) - ref
    # Every cluster's rays share one offset row per dimension; in LOS the
    # specular ray (cluster 1, ray 1) has none.
    offsets = np.array([math.radians(d[1]) for d in dims])[:, None] * offs
    ray_phasors = np.exp(1j * offsets)
    q = np.add.reduce(ray_p * ray_phasors[:, None, :], axis=-1)
    if los:
        ray_phasors[:, 0] = 1.0
        q[:, 0] = np.add.reduce(ray_p[0] * ray_phasors, axis=-1)
    gammas = _calibrate_scales(devs, q, float(ray_p.sum()),
                               [math.radians(d[0]) for d in dims])

    ang = (refs[:, None, None] + np.array(gammas)[:, None, None] * devs[:, :, None]
           + offsets[:, None, :])
    ang[:2] = _wrap_pi(ang[:2])
    ang[2:] = _reflect_zenith(ang[2:])
    if los:
        ang[:, 0, 0] = refs  # exact geometric direction despite wrapping
    return RayAngles(aoa=ang[0], aod=ang[1], zoa=ang[2], zod=ang[3])


def ray_powers(cluster_powers: np.ndarray, m: int, los: bool = False,
               k_db: float | None = None) -> np.ndarray:
    """Per-ray power split: uniform within each cluster; in LOS the specular
    ray of cluster 1 carries the K/(K+1) mass on top of its diffuse share."""
    p = np.asarray(cluster_powers, dtype=np.float64)
    rp = np.repeat(p[:, None], m, axis=1) / m
    if los:
        if k_db is None:
            raise ValueError("LOS ray powers need the K-factor")
        k_lin = 10.0 ** (k_db / 10.0)
        spec = k_lin / (k_lin + 1.0)
        diffuse_c1 = max(p[0] - spec, 0.0)
        rp[0, :] = diffuse_c1 / m
        rp[0, 0] += spec
    return rp


def gen_xpr_phases(entry: LspTableEntry, n: int, m: int,
                   rng: np.random.Generator):
    """Log-normal XPR kappa (linear) and four uniform phases per ray."""
    x_db = rng.normal(entry.xpr_mu_db, entry.xpr_sigma_db, size=(n, m)) \
        if entry.xpr_sigma_db > 0 else np.full((n, m), entry.xpr_mu_db)
    kappa = 10.0 ** (x_db / 10.0)
    phases = rng.uniform(-np.pi, np.pi, size=(n, m, 4))
    return kappa, phases


def doppler_per_ray(velocity, arrival_units: np.ndarray, f_hz: float) -> np.ndarray:
    """Doppler shift nu = (r_hat . v) * f / c for each arrival direction."""
    v = np.asarray(velocity, dtype=np.float64)
    if v.shape != (3,):
        raise ValueError(f"velocity must be a 3-vector, got shape {v.shape}")
    return np.tensordot(arrival_units, v, axes=([-1], [0])) * f_hz / C_LIGHT


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

    @property
    def rays_per_cluster(self) -> int:
        return self.ray_powers.shape[1]


def generate_clusters(entry: LspTableEntry, lsps: LSPSet,
                      los_dirs: LosDirections, state: str,
                      velocity, f_hz: float, streams) -> ClusterSet:
    """Steps 5-10 for one drop.

    ``streams`` provides named child generators ("delays", "powers",
    "angles", and "xpr" for the XPRs and the initial phases) so each stage's
    draws are insulated from the others.
    """
    los = state.upper() == "LOS"
    n, m = entry.n_clusters, entry.rays_per_cluster
    k_db = lsps.k_db if los else None

    raw_delays = gen_cluster_delays(lsps.ds_s, entry.delay_scaling, n,
                                    streams.get("delays"))
    powers = gen_cluster_powers(raw_delays, lsps.ds_s, entry.delay_scaling,
                                entry.per_cluster_shadow_db, k_db, state,
                                streams.get("powers"))
    delays = raw_delays / los_delay_scale(k_db) if los else raw_delays

    rp = ray_powers(powers, m, los=los, k_db=k_db)
    angles = gen_ray_angles(lsps, powers, rp, los_dirs, entry, state,
                            streams.get("angles"))
    kappa, phases = gen_xpr_phases(entry, n, m, streams.get("xpr"))

    arrival = unit_vector(angles.zoa, angles.aoa)
    doppler = doppler_per_ray(velocity, arrival, f_hz)

    return ClusterSet(delays_s=delays, powers=powers, ray_powers=rp,
                      zoa=angles.zoa, aoa=angles.aoa, zod=angles.zod,
                      aod=angles.aod, kappa=kappa, phases=phases,
                      doppler_hz=doppler, state="LOS" if los else "NLOS")
