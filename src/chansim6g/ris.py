"""RIS extension: the Tx-RIS-Rx cascaded channel through a panel of
load-impedance elements.

``cascade_cir_multi`` evaluates the element reflection (load-impedance
model) and the panel pattern (equivalence-theorem element currents summed
coherently over the grid under a steering or uniform codebook) in closed
form inside the cascade kernel. The broadcast form of the same pattern,
direction by direction, is the test oracle in ``tests/ris_oracle.py``.

Conventions (panel local frame): elements lie in the x-y plane on a centered
grid, normal +z. Directions are (zenith from normal, azimuth); ``in``
directions point from the panel toward the source, ``out`` toward the
observer. Pattern blocks are indexed [incident pol, outgoing pol] with V
along the zenith basis vector and H along the azimuth basis vector. A
codebook is its tangential design vector ``u`` (2,): element phases
-k u.d, which modulate the reflected-field part only; the incident-field
part of the equivalent currents is codebook-independent.

The cascade kernel is two functions. ``_pattern_weights`` builds the real
pattern weight of every front leg-1/leg-2 ray pair once per drop, for all
panels: CASCADE_TILE leg-1 rays at a time (two sincs and two Dirichlet
kernels, each a ratio of angle-addition or sum grids, from K=2 GEMMs of
per-side vectors, with one division), then the near-singular entries of all
tiles in one pass. In ``cascade_cir_multi``, per tile and leg-2 cluster, one
real GEMM contracts the weights with the leg-2 projections, array phases and
Doppler, shared by the panels; each panel combines its incident currents
with the result, four terms per entry, all scalings folded into the
per-side matrices. The leg-1 cluster reduction follows once per drop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import Z0_OHM, wavelength
from .geometry import ArrayGeometry, ConfigurationError, check_apart, unit_vector
from .smallscale import ClusterSet
from .cir import CirTensor, _array_phases

# Directions within a degree of grazing (or behind the panel) are treated
# as outside the panel's field of view; finite-thickness edges make the
# sheet model meaningless there.
GRAZING_LIMIT_RAD = math.radians(89.0)


# ---------------------------------------------------------------------------
# Element reflection (load-impedance model)
# ---------------------------------------------------------------------------

def _reflection_arrays(z_e, z_m, cos_t, pol: str):
    if pol == "V":
        return -Z0_OHM / (2.0 * z_e * cos_t + Z0_OHM) \
            + (z_m * cos_t) / (z_m * cos_t + 2.0 * Z0_OHM)
    if pol == "H":
        return (Z0_OHM * cos_t) / (2.0 * z_e + Z0_OHM * cos_t) \
            - z_m / (z_m + 2.0 * Z0_OHM * cos_t)
    raise ValueError(f"polarization must be V or H, got {pol!r}")


# ---------------------------------------------------------------------------
# Panel description and codebooks
# ---------------------------------------------------------------------------

def uniform_codebook() -> np.ndarray:
    """Design vector of the uniform (all-zero phase) codebook."""
    return np.zeros(2)


def steering_codebook(in_dir, out_dir) -> np.ndarray:
    """Design vector of a continuous-anomalous-reflection profile for a
    nominal (incident, outgoing) direction pair, both (zenith, azimuth) in
    the panel frame: its element phases cancel the tangential position
    phases of that pair."""
    u_in = unit_vector(*in_dir)[:2]
    u_out = unit_vector(*out_dir)[:2]
    return np.asarray(u_in + u_out)


@dataclass(frozen=True)
class RisPanel:
    nx: int
    ny: int
    d_element: float                    # grid pitch, meters
    z_e: complex = 0.0                  # electric impedance, ohms
    z_m: complex = 0.0                  # magnetic impedance, ohms
    ideal: bool = False                 # unit-magnitude reflection, all angles
    ideal_reference: str = "pec"        # mirror signature of the ideal mode
    rotation: tuple = (1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0)

    def __post_init__(self):
        if self.nx < 1 or self.ny < 1:
            raise ConfigurationError("RIS grid must be at least 1x1")
        if self.d_element <= 0:
            raise ConfigurationError("element pitch must be positive")
        if self.ideal_reference not in ("pec", "pmc"):
            raise ConfigurationError("ideal_reference must be 'pec' or 'pmc'")

    @property
    def rotation_matrix(self) -> np.ndarray:
        return np.asarray(self.rotation, dtype=np.float64).reshape(3, 3)

    def reflection(self, zen_in, pol: str):
        """Angle-dependent element reflection.

        Ideal mode keeps unit magnitude at all angles with the mirror's
        polarization signature (PEC: V -> -1, H -> +1; magnetic wall
        reversed), so the ideal/non-ideal comparison isolates the magnitude
        and angle dependence of the hardware model.
        """
        zen = np.asarray(zen_in, dtype=np.float64)
        if self.ideal:
            sign_v = -1.0 if self.ideal_reference == "pec" else 1.0
            sign = sign_v if pol.upper() == "V" else -sign_v
            return np.full(zen.shape, sign, dtype=np.complex128)
        return np.asarray(_reflection_arrays(complex(self.z_e), complex(self.z_m),
                                             np.cos(zen), pol.upper()),
                          dtype=np.complex128)

    def to_local(self, zen, az):
        """Rotate global-frame directions into the panel frame."""
        vec = unit_vector(zen, az) @ self.rotation_matrix.T
        zen_l = np.arccos(np.clip(vec[..., 2], -1.0, 1.0))
        az_l = np.arctan2(vec[..., 1], vec[..., 0])
        return zen_l, az_l


def rotation_facing(direction) -> tuple:
    """Rotation tuple for a panel whose normal points along ``direction``
    (global frame)."""
    n = np.asarray(direction, dtype=np.float64)
    n = n / np.linalg.norm(n)
    helper = np.array([0.0, 0.0, 1.0]) if abs(n[2]) < 0.9 else np.array([1.0, 0.0, 0.0])
    x = np.cross(helper, n)
    x = x / np.linalg.norm(x)
    y = np.cross(n, x)
    # Rows map global vectors onto the panel (x, y, normal) axes.
    return tuple(np.stack([x, y, n]).ravel())


def rotation_with_incidence(toward_a, toward_b, incidence_a_rad: float) -> tuple:
    """Rotation tuple for a panel whose normal lies in the plane spanned by
    the two (global) directions, placing direction ``a`` at the requested
    local zenith and keeping ``b`` on the same (front) side."""
    v1 = np.asarray(toward_a, dtype=np.float64)
    v1 = v1 / np.linalg.norm(v1)
    v2 = np.asarray(toward_b, dtype=np.float64)
    v2 = v2 / np.linalg.norm(v2)
    e2 = v2 - (v2 @ v1) * v1
    nrm = np.linalg.norm(e2)
    if nrm < 1e-12:
        raise ConfigurationError("panel endpoints are collinear with the panel")
    e2 = e2 / nrm
    n = math.cos(incidence_a_rad) * v1 + math.sin(incidence_a_rad) * e2
    return rotation_facing(n)


def build_panel(block: dict, bs_position, ue_position, f_hz: float) -> RisPanel:
    """The non-ideal panel of a checked, filled ``ris`` config block, turned
    toward its endpoints: with ``bs_incidence_deg`` the normal lies in the
    plane of the two endpoint directions with the BS at that local zenith,
    otherwise it bisects the two endpoint vectors. A panel on or too far from
    an endpoint, endpoints collinear with the panel, an endpoint behind the
    panel, or a BS so near grazing that leg 1's set arrival spread
    ``asa_deg`` cannot reach inside ``GRAZING_LIMIT_RAD`` (the cascade drops
    every ray past it) raises ConfigurationError naming the field."""
    ris_pos = np.asarray(block["position"], dtype=np.float64)
    pitch = block["element_pitch"]
    if pitch == "half_wavelength":
        pitch = wavelength(f_hz) / 2.0
    to_bs = np.asarray(bs_position, dtype=np.float64) - ris_pos
    to_ue = np.asarray(ue_position, dtype=np.float64) - ris_pos
    for name, v in (("bs_position", to_bs), ("ue_position", to_ue)):
        check_apart("ris.position", np.linalg.norm(v), name)
    u_bs = to_bs / np.linalg.norm(to_bs)
    u_ue = to_ue / np.linalg.norm(to_ue)
    if np.linalg.norm(u_ue - (u_ue @ u_bs) * u_bs) < 1e-12:
        raise ConfigurationError(
            "ris.position: collinear with bs_position and ue_position")
    if block["bs_incidence_deg"] is None:
        field = "ris.position"
        rotation = rotation_facing(0.5 * (to_bs + to_ue))
    else:
        field = "ris.bs_incidence_deg"
        rotation = rotation_with_incidence(to_bs, to_ue,
                                           math.radians(block["bs_incidence_deg"]))
    normal = np.asarray(rotation[6:])
    for name, u in (("bs_position", u_bs), ("ue_position", u_ue)):
        if not normal @ u > 0.0:
            raise ConfigurationError(f"{field}: puts {name} behind the panel")
    zen_bs, asa = math.acos(min(normal @ u_bs, 1.0)), block["asa_deg"]
    if asa is not None and zen_bs - math.radians(asa) >= GRAZING_LIMIT_RAD:
        raise ConfigurationError(f"{field}: puts bs_position at grazing, where leg 1's "
                                 f"ris.asa_deg {asa:g} spread leaves no ray in view")
    return RisPanel(nx=block["nx"], ny=block["ny"], d_element=float(pitch),
                    z_e=complex(*block["z_e_ohm"]), z_m=complex(*block["z_m_ohm"]),
                    ideal_reference=block["ideal_reference"], rotation=rotation)


# ---------------------------------------------------------------------------
# Panel pattern factors (equivalence theorem, uniform rectangular patch)
# ---------------------------------------------------------------------------

def _basis(zen, az):
    """Spherical basis vectors (r, theta, phi) for directions (zen, az)."""
    st, ct = np.sin(zen), np.cos(zen)
    sp, cp = np.sin(az), np.cos(az)
    r = np.stack([st * cp, st * sp, ct], axis=-1)
    th = np.stack([ct * cp, ct * sp, -st], axis=-1)
    ph = np.stack([-sp, cp, np.zeros_like(sp)], axis=-1)
    return r, th, ph


def _sinc(x):
    return np.sinc(x / np.pi)  # sin(x)/x with the 0 limit


def _dirichlet(a, n: int):
    """Centered-grid geometric sum: sin(n a / 2) / sin(a / 2), real."""
    a = np.asarray(a, dtype=np.float64)
    den = np.sin(0.5 * a)
    small = np.abs(den) < 1e-12
    if not small.any():
        return np.sin(0.5 * n * a) / den
    safe = np.where(small, 1.0, den)
    val = np.sin(0.5 * n * a) / safe
    limit = n * np.cos(0.5 * n * a) / np.where(np.abs(np.cos(0.5 * a)) < 1e-12,
                                               1.0, np.cos(0.5 * a))
    return np.where(small, limit, val)


# Front leg-1 rays per tile of the cascade kernel: the per-tile work
# buffers hold CASCADE_TILE rows of the ray-pair grid.
CASCADE_TILE = 32


def _pattern_weights(k: float, panel: RisPanel, design_u, r_in, r_out) -> np.ndarray:
    """The (I, J) real pattern weight w = Sx Sy Dx Dy of every pair of
    incident ``r_in`` (I, 3) and outgoing ``r_out`` (J, 3) directions under
    the codebook's design vector ``design_u``.

    ``left`` (8, I, 2) @ ``right`` (8, 2, J) gives the numerator grids
    sin(n (p_i + q_j)) of the four factors, then their denominators: the sums
    p_i + q_j of the two sincs and sin(p_i + q_j) of the two Dirichlet
    kernels, with per-side arguments ``p`` (4, I) and ``q`` (4, J) and factor
    orders ``n`` (4, 1), 1 for the sincs. Per tile of CASCADE_TILE rows come
    the four numerator grids and their product, the four denominator grids
    and theirs, and one division; the near-singular entries of all tiles
    follow in one pass."""
    edge = panel.d_element
    half = 0.5 * k * edge
    p = np.stack([half * r_in[:, 0], half * r_in[:, 1],
                  half * (r_in[:, 0] - design_u[0]),
                  half * (r_in[:, 1] - design_u[1])])
    q = np.stack([half * r_out[:, 0], half * r_out[:, 1],
                  half * r_out[:, 0], half * r_out[:, 1]])
    n = np.array([1.0, 1.0, panel.nx, panel.ny])[:, None]
    left = np.empty((8,) + p.shape[1:] + (2,))
    right = np.empty((8, 2) + q.shape[1:])
    # sin(a + b) = [sin a, cos a] . [cos b, sin b]; a + b = [a, 1] . [1, b].
    left[:4, :, 0], left[:4, :, 1] = np.sin(n * p), np.cos(n * p)
    right[:4, 0], right[:4, 1] = np.cos(n * q), np.sin(n * q)
    left[4:6, :, 0], left[4:6, :, 1] = p[:2], 1.0
    right[4:6, 0], right[4:6, 1] = 1.0, q[:2]
    left[6:, :, 0], left[6:, :, 1] = np.sin(p[2:]), np.cos(p[2:])
    right[6:, 0], right[6:, 1] = np.cos(q[2:]), np.sin(q[2:])

    # Angle addition loses relative accuracy as a denominator nears zero,
    # where w peaks. Entries whose denominator product falls under this
    # bound (every singular one does: a sinc argument under 1e-9 or a
    # Dirichlet |sin| under 1e-12, the other factors being at most k edge
    # and 1) are evaluated one by one with _sinc and _dirichlet, which also
    # apply the singular limits.
    bound = 1e-7 * max(1.0, k * edge) ** 2
    n_in, n_out = p.shape[1], q.shape[1]
    grids = np.empty((4, min(CASCADE_TILE, n_in), n_out))
    w = np.empty((n_in, n_out))
    near = np.empty((n_in, n_out), dtype=bool)
    for lo in range(0, n_in, CASCADE_TILE):
        hi = min(lo + CASCADE_TILE, n_in)
        g, w_t, near_t = grids[:, :hi - lo], w[lo:hi], near[lo:hi]
        np.matmul(left[:4, lo:hi], right[:4], out=g)
        np.multiply(g[0], g[1], out=w_t)
        w_t *= g[2]
        w_t *= g[3]
        den = np.matmul(left[4:, lo:hi], right[4:], out=g)[0]
        for m in (1, 2, 3):
            den *= g[m]
        np.less(np.abs(den, out=g[1]), bound, out=near_t)
        np.copyto(den, 1.0, where=near_t)
        w_t /= den
    i, j = np.divmod(np.flatnonzero(near), n_out)
    if i.size:
        x = p[:, i] + q[:, j]
        w[i, j] = np.prod(_sinc(x[:2]), axis=0) \
            * np.prod(_dirichlet(2.0 * x[2:], n[2:]), axis=0)
    return w


# ---------------------------------------------------------------------------
# Cascaded CIR
# ---------------------------------------------------------------------------

def _theta_entries(clusters: ClusterSet, cross: int) -> np.ndarray:
    """(n m, 2) theta-theta and cross entries of each ray's phase/XPR
    matrix: with the cross phase ``cross`` = 2 its first column (leg 1, theta
    at the Tx), with 1 its first row (leg 2, theta at the Rx). The LOS
    specular ray's matrix is diag(1, -1), so its entries are [1, 0]."""
    ph = clusters.phases
    vec = np.empty(ph.shape[:2] + (2,), dtype=np.complex128)
    vec[..., 0] = np.exp(1j * ph[..., 0])
    vec[..., 1] = (1.0 / np.sqrt(clusters.kappa)) * np.exp(1j * ph[..., cross])
    if clusters.state == "LOS":
        vec[0, 0] = (1.0, 0.0)
    return vec.reshape(-1, 2)


def cascade_cir_multi(leg1: ClusterSet, leg2: ClusterSet, panels, design_u,
                      tx: ArrayGeometry, rx: ArrayGeometry, f_hz: float,
                      times=None) -> list:
    """Tx-RIS-Rx cascaded coefficients: double ray sum over the two legs with
    the panel pattern block between the per-leg polarization matrices; one
    tap per cluster pair at delay tau1 + tau2, Doppler from the RIS-Rx leg.

    Leg-1 arrival angles at the panel feed the incident direction and leg-2
    departure angles the outgoing direction, both rotated into the panel
    frame. Several panels sharing geometry (grid and pitch; e.g. ideal vs
    non-ideal modulation) are evaluated against the same legs in one pass;
    one tensor per panel is returned. ``design_u`` is the codebook's design
    vector (``steering_codebook`` or ``uniform_codebook``).

    Both arrays have isotropic theta-polarized elements, so the panel sees
    the first column ``a_vec`` of each leg-1 ray's phase/XPR matrix (theta
    at the Tx) and the first row ``b_vec`` of each leg-2 ray's (theta at the
    Rx); their cross entries reach the taps through the panel's H-polarized
    input and output. With ray powers p_in (leg 1) and p_out (leg 2), the
    cluster-pair taps of a panel are

    taps[a, s, (c, tu)] = sum_{b, d} row_w[a, s, b] term[(a, b), (c, d)]
                                     * col_w[c, d, tu],
    term[i, j] = sqrt(p_in[i] p_out[j])
                 * sum_{q, p} a_vec[i, q] F_panel[i, j, q, p] b_vec[j, p],

    reduced onto leg-2 clusters one tile of front leg-1 rays at a time, then
    onto leg-1 clusters once. Rays are ordered by cluster (a or c), then ray
    (b or d). ``row_w`` (N1, S, M1) holds the leg-1 array phases, ``col_w``
    (N2, M2, TU) the leg-2 array phases and Doppler. Every product spans
    one tile or one cluster: one long contraction over all front rays
    instead rounded differently at one and at two OpenBLAS threads.

    The block scale is -1j k / lam times the taper, so with the r_eval
    factors cancelled term = 1j (-k / lam) area w amp (j.t1 + m.t2) with a
    real pattern weight w = Sx Sy Dx Dy. The currents j, m are tangential,
    so the incident-side factors, the 1j and sqrt(p_in) fold into one (I, 4)
    matrix cur = [j_x, j_y, m_x, m_y] per panel; sqrt(p_out) and the grazing
    mask fold into the (4, J) projection proj onto [t1; t2]. The weight
    grid w (I, J) is built once for all panels by ``_pattern_weights``. With
    P[c, d, tu, q] = proj[q, (c, d)] col_w[c, d, tu] as real pairs, each
    tile then costs one real GEMM per leg-2 cluster,

    T[i, c, tu, q] = sum_d w[i, (c, d)] P[c, d, tu, q],

    shared by the panels, and per panel one matrix-vector product per ray,
    sum_q T[i, c, tu, q] cur[i, q]. Leg-1 rays past the grazing limit
    contribute nothing and are skipped; with none in front every tap is 0.
    """
    ref_panel = panels[0]
    for p in panels[1:]:
        if (p.nx, p.ny, p.d_element) != \
                (ref_panel.nx, ref_panel.ny, ref_panel.d_element):
            raise ConfigurationError("panels in one cascade must share geometry")
    lam = wavelength(f_hz)
    k = 2.0 * math.pi / lam
    edge = ref_panel.d_element
    times = np.zeros(1) if times is None else np.asarray(times, dtype=np.float64)

    n1, m1 = leg1.ray_powers.shape
    n2, m2 = leg2.ray_powers.shape
    a_vec = _theta_entries(leg1, 2)                   # (n1*m1, 2)
    b_vec = _theta_entries(leg2, 1)                   # (n2*m2, 2)

    # Tx array phases [a, s, b] of leg-1 ray b of cluster a; Rx array phase
    # times Doppler [c, d, (t, u)] of leg-2 ray d of cluster c.
    ph_tx = _array_phases(tx, leg1.zod.ravel(), leg1.aod.ravel(), lam)
    ph_rx = _array_phases(rx, leg2.zoa.ravel(), leg2.aoa.ravel(), lam)
    dop = np.exp(2j * math.pi * np.outer(leg2.doppler_hz.ravel(), times))
    ns, nu, nt = ph_tx.shape[1], ph_rx.shape[1], times.size
    n_tu = nt * nu
    row_w = ph_tx.reshape(n1, m1, ns).transpose(0, 2, 1)
    col_w = (dop[:, :, None] * ph_rx[:, None, :]).reshape(n2, m2, n_tu)

    in_zen, in_az = ref_panel.to_local(leg1.zoa.ravel(), leg1.aoa.ravel())
    out_zen, out_az = ref_panel.to_local(leg2.zod.ravel(), leg2.aod.ravel())
    front = np.flatnonzero(in_zen < GRAZING_LIMIT_RAD)
    in_zen, in_az, a_vec = in_zen[front], in_az[front], a_vec[front]

    r_in, th_in, ph_in = _basis(in_zen, in_az)
    r_out, th_out, ph_out = _basis(out_zen, out_az)
    k_r = -r_in
    k_r[:, 2] = -k_r[:, 2]
    v_r = th_in.copy()
    v_r[:, 2] = -v_r[:, 2]
    h_r = -ph_in

    def currents(e):
        # (x, y) of J = z x (k_r x E) and M = -z x E; both have no z part.
        return (k_r[:, :2] * e[:, 2:] - k_r[:, 2:] * e[:, :2],
                np.stack([e[:, 1], -e[:, 0]], axis=1))

    # Incident side: combined currents [j | m] per ray and panel, weighted by
    # the Tx half and scaled by 1j (-k / lam) area sqrt(p_in). The pattern
    # block is indexed [incident, outgoing], so q pairs with the Tx half.
    (j_v, m_v), (j_h, m_h) = currents(v_r), currents(h_r)
    scale = (1j * (-k / lam) * edge * edge) \
        * np.sqrt(leg1.ray_powers.ravel()[front])[:, None]
    cur = []
    for panel in panels:
        gv = a_vec[:, :1] * panel.reflection(in_zen, "V")[:, None]
        gh = a_vec[:, 1:] * panel.reflection(in_zen, "H")[:, None]
        cur.append(scale * np.concatenate([gv * j_v + gh * j_h,
                                           gv * m_v + gh * m_h], axis=1))
    # Outgoing side: projections [t1; t2] weighted by the Rx half.
    b0, b1 = b_vec[:, :1], b_vec[:, 1:]
    gain = np.sqrt(leg2.ray_powers.ravel()) * (out_zen < GRAZING_LIMIT_RAD)
    th_out, ph_out = th_out[:, :2], ph_out[:, :2]
    proj = (gain[:, None] * np.concatenate(
        [b0 * th_out + b1 * ph_out, b0 * ph_out - b1 * th_out], axis=1)).T

    w = _pattern_weights(k, ref_panel, design_u, r_in, r_out)
    n_in = front.size

    # P as real pairs, so that T (see above) is a real GEMM; T's rows are
    # the tile's front rays, so a panel's combination is one batched
    # matrix-vector product whatever TU is.
    p_mat = (proj.reshape(4, n2, m2).transpose(1, 2, 0)[:, :, None, :]
             * col_w[..., None]).view(np.float64).reshape(n2, m2, 8 * n_tu)
    w_by_cluster = w.reshape(n_in, n2, m2).transpose(1, 0, 2)
    t_real = np.empty((min(CASCADE_TILE, n_in), n2, 8 * n_tu))
    t_cplx = t_real.view(np.complex128).reshape(len(t_real), n2 * n_tu, 4)
    reduced = [np.empty((n_in, n2 * n_tu, 1), dtype=np.complex128)
               for _ in panels]
    for lo in range(0, n_in, CASCADE_TILE):
        hi = min(lo + CASCADE_TILE, n_in)
        np.matmul(w_by_cluster[:, lo:hi], p_mat,
                  out=t_real[:hi - lo].transpose(1, 0, 2))
        for c, red in zip(cur, reduced):
            np.matmul(t_cplx[:hi - lo], c[lo:hi, :, None], out=red[lo:hi])
    rays = np.zeros((n1 * m1, n2 * n_tu), dtype=np.complex128)
    taps = []
    for red in reduced:
        rays[front] = red[..., 0]
        taps.append(np.matmul(row_w, rays.reshape(n1, m1, n2 * n_tu)))
    # Free the kernel's buffers, so that the output tensors reuse their pages.
    del w, w_by_cluster, p_mat, t_real, t_cplx, cur, reduced, red, rays

    delays = (leg1.delays_s[:, None] + leg2.delays_s[None, :]).ravel()
    order = np.argsort(delays, kind="stable")

    out = []
    for tap in taps:
        tap = tap.reshape(n1, ns, n2, nt, nu).transpose(3, 4, 1, 0, 2)
        tap = tap.reshape(nt, nu, ns, n1 * n2)
        out.append(CirTensor(coefficients=np.ascontiguousarray(tap[..., order]),
                             tap_delays_s=delays[order], sample_times_s=times))
    return out
