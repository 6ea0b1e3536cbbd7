"""Broadcast form of the RIS panel pattern: the test oracle for the closed
form that ``ris.cascade_cir_multi`` computes.

Element reflection, the equivalence-theorem element pattern and the
coherent panel pattern are evaluated here direction by direction on
broadcast arrays, with the same conventions as ``chansim6g.ris`` (panel
frame, [incident pol, outgoing pol] blocks). Acceptance criterion 7,
``test_ris.py`` and its ``TestTiledKernel`` compare the program against
these functions; no campaign runs them.
"""

import math

import numpy as np

from chansim6g.constants import wavelength
from chansim6g.geometry import ConfigurationError, unit_vector
from chansim6g.ris import (GRAZING_LIMIT_RAD, RisPanel, _basis, _dirichlet,
                           _reflection_arrays, _sinc)


def element_reflection(z_e: complex, z_m: complex, theta_in: float,
                       pol: str = "V") -> complex:
    """Reflection coefficient of a thin sheet with electric impedance ``z_e``
    and magnetic impedance ``z_m`` at incidence ``theta_in`` (the short
    (PEC) limit gives -1 for V)."""
    if not (0.0 <= theta_in < math.pi / 2):
        raise ValueError(f"incidence angle must be in [0, pi/2), got {theta_in}")
    val = _reflection_arrays(complex(z_e), complex(z_m),
                             np.asarray(math.cos(theta_in)), pol.upper())
    return complex(val)


def polarization_matrices(clusters) -> np.ndarray:
    """(n, m, 2, 2) phase/XPR matrices; the LOS specular ray gets the
    deterministic co-polar form diag(1, -1)."""
    ph = clusters.phases
    inv_sqrt_kappa = 1.0 / np.sqrt(clusters.kappa)
    mat = np.empty(ph.shape[:2] + (2, 2), dtype=np.complex128)
    mat[..., 0, 0] = np.exp(1j * ph[..., 0])
    mat[..., 0, 1] = inv_sqrt_kappa * np.exp(1j * ph[..., 1])
    mat[..., 1, 0] = inv_sqrt_kappa * np.exp(1j * ph[..., 2])
    mat[..., 1, 1] = np.exp(1j * ph[..., 3])
    if clusters.state == "LOS":
        mat[0, 0] = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=np.complex128)
    return mat


def grid_coords(panel: RisPanel):
    """Element center coordinates about the panel center, meters."""
    xs = (np.arange(1, panel.nx + 1) - (1 + panel.nx) / 2.0) * panel.d_element
    ys = (np.arange(1, panel.ny + 1) - (1 + panel.ny) / 2.0) * panel.d_element
    return xs, ys


def element_positions(panel: RisPanel) -> np.ndarray:
    xs, ys = grid_coords(panel)
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    return np.stack([gx.ravel(), gy.ravel(), np.zeros(gx.size)], axis=-1)


def _element_blocks(panel: RisPanel, in_dir, out_dir, f_hz: float,
                    r_eval: float = 100.0):
    """Element pattern block from the reflected-field equivalent currents.

    The incident-field half of the Huygens pair radiates into the forward
    half-space and contributes nothing to the reflection hemisphere, so the
    currents here are J = n x H_r, M = -n x E_r; the block is therefore
    exactly proportional to the element reflection coefficient. Returns
    (..., 2, 2) arrays indexed [p1, p2], already carrying the
    angle-dependent Gamma (or unit magnitude in ideal mode).
    """
    zen_i, az_i = (np.asarray(a, dtype=np.float64) for a in in_dir)
    zen_o, az_o = (np.asarray(a, dtype=np.float64) for a in out_dir)
    zen_i, az_i, zen_o, az_o = np.broadcast_arrays(zen_i, az_i, zen_o, az_o)
    shape = zen_i.shape

    lam = wavelength(f_hz)
    k = 2.0 * math.pi / lam
    edge = panel.d_element              # square aperture filling the pitch
    area = edge * edge

    r_in, th_in, ph_in = _basis(zen_i, az_i)
    r_out, th_out, ph_out = _basis(zen_o, az_o)
    k_i = -r_in
    k_r = k_i.copy()
    k_r[..., 2] = -k_r[..., 2]

    # Reflected-field polarization basis consistent with the PEC limits:
    # tangential E cancels for V with Gamma = -1 and for H with Gamma = +1.
    v_r = th_in.copy()
    v_r[..., 2] = -v_r[..., 2]
    h_r = -ph_in

    gamma_v = panel.reflection(zen_i, "V")
    gamma_h = panel.reflection(zen_i, "H")

    du = r_out[..., 0] + r_in[..., 0]
    dv = r_out[..., 1] + r_in[..., 1]
    taper = area * _sinc(0.5 * k * du * edge) * _sinc(0.5 * k * dv * edge)

    z_hat = np.zeros(shape + (3,))
    z_hat[..., 2] = 1.0
    prefactor = -1j * k * np.exp(-1j * k * r_eval) / (4.0 * math.pi * r_eval)
    norm = (4.0 * math.pi / lam) * r_eval * np.exp(1j * k * r_eval)
    scale = (norm * prefactor) * taper

    block_ref = np.empty(shape + (2, 2), dtype=np.complex128)
    for p1, (e_r, gamma) in enumerate(((v_r, gamma_v), (h_r, gamma_h))):
        field = gamma[..., None] * e_r
        h_vec = np.cross(k_r, field)        # eta-normalized H
        j_s = np.cross(z_hat, h_vec)        # eta * J_s
        m_s = -np.cross(z_hat, field)
        n_th = np.sum(j_s * th_out, axis=-1)
        n_ph = np.sum(j_s * ph_out, axis=-1)
        l_th = np.sum(m_s * th_out, axis=-1)
        l_ph = np.sum(m_s * ph_out, axis=-1)
        block_ref[..., p1, 0] = scale * (n_th + l_ph)
        block_ref[..., p1, 1] = scale * (n_ph - l_th)
    return block_ref


def element_pattern(panel: RisPanel, in_dir, out_dir, f_hz: float,
                    codebook_phase=0.0, r_eval: float = 100.0) -> np.ndarray:
    """2x2 complex pattern block F[p1, p2] of a single element.

    Equivalent surface currents are formed from the reflected field of a
    uniform-field rectangular patch and radiated to ``out_dir``; the
    evaluation distance ``r_eval`` cancels by construction. The codebook
    phase multiplies the whole block (it modulates the reflection).
    """
    ref = _element_blocks(panel, in_dir, out_dir, f_hz, r_eval=r_eval)
    beta = np.exp(1j * np.asarray(codebook_phase))
    return beta[..., None, None] * ref if np.ndim(codebook_phase) \
        else complex(beta) * ref


def overall_pattern(panel: RisPanel, codebook, in_dir, out_dir,
                    f_hz: float) -> np.ndarray:
    """Coherent panel pattern: element blocks summed with per-element
    position phases exp(j k r_in.d) exp(j k r_out.d) and codebook phases.
    ``codebook`` is a steering design vector (2,), summed in closed form, or
    an (nx, ny) table of per-element phases in radians, summed element by
    element. Directions behind the panel give zeros. Returns F[..., p1, p2].
    """
    zen_i, az_i = (np.asarray(a, dtype=np.float64) for a in in_dir)
    zen_o, az_o = (np.asarray(a, dtype=np.float64) for a in out_dir)
    zen_i, az_i, zen_o, az_o = np.broadcast_arrays(zen_i, az_i, zen_o, az_o)
    k = 2.0 * math.pi / wavelength(f_hz)

    front = (zen_i < GRAZING_LIMIT_RAD) & (zen_o < GRAZING_LIMIT_RAD)
    ref = _element_blocks(panel, (zen_i, az_i), (zen_o, az_o), f_hz)

    u = unit_vector(zen_i, az_i) + unit_vector(zen_o, az_o)
    codebook = np.asarray(codebook, dtype=np.float64)
    if codebook.ndim == 1:
        du = u[..., 0] - codebook[0]
        dv = u[..., 1] - codebook[1]
        af_cb = (_dirichlet(k * du * panel.d_element, panel.nx)
                 * _dirichlet(k * dv * panel.d_element, panel.ny))
    else:
        if codebook.shape != (panel.nx, panel.ny):
            raise ConfigurationError("codebook table shape mismatch")
        pos = element_positions(panel)
        af_cb = np.einsum("...p->...",
                          np.exp(1j * (k * np.tensordot(u, pos.T, axes=1)
                                       + codebook.ravel())))

    return ref * af_cb[..., None, None] * front[..., None, None]
