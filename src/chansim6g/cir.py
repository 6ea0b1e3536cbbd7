"""Channel-coefficient assembly (steps 10-12): dual-polarized ray summation
over antenna pairs, taps and time, large-scale scaling, and the bit-exact
tensor file format.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .constants import wavelength
from .geometry import ArrayGeometry, unit_vector
from .pathloss import PathLossSample
from .smallscale import ClusterSet


def _einsum(subscripts: str, *operands):
    """``np.einsum(subscripts, *operands, optimize=True)`` without the
    per-call path search: the path numpy picks depends only on the operand
    shapes, so it is looked up once per shape and passed explicitly."""
    path = _einsum_path(subscripts, *(op.shape for op in operands))
    return np.einsum(subscripts, *operands, optimize=path)


@functools.lru_cache(maxsize=64)
def _einsum_path(subscripts: str, *shapes) -> tuple:
    stand_ins = [np.broadcast_to(0.0, shape) for shape in shapes]
    return tuple(np.einsum_path(subscripts, *stand_ins, optimize=True)[0])


# ---------------------------------------------------------------------------
# Antenna field patterns
# ---------------------------------------------------------------------------

def pattern_isotropic(zenith, azimuth):
    """Unit theta-polarized isotropic element."""
    z = np.broadcast_arrays(np.asarray(zenith, dtype=np.float64),
                            np.asarray(azimuth, dtype=np.float64))[0]
    return np.ones_like(z), np.zeros_like(z)


# ---------------------------------------------------------------------------
# CIR tensor
# ---------------------------------------------------------------------------

@dataclass
class CirTensor:
    """Complex channel coefficients indexed (time, rx element, tx element, tap)."""

    coefficients: np.ndarray
    tap_delays_s: np.ndarray
    sample_times_s: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        c = np.asarray(self.coefficients, dtype=np.complex128)
        if c.ndim != 4:
            raise ValueError(f"coefficients must be 4-D (t,u,s,n), got {c.shape}")
        tap = np.asarray(self.tap_delays_s, dtype=np.float64)
        t = np.asarray(self.sample_times_s, dtype=np.float64)
        if tap.shape != (c.shape[3],) or t.shape != (c.shape[0],):
            raise ValueError("axis metadata inconsistent with coefficient dims")
        if np.any(np.diff(tap) < 0):
            raise ValueError("tap delays must be sorted")
        if not np.all(np.isfinite(c)):
            raise ValueError("non-finite channel coefficient")
        self.coefficients = c
        self.tap_delays_s = tap
        self.sample_times_s = t

    @property
    def shape(self):
        return self.coefficients.shape


def _polarization_matrices(clusters: ClusterSet) -> np.ndarray:
    """(n, m, 2, 2) phase/XPR matrices; the LOS specular ray gets the
    deterministic co-polar form diag(1, -1)."""
    ph = clusters.phases
    inv_sqrt_kappa = 1.0 / np.sqrt(clusters.kappa)
    mat = np.empty(ph.shape[:2] + (2, 2), dtype=np.complex128)
    mat[..., 0, 0] = np.exp(1j * ph[..., 0])
    mat[..., 0, 1] = inv_sqrt_kappa * np.exp(1j * ph[..., 1])
    mat[..., 1, 0] = inv_sqrt_kappa * np.exp(1j * ph[..., 2])
    mat[..., 1, 1] = np.exp(1j * ph[..., 3])
    if clusters.specular:
        mat[0, 0] = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=np.complex128)
    return mat


def synthesize_cir(clusters: ClusterSet, tx: ArrayGeometry, rx: ArrayGeometry,
                   f_hz: float, times=None, tx_pattern=pattern_isotropic,
                   rx_pattern=pattern_isotropic) -> CirTensor:
    """Dual-polarized coefficient tensor for one drop, one tap per cluster.

    Per ray: [Rx pattern row] . [2x2 phase/XPR matrix] . [Tx pattern column]
    scaled by the ray power root, times array phase factors and the Doppler
    factor.
    """
    lam = wavelength(f_hz)
    t = np.zeros(1) if times is None else np.asarray(times, dtype=np.float64)

    n, m = clusters.ray_powers.shape
    r_rx = unit_vector(clusters.zoa, clusters.aoa)        # (n, m, 3)
    r_tx = unit_vector(clusters.zod, clusters.aod)

    try:
        frx_t, frx_p = rx_pattern(clusters.zoa, clusters.aoa)
        ftx_t, ftx_p = tx_pattern(clusters.zod, clusters.aod)
    except Exception as exc:
        raise ValueError(
            f"antenna pattern evaluation failed for ray angles "
            f"zoa={clusters.zoa!r}, aoa={clusters.aoa!r}: {exc}") from exc
    frx_t = np.broadcast_to(frx_t, (n, m))
    frx_p = np.broadcast_to(frx_p, (n, m))
    ftx_t = np.broadcast_to(ftx_t, (n, m))
    ftx_p = np.broadcast_to(ftx_p, (n, m))

    pol = _polarization_matrices(clusters)
    # Scalar pattern chain per ray: F_rx^T . M . F_tx
    chain = (frx_t * (pol[..., 0, 0] * ftx_t + pol[..., 0, 1] * ftx_p)
             + frx_p * (pol[..., 1, 0] * ftx_t + pol[..., 1, 1] * ftx_p))
    amp = np.sqrt(clusters.ray_powers) * chain                       # (n, m)

    phase_rx = np.exp(2j * np.pi / lam *
                      np.tensordot(r_rx, rx.element_positions.T, axes=1))  # (n, m, u)
    phase_tx = np.exp(2j * np.pi / lam *
                      np.tensordot(r_tx, tx.element_positions.T, axes=1))  # (n, m, s)
    dop = np.exp(2j * np.pi * clusters.doppler_hz[..., None] * t)          # (n, m, t)

    coeffs = _einsum("nm,nmu,nms,nmt->tusn", amp, phase_rx, phase_tx, dop)
    return CirTensor(coefficients=coeffs, tap_delays_s=clusters.delays_s.copy(),
                     sample_times_s=t,
                     meta={"f_hz": f_hz, "state": clusters.state})


def apply_large_scale(cir: CirTensor, pl: PathLossSample) -> CirTensor:
    """Scale every coefficient by the total loss amplitude factor."""
    scale = 10.0 ** (-pl.total_db / 20.0)
    meta = dict(cir.meta)
    meta.update({"pl_db": pl.pl_db, "shadow_db": pl.shadow_db, "pl_model": pl.model})
    return replace(cir, coefficients=cir.coefficients * scale, meta=meta)


# ---------------------------------------------------------------------------
# Bit-exact file format: one UTF-8 JSON header line, then little-endian
# float64 (re, im) pairs in (t, u, s, n) row-major order.
# ---------------------------------------------------------------------------

def write_cir(cir: CirTensor, path) -> None:
    path = Path(path)
    header = {
        "dims": list(cir.shape),
        "tap_delays_s": [float(v) for v in cir.tap_delays_s],
        "sample_times_s": [float(v) for v in cir.sample_times_s],
        "config_hash": cir.meta.get("config_hash", ""),
        "seed": cir.meta.get("seed", 0),
    }
    payload = np.empty(cir.coefficients.shape + (2,), dtype="<f8")
    payload[..., 0] = cir.coefficients.real
    payload[..., 1] = cir.coefficients.imag
    with path.open("wb") as fh:
        fh.write(json.dumps(header, sort_keys=True).encode("utf-8"))
        fh.write(b"\n")
        fh.write(payload.tobytes(order="C"))


def read_cir(path) -> CirTensor:
    path = Path(path)
    with path.open("rb") as fh:
        header = json.loads(fh.readline().decode("utf-8"))
        dims = tuple(header["dims"])
        count = 2 * int(np.prod(dims))
        raw = np.frombuffer(fh.read(count * 8), dtype="<f8")
    if raw.size != count:
        raise ValueError(f"truncated tensor file {path}")
    flat = raw.reshape(dims + (2,))
    coeffs = flat[..., 0] + 1j * flat[..., 1]
    return CirTensor(coefficients=coeffs,
                     tap_delays_s=np.array(header["tap_delays_s"]),
                     sample_times_s=np.array(header["sample_times_s"]),
                     meta={"config_hash": header.get("config_hash", ""),
                           "seed": header.get("seed", 0)})
