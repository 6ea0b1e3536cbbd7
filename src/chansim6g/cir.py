"""Channel-coefficient assembly (steps 10-12): ray summation over antenna
pairs, taps and time, large-scale scaling, and the bit-exact tensor file
format.

Every array element is isotropic and theta-polarized; no antenna-pattern
option exists. A ray's 2x2 phase/XPR matrix therefore reaches a tensor only
through its theta-theta entry, except in the RIS cascade, where its cross
entries (XPR and the two cross phases) weight the panel's H-polarized input
and output.
"""

from __future__ import annotations

import copy
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .constants import wavelength
from .geometry import ArrayGeometry, unit_vector
from .pathloss import PathLossSample
from .smallscale import ClusterSet


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
        _check_finite(c)
        self.coefficients = c
        self.tap_delays_s = tap
        self.sample_times_s = t

    @property
    def shape(self):
        return self.coefficients.shape


def _check_finite(coefficients: np.ndarray) -> None:
    if not np.all(np.isfinite(coefficients)):
        raise ValueError("non-finite channel coefficient")


def _array_phases(array: ArrayGeometry, zen, az, lam: float) -> np.ndarray:
    """Element phase factors exp(j 2 pi r.p / lam) of the rays arriving or
    leaving along (zen, az), shape ``zen.shape + (elements,)``."""
    # np.tensordot's own operands to np.dot, so the BLAS call keeps its
    # shape (and the bytes), without tensordot's set-up.
    u = unit_vector(zen, az)
    r_dot_p = np.dot(u.reshape(-1, 3), array.element_positions.T)
    return np.exp(2j * np.pi / lam * r_dot_p.reshape(u.shape[:-1] + (-1,)))


def synthesize_cir(clusters: ClusterSet, tx: ArrayGeometry, rx: ArrayGeometry,
                   f_hz: float, times=None) -> CirTensor:
    """Coefficient tensor for one drop, one tap per cluster.

    Both ends have isotropic theta-polarized elements, so per ray the
    theta-theta entry of its phase/XPR matrix, scaled by the ray power root,
    times the array phase factors and the Doppler factor.
    """
    lam = wavelength(f_hz)
    t = np.zeros(1) if times is None else np.asarray(times, dtype=np.float64)
    # The theta-theta entry of each ray's phase/XPR matrix: 1 on the LOS
    # specular ray, whose matrix is the co-polar diag(1, -1).
    tt = np.exp(1j * clusters.phases[..., 0])
    if clusters.state == "LOS":
        tt[0, 0] = 1.0
    amp = np.sqrt(clusters.ray_powers) * tt
    phase_rx = _array_phases(rx, clusters.zoa, clusters.aoa, lam)       # (n, m, u)
    phase_tx = _array_phases(tx, clusters.zod, clusters.aod, lam)       # (n, m, s)
    dop = np.exp(2j * np.pi * clusters.doppler_hz[..., None] * t)       # (n, m, t)

    # Per cluster n: the (t*u, m) products times the (m, s) tx phases.
    left = (amp[..., None] * dop)[..., None] * phase_rx[:, :, None, :]  # (n, m, t, u)
    n, m, nt, nu = left.shape
    coeffs = np.matmul(left.reshape(n, m, nt * nu).transpose(0, 2, 1), phase_tx)
    return CirTensor(coefficients=coeffs.reshape(n, nt, nu, -1).transpose(1, 2, 3, 0),
                     tap_delays_s=clusters.delays_s.copy(), sample_times_s=t)


def apply_large_scale(cir: CirTensor, pl: PathLossSample) -> CirTensor:
    """Scale every coefficient by the total loss amplitude factor.

    Scaling keeps the checked tensor's shape, axes and tap order, so of its
    checks only finiteness runs again: a large gain can overflow.
    """
    scale = 10.0 ** (-pl.total_db / 20.0)
    coefficients = cir.coefficients * scale
    _check_finite(coefficients)
    scaled = copy.copy(cir)     # shares the axes; no __post_init__
    scaled.coefficients = coefficients
    scaled.meta = {**cir.meta, "pl_db": pl.pl_db}
    return scaled


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
    with path.open("wb") as fh:
        fh.write(json.dumps(header, sort_keys=True).encode("utf-8"))
        fh.write(b"\n")
        fh.write(cir.coefficients.astype("<c16").tobytes(order="C"))


def read_cir(path) -> CirTensor:
    with open(path, "rb") as fh:
        blob = fh.read()
    nl = blob.find(b"\n") + 1 or len(blob)
    header = json.loads(blob[:nl].decode("utf-8"))
    dims = tuple(header["dims"])
    size = math.prod(dims) * 16
    if len(blob) - nl != size:
        raise ValueError(f"{path}: tensor payload is {len(blob) - nl} B, "
                         f"dims {list(dims)} need {size} B")
    raw = np.frombuffer(blob[nl:], dtype="<c16")
    return CirTensor(coefficients=raw.reshape(dims),
                     tap_delays_s=np.array(header["tap_delays_s"]),
                     sample_times_s=np.array(header["sample_times_s"]),
                     meta={"config_hash": header.get("config_hash", ""),
                           "seed": header.get("seed", 0)})
