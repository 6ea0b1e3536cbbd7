"""Post-processing metrics over channel tensors and cluster sets.

All metrics are deterministic functions of their inputs. CDF exports round
trip bit-exactly through the CSV writer (floats serialized with repr).
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np


def _float_or_array(values):
    """A reduction's result: a float for one profile, an array for many."""
    return float(values) if np.ndim(values) == 0 else values


def rms_delay_spread(powers, delays_s):
    """Power-weighted second central moment of the delay profile, seconds.

    Reduces over the last axis: ``powers`` and ``delays_s`` (..., n) give one
    spread per leading index, a float for a single profile.
    """
    p = np.asarray(powers, dtype=np.float64)
    tau = np.asarray(delays_s, dtype=np.float64)
    total = p.sum(axis=-1)
    if (total <= 0).any():
        raise ValueError("delay spread undefined for all-zero power")
    m1 = (p * tau).sum(axis=-1) / total
    m2 = (p * tau * tau).sum(axis=-1) / total
    return _float_or_array(np.sqrt(np.maximum(m2 - m1 * m1, 0.0)))


def circular_angular_spread(powers, angles_rad) -> float:
    """Circular (wrapped) angular spread, reported in degrees.

    sigma = sqrt(-2 ln |sum P e^{j phi} / sum P|).
    """
    p = np.asarray(powers, dtype=np.float64)
    ang = np.asarray(angles_rad, dtype=np.float64)
    total = p.sum()
    if total <= 0:
        raise ValueError("angular spread undefined for all-zero power")
    r = abs(complex(np.sum(p * np.exp(1j * ang)) / total))
    r = min(r, 1.0)
    if r == 0.0:
        return math.degrees(math.sqrt(-2.0 * math.log(np.finfo(float).tiny)))
    return math.degrees(math.sqrt(-2.0 * math.log(r)))


def gini_index(powers):
    """Lorenz-curve sparsity measure in [0, 1).

    Mean-absolute-difference form, G = sum_ij |x_i - x_j| / (2 n^2 mean):
    exactly 0 for equal powers and (n-1)/n for a single nonzero entry.
    Computed via the equivalent sorted form. Reduces over the last axis:
    one index per leading index of ``powers`` (..., n), a float for a
    single profile.
    """
    x = np.sort(np.asarray(powers, dtype=np.float64), axis=-1)
    if x.size == 0 or (x < 0).any():
        raise ValueError("powers must be non-negative and non-empty")
    total = x.sum(axis=-1)
    if (total <= 0).any():
        raise ValueError("Gini undefined for all-zero power")
    n = x.shape[-1]
    i = np.arange(1, n + 1, dtype=np.float64)
    return _float_or_array(2.0 * (i * x).sum(axis=-1) / (n * total) - (n + 1.0) / n)


def array_cross_correlation(cfr: np.ndarray, ref_index: int = 0):
    """|Pearson correlation| of complex CFRs across frequency, per element.

    ``cfr`` has shape (elements, freq samples). Returns (rho, defined) where
    ``defined`` is False for zero-variance elements instead of propagating
    NaN.
    """
    h = np.asarray(cfr, dtype=np.complex128)
    if h.ndim != 2 or h.shape[1] < 2:
        raise ValueError("need a (elements, >=2 freq samples) CFR matrix")
    m = h.shape[0]
    if not 0 <= ref_index < m:
        raise ValueError(f"ref_index {ref_index} out of range for {m} elements")
    centered = h - h.mean(axis=1, keepdims=True)
    norms = np.sqrt(np.sum(np.abs(centered) ** 2, axis=1))
    ref = centered[ref_index]
    defined = (norms > 0) & (norms[ref_index] > 0)
    rho = np.zeros(m)
    ok = np.where(defined)[0]
    if norms[ref_index] > 0:
        rho[ok] = np.abs(centered[ok] @ ref.conj()) / (norms[ok] * norms[ref_index])
    return rho, defined


def rsrp(cir, tx_power_dbm: float = 0.0):
    """Received power: tx power plus the antenna-averaged tap-energy sum.

    ``cir`` is a tensor or its coefficients (..., t, u, s, n). Reduces over
    the four trailing axes: one power per leading index, a float for a
    single tensor, and -inf for zero energy.
    """
    coeffs = np.asarray(getattr(cir, "coefficients", cir), dtype=np.complex128)
    energy = (np.abs(coeffs) ** 2).sum(axis=-1)             # sum over taps
    mean_energy = energy.mean(axis=(-3, -2, -1))            # mean over time x rx x tx
    # math.log10 per value: numpy's log10 kernels vary with the SIMD level.
    dbm = [-math.inf if e <= 0 else tx_power_dbm + 10.0 * math.log10(e)
           for e in mean_energy.ravel()]
    return dbm[0] if mean_energy.ndim == 0 else np.reshape(dbm, mean_energy.shape)


# ---------------------------------------------------------------------------
# Reports and CSV export
# ---------------------------------------------------------------------------

@dataclass
class MetricReport:
    """Per-drop scalar metrics plus ensemble CDFs."""

    rows: list = field(default_factory=list)  # list of dicts, one per drop

    def add(self, drop: int, **metrics):
        self.rows.append({"drop": drop, **metrics})

    def column(self, name: str) -> np.ndarray:
        return np.array([row[name] for row in self.rows if name in row], dtype=np.float64)


def _fmt(v) -> str:
    return repr(float(v)) if isinstance(v, (float, np.floating)) else str(v)


def export_metrics_csv(report: MetricReport, path) -> None:
    path = Path(path)
    names = []
    for row in report.rows:
        for k in row:
            if k not in names:
                names.append(k)
    with path.open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(names)
        for row in report.rows:
            w.writerow([_fmt(row[k]) if k in row else "" for k in names])


def export_cdf_csv(values, path) -> None:
    vals = np.sort(np.asarray(values, dtype=np.float64))
    probs = np.arange(1, vals.size + 1, dtype=np.float64) / vals.size
    path = Path(path)
    with path.open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["value", "cdf"])
        for v, p in zip(vals, probs):
            w.writerow([repr(float(v)), repr(float(p))])
