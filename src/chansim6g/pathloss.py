"""Closed-form large-scale loss models: CI, ABG, satellite free-space slant
loss, and the two-way radar echo loss for sensing links.

All returns are in dB. Shadow fading is the SF component of a drop's
correlated large-scale parameter draw (no spatial autocorrelation).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import C_LIGHT
from .geometry import ConfigurationError

_REF_DISTANCE_M = 1.0  # d0 of the CI and ABG models


@dataclass(frozen=True)
class AbgParams:
    alpha: float      # distance exponent
    beta_db: float    # offset, dB
    gamma: float      # frequency exponent
    sigma_db: float   # shadow std, dB

    def __post_init__(self):
        if self.sigma_db < 0:
            raise ValueError(f"shadow sigma must be >= 0, got {self.sigma_db}")


@dataclass(frozen=True)
class PathLossSample:
    pl_db: float
    shadow_db: float

    def __post_init__(self):
        if not math.isfinite(self.pl_db):
            raise ValueError(f"non-finite path loss {self.pl_db}")

    @property
    def total_db(self) -> float:
        return self.pl_db + self.shadow_db


def pl_ci(d: float, f: float, alpha_ci: float) -> float:
    """Close-in model with 1 m free-space reference."""
    if d < _REF_DISTANCE_M:
        raise ValueError(f"CI model requires d >= 1 m, got {d}")
    if f <= 0:
        raise ValueError(f"frequency must be positive, got {f}")
    fspl_1m = 20.0 * math.log10(4.0 * math.pi * _REF_DISTANCE_M * f / C_LIGHT)
    return fspl_1m + 10.0 * alpha_ci * math.log10(d / _REF_DISTANCE_M)


def pl_abg(d: float, f_ghz: float, params: AbgParams) -> float:
    """Alpha-beta-gamma model; frequency in GHz relative to 1 GHz."""
    if d < _REF_DISTANCE_M:
        raise ValueError(f"ABG model requires d >= 1 m, got {d}")
    if f_ghz <= 0:
        raise ValueError(f"frequency must be positive, got {f_ghz}")
    return (10.0 * params.alpha * math.log10(d / _REF_DISTANCE_M)
            + params.beta_db + 10.0 * params.gamma * math.log10(f_ghz))


def pl_sagin(slant: float, f: float, extra_atten_db: float = 0.0) -> float:
    """Friis free-space loss over the slant range plus a scalar attenuation
    hook for meteorological/clutter effects."""
    if slant <= 0:
        raise ValueError(f"slant range must be positive, got {slant}")
    if f <= 0:
        raise ValueError(f"frequency must be positive, got {f}")
    if extra_atten_db < 0:
        raise ConfigurationError(f"extra attenuation must be >= 0 dB, got {extra_atten_db}")
    return 20.0 * math.log10(4.0 * math.pi * slant * f / C_LIGHT) + extra_atten_db


def pl_radar_echo(d_tx_target: float, d_target_rx: float, f: float,
                  rcs_dbsm: float = 0.0) -> float:
    """Bistatic radar-equation two-way loss; monostatic when d1 == d2.

    Loss = 20lg(4pi) + 20lg(d1*d2) + 20lg(f/c) + 10lg(4pi) - RCS[dBsm].
    """
    if d_tx_target <= 0 or d_target_rx <= 0:
        raise ValueError("radar leg distances must be positive")
    if f <= 0:
        raise ValueError(f"frequency must be positive, got {f}")
    four_pi = 4.0 * math.pi
    return (20.0 * math.log10(four_pi)
            + 20.0 * math.log10(d_tx_target * d_target_rx)
            + 20.0 * math.log10(f / C_LIGHT)
            + 10.0 * math.log10(four_pi)
            - rcs_dbsm)


def fit_abg(d: np.ndarray, f_ghz: np.ndarray, pl_db: np.ndarray) -> AbgParams:
    """Least-squares ABG fit over (distance, frequency, loss) samples.

    The model is linear in (alpha, beta, gamma); sigma is estimated from the
    fit residuals.
    """
    d = np.asarray(d, dtype=np.float64)
    f_ghz = np.asarray(f_ghz, dtype=np.float64)
    pl_db = np.asarray(pl_db, dtype=np.float64)
    if d.shape != f_ghz.shape or d.shape != pl_db.shape:
        raise ValueError("d, f_ghz and pl_db must have matching shapes")
    if np.any(d < _REF_DISTANCE_M) or np.any(f_ghz <= 0):
        raise ValueError("fit samples must satisfy d >= 1 m and f > 0")
    a = np.column_stack([10.0 * np.log10(d), np.ones_like(d), 10.0 * np.log10(f_ghz)])
    coef, *_ = np.linalg.lstsq(a, pl_db, rcond=None)
    resid = pl_db - a @ coef
    sigma = float(np.std(resid, ddof=3)) if pl_db.size > 3 else 0.0
    return AbgParams(alpha=float(coef[0]), beta_db=float(coef[1]),
                     gamma=float(coef[2]), sigma_db=sigma)
