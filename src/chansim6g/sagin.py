"""SAGIN extension: non-terrestrial drops with ECEF geometry and
elevation-keyed parameters, the log-normal-plus-Rayleigh envelope model, and
weather effects folded into the Rician K-factor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .geometry import los_directions, single_element, slant_geometry
from .largescale import generate_lsps, lookup_lsp_table
from .pathloss import PathLossSample, pl_sagin
from .smallscale import generate_clusters
from .cir import CirTensor, apply_large_scale, synthesize_cir


@dataclass(frozen=True)
class SgEnvelopeParams:
    """Received-envelope model: log-normal direct phasor plus Rayleigh
    diffuse phasor, with the weather terms expressed as K-factor components."""

    lognormal_mu: float        # mean of ln(z)
    lognormal_sigma: float     # std of ln(z)
    rayleigh_scale: float

    def __post_init__(self):
        if self.lognormal_sigma < 0:
            raise ValueError("log-normal sigma must be >= 0")
        if self.rayleigh_scale < 0:
            raise ValueError("Rayleigh scale must be >= 0")


def sample_envelope(params: SgEnvelopeParams, rng: np.random.Generator,
                    size=None) -> np.ndarray:
    """r = z e^{j phi0} + w e^{j phi}: z log-normal, w Rayleigh, independent
    uniform phases on [0, 2 pi)."""
    z = rng.lognormal(params.lognormal_mu, params.lognormal_sigma, size=size) \
        if params.lognormal_sigma > 0 else np.exp(params.lognormal_mu) * np.ones(
            size if size is not None else ())
    w = rng.rayleigh(params.rayleigh_scale, size=size) \
        if params.rayleigh_scale > 0 else np.zeros(size if size is not None else ())
    phi0 = rng.uniform(0.0, 2.0 * math.pi, size=size)
    phi = rng.uniform(0.0, 2.0 * math.pi, size=size)
    return z * np.exp(1j * phi0) + w * np.exp(1j * phi)


def weather_adjusted_k(k_los_db: float, k_rain_db: float = 0.0,
                       k_cloud_db: float = 0.0) -> float:
    """K_total = K_LOS - K_Rain - K_Cloud, plain dB arithmetic."""
    for name, v in (("k_los_db", k_los_db), ("k_rain_db", k_rain_db),
                    ("k_cloud_db", k_cloud_db)):
        if not math.isfinite(v):
            raise ValueError(f"{name} must be finite, got {v}")
    return k_los_db - k_rain_db - k_cloud_db


def ntn_drop(scenario: str, state: str, f_hz: float, sat_height_m: float,
             elevation_rad: float, streams, extra_atten_db: float = 0.0,
             k_rain_db: float = 0.0, k_cloud_db: float = 0.0, times=None):
    """Space-to-ground drops: spherical-Earth slant geometry, free-space
    slant loss plus clutter/attenuation hooks, elevation-keyed fast-fading
    parameters, then the standard small-scale pipeline with the K-factor
    replaced by its weather-adjusted value.

    ``streams`` is a sequence of DropStreams, one per drop, and the result
    one CirTensor per drop; a single drop is a block of one. The block
    shares the geometry, table entry and slant loss and generates its
    clusters in one ``generate_clusters`` call.
    """
    geom = slant_geometry(sat_height_m, elevation_rad)
    entry = lookup_lsp_table(scenario, state, f_hz,
                             elevation_deg=math.degrees(elevation_rad))
    lsps = []
    for s in streams:
        drawn = generate_lsps(entry, s.get("lsp"))
        lsps.append(replace(drawn, k_db=weather_adjusted_k(drawn.k_db, k_rain_db,
                                                           k_cloud_db)))
    pl_db = pl_sagin(geom.slant_range, f_hz,
                     extra_atten_db=extra_atten_db + entry.clutter_loss_db)

    dirs = los_directions(geom.sat_position, geom.ue_position)
    clusters = generate_clusters(entry, lsps, dirs, state,
                                 velocity=(0.0, 0.0, 0.0), f_hz=f_hz,
                                 streams=streams)
    antenna = single_element()
    cirs = []
    for cl, drawn in zip(clusters, lsps):
        cir = synthesize_cir(cl, tx=antenna, rx=antenna, f_hz=f_hz, times=times)
        # The shadow term is the correlated SF component of the LSP draw.
        cir = apply_large_scale(cir, PathLossSample(pl_db=pl_db, shadow_db=drawn.sf_db))
        cir.meta.update(slant_range_m=geom.slant_range, k_total_db=drawn.k_db)
        cirs.append(cir)
    return cirs
