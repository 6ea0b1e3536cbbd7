"""E-MIMO extension: spherical-wave array manifold, two-state Markov
visibility masks along the array, and assembly of the spatially
non-stationary channel frequency response H = S (.) A(f) . H(f).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .constants import C_LIGHT
from .geometry import ArrayGeometry, unit_vector
from .smallscale import ClusterSet


@dataclass(frozen=True)
class Paths:
    """Propagation paths seen from the array reference point, one row each."""

    sources: np.ndarray  # (k, 3) vectors from the reference point to the first scatterers
    alpha: np.ndarray    # (k,) complex amplitudes at the reference point
    tau_s: np.ndarray    # (k,) propagation delays

    def __post_init__(self):
        src = np.asarray(self.sources, dtype=np.float64)
        if src.ndim != 2 or src.shape[1] != 3:
            raise ValueError(f"sources must be 3-vectors, got shape {src.shape}")
        if np.any(np.linalg.norm(src, axis=1) <= 0):
            raise ValueError("scattering source cannot coincide with the reference point")
        alpha = np.asarray(self.alpha, dtype=np.complex128)
        tau = np.asarray(self.tau_s, dtype=np.float64)
        if alpha.shape != (len(src),) or tau.shape != (len(src),):
            raise ValueError(f"need one amplitude and delay per source, got "
                             f"{alpha.shape} and {tau.shape} for {len(src)}")
        object.__setattr__(self, "sources", src)
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "tau_s", tau)


@dataclass(frozen=True)
class SnsMask:
    """Element-by-path visibility weights in [0, 1]."""

    s: np.ndarray  # (elements, paths)

    def __post_init__(self):
        s = np.asarray(self.s, dtype=np.float64)
        if s.ndim != 2:
            raise ValueError("mask must be 2-D (elements, paths)")
        if np.any(s < 0) or np.any(s > 1):
            raise ValueError("mask entries must lie in [0, 1]")
        object.__setattr__(self, "s", s)


def paths_from_clusters(clusters: ClusterSet, link_distance_m: float) -> Paths:
    """Reconstruct single-bounce path geometry from a stochastic drop.

    Path 1 is the direct ray at the link distance; scatterers for the
    remaining clusters are placed along the cluster arrival direction at the
    range implied by the absolute delay, r == (d_link + c*tau_excess)/2.
    Amplitudes carry the cluster power root with the drop's first-ray phase.
    """
    if link_distance_m <= 0:
        raise ValueError("link distance must be positive")
    ranges = 0.5 * (link_distance_m + C_LIGHT * clusters.delays_s)
    if clusters.state == "LOS":
        ranges[0] = link_distance_m
    return Paths(
        sources=unit_vector(clusters.zoa[:, 0], clusters.aoa[:, 0]) * ranges[:, None],
        alpha=np.sqrt(clusters.powers) * np.exp(1j * clusters.phases[:, 0, 0]),
        tau_s=link_distance_m / C_LIGHT + clusters.delays_s)


def _ranges(paths: Paths, elements):
    """Ranges |d_k| (k,) of the paths' scattering sources from the reference
    point and |d_k - e_m| (elements, k) from each element."""
    pos = elements.element_positions if isinstance(elements, ArrayGeometry) \
        else np.asarray(elements, dtype=np.float64)
    src = paths.sources
    d_elem = np.linalg.norm(src[None, :, :] - pos[:, None, :], axis=-1)
    if np.any(d_elem <= 0):
        raise ValueError("an array element coincides with a scattering source")
    return np.linalg.norm(src, axis=1), d_elem


def spherical_manifold(paths: Paths, elements, f_hz: float) -> np.ndarray:
    """Exact spherical-wave manifold A(f), shape (elements, paths).

    a_{m,k} = (|d_k| / |d_k - e_m|) * exp(-j 2 pi f (|d_k - e_m| - |d_k|)/c).
    The reference element (zero offset) maps to exactly 1 for every path.
    """
    d_ref, d_elem = _ranges(paths, elements)
    return (d_ref[None, :] / d_elem) * np.exp(
        -2j * np.pi * f_hz * (d_elem - d_ref[None, :]) / C_LIGHT)


def planar_manifold(paths: Paths, elements, f_hz: float) -> np.ndarray:
    """Plane-wave approximation of the manifold (far-field limit)."""
    pos = elements.element_positions if isinstance(elements, ArrayGeometry) \
        else np.asarray(elements, dtype=np.float64)
    d_hat = paths.sources / np.linalg.norm(paths.sources, axis=1, keepdims=True)
    proj = pos @ d_hat.T                                    # (m, k)
    return np.exp(2j * np.pi * f_hz * proj / C_LIGHT)


def path_cfr(paths: Paths, f_hz: float) -> np.ndarray:
    """Reference-point path CFRs alpha_k exp(-j 2 pi f tau_k), shape (k,)."""
    return paths.alpha * np.exp(-2j * np.pi * f_hz * paths.tau_s)


def gen_sns_mask(m: int, k: int, stationary_region: int,
                 rng: np.random.Generator) -> SnsMask:
    """Binary visibility mask from a two-state Markov chain over element index.

    Every path starts visible at the reference end of the array; states flip
    with probability 1/stationary_region per element step, giving a mean
    sojourn of ``stationary_region`` elements. Path 1 (the LOS/specular path)
    is always fully visible.
    """
    if stationary_region < 1:
        raise ValueError(f"stationary region must be >= 1, got {stationary_region}")
    if m < 1 or k < 1:
        raise ValueError("mask dimensions must be >= 1")
    s = np.ones((m, k))
    u = rng.uniform(size=(m - 1, k - 1))   # draws nothing if m or k is 1
    s[1:, 1:] = ~np.logical_xor.accumulate(u < 1.0 / float(stationary_region), axis=0)
    return SnsMask(s=s)


def assemble_sns_cfr(mask: SnsMask, manifold: np.ndarray,
                     cfr: np.ndarray) -> np.ndarray:
    """Per-element CFR: elementwise product of mask and manifold, applied to
    the path CFR vector."""
    s = mask.s
    if s.shape != manifold.shape:
        raise ValueError(f"mask {s.shape} and manifold {manifold.shape} disagree")
    cfr = np.asarray(cfr)
    if cfr.shape != (s.shape[1],):
        raise ValueError(f"need {s.shape[1]} path CFRs, got shape {cfr.shape}")
    return (s * manifold) @ cfr


def sns_cfr_band(paths: Paths, elements, mask: SnsMask, freqs_hz) -> np.ndarray:
    """CFR matrix over a frequency grid, shape (elements, freqs).

    Equivalent to assembling per frequency, with the path geometry reduced to
    per-element excess distances once.
    """
    freqs = np.atleast_1d(np.asarray(freqs_hz, dtype=np.float64))
    d_ref, d_elem = _ranges(paths, elements)
    # Total per-element path delay: tau_k plus the spherical excess.
    delay = paths.tau_s[None, :] + (d_elem - d_ref[None, :]) / C_LIGHT    # (m, k)
    gain = mask.s * (d_ref[None, :] / d_elem) * paths.alpha[None, :]
    phase = np.exp(-2j * np.pi * delay[:, :, None] * freqs[None, None, :])
    return np.matmul(gain[:, None, :], phase)[:, 0, :]
