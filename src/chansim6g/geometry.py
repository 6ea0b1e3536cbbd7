"""Coordinate systems, antenna arrays, network layout and link-state assignment.

Conventions: right-handed Cartesian frame, zenith angle theta measured from
+z, azimuth phi from +x toward +y. SAGIN nodes live in an Earth-centered,
Earth-fixed frame on a spherical Earth.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import EARTH_RADIUS_M


class ConfigurationError(ValueError):
    """Invalid user-supplied configuration."""


@dataclass(frozen=True)
class Position3D:
    x: float
    y: float
    z: float

    def __post_init__(self):
        if not all(math.isfinite(v) for v in (self.x, self.y, self.z)):
            raise ConfigurationError(f"non-finite position component in {self}")

    @classmethod
    def from_iterable(cls, xyz) -> "Position3D":
        x, y, z = (float(v) for v in xyz)
        return cls(x, y, z)

    def to_array(self) -> np.ndarray:
        return np.array([self.x, self.y, self.z], dtype=np.float64)

    def distance_to(self, other: "Position3D") -> float:
        return float(np.linalg.norm(self.to_array() - other.to_array()))


def check_apart(field: str, distance: float, other: str) -> None:
    """Raise ConfigurationError naming ``field`` unless its ``distance`` to
    ``other`` is in (0, inf) as a norm computes it (its square may under- or overflow)."""
    if not 0.0 < distance < math.inf:
        raise ConfigurationError(
            f"{field}: {'lies too far from' if distance else 'coincides with'} {other}")


@dataclass(frozen=True)
class ArrayGeometry:
    """Antenna array relative to its phase center (the element centroid)."""

    element_positions: np.ndarray  # (n, 3) meters

    def __post_init__(self):
        pos = np.asarray(self.element_positions, dtype=np.float64)
        if pos.ndim != 2 or pos.shape[1] != 3 or pos.shape[0] < 1:
            raise ConfigurationError(f"element positions must be (n, 3), got {pos.shape}")
        if not np.all(np.isfinite(pos)):
            raise ConfigurationError("non-finite element position")
        object.__setattr__(self, "element_positions", pos)

    @property
    def element_count(self) -> int:
        return self.element_positions.shape[0]

    @property
    def aperture(self) -> float:
        """Max pairwise element distance D; 0 for a single element."""
        pos = self.element_positions
        if pos.shape[0] == 1:
            return 0.0
        d2 = np.sum((pos[:, None, :] - pos[None, :, :]) ** 2, axis=-1)
        return float(np.sqrt(d2.max()))


def build_ula(n: int, spacing: float) -> ArrayGeometry:
    """Uniform linear array along +y, boresight +x, centered on its centroid,
    with ``spacing`` in meters between adjacent elements."""
    if n < 1:
        raise ConfigurationError(f"element count must be >= 1, got {n}")
    if spacing <= 0:
        raise ConfigurationError(f"element spacing must be positive, got {spacing}")
    idx = np.arange(n, dtype=np.float64) - (n - 1) / 2.0
    pos = np.zeros((n, 3))
    pos[:, 1] = idx * spacing
    return ArrayGeometry(pos)


def single_element() -> ArrayGeometry:
    return ArrayGeometry(np.zeros((1, 3)))


def rayleigh_distance(aperture: float, wavelength: float) -> float:
    """Near/far-field boundary 2*D^2/lambda of an array of aperture D."""
    if wavelength <= 0:
        raise ValueError(f"wavelength must be positive, got {wavelength}")
    if aperture < 0:
        raise ValueError(f"aperture must be non-negative, got {aperture}")
    return 2.0 * aperture * aperture / wavelength


# ---------------------------------------------------------------------------
# Satellite geometry (spherical Earth)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SlantGeometry:
    slant_range: float
    ue_position: Position3D
    sat_position: Position3D


def slant_geometry(sat_height: float, elevation: float) -> SlantGeometry:
    """Slant range and node placement for a ground station seeing a satellite
    at the given elevation angle.

    Spherical-Earth law of cosines; the satellite is placed over (0, 0) and
    the ground station on the equator at the central angle matching the
    elevation. Elevation pi/2 returns exactly the satellite height.
    """
    if sat_height <= 0:
        raise ValueError(f"satellite height must be positive, got {sat_height}")
    if not (0.0 < elevation <= math.pi / 2):
        raise ValueError("elevation must be in (0, pi/2]; below-horizon links unsupported")
    re = EARTH_RADIUS_M
    r_sat = re + sat_height
    # Central angle beta between ground station and sub-satellite point.
    beta = math.acos(re / r_sat * math.cos(elevation)) - elevation
    slant = math.sqrt(re * re + r_sat * r_sat - 2.0 * re * r_sat * math.cos(beta))
    sat = Position3D(r_sat, 0.0, 0.0)
    ue = Position3D(re * math.cos(beta), re * math.sin(beta), 0.0)
    return SlantGeometry(slant_range=slant, ue_position=ue, sat_position=sat)


# ---------------------------------------------------------------------------
# LOS / NLOS assignment
# ---------------------------------------------------------------------------

def los_probability(curve: dict, distance_2d: float) -> float:
    """Distance-dependent LOS probability for a scenario curve descriptor.

    Curve families follow the public 5G standard (TR 38.901 Table 7.4.2-1):
    ``{"family": "umi"|"uma"|"rma"|"inh_office"}``.
    """
    d = float(distance_2d)
    fam = curve.get("family")
    if fam == "umi":
        p = 1.0 if d <= 18.0 else 18.0 / d + math.exp(-d / 36.0) * (1.0 - 18.0 / d)
    elif fam == "uma":
        p = 1.0 if d <= 18.0 else 18.0 / d + math.exp(-d / 63.0) * (1.0 - 18.0 / d)
    elif fam == "rma":
        p = 1.0 if d <= 10.0 else math.exp(-(d - 10.0) / 1000.0)
    elif fam == "inh_office":
        if d <= 1.2:
            p = 1.0
        elif d < 6.5:
            p = math.exp(-(d - 1.2) / 4.7)
        else:
            p = math.exp(-(d - 6.5) / 32.6) * 0.32
    else:
        raise ConfigurationError(f"unknown LOS probability family {fam!r}")
    return min(max(p, 0.0), 1.0)


def assign_link_state(rng: np.random.Generator, curve: dict,
                      distance_2d: float) -> str:
    """LOS or NLOS from one Bernoulli draw against the scenario's
    distance-dependent LOS probability."""
    p = los_probability(curve, distance_2d)
    return "LOS" if rng.uniform() < p else "NLOS"


# ---------------------------------------------------------------------------
# Link bearing angles
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LosDirections:
    """Geometric departure/arrival angles of the direct Tx->Rx ray, radians."""

    aod: float  # azimuth of departure at Tx
    zod: float  # zenith of departure at Tx
    aoa: float  # azimuth of arrival at Rx (direction Rx -> Tx)
    zoa: float  # zenith of arrival at Rx


def los_directions(tx: Position3D, rx: Position3D) -> LosDirections:
    d = rx.to_array() - tx.to_array()
    r = np.linalg.norm(d)
    if r == 0:
        raise ConfigurationError("Tx and Rx positions coincide")
    aod = math.atan2(d[1], d[0])
    zod = math.acos(np.clip(d[2] / r, -1.0, 1.0))
    # Arrival unit vector points from Rx back toward Tx.
    aoa = math.atan2(-d[1], -d[0])
    zoa = math.acos(np.clip(-d[2] / r, -1.0, 1.0))
    return LosDirections(aod=aod, zod=zod, aoa=aoa, zoa=zoa)


def unit_vector(zenith: np.ndarray, azimuth: np.ndarray) -> np.ndarray:
    """Spherical angles -> Cartesian unit vector(s), shape (..., 3)."""
    zenith = np.asarray(zenith, dtype=np.float64)
    azimuth = np.asarray(azimuth, dtype=np.float64)
    st = np.sin(zenith)
    return np.stack([st * np.cos(azimuth), st * np.sin(azimuth), np.cos(zenith)], axis=-1)
