"""THz extensions: smooth/rough reflection coefficients, the fitted
frequency-angle reflection model, and delay-domain sparsity injection.

The reflection operations form a material-characterization sub-library; they
feed documentation plots and verification, not the stochastic pipeline.
"""

from __future__ import annotations

import cmath
import functools
import json
import math
from dataclasses import dataclass, replace

import numpy as np

from .constants import C_LIGHT, Z0_OHM
from .largescale import AssetError, data_dir
from .smallscale import ClusterSet


@dataclass(frozen=True)
class MaterialEm:
    """Electromagnetic description of a reflecting surface material."""

    name: str
    n: float                 # real part of the refractive index
    alpha_abs: float         # absorption coefficient, 1/m
    sigma_h: float           # surface roughness std, m

    def __post_init__(self):
        if self.n < 1.0:
            raise ValueError(f"refractive index must be >= 1, got {self.n}")
        if self.sigma_h < 0:
            raise ValueError(f"roughness must be >= 0, got {self.sigma_h}")

    def complex_index(self, f_hz: float) -> complex:
        """n - j * alpha*c/(4*pi*f)."""
        return self.n - 1j * self.alpha_abs * C_LIGHT / (4.0 * math.pi * f_hz)


@dataclass(frozen=True)
class FaModelParams:
    """Fitted parameters of the frequency-angle reflection model (f in GHz)."""

    a: float
    b: float
    c: float
    d: float
    band_ghz: tuple = (220.0, 320.0)

    def __post_init__(self):
        for v in (self.a, self.b, self.c, self.d):
            if not math.isfinite(v):
                raise ValueError("FA parameters must be finite")


@dataclass(frozen=True)
class FaReflection:
    gamma: complex
    in_band: bool  # False flags out-of-band evaluation (warning, not error)


def _check_incidence(theta_in: float) -> None:
    if not (0.0 <= theta_in < math.pi / 2):
        raise ValueError(f"incidence angle must be in [0, pi/2), got {theta_in}")


def fresnel_smooth(mat: MaterialEm, f_hz: float, theta_in: float,
                   pol: str = "V") -> complex:
    """Smooth-surface reflection coefficient.

    Vertical: (Z cos_in - Z0 cos_tr) / (Z cos_in + Z0 cos_tr);
    horizontal swaps the cosines. Z is the material wave impedance from the
    complex refractive index; the transmitted angle follows Snell's law.
    """
    _check_incidence(theta_in)
    if f_hz <= 0:
        raise ValueError(f"frequency must be positive, got {f_hz}")
    n_c = mat.complex_index(f_hz)
    z = Z0_OHM / n_c
    sin_tr = math.sin(theta_in) / n_c
    cos_tr = cmath.sqrt(1.0 - sin_tr * sin_tr)
    cos_in = math.cos(theta_in)
    if pol.upper() == "V":
        return (z * cos_in - Z0_OHM * cos_tr) / (z * cos_in + Z0_OHM * cos_tr)
    if pol.upper() == "H":
        return (z * cos_tr - Z0_OHM * cos_in) / (z * cos_tr + Z0_OHM * cos_in)
    raise ValueError(f"polarization must be V or H, got {pol!r}")


def roughness_factor(sigma_h: float, f_hz: float, theta_in: float) -> float:
    """Rayleigh factor rho = exp(-0.5 (4 pi sigma_h cos(theta) / lambda)^2)."""
    _check_incidence(theta_in)
    lam = C_LIGHT / f_hz
    x = 4.0 * math.pi * sigma_h * math.cos(theta_in) / lam
    return math.exp(-0.5 * x * x)


def rough_reflection(mat: MaterialEm, f_hz: float, theta_in: float,
                     pol: str = "V") -> complex:
    """Roughness-attenuated coefficient rho * Gamma."""
    return roughness_factor(mat.sigma_h, f_hz, theta_in) * fresnel_smooth(
        mat, f_hz, theta_in, pol)


def reflection_fa(params: FaModelParams, f_hz: float,
                  theta_in: float) -> FaReflection:
    """Fitted frequency-angle reflection model, vertical polarization.

    Gamma = exp(-10^a f^2 cos^2 theta) * (cos - sqrt(1 + 10^b/(10^c - d f^2
    - j f) - sin^2 theta)) / (cos + sqrt(...)), with f in GHz.
    """
    _check_incidence(theta_in)
    f_ghz = f_hz / 1e9
    in_band = params.band_ghz[0] <= f_ghz <= params.band_ghz[1]
    cos_t = math.cos(theta_in)
    sin2 = math.sin(theta_in) ** 2
    prefactor = math.exp(-(10.0 ** params.a) * f_ghz * f_ghz * cos_t * cos_t)
    eps_term = cmath.sqrt(1.0 + 10.0 ** params.b /
                          (10.0 ** params.c - params.d * f_ghz * f_ghz - 1j * f_ghz)
                          - sin2)
    gamma = prefactor * (cos_t - eps_term) / (cos_t + eps_term)
    return FaReflection(gamma=gamma, in_band=in_band)


def fit_fa(f_ghz_grid: np.ndarray, theta_grid: np.ndarray,
           gamma_abs: np.ndarray, band_ghz=(220.0, 320.0)) -> FaModelParams:
    """Least-squares fit of the frequency-angle model magnitude to a
    |reflection| grid sampled over (frequency, incidence angle)."""
    from scipy.optimize import least_squares

    f = np.asarray(f_ghz_grid, dtype=np.float64)
    th = np.asarray(theta_grid, dtype=np.float64)
    data = np.asarray(gamma_abs, dtype=np.float64)
    ff, tt = np.meshgrid(f, th, indexing="ij")

    def model(p):
        a, b, c, d = p
        cos_t = np.cos(tt)
        pre = np.exp(-(10.0 ** a) * ff ** 2 * cos_t ** 2)
        eps = np.sqrt((1.0 + 10.0 ** b / (10.0 ** c - d * ff ** 2 - 1j * ff)
                       - np.sin(tt) ** 2).astype(np.complex128))
        return pre * np.abs((cos_t - eps) / (cos_t + eps))

    def resid(p):
        return (model(p) - data).ravel()

    fit = least_squares(resid, x0=np.array([-7.0, 0.5, 1.0, 1e-5]),
                        bounds=([-12.0, -2.0, -2.0, -1e-2], [-4.0, 4.0, 4.0, 1e-2]))
    a, b, c, d = (float(v) for v in fit.x)
    return FaModelParams(a=a, b=b, c=c, d=d, band_ghz=tuple(band_ghz))


# ---------------------------------------------------------------------------
# Material data asset
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=4)
def _load_materials_raw(path_str: str) -> dict:
    import pathlib
    path = pathlib.Path(path_str)
    if not path.exists():
        raise AssetError(f"material asset not found: {path}")
    with path.open() as fh:
        return json.load(fh)


def load_materials(path=None) -> dict:
    """Shipped material set: name -> (MaterialEm, FaModelParams or None)."""
    if path is None:
        path = data_dir() / "materials.json"
    raw = _load_materials_raw(str(path))
    out = {}
    for name, rec in raw["materials"].items():
        mat = MaterialEm(name=name, n=rec["n"], alpha_abs=rec["alpha_abs"],
                         sigma_h=rec["sigma_h"])
        fa = None
        if "fa_fit" in rec:
            fa = FaModelParams(band_ghz=tuple(rec["fa_fit"]["band_ghz"]),
                               a=rec["fa_fit"]["a"], b=rec["fa_fit"]["b"],
                               c=rec["fa_fit"]["c"], d=rec["fa_fit"]["d"])
        out[name] = (mat, fa)
    return out


# ---------------------------------------------------------------------------
# Delay-domain sparsity
# ---------------------------------------------------------------------------

def apply_sparsity(clusters: ClusterSet, intra_k_db: float) -> ClusterSet:
    """Intra-cluster power concentration: within each cluster the strongest
    ray receives K/(K+1) of the cluster power (never less than the uniform
    share) and the remaining rays split the rest uniformly. Cluster totals
    are unchanged.
    """
    if not math.isfinite(intra_k_db):
        raise ValueError(f"intra-cluster K must be finite, got {intra_k_db}")
    k_lin = 10.0 ** (intra_k_db / 10.0)
    n, m = clusters.ray_powers.shape
    if m == 1:
        return clusters
    share1 = max(k_lin / (k_lin + 1.0), 1.0 / m)
    cluster_totals = clusters.ray_powers.sum(axis=1)
    rp = np.empty_like(clusters.ray_powers)
    rp[:, 0] = share1 * cluster_totals
    rp[:, 1:] = ((1.0 - share1) * cluster_totals / (m - 1))[:, None]
    return replace(clusters, ray_powers=rp)
