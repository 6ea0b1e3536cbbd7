"""Scenario parameter tables and correlated large-scale parameter generation.

Tables ship as a versioned JSON asset following the public 5G standard's
structure (log-normal means/stds, 7x7 cross-correlation, cluster counts),
extended with THz-band and elevation-keyed satellite entries. Correlation is
applied in the log domain through the Cholesky factor of the matrix.
"""

from __future__ import annotations

import functools
import json
import math
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .geometry import ConfigurationError

# Order of the correlated parameter vector everywhere in this module.
LSP_ORDER = ("ds", "asa", "asd", "zsa", "zsd", "k", "sf")

# Hard caps applied after generation (degrees).
_AZIMUTH_SPREAD_CAP = 104.0
_ZENITH_SPREAD_CAP = 52.0

DATA_ENV_VAR = "CHANSIM6G_DATA"


class AssetError(ValueError):
    """Malformed or inconsistent data asset."""


def data_dir() -> Path:
    override = os.environ.get(DATA_ENV_VAR)
    if override:
        return Path(override)
    return Path(__file__).parent / "data"


@functools.lru_cache(maxsize=4)
def _default_scenarios(override: str | None) -> str:
    # Keyed on the override, so a changed data directory is still followed.
    return str(data_dir() / "scenarios.json")


@dataclass(frozen=True)
class LspTableEntry:
    n_clusters: int
    rays_per_cluster: int
    delay_scaling: float          # r_tau
    per_cluster_shadow_db: float  # zeta
    # LSP_ORDER: lg10(DS / 1 s), lg10(spread / 1 deg) x4, K dB, SF dB (mean 0).
    lsp_mu: tuple
    lsp_sigma: tuple
    chol: np.ndarray              # read-only Cholesky factor of the 7x7 correlation
    xpr_mu_db: float
    xpr_sigma_db: float
    c_asa_deg: float              # intra-cluster spreads
    c_asd_deg: float
    c_zsa_deg: float
    c_zsd_deg: float
    intra_cluster_k_db: float | None = None
    clutter_loss_db: float = 0.0


@dataclass(frozen=True)
class LSPSet:
    ds_s: float
    asa_deg: float
    asd_deg: float
    zsa_deg: float
    zsd_deg: float
    k_db: float
    sf_db: float

    def __post_init__(self):
        for name in ("ds_s", "asa_deg", "asd_deg", "zsa_deg", "zsd_deg"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v > 0):
                raise ValueError(f"{name} must be positive and finite, got {v}")
        for name in ("k_db", "sf_db"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")


def _eval_field(value, f_ghz: float) -> float:
    """Scalar, or {'poly_lgf': [c0, c1, ...]} evaluated at lg10(f/GHz)."""
    if isinstance(value, dict):
        coeffs = value.get("poly_lgf")
        if coeffs is None:
            raise AssetError(f"unknown field form {value!r}")
        x = math.log10(f_ghz)
        return float(sum(c * x ** i for i, c in enumerate(coeffs)))
    return float(value)


def _validate_corr(corr: np.ndarray, where: str) -> None:
    if corr.shape != (7, 7):
        raise AssetError(f"{where}: correlation matrix must be 7x7, got {corr.shape}")
    if not np.allclose(corr, corr.T, atol=1e-12):
        raise AssetError(f"{where}: correlation matrix not symmetric")
    if not np.allclose(np.diag(corr), 1.0, atol=1e-12):
        raise AssetError(f"{where}: correlation matrix diagonal must be 1")
    eigs = np.linalg.eigvalsh(corr)
    if eigs.min() < -1e-9:
        raise AssetError(f"{where}: correlation matrix not positive semi-definite "
                         f"(min eigenvalue {eigs.min():.3e})")


def correlation_factor(corr) -> np.ndarray:
    """Read-only lower Cholesky factor of a correlation matrix that passed
    ``_validate_corr``; an exactly singular one gets a 1e-12 diagonal
    jitter so the factorization succeeds."""
    corr = np.asarray(corr, dtype=np.float64)
    try:
        chol = np.linalg.cholesky(corr)
    except np.linalg.LinAlgError:
        chol = np.linalg.cholesky(corr + 1e-12 * np.eye(7))
    chol.flags.writeable = False  # the entry is shared by every caller
    return chol


def _keyed(scen: dict) -> bool:
    # _load_raw checks that a scenario's entries are all keyed or none.
    return any("elevation_deg" in e for e in scen.get("entries", ()))


@functools.lru_cache(maxsize=8)
def _load_raw(path_str: str) -> dict:
    path = Path(path_str)
    if not path.exists():
        raise AssetError(f"scenario asset not found: {path}")
    with path.open() as fh:
        raw = json.load(fh)
    # Validate every entry once at load time, never at draw time.
    for name, scen in raw.get("scenarios", {}).items():
        keyed = _keyed(scen)
        for i, entry in enumerate(scen.get("entries", [])):
            where = f"scenario {name!r} entry {i}"
            for key in ("state", "band_ghz", "n_clusters", "rays_per_cluster", "corr"):
                if key not in entry:
                    raise AssetError(f"{where}: missing key {key!r}")
            if entry["n_clusters"] < 1 or entry["rays_per_cluster"] < 1:
                raise AssetError(f"{where}: cluster/ray counts must be >= 1")
            if ("elevation_deg" in entry) != keyed:
                raise AssetError(f"{where}: a scenario's entries are all "
                                 "elevation-keyed or none are")
            _validate_corr(np.asarray(entry["corr"], dtype=np.float64), where)
        pl = scen.get("pathloss")
        if pl and not keyed and pl.get("model", "CI") != "CI":
            # Terrestrial drops apply the CI model with the asset's exponent.
            raise AssetError(f"scenario {name!r}: pathloss.model must be 'CI', "
                             f"got {pl['model']!r}")
        if pl and {"los", "nlos"} <= set(pl):
            if pl["nlos"]["alpha"] <= pl["los"]["alpha"]:
                raise AssetError(
                    f"scenario {name!r}: NLOS path-loss exponent must exceed LOS")
    return raw


def load_scenarios() -> dict:
    return _load_raw(_default_scenarios(os.environ.get(DATA_ENV_VAR)))


def elevation_keyed(scenario: str) -> bool:
    """Whether the scenario's entries are keyed by elevation bucket (the
    satellite tables, which only SAGIN drops read)."""
    return _keyed(_scenario(scenario))


def scenario_los_curve(scenario: str) -> dict:
    scen = _scenario(scenario)
    curve = scen.get("los_probability")
    if curve is None:
        raise ConfigurationError(f"scenario {scenario!r} has no LOS probability curve")
    return curve


def scenario_pathloss(scenario: str, state: str) -> float:
    """The scenario's CI path-loss exponent for the link state."""
    scen = _scenario(scenario)
    pl = scen.get("pathloss", {})
    key = state.lower()
    if key not in pl:
        raise ConfigurationError(f"scenario {scenario!r} has no {state} path-loss params")
    return float(pl[key]["alpha"])


def _scenario(scenario: str) -> dict:
    scenarios = load_scenarios()["scenarios"]
    if scenario not in scenarios:
        raise ConfigurationError(
            f"unknown scenario {scenario!r}; available: {sorted(scenarios)}")
    return scenarios[scenario]


def lookup_lsp_table(scenario: str, state: str, f_hz: float,
                     elevation_deg: float | None = None) -> LspTableEntry:
    """Table entry for (scenario, link state, frequency[, elevation bucket]).

    Frequency-dependent fields stored as lg(f) polynomials are evaluated at
    ``f_hz``. Satellite scenarios key entries additionally by 10-degree
    elevation buckets; the nearest bucket is used. Entries are built once
    per argument set and shared; their Cholesky factor is read-only.
    """
    return _lookup_lsp_table(scenario, state, f_hz, elevation_deg,
                             _default_scenarios(os.environ.get(DATA_ENV_VAR)))


@functools.lru_cache(maxsize=64)
def _lookup_lsp_table(scenario: str, state: str, f_hz: float,
                      elevation_deg: float | None, asset: str) -> LspTableEntry:
    # ``asset``, the scenarios file _scenario reads, only keys the cache.
    scen = _scenario(scenario)
    f_ghz = f_hz / 1e9
    state_l = state.lower()
    if state_l not in ("los", "nlos"):
        raise ConfigurationError(f"state must be LOS or NLOS, got {state!r}")

    candidates = [e for e in scen["entries"] if e["state"] == state_l
                  and e["band_ghz"][0] <= f_ghz <= e["band_ghz"][1]]
    if not candidates:
        bands = sorted({tuple(e["band_ghz"]) for e in scen["entries"] if e["state"] == state_l})
        raise ConfigurationError(
            f"no ({scenario}, {state}) entry covers {f_ghz:g} GHz; bands: {bands}")

    if _keyed(scen):
        if elevation_deg is None:
            raise ConfigurationError(
                f"scenario {scenario!r} entries are elevation-keyed; pass elevation_deg")
        # Deterministic bucket keying: nearest 10-degree bucket center.
        bucket = float(np.clip(round(elevation_deg / 10.0) * 10.0, 10.0, 90.0))
        candidates = [e for e in candidates if float(e["elevation_deg"]) == bucket]
        if not candidates:
            raise ConfigurationError(
                f"no ({scenario}, {state}) entry for elevation bucket {bucket:g} deg")
    entry = candidates[0]

    def fv(key):
        if key not in entry:
            raise AssetError(f"scenario {scenario!r} entry missing {key!r}")
        return entry[key]

    # (mu, sigma) blocks in LSP_ORDER; K's sigma defaults to 0, SF's mean is 0.
    stats = [fv(f"{name}_lg") for name in LSP_ORDER[:5]]
    stats += [{"sigma": 0.0, **entry.get("k_db", {"mu": 0.0})}, {**fv("sf_db"), "mu": 0.0}]
    spreads = fv("cluster_spread_deg")
    return LspTableEntry(
        n_clusters=int(entry["n_clusters"]),
        rays_per_cluster=int(entry["rays_per_cluster"]),
        delay_scaling=float(fv("delay_scaling")),
        per_cluster_shadow_db=float(fv("per_cluster_shadow_db")),
        lsp_mu=tuple(_eval_field(s["mu"], f_ghz) for s in stats),
        lsp_sigma=tuple(float(s["sigma"]) for s in stats),
        chol=correlation_factor(entry["corr"]),
        xpr_mu_db=_eval_field(fv("xpr_db")["mu"], f_ghz),
        xpr_sigma_db=float(fv("xpr_db")["sigma"]),
        c_asa_deg=float(spreads["asa"]),
        c_asd_deg=float(spreads["asd"]),
        c_zsa_deg=float(spreads["zsa"]),
        c_zsd_deg=float(spreads["zsd"]),
        intra_cluster_k_db=(float(entry["intra_cluster_k_db"])
                            if "intra_cluster_k_db" in entry else None),
        clutter_loss_db=float(entry.get("clutter_loss_db", 0.0)),
    )


def generate_lsps(entry: LspTableEntry, rng: np.random.Generator) -> LSPSet:
    """One drop's correlated large-scale parameters.

    Seven standard normals through the entry's Cholesky factor, scaled and
    shifted per parameter in the log (dB) domain; spread parameters are
    exponentiated to linear units and capped.
    """
    z = entry.chol @ rng.standard_normal(7)
    ds, asa, asd, zsa, zsd, k, sf = (
        np.asarray(entry.lsp_mu) + np.asarray(entry.lsp_sigma) * z).tolist()
    return LSPSet(
        ds_s=10.0 ** ds,
        asa_deg=min(10.0 ** asa, _AZIMUTH_SPREAD_CAP),
        asd_deg=min(10.0 ** asd, _AZIMUTH_SPREAD_CAP),
        zsa_deg=min(10.0 ** zsa, _ZENITH_SPREAD_CAP),
        zsd_deg=min(10.0 ** zsd, _ZENITH_SPREAD_CAP),
        k_db=k,
        sf_db=sf,
    )
