"""Configuration documents: parsing, validation, presets and hashing.

Configs are UTF-8 JSON. Five shipped presets cover the feature showcases
(thz, emimo, isac, ris, sagin). Every config echoes back through
``to_dict`` with defaults filled, and hashes canonically for output
metadata.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

from .constants import wavelength
from .geometry import ArrayGeometry, ConfigurationError, Position3D, \
    build_ula, single_element
from .isac import cluster_budget
from .largescale import data_dir, lookup_lsp_table
from .ris import build_panel

FEATURES = ("BASE", "THZ", "EMIMO", "ISAC", "RIS", "SAGIN")
_FEATURE_BLOCKS = {"THZ": "thz", "EMIMO": "emimo", "ISAC": "isac",
                   "RIS": "ris", "SAGIN": "sagin"}
# Every key a feature block may hold: the keys its campaign runner reads
# (for ris, build_panel reads the panel keys).
_BLOCK_KEYS = {
    "thz": ("intra_cluster_k_db",),
    "emimo": ("stationary_region", "freq_samples"),
    "isac": ("targets", "n_shared", "rx_s_position", "self_interference_db"),
    "ris": ("position", "nx", "ny", "element_pitch", "bs_incidence_deg",
            "z_e_ohm", "z_m_ohm", "ideal_reference", "codebook", "asa_deg",
            "leg_k_db", "leg_xpr_db", "noise_floor_dbm"),
    "sagin": ("height_m", "elevation_deg", "k_rain_db", "k_cloud_db",
              "extra_atten_db"),
}
_FINITE = (math.isfinite, "a finite number")
# Numeric block keys: key -> (null allowed, test, what the value must be).
# A value the runner cannot use fails the test.
_NUMBER_KEYS = {
    "thz": {"intra_cluster_k_db": (True, *_FINITE)},
    "emimo": {
        "stationary_region": (False, lambda v: 1 <= v < math.inf and v == int(v),
                              "an integer >= 1"),
        "freq_samples": (False, lambda v: 2 <= v < math.inf and v == int(v),
                         "an integer >= 2"),
    },
    "isac": {"self_interference_db": (True, *_FINITE)},
    # null switches the first three off; the noise floor needs a value.
    "ris": {"asa_deg": (True, *_FINITE), "leg_k_db": (True, *_FINITE),
            "leg_xpr_db": (True, *_FINITE), "noise_floor_dbm": (False, *_FINITE)},
    "sagin": {
        "height_m": (False, lambda v: 0 < v < math.inf,
                     "a positive finite height in meters"),
        "elevation_deg": (False, lambda v: 0 < v <= 90,
                          "a number of degrees in (0, 90]"),
        "extra_atten_db": (False, lambda v: 0 <= v < math.inf,
                           "a finite number >= 0"),
        "k_rain_db": (False, *_FINITE), "k_cloud_db": (False, *_FINITE),
    },
}


class ConfigError(ConfigurationError):
    """Validation failure; the message names the offending field."""


def _usable(v, test) -> bool:
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        return False
    try:
        return bool(test(float(v)))
    except OverflowError:          # an integer too large for a float
        return False


def _check_block(name: str, blk) -> None:
    """Reject a key the block's runner does not read, and a numeric value it
    cannot use, naming the field as ``<block>.<key>``."""
    if not isinstance(blk, dict):
        raise ConfigError(f"{name}: must be an object, got {blk!r}")
    keys = _BLOCK_KEYS[name]
    unknown = sorted(set(blk) - set(keys))
    if unknown:
        raise ConfigError(f"{name}.{unknown[0]}: unknown key; a {name} block "
                          f"takes {', '.join(keys)}")
    for key, (nullable, test, need) in _NUMBER_KEYS[name].items():
        v = blk.get(key)
        if key in blk and not (v is None and nullable or _usable(v, test)):
            raise ConfigError(f"{name}.{key}: must be {need}"
                              f"{' or null' if nullable else ''}, got {v!r}")


@dataclass
class ScenarioConfig:
    scenario: str
    feature: str
    center_freq_hz: float
    bandwidth_hz: float
    drops: int = 1
    seed: int = 0
    link_state: str | None = "LOS"     # None: draw from the scenario curve
    bs_position: tuple = (0.0, 0.0, 3.0)
    ue_position: tuple = (10.0, 10.0, 3.0)
    bs_array: dict = field(default_factory=lambda: {"type": "single"})
    ue_array: dict = field(default_factory=lambda: {"type": "single"})
    ue_velocity: tuple = (0.0, 0.0, 0.0)
    tx_power_dbm: float = 0.0
    time_samples: int = 1
    time_spacing_s: float = 1e-3
    feature_params: dict = field(default_factory=dict)

    # ------------------------------------------------------------------
    def validate(self) -> "ScenarioConfig":
        if self.feature not in FEATURES:
            raise ConfigError(f"feature: must be one of {FEATURES}, got {self.feature!r}")
        if not (self.bandwidth_hz > 0):
            raise ConfigError("bandwidth: must be positive")
        if not (self.center_freq_hz > 0):
            raise ConfigError("center_freq_hz: must be positive")
        if self.drops < 1:
            raise ConfigError("drops: must be >= 1")
        if self.time_samples < 1:
            raise ConfigError("time_samples: must be >= 1")
        states = ("LOS", "NLOS") if self.feature == "SAGIN" else ("LOS", "NLOS", None)
        if self.link_state not in states:     # null: a terrestrial LOS-curve draw
            raise ConfigError(f"link_state: {self.feature} takes one of {states}, "
                              f"got {self.link_state!r}")
        expected_block = _FEATURE_BLOCKS.get(self.feature)
        present = [k for k in _FEATURE_BLOCKS.values() if k in self.feature_params]
        if expected_block is None and present:
            raise ConfigError(f"feature blocks {present} given for BASE feature")
        if expected_block is not None and present != [expected_block]:
            raise ConfigError(
                f"feature {self.feature} requires exactly the {expected_block!r} "
                f"block, found {present}")
        blk = self.feature_block()
        if expected_block is not None:
            _check_block(expected_block, blk)
        # Frequency must fall in a shipped band for the scenario/state.
        state = self.link_state or "LOS"
        if self.feature == "SAGIN":
            lookup_lsp_table(self.scenario, state, self.center_freq_hz,
                             elevation_deg=blk.get("elevation_deg", 30.0))
        else:
            entry = lookup_lsp_table(self.scenario, state, self.center_freq_hz)
        if self.feature == "ISAC":
            # Every state a drop can take must leave room for the clusters.
            entries = [entry] if self.link_state else \
                [entry, lookup_lsp_table(self.scenario, "NLOS", self.center_freq_hz)]
            for e in entries:
                try:
                    cluster_budget(e, e.state == "los", int(blk.get("n_shared", 0)),
                                   len(blk.get("targets", [])))
                except (ConfigurationError, TypeError, ValueError) as exc:
                    raise ConfigError(f"isac.n_shared: {exc}") from None
        for name in ("bs_position", "ue_position"):
            v = getattr(self, name)
            if len(v) != 3 or not all(math.isfinite(float(x)) for x in v):
                raise ConfigError(f"{name}: need a finite [x, y, z] triple")
        if self.feature != "SAGIN" and self.bs_position3d() == self.ue_position3d():
            raise ConfigError("ue_position: coincides with bs_position")
        if self.feature == "RIS":
            if blk.get("codebook", "steering") not in ("steering", "uniform"):
                raise ConfigError(f"ris.codebook: must be 'steering' or 'uniform', "
                                  f"got {blk['codebook']!r}")
            try:
                build_panel(blk, self.bs_position, self.ue_position,
                            self.center_freq_hz)
            except ConfigurationError as exc:
                raise ConfigError(str(exc)) from None
        return self

    # ------------------------------------------------------------------
    def bs_position3d(self) -> Position3D:
        return Position3D.from_iterable(self.bs_position)

    def ue_position3d(self) -> Position3D:
        return Position3D.from_iterable(self.ue_position)

    def build_array(self, spec: dict) -> ArrayGeometry:
        kind = spec.get("type", "single")
        if kind == "single":
            return single_element()
        if kind == "ula":
            spacing = spec.get("spacing", "half_wavelength")
            if spacing == "half_wavelength":
                spacing = wavelength(self.center_freq_hz) / 2.0
            return build_ula(int(spec["n"]), float(spacing))
        raise ConfigError(f"antenna array type {kind!r} not supported")

    def feature_block(self) -> dict:
        name = _FEATURE_BLOCKS.get(self.feature)
        return self.feature_params.get(name, {}) if name else {}

    def to_dict(self) -> dict:
        d = {
            "scenario": self.scenario,
            "feature": self.feature,
            "center_freq_hz": self.center_freq_hz,
            "bandwidth_hz": self.bandwidth_hz,
            "drops": self.drops,
            "seed": self.seed,
            "link_state": self.link_state,
            "bs_position": list(self.bs_position),
            "ue_position": list(self.ue_position),
            "bs_array": self.bs_array,
            "ue_array": self.ue_array,
            "ue_velocity": list(self.ue_velocity),
            "tx_power_dbm": self.tx_power_dbm,
            "time_samples": self.time_samples,
            "time_spacing_s": self.time_spacing_s,
        }
        d.update(self.feature_params)
        return d


def config_hash(cfg: ScenarioConfig) -> str:
    canonical = json.dumps(cfg.to_dict(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


_KNOWN_KEYS = {"scenario", "feature", "center_freq_hz", "bandwidth_hz", "drops",
               "seed", "link_state", "bs_position", "ue_position", "bs_array",
               "ue_array", "ue_velocity", "tx_power_dbm", "time_samples",
               "time_spacing_s"} | set(_FEATURE_BLOCKS.values())


def config_from_dict(raw: dict) -> ScenarioConfig:
    unknown = set(raw) - _KNOWN_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    for required in ("scenario", "feature", "center_freq_hz", "bandwidth_hz"):
        if required not in raw:
            raise ConfigError(f"{required}: missing required field")
    feature_params = {k: raw[k] for k in _FEATURE_BLOCKS.values() if k in raw}
    cfg = ScenarioConfig(
        scenario=str(raw["scenario"]),
        feature=str(raw["feature"]).upper(),
        center_freq_hz=float(raw["center_freq_hz"]),
        bandwidth_hz=float(raw["bandwidth_hz"]),
        drops=int(raw.get("drops", 1)),
        seed=int(raw.get("seed", 0)),
        link_state=raw.get("link_state", "LOS"),
        bs_position=tuple(raw.get("bs_position", (0.0, 0.0, 3.0))),
        ue_position=tuple(raw.get("ue_position", (10.0, 10.0, 3.0))),
        bs_array=raw.get("bs_array", {"type": "single"}),
        ue_array=raw.get("ue_array", {"type": "single"}),
        ue_velocity=tuple(raw.get("ue_velocity", (0.0, 0.0, 0.0))),
        tx_power_dbm=float(raw.get("tx_power_dbm", 0.0)),
        time_samples=int(raw.get("time_samples", 1)),
        time_spacing_s=float(raw.get("time_spacing_s", 1e-3)),
        feature_params=feature_params,
    )
    return cfg.validate()


def load_config(path) -> ScenarioConfig:
    path = Path(path)
    try:
        raw = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: parse error at line {exc.lineno}, "
                          f"column {exc.colno}: {exc.msg}") from exc
    return config_from_dict(raw)


def preset_path(name: str) -> Path:
    p = data_dir() / "presets" / f"{name}.json"
    if not p.exists():
        available = sorted(q.stem for q in (data_dir() / "presets").glob("*.json"))
        raise ConfigError(f"unknown preset {name!r}; shipped presets: {available}")
    return p


def load_preset(name: str, **overrides) -> ScenarioConfig:
    raw = json.loads(preset_path(name).read_text())
    raw.update(overrides)
    return config_from_dict(raw)
