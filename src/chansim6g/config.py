"""Configuration documents: schema, parsing, validation, presets and hashing.

Configs are UTF-8 JSON. One schema gives each value a config may hold its
kind, bounds, null rule and default: ``FIELDS`` (top level), ``ARRAYS``
(``bs_array``/``ue_array``), ``BLOCKS`` (feature blocks) and ``TARGET``
(``isac.targets`` entries). ``validate``, ``to_dict``, ``feature_block`` and
``build_array`` read it. Five shipped presets cover the feature showcases.
"""

from __future__ import annotations

import hashlib
import json
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .constants import C_LIGHT, wavelength
from .geometry import ArrayGeometry, ConfigurationError, Position3D, \
    build_ula, check_apart, single_element
from .isac import build_geometry, check_echo_powers, cluster_budget
from .largescale import data_dir, elevation_keyed, lookup_lsp_table
from .ris import build_panel

FEATURES = ("BASE", "THZ", "EMIMO", "ISAC", "RIS", "SAGIN")
REQUIRED = object()     # the default of a value that must be given
FROM_TABLE = "table"    # the default of thz.intra_cluster_k_db: the table's K
_NEEDS = {"text": "a string", "triple": "a finite [x, y, z] triple",
          "pair": "a finite [real, imag] pair", "number": "a finite number",
          "integer": "an integer", "array": "an object", "targets": "a list"}


@dataclass(frozen=True)
class Spec:
    """One config value: a ``kind`` of ``_NEEDS`` or ``choice``; for a number,
    an integer or a triple's length the bounds ``lo``..``hi``, each end closed
    (``[``, ``]``) or open (``(``, ``)``) by ``ends``; the words it may also be
    (``choices``); whether null is allowed; and its default."""
    kind: str
    default: object = REQUIRED
    lo: float = -math.inf
    hi: float = math.inf
    ends: str = "[]"
    choices: tuple = ()
    null: bool = False


_POSITIVE = {"lo": 0, "ends": "(]"}
_OHMS = {"lo": 0, "hi": 1e15}
_VELOCITY = Spec("triple", (0.0, 0.0, 0.0), lo=0, hi=C_LIGHT, ends="[)")
FIELDS = {
    "scenario": Spec("text"),
    "feature": Spec("choice", choices=FEATURES),
    "center_freq_hz": Spec("number", **_POSITIVE),
    "bandwidth_hz": Spec("number", **_POSITIVE),
    "drops": Spec("integer", 1, lo=1),
    "seed": Spec("integer", 0, lo=0),
    "link_state": Spec("choice", "LOS", choices=("LOS", "NLOS"), null=True),
    "bs_position": Spec("triple", (0.0, 0.0, 3.0)),
    "ue_position": Spec("triple", (10.0, 10.0, 3.0)),
    "bs_array": Spec("array", {"type": "single"}),
    "ue_array": Spec("array", {"type": "single"}),
    "ue_velocity": _VELOCITY,
    "tx_power_dbm": Spec("number", 0.0),
    "time_samples": Spec("integer", 1, lo=1),
    "time_spacing_s": Spec("number", 1e-3, **_POSITIVE),
}
_TYPE = Spec("choice", "single", choices=("single", "ula"))
ARRAYS = {"single": {"type": _TYPE},
          "ula": {"type": _TYPE, "n": Spec("integer", lo=1), "spacing": Spec(
              "number", "half_wavelength", choices=("half_wavelength",), **_POSITIVE)}}
# An echo's power weight is 10 ** (rcs_dbsm / 10): it overflows above about
# 3083 dBsm, and below about -3000 the echo's power underflows to 0. 300
# dBsm keeps the weight 278 decades clear of both and is far past any real
# object (an insect is near -30 dBsm, a large ship near +70).
TARGET = {"position": Spec("triple"), "rcs_dbsm": Spec("number", 0.0, lo=-300, hi=300),
          "velocity": _VELOCITY}
# Every key a feature block may hold: the keys its runner reads (for ris,
# build_panel reads the panel keys). The TR 38.901 LOS delay scaling turns
# negative below a K of about -63 dB, which bounds leg_k_db, and k_rain_db
# plus k_cloud_db (40 dB keeps the drawn K 8 sigma clear of it). The RIS
# cascade's power goes as element_pitch**4 and underflows below ~1e-80 m.
# A sheet impedance's magnitude is bounded so 2 * Z * cos stays finite; at
# 1e15 ohm the reflection is within 1e-10 of the open-sheet limit.
BLOCKS = {
    "thz": {"intra_cluster_k_db": Spec("number", FROM_TABLE, null=True)},
    "emimo": {"stationary_region": Spec("integer", 16, lo=1),
              "freq_samples": Spec("integer", 64, lo=2)},
    "isac": {"targets": Spec("targets", ()), "n_shared": Spec("integer", 0, lo=0),
             "rx_s_position": Spec("triple", None, null=True),
             "self_interference_db": Spec("number", None, null=True)},
    "ris": {
        "position": Spec("triple"), "nx": Spec("integer", 32, lo=1),
        "ny": Spec("integer", 32, lo=1), "element_pitch": Spec(
            "number", "half_wavelength", lo=1e-5, choices=("half_wavelength",)),
        # absent: the panel normal bisects the two endpoint directions
        "bs_incidence_deg": Spec("number", None, lo=0, hi=90, ends="[)"),
        "z_e_ohm": Spec("pair", (20000.0, 0.0), **_OHMS),
        "z_m_ohm": Spec("pair", (655000.0, 0.0), **_OHMS),
        "ideal_reference": Spec("choice", "pec", choices=("pec", "pmc")),
        "codebook": Spec("choice", "steering", choices=("steering", "uniform")),
        # null: the drop's own draw
        "asa_deg": Spec("number", None, null=True, **_POSITIVE),
        "leg_k_db": Spec("number", None, lo=-60, null=True),
        "leg_xpr_db": Spec("number", None, null=True),
        "noise_floor_dbm": Spec("number", -94.0)},
    "sagin": {"height_m": Spec("number", 600e3, lo=1),
              "elevation_deg": Spec("number", 30.0, lo=10, hi=90),
              "k_rain_db": Spec("number", 0.0, lo=0, hi=20),
              "k_cloud_db": Spec("number", 0.0, lo=0, hi=20),
              "extra_atten_db": Spec("number", 0.0, lo=0)},
}
# Fields a feature's runner does not read, so they must keep their defaults:
# an E-MIMO drop has one receive element and one time sample, and a SAGIN
# link one element at each end and the UE at rest.
_UNREAD = {"EMIMO": ("ue_array", "time_samples"),
           "SAGIN": ("bs_array", "ue_array", "ue_velocity")}


def _defaults(specs: dict) -> dict:
    return {k: s.default for k, s in specs.items() if s.default is not REQUIRED}


_BLOCK_DEFAULTS = {name: _defaults(specs) for name, specs in BLOCKS.items()}
_ARRAY_DEFAULTS = _defaults(ARRAYS["ula"])
_TARGET_DEFAULTS = _defaults(TARGET)


class ConfigError(ConfigurationError):
    """Validation failure; the message names the offending field."""


def _finite(v) -> bool:
    return not isinstance(v, bool) and isinstance(v, (int, float)) \
        and abs(v) <= sys.float_info.max


def _fits(spec: Spec, v) -> bool:
    if v is None or isinstance(v, str) and v in spec.choices:
        return v is not None or spec.null
    if spec.kind == "text":
        return isinstance(v, str)
    if spec.kind in ("triple", "pair"):
        if not (isinstance(v, (list, tuple)) and all(map(_finite, v))
                and len(v) == (3 if spec.kind == "triple" else 2)):
            return False
        v = math.hypot(*v)          # the bounds of a triple bound its length
    elif not (_finite(v) if spec.kind == "number" else spec.kind == "integer"
              and isinstance(v, int) and not isinstance(v, bool)):
        return False
    return (spec.lo < v if spec.ends[0] == "(" else spec.lo <= v) \
        and (v < spec.hi if spec.ends[1] == ")" else v <= spec.hi)


def _check(path: str, spec: Spec, v):
    """``v`` as a config holds it (an integral float of an integer as an
    int); raise ConfigError naming ``path`` unless it fits ``spec``."""
    if spec.kind == "array" and isinstance(v, dict):
        _check(f"{path}.type", _TYPE, v.get("type", _TYPE.default))
        return _check_object(path, v, ARRAYS[v.get("type", _TYPE.default)])
    if spec.kind == "targets" and isinstance(v, (list, tuple)):
        return [_check_object(f"{path}[{i}]", t, TARGET) for i, t in enumerate(v)]
    if spec.kind == "integer" and isinstance(v, float) and v.is_integer():
        v = int(v)
    if not _fits(spec, v):
        need = _NEEDS.get(spec.kind, "")
        if spec.lo > -math.inf:
            need += {"triple": " of length", "pair": " of magnitude"}.get(spec.kind, "") + (
                f" in {spec.ends[0]}{spec.lo:g}, {spec.hi:g}{spec.ends[1]}"
                if spec.hi < math.inf else f" >{'=' * (spec.ends[0] == '[')} {spec.lo:g}")
        words = [*map(repr, spec.choices), need, "null" * spec.null]
        raise ConfigError(f"{path}: must be {' or '.join(filter(None, words))}, got {v!r}")
    return v


def _check_object(path: str, obj, specs: dict) -> dict:
    """A checked copy of an object, naming a field ``<path>.<key>``."""
    if not isinstance(obj, dict):
        raise ConfigError(f"{path}: must be an object, got {obj!r}")
    unknown = [k for k in obj if k not in specs]
    if unknown:
        raise ConfigError(f"{path}.{unknown[0]}: unknown key; {path} takes "
                          f"{', '.join(specs)}")
    missing = [k for k, s in specs.items() if s.default is REQUIRED and k not in obj]
    if missing:
        raise ConfigError(f"{path}.{missing[0]}: missing required field")
    return {k: _check(f"{path}.{k}", specs[k], v) for k, v in obj.items()}


def _echo(v):
    return list(v) if isinstance(v, tuple) else v


@dataclass
class ScenarioConfig:
    scenario: str
    feature: str
    center_freq_hz: float
    bandwidth_hz: float
    drops: int = FIELDS["drops"].default
    seed: int = FIELDS["seed"].default
    link_state: str | None = FIELDS["link_state"].default
    bs_position: tuple = FIELDS["bs_position"].default
    ue_position: tuple = FIELDS["ue_position"].default
    bs_array: dict = field(default_factory=FIELDS["bs_array"].default.copy)
    ue_array: dict = field(default_factory=FIELDS["ue_array"].default.copy)
    ue_velocity: tuple = FIELDS["ue_velocity"].default
    tx_power_dbm: float = FIELDS["tx_power_dbm"].default
    time_samples: int = FIELDS["time_samples"].default
    time_spacing_s: float = FIELDS["time_spacing_s"].default
    feature_params: dict = field(default_factory=dict)

    # ------------------------------------------------------------------
    @np.errstate(over="ignore")     # an overflowing separation fails check_apart
    def validate(self) -> "ScenarioConfig":
        """Check every field against the schema, storing it as a drop reads
        it (an integral float of an integer as an int), then the rules that
        join fields; a failure raises ConfigError naming the field."""
        for name, spec in FIELDS.items():
            setattr(self, name, _check(name, spec, getattr(self, name)))
        if self.feature == "SAGIN" and self.link_state is None:
            raise ConfigError("link_state: SAGIN takes 'LOS' or 'NLOS', got None")
        blocks = [self.feature.lower()] if self.feature != "BASE" else []
        if list(self.feature_params) != blocks:
            raise ConfigError(f"feature {self.feature} takes exactly the blocks "
                              f"{blocks}, found {list(self.feature_params)}")
        for block in blocks:
            self.feature_params[block] = _check_object(
                block, self.feature_params[block], BLOCKS[block])
        for name in _UNREAD.get(self.feature, ()):
            if _echo(getattr(self, name)) != _echo(FIELDS[name].default):
                raise ConfigError(f"{name}: {self.feature} drops do not read it, so "
                                  f"it must keep its default {FIELDS[name].default!r}")
        blk = self.feature_block()
        keyed = elevation_keyed(self.scenario)
        if keyed != (self.feature == "SAGIN"):
            rule = "is SAGIN-only (its tables are keyed by elevation)" if keyed else \
                "is not elevation-keyed; SAGIN needs an elevation-keyed scenario"
            raise ConfigError(f"scenario: {self.scenario!r} {rule}")
        # Frequency must fall in a shipped band for the scenario/state.
        lookup_lsp_table(self.scenario, self.link_state or "LOS",
                         self.center_freq_hz, elevation_deg=blk.get("elevation_deg"))
        try:
            if self.feature != "SAGIN":
                check_apart("ue_position", self.bs_position3d().distance_to(
                    self.ue_position3d()), "bs_position")
            if self.feature == "RIS":
                build_panel(blk, self.bs_position, self.ue_position,
                            self.center_freq_hz)
            elif self.feature == "ISAC":
                geo = build_geometry(blk, self.bs_position3d(), self.ue_position3d(),
                                     self.center_freq_hz, self.ue_velocity)
                # Every state a drop can take must leave room for the clusters
                # and keep every echo's power above 0.
                for state in [self.link_state] if self.link_state else ["LOS", "NLOS"]:
                    e = lookup_lsp_table(self.scenario, state, self.center_freq_hz)
                    cluster_budget(e, state == "LOS", blk["n_shared"], len(blk["targets"]))
                    check_echo_powers(geo, e)
        except ConfigurationError as exc:
            raise ConfigError(str(exc)) from None
        return self

    # ------------------------------------------------------------------
    def bs_position3d(self) -> Position3D:
        return Position3D.from_iterable(self.bs_position)

    def ue_position3d(self) -> Position3D:
        return Position3D.from_iterable(self.ue_position)

    def build_array(self, spec: dict) -> ArrayGeometry:
        """The array a checked ``bs_array``/``ue_array`` spec describes."""
        spec = {**_ARRAY_DEFAULTS, **spec}
        if spec["type"] == "single":
            return single_element()
        spacing = spec["spacing"]
        if spacing == "half_wavelength":
            spacing = wavelength(self.center_freq_hz) / 2.0
        return build_ula(spec["n"], spacing)

    def feature_block(self) -> dict:
        """The feature's block, each absent key (targets' too) at its default."""
        name = self.feature.lower()
        if name not in BLOCKS:
            return {}
        blk = {**_BLOCK_DEFAULTS[name], **self.feature_params.get(name, {})}
        if name == "isac":
            blk["targets"] = [{**_TARGET_DEFAULTS, **t} for t in blk["targets"]]
        return blk

    def to_dict(self) -> dict:
        d = {name: _echo(getattr(self, name)) for name in FIELDS}
        d.update(self.feature_params)
        return d


def config_hash(cfg: ScenarioConfig) -> str:
    canonical = json.dumps(cfg.to_dict(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


def config_from_dict(raw: dict) -> ScenarioConfig:
    """The validated config of a JSON document."""
    if not isinstance(raw, dict):
        raise ConfigError(f"config: must be an object, got {type(raw).__name__}")
    for key in raw:
        if key not in FIELDS and key not in BLOCKS:
            raise ConfigError(f"{key}: unknown key; a config takes "
                              f"{', '.join([*FIELDS, *BLOCKS])}")
    for key, spec in FIELDS.items():
        if spec.default is REQUIRED and key not in raw:
            raise ConfigError(f"{key}: missing required field")
    values = {k: v for k, v in raw.items() if k in FIELDS}
    if isinstance(values["feature"], str):
        values["feature"] = values["feature"].upper()
    blocks = {k: v for k, v in raw.items() if k in BLOCKS}
    return ScenarioConfig(**values, feature_params=blocks).validate()


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
