"""Properties of the config schema, with hypothesis strategies built from
the schema table itself (``config.FIELDS``, ``ARRAYS``, ``BLOCKS`` and
``TARGET``).

A generated config is a shipped preset (BASE: a umi config) with up to three
top-level fields and up to three feature-block keys replaced by values drawn
inside their specs. Numbers are drawn inside each spec's bounds, an
unbounded side within 1e3 of zero, and integers within 15 of their lower
bound, so that a drop stays cheap.
"""

import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from chansim6g.campaign import run_drop
from chansim6g.config import (ARRAYS, BLOCKS, FIELDS, REQUIRED, TARGET,
                              ConfigError, config_from_dict, config_hash,
                              preset_path)
from chansim6g.geometry import ConfigurationError

SETTINGS = settings(derandomize=True, deadline=None, max_examples=40,
                    suppress_health_check=[HealthCheck.too_slow])
# An accepted config that fails a drop is the rare case to find.
RUN_SETTINGS = settings(SETTINGS, max_examples=100)
SCENARIOS = ("umi", "uma", "rma", "inh_office", "dense_urban")
WIDE = 1e3
FEATURES = ("BASE", "THZ", "EMIMO", "ISAC", "RIS", "SAGIN")
DELETE = object()       # an outside "value": the required key is left out


def base_raw(feature):
    if feature == "BASE":
        return {"scenario": "umi", "feature": "BASE", "center_freq_hz": 28e9,
                "bandwidth_hz": 100e6}
    return json.loads(preset_path(feature.lower()).read_text())


def inside(spec):
    """Values that fit ``spec``."""
    options = [st.sampled_from(spec.choices)] if spec.choices else []
    if spec.null:
        options.append(st.none())
    if spec.kind == "number":
        options.append(st.floats(max(spec.lo, -WIDE), min(spec.hi, WIDE),
                                 exclude_min=spec.ends[0] == "(",
                                 exclude_max=spec.ends[1] == ")"))
    elif spec.kind == "integer":
        options.append(st.integers(int(spec.lo), int(min(spec.hi, spec.lo + 15))))
    elif spec.kind in ("triple", "pair"):
        n = 3 if spec.kind == "triple" else 2
        options.append(st.lists(st.floats(-WIDE, WIDE), min_size=n, max_size=n))
    elif spec.kind == "text":
        options.append(st.sampled_from(SCENARIOS))
    elif spec.kind == "array":
        options.append(st.sampled_from(tuple(ARRAYS)).flatmap(
            lambda kind: objects(ARRAYS[kind], type=st.just(kind))))
    elif spec.kind == "targets":
        options.append(st.lists(objects(TARGET), max_size=3))
    return st.one_of(options)


def objects(specs, **fixed):
    """Objects of ``specs``: every required key, any subset of the others."""
    free = {k: s for k, s in specs.items() if k not in fixed}
    return st.fixed_dictionaries(
        {k: inside(s) for k, s in free.items() if s.default is REQUIRED} | fixed,
        optional={k: inside(s) for k, s in free.items() if s.default is not REQUIRED})


def changes(specs):
    """Up to three keys of ``specs``, each drawn inside its spec."""
    return st.lists(st.sampled_from(sorted(specs)), max_size=3, unique=True).flatmap(
        lambda keys: st.fixed_dictionaries({k: inside(specs[k]) for k in keys}))


def configs(feature):
    """Raw configs: the feature's base config with up to three top-level
    fields and up to three block keys drawn inside their specs."""
    raw = base_raw(feature)
    block = feature.lower() if feature != "BASE" else None
    top = {k: s for k, s in FIELDS.items() if k != "feature"}
    return st.tuples(changes(top), changes(BLOCKS[block]) if block else st.just({})).map(
        lambda draw: {**raw, **draw[0],
                      **({block: {**raw[block], **draw[1]}} if block else {})})


def outside(spec):
    """Values that do not fit ``spec``."""
    wrong = [st.just(True), st.just(5 if spec.kind == "text" else "x")]
    if spec.kind != "targets":
        wrong.append(st.just([]))
    if spec.default is REQUIRED:
        wrong.append(st.just(DELETE))
    if not spec.null:
        wrong.append(st.just(None))
    if spec.kind == "number":
        wrong += [st.just(float("nan")), st.just(float("inf")), st.just("1")]
    if spec.kind == "integer":
        wrong += [st.just(1.5), st.just(float("nan"))]
    if spec.kind in ("number", "integer") and spec.lo > -np.inf:
        wrong.append(st.just(spec.lo if spec.ends[0] == "(" else spec.lo - 1))
    if spec.kind in ("number", "integer") and spec.hi < np.inf:
        wrong.append(st.just(spec.hi if spec.ends[1] == ")" else spec.hi + 1))
    if spec.kind in ("triple", "pair"):
        wrong += [st.just([1.0]), st.just([1.0, 2.0, 3.0, 4.0]),
                  st.just([float("nan")] * (3 if spec.kind == "triple" else 2))]
    if spec.kind == "array":
        wrong += [st.just({"type": "upa"}), st.just({"type": "ula"}),
                  st.just({"type": "single", "n": 2}),
                  st.just({"type": "ula", "n": 0}),
                  st.just({"type": "ula", "n": 4, "spacng": 0.1})]
    if spec.kind == "targets":
        wrong += [st.just([5]), st.just([{"rcs_dbsm": 0.0}]),
                  st.just([{"position": [1.0, 2.0, 3.0], "rcs": 0.0}]),
                  st.just([{"position": [1.0, 2.0, 3.0], "rcs_dbsm": "big"}])]
    return st.one_of(wrong)


def accepted(raw):
    try:
        return config_from_dict(raw)
    except ConfigurationError:
        return None


@pytest.mark.parametrize("feature", FEATURES)
def test_accepted_configs_run(feature):
    @RUN_SETTINGS
    @given(configs(feature))
    def check(raw):
        cfg = accepted(raw)
        if cfg is not None:
            for tensor in run_drop(cfg, 0).tensors.values():
                assert np.all(np.isfinite(tensor.coefficients))
    check()


def moved_configs(feature):
    """(raw config, field) pairs: the base config with one field, a
    top-level one or a block key, moved outside its spec."""
    raw = base_raw(feature)
    block = feature.lower() if feature != "BASE" else None
    paths = [(k, None) for k in FIELDS] + \
        ([(k, block) for k in BLOCKS[block]] if block else [])

    def move(pick):
        (key, blk), value = pick
        out = {**raw, **({blk: dict(raw[blk])} if blk else {})}
        target = out[blk] if blk else out
        if value is DELETE:
            del target[key]
        else:
            target[key] = value
        return out, f"{blk}.{key}" if blk else key

    return st.sampled_from(paths).flatmap(
        lambda path: st.tuples(st.just(path), outside(
            BLOCKS[path[1]][path[0]] if path[1] else FIELDS[path[0]]))).map(move)


@pytest.mark.parametrize("feature", FEATURES)
def test_field_outside_schema_rejected_by_name(feature):
    @SETTINGS
    @given(moved_configs(feature))
    def check(case):
        raw, name = case
        with pytest.raises(ConfigError) as info:
            config_from_dict(raw)
        assert str(info.value).startswith(name), (name, str(info.value))
    check()


@pytest.mark.parametrize("feature", FEATURES)
def test_config_hash_ignores_key_order_and_survives_echo(feature):
    @SETTINGS
    @given(configs(feature))
    def check(raw):
        cfg = accepted(raw)
        if cfg is not None:
            flipped = {k: dict(reversed(v.items())) if isinstance(v, dict) else v
                       for k, v in reversed(raw.items())}
            assert config_hash(config_from_dict(flipped)) == config_hash(cfg)
            assert config_hash(config_from_dict(cfg.to_dict())) == config_hash(cfg)
    check()


def test_readme_names_every_schema_key():
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    keys = {*FIELDS, *BLOCKS, *TARGET}.union(
        *ARRAYS.values(), *BLOCKS.values())
    assert sorted(k for k in keys if f"`{k}`" not in text) == []
