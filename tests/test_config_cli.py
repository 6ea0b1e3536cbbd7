import csv
import json
import math
import multiprocessing
import os
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import numpy as np
import pytest

from chansim6g.campaign import run_campaign, run_drop
from chansim6g.cir import CirTensor, read_cir, write_cir
from chansim6g.cli import main as cli_main
from chansim6g.config import (ConfigError, ScenarioConfig, config_from_dict,
                              config_hash, load_config, load_preset, preset_path)

ROOT = Path(__file__).resolve().parents[1]
SRC = str(ROOT / "src")


def minimal_config(**over):
    raw = {
        "scenario": "umi",
        "feature": "BASE",
        "center_freq_hz": 28e9,
        "bandwidth_hz": 100e6,
        "drops": 2,
        "seed": 7,
    }
    raw.update(over)
    return raw


class TestPresets:
    def test_thz_preset_values(self):
        cfg = load_preset("thz")
        assert cfg.center_freq_hz == 132e9
        assert cfg.bandwidth_hz == 1.2e9
        assert tuple(cfg.bs_position) == (0, 0, 3)
        assert tuple(cfg.ue_position) == (10, 10, 3)
        assert cfg.feature_block()["intra_cluster_k_db"] == 17.98
        assert cfg.link_state == "LOS"

    def test_ris_preset_values(self):
        cfg = load_preset("ris")
        assert cfg.center_freq_hz == 28e9
        blk = cfg.feature_block()
        assert blk["nx"] == 32 and blk["ny"] == 32
        assert blk["codebook"] == "steering"

    def test_emimo_preset_values(self):
        cfg = load_preset("emimo")
        assert cfg.bs_array == {"type": "ula", "n": 256,
                                "spacing": "half_wavelength"}
        assert cfg.feature_block()["stationary_region"] == 16

    def test_isac_preset_values(self):
        cfg = load_preset("isac")
        assert cfg.scenario == "inh_office"
        assert len(cfg.feature_block()["targets"]) == 3

    def test_sagin_preset_values(self):
        cfg = load_preset("sagin")
        blk = cfg.feature_block()
        assert blk["height_m"] == 600e3
        assert blk["elevation_deg"] == 30.0

    def test_unknown_preset(self):
        with pytest.raises(ConfigError, match="shipped presets"):
            load_preset("marsnet")


class TestValidation:
    def test_missing_bandwidth_named(self):
        raw = minimal_config()
        del raw["bandwidth_hz"]
        with pytest.raises(ConfigError, match="bandwidth"):
            config_from_dict(raw)

    def test_feature_block_exclusivity(self):
        raw = minimal_config(feature="THZ")
        with pytest.raises(ConfigError, match="thz"):
            config_from_dict(raw)  # block missing
        raw = minimal_config(feature="THZ", thz={}, ris={})
        with pytest.raises(ConfigError):
            config_from_dict(raw)  # extra block
        raw = minimal_config(thz={})
        with pytest.raises(ConfigError):
            config_from_dict(raw)  # block on BASE

    def test_unknown_scenario(self):
        with pytest.raises(Exception, match="umi"):
            config_from_dict(minimal_config(scenario="mars"))

    def test_frequency_outside_band(self):
        with pytest.raises(Exception, match="GHz"):
            config_from_dict(minimal_config(center_freq_hz=999e9))

    @pytest.mark.parametrize("name", ["base", "thz", "emimo", "isac", "ris"])
    def test_coincident_tx_rx_rejected(self, name, tmp_path):
        raw = minimal_config() if name == "base" else \
            json.loads(preset_path(name).read_text())
        raw["ue_position"] = raw.get("bs_position", [0.0, 0.0, 3.0])
        with pytest.raises(ConfigError, match="ue_position"):
            config_from_dict(raw)
        path = tmp_path / "coincident.json"
        path.write_text(json.dumps(raw))
        assert cli_main(["validate", "--config", str(path)]) == 1

    def test_sagin_ignores_positions(self):
        cfg = load_preset("sagin", bs_position=[1.0, 2.0, 3.0],
                          ue_position=[1.0, 2.0, 3.0])
        assert run_drop(cfg, 0).metrics["state"] == "LOS"

    def test_sagin_link_state_null_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="link_state"):
            load_preset("sagin", link_state=None)
        raw = json.loads(preset_path("sagin").read_text())
        raw["link_state"] = None
        path = tmp_path / "sagin_null.json"
        path.write_text(json.dumps(raw))
        assert cli_main(["validate", "--config", str(path)]) == 1

    def test_unknown_ris_codebook_rejected(self, tmp_path):
        raw = json.loads(preset_path("ris").read_text())
        raw["ris"]["codebook"] = "steerng"
        with pytest.raises(ConfigError, match=r"ris\.codebook"):
            config_from_dict(raw)
        path = tmp_path / "ris_codebook.json"
        path.write_text(json.dumps(raw))
        assert cli_main(["validate", "--config", str(path)]) == 1
        for name in ("steering", "uniform"):
            raw["ris"]["codebook"] = name
            config_from_dict(raw)

    # The preset has BS (0, 0, 3), UE (10, 10, 3), panel (6, -2, 3) and
    # 85 degree BS incidence. Each case below validated before and then
    # failed at run (coincident Tx/Rx, collinear endpoints, an all-zero
    # channel from an endpoint behind the panel, a bad grid or pitch) or ran
    # with the BS behind the panel (incidence 95).
    @pytest.mark.parametrize("block, field", [
        ({"position": [0.0, 0.0, 3.0]}, "position: coincides with bs_position"),
        ({"position": [10.0, 10.0, 3.0]}, "position: coincides with ue_position"),
        ({"position": [5.0, 5.0, 3.0]}, "position: collinear"),
        ({"position": [5.0, 5.0, 3.0], "bs_incidence_deg": None},
         "position: collinear"),
        ({"position": [2.0, 2.0, 3.0], "bs_incidence_deg": None},
         "position: collinear"),
        ({"position": [20.0, 20.0, 3.0], "bs_incidence_deg": None},
         "position: collinear"),
        ({"position": [1.0, 0.9, 3.0], "bs_incidence_deg": None},
         "position: puts bs_position behind"),
        ({"position": [5.0, 4.9, 3.0], "bs_incidence_deg": 60.0},
         "bs_incidence_deg: puts ue_position behind"),
        ({"position": None}, "position"),
        ({"position": [6.0, -2.0]}, "position"),
        ({"nx": 0}, "nx"), ({"ny": -3}, "ny"), ({"nx": 2.5}, "nx"),
        ({"element_pitch": 0.0}, "element_pitch"),
        ({"element_pitch": -0.005}, "element_pitch"),
        ({"element_pitch": "quarter_wavelength"}, "element_pitch"),
        ({"bs_incidence_deg": 95.0}, "bs_incidence_deg"),
        ({"bs_incidence_deg": 90.0}, "bs_incidence_deg"),
        ({"bs_incidence_deg": -1.0}, "bs_incidence_deg"),
        ({"z_e_ohm": 5.0}, "z_e_ohm"),
        ({"ideal_reference": "pcc"}, "ideal_reference"),
    ])
    def test_unusable_ris_geometry_rejected(self, block, field, tmp_path):
        raw = json.loads(preset_path("ris").read_text())
        raw["ris"].update(block)
        raw["ris"] = {k: v for k, v in raw["ris"].items() if v is not None}
        with pytest.raises(ConfigError, match=r"ris\." + field):
            config_from_dict(raw)
        path = tmp_path / "ris_geometry.json"
        path.write_text(json.dumps(raw))
        assert cli_main(["validate", "--config", str(path)]) == 1

    # Each of these validated before, then raised ValueError or TypeError in
    # run_drop, or (a typo) was silently ignored.
    @pytest.mark.parametrize("block, field", [
        ({"asa_dg": 10.0}, "asa_dg: unknown key"),
        ({"panel_tilt": 0.0}, "panel_tilt: unknown key"),
        ({"asa_deg": "ten"}, "asa_deg: must be a finite number"),
        ({"asa_deg": "10"}, "asa_deg"), ({"asa_deg": float("nan")}, "asa_deg"),
        ({"leg_k_db": [1]}, "leg_k_db"), ({"leg_k_db": True}, "leg_k_db"),
        ({"leg_xpr_db": float("inf")}, "leg_xpr_db"), ({"leg_xpr_db": {}}, "leg_xpr_db"),
        ({"noise_floor_dbm": "loud"}, "noise_floor_dbm"),
        ({"noise_floor_dbm": None}, "noise_floor_dbm"),
        # 2 * Z overflowed in the element reflection: "non-finite channel
        # coefficient".
        ({"z_e_ohm": [1e308, 1e308]}, "z_e_ohm: must be a finite .* of magnitude"),
        ({"z_e_ohm": [1e308, 0.0]}, "z_e_ohm"),
        ({"z_m_ohm": [1e308, 1e308]}, "z_m_ohm"),
        ({"z_m_ohm": [0.0, -2e15]}, "z_m_ohm"),
    ])
    def test_bad_ris_key_or_number_rejected(self, block, field, tmp_path):
        raw = json.loads(preset_path("ris").read_text())
        raw["ris"].update(block)
        with pytest.raises(ConfigError, match=r"ris\." + field):
            config_from_dict(raw)
        path = tmp_path / "ris_block.json"
        path.write_text(json.dumps(raw))
        assert cli_main(["validate", "--config", str(path)]) == 1

    @pytest.mark.parametrize("key", ["z_e_ohm", "z_m_ohm"])
    def test_impedance_at_its_bound_runs(self, key):
        raw = json.loads(preset_path("ris").read_text())
        raw["ris"][key] = [0.0, 1e15]
        for tensor in run_drop(config_from_dict(raw), 0).tensors.values():
            assert np.all(np.isfinite(tensor.coefficients))

    # A typo'd or stale key used to run with the key's default: isac.n_share
    # ran with sharing degree 0.
    @pytest.mark.parametrize("preset, key", [
        ("thz", "intra_cluster_kdb"), ("emimo", "freq_sample"),
        ("isac", "n_share"), ("ris", "nz"), ("sagin", "elevation")])
    def test_unknown_block_key_rejected(self, preset, key, tmp_path):
        raw = json.loads(preset_path(preset).read_text())
        raw[preset][key] = 6
        with pytest.raises(ConfigError, match=rf"{preset}\.{key}: unknown key"):
            config_from_dict(raw)
        path = tmp_path / "block.json"
        path.write_text(json.dumps(raw))
        assert cli_main(["validate", "--config", str(path)]) == 1

    def test_presets_and_perfbench_base_validate(self, monkeypatch):
        monkeypatch.syspath_prepend(str(ROOT))
        from perfbench.workloads import BASE_CONFIG
        config_from_dict(dict(BASE_CONFIG))
        for name in ("thz", "emimo", "isac", "ris", "sagin"):
            load_preset(name)

    # Each of these validated, then raised ValueError, TypeError or
    # ConfigurationError in run_drop.
    @pytest.mark.parametrize("preset, block, field", [
        ("emimo", {"stationary_region": 0}, "stationary_region"),
        ("emimo", {"freq_samples": 1}, "freq_samples"),
        ("sagin", {"height_m": 0.0}, "height_m"),
        ("sagin", {"elevation_deg": 0.0}, "elevation_deg"),
        ("sagin", {"elevation_deg": 90.5}, "elevation_deg"),
        ("sagin", {"extra_atten_db": -1.0}, "extra_atten_db"),
        ("sagin", {"k_rain_db": "heavy"}, "k_rain_db"),
        ("sagin", {"k_cloud_db": None}, "k_cloud_db"),
        ("thz", {"intra_cluster_k_db": float("inf")}, "intra_cluster_k_db"),
        ("thz", {"intra_cluster_k_db": "high"}, "intra_cluster_k_db"),
        # A K below about -63 dB turns the LOS delay scaling negative; a
        # spread of 0 or less, a subnormal elevation or a height near 0 m
        # raised in run_drop.
        ("ris", {"leg_k_db": -70.0}, "leg_k_db"),
        ("ris", {"asa_deg": 0.0}, "asa_deg"), ("ris", {"asa_deg": -5.0}, "asa_deg"),
        ("sagin", {"k_rain_db": 25.0}, "k_rain_db"),
        ("sagin", {"k_cloud_db": -1.0}, "k_cloud_db"),
        ("sagin", {"elevation_deg": 5e-324}, "elevation_deg"),
        ("sagin", {"height_m": 1e-300}, "height_m"),
    ])
    def test_unusable_block_number_rejected(self, preset, block, field, tmp_path):
        raw = json.loads(preset_path(preset).read_text())
        raw[preset].update(block)
        with pytest.raises(ConfigError, match=rf"{preset}\.{field}: must be"):
            config_from_dict(raw)
        path = tmp_path / "block.json"
        path.write_text(json.dumps(raw))
        assert cli_main(["validate", "--config", str(path)]) == 1

    @pytest.mark.parametrize("preset, block", [
        ("emimo", {"stationary_region": 1, "freq_samples": 2}),
        ("sagin", {"elevation_deg": 90, "extra_atten_db": 0.0}),
        ("thz", {"intra_cluster_k_db": None})])
    def test_block_number_edges_run(self, preset, block):
        raw = json.loads(preset_path(preset).read_text())
        raw[preset].update(block)
        res = run_drop(config_from_dict(raw), 0)
        assert np.all(np.isfinite(res.tensors[""].coefficients))

    @pytest.mark.parametrize("block", [
        {"asa_deg": None, "leg_k_db": None, "leg_xpr_db": None},
        {"asa_deg": 5, "leg_k_db": -3, "leg_xpr_db": 20, "noise_floor_dbm": -100}])
    def test_ris_numbers_and_nulls_run(self, block):
        raw = json.loads(preset_path("ris").read_text())
        raw["ris"].update(block)
        res = run_drop(config_from_dict(raw), 0)
        assert np.isfinite(res.metrics["snr_gap_db"])

    @pytest.mark.parametrize("block", [
        {"bs_incidence_deg": 0.0}, {"bs_incidence_deg": 89.5},
        {"bs_incidence_deg": None}, {"nx": 1, "ny": 1},
        {"nx": 8.0, "element_pitch": 0.004}])
    def test_ris_geometry_edges_run(self, block):
        raw = json.loads(preset_path("ris").read_text())
        raw["ris"].update(block)
        raw["ris"] = {k: v for k, v in raw["ris"].items() if v is not None}
        res = run_drop(config_from_dict(raw), 0)
        assert np.all(np.isfinite(res.tensors[""].coefficients))
        assert np.isfinite(res.metrics["snr_nonideal_db"])

    # The cascade drops every ray at or past GRAZING_LIMIT_RAD (89 degrees
    # from the panel normal), and a set asa_deg narrows leg 1's arrival
    # spread about the BS direction. Each case validated before, then raised
    # "delay spread undefined for all-zero power" in run_drop: the first
    # three on drop 0 or within 20 drops, the bisector panel (BS and UE
    # near 89.9 degrees) on every drop.
    @pytest.mark.parametrize("link_state, block, field", [
        ("NLOS", {"bs_incidence_deg": 89.99, "asa_deg": 0.1}, "bs_incidence_deg"),
        ("LOS", {"bs_incidence_deg": 89.9, "asa_deg": 0.5}, "bs_incidence_deg"),
        ("LOS", {"bs_incidence_deg": 89.2, "asa_deg": 0.1}, "bs_incidence_deg"),
        ("NLOS", {"position": [5.01, 4.99, 3.0], "bs_incidence_deg": None,
                  "asa_deg": 0.1}, "position"),
    ])
    def test_ris_bs_at_grazing_rejected(self, link_state, block, field, tmp_path):
        raw = json.loads(preset_path("ris").read_text())
        raw["link_state"] = link_state
        raw["ris"].update(block)
        raw["ris"] = {k: v for k, v in raw["ris"].items() if v is not None}
        with pytest.raises(ConfigError, match=rf"ris\.{field}: puts bs_position at grazing"):
            config_from_dict(raw)
        path = tmp_path / "ris_grazing.json"
        path.write_text(json.dumps(raw))
        assert cli_main(["validate", "--config", str(path)]) == 1

    # Inside the rule: a spread that reaches back inside the limit, a BS just
    # inside it, and a UE side at grazing, whose spreads come from the table.
    @pytest.mark.parametrize("link_state, block", [
        ("NLOS", {"bs_incidence_deg": 89.5, "asa_deg": 0.6}),
        ("NLOS", {"bs_incidence_deg": 88.5, "asa_deg": 0.1}),
        ("LOS", {"position": [5.05, 4.95, 3.0], "bs_incidence_deg": None}),
    ])
    def test_ris_near_grazing_runs(self, link_state, block):
        raw = json.loads(preset_path("ris").read_text())
        raw["link_state"] = link_state
        raw["ris"].update(block)
        raw["ris"] = {k: v for k, v in raw["ris"].items() if v is not None}
        cfg = config_from_dict(raw)
        for drop in range(5):
            assert math.isfinite(run_drop(cfg, drop).metrics["ds_ns"])

    @staticmethod
    def isac_raw(scenario, n_targets, link_state, n_shared):
        raw = json.loads(preset_path("isac").read_text())
        raw.update(scenario=scenario, link_state=link_state)
        raw["isac"]["targets"] = raw["isac"]["targets"][:n_targets]
        raw["isac"]["n_shared"] = n_shared
        return raw

    # Clusters at 28 GHz: inh_office 15 LOS / 19 NLOS, so with the preset's
    # 3 targets up to 12 shared fit LOS and 16 NLOS; rma 11 LOS / 10 NLOS,
    # so with 1 target up to 10 fit LOS and 9 NLOS.
    @pytest.mark.parametrize("scenario, n_targets, link_state, n_shared", [
        ("inh_office", 3, "LOS", 30), ("inh_office", 3, "LOS", 13),
        ("inh_office", 3, "NLOS", 17), ("inh_office", 3, None, 13),
        ("inh_office", 3, "LOS", -1), ("inh_office", 3, "LOS", "six"),
        ("rma", 1, None, 10)])
    def test_isac_cluster_budget_rejected(self, scenario, n_targets, link_state,
                                          n_shared, tmp_path):
        raw = self.isac_raw(scenario, n_targets, link_state, n_shared)
        with pytest.raises(ConfigError, match=r"isac\.n_shared"):
            config_from_dict(raw)
        path = tmp_path / "isac_budget.json"
        path.write_text(json.dumps(raw))
        assert cli_main(["validate", "--config", str(path)]) == 1

    @pytest.mark.parametrize("scenario, n_targets, link_state, n_shared", [
        ("inh_office", 3, "LOS", 12), ("inh_office", 3, "NLOS", 16),
        ("inh_office", 3, None, 12), ("rma", 1, "LOS", 10),
        ("rma", 1, "NLOS", 9)])
    def test_isac_cluster_budget_edge_runs(self, scenario, n_targets,
                                           link_state, n_shared):
        cfg = config_from_dict(self.isac_raw(scenario, n_targets, link_state,
                                             n_shared))
        states = set()
        for drop in range(4):     # seed 1 draws NLOS then LOS when null
            m = run_drop(cfg, drop).metrics
            assert 0.0 < m["sd_comm"] <= 1.0
            states.add(m["state"])
        assert states == ({"LOS", "NLOS"} if link_state is None else {link_state})

    @staticmethod
    def far_target_raw(distance_m, link_state):
        """The isac preset with one target ``distance_m`` out along x and a
        30 dB self-interference row at delay 0."""
        raw = json.loads(preset_path("isac").read_text())
        raw["link_state"] = link_state
        raw["isac"].update(targets=[{"position": [distance_m, 0.0, 1.5]}],
                           self_interference_db=30.0)
        return raw

    # The 10 km echo comes about 67 us after the self-interference tap, where
    # the delay decay underflows: it validated, then run_drop raised "target
    # power must be positive, got 0.0".
    @pytest.mark.parametrize("link_state", ["LOS", "NLOS", None])
    def test_isac_far_target_rejected(self, link_state, tmp_path):
        raw = self.far_target_raw(10e3, link_state)
        with pytest.raises(ConfigError, match=r"isac\.targets\[0\]\.position: .* underflow"):
            config_from_dict(raw)
        path = tmp_path / "isac_far.json"
        path.write_text(json.dumps(raw))
        assert cli_main(["validate", "--config", str(path)]) == 1

    @pytest.mark.parametrize("link_state", ["LOS", "NLOS"])
    def test_isac_farthest_accepted_target_runs(self, link_state):
        def accepted(d):
            try:
                return config_from_dict(self.far_target_raw(d, link_state))
            except ConfigError:
                return None

        near, far = 10.0, 10e3
        assert accepted(near) and not accepted(far)
        while far - near > 1e-3:
            mid = 0.5 * (near + far)
            near, far = (mid, far) if accepted(mid) else (near, mid)
        cfg = accepted(near)
        for drop in range(200):
            m = run_drop(cfg, drop).metrics
            assert m["state"] == link_state and math.isfinite(m["clutter_pr_db"])

    # Each of these validated and then raised in run_drop, ran with another
    # meaning (a typo ignored, a truncated count, a string frequency, a
    # negative or infinite number), or made validate die with a traceback
    # (tx_power_dbm "loud"). The last four set a field the feature's runner
    # does not read: it wrote the same tensor shape whatever the value.
    @pytest.mark.parametrize("preset, top, block, field", [
        ("isac", {}, {"targets": [{"rcs_dbsm": 0.0}]}, "isac.targets[0].position"),
        ("isac", {}, {"rx_s_position": [8.0, 4.0]}, "isac.rx_s_position"),
        ("isac", {}, {"targets": [{"position": [4.0, 3.0, 1.5], "rcs_dbsm": "big"}]},
         "isac.targets[0].rcs_dbsm"),
        ("isac", {}, {"targets": [{"position": [0.0, 0.0, 1.5]}]},
         "isac.targets[0].position: coincides with bs_position"),
        ("isac", {}, {"rx_s_position": [0, 0, 1.5]},
         "isac.rx_s_position: coincides with bs_position"),
        ("isac", {}, {"rx_s_position": [4.0, 3.0, 1.5]},
         "isac.targets[0].position: coincides with rx_s_position"),
        ("base", {"bs_array": {"type": "ula", "n": 0}}, {}, "bs_array.n"),
        ("base", {"bs_array": {"type": "upa", "n": 4}}, {}, "bs_array.type"),
        ("base", {"bs_array": {"type": "ula", "n": 4, "spacing": -1}}, {},
         "bs_array.spacing"),
        ("base", {"ue_velocity": [1.0, 0.0]}, {}, "ue_velocity"),
        ("base", {"seed": -1}, {}, "seed"),
        ("base", {"time_samples": 3, "time_spacing_s": float("nan")}, {},
         "time_spacing_s"),
        ("base", {"bs_array": {"type": "ula", "n": 4, "spacng": 0.1}}, {},
         "bs_array.spacng: unknown key"),
        ("base", {"drops": 2.7}, {}, "drops"), ("base", {"drops": True}, {}, "drops"),
        ("base", {"ue_array": {"type": "ula", "n": 2.5}}, {}, "ue_array.n"),
        ("base", {"center_freq_hz": "3.5e9"}, {}, "center_freq_hz"),
        ("base", {"time_spacing_s": -1}, {}, "time_spacing_s"),
        ("base", {"tx_power_dbm": float("inf")}, {}, "tx_power_dbm"),
        ("base", {"tx_power_dbm": "loud"}, {}, "tx_power_dbm"),
        ("emimo", {"ue_array": {"type": "ula", "n": 4}}, {}, "ue_array"),
        ("emimo", {"time_samples": 4}, {}, "time_samples"),
        ("sagin", {"bs_array": {"type": "ula", "n": 4}}, {}, "bs_array"),
        ("sagin", {"ue_velocity": [3.0, 0.0, 0.0]}, {}, "ue_velocity"),
        # a separation whose square underflows made los_directions raise
        ("base", {"bs_position": [0.0, 0.0, 1e-170], "ue_position": [0, 0, 0]}, {},
         "ue_position: coincides with bs_position"),
        # a separation whose square overflows: "non-finite path loss inf" in
        # run_drop, or a sensing tap at an infinite delay
        ("base", {"ue_position": [1e160, 0, 0]}, {},
         "ue_position: lies too far from bs_position"),
        ("isac", {}, {"targets": [{"position": [1e300, 0, 1.5]}]},
         "isac.targets[0].position: lies too far from bs_position"),
        ("isac", {}, {"rx_s_position": [1e300, 0, 1.5]},
         "isac.rx_s_position: lies too far from bs_position"),
        ("ris", {}, {"position": [1e300, 0, 3.0]},
         "ris.position: lies too far from bs_position"),
        # a speed at or above the speed of light: "non-finite channel
        # coefficient" in run_drop
        ("base", {"ue_velocity": [1e300, 0, 0]}, {}, "ue_velocity: must be"),
        ("base", {"ue_velocity": [3e8, 0, 0]}, {}, "ue_velocity: must be"),
        ("isac", {}, {"targets": [{"position": [4.0, 3.0, 1.5],
                                   "velocity": [1e300, 0, 0]}]},
         "isac.targets[0].velocity: must be"),
        # an elevation-keyed scenario on a terrestrial feature named no field
        ("base", {"scenario": "dense_urban"}, {},
         "scenario: 'dense_urban' is SAGIN-only"),
        # a terrestrial scenario under SAGIN ran its terrestrial table and
        # ignored sagin.elevation_deg
        ("sagin", {"scenario": "umi"}, {},
         "scenario: 'umi' is not elevation-keyed; SAGIN needs an elevation-keyed"),
        # an echo weight 10 ** (rcs / 10) that overflowed (OverflowError in
        # run_drop) or an echo power that underflowed to 0 ("target power
        # must be positive")
        ("isac", {}, {"targets": [{"position": [4.0, 3.0, 1.5], "rcs_dbsm": 4000.0}]},
         "isac.targets[0].rcs_dbsm: must be a finite number in [-300, 300]"),
        ("isac", {}, {"targets": [{"position": [4.0, 3.0, 1.5], "rcs_dbsm": -3300.0}]},
         "isac.targets[0].rcs_dbsm: must be a finite number in [-300, 300]"),
        ("isac", {}, {"targets": [{"position": [4.0, 3.0, 1.5], "rcs_dbsm": 300.5}]},
         "isac.targets[0].rcs_dbsm"),
    ])
    def test_validate_names_rejected_field(self, preset, top, block, field,
                                           tmp_path, capsys):
        raw = minimal_config() if preset == "base" else \
            json.loads(preset_path(preset).read_text())
        raw.update(top)
        if block:
            raw[preset].update(block)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(raw))
        assert cli_main(["validate", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"invalid: {field}"), err
        assert "Traceback" not in err

    def test_isac_target_next_to_radar_runs(self):
        # The echo legs take the 1 m floor of the link losses: a target
        # 1e-160 m from the radar made the radar equation overflow.
        raw = json.loads(preset_path("isac").read_text())
        raw["bs_position"] = [0.0, 0.0, 0.0]
        raw["isac"]["targets"][0]["position"] = [0.0, 0.0, 1e-160]
        for tensor in run_drop(config_from_dict(raw), 0).tensors.values():
            assert np.all(np.isfinite(tensor.coefficients))

    @pytest.mark.parametrize("rcs", [-300.0, 300.0])
    def test_rcs_at_its_bound_runs(self, rcs):
        raw = json.loads(preset_path("isac").read_text())
        raw["isac"]["targets"][0]["rcs_dbsm"] = rcs
        result = run_drop(config_from_dict(raw), 0)
        for tensor in result.tensors.values():
            assert np.all(np.isfinite(tensor.coefficients))
        assert math.isfinite(result.metrics["clutter_pr_db"])

    @pytest.mark.parametrize("value", [2.0, 3])
    def test_integral_numbers_stored_as_int(self, value):
        cfg = config_from_dict(minimal_config(drops=value, bs_array={
            "type": "ula", "n": 2.0}))
        assert cfg.drops == int(value) and type(cfg.drops) is int
        assert cfg.bs_array == {"type": "ula", "n": 2}

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError, match="unknown"):
            config_from_dict(minimal_config(bogus_field=1))

    def test_parse_error_carries_location(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text('{"scenario": "umi",}')
        with pytest.raises(ConfigError, match="line"):
            load_config(p)

    def test_echo_round_trip(self):
        cfg = load_preset("isac")
        again = config_from_dict(cfg.to_dict())
        assert again.to_dict() == cfg.to_dict()
        assert config_hash(again) == config_hash(cfg)

    def test_hash_tracks_seed(self):
        a = config_from_dict(minimal_config(seed=1))
        b = config_from_dict(minimal_config(seed=2))
        assert config_hash(a) != config_hash(b)


class TestCampaign:
    def test_rerun_byte_identical(self, tmp_path):
        cfg = load_preset("thz", drops=3, seed=42)
        run_campaign(cfg, tmp_path / "a")
        run_campaign(cfg, tmp_path / "b")
        files_a = sorted((tmp_path / "a").iterdir())
        files_b = sorted((tmp_path / "b").iterdir())
        assert [f.name for f in files_a] == [f.name for f in files_b]
        for fa, fb in zip(files_a, files_b):
            assert fa.read_bytes() == fb.read_bytes(), fa.name

    @pytest.mark.parametrize("preset", ["isac", "ris"])
    @pytest.mark.parametrize("drops,jobs", [(1, 2), (2, 2), (5, 2), (5, 3), (3, 8)])
    def test_parallel_matches_serial(self, tmp_path, preset, drops, jobs):
        # ris runs BLAS products, so it also covers the one-thread BLAS step
        cfg = load_preset(preset, drops=drops, seed=11)
        run_campaign(cfg, tmp_path / "serial", jobs=1)
        run_campaign(cfg, tmp_path / "par", jobs=jobs)
        names = sorted(f.name for f in (tmp_path / "serial").iterdir())
        assert sorted(f.name for f in (tmp_path / "par").iterdir()) == names
        for name in names:
            assert ((tmp_path / "serial" / name).read_bytes()
                    == (tmp_path / "par" / name).read_bytes()), name
        assert not multiprocessing.active_children()

    def test_one_drop_campaign_starts_no_process(self, tmp_path, monkeypatch):
        def no_start(self):
            raise AssertionError("a one-drop campaign started a process")

        monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", no_start)
        run_campaign(load_preset("thz", drops=1, seed=3), tmp_path / "out", jobs=4)
        assert (tmp_path / "out" / "drop00000.cir").exists()

    @pytest.mark.parametrize("jobs", [0, -4])
    def test_jobs_below_one_rejected(self, tmp_path, jobs):
        with pytest.raises(ValueError, match="jobs"):
            run_campaign(load_preset("thz", drops=2), tmp_path / "out", jobs=jobs)

    def test_parallel_run_sets_openblas_to_one_thread(self):
        # A fresh interpreter with the BLAS thread count as the host gives it.
        script = textwrap.dedent("""
            import ctypes, sys, tempfile
            from chansim6g.campaign import run_campaign
            from chansim6g.config import load_preset
            with open("/proc/self/maps") as fh:
                libs = [line.split(maxsplit=5)[5].strip() for line in fh
                        if "scipy_openblas64_" in line]
            if not libs:
                sys.exit(3)
            get = ctypes.CDLL(libs[0]).scipy_openblas_get_num_threads64_
            get.restype = ctypes.c_int
            with tempfile.TemporaryDirectory() as out:
                run_campaign(load_preset("ris", drops=2, seed=5), out, jobs=2)
            print(get())
        """)
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
        env["PYTHONPATH"] = os.pathsep.join([SRC, env.get("PYTHONPATH", "")])
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                              text=True, env=env, timeout=120)
        if proc.returncode == 3:
            pytest.skip("numpy does not load its bundled OpenBLAS here")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["1"]

    def test_isac_writes_sense_tensor(self, tmp_path):
        cfg = load_preset("isac", drops=1)
        summary = run_campaign(cfg, tmp_path / "out")
        names = {Path(p).name for p in summary["outputs"]}
        assert "drop00000.cir" in names
        assert "drop00000.cir.sense" in names

    def test_seed_changes_metrics_not_schema(self, tmp_path):
        cfg_a = load_preset("thz", drops=2, seed=1)
        cfg_b = load_preset("thz", drops=2, seed=2)
        run_campaign(cfg_a, tmp_path / "a")
        run_campaign(cfg_b, tmp_path / "b")
        head_a, row_a = (tmp_path / "a" / "metrics.csv").read_text().splitlines()[:2]
        head_b, row_b = (tmp_path / "b" / "metrics.csv").read_text().splitlines()[:2]
        assert head_a == head_b
        assert row_a != row_b

    def test_drop_streams_insulated_across_features(self):
        # The sparsity stage consumes no randomness shared with other stages:
        # the same seed gives identical delay draws with and without it.
        thz_cfg = load_preset("thz", seed=5)
        base = ScenarioConfig(**{**thz_cfg.__dict__, "feature": "BASE",
                                 "feature_params": {}})
        a = run_drop(thz_cfg, 0)
        b = run_drop(base, 0)
        ta = a.tensors[""].tap_delays_s
        tb = b.tensors[""].tap_delays_s
        assert np.array_equal(ta, tb)

    # 5 drops at jobs=3: the caller runs drops 0 and 3, the children 1, 4 and 2.
    @pytest.mark.parametrize("jobs,bad_drop", [(1, 2), (3, 3), (3, 4)],
                             ids=["serial", "caller-slice", "child-slice"])
    def test_failure_cleans_partial_files(self, tmp_path, monkeypatch, jobs, bad_drop):
        import chansim6g.campaign as campaign

        real_write = campaign.write_cir

        def flaky(tensor, path):
            real_write(tensor, path)        # leaves a complete .tmp behind
            if path.name.startswith(f"drop{bad_drop:05d}"):
                raise OSError("disk full")

        monkeypatch.setattr(campaign, "write_cir", flaky)
        cfg = load_preset("thz", drops=5, seed=1)
        with pytest.raises(OSError, match="disk full") as info:
            run_campaign(cfg, tmp_path / "out", jobs=jobs)
        assert type(info.value) is OSError
        assert not list((tmp_path / "out").glob("*.tmp"))
        assert not multiprocessing.active_children()
        if sys.version_info >= (3, 11):
            assert f"drop {bad_drop} (seed 1) failed" in info.value.__notes__[0]

    def test_base_campaign_wall_clock(self, tmp_path):
        cfg = config_from_dict(minimal_config(drops=1000, seed=3))
        t0 = time.time()
        run_campaign(cfg, tmp_path / "bulk")
        elapsed = time.time() - t0
        assert elapsed < 60.0
        assert (tmp_path / "bulk" / "metrics.csv").exists()


class TestCli:
    def test_run_and_analyze(self, tmp_path, capsys):
        out = tmp_path / "campaign"
        rc = cli_main(["run", "--preset", "thz", "--drops", "2",
                       "--seed", "9", "--out", str(out)])
        assert rc == 0
        assert (out / "summary.json").exists()
        rc = cli_main(["analyze", "--in", str(out),
                       "--metrics", "ds,gini,rsrp"])
        assert rc == 0
        assert (out / "analysis.csv").exists()
        assert (out / "cdf_ds_ns.csv").exists()

    def test_analyze_labels_drops_by_file_name(self, tmp_path):
        """Rows carry the drop number of their file, in drop order, with that
        drop's generation-time ASA, also with a drop missing and past the
        five-digit names."""
        def analyzed(out):
            assert cli_main(["analyze", "--in", str(out), "--metrics", "ds,as"]) == 0
            with (out / "analysis.csv").open() as fh:
                return {row.pop("drop"): row for row in csv.DictReader(fh)}

        full, gap = tmp_path / "full", tmp_path / "gap"
        for out in (full, gap):
            assert cli_main(["run", "--preset", "thz", "--drops", "3",
                             "--seed", "9", "--out", str(out)]) == 0
        rows = analyzed(full)
        assert list(rows) == ["0", "1", "2"] and rows["1"] != rows["2"]
        (gap / "drop00001.cir").unlink()
        assert analyzed(gap) == {"0": rows["0"], "2": rows["2"]}
        (gap / "drop00002.cir").rename(gap / "drop100000.cir")
        (gap / "drop00000.cir").rename(gap / "drop99999.cir")
        assert list(analyzed(gap)) == ["99999", "100000"]

    @staticmethod
    def _zero_drop(tmp_path):
        """A 3-drop thz campaign whose drop 1 holds an all-zero tensor of
        the others' shape, so analyze stacks it with them."""
        out = tmp_path / "campaign"
        assert cli_main(["run", "--preset", "thz", "--drops", "3",
                         "--seed", "9", "--out", str(out)]) == 0
        path = out / "drop00001.cir"
        cir = read_cir(path)
        write_cir(CirTensor(np.zeros_like(cir.coefficients), cir.tap_delays_s,
                            cir.sample_times_s, cir.meta), path)
        return out, path

    @pytest.mark.parametrize("metric, message", [
        ("ds", "delay spread undefined for all-zero power"),
        ("gini", "Gini undefined for all-zero power")])
    def test_analyze_names_the_failing_file(self, tmp_path, capsys, metric, message):
        out, path = self._zero_drop(tmp_path)
        capsys.readouterr()
        assert cli_main(["analyze", "--in", str(out), "--metrics", metric]) == 1
        assert capsys.readouterr().err == f"analyze: {path}: {message}\n"
        assert not (out / "analysis.csv").exists()

    def test_analyze_names_a_file_of_the_wrong_size(self, tmp_path, capsys):
        out, path = self._zero_drop(tmp_path)
        path.write_bytes(path.read_bytes() + b"\0")
        capsys.readouterr()
        assert cli_main(["analyze", "--in", str(out), "--metrics", "rsrp"]) == 1
        assert capsys.readouterr().err.startswith(f"analyze: {path}: tensor payload is ")

    def test_analyze_writes_minus_inf_rsrp_for_a_zero_tensor(self, tmp_path):
        out, _ = self._zero_drop(tmp_path)
        assert cli_main(["analyze", "--in", str(out), "--metrics", "rsrp"]) == 0
        with (out / "analysis.csv").open() as fh:
            rsrp = [row["rsrp_dbm"] for row in csv.DictReader(fh)]
        assert rsrp[1] == "-inf"
        assert all(math.isfinite(float(v)) for v in (rsrp[0], rsrp[2]))

    def test_main_twice_in_one_process(self, tmp_path):
        """The parser is built once per process; each call parses its own
        arguments."""
        out, elsewhere = tmp_path / "campaign", tmp_path / "elsewhere"
        assert cli_main(["run", "--preset", "thz", "--drops", "2",
                         "--seed", "9", "--out", str(out)]) == 0
        assert cli_main(["analyze", "--in", str(out), "--out", str(elsewhere)]) == 0
        (elsewhere / "analysis.csv").unlink()
        assert cli_main(["analyze", "--in", str(out)]) == 0
        assert (out / "analysis.csv").exists()
        assert not (elsewhere / "analysis.csv").exists()

    def test_validate_paths(self, tmp_path, capsys):
        good = tmp_path / "good.json"
        good.write_text(json.dumps(minimal_config()))
        assert cli_main(["validate", "--config", str(good)]) == 0
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(minimal_config(bandwidth_hz=-1)))
        assert cli_main(["validate", "--config", str(bad)]) == 1

    @pytest.mark.parametrize("jobs", ["0", "-4"])
    def test_run_rejects_jobs_below_one(self, tmp_path, capsys, jobs):
        rc = cli_main(["run", "--preset", "thz", "--jobs", jobs,
                       "--out", str(tmp_path / "out")])
        assert rc != 0
        assert "--jobs" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_entry_point_installed(self):
        proc = subprocess.run([sys.executable, "-m", "chansim6g.cli", "--help"],
                              capture_output=True, text=True)
        assert proc.returncode == 0
        assert "run" in proc.stdout and "analyze" in proc.stdout

    def test_env_var_data_override(self, tmp_path, monkeypatch):
        from chansim6g.largescale import data_dir
        monkeypatch.setenv("CHANSIM6G_DATA", str(tmp_path))
        assert data_dir() == tmp_path
