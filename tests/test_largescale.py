import dataclasses
import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from chansim6g.geometry import ConfigurationError
from chansim6g.largescale import (DATA_ENV_VAR, AssetError, LSP_ORDER,
                                  LspTableEntry, correlation_factor, data_dir,
                                  generate_lsps, load_scenarios, lookup_lsp_table)

ROOT = Path(__file__).resolve().parents[1]

# LSP_ORDER: lg DS, lg ASA, lg ASD, lg ZSA, lg ZSD, K dB, SF dB.
MU = (-7.5, 1.5, 1.2, 0.7, 0.4, 9.0, 0.0)
SIGMA = (0.3, 0.2, 0.2, 0.2, 0.2, 3.0, 4.0)


def make_entry(corr=None, **overrides):
    base = dict(
        n_clusters=12, rays_per_cluster=20,
        delay_scaling=2.3, per_cluster_shadow_db=3.0,
        lsp_mu=MU, lsp_sigma=SIGMA,
        chol=correlation_factor(np.eye(7) if corr is None else corr),
        xpr_mu_db=8.0, xpr_sigma_db=3.0,
        c_asa_deg=11.0, c_asd_deg=5.0, c_zsa_deg=7.0, c_zsd_deg=1.0,
    )
    base.update(overrides)
    return LspTableEntry(**base)


class TestLookup:
    def test_umi_mmwave_cluster_count(self):
        entry = lookup_lsp_table("umi", "LOS", 28e9)
        assert entry.n_clusters == 16

    def test_umi_thz_cluster_count(self):
        entry = lookup_lsp_table("umi", "LOS", 132e9)
        assert entry.n_clusters == 8
        assert entry.intra_cluster_k_db == pytest.approx(17.98)

    def test_unknown_scenario_lists_available(self):
        with pytest.raises(ConfigurationError) as err:
            lookup_lsp_table("mars", "LOS", 28e9)
        assert "umi" in str(err.value)

    def test_unknown_band(self):
        with pytest.raises(ConfigurationError) as err:
            lookup_lsp_table("umi", "LOS", 999e9)
        assert "GHz" in str(err.value)

    def test_elevation_keying(self):
        e30 = lookup_lsp_table("dense_urban", "LOS", 2e9, elevation_deg=30.0)
        e60 = lookup_lsp_table("dense_urban", "LOS", 2e9, elevation_deg=60.0)
        k = LSP_ORDER.index("k")
        assert e30.lsp_mu[k] != e60.lsp_mu[k]
        # Deterministic bucketing: values change only at bucket boundaries.
        e31 = lookup_lsp_table("dense_urban", "LOS", 2e9, elevation_deg=31.0)
        e34 = lookup_lsp_table("dense_urban", "LOS", 2e9, elevation_deg=34.0)
        assert e31.lsp_mu[k] == e30.lsp_mu[k] == e34.lsp_mu[k]
        e36 = lookup_lsp_table("dense_urban", "LOS", 2e9, elevation_deg=36.0)
        assert e36.lsp_mu[k] != e30.lsp_mu[k]

    def test_elevation_required(self):
        with pytest.raises(ConfigurationError):
            lookup_lsp_table("dense_urban", "LOS", 2e9)

    def test_frequency_polynomial_evaluation(self):
        lo = lookup_lsp_table("umi", "LOS", 6e9)
        hi = lookup_lsp_table("umi", "LOS", 60e9)
        assert hi.lsp_mu[0] < lo.lsp_mu[0]  # delay spread shrinks with frequency


class TestGenerate:
    def test_degenerate_draw_equals_means(self):
        entry = make_entry(lsp_sigma=(0.0,) * 7)
        lsps = generate_lsps(entry, np.random.default_rng(0))
        assert lsps.ds_s == pytest.approx(10.0 ** -7.5, rel=1e-12)
        assert lsps.asa_deg == pytest.approx(10.0 ** 1.5, rel=1e-12)
        assert lsps.k_db == 9.0
        assert lsps.sf_db == 0.0

    def test_lognormal_mean_monte_carlo(self):
        entry = make_entry()
        rng = np.random.default_rng(13)
        lg = np.array([np.log10(generate_lsps(entry, rng).ds_s)
                       for _ in range(100_000)])
        assert abs(lg.mean() + 7.5) < 0.01

    def test_configured_pairwise_correlation(self):
        corr = np.eye(7)
        corr[0, 1] = corr[1, 0] = 0.8  # DS vs ASA
        entry = make_entry(corr=corr)
        rng = np.random.default_rng(17)
        draws = np.array([[np.log10(s.ds_s), np.log10(s.asa_deg)]
                          for s in (generate_lsps(entry, rng)
                                    for _ in range(100_000))])
        rho = np.corrcoef(draws.T)[0, 1]
        assert abs(rho - 0.8) < 0.02

    def test_full_matrix_correlations(self):
        # Moderate sigmas keep the caps inactive so the log-domain
        # correlations are measurable without truncation bias.
        corr = np.eye(7)
        pairs = {(0, 1): 0.5, (0, 5): -0.4, (2, 4): 0.5, (5, 6): 0.5, (0, 6): -0.4}
        for (i, j), v in pairs.items():
            corr[i, j] = corr[j, i] = v
        entry = make_entry(corr=corr,
                           lsp_sigma=(0.2, 0.15, 0.15, 0.15, 0.15, 3.0, 4.0))
        rng = np.random.default_rng(19)
        cols = []
        for _ in range(100_000):
            s = generate_lsps(entry, rng)
            cols.append([np.log10(s.ds_s), np.log10(s.asa_deg),
                         np.log10(s.asd_deg), np.log10(s.zsa_deg),
                         np.log10(s.zsd_deg), s.k_db, s.sf_db])
        emp = np.corrcoef(np.asarray(cols).T)
        for (i, j), v in pairs.items():
            assert abs(emp[i, j] - v) < 0.02, (LSP_ORDER[i], LSP_ORDER[j])

    def test_bit_reproducible(self):
        entry = make_entry()
        a = generate_lsps(entry, np.random.default_rng(99))
        b = generate_lsps(entry, np.random.default_rng(99))
        assert a == b

    def test_outputs_strictly_positive(self):
        entry = make_entry(lsp_sigma=(1.0, 1.0) + SIGMA[2:])
        rng = np.random.default_rng(3)
        for _ in range(5_000):
            s = generate_lsps(entry, rng)
            assert s.ds_s > 0 and s.asa_deg > 0 and s.zsd_deg > 0


class TestAssetValidation:
    def _use_asset(self, tmp_path, monkeypatch, umi):
        """Point the data directory at an asset whose one scenario is umi."""
        (tmp_path / "scenarios.json").write_text(
            json.dumps({"version": 1, "scenarios": {"umi": umi}}))
        monkeypatch.setenv(DATA_ENV_VAR, str(tmp_path))

    def _use_asset_with_corr(self, tmp_path, monkeypatch, corr):
        """Point the data directory at a one-entry asset with ``corr``."""
        entry = dict(load_scenarios()["scenarios"]["umi"]["entries"][0], corr=corr)
        self._use_asset(tmp_path, monkeypatch, {"entries": [entry]})

    def test_non_psd_rejected_at_load(self, tmp_path, monkeypatch):
        corr = np.eye(7)
        corr[0, 1] = corr[1, 0] = 0.9
        corr[1, 2] = corr[2, 1] = 0.9
        corr[0, 2] = corr[2, 0] = -0.9   # impossible triangle
        self._use_asset_with_corr(tmp_path, monkeypatch, corr.tolist())
        with pytest.raises(AssetError, match="positive semi-definite"):
            load_scenarios()

    def test_asymmetric_rejected(self, tmp_path, monkeypatch):
        corr = np.eye(7)
        corr[0, 1] = 0.5
        self._use_asset_with_corr(tmp_path, monkeypatch, corr.tolist())
        with pytest.raises(AssetError, match="symmetric"):
            load_scenarios()

    def test_partly_elevation_keyed_scenario_rejected(self, tmp_path, monkeypatch):
        umi = json.loads(json.dumps(load_scenarios()["scenarios"]["umi"]))
        umi["entries"][1]["elevation_deg"] = 30
        self._use_asset(tmp_path, monkeypatch, umi)
        with pytest.raises(AssetError, match="entry 0: .* elevation-keyed or none"):
            load_scenarios()

    def test_singular_corr_factored_once_with_jitter(self, tmp_path, monkeypatch):
        # DS and ASA fully correlated: PSD, so it loads, but exactly singular,
        # so a plain Cholesky fails and the entry's factor carries the jitter.
        corr = np.eye(7)
        corr[0, 1] = corr[1, 0] = 1.0
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky(corr)
        self._use_asset_with_corr(tmp_path, monkeypatch, corr.tolist())
        entry = lookup_lsp_table("umi", "LOS", 28e9)
        assert np.array_equal(entry.chol,
                              np.linalg.cholesky(corr + 1e-12 * np.eye(7)))
        assert not entry.chol.flags.writeable
        rng = np.random.default_rng(5)
        for _ in range(200):
            s = generate_lsps(entry, rng)
            assert all(np.isfinite(v) for v in dataclasses.astuple(s))

    def test_non_ci_model_rejected_on_terrestrial_scenario(self, tmp_path,
                                                           monkeypatch):
        # Terrestrial drops apply CI whatever the asset says, so another
        # model would silently run as CI.
        umi = json.loads(json.dumps(load_scenarios()["scenarios"]["umi"]))
        umi["pathloss"]["model"] = "ABG"
        self._use_asset(tmp_path, monkeypatch, umi)
        with pytest.raises(AssetError, match=r"scenario 'umi': pathloss\.model"):
            load_scenarios()

    def test_shipped_asset_loads_clean(self):
        raw = load_scenarios()
        assert set(raw["scenarios"]) >= {"umi", "inh_office", "uma", "rma",
                                         "dense_urban"}

    def test_shipped_asset_matches_builder(self, tmp_path, monkeypatch):
        spec = importlib.util.spec_from_file_location(
            "build_scenario_asset", ROOT / "scripts" / "build_scenario_asset.py")
        builder = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(builder)
        monkeypatch.setattr(builder, "OUT", tmp_path / "scenarios.json")
        builder.main()
        shipped = ROOT / "src" / "chansim6g" / "data" / "scenarios.json"
        assert builder.OUT.read_bytes() == shipped.read_bytes()


class TestLookupCache:
    def test_repeat_lookup_shares_one_entry(self):
        a = lookup_lsp_table("umi", "LOS", 28e9)
        assert lookup_lsp_table("umi", "LOS", 28e9) is a
        assert lookup_lsp_table("umi", "NLOS", 28e9) is not a

    def test_shared_entry_is_immutable(self):
        for args in (("umi", "LOS", 28e9), ("uma", "NLOS", 3.5e9),
                     ("dense_urban", "LOS", 2e9, 30.0)):
            entry = lookup_lsp_table(*args)
            for f in dataclasses.fields(entry):
                value = getattr(entry, f.name)
                if isinstance(value, np.ndarray):
                    assert not value.flags.writeable, f.name
                    with pytest.raises(ValueError):
                        value[0, 0] = 0.5
                else:
                    assert isinstance(value, (str, int, float, tuple, type(None))), f.name
            with pytest.raises(dataclasses.FrozenInstanceError):
                entry.n_clusters = 3

    def test_data_directory_override_is_followed(self, tmp_path, monkeypatch):
        raw = load_scenarios()
        umi = json.loads(json.dumps(raw["scenarios"]["umi"]))
        for e in umi["entries"]:
            e["n_clusters"] = 5
        (tmp_path / "scenarios.json").write_text(
            json.dumps({"version": 1, "scenarios": {"umi": umi}}))
        shipped = lookup_lsp_table("umi", "LOS", 28e9).n_clusters
        monkeypatch.setenv(DATA_ENV_VAR, str(tmp_path))
        assert data_dir() == tmp_path
        assert lookup_lsp_table("umi", "LOS", 28e9).n_clusters == 5
        assert set(load_scenarios()["scenarios"]) == {"umi"}
        monkeypatch.delenv(DATA_ENV_VAR)
        assert lookup_lsp_table("umi", "LOS", 28e9).n_clusters == shipped
        assert "uma" in load_scenarios()["scenarios"]
