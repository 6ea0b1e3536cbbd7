import csv
import json
import math

import numpy as np
import pytest

from chansim6g import emimo
from chansim6g.analysis import array_cross_correlation
from chansim6g.campaign import run_campaign, run_drop
from chansim6g.cir import read_cir
from chansim6g.cli import main as cli_main
from chansim6g.config import config_from_dict, preset_path
from chansim6g.constants import C_LIGHT, wavelength
from chansim6g.emimo import (Paths, SnsMask, assemble_sns_cfr, gen_sns_mask,
                             path_cfr, paths_from_clusters, planar_manifold,
                             spherical_manifold, sns_cfr_band)
from chansim6g.geometry import build_ula, rayleigh_distance


def make_paths(sources, alphas=None, taus=None):
    k = len(sources)
    alphas = alphas if alphas is not None else np.ones(k)
    taus = taus if taus is not None else np.zeros(k)
    return Paths(sources=sources, alpha=alphas, tau_s=taus)


def loop_sns_mask(m, k, stationary_region, rng):
    """Per-element Markov walk: the reference for ``gen_sns_mask``."""
    s = np.ones((m, k))
    if m > 1 and k > 1:
        flips = rng.uniform(size=(m - 1, k - 1)) < 1.0 / float(stationary_region)
        states = np.ones(k - 1, dtype=bool)
        for i in range(1, m):
            states = states ^ flips[i - 1]
            s[i, 1:] = states
    return s


def phase_discrepancy(array, distance, f):
    """Sup over elements of |spherical phase - planar phase| for a broadside
    source at the given range."""
    paths = make_paths([[distance, 0.0, 0.0]])
    sph = spherical_manifold(paths, array, f)
    pla = planar_manifold(paths, array, f)
    return np.max(np.abs(np.angle(sph[:, 0] * np.conj(pla[:, 0]))))


class TestSphericalManifold:
    def test_reference_element_identity(self):
        arr = build_ula(1, spacing=0.005)
        paths = make_paths([[3.0, 4.0, 0.0], [0.0, 7.0, 1.0]])
        a = spherical_manifold(paths, arr, 28e9)
        assert np.all(a == 1.0 + 0.0j)

    def test_far_field_convergence(self):
        f = 28e9
        arr = build_ula(256, spacing=wavelength(f) / 2.0)
        rd = rayleigh_distance(arr.aperture, wavelength(f))
        assert phase_discrepancy(arr, 100.0 * rd, f) < math.pi / 80

    def test_rayleigh_distance_phase(self):
        # The aperture-edge phase error at the near/far boundary is pi/8.
        f = 28e9
        arr = build_ula(256, spacing=wavelength(f) / 2.0)
        rd = rayleigh_distance(arr.aperture, wavelength(f))
        assert phase_discrepancy(arr, rd, f) == pytest.approx(math.pi / 8, rel=0.02)

    def test_discrepancy_strictly_decreasing(self):
        f = 28e9
        arr = build_ula(256, spacing=wavelength(f) / 2.0)
        rd = rayleigh_distance(arr.aperture, wavelength(f))
        vals = [phase_discrepancy(arr, mult * rd, f) for mult in (1, 10, 100)]
        assert vals[0] > vals[1] > vals[2]

    def test_source_on_element_rejected(self):
        arr = build_ula(2, spacing=1.0)
        paths = make_paths([arr.element_positions[0]])
        with pytest.raises(ValueError):
            spherical_manifold(paths, arr, 28e9)


class TestSnsMask:
    def test_infinite_region_all_visible(self):
        mask = gen_sns_mask(256, 8, 10 ** 9, np.random.default_rng(0))
        assert np.all(mask.s == 1.0)

    def test_mean_run_length(self):
        # Geometric sojourn oracle: flip probability 1/16 gives mean runs of
        # 16 elements.
        mask = gen_sns_mask(1_000_000, 2, 16, np.random.default_rng(1))
        col = mask.s[:, 1].astype(bool)
        changes = np.nonzero(np.diff(col))[0]
        runs = np.diff(np.concatenate([[0], changes + 1, [col.size]]))
        assert abs(runs.mean() - 16.0) < 0.5

    def test_first_path_always_visible(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            mask = gen_sns_mask(64, 5, 4, rng)
            assert np.all(mask.s[:, 0] == 1.0)

    def test_entries_binary(self):
        mask = gen_sns_mask(128, 6, 8, np.random.default_rng(3))
        assert set(np.unique(mask.s)) <= {0.0, 1.0}

    def test_invalid_region(self):
        with pytest.raises(ValueError):
            gen_sns_mask(16, 2, 0, np.random.default_rng(0))

    @pytest.mark.parametrize("region", [1, 16])
    @pytest.mark.parametrize("k", [1, 2, 13])
    @pytest.mark.parametrize("m", [1, 2, 256])
    def test_matches_per_element_loop(self, m, k, region):
        rng, rng_ref = np.random.default_rng(11), np.random.default_rng(11)
        mask = gen_sns_mask(m, k, region, rng)
        assert np.array_equal(mask.s, loop_sns_mask(m, k, region, rng_ref))
        assert rng.bit_generator.state == rng_ref.bit_generator.state


class TestAssembly:
    def test_identity_mask_single_path(self):
        arr = build_ula(8, spacing=0.005)
        paths = make_paths([[5.0, 2.0, 1.0]])
        man = spherical_manifold(paths, arr, 28e9)
        mask = SnsMask(s=np.ones((8, 1)))
        out = assemble_sns_cfr(mask, man, path_cfr(paths, 28e9))
        assert np.allclose(out, man[:, 0], atol=1e-15)

    def test_zero_mask(self):
        arr = build_ula(8, spacing=0.005)
        paths = make_paths([[5.0, 2.0, 1.0], [1.0, -3.0, 0.5]])
        man = spherical_manifold(paths, arr, 28e9)
        mask = SnsMask(s=np.zeros((8, 2)))
        out = assemble_sns_cfr(mask, man, path_cfr(paths, 28e9))
        assert np.all(out == 0.0)

    def test_triple_loop_oracle(self):
        rng = np.random.default_rng(4)
        arr = build_ula(16, spacing=0.004)
        paths = make_paths(rng.uniform(2, 20, (3, 3)),
                           alphas=rng.normal(size=3) + 1j * rng.normal(size=3),
                           taus=rng.uniform(0, 1e-7, 3))
        f = 28e9
        mask = SnsMask(s=(rng.uniform(size=(16, 3)) > 0.4).astype(float))
        man = spherical_manifold(paths, arr, f)
        cfr = path_cfr(paths, f)
        fast = assemble_sns_cfr(mask, man, cfr)
        slow = np.zeros(16, dtype=complex)
        for m in range(16):
            for k in range(3):
                slow[m] += mask.s[m, k] * man[m, k] * cfr[k]
        assert np.max(np.abs(fast - slow)) / np.max(np.abs(slow)) < 1e-12

    def test_dimension_mismatch(self):
        mask = SnsMask(s=np.ones((4, 2)))
        with pytest.raises(ValueError):
            assemble_sns_cfr(mask, np.ones((4, 3), dtype=complex),
                             np.ones(3, dtype=complex))

    def test_band_matches_per_frequency_assembly(self):
        rng = np.random.default_rng(5)
        arr = build_ula(32, spacing=0.005)
        paths = make_paths(rng.uniform(3, 30, (4, 3)),
                           alphas=rng.normal(size=4) + 1j * rng.normal(size=4),
                           taus=rng.uniform(1e-8, 2e-7, 4))
        mask = SnsMask(s=(rng.uniform(size=(32, 4)) > 0.3).astype(float))
        freqs = 28e9 + np.linspace(-1e8, 1e8, 9)
        band = sns_cfr_band(paths, arr, mask, freqs)
        for i, f in enumerate(freqs):
            ref = assemble_sns_cfr(mask, spherical_manifold(paths, arr, f),
                                   path_cfr(paths, f))
            assert np.max(np.abs(band[:, i] - ref)) < 1e-9 * np.max(np.abs(ref))


class TestPathReconstruction:
    def _clusters(self):
        from test_cir import make_clusters
        rng = np.random.default_rng(6)
        delays = np.array([0.0, 40e-9, 90e-9])
        powers = np.array([0.6, 0.3, 0.1])
        return make_clusters(delays, powers, aoa=rng.uniform(-2, 2, 3),
                             zoa=rng.uniform(1.0, 2.0, 3), m=4, rng=rng,
                             state="LOS")

    def test_direct_path_at_link_distance(self):
        cs = self._clusters()
        paths = paths_from_clusters(cs, 14.14)
        assert np.linalg.norm(paths.sources[0]) == pytest.approx(14.14, rel=1e-12)
        assert paths.tau_s[0] == pytest.approx(14.14 / C_LIGHT, rel=1e-12)

    def test_scatterer_ranges_positive_and_consistent(self):
        cs = self._clusters()
        d_link = 14.14
        paths = paths_from_clusters(cs, d_link)
        for k, (source, tau) in enumerate(zip(paths.sources, paths.tau_s)):
            r = np.linalg.norm(source)
            assert r > 0
            if k > 0:
                expected = 0.5 * (d_link + C_LIGHT * cs.delays_s[k])
                assert r == pytest.approx(expected, rel=1e-12)
            assert tau == pytest.approx(d_link / C_LIGHT + cs.delays_s[k],
                                        rel=1e-12)

    def test_amplitudes_carry_cluster_power(self):
        cs = self._clusters()
        paths = paths_from_clusters(cs, 14.14)
        for k, alpha in enumerate(paths.alpha):
            assert abs(alpha) == pytest.approx(math.sqrt(cs.powers[k]), rel=1e-12)


class TestBirthCorrelationEffect:
    def test_birth_increases_correlation(self):
        # Paired comparison: making path 2 visible at the probe element
        # (a birth) strictly increases the median correlation estimate there.
        rng = np.random.default_rng(7)
        arr = build_ula(64, spacing=0.005)
        probe = 48
        freqs = 28e9 + np.linspace(-1e8, 1e8, 32)
        deltas = []
        for _ in range(60):
            paths = make_paths(rng.uniform(3, 30, (3, 3)),
                               alphas=rng.normal(size=3) + 1j * rng.normal(size=3),
                               taus=np.concatenate([[0.0], rng.uniform(1e-8, 2e-7, 2)]))
            s = np.ones((64, 3))
            s[probe:, 2] = 0.0                    # path 2 dies before the probe
            dead = sns_cfr_band(paths, arr, SnsMask(s=s), freqs)
            s2 = s.copy()
            s2[probe, 2] = 1.0                    # birth at the probe element
            born = sns_cfr_band(paths, arr, SnsMask(s=s2), freqs)
            from chansim6g.analysis import array_cross_correlation
            rho_dead, _ = array_cross_correlation(dead)
            rho_born, _ = array_cross_correlation(born)
            deltas.append(rho_born[probe] - rho_dead[probe])
        assert np.median(deltas) > 0.0


def _emimo_variant(**over):
    raw = json.loads(preset_path("emimo").read_text())
    blk = {**raw["emimo"], **over.pop("emimo", {})}
    raw.update(over, emimo=blk, drops=4, seed=0)
    return config_from_dict(raw)


def _full_array_xcorr_last(cfg, paths, mask):
    """``xcorr_last`` from the CFR of every element of the array."""
    fc = cfg.center_freq_hz
    n_freq = int(cfg.feature_block().get("freq_samples", 64))
    freqs = fc + np.linspace(-cfg.bandwidth_hz / 2, cfg.bandwidth_hz / 2, n_freq)
    cfr = sns_cfr_band(paths, cfg.build_array(cfg.bs_array), mask, freqs)
    return float(array_cross_correlation(cfr)[0][-1])


def _full_row_xcorr_last(path):
    """Analyze's ``xcorr_last`` from every receive element's CFR."""
    cir = read_cir(path)
    freqs = np.linspace(0.0, 1.0 / max(cir.tap_delays_s.max(), 1e-9), 64)
    basis = np.exp(-2j * np.pi * freqs[None, :] * cir.tap_delays_s[:, None])
    return float(array_cross_correlation(cir.coefficients[0, :, 0, :] @ basis)[0][-1])


EMIMO_VARIANTS = {
    "preset": {},
    "nlos": {"link_state": "NLOS"},
    "link-state-null": {"link_state": None},
    "single": {"bs_array": {"type": "single"}},
    "ula2": {"bs_array": {"type": "ula", "n": 2}},
    "ula3": {"bs_array": {"type": "ula", "n": 3}},
    "ula64": {"bs_array": {"type": "ula", "n": 64}},
    "freq2": {"emimo": {"freq_samples": 2}},
    "freq128": {"emimo": {"freq_samples": 128}},
    "region1": {"emimo": {"stationary_region": 1}},
}


class TestXcorrLast:
    """``xcorr_last`` is computed from the two elements it correlates; it
    must equal, bit for bit, the value read off the full-array correlation."""

    @pytest.mark.parametrize("variant", EMIMO_VARIANTS)
    def test_run_drop_matches_full_array(self, variant, monkeypatch):
        cfg = _emimo_variant(**EMIMO_VARIANTS[variant])
        seen = {}

        def spy(name):
            real = getattr(emimo, name)

            def wrapper(*args, **kwargs):
                seen[name] = real(*args, **kwargs)
                return seen[name]
            monkeypatch.setattr(emimo, name, wrapper)

        spy("paths_from_clusters")
        spy("gen_sns_mask")
        for drop in range(cfg.drops):
            got = run_drop(cfg, drop).metrics["xcorr_last"]
            want = _full_array_xcorr_last(cfg, seen["paths_from_clusters"],
                                          seen["gen_sns_mask"])
            assert got == want

    @pytest.mark.parametrize("variant", ["preset", "ula3", "base"])
    def test_analyze_matches_full_rows(self, variant, tmp_path):
        if variant == "base":
            cfg = config_from_dict({"scenario": "uma", "feature": "BASE",
                                    "center_freq_hz": 3.5e9, "bandwidth_hz": 20e6,
                                    "link_state": None, "drops": 4, "seed": 0,
                                    "bs_position": [0.0, 0.0, 25.0],
                                    "ue_position": [120.0, 60.0, 1.5],
                                    "bs_array": {"type": "ula", "n": 8},
                                    "ue_array": {"type": "ula", "n": 2}})
        else:
            cfg = _emimo_variant(**EMIMO_VARIANTS[variant])
        run_campaign(cfg, tmp_path)
        assert cli_main(["analyze", "--in", str(tmp_path), "--metrics", "xcorr"]) == 0
        with (tmp_path / "analysis.csv").open() as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == cfg.drops
        for row in rows:
            path = tmp_path / f"drop{int(row['drop']):05d}.cir"
            assert float(row["xcorr_last"]) == _full_row_xcorr_last(path)
