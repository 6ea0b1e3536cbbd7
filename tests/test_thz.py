import cmath
import json
import math

import numpy as np
import pytest

from chansim6g.constants import C_LIGHT
from chansim6g.largescale import data_dir
from chansim6g.thz import (FaModelParams, MaterialEm, apply_sparsity,
                           fresnel_smooth, load_materials, reflection_fa,
                           rough_reflection, roughness_factor)
from test_cir import make_clusters


def fresnel_oracle_te(n_complex, theta_in):
    """Textbook s-polarization Fresnel coefficient, vacuum to medium."""
    cos_i = math.cos(theta_in)
    cos_t = cmath.sqrt(1.0 - (math.sin(theta_in) / n_complex) ** 2)
    return (cos_i - n_complex * cos_t) / (cos_i + n_complex * cos_t)


def fresnel_oracle_tm(n_complex, theta_in):
    """Textbook p-polarization Fresnel coefficient magnitude convention."""
    cos_i = math.cos(theta_in)
    cos_t = cmath.sqrt(1.0 - (math.sin(theta_in) / n_complex) ** 2)
    return (n_complex * cos_i - cos_t) / (n_complex * cos_i + cos_t)


PLASTER = MaterialEm(name="plasterboard", n=1.50, alpha_abs=400.0, sigma_h=0.12e-3)


class TestFresnelSmooth:
    def test_conductor_proxy_limit(self):
        mirror = MaterialEm(name="mirror", n=1e6, alpha_abs=0.0, sigma_h=0.0)
        for th in (0.0, 0.5, 1.2):
            assert abs(fresnel_smooth(mirror, 270e9, th, "V")) == pytest.approx(
                1.0, abs=1e-5)

    def test_vacuum_matches_impedance(self):
        vac = MaterialEm(name="vacuum", n=1.0, alpha_abs=0.0, sigma_h=0.0)
        for th in (0.0, 0.7, 1.4):
            assert abs(fresnel_smooth(vac, 270e9, th, "V")) < 1e-12
            assert abs(fresnel_smooth(vac, 270e9, th, "H")) < 1e-12

    def test_against_textbook_oracle(self):
        f, th = 270e9, math.radians(30.0)
        n_c = PLASTER.complex_index(f)
        gv = fresnel_smooth(PLASTER, f, th, "V")
        gh = fresnel_smooth(PLASTER, f, th, "H")
        assert gv == pytest.approx(fresnel_oracle_te(n_c, th), abs=1e-9)
        assert abs(gh) == pytest.approx(abs(fresnel_oracle_tm(n_c, th)), abs=1e-9)

    def test_domain(self):
        with pytest.raises(ValueError):
            fresnel_smooth(PLASTER, 270e9, math.pi / 2, "V")
        with pytest.raises(ValueError):
            fresnel_smooth(PLASTER, 270e9, 0.3, "X")


class TestRoughness:
    def test_smooth_limit(self):
        smooth = MaterialEm(name="s", n=1.5, alpha_abs=0.0, sigma_h=0.0)
        assert rough_reflection(smooth, 270e9, 0.4, "V") == fresnel_smooth(
            smooth, 270e9, 0.4, "V")

    def test_locus_value(self):
        # 4 pi sigma cos(theta) / lambda == 1 gives rho == exp(-1/2).
        f = 270e9
        lam = C_LIGHT / f
        theta = math.radians(60.0)
        sigma = lam / (4.0 * math.pi * math.cos(theta))
        assert roughness_factor(sigma, f, theta) == pytest.approx(
            math.exp(-0.5), abs=1e-12)

    def test_grazing_limit(self):
        assert roughness_factor(1e-3, 270e9, math.pi / 2 - 1e-9) == pytest.approx(
            1.0, abs=1e-9)

    def test_grid_properties(self):
        # Acceptance-style grid: rho in (0, 1], attenuation never amplifies.
        rng = np.random.default_rng(0)
        f = rng.uniform(100e9, 450e9, 10_000)
        th = rng.uniform(0.0, math.pi / 2 - 1e-6, 10_000)
        sig = rng.uniform(0.0, 0.5e-3, 10_000)
        for i in range(0, 10_000, 997):
            mat = MaterialEm(name="x", n=1.7, alpha_abs=300.0, sigma_h=sig[i])
            rho = roughness_factor(sig[i], f[i], th[i])
            assert 0.0 < rho <= 1.0
            assert abs(rough_reflection(mat, f[i], th[i], "V")) <= abs(
                fresnel_smooth(mat, f[i], th[i], "V")) + 1e-15


class TestFrequencyAngleModel:
    def fa_oracle(self, p, f_ghz, th):
        pre = math.exp(-(10.0 ** p.a) * f_ghz ** 2 * math.cos(th) ** 2)
        eps = cmath.sqrt(1.0 + 10.0 ** p.b / (10.0 ** p.c - p.d * f_ghz ** 2
                                              - 1j * f_ghz) - math.sin(th) ** 2)
        return pre * (math.cos(th) - eps) / (math.cos(th) + eps)

    def test_formula_verbatim(self):
        p = FaModelParams(a=-5.0, b=2.1, c=0.44, d=-5e-4)
        for f, th in ((230e9, 0.2), (270e9, 1.1), (310e9, 0.7)):
            res = reflection_fa(p, f, th)
            assert res.gamma == pytest.approx(self.fa_oracle(p, f / 1e9, th),
                                              abs=1e-12)
            assert res.in_band

    def test_normal_incidence_prefactor(self):
        p = FaModelParams(a=-5.0, b=2.1, c=0.44, d=-5e-4)
        f_ghz = 270.0
        res = reflection_fa(p, f_ghz * 1e9, 0.0)
        eps = cmath.sqrt(1.0 + 10.0 ** p.b / (10.0 ** p.c - p.d * f_ghz ** 2
                                              - 1j * f_ghz))
        fresnel_part = (1.0 - eps) / (1.0 + eps)
        assert abs(res.gamma / fresnel_part) == pytest.approx(
            math.exp(-(10.0 ** p.a) * f_ghz ** 2), rel=1e-9)

    def test_out_of_band_flag(self):
        p = FaModelParams(a=-5.0, b=2.1, c=0.44, d=-5e-4)
        assert not reflection_fa(p, 500e9, 0.3).in_band
        assert reflection_fa(p, 250e9, 0.3).in_band

    def test_shipped_plasterboard_fit_quality(self):
        mats = load_materials()
        _, fit = mats["plasterboard"]
        raw = json.loads((data_dir() / "materials.json").read_text())
        grid = raw["materials"]["plasterboard"]["sample_grid"]
        f_ghz = np.array(grid["f_ghz"])
        theta = np.radians(np.array(grid["theta_deg"]))
        data = np.array(grid["gamma_abs"])
        model = np.array([[abs(reflection_fa(fit, fq * 1e9, th).gamma)
                           for th in theta] for fq in f_ghz])
        rms = math.sqrt(float(np.mean((model - data) ** 2)))
        assert 0.03 < rms < 0.17  # measurement-style fit quality ~0.1

    def test_shipped_fit_monotone_in_angle(self):
        mats = load_materials()
        _, fit = mats["plasterboard"]
        thetas = np.radians(np.arange(10, 81))
        vals = [abs(reflection_fa(fit, 270e9, th).gamma) for th in thetas]
        assert np.all(np.diff(vals) > 0)

    def test_trend_agreement_with_rough_fresnel(self):
        mats = load_materials()
        mat, fit = mats["plasterboard"]
        thetas = np.radians(np.arange(10, 81, 5))
        fa = np.array([abs(reflection_fa(fit, 270e9, th).gamma) for th in thetas])
        rf = np.array([abs(rough_reflection(mat, 270e9, th, "V")) for th in thetas])
        assert np.all(np.diff(fa) > 0) and np.all(np.diff(rf) > 0)

    def test_material_asset_invariants(self):
        mats = load_materials()
        assert set(mats) == {"glass", "tile", "board", "plasterboard"}
        for name, (mat, fit) in mats.items():
            assert mat.n >= 1.0
            assert mat.sigma_h >= 0.0
            assert fit is not None


class TestSparsity:
    def _cluster_set(self, m=20, n=3, rng=None):
        rng = rng or np.random.default_rng(0)
        powers = rng.uniform(0.1, 1.0, n)
        powers /= powers.sum()
        delays = np.sort(rng.uniform(0, 1e-7, n))
        delays -= delays[0]
        return make_clusters(delays, powers, aoa=rng.uniform(-3, 3, n),
                             m=m, rng=rng), powers

    def test_zero_db_two_rays_even_split(self):
        cs, powers = self._cluster_set(m=2)
        out = apply_sparsity(cs, 0.0)
        assert np.allclose(out.ray_powers[:, 0], powers / 2, atol=1e-15)
        assert np.allclose(out.ray_powers[:, 1], powers / 2, atol=1e-15)

    def test_minus_infinity_is_uniform(self):
        cs, powers = self._cluster_set(m=20)
        out = apply_sparsity(cs, -300.0)
        assert np.allclose(out.ray_powers, powers[:, None] / 20, atol=1e-15)

    def test_1798db_concentrates_power(self):
        from chansim6g.analysis import gini_index
        cs, _ = self._cluster_set(m=20)
        out = apply_sparsity(cs, 17.98)
        for i in range(out.ray_powers.shape[0]):
            assert gini_index(out.ray_powers[i]) > gini_index(cs.ray_powers[i])
        k = 10.0 ** 1.798
        assert np.allclose(out.ray_powers[:, 0] / out.powers, k / (k + 1), rtol=1e-12)

    def test_power_conservation(self):
        cs, powers = self._cluster_set(m=20)
        out = apply_sparsity(cs, 17.98)
        assert np.allclose(out.ray_powers.sum(axis=1), powers, atol=1e-12)
        assert abs(out.ray_powers.sum() - 1.0) <= 1e-12

    def test_single_ray_noop(self):
        cs, _ = self._cluster_set(m=1)
        out = apply_sparsity(cs, 17.98)
        assert np.array_equal(out.ray_powers, cs.ray_powers)
