import math

import numpy as np
import pytest
from scipy import stats

from chansim6g.sagin import (SgEnvelopeParams, ntn_drop, sample_envelope,
                             weather_adjusted_k)
from chansim6g.seeding import DropStreams


class TestEnvelope:
    def test_pure_los_is_lognormal(self):
        params = SgEnvelopeParams(lognormal_mu=0.5, lognormal_sigma=0.4,
                                  rayleigh_scale=0.0)
        r = sample_envelope(params, np.random.default_rng(0), size=100_000)
        ks = stats.kstest(np.abs(r), "lognorm", args=(0.4, 0, math.exp(0.5)))
        assert ks.pvalue > 0.01

    def test_pure_diffuse_is_rayleigh(self):
        params = SgEnvelopeParams(lognormal_mu=-200.0, lognormal_sigma=0.0,
                                  rayleigh_scale=1.3)
        r = sample_envelope(params, np.random.default_rng(1), size=100_000)
        ks = stats.kstest(np.abs(r), "rayleigh", args=(0, 1.3))
        assert ks.pvalue > 0.01

    def test_power_moments_add(self):
        mu, sigma, scale = 0.2, 0.3, 0.8
        params = SgEnvelopeParams(lognormal_mu=mu, lognormal_sigma=sigma,
                                  rayleigh_scale=scale)
        r = sample_envelope(params, np.random.default_rng(2), size=100_000)
        expect = math.exp(2 * mu + 2 * sigma ** 2) + 2 * scale ** 2
        assert np.mean(np.abs(r) ** 2) == pytest.approx(expect, rel=0.02)

    def test_phase_uniformity(self):
        params = SgEnvelopeParams(lognormal_mu=0.0, lognormal_sigma=0.5,
                                  rayleigh_scale=1.0)
        r = sample_envelope(params, np.random.default_rng(3), size=200_000)
        counts, _ = np.histogram(np.angle(r), bins=24, range=(-np.pi, np.pi))
        assert stats.chisquare(counts).pvalue > 0.01

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            SgEnvelopeParams(lognormal_mu=0.0, lognormal_sigma=-0.1,
                             rayleigh_scale=1.0)


class TestWeatherK:
    def test_no_weather_identity(self):
        assert weather_adjusted_k(17.5) == 17.5

    def test_arithmetic_exact(self):
        assert weather_adjusted_k(20.0, 3.0, 2.0) == 15.0

    def test_rain_fade_anchor_range(self):
        # Measured rain fades around 0.6 mm accumulated rainfall sit near
        # 5-6.4 dB; a preset K_Rain in that band reduces K accordingly.
        for fade in (5.0, 6.4):
            assert weather_adjusted_k(20.0, fade) == 20.0 - fade

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            weather_adjusted_k(float("nan"))


class TestNtnDrop:
    def _drop(self, height=600e3, elev_deg=90.0, f=2e9, seed=0, **kw):
        return ntn_drop("dense_urban", "LOS", f, height,
                        math.radians(elev_deg), [DropStreams(seed, 0)], **kw)[0]

    def test_zenith_path_loss_anchor(self):
        cir = self._drop()
        assert cir.meta["pl_db"] == pytest.approx(154.03, abs=0.01)

    def test_frequency_ratio_exact(self):
        a = self._drop(f=2e9, elev_deg=60.0)
        b = self._drop(f=28e9, elev_deg=60.0)
        assert b.meta["pl_db"] - a.meta["pl_db"] == pytest.approx(
            20.0 * math.log10(14.0), abs=1e-9)

    def test_monotone_in_height(self):
        pls = [self._drop(height=h, elev_deg=30.0).meta["pl_db"]
               for h in (600e3, 900e3, 1200e3, 1500e3)]
        assert np.all(np.diff(pls) > 0)

    def test_weather_reduces_k(self):
        a = self._drop(seed=5)
        b = self._drop(seed=5, k_rain_db=5.0, k_cloud_db=1.4)
        assert a.meta["k_total_db"] - b.meta["k_total_db"] == pytest.approx(
            6.4, abs=1e-12)

    def test_extra_attenuation_hook(self):
        a = self._drop(seed=5)
        b = self._drop(seed=5, extra_atten_db=12.0)
        assert b.meta["pl_db"] - a.meta["pl_db"] == pytest.approx(12.0, abs=1e-12)

    def test_below_horizon_rejected(self):
        with pytest.raises(ValueError):
            self._drop(elev_deg=0.0)

    def test_deterministic(self):
        a = self._drop(seed=9)
        b = self._drop(seed=9)
        assert np.array_equal(a.coefficients, b.coefficients)

    def test_elevation_keyed_parameters(self):
        from chansim6g.largescale import LSP_ORDER, lookup_lsp_table
        e30 = lookup_lsp_table("dense_urban", "LOS", 2e9, elevation_deg=30.0)
        e60 = lookup_lsp_table("dense_urban", "LOS", 2e9, elevation_deg=60.0)
        k = LSP_ORDER.index("k")
        assert e60.lsp_mu[k] > e30.lsp_mu[k]  # higher links see less clutter
