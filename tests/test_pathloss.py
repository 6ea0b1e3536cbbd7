import math

import numpy as np
import pytest

from chansim6g.constants import C_LIGHT
from chansim6g.geometry import ConfigurationError
from chansim6g.largescale import elevation_keyed, load_scenarios, scenario_pathloss
from chansim6g.pathloss import (AbgParams, PathLossSample, fit_abg, pl_abg, pl_ci,
                                pl_radar_echo, pl_sagin)


def fspl_oracle(d, f):
    """Textbook Friis free-space loss."""
    return 20.0 * math.log10(d) + 20.0 * math.log10(f) + 20.0 * math.log10(
        4.0 * math.pi / C_LIGHT)


def radar_oracle(d1, d2, f, rcs_dbsm):
    """Radar equation via wavelength: L = (4 pi)^3 d1^2 d2^2 / (sigma lambda^2)."""
    lam = C_LIGHT / f
    sigma = 10.0 ** (rcs_dbsm / 10.0)
    return 10.0 * math.log10((4 * math.pi) ** 3 * d1 ** 2 * d2 ** 2 / (sigma * lam ** 2))


class TestCi:
    def test_1m_28ghz(self):
        val = pl_ci(1.0, 28e9, 2.0)
        assert val == pytest.approx(fspl_oracle(1.0, 28e9), abs=1e-9)
        assert val == pytest.approx(61.38, abs=0.01)

    def test_1m_132ghz(self):
        val = pl_ci(1.0, 132e9, 2.0)
        assert val == pytest.approx(fspl_oracle(1.0, 132e9), abs=1e-9)
        assert val == pytest.approx(74.85, abs=0.01)

    def test_free_space_exponent(self):
        for d in (2.0, 17.0, 480.0):
            assert pl_ci(d, 28e9, 2.0) - pl_ci(1.0, 28e9, 2.0) == pytest.approx(
                20.0 * math.log10(d), rel=1e-12)

    def test_matches_sagin_friis(self):
        for d, f in ((1.0, 2e9), (250.0, 28e9), (3e4, 132e9)):
            assert pl_ci(d, f, 2.0) == pytest.approx(pl_sagin(d, f), abs=1e-9)

    def test_below_reference_rejected(self):
        with pytest.raises(ValueError):
            pl_ci(0.5, 28e9, 2.0)


class TestAbg:
    def test_reference_point(self):
        p = AbgParams(alpha=1.93, beta_db=32.0, gamma=2.1, sigma_db=0.0)
        assert pl_abg(1.0, 1.0, p) == 32.0

    def test_frequency_slope_21db_per_decade(self):
        p = AbgParams(alpha=1.93, beta_db=32.0, gamma=2.1, sigma_db=2.0)
        assert pl_abg(50.0, 300.0, p) - pl_abg(50.0, 30.0, p) == pytest.approx(
            21.0, rel=1e-12)

    def test_least_squares_refit(self):
        # Oracle: linear least squares recovers the generating exponents.
        rng = np.random.default_rng(11)
        n = 10_000
        d = 10.0 ** rng.uniform(0.0, 2.0, n)
        f = rng.uniform(220.0, 330.0, n)
        truth = AbgParams(alpha=1.93, beta_db=32.0, gamma=2.1, sigma_db=0.0)
        pl = np.array([pl_abg(di, fi, truth) for di, fi in zip(d, f)])
        pl += rng.normal(0.0, 2.0, n)
        fit = fit_abg(d, f, pl)
        assert abs(fit.alpha - truth.alpha) < 0.05
        assert abs(fit.gamma - truth.gamma) < 0.05
        assert fit.sigma_db == pytest.approx(2.0, abs=0.1)

    def test_negative_sigma_rejected(self):
        with pytest.raises(ValueError):
            AbgParams(alpha=2.0, beta_db=30.0, gamma=2.0, sigma_db=-1.0)


class TestSagin:
    def test_600km_2ghz(self):
        val = pl_sagin(600e3, 2e9)
        assert val == pytest.approx(fspl_oracle(600e3, 2e9), abs=1e-9)
        assert val == pytest.approx(154.03, abs=0.01)

    def test_tree_shadowing_hook(self):
        assert pl_sagin(600e3, 2e9, extra_atten_db=12.0) == pytest.approx(
            pl_sagin(600e3, 2e9) + 12.0, abs=1e-12)

    def test_slant_doubling(self):
        assert pl_sagin(1200e3, 2e9) - pl_sagin(600e3, 2e9) == pytest.approx(
            20.0 * math.log10(2.0), rel=1e-12)

    def test_negative_extra_rejected(self):
        with pytest.raises(ConfigurationError):
            pl_sagin(600e3, 2e9, extra_atten_db=-1.0)


class TestRadarEcho:
    def test_fourth_power_law(self):
        delta = pl_radar_echo(20.0, 20.0, 28e9) - pl_radar_echo(10.0, 10.0, 28e9)
        assert delta == pytest.approx(40.0 * math.log10(2.0), rel=1e-12)

    def test_rcs_linear(self):
        assert pl_radar_echo(10.0, 10.0, 28e9, rcs_dbsm=10.0) == pytest.approx(
            pl_radar_echo(10.0, 10.0, 28e9, rcs_dbsm=0.0) - 10.0, abs=1e-12)

    def test_against_radar_equation_oracle(self):
        assert pl_radar_echo(10.0, 10.0, 28e9, 0.0) == pytest.approx(
            radar_oracle(10.0, 10.0, 28e9, 0.0), abs=1e-9)
        assert pl_radar_echo(12.0, 31.0, 132e9, -7.0) == pytest.approx(
            radar_oracle(12.0, 31.0, 132e9, -7.0), abs=1e-9)

    def test_domain(self):
        with pytest.raises(ValueError):
            pl_radar_echo(0.0, 10.0, 28e9)


class TestShadow:
    def test_total(self):
        s = PathLossSample(pl_db=100.0, shadow_db=-3.0)
        assert s.total_db == 97.0


class TestMonotonicityAndAssets:
    def test_monotone_in_distance(self):
        d = np.linspace(1.0, 500.0, 200)
        for fn in (lambda x: pl_ci(x, 28e9, 2.0),
                   lambda x: pl_abg(x, 28.0, AbgParams(1.93, 32.0, 2.1, 0.0)),
                   lambda x: pl_sagin(x, 2e9),
                   lambda x: pl_radar_echo(x, x, 28e9)):
            vals = np.array([fn(x) for x in d])
            assert np.all(np.diff(vals) > 0)

    def test_nlos_exponent_exceeds_los_everywhere(self):
        # Reflects the measured pattern: NLOS path-loss exponents are
        # markedly higher than LOS in every shipped terrestrial table (the
        # elevation-keyed satellite tables hold no exponent: SAGIN drops
        # apply free-space loss).
        terrestrial = [s for s in load_scenarios()["scenarios"]
                       if not elevation_keyed(s)]
        assert set(terrestrial) == {"umi", "inh_office", "uma", "rma"}
        for scenario in terrestrial:
            los = scenario_pathloss(scenario, "LOS")
            nlos = scenario_pathloss(scenario, "NLOS")
            assert nlos > los, scenario
