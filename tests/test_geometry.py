import math

import numpy as np
import pytest

from chansim6g.constants import C_LIGHT, EARTH_RADIUS_M, wavelength
from chansim6g.geometry import (ConfigurationError, Position3D, assign_link_state,
                                build_ula, los_directions, los_probability,
                                rayleigh_distance, single_element, slant_geometry,
                                unit_vector)


def slant_oracle(height, elevation):
    """Independent slant range: quadratic for the range s along the elevated
    ray from a ground station on a sphere of radius Re."""
    re = EARTH_RADIUS_M
    return -re * math.sin(elevation) + math.sqrt(
        (re * math.sin(elevation)) ** 2 + 2.0 * re * height + height * height)


class TestArrays:
    def test_single_element_degenerate(self):
        arr = build_ula(1, spacing=0.005357)
        assert arr.element_count == 1
        assert arr.aperture == 0.0
        assert np.allclose(arr.element_positions, 0.0)

    def test_ula_aperture_28ghz(self):
        # Oracle: D = (n - 1) * c / (2 f) for half-wavelength spacing.
        n, f = 256, 28e9
        arr = build_ula(n, spacing=wavelength(f) / 2.0)
        expected = (n - 1) * C_LIGHT / (2.0 * f)
        assert arr.aperture == pytest.approx(expected, rel=1e-12)
        assert expected == pytest.approx(1.366, abs=1e-3)

    def test_two_elements_symmetric_about_centroid(self):
        arr = build_ula(2, spacing=1.0)
        ys = np.sort(arr.element_positions[:, 1])
        assert ys[0] == -0.5 and ys[1] == 0.5
        assert np.allclose(arr.element_positions.mean(axis=0), 0.0)

    def test_invalid_spacing(self):
        with pytest.raises(ConfigurationError):
            build_ula(4, spacing=0.0)
        with pytest.raises(ConfigurationError):
            build_ula(0, spacing=0.1)


class TestRayleighDistance:
    def test_zero_aperture(self):
        assert rayleigh_distance(0.0, 0.01) == 0.0

    def test_256_ula_value(self):
        lam = C_LIGHT / 28e9
        d = 255 * lam / 2.0
        assert rayleigh_distance(d, lam) == pytest.approx(2 * d * d / lam, rel=1e-15)
        assert rayleigh_distance(d, lam) == pytest.approx(348.35, abs=0.01)

    def test_large_array_sub6(self):
        # 7.3 m aperture at 2.6 GHz pushes the boundary beyond 900 m.
        lam = C_LIGHT / 2.6e9
        assert rayleigh_distance(7.3, lam) > 900.0

    @pytest.mark.parametrize("d", [0.1, 1.0, 3.7, 12.0])
    def test_quadratic_scaling(self, d):
        lam = 0.0107
        assert rayleigh_distance(2 * d, lam) == pytest.approx(
            4 * rayleigh_distance(d, lam), rel=1e-12)

    def test_bad_wavelength(self):
        with pytest.raises(ValueError):
            rayleigh_distance(1.0, 0.0)


class TestSlantGeometry:
    @pytest.mark.parametrize("h", [400e3, 600e3, 1500e3])
    def test_zenith_equals_height(self, h):
        assert slant_geometry(h, math.pi / 2).slant_range == pytest.approx(h, rel=1e-12)

    def test_600km_30deg(self):
        geom = slant_geometry(600e3, math.radians(30.0))
        assert geom.slant_range == pytest.approx(slant_oracle(600e3, math.radians(30.0)),
                                                 rel=1e-12)
        assert geom.slant_range == pytest.approx(1075.1e3, abs=200.0)

    def test_flat_earth_bound_comparison(self):
        # The spherical-Earth slant sits below the flat-Earth h/sin(elev)
        # bound for elevations under 90 degrees and meets it at zenith.
        h, elev = 1500e3, math.radians(60.0)
        geom = slant_geometry(h, elev)
        assert geom.slant_range == pytest.approx(slant_oracle(h, elev), rel=1e-12)
        assert geom.slant_range < h / math.sin(elev)
        assert slant_geometry(h, math.pi / 2).slant_range == pytest.approx(h, rel=1e-12)

    def test_elevation_consistency(self):
        # Elevation of the placed satellite above the ground station's local
        # horizon: asin of the line of sight's share along the local vertical.
        geom = slant_geometry(800e3, math.radians(42.0))
        up = geom.ue_position.to_array()
        los = geom.sat_position.to_array() - up
        along_up = np.dot(up, los) / (np.linalg.norm(up) * np.linalg.norm(los))
        assert math.asin(along_up) == pytest.approx(math.radians(42.0), abs=1e-9)

    def test_below_horizon_rejected(self):
        with pytest.raises(ValueError):
            slant_geometry(600e3, 0.0)
        with pytest.raises(ValueError):
            slant_geometry(600e3, -0.1)


class TestLinkState:
    def test_certain_curve(self):
        # umi is certain LOS up to 18 m.
        rng = np.random.default_rng(1)
        curve = {"family": "umi"}
        states = [assign_link_state(rng, curve, 10.0) for _ in range(200)]
        assert set(states) == {"LOS"}

    def test_half_probability_fraction(self):
        # rma: p = exp(-(d - 10) / 1000) = 0.5 at d = 10 + 1000 ln 2.
        # Binomial oracle: 1e5 draws at p = 0.5 land within +-0.01.
        rng = np.random.default_rng(2)
        curve = {"family": "rma"}
        d = 10.0 + 1000.0 * math.log(2.0)
        assert los_probability(curve, d) == pytest.approx(0.5, abs=1e-12)
        hits = sum(assign_link_state(rng, curve, d) == "LOS"
                   for _ in range(100_000))
        assert abs(hits / 100_000 - 0.5) < 0.01

    def test_seeded_reproducibility(self):
        a = [assign_link_state(np.random.default_rng(7), {"family": "umi"}, 80.0)
             for _ in range(1)]
        b = [assign_link_state(np.random.default_rng(7), {"family": "umi"}, 80.0)
             for _ in range(1)]
        assert a == b

    def test_curve_families(self):
        assert los_probability({"family": "umi"}, 10.0) == 1.0
        assert los_probability({"family": "rma"}, 5.0) == 1.0
        assert los_probability({"family": "inh_office"}, 1.0) == 1.0
        assert 0.0 < los_probability({"family": "uma"}, 100.0) < 1.0
        with pytest.raises(ConfigurationError):
            los_probability({"family": "mars"}, 10.0)


class TestPositions:
    def test_roundtrip_exact(self):
        p = Position3D(1.23456789012345678, -9.87e-13, 2.5e7)
        q = Position3D.from_iterable(p.to_array())
        assert (q.x, q.y, q.z) == (p.x, p.y, p.z)

    def test_nonfinite_rejected(self):
        with pytest.raises(ConfigurationError):
            Position3D(float("nan"), 0.0, 0.0)

    def test_los_directions_reciprocal(self):
        a = Position3D(0.0, 0.0, 3.0)
        b = Position3D(10.0, 10.0, 3.0)
        d = los_directions(a, b)
        assert d.aod == pytest.approx(math.atan2(10, 10))
        assert d.zod == pytest.approx(math.pi / 2)
        # Arrival bearing points back toward the transmitter.
        assert d.aoa == pytest.approx(d.aod - math.pi)

    def test_unit_vector_convention(self):
        v = unit_vector(np.pi / 2, 0.0)
        assert np.allclose(v, [1.0, 0.0, 0.0], atol=1e-15)
        assert np.allclose(unit_vector(0.0, 1.3), [0.0, 0.0, 1.0], atol=1e-15)

    def test_single_element_helper(self):
        assert single_element().element_count == 1
