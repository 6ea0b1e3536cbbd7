import csv
import math

import numpy as np
import pytest

from chansim6g.analysis import (MetricReport, array_cross_correlation,
                                circular_angular_spread, export_cdf_csv,
                                export_metrics_csv, gini_index, rms_delay_spread,
                                rsrp)
from chansim6g.cir import CirTensor


def read_cdf(path):
    """(values, probabilities) of a CDF csv written by export_cdf_csv."""
    with path.open(newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["value", "cdf"]
    return (np.array([float(v) for v, _ in rows[1:]]),
            np.array([float(p) for _, p in rows[1:]]))


def gini_oracle(x):
    """Brute-force mean-absolute-difference Gini."""
    x = np.asarray(x, dtype=np.float64)
    n = x.size
    return float(np.abs(x[:, None] - x[None, :]).sum() / (2.0 * n * n * x.mean()))


def make_tensor(coeffs):
    c = np.asarray(coeffs, dtype=np.complex128)
    return CirTensor(coefficients=c,
                     tap_delays_s=np.arange(c.shape[3], dtype=np.float64) * 1e-9,
                     sample_times_s=np.zeros(c.shape[0]))


class TestRmsDelaySpread:
    def test_single_tap(self):
        assert rms_delay_spread([1.0], [5e-9]) == 0.0

    def test_symmetric_two_path(self):
        t = 7.3e-9
        assert rms_delay_spread([0.5, 0.5], [0.0, 2 * t]) == pytest.approx(t, rel=1e-12)

    def test_all_zero_power(self):
        with pytest.raises(ValueError):
            rms_delay_spread([0.0, 0.0], [0.0, 1e-9])


class TestCircularSpread:
    def test_point_mass(self):
        assert circular_angular_spread([2.0, 3.0], [0.7, 0.7]) == pytest.approx(0.0, abs=1e-6)

    def test_two_rays_closed_form(self):
        phi = math.radians(30.0)
        expected = math.degrees(math.sqrt(-2.0 * math.log(math.cos(phi))))
        assert circular_angular_spread([1.0, 1.0], [phi, -phi]) == pytest.approx(
            expected, rel=1e-12)

    def test_rotation_invariance(self):
        rng = np.random.default_rng(0)
        p = rng.uniform(0.1, 1.0, 50)
        ang = rng.uniform(-np.pi, np.pi, 50)
        a = circular_angular_spread(p, ang)
        b = circular_angular_spread(p, ang + 1.234)
        assert a == pytest.approx(b, rel=1e-9)


class TestGini:
    def test_equal_powers_exact_zero(self):
        assert gini_index(np.full(17, 0.4)) == 0.0

    def test_single_nonzero(self):
        x = np.zeros(100)
        x[42] = 3.0
        assert gini_index(x) == pytest.approx(0.99, abs=1e-12)

    def test_scale_invariance_exact(self):
        rng = np.random.default_rng(1)
        x = rng.uniform(0.0, 2.0, 64)
        assert gini_index(7.0 * x) == gini_index(x)

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            x = rng.exponential(1.0, rng.integers(2, 200))
            assert gini_index(x) == pytest.approx(gini_oracle(x), abs=1e-12)

    def test_range(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            g = gini_index(rng.exponential(1.0, 30))
            assert 0.0 <= g < 1.0

    def test_all_zero_rejected(self):
        with pytest.raises(ValueError):
            gini_index(np.zeros(5))


class TestCrossCorrelation:
    def test_self_correlation(self):
        rng = np.random.default_rng(4)
        cfr = rng.normal(size=(4, 64)) + 1j * rng.normal(size=(4, 64))
        rho, defined = array_cross_correlation(cfr, ref_index=2)
        assert rho[2] == pytest.approx(1.0, rel=1e-12)
        assert defined.all()

    def test_independent_elements_decorrelate(self):
        rng = np.random.default_rng(5)
        cfr = rng.normal(size=(40, 4096)) + 1j * rng.normal(size=(40, 4096))
        rho, _ = array_cross_correlation(cfr)
        assert rho[1:].mean() < 0.05

    def test_zero_variance_flagged(self):
        cfr = np.ones((3, 16), dtype=complex)
        cfr[1] = np.exp(1j * np.linspace(0, 1, 16))
        rho, defined = array_cross_correlation(cfr, ref_index=1)
        assert not defined[0] and not defined[2]
        assert np.isfinite(rho).all()


class TestRsrp:
    def test_unit_channel(self):
        cir = make_tensor(np.ones((1, 1, 1, 1)))
        assert rsrp(cir, 0.0) == pytest.approx(0.0, abs=1e-12)

    def test_pathloss_shift(self):
        cir = make_tensor(np.ones((1, 2, 2, 3)))
        attenuated = make_tensor(0.1 * np.ones((1, 2, 2, 3)))
        assert rsrp(cir) - rsrp(attenuated) == pytest.approx(20.0, abs=1e-9)

    def test_energy_sum_oracle(self):
        rng = np.random.default_rng(6)
        c = rng.normal(size=(2, 3, 4, 5)) + 1j * rng.normal(size=(2, 3, 4, 5))
        cir = make_tensor(c)
        expected = 10.0 * math.log10(np.mean(np.sum(np.abs(c) ** 2, axis=3)))
        assert rsrp(cir, 0.0) == pytest.approx(expected, abs=1e-9)


@pytest.mark.parametrize("shape", [(5, 1, 1, 1, 3), (7, 1, 1, 1, 8), (3, 1, 1, 1, 255),
                                   (4, 2, 3, 2, 7), (6, 4, 2, 8, 20), (2, 1, 256, 1, 16)])
def test_stacked_metrics_equal_each_row_alone(shape):
    """ds, gini and rsrp over stacked profiles give, row by row, exactly
    their value for that row alone; n < 8 and n >= 8 take different
    summation paths. A zero row gives rsrp -inf."""
    rng = np.random.default_rng(sum(shape))
    c = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    c *= rng.exponential(1.0, size=shape) ** 3
    powers = np.mean(np.abs(c) ** 2, axis=(1, 2, 3))
    delays = np.sort(rng.uniform(0.0, 1e-6, size=powers.shape), axis=-1)
    ds, gini, power = rms_delay_spread(powers, delays), gini_index(powers), rsrp(c, 3.0)
    for i in range(shape[0]):
        assert ds[i] == rms_delay_spread(powers[i], delays[i])
        assert gini[i] == gini_index(powers[i])
        assert power[i] == rsrp(make_tensor(c[i]), 3.0)
    c[1] = 0.0
    power = rsrp(c, 3.0)
    assert power[1] == -math.inf
    assert list(power) == [rsrp(make_tensor(row), 3.0) for row in c]


class TestExports:
    def test_cdf_roundtrip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(7)
        vals = rng.normal(size=1000) * math.pi
        path = tmp_path / "cdf.csv"
        export_cdf_csv(vals, path)
        rv, rp = read_cdf(path)
        assert np.array_equal(rv, np.sort(vals))
        assert np.array_equal(rp, np.arange(1, 1001) / 1000.0)

    def test_cdf_monotone(self, tmp_path):
        export_cdf_csv([3.0, 1.0, 2.0], tmp_path / "c.csv")
        vals, probs = read_cdf(tmp_path / "c.csv")
        assert np.all(np.diff(vals) >= 0)
        assert np.all(np.diff(probs) > 0)
        assert probs[-1] == 1.0

    def test_metrics_csv(self, tmp_path):
        rep = MetricReport()
        rep.add(0, ds_ns=1.25, gini=0.5)
        rep.add(1, ds_ns=2.5, gini=0.25)
        export_metrics_csv(rep, tmp_path / "m.csv")
        lines = (tmp_path / "m.csv").read_text().strip().splitlines()
        assert lines[0] == "drop,ds_ns,gini"
        assert len(lines) == 3
        assert rep.column("ds_ns").tolist() == [1.25, 2.5]
