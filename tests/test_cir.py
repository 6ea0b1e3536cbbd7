import dataclasses
import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chansim6g import cir
from chansim6g.cir import (CirTensor, apply_large_scale, read_cir,
                           synthesize_cir, write_cir)
from chansim6g.constants import wavelength
from chansim6g.geometry import build_ula, single_element
from chansim6g.pathloss import PathLossSample
from chansim6g.smallscale import ClusterSet
from ris_oracle import polarization_matrices


def make_clusters(delays, powers, aoa, zoa=None, aod=None, zod=None, m=1,
                  kappa=1e12, phases=None, doppler=0.0, state="NLOS",
                  ray_powers=None, rng=None):
    n = len(delays)
    delays = np.asarray(delays, dtype=np.float64)
    powers = np.asarray(powers, dtype=np.float64)

    def expand(x, default):
        if x is None:
            x = default
        x = np.asarray(x, dtype=np.float64)
        return np.broadcast_to(x[:, None] if x.ndim == 1 else x, (n, m)).copy()

    aoa = expand(np.asarray(aoa, dtype=np.float64), None)
    zoa = expand(zoa, np.full(n, np.pi / 2))
    aod = expand(aod, np.zeros(n))
    zod = expand(zod, np.full(n, np.pi / 2))
    if ray_powers is None:
        ray_powers = np.repeat(powers[:, None], m, axis=1) / m
    if phases is None:
        phases = (np.zeros((n, m, 4)) if rng is None
                  else rng.uniform(-np.pi, np.pi, (n, m, 4)))
    return ClusterSet(delays_s=delays, powers=powers, ray_powers=ray_powers,
                      zoa=zoa, aoa=aoa, zod=zod, aod=aod,
                      kappa=np.full((n, m), kappa),
                      phases=phases, doppler_hz=np.full((n, m), doppler),
                      state=state)


class TestSynthesis:
    def test_single_ray_unit_power(self):
        cs = make_clusters([0.0], [1.0], aoa=[0.3],
                           phases=np.random.default_rng(0).uniform(
                               -np.pi, np.pi, (1, 1, 4)))
        cir = synthesize_cir(cs, single_element(), single_element(), 28e9)
        assert np.abs(cir.coefficients[0, 0, 0, 0]) == pytest.approx(1.0, abs=1e-12)

    def test_two_element_array_phase(self):
        f = 28e9
        rx = build_ula(2, spacing=wavelength(f) / 2)
        # Broadside arrival (x axis, perpendicular to the y-axis ULA).
        cs = make_clusters([0.0], [1.0], aoa=[0.0])
        h = synthesize_cir(cs, single_element(), rx, f).coefficients[0, :, 0, 0]
        assert np.angle(h[1] / h[0]) == pytest.approx(0.0, abs=1e-12)
        # Endfire arrival (along the array axis).
        cs = make_clusters([0.0], [1.0], aoa=[np.pi / 2])
        h = synthesize_cir(cs, single_element(), rx, f).coefficients[0, :, 0, 0]
        assert abs(np.angle(h[1] / h[0])) == pytest.approx(np.pi, abs=1e-9)

    def test_power_conservation_monte_carlo(self):
        rng = np.random.default_rng(1)
        m = 20
        acc = []
        for _ in range(10_000):
            cs = make_clusters([0.0], [1.0], aoa=[0.4], m=m, rng=rng)
            h = synthesize_cir(cs, single_element(), single_element(), 28e9)
            acc.append(np.abs(h.coefficients[0, 0, 0, 0]) ** 2)
        assert abs(np.mean(acc) - 1.0) < 0.03

    def test_one_tap_per_cluster(self):
        delays = [0.0, 30e-9, 80e-9]
        cs = make_clusters(delays, [0.5, 0.3, 0.2], aoa=[0.1, 0.2, 0.3])
        cir = synthesize_cir(cs, single_element(), single_element(), 28e9)
        assert cir.coefficients.shape == (1, 1, 1, 3)
        assert np.array_equal(cir.tap_delays_s, delays)

    def test_doppler_linear_phase(self):
        nu = 1234.5
        times = np.linspace(0.0, 2e-3, 7)
        cs = make_clusters([0.0], [1.0], aoa=[0.0], doppler=nu)
        h = synthesize_cir(cs, single_element(), single_element(), 28e9,
                           times=times).coefficients[:, 0, 0, 0]
        expected = np.exp(2j * np.pi * nu * times)
        assert np.allclose(h / h[0], expected / expected[0], atol=1e-9)

    def test_reciprocity_transpose(self):
        rng = np.random.default_rng(2)
        n, m = 3, 4
        f = 28e9
        aoa = rng.uniform(-np.pi, np.pi, n)
        zoa = rng.uniform(0.3, 2.8, n)
        aod = rng.uniform(-np.pi, np.pi, n)
        zod = rng.uniform(0.3, 2.8, n)
        phases = rng.uniform(-np.pi, np.pi, (n, m, 4))
        powers = np.array([0.5, 0.3, 0.2])
        kw = dict(m=m, kappa=4.0, state="NLOS")
        fwd = make_clusters([0, 1e-9, 2e-9], powers, aoa=aoa, zoa=zoa,
                            aod=aod, zod=zod, phases=phases, **kw)
        # Reverse link: swap arrival/departure and transpose the 2x2 phase
        # matrix (theta-phi cross terms exchange).
        phases_rev = phases[..., [0, 2, 1, 3]]
        rev = make_clusters([0, 1e-9, 2e-9], powers, aoa=aod, zoa=zod,
                            aod=aoa, zod=zoa, phases=phases_rev, **kw)
        tx = build_ula(2, spacing=0.004)
        rx = build_ula(3, spacing=0.006)
        h_fwd = synthesize_cir(fwd, tx, rx, f).coefficients[0]
        h_rev = synthesize_cir(rev, rx, tx, f).coefficients[0]
        assert np.allclose(h_rev, np.transpose(h_fwd, (1, 0, 2)), atol=1e-12)

    def test_specular_polarization_deterministic(self):
        # LOS specular ray carries the co-polar diag(1, -1) matrix: with
        # theta-polarized elements its coefficient has zero phase at the origin.
        cs = make_clusters([0.0], [1.0], aoa=[0.25], state="LOS",
                           phases=np.random.default_rng(4).uniform(
                               -np.pi, np.pi, (1, 1, 4)))
        h = synthesize_cir(cs, single_element(), single_element(), 28e9)
        val = h.coefficients[0, 0, 0, 0]
        assert val.real == pytest.approx(1.0, abs=1e-12)
        assert val.imag == pytest.approx(0.0, abs=1e-12)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 6), m=st.sampled_from([1, 3, 20]), u=st.integers(1, 4),
       s=st.integers(1, 8), nt=st.integers(1, 4), los=st.booleans(),
       seed=st.integers(0, 2 ** 32 - 1))
def test_synthesis_matches_ray_sum(n, m, u, s, nt, los, seed):
    """The per-cluster matmul equals the ray-by-ray sum to rounding: every
    coefficient sums m terms of magnitude <= 1."""
    rng = np.random.default_rng(seed)
    f = 28e9
    lam = wavelength(f)
    powers = rng.dirichlet(np.ones(n))
    delays = np.concatenate([[0.0], np.sort(rng.uniform(0, 1e-6, n - 1))])
    cs = make_clusters(delays, powers,
                       aoa=rng.uniform(-np.pi, np.pi, (n, m)),
                       zoa=rng.uniform(0, np.pi, (n, m)),
                       aod=rng.uniform(-np.pi, np.pi, (n, m)),
                       zod=rng.uniform(0, np.pi, (n, m)), m=m, rng=rng,
                       state="LOS" if los else "NLOS")
    cs = dataclasses.replace(cs, doppler_hz=rng.normal(0, 500.0, (n, m)))
    tx, rx = build_ula(s, spacing=lam / 2), build_ula(u, spacing=lam / 2)
    times = np.arange(nt) * 1e-4
    got = synthesize_cir(cs, tx, rx, f, times).coefficients
    amp = np.sqrt(cs.ray_powers) * polarization_matrices(cs)[..., 0, 0]
    phase_rx = cir._array_phases(rx, cs.zoa, cs.aoa, lam)
    phase_tx = cir._array_phases(tx, cs.zod, cs.aod, lam)
    dop = np.exp(2j * np.pi * cs.doppler_hz[..., None] * times)
    want = np.zeros((nt, u, s, n), dtype=complex)
    for k in range(m):
        want += np.einsum("n,nu,ns,nt->tusn", amp[:, k], phase_rx[:, k],
                          phase_tx[:, k], dop[:, k])
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) < 1e-13


class TestLargeScale:
    def test_identity(self):
        cs = make_clusters([0.0], [1.0], aoa=[0.0])
        cir = synthesize_cir(cs, single_element(), single_element(), 28e9)
        out = apply_large_scale(cir, PathLossSample(0.0, 0.0))
        assert np.array_equal(out.coefficients, cir.coefficients)

    def test_20db_is_factor_10(self):
        cs = make_clusters([0.0], [1.0], aoa=[0.0])
        cir = synthesize_cir(cs, single_element(), single_element(), 28e9)
        out = apply_large_scale(cir, PathLossSample(20.0, 0.0))
        assert np.allclose(np.abs(out.coefficients),
                           0.1 * np.abs(cir.coefficients), rtol=1e-12)

    def test_energy_accounting(self):
        rng = np.random.default_rng(5)
        cs = make_clusters([0.0, 10e-9], [0.6, 0.4], aoa=[0.1, 0.9], m=20, rng=rng)
        cir = synthesize_cir(cs, single_element(), single_element(), 28e9)
        pl, sf = 87.0, -4.5
        out = apply_large_scale(cir, PathLossSample(pl, sf))
        before = np.log10(np.sum(np.abs(cir.coefficients) ** 2))
        after = np.log10(np.sum(np.abs(out.coefficients) ** 2))
        assert after - before == pytest.approx(-(pl + sf) / 10.0, abs=1e-9)

    def test_overflowing_gain_is_rejected(self):
        """A finite scale (1e300) that overflows a coefficient still fails
        the tensor's finiteness check."""
        cir = CirTensor(coefficients=np.full((1, 1, 1, 2), 1e10 + 0j),
                        tap_delays_s=np.array([0.0, 1e-9]), sample_times_s=np.zeros(1))
        with np.errstate(over="ignore"), \
                pytest.raises(ValueError, match="non-finite channel coefficient"):
            apply_large_scale(cir, PathLossSample(-6000.0, 0.0))

    def test_result_is_a_new_tensor(self):
        cs = make_clusters([0.0, 10e-9], [0.6, 0.4], aoa=[0.1, 0.9])
        cir = synthesize_cir(cs, single_element(), single_element(), 28e9)
        cir.meta["seed"] = 7
        before = cir.coefficients.copy()
        out = apply_large_scale(cir, PathLossSample(20.0, 0.0))
        assert isinstance(out, CirTensor) and out is not cir
        assert np.array_equal(cir.coefficients, before)
        assert cir.meta == {"seed": 7} and out.meta == {"seed": 7, "pl_db": 20.0}
        assert out.tap_delays_s is cir.tap_delays_s


class TestFileFormat:
    def _tensor(self):
        rng = np.random.default_rng(6)
        c = rng.normal(size=(2, 2, 1, 3)) + 1j * rng.normal(size=(2, 2, 1, 3))
        return CirTensor(coefficients=c,
                         tap_delays_s=np.array([0.0, 1e-9, 5e-9]),
                         sample_times_s=np.array([0.0, 1e-3]),
                         meta={"config_hash": "abc123", "seed": 42})

    def test_roundtrip_bit_exact(self, tmp_path):
        cir = self._tensor()
        path = tmp_path / "t.cir"
        write_cir(cir, path)
        back = read_cir(path)
        assert np.array_equal(back.coefficients, cir.coefficients)
        assert np.array_equal(back.tap_delays_s, cir.tap_delays_s)
        assert back.meta["config_hash"] == "abc123"
        assert back.meta["seed"] == 42

    def test_wire_format_contract(self, tmp_path):
        # Independent reader: UTF-8 JSON header line, then little-endian
        # float64 (re, im) pairs in (t, u, s, n) row-major order.
        cir = self._tensor()
        path = tmp_path / "t.cir"
        write_cir(cir, path)
        blob = path.read_bytes()
        nl = blob.index(b"\n")
        header = json.loads(blob[:nl].decode("utf-8"))
        assert header["dims"] == [2, 2, 1, 3]
        payload = np.frombuffer(blob[nl + 1:], dtype="<f8").reshape(2, 2, 1, 3, 2)
        assert np.array_equal(payload[..., 0], cir.coefficients.real)
        assert np.array_equal(payload[..., 1], cir.coefficients.imag)

    def test_writes_deterministic(self, tmp_path):
        cir = self._tensor()
        write_cir(cir, tmp_path / "a.cir")
        write_cir(cir, tmp_path / "b.cir")
        assert (tmp_path / "a.cir").read_bytes() == (tmp_path / "b.cir").read_bytes()

    def test_truncated_rejected(self, tmp_path):
        cir = self._tensor()
        path = tmp_path / "t.cir"
        write_cir(cir, path)
        blob = path.read_bytes()
        path.write_bytes(blob[:-8])
        with pytest.raises(ValueError):
            read_cir(path)

    @pytest.mark.parametrize("extra", [16, 1])
    def test_trailing_bytes_rejected(self, tmp_path, extra):
        cir = self._tensor()
        path = tmp_path / "t.cir"
        write_cir(cir, path)
        path.write_bytes(path.read_bytes() + b"\0" * extra)
        with pytest.raises(ValueError, match=re.escape(
                f"{path}: tensor payload is {192 + extra} B, dims [2, 2, 1, 3] need 192 B")):
            read_cir(path)
