import math

import numpy as np
import pytest

from chansim6g.cir import _polarization_matrices
from chansim6g.constants import Z0_OHM, wavelength
from chansim6g.geometry import (ConfigurationError, build_ula, single_element,
                                unit_vector)
from chansim6g.ris import (CASCADE_TILE, GRAZING_LIMIT_RAD, RisPanel,
                           cascade_cir_multi, element_pattern,
                           element_reflection, overall_pattern,
                           rotation_facing, rotation_with_incidence,
                           steering_codebook, table_codebook, uniform_codebook)
from test_cir import make_clusters

F = 28e9
LAM = wavelength(F)


def reflection_oracle_v(z_e, z_m, theta):
    """Direct evaluation of the load-impedance V formula."""
    c = math.cos(theta)
    return -Z0_OHM / (2 * z_e * c + Z0_OHM) + (z_m * c) / (z_m * c + 2 * Z0_OHM)


class TestElementReflection:
    def test_pec_limit_exact(self):
        assert element_reflection(0.0, 0.0, 0.3, "V") == -1.0
        assert element_reflection(0.0, 0.0, 0.3, "H") == pytest.approx(1.0, abs=1e-12)

    def test_magnetic_wall_limit(self):
        assert element_reflection(float("inf"), float("inf"), 0.5, "V") == 1.0
        assert element_reflection(float("inf"), float("inf"), 0.5, "H") == -1.0

    def test_angle_dependence_and_oracle(self):
        z_e, z_m = 150.0 + 20.0j, 90.0 - 10.0j
        g0 = element_reflection(z_e, z_m, 0.0, "V")
        g60 = element_reflection(z_e, z_m, math.radians(60.0), "V")
        assert g0 != g60
        for th in (0.0, 0.4, 1.0, 1.4):
            assert element_reflection(z_e, z_m, th, "V") == pytest.approx(
                reflection_oracle_v(z_e, z_m, th), abs=1e-12)

    def test_v_h_coincide_at_normal_incidence(self):
        # Same physics, opposite basis sign through the specular flip.
        z_e, z_m = 240.0, 510.0
        gv = element_reflection(z_e, z_m, 0.0, "V")
        gh = element_reflection(z_e, z_m, 0.0, "H")
        assert gv == pytest.approx(-gh, abs=1e-12)

    def test_domain(self):
        with pytest.raises(ValueError):
            element_reflection(100.0, 100.0, math.pi / 2, "V")


def pec_panel(**kw):
    return RisPanel(nx=1, ny=1, d_element=LAM / 2, z_e=0.0, z_m=0.0, **kw)


class TestElementPattern:
    def test_r_independence(self):
        panel = pec_panel()
        f1 = element_pattern(panel, (0.3, 0.2), (0.5, 1.0), F, r_eval=10.0)
        f2 = element_pattern(panel, (0.3, 0.2), (0.5, 1.0), F, r_eval=100.0)
        assert np.max(np.abs(f1 - f2)) / np.max(np.abs(f1)) < 1e-6

    def test_pec_specular_maximum(self):
        # Normal incidence on a PEC element: the outgoing hemisphere peak
        # sits at the specular (normal) direction.
        panel = pec_panel()
        zen = np.radians(np.arange(0.0, 88.0, 2.0))
        az = np.radians(np.arange(0.0, 360.0, 10.0))
        zz, aa = np.meshgrid(zen, az, indexing="ij")
        blocks = element_pattern(panel, (0.0, 0.0), (zz, aa), F)
        mag = np.abs(blocks[..., 0, 0])
        imax = np.unravel_index(np.argmax(mag), mag.shape)
        assert zen[imax[0]] == 0.0

    def test_cross_polar_zero_at_normal_incidence(self):
        panel = pec_panel()
        block = element_pattern(panel, (0.0, 0.0), (0.0, 0.0), F)
        assert abs(block[0, 1]) < 1e-12 * abs(block[0, 0])
        assert abs(block[1, 0]) < 1e-12 * abs(block[1, 1])

    def test_codebook_phase_is_pure_rotation(self):
        panel = pec_panel()
        base = element_pattern(panel, (0.4, 0.1), (0.6, 2.0), F)
        shifted = element_pattern(panel, (0.4, 0.1), (0.6, 2.0), F,
                                  codebook_phase=1.1)
        assert np.allclose(shifted, np.exp(1.1j) * base, atol=1e-14)

    def test_reciprocity_swap(self):
        # Unit-magnitude ideal element: pattern magnitude is symmetric under
        # exchanging the incident and outgoing directions with transposed
        # polarization indices.
        panel = RisPanel(nx=1, ny=1, d_element=LAM / 2, ideal=True)
        a, b = (0.35, 0.7), (0.9, -1.3)
        f_ab = element_pattern(panel, a, b, F)
        f_ba = element_pattern(panel, b, a, F)
        assert np.allclose(np.abs(f_ab), np.abs(f_ba.swapaxes(-1, -2)), rtol=1e-9)


class TestOverallPattern:
    def test_coherent_peak_scales_with_elements(self):
        # Uniform codebook, specular direction: all position phases align.
        panel = RisPanel(nx=32, ny=32, d_element=LAM / 2, z_e=0.0, z_m=0.0)
        single = pec_panel()
        inc = (math.radians(25.0), math.radians(200.0))
        spec = (math.radians(25.0), math.radians(20.0))
        full = overall_pattern(panel, uniform_codebook(), inc, spec, F)
        one = element_pattern(single, inc, spec, F)
        assert np.max(np.abs(full)) == pytest.approx(
            1024.0 * np.max(np.abs(one)), rel=1e-12)

    def test_brute_force_double_sum(self):
        panel = RisPanel(nx=6, ny=5, d_element=LAM / 2, z_e=120.0, z_m=300.0)
        single = RisPanel(nx=1, ny=1, d_element=LAM / 2, z_e=120.0, z_m=300.0)
        inc = (0.5, 2.4)
        out = (0.8, -0.4)
        cb = steering_codebook((0.4, 0.1), (0.7, 0.5))
        fast = overall_pattern(panel, cb, inc, out, F)
        elem = element_pattern(single, inc, out, F)
        k = 2 * math.pi / LAM
        u = (np.array([math.sin(inc[0]) * math.cos(inc[1]),
                       math.sin(inc[0]) * math.sin(inc[1])])
             + np.array([math.sin(out[0]) * math.cos(out[1]),
                         math.sin(out[0]) * math.sin(out[1])]))
        acc = 0.0j
        for x in range(1, 7):
            for y in range(1, 6):
                d = np.array([(x - 3.5) * LAM / 2, (y - 3.0) * LAM / 2])
                beta = -k * (cb.design_u[0] * d[0] + cb.design_u[1] * d[1])
                acc += np.exp(1j * (k * (u @ d) + beta))
        assert np.allclose(fast, elem * acc, rtol=1e-12)

    def test_table_codebook_matches_steering(self):
        panel = RisPanel(nx=4, ny=4, d_element=LAM / 2, ideal=True)
        cb = steering_codebook((0.3, 0.0), (0.6, 1.0))
        k = 2 * math.pi / LAM
        gx, gy = panel.grid_coords()
        phases = -k * (cb.design_u[0] * gx[:, None] + cb.design_u[1] * gy[None, :])
        tab = table_codebook(phases)
        inc, out = (0.4, 0.2), (0.7, 1.5)
        assert np.allclose(overall_pattern(panel, cb, inc, out, F),
                           overall_pattern(panel, tab, inc, out, F), rtol=1e-9)

    def test_steering_argmax_hits_target(self):
        panel = RisPanel(nx=32, ny=32, d_element=LAM / 2, ideal=True)
        inc = (math.radians(25.0), math.radians(190.0))
        target = (math.radians(35.0), math.radians(40.0))
        cb = steering_codebook(inc, target)
        zen = np.radians(np.arange(0.5, 88.0, 1.0))
        az = np.radians(np.arange(-180.0, 180.0, 1.0))
        zz, aa = np.meshgrid(zen, az, indexing="ij")
        pat = overall_pattern(panel, cb, inc, (zz, aa), F)
        mag = np.abs(pat[..., 0, 0])
        imax = np.unravel_index(np.argmax(mag), mag.shape)
        assert abs(math.degrees(zen[imax[0]] - target[0])) <= 1.0
        assert abs(math.degrees(az[imax[1]] - target[1])) <= 1.0

    def test_behind_panel_zero(self):
        panel = pec_panel()
        block = overall_pattern(panel, uniform_codebook(),
                                (GRAZING_LIMIT_RAD + 0.05, 0.0), (0.3, 0.0), F)
        assert np.all(block == 0.0)


def single_ray_leg(aoa, zoa, aod, zod, tau=0.0, power=1.0, doppler=0.0):
    return make_clusters([tau] if tau == 0 else [0.0], [power], aoa=[aoa],
                         zoa=[zoa], aod=[aod], zod=[zod], kappa=1e15,
                         doppler=doppler)


def broadcast_cascade(leg1, leg2, panel, cb, tx=None, rx=None, times=None):
    """Cascade coefficients (T, U, S, cluster pairs) from the broadcast panel
    pattern: every ray pair's term, theta-polarized isotropic elements,
    then the array phases and Doppler summed per cluster pair."""
    tx, rx = tx or single_element(), rx or single_element()
    t = np.zeros(1) if times is None else np.asarray(times, dtype=np.float64)
    in_zen, in_az = panel.to_local(leg1.zoa, leg1.aoa)
    out_zen, out_az = panel.to_local(leg2.zod, leg2.aod)
    f_ris = overall_pattern(panel, cb, (in_zen[:, :, None, None],
                                        in_az[:, :, None, None]),
                            (out_zen, out_az), F)
    a = _polarization_matrices(leg1)[..., :, 0]      # theta-polarized Tx
    b = _polarization_matrices(leg2)[..., 0, :]      # theta-polarized Rx
    amp = np.sqrt(leg1.ray_powers[:, :, None, None] * leg2.ray_powers)
    ph_tx = np.exp(2j * np.pi / LAM * (unit_vector(leg1.zod, leg1.aod)
                                       @ tx.element_positions.T))
    ph_rx = np.exp(2j * np.pi / LAM * (unit_vector(leg2.zoa, leg2.aoa)
                                       @ rx.element_positions.T))
    dop = np.exp(2j * np.pi * leg2.doppler_hz[..., None] * t)
    taps = np.einsum("abq,abcdqp,cdp,abcd,abs,cdu,cdt->tusac", a, f_ris, b, amp,
                     ph_tx, ph_rx, dop)
    delays = (leg1.delays_s[:, None] + leg2.delays_s).ravel()
    return taps.reshape(taps.shape[:3] + (-1,))[..., np.argsort(delays, kind="stable")]


class TestCascade:
    def test_degenerate_single_path(self):
        # One ray per leg, isotropic antennas, 1x1 ideal panel: coefficient
        # magnitude is |F_ris| sqrt(P1 P2) at the leg angles, delay tau1+tau2.
        panel = RisPanel(nx=1, ny=1, d_element=LAM / 2, ideal=True)
        leg1 = make_clusters([0.0], [1.0], aoa=[0.3], zoa=[1.2], aod=[0.1],
                             zod=[1.5], kappa=1e15)
        leg2 = make_clusters([0.0], [1.0], aoa=[-0.7], zoa=[1.4], aod=[0.9],
                             zod=[0.8], kappa=1e15)
        cir = cascade_cir_multi(leg1, leg2, [panel], uniform_codebook(),
                                single_element(), single_element(), F)[0]
        f_ris = overall_pattern(panel, uniform_codebook(),
                                (leg1.zoa[0, 0], leg1.aoa[0, 0]),
                                (leg2.zod[0, 0], leg2.aod[0, 0]), F)
        assert cir.coefficients.shape == (1, 1, 1, 1)
        assert abs(cir.coefficients[0, 0, 0, 0]) == pytest.approx(
            abs(f_ris[0, 0]), rel=1e-9)
        assert cir.tap_delays_s[0] == 0.0

    def test_additive_delays(self):
        rng = np.random.default_rng(0)
        leg1 = make_clusters([0.0, 30e-9], [0.6, 0.4], aoa=[0.1, 0.5],
                             zoa=[1.3, 1.1], m=2, rng=rng)
        leg2 = make_clusters([0.0, 50e-9], [0.7, 0.3], aoa=[0.2, -0.2],
                             zoa=[1.2, 1.4], m=2, rng=rng)
        panel = RisPanel(nx=4, ny=4, d_element=LAM / 2, ideal=True)
        cir = cascade_cir_multi(leg1, leg2, [panel], uniform_codebook(),
                                single_element(), single_element(), F)[0]
        expected = np.sort((leg1.delays_s[:, None] + leg2.delays_s).ravel())
        assert np.allclose(cir.tap_delays_s, expected)
        assert cir.tap_delays_s[0] == 0.0

    def test_brute_force_cascade_oracle(self):
        # 3 x 4 cluster pairs with 2 rays each: nested-loop chain evaluation
        # against the vectorized cascade.
        rng = np.random.default_rng(1)
        panel = RisPanel(nx=3, ny=3, d_element=LAM / 2, z_e=90.0, z_m=400.0)
        cb = steering_codebook((0.3, 0.1), (0.5, 0.4))
        d1 = np.sort(rng.uniform(0, 1e-7, 3))
        d2 = np.sort(rng.uniform(0, 1e-7, 4))
        leg1 = make_clusters(d1 - d1[0], rng.dirichlet(np.ones(3)),
                             aoa=rng.uniform(-1, 1, 3),
                             zoa=rng.uniform(0.6, 1.4, 3),
                             aod=rng.uniform(-1, 1, 3),
                             zod=rng.uniform(0.6, 1.4, 3), m=2,
                             kappa=6.0, rng=rng)
        leg2 = make_clusters(d2 - d2[0], rng.dirichlet(np.ones(4)),
                             aoa=rng.uniform(-1, 1, 4),
                             zoa=rng.uniform(0.6, 1.4, 4),
                             aod=rng.uniform(-1, 1, 4),
                             zod=rng.uniform(0.6, 1.4, 4), m=2,
                             kappa=6.0, rng=rng)
        cir = cascade_cir_multi(leg1, leg2, [panel], cb, single_element(),
                                single_element(), F)[0]

        def pol(leg, n, m):
            ph = leg.phases[n, m]
            inv = 1.0 / math.sqrt(leg.kappa[n, m])
            return np.array([[np.exp(1j * ph[0]), inv * np.exp(1j * ph[1])],
                             [inv * np.exp(1j * ph[2]), np.exp(1j * ph[3])]])

        taps = np.zeros((3, 4), dtype=complex)
        for n1 in range(3):
            for m1 in range(2):
                for n2 in range(4):
                    for m2 in range(2):
                        f_ris = overall_pattern(
                            panel, cb, (leg1.zoa[n1, m1], leg1.aoa[n1, m1]),
                            (leg2.zod[n2, m2], leg2.aod[n2, m2]), F)
                        amp = math.sqrt(leg1.ray_powers[n1, m1]
                                        * leg2.ray_powers[n2, m2])
                        a = pol(leg1, n1, m1) @ np.array([1.0, 0.0])
                        b = np.array([1.0, 0.0]) @ pol(leg2, n2, m2)
                        taps[n1, n2] += amp * (b @ f_ris.T @ a)
        delays = (leg1.delays_s[:, None] + leg2.delays_s).ravel()
        order = np.argsort(delays, kind="stable")
        expected = taps.ravel()[order]
        got = cir.coefficients[0, 0, 0, :]
        assert np.max(np.abs(got - expected)) <= 1e-12 * np.max(np.abs(expected))

    def test_doppler_from_second_leg_only(self):
        leg1 = make_clusters([0.0], [1.0], aoa=[0.3], zoa=[1.2], aod=[0.1],
                             zod=[1.1], doppler=999.0)
        leg2 = make_clusters([0.0], [1.0], aoa=[0.4], zoa=[1.3], aod=[0.2],
                             zod=[1.2], doppler=120.0)
        panel = RisPanel(nx=2, ny=2, d_element=LAM / 2, ideal=True)
        times = np.array([0.0, 1e-3, 2e-3])
        cir = cascade_cir_multi(leg1, leg2, [panel], uniform_codebook(),
                                single_element(), single_element(), F,
                                times=times)[0]
        h = cir.coefficients[:, 0, 0, 0]
        phase_step = np.angle(h[1] / h[0])
        assert phase_step == pytest.approx(
            2 * math.pi * 120.0 * 1e-3, abs=1e-9)

    def test_multi_panel_matches_single(self):
        rng = np.random.default_rng(2)
        leg1 = make_clusters([0.0], [1.0], aoa=[0.3], zoa=[1.2], aod=[0.1],
                             zod=[1.1], m=3, rng=rng)
        leg2 = make_clusters([0.0], [1.0], aoa=[0.4], zoa=[1.3], aod=[0.2],
                             zod=[1.2], m=3, rng=rng)
        ni = RisPanel(nx=4, ny=4, d_element=LAM / 2, z_e=150.0, z_m=900.0)
        ideal = RisPanel(nx=4, ny=4, d_element=LAM / 2, ideal=True)
        cb = uniform_codebook()
        pair = cascade_cir_multi(leg1, leg2, [ni, ideal], cb, single_element(),
                                 single_element(), F)
        solo_ni = cascade_cir_multi(leg1, leg2, [ni], cb, single_element(),
                                    single_element(), F)[0]
        assert np.abs(solo_ni.coefficients).max() > 0
        assert np.array_equal(pair[0].coefficients, solo_ni.coefficients)
        solo_id = cascade_cir_multi(leg1, leg2, [ideal], cb, single_element(),
                                    single_element(), F)[0]
        assert np.array_equal(pair[1].coefficients, solo_id.coefficients)

        # Two non-ideal panels with different impedances, each against the
        # broadcast panel pattern.
        ni2 = RisPanel(nx=4, ny=4, d_element=LAM / 2, z_e=60.0, z_m=2500.0)
        cb = steering_codebook((0.3, 0.1), (0.5, 0.4))
        got = cascade_cir_multi(leg1, leg2, [ni, ni2], cb, single_element(),
                                single_element(), F)
        for panel, cir in zip((ni, ni2), got):
            expected = broadcast_cascade(leg1, leg2, panel, cb)
            assert np.max(np.abs(cir.coefficients - expected)) \
                <= 1e-12 * np.max(np.abs(expected))
        assert not np.allclose(got[0].coefficients, got[1].coefficients)

    def test_table_codebook_rejected(self):
        leg = make_clusters([0.0], [1.0], aoa=[0.3], zoa=[1.2])
        panel = RisPanel(nx=2, ny=2, d_element=LAM / 2)
        with pytest.raises(ConfigurationError, match="separable"):
            cascade_cir_multi(leg, leg, [panel], table_codebook(np.zeros((2, 2))),
                              single_element(), single_element(), F)


def grazing_legs(rng, front_rows, n1=6, m1=8, n2=5, m2=8, away_cols=()):
    """Two legs for an identity-rotation panel (panel frame = global frame):
    leg-1 rays in ``front_rows`` (flat indices) arrive in front of the panel,
    all others past the grazing limit; leg-2 rays in ``away_cols`` leave
    past it."""
    def zeniths(n, m, front):
        z = rng.uniform(GRAZING_LIMIT_RAD + 1e-6, 2.6, n * m)
        z[front] = rng.uniform(0.05, GRAZING_LIMIT_RAD - 1e-6, len(front))
        return z.reshape(n, m)

    def leg(n, m, zoa, zod):
        delays = np.sort(rng.uniform(0, 1e-7, n))
        return make_clusters(delays - delays[0], rng.dirichlet(np.ones(n)),
                             aoa=rng.uniform(-3, 3, (n, m)), zoa=zoa,
                             aod=rng.uniform(-3, 3, (n, m)), zod=zod, m=m,
                             kappa=rng.uniform(2.0, 20.0), rng=rng,
                             ray_powers=rng.dirichlet(np.ones(n * m)).reshape(n, m),
                             doppler=rng.uniform(-300, 300))

    all2 = np.arange(n2 * m2)
    leg1 = leg(n1, m1, zeniths(n1, m1, np.asarray(front_rows, dtype=int)),
               rng.uniform(0.2, 2.9, (n1, m1)))
    leg2 = leg(n2, m2, rng.uniform(0.2, 2.9, (n2, m2)),
               zeniths(n2, m2, np.setdiff1d(all2, away_cols)))
    return leg1, leg2


class TestTiledKernel:
    """The tiled kernel against the broadcast panel pattern on the tile edge
    cases, within 1e-12 of the largest tap, with exact zeros where no front
    ray pair exists."""

    PANELS = (RisPanel(nx=8, ny=6, d_element=LAM / 2, z_e=300.0 + 40.0j,
                       z_m=2200.0 - 90.0j),
              RisPanel(nx=8, ny=6, d_element=LAM / 2, ideal=True))

    def compare(self, leg1, leg2, codebook, tx=None, rx=None, times=None):
        got = cascade_cir_multi(leg1, leg2, list(self.PANELS), codebook,
                                tx or single_element(), rx or single_element(),
                                F, times)
        delays = np.sort((leg1.delays_s[:, None] + leg2.delays_s).ravel())
        for panel, cir in zip(self.PANELS, got):
            want = broadcast_cascade(leg1, leg2, panel, codebook, tx, rx, times)
            assert cir.coefficients.shape == want.shape
            assert np.max(np.abs(cir.coefficients - want)) \
                <= 1e-12 * np.max(np.abs(want))
            assert np.array_equal(cir.tap_delays_s, delays)
        return got

    CASES = ("none", "first", "last", "two", "tile+1", "2tile+1", "all")

    @pytest.mark.parametrize("case", CASES)
    @pytest.mark.parametrize("cb_kind", ["steering", "uniform"])
    def test_front_row_counts(self, case, cb_kind):
        rng = np.random.default_rng([self.CASES.index(case), cb_kind == "uniform"])
        n_in = 6 * 12
        scattered = np.sort(rng.choice(n_in, n_in, replace=False))
        front = {"none": [], "first": [0], "last": [n_in - 1],
                 "two": scattered[:2], "tile+1": scattered[:CASCADE_TILE + 1],
                 "2tile+1": scattered[:2 * CASCADE_TILE + 1],
                 "all": np.arange(n_in)}[case]
        leg1, leg2 = grazing_legs(rng, front, m1=12, away_cols=[3, 17, 18])
        cb = (steering_codebook((0.4, 0.2), (0.7, -0.5))
              if cb_kind == "steering" else uniform_codebook())
        if len(front) == 0:
            got = cascade_cir_multi(leg1, leg2, list(self.PANELS), cb,
                                    single_element(), single_element(), F)
            assert all(np.all(cir.coefficients == 0.0) for cir in got)
            return
        got = self.compare(leg1, leg2, cb)
        # Leg-1 clusters without a front ray give exact zeros.
        delays = (leg1.delays_s[:, None] + leg2.delays_s[None, :]).ravel()
        pair_a = np.repeat(np.arange(6), 5)[np.argsort(delays, kind="stable")]
        dark = np.setdiff1d(np.arange(6), np.asarray(front, dtype=int) // 12)
        for cir in got:
            assert np.all(cir.coefficients[..., np.isin(pair_a, dark)] == 0.0)
            assert np.any(cir.coefficients)

    def test_lone_front_row_in_the_middle(self):
        rng = np.random.default_rng(11)
        for row in (1, 17, 40):
            leg1, leg2 = grazing_legs(rng, [row])
            self.compare(leg1, leg2, steering_codebook((0.3, 0.1), (0.5, 0.4)))

    def test_single_incident_ray(self):
        rng = np.random.default_rng(12)
        leg1, leg2 = grazing_legs(rng, [0], n1=1, m1=1)
        self.compare(leg1, leg2, uniform_codebook())

    def test_outgoing_rays_past_grazing(self):
        # A whole leg-2 cluster (rays 8..15) and scattered rays leave past
        # the grazing limit; its cluster pairs are exactly zero.
        rng = np.random.default_rng(13)
        leg1, leg2 = grazing_legs(rng, np.arange(0, 48, 2),
                                  away_cols=list(range(8, 16)) + [0, 33, 39])
        got = self.compare(leg1, leg2, steering_codebook((0.2, 0.3), (0.6, 0.1)))
        delays = (leg1.delays_s[:, None] + leg2.delays_s[None, :]).ravel()
        pair_c = np.tile(np.arange(5), 6)[np.argsort(delays, kind="stable")]
        for cir in got:
            assert np.all(cir.coefficients[..., pair_c == 1] == 0.0)
            assert np.all(np.any(cir.coefficients[..., pair_c != 1], axis=0))

    def test_cluster_facing_away_gives_exact_zeros(self):
        # Leg-1 cluster 2 (rays 16..23) faces away; the others half face.
        rng = np.random.default_rng(14)
        front = [r for r in range(48) if r // 8 != 2 and r % 2 == 0]
        leg1, leg2 = grazing_legs(rng, front)
        got = self.compare(leg1, leg2, uniform_codebook())
        delays = (leg1.delays_s[:, None] + leg2.delays_s[None, :]).ravel()
        pair_a = np.repeat(np.arange(6), 5)[np.argsort(delays, kind="stable")]
        for cir in got:
            away = cir.coefficients[..., pair_a == 2]
            assert np.all(away == 0.0)
            assert np.any(cir.coefficients[..., pair_a != 2])

    def test_arrays_and_time_samples(self):
        # ULAs at both ends and two sample times exercise the row map's Tx
        # phases and the column weights' Rx phases and Doppler.
        rng = np.random.default_rng(15)
        leg1, leg2 = grazing_legs(rng, rng.choice(48, CASCADE_TILE + 5,
                                                  replace=False))
        self.compare(leg1, leg2, uniform_codebook(), tx=build_ula(4, LAM / 2),
                     rx=build_ula(2, LAM / 2), times=np.array([0.0, 1e-3]))

    @pytest.mark.parametrize("cb_kind", ["steering", "uniform"])
    def test_singular_pattern_entries(self, cb_kind):
        # Rays at the panel normal on both legs put every sinc and Dirichlet
        # argument of their pairs at exactly 0 (uniform codebook); rays at
        # the steering design directions put the Dirichlet arguments within
        # rounding of 0. Both need the kernel's singular limits.
        rng = np.random.default_rng([16, cb_kind == "uniform"])
        leg1, leg2 = grazing_legs(rng, np.arange(0, 48, 3))
        design = ((0.5, 0.7), (0.3, -2.0))
        for leg, zen, az, (z0, a0) in ((leg1, leg1.zoa, leg1.aoa, design[0]),
                                       (leg2, leg2.zod, leg2.aod, design[1])):
            zen[1, 1], az[1, 1] = 0.0, 0.4
            zen[2, 3], az[2, 3] = z0, a0
        cb = (steering_codebook(*design) if cb_kind == "steering"
              else uniform_codebook())
        self.compare(leg1, leg2, cb)


class TestRotations:
    def test_rotation_facing_maps_normal_to_z(self):
        rot = np.asarray(rotation_facing([1.0, 2.0, 3.0])).reshape(3, 3)
        n = np.array([1.0, 2.0, 3.0]) / math.sqrt(14.0)
        assert np.allclose(rot @ n, [0, 0, 1], atol=1e-12)
        assert np.allclose(rot @ rot.T, np.eye(3), atol=1e-12)

    def test_rotation_with_incidence(self):
        v1 = np.array([1.0, 0.0, 0.0])
        v2 = np.array([0.0, 1.0, 0.0])
        rot = np.asarray(rotation_with_incidence(v1, v2, math.radians(85.0)))
        rot = rot.reshape(3, 3)
        local_v1 = rot @ v1
        zen = math.degrees(math.acos(local_v1[2]))
        assert zen == pytest.approx(85.0, abs=1e-9)
        assert (rot @ v2)[2] > 0.0  # second endpoint stays in front


class TestPairedComparison:
    def test_nonideal_never_beats_ideal(self):
        import chansim6g as c
        cfg = c.load_preset("ris")
        for d in range(60):
            m = c.run_drop(cfg, d).metrics
            assert m["snr_gap_db"] >= 0.0

    @pytest.mark.parametrize("seed, drop, gap_db", [
        (3904102532, 0, -0.2065841155236),
        (2505821015, 3, -0.03935784309306),
        (3440270943, 0, -0.18167079068974)])
    def test_known_dominance_cases(self, seed, drop, gap_db):
        """Preset drops where the non-ideal panel beats the ideal one, pinned
        to 1e-9 dB pending the decision of ROADMAP item 2 (a program fault
        or a per-drop claim the model does not make). A kernel change that
        keeps the physics keeps these gaps."""
        import chansim6g as c
        m = c.run_drop(c.load_preset("ris", seed=seed), drop).metrics
        assert m["snr_gap_db"] == pytest.approx(gap_db, abs=1e-9)

    def test_snr_ordering_with_asa(self):
        import chansim6g as c
        medians = {}
        for asa in (1.0, 5.0, 10.0):
            cfg = c.load_preset("ris")
            cfg.feature_params["ris"]["asa_deg"] = asa
            snr = [c.run_drop(cfg, d).metrics["snr_nonideal_db"]
                   for d in range(150)]
            medians[asa] = np.median(snr)
        assert medians[1.0] > medians[5.0] > medians[10.0]

    def test_cascade_pathloss_budget(self):
        # Ideal unit panel, single paths: end-to-end dB loss after large-scale
        # application is the sum of the two legs' losses.
        from chansim6g.analysis import rsrp
        from chansim6g.cir import apply_large_scale
        from chansim6g.pathloss import PathLossSample, pl_ci
        panel = RisPanel(nx=1, ny=1, d_element=LAM / 2, ideal=True)
        leg1 = make_clusters([0.0], [1.0], aoa=[0.3], zoa=[1.2], aod=[0.1],
                             zod=[1.1], kappa=1e15)
        leg2 = make_clusters([0.0], [1.0], aoa=[0.4], zoa=[1.3], aod=[0.2],
                             zod=[1.2], kappa=1e15)
        cir = cascade_cir_multi(leg1, leg2, [panel], uniform_codebook(),
                                single_element(), single_element(), F)[0]
        pl1 = pl_ci(18.0, F, 2.0)
        pl2 = pl_ci(25.0, F, 2.0)
        out = apply_large_scale(cir, PathLossSample(pl1 + pl2, 0.0))
        assert rsrp(cir) - rsrp(out) == pytest.approx(pl1 + pl2, abs=1e-9)
