"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line and enforcing its wall-clock budget.

Run with `pytest tests/test_acceptance.py -v -s`.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest
from scipy import stats

from chansim6g import analysis, emimo, isac, ris, thz
from chansim6g.campaign import run_campaign, run_drop
from chansim6g.config import load_preset
from chansim6g.constants import C_LIGHT, wavelength
from chansim6g.geometry import LosDirections, build_ula, rayleigh_distance
from chansim6g.largescale import LSPSet, generate_lsps, lookup_lsp_table
from chansim6g.pathloss import AbgParams, fit_abg, pl_abg, pl_ci, pl_sagin
from chansim6g.sagin import SgEnvelopeParams, ntn_drop, sample_envelope
from chansim6g.seeding import DropStreams
from chansim6g.smallscale import generate_clusters, ray_powers
from ris_oracle import (element_pattern, element_reflection, grid_coords,
                        overall_pattern)
from test_largescale import make_entry

DIRS = LosDirections(aod=0.78, zod=1.5708, aoa=0.78 - math.pi,
                     zoa=math.pi - 1.5708)


@contextmanager
def criterion(number: int, label: str, budget_s: float):
    t0 = time.time()
    failed = False
    try:
        yield
    except BaseException:
        failed = True
        raise
    finally:
        elapsed = time.time() - t0
        status = "FAIL" if failed or elapsed >= budget_s else "PASS"
        print(f"\nACCEPTANCE {number:2d} [{status}] {label} "
              f"({elapsed:.1f} s / budget {budget_s:.0f} s)")
    assert elapsed < budget_s, f"criterion {number} exceeded budget"


def fspl_oracle(d, f):
    return 20.0 * math.log10(4.0 * math.pi * d * f / C_LIGHT)


def test_criterion_01_closed_form_path_loss():
    with criterion(1, "closed-form path loss anchors", 1.0):
        cases = [(pl_ci(1.0, 28e9, 2.0), fspl_oracle(1.0, 28e9), 61.38),
                 (pl_ci(1.0, 132e9, 2.0), fspl_oracle(1.0, 132e9), 74.85),
                 (pl_sagin(600e3, 2e9), fspl_oracle(600e3, 2e9), 154.03)]
        for value, oracle, anchor in cases:
            assert value == pytest.approx(oracle, abs=0.01)
            assert value == pytest.approx(anchor, abs=0.01)


def test_criterion_02_abg_refit():
    with criterion(2, "ABG least-squares refit", 5.0):
        rng = np.random.default_rng(202)
        n = 10_000
        d = 10.0 ** rng.uniform(0.0, 2.0, n)
        f = rng.uniform(220.0, 330.0, n)
        truth = AbgParams(alpha=1.93, beta_db=32.0, gamma=2.1, sigma_db=0.0)
        pl = np.array([pl_abg(di, fi, truth) for di, fi in zip(d, f)])
        pl += rng.normal(0.0, 2.0, n)
        fit = fit_abg(d, f, pl)
        assert abs(fit.alpha - 1.93) < 0.05
        assert abs(fit.gamma - 2.1) < 0.05


def test_criterion_03_gbsm_ensemble():
    with criterion(3, "GBSM ensemble: DS/power/ASA recovery", 60.0):
        ds_target, asa_target = 100e-9, 30.0
        entry = make_entry(n_clusters=16, c_asa_deg=8.0)
        lsps = LSPSet(ds_s=ds_target, asa_deg=asa_target, asd_deg=20.0,
                      zsa_deg=8.0, zsd_deg=4.0, k_db=9.0, sf_db=0.0)
        ds_vals = np.empty(10_000)
        asa_vals = np.empty(10_000)
        for d in range(10_000):
            cs = generate_clusters(entry, [lsps], DIRS, "NLOS", (0, 0, 0), 28e9,
                                   [DropStreams(303, d)])[0]
            assert abs(cs.powers.sum() - 1.0) <= 1e-12
            ds_vals[d] = analysis.rms_delay_spread(cs.powers, cs.delays_s)
            asa_vals[d] = analysis.circular_angular_spread(
                cs.ray_powers.ravel(), cs.aoa.ravel())
        med_ds = np.median(ds_vals)
        med_asa = np.median(asa_vals)
        assert abs(med_ds - ds_target) / ds_target < 0.15
        assert abs(med_asa - asa_target) <= 1.0


def test_criterion_04_thz_vs_mmwave_presets():
    with criterion(4, "THz vs mmWave preset comparison", 60.0):
        assert lookup_lsp_table("umi", "LOS", 132e9).n_clusters == 8
        assert lookup_lsp_table("umi", "LOS", 28e9).n_clusters == 16
        thz_cfg = load_preset("thz", seed=404)
        mm_cfg = load_preset("thz", seed=404)
        mm_cfg.feature = "BASE"
        mm_cfg.feature_params = {}
        mm_cfg.center_freq_hz = 28e9
        mm_cfg.bandwidth_hz = 200e6
        mm_cfg.validate()
        ds_thz, gini_thz, ds_mm, gini_mm = [], [], [], []
        for d in range(1000):
            m_t = run_drop(thz_cfg, d).metrics
            m_m = run_drop(mm_cfg, d).metrics
            assert m_t["n_clusters"] == 8
            assert m_m["n_clusters"] == 16
            ds_thz.append(m_t["ds_ns"])
            gini_thz.append(m_t["gini"])
            ds_mm.append(m_m["ds_ns"])
            gini_mm.append(m_m["gini"])
        assert np.median(ds_thz) < np.median(ds_mm)
        assert np.median(gini_thz) > np.median(gini_mm)


def test_criterion_05_emimo():
    with criterion(5, "E-MIMO near-field phase + SnS correlation trend", 120.0):
        # Edge-element phase discrepancy at the Rayleigh distance.
        f = 28e9
        arr = build_ula(256, spacing=wavelength(f) / 2.0)
        rd = rayleigh_distance(arr.aperture, wavelength(f))
        paths = emimo.Paths(sources=np.array([[rd, 0.0, 0.0]]),
                            alpha=np.array([1.0 + 0j]), tau_s=np.array([rd / C_LIGHT]))
        sph = emimo.spherical_manifold(paths, arr, f)
        pla = emimo.planar_manifold(paths, arr, f)
        disc = np.max(np.abs(np.angle(sph[:, 0] * np.conj(pla[:, 0]))))
        assert disc == pytest.approx(math.pi / 8, rel=0.02)

        # Triple-loop oracle for the masked-manifold assembly.
        rng = np.random.default_rng(505)
        small = build_ula(16, spacing=0.004)
        draws = [(rng.uniform(2, 20, 3), complex(*rng.normal(size=2)),
                  rng.uniform(0, 1e-7)) for _ in range(3)]
        pths = emimo.Paths(sources=np.array([s for s, _, _ in draws]),
                           alpha=np.array([a for _, a, _ in draws]),
                           tau_s=np.array([t for _, _, t in draws]))
        mask = emimo.SnsMask(s=(rng.uniform(size=(16, 3)) > 0.4).astype(float))
        man = emimo.spherical_manifold(pths, small, f)
        cfr = emimo.path_cfr(pths, f)
        fast = emimo.assemble_sns_cfr(mask, man, cfr)
        slow = np.array([sum(mask.s[m, k] * man[m, k] * cfr[k]
                             for k in range(3)) for m in range(16)])
        assert np.max(np.abs(fast - slow)) <= 1e-12 * np.max(np.abs(slow))

        # Ensemble cross-correlation: SnS decays (16-element moving average
        # non-increasing up to a 1%-of-decay ripple allowance), the
        # narrowband stationary baseline stays flat.
        cfg = load_preset("emimo")
        entry = lookup_lsp_table(cfg.scenario, "LOS", cfg.center_freq_hz)
        from chansim6g.geometry import los_directions
        dirs = los_directions(cfg.bs_position3d(), cfg.ue_position3d())
        array = cfg.build_array(cfg.bs_array)
        d_link = cfg.bs_position3d().distance_to(cfg.ue_position3d())
        fc = cfg.center_freq_hz
        freqs = fc + np.linspace(-cfg.bandwidth_hz / 2, cfg.bandwidth_hz / 2, 64)
        m = array.element_count
        n_drops = 500
        acc_sns = np.zeros(m)
        acc_base = np.zeros(m)
        for d in range(n_drops):
            streams = DropStreams(1, d)
            lsps = generate_lsps(entry, streams.get("lsp"))
            clusters = generate_clusters(entry, [lsps], dirs, "LOS", (0, 0, 0),
                                         fc, [streams])[0]
            pth = emimo.paths_from_clusters(clusters, d_link)
            snsmask = emimo.gen_sns_mask(m, pth.tau_s.size, 16, streams.get("sns"))
            rho, _ = analysis.array_cross_correlation(
                emimo.sns_cfr_band(pth, array, snsmask, freqs))
            acc_sns += rho
            man_fc = emimo.planar_manifold(pth, array, fc)
            base_cfr = man_fc @ (pth.alpha[:, None]
                                 * np.exp(-2j * np.pi * np.outer(pth.tau_s, freqs)))
            rho_b, _ = analysis.array_cross_correlation(base_cfr)
            acc_base += rho_b
        sns_curve = acc_sns / n_drops
        base_curve = acc_base / n_drops
        window = np.ones(16) / 16
        ma_sns = np.convolve(sns_curve[1:], window, mode="valid")
        ma_base = np.convolve(base_curve[1:], window, mode="valid")
        decay = ma_sns[0] - ma_sns[-1]
        assert decay > 0.2
        ripple_allowance = 0.01 * decay
        assert np.all(np.diff(ma_sns) <= ripple_allowance)
        assert ma_base.max() - ma_base.min() < 0.05


def test_criterion_06_isac_sharing_degree():
    with criterion(6, "ISAC sharing-degree CDF ordering", 60.0):
        entry = lookup_lsp_table("inh_office", "LOS", 28e9)
        assert entry.n_clusters == 15
        from chansim6g.geometry import Position3D
        tx = Position3D(0.0, 0.0, 1.5)
        rx = Position3D(10.0, 0.0, 1.5)

        def lsps_for(streams):
            return generate_lsps(entry, streams.get("lsp"))

        def geometry(n0):
            block = {"targets": [], "n_shared": n0, "rx_s_position": None,
                     "self_interference_db": None}
            return isac.build_geometry(block, tx, rx, 28e9)

        # Endpoints exact.
        for n0, expect in ((0, 0.0), (15, 1.0)):
            streams = DropStreams(606, 0)
            pair = isac.gen_isac_drop(geometry(n0), entry, lsps_for(streams), "NLOS",
                                      streams)
            assert isac.sharing_degree(pair, "sensing") == expect

        # Bitwise-shared departure angles.
        geo = geometry(6)
        for d in range(50):
            streams = DropStreams(607, d)
            pair = isac.gen_isac_drop(geo, entry, lsps_for(streams), "LOS", streams)
            cs = pair.shared_comm_idx[np.argsort(
                pair.comm.delays_s[pair.shared_comm_idx])]
            ss = pair.shared_sense_idx[np.argsort(
                pair.sense.delays_s[pair.shared_sense_idx])]
            for ci, si in zip(cs, ss):
                assert np.array_equal(pair.comm.aod[ci], pair.sense.aod[si])

        # Pointwise stochastically ordered CDFs over 2000 drops per setting.
        sds = {}
        for n0 in (3, 6, 9):
            vals = np.empty(2000)
            geo = geometry(n0)
            for d in range(2000):
                streams = DropStreams(608 + n0, d)
                pair = isac.gen_isac_drop(geo, entry, lsps_for(streams), "LOS", streams)
                vals[d] = isac.sharing_degree(pair, "sensing")
            sds[n0] = np.sort(vals)
        grid = np.linspace(0.0, 1.0, 512)

        def cdf(vals, x):
            return np.searchsorted(vals, x, side="right") / vals.size

        # Larger N0 -> right-shifted CDF: F_9 <= F_6 <= F_3 pointwise.
        viol = 0
        for lo, hi in ((9, 6), (6, 3)):
            viol += int(np.sum(cdf(sds[lo], grid) > cdf(sds[hi], grid) + 1e-12))
        assert viol < 0.01 * 2 * grid.size


def test_criterion_07_ris():
    with criterion(7, "RIS reflection, patterns and paired SNR", 120.0):
        # PEC limit exact.
        assert element_reflection(0.0, 0.0, 0.4, "V") == -1.0

        # Coherent 32x32 peak against the brute-force double sum.
        lam = wavelength(28e9)
        panel = ris.RisPanel(nx=32, ny=32, d_element=lam / 2, z_e=0.0, z_m=0.0)
        single = ris.RisPanel(nx=1, ny=1, d_element=lam / 2, z_e=0.0, z_m=0.0)
        inc = (math.radians(25.0), math.radians(200.0))
        spec = (math.radians(25.0), math.radians(20.0))
        full = overall_pattern(panel, ris.uniform_codebook(), inc, spec, 28e9)
        one = element_pattern(single, inc, spec, 28e9)
        assert np.max(np.abs(full)) == pytest.approx(
            1024.0 * np.max(np.abs(one)), rel=1e-12)
        k = 2 * math.pi / lam
        u = (np.array([math.sin(inc[0]) * math.cos(inc[1]),
                       math.sin(inc[0]) * math.sin(inc[1])])
             + np.array([math.sin(spec[0]) * math.cos(spec[1]),
                         math.sin(spec[0]) * math.sin(spec[1])]))
        gx, gy = grid_coords(panel)
        brute = sum(np.exp(1j * k * (u[0] * x + u[1] * y))
                    for x in gx for y in gy)
        assert np.max(np.abs(full)) == pytest.approx(
            abs(brute) * np.max(np.abs(one)), rel=1e-12)

        # Steering argmax within one degree of the target.
        ideal = ris.RisPanel(nx=32, ny=32, d_element=lam / 2, ideal=True)
        target = (math.radians(35.0), math.radians(40.0))
        cb = ris.steering_codebook(inc, target)
        zen = np.radians(np.arange(0.5, 88.0, 1.0))
        az = np.radians(np.arange(-180.0, 180.0, 1.0))
        zz, aa = np.meshgrid(zen, az, indexing="ij")
        pat = overall_pattern(ideal, cb, inc, (zz, aa), 28e9)
        mag = np.abs(pat[..., 0, 0])
        imax = np.unravel_index(np.argmax(mag), mag.shape)
        assert abs(math.degrees(zen[imax[0]] - target[0])) <= 1.0
        assert abs(math.degrees(az[imax[1]] - target[1])) <= 1.0

        # 1000 paired drops per spread: non-ideal never beats ideal; median
        # gaps positive, ordered, and within +-0.5 dB of the reported
        # single-realization anchors (0.5 / 0.7 / 1.0 dB for 10 / 5 / 1 deg).
        medians = {}
        for asa, anchor in ((10.0, 0.5), (5.0, 0.7), (1.0, 1.0)):
            cfg = load_preset("ris", seed=707)
            cfg.feature_params["ris"]["asa_deg"] = asa
            gaps = np.empty(1000)
            for d in range(1000):
                gaps[d] = run_drop(cfg, d).metrics["snr_gap_db"]
            assert np.all(gaps >= 0.0), f"dominance violated at ASA {asa}"
            med = float(np.median(gaps))
            medians[asa] = med
            assert med > 0.0
            assert abs(med - anchor) <= 0.5
        assert medians[1.0] > medians[5.0] > medians[10.0]


def test_criterion_08_sagin():
    with criterion(8, "SAGIN path loss and envelope model", 30.0):
        pls = [ntn_drop("dense_urban", "LOS", 2e9, h, math.radians(30.0),
                        [DropStreams(808, 0)])[0].meta["pl_db"]
               for h in (600e3, 900e3, 1200e3, 1500e3)]
        assert np.all(np.diff(pls) > 0)
        a = ntn_drop("dense_urban", "LOS", 2e9, 600e3, math.radians(60.0),
                     [DropStreams(808, 1)])[0].meta["pl_db"]
        b = ntn_drop("dense_urban", "LOS", 28e9, 600e3, math.radians(60.0),
                     [DropStreams(808, 1)])[0].meta["pl_db"]
        assert b - a == pytest.approx(20.0 * math.log10(14.0), abs=1e-9)

        rng = np.random.default_rng(809)
        los_only = SgEnvelopeParams(lognormal_mu=0.4, lognormal_sigma=0.35,
                                    rayleigh_scale=0.0)
        r = sample_envelope(los_only, rng, size=100_000)
        assert stats.kstest(np.abs(r), "lognorm",
                            args=(0.35, 0, math.exp(0.4))).pvalue > 0.01
        diffuse = SgEnvelopeParams(lognormal_mu=-200.0, lognormal_sigma=0.0,
                                   rayleigh_scale=1.1)
        r = sample_envelope(diffuse, rng, size=100_000)
        assert stats.kstest(np.abs(r), "rayleigh", args=(0, 1.1)).pvalue > 0.01


def test_criterion_09_determinism(tmp_path):
    with criterion(9, "byte-identical reruns incl. parallel", 60.0):
        for preset in ("thz", "emimo", "isac", "ris", "sagin"):
            cfg = load_preset(preset, drops=3, seed=909)
            run_campaign(cfg, tmp_path / preset / "a", jobs=1)
            run_campaign(cfg, tmp_path / preset / "b", jobs=1)
            run_campaign(cfg, tmp_path / preset / "p", jobs=3)
            for f in sorted((tmp_path / preset / "a").iterdir()):
                blob = f.read_bytes()
                assert blob == (tmp_path / preset / "b" / f.name).read_bytes(), \
                    f"{preset}/{f.name} differs between serial reruns"
                assert blob == (tmp_path / preset / "p" / f.name).read_bytes(), \
                    f"{preset}/{f.name} differs under parallelism"


def test_criterion_10_reflection_physics():
    with criterion(10, "roughness factor physics grid", 5.0):
        rng = np.random.default_rng(1010)
        f = rng.uniform(100e9, 450e9, 10_000)
        theta = rng.uniform(0.0, math.pi / 2 - 1e-9, 10_000)
        sigma = rng.uniform(0.0, 0.5e-3, 10_000)
        lam = C_LIGHT / f
        x = 4.0 * math.pi * sigma * np.cos(theta) / lam
        rho = np.exp(-0.5 * x * x)
        rho_mod = np.array([thz.roughness_factor(s, fi, th)
                            for s, fi, th in zip(sigma, f, theta)])
        assert np.allclose(rho_mod, rho, rtol=1e-12, atol=0.0)
        assert np.all(rho_mod > 0.0) and np.all(rho_mod <= 1.0)

        mat = thz.MaterialEm(name="x", n=1.6, alpha_abs=500.0, sigma_h=0.2e-3)
        for i in range(0, 10_000, 211):
            mat_i = thz.MaterialEm(name="x", n=1.6, alpha_abs=500.0,
                                   sigma_h=sigma[i])
            assert abs(thz.rough_reflection(mat_i, f[i], theta[i], "V")) <= \
                abs(thz.fresnel_smooth(mat_i, f[i], theta[i], "V")) + 1e-15

        # rho == exp(-1/2) on the 4 pi sigma cos(theta) / lambda == 1 locus.
        for fi in (150e9, 270e9, 400e9):
            for deg in (10.0, 45.0, 70.0):
                th = math.radians(deg)
                s = (C_LIGHT / fi) / (4.0 * math.pi * math.cos(th))
                assert thz.roughness_factor(s, fi, th) == pytest.approx(
                    math.exp(-0.5), abs=1e-12)
