import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from chansim6g import smallscale
from chansim6g.geometry import LosDirections
from chansim6g.largescale import LSPSet
from chansim6g.seeding import DropStreams
from chansim6g.smallscale import (gen_cluster_delays,
                                  gen_cluster_powers, gen_ray_angles,
                                  gen_xpr_phases, doppler_per_ray,
                                  generate_clusters, los_delay_scale,
                                  ray_offsets, ray_powers, RayAngles)
from test_largescale import make_entry

DIRS = LosDirections(aod=0.6, zod=1.5, aoa=0.6 - math.pi, zoa=math.pi - 1.5)


def make_lsps(**over):
    base = dict(ds_s=100e-9, asa_deg=30.0, asd_deg=20.0, zsa_deg=8.0,
                zsd_deg=4.0, k_db=9.0, sf_db=0.0)
    base.update(over)
    return LSPSet(**base)


def angles_of_one(lsps, powers, ray_p, entry, state, rng):
    """gen_ray_angles of one drop, passed as a block of one."""
    ang = gen_ray_angles([lsps], powers[None], ray_p[None], DIRS, entry, state, [rng])
    return RayAngles(zoa=ang.zoa[0], aoa=ang.aoa[0], zod=ang.zod[0], aod=ang.aod[0])


def circ_spread_deg(p, ang):
    z = np.sum(p * np.exp(1j * ang)) / p.sum()
    return math.degrees(math.sqrt(-2.0 * math.log(abs(z))))


class _ConstUniform:
    """Duck-typed generator whose uniform draws are all equal."""

    def __init__(self, value):
        self.value = value

    def uniform(self, size=None):
        return np.full(size, self.value)


class TestDelays:
    def test_equal_draws_collapse_to_zero(self):
        tau = gen_cluster_delays(100e-9, 3.0, 8, [_ConstUniform(0.37)])
        assert np.all(tau == 0.0)

    def test_exponential_mean(self):
        # Oracle: tau' = -r DS ln U has mean r * DS.
        tau = gen_cluster_delays(100e-9, 3.0, 100_000, [np.random.default_rng(4)])[0]
        assert abs(tau.mean() - 300e-9) / 300e-9 < 0.01

    def test_first_delay_zero_and_sorted(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            tau = gen_cluster_delays(50e-9, 2.3, 19, [rng])[0]
            assert tau[0] == 0.0
            assert np.all(np.diff(tau) >= 0)

    def test_los_scaling(self):
        # generate_clusters scales the drawn delays in LOS only, after the
        # powers were computed from the unscaled ones.
        entry, lsps = make_entry(n_clusters=10), make_lsps(k_db=9.0)
        raw = gen_cluster_delays(lsps.ds_s, entry.delay_scaling, 10,
                                 [DropStreams(21, 0).get("delays")])[0]
        los, nlos = (generate_clusters(entry, [lsps], DIRS, state, (0, 0, 0),
                                       28e9, [DropStreams(21, 0)])[0]
                     for state in ("LOS", "NLOS"))
        assert np.array_equal(nlos.delays_s, raw)
        assert np.array_equal(los.delays_s, raw / los_delay_scale(9.0))

    def test_preconditions(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            gen_cluster_delays(0.0, 3.0, 8, [rng])
        with pytest.raises(ValueError):
            gen_cluster_delays(1e-7, 1.0, 8, [rng])


class TestPowers:
    def test_zero_delays_equal_powers(self):
        tau = np.zeros(10)
        p = gen_cluster_powers(tau[None], 100e-9, 3.0, 0.0, None, "NLOS",
                               [np.random.default_rng(0)])[0]
        assert np.allclose(p, 0.1, atol=1e-15)

    def test_pure_specular_limit(self):
        tau = np.linspace(0, 300e-9, 12)
        p = gen_cluster_powers(tau[None], 100e-9, 3.0, 3.0, [300.0], "LOS",
                               [np.random.default_rng(1)])[0]
        assert p[0] == pytest.approx(1.0, abs=1e-12)
        assert np.all(p[1:] < 1e-12)

    def test_exponential_profile_slope(self):
        # Regression oracle: with zero per-cluster shadowing, log10 power is
        # affine in delay with slope -(r-1)/(r DS ln 10).
        ds, r = 100e-9, 3.0
        tau = np.sort(np.random.default_rng(2).uniform(0, 500e-9, 40))
        tau[0] = 0.0
        p = gen_cluster_powers(tau[None], ds, r, 0.0, None, "NLOS",
                               [np.random.default_rng(3)])[0]
        slope, _ = np.polyfit(tau, np.log10(p), 1)
        assert slope == pytest.approx(-(r - 1) / (r * ds * math.log(10)), rel=1e-9)

    def test_normalization_after_k_injection(self):
        rng = np.random.default_rng(5)
        for k_db in (-5.0, 0.0, 9.0, 20.0):
            tau = gen_cluster_delays(65e-9, 2.5, 15, [rng])
            p = gen_cluster_powers(tau, 65e-9, 2.5, 3.0, [k_db], "LOS", [rng])[0]
            assert abs(p.sum() - 1.0) <= 1e-12
            k_lin = 10.0 ** (k_db / 10.0)
            assert p[0] >= k_lin / (k_lin + 1.0) - 1e-12


class TestRayOffsets:
    def test_standard_table(self):
        offs = ray_offsets(20)
        assert offs.mean() == 0.0
        assert np.sqrt(np.mean(offs ** 2)) == pytest.approx(1.0, abs=1e-3)

    def test_generic_m(self):
        offs = ray_offsets(8)
        assert offs.mean() == pytest.approx(0.0, abs=1e-12)
        assert np.sqrt(np.mean(offs ** 2)) == pytest.approx(1.0, rel=1e-9)

    def test_single_ray(self):
        assert ray_offsets(1).tolist() == [0.0]


class TestRayAngles:
    def test_los_forces_geometric_direction(self):
        entry = make_entry(n_clusters=1)
        lsps = make_lsps()
        ang = angles_of_one(lsps, np.array([1.0]),
                            ray_powers(np.array([[1.0]]), entry.rays_per_cluster,
                                       los=True, k_db=[lsps.k_db])[0],
                            entry, "LOS", np.random.default_rng(0))
        assert ang.aoa[0, 0] == DIRS.aoa
        assert ang.zoa[0, 0] == DIRS.zoa
        assert ang.aod[0, 0] == DIRS.aod

    def test_circular_spread_recovers_configured_asa(self):
        entry = make_entry(n_clusters=16, c_asa_deg=8.0)
        lsps = make_lsps(asa_deg=30.0)
        rng = np.random.default_rng(7)
        spreads = []
        for _ in range(200):
            tau = gen_cluster_delays(lsps.ds_s, entry.delay_scaling,
                                     entry.n_clusters, [rng])
            p = gen_cluster_powers(tau, lsps.ds_s, entry.delay_scaling,
                                   entry.per_cluster_shadow_db, None, "NLOS", [rng])[0]
            rp = ray_powers(p[None], entry.rays_per_cluster)[0]
            ang = angles_of_one(lsps, p, rp, entry, "NLOS", rng)
            spreads.append(circ_spread_deg(rp.ravel(), ang.aoa.ravel()))
        spreads = np.array(spreads)
        # Per-drop spread calibration makes every drop land on the target.
        assert np.all(np.abs(spreads - 30.0) < 0.05)

    def test_angles_wrapped(self):
        entry = make_entry(n_clusters=19)
        lsps = make_lsps(asa_deg=80.0, zsa_deg=40.0)
        rng = np.random.default_rng(9)
        for _ in range(20):
            tau = gen_cluster_delays(lsps.ds_s, 2.3, 19, [rng])
            p = gen_cluster_powers(tau, lsps.ds_s, 2.3, 3.0, None, "NLOS", [rng])[0]
            ang = angles_of_one(lsps, p, ray_powers(p[None], entry.rays_per_cluster)[0],
                                entry, "NLOS", rng)
            assert np.all((ang.aoa > -np.pi) & (ang.aoa <= np.pi))
            assert np.all((ang.zoa >= 0) & (ang.zoa <= np.pi))
            assert np.all((ang.zod >= 0) & (ang.zod <= np.pi))


class TestXprPhases:
    def test_degenerate_xpr(self):
        entry = make_entry(xpr_mu_db=8.0, xpr_sigma_db=0.0)
        kappa, _ = gen_xpr_phases(entry, 4, 20, [np.random.default_rng(0)])
        assert np.all(kappa == 10.0 ** 0.8)

    def test_phase_uniformity_chi2(self):
        from scipy.stats import chisquare
        entry = make_entry()
        rng = np.random.default_rng(23)
        _, phases = gen_xpr_phases(entry, 100, 25, [rng])
        draws = np.concatenate([gen_xpr_phases(entry, 100, 25, [rng])[1].ravel()
                                for _ in range(100)])
        counts, _ = np.histogram(draws, bins=36, range=(-np.pi, np.pi))
        assert chisquare(counts).pvalue > 0.01

    def test_phase_range(self):
        _, phases = gen_xpr_phases(make_entry(), 10, 20, [np.random.default_rng(1)])
        assert np.all((phases > -np.pi) & (phases <= np.pi))


class TestDoppler:
    def test_zero_velocity(self):
        arrivals = np.random.default_rng(0).normal(size=(4, 20, 3))
        assert np.all(doppler_per_ray((0, 0, 0), arrivals, 28e9) == 0.0)

    def test_aligned_velocity(self):
        v = np.array([30.0, 0.0, 0.0])
        arrival = np.array([[[1.0, 0.0, 0.0]]])
        nu = doppler_per_ray(v, arrival, 28e9)
        assert nu[0, 0] == pytest.approx(2800.0, rel=1e-12)

    def test_orthogonal_velocity(self):
        nu = doppler_per_ray((0.0, 30.0, 0.0), np.array([[[1.0, 0.0, 0.0]]]), 28e9)
        assert nu[0, 0] == 0.0


class TestGenerateClusters:
    def _drop(self, seed=0, state="LOS", entry=None, lsps=None):
        entry = entry or make_entry(n_clusters=16)
        lsps = lsps or make_lsps()
        return generate_clusters(entry, [lsps], DIRS, state, (3.0, 0.0, 0.0),
                                 28e9, [DropStreams(seed, 0)])[0]

    def test_invariants(self):
        for seed in range(30):
            cs = self._drop(seed)
            assert abs(cs.powers.sum() - 1.0) <= 1e-12
            assert cs.delays_s[0] == 0.0
            assert np.all(np.diff(cs.delays_s) >= 0)
            assert np.all(cs.kappa > 0)
            assert abs(cs.ray_powers.sum() - 1.0) <= 1e-9

    def test_bit_reproducible(self):
        a = self._drop(42)
        b = self._drop(42)
        assert np.array_equal(a.delays_s, b.delays_s)
        assert np.array_equal(a.aoa, b.aoa)
        assert np.array_equal(a.phases, b.phases)

    def test_delay_spread_ensemble(self):
        entry = make_entry(n_clusters=16)
        lsps = make_lsps(ds_s=100e-9)
        med = np.median([
            _rms_ds(cs.powers, cs.delays_s)
            for cs in (generate_clusters(entry, [lsps], DIRS, "NLOS",
                                         (0, 0, 0), 28e9, [DropStreams(7, d)])[0]
                       for d in range(3000))])
        assert abs(med - 100e-9) / 100e-9 < 0.15

    def test_specular_power_share(self):
        cs = self._drop(3, state="LOS")
        k_lin = 10.0 ** 0.9
        assert cs.ray_powers[0, 0] >= k_lin / (k_lin + 1.0) - 1e-12


def _rms_ds(p, tau):
    m1 = np.sum(p * tau) / p.sum()
    m2 = np.sum(p * tau ** 2) / p.sum()
    return math.sqrt(max(m2 - m1 * m1, 0.0))


# ---------------------------------------------------------------------------
# Angle-spread calibration: the lockstep Newton solve against a scalar
# bisection
# ---------------------------------------------------------------------------

def calibrate_scale_oracle(dev, offsets, weights, target_rad):
    """One lane solved by the straightforward scalar bisection.

    Returns (gamma, exit, steps): exit names the branch that returned after
    ``steps`` bisection steps.
    """
    n = dev.size
    if n < 2:
        return 1.0, "n<2", 0
    if np.allclose(dev, 0.0):
        return 1.0, "zero", 0

    q = np.sum(weights * np.exp(1j * offsets), axis=1)
    total = weights.sum()

    def spread(gamma):
        r = abs(np.sum(q * np.exp(1j * gamma * dev))) / total
        r = min(r, 1.0 - 1e-16)
        return math.sqrt(-2.0 * math.log(r))

    lo_s = spread(0.0)
    if target_rad <= lo_s:
        return 0.0, "below", 0
    dmax = np.abs(dev).max()
    hi = 0.9 * math.pi / dmax
    if spread(hi) <= target_rad:
        return hi, "above", 0
    lo = 0.0
    for step in range(1, 49):
        mid = 0.5 * (lo + hi)
        s = spread(mid)
        if abs(s - target_rad) < 1e-10:
            return mid, "early", step
        if s < target_rad:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi), "exhausted", 48


def oracle_spread(dev, offsets, weights, gamma):
    """Circular spread of the rays at gamma, summed ray by ray."""
    z = np.sum(weights * np.exp(1j * (gamma * dev[:, None] + offsets)))
    return math.sqrt(-2.0 * math.log(abs(z) / weights.sum()))


def calibration_lanes(rng, lanes, n, m, los=False, dev_sigma=0.5):
    devs = rng.normal(0.0, dev_sigma, size=(lanes, n))
    offsets = np.empty((lanes, n, m))
    for i in range(lanes):
        offsets[i] = math.radians(rng.uniform(0.5, 15.0)) * ray_offsets(m)
    p = rng.exponential(size=n)
    p = p / p.sum() if n else p
    if los and n:
        devs -= devs[:, :1]
        offsets[:, 0, 0] = 0.0
        weights = ray_powers(p[None], m, los=True, k_db=[rng.uniform(-5.0, 15.0)])[0]
    else:
        weights = ray_powers(p[None], m)[0]
    return devs, offsets, weights


def _same(a, b):
    return a == b or (math.isnan(a) and math.isnan(b))


def solve(devs, offsets, weights, targets):
    """_calibrate_scales on rays given by their offsets and powers."""
    q = np.sum(weights * np.exp(1j * offsets), axis=-1)
    return smallscale._calibrate_scales(devs, q, [float(weights.sum())] * len(devs),
                                        targets)


def check_lanes(devs, offsets, weights, targets):
    """Solve all lanes in lockstep and hold each to the calibration contract.

    Against the scalar bisection: every branch but the interior solve gives
    the same gamma (==); an interior lane the bisection solved to 1e-10 is
    solved to 1e-10 of the ray-by-ray spread; a finite lane the bisection
    never solved (a quantized spread) ends no farther from its target. Every
    lane gives the same gamma (==) solved alone. Returns each lane's exit.
    """
    got = solve(devs, offsets, weights, targets)
    exits = []
    for lane, target in enumerate(targets):
        want, exit_, _ = calibrate_scale_oracle(devs[lane], offsets[lane],
                                                weights, target)
        alone = solve(devs[lane:lane + 1], offsets[lane:lane + 1], weights,
                      [target])
        assert _same(got[lane], alone[0]), (lane, exit_, got[lane], alone[0])
        finite = math.isfinite(target) and np.all(np.isfinite(devs[lane]))
        if exit_ == "early":
            s = oracle_spread(devs[lane], offsets[lane], weights, got[lane])
            assert abs(s - target) < 1e-10, (lane, s, target)
        elif exit_ == "exhausted" and finite:
            err = abs(oracle_spread(devs[lane], offsets[lane], weights, got[lane])
                      - target)
            want_err = abs(oracle_spread(devs[lane], offsets[lane], weights, want)
                           - target)
            assert err <= want_err, (lane, err, want_err)
        else:
            assert _same(got[lane], want), (lane, exit_, got[lane], want)
        exits.append(exit_)
    return exits


class TestCalibrationLockstep:
    def test_every_exit(self):
        rng = np.random.default_rng(11)
        devs, offsets, w = calibration_lanes(rng, 6, 12, 20)
        devs[1] = 0.0                             # all-zero deviations
        devs[2, :] = 1e-9                         # below the zero threshold
        lo_s = oracle_spread(devs[3], offsets[3], w, 0.0)
        targets = [0.4, 0.4, 0.4, lo_s * 0.5, 3.0, float("nan")]
        exits = check_lanes(devs, offsets, w, targets)
        assert exits == ["early", "zero", "zero", "below", "above", "exhausted"]

    def test_single_cluster_and_empty(self):
        rng = np.random.default_rng(1)
        for n in (0, 1):
            devs, offsets, w = calibration_lanes(rng, 4, n, 20)
            assert check_lanes(devs, offsets, w, [0.3] * 4) == ["n<2"] * 4

    def test_quantized_spread_exhausts_steps(self):
        # Near r = 1 the spread only takes the values sqrt(2 k eps), steps
        # far wider than 1e-10: a target between two of them is never hit.
        devs = np.array([[-0.5, 0.5]])
        offsets = np.zeros((1, 2, 1))
        w = np.full((2, 1), 0.5)
        assert check_lanes(devs, offsets, w, [2.0e-8]) == ["exhausted"]

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_deviation(self, bad):
        rng = np.random.default_rng(3)
        devs, offsets, w = calibration_lanes(rng, 3, 8, 20)
        devs[0, 2] = bad
        devs[1, :] = 0.0
        devs[1, 4] = bad
        check_lanes(devs, offsets, w, [0.3, 0.3, 0.3])

    def test_lanes_finish_in_different_rounds(self, monkeypatch):
        rng = np.random.default_rng(5)
        devs, offsets, w = calibration_lanes(rng, 12, 16, 20, los=True)
        lo_s = oracle_spread(devs[2], offsets[2], w, 0.0)
        targets = list(np.linspace(0.05, 1.2, 12))
        targets[2] = lo_s * 0.9
        exits = check_lanes(devs, offsets, w, targets)
        assert exits[2] == "below"
        # Each spread evaluation of a lane is one round of its solve.
        calls = []
        real = smallscale._spread_of
        monkeypatch.setattr(smallscale, "_spread_of",
                            lambda *a: calls.append(1) or real(*a))
        rounds = set()
        for lane in range(12):
            calls.clear()
            solve(devs[lane:lane + 1], offsets[lane:lane + 1], w,
                  [targets[lane]])
            if exits[lane] == "early":
                rounds.add(len(calls))
        assert len(rounds) >= 2, rounds

    def test_lanes_with_own_totals_and_exits_are_independent(self):
        """One call over lanes of different drops (their own ray powers and
        totals) that leave by every exit: each lane's gamma is bit-equal to
        the one it gets alone."""
        rng = np.random.default_rng(29)
        n, m = 12, 20
        devs, qs, totals, targets, want = [], [], [], [], []

        def lane(dev, offsets, w, target, exit_):
            got = calibrate_scale_oracle(dev, offsets, w, target)[1]
            assert got == exit_, (got, exit_)
            devs.append(dev)
            qs.append(np.sum(w * np.exp(1j * offsets), axis=-1))
            totals.append(float(w.sum()))
            targets.append(target)
            want.append(exit_)

        for scale, exit_ in ((0.5, "early"), (2.0, "below"), (3.7, "above"),
                             (1.3, "nan"), (0.9, "zero")):
            d, o, w = calibration_lanes(rng, 1, n, m, los=exit_ == "early")
            w = w * scale
            target = {"early": 0.4, "above": 3.0, "nan": float("nan")}.get(exit_)
            if exit_ == "below":
                target = 0.5 * oracle_spread(d[0], o[0], w, 0.0)
            if exit_ == "zero":
                d[0] = 0.0
                target = 0.4
            lane(d[0], o[0], w, target,
                 "exhausted" if exit_ == "nan" else exit_)
        # A spread quantized near r = 1 never meets the tolerance: the
        # 48-iterate fallback. Two clusters carry all of the power.
        dev = np.zeros(n)
        dev[:2] = (-0.5, 0.5)
        w = np.zeros((n, 1))
        w[:2] = 0.5
        lane(dev, np.zeros((n, 1)), w, 2.0e-8, "exhausted")

        devs, qs = np.array(devs), np.array(qs)
        assert len(set(totals)) == len(totals)
        got = smallscale._calibrate_scales(devs, qs, totals, targets)
        for i in range(len(targets)):
            alone = smallscale._calibrate_scales(devs[i:i + 1], qs[i:i + 1],
                                                 [totals[i]], [targets[i]])
            assert _same(got[i], alone[0]), (i, want[i], got[i], alone[0])
        assert got[1] == 0.0 and got[4] == 1.0
        assert got[2] == 0.9 * math.pi / np.abs(devs[2]).max()
        assert got[3] == math.ldexp(0.9 * math.pi / np.abs(devs[3]).max(), -49)

    def test_bracket_ends_hit_exactly(self):
        # A target equal to spread(0) or spread(hi) must take the same branch
        # as the scalar bisection: spreads use libm log, not numpy's.
        rng = np.random.default_rng(17)
        for los in (False, True):
            devs, offsets, w = calibration_lanes(rng, 2000, 10, 20, los=los)
            q = np.sum(w * np.exp(1j * offsets), axis=-1)
            total = w.sum()
            targets = []
            for lane in range(devs.shape[0]):
                gamma = 0.0 if lane % 2 else 0.9 * math.pi / np.abs(devs[lane]).max()
                r = abs(np.sum(q[lane] * np.exp(1j * gamma * devs[lane]))) / total
                targets.append(math.sqrt(-2.0 * math.log(min(r, 1.0 - 1e-16))))
            exits = check_lanes(devs, offsets, w, targets)
            assert set(exits) <= {"below", "above"}

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(lanes=st.integers(1, 5), n=st.integers(0, 24),
           m=st.sampled_from([1, 2, 3, 20]), los=st.booleans(),
           dev_sigma=st.sampled_from([1e-9, 1e-3, 0.05, 0.5, 2.0, 40.0]),
           targets=st.lists(st.floats(1e-4, 4.0), min_size=5, max_size=5),
           special=st.sampled_from([None, np.nan, np.inf, -np.inf, 0.0]),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_matches_scalar_bisection(self, lanes, n, m, los, dev_sigma,
                                      targets, special, seed):
        rng = np.random.default_rng(seed)
        devs, offsets, w = calibration_lanes(rng, lanes, n, m, los=los,
                                             dev_sigma=dev_sigma)
        if special is not None and n:
            devs[0, rng.integers(n)] = special
        check_lanes(devs, offsets, w, targets[:lanes])

    def test_drops_match_per_dimension_oracle(self):
        """gen_ray_angles gives the angles of one one-lane solve per
        dimension."""
        entry = make_entry(n_clusters=16, c_asa_deg=8.0)
        for seed in range(40):
            state = "LOS" if seed % 2 else "NLOS"
            lsps = make_lsps(asa_deg=5.0 + seed, zsd_deg=0.5 + seed / 10)
            p = gen_cluster_powers(
                gen_cluster_delays(lsps.ds_s, 2.3, 16, [np.random.default_rng(seed)]),
                lsps.ds_s, 2.3, 3.0, None, "NLOS", [np.random.default_rng(seed)])[0]
            los = state == "LOS"
            rp = ray_powers(p[None], entry.rays_per_cluster, los=los,
                            k_db=[lsps.k_db] if los else None)[0]
            rng = np.random.default_rng(seed)
            ang = angles_of_one(lsps, p, rp, entry, state, rng)
            want = _reference_ray_angles(lsps, p, rp, entry, state,
                                         np.random.default_rng(seed))
            for name in ("aoa", "aod", "zoa", "zod"):
                assert np.array_equal(getattr(ang, name), want[name]), (seed, name)


def _cluster_angles(powers, spread_deg, reference, los, k_db, zenith, rng):
    """One dimension's cluster angles by the inverse-shape method: a random
    sign, then a jitter of a seventh of the spread, per cluster."""
    n = powers.size
    s = math.radians(spread_deg)
    ratio = powers / powers.max()
    if zenith:
        prime = -s * np.log(ratio) / smallscale.c_theta(n, los, k_db)
    else:
        prime = 2.0 * (s / 1.4) * np.sqrt(-np.log(ratio)) / smallscale.c_phi(n, los, k_db)
    signs = rng.choice(np.array([-1.0, 1.0]), size=n)
    jitter = rng.normal(0.0, s / 7.0, size=n)
    dev = signs * prime + jitter
    if los:
        dev = dev - dev[0]
    return reference + dev


def _reference_ray_angles(lsps, powers, ray_p, entry, state, rng):
    """gen_ray_angles as one one-lane calibration per dimension."""
    los = state == "LOS"
    n, m = powers.size, entry.rays_per_cluster
    dims = (("aoa", lsps.asa_deg, entry.c_asa_deg, DIRS.aoa, False),
            ("aod", lsps.asd_deg, entry.c_asd_deg, DIRS.aod, False),
            ("zoa", lsps.zsa_deg, entry.c_zsa_deg, DIRS.zoa, True),
            ("zod", lsps.zsd_deg, entry.c_zsd_deg, DIRS.zod, True))
    out = {}
    for name, spread_deg, c_deg, ref, zenith in dims:
        cluster = _cluster_angles(powers, spread_deg, ref, los, lsps.k_db, zenith, rng)
        offsets = math.radians(c_deg) * ray_offsets(m)[None, :] * np.ones((n, 1))
        if los:
            offsets[0, 0] = 0.0
        dev = cluster - ref
        gamma, = solve(dev[None], offsets[None], ray_p,
                       [math.radians(spread_deg)])
        ang = ref + gamma * dev[:, None] + offsets
        ang = smallscale._reflect_zenith(ang) if zenith else smallscale._wrap_pi(ang)
        if los:
            ang[0, 0] = ref
        out[name] = ang
    return out
