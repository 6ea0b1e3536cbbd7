import dataclasses
import math

import numpy as np
import pytest

from chansim6g import isac
from chansim6g.constants import C_LIGHT
from chansim6g.geometry import ConfigurationError, Position3D
from chansim6g.isac import clutter_power_ratio, gen_isac_drop, sharing_degree
from chansim6g.largescale import LSPSet
from chansim6g.seeding import DropStreams
from chansim6g.smallscale import ClusterSet, _reflect_zenith, _wrap_pi, doppler_per_ray
from test_largescale import make_entry

TX = Position3D(0.0, 0.0, 1.5)
RX = Position3D(10.0, 0.0, 1.5)


def make_lsps(**over):
    base = dict(ds_s=20e-9, asa_deg=30.0, asd_deg=25.0, zsa_deg=8.0,
                zsd_deg=4.0, k_db=7.0, sf_db=0.0)
    base.update(over)
    return LSPSet(**base)


def target(position, rcs_dbsm=0.0, velocity=(0.0, 0.0, 0.0)):
    """An ``isac.targets`` entry."""
    return {"position": list(position), "rcs_dbsm": rcs_dbsm, "velocity": list(velocity)}


def geometry(n_shared=6, targets=(), rx_s_pos=None, self_interference_db=None,
             ue_velocity=(0.0, 0.0, 0.0)):
    """The slice geometry of TX, RX and an ``isac`` block at 28 GHz."""
    block = {"targets": list(targets), "n_shared": n_shared,
             "rx_s_position": None if rx_s_pos is None else dataclasses.astuple(rx_s_pos),
             "self_interference_db": self_interference_db}
    return isac.build_geometry(block, TX, RX, 28e9, ue_velocity)


def drop(seed=0, n_total=15, n_shared=6, state="NLOS", targets=(), **kw):
    entry = make_entry(n_clusters=n_total, rays_per_cluster=10)
    return gen_isac_drop(geometry(n_shared, targets, **kw), entry, make_lsps(), state,
                         DropStreams(seed, 0))


class TestSharing:
    def test_full_sharing_sd_one(self):
        pair = drop(n_shared=15)
        assert sharing_degree(pair, "sensing") == 1.0
        assert sharing_degree(pair, "comm") == 1.0
        assert pair.shared_sense_idx.size == 15

    def test_no_sharing_sd_zero(self):
        pair = drop(n_shared=0)
        assert sharing_degree(pair, "sensing") == 0.0
        assert sharing_degree(pair, "comm") == 0.0

    def test_sd_scale_invariance(self):
        from types import SimpleNamespace
        rng = np.random.default_rng(3)
        powers = rng.uniform(0.1, 1.0, 10)
        idx = np.array([1, 4, 7])
        base = SimpleNamespace(sense=SimpleNamespace(powers=powers),
                               shared_sense_idx=idx)
        scaled = SimpleNamespace(sense=SimpleNamespace(powers=7.0 * powers),
                                 shared_sense_idx=idx)
        assert sharing_degree(scaled, "sensing") == pytest.approx(
            sharing_degree(base, "sensing"), rel=1e-12)

    def test_shared_departure_rays_bitwise_equal(self):
        for seed in range(10):
            pair = drop(seed=seed, n_shared=6, state="LOS")
            # Match shared clusters through their common excess-delay draw
            # ordering: both sides sort shared clusters identically.
            c_sorted = pair.shared_comm_idx[
                np.argsort(pair.comm.delays_s[pair.shared_comm_idx])]
            s_sorted = pair.shared_sense_idx[
                np.argsort(pair.sense.delays_s[pair.shared_sense_idx])]
            for ci, si in zip(c_sorted, s_sorted):
                assert np.array_equal(pair.comm.aod[ci], pair.sense.aod[si])

    def test_independence_without_sharing(self):
        matches = 0
        for seed in range(200):
            pair = drop(seed=seed, n_shared=0)
            c = pair.comm.aod[:, 0]
            s = pair.sense.aod[:, 0]
            matches += np.intersect1d(c, s).size
        assert matches == 0

    def test_sd_stochastic_ordering(self):
        medians = []
        for n0 in (3, 6, 9):
            sds = [sharing_degree(drop(seed=s, n_shared=n0), "sensing")
                   for s in range(300)]
            medians.append(np.median(sds))
        assert medians[0] < medians[1] < medians[2]

    def test_budget_error(self):
        with pytest.raises(ConfigurationError):
            drop(n_shared=16)
        with pytest.raises(ConfigurationError):
            drop(n_shared=14, state="LOS",
                 targets=[target((3.0, 2.0, 1.5))] * 3)


def _shared_delay_key(cs, idx):
    return round(float(cs.delays_s[idx]), 15)


class TestTargets:
    TARGETS = [target((4.0, 3.0, 1.5), rcs_dbsm=0.0, velocity=(1.0, 0.0, 0.0)),
               target((7.0, -2.5, 1.5), rcs_dbsm=5.0),
               target((2.0, -4.0, 1.5), rcs_dbsm=-3.0)]

    def test_monostatic_echo_delay_exact(self):
        pair = drop(targets=self.TARGETS, n_shared=4)
        echo_delays = geometry(4, self.TARGETS).echo_delays
        for t, echo in zip(self.TARGETS, echo_delays):
            d = TX.distance_to(Position3D.from_iterable(t["position"]))
            assert echo == (d + d) / C_LIGHT
        # Tap reconstruction: offset + excess recovers every echo delay, the
        # offset being the nearest echo's delay (clutter comes later).
        abs_delays = echo_delays.min() + pair.sense.delays_s
        for echo in echo_delays:
            assert np.min(np.abs(abs_delays - echo)) < 1e-18

    def test_monostatic_departure_equals_arrival(self):
        pair = drop(targets=self.TARGETS, n_shared=4)
        for idx in pair.target_sense_idx:
            assert np.array_equal(pair.sense.aod[idx], pair.sense.aoa[idx])
            assert np.array_equal(pair.sense.zod[idx], pair.sense.zoa[idx])

    def test_rcs_weight_scales_target_power(self):
        t0 = [target((4.0, 3.0, 1.5), rcs_dbsm=0.0)]
        t10 = [target((4.0, 3.0, 1.5), rcs_dbsm=10.0)]
        a = drop(seed=7, targets=t0, n_shared=4)
        b = drop(seed=7, targets=t10, n_shared=4)
        # Same seed, same draws: the RCS weight multiplies the target's power
        # relative to the environment by exactly 10x.
        pa = a.sense.powers[a.target_sense_idx[0]]
        pb = b.sense.powers[b.target_sense_idx[0]]
        env_a = 1.0 - pa
        env_b = 1.0 - pb
        assert (pb / env_b) / (pa / env_a) == pytest.approx(10.0, rel=1e-9)

    def test_target_doppler_round_trip(self):
        pair = drop(targets=[target((4.0, 0.0, 1.5), rcs_dbsm=0.0, velocity=(10.0, 0.0, 0.0))],
                    n_shared=0)
        idx = pair.target_sense_idx[0]
        # Mono-static echo Doppler carries the round-trip factor 2; clutter
        # clusters are static.
        expected = 2.0 * 10.0 * 28e9 / C_LIGHT
        center_ray_dop = pair.sense.doppler_hz[idx].mean()
        assert abs(center_ray_dop) == pytest.approx(expected, rel=0.05)
        static = np.setdiff1d(np.arange(pair.sense.n_clusters),
                              pair.target_sense_idx)
        assert np.all(pair.sense.doppler_hz[static] == 0.0)

    def test_self_interference_tap(self):
        pair = drop(targets=self.TARGETS, n_shared=4,
                    self_interference_db=40.0)
        # One extra cluster at the zero-range tap (mono-static SI), so the
        # sensing taps' offset is 0 and every echo sits at its own delay.
        assert pair.sense.n_clusters == 16
        assert pair.sense.delays_s[0] == 0.0
        for echo in geometry(4, self.TARGETS, self_interference_db=40.0).echo_delays:
            assert np.min(np.abs(pair.sense.delays_s - echo)) < 1e-18


class TestBistatic:
    def test_bistatic_echo_delay_and_angles(self):
        rx_s = Position3D(0.0, 5.0, 1.5)
        t = target((4.0, 3.0, 1.5))
        pair = drop(targets=[t], n_shared=0, rx_s_pos=rx_s)
        position = Position3D.from_iterable(t["position"])
        d1 = TX.distance_to(position)
        d2 = position.distance_to(rx_s)
        assert geometry(0, [t], rx_s).echo_delays[0] == (d1 + d2) / C_LIGHT
        idx = pair.target_sense_idx[0]
        # Scattered leg heads to Rx_S, not back along the departure ray.
        assert not np.array_equal(pair.sense.aoa[idx], pair.sense.aod[idx])


class TestClutterPowerRatio:
    def test_empty_environment_sentinel(self):
        assert clutter_power_ratio(1.0, []) == math.inf

    def test_equal_power(self):
        assert clutter_power_ratio(0.25, [0.25]) == pytest.approx(1.0)

    def test_decreases_with_clutter_density(self):
        means = []
        for n_total in (4, 8, 14):
            prs = []
            for seed in range(200):
                pair = drop(seed=seed, n_total=n_total, n_shared=0,
                            targets=[target((4.0, 3.0, 1.5))])
                p_t = pair.sense.powers[pair.target_sense_idx].sum()
                env = np.delete(pair.sense.powers, pair.target_sense_idx)
                prs.append(clutter_power_ratio(float(p_t), env))
            means.append(np.mean(prs))
        assert means[0] > means[1] > means[2]

    def test_invalid_target_power(self):
        with pytest.raises(ValueError):
            clutter_power_ratio(0.0, [0.1])


class TestStructuralLinearity:
    def test_sub_channel_cfr_sum(self):
        # Shared + non-shared sub-channel frequency responses reconstruct the
        # full response exactly (superposition of disjoint tap subsets).
        from chansim6g.cir import synthesize_cir
        from chansim6g.geometry import single_element
        pair = drop(seed=11, n_shared=6)
        cir = synthesize_cir(pair.sense, single_element(), single_element(), 28e9)
        taps = cir.coefficients[0, 0, 0]
        freqs = np.linspace(0, 50e6, 64)
        basis = np.exp(-2j * np.pi * np.outer(freqs, cir.tap_delays_s))
        full = basis @ taps
        shared = np.zeros(cir.tap_delays_s.size, dtype=complex)
        shared[pair.shared_sense_idx] = taps[pair.shared_sense_idx]
        rest = taps - shared
        recon = basis @ shared + basis @ rest
        assert np.max(np.abs(recon - full)) <= 1e-12 * np.max(np.abs(full))


class TestDeterminism:
    def test_same_seed_bitwise(self):
        a = drop(seed=21, n_shared=5, state="LOS")
        b = drop(seed=21, n_shared=5, state="LOS")
        assert np.array_equal(a.comm.delays_s, b.comm.delays_s)
        assert np.array_equal(a.sense.aoa, b.sense.aoa)
        assert np.array_equal(a.comm.phases, b.comm.phases)


# ---------------------------------------------------------------------------
# Vectorized environment rows against the per-cluster scalar draws
# ---------------------------------------------------------------------------

def scalar_env_rows(rng, n_env, shared, base_abs, base_dirs, spreads,
                    excess_scale, velocity):
    """``isac._env_rows`` as one scalar draw and fold per cluster angle."""
    shared_excess, shared_aod = shared
    base_aod, base_aoa, base_zoa, base_zod = base_dirs
    asd_rad, asa_rad, zsa_rad, zsd_rad = spreads
    rows = []   # (delay, aod, aoa, zoa, zod, shared_id) per cluster
    for sid in range(shared_excess.size):
        rows.append((
            base_abs + float(shared_excess[sid]),
            float(shared_aod[sid]),
            float(_wrap_pi(base_aoa + rng.normal(0.0, asa_rad))),
            float(_reflect_zenith(base_zoa + rng.normal(0.0, zsa_rad))),
            float(_reflect_zenith(base_zod + rng.normal(0.0, zsd_rad))),
            sid))
    env_excess = excess_scale * np.log(rng.uniform(size=n_env))
    for i in range(n_env):
        rows.append((
            base_abs + float(env_excess[i]),
            float(_wrap_pi(base_aod + rng.normal(0.0, asd_rad))),
            float(_wrap_pi(base_aoa + rng.normal(0.0, asa_rad))),
            float(_reflect_zenith(base_zoa + rng.normal(0.0, zsa_rad))),
            float(_reflect_zenith(base_zod + rng.normal(0.0, zsd_rad))),
            -1))
    delay, aod, aoa, zoa, zod, shared_id = np.array(rows).reshape(-1, 6).T
    return isac._rows(delay=delay, aod=aod, aoa=aoa, zoa=zoa, zod=zod,
                      shared_id=shared_id, velocity=velocity)


class RecordingStreams(DropStreams):
    """DropStreams that keeps every generator it hands out."""

    def __init__(self, seed, drop):
        super().__init__(seed, drop)
        self.handed = []

    def get(self, stream):
        rng = super().get(stream)
        self.handed.append((stream, rng))
        return rng

    def states(self):
        return [(name, rng.bit_generator.state) for name, rng in self.handed]


def assert_pairs_equal(a, b):
    for f in dataclasses.fields(a):
        x, y = getattr(a, f.name), getattr(b, f.name)
        if isinstance(x, ClusterSet):
            for g in dataclasses.fields(x):
                u, v = getattr(x, g.name), getattr(y, g.name)
                assert np.array_equal(u, v), (f.name, g.name)
                assert np.asarray(u).dtype == np.asarray(v).dtype
        else:
            assert np.array_equal(x, y), f.name


TWO_TARGETS = (target((6.0, 4.0, 1.5), rcs_dbsm=5.0, velocity=(1.0, -2.0, 0.0)),
               target((-3.0, 8.0, 2.5), rcs_dbsm=-3.0))


@pytest.mark.parametrize("case", [
    dict(state="NLOS", n_shared=0),
    dict(state="NLOS", n_shared=1),
    dict(state="NLOS", n_shared=15),
    dict(state="LOS", n_shared=14),
    dict(state="LOS", n_shared=6, targets=TWO_TARGETS),
    dict(state="LOS", n_shared=13, targets=TWO_TARGETS),
    dict(state="NLOS", n_shared=5, targets=TWO_TARGETS,
         rx_s_pos=Position3D(0.0, 5.0, 1.5)),
    dict(state="NLOS", n_shared=0, targets=TWO_TARGETS[:1],
         rx_s_pos=Position3D(2.0, -5.0, 3.0)),
    dict(state="LOS", n_shared=4, targets=TWO_TARGETS,
         self_interference_db=40.0),
    dict(state="LOS", n_shared=1, self_interference_db=25.0,
         ue_velocity=(3.0, 1.0, 0.0)),
], ids=lambda c: "-".join(f"{k}={v}" for k, v in c.items() if k != "targets")
   + f"-targets={len(c.get('targets', ()))}")
@pytest.mark.parametrize("seed", [0, 1, 29])
def test_env_rows_match_scalar_draws(monkeypatch, case, seed):
    entry = make_entry(n_clusters=15, rays_per_cluster=10)
    case = dict(case)
    state, n_shared = case.pop("state"), case.pop("n_shared")

    def run():
        streams = RecordingStreams(seed, 3)
        pair = gen_isac_drop(geometry(n_shared, **case), entry, make_lsps(), state,
                             streams)
        return pair, streams.states()

    vec_pair, vec_states = run()
    monkeypatch.setattr(isac, "_env_rows", scalar_env_rows)
    ref_pair, ref_states = run()
    assert_pairs_equal(vec_pair, ref_pair)
    assert vec_states == ref_states


# ---------------------------------------------------------------------------
# Grouped Doppler products against one product per row
# ---------------------------------------------------------------------------

def per_row_doppler(velocity, arrival, f_hz, scale):
    """``isac._doppler`` as one ``doppler_per_ray`` product per moving row."""
    doppler = np.zeros(arrival.shape[:2])
    for i, v in enumerate(velocity):
        if not np.isnan(v[0]):
            doppler[i] = scale * doppler_per_ray(v, arrival[i], f_hz)
    return doppler


# Fifteen targets in three velocity groups, and a pair whose velocities
# differ only in the sign of a zero.
GROUPED_TARGETS = tuple(
    target((2.0 + i % 5, -4.0 + 3.0 * (i // 5), 1.0 + 0.5 * (i % 3)), rcs_dbsm=-5.0 + i,
           velocity=[(1.0, 0.0, 0.0), (0.0, -0.8, 0.0), (0.6, 0.6, 0.2)][i % 3])
    for i in range(15)) + (
    target((-3.0, 2.0, 1.5), velocity=(-0.0, 0.0, 0.0)),
    target((-2.0, -3.0, 2.0), velocity=(0.0, 0.0, 0.0)))


@pytest.mark.parametrize("case", [
    dict(state="LOS", n_shared=0, targets=GROUPED_TARGETS[:15]),
    dict(state="LOS", n_shared=2, targets=GROUPED_TARGETS, ue_velocity=(1.5, -0.7, 0.0)),
    dict(state="NLOS", n_shared=3, targets=GROUPED_TARGETS, self_interference_db=30.0,
         ue_velocity=(0.0, 2.0, 0.5)),
    dict(state="NLOS", n_shared=1, targets=GROUPED_TARGETS[10:],
         rx_s_pos=Position3D(8.0, 4.0, 1.5), self_interference_db=25.0),
], ids=["echoes-only", "los-moving", "si-nlos", "bistatic"])
@pytest.mark.parametrize("seed", [0, 7])
def test_grouped_doppler_matches_per_row(monkeypatch, case, seed):
    entry = make_entry(n_clusters=20, rays_per_cluster=20)
    case = dict(case)
    state, n_shared = case.pop("state"), case.pop("n_shared")

    def run():
        return gen_isac_drop(geometry(n_shared, **case), entry, make_lsps(), state,
                             DropStreams(seed, 1))

    grouped = run()
    monkeypatch.setattr(isac, "_doppler", per_row_doppler)
    per_row = run()
    assert np.array_equal(grouped.comm.doppler_hz, per_row.comm.doppler_hz)
    assert np.array_equal(grouped.sense.doppler_hz, per_row.sense.doppler_hz)
    assert np.any(grouped.sense.doppler_hz[grouped.target_sense_idx] != 0.0)
