"""Drop blocks: a campaign slice stages its drops in blocks that share one
plan. Per drawn link state, every terrestrial feature draws its LSPs there,
and BASE, THz, E-MIMO, each RIS leg and SAGIN run steps 5-10 as one pass;
blocks are the only input form of those steps. A RIS slice's panel geometry
and an ISAC slice's fixed geometry are built once, on the plan. A drop's tensors and metrics must not depend on
the block it ran in, a failing drop must still be named, and the functions
perfbench's tracer wraps must still be called through their module
attributes.
"""

import importlib
import importlib.util
import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import chansim6g.campaign as campaign
from chansim6g import analysis
from chansim6g.campaign import run_campaign, run_drop
from chansim6g.cir import read_cir
from chansim6g.cli import main as cli_main
from chansim6g.config import config_from_dict, load_preset

ROOT = Path(__file__).resolve().parents[1]


def _uma_base():
    """perfbench's BASE config: uma at 134 m with a drawn link state, so LOS
    and NLOS drops mix in one block."""
    sys.path.insert(0, str(ROOT))
    try:
        from perfbench.workloads import BASE_CONFIG
    finally:
        sys.path.remove(str(ROOT))
    return config_from_dict(dict(BASE_CONFIG))


def _golden_config(name):
    """A config of ``scripts/golden_digests.py``, e.g. the ``ris-drawn``
    variant: a drawn link state (LOS and NLOS legs in one block) and no leg
    overrides."""
    path = ROOT / "scripts" / "golden_digests.py"
    spec = importlib.util.spec_from_file_location("golden_digests", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.campaign_configs()[name]


CONFIGS = {**{name: load_preset(name)
              for name in ("thz", "emimo", "isac", "ris", "sagin")},
           "base": _uma_base(), "ris-drawn": _golden_config("ris-drawn"),
           "isac-drawn": _golden_config("isac-drawn")}


def _same_value(a, b):
    return a == b or (isinstance(a, float) and math.isnan(a) and math.isnan(b))


def assert_same_drop(got, want):
    assert got.drop == want.drop
    assert sorted(got.tensors) == sorted(want.tensors)
    for suffix, t in want.tensors.items():
        g = got.tensors[suffix]
        assert g.coefficients.tobytes() == t.coefficients.tobytes(), suffix
        assert g.tap_delays_s.tobytes() == t.tap_delays_s.tobytes(), suffix
        assert g.sample_times_s.tobytes() == t.sample_times_s.tobytes(), suffix
        assert g.meta == t.meta, suffix
    assert sorted(got.metrics) == sorted(want.metrics)
    for key, value in want.metrics.items():
        assert _same_value(got.metrics[key], value), key


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(name=st.sampled_from(sorted(CONFIGS)), seed=st.integers(0, 2 ** 32 - 1),
       size=st.sampled_from([2, 24]), first=st.integers(0, 10_000), data=st.data())
def test_drop_is_the_same_at_any_block_position(name, seed, size, first, data):
    cfg = replace(CONFIGS[name], seed=seed)
    pos = data.draw(st.integers(0, size - 1), label="position")
    drop = first + pos
    staged = campaign._stage(campaign._plan(cfg), range(first, first + size))
    assert_same_drop(run_drop(cfg, drop, staged[pos]), run_drop(cfg, drop))


@pytest.mark.parametrize("jobs", [1, 3])
@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_campaign_drops_match_run_drop_alone(name, jobs, tmp_path):
    """30 drops, so a slice stages one full block and a partial one."""
    cfg = replace(CONFIGS[name], drops=30, seed=20261019)
    out = tmp_path / "out"
    run_campaign(cfg, out, jobs=jobs)
    rows = {}
    lines = (out / "metrics.csv").read_text().splitlines()
    header = lines[0].split(",")
    for line in lines[1:]:
        cells = dict(zip(header, line.split(",")))
        rows[int(cells["drop"])] = cells
    states = set()
    for drop in range(cfg.drops):
        alone = run_drop(cfg, drop)
        for suffix, tensor in alone.tensors.items():
            got = read_cir(out / f"drop{drop:05d}.cir{suffix}")
            assert got.coefficients.tobytes() == tensor.coefficients.tobytes(), drop
            assert got.tap_delays_s.tobytes() == tensor.tap_delays_s.tobytes(), drop
        assert rows[drop]["state"] == alone.metrics["state"]
        assert float(rows[drop]["rsrp_dbm"]) == alone.metrics["rsrp_dbm"]
        states.add(alone.metrics["state"])
    if name in ("base", "ris-drawn", "isac-drawn"):
        assert states == {"LOS", "NLOS"}


def _file_by_file(out, path):
    """The ds, gini and rsrp rows of ``out``'s tensors, one file at a time,
    written to ``path`` as ``analysis.csv`` holds them."""
    report = analysis.MetricReport()
    for tensor in sorted(out.glob("drop*.cir")):     # drop order below 10^5
        cir = read_cir(tensor)
        powers = np.mean(np.abs(cir.coefficients) ** 2, axis=(0, 1, 2))
        report.add(int(tensor.name[4:9]),
                   ds_ns=analysis.rms_delay_spread(powers, cir.tap_delays_s) * 1e9,
                   gini=analysis.gini_index(powers), rsrp_dbm=analysis.rsrp(cir))
    analysis.export_metrics_csv(report, path)


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_analyze_matches_file_by_file(name, tmp_path):
    """30 drops, so analyze reads a full chunk and a partial one; base and
    the drawn RIS and ISAC configs mix tensor shapes within a chunk, and
    ISAC's ``.cir.sense`` files are not analyzed."""
    out = tmp_path / "out"
    run_campaign(replace(CONFIGS[name], drops=30, seed=20261019), out)
    shapes = {read_cir(path).shape for path in out.glob("drop*.cir")}
    if name in ("base", "ris-drawn", "isac-drawn"):
        assert len(shapes) == 2
    assert cli_main(["analyze", "--in", str(out), "--metrics", "ds,gini,rsrp"]) == 0
    _file_by_file(out, tmp_path / "want.csv")
    assert (out / "analysis.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


def _fail_at(bad_drop, real):
    def runner(d):
        if d.streams.drop == bad_drop:
            raise ArithmeticError(f"planted failure in drop {bad_drop}")
        return real(d)
    return runner


def test_ris_campaign_builds_its_panel_once(tmp_path, monkeypatch):
    """The panel, its directions and codebook are config constants: the
    slice's plan builds them, not each drop."""
    real = campaign.ris.build_panel
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(campaign.ris, "build_panel", counting)
    run_campaign(replace(CONFIGS["ris"], drops=30, seed=11), tmp_path / "out", jobs=1)
    assert len(calls) == 1


@pytest.mark.parametrize("jobs", [1, 3])
def test_isac_campaign_builds_its_geometry_once_per_slice(tmp_path, monkeypatch, jobs):
    """The targets, echo rows and echo loss are config constants: each
    slice's plan builds them, not each drop. Each process appends a line per
    build to one file, so the forked slices are counted too."""
    real = campaign.isac.build_geometry
    log = tmp_path / "builds"

    def counting(*args, **kwargs):
        with open(log, "a") as fh:
            fh.write("build\n")
        return real(*args, **kwargs)

    monkeypatch.setattr(campaign.isac, "build_geometry", counting)
    run_campaign(replace(CONFIGS["isac"], drops=30, seed=11), tmp_path / "out", jobs=jobs)
    assert log.read_text().count("build") == jobs


def test_failing_plan_names_its_drop(tmp_path, monkeypatch):
    """A RIS plan builds the panel and an ISAC plan its geometry. If that
    raises, the slice's drops run alone, and the first one is named."""
    def broken(*args):
        raise ValueError("planted plan failure")

    for name, module, builder in (("ris", campaign.ris, "build_panel"),
                                  ("isac", campaign.isac, "build_geometry")):
        with monkeypatch.context() as patch:
            patch.setattr(module, builder, broken)
            cfg = replace(CONFIGS[name], drops=3, seed=5)
            with pytest.raises(ValueError, match="planted plan failure") as info:
                run_campaign(cfg, tmp_path / name)
        if sys.version_info >= (3, 11):
            assert "drop 0 (seed 5) failed; run_drop(cfg, 0) replays it alone" \
                in info.value.__notes__, name


@pytest.mark.parametrize("jobs", [1, 3])
def test_failing_finish_names_its_drop(tmp_path, monkeypatch, jobs):
    monkeypatch.setitem(campaign._RUNNERS, "THZ",
                        _fail_at(17, campaign._RUNNERS["THZ"]))
    cfg = load_preset("thz", drops=30, seed=5)
    out = tmp_path / "out"
    with pytest.raises(ArithmeticError, match="planted failure") as info:
        run_campaign(cfg, out, jobs=jobs)
    if sys.version_info >= (3, 11):
        assert "drop 17 (seed 5) failed; run_drop(cfg, 17) replays it alone" \
            in info.value.__notes__
    assert not list(out.glob("*.tmp"))
    with pytest.raises(ArithmeticError, match="planted failure"):
        run_drop(cfg, 17)
    run_drop(cfg, 16)


def test_failing_block_reruns_its_drops_alone(tmp_path, monkeypatch):
    """A block that raises while staging runs its drops one at a time: the
    drops before the failing one are written, and the failing one is named."""
    real = campaign.generate_clusters

    def clusters(entry, lsps, dirs, state, velocity, f_hz, streams):
        if 17 in [s.drop for s in streams]:
            raise FloatingPointError("planted failure in drop 17")
        return real(entry, lsps, dirs, state, velocity, f_hz, streams)

    monkeypatch.setattr(campaign, "generate_clusters", clusters)
    cfg = load_preset("thz", drops=30, seed=5)
    out = tmp_path / "out"
    with pytest.raises(FloatingPointError) as info:
        run_campaign(cfg, out)
    if sys.version_info >= (3, 11):
        assert "drop 17 (seed 5) failed; run_drop(cfg, 17) replays it alone" \
            in info.value.__notes__
    assert sorted(p.name for p in out.glob("*.cir")) == \
        [f"drop{d:05d}.cir" for d in range(17)]
    assert not list(out.glob("*.tmp"))
    with pytest.raises(FloatingPointError):
        run_drop(cfg, 17)


# ---------------------------------------------------------------------------
# The traced run replaces module attributes; the program must keep calling
# through them.
# ---------------------------------------------------------------------------

def _targets():
    sys.path.insert(0, str(ROOT))
    try:
        from perfbench.tracing import TARGETS
    finally:
        sys.path.remove(str(ROOT))
    return TARGETS


def test_every_tracer_target_resolves():
    for module, attr, _span in _targets():
        assert callable(getattr(importlib.import_module(module), attr)), (module, attr)


def test_cli_calls_its_command_through_the_module_attribute(tmp_path, monkeypatch):
    """``main`` builds its parser once per process; a command replaced after
    that is still the one called."""
    import chansim6g.cli as cli
    out = tmp_path / "out"
    run_campaign(replace(CONFIGS["thz"], drops=2), out)
    assert cli_main(["analyze", "--in", str(out)]) == 0
    real, calls = cli._cmd_analyze, []

    def wrapped(args):
        calls.append(args.in_dir)
        return real(args)

    monkeypatch.setattr(cli, "_cmd_analyze", wrapped)
    assert cli_main(["analyze", "--in", str(out)]) == 0
    assert calls == [str(out)]


@pytest.mark.parametrize("name", ["thz", "isac", "sagin", "emimo", "ris", "base"])
def test_campaign_calls_run_drop_once_per_drop(name, tmp_path, monkeypatch):
    real = campaign.run_drop
    calls = []

    def counting(cfg, drop, *args, **kwargs):
        calls.append(drop)
        return real(cfg, drop, *args, **kwargs)

    monkeypatch.setattr(campaign, "run_drop", counting)
    base = CONFIGS["base"] if name == "base" else load_preset(name)
    cfg = replace(base, drops=30, seed=11)
    run_campaign(cfg, tmp_path / "out", jobs=1)
    assert calls == list(range(30))
