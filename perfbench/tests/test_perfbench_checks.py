"""The independent parser and every output check, each shown to fail on a
corrupted copy of a real campaign directory."""

import contextlib
import csv
import io
import json
import math
import shutil
import struct
from dataclasses import replace

import numpy as np
import pytest

from perfbench import checks

DROPS = 3


def _campaign(tmp_path_factory, preset, drops=DROPS, **overrides):
    from chansim6g import cli, load_preset, run_campaign
    cfg = load_preset(preset, drops=drops, seed=11, **overrides)
    out = tmp_path_factory.mktemp(preset)
    run_campaign(cfg, out, jobs=1)
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["analyze", "--in", str(out), "--metrics", "ds,gini,rsrp,xcorr"]) == 0
    return cfg, out


@pytest.fixture(scope="module")
def thz(tmp_path_factory):
    return _campaign(tmp_path_factory, "thz")


@pytest.fixture(scope="module")
def sagin(tmp_path_factory):
    return _campaign(tmp_path_factory, "sagin")


@pytest.fixture(scope="module")
def ris(tmp_path_factory):
    return _campaign(tmp_path_factory, "ris", drops=2)


@pytest.fixture(scope="module")
def isac(tmp_path_factory):
    return _campaign(tmp_path_factory, "isac")


def copy(src, tmp_path):
    dst = tmp_path / "copy"
    shutil.copytree(src, dst)
    return dst


def failing(cfg, out):
    return {r.name for r in checks.check_campaign(out, cfg) if not r.ok}


def edit_csv(path, fn):
    with path.open(newline="") as fh:
        rows = list(csv.reader(fh))
    rows = fn(rows)
    with path.open("w", newline="") as fh:
        csv.writer(fh).writerows(rows)


def swap_columns(a, b):
    def fn(rows):
        i, j = rows[0].index(a), rows[0].index(b)
        for row in rows[1:]:
            row[i], row[j] = row[j], row[i]
        return rows
    return fn


def set_cell(column, value, row=1):
    def fn(rows):
        rows[row][rows[0].index(column)] = value
        return rows
    return fn


# -- parser ------------------------------------------------------------------

def hand_built(path, dims, values, extra=b""):
    header = {"dims": list(dims), "tap_delays_s": [0.0, 1e-8][:dims[3]],
              "sample_times_s": [0.0] * dims[0], "config_hash": "abc", "seed": 5}
    payload = b"".join(struct.pack("<dd", v.real, v.imag) for v in values)
    path.write_bytes(json.dumps(header).encode() + b"\n" + payload + extra)
    return path


def test_parser_reads_a_hand_built_file(tmp_path):
    values = [1 + 2j, -3.5 + 0j, 0.25 - 1j, 7 + 7j]       # (t, u, s, n) = (1, 2, 1, 2)
    f = checks.parse_cir(hand_built(tmp_path / "x.cir", (1, 2, 1, 2), values))
    assert f.header["seed"] == 5 and f.header["config_hash"] == "abc"
    assert f.coefficients.shape == (1, 2, 1, 2)
    assert f.coefficients[0, 0, 0].tolist() == [1 + 2j, -3.5 + 0j]
    assert f.coefficients[0, 1, 0].tolist() == [0.25 - 1j, 7 + 7j]


@pytest.mark.parametrize("extra,count", [(b"\x00", 4), (b"", 3)])
def test_parser_rejects_a_wrong_size(tmp_path, extra, count):
    values = [1 + 0j] * count
    path = hand_built(tmp_path / "x.cir", (1, 2, 1, 2), values, extra)
    with pytest.raises(checks.CheckFailure, match="bytes"):
        checks.parse_cir(path)


def test_parser_agrees_with_read_cir(thz):
    from chansim6g import read_cir
    cfg, out = thz
    path = out / "drop00001.cir"
    assert np.array_equal(checks.parse_cir(path).coefficients, read_cir(path).coefficients)


def test_gini_forms_and_closed_forms():
    from chansim6g.analysis import gini_index
    x = np.random.default_rng(3).random(17)
    assert checks.gini_mad(x) == pytest.approx(gini_index(x), abs=1e-14)
    assert checks.gini_mad(np.array([0.0, 0.0, 0.0, 1.0])) == pytest.approx(0.75)
    assert checks.slant_range_m(600e3, 90.0) == pytest.approx(600e3)
    assert checks.friis_db(1.0, checks.SPEED_OF_LIGHT / (4 * math.pi)) == pytest.approx(0.0)


# -- the checks pass on real output ------------------------------------------

@pytest.mark.parametrize("name", ["thz", "sagin", "ris", "isac"])
def test_checks_pass_on_program_output(name, request):
    cfg, out = request.getfixturevalue(name)
    results = checks.check_campaign(out, cfg)
    assert [r.error for r in results if not r.ok] == []
    assert len(results) == 6 + len(checks._FEATURE.get(cfg.feature, ()))


# -- and fail on corrupted copies ---------------------------------------------

def test_flipped_payload_byte_fails_value_checks(thz, tmp_path):
    cfg, out = thz
    bad = copy(out, tmp_path)
    path = bad / "drop00002.cir"
    data = bytearray(path.read_bytes())
    data[data.index(b"\n") + 8] ^= 0x01        # low exponent bit of the first imag part
    path.write_bytes(bytes(data))
    assert {"generation_rsrp", "analysis_values"} <= failing(cfg, bad)


def test_truncated_tensor_fails_format(thz, tmp_path):
    cfg, out = thz
    bad = copy(out, tmp_path)
    path = bad / "drop00000.cir"
    path.write_bytes(path.read_bytes()[:-1])
    assert "cir_format" in failing(cfg, bad)


def test_missing_tensor_fails_file_count(thz, tmp_path):
    cfg, out = thz
    bad = copy(out, tmp_path)
    (bad / "drop00001.cir").unlink()
    assert "files" in failing(cfg, bad)


def test_header_seed_mismatch_fails_format(thz, tmp_path):
    cfg, out = thz
    assert "cir_format" in failing(replace(cfg, seed=cfg.seed + 1), out)


@pytest.mark.parametrize("csv_name,check", [("metrics.csv", "metrics_rows"),
                                            ("analysis.csv", "analysis_rows")])
def test_dropped_csv_row_fails_row_count(thz, tmp_path, csv_name, check):
    cfg, out = thz
    bad = copy(out, tmp_path)
    edit_csv(bad / csv_name, lambda rows: rows[:-1])
    assert check in failing(cfg, bad)


@pytest.mark.parametrize("a,b", [("ds_ns", "rsrp_dbm"), ("rsrp_dbm", "gini"),
                                 ("ds_ns", "gini")])
def test_swapped_analysis_columns_fail(thz, tmp_path, a, b):
    cfg, out = thz
    bad = copy(out, tmp_path)
    edit_csv(bad / "analysis.csv", swap_columns(a, b))
    assert "analysis_values" in failing(cfg, bad)


def test_swapped_generation_columns_fail(thz, tmp_path):
    cfg, out = thz
    bad = copy(out, tmp_path)
    edit_csv(bad / "metrics.csv", swap_columns("rsrp_dbm", "ds_ns"))
    assert "generation_rsrp" in failing(cfg, bad)


def test_sagin_slant_fails_on_swapped_columns(sagin, tmp_path):
    cfg, out = sagin
    bad = copy(out, tmp_path)
    edit_csv(bad / "metrics.csv", swap_columns("slant_km", "pl_db"))
    assert "sagin_slant" in failing(cfg, bad)


def test_sagin_pl_fails_when_one_drop_moves(sagin, tmp_path):
    cfg, out = sagin
    bad = copy(out, tmp_path)

    def bump(rows):
        i = rows[0].index("pl_db")
        rows[2][i] = repr(float(rows[2][i]) + 0.5)
        return rows
    edit_csv(bad / "metrics.csv", bump)
    assert failing(cfg, bad) == {"sagin_pl"}


def test_ris_gap_fails_on_swapped_snr_columns(ris, tmp_path):
    cfg, out = ris
    bad = copy(out, tmp_path)
    edit_csv(bad / "metrics.csv", swap_columns("snr_ideal_db", "snr_nonideal_db"))
    assert failing(cfg, bad) == {"ris_gap"}


def test_isac_sharing_fails_outside_unit_interval(isac, tmp_path):
    cfg, out = isac
    bad = copy(out, tmp_path)
    edit_csv(bad / "metrics.csv", set_cell("sd_comm", "1.5"))
    assert failing(cfg, bad) == {"isac_sharing"}


def test_isac_missing_sense_file_fails_file_count(isac, tmp_path):
    cfg, out = isac
    bad = copy(out, tmp_path)
    (bad / "drop00002.cir.sense").unlink()
    assert "files" in failing(cfg, bad)


def test_serial_bytes_passes_and_fails_on_a_flipped_byte(thz, tmp_path):
    cfg, out = thz
    scratch = tmp_path / "scratch"
    scratch.mkdir()
    assert checks.check_serial_bytes(out, cfg, 1, scratch).ok
    bad = copy(out, tmp_path)
    path = bad / "drop00001.cir"
    data = bytearray(path.read_bytes())
    data[-1] ^= 0x80
    path.write_bytes(bytes(data))
    assert not checks.check_serial_bytes(bad, cfg, 1, scratch).ok
    assert list(scratch.iterdir()) == []
