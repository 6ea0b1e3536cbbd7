#!/usr/bin/env python3
"""Regenerate src/chansim6g/data/scenarios.json.

Values are informed by the public 5G standard parameter tables (TR 38.901
style log-normal LSP statistics and cross-correlations) with band-specific
overrides for the shipped presets (THz cluster counts, satellite entries
keyed by elevation bucket). Every correlation matrix is checked for positive
semi-definiteness here, so the runtime loader never has to repair one.
"""

import json
from pathlib import Path

import numpy as np

ORDER = ("ds", "asa", "asd", "zsa", "zsd", "k", "sf")
OUT = Path(__file__).resolve().parents[1] / "src" / "chansim6g" / "data" / "scenarios.json"


def corr_matrix(pairs):
    m = np.eye(7)
    idx = {n: i for i, n in enumerate(ORDER)}
    for (a, b), v in pairs.items():
        m[idx[a], idx[b]] = v
        m[idx[b], idx[a]] = v
    # Shrink off-diagonals toward zero until PSD (rarely needed; standard
    # tables are near-PSD but rounding can push an eigenvalue negative).
    shrink = 1.0
    while np.linalg.eigvalsh(m).min() < 1e-6:
        shrink *= 0.97
        ms = np.eye(7) + shrink * (m - np.diag(np.diag(m)))
        if np.linalg.eigvalsh(ms).min() >= 1e-6:
            m = ms
            break
        m = ms
    assert np.linalg.eigvalsh(m).min() > 0, "correlation matrix not PSD"
    return [[round(float(v), 6) for v in row] for row in m]


UMI_LOS_CORR = corr_matrix({
    ("ds", "asa"): 0.8, ("ds", "asd"): 0.5, ("ds", "zsa"): 0.2,
    ("ds", "k"): -0.7, ("ds", "sf"): -0.4,
    ("asa", "asd"): 0.4, ("asa", "k"): -0.3, ("asa", "sf"): -0.4,
    ("asd", "zsa"): 0.3, ("asd", "zsd"): 0.5, ("asd", "k"): -0.2, ("asd", "sf"): -0.5,
    ("k", "sf"): 0.5,
})

UMI_NLOS_CORR = corr_matrix({
    ("ds", "asa"): 0.4, ("ds", "zsd"): -0.5, ("ds", "sf"): -0.7,
    ("asa", "zsa"): 0.2, ("asa", "sf"): -0.4,
    ("asd", "zsa"): 0.5, ("asd", "zsd"): 0.5,
})

INH_LOS_CORR = corr_matrix({
    ("ds", "asa"): 0.8, ("ds", "asd"): 0.6, ("ds", "zsa"): 0.2, ("ds", "zsd"): 0.1,
    ("ds", "k"): -0.5, ("ds", "sf"): -0.8,
    ("asa", "asd"): 0.4, ("asa", "zsa"): 0.5, ("asa", "sf"): -0.5,
    ("asd", "zsd"): 0.5, ("asd", "sf"): -0.4,
    ("zsa", "k"): 0.1,
    ("k", "sf"): 0.5,
})

INH_NLOS_CORR = corr_matrix({
    ("ds", "asa"): 0.4, ("ds", "asd"): 0.4, ("ds", "zsd"): -0.27, ("ds", "sf"): -0.5,
    ("asa", "zsa"): 0.3, ("asa", "sf"): -0.4,
    ("asd", "zsd"): 0.35,
})

UMA_LOS_CORR = corr_matrix({
    ("ds", "asa"): 0.8, ("ds", "asd"): 0.4, ("ds", "zsd"): -0.2,
    ("ds", "k"): -0.4, ("ds", "sf"): -0.4,
    ("asa", "zsa"): 0.4, ("asa", "k"): -0.2, ("asa", "sf"): -0.5,
    ("asd", "zsa"): -0.3, ("asd", "zsd"): 0.5, ("asd", "sf"): -0.5,
    ("k", "sf"): 0.0,
})

UMA_NLOS_CORR = corr_matrix({
    ("ds", "asa"): 0.6, ("ds", "asd"): 0.4, ("ds", "zsd"): -0.5, ("ds", "sf"): -0.4,
    ("asa", "zsa"): 0.0, ("asa", "sf"): 0.0,
    ("asd", "zsd"): 0.5, ("asd", "sf"): -0.6,
})

RMA_LOS_CORR = corr_matrix({
    ("ds", "asa"): 0.0, ("ds", "asd"): 0.0, ("ds", "k"): 0.0, ("ds", "sf"): -0.5,
    ("asa", "sf"): 0.0, ("asd", "sf"): 0.0, ("k", "sf"): 0.0,
})

RMA_NLOS_CORR = corr_matrix({
    ("ds", "asa"): 0.0, ("ds", "asd"): -0.4, ("ds", "sf"): -0.5,
    ("asa", "sf"): 0.0,
})

SAGIN_LOS_CORR = corr_matrix({("ds", "sf"): -0.4, ("k", "sf"): 0.3})
SAGIN_NLOS_CORR = corr_matrix({("ds", "sf"): -0.4})


def lg(mu, sigma):
    return {"mu": mu, "sigma": sigma}


def umi_entries():
    # Default band: sub-6 through mmWave. THz band carries the sparse preset
    # (fewer clusters, intra-cluster power concentration); its correlation
    # matrix reuses the closest standard band's values -- no measured THz
    # cross-correlations exist in the source tables.
    return [
        {
            "state": "los", "band_ghz": [0.5, 100.0],
            "n_clusters": 16, "rays_per_cluster": 20,
            "delay_scaling": 3.0, "per_cluster_shadow_db": 3.0,
            "ds_lg": {"mu": {"poly_lgf": [-7.1926, -0.2055]}, "sigma": 0.38},
            "asa_lg": {"mu": {"poly_lgf": [1.7123, -0.0682]}, "sigma": 0.30},
            "asd_lg": {"mu": {"poly_lgf": [1.2223, -0.0426]}, "sigma": 0.41},
            "zsa_lg": {"mu": {"poly_lgf": [0.7554, -0.0852]}, "sigma": 0.30},
            "zsd_lg": lg(0.40, 0.35),
            "k_db": {"mu": 9.0, "sigma": 5.0},
            "sf_db": {"sigma": 4.0},
            "xpr_db": {"mu": 9.0, "sigma": 3.0},
            "cluster_spread_deg": {"asa": 17.0, "asd": 3.0, "zsa": 7.0, "zsd": 1.0},
            "corr": UMI_LOS_CORR,
        },
        {
            "state": "nlos", "band_ghz": [0.5, 100.0],
            "n_clusters": 19, "rays_per_cluster": 20,
            "delay_scaling": 2.1, "per_cluster_shadow_db": 3.0,
            "ds_lg": {"mu": {"poly_lgf": [-6.89, -0.204]}, "sigma": 0.38},
            "asa_lg": {"mu": {"poly_lgf": [1.76, -0.067]}, "sigma": 0.31},
            "asd_lg": {"mu": {"poly_lgf": [1.46, -0.182]}, "sigma": 0.40},
            "zsa_lg": {"mu": {"poly_lgf": [0.94, -0.055]}, "sigma": 0.35},
            "zsd_lg": lg(0.30, 0.35),
            "k_db": {"mu": 0.0, "sigma": 0.0},
            "sf_db": {"sigma": 7.82},
            "xpr_db": {"mu": 8.0, "sigma": 3.0},
            "cluster_spread_deg": {"asa": 22.0, "asd": 10.0, "zsa": 7.0, "zsd": 1.0},
            "corr": UMI_NLOS_CORR,
        },
        {
            "state": "los", "band_ghz": [100.0, 350.0],
            "n_clusters": 8, "rays_per_cluster": 20,
            "delay_scaling": 2.5, "per_cluster_shadow_db": 3.0,
            "ds_lg": lg(-8.30, 0.25),
            "asa_lg": lg(1.30, 0.25),
            "asd_lg": lg(1.00, 0.30),
            "zsa_lg": lg(0.50, 0.25),
            "zsd_lg": lg(0.30, 0.30),
            "k_db": {"mu": 10.0, "sigma": 4.0},
            "sf_db": {"sigma": 3.0},
            "xpr_db": {"mu": 10.0, "sigma": 3.0},
            "cluster_spread_deg": {"asa": 8.0, "asd": 3.0, "zsa": 4.0, "zsd": 1.0},
            "intra_cluster_k_db": 17.98,
            "corr": UMI_LOS_CORR,
        },
        {
            "state": "nlos", "band_ghz": [100.0, 350.0],
            "n_clusters": 10, "rays_per_cluster": 20,
            "delay_scaling": 2.3, "per_cluster_shadow_db": 3.0,
            "ds_lg": lg(-8.10, 0.30),
            "asa_lg": lg(1.40, 0.30),
            "asd_lg": lg(1.10, 0.30),
            "zsa_lg": lg(0.60, 0.30),
            "zsd_lg": lg(0.30, 0.30),
            "k_db": {"mu": 0.0, "sigma": 0.0},
            "sf_db": {"sigma": 6.0},
            "xpr_db": {"mu": 9.0, "sigma": 3.0},
            "cluster_spread_deg": {"asa": 10.0, "asd": 5.0, "zsa": 5.0, "zsd": 1.0},
            "intra_cluster_k_db": 17.98,
            "corr": UMI_NLOS_CORR,
        },
    ]


def inh_entries():
    return [
        {
            "state": "los", "band_ghz": [0.5, 100.0],
            "n_clusters": 15, "rays_per_cluster": 20,
            "delay_scaling": 3.6, "per_cluster_shadow_db": 6.0,
            "ds_lg": {"mu": {"poly_lgf": [-7.69, -0.01]}, "sigma": 0.18},
            "asa_lg": {"mu": {"poly_lgf": [1.70, -0.13]}, "sigma": 0.25},
            "asd_lg": lg(1.60, 0.18),
            "zsa_lg": {"mu": {"poly_lgf": [1.30, -0.17]}, "sigma": 0.25},
            "zsd_lg": {"mu": {"poly_lgf": [1.22, -0.10]}, "sigma": 0.25},
            "k_db": {"mu": 7.0, "sigma": 4.0},
            "sf_db": {"sigma": 3.0},
            "xpr_db": {"mu": 11.0, "sigma": 4.0},
            "cluster_spread_deg": {"asa": 8.0, "asd": 5.0, "zsa": 9.0, "zsd": 1.5},
            "corr": INH_LOS_CORR,
        },
        {
            "state": "nlos", "band_ghz": [0.5, 100.0],
            "n_clusters": 19, "rays_per_cluster": 20,
            "delay_scaling": 3.0, "per_cluster_shadow_db": 3.0,
            "ds_lg": {"mu": {"poly_lgf": [-7.26, -0.20]}, "sigma": 0.10},
            "asa_lg": {"mu": {"poly_lgf": [1.76, -0.11]}, "sigma": 0.20},
            "asd_lg": lg(1.62, 0.25),
            "zsa_lg": {"mu": {"poly_lgf": [1.25, -0.15]}, "sigma": 0.25},
            "zsd_lg": {"mu": {"poly_lgf": [1.14, -0.10]}, "sigma": 0.25},
            "k_db": {"mu": 0.0, "sigma": 0.0},
            "sf_db": {"sigma": 8.03},
            "xpr_db": {"mu": 10.0, "sigma": 4.0},
            "cluster_spread_deg": {"asa": 11.0, "asd": 5.0, "zsa": 9.0, "zsd": 1.5},
            "corr": INH_NLOS_CORR,
        },
    ]


def uma_entries():
    return [
        {
            "state": "los", "band_ghz": [0.5, 100.0],
            "n_clusters": 12, "rays_per_cluster": 20,
            "delay_scaling": 2.5, "per_cluster_shadow_db": 3.0,
            "ds_lg": {"mu": {"poly_lgf": [-6.955, -0.0963]}, "sigma": 0.66},
            "asa_lg": lg(1.81, 0.20),
            "asd_lg": {"mu": {"poly_lgf": [1.06, 0.1114]}, "sigma": 0.28},
            "zsa_lg": lg(0.95, 0.16),
            "zsd_lg": lg(0.50, 0.40),
            "k_db": {"mu": 9.0, "sigma": 3.5},
            "sf_db": {"sigma": 4.0},
            "xpr_db": {"mu": 8.0, "sigma": 4.0},
            "cluster_spread_deg": {"asa": 11.0, "asd": 5.0, "zsa": 7.0, "zsd": 1.0},
            "corr": UMA_LOS_CORR,
        },
        {
            "state": "nlos", "band_ghz": [0.5, 100.0],
            "n_clusters": 20, "rays_per_cluster": 20,
            "delay_scaling": 2.3, "per_cluster_shadow_db": 3.0,
            "ds_lg": {"mu": {"poly_lgf": [-6.28, -0.204]}, "sigma": 0.39},
            "asa_lg": {"mu": {"poly_lgf": [2.08, -0.27]}, "sigma": 0.11},
            "asd_lg": {"mu": {"poly_lgf": [1.50, -0.1144]}, "sigma": 0.28},
            "zsa_lg": {"mu": {"poly_lgf": [1.512, -0.3236]}, "sigma": 0.16},
            "zsd_lg": lg(0.60, 0.49),
            "k_db": {"mu": 0.0, "sigma": 0.0},
            "sf_db": {"sigma": 6.0},
            "xpr_db": {"mu": 7.0, "sigma": 3.0},
            "cluster_spread_deg": {"asa": 15.0, "asd": 2.0, "zsa": 7.0, "zsd": 1.0},
            "corr": UMA_NLOS_CORR,
        },
    ]


def rma_entries():
    return [
        {
            "state": "los", "band_ghz": [0.5, 30.0],
            "n_clusters": 11, "rays_per_cluster": 20,
            "delay_scaling": 3.8, "per_cluster_shadow_db": 3.0,
            "ds_lg": lg(-7.49, 0.55),
            "asa_lg": lg(1.52, 0.24),
            "asd_lg": lg(0.90, 0.38),
            "zsa_lg": lg(0.47, 0.40),
            "zsd_lg": lg(0.30, 0.40),
            "k_db": {"mu": 7.0, "sigma": 4.0},
            "sf_db": {"sigma": 4.0},
            "xpr_db": {"mu": 12.0, "sigma": 4.0},
            "cluster_spread_deg": {"asa": 3.0, "asd": 2.0, "zsa": 3.0, "zsd": 1.0},
            "corr": RMA_LOS_CORR,
        },
        {
            "state": "nlos", "band_ghz": [0.5, 30.0],
            "n_clusters": 10, "rays_per_cluster": 20,
            "delay_scaling": 1.7, "per_cluster_shadow_db": 3.0,
            "ds_lg": lg(-7.43, 0.48),
            "asa_lg": lg(1.52, 0.13),
            "asd_lg": lg(0.95, 0.45),
            "zsa_lg": lg(0.58, 0.37),
            "zsd_lg": lg(0.40, 0.40),
            "k_db": {"mu": 0.0, "sigma": 0.0},
            "sf_db": {"sigma": 8.0},
            "xpr_db": {"mu": 7.0, "sigma": 3.0},
            "cluster_spread_deg": {"asa": 3.0, "asd": 2.0, "zsa": 3.0, "zsd": 1.0},
            "corr": RMA_NLOS_CORR,
        },
    ]


def sagin_entries():
    # Non-terrestrial entries are keyed by (band, elevation bucket). Fast
    # fading statistics vary smoothly with elevation: higher links see less
    # local clutter, so the K-factor grows and spreads shrink.
    entries = []
    for band, f_lo, f_hi, ds0 in (("s", 1.0, 4.0, -7.40), ("ka", 20.0, 40.0, -7.55)):
        for elev in range(10, 100, 10):
            t = elev / 90.0
            entries.append({
                "state": "los", "band_ghz": [f_lo, f_hi], "elevation_deg": elev,
                "n_clusters": 4, "rays_per_cluster": 20,
                "delay_scaling": 2.5, "per_cluster_shadow_db": 3.0,
                "ds_lg": lg(round(ds0 - 0.45 * t, 4), 0.35),
                "asa_lg": lg(0.90, 0.30),
                "asd_lg": lg(-1.80, 0.20),
                "zsa_lg": lg(0.50, 0.30),
                "zsd_lg": lg(-2.00, 0.20),
                "k_db": {"mu": round(2.0 + 10.0 * t, 3), "sigma": 3.0},
                "sf_db": {"sigma": round(4.0 - 2.5 * t, 3)},
                "xpr_db": {"mu": 8.0, "sigma": 4.0},
                "cluster_spread_deg": {"asa": 11.0, "asd": 0.05, "zsa": 7.0, "zsd": 0.05},
                "clutter_loss_db": 0.0,
                "corr": SAGIN_LOS_CORR,
            })
            entries.append({
                "state": "nlos", "band_ghz": [f_lo, f_hi], "elevation_deg": elev,
                "n_clusters": 5, "rays_per_cluster": 20,
                "delay_scaling": 2.3, "per_cluster_shadow_db": 3.0,
                "ds_lg": lg(round(ds0 + 0.15 - 0.35 * t, 4), 0.40),
                "asa_lg": lg(1.00, 0.30),
                "asd_lg": lg(-1.70, 0.20),
                "zsa_lg": lg(0.60, 0.30),
                "zsd_lg": lg(-1.90, 0.20),
                "k_db": {"mu": 0.0, "sigma": 0.0},
                "sf_db": {"sigma": 6.0},
                "xpr_db": {"mu": 7.0, "sigma": 3.0},
                "cluster_spread_deg": {"asa": 15.0, "asd": 0.05, "zsa": 7.0, "zsd": 0.05},
                "clutter_loss_db": round(35.0 - 15.0 * t + (4.0 if band == "ka" else 0.0), 3),
                "corr": SAGIN_NLOS_CORR,
            })
    return entries


def main():
    asset = {
        "version": 1,
        "notes": ("Scenario LSP tables. Values follow the public 5G standard "
                  "structure with band-specific overrides for the shipped "
                  "presets; THz-band cross-correlation matrices reuse the "
                  "closest standard band (no measured THz correlations "
                  "available). Regenerate with scripts/build_scenario_asset.py."),
        "scenarios": {
            "umi": {
                "los_probability": {"family": "umi"},
                "pathloss": {"model": "CI",
                             "los": {"alpha": 2.0},
                             "nlos": {"alpha": 3.2}},
                "entries": umi_entries(),
            },
            "inh_office": {
                "los_probability": {"family": "inh_office"},
                "pathloss": {"model": "CI",
                             "los": {"alpha": 1.73},
                             "nlos": {"alpha": 3.83}},
                "entries": inh_entries(),
            },
            "uma": {
                "los_probability": {"family": "uma"},
                "pathloss": {"model": "CI",
                             "los": {"alpha": 2.0},
                             "nlos": {"alpha": 3.5}},
                "entries": uma_entries(),
            },
            "rma": {
                "los_probability": {"family": "rma"},
                "pathloss": {"model": "CI",
                             "los": {"alpha": 2.2},
                             "nlos": {"alpha": 3.0}},
                "entries": rma_entries(),
            },
            "dense_urban": {"entries": sagin_entries()},
        },
    }
    OUT.parent.mkdir(parents=True, exist_ok=True)
    OUT.write_text(json.dumps(asset, indent=1) + "\n")
    print(f"wrote {OUT} ({OUT.stat().st_size} bytes)")


if __name__ == "__main__":
    main()
