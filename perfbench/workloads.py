"""Workload definitions: which configs a run rotates through, at which
``jobs``, and how many drops one block holds.

The campaign seed of every block is derived from the workload seed given on
the command line, so the same seed gives the same inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# The BASE config: no preset covers the link-state draw (``link_state``
# null), MIMO synthesis (8x2 ULAs) or time evolution (moving UE, 4 samples).
BASE_CONFIG = {
    "scenario": "uma",
    "feature": "BASE",
    "center_freq_hz": 3.5e9,
    "bandwidth_hz": 20e6,
    "link_state": None,
    "bs_position": [0.0, 0.0, 25.0],
    "ue_position": [120.0, 60.0, 1.5],
    "bs_array": {"type": "ula", "n": 8, "spacing": "half_wavelength"},
    "ue_array": {"type": "ula", "n": 2, "spacing": "half_wavelength"},
    "ue_velocity": [3.0, 0.0, 0.0],
    "time_samples": 4,
    "drops": 1,
    "seed": 1,
}

LIGHT_CONFIGS = ("thz", "isac", "sagin", "base")


@dataclass(frozen=True)
class Workload:
    name: str
    configs: tuple          # preset names, or "base" for BASE_CONFIG
    jobs: int
    drops_per_block: int
    drop_calls: int         # direct run_drop calls per config per round
    # Host-probe parts whose time scales the figures: the parts that slow
    # down with the host as this workload's drops do (see README.md).
    probe_parts: tuple


WORKLOADS = {
    w.name: w for w in (
        Workload("light-serial", LIGHT_CONFIGS, jobs=1, drops_per_block=24,
                 drop_calls=4, probe_parts=("drop",)),
        Workload("heavy-serial", ("emimo", "ris"), jobs=1, drops_per_block=8,
                 drop_calls=2, probe_parts=("drop", "numpy")),
        # ris stays out: at jobs=2 its blocks swing 3x (OpenBLAS threads of
        # the forked workers fight over 2 cores), so no bound could hold it.
        Workload("light-jobs2", LIGHT_CONFIGS, jobs=2, drops_per_block=48,
                 drop_calls=4, probe_parts=("drop",)),
    )
}


def load_configs(workload: Workload) -> list:
    """Validated ``ScenarioConfig`` per config name, in rotation order."""
    from chansim6g.config import config_from_dict, load_preset
    return [config_from_dict(dict(BASE_CONFIG)) if name == "base"
            else load_preset(name) for name in workload.configs]


def _words(*values) -> list:
    """Non-negative entropy words; negative values wrap to 64 bits."""
    return [v & 0xFFFF_FFFF_FFFF_FFFF for v in values]


def block_seed(seed: int, round_index: int, config_index: int) -> int:
    """Campaign seed of one block, a pure function of the workload seed."""
    ss = np.random.SeedSequence(_words(seed, round_index, config_index))
    return int(ss.generate_state(1, dtype=np.uint32)[0])


def drop_indices(seed: int, round_index: int, config_index: int, count: int,
                 high: int = 100_000) -> list:
    """Drop indices for the direct ``run_drop`` calls of one round."""
    rng = np.random.default_rng(_words(seed, round_index, config_index, 1))
    return [int(d) for d in rng.integers(0, high, size=count)]
