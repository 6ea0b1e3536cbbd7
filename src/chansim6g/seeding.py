"""Deterministic RNG stream management.

One 64-bit root seed per campaign. Every random draw happens on a child
generator keyed by (drop index, named module stream, step), derived with
``numpy.random.SeedSequence`` spawn keys. A module's draws are therefore
insulated from changes in any other module's draw counts, and per-drop
results are independent of execution order and parallelism degree.
"""

from __future__ import annotations

import numpy as np

# Stable integer ids of the streams a drop draws. An id is never renumbered
# or reused, even after its stream is gone: either would break seed
# reproducibility across versions.
STREAM_IDS = {
    "link_state": 0,
    "lsp": 2,
    "delays": 3,
    "powers": 4,
    "angles": 5,
    "xpr": 6,
    "sns": 9,
    "isac_shared": 10,
    "isac_comm": 11,
    "isac_sense": 12,
}


def _words(x: int) -> list:
    """A non-negative integer as little-endian 32-bit words, the way
    ``SeedSequence`` reads an integer."""
    x = int(x)
    if x < 0:
        raise ValueError(f"expected a non-negative integer, got {x}")
    words = [x & 0xFFFF_FFFF]
    while x := x >> 32:
        words.append(x & 0xFFFF_FFFF)
    return words


def child_rng(seed: int, drop: int, stream: str, step: int = 0) -> np.random.Generator:
    """Generator for one (drop, stream, step) cell of the campaign: the one
    of ``SeedSequence(entropy=seed, spawn_key=(drop, stream id, step))``.

    That sequence hashes the seed's words, zero-padded to its pool size of
    four, followed by the spawn key's words. It is built here from those
    words as one uint32 array, which gives the same pool without its
    per-integer conversion.
    """
    if stream not in STREAM_IDS:
        raise KeyError(f"unknown rng stream {stream!r}; known: {sorted(STREAM_IDS)}")
    run = _words(seed)
    words = run + [0] * (4 - len(run)) + _words(drop) + [STREAM_IDS[stream]] \
        + _words(step)
    return np.random.default_rng(np.random.SeedSequence(np.array(words, dtype=np.uint32)))


class DropStreams:
    """All named streams of a single drop, lazily constructed."""

    def __init__(self, seed: int, drop: int, step: int = 0):
        self.seed = int(seed)
        self.drop = int(drop)
        self.step = int(step)

    def get(self, stream: str) -> np.random.Generator:
        return child_rng(self.seed, self.drop, stream, self.step)

    def shifted(self, step: int) -> "DropStreams":
        """Same drop, different sub-step (e.g. the two legs of a cascade)."""
        return DropStreams(self.seed, self.drop, step)
