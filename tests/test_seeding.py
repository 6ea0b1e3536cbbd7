"""child_rng builds each generator from the assembled entropy words; it
must be the generator of the documented SeedSequence."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chansim6g.seeding import STREAM_IDS, DropStreams, child_rng


@settings(max_examples=300, deadline=None)
@given(seed=st.one_of(st.integers(0, 2 ** 32 - 1), st.integers(0, 2 ** 130)),
       drop=st.one_of(st.integers(0, 100_000), st.integers(0, 2 ** 70)),
       stream=st.sampled_from(sorted(STREAM_IDS)), step=st.integers(0, 2 ** 33))
def test_child_rng_is_the_spawn_key_seed_sequence(seed, drop, stream, step):
    want = np.random.default_rng(np.random.SeedSequence(
        entropy=seed, spawn_key=(drop, STREAM_IDS[stream], step)))
    got = child_rng(seed, drop, stream, step)
    assert got.bit_generator.state == want.bit_generator.state
    assert got.integers(0, 2 ** 63, size=4).tolist() == \
        want.integers(0, 2 ** 63, size=4).tolist()


def test_streams_are_fresh_and_checked():
    streams = DropStreams(7, 3)
    assert streams.get("angles").normal(size=3).tolist() == \
        streams.get("angles").normal(size=3).tolist()
    with pytest.raises(KeyError):
        child_rng(7, 3, "no_such_stream")
    for bad in ((-1, 0), (0, -1)):
        with pytest.raises(ValueError):
            child_rng(*bad, "lsp")
