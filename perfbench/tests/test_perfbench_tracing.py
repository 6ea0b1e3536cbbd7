"""Span arithmetic and the tracer's bookkeeping."""

import statistics

import pytest

from perfbench import metrics
from perfbench.tracing import (ID, NAME, Tracer, check_self_time_sums, overlap,
                               root_of, self_times)


def span(sid, parent, name, t0, t1, nbytes=0):
    return (sid, parent, name, t0, t1, nbytes)


# root [0, 100): a [10, 40) with a1 [15, 25); b [50, 90) with b1 [50, 60), b2 [70, 90)
NESTED = [
    span(1, None, "root", 0, 100),
    span(2, 1, "a", 10, 40),
    span(3, 2, "a1", 15, 25),
    span(4, 1, "b", 50, 90),
    span(5, 4, "b1", 50, 60),
    span(6, 4, "b2", 70, 90),
]


def test_self_times_of_nested_spans():
    assert self_times(NESTED) == {1: 30, 2: 20, 3: 10, 4: 10, 5: 10, 6: 20}


def test_self_times_sum_to_root():
    assert sum(self_times(NESTED).values()) == 100
    (root, name, duration, total, over), = check_self_time_sums(NESTED)
    assert (root, name, duration, total, over) == (1, "root", 100, 100, 0)


def test_parallel_children_are_counted_once_in_self_time():
    # two workers overlapping on [30, 50): the parent is idle only on
    # [0, 10) and [80, 100)
    spans = [span(1, None, "campaign", 0, 100),
             span(2, 1, "w1", 10, 50), span(3, 1, "w2", 30, 80)]
    assert self_times(spans)[1] == 30
    assert overlap(spans)[1] == 20
    (_, _, duration, total, over), = check_self_time_sums(spans)
    assert total == duration + over == 120


def test_roots_of_a_forest():
    spans = NESTED + [span(7, None, "other", 200, 210), span(8, 7, "x", 201, 202)]
    roots = root_of(spans)
    assert {sid: roots[sid] for sid in (3, 6, 8)} == {3: 1, 6: 1, 8: 7}


def test_tracer_records_nesting_and_sums_exactly():
    import types
    mod = types.ModuleType("fake")

    def leaf(n):
        return sum(range(n))

    def middle(n):
        return mod.leaf(n) + mod.leaf(n)

    def top(n):
        return mod.middle(n) + mod.leaf(n)

    mod.leaf, mod.middle, mod.top = leaf, middle, top
    tracer = Tracer("unused")
    for name in ("leaf", "middle", "top"):
        setattr(mod, name, tracer.wrap(getattr(mod, name), f"fake.{name}"))
    assert mod.top(1000) == 3 * sum(range(1000))
    names = sorted(s[NAME] for s in tracer.spans)
    assert names == ["fake.leaf"] * 3 + ["fake.middle", "fake.top"]
    top_span = next(s for s in tracer.spans if s[NAME] == "fake.top")
    (root, _, duration, total, over), = check_self_time_sums(tracer.spans)
    assert root == top_span[ID] and total == duration and over == 0
    assert tracer.stack == []


def test_install_and_uninstall_restore_the_program():
    from chansim6g import campaign, seeding
    before = (campaign.run_drop, seeding.child_rng)
    tracer = Tracer("unused")
    tracer.install()
    try:
        assert campaign.run_drop is not before[0]
        assert campaign.run_drop.__wrapped__ is before[0]
    finally:
        tracer.uninstall()
    assert (campaign.run_drop, seeding.child_rng) == before


def test_block_rate_takes_each_config_at_its_median():
    work = {"fast": 10, "slow": 10}
    seconds = {"fast": [0.1, 0.1, 5.0], "slow": [0.4, 0.3, 0.4]}
    # one 5 s outlier block does not move the figure: 20 / (0.1 + 0.4)
    assert metrics.block_rate(work, seconds) == pytest.approx(40.0)


def test_mean_of_medians_and_quartile_spread():
    assert metrics.mean_of_medians({"a": [1, 2, 9], "b": [4, 4, 100]}) == 3.0
    values = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    assert metrics.quartile_spread(values) == (q3 - q1) / med
