"""Telemetry merge: two registries merged == one observing both streams."""

import pytest

from repro.telemetry import Telemetry, merge_snapshots, snapshot


def _observe(telemetry, stream):
    """Replay a stream of (kind, name, value[, label]) observations."""
    for op in stream:
        if op[0] == "count":
            telemetry.counter(op[1]).inc(op[2])
        elif op[0] == "label":
            telemetry.labelled_counter(op[1]).inc(op[3], op[2])
        elif op[0] == "hist":
            telemetry.histogram(op[1]).observe(op[2])


STREAM_A = [
    ("count", "hv.exits", 7),
    ("count", "switch.switches", 3),
    ("label", "syscalls", 5, "read"),
    ("label", "syscalls", 2, "write"),
    ("hist", "latency", 0),
    ("hist", "latency", 3),
    ("hist", "latency", 900),
]
STREAM_B = [
    ("count", "hv.exits", 11),
    ("count", "recoveries", 1),
    ("label", "syscalls", 4, "read"),
    ("label", "syscalls", 9, "open"),
    ("hist", "latency", 5),
    ("hist", "latency", 70_000),
    ("hist", "other", 12),
]


def test_merge_equals_single_registry_observing_both_streams():
    left, right, both = Telemetry(), Telemetry(), Telemetry()
    _observe(left, STREAM_A)
    _observe(right, STREAM_B)
    _observe(both, STREAM_A)
    _observe(both, STREAM_B)

    merged = merge_snapshots([snapshot(left), snapshot(right)])
    reference = snapshot(both)

    assert merged["counters"] == reference["counters"]
    assert merged["labelled_counters"] == reference["labelled_counters"]
    for name, ref_hist in reference["histograms"].items():
        got = merged["histograms"][name]
        assert got["count"] == ref_hist["count"]
        assert got["total"] == ref_hist["total"]
        assert got["min"] == ref_hist["min"]
        assert got["max"] == ref_hist["max"]
        assert got["mean"] == pytest.approx(ref_hist["mean"])
        assert [list(b) for b in got["buckets"]] == [
            list(b) for b in ref_hist["buckets"]
        ]


def test_merge_is_order_insensitive():
    left, right = Telemetry(), Telemetry()
    _observe(left, STREAM_A)
    _observe(right, STREAM_B)
    ab = merge_snapshots([snapshot(left), snapshot(right)])
    ba = merge_snapshots([snapshot(right), snapshot(left)])
    assert ab["counters"] == ba["counters"]
    assert ab["labelled_counters"] == ba["labelled_counters"]
    assert {
        n: (h["count"], h["total"], h["min"], h["max"])
        for n, h in ab["histograms"].items()
    } == {
        n: (h["count"], h["total"], h["min"], h["max"])
        for n, h in ba["histograms"].items()
    }


def test_merge_single_snapshot_is_identity_on_instruments():
    telemetry = Telemetry()
    _observe(telemetry, STREAM_A)
    snap = snapshot(telemetry)
    merged = merge_snapshots([snap])
    assert merged["counters"] == snap["counters"]
    assert merged["labelled_counters"] == snap["labelled_counters"]
    assert merged["histograms"]["latency"]["count"] == 3


def test_merge_of_empty_list_is_empty():
    merged = merge_snapshots([])
    assert merged["counters"] == {}
    assert merged["sources"] == 0


# ---------------------------------------------------------------------------
# incremental merge (the serve daemon's lifetime accumulator)
# ---------------------------------------------------------------------------


def test_merge_into_equals_batch_merge():
    from repro.telemetry import empty_merge, merge_into

    left, right = Telemetry(), Telemetry()
    _observe(left, STREAM_A)
    _observe(right, STREAM_B)
    snaps = [snapshot(left), snapshot(right)]

    batch = merge_snapshots(snaps)
    incremental = empty_merge()
    merge_into(incremental, snaps[0])
    merge_into(incremental, snaps[1])

    assert incremental["counters"] == batch["counters"]
    assert incremental["labelled_counters"] == batch["labelled_counters"]
    assert incremental["journal"] == batch["journal"]
    assert incremental["sources"] == batch["sources"]
    for name, ref in batch["histograms"].items():
        got = incremental["histograms"][name]
        for key in ("count", "total", "min", "max"):
            assert got[key] == ref[key]
