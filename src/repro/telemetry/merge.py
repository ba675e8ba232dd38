"""Merge telemetry registry snapshots into one fleet-level view.

Each fleet guest owns a private :class:`~repro.telemetry.core.Telemetry`
registry; workers ship its :func:`~repro.telemetry.export.snapshot`
dict (picklable) back to the coordinator, which folds them together:

* counters and labelled counters add;
* histograms add bucket-wise (buckets are keyed by upper bound, so
  registries that populated different buckets merge losslessly), with
  ``count``/``total`` summed, ``min``/``max`` taken across sources and
  ``mean`` recomputed from the merged sums;
* journal loss accounting (``written`` / ``dropped``) adds.

The merge is associative and commutative: merging two registries
equals one registry that observed both streams.  Guest records are not
merged here -- they stay in each guest's span journal.
"""

from __future__ import annotations

from typing import Any, Dict, Sequence


def _merge_counters(target: Dict[str, int], source: Dict[str, int]) -> None:
    for name, value in source.items():
        target[name] = target.get(name, 0) + value


def _merge_labelled(
    target: Dict[str, Dict[str, int]], source: Dict[str, Dict[str, int]]
) -> None:
    for name, values in source.items():
        slot = target.setdefault(name, {})
        for label, value in values.items():
            slot[label] = slot.get(label, 0) + value


def _merge_histogram(target: Dict[str, Any], source: Dict[str, Any]) -> None:
    target["count"] += source["count"]
    target["total"] += source["total"]
    for bound in ("min", "max"):
        ours, theirs = target[bound], source[bound]
        if theirs is not None and (
            ours is None or (theirs < ours if bound == "min" else theirs > ours)
        ):
            target[bound] = theirs
    buckets = dict(tuple(pair) for pair in target["buckets"])
    for upper, count in source["buckets"]:
        buckets[upper] = buckets.get(upper, 0) + count
    target["buckets"] = sorted(buckets.items())
    target["mean"] = target["total"] / target["count"] if target["count"] else 0.0


def _copy_histogram(source: Dict[str, Any]) -> Dict[str, Any]:
    data = dict(source)
    data["buckets"] = [tuple(pair) for pair in source["buckets"]]
    return data


def empty_merge() -> Dict[str, Any]:
    """A zero-source accumulator for :func:`merge_into`."""
    return {
        "counters": {},
        "labelled_counters": {},
        "histograms": {},
        "journal": {"written": 0, "dropped": 0},
        "sources": 0,
    }


def merge_into(
    accumulator: Dict[str, Any], snap: Dict[str, Any]
) -> Dict[str, Any]:
    """Fold one more registry snapshot into ``accumulator`` in place.

    The incremental counterpart to :func:`merge_snapshots`, for
    long-lived consumers (the serve daemon) that cannot afford to keep
    every source snapshot alive for a batch merge.
    """
    _merge_counters(accumulator["counters"], snap.get("counters", {}))
    _merge_labelled(
        accumulator["labelled_counters"], snap.get("labelled_counters", {})
    )
    for name, hist in snap.get("histograms", {}).items():
        if name in accumulator["histograms"]:
            _merge_histogram(accumulator["histograms"][name], hist)
        else:
            accumulator["histograms"][name] = _copy_histogram(hist)
    journal = snap.get("journal")
    if journal:
        accumulator["journal"]["written"] += journal.get("written", 0)
        accumulator["journal"]["dropped"] += journal.get("dropped", 0)
    accumulator["sources"] += 1
    return accumulator


def merge_snapshots(snapshots: Sequence[Dict[str, Any]]) -> Dict[str, Any]:
    """Fold registry snapshot dicts into one fleet-level snapshot."""
    merged = empty_merge()
    for snap in snapshots:
        merge_into(merged, snap)
    return merged
