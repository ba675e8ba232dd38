#!/usr/bin/env python
"""Record switch-latency results (``BENCH_switching.json``).

Runs the Figure 6 (UnixBench) and Figure 7 (httperf) workloads twice
with recording off -- once interpreted (``REPRO_JIT=0``) and once under
block translation (the default) -- while sampling host wall time of the
three operations the caching layer targets:

* **view build** (``ViewBuilder.build``): CoW sharing should make this
  O(profiled bytes) instead of O(kernel size);
* **view switch** (``ViewSwitcher.switch_kernel_view``): delta installs
  plus selective invalidation should make this a near-pointer-flip;
* **recovery trap** (``RecoveryEngine.handle``): prologue memoization
  and CoW materialization bound the per-trap cost.

Two invariants are enforced:

* the host-side machinery must be *invisible* to the guest: every
  virtual-cycle score must be **bit-identical between the translated
  and interpreted passes** (checked at any scale), and identical to the
  recorded ``BENCH_telemetry.json`` baseline (checked when the scale
  matches the recording);
* block translation must actually pay for itself: the translated pass
  must finish the suite at least ``MIN_JIT_SPEEDUP`` (2x) faster than
  the interpreted pass, gated at the recorded scale (the CI smoke jobs
  run at ``REPRO_BENCH_SCALE=1`` purely as regression canaries).

Usage::

    PYTHONPATH=src python benchmarks/record_switch_latency.py
"""

from __future__ import annotations

import json
import os
import statistics
import sys
import time
from pathlib import Path

#: Required wall-clock speedup of the full machinery (translated pass)
#: over the recorded pre-caching baseline suite.
MIN_SPEEDUP = 1.5
#: Required wall-clock speedup of the translated pass over the
#: interpreted pass of the same suite (the JIT's tentpole gate).
MIN_JIT_SPEEDUP = 2.0


def _bench_scale() -> int:
    return int(os.environ.get("REPRO_BENCH_SCALE", "2"))


def _httperf_rates() -> list:
    raw = os.environ.get("REPRO_FIG7_RATES", "10,40")
    return [int(r) for r in raw.split(",") if r]


def _instrument():
    """Patch the three hot operations to sample host wall time."""
    from repro.core.recovery import RecoveryEngine
    from repro.core.switching import ViewSwitcher
    from repro.core.view_manager import ViewBuilder

    samples = {"view_build": [], "view_switch": [], "recovery": []}
    originals = (
        ViewBuilder.build,
        ViewSwitcher.switch_kernel_view,
        RecoveryEngine.handle,
    )

    def timed(bucket, fn):
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            out = fn(*args, **kwargs)
            samples[bucket].append(time.perf_counter() - t0)
            return out

        return wrapper

    ViewBuilder.build = timed("view_build", originals[0])
    ViewSwitcher.switch_kernel_view = timed("view_switch", originals[1])
    RecoveryEngine.handle = timed("recovery", originals[2])

    def restore():
        ViewBuilder.build = originals[0]
        ViewSwitcher.switch_kernel_view = originals[1]
        RecoveryEngine.handle = originals[2]

    return samples, restore


def _run_suite(scale: int, jit: bool) -> dict:
    os.environ.pop("REPRO_JOURNAL_DIR", None)
    os.environ["REPRO_JIT"] = "1" if jit else "0"
    from repro.analysis.similarity import profile_applications
    from repro.bench.httperf import run_httperf_sweep
    from repro.bench.unixbench import run_unixbench

    samples, restore = _instrument()
    try:
        started = time.monotonic()
        configs = profile_applications(scale=scale)
        baseline = run_unixbench(views=0, label="baseline")
        with_views = run_unixbench(views=3, configs=configs, label="3 views")
        points = run_httperf_sweep(configs["apache"], rates=_httperf_rates())
        wall = time.monotonic() - started
    finally:
        restore()
        os.environ.pop("REPRO_JIT", None)

    per_op = {
        name: {
            "count": len(values),
            "median_us": round(statistics.median(values) * 1e6, 3)
            if values
            else None,
            "total_seconds": round(sum(values), 4),
        }
        for name, values in samples.items()
    }
    return {
        "wall_seconds": round(wall, 2),
        "per_op": per_op,
        "unixbench": {
            "baseline_index": baseline.index,
            "three_views_index": with_views.index,
            "normalized_index": with_views.normalized_index(baseline),
            "scores": dict(with_views.scores),
        },
        "httperf": {
            str(p.rate): {
                "baseline": p.baseline_throughput,
                "facechange": p.facechange_throughput,
                "ratio": p.ratio,
            }
            for p in points
        },
    }


def _compare_scores(run: dict, old: dict, tag: str) -> list:
    """Exact comparison of every virtual-cycle score; returns mismatches."""
    mismatches = []
    for key in ("baseline_index", "three_views_index", "normalized_index"):
        if run["unixbench"][key] != old["unixbench"][key]:
            mismatches.append(
                f"{tag} unixbench.{key}: {run['unixbench'][key]!r}"
                f" != {old['unixbench'][key]!r}"
            )
    for name, score in old["unixbench"]["scores"].items():
        got = run["unixbench"]["scores"].get(name)
        if got != score:
            mismatches.append(
                f"{tag} unixbench.scores[{name}]: {got!r} != {score!r}"
            )
    for rate, point in old["httperf"].items():
        got = run["httperf"].get(rate)
        if got is None or any(got[k] != point[k] for k in point):
            mismatches.append(f"{tag} httperf[{rate}]: {got!r} != {point!r}")
    return mismatches


def main() -> int:
    scale = _bench_scale()
    interp = _run_suite(scale, jit=False)
    result = _run_suite(scale, jit=True)

    root = Path(__file__).resolve().parent.parent
    baseline_path = root / "BENCH_telemetry.json"
    recorded = json.loads(baseline_path.read_text())
    comparable = recorded.get("scale") == scale

    # Hard gate at every scale: translation must be invisible to the
    # guest -- every score identical between the two passes.
    jit_mismatches = _compare_scores(result, interp, "jit-vs-interp")
    jit_speedup = interp["wall_seconds"] / result["wall_seconds"]

    out = {
        "scale": scale,
        "wall_seconds": result["wall_seconds"],
        "interp_wall_seconds": interp["wall_seconds"],
        "jit_speedup": round(jit_speedup, 2),
        "jit_scores_identical": not jit_mismatches,
        "per_op": result["per_op"],
        "unixbench": result["unixbench"],
        "httperf": result["httperf"],
        "note": (
            "Wall-clock of the recording-off benchmark suite with block "
            "translation on (primary) and off (interp_wall_seconds).  "
            "Scores are virtual-cycle ratios and must be bit-identical "
            "between the two passes and to BENCH_telemetry.json: the "
            "host-side machinery may only change wall-clock."
        ),
    }
    status = 0
    print(
        f"wall: jit {result['wall_seconds']:.2f}s /"
        f" interp {interp['wall_seconds']:.2f}s"
        f" (jit speedup {jit_speedup:.2f}x)"
    )
    if jit_mismatches:
        print("VIRTUAL-CYCLE SCORE DRIFT (translation changed guest behaviour):")
        for line in jit_mismatches:
            print(f"  {line}")
        status = 1
    if comparable:
        baseline_wall = recorded["telemetry_off"]["wall_seconds"]
        speedup = baseline_wall / result["wall_seconds"]
        mismatches = _compare_scores(
            result, recorded["telemetry_off"], "vs-recorded"
        )
        out["baseline_wall_seconds"] = baseline_wall
        out["speedup"] = round(speedup, 2)
        out["scores_identical"] = not mismatches
        print(
            f"recorded baseline {baseline_wall:.2f}s,"
            f" speedup {speedup:.2f}x"
        )
        if mismatches:
            print("VIRTUAL-CYCLE SCORE DRIFT (vs recorded baseline):")
            for line in mismatches:
                print(f"  {line}")
            status = 1
        if speedup < MIN_SPEEDUP:
            print(f"speedup {speedup:.2f}x below required {MIN_SPEEDUP}x")
            status = 1
        if jit_speedup < MIN_JIT_SPEEDUP:
            print(
                f"jit speedup {jit_speedup:.2f}x below required"
                f" {MIN_JIT_SPEEDUP}x"
            )
            status = 1
    else:
        out["baseline_wall_seconds"] = None
        out["speedup"] = None
        out["scores_identical"] = None
        print(
            f"scale {scale} != recorded {recorded.get('scale')}:"
            " smoke run, no baseline comparison or speedup gate"
        )
    for name, stats in result["per_op"].items():
        print(f"  {name}: n={stats['count']}"
              f" median={stats['median_us']}us total={stats['total_seconds']}s")

    path = root / "BENCH_switching.json"
    path.write_text(json.dumps(out, indent=2, sort_keys=True) + "\n")
    print(f"wrote {path}")
    return status


if __name__ == "__main__":
    sys.exit(main())
