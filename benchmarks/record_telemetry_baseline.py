#!/usr/bin/env python
"""Record the telemetry-overhead baseline (``BENCH_telemetry.json``).

Runs the Figure 6 (UnixBench) and Figure 7 (httperf) workloads twice --
with the flight recorder off (the default) and on (``REPRO_JOURNAL_DIR``
attaches a span journal to every machine) -- and writes both score sets
plus their ratios to ``BENCH_telemetry.json`` at the repository root.

Because the benchmarks score *virtual* cycles and telemetry charges no
guest cycles, the enabled/disabled ratio must be exactly 1.0 for every
subtest; the recorded file documents that invariant (and a future change
that accidentally charges guest time for recording will show up as a
ratio drift here).  Host-side wall time for both modes is recorded too,
as the honest measure of what recording costs the simulator itself.

Both passes run with block translation pinned off (``REPRO_JIT=0``):
the ``telemetry_off`` wall clock doubles as the interpreter reference
that ``benchmarks/record_switch_latency.py`` gates its speedup against.

Usage::

    PYTHONPATH=src python benchmarks/record_telemetry_baseline.py

``REPRO_BENCH_SCALE`` (default 2 here, smaller than the pytest default
of 4) bounds wall time; ``REPRO_FIG7_RATES`` narrows the httperf sweep.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
import time
from pathlib import Path


def _bench_scale() -> int:
    return int(os.environ.get("REPRO_BENCH_SCALE", "2"))


def _httperf_rates() -> list:
    raw = os.environ.get("REPRO_FIG7_RATES", "10,40")
    return [int(r) for r in raw.split(",") if r]


def _run_suite(recording: bool, scale: int, journal_dir: str) -> dict:
    """One full measurement pass with the flight recorder on or off."""
    if recording:
        os.environ["REPRO_JOURNAL_DIR"] = journal_dir
    else:
        os.environ.pop("REPRO_JOURNAL_DIR", None)
    # Pin block translation off: this file is the *interpreter* reference
    # that BENCH_switching.json's speedup gate compares against, and the
    # recording on/off ratio must be measured on one fixed execution mode.
    os.environ["REPRO_JIT"] = "0"

    # imported lazily so each pass sees the right environment from boot
    from repro.analysis.similarity import profile_applications
    from repro.bench.httperf import run_httperf_sweep
    from repro.bench.unixbench import run_unixbench

    started = time.monotonic()
    configs = profile_applications(scale=scale)

    baseline = run_unixbench(views=0, label="baseline")
    with_views = run_unixbench(views=3, configs=configs, label="3 views")
    unixbench = {
        "baseline_index": baseline.index,
        "three_views_index": with_views.index,
        "normalized_index": with_views.normalized_index(baseline),
        "scores": dict(with_views.scores),
    }

    points = run_httperf_sweep(configs["apache"], rates=_httperf_rates())
    httperf = {
        str(p.rate): {
            "baseline": p.baseline_throughput,
            "facechange": p.facechange_throughput,
            "ratio": p.ratio,
        }
        for p in points
    }

    return {
        "recording": recording,
        "unixbench": unixbench,
        "httperf": httperf,
        "wall_seconds": round(time.monotonic() - started, 2),
    }


def main() -> int:
    scale = _bench_scale()
    with tempfile.TemporaryDirectory() as journal_dir:
        off = _run_suite(recording=False, scale=scale, journal_dir=journal_dir)
        on = _run_suite(recording=True, scale=scale, journal_dir=journal_dir)
        os.environ.pop("REPRO_JOURNAL_DIR", None)

    ratios = {
        "unixbench_index": on["unixbench"]["three_views_index"]
        / off["unixbench"]["three_views_index"],
        "httperf": {
            rate: on["httperf"][rate]["facechange"]
            / off["httperf"][rate]["facechange"]
            for rate in off["httperf"]
        },
    }

    out = {
        "scale": scale,
        "telemetry_off": off,
        "telemetry_on": on,
        "on_over_off": ratios,
        "note": (
            "Scores are virtual-cycle ratios; recording charges no guest "
            "cycles, so on/off must be 1.0 exactly.  Wall seconds show "
            "the host-side cost of recording."
        ),
    }

    path = Path(__file__).resolve().parent.parent / "BENCH_telemetry.json"
    path.write_text(json.dumps(out, indent=2, sort_keys=True) + "\n")

    drift = max(
        abs(ratios["unixbench_index"] - 1.0),
        max(abs(r - 1.0) for r in ratios["httperf"].values()),
    )
    print(f"wrote {path}")
    print(f"unixbench index off/on: {off['unixbench']['three_views_index']:.2f}"
          f" / {on['unixbench']['three_views_index']:.2f}")
    print(f"max on/off score drift: {drift:.6f} (acceptance: < 0.02)")
    return 0 if drift < 0.02 else 1


if __name__ == "__main__":
    sys.exit(main())
