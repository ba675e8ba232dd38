#!/usr/bin/env python3
"""The repository benchmark: one command per workload, every metric named.

Usage (from the root of a source checkout)::

    python3 perfbench/run.py --workload paper-suite|table2-detect|serve-mix \\
        [--seed N] [--seconds S] [--trace 0|1]

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` runs half the time untraced and half with the outside-in
span tracer (``tracer.py``), reports every per-layer metric and the
tracing overhead, and writes ``.perfbench/report-<workload>.md`` plus the
span file.  Human-readable lines come first; the last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (name -> value and unit).  See ``README.md`` for the
workloads and what each metric should move.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import (  # noqa: E402
    OUT, SETUP_SAMPLES, BenchError, Outcome, check_checkout, describe,
    hd_quantile, offline_phase, setup_probe,
)
from hostspeed import HostSpeed, wall  # noqa: E402

WORKLOADS = ("paper-suite", "table2-detect", "serve-mix")

#: end-to-end metric -> unit, in the order they print
END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "jobs_per_s": "1/s",
    "latency_p50_s": "s",
    "latency_p90_s": "s",
    "peak_rss_mb": "MiB",
}

#: serve-side per-layer metrics; workloads without a daemon report 0
SERVE_LAYERS = (
    ("serve.pool.hit_ratio", "ratio"),
    ("serve.queue_wait.p50_s", "s"),
    ("serve.queue_wait.p90_s", "s"),
    ("serve.exec.p50_s", "s"),
    ("serve.client.rtt_ms_p50", "ms"),
    ("serve.rejected.count", "count"),
)


def _in_process(workload: str):
    import paper_suite
    import table2_detect

    return {"paper-suite": paper_suite, "table2-detect": table2_detect}[
        workload
    ]


def measure(workload: str, seed: int, seconds: float,
            speed: HostSpeed) -> Outcome:
    """Untraced run: set-up samples, then the timed region."""
    out = Outcome()
    if workload == "serve-mix":
        import serve_mix

        serve_mix.run(seed, seconds, out, speed)
        return out
    # probes before and after the timed region sample different spells
    # of host speed
    out.setups.append(setup_probe(speed))
    configs = offline_phase()
    _in_process(workload).run(configs, seed, seconds, out, speed)
    out.setups += [setup_probe(speed) for _ in range(SETUP_SAMPLES - 1)]
    return out


def measure_traced(workload: str, seed: int, seconds: float,
                   speed: HostSpeed):
    """Half untraced, half traced; returns (traced outcome with the
    plain half's operations added, plain rounds, span summary)."""
    from tracer import Tracer

    out = Outcome()
    if workload == "serve-mix":
        import serve_mix

        plain_rounds, summary = serve_mix.run_traced(
            seed, seconds, out, speed
        )
        return out, plain_rounds, summary
    module = _in_process(workload)
    configs = offline_phase()
    plain = Outcome()
    module.run(configs, seed, seconds / 2, plain, speed)
    tracer = Tracer(f"{workload}-{seed}-{os.getpid()}")
    tracer.install()
    try:
        module.run(configs, seed, seconds / 2, out, speed)
    finally:
        tracer.restore()
    spans = OUT / f"trace-{workload}.spans"
    OUT.mkdir(exist_ok=True)
    tracer.write(str(spans))
    out.notes.append(f"spans written to {spans}")
    out.absorb_ops(plain)
    return out, plain.rounds, tracer.summary()


def latency_quantiles(out: Outcome, speed: HostSpeed) -> tuple:
    """(p50, p90) of per-operation latency in reference-speed seconds."""
    pooled = [
        x if isinstance(x, float) else speed.seconds(x)
        for r in out.round_latencies for x in r
    ]
    return hd_quantile(pooled, 0.5), hd_quantile(pooled, 0.9)


def end_to_end(out: Outcome, speed: HostSpeed) -> dict:
    """Medians over set-ups and rounds, in reference-speed seconds."""
    runs = [speed.seconds(r) for r in out.rounds]
    p50, p90 = latency_quantiles(out, speed)
    return {
        "setup_s": statistics.median(speed.seconds(s) for s in out.setups),
        "run_s": statistics.median(runs),
        "jobs_per_s": statistics.median(
            n / s for n, s in zip(out.round_ops, runs)
        ),
        "latency_p50_s": p50,
        "latency_p90_s": p90,
        "peak_rss_mb": out.values["peak_rss_mb"],
    }


def per_layer(out: Outcome, plain_rounds, summary: dict,
              speed: HostSpeed) -> dict:
    from tracer import layer_metrics

    layers = layer_metrics(summary)
    for name, unit in SERVE_LAYERS:
        layers[name] = out.layers.get(name, (0, unit, "no daemon"))
    traced = statistics.median(speed.seconds(r) for r in out.rounds)
    plain = statistics.median(speed.seconds(r) for r in plain_rounds)
    layers["trace.spans"] = (summary["spans"], "count", "recorded spans")
    layers["trace.run_s"] = (traced, "s", "traced run_s")
    layers["trace.overhead_s"] = (
        traced - plain, "s", f"traced minus untraced run_s ({plain:.4f} s)",
    )
    return layers


def print_timings(out: Outcome, speed: HostSpeed) -> None:
    """Each timing as wall seconds and as reference-speed seconds."""
    print(f"  {speed.describe()}")
    timings = {"setup_s": out.setups, "run_s": out.rounds, "latency_s": [
        x for r in out.round_latencies for x in r if not isinstance(x, float)
    ]}
    for name, intervals in timings.items():
        if intervals:
            print(f"  {name} wall: {describe(wall(intervals))}")
            print(f"  {name} ref:  "
                  f"{describe([speed.seconds(x) for x in intervals])}")


def write_report(workload: str, layers: dict, summary: dict) -> Path:
    """The per-layer table: self time, counts, unit costs with bases."""
    lines = [
        f"# Per-layer report: {workload}",
        "",
        f"Run id `{summary['run_id']}`, {summary['spans']} spans.",
        "",
        "| metric | value | unit | base |",
        "|---|---:|---|---|",
    ]
    for name, (value, unit, base) in sorted(layers.items()):
        lines.append(f"| {name} | {value:.6g} | {unit} | {base} |")
    lines += [
        "",
        "## Span self time",
        "",
        "| span | calls | self s | total s |",
        "|---|---:|---:|---:|",
    ]
    for name, self_s in sorted(
        summary["self_s"].items(), key=lambda kv: -kv[1]
    ):
        lines.append(
            f"| {name} | {summary['count'].get(name, 0)} | {self_s:.4f} | "
            f"{summary['total_s'].get(name, 0.0):.4f} |"
        )
    OUT.mkdir(exist_ok=True)
    path = OUT / f"report-{workload}.md"
    path.write_text("\n".join(lines) + "\n")
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=22.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        check_checkout()
        started = time.monotonic()
        speed = HostSpeed()
        if args.trace:
            out, plain_rounds, summary = measure_traced(
                args.workload, args.seed, args.seconds, speed
            )
            metrics = per_layer(out, plain_rounds, summary, speed)
            report = write_report(args.workload, metrics, summary)
            out.notes.append(f"per-layer table written to {report}")
        else:
            out = measure(args.workload, args.seed, args.seconds, speed)
            metrics = {
                name: (value, END_TO_END[name], "")
                for name, value in end_to_end(out, speed).items()
            }
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    print(f"workload {args.workload}, seed {args.seed}, "
          f"{time.monotonic() - started:.1f} s wall")
    print_timings(out, speed)
    for name, (value, unit, base) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}" + (f"  [{base}]" if base else ""))
    print(f"  operations: {out.attempted} attempted, {out.failed} failed")
    for note in out.notes:
        print(f"  note: {note}")
    for line in out.mismatches:
        print(f"  MISMATCH: {line}")
    print(json.dumps({
        "correct": not out.mismatches,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit, _) in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
