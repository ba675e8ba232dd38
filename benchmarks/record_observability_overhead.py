#!/usr/bin/env python
"""Record flight-recorder overhead gates (``BENCH_observability.json``).

Three measurements:

1. **Bit-identity** -- the Figure 6 (UnixBench) and Figure 7 (httperf)
   workloads run twice, recorder off and recorder on
   (``REPRO_JOURNAL_DIR`` so every machine journals its spans and events
   to disk).  Spans read the virtual clock but
   never advance it, so every virtual-cycle score must be **exactly**
   equal across the two passes -- not within a tolerance.
2. **Wall-clock gate** -- journaling costs host time; the recorder-on
   pass must stay within ``REPRO_OBS_WALL_GATE`` (default 1.15x) of the
   recorder-off pass.
3. **Replay** -- a captured-attack scenario (KBeast on bash) records a
   journal; the span trees rebuilt from the journal file must equal the
   trees from the live in-memory records, and at least one chain must
   carry a captured-attack provenance verdict with a full
   exit -> backtrace -> provenance -> recovery structure.  The journal is
   kept as ``observability_attack_journal.jsonl`` (a CI artifact).

Usage::

    PYTHONPATH=src python benchmarks/record_observability_overhead.py

``REPRO_BENCH_SCALE`` (default 2) bounds wall time;
``REPRO_FIG7_RATES`` narrows the httperf sweep.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent


def _bench_scale() -> int:
    return int(os.environ.get("REPRO_BENCH_SCALE", "2"))


def _httperf_rates() -> list:
    raw = os.environ.get("REPRO_FIG7_RATES", "10,40")
    return [int(r) for r in raw.split(",") if r]


def _wall_gate() -> float:
    return float(os.environ.get("REPRO_OBS_WALL_GATE", "1.15"))


def _run_suite(recording: bool, scale: int, journal_dir: str) -> dict:
    """One full measurement pass with the flight recorder forced on/off."""
    if recording:
        os.environ["REPRO_JOURNAL_DIR"] = journal_dir
    else:
        os.environ.pop("REPRO_JOURNAL_DIR", None)

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
        "wall_seconds": round(time.monotonic() - started, 3),
    }


def _scores(suite: dict) -> dict:
    """The flat score map that must be bit-identical across passes."""
    flat = {
        f"unixbench.{name}": score
        for name, score in suite["unixbench"]["scores"].items()
    }
    flat["unixbench.baseline_index"] = suite["unixbench"]["baseline_index"]
    flat["unixbench.three_views_index"] = suite["unixbench"]["three_views_index"]
    for rate, point in suite["httperf"].items():
        flat[f"httperf.{rate}.baseline"] = point["baseline"]
        flat[f"httperf.{rate}.facechange"] = point["facechange"]
    return flat


def _attack_replay(scale: int) -> dict:
    """Record a KBeast capture; prove the journal replays losslessly."""
    os.environ.pop("REPRO_JOURNAL_DIR", None)
    from repro.analysis.similarity import profile_applications
    from repro.core.facechange import FaceChange
    from repro.guest.machine import boot_machine
    from repro.kernel.runtime import Platform
    from repro.malware import ALL_ATTACKS
    from repro.obs import attack_trees
    from repro.telemetry import build_span_trees, load_journal

    journal_path = REPO_ROOT / "observability_attack_journal.jsonl"
    config = profile_applications(apps=["bash"], scale=scale)["bash"]
    machine = boot_machine(platform=Platform.KVM)
    journal = machine.start_recording(
        path=journal_path,
        keep=True,
        meta={"app": "bash", "attack": "KBeast", "scale": scale},
    )
    fc = FaceChange(machine)
    fc.enable()
    fc.load_view(config, comm="bash")
    attack = next(a for a in ALL_ATTACKS if a.name == "KBeast")
    handle = attack.launch(machine, scale=scale)
    machine.run(
        until=lambda: handle.finished,
        max_cycles=machine.cycles + 20_000_000_000,
        step_budget=50_000,
    )
    live_trees = [n.to_dict() for n in build_span_trees(journal.records())]
    machine.stop_recording()

    data = load_journal(journal_path)
    replayed = build_span_trees(data.records)
    replay_equal = [n.to_dict() for n in replayed] == live_trees
    captured = attack_trees(replayed)
    full_chain = any(
        tree.kind == "vmexit"
        and any(
            rec.find("backtrace") and rec.find("provenance")
            for rec in tree.find("recovery")
        )
        for tree in captured
    )
    return {
        "journal": str(journal_path),
        "records": len(data.records),
        "dropped": data.dropped,
        "chains": len(replayed),
        "captured_attack_chains": len(captured),
        "replay_equal": replay_equal,
        "full_attack_chain": full_chain,
    }


def main() -> int:
    scale = _bench_scale()
    with tempfile.TemporaryDirectory(prefix="repro-journals-") as journal_dir:
        off = _run_suite(recording=False, scale=scale, journal_dir=journal_dir)
        on = _run_suite(recording=True, scale=scale, journal_dir=journal_dir)
        journal_files = len(list(Path(journal_dir).glob("*.jsonl")))
    replay = _attack_replay(scale)

    off_scores = _scores(off)
    on_scores = _scores(on)
    mismatches = sorted(
        name
        for name in off_scores
        if off_scores[name] != on_scores.get(name)
    )
    wall_ratio = (
        on["wall_seconds"] / off["wall_seconds"] if off["wall_seconds"] else 1.0
    )
    gate = _wall_gate()

    out = {
        "scale": scale,
        "recorder_off": off,
        "recorder_on": on,
        "bit_identical": not mismatches,
        "score_mismatches": mismatches,
        "journal_files_written": journal_files,
        "wall_ratio_on_over_off": round(wall_ratio, 4),
        "wall_gate": gate,
        "attack_replay": replay,
        "note": (
            "Spans/journaling read the virtual clock but never advance "
            "it, so recorder on/off scores must be bit-identical (exact "
            "equality, no tolerance).  The wall ratio is the honest "
            "host-side cost of journaling."
        ),
    }
    path = REPO_ROOT / "BENCH_observability.json"
    path.write_text(json.dumps(out, indent=2, sort_keys=True) + "\n")
    print(f"wrote {path}")
    print(f"scores compared: {len(off_scores)}; mismatches: {len(mismatches)}")
    print(
        f"wall: off {off['wall_seconds']}s, on {on['wall_seconds']}s "
        f"(ratio {wall_ratio:.3f}, gate {gate})"
    )
    print(
        f"attack replay: {replay['captured_attack_chains']} captured-attack "
        f"chains, replay_equal={replay['replay_equal']}, "
        f"full_chain={replay['full_attack_chain']}"
    )

    ok = True
    if mismatches:
        print(f"FAIL: recorder changed virtual-cycle scores: {mismatches}")
        ok = False
    if wall_ratio > gate:
        print(f"FAIL: journaling wall overhead {wall_ratio:.3f} > gate {gate}")
        ok = False
    if not replay["replay_equal"]:
        print("FAIL: journal replay differs from live span trees")
        ok = False
    if not replay["captured_attack_chains"] or not replay["full_attack_chain"]:
        print("FAIL: no full captured-attack chain in the replayed journal")
        ok = False
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
