"""Record the output references the benchmark checks against.

Usage (from the root of a source checkout)::

    python3 perfbench/record_refs.py

Writes ``refs/paper_suite.json`` (every UnixBench and httperf
virtual-cycle score) and ``refs/table2_detect.json`` (per-sample
verdicts and evidence lists).  Run it only when a change is *meant* to
alter guest-visible results, and say so in the change: the references
are what keeps host-side work honest.

Two cross-checks before anything is written: the 3-view UnixBench scores
must not depend on the resident-application seed (the benchmark varies
it), and the scores ``BENCH_switching.json`` recorded at scale 2 must be
reproduced exactly.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import (  # noqa: E402
    PAPER_SCALE, REFS, ROOT, check_checkout, offline_phase,
)


def _paper_suite(configs) -> dict:
    from paper_suite import ENV_SEED_BASE, RATES
    from repro.bench.httperf import run_httperf_sweep
    from repro.bench.unixbench import UnixBenchResult, run_unixbench

    baseline = run_unixbench(views=0, label="baseline").scores
    three = [
        run_unixbench(views=3, configs=configs, seed=ENV_SEED_BASE + s).scores
        for s in range(3)
    ]
    if any(scores != three[0] for scores in three):
        raise SystemExit("3-view scores depend on the resident seed")
    points = run_httperf_sweep(configs["apache"], rates=list(RATES))
    ref = {
        "scale": PAPER_SCALE,
        "unixbench": {"baseline": baseline, "three_views": three[0]},
        "httperf": {
            str(p.rate): [p.baseline_throughput, p.facechange_throughput]
            for p in points
        },
    }
    recorded = ROOT / "BENCH_switching.json"
    if recorded.is_file():
        old = json.loads(recorded.read_text())
        if old.get("scale") == PAPER_SCALE:
            if old["unixbench"]["scores"] != three[0]:
                raise SystemExit("3-view scores differ from BENCH_switching")
            index = UnixBenchResult("baseline", 0, dict(baseline)).index
            if index != old["unixbench"]["baseline_index"]:
                raise SystemExit("baseline index differs from BENCH_switching")
            for rate, point in old["httperf"].items():
                if ref["httperf"].get(rate) not in (
                    None, [point["baseline"], point["facechange"]]
                ):
                    raise SystemExit(f"httperf {rate} differs from "
                                     "BENCH_switching")
    return ref


def _table2(configs) -> dict:
    from table2_detect import RUN_CAP, _verdict
    from repro.analysis.detection import evaluate_attack
    from repro.malware import ALL_ATTACKS

    return {
        "scale": PAPER_SCALE,
        "run_cap": RUN_CAP,
        "samples": {
            attack.name: _verdict(evaluate_attack(
                attack, configs, scale=PAPER_SCALE, max_cycles=RUN_CAP
            ))
            for attack in ALL_ATTACKS
        },
    }


def main() -> int:
    check_checkout()
    configs = offline_phase()
    REFS.mkdir(exist_ok=True)
    for name, ref in (
        ("paper_suite", _paper_suite(configs)),
        ("table2_detect", _table2(configs)),
    ):
        path = REFS / f"{name}.json"
        path.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
