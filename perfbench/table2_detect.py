"""table2-detect: all 16 Table II samples through ``evaluate_attack``.

Why: cold, short guest runs.  Each sample boots 4 fresh machines (clean
and infected host, under the per-app view and under the union view),
builds their views and recovers dozens of #UD traps, so JIT translation,
view building, CoW materialization, boot and recovery dominate -- the
opposite end from paper-suite.  A change that buys faster dispatch with
costlier translation shows here.

An operation is one guest run.  Runs are watched from outside: the
handles ``apps.launch`` and ``Attack.launch`` return are kept, and a run
whose task has not finished when ``Machine.run`` returns counts as
failed.  ``RUN_CAP`` bounds every run; at scale 2 the KBeast-infected
``bash`` never finishes (per-app and union view alike), so those two
runs per pass are the known failures, reported and never dropped.
Verdicts and evidence lists are checked against ``refs/table2_detect.json``.
"""

from __future__ import annotations

import random
import time
from typing import Any, Dict, List

from common import (
    PAPER_SCALE, Interval, Outcome, load_ref, repeat_rounds,
)

#: per-run virtual-cycle cap: finishing runs take 1-4M cycles at scale 2,
#: so 3e9 is ~1000x headroom while a hung run costs ~3 s, not ~60 s
RUN_CAP = 3_000_000_000


class _RunWatch:
    """Keep every launched handle and the start time of every boot;
    sample host speed just before each boot, between two operations."""

    def __init__(self, speed) -> None:
        import repro.analysis.detection as detection
        import repro.apps.base as apps_base
        from repro.malware.base import Attack

        self.targets = (
            (detection, "boot_machine"),
            (apps_base, "launch"),
            (Attack, "launch"),
        )
        self.originals = [owner.__dict__[attr] for owner, attr in self.targets]
        self.handles: List[Any] = []
        self.boots: List[float] = []
        self.speed = speed

    def __enter__(self) -> "_RunWatch":
        boot, app_launch, attack_launch = self.originals

        def timed_boot(*args, **kwargs):
            self.speed.sample()
            self.boots.append(time.monotonic())
            return boot(*args, **kwargs)

        def keep(launcher):
            def launch(*args, **kwargs):
                handle = launcher(*args, **kwargs)
                self.handles.append(handle)
                return handle
            return launch

        for (owner, attr), fn in zip(
            self.targets,
            (timed_boot, keep(app_launch), keep(attack_launch)),
        ):
            setattr(owner, attr, fn)
        return self

    def __exit__(self, *exc) -> None:
        for (owner, attr), fn in zip(self.targets, self.originals):
            setattr(owner, attr, fn)


def _verdict(result) -> Dict[str, Any]:
    return {
        "detected_per_app": result.detected_per_app,
        "detected_union": result.detected_union,
        "evidence": result.evidence,
        "union_evidence": result.union_evidence,
        "unknown_frames": result.unknown_frames,
    }


def _one_pass(configs, order, ref, out: Outcome, latencies: List[Interval],
              capped: Dict[str, int], speed) -> None:
    from repro.analysis.detection import evaluate_attack

    for attack in order:
        with _RunWatch(speed) as watch:
            result = evaluate_attack(
                attack, configs, scale=PAPER_SCALE, max_cycles=RUN_CAP
            )
        marks = watch.boots + [time.monotonic()]
        latencies.extend(zip(marks, marks[1:]))
        got = _verdict(result)
        want = ref["samples"][attack.name]
        ok = got == want
        if not ok:
            out.mismatches.append(f"{attack.name}: {got!r} != {want!r}")
        for handle in watch.handles:
            if not handle.finished:
                capped[attack.name] = capped.get(attack.name, 0) + 1
            out.op(ok and handle.finished)


def run(configs, seed: int, seconds: float, out: Outcome, speed) -> None:
    """Repeat passes over the 16 samples (seeded order) for ``seconds``."""
    from repro.malware import ALL_ATTACKS

    ref = load_ref("table2_detect")
    order = list(ALL_ATTACKS)
    random.Random(seed).shuffle(order)
    capped: Dict[str, int] = {}
    repeat_rounds(
        lambda latencies: _one_pass(
            configs, order, ref, out, latencies, capped, speed
        ),
        seconds, out, speed,
    )
    for name, n in sorted(capped.items()):
        out.notes.append(
            f"{name}: {n} run(s) hit the {RUN_CAP:.0e}-cycle cap unfinished"
        )
