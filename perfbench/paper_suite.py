"""paper-suite: Figure 6 (UnixBench) and Figure 7 (httperf) at scale 2.

Why: long, warm guest runs.  The vCPU dispatch loop, JIT-generated code,
``kernel.runtime`` and FACE-CHANGE's context-switch traps do almost all
the work, so this is where dispatch-loop and view-switch changes show.

One *round* is the suite a user runs to regenerate the two figures:
UnixBench with FACE-CHANGE off, UnixBench with 3 views resident, and an
httperf sweep on ``apache`` at ``RATES`` (55 req/s sits at the knee).
Operations are UnixBench subtest rounds (each subtest is best-of-3
rounds) and httperf rate points.  Every virtual-cycle score is checked
bit-exact against ``refs/paper_suite.json``.
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, Tuple

from common import Interval, Outcome, load_ref, repeat_rounds

#: offered request rates of the httperf sweep (req/virtual-second)
RATES = (10, 40, 55)
#: resident-application ``Env`` seeds are this plus the benchmark seed
ENV_SEED_BASE = 20140623


class _SubtestRounds:
    """Time each UnixBench subtest round from outside.

    ``_run_subtest(machine, fn, n, rounds=3)`` returns the best of its
    rounds; calling it ``rounds`` times with ``rounds=1`` on the same
    machine runs the identical guest sequence and the max of the results
    is the same score, so every round becomes one timed operation.
    """

    def __init__(self, label: List[str], speed) -> None:
        import repro.bench.unixbench as ub

        self.module = ub
        self.original = ub._run_subtest
        self.names = {fn: name for name, fn, _ in ub.UNIXBENCH_SUBTESTS}
        self.label = label
        self.speed = speed
        #: (suite label, subtest name, interval, finished)
        self.ops: List[Tuple[str, str, Interval, bool]] = []

    def __enter__(self) -> "_SubtestRounds":
        original = self.original

        def split(machine, driver_fn, iterations, rounds=3):
            best = 0.0
            for _ in range(rounds):
                self.speed.sample()
                started = time.monotonic()
                try:
                    score = original(machine, driver_fn, iterations, rounds=1)
                    ok = True
                except RuntimeError:
                    score, ok = 0.0, False
                self.ops.append((
                    self.label[0], self.names.get(driver_fn, "?"),
                    (started, time.monotonic()), ok,
                ))
                best = max(best, score)
            return best

        self.module._run_subtest = split
        return self

    def __exit__(self, *exc) -> None:
        self.module._run_subtest = self.original


def _one_round(configs, env_seed: int, ref: Dict[str, Any], out: Outcome,
               latencies: List[Interval], speed) -> None:
    from repro.bench.httperf import run_httperf_sweep
    from repro.bench.unixbench import run_unixbench

    label = ["baseline"]
    with _SubtestRounds(label, speed) as rounds:
        baseline = run_unixbench(views=0, label="baseline")
        label[0] = "three_views"
        three = run_unixbench(
            views=3, configs=configs, label="3 views", seed=env_seed
        )
    scores = {"baseline": baseline.scores, "three_views": three.scores}
    bad = set()
    for suite, got in scores.items():
        for name, want in ref["unixbench"][suite].items():
            if got.get(name) != want:
                bad.add((suite, name))
                out.mismatches.append(
                    f"unixbench {suite} {name}: {got.get(name)!r} != {want!r}"
                )
    for suite, name, interval, ok in rounds.ops:
        out.op(ok and (suite, name) not in bad)
        latencies.append(interval)

    for rate in RATES:
        speed.sample()
        started = time.monotonic()
        try:
            point = run_httperf_sweep(configs["apache"], rates=[rate])[0]
            got = [point.baseline_throughput, point.facechange_throughput]
        except RuntimeError as exc:
            got = [str(exc)]
        latencies.append((started, time.monotonic()))
        want = ref["httperf"][str(rate)]
        ok = got == want
        if not ok:
            out.mismatches.append(f"httperf {rate} req/s: {got!r} != {want!r}")
        out.op(ok)


def run(configs, seed: int, seconds: float, out: Outcome, speed) -> None:
    """Repeat rounds until ``seconds`` have passed (at least one)."""
    ref = load_ref("paper_suite")
    repeat_rounds(
        lambda latencies: _one_round(
            configs, ENV_SEED_BASE + seed, ref, out, latencies, speed
        ),
        seconds, out, speed,
    )
