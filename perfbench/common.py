"""Shared plumbing for the benchmark workloads.

The benchmark runs from the root of a source checkout: ``src/`` holds the
program, ``.perfbench/`` (ignored by git) receives scratch files, span
files and per-layer reports.
"""

from __future__ import annotations

import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Sequence, Tuple, Union

ROOT = Path.cwd()
SRC = ROOT / "src"
BENCH_DIR = Path(__file__).resolve().parent
REFS = BENCH_DIR / "refs"
OUT = ROOT / ".perfbench"

#: a span of ``time.monotonic()`` seconds: (start, end)
Interval = Tuple[float, float]

#: set-up is repeated this many times per run; ``setup_s`` is the median
SETUP_SAMPLES = 3

#: scale of the paper workloads: the smallest at which the KBeast run
#: hangs, and the scale ``BENCH_switching.json`` recorded its scores at
PAPER_SCALE = 2


class BenchError(Exception):
    """The benchmark cannot run here (missing program, broken daemon)."""


def check_checkout() -> None:
    """Refuse to run outside a source checkout."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(
            f"no program sources under {SRC}: run the benchmark from the "
            "root of a source checkout"
        )
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def src_env() -> Dict[str, str]:
    """Environment for child processes: the checkout's ``src`` first."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    # instrumentation stays at the program's defaults
    for var in ("REPRO_TRACE", "REPRO_JOURNAL_DIR", "REPRO_SAMPLE_INTERVAL",
                "REPRO_PROBE_FUNCS", "REPRO_JIT"):
        env.pop(var, None)
    return env


def load_ref(name: str) -> Dict[str, Any]:
    return json.loads((REFS / f"{name}.json").read_text())


def quantile(values: Sequence[float], q: float) -> float:
    """Nearest-rank quantile (``q`` in [0, 1]); 0.0 for no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = min(len(ordered), max(1, math.ceil(q * len(ordered))))
    return ordered[rank - 1]


def hd_quantile(values: Sequence[float], q: float) -> float:
    """Harrell-Davis estimate of the ``q`` quantile; 0.0 for no samples.

    A weighted mean of every order statistic, the ``i``-th weighted by
    the Beta(q(n+1), (1-q)(n+1)) mass on ``[(i-1)/n, i/n]``.  Where the
    tail is sparse -- a few kinds of operation with their own durations
    -- a nearest-rank quantile jumps from one kind to the next when
    noise reorders two neighbours; this estimate moves smoothly.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n < 2:
        return ordered[0] if ordered else 0.0
    a, b = q * (n + 1) - 1, (1 - q) * (n + 1) - 1
    steps = 32

    def log_density(x: float) -> float:
        return a * math.log(x) + b * math.log1p(-x)

    # the Beta density over each order statistic's cell (midpoint
    # rule), scaled by its largest value against underflow
    logs = [
        [log_density((i + (k + 0.5) / steps) / n) for k in range(steps)]
        for i in range(n)
    ]
    top = max(max(cell) for cell in logs)
    weights = [sum(math.exp(v - top) for v in cell) for cell in logs]
    return sum(w * v for w, v in zip(weights, ordered)) / sum(weights)


def peak_rss_mb() -> float:
    """Peak resident set of this process, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def proc_peak_rss_mb(pid: int) -> float:
    """Peak resident set (``VmHWM``) of a live child process, in MiB."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise BenchError(f"no VmHWM for pid {pid}")


def offline_phase() -> Dict[str, Any]:
    """First boot plus the offline phase: every app profiled at
    ``PAPER_SCALE``.  Returns app -> kernel view config."""
    from repro.analysis.similarity import profile_applications
    from repro.guest.machine import boot_machine

    boot_machine()
    return profile_applications(scale=PAPER_SCALE)


def setup_probe(speed) -> Interval:
    """``time.monotonic()`` interval of one cold set-up in a fresh
    interpreter.

    The child process starts Python, imports the program and runs
    :func:`offline_phase` -- what a user pays before the first result --
    then exits; its own host-speed samples go to ``speed``.
    """
    started = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "setup_probe.py")],
        env=src_env(), cwd=str(ROOT), capture_output=True, text=True,
        timeout=170,
    )
    ended = time.monotonic()
    if proc.returncode != 0:
        raise BenchError(f"set-up probe failed:\n{proc.stderr}")
    speed.add(json.loads(proc.stdout.splitlines()[-1]), pause=True)
    return started, ended


def repeat_rounds(one_round: Callable[[List[Interval]], None],
                  seconds: float, out: "Outcome", speed) -> None:
    """Run ``one_round(latencies)`` until ``seconds`` have passed, at
    least once; ``one_round`` appends each operation's interval and
    samples host speed (``speed.sample()``) between operations.

    Every round is one ``run_s`` interval and one ``jobs_per_s`` sample,
    and ``peak_rss_mb`` is taken after the first round.  Operations run
    one at a time, so their latencies are independent samples: the
    quantiles pool every round, which puts the most samples at the tail.
    """
    started = time.monotonic()
    while not out.rounds or time.monotonic() - started < seconds:
        ops = out.attempted
        latencies: List[Interval] = []
        speed.sample()
        t0 = time.monotonic()
        one_round(latencies)
        out.rounds.append((t0, time.monotonic()))
        speed.sample()
        out.round_ops.append(out.attempted - ops)
        out.round_latencies.append(latencies)
        if len(out.rounds) == 1:
            # caches keep growing over later rounds, and how many rounds
            # fit depends on host speed: peak memory is set-up plus one
            out.values["peak_rss_mb"] = peak_rss_mb()


@dataclass
class Outcome:
    """What one workload run hands back to ``run.py``.

    Timings are ``time.monotonic()`` intervals; ``run.py`` turns them
    into reference-speed seconds (``hostspeed.py``) once the run ends.
    """

    #: one interval per cold set-up (``setup_s``)
    setups: List[Interval] = field(default_factory=list)
    #: one interval per timed round (``run_s``) and its operation count
    #: (``jobs_per_s``)
    rounds: List[Interval] = field(default_factory=list)
    round_ops: List[int] = field(default_factory=list)
    #: per round, every operation's latency interval; a failed request
    #: of an open loop is charged a fixed number of seconds instead
    round_latencies: List[List[Union[Interval, float]]] = field(
        default_factory=list
    )
    #: single-valued end-to-end metrics (``peak_rss_mb``)
    values: Dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    #: output checks that did not match the stored reference
    mismatches: List[str] = field(default_factory=list)
    #: human-readable notes (known failures, generator lateness, ...)
    notes: List[str] = field(default_factory=list)
    #: per-layer metric name -> (value, unit, base), traced runs only
    layers: Dict[str, tuple] = field(default_factory=dict)

    def op(self, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1

    def absorb_ops(self, other: "Outcome") -> None:
        """Count ``other``'s operations and mismatches as this run's."""
        self.attempted += other.attempted
        self.failed += other.failed
        self.mismatches.extend(other.mismatches)


def describe(samples: Sequence[float]) -> str:
    """``median / tail (n=...)`` with the tail at the highest percentile
    that keeps at least ten samples beyond it (the max when n < 20)."""
    n = len(samples)
    med = statistics.median(samples)
    if n >= 20:
        q = (n - 10) / n
        tail = quantile(samples, q)
        label = f"p{int(q * 100)}"
    else:
        tail = max(samples)
        label = "max"
    return f"median {med:.4f}, {label} {tail:.4f} (n={n})"
