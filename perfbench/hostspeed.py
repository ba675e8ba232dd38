"""Host speed: a fixed reference kernel timed beside the workload.

The benchmark shares a few cores of a busy host whose speed wanders by
a third within seconds and drifts over minutes: the same Python loop
takes from 0.8x to 1.4x its median time in one-second windows, and the
two cores of a 2-core guest need not be slow at the same moments.  Wall
times alone then spread more across runs than any bound worth setting.

So every timing is taken as an interval of ``time.monotonic()`` and,
after the run, scaled to a reference host speed.  :func:`kernel` is a
fixed, dict- and list-heavy interpreter loop that shares no code with
the program; each *sample* is its thread CPU time (CPU time leaves out
waiting for a core, so it measures how fast the host runs code, not how
busy the scheduler is).  An interval of ``w`` wall seconds counts as::

    (w - kernel time inside it) * mean(NOMINAL_S / k)

reference-speed seconds, ``k`` running over the samples taken near it:
wall seconds on a host where the kernel takes ``NOMINAL_S``.  A program
change that does more or less work still moves the figure by its own
share; a slow spell of the host moves the workload and the kernel
together and largely cancels.

Samples come from the thread that does the work wherever it can: the
in-process workloads call :meth:`HostSpeed.sample` between operations
and the set-up probe samples itself.  Work that runs in another process
(the serve daemon) is covered by :meth:`HostSpeed.sampler`: one process
per core running this file as a script, pinned to that core, which
samples every ``PERIOD`` seconds until its standard input closes and
then prints its samples as one JSON list of ``[start, end, kernel CPU
seconds]``::

    python3 perfbench/hostspeed.py CPU PERIOD
"""

from __future__ import annotations

import bisect
import json
import os
import select
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from typing import Iterator, List, Sequence, Tuple

from common import BenchError, Interval

#: one kernel call runs the toy program this many times (~5 ms)
KERNEL_REPS = 400
#: pause between kernel calls, over all sampler processes together
PERIOD_S = 0.02
#: the kernel's median CPU time on the 2-core host where the bounds in
#: BENCHMARK.json were set: reported seconds match wall seconds there
NOMINAL_S = 0.0050
#: samples within this many seconds of an interval set its speed
WINDOW_S = 0.25
#: fewest samples behind one interval's speed (the window widens)
MIN_SAMPLES = 4

#: (start, end, kernel CPU seconds)
Sample = Tuple[float, float, float]

_MEM = list(range(1 << 16))
_PROGRAM = tuple((i % 5, (i * 7) % 16, (i * 13) % 16) for i in range(64))


def kernel(reps: int = KERNEL_REPS) -> int:
    """Fixed reference work: a register machine over a list and a dict."""
    regs = list(range(16))
    table = {}
    mem = _MEM
    for rep in range(reps):
        for op, a, b in _PROGRAM:
            if op == 0:
                regs[a] = (regs[a] + regs[b]) & 0xFFFF
            elif op == 1:
                regs[a] = mem[regs[b]]
            elif op == 2:
                mem[(regs[a] * 31 + rep) & 0xFFFF] = regs[b] & 0xFFFF
            elif op == 3:
                table[(a, regs[b] & 255)] = rep
            else:
                regs[b] = table.get((b, regs[a] & 255), 0) ^ regs[a]
    return regs[0]


def measure_kernel() -> Sample:
    """Run the kernel once in this thread."""
    start = time.monotonic()
    cpu = time.thread_time()
    kernel()
    cpu = time.thread_time() - cpu
    return start, time.monotonic(), cpu


def _sample_until_stdin_closes(cpu: int, period: float) -> None:
    os.sched_setaffinity(0, {cpu})
    samples: List[Sample] = []
    while True:
        samples.append(measure_kernel())
        ready, _, _ = select.select([sys.stdin], [], [], period)
        if ready:
            break
    json.dump(samples, sys.stdout)


class HostSpeed:
    """Collect kernel samples during a run, then turn intervals into
    reference-speed seconds with :meth:`seconds`."""

    def __init__(self) -> None:
        self._samples: List[Tuple[float, float]] = []
        #: kernel calls made inside timed work, left out of intervals
        self._pauses: List[Interval] = []
        self._times: List[float] = []
        self._kernels: List[float] = []
        self._pause_ends: List[float] = []

    def sample(self) -> None:
        """Run the kernel here, between two operations of the workload;
        its time is left out of every interval."""
        self.add([measure_kernel()], pause=True)

    def add(self, samples: Sequence[Sample], pause: bool) -> None:
        """Take samples measured elsewhere; ``pause``: they ran inside
        the timed work, so their time is left out of intervals."""
        for start, end, cpu in samples:
            self._samples.append(((start + end) / 2, cpu))
            if pause:
                self._pauses.append((start, end))
        self._times = []

    @contextmanager
    def sampler(self) -> Iterator[None]:
        """Sample from separate processes for the length of the block:
        for work that runs in other processes.  Work in another process
        may run on any core, so one sampler is pinned to each core this
        process may use, and together they keep the duty of one."""
        cpus = sorted(os.sched_getaffinity(0))
        period = PERIOD_S * len(cpus)
        procs = [
            subprocess.Popen(
                [sys.executable, __file__, str(cpu), str(period)],
                stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            )
            for cpu in cpus
        ]
        outs = []
        try:
            yield
        finally:
            for proc in procs:
                try:
                    outs.append(proc.communicate(input="", timeout=30)[0])
                except subprocess.TimeoutExpired:
                    proc.kill()
                    proc.wait()
                    outs.append("")
        for proc, out in zip(procs, outs):
            if proc.returncode != 0 or not out:
                raise BenchError("host-speed sampler failed")
            self.add(json.loads(out), pause=False)

    def _index(self) -> None:
        if self._times:
            return
        if not self._samples:
            raise BenchError("no host-speed samples")
        self._samples.sort()
        self._times = [t for t, _ in self._samples]
        self._kernels = [k for _, k in self._samples]
        self._pauses.sort()
        self._pause_ends = [end for _, end in self._pauses]

    def _paused(self, start: float, end: float) -> float:
        total = 0.0
        i = bisect.bisect_right(self._pause_ends, start)
        while i < len(self._pauses) and self._pauses[i][0] < end:
            p_start, p_end = self._pauses[i]
            total += min(end, p_end) - max(start, p_start)
            i += 1
        return total

    def seconds(self, interval: Interval) -> float:
        """Reference-speed seconds of a ``time.monotonic()`` interval."""
        self._index()
        start, end = interval
        window = WINDOW_S
        while True:
            near = self._kernels[
                bisect.bisect_left(self._times, start - window):
                bisect.bisect_right(self._times, end + window)
            ]
            if len(near) >= MIN_SAMPLES or len(near) == len(self._kernels):
                break
            window *= 2
        work = end - start - self._paused(start, end)
        return work * statistics.fmean(NOMINAL_S / k for k in near)

    def describe(self) -> str:
        self._index()
        ks = sorted(self._kernels)
        return (
            f"host speed: {len(ks)} kernel samples, median "
            f"{statistics.median(ks) * 1e3:.3f} ms (nominal "
            f"{NOMINAL_S * 1e3:.3f} ms), p10 {ks[len(ks) // 10] * 1e3:.3f}"
            f" ms, p90 {ks[len(ks) * 9 // 10] * 1e3:.3f} ms"
        )


def wall(intervals: Sequence[Interval]) -> List[float]:
    """Plain wall seconds of each interval, kernel calls included."""
    return [end - start for start, end in intervals]


if __name__ == "__main__":
    _sample_until_stdin_closes(int(sys.argv[1]), float(sys.argv[2]))
