"""serve-mix: a real ``repro serve`` daemon driven over its control socket.

Why: short jobs (~70-130 ms) on warm snapshot forks, so the queue, pool
fork, ``execute_job``, the telemetry merge and the metrics recorder are
a visible share of each result.  It is the only workload that exercises
``serve``, ``fleet`` and ``obs``, and where moving daemon workers from
threads to processes must show.

The daemon runs unmodified with ``nproc`` workers, warm pools for the
``default`` and ``qemu-tsc`` variants and the metrics recorder at its
default interval.  One driving process with at most ``nproc`` threads
runs ``ROUNDS`` rounds of two phases:

* closed loop -- ``nproc`` jobs in flight, a fixed job count (whole
  shuffles of the templates) sized to ``CLOSED_SHARE`` of the round at
  the seed's capacity: ``run_s`` (median round) and ``jobs_per_s``
  (median over rounds of closed-loop jobs per second);
* open loop -- arrivals at ``OPEN_RATE`` (about half the seed's
  closed-loop capacity) for the rest of the round, one per
  ``1/OPEN_RATE`` slot at a seeded offset within the first ``JITTER``
  of the slot (steadier than Poisson bursts at these run lengths): each
  request is timed from when it was *due* to the daemon's
  ``finished_at``, and a failed or refused job counts at ``MISS_S``,
  past any latency limit.

Jobs are a seeded mix of scale-1 apps and user-level attacks: per run,
each of ``KINDS`` on each of ``VARIANTS`` gets ``JOB_SEEDS`` job seeds,
and requests cycle through seeded shuffles of those templates, so every
run offers the same mix of kinds.  Every job's
``(cycles, syscalls)`` must equal a solo ``execute_job`` of the same
template on a freshly booted machine.
"""

from __future__ import annotations

import json
import os
import queue
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from common import (
    BENCH_DIR, OUT, SETUP_SAMPLES, BenchError, Interval, Outcome,
    proc_peak_rss_mb, quantile, src_env,
)

#: (app, attack) job kinds; attacks are user-level Table II samples
KINDS: Tuple[Tuple[str, Optional[str]], ...] = (
    ("top", None),
    ("gzip", None),
    ("bash", None),
    ("eog", None),
    ("top", "Injectso"),
    ("gzip", "Cymothoa v3"),
    ("bash", "Cymothoa v1"),
    ("eog", "Xlibtrace"),
)
APPS = ("bash", "eog", "gzip", "top")
VARIANTS = ("default", "qemu-tsc")
JOB_SCALE = 1
#: closed-loop jobs per second measured at the seed (2-core host); sizes
#: each closed phase to about ``CLOSED_SHARE`` of its round
SEED_CAPACITY = 12.0
#: open-loop offered rate, jobs per second: about half the closed-loop
#: capacity (12-16 jobs/s on a 2-core host)
OPEN_RATE = 6.5
#: each arrival falls at a seeded offset within the first ``JITTER``
#: of its ``1/OPEN_RATE`` slot: arrivals keep at least three quarters of
#: a slot apart, so the p90 is not set by how often two seeded arrivals
#: happen to land back to back
JITTER = 0.25
#: job seeds per (kind, variant) and run: a job's cost depends on its
#: seed (with one seed each, one run seed moved a whole run's figures
#: by 10%), so each run averages over several
JOB_SEEDS = 3
#: latency charged to a failed or refused request
MISS_S = 60.0
NPROC = os.cpu_count() or 1
#: closed+open rounds per run: a median over rounds rides out the
#: host's slow spells
ROUNDS = 4
#: share of each round spent in the closed loop
CLOSED_SHARE = 0.45

Template = Tuple[str, Optional[str], str, int]


def make_inputs(seed: int, seconds: float):
    """Templates, then per round the closed-loop jobs and the open-loop
    arrival schedule (offsets in seconds)."""
    rng = random.Random(seed)
    templates: List[Template] = [
        (app, attack, variant, rng.randrange(1, 2**31))
        for app, attack in KINDS
        for variant in VARIANTS
        for _ in range(JOB_SEEDS)
    ]

    def stream():
        while True:
            order = list(templates)
            rng.shuffle(order)
            yield from order

    jobs = stream()
    block = seconds / ROUNDS
    # whole shuffles only, so every closed phase runs the same work mix
    closed_n = len(templates) * max(
        1, round(SEED_CAPACITY * block * CLOSED_SHARE / len(templates))
    )
    open_n = max(1, round(OPEN_RATE * block * (1 - CLOSED_SHARE)))
    rounds = []
    for _ in range(ROUNDS):
        closed = [next(jobs) for _ in range(closed_n)]
        arrivals = [
            ((k + JITTER * rng.random()) / OPEN_RATE, next(jobs))
            for k in range(open_n)
        ]
        rounds.append((closed, arrivals))
    return templates, rounds


class Daemon:
    """One ``repro serve`` subprocess with a private library and socket."""

    def __init__(self, tag: str, trace_prefix: Optional[str] = None) -> None:
        from repro.serve import ServeClient

        OUT.mkdir(exist_ok=True)
        self.libdir = OUT / f"lib-{os.getpid()}-{tag}"
        # a relative socket path keeps clear of the unix-socket length cap
        self.socket = os.path.join(".perfbench", f"s{os.getpid()}{tag}.sock")
        args = [
            "--scale", str(JOB_SCALE), "serve",
            "--socket", self.socket, "--library", str(self.libdir),
            "--apps", *APPS, "--guests", *VARIANTS,
            "--min-workers", str(NPROC), "--max-workers", str(NPROC),
        ]
        if trace_prefix is None:
            cmd = [sys.executable, "-m", "repro.cli", *args]
        else:
            cmd = [sys.executable, str(BENCH_DIR / "tracehost.py"),
                   tag, trace_prefix, "--", *args]
        self.log_path = OUT / f"daemon-{os.getpid()}-{tag}.log"
        self.log = open(self.log_path, "w")
        started = time.monotonic()
        self.proc = subprocess.Popen(
            cmd, env=src_env(), stdout=self.log, stderr=subprocess.STDOUT,
        )
        self.client = ServeClient(self.socket, timeout=60.0)
        self._wait_ready()
        #: daemon start through warm-pool prewarm: ping answers only
        #: after ``ServeDaemon.start`` has profiled and prewarmed
        self.startup: Interval = (started, time.monotonic())

    def _wait_ready(self) -> None:
        from repro.serve.client import DaemonUnreachable

        deadline = time.monotonic() + 150.0
        while True:
            try:
                self.client.ping()
                return
            except DaemonUnreachable:
                if self.proc.poll() is not None or time.monotonic() > deadline:
                    self.stop()
                    raise BenchError(
                        "serve daemon did not come up:\n"
                        + self.log_path.read_text()
                    )
                time.sleep(0.02)

    def stop(self) -> None:
        """Drained shutdown; kill only if the daemon will not exit."""
        from repro.serve.client import ServeClientError

        try:
            if self.proc.poll() is None:
                self.client.shutdown(drain=True, timeout=30)
                self.proc.wait(timeout=60)
        except (ServeClientError, subprocess.TimeoutExpired):
            pass
        finally:
            if self.proc.poll() is None:
                self.proc.kill()
                self.proc.wait()
            self.log.close()

    def remove_files(self) -> None:
        """Drop the private library and log once nothing reads them."""
        shutil.rmtree(self.libdir, ignore_errors=True)
        self.log_path.unlink(missing_ok=True)


def _closed_loop(daemon: Daemon, jobs: List[Template]):
    """``NPROC`` threads, each keeping one job in flight."""
    results: List[Tuple[Template, Optional[dict], float]] = []
    lock = threading.Lock()
    pending = iter(jobs)

    def driver() -> None:
        while True:
            with lock:
                job = next(pending, None)
            if job is None:
                return
            results.append(_submit_and_wait(daemon, job))

    threads = [threading.Thread(target=driver) for _ in range(NPROC)]
    started = time.monotonic()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return (started, time.monotonic()), results


def _submit(daemon: Daemon, job: Template):
    from repro.serve.client import ServeClientError

    app, attack, guest, seed = job
    t0 = time.perf_counter()
    try:
        reply = daemon.client.submit(
            app, scale=JOB_SCALE, attack=attack, guest=guest, seed=seed
        )
    except ServeClientError:
        reply = None
    return reply, time.perf_counter() - t0


def _submit_and_wait(daemon: Daemon, job: Template):
    reply, rtt = _submit(daemon, job)
    return job, (_wait(daemon, reply) if reply else None), rtt


def _wait(daemon: Daemon, reply: dict) -> Optional[dict]:
    from repro.serve.client import ServeClientError

    try:
        return daemon.client.result(reply["id"], wait=True, timeout=MISS_S)
    except ServeClientError:
        return None


def _open_loop(daemon: Daemon, arrivals):
    """Submit on schedule from this thread; a second thread collects."""
    submitted: "queue.Queue" = queue.Queue()
    results: List[Tuple[Template, Optional[dict], float, float]] = []

    def collector() -> None:
        for job, due, reply, rtt in iter(submitted.get, None):
            results.append(
                (job, _wait(daemon, reply) if reply else None, rtt, due)
            )

    thread = threading.Thread(target=collector)
    thread.start()
    lateness: List[float] = []
    base = time.monotonic() + 0.05
    try:
        for offset, job in arrivals:
            due = base + offset
            delay = due - time.monotonic()
            if delay > 0:
                time.sleep(delay)
            lateness.append(max(0.0, time.monotonic() - due))
            reply, rtt = _submit(daemon, job)
            submitted.put((job, due, reply, rtt))
    finally:
        submitted.put(None)
        thread.join()
    return results, lateness


def _solo_scores(libdir, templates) -> Dict[Template, Tuple[int, int]]:
    """Reference scores: each template once on a freshly booted machine."""
    from repro.fleet import ProfileLibrary
    from repro.fleet.jobs import run_job_on_fresh_machine
    from repro.fleet.spec import FleetJob
    from repro.guest.config import resolve_guest

    library = ProfileLibrary(str(libdir))
    scores = {}
    for template in templates:
        app, attack, guest, seed = template
        config = resolve_guest(guest)
        job = FleetJob(app=app, scale=JOB_SCALE, attack=attack, seed=seed,
                       guest=config)
        record = library.get(app, config.build_digest())
        result = run_job_on_fresh_machine(job, record)
        scores[template] = (result.cycles, result.syscalls)
    return scores


def _check(template, response, solo, out: Outcome) -> bool:
    if response is None or response["job"]["state"] != "done":
        return False
    result = response["result"]
    if not result["ok"]:
        return False
    got = (result["cycles"], result["syscalls"])
    if got != solo[template]:
        out.mismatches.append(
            f"{template[:3]} seed {template[3]}: daemon {got} != solo "
            f"{solo[template]}"
        )
        return False
    return True


def _serve_layers(daemon: Daemon, closed, opened) -> Dict[str, tuple]:
    """serve.* per-layer figures from the daemon's public status/stats."""
    stats = daemon.client.stats()
    hits = sum(v["hits"] for v in stats["pool"].values())
    misses = sum(v["misses"] for v in stats["pool"].values())
    rejected = sum(
        stats["serve"]["labelled_counters"].get("serve.rejected", {}).values()
    )
    jobs = [r[1]["job"] for r in closed + opened if r[1] is not None]
    waits = [j["started_at"] - j["submitted_at"] for j in jobs]
    execs = [j["finished_at"] - j["started_at"] for j in jobs]
    rtts = [r[2] for r in closed + opened]
    return {
        "serve.pool.hit_ratio": (
            hits / (hits + misses) if hits + misses else 0.0, "ratio",
            f"{hits + misses} pool acquires",
        ),
        "serve.queue_wait.p50_s": (quantile(waits, 0.5), "s", f"{len(waits)} jobs"),
        "serve.queue_wait.p90_s": (quantile(waits, 0.9), "s", f"{len(waits)} jobs"),
        "serve.exec.p50_s": (quantile(execs, 0.5), "s", f"{len(execs)} jobs"),
        "serve.client.rtt_ms_p50": (
            quantile(rtts, 0.5) * 1e3, "ms", f"{len(rtts)} submit round trips",
        ),
        "serve.rejected.count": (rejected, "count", "rejections"),
    }


@dataclass
class _Served:
    """Everything one daemon's rounds produced."""

    templates: List[Template]
    #: per round, the closed loop's interval and its job count
    closed_rounds: List[Interval] = field(default_factory=list)
    closed_counts: List[int] = field(default_factory=list)
    closed: list = field(default_factory=list)
    #: per round, the open-loop results
    opened: List[list] = field(default_factory=list)
    lateness: List[float] = field(default_factory=list)
    layers: Dict[str, tuple] = field(default_factory=dict)
    peak_rss_mb: float = 0.0
    #: ``time.time()`` minus ``time.monotonic()``: maps the daemon's
    #: ``finished_at`` stamps onto this process's intervals
    clock_offset: float = 0.0


def _serve(daemon: Daemon, seed: int, seconds: float) -> _Served:
    templates, rounds = make_inputs(seed, seconds)
    served = _Served(templates, clock_offset=time.time() - time.monotonic())
    for closed_jobs, arrivals in rounds:
        interval, closed = _closed_loop(daemon, closed_jobs)
        served.closed_rounds.append(interval)
        served.closed_counts.append(len(closed))
        served.closed += closed
        opened, lateness = _open_loop(daemon, arrivals)
        served.opened.append(opened)
        served.lateness += lateness
    served.layers = _serve_layers(
        daemon, served.closed, [r for rnd in served.opened for r in rnd]
    )
    served.peak_rss_mb = proc_peak_rss_mb(daemon.proc.pid)
    return served


def _account(served: _Served, daemon: Daemon, out: Outcome) -> None:
    """Check every job against its solo run; fill ``out``'s samples."""
    solo = _solo_scores(daemon.libdir, served.templates)
    daemon.remove_files()
    for template, response, _ in served.closed:
        out.op(_check(template, response, solo, out))
    for opened in served.opened:
        latencies = []
        for template, response, _, due in opened:
            ok = _check(template, response, solo, out)
            out.op(ok)
            latencies.append(
                (due, response["job"]["finished_at"] - served.clock_offset)
                if ok else MISS_S
            )
        out.round_latencies.append(latencies)
    out.rounds = served.closed_rounds
    out.round_ops = served.closed_counts
    out.values["peak_rss_mb"] = served.peak_rss_mb
    out.layers.update(served.layers)
    lateness = served.lateness
    out.notes.append(
        f"open loop: {len(lateness)} requests at {OPEN_RATE}/s "
        f"offered; generator lateness median "
        f"{statistics.median(lateness) * 1e3:.3f} ms, max "
        f"{max(lateness) * 1e3:.3f} ms"
    )


def run(seed: int, seconds: float, out: Outcome, speed) -> None:
    """Untraced run.  ``SETUP_SAMPLES`` daemon starts, spread before and
    after the timed rounds; the first one after the probe serves.  The
    work runs in the daemon, so host speed comes from the sampler
    process."""
    for i in range(SETUP_SAMPLES):
        with speed.sampler():
            daemon = Daemon(f"setup{i}")
            out.setups.append(daemon.startup)
            if i == 1:
                try:
                    served = _serve(daemon, seed, seconds)
                finally:
                    daemon.stop()
            else:
                daemon.stop()
        if i == 1:
            _account(served, daemon, out)
        else:
            daemon.remove_files()


def run_traced(seed: int, seconds: float, out: Outcome, speed):
    """Half the run on a plain daemon, half on a traced one.

    ``out`` receives the traced half plus the plain half's operations.
    Returns the plain daemon's closed-loop intervals and the span summary
    the traced daemon wrote on exit.
    """
    plain = Outcome()
    prefix = str(OUT / "trace-serve-mix")
    for tag, target, trace_prefix in (
        ("plain", plain, None), ("traced", out, prefix),
    ):
        with speed.sampler():
            daemon = Daemon(tag, trace_prefix=trace_prefix)
            try:
                served = _serve(daemon, seed, seconds / 2)
            finally:
                daemon.stop()
        _account(served, daemon, target)
    out.absorb_ops(plain)
    out.notes.append(f"daemon spans written to {prefix}.spans")
    summary = json.loads(Path(prefix + ".json").read_text())
    return plain.rounds, summary
