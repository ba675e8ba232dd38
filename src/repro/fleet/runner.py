"""Fleet runner: a work-queue scheduler over snapshot-forked guests.

The parent process boots **one** machine per guest variant, captures a
:class:`~repro.fleet.snapshot.MachineSnapshot`, and loads every needed
profile from the library.  Only then does it fork its worker
processes -- ``spec.workers`` of them, for every worker count -- which
inherit the snapshots, the warm assembler caches and the loaded
profile records through the copied address space with **zero pickling
and zero re-boots**.  Each job then costs a worker one in-memory CoW
machine fork plus the workload itself; a worker runs job after job
until none are left.

Isolation properties:

* a job that raises inside its worker returns a failure
  :class:`JobResult` -- it cannot take the fleet down;
* each job has a wall-clock timeout, counted from its own start; a
  stuck worker is killed, its job marked failed, a fresh worker forked
  for the jobs still waiting, and the fleet carries on;
* every worker talks to the parent over a private pipe, so killing one
  cannot corrupt another's messages;
* guests never share mutable state -- every clone has private frames
  (CoW) and a private telemetry registry, merged only after the fact.

The job itself runs through :func:`repro.fleet.jobs.execute_job`, the
same path the serve daemon uses; with a watcher or a journal directory
configured it streams ``heartbeat`` / ``journal`` messages between the
worker's own ``start`` and ``done``.  Platforms without ``fork`` fall
back to running the jobs one by one in this process (no timeout
there); results are bit-identical either way.
"""

from __future__ import annotations

import multiprocessing
import sys
import time
import traceback
from dataclasses import dataclass, field
from multiprocessing.connection import wait
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

from repro.fleet.jobs import TIMEOUT_ERROR, JobResult, execute_job
from repro.fleet.library import ProfileLibrary, ProfileRecord
from repro.fleet.snapshot import MachineSnapshot
from repro.fleet.spec import FleetJob, FleetSpec
from repro.guest.config import GuestConfig
from repro.guest.machine import boot_machine
from repro.telemetry.journal import TraceJournalWriter
from repro.telemetry.merge import merge_snapshots

Message = Dict[str, Any]


@dataclass
class FleetReport:
    """Everything one fleet run produced, merge included."""

    spec_name: str
    workers: int
    mode: str
    results: List[Dict[str, Any]] = field(default_factory=list)
    telemetry: Dict[str, Any] = field(default_factory=dict)
    wall_seconds: float = 0.0
    forked: int = 0
    base_frames: int = 0
    #: guest variants the fleet ran on: short digest -> label + job count
    variants: Dict[str, Any] = field(default_factory=dict)
    #: per-job journal files written when a journal dir was configured
    journal_paths: Dict[str, str] = field(default_factory=dict)

    @property
    def completed(self) -> int:
        return sum(1 for r in self.results if r["ok"])

    @property
    def failed(self) -> int:
        return len(self.results) - self.completed

    @property
    def throughput(self) -> float:
        """Completed jobs per wall-clock second."""
        return self.completed / self.wall_seconds if self.wall_seconds else 0.0

    def to_dict(self) -> Dict[str, Any]:
        results = []
        for r in self.results:
            row = dict(r)
            row.pop("telemetry", None)
            results.append(row)
        return {
            "spec": self.spec_name,
            "workers": self.workers,
            "mode": self.mode,
            "jobs": len(self.results),
            "completed": self.completed,
            "failed": self.failed,
            "wall_seconds": self.wall_seconds,
            "throughput_jobs_per_s": self.throughput,
            "forked": self.forked,
            "base_frames": self.base_frames,
            "variants": self.variants,
            "journal_paths": self.journal_paths,
            "results": results,
            "telemetry": self.telemetry,
        }

    def format_summary(self) -> str:
        lines = [
            f"fleet {self.spec_name!r}: {self.completed}/{len(self.results)} "
            f"jobs completed in {self.wall_seconds:.2f}s "
            f"({self.throughput:.2f} jobs/s, {self.workers} workers, {self.mode})"
        ]
        if len(self.variants) > 1:
            variant_bits = ", ".join(
                f"{info['label']} x{info['jobs']}"
                for info in self.variants.values()
            )
            lines.append(f"  guest variants: {variant_bits}")
        for r in self.results:
            status = "ok" if r["ok"] else "FAILED"
            extra = ""
            if r.get("detected") is not None:
                extra = "  detected" if r["detected"] else "  missed"
            if not r["ok"]:
                extra = f"  {r['error'].splitlines()[0] if r['error'] else ''}"
            lines.append(
                f"  {r['name']:<24} {status:<7} "
                f"cycles={r['cycles']:<14} syscalls={r['syscalls']:<8}{extra}"
            )
        return "\n".join(lines)


class FleetRunner:
    """Schedules a :class:`FleetSpec` across snapshot-forked guests."""

    def __init__(
        self,
        spec: FleetSpec,
        library: ProfileLibrary,
        snapshot: Optional[MachineSnapshot] = None,
        on_message: Optional[Callable[[Message], None]] = None,
        heartbeat_interval: float = 0.5,
        journal_dir: Optional[Any] = None,
    ) -> None:
        self.spec = spec
        self.library = library
        self.snapshot = snapshot
        #: parent-side sink for live worker messages (watch mode)
        self.on_message = on_message
        self.heartbeat_interval = heartbeat_interval
        self.journal_dir = Path(journal_dir) if journal_dir is not None else None
        #: inherited by forked workers: one snapshot per guest digest and
        #: profile records keyed by (app, guest build digest)
        self._snapshots: Dict[str, MachineSnapshot] = {}
        self._records: Dict[Any, ProfileRecord] = {}
        #: per-job journal files being reassembled (journal_dir mode)
        self._journals: Dict[str, TraceJournalWriter] = {}

    def _guest_configs(self) -> Dict[str, GuestConfig]:
        """Distinct guest variants in the spec, keyed by full digest."""
        configs: Dict[str, GuestConfig] = {}
        for job in self.spec.jobs:
            config = job.guest_config()
            configs.setdefault(config.digest(), config)
        return configs

    def _load_records(self) -> Dict[Any, ProfileRecord]:
        """Checksum-validated profile load for every (app, build) pair."""
        records: Dict[Any, ProfileRecord] = {}
        for job in self.spec.jobs:
            build = job.guest_config().build_digest()
            key = (job.app, build)
            if key not in records:
                records[key] = self.library.get(job.app, build)
        return records

    @property
    def streaming(self) -> bool:
        """True when jobs should stream live messages to the parent."""
        return self.on_message is not None or self.journal_dir is not None

    def run(self) -> FleetReport:
        started = time.perf_counter()
        self._records = self._load_records()
        configs = self._guest_configs()
        # one snapshot per guest variant: booted once, forked many times
        snapshots: Dict[str, MachineSnapshot] = {}
        if self.snapshot is not None:
            snapshots[self.snapshot.guest_digest] = self.snapshot
        for digest, config in configs.items():
            if digest not in snapshots:
                snapshots[digest] = boot_machine(config=config).snapshot()
        if self.snapshot is None and len(configs) == 1:
            self.snapshot = next(iter(snapshots.values()))
        self._snapshots = snapshots
        if "fork" in multiprocessing.get_all_start_methods():
            mode = "processes"
            results = self._run_processes()
        else:
            mode = "serial"
            results = [self._run_job(job, self._dispatch) for job in self.spec.jobs]
        journal_paths = {}
        for name, writer in sorted(self._journals.items()):
            writer.close()
            journal_paths[name] = str(writer.path)
        telemetry = merge_snapshots(
            [r["telemetry"] for r in results if r.get("telemetry")]
        )
        variant_jobs: Dict[str, int] = {}
        for job in self.spec.jobs:
            digest = job.guest_config().digest()
            variant_jobs[digest] = variant_jobs.get(digest, 0) + 1
        return FleetReport(
            spec_name=self.spec.name,
            workers=self.spec.workers,
            mode=mode,
            results=results,
            telemetry=telemetry,
            wall_seconds=time.perf_counter() - started,
            # a job that shipped telemetry necessarily ran on a clone
            forked=sum(1 for r in results if r.get("telemetry")),
            base_frames=sum(snap.frame_count for snap in snapshots.values()),
            variants={
                digest[:12]: {
                    "label": configs[digest].label(),
                    "jobs": count,
                }
                for digest, count in sorted(variant_jobs.items())
            },
            journal_paths=journal_paths,
        )

    # -- one job ------------------------------------------------------------------

    def _run_job(self, job: FleetJob, send: Callable[[Message], None]) -> Message:
        """Fork a clone, run ``job`` on it, and return the result dict.

        ``send`` carries the job's ``start`` / ``done`` messages (and,
        when streaming, everything :func:`execute_job` streams).  Any
        exception -- a crashed guest, a broken driver -- becomes a
        failure result here, so one bad job never takes the fleet down.
        """
        name = job.name or job.identity()
        send({"type": "start", "job": name, "app": job.app})
        try:
            guest = job.guest_config()
            digest = guest.digest()
            clone = self._snapshots[digest].fork(expect_digest=digest)
            record = self._records[(job.app, guest.build_digest())]
            result = execute_job(
                clone, job, record,
                base_seed=self.spec.seed,
                sink=send if self.streaming else None,
                heartbeat=self.heartbeat_interval,
            )
        except Exception as exc:  # noqa: BLE001 - crash isolation boundary
            result = JobResult(
                name=name,
                app=job.app,
                attack=job.attack,
                ok=False,
                seed=job.effective_seed(self.spec.seed),
                error=(
                    f"{type(exc).__name__}: {exc}\n"
                    f"{traceback.format_exc(limit=4)}"
                ),
            )
        send({"type": "done", "job": name, "ok": result.ok, "error": result.error})
        data = result.to_dict()
        data["telemetry"] = result.telemetry
        return data

    def _worker(self, conn: Any) -> None:
        """Worker-process loop: run each job index received until ``None``.

        Jobs arrive as indexes into ``spec.jobs``, which the worker
        inherited through ``fork``; messages and the result go back over
        the same private pipe.
        """
        for index in iter(conn.recv, None):
            job = self.spec.jobs[index]
            conn.send({"type": "result", "data": self._run_job(job, conn.send)})

    def _fail(self, job: FleetJob, error: str) -> Message:
        """Parent-side failure for a job whose worker gave no result."""
        name = job.name or job.identity()
        self._dispatch({"type": "done", "job": name, "ok": False, "error": error})
        return JobResult(
            name=name, app=job.app, attack=job.attack, ok=False, error=error
        ).to_dict()

    # -- scheduling -----------------------------------------------------------------

    def _run_processes(self) -> List[Message]:
        """Run the jobs on up to ``spec.workers`` forked worker processes.

        One poll loop hands each idle worker the next job, relays worker
        messages as they arrive, collects results, and kills any worker
        whose job has run past its ``timeout`` (counted from that job's
        own start); a replacement is forked while jobs remain.
        """
        context = multiprocessing.get_context("fork")
        pending = list(range(len(self.spec.jobs)))
        results: List[Optional[Message]] = [None] * len(pending)
        #: parent end of each busy worker's pipe -> (process, job index, start)
        busy: Dict[Any, Any] = {}

        def assign(conn: Any, process: Any) -> None:
            index = pending.pop(0)
            conn.send(index)
            busy[conn] = (process, index, time.monotonic())

        try:
            while pending or busy:
                while pending and len(busy) < self.spec.workers:
                    conn, child_conn = context.Pipe()
                    # nothing buffered may be inherited and flushed twice
                    sys.stdout.flush()
                    sys.stderr.flush()
                    process = context.Process(
                        target=self._worker, args=(child_conn,), daemon=True
                    )
                    process.start()
                    child_conn.close()
                    assign(conn, process)
                for conn in wait(list(busy), timeout=0.05):
                    process, index, _ = busy[conn]
                    try:
                        message = conn.recv()
                    except (EOFError, OSError):
                        message = None
                    if message is not None and message["type"] != "result":
                        self._dispatch(message)
                        continue
                    del busy[conn]
                    if message is not None:
                        results[index] = message["data"]
                        if pending:
                            assign(conn, process)
                            continue
                        conn.send(None)  # no work left: the worker exits
                    process.join()
                    conn.close()
                    if message is None:
                        results[index] = self._fail(
                            self.spec.jobs[index],
                            f"worker exited with code {process.exitcode} "
                            "before returning a result",
                        )
                now = time.monotonic()
                for conn, (process, index, began) in list(busy.items()):
                    job = self.spec.jobs[index]
                    if now - began > job.timeout:
                        del busy[conn]
                        process.kill()
                        process.join()
                        conn.close()
                        results[index] = self._fail(job, TIMEOUT_ERROR)
        finally:
            for conn, (process, _, _) in busy.items():
                process.kill()
                process.join()
                conn.close()
        return results

    # -- live message plumbing ------------------------------------------------------

    def _dispatch(self, message: Message) -> None:
        if self.journal_dir is not None and message["type"] == "journal":
            name = message["job"]
            writer = self._journals.get(name)
            if writer is None:
                self.journal_dir.mkdir(parents=True, exist_ok=True)
                writer = self._journals[name] = TraceJournalWriter(
                    self.journal_dir / f"{name.replace('/', '_')}.jsonl",
                    meta={"job": name, "spec": self.spec.name},
                )
            writer.extend(message["records"], message["dropped"])
        if self.on_message is not None:
            self.on_message(message)


def run_fleet(
    spec: FleetSpec,
    library: ProfileLibrary,
    snapshot: Optional[MachineSnapshot] = None,
    on_message: Optional[Callable[[Message], None]] = None,
    heartbeat_interval: float = 0.5,
    journal_dir: Optional[Any] = None,
) -> FleetReport:
    """Convenience wrapper: build a :class:`FleetRunner` and run it."""
    return FleetRunner(
        spec,
        library,
        snapshot=snapshot,
        on_message=on_message,
        heartbeat_interval=heartbeat_interval,
        journal_dir=journal_dir,
    ).run()
