"""The serve daemon: a long-lived, multi-tenant fleet control plane.

``repro serve`` turns the batch fleet into a service.  One daemon
process owns:

* a :class:`~repro.serve.queue.JobQueue` -- priority scheduling with
  admission control and per-tenant virtual-cycle budgets;
* a :class:`~repro.serve.pool.WarmPool` -- per-guest-variant machine
  snapshots booted once, plus pre-forked clones refilled in the
  background, so a submission's critical path is just the workload;
* an **autoscaling worker pool** -- in-process worker threads grown and
  shrunk between configured bounds by queue pressure (each clone is
  private, so thread workers are bit-identical to the fleet's forked
  processes);
* a **JSON-lines control socket** (``repro ctl``) -- submit, status,
  result, cancel, stats, watch (streamed heartbeats + journal
  segments), shutdown-with-drain.

Jobs execute through exactly the same :func:`repro.fleet.jobs.execute_job`
call as the batch fleet, on forks pinned by config digest, with seeds
derived from the same ``identity()#index`` naming convention -- so a
daemon-submitted job's virtual-cycle score is bit-identical to the same
job in a ``repro fleet`` batch (``benchmarks/record_serve_throughput.py``
enforces it).  The daemon hands ``execute_job`` its event stream as the
message sink (every message stamped with job id, tenant and trace id)
and a control check that aborts the job on cancel, on tenant-budget
exhaustion, or once it has run longer than its ``timeout``.

Telemetry: the daemon keeps its own ``serve.*`` registry (submissions,
rejections by reason, pool hits/misses/refills, worker scale events)
and folds every finished job's guest registry into one lifetime merge
via :func:`repro.telemetry.merge.merge_into`.
"""

from __future__ import annotations

import json
import os
import queue as queue_mod
import threading
import time
import traceback
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from repro.fleet.jobs import TIMEOUT_ERROR, execute_job, prepare_offline_phase
from repro.fleet.library import ProfileLibrary, ProfileRecord
from repro.fleet.spec import DEFAULT_SEED, FleetJob
from repro.guest.config import GuestConfigError, resolve_guest
from repro.obs.metrics import AlertRule, MetricsRecorder
from repro.obs.store import (
    DEFAULT_COMPACT_AFTER_SECONDS,
    DEFAULT_RETAIN_SECONDS,
    DEFAULT_ROTATE_BYTES,
    DEFAULT_ROTATE_SECONDS,
    ObsStore,
)
from repro.serve import protocol
from repro.serve.pool import WarmPool
from repro.serve.queue import (
    REASON_NO_PROFILE,
    AdmissionError,
    JobQueue,
    QueuedJob,
    TenantPolicy,
)
from repro.serve.webhook import AlertWebhook
from repro.telemetry import Telemetry
from repro.telemetry.export import snapshot as telemetry_snapshot
from repro.telemetry.merge import empty_merge, merge_into

#: A running job's error text, by :class:`JobAborted` reason.
_ABORT_ERRORS = {
    "cancelled": "cancelled while running",
    "tenant-budget": "tenant virtual-cycle budget exhausted mid-job",
    "timeout": TIMEOUT_ERROR,
}

#: Events retained for late ``watch`` subscribers.
_EVENT_BACKLOG = 8192

#: Per-subscriber bounded event buffer (slow watchers drop, not block).
_WATCH_BUFFER = 1024


class ServeError(Exception):
    """Daemon-side operational failure (not an admission rejection)."""


class JobAborted(Exception):
    """Raised from the job's control check to stop a running job.

    ``reason`` is ``"cancelled"``, ``"tenant-budget"`` or ``"timeout"``;
    ``consumed_cycles`` is charged against the tenant in every case.
    """

    def __init__(self, reason: str, consumed_cycles: int) -> None:
        super().__init__(reason)
        self.reason = reason
        self.consumed_cycles = consumed_cycles


class EventSink:
    """A bounded per-subscriber event buffer.

    ``offer`` never blocks: a consumer that stops reading fills its own
    buffer and starts *dropping its own copies* of events -- the daemon
    and every other watcher are unaffected.  Drops are accounted per
    sink (``take_dropped`` feeds the synthetic ``watch-dropped`` event
    the stream handler sends when the consumer catches up) and in the
    daemon's ``serve.watch.dropped`` counter.
    """

    def __init__(self, maxsize: int = _WATCH_BUFFER) -> None:
        self._queue: queue_mod.Queue = queue_mod.Queue(maxsize=maxsize)
        self._lock = threading.Lock()
        self.dropped_total = 0
        self._dropped_pending = 0

    def offer(self, event: Dict[str, Any]) -> bool:
        """Enqueue without blocking; False (and a drop) when full."""
        try:
            self._queue.put_nowait(event)
            return True
        except queue_mod.Full:
            with self._lock:
                self.dropped_total += 1
                self._dropped_pending += 1
            return False

    def get(self, timeout: Optional[float] = None) -> Dict[str, Any]:
        return self._queue.get(timeout=timeout)

    def take_dropped(self) -> int:
        """Drops since the last call (consumed for drop-accounting)."""
        with self._lock:
            pending = self._dropped_pending
            self._dropped_pending = 0
            return pending


class ServeDaemon:
    """The long-lived fleet service (see module docstring)."""

    def __init__(
        self,
        library: ProfileLibrary,
        socket_path: Optional[str] = None,
        min_workers: int = 1,
        max_workers: int = 4,
        max_queue_depth: int = 64,
        default_policy: Optional[TenantPolicy] = None,
        policies: Optional[Dict[str, TenantPolicy]] = None,
        warm_target: int = 2,
        base_seed: int = DEFAULT_SEED,
        heartbeat_interval: float = 0.25,
        auto_profile: bool = False,
        profile_scale: int = 4,
        executor: Optional[Callable[[QueuedJob], Any]] = None,
        scale_interval: float = 0.05,
        metrics_interval: Optional[float] = 1.0,
        metrics_addr: Optional[str] = None,
        slo_latency: Optional[float] = None,
        alert_rules: Optional[Iterable[AlertRule]] = None,
        watch_buffer: int = _WATCH_BUFFER,
        obs_dir: Optional[str] = None,
        obs_rotate_bytes: int = DEFAULT_ROTATE_BYTES,
        obs_rotate_seconds: float = DEFAULT_ROTATE_SECONDS,
        obs_retain_seconds: float = DEFAULT_RETAIN_SECONDS,
        obs_compact_after: float = DEFAULT_COMPACT_AFTER_SECONDS,
        alert_webhook: Optional[str] = None,
    ) -> None:
        if min_workers < 1:
            raise ValueError(f"min_workers must be >= 1, got {min_workers}")
        if max_workers < min_workers:
            raise ValueError(
                f"max_workers ({max_workers}) < min_workers ({min_workers})"
            )
        self.library = library
        self.socket_path = socket_path
        self.min_workers = min_workers
        self.max_workers = max_workers
        self.base_seed = base_seed
        self.heartbeat_interval = heartbeat_interval
        self.auto_profile = auto_profile
        self.profile_scale = profile_scale
        self.scale_interval = scale_interval
        #: the daemon's own registry: serve.* control-plane counters
        self.telemetry = Telemetry()
        self.queue = JobQueue(
            max_depth=max_queue_depth,
            default_policy=default_policy,
            policies=policies,
            telemetry=self.telemetry,
        )
        self.pool = WarmPool(warm_target=warm_target, telemetry=self.telemetry)
        self._executor = executor or self._execute
        self._records: Dict[Any, ProfileRecord] = {}
        self._records_lock = threading.Lock()
        #: merged guest telemetry across every finished job, ever
        self._lifetime = empty_merge()
        self._lifetime_lock = threading.Lock()
        # event stream
        self._event_lock = threading.Lock()
        self._event_seq = 0
        self._events: List[Dict[str, Any]] = []
        self._subscribers: List[EventSink] = []
        self.watch_buffer = watch_buffer
        # service metrics: recorder, optional HTTP scrape
        if metrics_addr is not None and metrics_interval is None:
            metrics_interval = 1.0  # a scrape endpoint implies sampling
        self.metrics: Optional[MetricsRecorder] = None
        if metrics_interval is not None:
            self.metrics = MetricsRecorder(
                interval=metrics_interval,
                rules=alert_rules,
                slo_latency=slo_latency,
            )
        self.metrics_addr = metrics_addr
        self.metrics_port: Optional[int] = None
        self._metrics_server = None
        self._metrics_thread: Optional[threading.Thread] = None
        self._stop_metrics = threading.Event()
        self._metrics_lock = threading.Lock()
        # persistent observability archive + alert webhook (opened in
        # start() so a constructed-but-never-started daemon touches
        # neither disk nor network)
        self.obs_dir = obs_dir
        self.obs_rotate_bytes = obs_rotate_bytes
        self.obs_rotate_seconds = obs_rotate_seconds
        self.obs_retain_seconds = obs_retain_seconds
        self.obs_compact_after = obs_compact_after
        self._obs_store: Optional[ObsStore] = None
        self.alert_webhook_url = alert_webhook
        self._webhook: Optional[AlertWebhook] = None
        # worker pool
        self._workers: Dict[int, threading.Thread] = {}
        self._workers_lock = threading.Lock()
        self._desired_workers = min_workers
        self._stop_workers = threading.Event()
        self._supervisor: Optional[threading.Thread] = None
        # server
        self._server_socket = None
        self._server_thread: Optional[threading.Thread] = None
        self._conn_threads: List[threading.Thread] = []
        self.started_at: Optional[float] = None
        self._stopping = threading.Event()
        self.stopped = threading.Event()

    # -- lifecycle -----------------------------------------------------------

    def start(
        self,
        apps: Optional[List[str]] = None,
        guests: Optional[List[Any]] = None,
    ) -> None:
        """Bring the daemon up: profiles, warm pools, workers, socket.

        ``apps`` are profiled into the library up front (once per kernel
        build); ``guests`` name the variants whose snapshot + warm-clone
        buffers are booted before the first submission arrives.
        """
        self.started_at = time.time()
        if self.obs_dir is not None:
            from repro.obs.metrics import DEFAULT_CAPACITY, DEFAULT_RESOLUTIONS

            self._obs_store = ObsStore(
                self.obs_dir,
                rotate_bytes=self.obs_rotate_bytes,
                rotate_seconds=self.obs_rotate_seconds,
                retain_seconds=self.obs_retain_seconds,
                compact_after=self.obs_compact_after,
                meta={
                    "role": "serve-obs",
                    "pid": os.getpid(),
                    "interval": (
                        self.metrics.interval
                        if self.metrics is not None
                        else None
                    ),
                    "resolutions": list(DEFAULT_RESOLUTIONS),
                    "capacity": DEFAULT_CAPACITY,
                },
            )
        if self.alert_webhook_url:
            self._webhook = AlertWebhook(
                self.alert_webhook_url, telemetry=self.telemetry
            )
            self._webhook.start()
        configs = [resolve_guest(ref) for ref in (guests or [None])]
        seen = set()
        for config in configs:
            if config.digest() in seen:
                continue
            seen.add(config.digest())
            if apps:
                prepare_offline_phase(
                    self.library, sorted(set(apps)),
                    scale=self.profile_scale, guest=config,
                )
            self.pool.ensure(config)
        self.pool.prewarm()
        self.pool.start_refill_thread()
        self._scale_to(self.min_workers)
        self._supervisor = threading.Thread(
            target=self._supervise, name="serve-supervisor", daemon=True
        )
        self._supervisor.start()
        if self.socket_path is not None:
            self._server_socket = protocol.listen(self.socket_path)
            self._server_thread = threading.Thread(
                target=self._accept_loop, name="serve-accept", daemon=True
            )
            self._server_thread.start()
        if self.metrics is not None:
            if self.metrics_addr is not None:
                self._start_metrics_http()
            self._metrics_thread = threading.Thread(
                target=self._metrics_loop, name="serve-metrics", daemon=True
            )
            self._metrics_thread.start()
        self._emit(
            {
                "type": "serve-started",
                "pid": os.getpid(),
                "variants": self.pool.variants(),
                "min_workers": self.min_workers,
                "max_workers": self.max_workers,
            }
        )

    def shutdown(
        self, drain: bool = True, timeout: Optional[float] = None
    ) -> Dict[str, Any]:
        """Stop the daemon.  With ``drain``, queued and running jobs all
        finish first (no result is ever lost to a shutdown); without,
        queued jobs are cancelled and only running jobs complete."""
        if self._stopping.is_set():
            self.stopped.wait(timeout=timeout)
            return {"drained": True, "jobs": self.queue.describe()["states"]}
        self._stopping.set()
        self.queue.stop_accepting()
        self._emit({"type": "serve-draining", "drain": drain})
        if not drain:
            for job in self.queue.jobs():
                if job.state == "queued":
                    try:
                        self.queue.cancel(job.id)
                    except (KeyError, ValueError):
                        pass
        drained = self.queue.wait_drained(timeout=timeout)
        if self.metrics is not None:
            # one final sample so alerts that clear on drain (queue
            # saturation, worker stall) resolve before the books close
            self._sample_metrics()
            self._stop_metrics.set()
            if self._metrics_thread is not None:
                self._metrics_thread.join(timeout=5.0)
        if self._metrics_server is not None:
            try:
                self._metrics_server.shutdown()
                self._metrics_server.server_close()
            except OSError:
                pass
            self._metrics_server = None
        self._stop_workers.set()
        self._desired_workers = 0
        with self._workers_lock:
            workers = list(self._workers.values())
        for thread in workers:
            thread.join(timeout=5.0)
        self.pool.stop()
        if self._server_socket is not None:
            try:
                self._server_socket.close()
            except OSError:
                pass
            if (
                self.socket_path
                and not protocol.is_tcp_address(self.socket_path)
                and os.path.exists(self.socket_path)
            ):
                try:
                    os.unlink(self.socket_path)
                except OSError:
                    pass
        summary = {
            "drained": drained,
            "jobs": self.queue.describe()["states"],
        }
        self._emit({"type": "serve-stopped", **summary})
        if self._webhook is not None:
            self._webhook.stop()
        if self._obs_store is not None:
            # after the serve-stopped event and the final sample above,
            # so the archive's last records cover the whole lifecycle
            self._obs_store.close()
        self.stopped.set()
        return summary

    def serve_forever(self) -> None:
        """Block until a ``shutdown`` request (or KeyboardInterrupt)."""
        try:
            while not self.stopped.is_set():
                self.stopped.wait(timeout=0.2)
        except KeyboardInterrupt:
            self.shutdown(drain=True)

    # -- event stream ---------------------------------------------------------

    def _emit(self, message: Dict[str, Any]) -> None:
        with self._event_lock:
            self._event_seq += 1
            event = {"seq": self._event_seq, **message}
            self._events.append(event)
            if len(self._events) > _EVENT_BACKLOG:
                del self._events[: len(self._events) - _EVENT_BACKLOG]
            subscribers = list(self._subscribers)
            if (
                self._obs_store is not None
                and message.get("type") != "journal"
            ):
                # archive lifecycle events in seq order (journal
                # segments go to the per-trace files instead -- they
                # can be megabytes); archive failure never breaks the
                # event stream
                try:
                    self._obs_store.append_event(event)
                except OSError:
                    self.telemetry.counter("serve.obs.errors").inc()
        dropped = 0
        for sink in subscribers:
            if not sink.offer(event):
                dropped += 1
        if dropped:
            self.telemetry.counter("serve.watch.dropped").inc(dropped)

    def subscribe(
        self, since: int = 0, maxsize: Optional[int] = None
    ) -> Tuple[EventSink, List[Dict[str, Any]]]:
        """Register a live event sink; returns (sink, backlog)."""
        sink = EventSink(maxsize=maxsize or self.watch_buffer)
        with self._event_lock:
            backlog = [e for e in self._events if e["seq"] > since]
            self._subscribers.append(sink)
        return sink, backlog

    def unsubscribe(self, sink) -> None:
        with self._event_lock:
            if sink in self._subscribers:
                self._subscribers.remove(sink)

    # -- submission ------------------------------------------------------------

    def _build_job(self, params: Dict[str, Any]) -> FleetJob:
        """Validate submission params into a FleetJob (ValueError on bad)."""
        from repro.apps.catalog import APP_CATALOG
        from repro.malware import ALL_ATTACKS

        app = params.get("app")
        if app not in APP_CATALOG:
            raise ValueError(
                f"unknown application {app!r} "
                f"(available: {', '.join(sorted(APP_CATALOG))})"
            )
        attack_name = params.get("attack")
        if attack_name is not None:
            attack = next(
                (a for a in ALL_ATTACKS if a.name == attack_name), None
            )
            if attack is None:
                raise ValueError(
                    f"unknown malware sample {attack_name!r} (available: "
                    f"{', '.join(sorted(a.name for a in ALL_ATTACKS))})"
                )
            if attack.host_app != app:
                raise ValueError(
                    f"{attack_name!r} infects {attack.host_app!r}, not {app!r}"
                )
        guest = None
        if params.get("guest") is not None:
            try:
                guest = resolve_guest(params["guest"])
            except GuestConfigError as exc:
                raise ValueError(f"guest: {exc}") from exc
        kwargs: Dict[str, Any] = {}
        if params.get("max_cycles") is not None:
            kwargs["max_cycles"] = int(params["max_cycles"])
        if params.get("timeout") is not None:
            kwargs["timeout"] = float(params["timeout"])
        return FleetJob(
            app=app,
            scale=int(params.get("scale", 2)),
            attack=attack_name,
            seed=params.get("seed"),
            guest=guest,
            name=str(params.get("name", "")),
            **kwargs,
        )

    def _has_profile(self, app: str, build_digest: str) -> bool:
        if (app, build_digest) in self._records:
            return True
        return (
            self.library.digest_of(app, build_digest) is not None
            or self.library.has(app)
        )

    def submit(
        self,
        params: Dict[str, Any],
        tenant: str = "default",
        priority: int = 0,
        trace_id: str = "",
    ) -> QueuedJob:
        """Admit one job (raises ValueError / AdmissionError).

        ``trace_id`` is normally minted by the client; a submission
        arriving without one gets an id minted here at admission, so
        every job is traceable end-to-end either way.
        """
        job = self._build_job(params)
        trace_id = str(trace_id or protocol.mint_trace_id())
        build = job.guest_config().build_digest()
        try:
            if not self.auto_profile and not self._has_profile(job.app, build):
                self.queue.reject(
                    tenant,
                    REASON_NO_PROFILE,
                    f"library has no profile for {job.app!r} on this kernel "
                    f"build; run 'repro.cli profile {job.app} --library ...' "
                    "or start the daemon with --auto-profile",
                )
            self.queue.assign_name(job)
            queued = self.queue.submit(
                job, tenant=tenant, priority=priority, trace_id=trace_id
            )
        except AdmissionError as exc:
            self._emit(
                {
                    "type": "rejected",
                    "app": job.app,
                    "tenant": tenant,
                    "reason": exc.reason,
                    "error": exc.message,
                    "trace": trace_id,
                }
            )
            raise
        self._emit(
            {
                "type": "queued",
                "id": queued.id,
                "job": job.name,
                "app": job.app,
                "tenant": tenant,
                "priority": priority,
                "trace": trace_id,
            }
        )
        return queued

    # -- worker pool ------------------------------------------------------------

    def _scale_to(self, desired: int) -> None:
        self._desired_workers = desired
        with self._workers_lock:
            alive = {
                wid for wid, t in self._workers.items() if t.is_alive()
            }
            for wid in range(desired):
                if wid not in alive:
                    thread = threading.Thread(
                        target=self._worker_loop,
                        args=(wid,),
                        name=f"serve-worker-{wid}",
                        daemon=True,
                    )
                    self._workers[wid] = thread
                    thread.start()
                    self.telemetry.counter("serve.workers.spawned").inc()

    def _supervise(self) -> None:
        """Autoscale between bounds by queue pressure."""
        while not self._stop_workers.is_set():
            pressure = self.queue.pressure()
            desired = min(self.max_workers, max(self.min_workers, pressure))
            if desired > self._desired_workers:
                self._scale_to(desired)
                self._emit(
                    {
                        "type": "scaled",
                        "workers": desired,
                        "pressure": pressure,
                    }
                )
            elif desired < self._desired_workers:
                # shrink lazily: idle workers with ids past the target
                # retire themselves on their next queue timeout
                self._desired_workers = desired
                self._emit(
                    {
                        "type": "scaled",
                        "workers": desired,
                        "pressure": pressure,
                    }
                )
            self._stop_workers.wait(timeout=self.scale_interval)

    def worker_count(self) -> int:
        with self._workers_lock:
            return sum(1 for t in self._workers.values() if t.is_alive())

    def _worker_loop(self, worker_id: int) -> None:
        while True:
            if self._stop_workers.is_set():
                break
            if worker_id >= self._desired_workers:
                # scaled down: retire only while idle
                with self._workers_lock:
                    self._workers.pop(worker_id, None)
                self.telemetry.counter("serve.workers.retired").inc()
                break
            job = self.queue.next_job(timeout=0.05)
            if job is None:
                continue
            self._run_one(job)

    # -- job execution -----------------------------------------------------------

    def _record_for(self, job: FleetJob) -> ProfileRecord:
        config = job.guest_config()
        key = (job.app, config.build_digest())
        with self._records_lock:
            record = self._records.get(key)
            if record is not None:
                return record
            if not self._has_profile(*key):
                if not self.auto_profile:
                    raise ServeError(
                        f"no profile for {job.app!r} on build "
                        f"{config.build_digest()[:12]}"
                    )
                prepare_offline_phase(
                    self.library, [job.app],
                    scale=self.profile_scale, guest=config,
                )
            record = self.library.get(job.app, config.build_digest())
            self._records[key] = record
            return record

    def _execute(self, qjob: QueuedJob):
        """Default executor: warm clone + the batch fleet's job path."""
        job = qjob.job
        record = self._record_for(job)
        started = time.monotonic()
        clone = self.pool.acquire(job.guest_config())
        name = job.name or job.identity()
        meta = {
            "trace": qjob.trace_id,
            "job": qjob.id,
            "name": name,
            "tenant": qjob.tenant,
            "app": job.app,
        }
        trace_writer = None
        if self._obs_store is not None and qjob.trace_id:
            try:
                trace_writer = self._obs_store.job_journal(qjob.trace_id, meta)
            except OSError:
                self.telemetry.counter("serve.obs.errors").inc()
        stamp = {"id": qjob.id, "tenant": qjob.tenant, "trace": qjob.trace_id}

        def sink(message: Dict[str, Any]) -> None:
            if trace_writer is not None and message["type"] == "journal":
                try:
                    trace_writer.extend(message["records"], message["dropped"])
                except OSError:
                    self.telemetry.counter("serve.obs.errors").inc()
            self._emit({**message, **stamp})

        def control(consumed: int) -> None:
            if qjob.cancel_requested:
                raise JobAborted("cancelled", consumed)
            remaining = self.queue.remaining_budget(qjob.tenant)
            if remaining is not None and consumed > remaining:
                raise JobAborted("tenant-budget", consumed)
            if time.monotonic() - started > job.timeout:
                raise JobAborted("timeout", consumed)

        try:
            return execute_job(
                clone, job, record,
                base_seed=self.base_seed,
                sink=sink,
                control=control,
                heartbeat=self.heartbeat_interval,
                meta=meta,
            )
        finally:
            if trace_writer is not None:
                try:
                    trace_writer.close()
                except OSError:
                    self.telemetry.counter("serve.obs.errors").inc()

    def _run_one(self, qjob: QueuedJob) -> None:
        job = qjob.job
        name = job.name or job.identity()
        self._emit(
            {
                "type": "start",
                "id": qjob.id,
                "job": name,
                "app": job.app,
                "tenant": qjob.tenant,
                "trace": qjob.trace_id,
            }
        )
        try:
            result = self._executor(qjob)
        except JobAborted as abort:
            state = "cancelled" if abort.reason == "cancelled" else "failed"
            error = _ABORT_ERRORS[abort.reason]
            self.queue.finish(
                qjob, state, error=error,
                charged_cycles=abort.consumed_cycles,
            )
            self._emit(
                {
                    "type": "cancelled" if state == "cancelled" else "done",
                    "id": qjob.id,
                    "job": name,
                    "tenant": qjob.tenant,
                    "ok": False,
                    "error": error,
                    "trace": qjob.trace_id,
                }
            )
            return
        except Exception as exc:  # noqa: BLE001 - crash isolation boundary
            error = (
                f"{type(exc).__name__}: {exc}\n"
                f"{traceback.format_exc(limit=4)}"
            )
            self.queue.finish(qjob, "failed", error=error)
            self._emit(
                {
                    "type": "done",
                    "id": qjob.id,
                    "job": name,
                    "tenant": qjob.tenant,
                    "ok": False,
                    "error": error.splitlines()[0],
                    "trace": qjob.trace_id,
                }
            )
            return
        data = result.to_dict()
        data["id"] = qjob.id
        data["tenant"] = qjob.tenant
        if result.telemetry:
            with self._lifetime_lock:
                merge_into(self._lifetime, result.telemetry)
        state = "done" if result.ok else "failed"
        self.queue.finish(
            qjob,
            state,
            result=data,
            error=result.error,
            charged_cycles=result.job_cycles,
        )
        self._emit(
            {
                "type": "done",
                "id": qjob.id,
                "job": name,
                "tenant": qjob.tenant,
                "ok": result.ok,
                "error": result.error,
                "cycles": result.cycles,
                "detected": result.detected,
                "trace": qjob.trace_id,
            }
        )

    # -- queries -----------------------------------------------------------------

    def stats(self) -> Dict[str, Any]:
        with self._lifetime_lock:
            import copy

            lifetime = copy.deepcopy(self._lifetime)
        return {
            "version": protocol.PROTOCOL_VERSION,
            "pid": os.getpid(),
            "uptime_seconds": (
                time.time() - self.started_at if self.started_at else 0.0
            ),
            "queue": self.queue.describe(),
            "pool": self.pool.stats(),
            "workers": {
                "alive": self.worker_count(),
                "desired": self._desired_workers,
                "min": self.min_workers,
                "max": self.max_workers,
            },
            "serve": telemetry_snapshot(self.telemetry),
            "jobs_telemetry": lifetime,
        }

    # -- service metrics ----------------------------------------------------------

    def metrics_view(self) -> Dict[str, Any]:
        """One sample tick's raw inputs, all from snapshot paths.

        Queue description, job lifecycle timestamps, pool stats, the
        ``serve.*`` registry and the lifetime job-telemetry merge --
        never a running machine, so sampling cannot perturb
        virtual-cycle scores.
        """
        jobs = [
            {
                "id": j.id,
                "tenant": j.tenant,
                "state": j.state,
                "submitted_at": j.submitted_at,
                "started_at": j.started_at,
                "finished_at": j.finished_at,
            }
            for j in self.queue.jobs()
        ]
        with self._lifetime_lock:
            jobs_counters = dict(self._lifetime["counters"])
            jobs_labelled = {
                name: dict(values)
                for name, values in self._lifetime["labelled_counters"].items()
            }
        return {
            "now": time.time(),
            "queue": self.queue.describe(),
            "jobs": jobs,
            "pool": self.pool.stats(),
            "workers": {
                "alive": self.worker_count(),
                "desired": self._desired_workers,
            },
            # dict() snapshots are atomic under the GIL; iterating the
            # live registry dicts would race with lazy counter creation
            "serve_counters": {
                name: counter.value
                for name, counter in dict(self.telemetry.counters).items()
            },
            "serve_labelled": {
                name: {str(k): v for k, v in dict(counter.values).items()}
                for name, counter in dict(self.telemetry.labelled).items()
            },
            "jobs_counters": jobs_counters,
            "jobs_labelled": jobs_labelled,
        }

    def _sample_metrics(self) -> List[Any]:
        """Take one sample tick and fan out any alert transitions."""
        if self.metrics is None:
            return []
        with self._metrics_lock:
            view = self.metrics_view()
            tap = [] if self._obs_store is not None else None
            transitions = self.metrics.sample(view, tap=tap)
            if self._obs_store is not None and tap:
                try:
                    self._obs_store.append_sample(view["now"], tap)
                except OSError:
                    self.telemetry.counter("serve.obs.errors").inc()
        for transition in transitions:
            self.telemetry.labelled_counter("serve.alerts").inc(
                f"{transition.rule}:{transition.state}"
            )
            self._emit({"type": "alert", **transition.to_dict()})
            if self._obs_store is not None:
                try:
                    self._obs_store.append_alert(transition)
                except OSError:
                    self.telemetry.counter("serve.obs.errors").inc()
            if self._webhook is not None:
                self._webhook.offer(
                    {"type": "alert", **transition.to_dict()}
                )
        return transitions

    def _metrics_loop(self) -> None:
        self._sample_metrics()
        while not self._stop_metrics.wait(timeout=self.metrics.interval):
            self._sample_metrics()

    def metrics_describe(self) -> Dict[str, Any]:
        """The compact JSON the ``metrics`` op and ``ctl top`` consume."""
        if self.metrics is None:
            raise ServeError("metrics recorder is disabled")
        data = self.metrics.describe()
        data["pid"] = os.getpid()
        data["uptime_seconds"] = (
            time.time() - self.started_at if self.started_at else 0.0
        )
        return data

    def metrics_text(self) -> str:
        """The Prometheus scrape body (socket op and HTTP listener)."""
        if self.metrics is None:
            raise ServeError("metrics recorder is disabled")
        import copy

        with self._lifetime_lock:
            jobs_snapshot = {
                "counters": dict(self._lifetime["counters"]),
                "labelled_counters": {
                    name: dict(values)
                    for name, values in self._lifetime[
                        "labelled_counters"
                    ].items()
                },
                "histograms": copy.deepcopy(self._lifetime["histograms"]),
            }
        return self.metrics.to_prometheus(
            serve_snapshot=telemetry_snapshot(self.telemetry),
            jobs_snapshot=jobs_snapshot,
        )

    def _start_metrics_http(self) -> None:
        from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

        daemon = self

        class MetricsHandler(BaseHTTPRequestHandler):
            def do_GET(self) -> None:  # noqa: N802 - stdlib interface
                if self.path in ("/", "/metrics"):
                    body = daemon.metrics_text().encode("utf-8")
                    ctype = "text/plain; version=0.0.4; charset=utf-8"
                elif self.path == "/metrics.json":
                    body = json.dumps(
                        daemon.metrics_describe(), sort_keys=True
                    ).encode("utf-8")
                    ctype = "application/json"
                else:
                    self.send_error(404, "try /metrics or /metrics.json")
                    return
                self.send_response(200)
                self.send_header("Content-Type", ctype)
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def log_message(self, *args: Any) -> None:
                pass  # scrapes are periodic; don't spam the daemon log

        host, _, port = self.metrics_addr.rpartition(":")
        if not host:
            raise ServeError(
                f"metrics address {self.metrics_addr!r} must be host:port"
            )
        server = ThreadingHTTPServer((host, int(port)), MetricsHandler)
        server.daemon_threads = True
        self._metrics_server = server
        self.metrics_port = server.server_address[1]
        threading.Thread(
            target=server.serve_forever,
            name="serve-metrics-http",
            daemon=True,
        ).start()

    # -- control socket ------------------------------------------------------------

    def _accept_loop(self) -> None:
        server = self._server_socket
        while not self._stopping.is_set():
            try:
                conn, _ = server.accept()
            except OSError:
                break  # socket closed during shutdown
            thread = threading.Thread(
                target=self._handle_connection, args=(conn,), daemon=True
            )
            thread.start()
            self._conn_threads = [
                t for t in self._conn_threads if t.is_alive()
            ] + [thread]

    def _handle_connection(self, conn) -> None:
        try:
            reader = conn.makefile("rb")
            request = protocol.recv_message(reader)
            if request is None:
                return
            self._dispatch_request(conn, reader, request)
        except (OSError, protocol.ProtocolError):
            pass
        finally:
            try:
                conn.close()
            except OSError:
                pass

    def _dispatch_request(self, conn, reader, request: Dict[str, Any]) -> None:
        op = request.get("op")
        try:
            if op == "ping":
                protocol.send_message(
                    conn,
                    {
                        "ok": True,
                        "version": protocol.PROTOCOL_VERSION,
                        "pid": os.getpid(),
                        "accepting": self.queue.accepting,
                    },
                )
            elif op == "submit":
                self._handle_submit(conn, request)
            elif op == "status":
                self._handle_status(conn, request)
            elif op == "result":
                self._handle_result(conn, request)
            elif op == "cancel":
                self._handle_cancel(conn, request)
            elif op == "stats":
                protocol.send_message(conn, {"ok": True, "stats": self.stats()})
            elif op == "metrics":
                self._handle_metrics(conn, request)
            elif op == "watch":
                self._handle_watch(conn, request)
            elif op == "shutdown":
                summary = self.shutdown(
                    drain=bool(request.get("drain", True)),
                    timeout=request.get("timeout"),
                )
                protocol.send_message(conn, {"ok": True, **summary})
            else:
                protocol.send_message(
                    conn,
                    {
                        "ok": False,
                        "reason": "unknown-op",
                        "error": f"unknown op {op!r}",
                    },
                )
        except (OSError, protocol.ProtocolError):
            pass  # client went away mid-response

    def _handle_submit(self, conn, request: Dict[str, Any]) -> None:
        tenant = str(request.get("tenant", "default"))
        priority = int(request.get("priority", 0))
        trace = str(request.get("trace") or "")
        try:
            queued = self.submit(
                request.get("job") or {},
                tenant=tenant,
                priority=priority,
                trace_id=trace,
            )
        except ValueError as exc:
            protocol.send_message(
                conn,
                {"ok": False, "reason": "bad-request", "error": str(exc)},
            )
            return
        except AdmissionError as exc:
            protocol.send_message(
                conn,
                {"ok": False, "reason": exc.reason, "error": exc.message},
            )
            return
        protocol.send_message(
            conn,
            {
                "ok": True,
                "id": queued.id,
                "name": queued.job.name,
                "state": queued.state,
                "trace": queued.trace_id,
            },
        )

    def _handle_status(self, conn, request: Dict[str, Any]) -> None:
        job_id = request.get("id")
        if job_id is None:
            protocol.send_message(
                conn,
                {
                    "ok": True,
                    "jobs": [
                        j.describe()
                        for j in sorted(
                            self.queue.jobs(), key=lambda j: j.id
                        )
                    ],
                },
            )
            return
        job = self.queue.get(str(job_id))
        if job is None:
            protocol.send_message(
                conn,
                {
                    "ok": False,
                    "reason": "unknown-job",
                    "error": f"unknown job id {job_id!r}",
                },
            )
            return
        protocol.send_message(conn, {"ok": True, "job": job.describe()})

    def _handle_result(self, conn, request: Dict[str, Any]) -> None:
        job_id = str(request.get("id", ""))
        wait = bool(request.get("wait", False))
        timeout = request.get("timeout")
        job = self.queue.get(job_id)
        if job is None:
            protocol.send_message(
                conn,
                {
                    "ok": False,
                    "reason": "unknown-job",
                    "error": f"unknown job id {job_id!r}",
                },
            )
            return
        if wait:
            job = self.queue.wait_terminal(
                job_id, timeout=float(timeout) if timeout else None
            )
            if job is None:
                protocol.send_message(
                    conn,
                    {
                        "ok": False,
                        "reason": "timeout",
                        "error": f"job {job_id} not finished within timeout",
                    },
                )
                return
        elif not job.terminal:
            protocol.send_message(
                conn,
                {
                    "ok": False,
                    "reason": "not-finished",
                    "error": f"job {job_id} is {job.state}; "
                    "pass wait to block for the result",
                },
            )
            return
        protocol.send_message(
            conn,
            {
                "ok": True,
                "job": job.describe(),
                "result": job.result,
            },
        )

    def _handle_cancel(self, conn, request: Dict[str, Any]) -> None:
        job_id = str(request.get("id", ""))
        try:
            action = self.queue.cancel(job_id)
        except KeyError:
            protocol.send_message(
                conn,
                {
                    "ok": False,
                    "reason": "unknown-job",
                    "error": f"unknown job id {job_id!r}",
                },
            )
            return
        except ValueError as exc:
            protocol.send_message(
                conn,
                {"ok": False, "reason": "already-terminal", "error": str(exc)},
            )
            return
        if action == "cancelled":
            job = self.queue.get(job_id)
            self._emit(
                {
                    "type": "cancelled",
                    "id": job_id,
                    "job": job.job.name if job else job_id,
                    "tenant": job.tenant if job else "",
                    "ok": False,
                    "error": "cancelled while queued",
                    "trace": job.trace_id if job else "",
                }
            )
        protocol.send_message(conn, {"ok": True, "action": action})

    def _handle_metrics(self, conn, request: Dict[str, Any]) -> None:
        if self.metrics is None:
            protocol.send_message(
                conn,
                {
                    "ok": False,
                    "reason": "no-metrics",
                    "error": "the daemon was started with metrics disabled "
                    "(metrics_interval=None)",
                },
            )
            return
        fmt = str(request.get("format", "json"))
        if fmt == "prom":
            protocol.send_message(
                conn, {"ok": True, "format": "prom", "text": self.metrics_text()}
            )
        elif fmt == "series":
            protocol.send_message(
                conn,
                {
                    "ok": True,
                    "format": "series",
                    "metrics": self.metrics.export_series(),
                },
            )
        else:
            protocol.send_message(
                conn,
                {
                    "ok": True,
                    "format": "json",
                    "metrics": self.metrics_describe(),
                },
            )

    def _handle_watch(self, conn, request: Dict[str, Any]) -> None:
        since = int(request.get("since", 0))
        sink, backlog = self.subscribe(since=since)
        try:
            protocol.send_message(conn, {"ok": True, "streaming": True})
            for event in backlog:
                protocol.send_message(conn, event)
            while not self.stopped.is_set():
                dropped = sink.take_dropped()
                if dropped:
                    # the consumer fell behind its bounded buffer; tell
                    # it exactly how many events it lost
                    protocol.send_message(
                        conn, {"type": "watch-dropped", "dropped": dropped}
                    )
                try:
                    event = sink.get(timeout=0.2)
                except queue_mod.Empty:
                    continue
                protocol.send_message(conn, event)
        finally:
            self.unsubscribe(sink)
