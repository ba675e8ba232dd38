"""Priority job queue with admission control and per-tenant budgets.

The daemon's queue is where multi-tenancy becomes enforceable: every
submission names a *tenant*, and admission control decides -- before
the job ever touches a guest -- whether the fleet has room for it:

* a **global queue-depth cap** bounds total queued work, so one burst
  cannot grow the daemon's memory without bound;
* a **per-tenant in-flight cap** bounds how many jobs a single tenant
  may have queued or running at once, so no tenant starves the rest;
* a **per-tenant virtual-cycle budget** bounds how much guest compute
  a tenant may consume over the daemon's lifetime.  Admission rejects
  a tenant whose budget is spent, and workers abort a running job the
  moment it pushes its tenant past the limit (mid-job exhaustion is a
  first-class outcome, not an accounting leak).

Every rejection is accounted (``serve.rejected`` labelled by reason,
plus per-tenant tallies) so capacity planning has data, not anecdotes.

Scheduling is strict priority (higher first), FIFO within a priority
class.  Cancellation of a queued job is immediate; cancellation of a
running job sets a flag that the daemon's dispatch loop forwards to the
job's worker process, whose control check observes it after its next
run step.
"""

from __future__ import annotations

import heapq
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.fleet.spec import FleetJob

#: Terminal job states (no further transitions).
TERMINAL_STATES = frozenset({"done", "failed", "cancelled"})

#: Admission rejection reason codes (the ``serve.rejected`` labels).
REASON_QUEUE_FULL = "queue-full"
REASON_TENANT_IN_FLIGHT = "tenant-in-flight"
REASON_TENANT_BUDGET = "tenant-budget"
REASON_SHUTTING_DOWN = "shutting-down"
REASON_NO_PROFILE = "no-profile"


class AdmissionError(Exception):
    """A submission the daemon refused to queue."""

    def __init__(self, reason: str, message: str) -> None:
        super().__init__(message)
        self.reason = reason
        self.message = message


@dataclass(frozen=True)
class TenantPolicy:
    """Per-tenant admission limits (``None`` = unlimited)."""

    #: cap on jobs queued+running at once for this tenant
    max_in_flight: Optional[int] = None
    #: lifetime virtual-cycle budget for this tenant
    cycle_budget: Optional[int] = None


@dataclass
class QueuedJob:
    """One submission's full lifecycle record inside the daemon."""

    id: str
    tenant: str
    priority: int
    job: FleetJob
    state: str = "queued"  # queued | running | done | failed | cancelled
    submitted_at: float = 0.0
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    cancel_requested: bool = False
    #: JobResult.to_dict() once terminal (telemetry kept daemon-side)
    result: Optional[Dict[str, Any]] = None
    error: str = ""
    #: request trace id (client-minted or assigned at admission); one
    #: id links the submission, every lifecycle event, and the guest
    #: span forest in the obs archive
    trace_id: str = ""

    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL_STATES

    def describe(self) -> Dict[str, Any]:
        """The status dict shipped to clients."""
        data: Dict[str, Any] = {
            "id": self.id,
            "name": self.job.name or self.job.identity(),
            "app": self.job.app,
            "attack": self.job.attack,
            "tenant": self.tenant,
            "priority": self.priority,
            "state": self.state,
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "trace": self.trace_id,
        }
        if self.cancel_requested and not self.terminal:
            data["cancel_requested"] = True
        if self.error:
            data["error"] = self.error
        return data


@dataclass
class TenantState:
    """Lifetime accounting for one tenant."""

    name: str
    policy: TenantPolicy
    in_flight: int = 0
    submitted: int = 0
    completed: int = 0
    failed: int = 0
    cancelled: int = 0
    #: virtual cycles charged against the budget so far
    charged_cycles: int = 0
    rejections: Dict[str, int] = field(default_factory=dict)

    def remaining_cycles(self) -> Optional[int]:
        if self.policy.cycle_budget is None:
            return None
        return max(0, self.policy.cycle_budget - self.charged_cycles)

    def describe(self) -> Dict[str, Any]:
        return {
            "in_flight": self.in_flight,
            "submitted": self.submitted,
            "completed": self.completed,
            "failed": self.failed,
            "cancelled": self.cancelled,
            "charged_cycles": self.charged_cycles,
            "cycle_budget": self.policy.cycle_budget,
            "remaining_cycles": self.remaining_cycles(),
            "max_in_flight": self.policy.max_in_flight,
            "rejections": dict(self.rejections),
        }


class JobQueue:
    """Thread-safe priority queue with admission control.

    The queue owns job state transitions; the daemon's dispatch loop
    calls :meth:`next_job` / :meth:`finish`, the API
    layer calls :meth:`submit` / :meth:`cancel` / :meth:`get`.  A single
    condition variable serializes everything -- contention is tiny next
    to the cost of running a guest.
    """

    def __init__(
        self,
        max_depth: int = 64,
        default_policy: Optional[TenantPolicy] = None,
        policies: Optional[Dict[str, TenantPolicy]] = None,
        telemetry: Optional[Any] = None,
    ) -> None:
        self.max_depth = max_depth
        self.default_policy = default_policy or TenantPolicy()
        self.policies = dict(policies or {})
        self.telemetry = telemetry
        self._cond = threading.Condition()
        self._heap: List[tuple] = []  # (-priority, seq, job_id)
        self._seq = 0
        self._jobs: Dict[str, QueuedJob] = {}
        self._tenants: Dict[str, TenantState] = {}
        self._queued = 0
        self._running = 0
        self.accepting = True
        #: auto-assigned job names, per identity (matches FleetSpec)
        self._name_counts: Dict[str, int] = {}

    # -- internal helpers (called under the lock) ---------------------------

    def _tenant(self, name: str) -> TenantState:
        state = self._tenants.get(name)
        if state is None:
            policy = self.policies.get(name, self.default_policy)
            state = self._tenants[name] = TenantState(name=name, policy=policy)
        return state

    def _count(self, counter: str, label: Optional[str] = None) -> None:
        if self.telemetry is None:
            return
        if label is None:
            self.telemetry.counter(counter).inc()
        else:
            self.telemetry.labelled_counter(counter).inc(label)

    def _reject(self, tenant: TenantState, reason: str, message: str) -> None:
        tenant.rejections[reason] = tenant.rejections.get(reason, 0) + 1
        self._count("serve.rejected", reason)
        raise AdmissionError(reason, message)

    # -- submission / admission ---------------------------------------------

    def reject(self, tenant: str, reason: str, message: str) -> None:
        """Account and raise a rejection decided outside the queue
        (e.g. the daemon's missing-profile check)."""
        with self._cond:
            self._reject(self._tenant(tenant), reason, message)

    def assign_name(self, job: FleetJob) -> str:
        """Auto-name an unnamed job exactly like :class:`FleetSpec` does
        (``identity()#index``), so a sequence of daemon submissions and
        the equivalent batch spec derive identical per-job seeds."""
        with self._cond:
            if job.name:
                return job.name
            identity = job.identity()
            index = self._name_counts.get(identity, 0)
            self._name_counts[identity] = index + 1
            job.name = f"{identity}#{index}"
            return job.name

    def submit(
        self,
        job: FleetJob,
        tenant: str = "default",
        priority: int = 0,
        job_id: Optional[str] = None,
        trace_id: str = "",
    ) -> QueuedJob:
        """Admit ``job`` or raise :class:`AdmissionError` (with reason)."""
        with self._cond:
            state = self._tenant(tenant)
            if not self.accepting:
                self._reject(
                    state,
                    REASON_SHUTTING_DOWN,
                    "daemon is shutting down and no longer accepts jobs",
                )
            if self._queued >= self.max_depth:
                self._reject(
                    state,
                    REASON_QUEUE_FULL,
                    f"queue is full ({self._queued}/{self.max_depth} jobs "
                    "queued); retry later or raise --queue-depth",
                )
            cap = state.policy.max_in_flight
            if cap is not None and state.in_flight >= cap:
                self._reject(
                    state,
                    REASON_TENANT_IN_FLIGHT,
                    f"tenant {tenant!r} already has {state.in_flight} job(s) "
                    f"in flight (cap {cap})",
                )
            remaining = state.remaining_cycles()
            if remaining is not None and remaining <= 0:
                self._reject(
                    state,
                    REASON_TENANT_BUDGET,
                    f"tenant {tenant!r} has exhausted its virtual-cycle "
                    f"budget ({state.policy.cycle_budget} cycles)",
                )
            if job_id is None:
                job_id = f"job-{len(self._jobs) + 1:04d}"
            if job_id in self._jobs:
                raise AdmissionError(
                    "duplicate-id", f"job id {job_id!r} already exists"
                )
            queued = QueuedJob(
                id=job_id,
                tenant=tenant,
                priority=priority,
                job=job,
                submitted_at=time.time(),
                trace_id=trace_id,
            )
            self._jobs[job_id] = queued
            self._seq += 1
            heapq.heappush(self._heap, (-priority, self._seq, job_id))
            self._queued += 1
            state.in_flight += 1
            state.submitted += 1
            self._count("serve.submitted", tenant)
            return queued

    # -- dispatch side -------------------------------------------------------

    def next_job(self) -> Optional[QueuedJob]:
        """Pop the highest-priority queued job, or ``None`` if none is
        queued.  The returned job is transitioned to ``running``."""
        with self._cond:
            while self._heap:
                _, _, job_id = heapq.heappop(self._heap)
                job = self._jobs[job_id]
                if job.state != "queued":
                    continue  # cancelled while queued; already accounted
                job.state = "running"
                job.started_at = time.time()
                self._queued -= 1
                self._running += 1
                return job
            return None

    def finish(
        self,
        job: QueuedJob,
        state: str,
        result: Optional[Dict[str, Any]] = None,
        error: str = "",
        charged_cycles: int = 0,
    ) -> None:
        """Transition a running job to a terminal state and account it."""
        assert state in TERMINAL_STATES, state
        with self._cond:
            tenant = self._tenant(job.tenant)
            if job.state == "running":
                self._running -= 1
            elif job.state == "queued":
                self._queued -= 1
            job.state = state
            job.finished_at = time.time()
            job.result = result
            job.error = error
            tenant.in_flight -= 1
            tenant.charged_cycles += charged_cycles
            if state == "done":
                tenant.completed += 1
                self._count("serve.completed", job.tenant)
            elif state == "cancelled":
                tenant.cancelled += 1
                self._count("serve.cancelled", job.tenant)
            else:
                tenant.failed += 1
                self._count("serve.failed", job.tenant)
            self._cond.notify_all()

    # -- client side ---------------------------------------------------------

    def get(self, job_id: str) -> Optional[QueuedJob]:
        with self._cond:
            return self._jobs.get(job_id)

    def jobs(self) -> List[QueuedJob]:
        with self._cond:
            return list(self._jobs.values())

    def cancel(self, job_id: str) -> str:
        """Cancel ``job_id``.  Returns the action taken:

        * ``"cancelled"`` -- it was queued and is now terminally
          cancelled (it will never run);
        * ``"cancel-requested"`` -- it is running; the worker's next
          progress check aborts it;
        * raises :class:`KeyError` for unknown ids and
          :class:`ValueError` for already-terminal jobs.
        """
        with self._cond:
            job = self._jobs.get(job_id)
            if job is None:
                raise KeyError(job_id)
            if job.terminal:
                raise ValueError(
                    f"job {job_id} is already {job.state}; nothing to cancel"
                )
            job.cancel_requested = True
            if job.state == "queued":
                # immediate: the heap entry is skipped lazily on pop
                tenant = self._tenant(job.tenant)
                job.state = "cancelled"
                job.finished_at = time.time()
                job.error = "cancelled while queued"
                self._queued -= 1
                tenant.in_flight -= 1
                tenant.cancelled += 1
                self._count("serve.cancelled", job.tenant)
                self._cond.notify_all()
                return "cancelled"
            return "cancel-requested"

    def wait_terminal(
        self, job_id: str, timeout: Optional[float] = None
    ) -> Optional[QueuedJob]:
        """Block until ``job_id`` reaches a terminal state (or timeout)."""
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._cond:
            job = self._jobs.get(job_id)
            if job is None:
                raise KeyError(job_id)
            while not job.terminal:
                if deadline is None:
                    self._cond.wait()
                else:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0 or not self._cond.wait(remaining):
                        break
            return job if job.terminal else None

    def wait_drained(self, timeout: Optional[float] = None) -> bool:
        """Block until no job is queued or running.  True when drained."""
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._cond:
            while self._queued or self._running:
                if deadline is None:
                    self._cond.wait()
                else:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0 or not self._cond.wait(remaining):
                        return False
            return True

    def stop_accepting(self) -> None:
        with self._cond:
            self.accepting = False
            self._cond.notify_all()

    # -- budget plumbing for workers -----------------------------------------

    def remaining_budget(self, tenant: str) -> Optional[int]:
        with self._cond:
            return self._tenant(tenant).remaining_cycles()

    # -- stats ----------------------------------------------------------------

    @property
    def depth(self) -> int:
        with self._cond:
            return self._queued

    @property
    def running(self) -> int:
        with self._cond:
            return self._running

    def pressure(self) -> int:
        """Queued + running: the demand signal the autoscaler tracks."""
        with self._cond:
            return self._queued + self._running

    def describe(self) -> Dict[str, Any]:
        with self._cond:
            states: Dict[str, int] = {}
            for job in self._jobs.values():
                states[job.state] = states.get(job.state, 0) + 1
            return {
                "depth": self._queued,
                "running": self._running,
                "max_depth": self.max_depth,
                "accepting": self.accepting,
                "states": states,
                "tenants": {
                    name: state.describe()
                    for name, state in sorted(self._tenants.items())
                },
            }
