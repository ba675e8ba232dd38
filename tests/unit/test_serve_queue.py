"""Job queue: admission control, tenant budgets, priority, cancel."""

import threading

import pytest

from repro.fleet.spec import FleetJob
from repro.serve.queue import (
    REASON_QUEUE_FULL,
    REASON_SHUTTING_DOWN,
    REASON_TENANT_BUDGET,
    REASON_TENANT_IN_FLIGHT,
    AdmissionError,
    JobQueue,
    TenantPolicy,
)
from repro.telemetry import Telemetry


def _job(app="top", **kw):
    return FleetJob(app=app, scale=1, **kw)


# ---------------------------------------------------------------------------
# naming (seed-identity with the batch fleet)
# ---------------------------------------------------------------------------


def test_assign_name_matches_fleet_spec_convention():
    queue = JobQueue()
    jobs = [_job(), _job(), _job("gzip")]
    for job in jobs:
        queue.assign_name(job)
        queue.submit(job)
    assert [j.name for j in jobs] == ["top#0", "top#1", "gzip#0"]


def test_assign_name_respects_explicit_names():
    queue = JobQueue()
    named = _job(name="mine")
    queue.assign_name(named)
    assert named.name == "mine"
    auto = _job()
    queue.assign_name(auto)
    assert auto.name == "top#0"


# ---------------------------------------------------------------------------
# admission control
# ---------------------------------------------------------------------------


def test_queue_full_rejection_counts_and_reports():
    telemetry = Telemetry()
    queue = JobQueue(max_depth=2, telemetry=telemetry)
    queue.submit(_job())
    queue.submit(_job())
    with pytest.raises(AdmissionError) as err:
        queue.submit(_job())
    assert err.value.reason == REASON_QUEUE_FULL
    rejected = telemetry.labelled.get("serve.rejected")
    assert rejected.values[REASON_QUEUE_FULL] == 1
    assert (
        queue.describe()["tenants"]["default"]["rejections"][REASON_QUEUE_FULL]
        == 1
    )


def test_queue_full_counts_only_queued_not_running():
    queue = JobQueue(max_depth=1)
    queue.submit(_job())
    assert queue.next_job() is not None  # now running
    queue.submit(_job())  # depth back to 1: admitted


def test_tenant_in_flight_cap():
    policy = TenantPolicy(max_in_flight=1)
    queue = JobQueue(policies={"acme": policy})
    queue.submit(_job(), tenant="acme")
    with pytest.raises(AdmissionError) as err:
        queue.submit(_job(), tenant="acme")
    assert err.value.reason == REASON_TENANT_IN_FLIGHT
    # other tenants are unaffected
    queue.submit(_job(), tenant="other")


def test_tenant_budget_rejects_after_exhaustion():
    policy = TenantPolicy(cycle_budget=1000)
    queue = JobQueue(default_policy=policy)
    first = queue.submit(_job())
    running = queue.next_job()
    assert running is first
    queue.finish(running, "done", charged_cycles=1500)
    assert queue.remaining_budget("default") == 0
    with pytest.raises(AdmissionError) as err:
        queue.submit(_job())
    assert err.value.reason == REASON_TENANT_BUDGET


def test_stop_accepting_rejects_new_submissions():
    queue = JobQueue()
    queue.stop_accepting()
    with pytest.raises(AdmissionError) as err:
        queue.submit(_job())
    assert err.value.reason == REASON_SHUTTING_DOWN


# ---------------------------------------------------------------------------
# scheduling
# ---------------------------------------------------------------------------


def test_priority_order_then_fifo():
    queue = JobQueue()
    low = queue.submit(_job(), priority=0)
    high = queue.submit(_job(), priority=5)
    low2 = queue.submit(_job(), priority=0)
    order = [queue.next_job() for _ in range(3)]
    assert order == [high, low, low2]


def test_next_job_skips_cancelled_entries():
    queue = JobQueue()
    first = queue.submit(_job())
    second = queue.submit(_job())
    assert queue.cancel(first.id) == "cancelled"
    assert queue.next_job() is second
    assert first.state == "cancelled"


# ---------------------------------------------------------------------------
# cancel semantics
# ---------------------------------------------------------------------------


def test_cancel_queued_is_immediate_running_is_a_request():
    queue = JobQueue()
    running = queue.submit(_job())
    still_queued = queue.submit(_job())
    assert queue.next_job() is running
    assert queue.cancel(running.id) == "cancel-requested"
    assert running.cancel_requested and not running.terminal
    assert queue.cancel(still_queued.id) == "cancelled"
    assert still_queued.terminal


def test_cancel_unknown_and_terminal():
    queue = JobQueue()
    with pytest.raises(KeyError):
        queue.cancel("job-9999")
    job = queue.submit(_job())
    queue.next_job()
    queue.finish(job, "done")
    with pytest.raises(ValueError):
        queue.cancel(job.id)


# ---------------------------------------------------------------------------
# drain / waiting
# ---------------------------------------------------------------------------


def test_wait_drained_blocks_until_all_terminal():
    queue = JobQueue()
    job = queue.submit(_job())
    running = queue.next_job()
    assert not queue.wait_drained(timeout=0.05)

    def finish():
        queue.finish(running, "done", charged_cycles=10)

    timer = threading.Timer(0.05, finish)
    timer.start()
    try:
        assert queue.wait_drained(timeout=2.0)
    finally:
        timer.cancel()
    assert job.terminal


def test_wait_terminal_returns_finished_job():
    queue = JobQueue()
    job = queue.submit(_job())
    assert queue.wait_terminal(job.id, timeout=0.05) is None
    queue.next_job()
    queue.finish(job, "failed", error="boom")
    found = queue.wait_terminal(job.id, timeout=0.5)
    assert found is job and found.state == "failed"


def test_pressure_counts_backlog_and_running():
    queue = JobQueue()
    assert queue.pressure() == 0
    queue.submit(_job())
    queue.submit(_job())
    assert queue.pressure() == 2
    queue.next_job()
    assert queue.pressure() == 2  # one running + one queued
