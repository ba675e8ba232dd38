"""Serve daemon end-to-end: real guests, bit-identity with the batch fleet.

The control plane is unit-tested with fake executors in
``tests/unit/test_serve_daemon.py``; here jobs really boot, fork and
run, and the headline invariant is enforced: a job submitted to the
daemon produces **exactly** the virtual-cycle score (cycles, syscalls)
that the same job produces in a ``repro fleet`` batch run.
"""

import pytest

from repro.fleet import ProfileLibrary, prepare_offline_phase, run_fleet
from repro.fleet.spec import FleetSpec
from repro.serve import ServeDaemon, TenantPolicy


@pytest.fixture(scope="module")
def library(tmp_path_factory):
    lib = ProfileLibrary(tmp_path_factory.mktemp("serve-lib"))
    prepare_offline_phase(lib, ["top"], scale=2)
    return lib


@pytest.fixture()
def daemon(library):
    d = ServeDaemon(library, min_workers=1, max_workers=2, warm_target=1)
    d.start()
    yield d
    d.shutdown(timeout=30.0)


def test_daemon_scores_bit_identical_to_batch_fleet(library, daemon):
    spec = FleetSpec.from_dict(
        {"name": "ref", "workers": 2, "scale": 2,
         "jobs": [{"app": "top"}, {"app": "top", "attack": "Injectso"}]}
    )
    report = run_fleet(spec, library)
    assert report.failed == 0
    batch = {
        r["name"]: (r["cycles"], r["syscalls"]) for r in report.results
    }

    clean = daemon.submit({"app": "top", "scale": 2})
    infected = daemon.submit(
        {"app": "top", "scale": 2, "attack": "Injectso"}
    )
    for qjob in (clean, infected):
        done = daemon.queue.wait_terminal(qjob.id, timeout=120.0)
        assert done is not None and done.state == "done", done.error

    # same auto-assigned names -> same derived seeds -> same scores
    assert clean.job.name == "top#0"
    assert infected.job.name == "top+Injectso#0"
    served = {
        q.job.name: (q.result["cycles"], q.result["syscalls"])
        for q in (clean, infected)
    }
    assert served == batch

    # the attack is detected through the warm-forked clone too
    assert infected.result["detected"] is True
    assert infected.result["evidence"]

    # jobs came off the warm pool, and lifetime telemetry covers both
    pool = daemon.pool.stats()
    assert sum(v["hits"] + v["misses"] for v in pool.values()) >= 2
    assert daemon.stats()["jobs_telemetry"]["sources"] == 2


def test_real_budget_exhaustion_aborts_mid_job(library):
    daemon = ServeDaemon(
        library,
        min_workers=1,
        max_workers=1,
        warm_target=0,
        default_policy=TenantPolicy(cycle_budget=10_000),
    )
    daemon.start()
    try:
        qjob = daemon.submit({"app": "top", "scale": 2})
        done = daemon.queue.wait_terminal(qjob.id, timeout=120.0)
        assert done.state == "failed"
        assert "budget exhausted mid-job" in done.error
        # the partial consumption was charged, pinning the tenant
        tenants = daemon.queue.describe()["tenants"]
        assert tenants["default"]["charged_cycles"] > 10_000
        assert daemon.queue.remaining_budget("default") == 0
    finally:
        daemon.shutdown(timeout=30.0)


def test_cancel_queued_job_behind_a_busy_worker(library):
    daemon = ServeDaemon(
        library, min_workers=1, max_workers=1, warm_target=0
    )
    daemon.start()
    try:
        running = daemon.submit({"app": "top", "scale": 2})
        queued = daemon.submit({"app": "top", "scale": 2})
        assert daemon.queue.cancel(queued.id) in (
            "cancelled", "cancel-requested"
        )
        done = daemon.queue.wait_terminal(running.id, timeout=120.0)
        assert done.state == "done"
        final = daemon.queue.wait_terminal(queued.id, timeout=120.0)
        assert final.state == "cancelled"
    finally:
        daemon.shutdown(timeout=30.0)


def _recovery_stats(telemetry):
    return (
        telemetry["counters"].get("recovery.recoveries", 0),
        telemetry["labelled_counters"].get("recovery.verdicts", {}),
    )


def test_ctl_watch_and_fleet_watch_end_with_the_jobs_recovery_stats(
    library, daemon
):
    """A job shorter than one heartbeat still ends with its true stats."""
    import queue
    import time

    from repro.obs import LiveFleetView

    sink, _ = daemon.subscribe()
    served_view = LiveFleetView()
    qjob = daemon.submit({"app": "top", "scale": 1, "attack": "Injectso"})
    deadline = time.monotonic() + 120.0
    while time.monotonic() < deadline:
        try:
            event = sink.get(timeout=0.5)
        except queue.Empty:
            continue
        served_view.update(event)
        if event.get("id") == qjob.id and event["type"] == "done":
            break
    daemon.unsubscribe(sink)
    assert qjob.state == "done", qjob.error
    served = served_view.jobs[qjob.job.name]
    expected = _recovery_stats(daemon.stats()["jobs_telemetry"])
    assert expected[0] > 0
    assert (served.recoveries, served.verdicts) == expected

    spec = FleetSpec.from_dict(
        {"name": "watch", "workers": 1, "scale": 1,
         "jobs": [{"app": "top", "attack": "Injectso"}]}
    )
    batch_view = LiveFleetView()
    report = run_fleet(spec, library, on_message=batch_view.update)
    assert report.failed == 0
    batch = batch_view.jobs[report.results[0]["name"]]
    assert (batch.recoveries, batch.verdicts) == _recovery_stats(
        report.results[0]["telemetry"]
    )
    assert (batch.recoveries, batch.verdicts) == (
        served.recoveries, served.verdicts
    )


def test_daemon_honours_the_submitted_wall_clock_timeout(library, daemon):
    from repro.fleet.jobs import TIMEOUT_ERROR

    qjob = daemon.submit({"app": "top", "scale": 2, "timeout": 0.01})
    done = daemon.queue.wait_terminal(qjob.id, timeout=120.0)
    assert done.state == "failed"
    assert done.error.startswith(TIMEOUT_ERROR)
    # the cycles the job consumed before the abort were charged
    tenants = daemon.queue.describe()["tenants"]
    assert tenants["default"]["charged_cycles"] > 0
