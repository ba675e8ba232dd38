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


# ---------------------------------------------------------------------------
# worker processes: failure isolation, pool accounting, library writes
# ---------------------------------------------------------------------------


def test_sigkilled_worker_fails_its_job_and_is_replaced(library):
    import os
    import queue
    import signal

    from repro.fleet.jobs import run_job_on_fresh_machine

    daemon = ServeDaemon(
        library, min_workers=1, max_workers=1, warm_target=0,
        heartbeat_interval=0.02,
    )
    daemon.start()
    sink, _ = daemon.subscribe()
    try:
        [victim] = daemon.stats()["workers"]["pids"]
        doomed = daemon.submit({"app": "top", "scale": 10})
        while True:  # kill it mid-job: once its first heartbeat arrives
            try:
                event = sink.get(timeout=60.0)
            except queue.Empty:
                pytest.fail("the job never sent a heartbeat")
            if event["type"] == "heartbeat" and event["id"] == doomed.id:
                break
        os.kill(victim, signal.SIGKILL)
        done = daemon.queue.wait_terminal(doomed.id, timeout=60.0)
        assert done.state == "failed"
        assert done.error == (
            "worker exited with code -9 before returning a result"
        )

        # a replacement worker serves the next job, bit-identical to solo
        qjob = daemon.submit({"app": "top", "scale": 2})
        served = daemon.queue.wait_terminal(qjob.id, timeout=120.0)
        assert served.state == "done", served.error
        [replacement] = daemon.stats()["workers"]["pids"]
        assert replacement != victim
        build = qjob.job.guest_config().build_digest()
        solo = run_job_on_fresh_machine(qjob.job, library.get("top", build))
        assert (served.result["cycles"], served.result["syscalls"]) == (
            solo.cycles, solo.syscalls
        )
    finally:
        daemon.unsubscribe(sink)
        daemon.shutdown(timeout=30.0)


def test_pool_accounting_covers_every_worker(library):
    import time

    daemon = ServeDaemon(library, min_workers=2, max_workers=2, warm_target=1)
    daemon.start()
    try:
        jobs = [daemon.submit({"app": "top", "scale": 1}) for _ in range(6)]
        for qjob in jobs:
            done = daemon.queue.wait_terminal(qjob.id, timeout=120.0)
            assert done.state == "done", done.error
        stats = daemon.stats()
        pool = stats["pool"]
        assert sum(v["hits"] + v["misses"] for v in pool.values()) == len(jobs)
        labelled = stats["serve"]["labelled_counters"]
        assert sum(labelled.get("serve.pool.hits", {}).values()) + sum(
            labelled.get("serve.pool.misses", {}).values()
        ) == len(jobs)
        # --warm is per worker: idle, each of the 2 refills its buffer
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline:
            if sum(v["warm"] for v in daemon.stats()["pool"].values()) == 2:
                break
            time.sleep(0.05)
        assert sum(v["warm"] for v in daemon.stats()["pool"].values()) == 2
    finally:
        daemon.shutdown(timeout=30.0)


def test_auto_profile_library_writes_stay_in_the_daemon(tmp_path, monkeypatch):
    import repro.serve.daemon as daemon_mod

    profiled = []
    real = daemon_mod.prepare_offline_phase

    def counting(library, apps, **kwargs):
        # only calls made in this process are visible here
        profiled.extend(apps)
        return real(library, apps, **kwargs)

    monkeypatch.setattr(daemon_mod, "prepare_offline_phase", counting)
    libdir = tmp_path / "lib"
    daemon = ServeDaemon(
        ProfileLibrary(libdir), min_workers=2, max_workers=2,
        warm_target=0, auto_profile=True, profile_scale=1,
    )
    daemon.start()
    try:
        jobs = [
            daemon.submit({"app": app, "scale": 1}) for app in ("top", "gzip")
        ]
        for qjob in jobs:
            done = daemon.queue.wait_terminal(qjob.id, timeout=300.0)
            assert done.state == "done", done.error
    finally:
        daemon.shutdown(timeout=30.0)
    assert sorted(profiled) == ["gzip", "top"]
    reread = ProfileLibrary(libdir)
    build = jobs[0].job.guest_config().build_digest()
    assert reread.apps() == ["gzip", "top"]
    assert all(reread.digest_of(app, build) for app in ("gzip", "top"))
