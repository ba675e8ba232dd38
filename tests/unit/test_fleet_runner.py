"""Fleet spec validation, runner modes, crash isolation, determinism."""

import pytest

from repro.fleet import (
    FleetSpec,
    FleetSpecError,
    ProfileLibrary,
    prepare_offline_phase,
    run_fleet,
)
import repro.fleet.runner as runner_mod
from repro.fleet.jobs import TIMEOUT_ERROR, execute_job
from repro.fleet.runner import FleetRunner
from repro.fleet.spec import FleetJob, derive_seed, uniform_spec
from repro.guest.machine import boot_machine
from repro.kernel.runtime import Platform


# ---------------------------------------------------------------------------
# spec validation
# ---------------------------------------------------------------------------


def test_spec_from_dict_assigns_unique_job_names():
    spec = FleetSpec.from_dict(
        {"jobs": [{"app": "top"}, {"app": "top"}, {"app": "gzip"}]}
    )
    assert [j.name for j in spec.jobs] == ["top#0", "top#1", "gzip#0"]


def test_spec_rejects_unknown_app():
    with pytest.raises(FleetSpecError, match="unknown application"):
        FleetSpec.from_dict({"jobs": [{"app": "nosuch"}]})


def test_spec_rejects_unknown_attack():
    with pytest.raises(FleetSpecError, match="unknown malware"):
        FleetSpec.from_dict({"jobs": [{"app": "top", "attack": "nosuch"}]})


def test_spec_rejects_attack_host_mismatch():
    with pytest.raises(FleetSpecError, match="infects"):
        FleetSpec.from_dict({"jobs": [{"app": "gzip", "attack": "Injectso"}]})


def test_spec_rejects_empty_jobs_and_bad_keys():
    with pytest.raises(FleetSpecError, match="non-empty"):
        FleetSpec.from_dict({"jobs": []})
    with pytest.raises(FleetSpecError, match="unknown spec keys"):
        FleetSpec.from_dict({"jobs": [{"app": "top"}], "bogus": 1})
    with pytest.raises(FleetSpecError, match="unknown keys"):
        FleetSpec.from_dict({"jobs": [{"app": "top", "bogus": 1}]})


def test_spec_json_round_trip(tmp_path):
    spec = FleetSpec.from_dict(
        {"name": "rt", "workers": 3, "seed": 99,
         "jobs": [{"app": "top", "scale": 5}]}
    )
    path = tmp_path / "spec.json"
    import json

    path.write_text(json.dumps(spec.to_dict()))
    loaded = FleetSpec.load(path)
    assert loaded.name == "rt"
    assert loaded.workers == 3
    assert loaded.seed == 99
    assert loaded.jobs[0].scale == 5


def test_derived_seeds_are_stable_and_distinct():
    assert derive_seed(1, "top#0") == derive_seed(1, "top#0")
    assert derive_seed(1, "top#0") != derive_seed(1, "top#1")
    assert derive_seed(1, "top#0") != derive_seed(2, "top#0")
    spec = FleetSpec.from_dict({"jobs": [{"app": "top", "seed": 42}]})
    assert spec.jobs[0].effective_seed(spec.seed) == 42


# ---------------------------------------------------------------------------
# runner (shared library fixture keeps this fast)
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def library(tmp_path_factory):
    lib = ProfileLibrary(tmp_path_factory.mktemp("fleet-lib"))
    prepare_offline_phase(lib, ["top", "gzip"], scale=2)
    return lib


def test_process_pool_and_serial_fallback_agree(library, monkeypatch):
    spec = uniform_spec(["top", "gzip"], scale=2, workers=2)
    pooled = run_fleet(spec, library)
    # a platform without fork() gets the in-process serial loop
    monkeypatch.setattr(
        runner_mod.multiprocessing, "get_all_start_methods", lambda: ["spawn"]
    )
    serial = run_fleet(spec, library)
    assert pooled.mode == "processes"
    assert serial.mode == "serial"
    assert pooled.failed == serial.failed == 0
    pooled_scores = {r["name"]: (r["cycles"], r["syscalls"]) for r in pooled.results}
    serial_scores = {r["name"]: (r["cycles"], r["syscalls"]) for r in serial.results}
    assert pooled_scores == serial_scores
    assert pooled.forked == serial.forked == 2


def test_same_job_twice_has_identical_telemetry(library):
    """Fleet-determinism regression: one job run twice, telemetry diffed."""
    snapshot = boot_machine(platform=Platform.KVM).snapshot()
    job = FleetJob(app="top", scale=2, name="top#0")
    record = library.get("top")
    first = execute_job(snapshot.fork(), job, record)
    second = execute_job(snapshot.fork(), job, record)
    assert first.score == second.score
    assert first.telemetry["counters"] == second.telemetry["counters"]
    assert first.telemetry["labelled_counters"] == second.telemetry["labelled_counters"]
    assert first.telemetry["histograms"] == second.telemetry["histograms"]


def test_worker_crash_fails_job_not_fleet(library, monkeypatch):
    real_execute = runner_mod.execute_job

    def exploding(machine, job, record, **kwargs):
        if job.app == "gzip":
            raise RuntimeError("simulated guest crash")
        return real_execute(machine, job, record, **kwargs)

    monkeypatch.setattr(runner_mod, "execute_job", exploding)
    spec = uniform_spec(["top", "gzip"], scale=2, workers=2)
    report = run_fleet(spec, library)
    by_name = {r["name"]: r for r in report.results}
    assert by_name["top#0"]["ok"]
    assert not by_name["gzip#0"]["ok"]
    assert "simulated guest crash" in by_name["gzip#0"]["error"]
    assert report.failed == 1


def test_worker_death_fails_job_not_fleet(library, monkeypatch):
    import os

    real_execute = runner_mod.execute_job

    def dying(machine, job, record, **kwargs):
        if job.app == "gzip":
            os._exit(3)
        return real_execute(machine, job, record, **kwargs)

    monkeypatch.setattr(runner_mod, "execute_job", dying)
    spec = uniform_spec(["gzip", "top"], scale=2, workers=1)
    report = run_fleet(spec, library)
    by_name = {r["name"]: r for r in report.results}
    assert "exited with code 3" in by_name["gzip#0"]["error"]
    assert by_name["top#0"]["ok"]


def test_missing_profile_is_a_library_error(library):
    from repro.fleet import ProfileLibraryError

    spec = uniform_spec(["bash"], scale=1, workers=1)
    with pytest.raises(ProfileLibraryError, match="bash"):
        FleetRunner(spec, library).run()


def test_report_merges_fleet_telemetry(library):
    spec = uniform_spec(["top"], scale=2, workers=1, repeat=2)
    report = run_fleet(spec, library)
    single = next(r for r in report.results if r["name"] == "top#0")
    merged = report.telemetry
    assert merged["sources"] == 2
    # two identical guests: merged counters are exactly double
    for name, value in single["telemetry"]["counters"].items():
        assert merged["counters"][name] == 2 * value
    summary = report.format_summary()
    assert "2/2 jobs completed" in summary


def test_exhausted_cycle_budget_fails_job(library):
    spec = FleetSpec(
        jobs=[FleetJob(app="top", scale=2, max_cycles=1_000)], workers=1
    )
    report = run_fleet(spec, library)
    assert report.failed == 1
    assert "budget" in report.results[0]["error"]


@pytest.mark.parametrize("workers", [1, 2])
def test_stuck_job_times_out_and_the_fleet_carries_on(
    library, monkeypatch, workers
):
    """A job past its wall-clock timeout is killed; the rest still run."""
    import time

    real_execute = runner_mod.execute_job

    def stuck(machine, job, record, **kwargs):
        if job.app == "gzip":
            time.sleep(60)
        return real_execute(machine, job, record, **kwargs)

    monkeypatch.setattr(runner_mod, "execute_job", stuck)
    timeout = 2.0
    spec = FleetSpec(
        jobs=[
            FleetJob(app="gzip", scale=2, timeout=timeout, name="gzip#0"),
            FleetJob(app="top", scale=2, name="top#0"),
        ],
        workers=workers,
    )
    messages = []
    began = time.monotonic()
    report = run_fleet(spec, library, on_message=messages.append)
    elapsed = time.monotonic() - began
    by_name = {r["name"]: r for r in report.results}
    assert by_name["gzip#0"]["error"].startswith(TIMEOUT_ERROR)
    assert not by_name["gzip#0"]["ok"]
    assert by_name["top#0"]["ok"], by_name["top#0"]["error"]
    assert elapsed < timeout + 5.0
    # the watcher is told the stuck job failed
    assert {"type": "done", "job": "gzip#0", "ok": False,
            "error": TIMEOUT_ERROR} in messages
