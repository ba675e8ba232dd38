"""The flight recorder end-to-end: the quickstart run as an event timeline.

The acceptance shape for the recorder: one enforced run must produce a
timeline containing at least a context-switch trap, a view switch and a
code recovery -- and every recovery span must carry its provenance
verdict as a child, agreeing with the provenance log.  Each fact is
recorded once: no journal ``event`` record repeats a span's kind.
"""

from repro.analysis.timeline import format_trace_report, timeline_entries
from repro.core.facechange import FaceChange
from repro.fleet.jobs import execute_job, profile_app_offline
from repro.fleet.snapshot import MachineSnapshot
from repro.fleet.spec import FleetJob
from repro.guest.machine import boot_machine
from repro.kernel.objects import Compute, Syscall
from repro.kernel.runtime import Platform
from repro.telemetry import build_span_trees

Sys = Syscall


def top_workload(iters=8):
    def driver():
        tty = yield Sys("open", path="/dev/tty1")
        for _ in range(iters):
            fd = yield Sys("open", path="/proc/stat")
            yield Sys("read", fd=fd, count=2048)
            yield Sys("close", fd=fd)
            yield Sys("write", fd=tty, count=512)
            yield Compute(450_000)
            yield Sys("nanosleep", cycles=100_000)
    return driver


def traced_run(top_config):
    machine = boot_machine(platform=Platform.KVM)
    journal = machine.start_recording()
    fc = FaceChange(machine)
    fc.enable()
    fc.load_view(top_config, comm="top")
    task = machine.spawn("top", top_workload())
    machine.run(until=lambda: task.finished, max_cycles=80_000_000_000)
    assert task.finished
    machine.stop_recording()
    return machine, fc, journal.records()


def _spans(records, kind):
    return [r for r in records if r["t"] == "span" and r["kind"] == kind]


def test_timeline_contains_the_causal_chain(top_config):
    machine, fc, records = traced_run(top_config)
    entries = timeline_entries(records)
    kinds = [e["kind"] for e in entries]
    assert "ctxsw_trap" in kinds, "no context-switch trap recorded"
    assert "view_switch" in kinds, "no view switch recorded"
    assert "recovery" in kinds, "no code recovery recorded"

    # the deferred-switch chain is causally ordered: the trap selecting
    # the top view precedes the EPT flip that installs it
    first_trap = next(
        i for i, e in enumerate(entries)
        if e["kind"] == "ctxsw_trap" and e["fields"]["comm"] == "top"
    )
    first_install = next(
        i for i, e in enumerate(entries)
        if e["kind"] == "view_switch" and e["fields"]["to_view"] == 0
    )
    assert first_trap < first_install
    assert entries[first_trap]["cycles"] <= entries[first_install]["cycles"]

    # view switches carry the charged EPT cost
    assert all(
        e["fields"]["cost"] > 0 for e in entries if e["kind"] == "view_switch"
    )


def test_recovery_events_match_provenance_log(top_config):
    machine, fc, records = traced_run(top_config)
    recoveries = [
        node for tree in build_span_trees(records)
        for node in tree.find("recovery")
    ]
    assert recoveries
    assert len(recoveries) == len(fc.log)
    for node, entry in zip(recoveries, fc.log):
        # the verdict is a recorded child, not a (cycles, rip) match
        (verdict,) = [c for c in node.children if c.kind == "provenance"]
        assert node.record["parent"] is not None
        assert node.attrs["rip"] == entry.rip
        assert node.attrs["recovered"] == entry.recovered
        assert node.attrs["instant"] == len(entry.instant_recoveries)
        assert verdict.record["start"] == entry.cycles
        assert verdict.attrs["comm"] == entry.comm
        assert verdict.attrs["view_app"] == entry.view_app


def test_counters_agree_with_trace(top_config):
    machine, fc, records = traced_run(top_config)
    tel = machine.telemetry
    assert len(_spans(records, "ctxsw_trap")) == fc.stats.context_switch_traps
    assert len(_spans(records, "resume_trap")) == fc.stats.resume_traps
    assert len(_spans(records, "view_skip")) == fc.stats.skipped_switches
    assert len(_spans(records, "view_switch")) == fc.stats.view_switches
    assert len(_spans(records, "recovery")) == fc.stats.recoveries
    # every recorded vmexit reason was counted by its pipeline stage
    by_reason = {}
    for span in _spans(records, "vmexit"):
        reason = span["attrs"]["reason"]
        by_reason[reason] = by_reason.get(reason, 0) + 1
    assert by_reason.get("ADDRESS_TRAP", 0) == tel.counter(
        "hv.exits.address_trap"
    ).value
    assert by_reason.get("INVALID_OPCODE", 0) == tel.counter(
        "hv.exits.invalid_opcode"
    ).value


def test_per_app_timeline_filter(top_config):
    machine, fc, records = traced_run(top_config)
    entries = timeline_entries(records, app="top")
    assert entries
    kinds = {e["kind"] for e in entries}
    assert "ctxsw_trap" in kinds
    assert "recovery" in kinds or "view_switch" in kinds
    # idle task traps are not attributed to top
    assert all(
        e["fields"]["comm"] != "swapper"
        for e in entries if e["kind"] == "ctxsw_trap"
    )


def test_trace_report_renders_all_sections(top_config):
    machine, fc, records = traced_run(top_config)
    text = format_trace_report(machine.telemetry, records)
    assert "== counters ==" in text
    assert "== timeline ==" in text
    assert f"== recovery provenance ({len(fc.log)} recoveries" in text
    assert "ctxsw_trap" in text
    assert "view_switch" in text
    assert "UNHANDLED" not in text
    assert "Recover 0x" in text
    assert "verdict=" in text


def test_tracing_off_records_nothing_but_counters_still_work(top_config):
    machine = boot_machine(platform=Platform.KVM)
    fc = FaceChange(machine)
    fc.enable()
    fc.load_view(top_config, comm="top")
    task = machine.spawn("top", top_workload(iters=3))
    machine.run(until=lambda: task.finished, max_cycles=80_000_000_000)
    assert task.finished
    assert machine.telemetry.journal is None
    assert fc.stats.context_switch_traps > 0
    assert machine.telemetry.counter("hv.exits.address_trap").value > 0


def test_recorded_job_journals_each_fact_once():
    # the serve daemon's recording path: a forked clone, a bounded
    # in-memory journal, one infected job through execute_job
    job = FleetJob(app="top", attack="Injectso", scale=1)
    record = profile_app_offline("top", scale=1, guest=job.guest)
    clone = MachineSnapshot.capture(boot_machine(config=job.guest)).fork()
    journal = clone.start_recording(capacity=4096)
    result = execute_job(clone, job, record)
    assert result.ok
    records, dropped = journal.drain_segment()
    assert dropped == 0
    span_kinds = {r["kind"] for r in records if r["t"] == "span"}
    event_kinds = {r["kind"] for r in records if r["t"] == "event"}
    assert {"vmexit", "view_switch", "recovery", "ctxsw_trap"} <= span_kinds
    assert event_kinds and not event_kinds & span_kinds
