"""Live fleet streaming: heartbeats, drift flagging, per-job journals.

A two-job fleet (a healthy ``top`` and a ``gzip`` whose library record
is deliberately *stale* -- its profile truncated, its benign baseline
empty) must stream heartbeats for both jobs, flag the stale job as
drifting before its job finishes, and collect per-job journal files
that parse as valid flight-recorder journals.
"""

import time

import pytest

from repro.cli import main
from repro.core.kernel_view import KernelViewConfig
from repro.core.rangelist import KernelProfile
from repro.fleet import ProfileLibrary, run_fleet
from repro.fleet.spec import FleetSpec
from repro.obs import LiveFleetView
from repro.telemetry import load_journal


@pytest.fixture(scope="module")
def stale_library(tmp_path_factory):
    """top profiled honestly; gzip's record truncated to go stale."""
    libdir = tmp_path_factory.mktemp("watch-lib")
    assert main(["--scale", "2", "profile", "top",
                 "--library", str(libdir)]) == 0
    assert main(["--scale", "2", "profile", "gzip",
                 "--library", str(libdir)]) == 0
    library = ProfileLibrary(libdir)
    record = library.get("gzip")
    truncated = KernelProfile()
    for segment, ranges in record.config.profile.segments.items():
        for i, (begin, end) in enumerate(ranges):
            if i % 3 == 0:  # keep every third range: the rest go stale
                truncated.add(segment, begin, end)
    assert truncated.size < record.config.profile.size
    library.put(
        KernelViewConfig(app="gzip", profile=truncated, notes="stale"),
        baseline=[],
        # supersede the pinned record for gzip's build, not just the
        # app-level current digest: fleet lookups match (app, build)
        guest_digest=record.guest_digest,
    )
    return library


def test_watch_streams_heartbeats_and_flags_drift(stale_library, tmp_path):
    spec = FleetSpec.from_dict({
        "name": "watch", "workers": 2, "scale": 2,
        "jobs": [{"app": "top"}, {"app": "gzip"}],
    })
    baselines = {
        job.name or job.identity(): len(stale_library.get(job.app).baseline)
        for job in spec.jobs
    }
    view = LiveFleetView(baselines=baselines)
    messages = []

    def on_message(message):
        messages.append(dict(message))
        view.update(message, now=time.monotonic())

    journal_dir = tmp_path / "journals"
    report = run_fleet(
        spec,
        stale_library,
        on_message=on_message,
        heartbeat_interval=0.0,
        journal_dir=journal_dir,
    )
    assert report.failed == 0

    # both jobs streamed: start, at least one heartbeat, done
    kinds = {
        name: {m["type"] for m in messages if m.get("job") == name}
        for name in ("top#0", "gzip#0")
    }
    for name, seen in kinds.items():
        assert {"start", "heartbeat", "done"} <= seen, (name, seen)

    # the stale job -- and only it -- drifted, before the pool drained:
    # the DRIFT notice must precede the job's done notice
    assert view.drifting() == ["gzip#0"]
    drift_at = next(
        i for i, n in enumerate(view.notices) if "PROFILE DRIFT" in n
    )
    done_at = next(
        i for i, n in enumerate(view.notices) if n == "[fleet] gzip#0: done"
    )
    assert drift_at < done_at
    assert "re-profile gzip" in view.notices[drift_at]
    assert not view.jobs["top#0"].drifting

    # per-job journals landed on disk as valid, loadable journals
    assert set(report.journal_paths) == {"top#0", "gzip#0"}
    for name, path in report.journal_paths.items():
        data = load_journal(path)
        assert data.meta["job"] == name
        assert data.records, f"{name} journal is empty"
        assert any(r["t"] == "span" for r in data.records)

    # the final table reflects the streamed state
    rendered = view.render(now=time.monotonic())
    gzip_line = next(ln for ln in rendered.splitlines() if "gzip#0" in ln)
    assert "DRIFT" in gzip_line and "done" in gzip_line


def test_cli_fleet_watch_prints_live_notices(stale_library, tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main([
        "fleet", "--apps", "top", "--repeat", "1",
        "--library", str(stale_library.root),
        "--no-offline", "--watch", "--heartbeat", "0",
        "-o", str(out),
    ])
    assert code == 0
    captured = capsys.readouterr().out
    assert "[fleet] top#0: started" in captured
    assert "[fleet] top#0: done" in captured
    # the closing table renders one line per job
    assert "state" in captured and "top#0" in captured
