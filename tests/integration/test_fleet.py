"""End-to-end fleet workflow: profile once, fork many, merge telemetry.

Covers the acceptance path: a profile saved by ``repro profile
--library`` round-trips through the on-disk library (checksum-
validated) and drives enforcement in freshly forked clones with zero
re-profiling.
"""

import json

import pytest

from repro.cli import main
from repro.fleet import ProfileLibrary, run_fleet
from repro.fleet.spec import FleetSpec


@pytest.fixture(scope="module")
def library_dir(tmp_path_factory):
    """A library populated through the CLI, exactly as a user would."""
    libdir = tmp_path_factory.mktemp("cli-lib")
    assert main(
        ["--scale", "2", "profile", "top", "--library", str(libdir)]
    ) == 0
    return libdir


def test_cli_profile_populates_validated_library(library_dir, capsys):
    library = ProfileLibrary(library_dir)
    assert library.apps() == ["top"]
    record = library.get("top")  # checksum-validated load
    assert record.config.app == "top"
    assert record.config.size > 0
    assert record.digest == library.digest_of("top")


def test_cli_profile_reuses_library_entry(library_dir, capsys):
    before = ProfileLibrary(library_dir).digest_of("top")
    assert main(
        ["--scale", "2", "profile", "top", "--library", str(library_dir)]
    ) == 0
    assert ProfileLibrary(library_dir).digest_of("top") == before


def test_library_profile_drives_forked_clones_without_reprofiling(
    library_dir, monkeypatch
):
    """Zero re-profiling: forks enforce straight from the library."""
    import repro.fleet.jobs as jobs_mod

    def no_profiling(*args, **kwargs):
        raise AssertionError("fleet run must not re-profile")

    monkeypatch.setattr(jobs_mod, "profile_app_offline", no_profiling)
    library = ProfileLibrary(library_dir)
    spec = FleetSpec.from_dict(
        {"name": "it", "workers": 2, "scale": 2,
         "jobs": [{"app": "top"}, {"app": "top"},
                  {"app": "top", "attack": "Injectso"}]}
    )
    report = run_fleet(spec, library)
    assert report.failed == 0
    by_name = {r["name"]: r for r in report.results}
    # clean clones are bit-identical to each other
    assert (by_name["top#0"]["cycles"], by_name["top#0"]["syscalls"]) == (
        by_name["top#1"]["cycles"], by_name["top#1"]["syscalls"])
    # the infected clone is detected via the library's benign baseline
    assert by_name["top+Injectso#0"]["detected"] is True
    assert by_name["top+Injectso#0"]["evidence"]
    # merged fleet telemetry covers all three guests
    assert report.telemetry["sources"] == 3


def test_cli_fleet_runs_from_spec_file(library_dir, tmp_path, capsys):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({
        "name": "cli-fleet",
        "workers": 2,
        "scale": 2,
        "jobs": [{"app": "top"}, {"app": "top"}],
    }))
    out = tmp_path / "report.json"
    code = main([
        "fleet", str(spec_path),
        "--library", str(library_dir),
        "--no-offline",
        "-o", str(out),
    ])
    assert code == 0
    assert "2/2 jobs completed" in capsys.readouterr().out
    report = json.loads(out.read_text())
    assert report["completed"] == 2
    assert report["failed"] == 0
    assert report["telemetry"]["counters"]
    scores = {(r["cycles"], r["syscalls"]) for r in report["results"]}
    assert len(scores) == 1  # identical jobs, identical scores
