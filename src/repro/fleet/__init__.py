"""Fleet subsystem: snapshot/fork guests, profile library, scale-out runner.

FACE-CHANGE's workflow is two-phase: offline per-application profiling,
then online enforcement.  A profile is a property of the *application*
(paper §III), so it can be reused across any number of virtual machines
running the same workload.  This package turns that observation into a
scale-out execution substrate:

* :mod:`repro.fleet.snapshot` -- serialize a booted machine into an
  in-memory :class:`MachineSnapshot` and ``fork()`` copy-on-write
  clones, so a fleet of guests spins up without re-booting;
* :mod:`repro.fleet.library` -- a content-addressed on-disk
  :class:`ProfileLibrary` of per-app kernel-view profiles (checksummed,
  versioned), so one profiling run feeds enforcement in every later run;
* :mod:`repro.fleet.spec` -- the declarative fleet specification:
  (app, workload, malware-injection) jobs with budgets and seeds;
* :mod:`repro.fleet.jobs` -- the offline phase, and
  :func:`execute_job`, the one path every job (batch or served) runs
  and streams through;
* :mod:`repro.fleet.runner` -- the work-queue scheduler executing jobs
  in fork-started worker processes, with per-guest budgets, timeouts
  and crash isolation;
* :mod:`repro.telemetry.merge` -- registry snapshots merged into one
  fleet-level report (the runner re-exports the result).
"""

from repro.fleet.library import (
    ProfileLibrary,
    ProfileLibraryError,
    ProfileRecord,
)
from repro.fleet.jobs import JobResult, execute_job, prepare_offline_phase
from repro.fleet.runner import FleetReport, FleetRunner, run_fleet
from repro.fleet.snapshot import MachineSnapshot, SnapshotError
from repro.fleet.spec import FleetJob, FleetSpec, FleetSpecError

__all__ = [
    "FleetJob",
    "FleetReport",
    "FleetRunner",
    "FleetSpec",
    "FleetSpecError",
    "JobResult",
    "MachineSnapshot",
    "ProfileLibrary",
    "ProfileLibraryError",
    "ProfileRecord",
    "SnapshotError",
    "execute_job",
    "prepare_offline_phase",
    "run_fleet",
]
