"""Warm machine pools keyed by guest-config digest.

A batch fleet boots one machine per guest variant, snapshots it, and
forks clones on demand -- the boot is amortized across the run, but
every job still pays a fork on its critical path.  A long-lived daemon
can do better on both counts:

* the **snapshot** for each variant is booted once, in the daemon
  process, and kept for the daemon's lifetime (``MachineSnapshot`` is
  immutable, and its forks are bit-identical to fresh boots).  Worker
  processes are forked after the boot and inherit it;
* each **worker process** keeps its own small buffer of pre-forked
  clones per variant (``--warm`` clones per variant *per worker*),
  refilled between jobs while no job waits on its pipe, so a job
  usually finds a ready machine and its critical path is just the
  workload.

Each side has its own class, used only in its own process:

* :class:`WarmPool` lives in the daemon.  It holds the snapshots and
  folds every worker's cumulative counts (:meth:`WarmPool.absorb`) into
  the ``serve.pool.*`` counters and the ``stats`` table;
* :class:`CloneBuffer` lives in a worker.  It is built in the child
  from the inherited snapshots, hands out clones, refills itself and
  reports its hits, misses, refills and warm clones.

Warm clones are interchangeable with on-demand forks by construction:
``fork()`` is deterministic, so *which* clone a job lands on cannot
affect guest-visible behaviour.  ``fork(expect_digest=...)`` pinning is
preserved -- a buffer can never hand out a clone of the wrong variant.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, List, Optional

from repro.fleet.snapshot import MachineSnapshot
from repro.guest.config import GuestConfig
from repro.guest.machine import Machine, boot_machine

#: per-variant counts a worker reports, and their ``serve.*`` counters
_COUNTERS = {
    "hits": "serve.pool.hits",
    "misses": "serve.pool.misses",
    "refills": "serve.pool.refills",
}


def _zero_counts(label: str) -> Dict[str, Any]:
    return {"label": label, **dict.fromkeys(_COUNTERS, 0)}


class WarmPool:
    """The daemon's per-variant snapshots and pool accounting."""

    def __init__(
        self,
        warm_target: int = 2,
        telemetry: Optional[Any] = None,
    ) -> None:
        self.warm_target = warm_target
        self.telemetry = telemetry
        self._lock = threading.Lock()
        #: digest -> snapshot; filled before any worker is forked, and
        #: read by the workers without the lock
        self.snapshots: Dict[str, MachineSnapshot] = {}
        #: digest -> label, hits, misses, refills, summed over workers
        self._counts: Dict[str, Dict[str, Any]] = {}
        #: each live worker's last report
        self._reports: Dict[Any, Dict[str, Dict[str, Any]]] = {}

    # -- population ----------------------------------------------------------

    def add_snapshot(self, snapshot: MachineSnapshot) -> str:
        """Adopt an existing snapshot (tests, pre-booted machines)."""
        digest = snapshot.guest_digest
        with self._lock:
            self.snapshots.setdefault(digest, snapshot)
            self._counts.setdefault(digest, _zero_counts(snapshot.config.label()))
        return digest

    def ensure(self, config: GuestConfig) -> str:
        """Boot + snapshot ``config``'s variant if not pooled yet."""
        digest = config.digest()
        with self._lock:
            if digest in self.snapshots:
                return digest
        return self.add_snapshot(boot_machine(config=config).snapshot())

    def variants(self) -> List[str]:
        with self._lock:
            return sorted(self.snapshots)

    # -- accounting ----------------------------------------------------------

    def absorb(self, worker: Any, report: Dict[str, Dict[str, Any]]) -> None:
        """Fold ``worker``'s cumulative ``report`` into the totals."""
        with self._lock:
            previous = self._reports.get(worker, {})
            self._reports[worker] = report
            for digest, counts in report.items():
                total = self._counts.setdefault(
                    digest, _zero_counts(counts["label"])
                )
                for kind, counter in _COUNTERS.items():
                    delta = counts[kind] - previous.get(digest, {}).get(kind, 0)
                    total[kind] += delta
                    if delta and self.telemetry is not None:
                        self.telemetry.labelled_counter(counter).inc(
                            digest[:12], delta
                        )

    def forget(self, worker: Any) -> None:
        """``worker`` is gone, and its warm clones with it."""
        with self._lock:
            self._reports.pop(worker, None)

    def stats(self) -> Dict[str, Dict[str, Any]]:
        with self._lock:
            return {
                digest[:12]: {
                    "label": counts["label"],
                    "warm": sum(
                        report.get(digest, {}).get("warm", 0)
                        for report in self._reports.values()
                    ),
                    "target": self.warm_target,
                    "forked": counts["misses"] + counts["refills"],
                    "hits": counts["hits"],
                    "misses": counts["misses"],
                    "refills": counts["refills"],
                }
                for digest, counts in sorted(self._counts.items())
            }


class CloneBuffer:
    """One worker's pre-forked clones per variant.

    A worker runs one thing at a time, so the buffer takes no lock.
    """

    def __init__(
        self, snapshots: Dict[str, MachineSnapshot], warm_target: int
    ) -> None:
        self.warm_target = warm_target
        self._snapshots = dict(snapshots)
        self._warm: Dict[str, List[Machine]] = {d: [] for d in self._snapshots}
        #: digest -> label, hits, misses, refills
        self._counts = {
            digest: _zero_counts(snapshot.config.label())
            for digest, snapshot in self._snapshots.items()
        }

    def acquire(self, config: GuestConfig) -> Machine:
        """A ready clone of ``config``'s variant (warm hit or live fork).

        A variant the daemon did not boot at start-up is booted here,
        once per worker.
        """
        digest = config.digest()
        if digest not in self._snapshots:
            self._snapshots[digest] = boot_machine(config=config).snapshot()
            self._warm[digest] = []
            self._counts[digest] = _zero_counts(config.label())
        if self._warm[digest]:
            self._counts[digest]["hits"] += 1
            return self._warm[digest].pop()
        self._counts[digest]["misses"] += 1
        return self._snapshots[digest].fork(expect_digest=digest)

    def refill_once(self) -> bool:
        """Fork one clone for the emptiest under-target variant buffer."""
        needy = [
            (len(warm), digest)
            for digest, warm in self._warm.items()
            if len(warm) < self.warm_target
        ]
        if not needy:
            return False
        _, digest = min(needy)
        self._warm[digest].append(
            self._snapshots[digest].fork(expect_digest=digest)
        )
        self._counts[digest]["refills"] += 1
        return True

    def report(self) -> Dict[str, Dict[str, Any]]:
        """Cumulative per-variant counts plus current warm clones (what a
        worker sends the daemon with each result)."""
        return {
            digest: {**counts, "warm": len(self._warm[digest])}
            for digest, counts in self._counts.items()
        }
