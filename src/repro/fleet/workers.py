"""Fork-started worker processes on private pipes: the one worker transport.

Both schedulers run their jobs through a :class:`WorkerPool`: the batch
fleet (:class:`repro.fleet.runner.FleetRunner`) and the serve daemon
(:class:`repro.serve.daemon.ServeDaemon`).  The pool does five things:

* it **forks** each worker on a private duplex pipe.  A worker is a
  ``fork`` of the calling process, so it inherits everything the caller
  has loaded -- machine snapshots, profile records, warm caches -- with
  no pickling; ``main(conn)`` then runs in the child on its end of the
  pipe.  A pool keeps ``size`` workers alive: :meth:`WorkerPool.resize`
  forks up to it and retires idle workers beyond it, and a worker that
  is lost is replaced on the next :meth:`~WorkerPool.poll`;
* it **sends** an idle worker a job (any picklable payload) and arms
  the job's deadline;
* it **polls** every worker's pipe (plus any extra wake-up handles) and
  returns what arrived as :class:`Event` s: a worker's ``message`` or
  the ``result`` that ends its job;
* it **kills** a busy worker whose job runs past its deadline and
  reports the job ``failed`` with :data:`repro.fleet.jobs.TIMEOUT_ERROR`;
* it **reports** a worker that dies -- crash, ``kill -9``, OOM -- as a
  ``failed`` event naming its exit code and the job it held, if any.

A worker ends a job by sending a message whose ``type`` is
``"result"``; ``None`` asks an idle worker to exit.  Each worker has its
own pipe, so killing one cannot corrupt another's messages.  One parent
thread drives a pool: it takes no locks.

The child inherits the parent's threads' memory but not the threads, so
it must touch no lock another parent thread may hold: a ``main`` uses
only inherited read-only data and its own pipe (see ``docs/SERVICE.md``,
"fork with threads").
"""

from __future__ import annotations

import multiprocessing
import sys
import time
from dataclasses import dataclass
from multiprocessing.connection import wait
from typing import Any, Callable, Dict, Iterable, List, Optional

from repro.fleet.jobs import TIMEOUT_ERROR

Message = Dict[str, Any]

#: seconds a retiring worker gets to exit before it is killed
_RETIRE_WAIT = 5.0


@dataclass(eq=False)
class Worker:
    """One worker process and the parent's end of its pipe."""

    process: Any
    conn: Any
    #: the caller's handle for the job being run (``None`` while idle)
    task: Any = None
    deadline: float = float("inf")

    @property
    def pid(self) -> int:
        return self.process.pid


@dataclass
class Event:
    """One thing a poll saw: a ``message``, a ``result`` or ``failed``."""

    kind: str
    worker: Worker
    #: the job concerned (``None`` for an idle worker)
    task: Any
    message: Optional[Message] = None
    error: str = ""


class WorkerPool:
    """``size`` fork-started workers, each on a private pipe."""

    def __init__(self, main: Callable[[Any], None]) -> None:
        self._context = multiprocessing.get_context("fork")
        self._main = main
        self.size = 0
        self.workers: List[Worker] = []

    # -- lifecycle ------------------------------------------------------------

    def _child(self, parent_end: Any, conn: Any) -> None:
        # drop the inherited parent ends of this pipe and of the other
        # workers' pipes: a worker must see EOF once the parent is gone
        parent_end.close()
        for worker in self.workers:
            worker.conn.close()
        self._main(conn)

    def _fork(self) -> None:
        conn, child_conn = self._context.Pipe()
        # nothing buffered may be inherited and flushed twice
        sys.stdout.flush()
        sys.stderr.flush()
        process = self._context.Process(
            target=self._child, args=(conn, child_conn), daemon=True
        )
        process.start()
        child_conn.close()
        self.workers.append(Worker(process, conn))

    def _drop(self, worker: Worker, how: str = "retire") -> None:
        """Stop and reap ``worker``: ``retire`` asks it to exit, ``reap``
        waits for one already exiting, ``kill`` kills it."""
        self.workers.remove(worker)
        if how == "retire":
            try:
                worker.conn.send(None)
            except OSError:
                pass  # already gone
        if how != "kill":
            worker.process.join(timeout=_RETIRE_WAIT)
        if worker.process.is_alive():
            worker.process.kill()
        worker.process.join()
        worker.conn.close()

    def resize(self, size: int) -> None:
        """Fork workers up to ``size``; retire idle workers beyond it
        (busy ones retire once they are idle and still surplus)."""
        self.size = size
        while len(self.workers) < size:
            self._fork()
        for worker in self.idle()[: len(self.workers) - size]:
            self._drop(worker)

    def close(self) -> None:
        """Stop every worker: idle ones exit on request, busy ones are
        killed (their jobs are the caller's to account)."""
        self.size = 0
        for worker in list(self.workers):
            self._drop(worker, "kill" if worker.task is not None else "retire")

    # -- jobs ------------------------------------------------------------------

    def idle(self) -> List[Worker]:
        return [w for w in self.workers if w.task is None]

    def busy(self) -> List[Worker]:
        return [w for w in self.workers if w.task is not None]

    def assign(
        self, worker: Worker, task: Any, payload: Any, timeout: float
    ) -> bool:
        """Send idle ``worker`` a job; it must answer within ``timeout``.

        False when the worker turned out to be dead: it is reaped (and
        replaced on the next poll) and the job is still the caller's.
        """
        try:
            worker.conn.send(payload)
        except OSError:
            self._drop(worker, "reap")
            return False
        worker.task = task
        worker.deadline = time.monotonic() + timeout
        return True

    def send(self, worker: Worker, message: Message) -> None:
        """A control message to a busy worker (the job reads it); a
        dead worker's failure is reported by the next poll instead."""
        try:
            worker.conn.send(message)
        except OSError:
            pass

    def poll(self, timeout: float, wake: Iterable[Any] = ()) -> List[Event]:
        """Wait up to ``timeout`` for any pipe (or ``wake`` handle) and
        return everything that arrived, then enforce deadlines."""
        self.resize(self.size)  # replace workers lost since the last poll
        events: List[Event] = []
        by_conn = {w.conn: w for w in self.workers}
        for conn in wait([*by_conn, *wake], timeout):
            worker = by_conn.get(conn)
            if worker is not None:
                self._read(worker, events)
        now = time.monotonic()
        for worker in self.busy():
            if now > worker.deadline:
                self._drop(worker, "kill")
                events.append(
                    Event("failed", worker, worker.task, error=TIMEOUT_ERROR)
                )
        return events

    def _read(self, worker: Worker, events: List[Event]) -> None:
        """Drain ``worker``'s pipe into ``events``."""
        while True:
            try:
                message = worker.conn.recv()
            except (EOFError, OSError):
                self._drop(worker, "reap")
                events.append(
                    Event(
                        "failed", worker, worker.task,
                        error=f"worker exited with code "
                        f"{worker.process.exitcode} before returning a result",
                    )
                )
                return
            if message.get("type") == "result":
                events.append(Event("result", worker, worker.task, message))
                worker.task = None
                worker.deadline = float("inf")
            else:
                events.append(Event("message", worker, worker.task, message))
            if not worker.conn.poll():
                return
