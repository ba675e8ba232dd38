"""The worker transport: fork-started workers on private pipes.

Scheduling through it -- results, timeouts, dead workers -- is covered
by the fleet runner and serve daemon tests; here, what only the
transport itself can get wrong.
"""

from repro.fleet.workers import WorkerPool


def _wait_for_eof(conn):
    try:
        conn.recv()
    except EOFError:
        pass


def test_workers_see_eof_once_the_parent_end_closes():
    """No worker keeps a parent end open, its own or another's: when
    the parent dies, every worker's pipe reads EOF and it exits."""
    pool = WorkerPool(_wait_for_eof)
    pool.resize(2)
    workers = list(pool.workers)
    for worker in workers:
        worker.conn.close()  # what the parent's exit does to the pipe
    for worker in workers:
        worker.process.join(timeout=10.0)
        assert worker.process.exitcode == 0
