"""Run one ``repro.cli`` command with the benchmark's span tracer installed.

Usage::

    python3 perfbench/tracehost.py RUN_ID OUT_PREFIX -- <repro.cli args>

The program runs unmodified: the tracer wraps layer functions from
outside before the command starts.  When the command returns (for
``serve``: after a drained shutdown), spans go to ``OUT_PREFIX.spans``
and the per-span summary to ``OUT_PREFIX.json``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import check_checkout  # noqa: E402


def main(argv) -> int:
    if len(argv) < 3 or argv[2] != "--":
        print(__doc__, file=sys.stderr)
        return 2
    run_id, prefix, args = argv[0], argv[1], argv[3:]
    check_checkout()
    from tracer import Tracer

    tracer = Tracer(run_id)
    tracer.install()
    from repro.cli import main as cli_main

    try:
        code = cli_main(args)
    finally:
        tracer.restore()
        tracer.write(prefix + ".spans")
        Path(prefix + ".json").write_text(json.dumps(tracer.summary()))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
