"""One cold set-up of the in-process workloads, in a fresh interpreter.

Usage::

    python3 perfbench/setup_probe.py

``run.py`` times this whole process (interpreter start, imports, first
boot, offline phase) to measure ``setup_s`` of paper-suite and
table2-detect.  The probe samples host speed itself, at the start, after
the imports and at the end, and prints the samples as one JSON list for
``run.py`` to scale its time with (see ``hostspeed.py``).
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import check_checkout, offline_phase  # noqa: E402
from hostspeed import measure_kernel  # noqa: E402

if __name__ == "__main__":
    samples = [measure_kernel()]
    check_checkout()
    import repro.analysis.similarity  # noqa: F401
    import repro.guest.machine  # noqa: F401

    samples.append(measure_kernel())
    offline_phase()
    samples.append(measure_kernel())
    print(json.dumps(samples))
