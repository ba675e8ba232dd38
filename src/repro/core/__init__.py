"""FACE-CHANGE core: profiling, kernel views, switching, recovery.

The paper's contribution, layered over the simulated hypervisor:

* :mod:`repro.core.rangelist` -- K[app] range lists and the similarity
  index S (Section II, Equation 1).
* :mod:`repro.core.profiler` -- the QEMU-side basic-block profiler with
  per-process context tracking and interrupt-context capture (III-A).
* :mod:`repro.core.kernel_view` -- kernel view configuration files and
  union views (III-A1, IV-A2).
* :mod:`repro.core.view_manager` -- view construction: UD2 fill,
  whole-function widening via prologue-signature search, per-view host
  frames and EPT wiring (III-B1).
* :mod:`repro.core.switching` -- the context-switch / resume-userspace
  trap logic of Algorithm 1 (III-B2).
* :mod:`repro.core.recovery` -- invalid-opcode handling, ebp-chain
  backtraces, lazy/instant recovery (III-B3, Figure 3).
* :mod:`repro.core.provenance` -- the recovery log and attack-provenance
  reports (Figures 4 and 5).
* :mod:`repro.core.facechange` -- the facade tying it all together.
"""

from repro.core.rangelist import KernelProfile, RangeList, similarity_index
from repro.core.kernel_view import KernelViewConfig, union_view
from repro.core.profiler import Profiler
from repro.core.provenance import RecoveryEvent, RecoveryLog
from repro.core.scanner import HiddenCodeScanner
from repro.core.facechange import FaceChange

__all__ = [
    "FaceChange",
    "HiddenCodeScanner",
    "KernelProfile",
    "KernelViewConfig",
    "Profiler",
    "RangeList",
    "RecoveryEvent",
    "RecoveryLog",
    "similarity_index",
    "union_view",
]
