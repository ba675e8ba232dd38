"""Outside-in span tracer: per-layer host time without touching the program.

The tracer replaces public functions of each layer (``LAYER_CALLS``) with
thin wrappers that open a span on entry and close it on return.  Spans
carry a name, start, end, parent and the run id; they are kept in memory
(per-thread columnar arrays, so a million spans cost ~24 MB) and written
out once when the run ends.  A span's *self* time is its duration minus
the time its child spans cover; a layer's self time is the sum over its
spans.  Re-entering the same span name (``map_frames`` calling
``map_frame``) is folded into the outer span so nothing is counted twice.

Guest-side counters that already exist in the program (TLB and decode
cache hits, retired instructions, syscalls) are read from outside too:
the ``Machine.run`` and ``Vcpu.run`` wrappers take per-machine deltas.

Everything here is host-time bookkeeping: wrappers call straight through,
so virtual-cycle results are unchanged with tracing on.
"""

from __future__ import annotations

import importlib
import json
import statistics
import threading
import time
import weakref
from array import array
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

#: (module, class or None for a module-level name, attribute, span name).
#: A span name's layer is its first two dotted parts, except where a
#: per-layer metric below groups names by prefix.
LAYER_CALLS: Sequence[Tuple[str, Optional[str], str, str]] = (
    ("repro.hypervisor.vcpu", None, "decode", "isa.decode"),
    ("repro.hypervisor.vcpu", "Vcpu", "run", "hypervisor.vcpu"),
    ("repro.hypervisor.kvm", "Hypervisor", "run", "hypervisor.run"),
    ("repro.hypervisor.kvm", "AddressTrapStage", "handle",
     "hypervisor.exit.address_trap"),
    ("repro.hypervisor.kvm", "InvalidOpcodeStage", "handle",
     "hypervisor.exit.invalid_opcode"),
    ("repro.hypervisor.kvm", "HltStage", "handle", "hypervisor.exit.hlt"),
    ("repro.hypervisor.jit", "JitState", "promote", "hypervisor.jit.promote"),
    ("repro.hypervisor.jit", "JitState", "translate",
     "hypervisor.jit.translate"),
    ("repro.memory.ept", "ExtendedPageTable", "map_frame", "memory.ept.remap"),
    ("repro.memory.ept", "ExtendedPageTable", "map_frames",
     "memory.ept.remap"),
    ("repro.memory.ept", "ExtendedPageTable", "unmap_frame",
     "memory.ept.remap"),
    ("repro.memory.ept", "ExtendedPageTable", "unmap_frames",
     "memory.ept.remap"),
    ("repro.memory.physmem", "SharedFrameStore", "break_on_write",
     "memory.cow.break"),
    ("repro.core.view_manager", "KernelView", "materialize_page",
     "memory.cow.materialize"),
    ("repro.kernel.runtime", "KernelRuntime", "eval_pred",
     "kernel.runtime.eval_pred"),
    ("repro.kernel.runtime", "KernelRuntime", "do_act",
     "kernel.runtime.do_act"),
    ("repro.kernel.runtime", "KernelRuntime", "resolve_slot",
     "kernel.runtime.resolve_slot"),
    ("repro.kernel.runtime", "KernelRuntime", "on_ctxsw",
     "kernel.runtime.on_ctxsw"),
    ("repro.kernel.runtime", "KernelRuntime", "on_software_interrupt",
     "kernel.runtime.on_software_interrupt"),
    ("repro.kernel.runtime", "KernelRuntime", "on_iret",
     "kernel.runtime.on_iret"),
    ("repro.kernel.runtime", "KernelRuntime", "deliver_interrupt",
     "kernel.runtime.deliver_interrupt"),
    ("repro.kernel.runtime", "KernelRuntime", "on_idle",
     "kernel.runtime.on_idle"),
    ("repro.core.switching", "ViewSwitcher", "switch_kernel_view",
     "core.switch"),
    ("repro.core.switching", "ViewSwitcher", "handle_context_switch_trap",
     "core.ctxsw_trap"),
    ("repro.core.recovery", "RecoveryEngine", "handle", "core.recovery"),
    ("repro.core.view_manager", "ViewBuilder", "build", "core.view_build"),
    ("repro.guest.machine", "Machine", "boot", "guest.boot"),
    ("repro.guest.machine", "Machine", "run", "guest.run"),
    ("repro.fleet.snapshot", "MachineSnapshot", "fork", "fleet.fork"),
    ("repro.fleet.jobs", None, "execute_job", "fleet.execute_job"),
    ("repro.serve.daemon", None, "execute_job", "fleet.execute_job"),
    ("repro.serve.daemon", "ServeDaemon", "metrics_view", "obs.metrics.tick"),
    ("repro.obs.metrics", "MetricsRecorder", "sample", "obs.metrics.tick"),
    ("repro.fleet.jobs", None, "telemetry_snapshot", "telemetry.snapshot"),
    ("repro.serve.daemon", None, "telemetry_snapshot", "telemetry.snapshot"),
    ("repro.serve.daemon", None, "merge_into", "telemetry.merge"),
)

#: guest counters read as per-machine deltas after every ``Machine.run``
_MACHINE_COUNTERS = (
    "mmu.tlb.hits", "mmu.tlb.misses", "decode.hits", "decode.misses",
)


class _ThreadBuffer:
    """One thread's spans, columnar; parents index into the same buffer."""

    def __init__(self, thread: str) -> None:
        self.thread = thread
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        #: open spans: [index, span-name id, child time covered]
        self.stack: List[list] = []
        #: span-name id -> summed self time
        self.self_s: Dict[int, float] = {}


class Tracer:
    """Install wrappers, collect spans, summarize per-layer metrics."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self._buffers: List[_ThreadBuffer] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patched: List[Tuple[Any, str, Any]] = []
        #: extra counts gathered by hooks (instructions, capped runs, ...)
        self.counts: Dict[str, int] = {}
        self._last_seen: "weakref.WeakKeyDictionary" = (
            weakref.WeakKeyDictionary()
        )
        self.clock = time.perf_counter

    # -- recording ----------------------------------------------------------

    def _name_id(self, name: str) -> int:
        with self._lock:
            nid = self._ids.get(name)
            if nid is None:
                nid = self._ids[name] = len(self.names)
                self.names.append(name)
            return nid

    def _buffer(self) -> _ThreadBuffer:
        buf = getattr(self._local, "buf", None)
        if buf is None:
            buf = _ThreadBuffer(threading.current_thread().name)
            with self._lock:
                self._buffers.append(buf)
            self._local.buf = buf
        return buf

    def wrap(
        self,
        fn: Callable,
        name: str,
        before: Optional[Callable] = None,
        after: Optional[Callable] = None,
    ) -> Callable:
        """A span-recording stand-in for ``fn``.

        ``before(args)`` may return a token handed to ``after(args,
        kwargs, token)`` once ``fn`` returns; hooks count work, they
        never change arguments or results.
        """
        nid = self._name_id(name)
        clock = self.clock
        get_buffer = self._buffer

        def traced(*args, **kwargs):
            buf = get_buffer()
            stack = buf.stack
            if stack and stack[-1][1] == nid:
                return fn(*args, **kwargs)
            index = len(buf.name)
            buf.name.append(nid)
            buf.parent.append(stack[-1][0] if stack else -1)
            frame = [index, nid, 0.0]
            stack.append(frame)
            token = before(args) if before is not None else None
            t0 = clock()
            buf.start.append(t0)
            buf.end.append(t0)
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                buf.end[index] = t1
                stack.pop()
                duration = t1 - t0
                if stack:
                    stack[-1][2] += duration
                self_s = buf.self_s
                self_s[nid] = self_s.get(nid, 0.0) + duration - frame[2]
                if after is not None:
                    after(args, kwargs, token)

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def _count(self, key: str, n: int) -> None:
        with self._lock:
            self.counts[key] = self.counts.get(key, 0) + n

    # -- hooks ----------------------------------------------------------------

    def _vcpu_before(self, args):
        return args[0].instructions

    def _vcpu_after(self, args, kwargs, token) -> None:
        self._count("instructions", args[0].instructions - token)

    def _run_after(self, args, kwargs, token) -> None:
        """Per-machine counter deltas, plus runs that hit their cycle cap."""
        machine = args[0]
        max_cycles = kwargs.get("max_cycles", args[1] if len(args) > 1 else None)
        until = kwargs.get("until", args[2] if len(args) > 2 else None)
        if (
            until is not None
            and max_cycles is not None
            and machine.cycles >= max_cycles
            and not until()
        ):
            self._count("capped_runs", 1)
        counters = machine.telemetry.counters
        now = {
            name: counters[name].value
            for name in _MACHINE_COUNTERS
            if name in counters
        }
        runtime = machine.runtime
        if runtime is not None:
            now["syscalls"] = runtime.syscalls_executed
        last = self._last_seen.get(machine, {})
        for key, value in now.items():
            self._count(key, value - last.get(key, 0))
        self._last_seen[machine] = now

    # -- install ----------------------------------------------------------------

    def install(self) -> None:
        hooks = {
            "hypervisor.vcpu": (self._vcpu_before, self._vcpu_after),
            "guest.run": (None, self._run_after),
        }
        for module_name, owner_name, attr, name in LAYER_CALLS:
            module = importlib.import_module(module_name)
            owner = module if owner_name is None else getattr(module, owner_name)
            original = owner.__dict__[attr]
            before, after = hooks.get(name, (None, None))
            setattr(owner, attr, self.wrap(original, name, before, after))
            self._patched.append((owner, attr, original))

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- results ----------------------------------------------------------------

    def durations(self) -> Dict[str, List[float]]:
        """Span name -> every closed span's duration (seconds)."""
        out: Dict[str, List[float]] = {name: [] for name in self.names}
        for buf in self._buffers:
            for nid, start, end in zip(buf.name, buf.start, buf.end):
                out[self.names[nid]].append(end - start)
        return out

    def self_times(self) -> Dict[str, float]:
        out: Dict[str, float] = {name: 0.0 for name in self.names}
        for buf in self._buffers:
            for nid, value in buf.self_s.items():
                out[self.names[nid]] += value
        return out

    def span_count(self) -> int:
        return sum(len(buf.name) for buf in self._buffers)

    def write(self, path: str) -> None:
        """Spans as one JSON header line, then each thread's raw arrays.

        Per thread: a JSON line ``{"thread", "spans"}`` followed by the
        ``name`` (int32), ``parent`` (int32), ``start`` and ``end``
        (float64, ``time.perf_counter`` seconds) arrays in native byte
        order, back to back.
        """
        with open(path, "wb") as fh:
            header = {
                "run_id": self.run_id,
                "names": self.names,
                "threads": len(self._buffers),
                "columns": ["name:i4", "parent:i4", "start:f8", "end:f8"],
            }
            fh.write(json.dumps(header).encode() + b"\n")
            for buf in self._buffers:
                line = {"thread": buf.thread, "spans": len(buf.name)}
                fh.write(json.dumps(line).encode() + b"\n")
                for column in (buf.name, buf.parent, buf.start, buf.end):
                    column.tofile(fh)

    def summary(self) -> Dict[str, Any]:
        """Everything :func:`layer_metrics` needs, JSON-serializable."""
        durations = self.durations()
        return {
            "run_id": self.run_id,
            "spans": self.span_count(),
            "self_s": self.self_times(),
            "total_s": {k: sum(v) for k, v in durations.items()},
            "count": {k: len(v) for k, v in durations.items()},
            "p50_s": {
                k: statistics.median(v) for k, v in durations.items() if v
            },
            "counts": dict(self.counts),
        }


def read_spans(path: str) -> Dict[str, Any]:
    """Load a file written by :meth:`Tracer.write`."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        threads = []
        for _ in range(header["threads"]):
            info = json.loads(fh.readline())
            cols = {}
            for col, code in (("name", "i"), ("parent", "i"),
                              ("start", "d"), ("end", "d")):
                arr = array(code)
                arr.fromfile(fh, info["spans"])
                cols[col] = arr
            threads.append({"thread": info["thread"], **cols})
    header["thread_spans"] = threads
    return header


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(summary: Dict[str, Any]) -> Dict[str, Tuple[float, str, str]]:
    """Per-layer metrics: name -> (value, unit, base).

    ``base`` states the count a ratio or unit cost was taken over, so
    every figure in the report carries its denominator.  A metric whose
    layer did no work on this workload reads 0.
    """
    self_s = summary["self_s"]
    total = summary["total_s"]
    count = summary["count"]
    p50 = summary["p50_s"]
    counts = summary["counts"]

    def n(name: str) -> int:
        return count.get(name, 0)

    def prefix_self(prefix: str) -> float:
        return sum(v for k, v in self_s.items() if k.startswith(prefix))

    instr = counts.get("instructions", 0)
    tlb = counts.get("mmu.tlb.hits", 0) + counts.get("mmu.tlb.misses", 0)
    dec = counts.get("decode.hits", 0) + counts.get("decode.misses", 0)
    translate_n = n("hypervisor.jit.translate")
    translate_s = (
        self_s.get("hypervisor.jit.translate", 0.0)
        + self_s.get("hypervisor.jit.promote", 0.0)
    )
    out: Dict[str, Tuple[float, str, str]] = {
        "isa.decode.count": (n("isa.decode"), "count", "decoded instrs"),
        "isa.decode.self_s": (self_s.get("isa.decode", 0.0), "s", ""),
        "hypervisor.vcpu.busy_s": (
            total.get("hypervisor.vcpu", 0.0), "s",
            f"{n('hypervisor.vcpu')} Vcpu.run calls",
        ),
        "hypervisor.vcpu.instructions": (instr, "count", "retired"),
        "hypervisor.vcpu.ns_per_instr": (
            _ratio(total.get("hypervisor.vcpu", 0.0) * 1e9, instr),
            "ns", f"{instr} retired instructions",
        ),
        "hypervisor.run.self_s": (
            self_s.get("hypervisor.run", 0.0), "s",
            f"{n('hypervisor.run')} exit-loop calls",
        ),
        "hypervisor.jit.translate.count": (translate_n, "count", "translations"),
        "hypervisor.jit.translate.self_s": (translate_s, "s", ""),
        "hypervisor.jit.translate.us_each": (
            _ratio(translate_s * 1e6, translate_n), "us",
            f"{translate_n} translations",
        ),
        "hypervisor.decode.hit_ratio": (
            _ratio(counts.get("decode.hits", 0), dec), "ratio",
            f"{dec} decode-cache lookups",
        ),
    }
    for reason in ("address_trap", "invalid_opcode", "hlt"):
        name = f"hypervisor.exit.{reason}"
        out[f"hypervisor.exit.count.{reason}"] = (n(name), "count", "exits")
        out[f"hypervisor.exit.us.{reason}"] = (
            _ratio(total.get(name, 0.0) * 1e6, n(name)), "us",
            f"{n(name)} exits",
        )
    remaps = n("memory.ept.remap")
    out.update({
        "memory.tlb.hit_ratio": (
            _ratio(counts.get("mmu.tlb.hits", 0), tlb), "ratio",
            f"{tlb} TLB lookups",
        ),
        "memory.ept.remap.count": (remaps, "count", "EPT map/unmap calls"),
        "memory.ept.remap.self_s": (
            self_s.get("memory.ept.remap", 0.0), "s", f"{remaps} calls",
        ),
        "memory.cow.materialize.count": (
            n("memory.cow.materialize") + n("memory.cow.break"), "count",
            "view-page materializations + CoW write breaks",
        ),
        "kernel.runtime.self_s": (
            prefix_self("kernel.runtime."), "s",
            f"{sum(v for k, v in count.items() if k.startswith('kernel.runtime.'))}"
            " bridge/entry calls",
        ),
        "kernel.syscalls.count": (counts.get("syscalls", 0), "count", ""),
        "kernel.ctxsw.count": (
            n("kernel.runtime.on_ctxsw"), "count", "context switches",
        ),
    })
    for short, name, unit, scale in (
        ("switch", "core.switch", "us", 1e6),
        ("ctxsw_trap", "core.ctxsw_trap", "us", 1e6),
        ("recovery", "core.recovery", "us", 1e6),
        ("view_build", "core.view_build", "ms", 1e3),
    ):
        out[f"core.{short}.count"] = (n(name), "count", "calls")
        out[f"core.{short}.{unit}_p50"] = (
            p50.get(name, 0.0) * scale, unit, f"{n(name)} calls",
        )
    out.update({
        "guest.boot.count": (n("guest.boot"), "count", "boots"),
        "guest.boot.ms_p50": (
            p50.get("guest.boot", 0.0) * 1e3, "ms", f"{n('guest.boot')} boots",
        ),
        "guest.run.capped": (
            counts.get("capped_runs", 0), "count",
            f"{n('guest.run')} Machine.run calls",
        ),
        "fleet.fork.count": (n("fleet.fork"), "count", "forks"),
        "fleet.fork.ms_p50": (
            p50.get("fleet.fork", 0.0) * 1e3, "ms", f"{n('fleet.fork')} forks",
        ),
        "fleet.execute_job.s_p50": (
            p50.get("fleet.execute_job", 0.0), "s",
            f"{n('fleet.execute_job')} jobs",
        ),
        "obs.metrics.tick.self_s": (
            self_s.get("obs.metrics.tick", 0.0), "s",
            f"{n('obs.metrics.tick')} view+sample calls",
        ),
        "telemetry.snapshot.self_s": (
            self_s.get("telemetry.snapshot", 0.0), "s",
            f"{n('telemetry.snapshot')} snapshots",
        ),
        "telemetry.merge.self_s": (
            self_s.get("telemetry.merge", 0.0), "s",
            f"{n('telemetry.merge')} merges",
        ),
    })
    return out
