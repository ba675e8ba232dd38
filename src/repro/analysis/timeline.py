"""Per-app event timelines over the span journal (``repro.cli trace``).

Renders the runtime-phase causal chain the paper describes only
qualitatively: context-switch trap -> (deferred) resume trap -> EPT view
flip -> ``#UD`` in a view hole -> code recovery with provenance.  Every
row comes from the flight-recorder journal; a recovery's provenance
verdict is its ``provenance`` child span, so the timeline and the
provenance section are joined by recorded parent links, not by matching
timestamps.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.telemetry import (
    SpanNode,
    Telemetry,
    build_span_trees,
    format_counters,
    format_timeline,
)

#: Record kinds rendered in a timeline (``vmexit`` spans are elided --
#: every trap below already implies one).
TIMELINE_KINDS: Tuple[str, ...] = (
    "ctxsw_trap",
    "resume_trap",
    "view_switch",
    "view_skip",
    "recovery",
    "instant_recovery",
    "misdecode",
    "view_load",
    "view_unload",
    "module_load",
)

#: Fields that may attribute an entry to an application.
_APP_FIELDS = ("comm", "app", "view_app")


def _provenance(node: SpanNode) -> Dict[str, Any]:
    """A recovery span's provenance-verdict attrs ({} if unhandled)."""
    for child in node.children:
        if child.kind == "provenance":
            return child.attrs
    return {}


def _walk(node: SpanNode) -> Iterable[SpanNode]:
    yield node
    for child in node.children:
        yield from _walk(child)


def timeline_entries(
    records: Iterable[Dict[str, Any]],
    trees: Optional[List[SpanNode]] = None,
    app: Optional[str] = None,
) -> List[Dict[str, Any]]:
    """Timeline rows from journal records, in virtual-time order.

    Spans become rows shaped like journal ``event`` records (``kind``,
    ``cycles``, ``cpu``, ``fields``); a recovery row carries its
    provenance child's verdict and process context.  With ``app``,
    only rows attributable to it (by comm or view binding) are kept.
    """
    records = list(records)
    if trees is None:
        trees = build_span_trees(records)
    entries: List[Dict[str, Any]] = []
    for tree in trees:
        for node in _walk(tree):
            if node.kind not in TIMELINE_KINDS:
                continue
            fields = dict(node.attrs)
            if node.kind == "recovery":
                fields.update(_provenance(node))
            entries.append(
                {
                    "kind": node.kind,
                    "cycles": node.record.get("start", 0),
                    "cpu": node.record.get("cpu", 0),
                    "fields": fields,
                }
            )
    entries.extend(
        r for r in records
        if r.get("t") == "event" and r.get("kind") in TIMELINE_KINDS
    )
    entries.sort(key=lambda e: e.get("cycles", 0))
    if app is not None:
        entries = [
            e for e in entries
            if any(e["fields"].get(name) == app for name in _APP_FIELDS)
        ]
    return entries


def _format_recovery(node: SpanNode) -> str:
    attrs = node.attrs
    rec = node.record
    prov = _provenance(node)
    stamp = f"[{rec.get('start', 0):>12}] "
    if rec.get("status") != "ok":
        return stamp + f"UNHANDLED #UD at rip={attrs.get('rip', 0):#x}"
    lines = [
        stamp
        + f"Recover {attrs.get('rip', 0):#010x} {attrs.get('recovered', '?')} "
        f"for kernel[{prov.get('view_app')}]",
        f"verdict={prov.get('verdict', '?')} pid={prov.get('pid')} "
        f"comm={prov.get('comm')}"
        + (" (interrupt context)" if prov.get("in_interrupt") else ""),
    ]
    for child in node.children:
        if child.kind == "backtrace":
            lines.append(
                f"backtrace: {child.attrs.get('depth', 0)} frames, "
                f"{child.attrs.get('unknown', 0)} UNKNOWN, "
                f"{child.attrs.get('instant', 0)} instant recoveries"
            )
    return ("\n" + " " * 15).join(lines)


def format_trace_report(
    telemetry: Telemetry,
    records: Iterable[Dict[str, Any]],
    app: Optional[str] = None,
    limit: Optional[int] = 200,
) -> str:
    """The full ``repro trace`` rendering: counters, timeline, provenance."""
    records = list(records)
    trees = build_span_trees(records)
    sections: List[str] = []

    counters = format_counters(telemetry)
    if counters:
        sections.append("== counters ==\n" + counters)

    header = f"== timeline ({app}) ==" if app is not None else "== timeline =="
    timeline = format_timeline(
        timeline_entries(records, trees=trees, app=app), limit=limit
    )
    sections.append(header + "\n" + timeline)

    recoveries = [node for tree in trees for node in tree.find("recovery")]
    verdicts: Dict[str, int] = {}
    for node in recoveries:
        verdict = _provenance(node).get("verdict", "unhandled")
        verdicts[verdict] = verdicts.get(verdict, 0) + 1
    summary = ", ".join(f"{n} {v}" for v, n in sorted(verdicts.items()))
    sections.append(
        f"== recovery provenance ({len(recoveries)} recoveries"
        + (f": {summary}" if summary else "")
        + ") ==\n"
        + ("\n".join(_format_recovery(n) for n in recoveries)
           or "(no recoveries)")
    )

    return "\n\n".join(sections)
