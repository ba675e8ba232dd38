"""Forensic narratives from flight-recorder journals (``repro forensics``).

The paper's evaluation (Section IV) is a forensic reading of causal
chains: a ``#UD`` exit leads to a backtrace, a provenance verdict, and
either a benign recovery or a captured attack.  With a span journal
those chains are real trees (parent links recorded at runtime, see
:mod:`repro.telemetry.spans`); this module renders them as the
narrative the paper presents in Figures 4/5.

Given a serve daemon's ``--obs-dir`` archive instead of a journal, the
narrative is the daemon's operational incidents: every alert-rule
transition the archive replays (:func:`repro.obs.store.rebuild_alerts`).
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, List, Union

from repro.telemetry.journal import (
    JournalData,
    SpanNode,
    build_span_trees,
    load_journal,
)

#: Verdicts in severity order (worst first) for the summary line.
_VERDICT_ORDER = ("captured-attack", "anomalous", "benign")


def attack_trees(trees: List[SpanNode]) -> List[SpanNode]:
    """Root spans whose chain contains a captured-attack verdict."""
    return [
        tree
        for tree in trees
        if any(
            node.attrs.get("verdict") == "captured-attack"
            for node in tree.find("provenance")
        )
    ]


def narrate_tree(node: SpanNode, indent: int = 0) -> List[str]:
    """Render one span (and its subtree) as narrative lines."""
    pad = "  " * indent
    attrs = node.attrs
    rec = node.record
    kind = node.kind
    if kind == "vmexit":
        line = (
            f"{pad}vmexit {attrs.get('reason', '?')} at rip "
            f"{attrs.get('rip', 0):#x} "
            f"[cpu{rec.get('cpu', 0)} cycles {rec.get('start', 0)}"
            f"..{rec.get('end', 0)}]"
        )
        if rec.get("status") != "ok":
            line += f"  ({rec.get('status')})"
    elif kind == "backtrace":
        line = (
            f"{pad}backtrace: {attrs.get('depth', 0)} frames, "
            f"{attrs.get('unknown', 0)} UNKNOWN, "
            f"{attrs.get('instant', 0)} instant recoveries"
        )
    elif kind == "provenance":
        line = (
            f"{pad}provenance: verdict={attrs.get('verdict', '?')} "
            f"pid={attrs.get('pid')} comm={attrs.get('comm')} "
            f"view={attrs.get('view_app')}"
        )
        if attrs.get("in_interrupt"):
            line += " (interrupt context)"
        if attrs.get("unknown_frames"):
            line += " (UNKNOWN frames: hidden code)"
    elif kind == "recovery":
        status = rec.get("status", "ok")
        if status == "ok":
            line = (
                f"{pad}recovery: filled {attrs.get('recovered', '?')} "
                f"({attrs.get('bytes', 0)} bytes) at rip "
                f"{attrs.get('rip', 0):#x}"
            )
        else:
            line = (
                f"{pad}recovery: UNHANDLED at rip {attrs.get('rip', 0):#x} "
                "(guest would crash)"
            )
    elif kind == "view_switch":
        line = (
            f"{pad}view switch: {attrs.get('from_view')} -> "
            f"{attrs.get('to_view')} (kernel[{attrs.get('app')}], "
            f"{attrs.get('cost', 0)} cycles)"
        )
    else:
        detail = " ".join(f"{k}={v}" for k, v in sorted(attrs.items()))
        line = f"{pad}{kind}: {detail}".rstrip(": ")
    lines = [line]
    for event in node.events:
        fields = event.get("fields", {})
        detail = " ".join(f"{k}={v}" for k, v in sorted(fields.items()))
        lines.append(f"{pad}  . {event.get('kind', '?')} {detail}".rstrip())
    for child in node.children:
        lines.extend(narrate_tree(child, indent + 1))
    return lines


def _verdict_counts(trees: List[SpanNode]) -> Dict[str, int]:
    counts: Dict[str, int] = {}
    for tree in trees:
        for node in tree.find("provenance"):
            verdict = node.attrs.get("verdict", "?")
            counts[verdict] = counts.get(verdict, 0) + 1
    return counts


def render_journal_narrative(
    data: JournalData, limit: int = 50, all_exits: bool = False
) -> str:
    """The full ``repro forensics`` rendering for one journal.

    By default only *eventful* chains are narrated -- exits whose
    subtree contains a recovery, view switch or provenance verdict
    (plain traps would drown them out); ``all_exits`` keeps everything.
    """
    trees = build_span_trees(data.records)
    eventful = [
        tree
        for tree in trees
        if all_exits
        or tree.kind != "vmexit"
        or tree.children
        or tree.events
    ]
    verdicts = _verdict_counts(trees)
    attacks = attack_trees(trees)
    sections: List[str] = []

    header = [
        f"journal: {len(data.records)} records, "
        f"{len(trees)} causal chains ({len(eventful)} eventful), "
        f"{data.dropped} dropped"
        + ("" if data.complete else " [no footer: run did not close cleanly]")
    ]
    if data.meta:
        header.append(
            "meta: " + " ".join(f"{k}={v}" for k, v in sorted(data.meta.items()))
        )
    if verdicts:
        header.append(
            "verdicts: "
            + " ".join(
                f"{name}={verdicts[name]}"
                for name in _VERDICT_ORDER
                if name in verdicts
            )
        )
    sections.append("\n".join(header))

    if attacks:
        lines = [f"== captured attacks ({len(attacks)} chains) =="]
        for tree in attacks:
            lines.extend(narrate_tree(tree))
            lines.append("")
        sections.append("\n".join(lines).rstrip())

    shown = [tree for tree in eventful if tree not in attacks][:limit]
    omitted = len(eventful) - len(attacks) - len(shown)
    lines = ["== causal chains =="]
    if not shown and not attacks:
        lines.append("(no eventful chains recorded)")
    for tree in shown:
        lines.extend(narrate_tree(tree))
        lines.append("")
    if omitted > 0:
        lines.append(f"... ({omitted} further chains omitted)")
    sections.append("\n".join(lines).rstrip())

    return "\n\n".join(sections)


def render_incidents(root: Union[str, Path]) -> str:
    """Narrate the alert transitions archived under an ``--obs-dir``."""
    from repro.obs.store import read_archive, rebuild_alerts

    archive = read_archive(root)
    transitions = rebuild_alerts(archive)
    lines = [
        f"archive: {archive.segments} segments "
        f"({archive.torn_segments} torn), {archive.sample_count()} samples",
        f"== operational incidents ({len(transitions)} transitions) ==",
    ]
    if not transitions:
        lines.append("(no alert transitions recorded)")
    for transition in transitions:
        label = f" ({transition.label})" if transition.label else ""
        value = transition.value
        detail = (
            f" value={value:g} threshold={transition.threshold}"
            if isinstance(value, (int, float))
            else ""
        )
        lines.append(
            f"  {transition.state.upper():<9} {transition.rule}{label}{detail}"
        )
        if transition.state == "firing" and transition.description:
            lines.append(f"            {transition.description}")
    return "\n".join(lines)


def render_forensics(path: Union[str, Path]) -> str:
    """Render a journal's causal narrative, or an archive's incidents."""
    path = Path(path)
    if path.is_dir():
        return render_incidents(path)
    return render_journal_narrative(load_journal(path))
