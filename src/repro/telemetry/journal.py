"""Forensic flight recorder: an append-only, schema-versioned JSONL journal.

The journal is the one record stream of a recorded guest: it persists
what the monitor itself did, in order, with explicit loss accounting:

* line 1 is an unnumbered ``header`` record carrying the schema version
  and free-form run metadata;
* every body record gets a monotonically increasing ``seq`` starting at
  1 -- a reader can prove completeness: the only legitimate gaps are
  drops the writer accounted for;
* a ``footer`` records the final seq and total drops on a clean
  :meth:`Journal.close` (a crashed run simply has no footer -- the file
  is still valid and must then be gapless);
* a bounded in-memory journal (streamed jobs ship segments to their
  caller) evicts oldest-first and counts every eviction in ``dropped``;
* a :class:`TraceJournalWriter` reassembles streamed segments into a
  journal file on the receiving side.

Record kinds written today: ``span`` (closed causal spans, see
:mod:`repro.telemetry.spans`) and ``event`` (facts no span records --
view load/unload, module load, misdecode -- tagged with the innermost
open span, if any, so the loader can attach them to the tree).  Each
fact is recorded once: an ``event`` never repeats a span's kind.
Unknown kinds are preserved round-trip; the schema version only changes
when existing fields change meaning.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    Any, Deque, Dict, Iterable, List, Optional, Sequence, Tuple, Union,
)

#: Bump only when the meaning of existing fields changes.
JOURNAL_SCHEMA = 1


class JournalError(Exception):
    """Corrupt, truncated, or wrong-schema journal data."""


def _dumps(record: Dict[str, Any]) -> str:
    return json.dumps(record, separators=(",", ":"), sort_keys=True)


def _header_line(meta: Dict[str, Any]) -> str:
    return _dumps({"t": "header", "schema": JOURNAL_SCHEMA, "meta": meta}) + "\n"


def _footer_line(records: int, dropped: int) -> str:
    return _dumps({"t": "footer", "records": records, "dropped": dropped}) + "\n"


class Journal:
    """Append-only record sink; file-backed, in-memory, or both.

    ``path``      -- JSONL file to append to (header written immediately).
    ``capacity``  -- bound on the in-memory buffer; ``None`` = unbounded.
    ``keep``      -- retain records in memory (defaults to True without a
                     path, False with one -- the file already has them).
    ``meta``      -- free-form run metadata stored in the header.
    """

    def __init__(
        self,
        path: Optional[Union[str, Path]] = None,
        capacity: Optional[int] = None,
        keep: Optional[bool] = None,
        meta: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.path = Path(path) if path is not None else None
        self.capacity = capacity
        self.keep = keep if keep is not None else self.path is None
        self.meta = dict(meta or {})
        #: seq of the most recently appended body record
        self.seq = 0
        #: total records evicted from the in-memory buffer
        self.dropped = 0
        self._dropped_since_drain = 0
        self._buffer: Deque[Dict[str, Any]] = deque()
        self._fh = None
        self.closed = False
        if self.path is not None:
            self._fh = open(self.path, "w", encoding="utf-8")
            self._fh.write(_header_line(self.meta))

    # -- writing -------------------------------------------------------------

    def append(self, kind: str, /, **payload: Any) -> int:
        """Append one body record; returns its seq number.

        ``kind`` is positional-only so payloads may carry their own
        ``kind`` field (event records do).
        """
        if self.closed:
            return self.seq
        self.seq += 1
        record = dict(payload)
        record["t"] = kind
        record["seq"] = self.seq
        if self._fh is not None:
            self._fh.write(_dumps(record) + "\n")
        if self.keep:
            self._buffer.append(record)
            if self.capacity is not None and len(self._buffer) > self.capacity:
                self._buffer.popleft()
                self.dropped += 1
                self._dropped_since_drain += 1
        return self.seq

    def records(self) -> List[Dict[str, Any]]:
        """The in-memory records (empty unless ``keep``)."""
        return list(self._buffer)

    def drain_segment(self) -> Tuple[List[Dict[str, Any]], int]:
        """Pop buffered records for streaming.

        Returns ``(records, dropped_since_last_drain)``.  Drained records
        are *transmitted*, not lost -- they don't count as drops; the
        second element accounts evictions since the previous drain so a
        receiver concatenating segments can keep exact loss totals.
        """
        records = list(self._buffer)
        self._buffer.clear()
        dropped = self._dropped_since_drain
        self._dropped_since_drain = 0
        return records, dropped

    def close(self) -> None:
        """Write the footer (file mode) and stop accepting records."""
        if self.closed:
            return
        self.closed = True
        if self._fh is not None:
            self._fh.write(_footer_line(self.seq, self.dropped))
            self._fh.close()
            self._fh = None

    def flush(self) -> None:
        if self._fh is not None:
            self._fh.flush()

    def __deepcopy__(self, memo: Dict[int, Any]) -> "Journal":
        # Snapshot forks deepcopy the whole machine; an open file handle
        # can't be copied (and a fork must not write into its parent's
        # journal), so the clone gets a fresh, detached in-memory
        # journal with the same bounds.
        clone = Journal(capacity=self.capacity, keep=self.keep, meta=self.meta)
        memo[id(self)] = clone
        return clone


class TraceJournalWriter:
    """A journal file reassembled from streamed segments.

    Receives the raw records a job drains from its bounded in-memory
    journal and writes them verbatim (they keep their original
    monotonic ``seq``), under a standard header, so a cleanly-closed
    file satisfies the strict :func:`parse_journal`; a crash mid-job
    leaves a torn tail the archive's tolerant reader recovers from.
    """

    def __init__(self, path: Union[str, Path], meta: Dict[str, Any]) -> None:
        self.path = Path(path)
        self._fh = open(self.path, "w", encoding="utf-8")
        self._fh.write(_header_line(meta))
        self._fh.flush()
        self._last_seq = 0
        self._dropped = 0
        self.closed = False

    def extend(self, records: Sequence[Dict[str, Any]], dropped: int) -> None:
        if self.closed:
            return
        for record in records:
            self._fh.write(_dumps(record) + "\n")
            seq = record.get("seq")
            if isinstance(seq, int):
                self._last_seq = max(self._last_seq, seq)
        self._dropped += int(dropped)
        if records or dropped:
            self._fh.flush()

    def close(self) -> None:
        if self.closed:
            return
        self.closed = True
        self._fh.write(_footer_line(self._last_seq, self._dropped))
        self._fh.close()


# -- reading -----------------------------------------------------------------


@dataclass
class JournalData:
    """A parsed journal: header metadata, body records, loss accounting."""

    schema: int
    meta: Dict[str, Any]
    records: List[Dict[str, Any]]
    footer: Optional[Dict[str, Any]] = None

    @property
    def dropped(self) -> int:
        """Drops the writer accounted for (0 when no footer)."""
        if self.footer is None:
            return 0
        return int(self.footer.get("dropped", 0))

    @property
    def complete(self) -> bool:
        """True when a clean footer is present (run closed the journal)."""
        return self.footer is not None


def parse_journal(lines: Iterable[str]) -> JournalData:
    """Parse journal lines, verifying schema and seq completeness.

    Seq numbers must be strictly increasing, and the total number of
    missing seqs must not exceed the drops the footer accounts for --
    a journal with unexplained gaps is evidence of tampering or
    truncation and is rejected.
    """
    header: Optional[Dict[str, Any]] = None
    footer: Optional[Dict[str, Any]] = None
    records: List[Dict[str, Any]] = []
    for lineno, line in enumerate(lines, 1):
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except ValueError as exc:
            raise JournalError(f"line {lineno}: invalid JSON: {exc}") from exc
        if not isinstance(record, dict) or "t" not in record:
            raise JournalError(f"line {lineno}: not a journal record")
        kind = record["t"]
        if kind == "header":
            if header is not None:
                raise JournalError(f"line {lineno}: duplicate header")
            if records or footer is not None:
                raise JournalError(f"line {lineno}: header not first")
            schema = record.get("schema")
            if schema != JOURNAL_SCHEMA:
                raise JournalError(
                    f"unsupported journal schema {schema!r} "
                    f"(expected {JOURNAL_SCHEMA})"
                )
            header = record
            continue
        if header is None:
            raise JournalError(f"line {lineno}: record before header")
        if footer is not None:
            raise JournalError(f"line {lineno}: record after footer")
        if kind == "footer":
            footer = record
            continue
        seq = record.get("seq")
        if not isinstance(seq, int):
            raise JournalError(f"line {lineno}: body record without seq")
        if records and seq <= records[-1]["seq"]:
            raise JournalError(
                f"line {lineno}: seq {seq} not increasing "
                f"(previous {records[-1]['seq']})"
            )
        records.append(record)
    if header is None:
        raise JournalError("empty journal: no header record")
    data = JournalData(
        schema=int(header["schema"]),
        meta=dict(header.get("meta", {})),
        records=records,
        footer=footer,
    )
    last_seq = records[-1]["seq"] if records else 0
    missing = last_seq - len(records)
    if missing > data.dropped:
        raise JournalError(
            f"{missing} seq number(s) missing but only {data.dropped} "
            "drop(s) accounted for"
        )
    if footer is not None:
        declared = int(footer.get("records", last_seq))
        if declared < last_seq:
            raise JournalError(
                f"footer declares {declared} records but seq reaches {last_seq}"
            )
    return data


def load_journal(path: Union[str, Path]) -> JournalData:
    """Read and verify a journal file."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise JournalError(f"unreadable journal {path}: {exc}") from exc
    return parse_journal(text.splitlines())


# -- span-tree reconstruction -------------------------------------------------


@dataclass
class SpanNode:
    """A reconstructed span with its children and attached events."""

    record: Dict[str, Any]
    children: List["SpanNode"] = field(default_factory=list)
    events: List[Dict[str, Any]] = field(default_factory=list)

    @property
    def kind(self) -> str:
        return self.record.get("kind", "?")

    @property
    def span_id(self) -> int:
        return self.record["id"]

    @property
    def attrs(self) -> Dict[str, Any]:
        return self.record.get("attrs", {})

    def find(self, kind: str) -> List["SpanNode"]:
        """All descendants (and self) of the given kind, pre-order."""
        found = [self] if self.kind == kind else []
        for child in self.children:
            found.extend(child.find(kind))
        return found

    def to_dict(self) -> Dict[str, Any]:
        """Canonical nested form, for replay-equality comparison."""
        return {
            "kind": self.kind,
            "cpu": self.record.get("cpu"),
            "start": self.record.get("start"),
            "end": self.record.get("end"),
            "status": self.record.get("status"),
            "attrs": self.attrs,
            "events": [
                {k: v for k, v in event.items() if k != "seq"}
                for event in self.events
            ],
            "children": [child.to_dict() for child in self.children],
        }


def build_span_trees(records: Iterable[Dict[str, Any]]) -> List[SpanNode]:
    """Rebuild span trees from journal body records.

    Spans are journaled on *close*, so children precede parents in file
    order; linkage uses the recorded ids, not ordering.  A span whose
    parent is absent (dropped, or still open at the end of a truncated
    run) becomes a root.  Event records tagged with a span id attach to
    that span's node.
    """
    nodes: Dict[int, SpanNode] = {}
    events: List[Dict[str, Any]] = []
    order: List[SpanNode] = []
    for record in records:
        if record.get("t") == "span":
            node = SpanNode(record=record)
            nodes[record["id"]] = node
            order.append(node)
        elif record.get("t") == "event":
            events.append(record)
    roots: List[SpanNode] = []
    for node in order:
        parent_id = node.record.get("parent")
        parent = nodes.get(parent_id) if parent_id is not None else None
        if parent is not None:
            parent.children.append(node)
        else:
            roots.append(node)
    for event in events:
        target = nodes.get(event.get("span"))
        if target is not None:
            target.events.append(event)
    def _key(node: SpanNode) -> Tuple[int, int]:
        return (node.record.get("start", 0), node.span_id)
    for node in order:
        node.children.sort(key=_key)
        node.events.sort(key=lambda e: e.get("seq", 0))
    roots.sort(key=_key)
    return roots
