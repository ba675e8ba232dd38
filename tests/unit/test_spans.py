"""Causal span recorder: parenting, per-CPU stacks, journaling."""

from repro.telemetry import Journal, SpanRecorder, build_span_trees


def test_auto_parenting_from_open_stack():
    rec = SpanRecorder()
    root = rec.open("vmexit", cycles=10)
    child = rec.open("recovery", cycles=20)
    grandchild = rec.open("backtrace", cycles=30)
    assert root.parent_id is None
    assert child.parent_id == root.span_id
    assert grandchild.parent_id == child.span_id
    rec.close(grandchild, cycles=35)
    # after closing, the stack top is the child again
    sibling = rec.open("backtrace", cycles=40)
    assert sibling.parent_id == child.span_id
    rec.close(sibling, cycles=45)
    rec.close(child, cycles=50)
    rec.close(root, cycles=60)
    assert rec.current(0) is None


def test_per_cpu_stacks_are_independent():
    rec = SpanRecorder()
    a = rec.open("vmexit", cpu=0, cycles=1)
    b = rec.open("vmexit", cpu=1, cycles=2)
    child1 = rec.open("recovery", cpu=1, cycles=3)
    assert b.parent_id is None, "cpu1 root must not parent under cpu0"
    assert child1.parent_id == b.span_id
    assert rec.current(0) is a
    assert rec.current(1) is child1


def test_explicit_parent_overrides_stack():
    rec = SpanRecorder()
    root = rec.open("vmexit", cycles=1)
    other = rec.open("detour", cycles=2)
    explicit = rec.open("recovery", cycles=3, parent=root.span_id)
    assert explicit.parent_id == root.span_id
    assert other.parent_id == root.span_id
    explicit2 = rec.open("recovery", cycles=4, parent=None)
    assert explicit2.parent_id is None


def test_close_journals_the_record():
    journal = Journal()
    rec = SpanRecorder()
    rec.bind(journal)
    span = rec.open("vmexit", cycles=5, reason="INVALID_OPCODE")
    rec.close(span, cycles=9, charged=4)
    records = journal.records()
    assert len(records) == 1
    (record,) = records
    assert record["t"] == "span"
    assert record["kind"] == "vmexit"
    assert record["start"] == 5 and record["end"] == 9
    assert record["attrs"] == {"reason": "INVALID_OPCODE", "charged": 4}
    assert record["parent"] is None


def test_event_attaches_zero_duration_child():
    journal = Journal()
    rec = SpanRecorder()
    rec.bind(journal)
    span = rec.open("recovery", cycles=5)
    rec.mark("provenance", cycles=7, verdict="benign")
    rec.close(span, cycles=9)
    trees = build_span_trees(journal.records())
    assert len(trees) == 1
    (root,) = trees
    assert root.kind == "recovery"
    assert [c.kind for c in root.children] == ["provenance"]
    child = root.children[0]
    assert child.record["start"] == child.record["end"] == 7
    assert child.attrs["verdict"] == "benign"
    # the zero-duration child never occupied the open stack
    assert rec.current(0) is None


def test_children_precede_parents_in_journal_order():
    journal = Journal()
    rec = SpanRecorder()
    rec.bind(journal)
    root = rec.open("vmexit", cycles=1)
    child = rec.open("recovery", cycles=2)
    rec.close(child, cycles=3)
    rec.close(root, cycles=4)
    kinds = [r["kind"] for r in journal.records()]
    assert kinds == ["recovery", "vmexit"]
    trees = build_span_trees(journal.records())
    assert [t.kind for t in trees] == ["vmexit"]
    assert [c.kind for c in trees[0].children] == ["recovery"]


def test_reset_clears_open_stacks():
    rec = SpanRecorder()
    rec.open("vmexit", cycles=1)
    rec.reset()
    assert rec.current(0) is None
    fresh = rec.open("vmexit", cycles=2)
    assert fresh.parent_id is None
