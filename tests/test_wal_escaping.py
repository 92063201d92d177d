"""WAL persistence with hostile content: escaping round-trips."""

import pytest

from repro.axml.document import AXMLDocument
from repro.query.parser import parse_action
from repro.txn.operations import TransactionalOperation, build_compensation
from repro.txn.wal import OperationLog, entry_from_xml, entry_to_xml
from repro.xmlstore.serializer import canonical


def reencode(log: OperationLog) -> OperationLog:
    """*log* written as WAL frames and restored from them."""
    return OperationLog.from_entries(
        log.peer_id, [entry_from_xml(entry_to_xml(entry)) for entry in log]
    )


def test_snapshot_with_entities_roundtrips():
    axml = AXMLDocument.from_xml(
        '<Shop><item note="a &amp; b &lt; c"><name>Q&amp;A &lt;guide&gt;</name>'
        "</item></Shop>",
        name="Shop",
    )
    pre = canonical(axml.document)
    log = OperationLog("P")
    TransactionalOperation(
        "T1",
        parse_action(
            '<action type="delete"><location>Select i/name from i in '
            "Shop//item;</location></action>"
        ),
    ).execute(axml, None, log)
    restored = reencode(log)
    snapshot = restored.entries_for("T1")[0].records[0].snapshot_xml
    assert "&amp;" in snapshot  # still-escaped content inside the snapshot
    for plan in build_compensation(restored, "T1"):
        plan.execute(axml.document)
    assert canonical(axml.document) == pre
    name = axml.document.root.child_elements()[0].first_child("name")
    assert name.text_content() == "Q&A <guide>"


def test_action_xml_with_quotes_roundtrips():
    axml = AXMLDocument.from_xml("<D><x q='say \"hi\"'/></D>", name="D")
    log = OperationLog("P")
    TransactionalOperation(
        "T1",
        parse_action(
            '<action type="insert"><data><y note="it&apos;s"/></data>'
            "<location>Select d from d in D;</location></action>"
        ),
    ).execute(axml, None, log)
    restored = reencode(log)
    entry = restored.entries_for("T1")[0]
    assert entry.action_xml == log.entries_for("T1")[0].action_xml


def test_replace_record_with_multiple_inserts_roundtrips():
    axml = AXMLDocument.from_xml("<D><item><v>1</v></item></D>", name="D")
    log = OperationLog("P")
    TransactionalOperation(
        "T1",
        parse_action(
            '<action type="replace"><data><v>2</v></data><data><w>3</w></data>'
            "<location>Select i/v from i in D//item;</location></action>"
        ),
    ).execute(axml, None, log)
    restored = reencode(log)
    record = restored.entries_for("T1")[0].records[0]
    assert record.kind == "replace"
    assert len(record.inserted) == 2
    assert "1" in record.deleted.snapshot_xml


def test_deep_subtree_snapshot_roundtrips():
    axml = AXMLDocument.from_xml(
        "<D><tree><a><b><c attr='x'>deep &amp; nested</c></b></a></tree></D>",
        name="D",
    )
    pre = canonical(axml.document)
    log = OperationLog("P")
    TransactionalOperation(
        "T1",
        parse_action(
            '<action type="delete"><location>Select d/tree from d in D;'
            "</location></action>"
        ),
    ).execute(axml, None, log)
    for plan in build_compensation(reencode(log), "T1"):
        plan.execute(axml.document)
    assert canonical(axml.document) == pre
