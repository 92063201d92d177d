"""Decoder fuzzing for the log-entry XML codec.

Frames come from :func:`entry_to_xml` and :meth:`OperationLog.to_text`;
hypothesis truncates them, flips or overwrites single bytes, and splices
two frames together.  Every mutated input must either be rejected with
:class:`XmlParseError` (``from_text`` may also give its documented
duplicate-seq ``ValueError``) or decode *exactly*: the decoded value,
encoded again, is the same XML tree as the input.  The codec carries no
checksum, so a flip inside a value yields a different but exactly
decoded entry; what may never happen is another exception type, or an
accepted frame whose content the decoder silently dropped or re-spelled.
"""

import os
import string as stringlib

import pytest
from hypothesis import Phase, given, settings, strategies as st

from repro.errors import XmlParseError
from repro.query.update import DeleteRecord, InsertRecord, ReplaceRecord
from repro.txn.durable_wal import DurableWal
from repro.txn.wal import LogEntry, OperationLog, entry_from_xml, entry_to_xml
from repro.xmlstore.nodes import NodeId
from repro.xmlstore.parser import parse_document
from repro.xmlstore.serializer import canonical

# ---------------------------------------------------------------------------
# strategies
# ---------------------------------------------------------------------------

# No explain phase: its tracing is slow and memory-hungry on a failure,
# and the shrunk example alone already names the offending frame.
_PHASES = tuple(phase for phase in Phase if phase is not Phase.explain)

_alphabet = stringlib.ascii_letters + stringlib.digits + " \t\n\r&<>'\"=/é"
# Text content is whitespace-stripped by the store, so generated text
# is pre-stripped; attribute values are kept verbatim.
_text = st.text(alphabet=_alphabet, max_size=16).map(str.strip)
_word = st.text(alphabet=_alphabet, max_size=8)
_node_id = st.builds(NodeId, st.integers(1, 999), st.integers(1, 999))
_index = st.integers(0, 50)

_delete = st.builds(
    DeleteRecord, node_id=_node_id, parent_id=_node_id, index=_index,
    before_id=st.none() | _node_id, after_id=st.none() | _node_id,
    snapshot_xml=_text,
)
_insert = st.builds(
    InsertRecord, node_id=_node_id, parent_id=_node_id, index=_index,
    inserted_xml=_text,
)
_replace = st.builds(ReplaceRecord, _delete, st.lists(_insert, max_size=2))

entries = st.builds(
    LogEntry,
    seq=st.integers(1, 10**6),
    txn_id=_word,
    kind=st.sampled_from(["update", "query", "service"]),
    document_name=_word,
    action_xml=_text,
    records=st.lists(st.one_of(_delete, _insert, _replace), max_size=3),
    timestamp=st.floats(0, 1e6, allow_nan=False),
)


def _flip(text: str, index: int, value: int, xor: bool) -> str:
    """Flip bits of (or overwrite) one byte of the UTF-8 encoding; bytes
    that are no longer UTF-8 reach the decoder as lone surrogates."""
    raw = bytearray(text.encode("utf-8"))
    index %= len(raw)
    raw[index] = raw[index] ^ value if xor else value
    return raw.decode("utf-8", "surrogateescape")


def mutations(frame: str, other: str):
    """Truncations, single-byte flips/overwrites and splices of *frame*."""
    truncated = st.integers(0, len(frame) - 1).map(lambda i: frame[:i])
    flipped = st.builds(
        _flip, st.just(frame), st.integers(0, 10**6),
        st.integers(1, 255), st.booleans(),
    )
    spliced = st.builds(
        lambda i, j: frame[:i] + other[j:],
        st.integers(0, len(frame)), st.integers(0, len(other)),
    )
    return st.one_of(truncated, flipped, spliced)


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------

def _tree(text: str) -> str:
    return canonical(parse_document(text))


def check_entry_frame(text: str) -> None:
    try:
        entry = entry_from_xml(text)
    except XmlParseError:
        return
    assert _tree(entry_to_xml(entry)) == _tree(text)


def check_log_text(text: str) -> None:
    try:
        log = OperationLog.from_text(text)
    except XmlParseError:
        return
    except ValueError as exc:
        assert "duplicate log seq" in str(exc)
        return
    root = parse_document(text).root
    assert log.peer_id == root.attributes["peer"]
    # from_text re-orders entries by seq, so compare them as a multiset.
    decoded = sorted(canonical(parse_document(entry_to_xml(e)).root) for e in log)
    assert decoded == sorted(canonical(element) for element in root.children)


def _log(peer: str, items) -> OperationLog:
    unique = {entry.seq: entry for entry in items}
    return OperationLog.from_entries(peer, list(unique.values()))


# ---------------------------------------------------------------------------
# tests
# ---------------------------------------------------------------------------

class TestEntryFrames:
    @given(entries)
    @settings(max_examples=100, deadline=None)
    def test_unmutated_frame_decodes_to_the_written_entry(self, entry):
        assert entry_from_xml(entry_to_xml(entry)) == entry

    @given(entries, entries, st.data())
    @settings(max_examples=250, deadline=None, phases=_PHASES)
    def test_mutated_frame_rejected_or_exact(self, entry, other, data):
        frame = entry_to_xml(entry)
        mutated = data.draw(mutations(frame, entry_to_xml(other)))
        check_entry_frame(mutated)
        if mutated == frame:
            assert entry_from_xml(mutated) == entry


class TestLogText:
    @given(_word, st.lists(entries, max_size=3))
    @settings(max_examples=60, deadline=None)
    def test_unmutated_log_roundtrips(self, peer, items):
        log = _log(peer, items)
        restored = OperationLog.from_text(log.to_text())
        assert restored.peer_id == peer
        assert list(restored) == list(log)

    @given(_word, st.lists(entries, min_size=1, max_size=3), entries, st.data())
    @settings(max_examples=150, deadline=None, phases=_PHASES)
    def test_mutated_log_rejected_or_exact(self, peer, items, other, data):
        text = _log(peer, items).to_text()
        check_log_text(data.draw(mutations(text, _log(peer, [other]).to_text())))


_FRAME = (
    '<entry document="D" kind="update" seq="3" timestamp="0.5" txn="T1">'
    "<forward>x</forward></entry>"
)


def test_valid_frame_accepted():
    assert entry_from_xml(_FRAME).seq == 3


@pytest.mark.parametrize(
    "old,new",
    [
        ("</entry>", "<recorf/></entry>"),  # element the decoder would skip
        ("</entry>", "<forward>y</forward></entry>"),  # second <forward>
        ("</entry>", "stray</entry>"),  # text the decoder would skip
        ('seq="3"', 'seq="03"'),  # non-canonical number
        ('timestamp="0.5"', 'timestamp="5e-1"'),
        (' seq="3"', ""),  # missing attribute
        ("<entry ", '<entry x="1" '),  # attribute the decoder would skip
        ("entry", "log"),  # another root element
        ("</entry>", '<record kind="move"/></entry>'),  # unknown record kind
        # insert record without its <data> payload
        ("</entry>", '<record index="0" kind="insert" node="d1.n2" parent="d1.n1"/></entry>'),
        # non-canonical node id
        (
            "</entry>",
            '<record index="0" kind="insert" node="d01.n2" parent="d1.n1"><data/></record>'
            "</entry>",
        ),
    ],
)
def test_well_formed_non_frames_rejected(old, new):
    with pytest.raises(XmlParseError):
        entry_from_xml(_FRAME.replace(old, new))


def test_invalid_utf8_in_segment_is_a_torn_tail(tmp_path):
    wal = DurableWal(str(tmp_path), peer_id="P1")
    log = OperationLog("P1")
    log.sink = wal
    for i in range(3):
        log.append("T1", "update", "D", f"<a i='{i}'/>")
    wal.close()
    segment = tmp_path / sorted(n for n in os.listdir(tmp_path) if n.endswith(".seg"))[-1]
    data = bytearray(segment.read_bytes())
    data[data.rindex(b"<forward>") + 1] = 0xFF  # last frame, same length
    segment.write_bytes(bytes(data))
    # Reopening scans the directory: the undecodable frame is a torn
    # tail (discarded), not an exception.
    reopened = DurableWal(str(tmp_path), peer_id="P1")
    assert [e.seq for e in reopened.load().entries] == [1, 2]
    reopened.close()
