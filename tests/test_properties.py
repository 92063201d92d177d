"""Property-based tests (hypothesis) on the library's core invariants.

* XML serialize ∘ parse is the identity on trees;
* dynamic compensation restores the canonical pre-state for arbitrary
  operation sequences — the paper's central correctness claim;
* peer chains round-trip through the bracket notation;
* the operation log's undo order is the reverse of execution order.
"""

import string as stringlib

from hypothesis import given, settings, strategies as st

from repro.axml.document import AXMLDocument
from repro.errors import UpdateError
from repro.p2p.chain import PeerChain
from repro.query.parser import parse_action
from repro.query.update import apply_action
from repro.sim.rng import SeededRng
from repro.sim.workload import OperationMix, generate_catalogue, generate_operation
from repro.txn.compensation import compensating_actions_for
from repro.txn.operations import build_compensation
from repro.txn.wal import OperationLog
from repro.xmlstore.nodes import Document, Element
from repro.xmlstore.parser import parse_document
from repro.xmlstore.serializer import canonical, serialize

# ---------------------------------------------------------------------------
# strategies
# ---------------------------------------------------------------------------

_name = st.text(
    alphabet=stringlib.ascii_lowercase, min_size=1, max_size=6
)
# Tab, newline and CR are in the alphabet: a conforming parser
# normalizes them (to a space in attribute values, CRLF to LF in text),
# so the serializer must escape them for trees to round-trip.
_alphabet = stringlib.ascii_letters + stringlib.digits + " \t\n\r&<>'\""
# The store is whitespace-normalizing (the parser trims surrounding
# whitespace of text nodes), so generated text is pre-stripped.
_text_value = (
    st.text(alphabet=_alphabet, min_size=1, max_size=12)
    .map(str.strip)
    .filter(bool)
)
# Attribute values are kept verbatim, surrounding whitespace included.
_attribute_value = st.text(alphabet=_alphabet, max_size=12)


@st.composite
def xml_trees(draw, max_depth=3):
    """A random Document with arbitrary names, attributes and text."""

    def build(parent: Element, depth: int) -> None:
        for _ in range(draw(st.integers(0, 3))):
            kind = draw(st.sampled_from(["element", "text"]))
            if kind == "text":
                parent.new_text(draw(_text_value))
            else:
                child = parent.new_element(draw(_name))
                for attr in draw(st.lists(_name, max_size=2, unique=True)):
                    child.attributes[attr] = draw(_attribute_value)
                if depth < max_depth:
                    build(child, depth + 1)

    document = Document("prop")
    root = document.create_root(draw(_name))
    build(root, 0)
    return document


class TestXmlRoundtrip:
    @given(xml_trees())
    @settings(max_examples=60, deadline=None)
    def test_parse_serialize_identity(self, document):
        text = serialize(document)
        reparsed = parse_document(text)
        assert canonical(reparsed) == canonical(document)

    @given(xml_trees())
    @settings(max_examples=30, deadline=None)
    def test_id_persistence_roundtrip(self, document):
        from repro.xmlstore.serializer import rebind_ids

        text = serialize(document, include_ids=True)
        reparsed = parse_document(text)
        rebind_ids(reparsed)
        original_ids = {e.node_id for e in document.iter_elements()}
        restored_ids = {e.node_id for e in reparsed.iter_elements()}
        assert original_ids == restored_ids

    @given(xml_trees())
    @settings(max_examples=30, deadline=None)
    def test_clone_preserves_canonical(self, document):
        assert canonical(document.clone()) == canonical(document)

    @given(xml_trees())
    @settings(max_examples=30, deadline=None)
    def test_subtree_size_consistent(self, document):
        assert document.size() == sum(1 for _ in document.iter())


class TestCompensationProperty:
    """The §3.1 invariant: op ∘ compensation == identity (canonically)."""

    @given(st.integers(0, 2**31 - 1), st.integers(1, 12))
    @settings(max_examples=40, deadline=None)
    def test_random_transaction_compensates_exactly(self, seed, length):
        rng = SeededRng(seed)
        axml = generate_catalogue(rng, item_count=rng.randint(3, 10), name="Cat")
        document = axml.document
        pre = canonical(document)
        applied = []
        for _ in range(length):
            action = generate_operation(rng, axml)
            try:
                result = apply_action(document, action)
            except UpdateError:
                continue  # operation found no target; skip
            applied.append(result)
        # compensate in reverse order of application
        for result in reversed(applied):
            for comp in compensating_actions_for(result, "Cat"):
                apply_action(document, comp, tolerate_missing_targets=True)
        assert canonical(document) == pre

    @given(st.integers(0, 2**31 - 1), st.integers(1, 10))
    @settings(max_examples=30, deadline=None)
    def test_log_driven_compensation(self, seed, length):
        """Same invariant, via the WAL + build_compensation path."""
        rng = SeededRng(seed)
        axml = generate_catalogue(rng, item_count=rng.randint(3, 8), name="Cat")
        log = OperationLog("P")
        pre = canonical(axml.document)
        from repro.txn.operations import TransactionalOperation

        for _ in range(length):
            action = generate_operation(rng, axml)
            try:
                TransactionalOperation("T1", action).execute(axml, None, log)
            except UpdateError:
                continue
        for plan in build_compensation(log, "T1"):
            plan.execute(axml.document)
        assert canonical(axml.document) == pre

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=30, deadline=None)
    def test_unordered_compensation_reaches_acceptable_state(self, seed):
        """Unordered mode must still restore content, if not order."""
        rng = SeededRng(seed)
        axml = generate_catalogue(rng, item_count=5, name="Cat")
        document = axml.document
        pre_names = sorted(
            e.name.local for e in document.iter_elements()
        )
        action = generate_operation(rng, axml, OperationMix(0, 1, 0, 0))
        result = apply_action(document, action)
        for comp in compensating_actions_for(result, "Cat", ordered=False):
            apply_action(document, comp, tolerate_missing_targets=True)
        post_names = sorted(e.name.local for e in document.iter_elements())
        assert post_names == pre_names


class TestChainProperty:
    @given(st.integers(0, 2**31 - 1), st.integers(1, 12))
    @settings(max_examples=50, deadline=None)
    def test_random_chain_roundtrip(self, seed, size):
        rng = SeededRng(seed)
        chain = PeerChain("AP1", root_super=rng.coin(0.5))
        peers = ["AP1"]
        for index in range(2, size + 2):
            parent = rng.choice(peers)
            peer = f"AP{index}"
            chain.add_invocation(parent, peer, rng.coin(0.3))
            peers.append(peer)
        restored = chain.copy()
        assert restored.to_text() == chain.to_text()
        for peer in peers:
            assert restored.parent_of(peer) == chain.parent_of(peer)
            assert restored.children_of(peer) == chain.children_of(peer)

    @given(st.integers(0, 2**31 - 1), st.integers(2, 10))
    @settings(max_examples=30, deadline=None)
    def test_ancestors_connect_to_root(self, seed, size):
        rng = SeededRng(seed)
        chain = PeerChain("AP1")
        peers = ["AP1"]
        for index in range(2, size + 2):
            parent = rng.choice(peers)
            chain.add_invocation(parent, f"AP{index}")
            peers.append(f"AP{index}")
        for peer in peers[1:]:
            ancestors = chain.ancestors_of(peer)
            assert ancestors[-1] == "AP1"
            # walking parents one at a time gives the same list
            walked, current = [], peer
            while chain.parent_of(current):
                current = chain.parent_of(current)
                walked.append(current)
            assert walked == ancestors


class TestLogProperty:
    @given(st.lists(st.sampled_from(["T1", "T2", "T3"]), min_size=1, max_size=20))
    @settings(max_examples=40, deadline=None)
    def test_undo_order_is_reverse(self, txn_ids):
        log = OperationLog()
        for txn_id in txn_ids:
            log.append(txn_id, "update", "D", "<a/>")
        for txn_id in set(txn_ids):
            entries = log.entries_for(txn_id)
            assert [e.seq for e in log.undo_entries(txn_id)] == [
                e.seq for e in reversed(entries)
            ]

    @given(st.lists(st.sampled_from(["T1", "T2"]), min_size=1, max_size=15))
    @settings(max_examples=30, deadline=None)
    def test_truncate_leaves_others(self, txn_ids):
        log = OperationLog()
        for txn_id in txn_ids:
            log.append(txn_id, "update", "D", "<a/>")
        t2_count = len(log.entries_for("T2"))
        log.truncate("T1")
        assert log.entries_for("T1") == []
        assert len(log.entries_for("T2")) == t2_count
