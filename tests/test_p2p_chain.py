"""Unit tests for active-peer chains (repro.p2p.chain), and for the
chain snapshots peers carry on invocations and results."""

import pytest

from repro.api import Cluster
from repro.axml.document import AXMLDocument
from repro.errors import P2PError
from repro.p2p.chain import PeerChain
from repro.p2p.network import SimNetwork
from repro.p2p.peer import AXMLPeer
from repro.services.descriptor import ServiceDescriptor
from repro.services.service import UpdateService

#: The paper's §3.3 example chain.
PAPER_CHAIN = "[AP1* -> AP2 -> [AP3 -> AP6] || [AP4 -> AP5]]"


def build(root: str, *edges, root_super: bool = False) -> PeerChain:
    """A chain rooted at *root*, grown by ``add_invocation`` over *edges*
    — ``(parent, child)`` or ``(parent, child, child_super)`` tuples."""
    chain = PeerChain(root, root_super=root_super)
    for edge in edges:
        chain.add_invocation(*edge)
    return chain


def paper_chain() -> PeerChain:
    return build(
        "AP1",
        ("AP1", "AP2"), ("AP2", "AP3"), ("AP2", "AP4"),
        ("AP3", "AP6"), ("AP4", "AP5"),
        root_super=True,
    )


def shape(chain: PeerChain):
    """The tree as nested ``(peer_id, super_peer, children)`` tuples."""
    def node_shape(node):
        return (node.peer_id, node.super_peer, [node_shape(c) for c in node.children])

    return node_shape(chain.root)


class TestConstruction:
    def test_paper_notation(self):
        assert paper_chain().to_text() == PAPER_CHAIN

    def test_single_chain_inline(self):
        chain = PeerChain("A")
        chain.add_invocation("A", "B")
        chain.add_invocation("B", "C")
        assert chain.to_text() == "[A -> B -> C]"

    def test_unknown_parent_rejected(self):
        with pytest.raises(P2PError):
            PeerChain("A").add_invocation("ghost", "B")

    def test_peers(self):
        assert paper_chain().peers() == ["AP1", "AP2", "AP3", "AP6", "AP4", "AP5"]


class TestNavigation:
    def test_parent_of(self):
        chain = paper_chain()
        assert chain.parent_of("AP6") == "AP3"
        assert chain.parent_of("AP2") == "AP1"
        assert chain.parent_of("AP1") is None
        assert chain.parent_of("ghost") is None

    def test_children_of(self):
        chain = paper_chain()
        assert chain.children_of("AP2") == ["AP3", "AP4"]
        assert chain.children_of("AP6") == []

    def test_siblings_of(self):
        chain = paper_chain()
        assert chain.siblings_of("AP3") == ["AP4"]
        assert chain.siblings_of("AP4") == ["AP3"]
        assert chain.siblings_of("AP1") == []

    def test_descendants_of(self):
        chain = paper_chain()
        assert set(chain.descendants_of("AP2")) == {"AP3", "AP6", "AP4", "AP5"}
        assert chain.descendants_of("AP3") == ["AP6"]

    def test_ancestors_nearest_first(self):
        chain = paper_chain()
        assert chain.ancestors_of("AP6") == ["AP3", "AP2", "AP1"]

    def test_closest_super_peer(self):
        chain = paper_chain()
        assert chain.closest_super_peer("AP6") == "AP1"
        assert chain.closest_super_peer("AP2") == "AP1"
        assert chain.closest_super_peer("AP1") is None

    def test_contains(self):
        chain = paper_chain()
        assert chain.contains("AP5")
        assert not chain.contains("APX")


class TestSerialization:
    def test_roundtrip(self):
        chain = paper_chain()
        restored = chain.copy()
        assert restored.to_text() == chain.to_text() == PAPER_CHAIN
        assert restored.parent_of("AP6") == "AP3"
        assert restored.find("AP1").super_peer

    def test_roundtrip_single(self):
        assert PeerChain("A").copy().to_text() == "[A]"

    def test_super_flag_roundtrip(self):
        chain = build("A", ("A", "B", True), root_super=True)
        restored = chain.copy()
        assert restored.find("B").super_peer
        assert restored.to_text() == "[A* -> B*]"

    def test_copy_is_independent(self):
        chain = paper_chain()
        copy = chain.copy()
        copy.add_invocation("AP6", "AP9")
        assert not chain.contains("AP9")
        assert copy.contains("AP9")

    def test_structural_copy_matches_node_for_node(self):
        chain = paper_chain()
        structural = chain.copy()
        assert shape(structural) == shape(chain)
        assert structural.root.parent is None
        for copied, original in zip(structural.root.iter(), chain.root.iter()):
            assert copied is not original
            assert all(child.parent is copied for child in copied.children)

    def test_deep_parallel_roundtrip(self):
        chain = build(
            "R", ("R", "A"), ("R", "B"), ("A", "A1"), ("A", "A2"), ("B", "B1")
        )
        restored = chain.copy()
        assert restored.children_of("A") == ["A1", "A2"]
        assert restored.children_of("B") == ["B1"]
        assert restored.to_text() == "[R -> [A -> [A1] || [A2]] || [B -> B1]]"

    def test_copy_keeps_ids_outside_the_notation(self):
        # The notation cannot spell ':' and reads a trailing '*' as the
        # super flag; a structural snapshot carries any id unchanged.
        chain = build("AP1", ("AP1", "AP2:x"), ("AP2:x", "C*"), root_super=True)
        restored = chain.copy()
        assert restored.peers() == ["AP1", "AP2:x", "C*"]
        assert not restored.find("C*").super_peer
        assert restored.find("C") is None


class TestCarriedChain:
    """The chain travels as a snapshot, whatever its peer ids spell."""

    def test_peer_id_outside_the_notation_alphabet(self):
        cluster = Cluster.from_topology(
            {"AP1": [("AP2:x", "S2:x")], "AP2:x": [("AP3", "S3")]}
        )
        txn, error = cluster.run_topology()
        assert error is None
        chain = cluster.peer("AP3").chains[txn.txn_id]
        assert chain.ancestors_of("AP3") == ["AP2:x", "AP1"]
        assert cluster.peer("AP1").chains[txn.txn_id].to_text() == (
            "[AP1* -> AP2:x -> AP3]"
        )

    def test_star_suffixed_peer_stays_an_ordinary_peer(self):
        network = SimNetwork()
        origin = AXMLPeer("Origin", network, super_peer=True)
        worker = AXMLPeer("C*", network)
        worker.host_document(AXMLDocument.from_xml("<D/>", name="D"))
        worker.host_service(
            UpdateService(
                ServiceDescriptor("mark", kind="update", target_document="D"),
                '<action type="insert"><data><m/></data>'
                "<location>Select d from d in D;</location></action>",
            )
        )
        txn = origin.begin_transaction()
        origin.invoke(txn.txn_id, "C*", "mark", {})
        view = worker.chains[txn.txn_id]
        assert view.peers() == ["Origin", "C*"]
        assert not view.find("C*").super_peer
        assert view.closest_super_peer("C*") == "Origin"

    def _siblings(self):
        cluster = Cluster.from_topology(
            {"AP1": [("AP2", "S2"), ("AP3", "S3")]}
        )
        txn, error = cluster.run_topology()
        assert error is None
        return cluster, txn.txn_id

    def test_caller_changes_after_invoke_stay_out_of_callee_view(self):
        cluster, txn_id = self._siblings()
        # AP1 enlisted AP3 after invoking AP2: AP2's view predates it.
        assert cluster.peer("AP1").chains[txn_id].children_of("AP1") == ["AP2", "AP3"]
        assert not cluster.peer("AP2").chains[txn_id].contains("AP3")
        cluster.peer("AP1").chains[txn_id].add_invocation("AP1", "AP9")
        assert not cluster.peer("AP2").chains[txn_id].contains("AP9")
        assert not cluster.peer("AP3").chains[txn_id].contains("AP9")

    def test_callee_changes_after_return_stay_out_of_caller_view(self):
        cluster, txn_id = self._siblings()
        cluster.peer("AP2").chains[txn_id].add_invocation("AP2", "AP8")
        assert not cluster.peer("AP1").chains[txn_id].contains("AP8")
        assert not cluster.peer("AP3").chains[txn_id].contains("AP8")
