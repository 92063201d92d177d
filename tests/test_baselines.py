"""Unit tests for the comparison baselines (repro.baselines)."""

import pytest

from repro.axml.document import AXMLDocument
from repro.axml.materialize import MaterializationEngine
from repro.outcome import Outcome
from repro.baselines.snapshot_rollback import SnapshotRollback
from repro.baselines.static_compensation import CoverageReport, StaticCompensator
from repro.baselines.two_phase_commit import TwoPhaseCoordinator, TwoPhaseOutcome
from repro.p2p.network import SimNetwork
from repro.query.parser import parse_action, parse_select
from repro.query.update import apply_action
from repro.xmlstore.parser import parse_document
from repro.xmlstore.serializer import canonical


class StubPeer:
    def __init__(self, peer_id, network):
        self.peer_id = peer_id
        self.disconnected = False
        network.register(self)

    def handle_invoke(self, request):  # pragma: no cover - unused
        raise AssertionError

    def on_notify(self, message):
        pass

    def on_return_failure(self, request, result):  # pragma: no cover
        pass


class TestStaticCompensator:
    ATP = (
        "<ATPList><player><name><lastname>Nadal</lastname></name>"
        "<citizenship>Spanish</citizenship></player></ATPList>"
    )

    def test_fresh_handler_restores_replace(self):
        doc = parse_document(self.ATP, name="ATPList")
        compensator = StaticCompensator()
        action = parse_action(
            '<action type="replace"><data><citizenship>USA</citizenship></data>'
            "<location>Select p/citizenship from p in ATPList//player;"
            "</location></action>"
        )
        handler_xml = StaticCompensator.derive_handler(action, doc)
        compensator.define("op1", handler_xml)
        pre = doc.clone(preserve_ids=True)
        apply_action(doc, action)
        report = CoverageReport()
        compensator.compensate("op1", doc, pre, report)
        assert report.covered == 1
        assert report.restored_exactly == 1

    def test_stale_handler_leaves_wrong_state(self):
        doc = parse_document(self.ATP, name="ATPList")
        compensator = StaticCompensator()
        action = parse_action(
            '<action type="replace"><data><citizenship>USA</citizenship></data>'
            "<location>Select p/citizenship from p in ATPList//player;"
            "</location></action>"
        )
        # Handler derived now (citizenship=Spanish) ...
        compensator.define("op1", StaticCompensator.derive_handler(action, doc))
        # ... but the document changes before the operation runs.
        apply_action(
            doc,
            parse_action(
                '<action type="replace"><data><citizenship>French</citizenship>'
                "</data><location>Select p/citizenship from p in ATPList//player;"
                "</location></action>"
            ),
        )
        pre = doc.clone(preserve_ids=True)  # now French
        apply_action(doc, action)  # -> USA
        report = CoverageReport()
        compensator.compensate("op1", doc, pre, report)
        # The stale handler restored Spanish, not French.
        assert report.wrong_state == 1
        assert "Spanish" in canonical(doc)

    def test_query_has_no_handler(self):
        doc = parse_document(self.ATP, name="ATPList")
        action = parse_action(
            '<action type="query"><location>Select p from p in ATPList//player;'
            "</location></action>"
        )
        assert StaticCompensator.derive_handler(action, doc) is None

    def test_uncovered_query_with_materialization_is_wrong(self):
        axml = AXMLDocument.from_xml(
            "<D><item><axml:sc mode='replace' methodName='m'>"
            "<stock>1</stock></axml:sc></item></D>",
            name="D",
        )
        pre = axml.document.clone(preserve_ids=True)
        q = parse_select("Select i/stock from i in D//item;")
        MaterializationEngine(
            axml, lambda c, p: Outcome(["<stock>2</stock>"])
        ).materialize_for_query(q)
        report = CoverageReport()
        StaticCompensator().compensate("q1", axml.document, pre, report)
        assert report.uncovered == 1
        assert report.wrong_state == 1

    def test_coverage_rates(self):
        report = CoverageReport(operations=4, covered=2, uncovered=2,
                                restored_exactly=1, wrong_state=3)
        assert report.coverage_rate == 0.5
        assert report.correctness_rate == 0.25


class TestSnapshotRollback:
    def _doc(self):
        return AXMLDocument.from_xml("<S><a>1</a><b>2</b></S>", name="S")

    def test_rollback_restores(self):
        doc = self._doc()
        pre = canonical(doc.document)
        rollback = SnapshotRollback()
        rollback.guard("T1", doc)
        apply_action(
            doc.document,
            parse_action(
                '<action type="delete"><location>Select s/a from s in S;'
                "</location></action>"
            ),
        )
        assert rollback.rollback("T1", doc)
        assert canonical(doc.document) == pre

    def test_guard_idempotent(self):
        doc = self._doc()
        rollback = SnapshotRollback()
        rollback.guard("T1", doc)
        rollback.guard("T1", doc)
        assert rollback.stats.snapshots_taken == 1

    def test_rollback_without_snapshot(self):
        assert not SnapshotRollback().rollback("T1", self._doc())

    def test_release_on_commit(self):
        doc = self._doc()
        rollback = SnapshotRollback()
        rollback.guard("T1", doc)
        assert rollback.release("T1") == 1
        assert not rollback.rollback("T1", doc)

    def test_cost_scales_with_document_size(self):
        small, big = SnapshotRollback(), SnapshotRollback()
        small.guard("T", self._doc())
        big_doc = AXMLDocument.from_xml(
            "<S>" + "<x>y</x>" * 200 + "</S>", name="S"
        )
        big.guard("T", big_doc)
        assert big.stats.approx_bytes > 10 * small.stats.approx_bytes

    def test_node_ids_survive_rollback(self):
        doc = self._doc()
        a_id = doc.document.root.child_elements()[0].node_id
        rollback = SnapshotRollback()
        rollback.guard("T1", doc)
        apply_action(
            doc.document,
            parse_action(
                '<action type="delete"><location>Select s/a from s in S;'
                "</location></action>"
            ),
        )
        rollback.rollback("T1", doc)
        assert doc.document.get_node(a_id).is_attached()


class TestTwoPhaseCommit:
    def _network(self, peers=("A", "B", "C")):
        network = SimNetwork()
        for peer_id in peers:
            StubPeer(peer_id, network)
        return network

    def test_all_alive_commits(self):
        network = self._network()
        coordinator = TwoPhaseCoordinator(network, "A")
        record = coordinator.run("T1", ["B", "C"])
        assert record.outcome is TwoPhaseOutcome.COMMITTED

    def test_no_vote_aborts(self):
        network = self._network()
        coordinator = TwoPhaseCoordinator(network, "A")
        coordinator.force_no_vote("B")
        record = coordinator.run("T1", ["B", "C"])
        assert record.outcome is TwoPhaseOutcome.ABORTED
        assert record.refused == ["B"]

    def test_dead_at_prepare_aborts(self):
        network = self._network()
        network.disconnect("C")
        record = TwoPhaseCoordinator(network, "A").run("T1", ["B", "C"])
        assert record.outcome is TwoPhaseOutcome.ABORTED
        assert record.unreachable_at_prepare == ["C"]

    def test_death_between_prepare_and_decision_blocks(self):
        network = self._network()
        coordinator = TwoPhaseCoordinator(network, "A")

        # B dies right after voting: simulate by disconnecting between
        # phases using a patched run — here we disconnect during phase 2
        # by pre-scheduling at the time phase 2 starts.
        original_is_alive = network.is_alive
        calls = {"n": 0}

        def flaky_is_alive(peer_id):
            calls["n"] += 1
            if peer_id == "B" and calls["n"] > 2:  # dead by decision time
                return False
            return original_is_alive(peer_id)

        network.is_alive = flaky_is_alive
        record = coordinator.run("T1", ["B", "C"])
        assert record.outcome is TwoPhaseOutcome.BLOCKED
        assert record.undelivered_decisions == ["B"]
        assert coordinator.blocked_rate() == 1.0
