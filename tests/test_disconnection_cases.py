"""Integration tests for the §3.3 disconnection cases (a)-(d),
chaining vs the naive baseline."""

import pytest

from repro.api import Cluster
from repro.errors import PeerDisconnected
from repro.sim.scenarios import FIG2_TOPOLOGY
from repro.txn.disconnection import (
    run_case_a_leaf_disconnection,
    run_case_b_parent_disconnection,
    run_case_c_child_disconnection,
    run_case_d_sibling_disconnection,
)
from repro.txn.recovery import DISCONNECT_FAULT, FaultPolicy


def fig2_with_replacement(**kwargs):
    """Fig. 2 plus an idle replacement peer APX mirroring S3/D3."""
    s = Cluster.fig2(extra_peers=("APX",), **kwargs)
    s.replication.replicate_service("S3", "APX")
    s.replication.replicate_document("D3", "APX")
    return s


class TestCaseALeaf:
    def test_backward_when_no_policy(self):
        s = Cluster.fig2()
        txn, _ = s.run_topology()  # completes; now AP6 dies
        s.network.disconnect("AP6")
        origin = s.peer("AP2")
        txn2 = origin.begin_transaction()
        report = run_case_a_leaf_disconnection(origin, txn2.txn_id, "AP6", "S6")
        assert not report.recovered
        assert report.detection_latency is not None

    def test_forward_with_replica_policy(self):
        s = Cluster.fig2(extra_peers=("AP6R",))
        s.replication.replicate_service("S6", "AP6R")
        s.replication.replicate_document("D6", "AP6R")
        s.network.disconnect("AP6")
        parent = s.peer("AP3")
        parent.set_fault_policy(
            "S6",
            [FaultPolicy(fault_names={DISCONNECT_FAULT}, retry_times=1,
                         alternative_peer="AP6R")],
        )
        txn = parent.begin_transaction()
        report = run_case_a_leaf_disconnection(parent, txn.txn_id, "AP6", "S6")
        assert report.recovered
        assert '<entry by="AP6"/>' in s.peer("AP6R").get_axml_document("D6").to_xml()


class TestCaseBParent:
    def _run(self, chaining):
        s = fig2_with_replacement(chaining=chaining)
        s.peer("AP2").set_fault_policy(
            "S3",
            [FaultPolicy(fault_names={DISCONNECT_FAULT}, retry_times=1,
                         alternative_peer="APX")],
        )
        s.injector.disconnect_peer_during("AP3", "AP6", "S6", "after_local_work")
        txn, err = s.run_topology()
        return s, txn, err

    def test_chaining_redirects_and_reuses(self):
        s, txn, err = self._run(chaining=True)
        assert err is None  # AP2 forward-recovered on APX
        assert s.metrics.get("results_redirected") == 1
        assert s.metrics.get("redirected_results_received") == 1
        assert s.metrics.get("invocations_reused") == 1
        # AP6's work survived: its entry is still there and S6 was
        # invoked exactly once.
        assert '<entry by="AP6"/>' in s.peer("AP6").get_axml_document("D6").to_xml()

    def test_naive_discards_work(self):
        s, txn, err = self._run(chaining=False)
        # Recovery still possible through the replica policy...
        assert s.metrics.get("results_redirected") == 0
        assert s.metrics.get("invocations_reused") == 0
        # ...but AP6's completed work was discarded and S6 re-executed.
        assert s.metrics.get("invocations_discarded") >= 1

    def test_chaining_loses_less_effort(self):
        chained, _, _ = self._run(chaining=True)
        naive, _, _ = self._run(chaining=False)
        assert chained.metrics.get("invocations_discarded") < naive.metrics.get(
            "invocations_discarded"
        ) or (
            chained.metrics.get("invocations_reused")
            > naive.metrics.get("invocations_reused")
        )

    def test_redirect_skips_dead_grandparent_to_super_peer(self):
        # AP2 (the grandparent) also dies: AP6 must fall through to AP1*.
        s = Cluster.fig2()
        s.injector.disconnect_peer_during("AP3", "AP6", "S6", "after_local_work")
        s.injector.disconnect_peer_during("AP2", "AP6", "S6", "before_return")
        txn, err = s.run_topology()
        assert s.metrics.get("results_redirected") == 1
        assert (txn.txn_id, "S6") in s.peer("AP1").reusable_results


class TestCaseCChild:
    def test_parent_detects_and_informs_descendants(self):
        s = Cluster.fig2()
        txn, _ = s.run_topology()
        s.network.disconnect("AP3")
        report = run_case_c_child_disconnection(s.peer("AP2"), txn.txn_id)
        assert report.recovered
        assert report.disconnected_peer == "AP3"
        assert report.descendants_informed == 1  # AP6
        assert txn.txn_id in s.peer("AP6").known_doomed

    def test_informed_descendants_stop_wasting_effort(self):
        s = Cluster.fig2()
        txn, _ = s.run_topology()
        s.peer("AP6").add_pending_work(txn.txn_id, units=10, unit_duration=0.1)
        s.network.disconnect("AP3")
        s.peer("AP6").known_doomed.discard(txn.txn_id)
        run_case_c_child_disconnection(s.peer("AP2"), txn.txn_id)
        s.network.events.run_until(s.network.clock.now + 5.0)
        # The DisconnectNotice cancelled the pending units.
        assert s.metrics.get("work_units_done") == 0

    def test_naive_descendants_keep_burning(self):
        s = Cluster.fig2(chaining=False)
        txn, _ = s.run_topology()
        s.peer("AP6").add_pending_work(txn.txn_id, units=10, unit_duration=0.1)
        s.peer("AP6").known_doomed.add(txn.txn_id)  # ground truth: doomed
        s.network.disconnect("AP3")
        run_case_c_child_disconnection(s.peer("AP2"), txn.txn_id)
        s.network.events.run_until(s.network.clock.now + 5.0)
        assert s.metrics.get("work_units_wasted") == 10

    def test_alive_children_not_flagged(self):
        s = Cluster.fig2()
        txn, _ = s.run_topology()
        report = run_case_c_child_disconnection(s.peer("AP2"), txn.txn_id)
        assert not report.recovered
        assert report.disconnected_peer == ""


class TestCaseDSibling:
    def test_sibling_notifies_parent_and_children(self):
        s = Cluster.fig2()
        txn, _ = s.run_topology()
        s.network.disconnect("AP3")
        report = run_case_d_sibling_disconnection(s.peer("AP4"), txn.txn_id, "AP3")
        # AP2 (parent of AP3) and AP6 (child of AP3) both notified.
        assert report.descendants_informed == 2
        assert txn.txn_id in s.peer("AP2").known_doomed
        assert txn.txn_id in s.peer("AP6").known_doomed

    def test_false_alarm_checked_by_ping(self):
        s = Cluster.fig2()
        txn, _ = s.run_topology()
        report = run_case_d_sibling_disconnection(s.peer("AP4"), txn.txn_id, "AP3")
        assert report.descendants_informed == 0

    def test_naive_sibling_cannot_notify(self):
        s = Cluster.fig2(chaining=False)
        txn, _ = s.run_topology()
        s.network.disconnect("AP3")
        s.peer("AP4").report_stream_timeout(txn.txn_id, "AP3")
        assert txn.txn_id not in s.peer("AP6").known_doomed


class TestDetectionLatency:
    def test_chaining_detects_before_parent_timeout(self):
        """(b): with chaining, AP6 detects AP3's death at return time —
        long before AP2 would notice by pinging."""
        s = Cluster.fig2()
        s.injector.disconnect_peer_during("AP3", "AP6", "S6", "after_local_work")
        s.run_topology()
        latency = s.metrics.detection_latency("AP3")
        assert latency is not None
        assert latency <= 2 * s.network.hop_latency
