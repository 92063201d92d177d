"""Unit tests for the disconnection scenario drivers
(repro.txn.disconnection) beyond the integration coverage."""

import pytest

from repro.api import Cluster
from repro.txn.disconnection import (
    CaseReport,
    run_case_a_leaf_disconnection,
    run_case_b_parent_disconnection,
)
from repro.txn.recovery import DISCONNECT_FAULT, FaultPolicy


class TestCaseReport:
    def test_defaults(self):
        report = CaseReport("a", "AP6", "AP3")
        assert report.detection_latency is None
        assert report.work_reused == 0
        assert not report.recovered


class TestCaseAReport:
    def test_report_fields_on_backward(self):
        cluster = Cluster.fig2()
        cluster.run_topology()
        cluster.network.disconnect("AP6")
        parent = cluster.peer("AP3")
        txn = parent.begin_transaction()
        report = run_case_a_leaf_disconnection(parent, txn.txn_id, "AP6", "S6")
        assert report.case == "a"
        assert report.disconnected_peer == "AP6"
        assert report.detected_by == "AP3"
        assert not report.recovered
        assert "disconnections" not in report.metrics  # already dead before

    def test_metrics_delta_only(self):
        cluster = Cluster.fig2()
        cluster.metrics.incr("messages", 100)  # pre-existing noise
        cluster.network.disconnect("AP6")
        parent = cluster.peer("AP3")
        txn = parent.begin_transaction()
        report = run_case_a_leaf_disconnection(parent, txn.txn_id, "AP6", "S6")
        # the delta excludes the pre-existing 100
        assert report.metrics.get("messages", 0) < 100


class TestCaseBReport:
    def test_reuse_counted(self):
        cluster = Cluster.fig2(extra_peers=("APX",))
        cluster.replication.replicate_service("S3", "APX")
        cluster.replication.replicate_document("D3", "APX")
        cluster.injector.disconnect_peer_during("AP3", "AP6", "S6", "after_local_work")
        txn, _ = cluster.run_topology()
        grandparent = cluster.peer("AP2")
        # run_root left AP2's context aborted (backward recovery ran);
        # start a new transaction to drive the replacement invocation.
        txn2 = grandparent.begin_transaction()
        # move the redirected result into the new transaction's key
        for (old_txn, method), fragments in list(grandparent.reusable_results.items()):
            grandparent.reusable_results[(txn2.txn_id, method)] = fragments
            del grandparent.reusable_results[(old_txn, method)]
        report = run_case_b_parent_disconnection(
            grandparent, txn2.txn_id, "AP3", "APX", "S3"
        )
        assert report.case == "b"
        assert report.recovered
        assert report.work_reused >= 1

    def test_unrecoverable_when_replacement_dead(self):
        cluster = Cluster.fig2(extra_peers=("APX",))
        cluster.injector.disconnect_peer_during("AP3", "AP6", "S6", "after_local_work")
        cluster.run_topology()
        cluster.network.disconnect("APX")
        grandparent = cluster.peer("AP2")
        txn2 = grandparent.begin_transaction()
        report = run_case_b_parent_disconnection(
            grandparent, txn2.txn_id, "AP3", "APX", "S3"
        )
        assert not report.recovered
