"""Observability threaded through real scenario runs.

The span tree and histograms are only worth having if the protocols
actually emit them: these tests run the Fig. 1 / Fig. 2 scenarios and
assert the emitted structure — transaction spans parenting invokes,
invokes parenting RPC hops, compensation spans on the abort path — plus
the strict-JSON export of a live run.
"""

import json

import pytest

from repro.api import Cluster
from repro.sim.harness import ExperimentTable


def _by_id(spans):
    return {span.span_id: span for span in spans.spans}


class TestHappyPathSpans:
    def test_span_tree_shape(self):
        cluster = Cluster.fig1()
        txn, error = cluster.run_topology()
        assert error is None
        cluster.peer("AP1").commit(txn.txn_id)
        spans = cluster.network.spans

        txn_spans = spans.by_kind("transaction")
        assert [s.status for s in txn_spans] == ["committed"]
        assert txn_spans[0].name == f"txn:{txn.txn_id}"

        # Fig. 1 runs five invocations; each invoke wraps one rpc hop,
        # and each rpc wraps the remote service execution.
        invokes = spans.by_kind("invoke")
        rpcs = spans.by_kind("rpc")
        services = spans.by_kind("service")
        assert len(invokes) == len(rpcs) == len(services) == 5
        index = _by_id(spans)
        for rpc in rpcs:
            assert index[rpc.parent_id].kind == "invoke"
        for service in services:
            assert index[service.parent_id].kind == "rpc"

        # Top-level invokes hang off the transaction span; nested ones
        # hang off the service executing them.
        roots = [s for s in invokes if index[s.parent_id].kind == "transaction"]
        nested = [s for s in invokes if index[s.parent_id].kind == "service"]
        assert len(roots) == 2  # AP1 -> S2, AP1 -> S3
        assert len(nested) == 3

    def test_all_spans_closed_and_timed(self):
        cluster = Cluster.fig1()
        txn, _ = cluster.run_topology()
        cluster.peer("AP1").commit(txn.txn_id)
        spans = cluster.network.spans
        assert spans.summary()["open"] == 0
        for span in spans.spans:
            assert span.duration is not None and span.duration >= 0

    def test_rpc_latency_histogram_populated(self):
        cluster = Cluster.fig1()
        cluster.run_topology()
        metrics = cluster.metrics
        hist = metrics.histogram("rpc_latency")
        assert hist.count == 5
        assert metrics.p50("rpc_latency") is not None
        assert metrics.p95("rpc_latency") >= metrics.p50("rpc_latency")
        # Chained invocations record how long the chain view was.
        assert metrics.histogram("chain_length").count > 0


class TestAbortPathSpans:
    def _aborted_run(self):
        cluster = Cluster.fig1()
        cluster.injector.fault_service(
            "AP5", "S5", "Crash", point="after_execute"
        )
        txn, error = cluster.run_topology()
        assert error is not None
        return cluster, txn

    def test_transaction_span_aborted(self):
        cluster, txn = self._aborted_run()
        txn_spans = cluster.network.spans.by_kind("transaction")
        assert [s.status for s in txn_spans] == ["aborted"]

    def test_compensation_spans_nest_under_service(self):
        cluster, txn = self._aborted_run()
        spans = cluster.network.spans
        comps = spans.by_kind("compensation")
        assert comps, "abort must emit compensation spans"
        index = _by_id(spans)
        # The faulting peer compensates while its service span is still
        # open, so at least one compensation span nests beneath it.
        parent_kinds = {
            index[c.parent_id].kind for c in comps if c.parent_id is not None
        }
        assert "service" in parent_kinds
        assert all(c.status == "ok" for c in comps)

    def test_fault_statuses_recorded(self):
        cluster, txn = self._aborted_run()
        spans = cluster.network.spans
        assert any(s.status == "fault" for s in spans.by_kind("rpc"))
        assert any(s.status == "fault" for s in spans.by_kind("service"))

    def test_compensation_depth_histogram(self):
        cluster, txn = self._aborted_run()
        hist = cluster.metrics.histogram("compensation_depth")
        assert hist.count > 0
        assert hist.max >= 1


class TestDisconnectionSpans:
    def test_disconnected_status_and_detection_histogram(self):
        cluster = Cluster.fig2()
        cluster.injector.disconnect_peer_during(
            "AP3", "AP6", "S6", "after_local_work"
        )
        cluster.run_topology()
        spans = cluster.network.spans
        assert any(
            s.status == "disconnected" for s in spans.by_kind("rpc")
        )
        metrics = cluster.metrics
        assert metrics.histogram("detection_latency").count == len(
            metrics.detections
        )
        assert metrics.detection_latency("AP3") is not None


class TestLiveRunExport:
    def test_metrics_and_spans_export_strict_json(self):
        cluster = Cluster.fig1()
        cluster.injector.fault_service(
            "AP5", "S5", "Crash", point="after_execute"
        )
        cluster.run_topology()
        metrics_text = cluster.metrics.to_json()
        spans_text = cluster.network.spans.to_json()
        for text in (metrics_text, spans_text):
            assert "Infinity" not in text and "NaN" not in text
            json.loads(text)
        data = json.loads(metrics_text)
        assert data["histograms"]["rpc_latency"]["p50"] is not None
        assert data["histograms"]["rpc_latency"]["p95"] is not None

    def test_experiment_table_json(self, tmp_path):
        table = ExperimentTable("t", ["a", "detect_s"])
        table.add_row(a=1, detect_s=None)
        table.add_row(a=2, detect_s=0.01)
        assert "-" in table.render()  # None renders as a dash
        data = json.loads(table.to_json())
        assert data["rows"][0]["detect_s"] is None
        path = table.write_json(str(tmp_path / "table.json"))
        assert json.loads(open(path).read())["title"] == "t"
