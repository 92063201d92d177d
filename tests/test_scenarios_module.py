"""Unit tests for the paper deployments built from repro.sim.scenarios' data."""

import pytest

from repro.api import Cluster
from repro.sim.scenarios import ATPLIST_XML, FIG1_TOPOLOGY, FIG2_TOPOLOGY


class TestAtplistBuilder:
    def test_document_matches_paper(self):
        cluster = Cluster.atplist()
        doc = cluster.peer("AP1").get_axml_document("ATPList")
        xml = doc.to_xml()
        assert "Federer" in xml and "Nadal" in xml
        assert xml.count("axml:sc") >= 2
        assert "475" in xml  # previous getPoints result
        assert 'year="2003"' in xml and 'year="2004"' in xml

    def test_services_on_right_peers(self):
        cluster = Cluster.atplist()
        assert cluster.peer("AP2").registry.has("getPoints")
        assert cluster.peer("AP3").registry.has("getGrandSlamsWonbyYear")
        assert not cluster.peer("AP1").registry.has("getPoints")

    def test_points_value_configurable(self):
        cluster = Cluster.atplist(points_value="1234")
        peer = cluster.peer("AP1")
        txn = peer.begin_transaction()
        from repro.sim.scenarios import QUERY_B

        outcome = peer.submit(
            txn.txn_id, f'<action type="query"><location>{QUERY_B}</location></action>'
        )
        assert "1234" in outcome.query_result.texts()


class TestTopologyBuilder:
    def test_fig1_peers_and_services(self):
        cluster = Cluster.fig1()
        assert set(cluster.peers) == {f"AP{i}" for i in range(1, 7)}
        for index in range(1, 7):
            peer = cluster.peer(f"AP{index}")
            assert peer.registry.has(f"S{index}")
            assert peer.hosts_document(f"D{index}")

    def test_fig2_super_peer(self):
        cluster = Cluster.fig2()
        assert cluster.peer("AP1").super_peer
        assert not cluster.peer("AP2").super_peer

    def test_extra_peers_idle(self):
        cluster = Cluster.fig2(extra_peers=("APX",))
        assert "APX" in cluster.peers
        assert len(cluster.peer("APX").registry) == 1  # its own SX service

    def test_replication_registered(self):
        cluster = Cluster.fig1()
        assert cluster.replication.holders("D3") == ["AP3"]
        assert cluster.replication.service_holders("S3") == ["AP3"]

    def test_flags_propagate(self):
        cluster = Cluster.from_topology(
            FIG2_TOPOLOGY,
            peer_independent=True,
            chaining=False,
            chain_scope="extended",
            parent_watch_interval=0.1,
        )
        peer = cluster.peer("AP2")
        assert peer.peer_independent
        assert not peer.chaining
        assert peer.chain_scope == "extended"
        assert peer.parent_watch_interval == 0.1

    def test_topology_copy_stored(self):
        cluster = Cluster.fig1()
        assert cluster.topology == FIG1_TOPOLOGY
        cluster.topology["AP1"] = []
        assert FIG1_TOPOLOGY["AP1"]  # original untouched


class TestRunRootTransaction:
    def test_returns_error_object(self):
        cluster = Cluster.fig1()
        cluster.injector.fault_service("AP2", "S2", "X")
        txn, error = cluster.run_topology()
        assert error is not None
        assert txn.origin == "AP1"

    def test_custom_root(self):
        cluster = Cluster.fig1()
        txn, error = cluster.run_topology(root="AP3")
        assert error is None
        # AP3's branch ran: AP4 and AP5/AP6 have markers
        assert '<entry by="AP4"/>' in cluster.peer("AP4").get_axml_document("D4").to_xml()

    def test_metrics_shared(self):
        cluster = Cluster.fig1()
        cluster.run_topology()
        assert cluster.metrics is cluster.network.metrics
        assert cluster.metrics.get("invocations") == 5
