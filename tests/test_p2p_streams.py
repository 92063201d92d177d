"""Integration tests for sibling data streams (§3.3(d))."""

import pytest

from repro.api import Cluster
from repro.p2p.streams import open_stream


def fig2_with_stream(chaining=True, interval=0.1):
    """Fig. 2 with AP3 streaming data to its sibling AP4."""
    cluster = Cluster.fig2(chaining=chaining)
    txn, _ = cluster.run_topology()
    stream = open_stream(
        cluster.network,
        txn.txn_id,
        producer=cluster.peer("AP3"),
        consumer=cluster.peer("AP4"),
        interval=interval,
    )
    return cluster, txn, stream


class TestHealthyStream:
    def test_data_flows(self):
        cluster, txn, stream = fig2_with_stream()
        cluster.network.events.run_until(1.05)
        assert len(stream.received) >= 8
        assert not stream.silence_reported

    def test_sequence_monotone(self):
        cluster, txn, stream = fig2_with_stream()
        cluster.network.events.run_until(0.55)
        sequences = [d.sequence for d in stream.received]
        assert sequences == sorted(sequences)

    def test_stop_ends_flow(self):
        cluster, txn, stream = fig2_with_stream()
        cluster.network.events.run_until(0.35)
        count = len(stream.received)
        stream.stop()
        cluster.network.events.run_until(2.0)
        assert len(stream.received) == count


class TestSilenceDetection:
    def test_producer_death_detected(self):
        cluster, txn, stream = fig2_with_stream()
        cluster.network.events.run_until(0.5)
        cluster.network.disconnect("AP3")
        cluster.network.events.run_until(3.0)
        assert stream.silence_reported
        assert cluster.metrics.get("stream_silences") == 1

    def test_detection_triggers_chain_notices(self):
        """The silent sibling's parent (AP2) and child (AP6) learn of the
        death through AP4's chain — the §3.3(d) protocol."""
        cluster, txn, stream = fig2_with_stream()
        cluster.network.events.run_until(0.5)
        cluster.network.disconnect("AP3")
        cluster.network.events.run_until(3.0)
        assert txn.txn_id in cluster.peer("AP2").known_doomed
        assert txn.txn_id in cluster.peer("AP6").known_doomed

    def test_naive_consumer_cannot_notify(self):
        cluster, txn, stream = fig2_with_stream(chaining=False)
        cluster.network.events.run_until(0.5)
        cluster.network.disconnect("AP3")
        cluster.network.events.run_until(3.0)
        assert stream.silence_reported
        assert txn.txn_id not in cluster.peer("AP6").known_doomed

    def test_detection_latency_bounded(self):
        cluster, txn, stream = fig2_with_stream(interval=0.1)
        cluster.network.events.run_until(0.5)
        cluster.network.disconnect("AP3")
        cluster.network.events.run_until(3.0)
        latency = cluster.metrics.detection_latency("AP3")
        # one interval of missing data + the grace factor, roughly
        assert latency < 0.5

    def test_dead_consumer_stops_checking(self):
        cluster, txn, stream = fig2_with_stream()
        cluster.network.events.run_until(0.3)
        cluster.network.disconnect("AP4")
        cluster.network.disconnect("AP3")
        cluster.network.events.run_until(3.0)
        assert not stream.silence_reported
