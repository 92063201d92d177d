"""Metric definitions: what the benchmark reports, with units.

End-to-end metrics come from untraced passes; per-layer metrics from
one traced pass (``--trace 1``).  BENCHMARK.json's ``end_to_end`` and
``per_layer`` lists are written from these tables
(``python3 e2ebench/record.py manifest``); README.md states which
per-layer metric should move which end-to-end figure on which workload.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from tracer import LAYERS, LayerTracer

#: name, unit, better, bound.  commit_tps gets the widest bound: a run's
#: inputs change with --seed (work per txn differs between chaos seed
#: windows) and its spread across ten seeds is 0.07 to 0.12 of the
#: median.  The simulated latencies, abort share, oracle violations and
#: disk bytes per commit are per-layer metrics, reported but not
#: bounded: the catalogue's p50 latency is the same constant for every
#: seed, the others are 0 on some workloads or spread 0.2 to 0.7 of the
#: median across seeds.
END_TO_END: Tuple[Tuple[str, str, str, float], ...] = (
    ("commit_tps", "1/s", "higher", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.15),
)


def _self_name(layer: str) -> str:
    if layer == "txn.wal.codec":
        return "txn.wal.codec_self_s"
    return f"{layer}.self_s"


#: name, unit, better
PER_LAYER: List[Tuple[str, str, str]] = [
    (_self_name(layer), "s", "lower") for layer in LAYERS
] + [
    ("xmlstore.parser.calls", "count", "lower"),
    ("xmlstore.parser.chars", "count", "lower"),
    ("xmlstore.serializer.tree_builds", "count", "lower"),
    ("xmlstore.serializer.cache_hit_ratio", "ratio", "higher"),
    ("xmlstore.path.calls", "count", "lower"),
    ("xmlstore.index.rank_rebuilds", "count", "lower"),
    ("xmlstore.index.hit_ratio", "ratio", "higher"),
    ("xmlstore.index.walk_nodes", "count", "lower"),
    ("axml.call_scans", "count", "lower"),
    ("query.parser.parse_action_calls", "count", "lower"),
    ("query.update.apply_calls", "count", "lower"),
    ("services.executions", "count", "lower"),
    ("txn.wal.encode_calls", "count", "lower"),
    ("txn.wal.decode_calls", "count", "lower"),
    ("txn.wal.codec_hit_ratio", "ratio", "higher"),
    ("txn.durable_wal.appends", "count", "lower"),
    ("txn.durable_wal.bytes", "B", "lower"),
    ("txn.durable_wal.flushes", "count", "lower"),
    ("txn.durable_wal.reloads", "count", "lower"),
    ("txn.durable_wal.replay_entries", "count", "lower"),
    ("txn.durable_wal.disk_bytes_per_commit", "B/commit", "lower"),
    ("txn.checkpoint.count", "count", "lower"),
    ("txn.checkpoint.bytes", "B", "lower"),
    ("txn.occ.validations", "count", "lower"),
    ("txn.occ.conflicts", "count", "lower"),
    ("txn.compensation.runs", "count", "lower"),
    ("p2p.replication.ship_frames", "count", "lower"),
    ("p2p.replication.ship_bytes", "B", "lower"),
    ("p2p.replication.applied_entries", "count", "lower"),
    ("p2p.replication.resyncs", "count", "lower"),
    ("p2p.replication.lag_p95", "frames", "lower"),
    ("p2p.sharding.migrations", "count", "lower"),
    ("p2p.sharding.migration_aborts", "count", "lower"),
    ("p2p.sharding.directory_lookups", "count", "lower"),
    ("p2p.network.messages_per_commit", "msgs/commit", "lower"),
    ("p2p.network.messages_dropped", "count", "lower"),
    ("p2p.peer.invocations", "count", "lower"),
    ("p2p.peer.forward_recoveries", "count", "lower"),
    ("p2p.peer.rejoins", "count", "lower"),
    ("p2p.chain.length_p95", "peers", "lower"),
    ("sim.kernel.events_fired", "count", "lower"),
    ("sim.kernel.events_scheduled", "count", "lower"),
    ("sim.scheduler.queued", "count", "lower"),
    ("sim.scheduler.inflight_p95", "txns", "lower"),
    ("sim.scheduler.txn_abort_share", "ratio", "lower"),
    ("sim.scheduler.latency_p50_s", "s", "lower"),
    ("sim.scheduler.latency_p95_s", "s", "lower"),
    ("sim.scheduler.latency_samples", "count", "higher"),
    ("chaos.oracle.violations", "count", "lower"),
    ("trace.overhead_s", "s", "lower"),
]


def _ratio(hits: int, misses: int) -> float:
    total = hits + misses
    return hits / total if total else 0.0


def _p(histograms, name: str, pct: float) -> float:
    histogram = histograms.get(name)
    if histogram is None or not len(histogram):
        return 0.0
    return float(histogram.percentile(pct))


def outcome_metrics(result) -> Dict[str, float]:
    """Deterministic figures of one pass, reported in every mode.
    Latencies are arrival->commit of committed txns, virtual seconds."""
    counters, histograms = result.counters, result.histograms
    disk = counters.get("wal_bytes", 0) + counters.get("checkpoint_bytes", 0)
    return {
        "sim_latency_p50_s": _p(histograms, "txn_latency", 50),
        "sim_latency_p95_s": _p(histograms, "txn_latency", 95),
        "latency_samples": len(histograms.get("txn_latency", ())),
        "txn_abort_share": result.aborted / result.submitted,
        "oracle_violations": len(result.violations),
        "disk_bytes_per_commit": disk / result.committed if result.committed else 0.0,
    }


def per_layer(tracer: LayerTracer, result, untraced_wall_s: float) -> Dict[str, float]:
    """Every PER_LAYER metric from one traced pass."""
    self_s = tracer.self_times()
    calls = tracer.count
    counters, prof, hist = result.counters, result.prof, result.histograms
    outcome = outcome_metrics(result)
    committed = max(result.committed, 1)
    out: Dict[str, float] = {_self_name(layer): self_s[layer] for layer in LAYERS}
    out.update({
        "xmlstore.parser.calls": calls("repro.xmlstore.parser.parse_document")
        + calls("repro.xmlstore.parser.parse_fragment"),
        "xmlstore.parser.chars": calls("repro.xmlstore.parser.parse_document", 1)
        + calls("repro.xmlstore.parser.parse_fragment", 1),
        "xmlstore.serializer.tree_builds": prof.get("serialize_tree_builds", 0),
        "xmlstore.serializer.cache_hit_ratio": _ratio(
            prof.get("serialize_cache_hits", 0), prof.get("serialize_cache_misses", 0)
        ),
        "xmlstore.path.calls": calls("repro.xmlstore.path.PathExpr.evaluate"),
        "xmlstore.index.rank_rebuilds": prof.get("index_rank_rebuilds", 0),
        "xmlstore.index.hit_ratio": _ratio(
            prof.get("query_index_hits", 0), prof.get("query_tree_walks", 0)
        ),
        "xmlstore.index.walk_nodes": prof.get("query_walk_nodes", 0),
        "axml.call_scans": calls("repro.axml.document.AXMLDocument.service_calls"),
        "query.parser.parse_action_calls": calls("repro.query.parser.parse_action"),
        "query.update.apply_calls": calls("repro.query.update.apply_action"),
        "services.executions": sum(
            entry[0] for name, entry in tracer.calls.items()
            if name.startswith("repro.services.") and name.endswith(".execute")
        ),
        "txn.wal.encode_calls": calls("repro.txn.wal.entry_to_xml"),
        "txn.wal.decode_calls": calls("repro.txn.wal.entry_from_xml"),
        "txn.wal.codec_hit_ratio": _ratio(
            prof.get("entry_codec_hits", 0), prof.get("entry_codec_misses", 0)
        ),
        "txn.durable_wal.appends": counters.get("wal_appends", 0),
        "txn.durable_wal.bytes": counters.get("wal_bytes", 0),
        "txn.durable_wal.flushes": calls("repro.txn.durable_wal.DurableWal._write_frame")
        + counters.get("wal_batch_flushes", 0),
        "txn.durable_wal.reloads": counters.get("wal_reloads", 0),
        "txn.durable_wal.replay_entries": counters.get("recovery_replay_entries", 0),
        "txn.durable_wal.disk_bytes_per_commit": outcome["disk_bytes_per_commit"],
        "txn.checkpoint.count": counters.get("checkpoints", 0),
        "txn.checkpoint.bytes": counters.get("checkpoint_bytes", 0),
        "txn.occ.validations": calls(
            "repro.txn.occ.OptimisticValidator.validate_and_commit"
        ),
        "txn.occ.conflicts": counters.get("occ_conflicts", 0),
        "txn.compensation.runs": calls("repro.txn.compensation.CompensationPlan.execute"),
        "p2p.replication.ship_frames": counters.get("ship_frames", 0),
        "p2p.replication.ship_bytes": counters.get("ship_bytes", 0),
        "p2p.replication.applied_entries": counters.get("replica_applied_entries", 0),
        "p2p.replication.resyncs": counters.get("replica_resyncs", 0),
        "p2p.replication.lag_p95": _p(hist, "ship_lag", 95),
        "p2p.sharding.migrations": counters.get("migrations", 0),
        "p2p.sharding.migration_aborts": counters.get("migration_aborts", 0),
        "p2p.sharding.directory_lookups": prof.get("directory_lookups", 0),
        "p2p.network.messages_per_commit": counters.get("messages", 0) / committed,
        "p2p.network.messages_dropped": counters.get("messages_dropped", 0),
        "p2p.peer.invocations": counters.get("invocations", 0),
        "p2p.peer.forward_recoveries": counters.get("forward_recoveries", 0),
        "p2p.peer.rejoins": counters.get("peer_rejoins", 0),
        "p2p.chain.length_p95": _p(hist, "chain_length", 95),
        "sim.kernel.events_fired": prof.get("eventq_fired", 0),
        "sim.kernel.events_scheduled": prof.get("eventq_scheduled", 0),
        "sim.scheduler.queued": counters.get("sched_queued", 0),
        "sim.scheduler.inflight_p95": _p(hist, "inflight", 95),
        "sim.scheduler.txn_abort_share": outcome["txn_abort_share"],
        "sim.scheduler.latency_p50_s": outcome["sim_latency_p50_s"],
        "sim.scheduler.latency_p95_s": outcome["sim_latency_p95_s"],
        "sim.scheduler.latency_samples": outcome["latency_samples"],
        "chaos.oracle.violations": outcome["oracle_violations"],
        "trace.overhead_s": tracer.wall_s - untraced_wall_s,
    })
    return out


def trace_checks(tracer: LayerTracer, result) -> List[str]:
    """Trace fidelity: wrapper counts agree with the program's counters
    and the layer split sums to the traced wall time."""
    errors = []
    appends = tracer.count("repro.txn.durable_wal.DurableWal.on_append")
    if appends != result.counters.get("wal_appends", 0):
        errors.append(
            f"DurableWal.on_append ran {appends} times, wal_appends="
            f"{result.counters.get('wal_appends', 0)}"
        )
    shipped = tracer.count("repro.p2p.replication.ReplicationManager._ship", 1)
    frames = result.counters.get("ship_frames", 0)
    if shipped != frames:
        errors.append(f"ship wrapper saw {shipped} frames, ship_frames={frames}")
    received = tracer.count("repro.p2p.replication.ReplicationManager.on_ship", 1)
    if received > frames:
        errors.append(f"replicas received {received} frames, only {frames} shipped")
    total = sum(tracer.self_times().values())
    if abs(total - tracer.wall_s) > 1e-6 * max(tracer.wall_s, 1.0):
        errors.append(
            f"layer self times sum to {total:.6f} s, traced wall {tracer.wall_s:.6f} s"
        )
    return errors
