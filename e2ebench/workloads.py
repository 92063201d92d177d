"""The benchmark's workloads: inputs from a seed, one measured pass, checks.

Every workload drives the program only through its public entry points
from this single process: ``run_chaos``/``ChaosConfig`` for the chaos
workloads, ``build_throughput_cluster`` + ``TransactionScheduler`` for
the catalogue.  A *pass* runs the workload's whole fixed input once and
returns a :class:`PassResult`; a run repeats passes, so every pass of a
run must produce the same digest.

Deterministic numbers (latencies in virtual seconds, counts, oracle
findings) depend only on the inputs, never on how many passes a run
fits into its time budget.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import time
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

import checkout

#: Chaos seeds the chaos workloads draw from; known_violations.json
#: records the oracle's findings for every one of them.
CHAOS_POOL = 256
#: Consecutive chaos seeds per run.  Work per transaction varies a lot
#: between seeds (an invocation of AP1 marks all 32 providers, one of a
#: leaf marks one), so a run needs many seeds to be steady across --seed.
CHAOS_SEEDS_PER_RUN = 16

#: Shared by both chaos workloads: same generator, providers and
#: arrival rate.  2 txns/s is below saturation on the full stack (at 20
#: the admission queue holds almost every txn and latency grows with
#: run length).
CHAOS_BASE = dict(
    txns=50, providers=32, concurrency=4, fault_rate=0.02, arrival_rate=2.0
)

KNOWN_VIOLATIONS_FILE = os.path.join(checkout.BENCH_DIR, "known_violations.json")


@dataclass
class PassResult:
    """What one pass over a workload's input produced."""

    wall_s: float = 0.0
    submitted: int = 0
    committed: int = 0
    unfinished: int = 0
    #: deterministic program counters summed over the pass
    counters: Dict[str, int] = field(default_factory=dict)
    #: histograms merged over the pass (repro.obs.histogram.Histogram)
    histograms: Dict[str, object] = field(default_factory=dict)
    #: PROF counter movement over the pass
    prof: Dict[str, int] = field(default_factory=dict)
    #: one digest per unit (chaos seed / catalogue pass), in order
    digests: List[str] = field(default_factory=list)
    #: (chaos seed, violation dict) for every oracle finding
    violations: List[Tuple[int, Dict[str, str]]] = field(default_factory=list)
    #: output-check failures, human readable
    errors: List[str] = field(default_factory=list)

    @property
    def aborted(self) -> int:
        return self.submitted - self.committed - self.unfinished

    def digest(self) -> str:
        return _sha("\n".join(self.digests))

    def merge_metrics(self, metrics) -> None:
        """Fold one run's MetricsCollector into the pass totals."""
        for name, value in metrics.counters.items():
            self.counters[name] = self.counters.get(name, 0) + value
        from repro.obs.histogram import Histogram

        for name, histogram in metrics.histograms.items():
            merged = self.histograms.setdefault(name, Histogram(name))
            merged.merge(histogram)


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _stable(data) -> str:
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


# ---------------------------------------------------------------------------
# chaos workloads
# ---------------------------------------------------------------------------

class ChaosWorkload:
    """Open-loop chaos runs over consecutive chaos seeds."""

    def __init__(self, name: str, why: str, config: Dict[str, object]):
        self.name = name
        self.why = why
        self.config = dict(CHAOS_BASE, **config)

    def chaos_seeds(self, seed: int) -> List[int]:
        """Consecutive chaos seeds from the base seed; distinct --seed
        values start distinct windows of the pool."""
        base = (seed * CHAOS_SEEDS_PER_RUN) % CHAOS_POOL
        return [(base + i) % CHAOS_POOL for i in range(CHAOS_SEEDS_PER_RUN)]

    def inputs(self, seed: int):
        from repro.chaos import ChaosConfig

        return [ChaosConfig(seed=s, **self.config) for s in self.chaos_seeds(seed)]

    def build_for_setup(self, seed: int) -> None:
        """Cluster construction as run_chaos does it before the first submit."""
        from repro.chaos import ChaosConfig, build_chaos_cluster

        config = ChaosConfig(seed=self.chaos_seeds(seed)[0], **self.config)
        cluster, _origins, _providers = build_chaos_cluster(config)
        for peer in cluster.peers.values():
            if peer.wal is not None:
                peer.wal.close()
        if cluster.scratch is not None:
            cluster.scratch.cleanup()

    def unit_digest(self, inputs) -> str:
        """Digest of the first chaos seed's run summary."""
        from repro.chaos import run_chaos, summary_text

        return _sha(summary_text(run_chaos(inputs[0])))

    def run_pass(self, inputs) -> PassResult:
        from repro.chaos import run_chaos, summary_text
        from repro.obs.prof import PROF

        known = load_known_violations().get(self.name, {})
        out = PassResult()
        before = PROF.snapshot()
        for config in inputs:
            start = time.perf_counter()
            result = run_chaos(config)
            out.wall_s += time.perf_counter() - start
            out.submitted += config.txns
            out.committed += sum(1 for r in result.results if r.committed)
            out.unfinished += config.txns - len(result.results)
            out.merge_metrics(result.cluster.metrics)
            out.digests.append(_sha(summary_text(result)))
            recorded = known.get(str(config.seed), [])
            for violation in result.violations:
                found = violation.to_dict()
                out.violations.append((config.seed, found))
                if found not in recorded:
                    out.errors.append(
                        f"chaos seed {config.seed}: violation outside the "
                        f"recorded set: {_stable(found)}"
                    )
            del result  # free this cluster before the next run builds one
        out.prof = PROF.delta_since(before)
        return out


# ---------------------------------------------------------------------------
# catalogue workload
# ---------------------------------------------------------------------------

CATALOGUE = dict(
    peers=2, items=400, clients=4, txns_per_client=60, txn_length=3,
    hot_fraction=0.15, query_share=0.6, replace_share=0.2,
    think_time=0.02, max_attempts=5,
)
_WORDS = ("alpha", "bravo", "charlie", "delta", "echo", "foxtrot")


@dataclass
class CatalogueInputs:
    seed: int
    specs: Dict[Tuple[int, int], object]
    #: label -> [(peer, sku)] of its <note> inserts
    note_targets: Dict[str, List[Tuple[str, str]]]
    #: label -> [peer] of its hot <hit/> inserts
    hot_targets: Dict[str, List[str]]
    hot_sku: Dict[str, str]


class CatalogueWorkload:
    """Closed loop of clients over OCC peers hosting large catalogues."""

    def __init__(self, name: str, why: str):
        self.name = name
        self.why = why

    def _build(self, seed: int):
        from repro.sim.throughput import build_throughput_cluster

        return build_throughput_cluster(
            seed, peer_count=CATALOGUE["peers"], items=CATALOGUE["items"]
        )

    def build_for_setup(self, seed: int) -> None:
        self._build(seed)

    def inputs(self, seed: int) -> CatalogueInputs:
        """Pre-generated single-item transactions addressed by <sku>.

        The initial catalogues are scanned once here; no operation looks
        at the live document while the workload runs.
        """
        from repro.sim.scheduler import TxnSpec

        _network, peers = self._build(seed)
        items: Dict[str, Tuple[str, List[Tuple[str, str, List[str]]]]] = {}
        for peer_id, peer in sorted(peers.items()):
            document = next(iter(peer.documents.values()))
            rows = []
            for item in document.document.root.child_elements():
                sku = item.first_child("sku").text_content()
                fields = sorted(
                    c.name.local for c in item.child_elements()
                    if c.name.local != "sku"
                )
                rows.append((item.name.local, sku, fields))
            items[peer_id] = (document.name, rows)
        rng = random.Random(f"catalogue_occ:{seed}")
        peer_ids = sorted(items)
        specs, note_targets, hot_targets, hot_sku = {}, {}, {}, {}
        for client in range(CATALOGUE["clients"]):
            origin = peer_ids[client % len(peer_ids)]
            doc_name, rows = items[origin]
            # the hot spot is the first item; single-item txns use the rest
            hot_category, hot, _ = rows[0]
            hot_sku[origin] = hot
            for index in range(CATALOGUE["txns_per_client"]):
                label = f"c{client}t{index}"
                category, sku, fields = rng.choice(rows[1:])
                where = f"Select {{}} from i in {doc_name}//{category} where i/sku = {sku};"
                operations, notes, hits = [], [], []
                for _ in range(CATALOGUE["txn_length"]):
                    if rng.random() < CATALOGUE["hot_fraction"]:
                        operations.append(
                            '<action type="insert"><data><hit/></data><location>'
                            f"Select i from i in {doc_name}//{hot_category} "
                            f"where i/sku = {hot};</location></action>"
                        )
                        hits.append(origin)
                        continue
                    roll = rng.random()
                    name = rng.choice(fields)
                    if roll < CATALOGUE["query_share"]:
                        operations.append(
                            '<action type="query"><location>'
                            + where.format(f"i/{name}") + "</location></action>"
                        )
                    elif roll < CATALOGUE["query_share"] + CATALOGUE["replace_share"]:
                        word = rng.choice(_WORDS)
                        operations.append(
                            f'<action type="replace"><data><{name}>{word}</{name}>'
                            "</data><location>" + where.format(f"i/{name}")
                            + "</location></action>"
                        )
                    else:
                        word = rng.choice(_WORDS)
                        operations.append(
                            f'<action type="insert"><data><note>{word}</note>'
                            "</data><location>" + where.format("i")
                            + "</location></action>"
                        )
                        notes.append((origin, sku))
                specs[(client, index)] = TxnSpec(label, origin, tuple(operations))
                note_targets[label] = notes
                hot_targets[label] = hits
        return CatalogueInputs(seed, specs, note_targets, hot_targets, hot_sku)

    def unit_digest(self, inputs) -> str:
        return self.run_pass(inputs).digests[0]

    def run_pass(self, inputs: CatalogueInputs) -> PassResult:
        from repro.obs import run_summary
        from repro.obs.prof import PROF
        from repro.sim.scheduler import TransactionScheduler

        network, peers = self._build(inputs.seed)
        scheduler = TransactionScheduler(
            network,
            max_inflight=CATALOGUE["clients"],
            max_attempts=CATALOGUE["max_attempts"],
            seed=inputs.seed,
        )
        scheduler.run_closed_loop(
            CATALOGUE["clients"],
            CATALOGUE["txns_per_client"],
            lambda client, index: inputs.specs[(client, index)],
            CATALOGUE["think_time"],
        )
        out = PassResult()
        before = PROF.snapshot()
        start = time.perf_counter()
        results = scheduler.run()
        out.wall_s = time.perf_counter() - start
        out.prof = PROF.delta_since(before)
        out.submitted = len(inputs.specs)
        out.committed = sum(1 for r in results if r.committed)
        out.unfinished = out.submitted - len(results)
        out.merge_metrics(network.metrics)
        documents = {
            peer_id: next(iter(peer.documents.values()))
            for peer_id, peer in sorted(peers.items())
        }
        out.errors.extend(self._check(inputs, results, documents))
        outcomes = {r.label: [r.status, r.attempts] for r in results}
        finals = {peer_id: doc.to_xml() for peer_id, doc in documents.items()}
        out.digests.append(
            _sha(_stable([outcomes, finals, run_summary(network.metrics)]))
        )
        return out

    @staticmethod
    def _check(inputs: CatalogueInputs, results, documents) -> List[str]:
        """Committed inserts show up exactly once; aborted ones not at all."""
        want_notes: Dict[Tuple[str, str], int] = {}
        want_hits: Dict[str, int] = {}
        for result in results:
            if not result.committed:
                continue
            for target in inputs.note_targets[result.label]:
                want_notes[target] = want_notes.get(target, 0) + 1
            for peer_id in inputs.hot_targets[result.label]:
                want_hits[peer_id] = want_hits.get(peer_id, 0) + 1
        errors = []
        for peer_id, document in documents.items():
            for item in document.document.root.child_elements():
                sku = item.first_child("sku").text_content()
                names = [c.name.local for c in item.child_elements()]
                notes = names.count("note")
                if notes != want_notes.get((peer_id, sku), 0):
                    errors.append(
                        f"{peer_id} sku {sku}: {notes} <note> elements, "
                        f"{want_notes.get((peer_id, sku), 0)} committed inserts"
                    )
                hits = names.count("hit")
                want = want_hits.get(peer_id, 0) if sku == inputs.hot_sku.get(peer_id) else 0
                if hits != want:
                    errors.append(
                        f"{peer_id} sku {sku}: {hits} <hit/> elements, "
                        f"{want} committed hot inserts"
                    )
        return errors


# ---------------------------------------------------------------------------
# the registry
# ---------------------------------------------------------------------------

WORKLOADS = {
    "chaos_fullstack": ChaosWorkload(
        "chaos_fullstack",
        "the only workload where the durable WAL, checkpoints, replication "
        "and sharding do their work; the XML parser decodes every shipped frame",
        dict(
            crash_rate=0.02, durability=True, checkpoint_every=16,
            replicas=2, sharding=True, shard_spares=2,
        ),
    ),
    "chaos_plain": ChaosWorkload(
        "chaos_plain",
        "same generator, seeds and rate with durability, replication and "
        "sharding off: changes to those layers predict no change here",
        {},
    ),
    "catalogue_occ": CatalogueWorkload(
        "catalogue_occ",
        "read-mostly sku-addressed txns on 400-item OCC catalogues: path, "
        "index, query and axml call scans lead; hot-spot conflicts drive compensation",
    ),
}


def load_known_violations() -> Dict[str, Dict[str, List[Dict[str, str]]]]:
    """workload -> chaos seed -> oracle violations recorded for it."""
    with open(KNOWN_VIOLATIONS_FILE, "r", encoding="utf-8") as handle:
        return json.load(handle)["violations"]
