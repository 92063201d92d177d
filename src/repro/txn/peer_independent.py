"""Peer-independent compensation (§3.2), as a reusable recovery driver.

"Let us assume that a peer APY, processing the invocation of a service
S, also returns the definition of the compensating service CS_SY of S
along with the invocation results. … Given this, a peer trying to
perform recovery (say, the origin peer APX) can directly invoke the
compensating services (CS_SY) on their original peers (APY).  The
original peers do not even need to be aware that the services they are
executing are, basically, compensating services.  The intuition is to
free the original peers from the burden of compensation as much as
possible."

:class:`AXMLPeer` applies this automatically during origin aborts; this
module exposes the same machinery to *any* peer holding the definitions
(e.g. a super peer that received them because the origin also died),
plus inspection helpers for tests and experiments.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.p2p.messages import CompensationRequest
from repro.p2p.network import SimNetwork
from repro.txn.compensation import CompensationPlan


@dataclass
class CompensationLedger:
    """Collected compensating-service definitions of one transaction.

    Entries are ``(provider_peer, plan_xml)`` in *forward* receipt order;
    recovery dispatches them newest-first (reverse order of the forward
    operations, §3.1).
    """

    txn_id: str
    entries: List[Tuple[str, str]] = field(default_factory=list)

    def add(self, provider_peer: str, plan_xml: str) -> None:
        self.entries.append((provider_peer, plan_xml))

    def providers(self) -> List[str]:
        seen = set()
        out: List[str] = []
        for provider, _ in self.entries:
            if provider not in seen:
                seen.add(provider)
                out.append(provider)
        return out

    def documents(self) -> List[str]:
        out: List[str] = []
        for _, plan_xml in self.entries:
            name = CompensationPlan.from_xml(plan_xml).document_name
            if name not in out:
                out.append(name)
        return out

    def __len__(self) -> int:
        return len(self.entries)


@dataclass
class RecoveryOutcome:
    """Result of dispatching a ledger."""

    dispatched: int = 0
    via_replica: int = 0
    failed: int = 0

    @property
    def complete(self) -> bool:
        return self.failed == 0


def dispatch_ledger(
    network: SimNetwork,
    recovering_peer: str,
    ledger: CompensationLedger,
) -> RecoveryOutcome:
    """Invoke every compensating definition on its original peer.

    Falls back to a replica holder of the plan's document when the
    original provider is disconnected (the replication manager must be
    attached to the network).  Dead-end definitions are counted as
    failures — the atomicity gap the spheres analysis predicts.
    """
    outcome = RecoveryOutcome()
    replication = network.replication
    for provider, plan_xml in reversed(ledger.entries):
        message = CompensationRequest(ledger.txn_id, plan_xml, recovering_peer)
        if network.notify(recovering_peer, provider, message):
            outcome.dispatched += 1
            continue
        delivered = False
        if replication is not None:
            document_name = CompensationPlan.from_xml(plan_xml).document_name
            for holder in replication.holders(document_name):
                if holder != provider and network.notify(
                    recovering_peer, holder, message
                ):
                    outcome.dispatched += 1
                    outcome.via_replica += 1
                    network.metrics.incr("compensations_via_replica")
                    delivered = True
                    break
        if not delivered:
            outcome.failed += 1
            network.metrics.incr("compensation_failures")
    return outcome


def ledger_from_context(context) -> CompensationLedger:
    """Build a ledger from a transaction context's received definitions."""
    ledger = CompensationLedger(context.txn_id)
    for provider, plan_xml in context.received_compensations:
        ledger.add(provider, plan_xml)
    return ledger
