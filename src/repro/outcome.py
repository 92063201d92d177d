"""The invocation result type.

One **frozen** :class:`Outcome` with an explicit :class:`OutcomeStatus`
describes what a service invocation returned, both on the AXML resolver
path (:mod:`repro.axml.materialize`) and as the RPC reply to an
:class:`~repro.p2p.messages.InvokeRequest`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, ClassVar, List, Optional, Sequence, Tuple

if TYPE_CHECKING:
    from repro.p2p.chain import PeerChain


class OutcomeStatus(enum.Enum):
    """How an invocation concluded.

    ``OK`` — executed normally; ``REUSED`` — satisfied from redirected
    results without re-invoking (§3.3b); ``RECOVERED`` — a fault was
    absorbed by forward recovery (§3.2); the remaining values name the
    failure that surfaced when no recovery applied.
    """

    OK = "ok"
    REUSED = "reused"
    RECOVERED = "recovered"
    CONFLICT = "conflict"
    FAULT = "fault"
    DISCONNECTED = "disconnected"
    ERROR = "error"


@dataclass(frozen=True)
class Outcome:
    """What a service invocation returned — the one result shape.

    ``fragments`` are serialized XML results (possibly containing further
    ``axml:sc`` elements — nested invocation).  ``compensations`` carries
    ``(provider_peer, plan_xml)`` compensating-service definitions under
    peer-independent compensation (§3.2); ``compensating_definition`` is
    the single-definition slot the resolver path uses.
    ``chain`` is a snapshot of the provider's final active-peer chain
    view (§3.3), ``None`` when chaining is off.

    Instances are frozen: a result is a value, not a mutable message —
    construct a new one instead of editing in place.
    """

    #: Kept so metrics/trace naming for the RPC reply stays ``result``.
    KIND: ClassVar[str] = "result"

    fragments: Sequence[str] = field(default_factory=tuple)
    provider_peer: str = ""
    status: OutcomeStatus = OutcomeStatus.OK
    compensations: Sequence[Tuple[str, str]] = field(default_factory=tuple)
    nodes_affected: int = 0
    chain: Optional["PeerChain"] = None
    compensating_definition: Optional[str] = None

    @property
    def ok(self) -> bool:
        """True when the invocation delivered usable results."""
        return self.status in (
            OutcomeStatus.OK,
            OutcomeStatus.REUSED,
            OutcomeStatus.RECOVERED,
        )

    def texts(self) -> List[str]:
        return list(self.fragments)

    def with_status(self, status: OutcomeStatus) -> "Outcome":
        """A copy of this outcome under a different status."""
        return Outcome(
            fragments=self.fragments,
            provider_peer=self.provider_peer,
            status=status,
            compensations=self.compensations,
            nodes_affected=self.nodes_affected,
            chain=self.chain,
            compensating_definition=self.compensating_definition,
        )
