"""Transactions and per-peer transaction contexts (§3.2).

"On submission of a transaction T_A at a peer AP1 (its origin peer), the
peer creates a transaction context TC_A1.  The transaction context,
managed by the transaction manager, is a data structure which
encapsulates the transaction id with all the information required for
concurrency control, commit and recovery of the corresponding
transaction."

One :class:`Transaction` value identifies the global unit; each
participant peer holds its own :class:`TransactionContext` with the
local log span, the services it invoked on other peers, received
compensating-service definitions (peer-independent mode) and the active
peer chain (§3.3).
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

from repro.errors import TransactionStateError

_txn_counter = itertools.count(1)


class TransactionState(enum.Enum):
    """Lifecycle of a transaction (context)."""

    ACTIVE = "active"
    COMMITTED = "committed"
    COMPENSATING = "compensating"
    ABORTED = "aborted"


#: Legal state transitions.
_TRANSITIONS = {
    TransactionState.ACTIVE: {
        TransactionState.COMMITTED,
        TransactionState.COMPENSATING,
        TransactionState.ABORTED,
    },
    TransactionState.COMPENSATING: {TransactionState.ABORTED},
    TransactionState.COMMITTED: set(),
    TransactionState.ABORTED: set(),
}


@dataclass(frozen=True)
class Transaction:
    """A global transactional unit: "a set of update/query operations"."""

    txn_id: str
    origin_peer: str

    @classmethod
    def begin(cls, origin_peer: str) -> "Transaction":
        return cls(f"T{next(_txn_counter)}", origin_peer)

    def __str__(self) -> str:
        return self.txn_id


@dataclass
class InvocationEdge:
    """One remote invocation made while processing the transaction.

    The recovery protocol (§3.2) propagates "Abort T" messages both to
    "the peers whose services it had invoked" (these edges) and to "the
    peer which had invoked the service" (``TransactionContext.parent_peer``).
    """

    target_peer: str
    method_name: str
    completed: bool = False
    failed: bool = False


class TransactionContext:
    """Per-peer state of one transaction (the paper's ``TC_Ax``)."""

    def __init__(
        self,
        transaction: Transaction,
        peer_id: str,
        parent_peer: Optional[str] = None,
        service_name: Optional[str] = None,
    ):
        self.transaction = transaction
        self.peer_id = peer_id
        #: The peer that invoked a service on us as part of this
        #: transaction (None at the origin peer).
        self.parent_peer = parent_peer
        #: The service we are executing for the parent (None at origin).
        self.service_name = service_name
        self.state = TransactionState.ACTIVE
        #: Outgoing invocations, in execution order.
        self.invocations: List[InvocationEdge] = []
        #: Log sequence numbers of this context's entries in the peer WAL.
        self.log_seqs: List[int] = []
        #: Compensating-service definitions received from providers
        #: (peer-independent compensation, §3.2): provider peer →
        #: serialized CompensationPlan XML, in receipt order.
        self.received_compensations: List[tuple] = []

    @property
    def txn_id(self) -> str:
        return self.transaction.txn_id

    @property
    def is_origin(self) -> bool:
        return self.parent_peer is None

    # -- state machine ----------------------------------------------------

    def transition(self, new_state: TransactionState) -> None:
        if new_state not in _TRANSITIONS[self.state]:
            raise TransactionStateError(
                f"{self.txn_id}@{self.peer_id}: illegal transition "
                f"{self.state.value} -> {new_state.value}"
            )
        self.state = new_state

    def require_active(self) -> None:
        if self.state is not TransactionState.ACTIVE:
            raise TransactionStateError(
                f"{self.txn_id}@{self.peer_id} is {self.state.value}, not active"
            )

    @property
    def is_finished(self) -> bool:
        return self.state in (TransactionState.COMMITTED, TransactionState.ABORTED)

    # -- bookkeeping ---------------------------------------------------------

    def record_invocation(self, target_peer: str, method_name: str) -> InvocationEdge:
        edge = InvocationEdge(target_peer, method_name)
        self.invocations.append(edge)
        return edge

    def invoked_peers(self) -> List[str]:
        """Distinct peers whose services this context invoked, in order."""
        seen: Set[str] = set()
        out: List[str] = []
        for edge in self.invocations:
            if edge.target_peer not in seen:
                seen.add(edge.target_peer)
                out.append(edge.target_peer)
        return out

    def record_compensation_definition(self, provider_peer: str, plan_xml: str) -> None:
        self.received_compensations.append((provider_peer, plan_xml))

    def __repr__(self) -> str:
        return (
            f"TransactionContext({self.txn_id}@{self.peer_id}, "
            f"state={self.state.value}, invoked={self.invoked_peers()})"
        )
