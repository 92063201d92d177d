"""The AXML peer: documents + services + the transactional protocols.

"AXML peers: Nodes where the AXML documents and services are hosted"
(§1).  On top of hosting, this class implements the paper's protocols:

* transaction submission, commit and abort (origin role);
* service execution under a transaction context (participant role),
  including the callee side of nested recovery — §3.2 steps 1–2;
* invocation with caller-side forward/backward recovery — §3.2 steps
  3–4 — and peer-independent compensation collection;
* the §3.3 disconnection cases, using the piggybacked active-peer chain
  (or the naive baseline behaviour when ``chaining=False``).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple, Union

from repro.axml.document import AXMLDocument
from repro.axml.faults import parse_fault_handlers
from repro.axml.materialize import Resolver
from repro.axml.service_call import ServiceCall
from repro.errors import (
    P2PError,
    PeerDisconnected,
    ReproError,
    ServiceFault,
    TransactionError,
)
from repro.outcome import Outcome
from repro.p2p.chain import PeerChain
from repro.p2p.messages import (
    AbortMessage,
    CommitMessage,
    CompensationRequest,
    DisconnectNotice,
    InvokeRequest,
    RedirectedResult,
    WalShipAck,
    WalShipMessage,
)
from repro.p2p.network import SimNetwork
from repro.query.ast import UpdateAction
from repro.query.parser import parse_action
from repro.services.registry import ServiceRegistry
from repro.services.service import Service, ServiceResponse
from repro.obs.spans import Span
from repro.sim.rng import SeededRng, stable_seed
from repro.txn.manager import TransactionManager
from repro.txn.modes import DurabilityPolicy, RejoinMode, coerce_durability
from repro.txn.operations import OperationOutcome
from repro.txn.recovery import (
    FaultPolicy,
    RecoveryDecision,
    attempt_forward_recovery,
    fault_name_of,
    select_policy,
)
from repro.txn.transaction import Transaction, TransactionContext, TransactionState


class AXMLPeer:
    """One node of the simulated AXML P2P system."""

    def __init__(
        self,
        peer_id: str,
        network: SimNetwork,
        super_peer: bool = False,
        peer_independent: bool = False,
        chaining: bool = True,
        chain_scope: str = "immediate",
        parent_watch_interval: Optional[float] = None,
        occ: bool = False,
        injector=None,
        seed: int = 0,
        durability: Union[None, str, DurabilityPolicy] = None,
    ):
        self.peer_id = peer_id
        self.network = network
        self.super_peer = super_peer
        #: §3.2's peer-independent compensation mode.
        self.peer_independent = peer_independent
        #: §3.3's chaining; False gives the naive baseline.
        self.chaining = chaining
        #: Notification breadth on detected disconnections: "immediate"
        #: (parent/children/siblings, the paper's protocol) or "extended"
        #: (plus grandparent/uncles/cousins — the conclusion's extension).
        self.chain_scope = chain_scope
        #: Orphan self-defense (§3.3's ping/keep-alive): a participant
        #: that finished its service keeps probing its invoker every this
        #: many simulated seconds until the commit/abort decision arrives;
        #: a dead invoker triggers local backward recovery.  This covers
        #: the case chain notices cannot: the detector's chain view never
        #: learned about a subtree that was still in flight when its root
        #: died.  ``None`` disables the watch.
        self.parent_watch_interval = parent_watch_interval
        self.injector = injector
        self.disconnected = False
        self.documents: Dict[str, AXMLDocument] = {}
        self.registry = ServiceRegistry(peer_id)
        validator = None
        if occ:
            from repro.txn.occ import OptimisticValidator

            validator = OptimisticValidator()
        self.manager = TransactionManager(
            peer_id, self.get_axml_document, validator=validator
        )
        #: Crash durability: a directory path or a
        #: :class:`~repro.txn.modes.DurabilityPolicy` enables the
        #: on-disk WAL (:mod:`repro.txn.durable_wal`); ``None`` keeps
        #: the log memory-only and peers fail by disconnecting, never
        #: crashing.  Bare strings are coerced to a policy with default
        #: knobs.
        self.durability_policy = coerce_durability(durability)
        self.wal = None
        if self.durability_policy is not None:
            from repro.txn.durable_wal import DurableWal

            policy = self.durability_policy
            self.wal = DurableWal(
                policy.directory,
                peer_id=peer_id,
                metrics=network.metrics,
                segment_max_frames=policy.segment_max_frames,
                batch_size=policy.wal_batch,
                flush_interval=policy.flush_interval,
                events=network.events,
                checkpoint_every=policy.checkpoint_every,
                document_source=self._snapshot_documents,
            )
            self.manager.log.sink = self.wal
        # Per-peer stream derived with a process-stable digest — never
        # hash(), whose per-process salting (PYTHONHASHSEED) would make
        # "seeded" runs irreproducible across interpreter processes.
        self.rng = SeededRng(stable_seed(seed, peer_id))
        #: Caller-side fault policies per remote method (§3.2 handlers).
        self.fault_policies: Dict[str, List[FaultPolicy]] = {}
        #: txn id → this peer's view of the active-peer chain (§3.3).
        self.chains: Dict[str, PeerChain] = {}
        #: Results redirected past a dead peer, awaiting reuse:
        #: (txn_id, method) → fragments (§3.3b).
        self.reusable_results: Dict[Tuple[str, str], List[str]] = {}
        #: Reuse fragments that arrived piggybacked on an InvokeRequest.
        self._incoming_reuse: Dict[Tuple[str, str], List[str]] = {}
        #: Completed executions of *replicated* services, for
        #: exactly-once re-delegation: (txn_id, method, params) →
        #: Outcome.  A parent that failed over re-runs its
        #: delegations; a child that already did the work returns its
        #: previous result instead of applying the share twice.
        self._completed_invokes: Dict[
            Tuple[str, str, Tuple[Tuple[str, str], ...]], object
        ] = {}
        #: Transactions this peer learned are doomed (disconnection
        #: notices); pending continuous work for them is wasted effort.
        self.known_doomed: Set[str] = set()
        #: txn id → remaining continuous work units (see add_pending_work).
        self._pending_work: Dict[str, List] = {}
        #: Transactions currently executing on this peer (services run
        #: synchronously, so a stack suffices).
        self._txn_stack_storage: List[str] = []
        #: txn id → the origin-side transaction span (detached root).
        self._txn_spans: Dict[str, Span] = {}
        self.manager.bind_observability(network.spans)
        network.register(self)

    # ------------------------------------------------------------------
    # hosting
    # ------------------------------------------------------------------

    def host_document(self, axml_document: AXMLDocument) -> AXMLDocument:
        """Host a document locally; it becomes query/update-able here."""
        self.documents[axml_document.name] = axml_document
        return axml_document

    def host_service(self, service: Service) -> Service:
        return self.registry.register(service)

    def get_axml_document(self, name: str) -> AXMLDocument:
        try:
            return self.documents[name]
        except KeyError:
            raise P2PError(f"peer {self.peer_id!r} does not host document {name!r}")

    def hosts_document(self, name: str) -> bool:
        return name in self.documents

    def _snapshot_documents(self) -> Dict[str, str]:
        """Serialized hosted documents, for the WAL's checkpointer."""
        return {name: doc.to_xml() for name, doc in self.documents.items()}

    def _wal_barrier(self) -> None:
        """The ``flush_on_prepare`` barrier: buffered WAL frames must be
        durable before this peer sends a message another peer acts on
        (share hand-off, invocation requests).  No-op without group
        commit or with the barrier disabled."""
        if self.wal is None:
            return
        policy = self.durability_policy
        if policy is not None and not policy.flush_on_prepare:
            return
        self.wal.flush()

    def set_fault_policy(
        self, method_name: str, policies: Sequence[FaultPolicy]
    ) -> None:
        """Caller-side handlers for invocations of *method_name*."""
        self.fault_policies[method_name] = list(policies)

    # ------------------------------------------------------------------
    # ServiceHost protocol (what hosted services may ask of us)
    # ------------------------------------------------------------------

    def random(self) -> float:
        return self.rng.random()

    def record_changes(self, records, document_name: str, action_xml: str) -> None:
        """ServiceHost hook: log tree changes as the service makes them."""
        txn_id = self._current_txn()
        if txn_id is None or not records:
            return
        self.manager.record_service_changes(
            txn_id,
            document_name,
            action_xml=action_xml,
            records=records,
            timestamp=self.network.clock.now,
        )

    def materialization_resolver(self) -> Optional[Resolver]:
        """Resolver for embedded service calls in hosted documents.

        Local calls (``serviceURL`` empty or naming this peer) execute
        in-process; remote calls go through :meth:`invoke` under the
        current transaction, with any ``axml:catch`` handlers on the sc
        element adapted to caller-side fault policies.
        """
        txn_id = self._current_txn()
        if txn_id is None:
            return None

        def resolve(call: ServiceCall, params: Dict[str, str]) -> Outcome:
            target = call.peer_hint
            policies = [
                FaultPolicy.from_handler(h)
                for h in parse_fault_handlers(call.element)
            ]
            if target in ("", self.peer_id):
                response = self._execute_local_service(
                    txn_id, call.method_name, params
                )
                return Outcome(
                    response.fragments, provider_peer=self.peer_id
                )
            fragments = self.invoke(
                txn_id, target, call.method_name, params, policies=policies or None
            )
            return Outcome(fragments, provider_peer=target)

        return resolve

    def invoke_remote(
        self, target_peer: str, method_name: str, params: Dict[str, str]
    ) -> List[str]:
        """ServiceHost hook used by delegating services mid-execution."""
        txn_id = self._current_txn()
        if txn_id is None:
            raise TransactionError(
                f"peer {self.peer_id!r} invoked {method_name!r} outside a transaction"
            )
        reuse_key = (txn_id, method_name)
        if reuse_key in self._incoming_reuse:
            # §3.3(b): the invoker passed us a dead peer's already
            # materialized results; reuse instead of re-invoking.
            fragments = self._incoming_reuse.pop(reuse_key)
            self.network.metrics.record_reused_invocation()
            return fragments
        return self.invoke(txn_id, target_peer, method_name, params)

    def _current_txn(self) -> Optional[str]:
        return self._txn_stack[-1] if self._txn_stack else None

    @property
    def _txn_stack(self) -> List[str]:
        return self._txn_stack_storage

    # ------------------------------------------------------------------
    # origin role: begin / submit / invoke / commit / abort
    # ------------------------------------------------------------------

    def begin_transaction(
        self, parent_span: Optional[Span] = None, **span_attrs: str
    ) -> Transaction:
        """Begin a transaction with this peer as origin (§3.2).

        ``parent_span`` nests the transaction span under a caller-owned
        span — the scheduler uses this to group retry attempts of one
        logical client transaction as siblings; ``span_attrs`` (e.g.
        ``attempt="2"``) are attached to the transaction span.
        """
        transaction = Transaction.begin(self.peer_id)
        self.manager.begin(transaction)
        self.chains[transaction.txn_id] = PeerChain(self.peer_id, self.super_peer)
        # The transaction span is the detached root of this txn's span
        # tree; invocations outside any open span attach themselves here.
        self._txn_spans[transaction.txn_id] = self.network.spans.start(
            f"txn:{transaction.txn_id}",
            "transaction",
            peer=self.peer_id,
            txn_id=transaction.txn_id,
            parent=parent_span,
            detached=True,
            **span_attrs,
        )
        return transaction

    def _end_txn_span(self, txn_id: str, status: str) -> None:
        span = self._txn_spans.pop(txn_id, None)
        if span is not None:
            self.network.spans.end(span, status=status)

    def _exception_status(self, exc: BaseException) -> str:
        if isinstance(exc, PeerDisconnected):
            return "disconnected"
        if isinstance(exc, ServiceFault):
            return "fault"
        return "error"

    def submit(
        self,
        txn_id: str,
        action,
        document_name: Optional[str] = None,
        evaluation: str = "lazy",
    ) -> OperationOutcome:
        """Execute one local operation under the transaction.

        ``action`` is an :class:`UpdateAction` or its XML text.  Queries
        lazily materialize embedded calls — possibly invoking remote
        peers, which enlists them in the transaction.
        """
        self._check_alive()
        if isinstance(action, str):
            action = parse_action(action)
        document_name = document_name or action.location.document_name
        self._txn_stack.append(txn_id)
        try:
            outcome = self.manager.execute(
                txn_id,
                action,
                document_name,
                resolver=self.materialization_resolver(),
                evaluation=evaluation,
                timestamp=self.network.clock.now,
            )
        finally:
            self._txn_stack.pop()
        self.network.metrics.record_forward_cost(outcome.nodes_affected)
        return outcome

    def invoke(
        self,
        txn_id: str,
        target_peer: str,
        method_name: str,
        params: Optional[Dict[str, str]] = None,
        policies: Optional[Sequence[FaultPolicy]] = None,
        reused_fragments: Optional[Dict[str, List[str]]] = None,
    ) -> List[str]:
        """Invoke a service on another peer under the transaction.

        Implements the caller side of nested recovery (§3.2): on failure,
        try the fault policies (forward recovery — retry, replica,
        absorb, hook); if unhandled, perform backward recovery (abort the
        local share, send "Abort T" to other invoked peers) and re-raise
        so the failure propagates toward the origin.
        """
        self._check_alive()
        params = dict(params or {})
        directory = self.network.directory
        if directory is not None:
            # Shard-placed methods follow the placement directory, not
            # the (possibly stale) static target — delegations written
            # against the build-time topology keep working after a live
            # migration moves the primary.
            routed = directory.route_service(method_name)
            if routed is not None:
                target_peer = routed
        context = self.manager.context(txn_id)
        context.require_active()
        spans = self.network.spans
        span = spans.start(
            f"invoke:{method_name}",
            "invoke",
            peer=self.peer_id,
            txn_id=txn_id,
            parent=spans.current() or self._txn_spans.get(txn_id),
            target=target_peer,
        )
        status = "ok"
        try:
            edge = context.record_invocation(target_peer, method_name)
            chain = self.chains.get(txn_id)
            if chain is not None and self.chaining and not chain.contains(target_peer):
                chain.add_invocation(
                    self.peer_id, target_peer, self._peer_is_super(target_peer)
                )
            reuse = dict(reused_fragments or {})
            stored = self.reusable_results.pop((txn_id, method_name), None)
            if stored is not None:
                # We hold redirected results for this very method: no need to
                # re-invoke at all (§3.3b reuse at the recovering peer).
                self.network.metrics.record_reused_invocation()
                edge.completed = True
                status = "reused"
                return stored
            request = InvokeRequest(
                txn_id=txn_id,
                origin_peer=context.transaction.origin_peer,
                sender=self.peer_id,
                method_name=method_name,
                params=params,
                chain=chain.copy() if (chain is not None and self.chaining) else None,
                reused_fragments=reuse,
            )
            self.network.metrics.record_invocation()
            self._wal_barrier()
            try:
                result = self.network.rpc(self.peer_id, target_peer, request)
            except (ServiceFault, PeerDisconnected) as exc:
                if isinstance(exc, PeerDisconnected) and exc.peer_id == self.peer_id:
                    raise  # we are the dead one; nothing to recover
                decision = self._try_forward_recovery(
                    txn_id, target_peer, method_name, params, exc, policies
                )
                if decision.handled:
                    edge.completed = True
                    self.network.metrics.incr("forward_recoveries")
                    if decision.used_alternative:
                        self.network.metrics.incr("replica_retries")
                    status = "recovered"
                    return decision.fragments
                edge.failed = True
                # The failed peer already aborted its whole share
                # (exclude it, §3.2) — unless partial recovery kept an
                # enclosing co-located share alive there, in which case
                # only this Abort notice can settle it.
                exclude = (
                    "" if getattr(exc, "share_retained", False) else target_peer
                )
                self._backward_recover(txn_id, exclude_peer=exclude)
                raise
            edge.completed = True
            for provider, plan_xml in result.compensations:
                context.record_compensation_definition(provider, plan_xml)
            if result.chain is not None and chain is not None and self.chaining:
                # Fold the callee's deeper invocations into our view so later
                # siblings receive the complete active-peer list (§3.3).
                chain.merge(result.chain)
            if chain is not None and self.chaining:
                self.network.metrics.record_value("chain_length", len(chain.peers()))
            self.network.metrics.record_forward_cost(result.nodes_affected)
            return result.fragments
        except BaseException as exc:
            status = self._exception_status(exc)
            raise
        finally:
            spans.end(span, status=status)

    def commit(self, txn_id: str) -> None:
        """Origin-side commit: release local state, tell participants.

        Under OCC a commit may fail validation.  The conflict is
        *surfaced*, not swallowed: the local share is already aborted and
        compensated by the manager, the other participants are told to
        abort theirs, the transaction is accounted as
        ``aborted_conflict``, and the :class:`ValidationConflict`
        re-raises so the caller (e.g. the scheduler) can back off and
        retry with a fresh transaction.
        """
        from repro.txn.occ import ValidationConflict

        self._check_alive()
        context = self.manager.context(txn_id)
        if not context.is_origin:
            raise TransactionError(
                f"peer {self.peer_id!r} is not the origin of {txn_id!r}"
            )
        try:
            self._commit_local_and_ship(txn_id)
        except ValidationConflict:
            chain = self.chains.get(txn_id)
            for peer_id in (
                [p for p in chain.peers() if p != self.peer_id] if chain else []
            ):
                self.network.notify(
                    self.peer_id, peer_id, AbortMessage(txn_id, self.peer_id)
                )
            self._cancel_pending_work(txn_id)
            self.network.metrics.incr("occ_conflicts")
            self.network.metrics.record_txn_outcome(txn_id, "aborted_conflict")
            self._end_txn_span(txn_id, "conflict")
            raise
        chain = self.chains.get(txn_id)
        participants = (
            [p for p in chain.peers() if p != self.peer_id] if chain else []
        )
        for peer_id in participants:
            self.network.notify(
                self.peer_id, peer_id, CommitMessage(txn_id, self.peer_id)
            )
        self._cancel_pending_work(txn_id)
        self.network.metrics.record_txn_outcome(txn_id, "committed")
        self._end_txn_span(txn_id, "committed")

    def _commit_local_and_ship(self, txn_id: str) -> None:
        """Commit the local share, then stream its committed WAL entries
        to every replica holder (WAL shipping; docs/REPLICATION.md).

        Entries are captured *before* ``commit_local`` because its
        truncate tombstone drops them from the in-memory log — and the
        tombstone's flush barrier also makes them durable on disk first,
        so everything shipped already satisfies the write-ahead rule.
        Nothing ships when the commit raises (OCC conflict) or when the
        share was already settled.
        """
        replication = self.network.replication
        entries = ()
        if (
            replication is not None
            and replication.has_replicas()
            and self.manager.has_context(txn_id)
            and not self.manager.contexts[txn_id].is_finished
        ):
            entries = self.manager.log.entries_for(txn_id)
        self.manager.commit_local(txn_id)
        if entries:
            replication.on_committed(self.peer_id, txn_id, entries)

    def abort(self, txn_id: str) -> bool:
        """Origin-initiated abort; returns True if compensation fully ran.

        Peer-dependent mode cascades "Abort T" so every participant
        compensates its own share; peer-independent mode (§3.2) executes
        the received compensating-service definitions directly, falling
        back to a replica holder when the original provider is gone.
        """
        self._check_alive()
        context = self.manager.context(txn_id)
        complete = True
        if self.peer_independent and context.received_compensations:
            complete = self._apply_peer_independent(context)
            self._drop_completed_invokes(txn_id)
            self.manager.abort_local(txn_id)
        else:
            self._backward_recover(txn_id)
            if not self.peer_independent:
                complete = self._participants_all_reached(txn_id)
        self.network.metrics.record_txn_outcome(
            txn_id, "aborted" if complete else "abort_incomplete"
        )
        self._end_txn_span(txn_id, "aborted" if complete else "abort_incomplete")
        return complete

    def _participants_all_reached(self, txn_id: str) -> bool:
        chain = self.chains.get(txn_id)
        if chain is None:
            return True
        return all(
            self.network.is_alive(p) for p in chain.peers() if p != self.peer_id
        )

    def _apply_peer_independent(self, context: TransactionContext) -> bool:
        """Send compensating definitions to providers (newest first)."""
        complete = True
        replication = self.network.replication
        for provider, plan_xml in reversed(context.received_compensations):
            message = CompensationRequest(context.txn_id, plan_xml, self.peer_id)
            if self.network.notify(self.peer_id, provider, message):
                continue
            # Provider is gone: try a replica holder of the plan's document.
            delivered = False
            if replication is not None:
                from repro.txn.compensation import CompensationPlan

                document_name = CompensationPlan.from_xml(plan_xml).document_name
                for holder in replication.holders(document_name):
                    if holder != provider and self.network.notify(
                        self.peer_id, holder, message
                    ):
                        self.network.metrics.incr("compensations_via_replica")
                        delivered = True
                        break
            if not delivered:
                self.network.metrics.incr("compensation_failures")
                complete = False
        return complete

    # ------------------------------------------------------------------
    # participant role: service execution (callee side of §3.2)
    # ------------------------------------------------------------------

    def handle_invoke(self, request: InvokeRequest) -> Outcome:
        """Execute a service for a remote invoker under its transaction."""
        if self.disconnected:
            raise PeerDisconnected(self.peer_id)
        injector = self.injector
        if injector is not None:
            injector.check_disconnect(self.peer_id, request.method_name, "before_execute")
            if self.disconnected:
                raise PeerDisconnected(self.peer_id)
        dedup_key = (
            request.txn_id,
            request.method_name,
            tuple(sorted(request.params.items())),
        )
        cached = self._completed_invokes.get(dedup_key)
        if cached is not None:
            # Exactly-once across failover: a parent that failed over
            # re-runs its delegations, and this peer already completed
            # this exact invocation for the same transaction.  Return
            # the previous result — the §3.3(b) "reuse, don't redo"
            # idea applied callee-side.
            self.network.metrics.incr("invocations_deduped")
            return cached
        # Snapshot what this peer already holds for the transaction: a
        # rerouted or failed-over service can land on a peer that also
        # executes one of its (transitive) delegates, and a fault in
        # this frame must then only undo THIS frame's work, not the
        # enclosing share's (see _partial_backward_recover).
        prior_seq = 0
        prior_edges = 0
        if self.manager.has_context(request.txn_id):
            enclosing = self.manager.contexts[request.txn_id]
            if not enclosing.is_finished:
                prior_edges = len(enclosing.invocations)
                prior_seq = max(
                    (e.seq for e in self.manager.log.entries_for(request.txn_id)),
                    default=0,
                )
        transaction = Transaction(request.txn_id, request.origin_peer)
        context = self.manager.begin(
            transaction, parent_peer=request.sender, service_name=request.method_name
        )
        if request.chain is not None:
            # Keep a private copy: the carried snapshot belongs to the message.
            self.chains[request.txn_id] = request.chain.copy()
        for method, fragments in request.reused_fragments.items():
            self._incoming_reuse[(request.txn_id, method)] = list(fragments)
        span = self.network.spans.start(
            f"service:{request.method_name}",
            "service",
            peer=self.peer_id,
            txn_id=request.txn_id,
            sender=request.sender,
        )
        status = "ok"
        self._txn_stack.append(request.txn_id)
        try:
            if injector is not None:
                fault_name = injector.check_fault(self.peer_id, request.method_name)
                if fault_name is not None:
                    raise ServiceFault(
                        fault_name,
                        f"injected fault in {request.method_name}@{self.peer_id}",
                    )
            response = self._execute_local_service(
                request.txn_id, request.method_name, request.params
            )
            if injector is not None:
                fault_name = injector.check_fault(
                    self.peer_id, request.method_name, "after_execute"
                )
                if fault_name is not None:
                    # Fig. 1's failure shape: the peer fails *while
                    # processing* the service, after nested invocations.
                    raise ServiceFault(
                        fault_name,
                        f"injected fault in {request.method_name}@{self.peer_id}",
                    )
                injector.check_disconnect(
                    self.peer_id, request.method_name, "after_local_work"
                )
                if self.disconnected:
                    raise PeerDisconnected(self.peer_id)
            compensations = self._collect_compensations(
                request.txn_id, context, response
            )
            if injector is not None:
                injector.check_disconnect(
                    self.peer_id, request.method_name, "before_return"
                )
            if self.parent_watch_interval is not None:
                self._arm_parent_watch(request.txn_id, context)
            my_chain = self.chains.get(request.txn_id)
            # Share hand-off: the entries behind these fragments must be
            # durable before the invoker acts on the result.
            self._wal_barrier()
            result = Outcome(
                fragments=response.fragments,
                provider_peer=self.peer_id,
                compensations=compensations,
                nodes_affected=response.nodes_affected,
                chain=my_chain.copy() if (my_chain and self.chaining) else None,
            )
            replication = self.network.replication
            if replication is not None and replication.is_replicated_method(
                request.method_name
            ):
                # Only replicated services can be legitimately re-invoked
                # (a failed-over parent re-running its delegations); for
                # them, remember the outcome for exactly-once dedup.
                self._completed_invokes[dedup_key] = result
            return result
        except ServiceFault as fault:
            # §3.2 steps 1-2, callee side: abort my share and tell the
            # peers whose services I invoked; then let the fault travel
            # back to my invoker.
            status = "fault"
            if not self.disconnected:
                if prior_seq > 0 or prior_edges > 0:
                    # This peer also holds an *enclosing* active share of
                    # the same transaction (co-located via reroute or
                    # failover): only this frame's work may be undone.
                    # The flag tells the invoker this peer still has a
                    # live share to settle if the fault goes unhandled.
                    self._partial_backward_recover(request, prior_seq, prior_edges)
                    fault.share_retained = True
                else:
                    self._backward_recover(
                        request.txn_id, exclude_peer=request.sender
                    )
            raise
        except PeerDisconnected:
            # Either I died mid-execution (do nothing — dead peers take
            # no actions) or an unrecoverable child failure already
            # triggered my backward recovery in invoke().
            status = "disconnected"
            raise
        finally:
            self._txn_stack.pop()
            self.network.spans.end(span, status=status)

    def _execute_local_service(
        self, txn_id: str, method_name: str, params: Dict[str, str]
    ) -> ServiceResponse:
        # Services log their own changes through record_changes() the
        # moment they make them (see ServiceHost), so nothing is logged
        # here — by return time the log already covers this execution.
        from repro.errors import ServiceError, ServiceNotFound, UpdateError

        try:
            service = self.registry.lookup(method_name)
            response = service.execute(params, self)
        except ServiceFault:
            raise
        except (ServiceNotFound, UpdateError, ServiceError) as exc:
            # Surface execution problems as *named faults* so the §3.2
            # machinery handles them: the callee aborts its share and the
            # caller's handlers (retry, alternative peer, …) get a shot.
            raise ServiceFault(type(exc).__name__, str(exc)) from exc
        self.network.metrics.record_forward_cost(response.nodes_affected)
        return response

    def _collect_compensations(
        self, txn_id: str, context: TransactionContext, response: ServiceResponse
    ) -> List[tuple]:
        """Own compensating definition + those gathered from children."""
        if not self.peer_independent:
            return []
        compensations: List[tuple] = list(context.received_compensations)
        context.received_compensations = []
        if response.records:
            plan_xml = self.manager.build_compensation_xml(
                txn_id, response.records, response.document_name
            )
            compensations.append((self.peer_id, plan_xml))
        return compensations

    # ------------------------------------------------------------------
    # recovery internals
    # ------------------------------------------------------------------

    def _try_forward_recovery(
        self,
        txn_id: str,
        target_peer: str,
        method_name: str,
        params: Dict[str, str],
        exc: ReproError,
        policies: Optional[Sequence[FaultPolicy]],
    ) -> RecoveryDecision:
        fault_name = fault_name_of(exc)
        available = list(policies or self.fault_policies.get(method_name, []))
        policy = select_policy(available, fault_name)
        if policy is None:
            return RecoveryDecision.unhandled()

        def reinvoke(peer: str, method: str, p: Dict[str, str]) -> List[str]:
            # Hand any redirected results we hold (§3.3b) to the retry
            # target so orphaned children's work is reused, not redone.
            reuse: Dict[str, List[str]] = {}
            for (t, reusable_method), fragments in list(self.reusable_results.items()):
                if t == txn_id:
                    reuse[reusable_method] = fragments
                    del self.reusable_results[(t, reusable_method)]
            chain = self.chains.get(txn_id)
            request = InvokeRequest(
                txn_id=txn_id,
                origin_peer=self.manager.context(txn_id).transaction.origin_peer,
                sender=self.peer_id,
                method_name=method,
                params=p,
                chain=chain.copy() if (chain and self.chaining) else None,
                reused_fragments=reuse,
            )
            self.network.metrics.record_invocation()
            self._wal_barrier()
            result = self.network.rpc(self.peer_id, peer, request)
            for provider, plan_xml in result.compensations:
                self.manager.context(txn_id).record_compensation_definition(
                    provider, plan_xml
                )
            return result.fragments

        # The replication layer offers "the most-caught-up live replica"
        # as a per-retry failover target — only for services it actually
        # replicated, and only when the policy names no explicit
        # alternative (an explicit ``axml:sc`` replica always wins).
        select_alternative = None
        replication = self.network.replication
        if replication is not None and not policy.alternative_peer:
            select_alternative = replication.failover_selector(
                target_peer, method_name
            )
        decision = attempt_forward_recovery(
            policy,
            target_peer,
            method_name,
            params,
            reinvoke=reinvoke,
            wait=self.network.clock.advance,
            original_target_alive=lambda: self.network.is_alive(target_peer),
            select_alternative=select_alternative,
        )
        if (
            decision.handled
            and decision.alternative_used
            and select_alternative is not None
            and not policy.alternative_peer
        ):
            # §3.3 rewrite: route the transaction's chain around the dead
            # primary so commit/abort traffic reaches the replica that now
            # owns the share — including when the dead peer was an
            # interior node (its subtree re-parents onto the replica).
            chain = self.chains.get(txn_id)
            if chain is not None and self.chaining:
                if chain.substitute(
                    target_peer,
                    decision.alternative_used,
                    self._peer_is_super(decision.alternative_used),
                ):
                    self.network.metrics.incr("chains_rewritten")
        return decision

    def _partial_backward_recover(
        self, request: InvokeRequest, prior_seq: int, prior_edges: int
    ) -> None:
        """Backward-recover only the failed invocation's share.

        A replica reroute or failover can execute a service on a peer
        that also runs one of its delegates under the same transaction.
        The usual callee-side recovery (``_backward_recover``) aborts
        the peer's *whole* local share — which here would silently
        destroy the enclosing invocation's completed work while that
        invocation carries on and commits.  Instead: compensate only the
        log tail this frame appended (``seq > prior_seq``) and tell only
        the children this frame invoked to abort theirs.
        """
        txn_id = request.txn_id
        if not self.manager.has_context(txn_id):
            return
        context = self.manager.contexts[txn_id]
        if context.is_finished:
            return
        executed = self.manager.abort_invocation_tail(txn_id, prior_seq)
        self.network.metrics.record_value("compensation_depth", executed)
        self.network.metrics.incr("partial_aborts")
        frame_edges = context.invocations[prior_edges:]
        del context.invocations[prior_edges:]
        for peer_id in {
            e.target_peer for e in frame_edges
            if e.target_peer not in (request.sender, self.peer_id)
        }:
            self.network.notify(
                self.peer_id,
                peer_id,
                AbortMessage(txn_id, self.peer_id, request.method_name),
            )

    def _backward_recover(self, txn_id: str, exclude_peer: str = "") -> None:
        """Abort my share and notify the peers whose services I invoked.

        ``exclude_peer`` is the peer the failure came from (it has
        already recovered itself) or the parent (the re-raise informs it).
        """
        if not self.manager.has_context(txn_id):
            return
        context = self.manager.contexts[txn_id]
        if context.is_finished:
            return
        discarded = sum(1 for e in context.invocations if e.completed)
        if discarded:
            self.network.metrics.record_discarded_invocation(discarded)
        self._drop_completed_invokes(txn_id)
        executed = self.manager.abort_local(txn_id)
        self.network.metrics.record_value("compensation_depth", executed)
        self.network.metrics.incr("local_aborts")
        if context.is_origin:
            self.network.metrics.record_txn_outcome(txn_id, "aborted")
            self._end_txn_span(txn_id, "aborted")
        for peer_id in context.invoked_peers():
            if peer_id == exclude_peer:
                continue
            self.network.notify(
                self.peer_id,
                peer_id,
                AbortMessage(txn_id, self.peer_id, context.service_name or ""),
            )
        self._cancel_pending_work(txn_id)

    def _arm_parent_watch(self, txn_id: str, context: TransactionContext) -> None:
        """Probe the invoker until the commit/abort decision arrives.

        A participant whose invoker dies *after* the results were
        delivered is an in-doubt orphan: no Abort can reach it (the dead
        peer was the only one who knew about it).  The keep-alive probe
        is its §3.3 self-defense — on detecting the invoker's death it
        aborts and compensates its own share, cascading to its children.
        """
        parent = context.parent_peer
        if parent is None:
            return
        interval = self.parent_watch_interval

        def probe() -> None:
            current = self.manager.contexts.get(txn_id)
            if (
                self.disconnected
                or current is not context
                or context.is_finished
            ):
                return
            if self.network.ping(self.peer_id, parent):
                self.network.events.schedule(interval, probe)
                return
            self.known_doomed.add(txn_id)
            self._backward_recover(txn_id)
            self.network.metrics.incr("orphan_self_aborts")

        self.network.events.schedule(interval, probe)

    # ------------------------------------------------------------------
    # disconnection handling (§3.3)
    # ------------------------------------------------------------------

    def on_return_failure(self, request: InvokeRequest, result: Outcome) -> None:
        """§3.3(b): we finished a service but our invoker died.

        With chaining: push the results (and compensating definitions) up
        the chain to the first alive ancestor — "as soon as AP6 detects
        the disconnection of AP3, it can send the results directly to
        AP2" — trying "the next closest peer … or the closest super peer"
        when AP2 is gone too.  Without chaining: the work is discarded
        (the naive baseline's loss of effort).
        """
        txn_id = request.txn_id
        self.known_doomed.add(txn_id)
        chain = self.chains.get(txn_id)
        if not self.chaining or chain is None:
            self._discard_own_work(txn_id)
            return
        dead_parent = request.sender
        notice = DisconnectNotice(
            txn_id, dead_parent, self.peer_id, self.network.clock.now
        )
        redirect = RedirectedResult(
            txn_id,
            self.peer_id,
            dead_parent,
            request.method_name,
            list(result.fragments),
            list(result.compensations),
        )
        # Candidate receivers: ancestors of the dead parent, nearest
        # first, then the closest super peer as the last resort.
        candidates = chain.ancestors_of(dead_parent)
        closest_super = chain.closest_super_peer(dead_parent)
        if closest_super and closest_super not in candidates:
            candidates.append(closest_super)
        for ancestor in candidates:
            if ancestor == self.peer_id or not self.network.is_alive(ancestor):
                continue
            self.network.notify(self.peer_id, ancestor, notice)
            self.network.notify(self.peer_id, ancestor, redirect)
            self.network.metrics.incr("results_redirected")
            return
        self._discard_own_work(txn_id)

    def _discard_own_work(self, txn_id: str) -> None:
        if self.manager.has_context(txn_id):
            context = self.manager.contexts[txn_id]
            if any(e.completed for e in context.invocations) or context.log_seqs:
                self.network.metrics.record_discarded_invocation()
            self._drop_completed_invokes(txn_id)
            self.manager.abort_local(txn_id)
        self._cancel_pending_work(txn_id)

    def _drop_completed_invokes(self, txn_id: str) -> None:
        """Invalidate the exactly-once cache for an aborted share.

        Once the share is compensated, a cached :class:`Outcome`
        would make a later legitimate re-invocation return stale results
        without redoing the (now undone) work.
        """
        for key in [k for k in self._completed_invokes if k[0] == txn_id]:
            del self._completed_invokes[key]

    def check_child_liveness(self, txn_id: str) -> List[str]:
        """§3.3(c): ping my chain children; handle any detected death.

        Returns the dead children found.  For each, the chain tells us
        the orphaned descendants: we inform them (preventing wasted
        effort) and can reuse any redirected results they already sent.
        """
        self._check_alive()
        chain = self.chains.get(txn_id)
        if chain is None:
            return []
        dead: List[str] = []
        for child in chain.children_of(self.peer_id):
            if not self.network.ping(self.peer_id, child):
                dead.append(child)
                self._on_child_death(txn_id, child)
        return dead

    def _on_child_death(self, txn_id: str, dead_child: str) -> None:
        self.known_doomed.add(txn_id)
        chain = self.chains.get(txn_id)
        if chain is None or not self.chaining:
            return
        notice = DisconnectNotice(
            txn_id, dead_child, self.peer_id, self.network.clock.now
        )
        targets = list(chain.descendants_of(dead_child))
        if self.chain_scope == "extended":
            # Conclusion's extension: also alert the dead peer's wider
            # family so parallel branches stop wasting effort sooner.
            for relative in chain.relatives_of(dead_child, "extended"):
                if relative not in targets and relative != self.peer_id:
                    targets.append(relative)
        for target in targets:
            if self.network.notify(self.peer_id, target, notice):
                self.network.metrics.incr("descendants_informed")

    def report_stream_timeout(self, txn_id: str, silent_sibling: str) -> None:
        """§3.3(d): a sibling's continuous data stream went silent.

        "A sibling would be aware of another sibling's disconnection if
        it doesn't receive data at the specified interval."  We verify
        with a ping, then use the chain to notify the dead sibling's
        parent and children.
        """
        self._check_alive()
        if self.network.ping(self.peer_id, silent_sibling):
            return  # false alarm: the stream was merely late
        chain = self.chains.get(txn_id)
        if chain is None or not self.chaining:
            return
        notice = DisconnectNotice(
            txn_id, silent_sibling, self.peer_id, self.network.clock.now
        )
        for relative in chain.relatives_of(silent_sibling, self.chain_scope):
            if relative != self.peer_id:
                self.network.notify(self.peer_id, relative, notice)

    # ------------------------------------------------------------------
    # notifications
    # ------------------------------------------------------------------

    def on_notify(self, message: object) -> None:
        if self.disconnected:
            return
        if isinstance(message, AbortMessage):
            self._on_abort_message(message)
        elif isinstance(message, CommitMessage):
            if self.manager.has_context(message.txn_id):
                self._commit_local_and_ship(message.txn_id)
            self._cancel_pending_work(message.txn_id)
        elif isinstance(message, CompensationRequest):
            # §3.2: execute without knowing it is compensation.
            self.manager.apply_compensation_xml(message.plan_xml)
            self.network.metrics.incr("peer_independent_compensations")
        elif isinstance(message, DisconnectNotice):
            self._on_disconnect_notice(message)
        elif isinstance(message, RedirectedResult):
            self.reusable_results[(message.txn_id, message.method_name)] = list(
                message.fragments
            )
            if self.manager.has_context(message.txn_id):
                context = self.manager.contexts[message.txn_id]
                for provider, plan_xml in message.compensations:
                    context.record_compensation_definition(provider, plan_xml)
            self.network.metrics.incr("redirected_results_received")
        elif isinstance(message, WalShipMessage):
            replication = self.network.replication
            if replication is not None:
                replication.on_ship(self.peer_id, message)
        elif isinstance(message, WalShipAck):
            replication = self.network.replication
            if replication is not None:
                replication.on_ack(self.peer_id, message)

    def _on_abort_message(self, message: AbortMessage) -> None:
        """§3.2 step 2: a peer whose invoker aborted compensates its
        share and cascades to its own children."""
        txn_id = message.txn_id
        if not self.manager.has_context(txn_id):
            self._cancel_pending_work(txn_id)
            return
        context = self.manager.contexts[txn_id]
        if context.is_finished:
            return
        self.network.metrics.incr("aborts_received")
        self._backward_recover(txn_id, exclude_peer=message.from_peer)

    def _on_disconnect_notice(self, message: DisconnectNotice) -> None:
        """A peer involved in one of our transactions disconnected.

        Stop burning effort on the doomed transaction (the §3.3(c)
        rationale: "prevent them from wasting effort").  Recovery itself
        is driven by whichever peer owns the failed invocation edge.
        """
        self.known_doomed.add(message.txn_id)
        self._cancel_pending_work(message.txn_id)
        self.network.metrics.incr("disconnect_notices_received")

    # ------------------------------------------------------------------
    # continuous (subscription) work — effort accounting for §3.3
    # ------------------------------------------------------------------

    def add_pending_work(
        self, txn_id: str, units: int, unit_duration: float = 0.01
    ) -> None:
        """Schedule *units* of ongoing work for the transaction.

        Each unit consumes virtual time when it fires; units belonging to
        a transaction this peer knows is doomed are counted as wasted —
        unless a notification cancelled them first.  This is the §3.3
        effort model: early notification saves the un-fired units.
        """
        handles = []
        for i in range(units):
            handle = self.network.events.schedule(
                (i + 1) * unit_duration, lambda t=txn_id: self._do_work_unit(t)
            )
            handles.append(handle)
        self._pending_work.setdefault(txn_id, []).extend(handles)

    def _do_work_unit(self, txn_id: str) -> None:
        if self.disconnected:
            return
        self.network.metrics.incr("work_units_done")
        if txn_id in self.known_doomed:
            self.network.metrics.incr("work_units_wasted")

    def _cancel_pending_work(self, txn_id: str) -> None:
        for handle in self._pending_work.pop(txn_id, []):
            handle.cancel()

    # ------------------------------------------------------------------
    # crash (process death: volatile state lost, disk survives)
    # ------------------------------------------------------------------

    def crash(self) -> None:
        """Kill this peer's process: every volatile structure is lost.

        Unlike a *disconnection* (state intact, links down), a crash
        drops the in-memory operation log, transaction contexts, chain
        views, reuse caches and pending work.  Hosted documents model
        the peer's durable store and survive, as does the on-disk WAL
        directory when ``durability`` is enabled — that WAL is the only
        route back to compensating in-flight shares after a restart
        (:meth:`rejoin` with ``mode="in_doubt"``).

        The executing-transaction stack is deliberately left alone: a
        crash mid-service unwinds through ``handle_invoke``'s normal
        exception path, which pops its own frame.
        """
        self.network.disconnect(self.peer_id)
        self.disconnected = True
        self.manager.contexts.clear()
        from repro.txn.wal import OperationLog

        self.manager.log = OperationLog(self.peer_id)
        if self.wal is not None:
            # Group commit: frames still buffered in memory die with the
            # process.  Their document effects must die too — the
            # restarted peer's WAL has no record to compensate them from
            # — so undo them here (the write-ahead rule, enforced late).
            unflushed = self.wal.discard_unflushed()
            if unflushed:
                self._undo_unflushed(unflushed)
            self.wal.close()
        self.chains.clear()
        self.reusable_results.clear()
        self._incoming_reuse.clear()
        self._completed_invokes.clear()
        self.known_doomed.clear()
        for txn_id in list(self._pending_work):
            self._cancel_pending_work(txn_id)
        self._txn_spans.clear()
        self.network.metrics.incr("peer_crashes")

    def _undo_unflushed(self, entries) -> None:
        """Roll the durable store back over entries lost with the
        group-commit buffer.  Safe because the ``flush_on_prepare``
        barrier guarantees an unflushed entry belongs to a share whose
        result was never handed off — the invoker saw this crash as a
        failed invocation, so no other peer depends on the effect."""
        from repro.txn.operations import build_compensation
        from repro.txn.wal import OperationLog

        log = OperationLog.from_entries(self.peer_id, entries)
        for txn_id in sorted({e.txn_id for e in entries}):
            for plan in build_compensation(log, txn_id):
                if plan.document_name not in self.documents:
                    continue
                plan.execute(
                    self.get_axml_document(plan.document_name).document
                )

    # ------------------------------------------------------------------
    # rejoin (the P2P churn story: peers "joining and leaving arbitrarily")
    # ------------------------------------------------------------------

    def rejoin(
        self, mode: Union[str, RejoinMode] = RejoinMode.COMPENSATE
    ) -> int:
        """Rejoin the network, compensating in-flight transactions.

        While this peer was gone, the rest of the system treated it as
        dead: its in-flight transactions were aborted (or completed
        around it via replicas).  A rejoining peer therefore compensates
        every local share that never saw a commit — its log has
        everything needed (§3.1's logging discipline pays off here).

        With a durable WAL attached (``durability=``), the log is
        recovered from disk (:meth:`repro.txn.durable_wal.DurableWal.reload`)
        — the restart-from-disk story, where in-memory contexts are gone
        but the log survives.  Without one, every active share is
        aborted locally from the in-memory log.

        ``mode`` (a :class:`~repro.txn.modes.RejoinMode`; the old
        strings are coerced) decides what happens to the recovered
        transactions:

        * :attr:`RejoinMode.COMPENSATE` (default): compensate every
          recovered share immediately — correct when the rest of the
          system already aborted around the dead peer.
        * :attr:`RejoinMode.IN_DOUBT`: rebuild an ``ACTIVE`` context per
          recovered transaction and leave the decision to a later
          :meth:`resolve_in_doubt`.  Required after a *crash*: a share
          whose invocation completed before the crash may belong to a
          transaction that globally committed — compensating it
          unconditionally would undo committed work.

        With checkpointing enabled, recovery restores any document
        snapshot the latest valid checkpoint carried for a document this
        peer no longer holds in memory (hosted documents normally model
        the durable store and survive a crash, so existing documents are
        never overwritten).

        Returns the number of transactions compensated (or, in
        ``"in_doubt"`` mode, rebuilt as in-doubt).
        """
        from repro.txn.wal import OperationLog

        mode = RejoinMode.coerce(mode)
        self.network.reconnect(self.peer_id)
        self.disconnected = False
        compensated = 0
        if self.wal is not None:
            restored = OperationLog.from_entries(
                self.peer_id, self.wal.reload()
            )
            restored.sink = self.wal
            recovery = self.wal.last_recovery
            if recovery is not None:
                for name, xml in sorted(recovery.documents.items()):
                    if name not in self.documents:
                        self.documents[name] = AXMLDocument.from_xml(
                            xml, name=name
                        )
            self.manager.log = restored
            txn_ids = sorted({entry.txn_id for entry in restored})
            if mode is RejoinMode.IN_DOUBT:
                for txn_id in txn_ids:
                    context = self.manager.begin(
                        Transaction(txn_id, self.peer_id)
                    )
                    context.log_seqs = [
                        e.seq for e in restored.entries_for(txn_id)
                    ]
                    compensated += 1
            else:
                for txn_id in txn_ids:
                    from repro.txn.operations import build_compensation

                    for plan in build_compensation(restored, txn_id):
                        document = self.get_axml_document(
                            plan.document_name
                        ).document
                        plan.execute(document)
                    restored.truncate(txn_id)
                    compensated += 1
                    self.network.metrics.incr("recovery_replays")
                    # Rebuild a finished context so later messages are
                    # ignored.
                    context = self.manager.contexts.get(txn_id)
                    if context is not None and not context.is_finished:
                        self.manager.mark_aborted_without_compensation(txn_id)
                # Volatile contexts that never wrote a log entry have
                # nothing on disk; abort them too.
                for txn_id in list(self.manager.active_transactions()):
                    self.manager.abort_local(txn_id)
                    compensated += 1
        else:
            for txn_id in list(self.manager.active_transactions()):
                self.manager.abort_local(txn_id)
                compensated += 1
        self.network.metrics.incr("peer_rejoins")
        replication = self.network.replication
        if replication is not None:
            # Replica copies on this peer may have missed ships while it
            # was gone; schedule them for a settlement resync.
            replication.on_peer_rejoined(self.peer_id)
        return compensated

    # ------------------------------------------------------------------
    # settlement (driven by external harnesses, e.g. repro.chaos)
    # ------------------------------------------------------------------

    def resolve_in_doubt(self, txn_id: str, committed: bool) -> str:
        """Settle a share left without a decision; returns what was done.

        A participant that was disconnected (or whose decision message
        was lost) ends the run with an ``ACTIVE`` context.  Once the
        transaction's global outcome is known — from the origin, which
        under the paper's protocol is the single commit point — the
        share either commits locally (log truncated, effects kept) or
        compensates.  Returns ``"committed"``, ``"aborted"`` or
        ``"noop"`` (no context / already settled).
        """
        if not self.manager.has_context(txn_id):
            return "noop"
        context = self.manager.contexts[txn_id]
        if context.is_finished:
            return "noop"
        if committed and context.state is TransactionState.ACTIVE:
            self._commit_local_and_ship(txn_id)
            return "committed"
        self._drop_completed_invokes(txn_id)
        self.manager.abort_local(txn_id)
        return "aborted"

    def forget_transaction(self, txn_id: str) -> None:
        """Drop per-transaction protocol state for a settled transaction.

        Chain views, doomed-markers and redirected-result caches are
        kept after commit/abort so late protocol traffic (and the
        paper's reuse cases) still resolve; a harness that *knows* the
        transaction is globally settled calls this to release them.
        """
        self.chains.pop(txn_id, None)
        self.known_doomed.discard(txn_id)
        for key in [k for k in self.reusable_results if k[0] == txn_id]:
            del self.reusable_results[key]
        for key in [k for k in self._incoming_reuse if k[0] == txn_id]:
            del self._incoming_reuse[key]
        self._drop_completed_invokes(txn_id)
        self._cancel_pending_work(txn_id)

    # ------------------------------------------------------------------
    # misc
    # ------------------------------------------------------------------

    def _peer_is_super(self, peer_id: str) -> bool:
        try:
            peer = self.network.get_peer(peer_id)
        except ReproError:
            return False
        return bool(getattr(peer, "super_peer", False))

    def _check_alive(self) -> None:
        if self.disconnected:
            raise PeerDisconnected(self.peer_id)

    def __repr__(self) -> str:
        flags = []
        if self.super_peer:
            flags.append("super")
        if self.disconnected:
            flags.append("disconnected")
        suffix = f" [{', '.join(flags)}]" if flags else ""
        return (
            f"AXMLPeer({self.peer_id!r}, docs={len(self.documents)}, "
            f"services={len(self.registry)}{suffix})"
        )
