"""The simulated P2P network.

Service invocations are synchronous calls with virtual-time latency
(the caller blocks, as in SOAP); aborts/notices/redirects are one-way
notifications; pings probe liveness.  Peer disconnection is modelled by
a flag checked at every interaction point, so a peer can "die" at any
protocol step — including *between* a service finishing and its results
returning (the §3.3(b) window).

The network knows nothing about transactions; peers implement the
protocols on top of these primitives.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Protocol, Union

from repro.errors import PeerDisconnected, ServiceFault, UnknownPeer
from repro.obs.spans import SpanCollector
from repro.outcome import Outcome
from repro.p2p.messages import InvokeRequest, message_kind
from repro.sim.kernel import Clock, EventQueue
from repro.sim.metrics import MetricsCollector


class NetworkPeer(Protocol):
    """What the network requires of a registered peer."""

    peer_id: str
    disconnected: bool

    def handle_invoke(self, request: InvokeRequest) -> Outcome: ...

    def on_notify(self, message: object) -> None: ...

    def on_return_failure(self, request: InvokeRequest, result: Outcome) -> None: ...


#: Verdict a message hook may return for one notification: ``None``
#: (deliver normally), ``"drop"`` (lose the message), or a positive
#: float (deliver after that many extra virtual seconds).
MessageVerdict = Union[None, str, float]

#: ``hook(source_id, target_id, message) -> MessageVerdict``.
MessageHook = Callable[[str, str, object], MessageVerdict]


class SimNetwork:
    """Synchronous-RPC network over a virtual clock."""

    def __init__(
        self,
        clock: Optional[Clock] = None,
        metrics: Optional[MetricsCollector] = None,
        hop_latency: float = 0.005,
        spans: Optional[SpanCollector] = None,
    ):
        self.clock = clock or Clock()
        self.events = EventQueue(self.clock)
        self.metrics = metrics or MetricsCollector()
        self.spans = spans or SpanCollector(now=lambda: self.clock.now)
        self.hop_latency = hop_latency
        self._peers: Dict[str, NetworkPeer] = {}
        #: Virtual time each peer disconnected at (for detection latency).
        self.disconnect_times: Dict[str, float] = {}
        #: Optional chaos hook consulted for every one-way notification
        #: (see :meth:`set_message_hook`); ``None`` = pristine network.
        self.message_hook: Optional[MessageHook] = None
        #: The placement directory (set by
        #: :class:`~repro.p2p.sharding.PlacementDirectory` on
        #: construction); routing layers consult it when present.
        self.directory = None
        #: The :class:`~repro.p2p.replication.ReplicationManager` (set by
        #: its constructor); ``None`` when nothing is replicated.
        self.replication = None
        #: Run-scoped fragment serial (see :func:`next_fragment_serial`):
        #: a module-global counter here would leak across sweep cells in
        #: one process while forked parallel workers start fresh,
        #: breaking serial↔parallel summary byte-identity.
        self._fragment_serial = 0

    def next_fragment_serial(self) -> int:
        """The next distribution serial for this network (1-based)."""
        self._fragment_serial += 1
        return self._fragment_serial

    # -- membership -------------------------------------------------------

    def register(self, peer: NetworkPeer) -> NetworkPeer:
        self._peers[peer.peer_id] = peer
        return peer

    def get_peer(self, peer_id: str) -> NetworkPeer:
        try:
            return self._peers[peer_id]
        except KeyError:
            raise UnknownPeer(f"no peer {peer_id!r} in the network")

    def peers(self) -> List[str]:
        return list(self._peers)

    def disconnect(self, peer_id: str) -> None:
        """Mark *peer_id* as having left the network (§1: arbitrarily)."""
        peer = self.get_peer(peer_id)
        if not peer.disconnected:
            peer.disconnected = True
            self.disconnect_times[peer_id] = self.clock.now
            self.metrics.incr("disconnections")

    def reconnect(self, peer_id: str) -> None:
        """Bring a peer back (it keeps its documents but lost txn state)."""
        self.get_peer(peer_id).disconnected = False

    def is_alive(self, peer_id: str) -> bool:
        peer = self._peers.get(peer_id)
        return peer is not None and not peer.disconnected

    # -- detection bookkeeping ----------------------------------------------

    def record_detection(self, disconnected_peer: str, detected_by: str) -> None:
        self.metrics.record_detection(
            disconnected_peer,
            detected_by,
            self.disconnect_times.get(disconnected_peer, self.clock.now),
            self.clock.now,
        )

    # -- primitives -----------------------------------------------------------

    def rpc(self, source_id: str, target_id: str, request: InvokeRequest) -> Outcome:
        """Synchronous service invocation with latency accounting.

        Raises :class:`PeerDisconnected` naming whichever peer's death
        broke the call: the target (detected by the caller) or — after a
        successful execution whose results cannot be delivered because
        the *caller* died — the source (§3.3b; the target's
        ``on_return_failure`` hook has then already run).

        Every call gets a span (kind ``rpc``) and a sample in the
        ``rpc_latency`` histogram, success or failure alike.
        """
        self.metrics.record_message("invoke")
        span = self.spans.start(
            f"rpc:{request.method_name}",
            "rpc",
            peer=source_id,
            txn_id=request.txn_id,
            target=target_id,
        )
        started = self.clock.now
        try:
            result = self._rpc_deliver(source_id, target_id, request)
        except PeerDisconnected as exc:
            self.spans.end(span, status="disconnected", dead_peer=exc.peer_id)
            raise
        except ServiceFault as fault:
            self.spans.end(span, status="fault", fault_name=fault.fault_name)
            raise
        except Exception:
            self.spans.end(span, status="error")
            raise
        else:
            self.spans.end(span, status="ok")
            return result
        finally:
            self.metrics.record_value("rpc_latency", self.clock.now - started)

    def _rpc_deliver(
        self, source_id: str, target_id: str, request: InvokeRequest
    ) -> Outcome:
        """The unobserved RPC protocol: deliver, execute, return."""
        self.clock.advance(self.hop_latency)
        target = self.get_peer(target_id)
        if target.disconnected:
            self.record_detection(target_id, source_id)
            raise PeerDisconnected(target_id)
        try:
            result = target.handle_invoke(request)
        except PeerDisconnected as exc:
            if target.disconnected and exc.peer_id != target_id:
                # The target died mid-execution; normalize so the caller
                # sees its own callee as the disconnected party.
                self.record_detection(target_id, source_id)
                raise PeerDisconnected(target_id) from exc
            raise
        if target.disconnected:
            # Died between finishing and returning: caller sees a death.
            self.record_detection(target_id, source_id)
            raise PeerDisconnected(target_id)
        self.clock.advance(self.hop_latency)
        source = self.get_peer(source_id)
        if source.disconnected:
            # §3.3(b): the child holds results it cannot deliver.
            self.record_detection(source_id, target_id)
            target.on_return_failure(request, result)
            raise PeerDisconnected(source_id)
        self.metrics.record_message("result")
        return result

    def set_message_hook(self, hook: Optional[MessageHook]) -> None:
        """Install (or clear) the chaos hook for one-way notifications.

        The hook sees every :meth:`notify` before delivery and may drop
        it (``"drop"``) or delay it (a positive float of extra virtual
        seconds, delivered through the event queue).  RPC traffic is
        *not* hooked: synchronous invocations already have first-class
        failure modes (faults and disconnections); the hook models the
        lossy-asynchronous-messaging dimension on top.
        """
        self.message_hook = hook

    def notify(self, source_id: str, target_id: str, message: object) -> bool:
        """One-way message; returns False when the target is unreachable.

        Message kinds are recorded under their lowercase protocol names
        (``messages.abort``, ``messages.disconnect_notice``, …) — the
        same scheme :meth:`rpc` uses for ``messages.invoke``/``result``.

        With a message hook installed, a notification may be dropped
        (``True`` is *not* returned: the sender learns nothing was
        delivered, as with a dead target) or delayed — then ``True`` is
        returned optimistically (fire-and-forget semantics) and the
        delivery re-checks both endpoints' liveness when it fires.
        """
        self.metrics.record_message(message_kind(message))
        self.clock.advance(self.hop_latency)
        if self.message_hook is not None:
            verdict = self.message_hook(source_id, target_id, message)
            if verdict == "drop":
                self.metrics.incr("messages_chaos_dropped")
                self.metrics.incr("messages_dropped")
                return False
            if isinstance(verdict, (int, float)) and not isinstance(verdict, bool) \
                    and verdict > 0:
                self.metrics.incr("messages_chaos_delayed")
                self.events.schedule(
                    float(verdict),
                    lambda: self._deliver_notify(source_id, target_id, message),
                )
                return True
        return self._deliver_notify(source_id, target_id, message)

    def _deliver_notify(self, source_id: str, target_id: str, message: object) -> bool:
        """Final delivery step (shared by immediate and delayed paths)."""
        peer = self._peers.get(target_id)
        if peer is None or peer.disconnected:
            self.metrics.incr("messages_dropped")
            return False
        if source_id in self._peers and self._peers[source_id].disconnected:
            # A dead peer sends nothing.
            self.metrics.incr("messages_dropped")
            return False
        peer.on_notify(message)
        return True

    def ping(self, source_id: str, target_id: str) -> bool:
        """Keep-alive probe (§3.3: "Related P2P research relies on ping
        (or keep-alive) messages to detect peer disconnection")."""
        self.metrics.record_message("ping")
        self.metrics.incr("pings")
        self.clock.advance(2 * self.hop_latency)
        alive = self.is_alive(target_id)
        if not alive and target_id in self._peers:
            self.record_detection(target_id, source_id)
        return alive
