"""Active-peer chains (§3.3).

"A more efficient solution can be achieved if AP3 passes the list of
active peers [AP1* → AP2 → [AP3 → AP6] || [AP4 → AP5]] also while
invoking the service S6 of AP6."

The chain is the invocation tree of one transaction, piggybacked on
every invocation so that *any* peer detecting a disconnection can route
around it: children find their grandparent or the closest super peer,
parents find the orphaned descendants, siblings find everybody.

The chain travels as a structure: the sender piggybacks a
:meth:`PeerChain.copy` snapshot on each invocation and result, and a
receiver that keeps the carried chain copies it again, so no two peers
ever share a node tree.  :meth:`PeerChain.to_text` renders the paper's
bracket notation (we write ``->`` for the arrow, super peers carry the
``*`` suffix) for display and size accounting; nothing parses it back.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, List, Optional

from repro.errors import P2PError


@dataclass
class ChainNode:
    """One peer in the invocation tree."""

    peer_id: str
    super_peer: bool = False
    children: List["ChainNode"] = field(default_factory=list)
    parent: Optional["ChainNode"] = None

    def add_child(self, peer_id: str, super_peer: bool = False) -> "ChainNode":
        child = ChainNode(peer_id, super_peer, parent=self)
        self.children.append(child)
        return child

    def iter(self) -> Iterator["ChainNode"]:
        yield self
        for child in self.children:
            yield from child.iter()

    @property
    def label(self) -> str:
        return f"{self.peer_id}*" if self.super_peer else self.peer_id


class PeerChain:
    """The active-peer list of one transaction."""

    def __init__(self, root_peer: str, root_super: bool = False):
        self.root = ChainNode(root_peer, root_super)

    # -- construction -----------------------------------------------------

    def add_invocation(
        self, parent_peer: str, child_peer: str, child_super: bool = False
    ) -> ChainNode:
        """Record that *parent_peer* invoked a service on *child_peer*."""
        parent = self.find(parent_peer)
        if parent is None:
            raise P2PError(f"peer {parent_peer!r} is not in the chain")
        return parent.add_child(child_peer, child_super)

    # -- lookup --------------------------------------------------------------

    def find(self, peer_id: str) -> Optional[ChainNode]:
        for node in self.root.iter():
            if node.peer_id == peer_id:
                return node
        return None

    def contains(self, peer_id: str) -> bool:
        return self.find(peer_id) is not None

    def parent_of(self, peer_id: str) -> Optional[str]:
        node = self.find(peer_id)
        if node is None or node.parent is None:
            return None
        return node.parent.peer_id

    def children_of(self, peer_id: str) -> List[str]:
        node = self.find(peer_id)
        if node is None:
            return []
        return [c.peer_id for c in node.children]

    def siblings_of(self, peer_id: str) -> List[str]:
        """Other children of the same parent (§3.3d's data-passing peers)."""
        node = self.find(peer_id)
        if node is None or node.parent is None:
            return []
        return [c.peer_id for c in node.parent.children if c.peer_id != peer_id]

    def descendants_of(self, peer_id: str) -> List[str]:
        node = self.find(peer_id)
        if node is None:
            return []
        return [n.peer_id for n in node.iter() if n.peer_id != peer_id]

    def ancestors_of(self, peer_id: str) -> List[str]:
        """Ancestors nearest-first — the fallback order of §3.3(b):
        "AP6 can try the next closest peer (AP1) or the closest super
        peer … in the list"."""
        node = self.find(peer_id)
        out: List[str] = []
        if node is None:
            return out
        current = node.parent
        while current is not None:
            out.append(current.peer_id)
            current = current.parent
        return out

    def closest_super_peer(self, peer_id: str) -> Optional[str]:
        """Nearest super-peer ancestor of *peer_id* (or None)."""
        node = self.find(peer_id)
        if node is None:
            return None
        current = node.parent
        while current is not None:
            if current.super_peer:
                return current.peer_id
            current = current.parent
        return None

    # -- extended relations (the conclusion's future-work chaining) ---------

    def uncles_of(self, peer_id: str) -> List[str]:
        """Siblings of the peer's parent.

        The paper's conclusion: "Currently, the 'chaining' mechanism is
        restricted to the parent, children and sibling peers.  We are
        exploring the feasibility of extending the same to uncles,
        cousins, etc." — implemented here as an optional scope.
        """
        node = self.find(peer_id)
        if node is None or node.parent is None:
            return []
        return self.siblings_of(node.parent.peer_id)

    def cousins_of(self, peer_id: str) -> List[str]:
        """Children of the peer's uncles."""
        out: List[str] = []
        for uncle in self.uncles_of(peer_id):
            out.extend(self.children_of(uncle))
        return out

    def relatives_of(self, peer_id: str, scope: str = "immediate") -> List[str]:
        """The peers the disconnection of *peer_id* should be reported to.

        ``immediate`` — parent, children, siblings (the paper's §3.3
        protocol); ``extended`` — additionally the grandparent, uncles
        and cousins (the conclusion's extension).  The dead peer itself
        is never included; duplicates are removed preserving order.
        """
        if scope not in ("immediate", "extended"):
            raise P2PError(f"unknown chain scope {scope!r}")
        candidates: List[str] = []
        parent = self.parent_of(peer_id)
        if parent:
            candidates.append(parent)
        candidates.extend(self.children_of(peer_id))
        candidates.extend(self.siblings_of(peer_id))
        if scope == "extended":
            grandparent = self.parent_of(parent) if parent else None
            if grandparent:
                candidates.append(grandparent)
            candidates.extend(self.uncles_of(peer_id))
            candidates.extend(self.cousins_of(peer_id))
        seen = set()
        out: List[str] = []
        for candidate in candidates:
            if candidate != peer_id and candidate not in seen:
                seen.add(candidate)
                out.append(candidate)
        return out

    def peers(self) -> List[str]:
        return [n.peer_id for n in self.root.iter()]

    # -- failover rewrite (§3.3 around a dead primary) ----------------------

    def substitute(
        self, old_peer: str, new_peer: str, super_peer: bool = False
    ) -> bool:
        """Rewrite the chain around a dead peer: *new_peer* takes over
        *old_peer*'s position (parent edge and all child edges), so the
        tree keeps routing for every descendant of the replaced node —
        including interior §3.3 nodes, not just leaves.

        If *new_peer* already participates in the transaction, the dead
        node is spliced out instead and its children are grafted under
        the existing node.  Returns False when *old_peer* is not in the
        chain (nothing to rewrite).
        """
        node = self.find(old_peer)
        if node is None or old_peer == new_peer:
            return False
        existing = self.find(new_peer)
        if existing is None:
            node.peer_id = new_peer
            node.super_peer = super_peer
            return True
        if node.parent is None:
            # The root (origin) cannot be spliced out; leave it alone.
            return False
        for child in node.children:
            child.parent = existing
            existing.children.append(child)
        node.children = []
        node.parent.children.remove(node)
        node.parent = None
        return True

    # -- the paper's notation, snapshots and merging ---------------------------

    def to_text(self) -> str:
        return f"[{self._format(self.root)}]"

    def _format(self, node: ChainNode) -> str:
        if not node.children:
            return node.label
        if len(node.children) == 1:
            return f"{node.label} -> {self._format(node.children[0])}"
        parts = " || ".join(f"[{self._format(c)}]" for c in node.children)
        return f"{node.label} -> {parts}"

    def merge(self, other: "PeerChain") -> int:
        """Fold *other*'s edges into this chain; returns edges added.

        Used when an invocation returns: the callee's view may contain
        deeper invocations this peer has not seen.  Edges whose parent is
        unknown here are skipped (they will arrive once their own parent
        edge does).
        """
        added = 0
        # Breadth-first so parents are inserted before their children.
        pending = [other.root]
        while pending:
            node = pending.pop(0)
            for child in node.children:
                pending.append(child)
                if self.contains(child.peer_id) or not self.contains(node.peer_id):
                    continue
                self.add_invocation(node.peer_id, child.peer_id, child.super_peer)
                added += 1
        return added

    def copy(self) -> "PeerChain":
        """Independent deep copy of the chain: the snapshot piggybacked
        on every invocation and result."""
        chain = PeerChain.__new__(PeerChain)
        chain.root = _copy_chain_node(self.root, None)
        return chain

    def __repr__(self) -> str:
        return f"PeerChain({self.to_text()})"


def _copy_chain_node(
    node: ChainNode, parent: Optional[ChainNode]
) -> ChainNode:
    copy = ChainNode(node.peer_id, node.super_peer, parent=parent)
    copy.children = [_copy_chain_node(child, copy) for child in node.children]
    return copy

