"""Active-peer chains (§3.3).

"A more efficient solution can be achieved if AP3 passes the list of
active peers [AP1* → AP2 → [AP3 → AP6] || [AP4 → AP5]] also while
invoking the service S6 of AP6."

The chain is the invocation tree of one transaction, piggybacked on
every invocation so that *any* peer detecting a disconnection can route
around it: children find their grandparent or the closest super peer,
parents find the orphaned descendants, siblings find everybody.

A peer appears at most once in a transaction's tree, so the tree is
kept as peer-keyed maps: ``_parent`` (peer → parent, ``None`` for the
root), ``_children`` (peer → children in invocation order) and the set
``_super`` of super peers.  Relations are dict lookups (ancestors
follow ``_parent``); only :meth:`PeerChain.peers`,
:meth:`PeerChain.descendants_of` and :meth:`PeerChain.to_text` walk
``_children``, in preorder.

The chain travels as a structure: the sender piggybacks a
:meth:`PeerChain.copy` snapshot on each invocation and result, and a
receiver that keeps the carried chain copies it again, so no two peers
ever share the maps.  :meth:`PeerChain.to_text` renders the paper's
bracket notation (we write ``->`` for the arrow, super peers carry the
``*`` suffix) for display and size accounting; nothing parses it back.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from repro.errors import P2PError


class PeerChain:
    """The active-peer list of one transaction."""

    def __init__(self, root_peer: str, root_super: bool = False):
        self.root = root_peer
        self._parent: Dict[str, Optional[str]] = {root_peer: None}
        self._children: Dict[str, List[str]] = {root_peer: []}
        self._super: Set[str] = {root_peer} if root_super else set()

    # -- construction -----------------------------------------------------

    def add_invocation(
        self, parent_peer: str, child_peer: str, child_super: bool = False
    ) -> None:
        """Record that *parent_peer* invoked a service on *child_peer*."""
        if parent_peer not in self._parent:
            raise P2PError(f"peer {parent_peer!r} is not in the chain")
        if child_peer in self._parent:
            raise P2PError(f"peer {child_peer!r} is already in the chain")
        self._parent[child_peer] = parent_peer
        self._children[child_peer] = []
        self._children[parent_peer].append(child_peer)
        if child_super:
            self._super.add(child_peer)

    # -- lookup --------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._parent)

    def contains(self, peer_id: str) -> bool:
        return peer_id in self._parent

    def is_super(self, peer_id: str) -> bool:
        return peer_id in self._super

    def parent_of(self, peer_id: str) -> Optional[str]:
        return self._parent.get(peer_id)

    def children_of(self, peer_id: str) -> List[str]:
        return list(self._children.get(peer_id, ()))

    def siblings_of(self, peer_id: str) -> List[str]:
        """Other children of the same parent (§3.3d's data-passing peers)."""
        parent = self._parent.get(peer_id)
        if parent is None:
            return []
        return [c for c in self._children[parent] if c != peer_id]

    def descendants_of(self, peer_id: str) -> List[str]:
        if peer_id not in self._children:
            return []
        return self._preorder(peer_id)[1:]

    def ancestors_of(self, peer_id: str) -> List[str]:
        """Ancestors nearest-first — the fallback order of §3.3(b):
        "AP6 can try the next closest peer (AP1) or the closest super
        peer … in the list"."""
        out: List[str] = []
        current = self._parent.get(peer_id)
        while current is not None:
            out.append(current)
            current = self._parent[current]
        return out

    def closest_super_peer(self, peer_id: str) -> Optional[str]:
        """Nearest super-peer ancestor of *peer_id* (or None)."""
        current = self._parent.get(peer_id)
        while current is not None:
            if current in self._super:
                return current
            current = self._parent[current]
        return None

    # -- extended relations (the conclusion's future-work chaining) ---------

    def uncles_of(self, peer_id: str) -> List[str]:
        """Siblings of the peer's parent.

        The paper's conclusion: "Currently, the 'chaining' mechanism is
        restricted to the parent, children and sibling peers.  We are
        exploring the feasibility of extending the same to uncles,
        cousins, etc." — implemented here as an optional scope.
        """
        parent = self._parent.get(peer_id)
        if parent is None:
            return []
        return self.siblings_of(parent)

    def cousins_of(self, peer_id: str) -> List[str]:
        """Children of the peer's uncles."""
        out: List[str] = []
        for uncle in self.uncles_of(peer_id):
            out.extend(self._children[uncle])
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
        return self._preorder(self.root)

    def _preorder(self, peer_id: str) -> List[str]:
        out: List[str] = []
        stack = [peer_id]
        while stack:
            current = stack.pop()
            out.append(current)
            stack.extend(reversed(self._children[current]))
        return out

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
        if old_peer not in self._parent or old_peer == new_peer:
            return False
        parent = self._parent[old_peer]
        children = self._children[old_peer]
        if new_peer not in self._parent:
            self._forget(old_peer)
            self._parent[new_peer] = parent
            self._children[new_peer] = children
            for child in children:
                self._parent[child] = new_peer
            if parent is None:
                self.root = new_peer
            else:
                siblings = self._children[parent]
                siblings[siblings.index(old_peer)] = new_peer
            if super_peer:
                self._super.add(new_peer)
            return True
        if parent is None:
            # The root (origin) cannot be spliced out; leave it alone.
            return False
        self._children[parent].remove(old_peer)
        if old_peer in self.ancestors_of(new_peer):
            # Known defect, pinned by tests/test_p2p_chain.py::
            # test_substitute_keeps_a_replacement_that_sat_below_the_dead_peer:
            # a replacement below the dead peer is dropped together with
            # the dead peer's whole subtree instead of taking its slot.
            for peer in self._preorder(old_peer):
                self._forget(peer)
            return True
        self._children[new_peer].extend(children)
        for child in children:
            self._parent[child] = new_peer
        self._forget(old_peer)
        return True

    def _forget(self, peer_id: str) -> None:
        del self._parent[peer_id]
        del self._children[peer_id]
        self._super.discard(peer_id)

    # -- the paper's notation, snapshots and merging ---------------------------

    def to_text(self) -> str:
        return f"[{self._format(self.root)}]"

    def _format(self, peer_id: str) -> str:
        label = f"{peer_id}*" if peer_id in self._super else peer_id
        children = self._children[peer_id]
        if not children:
            return label
        if len(children) == 1:
            return f"{label} -> {self._format(children[0])}"
        parts = " || ".join(f"[{self._format(c)}]" for c in children)
        return f"{label} -> {parts}"

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
        for parent in pending:
            for child in other._children[parent]:
                pending.append(child)
                if child in self._parent or parent not in self._parent:
                    continue
                self.add_invocation(parent, child, child in other._super)
                added += 1
        return added

    def copy(self) -> "PeerChain":
        """Independent copy of the chain: the snapshot piggybacked on
        every invocation and result."""
        chain = PeerChain.__new__(PeerChain)
        chain.root = self.root
        chain._parent = dict(self._parent)
        chain._children = {peer: list(c) for peer, c in self._children.items()}
        chain._super = set(self._super)
        return chain

    def __repr__(self) -> str:
        return f"PeerChain({self.to_text()})"
