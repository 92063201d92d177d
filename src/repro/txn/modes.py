"""Typed durability and rejoin knobs.

:class:`DurabilityPolicy` carries every knob of a peer's on-disk WAL:
the directory, group-commit batching (``wal_batch``,
``flush_interval``, ``flush_on_prepare``) and checkpointing
(``checkpoint_every``) — see ``docs/DURABILITY.md``.
``AXMLPeer(durability=...)`` also accepts a bare directory path, which
:func:`coerce_durability` turns into a policy with default knobs.
:class:`RejoinMode` names what :meth:`AXMLPeer.rejoin` does with
recovered shares; its string values are accepted too.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional, Union


class RejoinMode(enum.Enum):
    """What :meth:`AXMLPeer.rejoin` does with recovered shares."""

    #: Compensate every recovered share immediately (the caller knows
    #: the rest of the system already aborted around the dead peer).
    COMPENSATE = "compensate"
    #: Rebuild an ``ACTIVE`` in-doubt context per recovered transaction
    #: and wait for ``resolve_in_doubt`` — required after a crash.
    IN_DOUBT = "in_doubt"

    @classmethod
    def coerce(cls, value: Union["RejoinMode", str]) -> "RejoinMode":
        """Accept the enum or its string value; unknown strings raise
        the same ``ValueError`` the stringly API raised."""
        if isinstance(value, cls):
            return value
        try:
            return cls(value)
        except ValueError:
            raise ValueError(f"unknown rejoin mode {value!r}") from None


@dataclass(frozen=True)
class DurabilityPolicy:
    """Every knob of a peer's durable WAL, in one frozen value.

    The defaults reproduce PR 5's write path exactly: one physical
    flush per frame (``wal_batch=1``), no flush timer, no checkpoints —
    so a policy built from a bare directory string changes nothing.
    """

    directory: str = ""
    #: Frames buffered per group-commit batch; 1 = flush every frame.
    wal_batch: int = 1
    #: Virtual-time flush quantum for a partially-filled batch (needs
    #: an event queue; ``None`` = no timer, barriers/batch-size only).
    flush_interval: Optional[float] = 0.05
    #: Barrier-flush before protocol-critical message sends (share
    #: hand-off, invocation requests) so a durable entry can never be
    #: deferred past a message another peer acts on.
    flush_on_prepare: bool = True
    #: Take a checkpoint every N appended entries; 0 disables.
    checkpoint_every: int = 0
    #: Segment rollover threshold (ignored while checkpointing is on —
    #: checkpoints subsume rollover compaction).
    segment_max_frames: int = 256

    def __post_init__(self) -> None:
        if self.wal_batch < 1:
            raise ValueError("wal_batch must be >= 1")
        if self.checkpoint_every < 0:
            raise ValueError("checkpoint_every must be >= 0")
        if self.flush_interval is not None and self.flush_interval <= 0:
            raise ValueError("flush_interval must be positive (or None)")


def coerce_durability(
    value: Union[None, str, DurabilityPolicy]
) -> Optional[DurabilityPolicy]:
    """The ``AXMLPeer(durability=...)`` coercion: ``None`` stays None
    (memory-only), a bare string is a WAL directory with default knobs,
    a :class:`DurabilityPolicy` passes through."""
    if value is None:
        return None
    if isinstance(value, DurabilityPolicy):
        return value if value.directory else None
    if isinstance(value, str):
        return DurabilityPolicy(directory=value) if value else None
    raise TypeError(
        f"durability must be None, a directory path or a DurabilityPolicy, "
        f"not {type(value).__name__}"
    )
