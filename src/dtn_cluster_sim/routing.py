"""Message model, per-node buffers and forwarding rules.

Forwarding is decided per (carrier, peer, message) triple:

  * the interest-cluster rule hands a message only to members of its
    destination group — in strict mode a non-member peer tears the whole
    contact down instead of just skipping the message;
  * the epidemic rule floods to every peer that lacks the message and is
    the verification upper bound for everything else.

Buffers hold a bounded number of messages and evict the longest-stored
entry first (drop-oldest).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from typing import Collection


class DuplicateMessage(ValueError):
    def __init__(self, message_id: int):
        self.message_id = message_id
        super().__init__(f"message {message_id} already buffered")


class ForwardDecision(Enum):
    FORWARD = "forward"
    SKIP = "skip"
    CLOSE_CONNECTION = "close_connection"
    NOOP = "noop"


@dataclass(frozen=True)
class Message:
    """One unit of dissemination. Copies count their hops from the source;
    the id identifies the logical message across all copies."""

    id: int
    source: int
    category: int
    created_at: float
    destination_group: frozenset[int]
    final_destination: int | None = None
    hop_count: int = 0
    ttl: float | None = None

    def __post_init__(self):
        if self.category < 1:
            raise ValueError("categories are 1-based")
        if (self.final_destination is not None
                and self.final_destination not in self.destination_group):
            raise ValueError("final destination must belong to the group")

    def hand_to(self, peer: int) -> "Message":
        """The copy the peer receives: one more hop."""
        return replace(self, hop_count=self.hop_count + 1)

    def expired(self, now: float) -> bool:
        return self.ttl is not None and now - self.created_at > self.ttl


@dataclass
class BufferEntry:
    message: Message
    received_at: float


class Buffer:
    """Per-node message store with drop-oldest eviction.

    capacity counts messages; None means unlimited. "Oldest" is storage
    age at this node (received_at), ties broken by smaller message id.
    """

    def __init__(self, capacity: int | None = 50):
        if capacity is not None and capacity < 1:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._entries: dict[int, BufferEntry] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, message_id: int) -> bool:
        return message_id in self._entries

    def insert(self, message: Message, now: float) -> list[Message]:
        """Store a copy received at `now`; returns evicted messages in
        eviction order."""
        if message.id in self._entries:
            raise DuplicateMessage(message.id)
        self._entries[message.id] = BufferEntry(message, now)
        evicted = []
        while self.capacity is not None and len(self._entries) > self.capacity:
            victim = min(self._entries.values(),
                         key=lambda e: (e.received_at, e.message.id))
            del self._entries[victim.message.id]
            evicted.append(victim.message)
        return evicted

    def purge_expired(self, now: float) -> list[Message]:
        """Drop entries whose message TTL has lapsed."""
        dead = [e.message for e in self._entries.values() if e.message.expired(now)]
        for message in dead:
            del self._entries[message.id]
        return dead

    def in_exchange_order(self) -> list[BufferEntry]:
        """Entries by ascending received_at, ties by message id."""
        return sorted(self._entries.values(),
                      key=lambda e: (e.received_at, e.message.id))


def interest_cluster_transfer(group: Collection[int], carrier: int, peer: int,
                              message: Message, peer_has_message: bool,
                              strict: bool = False) -> ForwardDecision:
    """Forwarding rule for group-directed dissemination.

    The carrier hands the message to the peer only if the peer belongs to
    the destination group. A non-member peer is skipped, or — in strict
    mode — causes the connection to be closed for the rest of the contact,
    keeping the message with the carrier.
    """
    if peer_has_message:
        return ForwardDecision.NOOP
    if peer in group:
        return ForwardDecision.FORWARD
    if strict:
        return ForwardDecision.CLOSE_CONNECTION
    return ForwardDecision.SKIP


def epidemic_decide(carrier: int, peer: int, message: Message,
                    peer_has_message: bool) -> ForwardDecision:
    """Flooding baseline: forward to any peer that does not hold the message."""
    if peer_has_message or peer == message.source:
        return ForwardDecision.NOOP
    return ForwardDecision.FORWARD
