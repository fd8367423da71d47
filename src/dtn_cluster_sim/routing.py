"""Message model, per-node buffers and forwarding rules.

A forwarding rule sees one message and the peer it might go to, and
answers FORWARD, SKIP or CLOSE_CONNECTION:

  * the interest-cluster rule hands a message only to members of its
    destination group — in strict mode a non-member peer tears the whole
    contact down instead of just skipping the message;
  * the epidemic rule floods to every peer and is the verification upper
    bound for everything else.

The rules never see a peer that already holds or held the message:
duplicate suppression is the engine's, which offers a message only to
peers absent from its receipt log. A buffer does not check for
duplicates. Nor does the non-strict rule see a peer outside the
message's group: the engine leaves out what it would only skip. It
reads a buffer only when the peer needs an id in the buffer's `held`.

A buffer is a log of entries in exchange order: by receipt time, ties by
message id. It holds a bounded number of messages and evicts from the
head of that log, the longest-stored entry first (drop-oldest); evicted
and expired copies come back in exchange order. Every copy of a message
is the same `Message`; what differs between copies, the receipt time and
the hop count, is in the buffer entry that holds it.
"""

from __future__ import annotations

from bisect import insort
from enum import Enum
from typing import NamedTuple


class ForwardDecision(Enum):
    FORWARD = "forward"
    SKIP = "skip"
    CLOSE_CONNECTION = "close_connection"


class _SlotRecord:
    """Value equality and a repr over `__slots__`, for the records the replay
    reads or updates most: a slot read costs half a NamedTuple field read."""

    __slots__ = ()

    def _key(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        return self._key() == other._key() if type(other) is type(self) else NotImplemented

    def __repr__(self) -> str:
        return type(self).__name__ + repr(self._key())


class Message(_SlotRecord):
    """One unit of dissemination, shared by every copy of it and never
    changed. A copy's hop count from the source lives in its buffer entry."""

    __slots__ = ("id", "source", "category", "created_at", "destination_group",
                 "final_destination")

    def __init__(self, id: int, source: int, category: int, created_at: float,
                 destination_group: frozenset[int], final_destination: int | None = None):
        if category < 1:
            raise ValueError("categories are 1-based")
        if final_destination is not None and final_destination not in destination_group:
            raise ValueError("final destination must belong to the group")
        self.id, self.source, self.category = id, source, category
        self.created_at, self.destination_group = created_at, destination_group
        self.final_destination = final_destination

    def __hash__(self) -> int:
        return hash(self._key())


class BufferEntry(NamedTuple):
    """One stored copy. Tuple order is the exchange order: ascending
    received_at, ties by message id, which is unique within a buffer."""

    received_at: float
    message_id: int
    hops: int
    message: Message


class Buffer:
    """Per-node message store with drop-oldest eviction, kept as one log
    in exchange order.

    capacity counts messages; None means unlimited. The oldest entry is
    the head of the log. In a replay receipt times never decrease, so an
    insert lands at the tail, or among the entries of its instant by id.
    `held`, the set of ids in the log, lets an offer be tested without
    reading the log; insert, eviction and purge keep it in step.
    """

    def __init__(self, capacity: int | None = 50):
        if capacity is not None and capacity < 1:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._log: list[BufferEntry] = []
        self.held: set[int] = set()   # the message ids in the log

    def insert(self, message: Message, now: float, hops: int = 0) -> list[Message]:
        """Store a copy received at `now`, `hops` hops from its source;
        returns the evicted messages: the head of a full log, or none. The
        buffer does not check that it holds no other copy of the message."""
        insort(self._log, BufferEntry(now, message.id, hops, message))
        self.held.add(message.id)
        if self.capacity is None or len(self._log) <= self.capacity:
            return []
        evicted = self._log.pop(0)   # the log was full, so one entry goes
        self.held.remove(evicted.message_id)
        return [evicted.message]

    def purge_expired(self, now: float, ttl: float) -> list[Message]:
        """Drop entries whose message was created more than `ttl` before
        `now`; returns them in exchange order."""
        dead = [entry.message for entry in self._log
                if now - entry.message.created_at > ttl]
        if dead:
            self._log = [entry for entry in self._log
                         if now - entry.message.created_at <= ttl]
            self.held.difference_update(message.id for message in dead)
        return dead

    def in_exchange_order(self) -> list[BufferEntry]:
        """A copy of the log: entries in exchange order, the natural order
        of BufferEntry."""
        return self._log.copy()


def interest_cluster_transfer(message: Message, peer: int,
                              strict: bool = False) -> ForwardDecision:
    """Forwarding rule for group-directed dissemination.

    The carrier hands the message to the peer only if the peer belongs to
    the message's destination group. A non-member peer is skipped, or — in
    strict mode — causes the connection to be closed for the rest of the
    contact, keeping the message with the carrier.
    """
    if peer in message.destination_group:
        return ForwardDecision.FORWARD
    if strict:
        return ForwardDecision.CLOSE_CONNECTION
    return ForwardDecision.SKIP


def epidemic_decide(message: Message, peer: int) -> ForwardDecision:
    """Flooding baseline: forward to every peer offered. The engine offers
    a message only to peers that never held it, so never to its source."""
    return ForwardDecision.FORWARD
