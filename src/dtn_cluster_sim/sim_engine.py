"""Deterministic replay of a contact trace under a forwarding rule, with
the messages, per-node buffers and rules that it replays.

A replay's input is a checked `trace_model.Scenario`. What a user sees of
the replay is in README's "Semantics worth knowing": the transfer rule,
duplicate suppression, drop-oldest buffers, the TTL, same-instant
relaying and the event order. Here are the conditions the code relies on.

The engine consumes one time-ordered stream of contact starts, each with
its contact's end, and message creations: at one instant, contacts end,
then messages appear, then contacts start. After each start or creation
it sweeps to a fixpoint at that instant. It exchanges on the contact that
just opened, or queues the creating node's open contacts; a node that
gains a message queues each of its other open contacts not queued yet. A
contact that no gain has queued since its last exchange would forward
nothing: the receipt log only grows, buffers only lose entries between
gains, budgets only fall, and the rules do not depend on the time. A
queued contact whose budget is spent is passed over. A budget falls only
at a forward, so it is tested after each forward: the exchange ends at
the one that spends it.

Exchanges run in passes over contacts in ascending (a, b) order, and the
worklist key is (pass, pair). A contact above the one that just forwarded
is queued with the same pass, one below it with the next pass. That is
the order of repeating full ascending passes until one moves nothing, so
order-sensitive outcomes (evictions, budgets, strict closes, hop counts)
are those of such passes. A contact already queued would be queued again
with the pass it already carries, so it is queued once.

The rule is chosen once per run, with the nodes each category is offered
to: under the non-strict cluster rule the nodes of its destination group,
since it would skip any other peer and a skip changes nothing; under the
strict and epidemic rules every node, since a strict rule closes the
contact at its first non-member. Only the strict rule can refuse, so only
it is asked, about every offer; any other offer is forwarded unasked.

Offers use summary vectors (Vahdat and Becker, Duke CS-2000-06):
`need[node]` holds the ids of created messages offered to the node and
absent from the receipt log, and a buffer's `held` the ids in its log. A
contact, at its start or when queued, is exchanged on only if one end
holds an id the other needs, and an exchange walks a direction only when
its carrier does; a buffer takes in ids only through a gain, which
queues the contact again. `need` grows only at creations, so the replay
stops once none is left and every `need` is empty: no exchange can follow.

With a TTL, buffers are purged lazily. `held` may still name lapsed
copies, so a direction that passes the offer test purges its carrier and
tests again, and an insert into a full buffer purges it first. An
unpurged lapsed copy is never read and never evicted, so it changes no
outcome, and one purge of every buffer at the trace's duration ends the
run, however rarely a node was visited.

The receipt log (`SimResult.first_receipts`) is the one record of who got
which message and when. A message is offered only to peers absent from
it, so no node receives a message twice, and no buffer is given a second
copy of one. A record's forward count and final-destination receipt, and
the run's `forwards`, are read off the log at the end; only the first
group receipt is noted as it happens, with the hop count of the copy that
made it.
"""

import random
from bisect import insort
from enum import Enum
from heapq import heappop, heappush
from typing import Iterable, NamedTuple

from . import __getattr__, _bind   # k-means loads from `clustering` on first use
from .trace_model import InterestProfile, RouterConfig, Scenario


class ForwardDecision(Enum):
    FORWARD = "forward"
    SKIP = "skip"
    CLOSE_CONNECTION = "close_connection"


class Message:
    """One unit of dissemination, shared by every copy of it and never
    changed, so it compares by identity. A copy's hop count from the source
    lives in its buffer entry."""

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

    def __repr__(self) -> str:
        return "Message" + repr(tuple(getattr(self, name) for name in self.__slots__))


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
        # one entry per forward: a BufferEntry, without NamedTuple's Python-level __new__
        insort(self._log, tuple.__new__(BufferEntry, (now, message.id, hops, message)))
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


# both rule functions stay for perfbench's tracer, which wraps them; ROADMAP item 4 deletes them
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
    a message only to peers that never held it, so never to its source,
    and forwards each offer without asking this rule."""
    return ForwardDecision.FORWARD


class EventCounts(NamedTuple):
    """Run totals, built once when the run ends. `contacts_processed` is
    the trace's contact count, contacts after the replay stops included.
    `expired` counts the copies that lapse while stored, by the trace's
    duration: created more than the TTL before it, not evicted first."""

    contacts_processed: int = 0
    forwards: int = 0
    drops: int = 0
    expired: int = 0
    closes: int = 0


class DeliveryRecord(NamedTuple):
    """Per-message outcome; optional fields stay None when the event
    never happened."""

    message_id: int
    source: int
    category: int
    created_at: float
    group_size: int
    group_delivered_at: float | None
    first_receiver: int | None
    hops_at_delivery: int | None
    forwards_total: int
    final_destination: int | None = None
    final_delivered_at: float | None = None


class SimResult(NamedTuple):
    records: tuple[DeliveryRecord, ...]
    counts: EventCounts
    clustering: tuple | None   # a clustering.Clustering in k-means mode
    groups_by_category: dict[int, tuple[int, ...]]
    group_fallbacks: dict[int, bool]
    first_receipts: dict[int, dict[int, float]]
    all_nodes: int
    router: RouterConfig   # the settings of the scenario that metrics report
    n_categories: int
    seed: int


def build_schedule(scenario: Scenario) -> list[tuple[float, int, int]]:
    """Fix every message's creation as a `(time, source, category)` triple;
    a message's id is its position in the list.

    Explicit entries are taken as given; generated schedules draw sources
    uniformly from profile-bearing nodes (the trace's nodes if there are
    none) and categories uniformly over [1, n], all from a generator seeded
    with the scenario seed. The scenario checked its schedule when it was
    built, so this raises nothing.
    """
    cfg = scenario.schedule
    if cfg.explicit is not None:
        return [(float(t), source, category) for t, source, category in cfg.explicit]

    if cfg.count == 0:
        import logging   # here, so that starting the CLI does not load it
        logging.getLogger(__name__).warning(
            "empty message schedule: no messages will be created")
        return []

    sources = sorted(p.node for p in scenario.profiles) or scenario.trace.nodes
    rng = random.Random(scenario.seed)
    if cfg.interval is not None:
        times = [(i + 1) * cfg.interval for i in range(cfg.count)]
    else:
        times = sorted(rng.uniform(0.0, scenario.trace.duration) for _ in range(cfg.count))
    # source before category: the draw order is part of the seeded schedule
    return [(t, rng.choice(sources), rng.randint(1, scenario.n_categories)) for t in times]


def _category_index(category: int, n: int) -> int:
    if not 1 <= category <= n:
        raise ValueError(f"category {category} outside [1, {n}]")
    return category - 1


def resolve_group_exact(profiles: Iterable[InterestProfile],
                        category: int) -> list[int]:
    """Node ids whose interest bit for `category` (1-based) is set, ascending."""
    profiles = list(profiles)
    if not profiles:
        return []
    idx = _category_index(category, len(profiles[0].interests))
    return sorted(p.node for p in profiles if p.interests[idx] == 1)


def _resolve_groups(scenario: Scenario):
    """Destination group per category as an ascending tuple of node ids,
    plus the clustering snapshot when the k-means mode is active."""
    n = scenario.n_categories
    rc = scenario.router
    profiles = list(scenario.profiles)
    groups: dict[int, tuple[int, ...]] = {}
    fallbacks: dict[int, bool] = {}
    clustering = None

    if rc.mode == "kmeans":
        _bind(globals(), "kmeans", "points_of", "resolve_group_kmeans")
        points = points_of(profiles)
        distinct = len(set(points.values()))
        # clamp so sparse desk-scale profiles cannot make clustering
        # impossible; summary.csv reports the k used
        k = min(rc.k_clusters if rc.k_clusters is not None else n, distinct)
        clustering = kmeans(points, k, seed=scenario.seed)
        for cat in range(1, n + 1):
            res = resolve_group_kmeans(clustering, profiles, cat, rc.threshold)
            groups[cat] = res.members
            fallbacks[cat] = res.fallback
    else:
        for cat in range(1, n + 1):
            groups[cat] = tuple(resolve_group_exact(profiles, cat))
            fallbacks[cat] = False
    return groups, fallbacks, clustering


def run(scenario: Scenario) -> SimResult:
    """Replay the trace and return one DeliveryRecord per created message."""
    rc = scenario.router
    universe = sorted(set(scenario.trace.nodes) | {p.node for p in scenario.profiles})
    all_nodes = max(scenario.trace.node_count, len(universe))
    groups, fallbacks, clustering = _resolve_groups(scenario)
    schedule = build_schedule(scenario)

    rng_final = random.Random(scenario.seed + 0x9E3779B1)
    member_sets = {cat: frozenset(group) for cat, group in groups.items()}
    messages: list[Message] = []
    for mid, (t, source, category) in enumerate(schedule):
        group = groups[category]
        final = None
        if scenario.schedule.track_final and group:
            final = rng_final.choice(group)
        messages.append(Message(id=mid, source=source, category=category, created_at=t,
                                destination_group=member_sets[category],
                                final_destination=final))

    buffers = {node: Buffer(rc.buffer_capacity) for node in universe}
    first_receipts: dict[int, dict[int, float]] = {m.id: {} for m in messages}
    # (first receiver, time, hops) of each message's first group receipt
    delivered: dict[int, tuple[int, float, int]] = {}
    drops = expired = closes = 0   # totals for EventCounts
    # pair -> end of its latest contact, open while t < end; a sweep drops ended ones
    incident: dict[int, dict[tuple[int, int], float]] = {node: {} for node in universe}
    # transfers left on a pair's latest contact; 0 once spent or closed in strict mode
    budget: dict[tuple[int, int], int] = {}
    cap = rc.max_transfers_per_contact
    strict = rc.strict   # only the strict rule can refuse, so only it is asked
    # the nodes each category is offered to (module docstring)
    offered_to = (dict.fromkeys(member_sets, universe) if strict or rc.kind == "epidemic"
                  else member_sets)
    # the ids each node is offered and has not received (summary vectors)
    need: dict[int, set[int]] = {node: set() for node in universe}

    ttl = rc.ttl

    def receive(msg: Message, node: int, t: float, hops: int):
        nonlocal drops, expired
        first_receipts[msg.id][node] = t
        need[node].discard(msg.id)
        if node in msg.destination_group and msg.id not in delivered:
            delivered[msg.id] = (node, t, hops)
        buffer = buffers[node]
        # only a full buffer evicts, and it evicts from what a purge leaves
        if ttl is not None and len(buffer.held) == buffer.capacity:
            expired += len(buffer.purge_expired(t, ttl))
        drops += len(buffer.insert(msg, t, hops))

    def exchange(a: int, b: int, t: float) -> set[int]:
        """Both directions of one contact; returns the ends that gained."""
        nonlocal expired, closes, outstanding
        pair = (a, b)
        gainers = set()
        for carrier, peer in ((a, b), (b, a)):
            needed = need[peer]
            buffer = buffers[carrier]
            if needed.isdisjoint(buffer.held):
                continue
            if ttl is not None:
                expired += len(buffer.purge_expired(t, ttl))
                if needed.isdisjoint(buffer.held):
                    continue
            for entry in buffer.in_exchange_order():
                if entry.message_id not in needed:
                    continue
                if strict and interest_cluster_transfer(
                        entry.message, peer, strict=True) is ForwardDecision.CLOSE_CONNECTION:
                    budget[pair] = 0
                    closes += 1
                    return gainers
                receive(entry.message, peer, t, entry.hops + 1)
                outstanding -= 1
                gainers.add(peer)
                if pair in budget:
                    budget[pair] -= 1
                    if not budget[pair]:
                        return gainers
        return gainers

    def sweep(t: float, pair, gainers):
        """Exchange on the other open contacts of each node in `gainers`,
        which gained at `pair` (None at a creation), and on those each later
        gain queues; the queue rule and pass order are the module docstring's."""
        heap, queued, ended, sweep_pass = [], set(), [], 0
        while True:
            for gainer in gainers:
                contacts = incident[gainer]
                for other, end in contacts.items():
                    if end <= t:
                        ended.append((contacts, other))
                    elif other != pair and other not in queued:
                        queued.add(other)
                        heappush(heap, (sweep_pass if pair is None or other > pair
                                        else sweep_pass + 1, other))
            if not heap:
                for contacts, other in ended:
                    contacts.pop(other, None)
                return
            sweep_pass, pair = heappop(heap)
            queued.discard(pair)
            a, b = pair
            gainers = ()
            if budget.get(pair, 1) > 0 and not (need[b].isdisjoint(buffers[a].held)
                                                and need[a].isdisjoint(buffers[b].held)):
                gainers = exchange(a, b, t)

    # creations left, and offers not yet received: the sum of len(need[node])
    pending, outstanding = len(messages), 0
    events = [(m.created_at, 1, m.id, None) for m in messages]
    if messages:   # with no message, no contact can forward anything
        events += [(t_start, 2, (a, b), t_end) for t_start, t_end, a, b in scenario.trace.events]
    events.sort()

    for t, rank, info, t_end in events:
        if rank == 1:
            msg = messages[info]
            for node in offered_to[msg.category]:
                need[node].add(msg.id)
            # the source's own offer, if it has one, is met by the creation
            outstanding += len(offered_to[msg.category]) - (msg.id in need[msg.source])
            pending -= 1
            receive(msg, msg.source, t, 0)
            sweep(t, None, (msg.source,))
            if not (pending or outstanding):
                break
        else:
            a, b = info
            incident[a][info] = incident[b][info] = t_end
            # a fresh budget, and no strict close left by the pair's last contact
            if cap is not None:
                budget[info] = cap
            else:
                budget.pop(info, None)
            held_a, held_b = buffers[a].held, buffers[b].held
            # neither end holds an id the other needs: a gain queues it later
            if (held_a or held_b) and not (need[b].isdisjoint(held_a)
                                           and need[a].isdisjoint(held_b)):
                gainers = exchange(a, b, t)
                if gainers:
                    sweep(t, info, gainers)
                    if not (pending or outstanding):
                        break

    if ttl is not None:
        for buffer in buffers.values():
            expired += len(buffer.purge_expired(scenario.trace.duration, ttl))

    records = []
    for m in messages:
        receipts = first_receipts[m.id]
        receiver, delivered_at, hops = delivered.get(m.id, (None, None, None))
        records.append(DeliveryRecord(
            message_id=m.id,
            source=m.source,
            category=m.category,
            created_at=m.created_at,
            group_size=len(m.destination_group),
            group_delivered_at=delivered_at,
            first_receiver=receiver,
            hops_at_delivery=hops,
            forwards_total=len(receipts) - 1,
            final_destination=m.final_destination,
            final_delivered_at=receipts.get(m.final_destination),
        ))

    return SimResult(
        records=tuple(records),
        counts=EventCounts(contacts_processed=len(scenario.trace.events),
                           forwards=sum(r.forwards_total for r in records),
                           drops=drops, expired=expired, closes=closes),
        clustering=clustering,
        groups_by_category=groups,
        group_fallbacks=fallbacks,
        first_receipts=first_receipts,
        all_nodes=all_nodes,
        router=rc,
        n_categories=scenario.n_categories,
        seed=scenario.seed,
    )
