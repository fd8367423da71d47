"""Deterministic replay of a contact trace under a forwarding rule.

A replay's inputs are a checked `scenario.Scenario`; its records are
named here too, for callers that import them with `run`.

The engine consumes one time-ordered stream of contact starts, each
with its contact's end, and message creations. At one instant, contacts
end, then messages appear, then contacts start. Messages are classified
at creation, their destination group is resolved once per category, and
every contact gives both endpoints the chance to hand over buffered
messages. Transfers are instantaneous, so a message can cross several
hops at one instant.

After each contact start or message creation the engine sweeps to a
fixpoint at that instant. It exchanges on the contact that just opened,
or queues the creating node's open contacts; a node that gains a message
queues each of its other open contacts not queued yet. A contact that no
gain has queued since its last exchange would forward nothing: the
receipt log only grows, buffers only lose entries between gains, budgets
only fall, and the rules do not depend on the time. A contact, at its
start or when queued, is exchanged on only if one end holds an id the
other needs, and a queued contact whose budget is spent is passed over;
a buffer takes in ids only through a gain, which queues the contact
again. A budget falls only at a forward, so it is tested after each
forward: the exchange ends at the one that spends it.

The forwarding rule is chosen once per run, with the nodes each category
is offered to. The non-strict cluster rule is offered a category only at
the nodes of its destination group: it would skip any other peer, and a
skip changes nothing. The strict rule and the epidemic rule are offered
every category at every node, since a strict rule closes the contact at
its first non-member. So a rule is asked only where it can refuse: the
strict rule about every offer, while an offer under the epidemic or the
non-strict rule, which would forward it, is forwarded with no call.

Offers use summary vectors (Vahdat and Becker, Duke CS-2000-06):
`need[node]` holds the ids of created messages offered to the node and
absent from the receipt log, and a buffer's `held` the ids in its log.
An exchange walks a direction only when the carrier holds an id the
peer needs.

With a TTL, buffers are purged lazily. `held` may still name lapsed
copies, so a direction that passes the offer test purges its carrier
and tests again, and an insert into a full buffer purges it first. An
unpurged lapsed copy is never read and never evicted, so it changes no
outcome, and the run ends with one purge of every buffer at the trace's
duration. So `EventCounts.expired` counts every copy that lapses by then
while stored, however often its node was visited.

The receipt log (`SimResult.first_receipts`) is the one record of who
got which message and when. A message is offered only to peers absent
from it, so no node receives a message twice, and no buffer holds two
copies of one message (buffers do not check). A record's forward count
and final-destination receipt, and the run's `forwards`, are read off
the log at the end; only the first group receipt is noted as it
happens, with the hop count of the copy that made it. Every copy of a
message is one shared `Message`; a copy's hop count lives in its buffer
entry, and a forward stores the carrier's count plus one.

Exchanges run in passes over contacts in ascending (a, b) order, and
the worklist key is (pass, pair). A contact above the one that just
forwarded is queued with the same pass, one below it with the next pass.
That is the order of repeating full ascending passes until one moves
nothing, so order-sensitive outcomes (evictions, budgets, strict closes,
hop counts) are those of such passes. A contact already queued would be
queued again with the pass it already carries, so it is queued once.

Everything is a pure function of the Scenario (including its seed): two
runs of the same scenario produce identical results, byte for byte once
serialized.
"""

import random
from functools import partial
from heapq import heappop, heappush
from typing import NamedTuple

from .clustering import (Clustering, kmeans, points_of, resolve_group_exact,
                         resolve_group_kmeans)
# both rule names stay for perfbench's tracer, which wraps them; ROADMAP item 4 deletes them
from .routing import (Buffer, ForwardDecision, Message, epidemic_decide,
                      interest_cluster_transfer)
from .scenario import MAX_MESSAGES, RouterConfig, Scenario, ScheduleConfig


class EventCounts(NamedTuple):
    """Run totals, built once when the run ends. `expired` counts the copies
    that lapse while stored, by the trace's duration: created more than the
    TTL before it, and not evicted first (module docstring)."""

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
    clustering: Clustering | None
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


def _resolve_groups(scenario: Scenario):
    """Destination group per category as an ascending tuple of node ids,
    plus the clustering snapshot when the k-means mode is active."""
    n = scenario.n_categories
    rc = scenario.router
    profiles = list(scenario.profiles)
    groups: dict[int, tuple[int, ...]] = {}
    fallbacks: dict[int, bool] = {}
    clustering = None

    if profiles and rc.mode == "kmeans":
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
    # only the strict rule can refuse an offer, so only it is asked (module
    # docstring); bound per run, not at import, so a rule wrapped after import is used
    ask = (partial(interest_cluster_transfer, strict=True)
           if rc.kind == "cluster" and rc.strict else None)
    CLOSE = ForwardDecision.CLOSE_CONNECTION
    # the nodes each category is offered to (module docstring)
    offered_to = (member_sets if rc.kind == "cluster" and not rc.strict
                  else dict.fromkeys(member_sets, universe))
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
        nonlocal expired, closes
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
                if ask is not None and ask(entry.message, peer) is CLOSE:
                    budget[pair] = 0
                    closes += 1
                    return gainers
                receive(entry.message, peer, t, entry.hops + 1)
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

    events = [(t_start, 2, (a, b), t_end) for t_start, t_end, a, b in scenario.trace.events]
    events += [(m.created_at, 1, m.id, None) for m in messages]
    events.sort()

    for t, rank, info, t_end in events:
        if rank == 1:
            msg = messages[info]
            for node in offered_to[msg.category]:
                need[node].add(msg.id)
            receive(msg, msg.source, t, 0)
            sweep(t, None, (msg.source,))
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
