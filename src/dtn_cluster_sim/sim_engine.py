"""Deterministic replay of a contact trace under a forwarding rule.

The engine consumes one time-ordered stream of contact starts, contact
ends and message creations. Messages are classified at creation, their
destination group is resolved once per category, and every contact gives
both endpoints the chance to hand over buffered messages. Transfers are
instantaneous, so a message can cross several hops at one instant.

After each contact start or message creation the engine sweeps to a
fixpoint at that instant. It exchanges on the contact that just opened,
or on the open contacts of the creating node, and then on every open
contact of a node that gains a message, until no contact can move one.
A contact whose two ends have gained nothing since its last exchange is
skipped. Such an exchange would forward nothing: the receipt log only
grows, buffers only lose entries between gains, budgets only fall, and
the forwarding rules do not depend on the time.

The receipt log (`SimResult.first_receipts`) is the one record of who
got which message and when. A message is offered only to peers absent
from it, so no node receives a message twice. A record's forward count
and final-destination receipt are read off the log at the end; only
the first group receipt is noted as it happens, with the hop count of
the copy that made it.

Exchanges run in passes over contacts in ascending (a, b) order. A
contact above the one that just forwarded is taken later in the same
pass, one below it in the next pass. That is the order of repeating full
ascending passes until one moves nothing, so order-sensitive outcomes
(evictions, budgets, strict closes, hop counts) are those of such passes.

Everything is a pure function of the Scenario (including its seed): two
runs of the same scenario produce identical results, byte for byte once
serialized.
"""

from __future__ import annotations

import logging
import random
from dataclasses import dataclass, field
from heapq import heappop, heappush

from .clustering import (Clustering, kmeans, points_of, resolve_group_exact,
                         resolve_group_kmeans)
from .routing import (Buffer, ForwardDecision, Message, epidemic_decide,
                      interest_cluster_transfer)
from .trace_model import ContactTrace, InterestProfile, InvalidParams

log = logging.getLogger(__name__)

ROUTER_KINDS = ("cluster", "epidemic")
GROUP_MODES = ("exact", "kmeans")


@dataclass(frozen=True)
class RouterConfig:
    """Forwarding rule plus the group-resolution and buffer settings."""

    kind: str = "cluster"
    mode: str = "exact"
    strict: bool = False
    threshold: float = 0.5
    k_clusters: int | None = None
    buffer_capacity: int | None = 50
    ttl: float | None = None
    max_transfers_per_contact: int | None = None

    def validate(self):
        if self.kind not in ROUTER_KINDS:
            raise InvalidParams("router", f"unknown kind {self.kind!r}")
        if self.mode not in GROUP_MODES:
            raise InvalidParams("mode", f"unknown mode {self.mode!r}")
        if not 0.0 < self.threshold <= 1.0:
            raise InvalidParams("threshold", "must lie in (0, 1]")
        if self.k_clusters is not None and self.k_clusters < 1:
            raise InvalidParams("k_clusters", "must be positive or None")
        if self.buffer_capacity is not None and self.buffer_capacity < 1:
            raise InvalidParams("buffer_capacity", "must be positive or None")
        if self.ttl is not None and self.ttl <= 0:
            raise InvalidParams("ttl", "must be positive or None")


@dataclass(frozen=True)
class ScheduleConfig:
    """When messages appear: either an explicit (time, source, category)
    list or `count` seeded draws (uniform times unless `interval` is set)."""

    count: int = 0
    interval: float | None = None
    explicit: tuple[tuple[float, int, int], ...] | None = None
    track_final: bool = False

    def validate(self):
        if self.count < 0:
            raise InvalidParams("message_count", "must not be negative")
        if self.interval is not None and self.interval <= 0:
            raise InvalidParams("message_interval", "must be positive or None")


@dataclass(frozen=True)
class Scenario:
    trace: ContactTrace
    profiles: tuple[InterestProfile, ...]
    n_categories: int
    router: RouterConfig = RouterConfig()
    schedule: ScheduleConfig = ScheduleConfig()
    seed: int = 0


@dataclass(frozen=True)
class ScheduledCreation:
    id: int
    time: float
    source: int
    category: int


@dataclass
class EventCounts:
    """Run totals. `expired` counts copies purged by TTL when their buffer
    was about to be read; a copy that lapses in a buffer that is never
    read again is not counted."""

    contacts_processed: int = 0
    forwards: int = 0
    drops: int = 0
    expired: int = 0
    closes: int = 0


@dataclass(frozen=True)
class DeliveryRecord:
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


@dataclass
class SimResult:
    records: tuple[DeliveryRecord, ...]
    counts: EventCounts
    clustering: Clustering | None
    groups_by_category: dict[int, tuple[int, ...]]
    group_fallbacks: dict[int, bool]
    first_receipts: dict[int, dict[int, float]]
    all_nodes: int
    k_effective: int | None
    scenario: Scenario = field(repr=False)


def _scenario_nodes(scenario: Scenario) -> list[int]:
    return sorted(set(scenario.trace.nodes()) | {p.node for p in scenario.profiles})


def build_schedule(scenario: Scenario) -> list[ScheduledCreation]:
    """Fix every message's creation time, source and category.

    Explicit entries are taken as given (ids in list order); generated
    schedules draw sources uniformly from profile-bearing nodes and
    categories uniformly over [1, n], all from a generator seeded with the
    scenario seed.
    """
    duration = scenario.trace.duration
    n = scenario.n_categories
    universe = _scenario_nodes(scenario)
    cfg = scenario.schedule

    if cfg.explicit is not None:
        out = []
        for i, (t, source, category) in enumerate(cfg.explicit):
            if not 0.0 <= t <= duration:
                raise InvalidParams("schedule", f"creation time {t} outside [0, {duration}]")
            if not 1 <= category <= n:
                raise InvalidParams("schedule", f"category {category} outside [1, {n}]")
            if source not in universe:
                raise InvalidParams("schedule", f"unknown source node {source}")
            out.append(ScheduledCreation(id=i, time=float(t), source=source,
                                         category=category))
        return out

    if cfg.count == 0:
        log.warning("empty message schedule: no messages will be created")
        return []

    sources = sorted(p.node for p in scenario.profiles) or universe
    if not sources:
        raise InvalidParams("schedule", "no nodes to create messages at")

    rng = random.Random(scenario.seed)
    if cfg.interval is not None:
        times = [(i + 1) * cfg.interval for i in range(cfg.count)]
        if times and times[-1] > duration:
            raise InvalidParams("schedule",
                                f"interval schedule ends at {times[-1]}, past {duration}")
    else:
        times = sorted(rng.uniform(0.0, duration) for _ in range(cfg.count))
    out = []
    for i, t in enumerate(times):
        source = rng.choice(sources)
        category = rng.randint(1, n)
        out.append(ScheduledCreation(id=i, time=t, source=source, category=category))
    return out


def _resolve_groups(scenario: Scenario):
    """Destination set per category, plus the clustering snapshot when the
    k-means mode is active."""
    n = scenario.n_categories
    rc = scenario.router
    profiles = list(scenario.profiles)
    groups: dict[int, frozenset[int]] = {}
    fallbacks: dict[int, bool] = {}
    clustering = None
    k_effective = None

    if profiles and rc.mode == "kmeans":
        points = points_of(profiles)
        distinct = len(set(points.values()))
        k_requested = rc.k_clusters if rc.k_clusters is not None else n
        # clamp so sparse desk-scale profiles cannot make clustering impossible
        k_effective = min(k_requested, distinct)
        if k_effective != k_requested:
            log.info("k clamped from %d to %d (distinct vectors)", k_requested, k_effective)
        clustering = kmeans(points, k_effective, seed=scenario.seed)
        for cat in range(1, n + 1):
            res = resolve_group_kmeans(clustering, profiles, cat, rc.threshold)
            groups[cat] = frozenset(res.members)
            fallbacks[cat] = res.fallback
    else:
        for cat in range(1, n + 1):
            groups[cat] = frozenset(resolve_group_exact(profiles, cat))
            fallbacks[cat] = False
    return groups, fallbacks, clustering, k_effective


def run(scenario: Scenario) -> SimResult:
    """Replay the trace and return one DeliveryRecord per created message."""
    rc = scenario.router
    rc.validate()
    scenario.schedule.validate()
    n = scenario.n_categories
    if n < 1:
        raise InvalidParams("n_categories", "need at least 1 category")
    for p in scenario.profiles:
        if len(p.interests) != n:
            raise InvalidParams("profiles",
                                f"node {p.node} has arity {len(p.interests)}, "
                                f"scenario expects {n}")

    universe = _scenario_nodes(scenario)
    all_nodes = max(scenario.trace.node_count, len(universe))
    groups, fallbacks, clustering, k_effective = _resolve_groups(scenario)
    schedule = build_schedule(scenario)

    rng_final = random.Random(scenario.seed + 0x9E3779B1)
    messages: dict[int, Message] = {}
    for sc in schedule:
        group = groups[sc.category]
        final = None
        if scenario.schedule.track_final and group:
            final = rng_final.choice(sorted(group))
        messages[sc.id] = Message(id=sc.id, source=sc.source, category=sc.category,
                                  created_at=sc.time, destination_group=group,
                                  final_destination=final)

    buffers = {node: Buffer(rc.buffer_capacity) for node in universe}
    first_receipts: dict[int, dict[int, float]] = {sc.id: {} for sc in schedule}
    # (first receiver, time, hops) of each message's first group receipt
    delivered: dict[int, tuple[int, float, int]] = {}
    counts = EventCounts()
    incident: dict[int, set[tuple[int, int]]] = {node: set() for node in universe}
    # transfers left on an open contact; 0 once spent or closed in strict mode
    budget: dict[tuple[int, int], int] = {}
    # tick of each node's latest gain and of each open pair's latest exchange
    tick = 0
    gained: dict[int, int] = dict.fromkeys(universe, 0)
    exchanged: dict[tuple[int, int], int] = {}

    def purge(node: int, t: float):
        if rc.ttl is not None:
            counts.expired += len(buffers[node].purge_expired(t, rc.ttl))

    def note_receipt(msg: Message, node: int, t: float):
        nonlocal tick
        tick += 1
        gained[node] = tick
        first_receipts[msg.id][node] = t
        if node in msg.destination_group and msg.id not in delivered:
            delivered[msg.id] = (node, t, msg.hop_count)

    def exchange(a: int, b: int, t: float) -> int:
        """Both directions of one contact; returns accepted transfers."""
        pair = (a, b)
        forwards_here = 0
        purge(a, t)
        purge(b, t)
        for carrier, peer in ((a, b), (b, a)):
            for entry in buffers[carrier].in_exchange_order():
                msg = entry.message
                if peer in first_receipts[msg.id]:
                    continue
                if budget.get(pair, 1) <= 0:
                    return forwards_here
                if rc.kind == "epidemic":
                    decision = epidemic_decide(msg, peer)
                else:
                    decision = interest_cluster_transfer(msg, peer, rc.strict)
                if decision is ForwardDecision.FORWARD:
                    copy = msg.hand_to()
                    note_receipt(copy, peer, t)
                    counts.drops += len(buffers[peer].insert(copy, t))
                    counts.forwards += 1
                    forwards_here += 1
                    if pair in budget:
                        budget[pair] -= 1
                elif decision is ForwardDecision.CLOSE_CONNECTION:
                    budget[pair] = 0
                    counts.closes += 1
                    return forwards_here
        return forwards_here

    def sweep(t: float, pairs):
        """Exchange on `pairs`, and on the open contacts of every node that
        gains a message meanwhile, until no contact can move one. The skip
        rule and the pass order are those of the module docstring; a pair
        pushed twice is skipped the second time by the same rule."""
        heap = sorted(pairs)
        while heap:
            next_pass = set()
            while heap:
                pair = heappop(heap)
                a, b = pair
                if (budget.get(pair, 1) <= 0
                        or exchanged.get(pair, -1) >= max(gained[a], gained[b])):
                    continue
                moved = exchange(a, b, t)
                exchanged[pair] = tick
                if moved:
                    for other in incident[a] | incident[b]:
                        if other > pair:
                            heappush(heap, other)
                        elif other < pair:
                            next_pass.add(other)
            heap = sorted(next_pass)

    events: list[tuple[float, int, tuple[int, ...]]] = []
    for e in scenario.trace.events:
        events.append((e.t_end, 0, (e.a, e.b)))
        events.append((e.t_start, 2, (e.a, e.b)))
    for sc in schedule:
        events.append((sc.time, 1, (sc.id,)))
    events.sort()

    for t, rank, info in events:
        if rank == 0:
            for node in info:
                incident[node].discard(info)
            budget.pop(info, None)
            exchanged.pop(info, None)
        elif rank == 1:
            msg = messages[info[0]]
            purge(msg.source, t)
            note_receipt(msg, msg.source, t)
            counts.drops += len(buffers[msg.source].insert(msg, t))
            sweep(t, incident[msg.source])
        else:
            for node in info:
                incident[node].add(info)
            if rc.max_transfers_per_contact is not None:
                budget[info] = rc.max_transfers_per_contact
            counts.contacts_processed += 1
            sweep(t, (info,))

    records = []
    for mid in sorted(messages):
        m = messages[mid]
        receipts = first_receipts[mid]
        receiver, delivered_at, hops = delivered.get(mid, (None, None, None))
        records.append(DeliveryRecord(
            message_id=mid,
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
        counts=counts,
        clustering=clustering,
        groups_by_category={cat: tuple(sorted(g)) for cat, g in groups.items()},
        group_fallbacks=dict(fallbacks),
        first_receipts=first_receipts,
        all_nodes=all_nodes,
        k_effective=k_effective,
        scenario=scenario,
    )
