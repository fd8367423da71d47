"""Independent brute-force oracles used by the test suite.

These deliberately share no code with the library paths they check:
earliest arrival is a fixpoint relaxation directly over contact
intervals, the clustering optimum enumerates every set partition (by a
plain left-to-right squared distance), the reference k-means is the
vectorised numpy implementation the library's pure-Python one must
reproduce exactly, the reference trace assembly merges each pair's
intervals on their own and sorts with an explicit key, the reference
buffer keeps entries by id and sorts them on every read (it also rejects
a duplicate, which the library's buffer leaves to the engine), and the
reference replay repeats full ascending passes over every open contact
until one moves nothing, with a seen set per node, purging eagerly.
"""

from __future__ import annotations

import random
from itertools import combinations
from types import SimpleNamespace

import numpy as np

from dtn_cluster_sim.clustering import Clustering
from dtn_cluster_sim.routing import BufferEntry, Message
from dtn_cluster_sim.sim_engine import DeliveryRecord, _resolve_groups, build_schedule
from dtn_cluster_sim.trace_model import ContactTrace


def earliest_arrival(events, source: int, t0: float,
                     receivers=None) -> dict[int, float]:
    """Earliest time each node can hold a message available at `source`
    from `t0`, replication allowed on every contact (or, given
    `receivers`, only on contacts whose receiving end is in that set).

    A contact [s, e) of pair (u, v) relays at max(s, arrival_u) provided
    the holder has the message strictly before e (at e the contact is
    already closed).
    """
    arrival = {source: t0}
    changed = True
    while changed:
        changed = False
        for t_start, t_end, a, b in events:
            for u, v in ((a, b), (b, a)):
                if u not in arrival or arrival[u] >= t_end:
                    continue
                if receivers is not None and v not in receivers:
                    continue
                t = max(t_start, arrival[u])
                if t < arrival.get(v, float("inf")):
                    arrival[v] = t
                    changed = True
    return arrival


def _partitions_into(items: list, k: int):
    """All set partitions of `items` into exactly k non-empty blocks."""
    if k == 1:
        yield [list(items)]
        return
    if len(items) == k:
        yield [[x] for x in items]
        return
    if len(items) < k:
        return
    first, rest = items[0], items[1:]
    # first in its own block
    for size in range(0, len(rest) - (k - 1) + 1):
        for chosen in combinations(range(len(rest)), size):
            chosen_set = set(chosen)
            block = [first] + [rest[i] for i in chosen]
            remaining = [rest[i] for i in range(len(rest)) if i not in chosen_set]
            for sub in _partitions_into(remaining, k - 1):
                yield [block] + sub


def squared_distance(p, q) -> float:
    """Sum of componentwise squared differences."""
    return sum((x - y) ** 2 for x, y in zip(p, q, strict=True))


def partition_sse(blocks: list[list[tuple]]) -> float:
    total = 0.0
    for block in blocks:
        n = len(block[0])
        mean = [sum(vec[i] for vec in block) / len(block) for i in range(n)]
        for vec in block:
            total += squared_distance(vec, mean)
    return total


def best_partition_sse(vectors: list[tuple], k: int) -> float:
    """Global optimum of the clustering objective with at most k centroids,
    by exhaustive partition enumeration."""
    best = float("inf")
    for parts in range(1, k + 1):
        for blocks in _partitions_into(list(vectors), parts):
            best = min(best, partition_sse(blocks))
    return best


def numpy_assign(X, centroids):
    """Nearest centroid of every row (the first on ties) and the summed
    distance, on numpy arrays."""
    X, centroids = np.asarray(X, dtype=float), np.asarray(centroids, dtype=float)
    d2 = ((X[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
    assign = d2.argmin(axis=1)
    return assign, float(d2[np.arange(len(X)), assign].sum())


def numpy_means_with_repair(X, assign, centroids, k: int):
    """Cluster means after the empty-cluster repair, on numpy arrays."""
    X, centroids = np.asarray(X, dtype=float), np.asarray(centroids, dtype=float)
    assign = np.array(assign)
    counts = np.bincount(assign, minlength=k)
    empties = np.flatnonzero(counts == 0)
    if empties.size:
        dist_own = ((X - centroids[assign]) ** 2).sum(axis=1)
        for j in empties:
            donors = np.flatnonzero(counts[assign] >= 2)
            pick = donors[int(np.argmax(dist_own[donors]))]
            counts[assign[pick]] -= 1
            assign[pick] = j
            counts[j] += 1
            dist_own[pick] = -1.0
    sums = np.zeros((k, X.shape[1]))
    np.add.at(sums, assign, X)
    counts = np.bincount(assign, minlength=k)
    return assign, sums / counts[:, None]


def numpy_kmeans(points, k: int, seed: int, max_iter: int = 100) -> Clustering:
    """Reference k-means: the same seeded initialisation, empty-cluster
    repair and stopping rule as `clustering.kmeans`, with distances, argmin
    and means computed by numpy (valid inputs only)."""
    ids = sorted(points)
    vectors = [tuple(points[i]) for i in ids]
    distinct = list(dict.fromkeys(vectors))
    chosen = random.Random(seed).sample(range(len(distinct)), k)
    centroids = np.array([distinct[i] for i in chosen], dtype=float)
    X = np.array(vectors, dtype=float)

    assign, err = numpy_assign(X, centroids)
    history = [err]
    iterations = 0
    converged = False
    while not converged and iterations < max_iter:
        iterations += 1
        assign, centroids = numpy_means_with_repair(X, assign, centroids, k)
        new_assign, err = numpy_assign(X, centroids)
        history.append(err)
        converged = bool((new_assign == assign).all())
        assign = new_assign
    if not converged:
        assign, centroids = numpy_means_with_repair(X, assign, centroids, k)
        history.append(float(((X - centroids[assign]) ** 2).sum()))

    return Clustering(
        k=k,
        centroids=tuple(tuple(float(c) for c in row) for row in centroids),
        assignment={node: int(c) for node, c in zip(ids, assign)},
        iterations_used=iterations,
        sse_history=tuple(history),
        converged=converged,
    )


def reference_assemble(raw, duration: float | None = None,
                       node_count: int | None = None) -> ContactTrace:
    """Reference assembly of valid (t_start, t_end, a, b) tuples: contacts
    filed by pair (a < b), each pair's intervals sorted and merged on
    their own (a start at or before the running end extends it), then all
    events sorted. duration and node_count default to the latest end and
    the number of distinct ids; given ones are kept as they are."""
    by_pair: dict[tuple[int, int], list[tuple[float, float]]] = {}
    for t_start, t_end, a, b in raw:
        by_pair.setdefault((min(a, b), max(a, b)), []).append((t_start, t_end))
    events = []
    for (a, b), intervals in by_pair.items():
        intervals.sort()
        start, end = intervals[0]
        for s, e in intervals[1:]:
            if s > end:
                events.append((start, end, a, b))
                start, end = s, e
            elif e > end:
                end = e
        events.append((start, end, a, b))
    events.sort(key=lambda ev: (ev[0], ev[1], ev[2], ev[3]))
    nodes = tuple(sorted({n for pair in by_pair for n in pair}))
    return ContactTrace(
        events=tuple(events),
        duration=float(max((ev[1] for ev in events), default=0.0)
                       if duration is None else duration),
        node_count=len(nodes) if node_count is None else node_count,
        nodes=nodes)


class DuplicateMessage(ValueError):
    pass


class ReferenceBuffer:
    """Reference drop-oldest buffer: entries in a dict by message id,
    sorted on every read, the victim found by min() over all entries.
    Expired copies come back in arrival order. Inserting a message it
    holds raises DuplicateMessage."""

    def __init__(self, capacity: int | None = 50):
        if capacity is not None and capacity < 1:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._entries: dict[int, BufferEntry] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, message_id: int) -> bool:
        return message_id in self._entries

    def insert(self, message: Message, now: float, hops: int = 0) -> list[Message]:
        if message.id in self._entries:
            raise DuplicateMessage(f"message {message.id} already buffered")
        self._entries[message.id] = BufferEntry(now, message.id, hops, message)
        evicted = []
        while self.capacity is not None and len(self._entries) > self.capacity:
            victim = min(self._entries.values())
            del self._entries[victim.message_id]
            evicted.append(victim.message)
        return evicted

    def purge_expired(self, now: float, ttl: float) -> list[Message]:
        dead = [e.message for e in self._entries.values()
                if now - e.message.created_at > ttl]
        for message in dead:
            del self._entries[message.id]
        return dead

    def in_exchange_order(self) -> list[BufferEntry]:
        return sorted(self._entries.values())


def reference_replay(scenario) -> SimpleNamespace:
    """Replay `scenario` by the rules, without a worklist: after each
    message creation and each contact start, exchange on every open
    contact in ascending (a, b) order, and repeat such passes until one
    forwards nothing.

    With a TTL, a buffer is purged before its node creates a message and
    at both ends of every exchange. An exchange offers each end's buffer,
    in exchange order, to the other end, skipping messages the peer has
    seen. Before each offer it stops if the contact's budget is
    spent. The epidemic rule forwards every offer; the cluster rule
    forwards to group members, and a non-member skips the message or, in
    strict mode, closes the contact for the rest of its interval.

    Returns records, first receipts (in receipt order), forwards, drops,
    closes and expired copies: every copy that a purge drops, the last
    purge being one of every buffer at the trace's duration.
    """
    rc = scenario.router
    groups, _, _ = _resolve_groups(scenario)
    schedule = build_schedule(scenario)
    nodes = set(scenario.trace.nodes) | {p.node for p in scenario.profiles}
    buffers = {node: ReferenceBuffer(rc.buffer_capacity) for node in nodes}
    seen: dict[int, set[int]] = {node: set() for node in nodes}

    rng_final = random.Random(scenario.seed + 0x9E3779B1)
    messages = []
    for mid, (t, source, category) in enumerate(schedule):
        group = groups[category]
        final = (rng_final.choice(group)
                 if scenario.schedule.track_final and group else None)
        messages.append(Message(id=mid, source=source, category=category, created_at=t,
                                destination_group=frozenset(group),
                                final_destination=final))

    receipts: list[dict[int, float]] = [{} for _ in messages]
    delivered: dict[int, tuple[int, float, int]] = {}
    tally = {"forwards": 0, "drops": 0, "closes": 0, "expired": 0}
    transfers_left: dict[tuple[int, int], int | None] = {}  # open contacts

    def purge(node: int, t: float):
        tally["expired"] += len(buffers[node].purge_expired(t, rc.ttl))

    def receive(msg: Message, node: int, t: float, hops: int):
        seen[node].add(msg.id)
        receipts[msg.id][node] = t
        if node in msg.destination_group and msg.id not in delivered:
            delivered[msg.id] = (node, t, hops)
        tally["drops"] += len(buffers[node].insert(msg, t, hops))

    def exchange(pair: tuple[int, int], t: float) -> bool:
        moved = False
        if rc.ttl is not None:
            for node in pair:
                purge(node, t)
        a, b = pair
        for carrier, peer in ((a, b), (b, a)):
            for entry in buffers[carrier].in_exchange_order():
                if entry.message_id in seen[peer]:
                    continue
                if transfers_left[pair] == 0:
                    return moved
                msg = entry.message
                if rc.kind == "epidemic" or peer in msg.destination_group:
                    receive(msg, peer, t, entry.hops + 1)
                    tally["forwards"] += 1
                    moved = True
                    if transfers_left[pair] is not None:
                        transfers_left[pair] -= 1
                elif rc.strict:
                    transfers_left[pair] = 0
                    tally["closes"] += 1
                    return moved
        return moved

    def settle(t: float):
        moved = True
        while moved:
            moved = False
            for pair in sorted(transfers_left):
                moved = exchange(pair, t) or moved

    events = [(t_end, 0, (a, b)) for _, t_end, a, b in scenario.trace.events]
    events += [(t_start, 2, (a, b)) for t_start, _, a, b in scenario.trace.events]
    events += [(msg.created_at, 1, msg.id) for msg in messages]
    # at one instant: contacts end, then messages appear, then contacts start
    for t, kind, what in sorted(events):
        if kind == 0:
            del transfers_left[what]
            continue
        if kind == 1:
            msg = messages[what]
            if rc.ttl is not None:
                purge(msg.source, t)
            receive(msg, msg.source, t, 0)
        else:
            transfers_left[what] = rc.max_transfers_per_contact
        settle(t)
    if rc.ttl is not None:
        for node in nodes:
            purge(node, scenario.trace.duration)

    records = []
    for msg in messages:
        receiver, at, hops = delivered.get(msg.id, (None, None, None))
        records.append(DeliveryRecord(
            message_id=msg.id, source=msg.source, category=msg.category,
            created_at=msg.created_at, group_size=len(msg.destination_group),
            group_delivered_at=at, first_receiver=receiver, hops_at_delivery=hops,
            forwards_total=len(receipts[msg.id]) - 1,
            final_destination=msg.final_destination,
            final_delivered_at=receipts[msg.id].get(msg.final_destination)))
    return SimpleNamespace(records=tuple(records), first_receipts=receipts, **tally)
