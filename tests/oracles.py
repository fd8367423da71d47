"""Independent brute-force oracles used by the test suite.

These deliberately share no code with the library paths they check:
earliest arrival is a fixpoint relaxation directly over contact
intervals, and the clustering optimum enumerates every set partition.
"""

from __future__ import annotations

from itertools import combinations


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
        for ev in events:
            for u, v in ((ev.a, ev.b), (ev.b, ev.a)):
                if u not in arrival or arrival[u] >= ev.t_end:
                    continue
                if receivers is not None and v not in receivers:
                    continue
                t = max(ev.t_start, arrival[u])
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


def partition_sse(blocks: list[list[tuple]]) -> float:
    total = 0.0
    for block in blocks:
        n = len(block[0])
        mean = [sum(vec[i] for vec in block) / len(block) for i in range(n)]
        for vec in block:
            total += sum((vec[i] - mean[i]) ** 2 for i in range(n))
    return total


def best_partition_sse(vectors: list[tuple], k: int) -> float:
    """Global optimum of the clustering objective with at most k centroids,
    by exhaustive partition enumeration."""
    best = float("inf")
    for parts in range(1, k + 1):
        for blocks in _partitions_into(list(vectors), parts):
            best = min(best, partition_sse(blocks))
    return best
