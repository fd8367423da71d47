"""Interest-group formation by seeded k-means over the binary interest
vectors, in plain Python, with README's tie-break rule; only a k-means run
loads it, and its groups fall back to `sim_engine`'s exact filter.

Floats would round a distance by the order of their sums, so an exact tie
could break either way, by interpreter and platform. k-means compares
distances exactly, as rationals (see `_assign`), so that a tie is a tie
everywhere and the rule decides it."""

import random
from math import lcm
from operator import add, mul, sub
from typing import Iterable, Mapping, NamedTuple, Sequence

from .sim_engine import _category_index, resolve_group_exact
from .trace_model import InterestProfile

InterestVector = tuple[int, ...]
Centroid = tuple[float, ...]


class Clustering(NamedTuple):
    """Result of one k-means run: centroids, node assignments and the
    objective value recorded at every iteration."""

    k: int
    centroids: tuple[Centroid, ...]
    assignment: dict[int, int]
    iterations_used: int
    sse_history: tuple[float, ...]
    converged: bool

    def members(self, cluster: int) -> list[int]:
        return sorted(n for n, c in self.assignment.items() if c == cluster)


def _assign(ones: list[list[int]], row_of: list[int], sums: list[list[int]],
            counts: list[int]) -> tuple[list[int], list[int], float]:
    """Nearest centroid of every point, its distance to it, and the summed
    distance rounded once to a float.

    Each distinct binary row is solved once; `row_of` maps points to rows
    and `ones` lists each row's set bits. Centroid j is the integer column
    sums s over m members, and the squared distance of a row x from it is
    exactly (m^2 |x| - 2m sum_{i in x} s_i + |s|^2) / m^2. Scaled by L, the
    least common multiple of every m^2, each distance is an integer:
    L|x| - (2L/m) sum_{i in x} s_i + (L/m^2) |s|^2. So distances compare
    exactly, and min() and index() give a tie to the lowest index.
    """
    scale = lcm(*[m * m for m in counts])
    base = [scale // (m * m) * sum(map(mul, s, s)) for s, m in zip(sums, counts)]
    weights = [2 * scale // m for m in counts]
    columns = list(zip(*sums))
    zeros = [0] * len(counts)
    nearest, nearest_d = [], []
    for bits in ones:
        dots = zeros
        for i in bits:
            dots = map(add, dots, columns[i])
        d = list(map(sub, base, map(mul, weights, dots)))
        least = min(d)
        nearest.append(d.index(least))
        nearest_d.append(least + len(bits) * scale)
    dist = [nearest_d[r] for r in row_of]
    return [nearest[r] for r in row_of], dist, sum(dist) / scale


def _means_with_repair(rows: list[InterestVector], row_of: list[int],
                       assign: list[int], dist: list[int],
                       k: int) -> tuple[list[int], list[list[int]], list[int]]:
    """Integer column sums and member counts of every cluster.

    An empty cluster is repaired first by moving into it the point farthest
    from its current centroid (the lowest-indexed on ties), drawn from
    clusters that can spare a member; `dist` holds each point's distance
    from its centroid, on any one scale.
    """
    assign, dist = list(assign), list(dist)
    counts = [0] * k
    for j in assign:
        counts[j] += 1
    for j in [j for j in range(k) if counts[j] == 0]:
        donors = [p for p, own in enumerate(assign) if counts[own] >= 2]
        pick = max(donors, key=dist.__getitem__)
        counts[assign[pick]] -= 1
        assign[pick] = j
        counts[j] += 1
        dist[pick] = -1  # cannot be picked again
    members: list[list[InterestVector]] = [[] for _ in range(k)]
    for r, j in zip(row_of, assign):
        members[j].append(rows[r])
    return assign, [list(map(sum, zip(*group))) for group in members], counts


def kmeans(points: Mapping[int, Sequence[int]], k: int, seed: int,
           max_iter: int = 100) -> Clustering:
    """Cluster binary interest vectors into k groups. No points, vectors of
    unequal length or with a component other than 0 or 1, and fewer
    distinct vectors than k raise ValueError.

    Initial centroids are k distinct vectors sampled without replacement by
    a generator seeded with `seed` (candidates ordered by first appearance
    over ascending node id). Each round recomputes centroids as cluster
    means and reassigns every point to its nearest centroid; the loop stops
    when no assignment changes or after max_iter rounds. The objective
    value after every assignment step lands in sse_history, the exact sum
    rounded once to a float.
    """
    if not points:
        raise ValueError("no points to cluster")
    if k < 1:
        raise ValueError("k must be at least 1")
    if max_iter < 1:
        raise ValueError("max_iter must be at least 1")

    ids = sorted(points)
    vectors = [tuple(points[i]) for i in ids]
    n = len(vectors[0])
    for node, v in zip(ids, vectors):
        if len(v) != n:
            raise ValueError(f"vector length {len(v)}, expected {n}")
        if not all(c in (0, 1) for c in v):
            raise ValueError(f"node {node}: vector components must be 0 or 1")

    rows = list(dict.fromkeys(vectors))
    if k > len(rows):
        raise ValueError(f"k={k} but only {len(rows)} distinct vectors")

    chosen = random.Random(seed).sample(range(len(rows)), k)
    position = {v: r for r, v in enumerate(rows)}
    row_of = [position[v] for v in vectors]
    ones = [[i for i, c in enumerate(row) if c] for row in rows]
    sums, counts = [list(rows[i]) for i in chosen], [1] * k

    assign, dist, err = _assign(ones, row_of, sums, counts)
    history = [err]
    iterations = 0
    converged = False
    while not converged and iterations < max_iter:
        iterations += 1
        assign, sums, counts = _means_with_repair(rows, row_of, assign, dist, k)
        new_assign, dist, err = _assign(ones, row_of, sums, counts)
        history.append(err)
        converged = new_assign == assign
        assign = new_assign
    if not converged:
        # keep the returned centroids consistent with the final assignment;
        # a cluster of m binary rows with column sums s spreads
        # sum_i s_i (m - s_i) / m about its mean
        assign, sums, counts = _means_with_repair(rows, row_of, assign, dist, k)
        scale = lcm(*counts)
        history.append(sum(scale // m * sum(c * (m - c) for c in s)
                           for s, m in zip(sums, counts)) / scale)

    return Clustering(
        k=k,
        centroids=tuple(tuple(c / m for c in s) for s, m in zip(sums, counts)),
        assignment=dict(zip(ids, assign)),
        iterations_used=iterations,
        sse_history=tuple(history),
        converged=converged,
    )


class GroupResolution(NamedTuple):
    """Destination set for one category, with a flag telling whether the
    cluster route came up empty and the exact filter stood in."""

    members: tuple[int, ...]
    fallback: bool


def resolve_group_kmeans(clustering: Clustering,
                         profiles: Iterable[InterestProfile],
                         category: int,
                         threshold: float = 0.5) -> GroupResolution:
    """Union of clusters whose centroid component for `category` reaches
    `threshold`; falls back to the exact filter when that union is empty."""
    if not 0.0 < threshold <= 1.0:
        raise ValueError(f"threshold must lie in (0, 1], got {threshold}")
    profiles = list(profiles)
    idx = _category_index(category, len(clustering.centroids[0]))
    interested = {j for j, c in enumerate(clustering.centroids) if c[idx] >= threshold}
    members = sorted(node for node, c in clustering.assignment.items()
                     if c in interested)
    if members:
        return GroupResolution(members=tuple(members), fallback=False)
    exact = resolve_group_exact(profiles, category)
    return GroupResolution(members=tuple(exact), fallback=True)


def dump_clustering(clustering: Clustering) -> str:
    """One line per cluster: `idx: centroid components | member ids`."""
    lines = []
    for j, centroid in enumerate(clustering.centroids):
        comps = " ".join(f"{c:.6f}" for c in centroid)
        members = " ".join(str(n) for n in clustering.members(j))
        lines.append(f"{j}: {comps} | {members}")
    return "\n".join(lines) + "\n"


def points_of(profiles: Iterable[InterestProfile]) -> dict[int, InterestVector]:
    """Clustering input: interest vectors keyed by node id."""
    return {p.node: p.interests for p in profiles}
