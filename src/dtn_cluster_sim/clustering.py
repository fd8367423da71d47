"""Interest-group formation.

Two ways to answer "which nodes should a message of category k reach":

  * exact filtering: every node whose interest bit k is set;
  * k-means clustering over the binary interest vectors, then the union of
    clusters whose centroid is interested enough in k.

The k-means here is Lloyd's alternating scheme on seeded initial points,
kept deliberately simple and fully deterministic so runs can be replayed
bit for bit. It is written in plain Python, with no runtime dependency.

Tie-break contract: a point goes to the lowest-indexed of its nearest
centroids, and empty-cluster repair takes the lowest-indexed of the
farthest points. "Nearest" compares float64 distances whose squared
terms are summed in numpy's add-reduce order (see `_numpy_order_sum`),
not left to right, because the binary vectors put many centroids at
exactly or nearly equal distances: the rounding of each sum decides the
ties, and with them the assignment, the centroids, `clustering.txt` and
every group and delivery after it. This order keeps every result equal
to the earlier numpy implementation, which the tests keep as the
reference (`tests/oracles.numpy_kmeans`). Centroids are integer column
sums divided by the member count, exact as in numpy. `sse_history` may
differ from the reference in its last bits (the screen in `_assign`
takes most distances from an estimate); no output file holds it.
"""

import random
from functools import reduce
from operator import add, mul, sub
from typing import Iterable, Mapping, NamedTuple, Sequence

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


def _numpy_order_sum(terms: list[float]) -> float:
    """Sum floats in the order of numpy's float64 add-reduce over a
    contiguous axis: left to right below 8 terms; up to 128 terms, eight
    strided accumulators combined as ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7))
    with the remainder added in order; above that, two halves split at a
    multiple of 8. Written as explicit folds, since the builtin `sum()` of
    floats is compensated from Python 3.12 on."""
    n = len(terms)
    if n < 8:
        return reduce(add, terms, 0.0)
    if n <= 128:
        cut = n - n % 8
        r = [reduce(add, terms[j:cut:8]) for j in range(8)]
        head = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
        return reduce(add, terms[cut:], head)
    half = n // 2
    half -= half % 8
    return _numpy_order_sum(terms[:half]) + _numpy_order_sum(terms[half:])


def _distance(x: Centroid, c: Centroid) -> float:
    """Squared distance, summed in numpy's order."""
    diff = list(map(sub, x, c))
    return _numpy_order_sum(list(map(mul, diff, diff)))


def _assign(rows: list[Centroid], ones: list[list[int]],
            row_of: list[int], centroids: list[Centroid]) -> tuple[list[int], float]:
    """Nearest centroid of every point and the summed distance to it.

    Each distinct binary row is solved once; `row_of` maps points to rows
    and `ones` lists each row's set bits. A screen picks the clusters
    whose distance can be the least. The estimate |c|^2 + sum over set
    bits of (1 - 2c_i) equals the distance in exact arithmetic. With every
    component in [0, 1], the rounding of the estimate and of the
    exact-order sum each stay below 4(n+2)^2 * 2^-53, so a cluster whose
    estimate lies more than 8(n+2)^2 * 2^-53 above the least cannot be the
    nearest. The band is twice that; when more than one cluster lies in
    it, those are compared on exact-order distances. The estimate stands
    in for the distance of a cluster that is alone in the band.
    """
    band = 16 * (len(centroids[0]) + 2) ** 2 * 2.0 ** -53
    base = [reduce(add, [c * c for c in cent], 0.0) for cent in centroids]
    steps = [[1.0 - 2.0 * c for c in column] for column in zip(*centroids)]
    nearest, nearest_d = [], []
    for row, bits in zip(rows, ones):
        est = base
        for i in bits:
            est = map(add, est, steps[i])
        est = list(est)
        least = min(est)
        candidates = [j for j, e in enumerate(est) if e <= least + band]
        if len(candidates) == 1:
            nearest.append(candidates[0])
            nearest_d.append(least)
            continue
        d = {j: _distance(row, centroids[j]) for j in candidates}
        best = min(d, key=d.__getitem__)  # the first, so the lowest index
        nearest.append(best)
        nearest_d.append(d[best])
    return ([nearest[r] for r in row_of],
            _numpy_order_sum([nearest_d[r] for r in row_of]))


def _means_with_repair(X: list[Centroid], assign: list[int],
                       centroids: list[Centroid],
                       k: int) -> tuple[list[int], list[Centroid]]:
    """Cluster means of the current assignment.

    An empty cluster is repaired first by moving into it the point farthest
    from its current centroid (the lowest-indexed on ties), drawn from
    clusters that can spare a member.
    """
    assign = list(assign)
    counts = [0] * k
    for j in assign:
        counts[j] += 1
    empties = [j for j in range(k) if counts[j] == 0]
    if empties:
        dist_own = [_distance(x, centroids[j]) for x, j in zip(X, assign)]
        for j in empties:
            donors = [p for p, own in enumerate(assign) if counts[own] >= 2]
            pick = max(donors, key=dist_own.__getitem__)
            counts[assign[pick]] -= 1
            assign[pick] = j
            counts[j] += 1
            dist_own[pick] = -1.0  # cannot be picked again
    members: list[list[Centroid]] = [[] for _ in range(k)]
    for x, j in zip(X, assign):
        members[j].append(x)
    return assign, [tuple(reduce(add, column, 0.0) / len(rows) for column in zip(*rows))
                    for rows in members]


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
    value after every assignment step lands in sse_history.
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

    distinct = list(dict.fromkeys(vectors))
    if k > len(distinct):
        raise ValueError(f"k={k} but only {len(distinct)} distinct vectors")

    rng = random.Random(seed)
    chosen = rng.sample(range(len(distinct)), k)
    rows = [tuple(map(float, v)) for v in distinct]
    position = {v: r for r, v in enumerate(distinct)}
    row_of = [position[v] for v in vectors]
    centroids = [rows[i] for i in chosen]
    X = [rows[r] for r in row_of]
    ones = [[i for i, c in enumerate(row) if c] for row in rows]

    assign, err = _assign(rows, ones, row_of, centroids)
    history = [err]
    iterations = 0
    converged = False
    while not converged and iterations < max_iter:
        iterations += 1
        assign, centroids = _means_with_repair(X, assign, centroids, k)
        new_assign, err = _assign(rows, ones, row_of, centroids)
        history.append(err)
        converged = new_assign == assign
        assign = new_assign
    if not converged:
        # keep the returned centroids consistent with the final assignment
        assign, centroids = _means_with_repair(X, assign, centroids, k)
        history.append(_numpy_order_sum([(a - b) * (a - b)
                                         for x, j in zip(X, assign)
                                         for a, b in zip(x, centroids[j])]))

    return Clustering(
        k=k,
        centroids=tuple(centroids),
        assignment=dict(zip(ids, assign)),
        iterations_used=iterations,
        sse_history=tuple(history),
        converged=converged,
    )


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
