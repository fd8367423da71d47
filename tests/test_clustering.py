import random

import pytest

from dtn_cluster_sim import clustering
from dtn_cluster_sim.clustering import (Clustering, dump_clustering, kmeans,
                                        points_of, resolve_group_exact,
                                        resolve_group_kmeans)
from dtn_cluster_sim.trace_model import InterestProfile

from oracles import (best_partition_sse, fraction_assign, fraction_distance,
                     fraction_kmeans, fraction_means_with_repair, numpy_kmeans,
                     squared_distance)


def profiles_of(vectors: dict[int, tuple[int, ...]]) -> list[InterestProfile]:
    return [InterestProfile(node, vec) for node, vec in sorted(vectors.items())]


class TestKmeans:
    def test_three_point_optimum(self):
        points = {0: (1, 0), 1: (1, 0), 2: (0, 1)}
        c = kmeans(points, 2, seed=0)
        groups = {frozenset(c.members(j)) for j in range(2)}
        assert groups == {frozenset({0, 1}), frozenset({2})}
        assert set(c.centroids) == {(1.0, 0.0), (0.0, 1.0)}
        assert c.sse_history[-1] == 0.0
        # the partition is the enumerated global optimum
        assert best_partition_sse(list(points.values()), 2) == 0.0

    def test_k1_centroid_is_mean(self):
        points = {0: (1, 0), 1: (1, 1), 2: (0, 1), 3: (0, 0)}
        c = kmeans(points, 1, seed=9)
        assert c.centroids == ((0.5, 0.5),)
        assert set(c.assignment.values()) == {0}

    def test_deterministic(self):
        rng = random.Random(3)
        points = {i: tuple(rng.randint(0, 1) for _ in range(4)) for i in range(40)}
        assert kmeans(points, 3, seed=7) == kmeans(points, 3, seed=7)

    def test_seed_changes_initialization(self):
        rng = random.Random(3)
        points = {i: tuple(rng.randint(0, 1) for _ in range(6)) for i in range(60)}
        runs = {tuple(sorted(kmeans(points, 4, seed=s).assignment.items()))
                for s in range(8)}
        assert len(runs) >= 1  # may coincide, but must never crash

    def test_too_few_distinct(self):
        with pytest.raises(ValueError, match="k=2 but only 1 distinct vectors"):
            kmeans({0: (1, 0), 1: (1, 0)}, 2, seed=0)

    def test_empty_input(self):
        with pytest.raises(ValueError, match="no points"):
            kmeans({}, 1, seed=0)

    def test_bad_k(self):
        with pytest.raises(ValueError):
            kmeans({0: (1,)}, 0, seed=0)

    def test_bad_max_iter(self):
        with pytest.raises(ValueError, match="max_iter must be at least 1"):
            kmeans({0: (1,)}, 1, seed=0, max_iter=0)

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="vector length 3, expected 2"):
            kmeans({0: (0, 1), 1: (0, 1, 1)}, 1, seed=0)

    def test_non_binary_vector(self):
        with pytest.raises(ValueError, match="node 4: vector components"):
            kmeans({0: (0, 1), 4: (2, 0), 5: (0, 7)}, 1, seed=0)

    def test_sse_history_non_increasing(self):
        rng = random.Random(11)
        for trial in range(20):
            m = rng.randint(5, 60)
            n = rng.randint(2, 10)
            points = {i: tuple(rng.randint(0, 1) for _ in range(n)) for i in range(m)}
            k = rng.randint(1, min(n, len(set(points.values()))))
            c = kmeans(points, k, seed=trial)
            hist = c.sse_history
            assert all(b <= a + 1e-9 for a, b in zip(hist, hist[1:]))
            assert c.iterations_used <= 100
            assert c.converged

    def test_converged_assignment_is_nearest_centroid(self):
        rng = random.Random(13)
        points = {i: tuple(rng.randint(0, 1) for _ in range(5)) for i in range(50)}
        c = kmeans(points, 4, seed=2)
        for node, vec in points.items():
            own = squared_distance(vec, c.centroids[c.assignment[node]])
            assert own <= min(squared_distance(vec, cent)
                              for cent in c.centroids) + 1e-9

    def test_centroids_are_exact_member_means(self):
        rng = random.Random(17)
        points = {i: tuple(rng.randint(0, 1) for _ in range(7)) for i in range(80)}
        c = kmeans(points, 5, seed=1)
        for j in range(c.k):
            members = c.members(j)
            assert members
            exact = tuple(sum(points[node][i] for node in members) / len(members)
                          for i in range(7))
            assert c.centroids[j] == exact

    def test_no_empty_clusters(self):
        rng = random.Random(19)
        for trial in range(15):
            points = {i: tuple(rng.randint(0, 1) for _ in range(3)) for i in range(20)}
            k = min(4, len(set(points.values())))
            c = kmeans(points, k, seed=trial)
            assert all(c.members(j) for j in range(c.k))

    def test_permutation_invariance(self):
        rng = random.Random(23)
        points = {i: tuple(rng.randint(0, 1) for _ in range(4)) for i in range(30)}
        relabel = {i: i * 10 + 3 for i in points}  # order-preserving
        shuffled = {relabel[i]: v for i, v in points.items()}
        c1 = kmeans(points, 3, seed=6)
        c2 = kmeans(shuffled, 3, seed=6)
        p1 = {frozenset(relabel[n] for n in c1.members(j)) for j in range(3)}
        p2 = {frozenset(c2.members(j)) for j in range(3)}
        assert p1 == p2
        assert c1.sse_history == c2.sse_history


def reference_dataset(rng: random.Random):
    """Binary points with a dimension below 8, from 8 to 128 or above 128
    (the three branches of numpy's summation order); small and dense (many
    duplicate rows and exact distance ties); or small integers, which
    kmeans refuses."""
    shape = rng.choice(("short", "medium", "long", "dense", "dense", "integer"))
    if shape in ("dense", "integer"):
        m, n, p = rng.randint(2, 60), rng.randint(1, 4), 0.5
    else:
        low, high = {"short": (1, 7), "medium": (8, 128), "long": (129, 200)}[shape]
        m, n, p = rng.randint(1, 40), rng.randint(low, high), rng.choice((0.5, 0.1, 0.9))

    def value():
        return rng.choice((0, 1, 2, 3, 7)) if shape == "integer" else int(rng.random() < p)

    points = {3 * i + 1: tuple(value() for _ in range(n)) for i in range(m)}
    distinct = len(set(points.values()))
    k = distinct if rng.random() < 0.3 else rng.randint(1, distinct)
    return points, k, rng.choice((1, 2, 3, 100))


def test_matches_numpy_reference():
    """Every result, the objective history included, equals the exact
    rational reference's; wherever that reference met no exact tie it also
    equals the numpy implementation's, the history to 1e-9. Non-binary
    points raise ValueError."""
    refused = untied = 0
    rng = random.Random(2018)
    for trial in range(300):
        points, k, max_iter = reference_dataset(rng)
        if any(c not in (0, 1) for vec in points.values() for c in vec):
            with pytest.raises(ValueError, match="must be 0 or 1"):
                kmeans(points, k, seed=trial, max_iter=max_iter)
            refused += 1
            continue
        got = kmeans(points, k, seed=trial, max_iter=max_iter)
        exact, tied = fraction_kmeans(points, k, seed=trial, max_iter=max_iter)
        assert got == exact, trial
        if tied:
            continue
        untied += 1
        want = numpy_kmeans(points, k, seed=trial, max_iter=max_iter)
        assert got.centroids == want.centroids, trial
        assert got.assignment == want.assignment, trial
        assert got.iterations_used == want.iterations_used, trial
        assert got.converged == want.converged, trial
        assert got.sse_history == pytest.approx(want.sse_history, rel=0, abs=1e-9)
    assert refused and untied >= 100


def test_exact_ties_go_to_the_lowest_index():
    """Centroids that permute one another's components among a point's 0
    positions and among its 1 positions lie at the same exact distance
    from it, whatever the rounding of a float sum says: the point joins the
    lowest-indexed of them."""
    rng = random.Random(1948)
    for trial in range(300):
        n, m = rng.choice((3, 5, 9, 12, 40, 150)), rng.randint(2, 40)
        x = [int(rng.random() < 0.5) for _ in range(n)]
        base = [rng.randint(0, m) for _ in range(n)]
        sums = []
        for _ in range(rng.randint(2, 6)):
            s = list(base)
            for bit in (0, 1):
                where = [i for i in range(n) if x[i] == bit]
                for i, v in zip(where, rng.sample([s[i] for i in where], len(where))):
                    s[i] = v
            sums.append(s)
        # the farthest centroid first, so that the tie is not at index 0
        sums.insert(0, [0 if v else m for v in x])
        ones = [[i for i, v in enumerate(x) if v]]
        got, _, _ = clustering._assign(ones, [0], sums, [m] * len(sums))
        want, _, tied = fraction_assign([x], [(s, m) for s in sums])
        assert got == want and tied, trial
        assert got == [1] or all(c in (0, m) for c in base), trial


def test_repair_matches_exact_reference():
    """Lloyd steps from seeded points almost never empty a cluster, so the
    repair is compared on assignments that leave clusters empty."""
    rng = random.Random(1982)
    for trial in range(200):
        m, n = rng.randint(2, 30), rng.choice((rng.randint(1, 7), rng.randint(8, 40)))
        k = rng.randint(2, m)
        used = rng.sample(range(k), rng.randint(1, k - 1))
        X = [tuple(int(rng.random() < 0.5) for _ in range(n)) for _ in range(m)]
        assign = [rng.choice(used) for _ in range(m)]
        centroids = [(tuple(rng.randint(0, 6) for _ in range(n)), 6) for _ in range(k)]
        # distances on the scale of 36, so integers
        dist = [int(36 * fraction_distance(x, centroids[j])) for x, j in zip(X, assign)]
        got_assign, sums, counts = clustering._means_with_repair(
            X, list(range(m)), assign, dist, k)
        want_assign, want_means, _ = fraction_means_with_repair(X, assign, centroids, k)
        assert got_assign == want_assign, trial
        assert list(zip(map(tuple, sums), counts)) == want_means, trial


def test_exact_tie_regression_seed_7_trial_549():
    """Node 28 lies exactly as far from centroids 0 and 4. numpy's rounding
    chose 4 and ran one more round, to SSE 6.67; the exact rule keeps it
    in 0 and stops at SSE 7.33."""
    rng = random.Random(7)
    for _ in range(550):
        points, k, max_iter = reference_dataset(rng)
    assert (len(points), k) == (22, 8)
    got = kmeans(points, k, seed=549, max_iter=max_iter)
    exact, tied = fraction_kmeans(points, k, seed=549, max_iter=max_iter)
    assert got == exact and tied
    want = numpy_kmeans(points, k, seed=549, max_iter=max_iter)
    assert round(got.sse_history[-1], 2) == 7.33
    assert round(want.sse_history[-1], 2) == 6.67
    assert got.assignment[28] == 0 and want.assignment[28] == 4


class TestResolveGroupExact:
    def test_returns_ascending_id_list(self):
        # one-hot profiles shaped like a clusterer response
        members = [5, 8, 15, 23, 27, 31]
        others = [1, 2, 40]
        profiles = profiles_of({**{n: (1, 0) for n in members},
                                **{n: (0, 1) for n in others}})
        assert resolve_group_exact(profiles, 1) == [5, 8, 15, 23, 27, 31]

    def test_direct_filter(self):
        profiles = profiles_of({1: (0, 1), 2: (1, 0), 3: (0, 1)})
        assert resolve_group_exact(profiles, 2) == [1, 3]

    def test_empty_when_no_interest(self):
        profiles = profiles_of({1: (0, 1), 2: (0, 1)})
        assert resolve_group_exact(profiles, 1) == []

    def test_category_out_of_range(self):
        profiles = profiles_of({1: (0, 1)})
        with pytest.raises(ValueError, match="outside"):
            resolve_group_exact(profiles, 3)
        with pytest.raises(ValueError, match="outside"):
            resolve_group_exact(profiles, 0)


class TestResolveGroupKmeans:
    def one_hot_profiles(self, seed: int, n: int, count: int):
        rng = random.Random(seed)
        vectors = {}
        for node in range(count):
            bit = node % n if node < n else rng.randrange(n)  # cover every category
            vec = [0] * n
            vec[bit] = 1
            vectors[node] = tuple(vec)
        return profiles_of(vectors)

    def test_one_hot_matches_exact(self):
        for seed in range(5):
            n = 2 + seed % 4
            profiles = self.one_hot_profiles(seed, n, 8 + 4 * seed)
            clustering = kmeans(points_of(profiles), n, seed=seed)
            for cat in range(1, n + 1):
                res = resolve_group_kmeans(clustering, profiles, cat)
                assert list(res.members) == resolve_group_exact(profiles, cat)
                assert not res.fallback

    def test_fallback_when_no_cluster_qualifies(self):
        profiles = profiles_of({1: (1, 0), 2: (0, 1), 3: (0, 1)})
        clustering = Clustering(k=1, centroids=((0.0, 0.4),),
                                assignment={1: 0, 2: 0, 3: 0},
                                iterations_used=0, sse_history=(), converged=True)
        res = resolve_group_kmeans(clustering, profiles, 1)
        assert res.fallback
        assert res.members == (1,)

    def test_threshold_excludes_below(self):
        profiles = profiles_of({1: (1,), 2: (1,), 3: (0,), 4: (1,), 5: (1,)})
        clustering = Clustering(k=2, centroids=((0.6,), (1.0,)),
                                assignment={1: 0, 2: 0, 3: 0, 4: 1, 5: 1},
                                iterations_used=0, sse_history=(), converged=True)
        res = resolve_group_kmeans(clustering, profiles, 1, threshold=1.0)
        assert res.members == (4, 5)
        assert not res.fallback

    def test_threshold_validation(self):
        profiles = profiles_of({1: (1,)})
        clustering = kmeans(points_of(profiles), 1, seed=0)
        with pytest.raises(ValueError):
            resolve_group_kmeans(clustering, profiles, 1, threshold=0.0)

    def test_category_out_of_range(self):
        profiles = profiles_of({1: (1, 0)})
        clustering = kmeans(points_of(profiles), 1, seed=0)
        with pytest.raises(ValueError, match="outside"):
            resolve_group_kmeans(clustering, profiles, 5)


class TestDump:
    def test_format(self):
        points = {1: (1, 0), 2: (1, 0), 3: (0, 1)}
        c = kmeans(points, 2, seed=0)
        text = dump_clustering(c)
        lines = text.strip().split("\n")
        assert len(lines) == 2
        assert {lines[0], lines[1]} == {"0: 1.000000 0.000000 | 1 2",
                                        "1: 0.000000 1.000000 | 3"} or \
               {lines[0], lines[1]} == {"0: 0.000000 1.000000 | 3",
                                        "1: 1.000000 0.000000 | 1 2"}

    def test_deterministic(self):
        points = {i: (i % 2, 1 - i % 2) for i in range(10)}
        assert dump_clustering(kmeans(points, 2, seed=4)) == \
               dump_clustering(kmeans(points, 2, seed=4))
