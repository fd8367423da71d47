"""Acceptance suite: one test per release criterion.

Each test prints a `ACCEPTANCE <n> PASS` line on success (visible with
`pytest -s`); a failing criterion fails its test. Frozen seeds keep every
randomized family reproducible.
"""

import random
import time

import pytest
from scipy.stats import spearmanr

from dtn_cluster_sim.cli import parse_config, run_sweep
from dtn_cluster_sim.clustering import (kmeans, points_of, resolve_group_exact,
                                        resolve_group_kmeans)
from dtn_cluster_sim.metrics import build_report, per_message_csv
from dtn_cluster_sim.sim_engine import (RouterConfig, Scenario, ScheduleConfig, run)
from dtn_cluster_sim.trace_model import (InterestProfile, SyntheticParams,
                                         generate_synthetic_trace,
                                         parse_contact_trace)

from oracles import best_partition_sse, earliest_arrival, squared_distance


def ok(n: int, text: str):
    print(f"\nACCEPTANCE {n} PASS — {text}")


# ---------------------------------------------------------------------------
# clustering criteria


def random_dataset(rng: random.Random, max_points=200, max_dim=35):
    m = rng.randint(5, max_points)
    n = rng.randint(2, max_dim)
    points = {node: tuple(rng.randint(0, 1) for _ in range(n)) for node in range(m)}
    k = rng.randint(1, min(n, len(set(points.values()))))
    return points, k


def test_criterion_1_kmeans_correctness_suite():
    rng = random.Random(7)
    datasets = [random_dataset(rng) for _ in range(50)]

    start = time.perf_counter()
    results = [kmeans(points, k, seed=i) for i, (points, k) in enumerate(datasets)]
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"50 runs took {elapsed:.3f}s"

    for (points, k), c in zip(datasets, results):
        hist = c.sse_history
        assert all(b <= a + 1e-9 for a, b in zip(hist, hist[1:])), \
            "objective increased between iterations"
        assert c.converged and c.iterations_used <= 100
        for node, vec in points.items():
            own = squared_distance(vec, c.centroids[c.assignment[node]])
            best = min(squared_distance(vec, cent) for cent in c.centroids)
            assert own <= best + 1e-9, "assignment not nearest-centroid optimal"
        dim = len(c.centroids[0])
        for j in range(c.k):
            members = c.members(j)
            assert members, "empty cluster survived repair"
            exact = tuple(sum(points[node][i] for node in members) / len(members)
                          for i in range(dim))
            assert c.centroids[j] == exact, "centroid is not the exact member mean"
    ok(1, f"50 datasets: monotone objective, optimal assignments, exact "
          f"centroids, {elapsed * 1000:.0f} ms")


def test_criterion_2_exhaustive_micro_optimality():
    rng = random.Random(42)
    cases = 0
    for trial in range(30):
        m = rng.randint(3, 8)
        n = rng.randint(2, 3)
        points = {i: tuple(rng.randint(0, 1) for _ in range(n)) for i in range(m)}
        distinct = len(set(points.values()))
        for k in range(2, min(3, distinct) + 1):
            cases += 1
            optimum = best_partition_sse(list(points.values()), k)
            finals = [kmeans(points, k, seed=s).sse_history[-1] for s in range(10)]
            assert all(f >= optimum - 1e-9 for f in finals), \
                "converged below the enumerated optimum"
            assert min(finals) <= optimum + 1e-9, \
                "no seed reached the enumerated optimum"
    ok(2, f"{cases} micro datasets: local minima never beat the enumerated "
          f"optimum and some seed always attains it")


def test_criterion_3_exact_kmeans_agreement_on_one_hot():
    rng = random.Random(5)
    checked = 0
    for trial in range(12):
        n = rng.randint(2, 6)
        count = rng.randint(n, 30)
        vectors = {}
        for node in range(count):
            bit = node % n if node < n else rng.randrange(n)  # every category present
            vec = [0] * n
            vec[bit] = 1
            vectors[node] = tuple(vec)
        profiles = [InterestProfile(node, vec) for node, vec in sorted(vectors.items())]
        clustering = kmeans(points_of(profiles), n, seed=trial)
        for cat in range(1, n + 1):
            res = resolve_group_kmeans(clustering, profiles, cat)
            assert list(res.members) == resolve_group_exact(profiles, cat)
            assert not res.fallback
            checked += 1
    ok(3, f"one-hot profiles: cluster resolution equals the exact filter for "
          f"all {checked} categories")


# ---------------------------------------------------------------------------
# engine criteria


def oracle_scenario(i: int, kind: str) -> Scenario:
    nodes = 5 + (i * 7) % 16  # 5..20
    pairs = nodes * (nodes - 1) / 2
    params = SyntheticParams(node_count=nodes, duration=500.0,
                             contact_rate=100.0 / (pairs * 500.0),
                             n_categories=3, interest_prob=0.4)
    trace, profiles = generate_synthetic_trace(params, i)
    assert len(trace.events) <= 200
    return Scenario(trace=trace, profiles=tuple(profiles), n_categories=3,
                    router=RouterConfig(kind=kind, mode="exact",
                                        buffer_capacity=None, ttl=None),
                    schedule=ScheduleConfig(count=5), seed=i)


def test_criterion_4_temporal_bfs_oracle_equivalence():
    start = time.perf_counter()
    messages = 0
    for i in range(100):
        sc = oracle_scenario(i, "epidemic")
        res = run(sc)
        for rec in res.records:
            want = earliest_arrival(sc.trace.events, rec.source, rec.created_at)
            assert res.first_receipts[rec.message_id] == want, \
                f"scenario {i} message {rec.message_id} diverges from oracle"
            messages += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"oracle suite took {elapsed:.1f}s"
    ok(4, f"100 scenarios / {messages} messages: every first receipt equals "
          f"the earliest-arrival oracle exactly, {elapsed:.2f} s")


def test_criterion_5_cluster_subset_of_epidemic():
    for i in range(100):
        res_e = run(oracle_scenario(i, "epidemic"))
        res_c = run(oracle_scenario(i, "cluster"))
        delivered_e = delivered_c = 0
        for rec_e, rec_c in zip(res_e.records, res_c.records):
            got_e = res_e.first_receipts[rec_e.message_id]
            got_c = res_c.first_receipts[rec_c.message_id]
            assert set(got_c) <= set(got_e), f"scenario {i}: receipts not a subset"
            assert all(got_c[n] >= got_e[n] for n in got_c), \
                f"scenario {i}: cluster receipt earlier than epidemic"
            if rec_c.group_delivered_at is not None:
                delivered_c += 1
                assert rec_e.group_delivered_at is not None
                assert rec_e.group_delivered_at <= rec_c.group_delivered_at
            if rec_e.group_delivered_at is not None:
                delivered_e += 1
        assert delivered_e >= delivered_c
    ok(5, "100 scenarios: cluster receipts are a no-earlier subset of epidemic "
          "receipts; epidemic delivery dominates")


def test_cluster_first_receipts_match_restricted_oracle():
    # non-strict cluster routing with unlimited buffers is earliest arrival
    # over only the contacts whose receiving end is in the destination group
    for i in range(100):
        sc = oracle_scenario(i, "cluster")
        res = run(sc)
        for rec in res.records:
            group = {p.node for p in sc.profiles if p.interests[rec.category - 1]}
            want = earliest_arrival(sc.trace.events, rec.source, rec.created_at,
                                    receivers=group)
            assert res.first_receipts[rec.message_id] == want, \
                f"scenario {i} message {rec.message_id} diverges from oracle"


def test_epidemic_records_match_oracle():
    # the record fields read off the receipt log, against oracle arrivals
    final_deliveries = 0
    for i in range(100):
        sc = oracle_scenario(i, "epidemic")
        sc = sc._replace(schedule=sc.schedule._replace(track_final=True))
        res = run(sc)
        for rec in res.records:
            want = earliest_arrival(sc.trace.events, rec.source, rec.created_at)
            group = {p.node for p in sc.profiles if p.interests[rec.category - 1]}
            group_times = [t for node, t in want.items() if node in group]
            where = f"scenario {i} message {rec.message_id}"
            assert rec.group_delivered_at == min(group_times, default=None), where
            if rec.group_delivered_at is not None:
                assert rec.first_receiver in group, where
                assert want[rec.first_receiver] == rec.group_delivered_at, where
                assert (rec.hops_at_delivery == 0) == (rec.first_receiver == rec.source), \
                    where
            assert rec.forwards_total == len(want) - 1, where
            assert rec.final_delivered_at == want.get(rec.final_destination), where
            final_deliveries += rec.final_delivered_at is not None
    assert final_deliveries > 0


TREND_FRACTIONS = (0.10, 0.25, 0.50, 0.80)
TREND_SEEDS = (1, 2, 3, 4, 5)


def trend_means():
    means = {"delivery": [], "delay": [], "cost": [], "resource": []}
    for fraction in TREND_FRACTIONS:
        vals = {key: [] for key in means}
        for seed in TREND_SEEDS:
            params = SyntheticParams(node_count=30, duration=2000.0,
                                     contact_rate=2e-4, n_categories=1,
                                     interest_prob=fraction)
            trace, profiles = generate_synthetic_trace(params, seed)
            sc = Scenario(trace=trace, profiles=tuple(profiles), n_categories=1,
                          router=RouterConfig(kind="cluster", mode="exact"),
                          schedule=ScheduleConfig(count=20), seed=seed)
            report = build_report(run(sc), f"f{fraction}_s{seed}")
            assert report.delivered > 0, (fraction, seed)
            vals["delivery"].append(report.delivery_ratio)
            vals["delay"].append(report.avg_delay)
            vals["cost"].append(report.avg_cost)
            vals["resource"].append(report.resource_used)
        for key in means:
            means[key].append(sum(vals[key]) / len(vals[key]))
    return means


def test_criterion_6_qualitative_trends():
    means = trend_means()

    def non_decreasing(xs):
        return all(a <= b + 1e-12 for a, b in zip(xs, xs[1:]))

    assert non_decreasing(means["delivery"]), means["delivery"]
    assert non_decreasing([-x for x in means["delay"]]), means["delay"]
    assert non_decreasing(means["cost"]), means["cost"]
    assert non_decreasing(means["resource"]), means["resource"]

    rho_delivery = spearmanr(TREND_FRACTIONS, means["delivery"]).statistic
    rho_delay = spearmanr(TREND_FRACTIONS, means["delay"]).statistic
    assert rho_delivery >= 0.9, rho_delivery
    assert rho_delay <= -0.9, rho_delay
    ok(6, f"interested-fraction sweep: delivery up (rho={rho_delivery:.2f}), "
          f"delay down (rho={rho_delay:.2f}), cost and resource use non-decreasing")


# ---------------------------------------------------------------------------
# scripted scenarios


DROP_OLDEST_EXPECTED = """\
message_id,source,category,created_at,group_size,group_delivered_at,first_receiver,hops,forwards_total,final_delivered_at
0,1,1,1.0,2,3.0,2,1,1,
1,1,1,2.0,2,3.0,2,1,2,
2,1,1,10.0,2,11.0,2,1,2,
"""


def test_criterion_7_drop_oldest_scripted():
    # Hand-written event log, capacity 2 everywhere, group = {2, 3}:
    #  t=1,2   node 1 creates m0, m1            buffer(1) = [m0@1, m1@2]
    #  t=3     contact 1-2: m0, m1 forwarded    buffer(2) = [m0@3, m1@3]
    #  t=10    node 1 creates m2, evicting m0   buffer(1) = [m1@2, m2@10]
    #  t=11    contact 1-2: m1 already at node 2, m2 forwarded; node 2
    #          over capacity evicts its oldest entry (m0@3, id tie-break
    #          below m1@3)
    #  t=13    contact 2-3: m1 then m2 forwarded to node 3
    trace = parse_contact_trace("3 4 1 2\n11 12 1 2\n13 14 2 3\n")
    profiles = (InterestProfile(1, (0,)), InterestProfile(2, (1,)),
                InterestProfile(3, (1,)))
    sc = Scenario(trace=trace, profiles=profiles, n_categories=1,
                  router=RouterConfig(kind="cluster", mode="exact",
                                      buffer_capacity=2),
                  schedule=ScheduleConfig(explicit=((1.0, 1, 1), (2.0, 1, 1),
                                                    (10.0, 1, 1))),
                  seed=0)
    res = run(sc)
    assert per_message_csv(res.records) == DROP_OLDEST_EXPECTED
    assert res.counts.drops == 2
    assert res.counts.forwards == 5
    assert res.counts.closes == 0
    ok(7, "drop-oldest script: evictions and per-message CSV byte-exact "
          "against the hand trace")


def test_criterion_8_determinism(tmp_path):
    import json
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({
        "synthetic": {"node_count": 12, "duration": 400.0,
                      "contact_rate": 0.003, "interest_prob": 0.4},
        "categories": [2, 4],
        "seeds": [1, 2],
        "message_count": 8,
        "mode": "kmeans",
    }))
    first = parse_config(config_path, {"out": str(tmp_path / "a")})
    second = parse_config(config_path, {"out": str(tmp_path / "b")})
    assert run_sweep(first) == 0
    assert run_sweep(second) == 0

    a, b = tmp_path / "a", tmp_path / "b"
    files_a = sorted(p.relative_to(a) for p in a.rglob("*") if p.is_file())
    files_b = sorted(p.relative_to(b) for p in b.rglob("*") if p.is_file())
    assert files_a == files_b and files_a, "output trees differ in shape"
    for rel in files_a:
        assert (a / rel).read_bytes() == (b / rel).read_bytes(), rel

    # any summary row is reproducible from the echoed effective config alone
    echoed = parse_config(a / "config.json", {"out": str(tmp_path / "c")})
    assert run_sweep(echoed) == 0
    assert (a / "summary.csv").read_bytes() == \
           (tmp_path / "c" / "summary.csv").read_bytes()
    ok(8, f"{len(files_a)} files byte-identical across reruns; echoed config "
          f"reproduces the summary")


def test_criterion_9_strict_mode_semantics():
    # node 1 buffers m0 (group {3}, received first) and m1 (group {2});
    # the only contact is with node 2
    trace = parse_contact_trace("5 6 1 2\n")
    profiles = (InterestProfile(1, (0, 0)), InterestProfile(2, (0, 1)),
                InterestProfile(3, (1, 0)))
    schedule = ScheduleConfig(explicit=((1.0, 1, 1), (2.0, 1, 2)))

    def strictness(strict):
        sc = Scenario(trace=trace, profiles=profiles, n_categories=2,
                      router=RouterConfig(kind="cluster", mode="exact",
                                          strict=strict),
                      schedule=schedule, seed=0)
        return run(sc)

    default = strictness(False)
    assert default.counts.forwards == 1
    assert default.counts.closes == 0
    assert default.records[1].group_delivered_at == 5.0
    assert default.records[0].group_delivered_at is None

    strict = strictness(True)
    assert strict.counts.forwards == 0
    assert strict.counts.closes == 1
    assert strict.records[0].group_delivered_at is None
    assert strict.records[1].group_delivered_at is None
    ok(9, "strict mode closes the contact on the first non-member message; "
          "default mode still delivers the second message")
