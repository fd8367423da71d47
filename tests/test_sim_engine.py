import gc
import hashlib
import math
import random
import runpy
import signal
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

import pytest

from dtn_cluster_sim import sim_engine
from dtn_cluster_sim.cli import RunConfig, build_scenario
from dtn_cluster_sim.clustering import dump_clustering, resolve_group_kmeans
from dtn_cluster_sim.metrics import build_report, per_message_csv
from dtn_cluster_sim.sim_engine import (Buffer, ForwardDecision, Message, build_schedule,
                                        run)
from dtn_cluster_sim.synthetic import SyntheticParams, generate_synthetic_trace
from dtn_cluster_sim.trace_files import (parse_contact_trace, parse_interest_profiles,
                                         serialize_contact_trace, serialize_profiles)
from dtn_cluster_sim.trace_model import (MAX_CATEGORIES, MAX_MESSAGES, InterestProfile,
                                         InvalidParams, RouterConfig, Scenario, ScheduleConfig)

from oracles import earliest_arrival, reference_replay


def scenario(trace_text, vectors, n, schedule, router=None, seed=0):
    trace = parse_contact_trace(trace_text)
    profiles = tuple(InterestProfile(node, vec) for node, vec in sorted(vectors.items()))
    return Scenario(trace=trace, profiles=profiles, n_categories=n,
                    router=router or RouterConfig(),
                    schedule=schedule, seed=seed)


class TestBuildSchedule:
    TRACE = "0 1000 0 1\n"

    def test_explicit_single_event(self):
        sc = scenario(self.TRACE, {0: (1, 0), 1: (0, 1)}, 2,
                      ScheduleConfig(explicit=((10.0, 1, 2),)))
        assert build_schedule(sc) == [(10.0, 1, 2)]

    def test_explicit_validation(self):
        base = {0: (1,), 1: (0,)}
        with pytest.raises(InvalidParams):
            sc = scenario(self.TRACE, base, 1, ScheduleConfig(explicit=((2000.0, 0, 1),)))
            build_schedule(sc)
        with pytest.raises(InvalidParams):
            sc = scenario(self.TRACE, base, 1, ScheduleConfig(explicit=((1.0, 0, 2),)))
            build_schedule(sc)
        with pytest.raises(InvalidParams):
            sc = scenario(self.TRACE, base, 1, ScheduleConfig(explicit=((1.0, 9, 1),)))
            build_schedule(sc)

    def test_generated_categories_concentrate(self):
        vectors = {n: (1, 0, 0, 0) for n in range(6)}
        for seed in range(20):
            sc = scenario(self.TRACE, vectors, 4, ScheduleConfig(count=100), seed=seed)
            counts = Counter(category for _, _, category in build_schedule(sc))
            assert all(counts.get(c, 0) >= 10 for c in range(1, 5))

    def test_sources_come_from_profiles(self):
        vectors = {3: (1,), 7: (1,)}
        sc = scenario("0 1000 3 7\n", vectors, 1, ScheduleConfig(count=50), seed=2)
        assert {source for _, source, _ in build_schedule(sc)} <= {3, 7}

    def test_deterministic(self):
        vectors = {n: (1, 0) for n in range(5)}
        sc = scenario(self.TRACE, vectors, 2, ScheduleConfig(count=30), seed=9)
        assert build_schedule(sc) == build_schedule(sc)

    def test_times_sorted_within_duration(self):
        sc = scenario(self.TRACE, {0: (1,), 1: (1,)}, 1,
                      ScheduleConfig(count=40), seed=4)
        times = [t for t, _, _ in build_schedule(sc)]
        assert times == sorted(times)
        assert all(0.0 <= t <= 1000.0 for t in times)

    def test_interval_schedule(self):
        sc = scenario(self.TRACE, {0: (1,), 1: (1,)}, 1,
                      ScheduleConfig(count=4, interval=100.0), seed=0)
        assert [t for t, _, _ in build_schedule(sc)] == [100.0, 200.0, 300.0, 400.0]

    def test_interval_past_duration_rejected(self):
        with pytest.raises(InvalidParams):
            sc = scenario(self.TRACE, {0: (1,), 1: (1,)}, 1,
                          ScheduleConfig(count=11, interval=100.0))
            build_schedule(sc)

    def test_count_zero_warns_and_is_empty(self, caplog):
        sc = scenario(self.TRACE, {0: (1,), 1: (1,)}, 1, ScheduleConfig(count=0))
        with caplog.at_level("WARNING"):
            assert build_schedule(sc) == []
        assert any("empty" in r.message for r in caplog.records)


NAN, INF = float("nan"), float("inf")


def synthetic(**change) -> SyntheticParams:
    return SyntheticParams(**{"node_count": 4, "duration": 10.0, "contact_rate": 1.0,
                              "n_categories": 1, "interest_prob": 0.5, **change})


def two_node_scenario(**change) -> Scenario:
    return Scenario(**{"trace": parse_contact_trace("0 10 1 2\n"),
                       "profiles": (InterestProfile(1, (1, 0)), InterestProfile(2, (0, 1))),
                       "n_categories": 2, **change})


def profile(**change) -> InterestProfile:
    return InterestProfile(**{"node": 1, "interests": (1, 0), **change})


def message(**change) -> Message:
    return Message(**{"id": 0, "source": 1, "category": 1, "created_at": 0.0,
                      "destination_group": frozenset({1, 2}), **change})


def every_build(build, change: dict):
    """Builders of the record that `build(**change)` builds by keywords,
    one per path: keywords, positions and, on a NamedTuple, `_replace` on
    the valid record `build()`."""
    valid = build()
    cls = type(valid)
    names = getattr(cls, "_fields", None) or cls.__slots__
    yield lambda: build(**change)
    yield lambda: cls(*[change.get(name, getattr(valid, name)) for name in names])
    if hasattr(cls, "_replace"):
        yield lambda: valid._replace(**change)


@pytest.mark.parametrize("build, change, named", [
    (RouterConfig, {"kind": "x"}, "router"),
    (RouterConfig, {"mode": "x"}, "mode"),
    (RouterConfig, {"threshold": 0.0}, "threshold"),
    (RouterConfig, {"threshold": 1.5}, "threshold"),
    (RouterConfig, {"k_clusters": 0}, "k_clusters"),
    (RouterConfig, {"buffer_capacity": 0}, "buffer_capacity"),
    (RouterConfig, {"ttl": 0.0}, "ttl"),
    (RouterConfig, {"max_transfers_per_contact": 0}, "max_transfers_per_contact"),
    (ScheduleConfig, {"count": -3}, "message_count"),
    (ScheduleConfig, {"interval": 0.0}, "message_interval"),
    (ScheduleConfig, {"count": 3, "interval": -10.0}, "message_interval"),
    (synthetic, {"node_count": 1}, "node_count"),
    (synthetic, {"duration": 0.0}, "duration"),
    (synthetic, {"contact_rate": 0.0}, "contact_rate"),
    (synthetic, {"n_categories": 0}, "n_categories"),
    (synthetic, {"interest_prob": 1.5}, "interest_prob"),
    (synthetic, {"mean_contact_duration": 0.0}, "mean_contact_duration"),
    (synthetic, {"shared_interest_bias": 0.0}, "shared_interest_bias"),
    (two_node_scenario, {"n_categories": 0}, "n_categories"),
    (two_node_scenario, {"profiles": (InterestProfile(1, (1, 0)), InterestProfile(2, (1,)))},
     "profiles"),
    (two_node_scenario, {"trace": parse_contact_trace(""), "profiles": (),
                         "schedule": ScheduleConfig(count=1)}, "schedule"),
    (profile, {"node": -1}, "node"),
    (profile, {"interests": (1, 2)}, "interests"),
    # these rules raise a plain ValueError that names no field
    (message, {"category": 0}, None),
    (message, {"final_destination": 3}, None),
    # the generator draws at contact_rate * shared_interest_bias, which must
    # be a positive, finite float: at inf every draw is 0, at 0 it divides by 0
    (synthetic, {"contact_rate": 1e200, "shared_interest_bias": 1e200},
     "shared_interest_bias"),
    (synthetic, {"contact_rate": 1e-200, "shared_interest_bias": 1e-200},
     "shared_interest_bias"),
    # a range rule written `not 0 < x < inf` fails NaN and infinity too
    (RouterConfig, {"ttl": NAN}, "ttl"),
    (RouterConfig, {"ttl": INF}, "ttl"),
    (ScheduleConfig, {"count": 3, "interval": NAN}, "message_interval"),
    (ScheduleConfig, {"count": 3, "interval": INF}, "message_interval"),
    (synthetic, {"mean_contact_duration": INF}, "mean_contact_duration"),
    (synthetic, {"mean_contact_duration": NAN}, "mean_contact_duration"),
    (synthetic, {"contact_rate": NAN}, "contact_rate"),
    (synthetic, {"contact_rate": INF}, "contact_rate"),
    # an integer setting takes an int, never a bool
    (RouterConfig, {"buffer_capacity": 2.5}, "buffer_capacity"),
    (RouterConfig, {"k_clusters": 2.5}, "k_clusters"),
    (RouterConfig, {"max_transfers_per_contact": True}, "max_transfers_per_contact"),
    (ScheduleConfig, {"count": 2.5}, "message_count"),
    (ScheduleConfig, {"count": True}, "message_count"),
    (synthetic, {"node_count": 4.5}, "node_count"),
    (synthetic, {"n_categories": True}, "n_categories"),
    (two_node_scenario, {"n_categories": 2.0}, "n_categories"),
    (two_node_scenario, {"seed": 1.5}, "seed"),
    (profile, {"node": 1.0}, "node"),
    # true and false are bools only; records and profiles hold the types they name
    (RouterConfig, {"strict": 1}, "strict"),
    (ScheduleConfig, {"track_final": None}, "track_final"),
    (ScheduleConfig, {"explicit": 5}, "explicit"),
    (profile, {"interests": 1}, "interests"),
    (two_node_scenario, {"trace": None}, "trace"),
    (two_node_scenario, {"router": "epidemic"}, "router"),
    (two_node_scenario, {"schedule": None}, "schedule"),
    # the generator's work is bounded by its expected contact count: 6 pairs
    # x 10 s x 1e300 per second would append contacts until memory runs out
    (synthetic, {"contact_rate": 1e300}, "contact_rate"),
    (synthetic, {"node_count": 1500, "duration": 1e3, "contact_rate": 1e-2},
     "contact_rate"),
    # and by its pair count, since each pair draws at least once: 10,001,628 pairs
    (synthetic, {"node_count": 4473, "contact_rate": 1e-12}, "node_count"),
    # a scenario holds one profile per node, as a profile file does
    (two_node_scenario, {"profiles": (InterestProfile(1, (1, 0)),
                                      InterestProfile(1, (0, 1)))}, "profiles"),
    # a category count is bounded, so that no run or generator builds a bit
    # or a group for each of 10^8 categories
    (two_node_scenario, {"n_categories": MAX_CATEGORIES + 1, "profiles": ()},
     "n_categories"),
    (synthetic, {"n_categories": 10**8}, "n_categories"),
    # a real-valued setting takes a finite int or float, never a bool, a
    # string or None (where None has no meaning), nor an int past any float
    (RouterConfig, {"ttl": True}, "ttl"),
    (RouterConfig, {"threshold": "0.5"}, "threshold"),
    (RouterConfig, {"threshold": None}, "threshold"),
    (RouterConfig, {"ttl": 10**400}, "ttl"),
    (ScheduleConfig, {"count": 3, "interval": True}, "message_interval"),
    (ScheduleConfig, {"interval": "10"}, "message_interval"),
    (ScheduleConfig, {"count": 3, "interval": 10**400}, "message_interval"),
    (synthetic, {"interest_prob": True}, "interest_prob"),
    (synthetic, {"shared_interest_bias": True}, "shared_interest_bias"),
    (synthetic, {"contact_rate": "1"}, "contact_rate"),
    (synthetic, {"mean_contact_duration": None}, "mean_contact_duration"),
    (synthetic, {"duration": 10**400}, "duration"),
    # a scenario checks its explicit entries: a real time, integer ids
    (two_node_scenario, {"schedule": ScheduleConfig(explicit=(("5", 1, 1),))}, "schedule"),
    (two_node_scenario, {"schedule": ScheduleConfig(explicit=((5.0, 1, 1.5),))},
     "schedule"),
    (two_node_scenario, {"schedule": ScheduleConfig(explicit=((5.0, True, 1),))},
     "schedule"),
    # a schedule checks the shape of its explicit entries: tuples of three
    (ScheduleConfig, {"explicit": ((5.0, 1),)}, "explicit"),
    (ScheduleConfig, {"explicit": ((5.0, 1, 1, 0),)}, "explicit"),
    (ScheduleConfig, {"explicit": ((5.0,),)}, "explicit"),
    (ScheduleConfig, {"explicit": ([5.0, 1, 1],)}, "explicit"),
    # a schedule draws at most MAX_MESSAGES messages: 10^8 ran out of memory
    (ScheduleConfig, {"count": MAX_MESSAGES + 1}, "message_count"),
    # a setting that the record's other settings make inert is refused,
    # after every field's own rule, so that a bad field is still the one named
    (RouterConfig, {"kind": "epidemic", "strict": True}, "strict"),
    (RouterConfig, {"mode": "exact", "k_clusters": 3}, "k_clusters"),
    (ScheduleConfig, {"explicit": ((5.0, 1, 1),), "count": 3}, "message_count"),
    (ScheduleConfig, {"explicit": ((5.0, 1, 1),), "interval": 10.0}, "message_interval"),
    (RouterConfig, {"kind": "epidemic", "strict": True, "buffer_capacity": 0},
     "buffer_capacity"),
    (RouterConfig, {"k_clusters": 3, "ttl": -1.0}, "ttl"),
    (ScheduleConfig, {"explicit": ((5.0, 1, 1),), "count": 3, "track_final": 1},
     "track_final"),
    # k-means clusters the profiles, so a k-means scenario without any would
    # leave every group empty
    (two_node_scenario, {"profiles": (), "router": RouterConfig(mode="kmeans", k_clusters=5)},
     "profiles"),
])
def test_settings_rule_raises_where_built(build, change, named):
    """Each path that builds a record raises the same error, naming the
    same field."""
    raised = []
    for path in every_build(build, change):
        with pytest.raises(ValueError) as err:
            path()
        raised.append((type(err.value), str(err.value), getattr(err.value, "field", None)))
    error = InvalidParams if named else ValueError
    assert len(raised) == (2 if build is message else 3)
    assert raised == [(error, raised[0][1], named)] * len(raised)


FUZZ_VALUES = (NAN, INF, -INF, 0, -1, 2.5, True, 1e300, "1", None)
FUZZ_TRACE = parse_contact_trace("0 6 0 1\n2 9 1 2\n4 12 2 3\n7 15 0 3\n10 18 1 3\n"
                                 "# duration: 20\n")
FUZZ_PROFILE = InterestProfile(3, (1, 1))   # node 3's profile in the scenario
FUZZ_RECORDS = {
    "RouterConfig": RouterConfig(mode="kmeans", k_clusters=2, buffer_capacity=2,
                                 ttl=12.0, max_transfers_per_contact=3),
    "ScheduleConfig": ScheduleConfig(count=3, track_final=True),
    "SyntheticParams": SyntheticParams(node_count=4, duration=20.0, contact_rate=0.05,
                                       n_categories=2, interest_prob=0.5),
    "InterestProfile": FUZZ_PROFILE,
}
FUZZ_RECORDS["Scenario"] = Scenario(
    trace=FUZZ_TRACE, n_categories=2, seed=1,
    profiles=(InterestProfile(0, (1, 0)), InterestProfile(1, (0, 1)),
              InterestProfile(2, (1, 0)), FUZZ_PROFILE),
    router=FUZZ_RECORDS["RouterConfig"], schedule=FUZZ_RECORDS["ScheduleConfig"])
# the name an error gives a field, where it is not the field's own
RULE_NAMES = {"kind": "router", "count": "message_count", "interval": "message_interval"}
# the fields in the generator's expected contact count, whose bound names contact_rate
WORK_FIELDS = {"node_count", "duration", "contact_rate", "shared_interest_bias"}


@contextmanager
def time_limit(seconds: float):
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def fuzz_outcome(record: str, change: dict):
    """Build record `record` of the 4-node fuzz scenario with `change`, then
    the scenario, and run it: the field an InvalidParams names, None for a
    run whose outputs are finite, or what else happened."""
    scenario = FUZZ_RECORDS["Scenario"]
    try:
        with time_limit(5.0):
            fuzzed = FUZZ_RECORDS[record]._replace(**change)
            if record == "Scenario":
                scenario = fuzzed
            elif record == "InterestProfile":
                scenario = scenario._replace(profiles=scenario.profiles[:3] + (fuzzed,))
            elif record == "SyntheticParams":
                trace, profiles = generate_synthetic_trace(fuzzed, seed=1)
                scenario = scenario._replace(trace=trace, profiles=tuple(profiles),
                                             n_categories=fuzzed.n_categories)
            else:
                key = "router" if record == "RouterConfig" else "schedule"
                scenario = scenario._replace(**{key: fuzzed})
            result = run(scenario)
    except InvalidParams as exc:
        return exc.field
    except Exception as exc:   # reported, not raised, so that every case is listed
        return repr(exc)
    numbers = [value for value in build_report(result, "fuzz") if isinstance(value, float)]
    numbers += [t for r in result.records
                for t in (r.created_at, r.group_delivered_at, r.final_delivered_at)
                if t is not None]
    return None if all(map(math.isfinite, numbers)) else f"not finite: {numbers}"


@pytest.mark.parametrize("record", sorted(FUZZ_RECORDS))
def test_fuzzed_record_is_named_or_runs(record):
    """Every field of each self-checking record set to NaN, +-inf, 0, -1,
    2.5, True, 1e300, "1" and None, one at a time and then two or three at
    once by a seeded draw: building it raises InvalidParams naming a field it
    set, or the 4-node scenario runs within the time limit to finite outputs."""
    fields = FUZZ_RECORDS[record]._fields
    rng = random.Random(22)
    changes = [{field: value} for field in fields for value in FUZZ_VALUES]
    changes += [{field: rng.choice(FUZZ_VALUES)
                 for field in rng.sample(fields, rng.randint(2, min(3, len(fields))))}
                for _ in range(60)]
    wrong = []
    for change in changes:
        named = {RULE_NAMES.get(field, field) for field in change}
        if record == "ScheduleConfig":
            named.add("schedule")   # entries or an interval that outlast the trace
        if record == "SyntheticParams" and WORK_FIELDS & set(change):
            named.add("contact_rate")
        if record == "InterestProfile" and "node" in change:
            named.add("profiles")   # node 0 has a profile in the scenario already
        outcome = fuzz_outcome(record, change)
        if outcome is not None and outcome not in named:
            wrong.append((change, outcome))
    assert wrong == []


class TestRunBasics:
    def test_mid_interval_creation_delivers_immediately(self):
        sc = scenario("0 10 1 2\n", {1: (0,), 2: (1,)}, 1,
                      ScheduleConfig(explicit=((5.0, 1, 1),)))
        rec = run(sc).records[0]
        assert rec.group_delivered_at == 5.0
        assert rec.hops_at_delivery == 1
        assert rec.first_receiver == 2

    def test_source_in_own_group(self):
        sc = scenario("0 10 1 2\n", {1: (1,), 2: (1,)}, 1,
                      ScheduleConfig(explicit=((3.0, 1, 1),)))
        rec = run(sc).records[0]
        assert rec.group_delivered_at == 3.0
        assert rec.hops_at_delivery == 0
        assert rec.first_receiver == 1

    def test_empty_destination_group(self):
        sc = scenario("0 10 1 2\n", {1: (0,), 2: (0,)}, 1,
                      ScheduleConfig(explicit=((3.0, 1, 1),)))
        rec = run(sc).records[0]
        assert rec.group_delivered_at is None
        assert rec.forwards_total == 0
        assert rec.group_size == 0

    def test_creation_after_contact_not_delivered(self):
        sc = scenario("0 10 1 2\n# duration: 50\n", {1: (0,), 2: (1,)}, 1,
                      ScheduleConfig(explicit=((20.0, 1, 1),)))
        rec = run(sc).records[0]
        assert rec.group_delivered_at is None

    def test_creation_at_contact_end_not_delivered(self):
        # contact_end sorts before message_creation at the same timestamp
        sc = scenario("0 10 1 2\n# duration: 50\n", {1: (0,), 2: (1,)}, 1,
                      ScheduleConfig(explicit=((10.0, 1, 1),)))
        assert run(sc).records[0].group_delivered_at is None

    def test_creation_at_contact_start_delivered(self):
        sc = scenario("10 20 1 2\n", {1: (0,), 2: (1,)}, 1,
                      ScheduleConfig(explicit=((10.0, 1, 1),)))
        assert run(sc).records[0].group_delivered_at == 10.0

    def test_bidirectional_disjoint_forwards(self):
        # each endpoint holds a message deliverable to the other: both
        # directions of the same contact forward
        sc = scenario("5 6 1 2\n", {1: (1, 0), 2: (0, 1)}, 2,
                      ScheduleConfig(explicit=((1.0, 1, 2), (2.0, 2, 1))))
        res = run(sc)
        assert res.records[0].group_delivered_at == 5.0
        assert res.records[1].group_delivered_at == 5.0
        assert res.counts.forwards == 2

    def test_profile_arity_mismatch_rejected(self):
        with pytest.raises(InvalidParams):
            scenario("0 10 1 2\n", {1: (0, 1), 2: (1, 0)}, 3, ScheduleConfig(count=0))


class TestRelay:
    def test_same_instant_multi_hop_relay(self):
        sc = scenario("0 10 1 2\n0 10 2 3\n", {1: (0,), 2: (0,), 3: (0,)}, 1,
                      ScheduleConfig(explicit=((5.0, 1, 1),)),
                      router=RouterConfig(kind="epidemic", buffer_capacity=None))
        res = run(sc)
        assert res.first_receipts[0] == {1: 5.0, 2: 5.0, 3: 5.0}

    def test_same_instant_backward_relay(self):
        # contact (1, 2) sorts before (2, 3), so the pass that carries the
        # message from 3 to 2 has already visited (1, 2): only a second pass
        # at the same instant takes it on to node 1
        sc = scenario("0 10 1 2\n0 10 2 3\n", {1: (1,), 2: (0,), 3: (0,)}, 1,
                      ScheduleConfig(explicit=((5.0, 3, 1),)),
                      router=RouterConfig(kind="epidemic", buffer_capacity=None))
        res = run(sc)
        assert res.first_receipts[0] == {1: 5.0, 2: 5.0, 3: 5.0}
        rec = res.records[0]
        assert (rec.first_receiver, rec.group_delivered_at, rec.hops_at_delivery) == \
            (1, 5.0, 2)

    def test_group_member_keeps_relaying_within_group(self):
        # source -> member -> member chain; non-members never carry
        sc = scenario("0 1 1 2\n2 3 2 3\n4 5 3 4\n",
                      {1: (0,), 2: (1,), 3: (1,), 4: (0,)}, 1,
                      ScheduleConfig(explicit=((0.0, 1, 1),)))
        res = run(sc)
        assert set(res.first_receipts[0]) == {1, 2, 3}

    def test_evicted_message_not_reaccepted(self):
        sc = scenario("2 3 1 2\n5 6 1 2\n7 8 2 3\n",
                      {1: (0,), 2: (0,), 3: (0,)}, 1,
                      ScheduleConfig(explicit=((1.0, 1, 1), (4.0, 2, 1))),
                      router=RouterConfig(kind="epidemic", buffer_capacity=1))
        res = run(sc)
        # node 2 received message 0 at t=2, evicted it at t=4 when it created
        # message 1, and must not take message 0 again at the second contact
        assert res.first_receipts[0] == {1: 1.0, 2: 2.0}
        assert res.records[0].forwards_total == 1
        # node 3 therefore only ever sees message 1
        assert 3 not in res.first_receipts[0]
        assert res.first_receipts[1][3] == 7.0


class TestStrictMode:
    VECTORS = {1: (0, 0), 2: (0, 1), 3: (1, 0)}
    SCHEDULE = ScheduleConfig(explicit=((1.0, 1, 1), (2.0, 1, 2)))
    TRACE = "5 6 1 2\n"

    def test_default_skips_and_forwards_deliverable(self):
        sc = scenario(self.TRACE, self.VECTORS, 2, self.SCHEDULE,
                      router=RouterConfig(kind="cluster", mode="exact", strict=False))
        res = run(sc)
        assert res.records[0].group_delivered_at is None
        assert res.records[1].group_delivered_at == 5.0
        assert res.counts.forwards == 1
        assert res.counts.closes == 0

    def test_strict_closes_contact_before_any_forward(self):
        sc = scenario(self.TRACE, self.VECTORS, 2, self.SCHEDULE,
                      router=RouterConfig(kind="cluster", mode="exact", strict=True))
        res = run(sc)
        assert res.records[0].group_delivered_at is None
        assert res.records[1].group_delivered_at is None
        assert res.counts.forwards == 0
        assert res.counts.closes == 1

    def test_closed_contact_reopens_at_next_interval(self):
        sc = scenario("5 6 1 2\n8 9 1 2\n", {1: (0, 0), 2: (0, 1), 3: (1, 0)}, 2,
                      ScheduleConfig(explicit=((1.0, 1, 1), (7.0, 1, 2))),
                      router=RouterConfig(kind="cluster", mode="exact", strict=True))
        res = run(sc)
        # node 1 offers in receipt order, so each interval offers message 0
        # (received at t=1) before message 1 (t=7); node 2 is outside message
        # 0's group, so strict mode closes both intervals at that first offer
        # and message 1 is never offered
        assert res.counts.closes == 2
        assert res.records[1].group_delivered_at is None

    def test_next_contact_after_a_close_exchanges_again(self):
        sc = scenario("5 6 1 2\n8 12 1 2\n", self.VECTORS, 2,
                      ScheduleConfig(explicit=((1.0, 1, 1), (9.0, 1, 2))),
                      router=RouterConfig(kind="cluster", mode="exact", strict=True,
                                          ttl=5.0))
        res = run(sc)
        # message 0 closes the first interval and has expired by the second,
        # which opens with nothing to offer; message 1, created during it,
        # queues it, and the close left by the first interval must not hold
        assert (res.counts.closes, res.counts.expired, res.counts.forwards) == (1, 1, 1)
        assert res.records[1].group_delivered_at == 9.0


class TestBufferComposition:
    def test_forward_into_full_buffer_evicts_oldest(self):
        sc = scenario("4 5 1 2\n6 7 1 2\n", {1: (0,), 2: (1,)}, 1,
                      ScheduleConfig(explicit=((1.0, 1, 1), (2.0, 1, 1), (5.5, 1, 1))),
                      router=RouterConfig(buffer_capacity=2))
        res = run(sc)
        # node 2 takes messages 0 and 1 at t=4 (buffer full), then message 2
        # at t=6 evicts message 0 (oldest at node 2, id tie-break)
        assert res.counts.drops >= 1
        assert res.records[2].group_delivered_at == 6.0

    def test_transfer_budget_limits_forwards_per_contact(self):
        sc = scenario("4 5 1 2\n", {1: (0,), 2: (1,)}, 1,
                      ScheduleConfig(explicit=((1.0, 1, 1), (2.0, 1, 1))),
                      router=RouterConfig(max_transfers_per_contact=1))
        res = run(sc)
        assert res.counts.forwards == 1
        assert res.records[0].group_delivered_at == 4.0
        assert res.records[1].group_delivered_at is None

    def test_transfer_budget_is_whole_again_at_next_contact(self):
        sc = scenario("4 5 1 2\n6 7 1 2\n8 9 1 2\n", {1: (0,), 2: (1,)}, 1,
                      ScheduleConfig(explicit=((1.0, 1, 1), (2.0, 1, 1), (3.0, 1, 1),
                                               (6.5, 1, 1))),
                      router=RouterConfig(max_transfers_per_contact=2))
        res = run(sc)
        # two forwards per interval: the third message waits for the second,
        # which spends its budget on it and on the fourth, created during it
        assert [r.group_delivered_at for r in res.records] == [4.0, 4.0, 6.0, 6.5]
        sc = sc._replace(router=RouterConfig(max_transfers_per_contact=1))
        assert [r.group_delivered_at for r in run(sc).records] == [4.0, 6.0, 8.0, None]

    def test_ttl_expiry_purges_before_exchange(self):
        sc = scenario("8 9 1 2\n", {1: (0,), 2: (1,)}, 1,
                      ScheduleConfig(explicit=((1.0, 1, 1),)),
                      router=RouterConfig(ttl=5.0))
        res = run(sc)
        assert res.records[0].group_delivered_at is None
        assert res.counts.expired == 1

    def test_ttl_copy_lapsed_where_nothing_is_offered_counts_at_the_end(self, monkeypatch):
        """Node 2 is outside message 0's group, so the contact at t=8 has
        nothing to offer and purges no buffer. Both copies lapse while
        stored, at node 1 (t=6) and node 3 (t=25), and both count when the
        run ends with a purge of every buffer at the duration, t=30."""
        log = []
        insert, purge_expired = Buffer.insert, Buffer.purge_expired

        def logged_insert(self, message, now, hops=0):
            log.append(("insert", now))
            return insert(self, message, now, hops)

        def logged_purge(self, now, ttl):
            log.append(("purge", now))
            return purge_expired(self, now, ttl)
        monkeypatch.setattr(Buffer, "insert", logged_insert)
        monkeypatch.setattr(Buffer, "purge_expired", logged_purge)
        sc = scenario("# duration: 30\n8 9 1 2\n", {1: (1,), 2: (0,), 3: (1,)}, 1,
                      ScheduleConfig(explicit=((1.0, 1, 1), (20.0, 3, 1))),
                      router=RouterConfig(ttl=5.0))
        res = run(sc)
        assert log == [("insert", 1.0), ("insert", 20.0)] + [("purge", 30.0)] * 3
        assert res.counts.expired == 2
        assert res.counts.forwards == 0

    def test_ttl_alive_messages_still_flow(self):
        sc = scenario("4 5 1 2\n", {1: (0,), 2: (1,)}, 1,
                      ScheduleConfig(explicit=((1.0, 1, 1),)),
                      router=RouterConfig(ttl=5.0))
        assert run(sc).records[0].group_delivered_at == 4.0


def replay_counting_held(monkeypatch, sc: Scenario):
    """`run(sc)`, and how many times it read a buffer's `held` set."""
    reads = []

    class CountedBuffer(Buffer):
        @property
        def held(self):
            reads.append(self)
            return self.__dict__["held"]

        @held.setter
        def held(self, value):
            self.__dict__["held"] = value

    monkeypatch.setattr(sim_engine, "Buffer", CountedBuffer)
    return run(sc), len(reads)


class TestSettling:
    """A replay stops once every created message has reached every node
    it is offered to and no creation is left: no later contact can
    forward anything (sim_engine's module docstring)."""

    # node 1's message reaches nodes 2, 3 and 4 by t=12 of 100
    TRACE = "# duration: 100\n0 10 1 2\n5 15 2 3\n12 20 3 4\n"

    @pytest.mark.parametrize("vectors, router", [
        ({n: (0,) for n in range(1, 5)}, RouterConfig(kind="epidemic", buffer_capacity=None)),
        # the source is outside the group {2, 3}: settled at t=5
        ({1: (0,), 2: (1,), 3: (1,), 4: (0,)}, RouterConfig()),
        # an empty group: settled at the creation
        ({n: (0,) for n in range(1, 5)}, RouterConfig()),
        # strict, and every node a member
        ({n: (1,) for n in range(1, 5)}, RouterConfig(strict=True)),
    ], ids=["epidemic", "source-outside-group", "empty-group", "strict"])
    def test_contacts_after_settling_change_nothing(self, monkeypatch, vectors, router):
        schedule = ScheduleConfig(explicit=((1.0, 1, 1),))
        base, base_reads = replay_counting_held(
            monkeypatch, scenario(self.TRACE, vectors, 1, schedule, router))
        longer, longer_reads = replay_counting_held(
            monkeypatch, scenario(self.TRACE + "30 40 1 4\n50 60 2 4\n", vectors, 1,
                                  schedule, router))
        assert longer.records == base.records
        assert longer.counts == base.counts._replace(contacts_processed=5)
        assert longer_reads == base_reads

    def test_no_message_replays_no_contact(self, monkeypatch):
        sc = scenario(self.TRACE, {n: (1,) for n in range(1, 5)}, 1, ScheduleConfig(count=0))
        res, reads = replay_counting_held(monkeypatch, sc)
        assert (res.records, tuple(res.counts), reads) == ((), (3, 0, 0, 0, 0), 0)

    def test_source_outside_its_group_still_reaches_the_whole_group(self):
        sc = scenario(self.TRACE, {1: (0,), 2: (1,), 3: (1,), 4: (0,)}, 1,
                      ScheduleConfig(explicit=((1.0, 1, 1),)))
        assert run(sc).first_receipts[0] == {1: 1.0, 2: 1.0, 3: 5.0}

    @pytest.mark.parametrize("trace", ["0 10 1 2\n20 30 1 2\n", "2 10 1 2\n20 30 1 2\n"],
                             ids=["settled-at-a-creation", "settled-at-a-contact"])
    def test_message_after_settling_is_delivered(self, trace):
        sc = scenario(trace, {1: (1,), 2: (1,)}, 1,
                      ScheduleConfig(explicit=((1.0, 1, 1), (25.0, 2, 1))),
                      router=RouterConfig(kind="epidemic", buffer_capacity=None))
        res = run(sc)
        assert res.first_receipts[1] == {2: 25.0, 1: 25.0}
        assert res.records[1].group_delivered_at == 25.0

    def test_strict_replay_with_a_non_member_does_not_settle(self):
        # the group {2} holds the message from t=1, but strict mode offers
        # it to node 3 as well, and that offer closes the contact at t=20
        sc = scenario("0 10 1 2\n20 30 1 3\n", {1: (0,), 2: (1,), 3: (0,)}, 1,
                      ScheduleConfig(explicit=((1.0, 1, 1),)), router=RouterConfig(strict=True))
        res = run(sc)
        assert res.first_receipts[0] == {1: 1.0, 2: 1.0}
        assert res.counts.closes == 1


class TestInvariants:
    def epidemic_scenario(self, seed=0):
        text = ("0 10 1 2\n3 20 2 3\n5 8 1 4\n12 18 3 4\n15 30 1 3\n"
                "22 28 2 4\n25 40 4 5\n33 38 1 5\n")
        return scenario(text, {n: ((1,) if n % 2 else (0,)) for n in range(1, 6)}, 1,
                        ScheduleConfig(count=6),
                        router=RouterConfig(kind="epidemic", buffer_capacity=None),
                        seed=seed)

    def test_conservation_forwards_equal_receipts(self):
        for seed in range(5):
            res = run(self.epidemic_scenario(seed))
            for rec in res.records:
                receipts = res.first_receipts[rec.message_id]
                assert rec.forwards_total == len(receipts) - 1

    def test_causality_receipts_after_creation(self):
        res = run(self.epidemic_scenario(3))
        for rec in res.records:
            for t in res.first_receipts[rec.message_id].values():
                assert t >= rec.created_at
            if rec.group_delivered_at is not None:
                assert rec.group_delivered_at >= rec.created_at

    def test_group_delivery_is_min_member_receipt(self):
        res = run(self.epidemic_scenario(1))
        groups = res.groups_by_category
        for rec in res.records:
            receipts = res.first_receipts[rec.message_id]
            member_times = [receipts[n] for n in groups[rec.category] if n in receipts]
            if rec.group_delivered_at is None:
                assert not member_times
            else:
                assert rec.group_delivered_at == min(member_times)

    def test_first_receipts_match_oracle(self):
        sc = self.epidemic_scenario(2)
        res = run(sc)
        for rec in res.records:
            want = earliest_arrival(sc.trace.events, rec.source, rec.created_at)
            assert res.first_receipts[rec.message_id] == want

    def test_determinism_byte_identical(self):
        sc = self.epidemic_scenario(4)
        a, b = run(sc), run(sc)
        assert a.records == b.records
        assert per_message_csv(a.records) == per_message_csv(b.records)
        assert a.counts == b.counts
        assert a.first_receipts == b.first_receipts

    def test_result_carries_settings_not_scenario(self):
        sc = self.epidemic_scenario(4)
        res = run(sc)
        assert "ContactTrace(" not in repr(res)
        assert (res.router, res.n_categories, res.seed) == (sc.router, 1, 4)


class TestKmeansMode:
    def test_clustering_snapshot_and_groups(self):
        vectors = {1: (1, 0), 2: (1, 0), 3: (0, 1), 4: (0, 1)}
        sc = scenario("0 10 1 3\n", vectors, 2, ScheduleConfig(count=0),
                      router=RouterConfig(mode="kmeans"))
        res = run(sc)
        assert res.clustering is not None
        assert res.clustering.k == 2
        profiles = sc.profiles
        for cat in (1, 2):
            expect = resolve_group_kmeans(res.clustering, profiles, cat)
            assert res.groups_by_category[cat] == expect.members

    def test_k_clamped_to_distinct_vectors(self):
        vectors = {1: (1, 0, 0), 2: (1, 0, 0), 3: (0, 1, 0)}
        sc = scenario("0 10 1 2\n", vectors, 3, ScheduleConfig(count=0),
                      router=RouterConfig(mode="kmeans"))
        res = run(sc)
        assert res.clustering.k == 2

    def test_track_final_destination(self):
        sc = scenario("0 10 1 2\n0 10 2 3\n", {1: (0,), 2: (1,), 3: (1,)}, 1,
                      ScheduleConfig(explicit=((2.0, 1, 1),), track_final=True),
                      seed=5)
        rec = run(sc).records[0]
        assert rec.final_destination in (2, 3)
        assert rec.final_delivered_at == 2.0


def matrix_scenario(i: int) -> Scenario:
    """Scenario i of the golden matrix: the settings cycle with different
    periods, so the 72 scenarios mix every router, group mode, strictness,
    budget, TTL and buffer size with the others."""
    rng = random.Random(i)
    kind = ("cluster", "epidemic")[i % 2]
    router = RouterConfig(
        kind=kind,
        mode=("exact", "kmeans")[i // 2 % 2],
        strict=kind == "cluster" and i // 4 % 2 == 1,
        buffer_capacity=(1, 2, 5, 50, None)[i % 5],
        max_transfers_per_contact=(None, 1, 2, 5)[i // 3 % 4],
        ttl=(None, 30.0, 120.0)[i // 7 % 3],
    )
    n = rng.randint(1, 4)
    nodes = rng.randint(6, 20)
    params = SyntheticParams(node_count=nodes, duration=400.0,
                             contact_rate=150.0 / (nodes * (nodes - 1) / 2 * 400.0),
                             n_categories=n, interest_prob=0.4,
                             mean_contact_duration=rng.choice((5.0, 40.0)))
    trace, profiles = generate_synthetic_trace(params, i)
    return Scenario(trace=trace, profiles=tuple(profiles), n_categories=n,
                    router=router, schedule=ScheduleConfig(count=rng.randint(5, 25)),
                    seed=i)


# sha256 of the golden matrix's outcomes; any change in exchange order,
# eviction, budgets, strict closes or hop counts moves it
GOLDEN_MATRIX_SHA256 = "a6676613fb2473698206fb473effeb01e92230ce8dd011e250965466578a11ab"


def test_golden_matrix_unchanged():
    digest = hashlib.sha256()
    for i in range(72):
        res = run(matrix_scenario(i))
        receipts = {mid: sorted(r.items()) for mid, r in res.first_receipts.items()}
        c = res.counts
        digest.update(repr((res.records, sorted(receipts.items()),
                            c.forwards, c.drops, c.closes)).encode())
    assert digest.hexdigest() == GOLDEN_MATRIX_SHA256


# sha256 of the golden matrix's `counts.expired`, scenario by scenario: the
# digest above leaves it out, so a purge that moved would go unseen there
GOLDEN_MATRIX_EXPIRED_SHA256 = "c2a96688c851a9aa1cfb31df3b398e539c1b53bff239b9ba000b65b69eaba9d4"


def test_golden_matrix_expired_unchanged():
    expired = [run(matrix_scenario(i)).counts.expired for i in range(72)]
    assert sum(expired) == 2633
    assert hashlib.sha256(repr(expired).encode()).hexdigest() == GOLDEN_MATRIX_EXPIRED_SHA256


def benchmark_scenarios(name: str) -> list[Scenario]:
    """The sweep points of benchmark workload `name` at seed 1, built
    in-process from its entry in `perfbench/workloads.py` through the CLI's
    config record. The conference-file trace and profiles go through their
    file forms, as the benchmark replays the files that gen-trace wrote."""
    # perfbench is a directory of scripts, not a package
    workloads = runpy.run_path(str(Path(__file__).parents[1] / "perfbench" / "workloads.py"))
    workload = workloads["WORKLOADS"][name]
    points = workload.points(1)
    config = RunConfig(categories=[n for n, _ in points], seeds=[seed for _, seed in points],
                       synthetic=workload.network, **workload.settings)
    file_inputs = None
    if workload.from_file:
        generated = build_scenario(config, *points[0], None)
        file_inputs = (parse_contact_trace(serialize_contact_trace(generated.trace)),
                       parse_interest_profiles(serialize_profiles(generated.profiles)))
        config = config._replace(synthetic=None, trace="trace.txt", profiles="profiles.txt")
    return [build_scenario(config, n, seed, file_inputs) for n, seed in points]


@pytest.mark.parametrize("name, expected", [
    ("flood-100", [(5098, 396, 0, 0, 0)]),
    ("conference-file", [(14071, 173, 0, 193, 0)]),
    ("bounded-sweep", [(1472, 1124, 555, 510, 0), (1544, 1109, 476, 542, 0),
                       (1514, 1156, 383, 721, 0), (1550, 1381, 492, 758, 0)]),
])
def test_benchmark_workload_counts_unchanged(name, expected):
    """The replay's counts on every sweep point of each benchmark workload
    at seed 1 (contacts processed, forwards, drops, expired, closes): a
    change that claims speed must do the same work, and these say so on
    every run of the suite, not only in a traced benchmark run."""
    counts = [run(sc).counts for sc in benchmark_scenarios(name)]
    assert [tuple(c) for c in counts] == expected


def wide_kmeans_scenario(i: int) -> Scenario:
    """Scenario i of the wide k-means matrix: the cluster router in kmeans
    mode over 5 to 30 categories and 20 to 60 nodes, k the category count
    (odd i) or drawn up to 40 (even i), both clamped by the engine to the
    distinct vectors, at thresholds 0.3 to 0.8. Sparse interests make
    many vectors equidistant from several centroids."""
    rng = random.Random(30_000 + i)
    n = rng.randint(5, 30)
    nodes = rng.randint(20, 60)
    router = RouterConfig(kind="cluster", mode="kmeans", strict=i % 3 == 2,
                          threshold=rng.choice((0.3, 0.4, 0.5, 0.6, 0.7, 0.8)),
                          k_clusters=rng.randint(2, 40) if i % 2 == 0 else None)
    params = SyntheticParams(node_count=nodes, duration=300.0,
                             contact_rate=150.0 / (nodes * (nodes - 1) / 2 * 300.0),
                             n_categories=n, interest_prob=rng.choice((0.1, 0.3, 0.5)),
                             mean_contact_duration=20.0)
    trace, profiles = generate_synthetic_trace(params, i)
    return Scenario(trace=trace, profiles=tuple(profiles), n_categories=n,
                    router=router, schedule=ScheduleConfig(count=rng.randint(5, 20)),
                    seed=i)


# sha256 of the wide k-means matrix's outcomes: any change in which centroid
# a node joins, in the k used or in the groups read off the centroids moves it
WIDE_KMEANS_MATRIX_SHA256 = "048d9d9670186061c14d55e5a0a3b4935e0df491c9d6178661471e36759e9921"


def test_wide_kmeans_matrix_unchanged():
    digest = hashlib.sha256()
    for i in range(48):
        res = run(wide_kmeans_scenario(i))
        digest.update(repr((res.records, sorted(res.groups_by_category.items()),
                            sorted(res.group_fallbacks.items()),
                            dump_clustering(res.clustering))).encode())
    assert digest.hexdigest() == WIDE_KMEANS_MATRIX_SHA256


def seeded_scenario(i: int) -> Scenario:
    """Scenario i of the reference-replay set: small networks with short
    and long contacts, every router setting drawn at random, so strict
    closes, spent budgets, evictions, TTL purges and same-instant relays
    all occur."""
    rng = random.Random(10_000 + i)
    kind = rng.choice(("cluster", "epidemic"))
    router = RouterConfig(
        kind=kind,
        mode=rng.choice(("exact", "kmeans")),
        strict=kind == "cluster" and rng.random() < 0.4,
        threshold=rng.choice((0.3, 0.5, 1.0)),
        buffer_capacity=rng.choice((1, 2, 3, 5, 10, 50, None)),
        max_transfers_per_contact=rng.choice((None, 1, 2, 3, 4, 5)),
        ttl=rng.choice((None, 15.0, 60.0, 200.0)),
    )
    n = rng.randint(1, 4)
    nodes = rng.randint(4, 14)
    contacts = rng.uniform(60, 200)
    params = SyntheticParams(node_count=nodes, duration=300.0,
                             contact_rate=contacts / (nodes * (nodes - 1) / 2 * 300.0),
                             n_categories=n, interest_prob=rng.uniform(0.2, 0.7),
                             mean_contact_duration=rng.choice((2.0, 20.0, 80.0)))
    trace, profiles = generate_synthetic_trace(params, i)
    schedule = ScheduleConfig(count=rng.randint(1, 30),
                              interval=rng.choice((None, None, 5.0, 9.0)),
                              track_final=rng.random() < 0.5)
    return Scenario(trace=trace, profiles=tuple(profiles), n_categories=n,
                    router=router, schedule=schedule, seed=i)


def whole_second_scenario(i: int) -> Scenario:
    """Scenario i of the tie set: seeded scenario 320 + i with contact times
    rounded to whole seconds and a whole-second message interval, so that
    contact ends, creations and contact starts often share an instant."""
    sc = seeded_scenario(320 + i)
    lines = [f"# duration: {sc.trace.duration!r}", f"# nodes: {sc.trace.node_count}"]
    lines += [f"{round(s)} {round(e)} {a} {b}" for s, e, a, b in sc.trace.events
              if round(s) < round(e)]
    trace = parse_contact_trace("\n".join(lines) + "\n")
    interval = random.Random(20_000 + i).choice((1.0, 2.0, 3.0, 5.0, 7.0))
    return sc._replace(trace=trace, schedule=sc.schedule._replace(interval=interval))


def test_replay_matches_reference_replay():
    """The worklist replay against the full-pass reference: records,
    first receipts in receipt order, forwards, drops, closes and expired
    copies agree on the golden matrix, on 320 seeded scenarios and on 100
    with whole-second times, where contacts end at the instant others
    start or messages appear. Enough of them settle, after a creation or
    after a contact, while contacts are left, that the replay's early end
    is held to the reference too."""
    totals, settled = Counter(), Counter()
    tied = [whole_second_scenario(i) for i in range(100)]
    for sc in tied:
        ends = {e for _, e, _, _ in sc.trace.events}
        totals.update(end_meets_start=len(ends & {s for s, _, _, _ in sc.trace.events}),
                      end_meets_creation=len(ends & {t for t, _, _ in build_schedule(sc)}))
    scenarios = [matrix_scenario(i) for i in range(72)]
    scenarios += [seeded_scenario(i) for i in range(320)] + tied
    for i, sc in enumerate(scenarios):
        res, ref = run(sc), reference_replay(sc)
        c = res.counts
        assert res.records == ref.records, i
        assert [list(res.first_receipts[m].items()) for m in range(len(res.records))] == \
            [list(r.items()) for r in ref.first_receipts], i
        assert (c.forwards, c.drops, c.closes, c.expired) == \
            (ref.forwards, ref.drops, ref.closes, ref.expired), i
        totals.update(forwards=c.forwards, drops=c.drops, closes=c.closes, expired=c.expired,
                      finals=sum(r.final_delivered_at is not None for r in res.records))
        settled[ref.settled] += 1
    assert min(totals.values()) > 0, totals
    assert min(totals["end_meets_start"], totals["end_meets_creation"]) >= 100, totals
    # 27 and 57 of the 492 replays settle with contacts left to skip
    assert settled["creation"] >= 25 and settled["contact"] >= 50, settled


def test_expired_with_unlimited_buffers_counts_every_copy_of_a_lapsed_message():
    """Unlimited buffers evict nothing, so every copy stays stored until a
    purge: `expired` is the number of receipts of the messages created
    more than the TTL before the trace's duration, whatever the router,
    strictness and budgets that the seeded scenarios draw."""
    lapsed_total = 0
    for i in range(60):
        sc = seeded_scenario(i)
        ttl = (15.0, 60.0, 200.0)[i % 3]
        res = run(sc._replace(router=sc.router._replace(buffer_capacity=None, ttl=ttl)))
        lapsed = sum(len(res.first_receipts[r.message_id]) for r in res.records
                     if sc.trace.duration - r.created_at > ttl)
        assert res.counts.expired == lapsed, i
        lapsed_total += lapsed
    assert lapsed_total > 0


def test_collector_finds_no_cycles_in_a_replay():
    """The CLI runs with the cyclic collector off: parsing, generating and
    replaying the golden matrix must leave no reference cycle behind, or
    memory would grow with every sweep point."""
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        for i in range(72):
            sc = matrix_scenario(i)
            trace = parse_contact_trace(serialize_contact_trace(sc.trace))
            profiles = parse_interest_profiles(serialize_profiles(sc.profiles))
            run(sc._replace(trace=trace, profiles=tuple(profiles)))
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()


def test_no_node_receives_a_message_twice(monkeypatch):
    """Every forward adds a node to the message's receipt log: a forward to
    a node already in it would count once more in `forwards` and not in
    the log. Buffers rely on this and do not check for duplicates, so the
    check is made here, at each insert, where a second copy would
    otherwise be forwarded back and forth without end."""

    class CheckedBuffer(Buffer):
        def insert(self, message, now, hops=0):
            held = [entry.message_id for entry in self.in_exchange_order()]
            assert message.id not in held, f"message {message.id} inserted twice"
            return super().insert(message, now, hops)

    monkeypatch.setattr(sim_engine, "Buffer", CheckedBuffer)
    for i in range(72):
        res = run(matrix_scenario(i))
        assert res.counts.forwards == sum(r.forwards_total for r in res.records), i


@pytest.mark.parametrize("kind", ["cluster", "epidemic"])
def test_repeat_meeting_reads_no_buffer(monkeypatch, kind):
    """Summary vectors: two nodes that already hold each other's messages
    meet again, and neither buffer is read, since neither peer needs an id
    the other holds."""
    reads = []
    order = Buffer.in_exchange_order

    def counted(self):
        reads.append(self)
        return order(self)

    monkeypatch.setattr(Buffer, "in_exchange_order", counted)
    results = []
    for trace in ("0 10 0 1\n", "0 10 0 1\n20 30 0 1\n"):
        reads.clear()
        sc = scenario(trace, {0: (1,), 1: (1,)}, 1,
                      ScheduleConfig(explicit=((1.0, 0, 1), (2.0, 1, 1))),
                      router=RouterConfig(kind=kind))
        results.append((run(sc), len(reads)))
    (once, reads_once), (twice, reads_twice) = results
    assert once.counts.forwards == twice.counts.forwards == 2
    assert twice.counts.contacts_processed == 2
    assert reads_once > 0 and reads_twice == reads_once


def test_cluster_rule_sees_only_wanted_offers(monkeypatch):
    """Offer sets: under the epidemic rule and the non-strict cluster rule
    every offer is forwarded, so neither rule is called; the strict rule is
    asked about every offer, answers FORWARD once per forward and CLOSE
    once per closed contact, and never SKIP."""
    answers = []

    def recorded(rule):
        def spy(*args, **kwargs):
            answers.append(rule(*args, **kwargs))
            return answers[-1]
        return spy

    for name in ("interest_cluster_transfer", "epidemic_decide"):
        monkeypatch.setattr(sim_engine, name, recorded(getattr(sim_engine, name)))
    closes = 0
    for i in range(72):
        sc = matrix_scenario(i)
        answers.clear()
        res = run(sc)
        if not sc.router.strict:
            assert not answers, i
            continue
        tally = Counter(answers)
        assert tally[ForwardDecision.FORWARD] == res.counts.forwards, i
        assert tally[ForwardDecision.CLOSE_CONNECTION] == res.counts.closes, i
        assert tally[ForwardDecision.SKIP] == 0, i
        closes += res.counts.closes
    assert closes > 0
