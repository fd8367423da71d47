import csv
import io

from dtn_cluster_sim.metrics import (PER_MESSAGE_COLUMNS, MetricsReport, avg_cost,
                                     avg_delay, avg_hops, build_report,
                                     delivery_ratio, per_message_csv, resource_used,
                                     summary_header, summary_row)
from dtn_cluster_sim.sim_engine import DeliveryRecord, run
from dtn_cluster_sim.trace_files import parse_contact_trace
from dtn_cluster_sim.trace_model import InterestProfile, RouterConfig, Scenario, ScheduleConfig


def record(mid=0, created=0.0, delivered=None, hops=None, forwards=0, receiver=None,
           group_size=1, final_at=None):
    return DeliveryRecord(message_id=mid, source=1, category=1, created_at=created,
                          group_size=group_size, group_delivered_at=delivered,
                          first_receiver=receiver, hops_at_delivery=hops,
                          forwards_total=forwards, final_delivered_at=final_at)


class TestRatios:
    def test_three_of_four(self):
        records = [record(i, delivered=1.0 if i < 3 else None, hops=0) for i in range(4)]
        assert delivery_ratio(records) == 0.75

    def test_all_delivered(self):
        records = [record(i, delivered=1.0, hops=0) for i in range(5)]
        assert delivery_ratio(records) == 1.0

    def test_no_messages(self):
        assert delivery_ratio([]) is None


class TestAvgDelay:
    def test_delivered_at_creation(self):
        assert avg_delay([record(delivered=5.0, created=5.0, hops=0)]) == 0.0

    def test_mean_of_delays(self):
        records = [record(0, created=0.0, delivered=2.0, hops=1),
                   record(1, created=1.0, delivered=5.0, hops=1)]
        assert avg_delay(records) == 3.0

    def test_undelivered_excluded(self):
        records = [record(0, created=0.0, delivered=2.0, hops=1),
                   record(1, created=0.0)]
        assert avg_delay(records) == 2.0

    def test_nothing_delivered(self):
        assert avg_delay([record()]) is None


class TestAvgHops:
    def test_values(self):
        records = [record(0, delivered=1.0, hops=0),
                   record(1, delivered=1.0, hops=1),
                   record(2, delivered=1.0, hops=2)]
        assert avg_hops(records) == 1.0

    def test_nothing_delivered(self):
        assert avg_hops([record()]) is None


class TestAvgCost:
    def test_total_forwards_over_delivered(self):
        records = [record(0, delivered=1.0, hops=1, forwards=7),
                   record(1, delivered=2.0, hops=1, forwards=1),
                   record(2, forwards=2)]  # undelivered forwards still count
        assert avg_cost(records) == 5.0

    def test_zero_cost_source_delivery(self):
        assert avg_cost([record(delivered=0.0, hops=0, forwards=0)]) == 0.0

    def test_nothing_delivered(self):
        assert avg_cost([record(forwards=3)]) is None


class TestResourceUsed:
    def test_half(self):
        assert resource_used({1, 2, 3, 4, 5}, 10) == 0.5

    def test_empty_group(self):
        assert resource_used(set(), 10) == 0.0

    def test_empty_network(self):
        assert resource_used(set(), 0) is None


def tiny_result(track_final=False):
    trace = parse_contact_trace("3 4 1 2\n6 7 2 3\n")
    profiles = (InterestProfile(1, (0, 1)), InterestProfile(2, (1, 0)),
                InterestProfile(3, (1, 1)))
    sc = Scenario(trace=trace, profiles=profiles, n_categories=2,
                  router=RouterConfig(),
                  schedule=ScheduleConfig(explicit=((1.0, 1, 1), (2.0, 1, 2)),
                                          track_final=track_final),
                  seed=1)
    return run(sc)


class TestBuildReport:
    def test_fields(self):
        report = build_report(tiny_result(), "r1")
        assert report.run_id == "r1"
        assert report.created == 2
        assert report.delivered == 2
        assert report.delivery_ratio == 1.0
        # groups are {2,3} and {1,3}: union 3 nodes of 3
        assert report.resource_used == 1.0

    def test_no_deliveries_leaves_optionals_none(self):
        trace = parse_contact_trace("# duration: 10\n0 1 1 2\n")
        sc = Scenario(trace=trace,
                      profiles=(InterestProfile(1, (0,)), InterestProfile(2, (0,))),
                      n_categories=1,
                      schedule=ScheduleConfig(explicit=((5.0, 1, 1),)))
        report = build_report(run(sc), "r2")
        assert report.delivered == 0
        assert report.avg_delay is None
        assert report.avg_hops is None
        assert report.avg_cost is None
        assert report.delivery_ratio == 0.0


class TestEpidemicCostDominance:
    def test_cost_and_delivery_dominate_per_run(self):
        # epidemic floods to strictly more peers, so per-delivery cost and
        # delivery ratio dominate the cluster router run for run
        from dtn_cluster_sim.synthetic import SyntheticParams, generate_synthetic_trace

        for i in range(20):
            nodes = 6 + (i * 5) % 12
            pairs = nodes * (nodes - 1) / 2
            params = SyntheticParams(node_count=nodes, duration=400.0,
                                     contact_rate=80.0 / (pairs * 400.0),
                                     n_categories=2, interest_prob=0.4)
            trace, profiles = generate_synthetic_trace(params, i)
            results = {}
            for kind in ("epidemic", "cluster"):
                sc = Scenario(trace=trace, profiles=tuple(profiles), n_categories=2,
                              router=RouterConfig(kind=kind, buffer_capacity=None),
                              schedule=ScheduleConfig(count=5), seed=i)
                results[kind] = run(sc)
            assert delivery_ratio(results["epidemic"].records) >= \
                delivery_ratio(results["cluster"].records)
            delivered = {k: [r for r in res.records if r.group_delivered_at is not None]
                         for k, res in results.items()}
            if delivered["epidemic"] and delivered["cluster"]:
                assert avg_cost(results["epidemic"].records) >= \
                    avg_cost(results["cluster"].records)


def parse_rows(text):
    reader = csv.DictReader(io.StringIO(text))
    assert ",".join(reader.fieldnames) == PER_MESSAGE_COLUMNS
    return list(reader)


def optional(kind, field):
    return kind(field) if field else None


class TestSerialization:
    def test_summary_row_fixed_decimals(self):
        report = build_report(tiny_result(), "r1")
        row = summary_row(report)
        assert row.startswith("r1,cluster,exact,false,2,,1,2,2,1.000000,")
        assert len(row.split(",")) == len(summary_header().split(","))

    def test_summary_absent_fields_empty(self):
        report = MetricsReport(run_id="x", router="cluster", mode="exact",
                               strict=False, n_categories=1, k_clusters=None,
                               seed=0, created=1, delivered=0, delivery_ratio=0.0,
                               avg_delay=None, avg_hops=None, avg_cost=None,
                               resource_used=0.0)
        row = summary_row(report)
        assert ",,,," in row  # k_clusters then the three absent averages

    def test_per_message_round_trip_exact(self):
        res = tiny_result(track_final=True)
        parsed = parse_rows(per_message_csv(res.records))
        assert len(parsed) == len(res.records)
        for got, want in zip(parsed, res.records):
            assert int(got["message_id"]) == want.message_id
            assert int(got["source"]) == want.source
            assert int(got["category"]) == want.category
            assert float(got["created_at"]) == want.created_at
            assert int(got["group_size"]) == want.group_size
            assert optional(float, got["group_delivered_at"]) == want.group_delivered_at
            assert optional(int, got["first_receiver"]) == want.first_receiver
            assert optional(int, got["hops"]) == want.hops_at_delivery
            assert int(got["forwards_total"]) == want.forwards_total
            assert optional(float, got["final_delivered_at"]) == want.final_delivered_at

    def test_round_trip_full_precision_times(self):
        rec = record(created=0.1 + 0.2, delivered=123.456789012345, hops=3,
                     receiver=9, forwards=2)
        parsed = parse_rows(per_message_csv([rec]))[0]
        assert float(parsed["created_at"]) == rec.created_at
        assert float(parsed["group_delivered_at"]) == rec.group_delivered_at

    def test_summary_header_is_the_documented_contract(self):
        # derived from MetricsReport's field names, so a renamed field
        # shows here
        assert summary_header() == (
            "run_id,router,mode,strict,n_categories,k_clusters,seed,created,"
            "delivered,delivery_ratio,avg_delay,avg_hops,avg_cost,resource_used")

    def test_empty_records_header_only(self):
        assert per_message_csv([]).splitlines() == [
            "message_id,source,category,created_at,group_size,group_delivered_at,"
            "first_receiver,hops,forwards_total,final_delivered_at"]

    def test_identical_results_identical_files(self):
        first, second = tiny_result(), tiny_result()
        assert summary_row(build_report(first, "r1")) == \
               summary_row(build_report(second, "r1"))
        assert per_message_csv(first.records) == per_message_csv(second.records)

    def test_empty_run_summary_row(self):
        trace = parse_contact_trace("0 1 1 2\n")
        sc = Scenario(trace=trace,
                      profiles=(InterestProfile(1, (1,)), InterestProfile(2, (0,))),
                      n_categories=1, schedule=ScheduleConfig(count=0))
        res = run(sc)
        report = build_report(res, "empty")
        row = summary_row(report)
        assert ",0,0,," in row  # created=0, delivered=0, ratio absent
        assert len(per_message_csv(res.records).splitlines()) == 1
