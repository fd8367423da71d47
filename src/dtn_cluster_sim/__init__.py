"""Trace-driven simulator for interest-group message dissemination in
delay tolerant networks.

Typical flow: build or parse a contact trace and interest profiles
(`trace_model`), form interest groups (`clustering`), replay the trace
under a forwarding rule (`sim_engine`), aggregate the outcome
(`metrics`). `cli` batches all of it over sweep axes.
"""

from .clustering import (Clustering, GroupResolution, dump_clustering, kmeans,
                         points_of, resolve_group_exact, resolve_group_kmeans,
                         squared_distance, sse)
from .metrics import (MetricsReport, avg_cost, avg_delay, avg_hops, build_report,
                      delivery_ratio, per_message_csv, resource_used,
                      summary_header, summary_row)
from .routing import (Buffer, ForwardDecision, Message, epidemic_decide,
                      interest_cluster_transfer)
from .sim_engine import (DeliveryRecord, EventCounts, RouterConfig, Scenario,
                         ScheduleConfig, SimResult, build_schedule, run)
from .trace_model import (ContactEvent, ContactTrace, InterestProfile,
                          ScenarioReport, SyntheticParams, build_trace,
                          generate_synthetic_trace, parse_contact_trace,
                          parse_interest_profiles, serialize_contact_trace,
                          serialize_profiles, validate_scenario)

__version__ = "0.1.0"

__all__ = [
    "Buffer", "Clustering", "ContactEvent", "ContactTrace", "DeliveryRecord",
    "EventCounts", "ForwardDecision", "GroupResolution", "InterestProfile",
    "Message", "MetricsReport", "RouterConfig", "Scenario", "ScenarioReport",
    "ScheduleConfig", "SimResult", "SyntheticParams", "avg_cost", "avg_delay",
    "avg_hops", "build_report", "build_schedule", "build_trace",
    "delivery_ratio", "dump_clustering", "epidemic_decide",
    "generate_synthetic_trace", "interest_cluster_transfer", "kmeans",
    "parse_contact_trace", "parse_interest_profiles", "per_message_csv",
    "points_of", "resolve_group_exact", "resolve_group_kmeans",
    "resource_used", "run", "serialize_contact_trace", "serialize_profiles",
    "squared_distance", "sse", "summary_header", "summary_row",
    "validate_scenario",
]
