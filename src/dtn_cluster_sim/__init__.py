"""Trace-driven simulator for interest-group message dissemination in
delay tolerant networks. README's Layout maps its modules."""

import importlib

__version__ = "0.1.0"

# every public name by its home module, which loads on first use (PEP 562)
_HOMES = {
    "clustering": ("Clustering", "GroupResolution", "dump_clustering", "kmeans",
                   "points_of", "resolve_group_kmeans"),
    "metrics": ("MetricsReport", "avg_cost", "avg_delay", "avg_hops", "build_report",
                "delivery_ratio", "per_message_csv", "resource_used", "summary_header",
                "summary_row"),
    "sim_engine": ("Buffer", "DeliveryRecord", "EventCounts", "ForwardDecision", "Message",
                   "SimResult", "build_schedule", "epidemic_decide",
                   "interest_cluster_transfer", "resolve_group_exact", "run"),
    "synthetic": ("SyntheticParams", "generate_synthetic_trace"),
    "trace_files": ("parse_contact_trace", "parse_interest_profiles",
                    "serialize_contact_trace", "serialize_profiles"),
    "trace_model": ("ContactTrace", "InterestProfile", "RouterConfig", "Scenario",
                    "ScheduleConfig", "validate_scenario"),
}
_HOME = {name: module for module, names in _HOMES.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value


def _bind(namespace: dict, *names: str) -> None:
    """Bind public names into a module's `namespace` where the path that
    calls them starts. perfbench's tracer wraps the names that a path calls
    on `cli` and `sim_engine` before `main`, so a name already set is kept."""
    for name in names:
        namespace.setdefault(name, __getattr__(name))


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
