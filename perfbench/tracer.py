"""Outside-in layer trace of one dtn-cluster-sim sweep.

Run as a child process, with the package on PYTHONPATH:

    python3 perfbench/tracer.py CONFIG OUT RESULT_JSON

It wraps, from outside, the names each caller uses (the functions as
imported into `cli` and `sim_engine`, and the `Buffer` methods), runs the
CLI `main` in-process on `run`, and writes the spans and the per-layer
metrics to RESULT_JSON. Coarse calls (config, parse or generate, k-means,
run, report, CSV) become spans with a parent. Per-message calls
(decisions, buffer operations) are folded into a count and busy time,
since one flood sweep makes millions of them. A name that is gone after
a refactor marks its layer absent; it does not stop the run.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

SPAN, AGGREGATE = "span", "aggregate"


def _observe_run(args, result, counters):
    counters["sim_engine.runs"] += 1
    counters["trace_model.contacts"] += len(args[0].trace.events)
    for name in ("contacts_processed", "forwards", "closes", "drops", "expired"):
        counters[f"sim_engine.{name}"] += getattr(result.counts, name)


def _observe_decision(args, result, counters):
    counters["routing.forwards"] += result.value == "forward"


def _add(counter: str, amount: Callable):
    """Observer adding amount(args, result) to one counter."""
    def observe(args, result, counters):
        counters[counter] += amount(args, result)
    return observe


@dataclass(frozen=True)
class Target:
    owner: str       # "cli", "sim_engine" or "sim_engine.Buffer"
    attr: str
    layer: str
    kind: str
    observe: Callable | None = None   # (args, result, counters) -> None


TARGETS = (
    Target("cli", "parse_config", "cli.config", SPAN),
    Target("cli", "parse_contact_trace", "trace_model.parse", SPAN),
    Target("cli", "parse_interest_profiles", "trace_model.parse", SPAN),
    Target("cli", "generate_synthetic_trace", "trace_model.generate", SPAN),
    Target("cli", "run", "sim_engine.run", SPAN, _observe_run),
    Target("cli", "build_report", "metrics.report", SPAN),
    Target("cli", "per_message_csv", "metrics.csv", SPAN,
           _add("metrics.rows", lambda args, result: len(args[0]))),
    Target("cli", "summary_row", "metrics.csv", SPAN),
    Target("cli", "dump_clustering", "clustering.dump", SPAN),
    Target("sim_engine", "kmeans", "clustering.kmeans", SPAN,
           _add("clustering.kmeans_iterations", lambda args, result: result.iterations_used)),
    Target("sim_engine", "resolve_group_kmeans", "clustering.resolve", AGGREGATE),
    Target("sim_engine", "resolve_group_exact", "clustering.resolve", AGGREGATE),
    Target("sim_engine", "epidemic_decide", "routing.decide", AGGREGATE, _observe_decision),
    Target("sim_engine", "interest_cluster_transfer", "routing.decide", AGGREGATE,
           _observe_decision),
    Target("sim_engine.Buffer", "in_exchange_order", "routing.buffer_order", AGGREGATE),
    Target("sim_engine.Buffer", "purge_expired", "routing.purge", AGGREGATE,
           _add("routing.expired", lambda args, result: len(result))),
    Target("sim_engine.Buffer", "insert", "routing.insert", AGGREGATE,
           _add("routing.evictions", lambda args, result: len(result))),
)


class Tracer:
    """Spans and per-layer aggregates, kept in memory until the run ends."""

    def __init__(self):
        self.spans: list[dict] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.busy: dict[str, float] = defaultdict(float)
        self.counters: dict[str, int] = defaultdict(int)
        self.absent: set[str] = set()
        self._stack: list[dict] = []
        self._installed: list[tuple[object, str, Callable]] = []

    @contextmanager
    def span(self, name: str):
        record = {"id": len(self.spans), "name": name,
                  "parent": self._stack[-1]["id"] if self._stack else None,
                  "start": time.perf_counter(), "end": None, "child_s": 0.0}
        self.spans.append(record)
        self._stack.append(record)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()
            if self._stack:
                self._stack[-1]["child_s"] += record["end"] - record["start"]

    def _span_wrapper(self, layer: str, fn: Callable, observe):
        def wrapper(*args, **kwargs):
            with self.span(layer):
                result = fn(*args, **kwargs)
            if observe is not None:
                observe(args, result, self.counters)
            return result
        return wrapper

    def _aggregate_wrapper(self, layer: str, fn: Callable, observe):
        clock, calls, busy, stack, counters = (
            time.perf_counter, self.calls, self.busy, self._stack, self.counters)

        def wrapper(*args, **kwargs):
            t0 = clock()
            result = fn(*args, **kwargs)
            elapsed = clock() - t0
            calls[layer] += 1
            busy[layer] += elapsed
            if stack:
                stack[-1]["child_s"] += elapsed
            if observe is not None:
                observe(args, result, counters)
            return result
        return wrapper

    def install(self, modules: dict[str, object], targets=TARGETS) -> None:
        """Wrap every target found; a layer with any target missing is absent."""
        for target in targets:
            module_name, _, class_name = target.owner.partition(".")
            owner = modules.get(module_name)
            if owner is not None and class_name:
                owner = getattr(owner, class_name, None)
            fn = getattr(owner, target.attr, None) if owner is not None else None
            if not callable(fn):
                self.absent.add(target.layer)
                continue
            make = self._span_wrapper if target.kind == SPAN else self._aggregate_wrapper
            setattr(owner, target.attr, make(target.layer, fn, target.observe))
            self._installed.append((owner, target.attr, fn))

    def uninstall(self) -> None:
        while self._installed:
            owner, attr, fn = self._installed.pop()
            setattr(owner, attr, fn)

    def span_total(self, name: str) -> float:
        return sum(s["end"] - s["start"] for s in self.spans if s["name"] == name)

    def self_total(self, name: str) -> float:
        return sum(s["end"] - s["start"] - s["child_s"]
                   for s in self.spans if s["name"] == name)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


# name, unit, layers it needs, value and base from a Tracer, prediction:
# which end-to-end metric it should move, on which workload.
LAYER_METRICS = (
    ("trace_model.parse_s", "s", ("trace_model.parse",),
     lambda t: (t.span_total("trace_model.parse"),
                "parse_contact_trace + parse_interest_profiles spans"),
     "setup_s, sweep_s, peak_rss_mb on conference-file; 0 on the other two"),
    ("trace_model.generate_s", "s", ("trace_model.generate",),
     lambda t: (t.span_total("trace_model.generate"), "generate_synthetic_trace spans"),
     "setup_s on flood-100 and bounded-sweep"),
    ("trace_model.contacts", "count", ("sim_engine.run",),
     lambda t: (t.counters["trace_model.contacts"], "contacts replayed, summed over sweep points"),
     "the input size contacts_per_s divides"),
    ("clustering.kmeans_s", "s", ("clustering.kmeans",),
     lambda t: (t.span_total("clustering.kmeans"), "kmeans spans"),
     "sweep_s on bounded-sweep and conference-file; predicted under 1% of the run"),
    ("clustering.kmeans_iterations", "count", ("clustering.kmeans",),
     lambda t: (t.counters["clustering.kmeans_iterations"],
                "iterations_used summed over kmeans calls"),
     "sweep_s on bounded-sweep and conference-file; predicted under 1% of the run"),
    ("clustering.resolve_s", "s", ("clustering.resolve",),
     lambda t: (t.busy["clustering.resolve"],
                f"{t.calls['clustering.resolve']} resolve_group_* calls"),
     "sweep_s on bounded-sweep and conference-file; predicted under 1% of the run"),
    ("routing.decisions", "count", ("routing.decide",),
     lambda t: (t.calls["routing.decide"], "calls into the transfer rule"),
     "sweep_s on flood-100; flat on conference-file"),
    ("routing.forward_ratio", "ratio", ("routing.decide",),
     lambda t: (_ratio(t.counters["routing.forwards"], t.calls["routing.decide"]),
                f"forwards/decisions = {t.counters['routing.forwards']}/"
                f"{t.calls['routing.decide']}"),
     "sweep_s on flood-100; flat on conference-file"),
    ("routing.decide_s", "s", ("routing.decide",),
     lambda t: (t.busy["routing.decide"], f"busy over {t.calls['routing.decide']} decisions"),
     "sweep_s on flood-100; flat on conference-file"),
    ("routing.buffer_order_calls", "count", ("routing.buffer_order",),
     lambda t: (t.calls["routing.buffer_order"], "Buffer.in_exchange_order calls"),
     "sweep_s on flood-100 and bounded-sweep"),
    ("routing.buffer_order_s", "s", ("routing.buffer_order",),
     lambda t: (t.busy["routing.buffer_order"],
                f"busy over {t.calls['routing.buffer_order']} calls"),
     "sweep_s on flood-100 and bounded-sweep"),
    ("routing.purge_calls", "count", ("routing.purge",),
     lambda t: (t.calls["routing.purge"],
                f"Buffer.purge_expired calls, {t.counters['routing.expired']} expired"),
     "sweep_s on flood-100 (no TTL: pure waste); useful work on the TTL workloads"),
    ("routing.purge_s", "s", ("routing.purge",),
     lambda t: (t.busy["routing.purge"], f"busy over {t.calls['routing.purge']} calls"),
     "sweep_s on flood-100 (no TTL: pure waste); useful work on the TTL workloads"),
    ("routing.inserts", "count", ("routing.insert",),
     lambda t: (t.calls["routing.insert"], "Buffer.insert calls"),
     "sweep_s on bounded-sweep only"),
    ("routing.evictions", "count", ("routing.insert",),
     lambda t: (t.counters["routing.evictions"],
                f"evicted over {t.calls['routing.insert']} inserts"),
     "sweep_s on bounded-sweep only; 0 on flood-100"),
    ("routing.expired", "count", ("routing.purge",),
     lambda t: (t.counters["routing.expired"], f"expired over {t.calls['routing.purge']} purges"),
     "sweep_s on bounded-sweep; a few hundred on conference-file, none on flood-100"),
    ("routing.insert_s", "s", ("routing.insert",),
     lambda t: (t.busy["routing.insert"], f"busy over {t.calls['routing.insert']} inserts"),
     "sweep_s on bounded-sweep only"),
    ("sim_engine.run_s", "s", ("sim_engine.run",),
     lambda t: (t.span_total("sim_engine.run"), f"{t.counters['sim_engine.runs']} run spans"),
     "sweep_s on all three"),
    ("sim_engine.self_s", "s", ("sim_engine.run",),
     lambda t: (t.self_total("sim_engine.run"), "run spans minus routing and clustering children"),
     "sweep_s on all three; per contact event on conference-file"),
    ("sim_engine.contacts_processed", "count", ("sim_engine.run",),
     lambda t: (t.counters["sim_engine.contacts_processed"], "EventCounts of every run"),
     "sweep_s on conference-file"),
    ("sim_engine.forwards", "count", ("sim_engine.run",),
     lambda t: (t.counters["sim_engine.forwards"], "EventCounts of every run"),
     "behaviour: must not change"),
    ("sim_engine.closes", "count", ("sim_engine.run",),
     lambda t: (t.counters["sim_engine.closes"], "EventCounts of every run"),
     "behaviour: must not change"),
    ("sim_engine.decisions_per_contact", "ratio", ("routing.decide", "sim_engine.run"),
     lambda t: (_ratio(t.calls["routing.decide"], t.counters["sim_engine.contacts_processed"]),
                f"decisions/contacts = {t.calls['routing.decide']}/"
                f"{t.counters['sim_engine.contacts_processed']}"),
     "sweep_s on flood-100"),
    ("metrics.report_s", "s", ("metrics.report",),
     lambda t: (t.span_total("metrics.report"), "build_report spans"),
     "sweep_s on bounded-sweep"),
    ("metrics.csv_s", "s", ("metrics.csv",),
     lambda t: (t.span_total("metrics.csv"), "per_message_csv + summary_row spans"),
     "sweep_s on bounded-sweep"),
    ("metrics.rows", "count", ("metrics.csv",),
     lambda t: (t.counters["metrics.rows"], "per-message rows written"),
     "sweep_s on bounded-sweep"),
    ("cli.config_s", "s", ("cli.config",),
     lambda t: (t.span_total("cli.config"), "parse_config spans"),
     "sweep_s on bounded-sweep"),
    ("cli.self_s", "s", ("cli.main",),
     lambda t: (t.self_total("cli.main"), "main minus its child spans"),
     "sweep_s on bounded-sweep"),
    ("cli.sweep_points", "count", ("sim_engine.run",),
     lambda t: (t.counters["sim_engine.runs"], "run calls"),
     "sweep-level parallelism can win only where this exceeds 1 (bounded-sweep)"),
)


def layer_metrics(tracer: Tracer) -> dict[str, dict]:
    """Every per-layer metric by name; a metric whose layer is absent has
    value None."""
    out = {}
    for name, unit, needs, derive, prediction in LAYER_METRICS:
        if tracer.absent.intersection(needs):
            out[name] = {"value": None, "unit": unit, "base": "absent",
                         "prediction": prediction}
            continue
        value, base = derive(tracer)
        out[name] = {"value": value, "unit": unit, "base": base, "prediction": prediction}
    return out


def _import(name: str):
    try:
        return importlib.import_module(f"dtn_cluster_sim.{name}")
    except ImportError:
        return None


def main(argv: list[str]) -> int:
    config, out, result_path = argv
    modules = {name: _import(name) for name in ("cli", "sim_engine")}
    cli = modules["cli"]
    if cli is None or not hasattr(cli, "main"):
        print("dtn_cluster_sim.cli.main not found", file=sys.stderr)
        return 2
    tracer = Tracer()
    tracer.install(modules)
    try:
        with tracer.span("cli.main"):
            code = cli.main(["run", "--config", config, "--out", out])
    finally:
        tracer.uninstall()
    Path(result_path).write_text(json.dumps({
        "exit": code,
        "absent": sorted(tracer.absent),
        "spans": tracer.spans,
        "metrics": layer_metrics(tracer),
    }, indent=1) + "\n", encoding="utf-8")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
