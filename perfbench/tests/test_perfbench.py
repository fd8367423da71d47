"""Tests of the sweep benchmark itself.

    python3 -m pytest -q perfbench/tests
"""

import json
import re

import checks
import harness
import tracer
from workloads import WORKLOADS, Workload, prepare

from conftest import PERFBENCH

ROOT = PERFBENCH.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

TINY = Workload(
    name="tiny",
    network={"node_count": 10, "duration": 300.0, "contact_rate": 0.01,
             "interest_prob": 0.4},
    settings={"router": "epidemic", "mode": "exact", "buffer_capacity": None,
              "message_count": 4},
    categories=(2,),
    oracle=True,
)


def _prepared(tmp_path, workload=TINY, seed=3):
    program = harness.Program(ROOT, tmp_path / "work")
    return program, prepare(workload, seed, program)


def test_tiny_config_runs_end_to_end(tmp_path):
    program, prepared = _prepared(tmp_path)
    assert prepared.contacts > 0
    result = harness.timed_run(program, prepared, seconds=0.0, golden=None)
    assert result.correct, result.problems
    assert result.attempted >= harness.MIN_REPS + 1
    assert result.failed == 0
    assert set(result.metrics) == {m["name"] for m in BENCHMARK["end_to_end"]}
    assert all(m["value"] > 0 for m in result.metrics.values())
    assert any(line.startswith("checks:") and "oracle 4/4" in line for line in result.lines)

    traced = harness.traced_run(program, prepared, seconds=0.0, golden=None)
    assert traced.correct, traced.problems
    assert set(traced.metrics) == {m["name"] for m in BENCHMARK["per_layer"]}


def test_corrupted_golden_digest_fails_points(tmp_path):
    program, prepared = _prepared(tmp_path)
    assert program.cli("run", "--config", prepared.config, "--out", "golden").code == 0
    golden = checks.golden_subset(checks.tree_digests(program.work / "golden"))

    clean = harness.Result()
    harness.Sweeps(program, prepared, golden, clean).run(hash_seed=0)
    assert clean.correct and clean.attempted == 1

    golden["summary.csv"] = "0" * 64
    corrupted = harness.Result()
    harness.Sweeps(program, prepared, golden, corrupted).run(hash_seed=0)
    assert corrupted.failed == corrupted.attempted == 1
    assert not corrupted.correct


def test_missing_wrapped_function_marks_metric_absent(tmp_path):
    from dtn_cluster_sim import cli, sim_engine

    program, prepared = _prepared(tmp_path)
    targets = [t if t.attr != "epidemic_decide"
               else tracer.Target("sim_engine", "no_such_rule", t.layer, t.kind)
               for t in tracer.TARGETS]
    run_before = cli.run
    tr = tracer.Tracer()
    tr.install({"cli": cli, "sim_engine": sim_engine}, targets)
    try:
        with tr.span("cli.main"):
            code = cli.main(["run", "--config", str(program.work / prepared.config),
                             "--out", str(tmp_path / "out")])
    finally:
        tr.uninstall()
    assert code == 0
    assert cli.run is run_before
    metrics = tracer.layer_metrics(tr)
    assert tr.absent == {"routing.decide"}
    for name in ("routing.decisions", "routing.forward_ratio", "routing.decide_s",
                 "sim_engine.decisions_per_contact"):
        assert metrics[name]["value"] is None and metrics[name]["base"] == "absent"
    assert metrics["sim_engine.run_s"]["value"] > 0
    assert metrics["sim_engine.forwards"]["value"] > 0


def test_names_are_well_formed_and_match_the_code():
    names = ([w["name"] for w in BENCHMARK["workloads"]]
             + [m["name"] for m in BENCHMARK["end_to_end"]]
             + [m["name"] for m in BENCHMARK["per_layer"]])
    assert all(NAME.fullmatch(n) for n in names), names
    assert len(names) == len(set(names))
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    assert [m["name"] for m in BENCHMARK["per_layer"]] == (
        [m[0] for m in tracer.LAYER_METRICS] + ["trace.overhead_s"])
