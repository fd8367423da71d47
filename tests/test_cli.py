import ast
import csv
import errno
import gc
import importlib
import importlib.util
import json
import os
import random
import re
import shlex
import signal
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path
from typing import ForwardRef, get_args

import pytest

import dtn_cluster_sim
from dtn_cluster_sim import cli, sim_engine, workers
from dtn_cluster_sim.cli import (ConfigError, RunConfig, build_scenario, main,
                                 parse_config, run_sweep)
from dtn_cluster_sim.metrics import summary_header
from dtn_cluster_sim.synthetic import SyntheticParams
from dtn_cluster_sim.trace_files import parse_contact_trace
from dtn_cluster_sim.trace_model import (MAX_CATEGORIES, MAX_MESSAGES, InterestProfile,
                                         InvalidParams, RouterConfig, Scenario, ScheduleConfig)


TRACE_TEXT = "1 4 0 1\n3 8 1 2\n6 9 0 2\n# duration: 20\n"
PROFILE_TEXT = "0 1 0 1\n1 0 1 1\n2 1 1 0\n"
# TRACE_TEXT's contacts as The ONE's connectivity events
ONE_EVENTS_TEXT = ("1 CONN 0 1 up\n3 CONN 1 2 up\n4 CONN 0 1 down\n6 CONN 0 2 up\n"
                   "8 CONN 1 2 down\n9 CONN 2 0 down\n# duration: 20\n")


def write_config(tmp_path: Path, name="config.json", **extra) -> Path:
    data = {
        "trace": str(tmp_path / "trace.txt"),
        "profiles": str(tmp_path / "profiles.txt"),
        "categories": [2],
        "seeds": [1],
        "message_count": 4,
    }
    data.update(extra)
    (tmp_path / "trace.txt").write_text(TRACE_TEXT)
    (tmp_path / "profiles.txt").write_text(PROFILE_TEXT)
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return path


def synthetic_config(tmp_path: Path, **extra) -> Path:
    data = {
        "synthetic": {"node_count": 8, "duration": 300.0,
                      "contact_rate": 0.002, "interest_prob": 0.5},
        "categories": [2, 3],
        "seeds": [1, 2],
        "message_count": 5,
    }
    data.update(extra)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(data))
    return path


# input files of TestMainEntry.test_bad_value_or_file_exits_2
BAD_FILES = {
    "ragged.txt": "0 1 0 1\n1 0 1\n",
    "no_data.txt": "# no data\n",
    "nan_start.txt": "1 4 0 1\nnan 10 1 2\n",
    "inf_end.txt": "0 inf 1 2\n",
    "nan_duration.txt": "# duration: nan\n1 4 0 1\n",
    "nan_down.txt": "nan CONN 1 2 down\n",
    "negative_value.txt": "1 4 0 1\n-1 4 0 1\n",
    "nan_time.txt": "1 4 0 1\nnan 4 0 1\n",
    "inf_t_end.txt": "1 4 0 1\n1 inf 0 1\n",
    "self_contact.txt": "1 4 0 1\n1 4 1 1\n",
    "inverted.txt": "1 4 0 1\n4 4 0 1\n",
    "field_count.txt": "1 4 0 1\n1 4 0\n",
    "unparsable.txt": "1 4 0 1\n1 four 0 1\n",
    "duration_header.txt": "1 4 0 1\n# duration: soon\n",
    "nodes_header.txt": "1 4 0 1\n# nodes: many\n",
    "conn_line.txt": "1 CONN 0 1 up\n2 DISC 0 1 down\n",
    "conn_unparsable.txt": "1 CONN 0 1 up\n2 CONN 0 one down\n",
    "conn_state.txt": "1 CONN 0 1 up\n2 CONN 0 1 sideways\n",
    "node_id.txt": "0 1 0 1\nx 0 1 1\n",
    "negative_node.txt": "0 1 0 1\n-1 0 1 1\n",
    "arity.txt": "0 1 0 1\n1 0 1\n",
    "non_binary.txt": "0 1 0 1\n1 0 2 1\n",
    "duplicate_node.txt": "0 1 0 1\n# c\n0 0 1 1\n",
    # `_` separators and digits of other scripts, which int() and float() read
    "underscore.txt": "1 4 0 1\n0 1_0 3 1\n",
    "arabic_digit.txt": "# caf\u00e9 _\n0 10 \u0663 1\n",
    "underscore_header.txt": "1 4 0 1\n# duration: 1_0\n",
    "fullwidth_header.txt": "1 4 0 1\n# nodes: \uff12\n",
    "conn_digit.txt": "1 CONN 0 1 up\n2 CONN 0 \uff11 down\n",
    "underscore_node.txt": "0 1 0 1\n0_1 0 1 1\n",
}


def bad_line(kind: str, name: str, error: str):
    """A case of test_bad_value_or_file_exits_2: the `kind` input (trace,
    one_events trace or profiles) is BAD_FILES[name], and the CLI must name
    the file and `error`. A trace file's first line gives its format."""
    change = {"profiles": name} if kind == "profiles" else {"trace": name}
    return pytest.param(change, f"{name}: {error}", id=name.removesuffix(".txt"))


class TestParseConfig:
    def test_minimal_with_defaults(self, tmp_path):
        config = parse_config(write_config(tmp_path))
        assert config.router == "cluster"
        assert config.mode == "exact"
        assert config.strict is False
        assert config.buffer_capacity == 50
        assert config.ttl is None
        assert config.categories == [2]

    def test_conflicting_sources(self, tmp_path):
        path = write_config(tmp_path, synthetic={"node_count": 4, "duration": 10.0,
                                                 "contact_rate": 0.1,
                                                 "interest_prob": 0.5})
        with pytest.raises(ConfigError, match="both a trace file and synthetic"):
            parse_config(path)

    def test_neither_source(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"categories": [1]}))
        with pytest.raises(ConfigError, match="missing required config key: trace or"):
            parse_config(path)

    def test_seed_flag_overrides_file(self, tmp_path):
        path = write_config(tmp_path, seeds=[3, 4])
        config = parse_config(path, {"seed": 7})
        assert config.seeds == [7]

    def test_categories_override(self, tmp_path):
        config = parse_config(write_config(tmp_path), {"categories": [1, 5]})
        assert config.categories == [1, 5]

    def test_unknown_key(self, tmp_path):
        path = write_config(tmp_path, bogus=1)
        with pytest.raises(ConfigError, match="unknown config key: bogus"):
            parse_config(path)

    def test_unknown_synthetic_key(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({
            "categories": [1],
            "synthetic": {"node_count": 4, "duration": 1.0, "contact_rate": 1.0,
                          "interest_prob": 0.5, "warp": 9}}))
        with pytest.raises(ConfigError, match="unknown config key: synthetic.warp"):
            parse_config(path)

    def test_missing_categories(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"trace": "t"}))
        with pytest.raises(ConfigError, match="missing required config key: categories"):
            parse_config(path)

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text("{nope")
        with pytest.raises(ConfigError):
            parse_config(path)

    def test_null_buffer_capacity_means_unlimited(self, tmp_path):
        config = parse_config(write_config(tmp_path, buffer_capacity=None))
        assert config.buffer_capacity is None


class TestProfileAdaptation:
    def test_truncate(self, tmp_path):
        config = parse_config(write_config(tmp_path))
        profiles = [InterestProfile(1, (1, 0, 1))]
        scenario = build_scenario(config, 2, 1, (parse_contact_trace(TRACE_TEXT), profiles))
        assert scenario.profiles[0].interests == (1, 0)

    def test_exact_fit_untouched(self, tmp_path):
        config = parse_config(write_config(tmp_path))
        profiles = [InterestProfile(1, (1, 0))]
        scenario = build_scenario(config, 2, 1, (parse_contact_trace(TRACE_TEXT), profiles))
        assert list(scenario.profiles) == profiles

    @pytest.mark.parametrize("profiles, bits", [("0 1 0 1\n1 0 1 1\n", 3),
                                                ("0\n1\n2\n", 0)],
                             ids=["three_bits", "no_bits"])
    def test_narrow_profile_file_exits_2(self, tmp_path, capsys, profiles, bits):
        path = write_config(tmp_path, categories=[2, 4])
        (tmp_path / "profiles.txt").write_text(profiles)
        code = main(["run", "--config", str(path), "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 2
        assert str(tmp_path / "profiles.txt") in err
        assert f"{bits} bits" in err and "4 categories" in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()


class TestRunSweep:
    def test_row_per_sweep_point(self, tmp_path):
        config = parse_config(write_config(tmp_path, categories=[1, 2, 3],
                                           seeds=[1, 2]),
                              {"out": str(tmp_path / "out")})
        assert run_sweep(config) == 0
        rows = (tmp_path / "out" / "summary.csv").read_text().splitlines()
        assert len(rows) == 1 + 6
        run_ids = [r.split(",")[0] for r in rows[1:]]
        assert run_ids == ["n1_s1", "n1_s2", "n2_s1", "n2_s2", "n3_s1", "n3_s2"]

    def test_output_tree_contents(self, tmp_path):
        config = parse_config(write_config(tmp_path, mode="kmeans"),
                              {"out": str(tmp_path / "out")})
        assert run_sweep(config) == 0
        out = tmp_path / "out"
        assert (out / "config.json").exists()
        assert (out / "runs" / "n2_s1" / "per_message.csv").exists()
        assert (out / "runs" / "n2_s1" / "clustering.txt").exists()

    def test_repeat_invocation_byte_identical(self, tmp_path):
        path = synthetic_config(tmp_path)
        c1 = parse_config(path, {"out": str(tmp_path / "a")})
        c2 = parse_config(path, {"out": str(tmp_path / "b")})
        assert run_sweep(c1) == 0
        assert run_sweep(c2) == 0
        a, b = tmp_path / "a", tmp_path / "b"
        files_a = sorted(p.relative_to(a) for p in a.rglob("*") if p.is_file())
        files_b = sorted(p.relative_to(b) for p in b.rglob("*") if p.is_file())
        assert files_a == files_b
        for rel in files_a:
            assert (a / rel).read_bytes() == (b / rel).read_bytes(), rel

    def test_one_events_trace_file_needs_no_format_key(self, tmp_path, capsys):
        """validate and run read a one_events file by its first line, as
        the tabular file of the same contacts."""
        assert parse_contact_trace(ONE_EVENTS_TEXT) == parse_contact_trace(TRACE_TEXT)
        (tmp_path / "events.txt").write_text(ONE_EVENTS_TEXT)
        events = write_config(tmp_path, name="events.json", trace=str(tmp_path / "events.txt"))
        assert main(["validate", "--config", str(events)]) == 0
        assert capsys.readouterr().out == "scenario consistent\n"
        tabular = write_config(tmp_path, name="tabular.json")
        trees = []
        for path, out in ((tabular, tmp_path / "a"), (events, tmp_path / "b")):
            assert main(["run", "--config", str(path), "--out", str(out)]) == 0
            files = {p.relative_to(out): p.read_bytes() for p in out.rglob("*") if p.is_file()}
            echo = json.loads(files.pop(Path("config.json")))
            assert "trace_format" not in echo
            assert echo.pop("trace") == parse_config(path).trace
            trees.append((files, echo))
        assert trees[0] == trees[1]

    def test_echoed_config_reproduces_summary(self, tmp_path):
        path = synthetic_config(tmp_path)
        config = parse_config(path, {"out": str(tmp_path / "a")})
        assert run_sweep(config) == 0
        echoed = parse_config(tmp_path / "a" / "config.json",
                              {"out": str(tmp_path / "b")})
        assert run_sweep(echoed) == 0
        assert (tmp_path / "a" / "summary.csv").read_bytes() == \
               (tmp_path / "b" / "summary.csv").read_bytes()

    def test_category_axis_sweep(self, tmp_path):
        path = synthetic_config(tmp_path, categories=[1, 5, 10, 15, 20, 25, 30],
                                seeds=[3], message_count=3)
        config = parse_config(path, {"out": str(tmp_path / "out")})
        assert run_sweep(config) == 0
        rows = (tmp_path / "out" / "summary.csv").read_text().splitlines()
        assert len(rows) == 1 + 7

    def test_failed_run_returns_one(self, tmp_path, capsys):
        # interval schedule overruns the trace duration -> run failure
        path = synthetic_config(tmp_path, message_interval=100.0, message_count=50)
        config = parse_config(path, {"out": str(tmp_path / "out")})
        assert run_sweep(config) == 1
        assert "failed" in capsys.readouterr().err
        out = tmp_path / "out"
        assert (out / "summary.csv").read_text().splitlines() == [summary_header()]
        with open(out / "failures.csv", newline="") as f:
            rows = list(csv.reader(f))
        assert rows[0] == ["run_id", "error"]
        assert [r[0] for r in rows[1:]] == ["n2_s1", "n2_s2", "n3_s1", "n3_s2"]
        assert all("interval schedule ends at 5000.0" in r[1] for r in rows[1:])

    def test_error_without_text_is_named_by_its_type(self, tmp_path, monkeypatch,
                                                     capsys):
        def out_of_memory(scenario):
            raise MemoryError()

        monkeypatch.setattr(cli, "run", out_of_memory)
        path = write_config(tmp_path)
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == "run n2_s1 failed: MemoryError\n"
        with open(tmp_path / "out" / "failures.csv", newline="") as f:
            assert list(csv.reader(f)) == [["run_id", "error"], ["n2_s1", "MemoryError"]]

    def test_no_failures_file_without_failures(self, tmp_path):
        stale = tmp_path / "out" / "failures.csv"
        stale.parent.mkdir()
        stale.write_text("run_id,error\nn2_s1,from an earlier sweep\n")
        config = parse_config(synthetic_config(tmp_path), {"out": str(tmp_path / "out")})
        assert run_sweep(config) == 0
        assert not stale.exists()

    def test_rerun_replaces_runs_of_earlier_sweep(self, tmp_path):
        out = tmp_path / "out"
        first = write_config(tmp_path, categories=[2, 3], mode="kmeans")
        assert run_sweep(parse_config(first, {"out": str(out)})) == 0
        assert (out / "runs" / "n3_s1" / "clustering.txt").exists()
        second = write_config(tmp_path, name="second.json", categories=[2])
        assert run_sweep(parse_config(second, {"out": str(out)})) == 0
        files = sorted(p.relative_to(out).as_posix() for p in out.rglob("*")
                       if p.is_file())
        assert files == ["config.json", "runs/n2_s1/per_message.csv", "summary.csv"]

    def test_killed_sweep_leaves_no_summary(self, tmp_path):
        out = tmp_path / "out"
        out.mkdir()
        (out / "summary.csv").write_text(summary_header() + "\nfrom an earlier sweep\n")
        (out / "config.json").write_text('{"categories": [7]}\n')
        # each point replays ~20k contacts, so the sweep is still at its
        # second point when the first point's files appear
        path = synthetic_config(tmp_path, categories=[3], seeds=list(range(1, 13)),
                                synthetic={"node_count": 100, "duration": 20000.0,
                                           "contact_rate": 2e-4, "interest_prob": 0.3})
        partial = out / "runs.partial"
        first = partial / "n3_s1" / "per_message.csv"
        started = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, "-m", "dtn_cluster_sim.cli", "run",
             "--config", str(path), "--out", str(out)],
            env={**os.environ, "PYTHONPATH": _src_dir()},
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        try:
            deadline = time.monotonic() + 60
            while not first.exists() and proc.poll() is None:
                assert time.monotonic() < deadline, "first sweep point never written"
                time.sleep(0.005)
        finally:
            proc.kill()
            proc.wait()
        # a worker finishes the point it was at, then sees its parent gone
        # and stops; the time to the first point bounds a point's time
        point_s = time.monotonic() - started
        time.sleep(2 * point_s)
        written = sorted(partial.rglob("*"))
        time.sleep(2 * point_s)
        assert sorted(partial.rglob("*")) == written
        assert first.exists()
        assert not (out / "summary.csv").exists()
        assert not (out / "config.json").exists()
        assert not (out / "runs").exists()
        assert not (out / "runs.partial" / "n3_s12").exists()

    @pytest.mark.parametrize("stale", ["runs", "summary.csv", "runs.partial"])
    def test_earlier_output_that_cannot_be_cleared_exits_2(self, tmp_path, capsys,
                                                           stale):
        # a file where the sweep needs a directory, or the reverse, or a
        # symbolic link that leads nowhere where it needs a directory
        out = tmp_path / "out"
        out.mkdir()
        if stale == "runs":
            (out / stale).write_text("not a directory\n")
        elif stale == "runs.partial":
            (out / stale).symlink_to(stale)
        else:
            (out / stale).mkdir()
        code = main(["run", "--config", str(synthetic_config(tmp_path)),
                     "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert str(out / stale) in err
        assert "Traceback" not in err

    def test_missing_out(self, tmp_path):
        config = parse_config(write_config(tmp_path))
        with pytest.raises(ConfigError, match="missing required config key: out"):
            run_sweep(config)


@pytest.fixture
def time_limit():
    """Fails a test that runs for more than a minute, say a sweep waiting on
    a worker that never reports."""
    def expire(signum, frame):
        raise TimeoutError("test ran for more than 60 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(60)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


def tree_files(root: Path) -> dict[str, bytes]:
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in root.rglob("*") if p.is_file()}


@pytest.mark.usefixtures("time_limit")
class TestSweepProcesses:
    """Points i::W of a sweep run in W processes, the first share in the
    CLI's own process and the others in forked workers, process i pinned to
    CPU i mod n of the caller's n CPUs."""

    SIX_POINTS = {"categories": [2, 3, 4], "seeds": [1, 2]}

    def sweep(self, tmp_path, monkeypatch, width, out="out"):
        """run_sweep of the six-point sweep in `width` processes; its exit
        status and the pids of the workers it forked."""
        monkeypatch.setattr(workers, "_processes", lambda n_points: min(n_points, width))
        forked = []
        fork = os.fork

        def recording_fork():
            pid = fork()
            if pid:
                forked.append(pid)
            return pid

        monkeypatch.setattr(os, "fork", recording_fork)
        config = parse_config(synthetic_config(tmp_path, **self.SIX_POINTS),
                              {"out": str(tmp_path / out)})
        return run_sweep(config), forked

    @staticmethod
    def assert_reaped(pids):
        for pid in pids:
            with pytest.raises(ChildProcessError):
                os.waitpid(pid, os.WNOHANG)

    def test_tree_is_the_same_in_one_or_four_processes(self, tmp_path, monkeypatch,
                                                       capsys):
        # four processes: more than this host has cores, two with one point
        assert self.sweep(tmp_path, monkeypatch, 1, "one") == (0, [])
        code, forked = self.sweep(tmp_path, monkeypatch, 4, "four")
        assert code == 0 and len(forked) == 3
        self.assert_reaped(forked)
        assert capsys.readouterr().err == ""
        one = tree_files(tmp_path / "one")
        assert len(one) == 2 + 6
        assert tree_files(tmp_path / "four") == one

    @pytest.mark.parametrize("dies_at", [(2, 2), (4, 2)],
                             ids=["first_point", "second_point"])
    def test_dead_worker_fails_its_points(self, tmp_path, monkeypatch, capsys, dies_at):
        # the worker of points 1 and 5 (n2_s2, n4_s2) dies at one of them
        assert self.sweep(tmp_path, monkeypatch, 1, "whole") == (0, [])
        whole = tree_files(tmp_path / "whole")

        def build_or_die(config, n_categories, seed, file_inputs):
            if (n_categories, seed) == dies_at:
                os._exit(3)
            return build_scenario(config, n_categories, seed, file_inputs)

        monkeypatch.setattr(cli, "build_scenario", build_or_die)
        code, forked = self.sweep(tmp_path, monkeypatch, 4)
        assert code == 1
        self.assert_reaped(forked)
        lost = ["n2_s2", "n4_s2"]
        assert capsys.readouterr().err == "".join(
            f"run {run_id} failed: worker exited with status 3\n" for run_id in lost)
        out = tmp_path / "out"
        with open(out / "failures.csv", newline="") as f:
            assert list(csv.reader(f)) == [["run_id", "error"]] + [
                [run_id, "worker exited with status 3"] for run_id in lost]
        summary = (out / "summary.csv").read_text().splitlines()
        assert summary == [row for row in whole["summary.csv"].decode().splitlines()
                           if row.split(",")[0] not in lost]
        kept = {name: data for name, data in whole.items()
                if name.startswith("runs/") and name.split("/")[1] not in lost}
        assert len(kept) == 4
        assert {name: data for name, data in tree_files(out).items()
                if name.startswith("runs/")} == kept

    @pytest.mark.parametrize("fails_at", [1, 2], ids=["first_fork", "second_fork"])
    def test_failed_fork_runs_the_shares_left_here(self, tmp_path, monkeypatch, capsys,
                                                   fails_at):
        assert self.sweep(tmp_path, monkeypatch, 1, "one") == (0, [])
        calls = []
        fork = os.fork

        def failing_fork():
            calls.append(None)
            if len(calls) == fails_at:
                raise OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))
            return fork()

        monkeypatch.setattr(os, "fork", failing_fork)
        code, forked = self.sweep(tmp_path, monkeypatch, 4, "four")
        assert code == 0 and len(forked) == fails_at - 1
        self.assert_reaped(forked)
        assert capsys.readouterr().err == ""
        assert tree_files(tmp_path / "four") == tree_files(tmp_path / "one")

    def test_failed_pin_still_runs_every_point(self, tmp_path, monkeypatch, capsys):
        # forked workers inherit the patch, so no process can be pinned
        assert self.sweep(tmp_path, monkeypatch, 1, "one") == (0, [])

        def refuse(pid, cpus):
            raise OSError(errno.EINVAL, os.strerror(errno.EINVAL))

        monkeypatch.setattr(os, "sched_setaffinity", refuse, raising=False)
        code, forked = self.sweep(tmp_path, monkeypatch, 4, "four")
        assert code == 0 and len(forked) == 3
        self.assert_reaped(forked)
        assert capsys.readouterr().err == ""
        assert tree_files(tmp_path / "four") == tree_files(tmp_path / "one")

    # read before any test runs, so that a sweep that leaves this process
    # pinned fails the tests below
    CPUS = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []
    pinnable = pytest.mark.skipif(len(CPUS) < 2,
                                  reason="needs sched_getaffinity and at least 2 usable CPUs")

    @pinnable
    @pytest.mark.parametrize("width", [2, 4])
    def test_each_process_is_pinned_to_one_cpu(self, tmp_path, monkeypatch, width):
        cpus = self.CPUS
        monkeypatch.setattr(workers, "_processes", lambda n_points: min(n_points, width))

        def run_point(run_id):
            return [[os.getpid(), sorted(os.sched_getaffinity(0))], None]

        entries = workers._run_points([(f"p{i}",) for i in range(6)], run_point, tmp_path)
        assert os.sched_getaffinity(0) == set(cpus)
        pids, pins = {}, {}
        for index, (run_id, (pid, cpu), error) in enumerate(entries):
            assert run_id == f"p{index}" and error is None
            process = index % width
            assert pids.setdefault(process, pid) == pid   # one process per share
            assert cpu == [cpus[process % len(cpus)]]      # one CPU, round-robin
            pins[process] = cpu[0]
        assert pids[0] == os.getpid() and len(set(pids.values())) == width
        if width <= len(cpus):
            assert len(set(pins.values())) == width

    @pinnable
    def test_mask_is_restored_when_an_own_point_raises(self, tmp_path, monkeypatch):
        monkeypatch.setattr(workers, "_processes", lambda n_points: min(n_points, 4))
        caller = os.getpid()

        def run_point(run_id):
            if os.getpid() == caller:
                raise RuntimeError(run_id)
            return [run_id, None]

        with pytest.raises(RuntimeError, match="p0"):
            workers._run_points([(f"p{i}",) for i in range(6)], run_point, tmp_path)
        assert os.sched_getaffinity(0) == set(self.CPUS)


class TestMainEntry:
    def test_run_subcommand(self, tmp_path):
        path = write_config(tmp_path)
        code = main(["run", "--config", str(path), "--out", str(tmp_path / "out")])
        assert code == 0
        assert (tmp_path / "out" / "summary.csv").exists()

    def test_config_error_exits_2(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"categories": [1]}))
        assert main(["run", "--config", str(path)]) == 2

    def test_validate_consistent(self, tmp_path, capsys):
        path = synthetic_config(tmp_path)
        assert main(["validate", "--config", str(path)]) == 0
        assert capsys.readouterr().out == "scenario consistent\n"

    @pytest.mark.parametrize("collecting", [True, False], ids=["gc-on", "gc-off"])
    def test_commands_run_without_the_collector(self, tmp_path, monkeypatch, capsys,
                                                collecting):
        """main runs a command with the cyclic collector off and leaves it
        as it found it, frozen generation included (main never freezes): after
        a run, a validate and a config error."""
        during = []

        def recording(*args):
            during.append(gc.isenabled())
            return parse_config(*args)

        parse_config = cli.parse_config
        monkeypatch.setattr(cli, "parse_config", recording)
        config = str(write_config(tmp_path))
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"categories": [1]}))
        calls = [(["run", "--config", config, "--out", str(tmp_path / "out")], 0),
                 (["validate", "--config", config], 0),
                 (["run", "--config", str(bad)], 2)]
        was = gc.isenabled()
        frozen = gc.get_freeze_count()
        try:
            (gc.enable if collecting else gc.disable)()
            for argv, code in calls:
                assert main(argv) == code
                assert gc.isenabled() is collecting
                assert gc.get_freeze_count() == frozen
        finally:
            (gc.enable if was else gc.disable)()
        assert during == [False] * 3

    def test_validate_flags_gaps(self, tmp_path, capsys):
        (tmp_path / "trace.txt").write_text("0 5 0 1\n2 9 1 5\n")
        (tmp_path / "profiles.txt").write_text("0 1\n1 0\n7 1\n")
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"trace": str(tmp_path / "trace.txt"),
                                    "profiles": str(tmp_path / "profiles.txt"),
                                    "categories": [1]}))
        assert main(["validate", "--config", str(path)]) == 1
        assert capsys.readouterr().out.splitlines() == [
            "nodes in trace without a profile: 5",
            "profiles for nodes absent from trace: 7"]

    def test_gen_trace_outputs_parse_back(self, tmp_path, capsys):
        path = synthetic_config(tmp_path)
        assert main(["gen-trace", "--config", str(path), "--categories", "5",
                     "--seed", "1", "--out", str(tmp_path / "gen")]) == 0
        trace = parse_contact_trace((tmp_path / "gen" / "trace.txt").read_text())
        assert trace.node_count == 8
        profile_lines = (tmp_path / "gen" / "profiles.txt").read_text().splitlines()
        assert len(profile_lines) == 8
        assert all(len(line.split()) == 1 + 5 for line in profile_lines)

    @pytest.mark.parametrize("command", ["validate", "gen-trace"])
    def test_synthetic_schedule_past_its_trace_exits_2(self, tmp_path, capsys, command):
        # the scenario holds the schedule's rules; `run` makes one scenario per
        # point, so there each point fails instead (test_failed_run_returns_one)
        path = synthetic_config(tmp_path, categories=[2], seeds=[1],
                                message_interval=100.0, message_count=50)
        code = main([command, "--config", str(path), "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 2
        assert err == ("config error: invalid parameter: schedule "
                       "(interval schedule ends at 5000.0, past 300.0)\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("change, named", [
        ({"strict": "false"}, "strict"),
        ({"threshold": "abc"}, "threshold"),
        ({"threshold": 1.5}, "threshold"),
        ({"buffer_capacity": "5"}, "buffer_capacity"),
        ({"message_count": "4"}, "message_count"),
        ({"trace": None, "profiles": None,
          "synthetic": {"node_count": "8", "duration": 300.0,
                        "contact_rate": 0.002, "interest_prob": 0.5}},
         "synthetic.node_count"),
        ({"trace": None, "profiles": None,
          "synthetic": {"node_count": 1, "duration": 300.0,
                        "contact_rate": 0.002, "interest_prob": 0.5}},
         "node_count"),
        ({"trace": "no_such_trace.txt"}, "no_such_trace.txt"),
        ({"profiles": "ragged.txt"}, "ragged.txt"),
        ({"mode": "kmeans", "k_clusters": 0}, "k_clusters"),
        ({"message_count": -3}, "message_count"),
        ({"message_interval": -50.0}, "message_interval"),
        ({"message_interval": float("nan")}, "message_interval"),
        ({"ttl": float("nan")}, "ttl"),
        ({"ttl": 10 ** 400}, "ttl"),
        ({"trace": None, "profiles": None,
          "synthetic": {"node_count": 8, "duration": float("nan"),
                        "contact_rate": 0.002, "interest_prob": 0.5}},
         "synthetic.duration"),
        ({"trace": "nan_start.txt"}, "nan_start.txt"),
        ({"trace": "inf_end.txt"}, "inf_end.txt"),
        ({"trace": "nan_duration.txt"}, "nan_duration.txt"),
        ({"trace": "nan_down.txt"}, "nan_down.txt"),
        ({"max_transfers_per_contact": 0}, "max_transfers_per_contact"),
        ({"max_transfers_per_contact": -3}, "max_transfers_per_contact"),
        ({"profiles": "no_data.txt"}, "no_data.txt"),
        # one file per TraceError raise site in trace_model, named with its line
        bad_line("trace", "negative_value.txt", "line 2: malformed line (negative value)"),
        bad_line("trace", "nan_time.txt", "line 2: malformed line (non-finite time)"),
        bad_line("trace", "inf_t_end.txt", "line 2: malformed line (non-finite time)"),
        bad_line("trace", "self_contact.txt", "line 2: node in contact with itself"),
        bad_line("trace", "inverted.txt", "line 2: contact interval has t_start >= t_end"),
        bad_line("trace", "field_count.txt",
                 "line 2: malformed line (expected 4 fields, got 3)"),
        bad_line("trace", "unparsable.txt", "line 2: malformed line (unparsable field)"),
        bad_line("trace", "duration_header.txt",
                 "line 2: malformed line (bad duration header)"),
        bad_line("trace", "nodes_header.txt", "line 2: malformed line (bad nodes header)"),
        bad_line("one_events", "conn_line.txt",
                 "line 2: malformed line (expected `time CONN a b up|down`)"),
        bad_line("one_events", "conn_unparsable.txt",
                 "line 2: malformed line (unparsable field)"),
        bad_line("one_events", "conn_state.txt",
                 "line 2: malformed line (unknown state 'sideways')"),
        bad_line("profiles", "node_id.txt", "line 2: malformed line (unparsable node id)"),
        bad_line("profiles", "negative_node.txt",
                 "line 2: malformed line (negative node id)"),
        bad_line("profiles", "arity.txt", "line 2: expected 3 interest bits, got 2"),
        bad_line("profiles", "non_binary.txt", "line 2: interest values must be 0 or 1"),
        bad_line("profiles", "duplicate_node.txt", "line 3: duplicate profile for node 0"),
        ({"trace": None, "profiles": None,
          "synthetic": {"node_count": 8, "duration": 300.0, "contact_rate": 1e-200,
                        "shared_interest_bias": 1e-200, "interest_prob": 0.5}},
         "shared_interest_bias"),
        # the trace file lasts 20 s: no point could create the fourth message
        ({"message_count": 4, "message_interval": 10.0},
         "invalid parameter: schedule (interval schedule ends at 40.0, past 20.0)"),
        # the records check the keys they hold, and their error is the config error
        ({"ttl": True}, "invalid parameter: ttl"),
        ({"trace": None, "profiles": None,
          "synthetic": {"node_count": 8, "duration": 300.0, "contact_rate": 0.002,
                        "interest_prob": 1.5}},
         "invalid parameter: synthetic.interest_prob"),
        ({"profiles": None, "categories": [2, MAX_CATEGORIES + 1]},
         "invalid parameter: categories"),
        ({"trace": None, "profiles": None, "categories": [MAX_CATEGORIES + 1],
          "synthetic": {"node_count": 8, "duration": 300.0, "contact_rate": 0.002,
                        "interest_prob": 0.5}},
         "invalid parameter: categories"),
        # a schedule draws at most MAX_MESSAGES messages
        ({"message_count": MAX_MESSAGES + 1}, "invalid parameter: message_count"),
        # RunConfig checks the keys that no other record holds
        ({"trace": 5}, "invalid parameter: trace"),
        ({"profiles": ["profiles.txt"]}, "invalid parameter: profiles"),
        ({"out": 5}, "invalid parameter: out"),
        ({"categories": []}, "invalid parameter: categories"),
        ({"seeds": []}, "invalid parameter: seeds"),
        ({"seeds": [1.5]}, "invalid parameter: seeds"),
        ({"trace": None, "profiles": None, "synthetic": [8]},
         "invalid parameter: synthetic"),
        # a trace file's format is its first line's, so no key names it
        ({"trace_format": "one_events"}, "unknown config key: trace_format"),
        # int() and float() would read these numbers silently
        bad_line("trace", "underscore.txt",
                 "line 2: malformed line (`_` or a non-ASCII character)"),
        bad_line("trace", "arabic_digit.txt",
                 "line 2: malformed line (`_` or a non-ASCII character)"),
        bad_line("trace", "underscore_header.txt",
                 "line 2: malformed line (`_` or a non-ASCII character)"),
        bad_line("trace", "fullwidth_header.txt",
                 "line 2: malformed line (`_` or a non-ASCII character)"),
        bad_line("one_events", "conn_digit.txt",
                 "line 2: malformed line (`_` or a non-ASCII character)"),
        bad_line("profiles", "underscore_node.txt",
                 "line 2: malformed line (`_` or a non-ASCII character)"),
        # an empty path names the current directory
        ({"out": ""}, "invalid parameter: out"),
        ({"trace": ""}, "invalid parameter: trace"),
        ({"profiles": ""}, "invalid parameter: profiles"),
        # a run id, n<category count>_s<seed>, names a directory
        ({"seeds": [int("9" * 300)]}, "invalid parameter: seeds"),
        ({"seeds": [1], "--seed": "9" * 300}, "invalid parameter: seeds"),
        ({"seeds": [2**63]}, "invalid parameter: seeds"),
        ({"seeds": [-2**63 - 1]}, "invalid parameter: seeds"),
        # a setting that the others make inert is refused, not echoed as if it
        # ran: profiles without a trace file, strictness under the epidemic
        # router, a cluster count in exact mode; and a key no source reads
        ({"trace": None, "synthetic": {"node_count": 8, "duration": 300.0,
                                       "contact_rate": 0.002, "interest_prob": 0.5}},
         "invalid parameter: profiles (applies to a trace file only)"),
        ({"trace": None, "profiles": None, "trace_format": "one_events",
          "synthetic": {"node_count": 8, "duration": 300.0, "contact_rate": 0.002,
                        "interest_prob": 0.5}},
         "unknown config key: trace_format"),
        ({"router": "epidemic", "strict": True},
         "invalid parameter: strict (applies to the cluster router only)"),
        ({"mode": "exact", "k_clusters": 3},
         "invalid parameter: k_clusters (applies to kmeans mode only)"),
        # a path the OS cannot take: a NUL, or a lone surrogate that no byte gave
        ({"out": "o\u0000x"}, "invalid parameter: out"),
        ({"out": "o\ud800x"}, "invalid parameter: out"),
        ({"trace": "trace.txt\u0000"}, "invalid parameter: trace"),
        ({"trace": "t\ud800"}, "invalid parameter: trace"),
        ({"profiles": "profiles.txt\u0000x"}, "invalid parameter: profiles"),
        ({"profiles": "\udfffp"}, "invalid parameter: profiles"),
        # k-means over no profiles: every group empty, and no k-means run
        ({"profiles": None, "mode": "kmeans", "k_clusters": 5},
         "invalid parameter: mode (kmeans needs a profiles file beside the trace)"),
        ({"profiles": None, "mode": "kmeans", "command": "validate"},
         "invalid parameter: mode (kmeans needs a profiles file beside the trace)"),
    ])
    def test_bad_value_or_file_exits_2(self, tmp_path, monkeypatch, capsys,
                                       change, named):
        monkeypatch.chdir(tmp_path)
        for name, text in BAD_FILES.items():
            (tmp_path / name).write_text(text)
        change = dict(change)
        command = change.pop("command", "run")
        seed_flag = ["--seed", change.pop("--seed")] if "--seed" in change else []
        path = write_config(tmp_path, **change)
        # --out would replace a bad `out`
        flags = seed_flag + ([] if "out" in change else ["--out", str(tmp_path / "out")])
        code = main([command, "--config", str(path), *flags])
        err = capsys.readouterr().err
        assert code == 2
        assert named in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("text, named", [
        ("[1, 2]", "is not a JSON object"),
        (None, "cannot read"),
        ('{"message_count": 5, "message_count": 0}', "'message_count' more than once"),
        ('{"synthetic": {"node_count": 4, "node_count": 8}}', "'node_count' more than once"),
        (b"\xff\xfe{", "cannot read config"),
        ("[" * 200_000 + "]" * 200_000, "is not valid JSON: nested too deeply"),
        # more digits than int() converts by default
        ('{"categories": [1' + "0" * 5000 + '], "synthetic": {}}', "is not valid JSON"),
    ], ids=["not_an_object", "unreadable", "repeated_key", "repeated_nested_key", "not_utf8",
            "nested_too_deeply", "integer_too_long"])
    def test_config_file_that_is_no_config_exits_2(self, tmp_path, capsys, text, named):
        path = tmp_path / "c.json"
        if isinstance(text, bytes):
            path.write_bytes(text)
        elif text is not None:
            path.write_text(text)
        code = main(["run", "--config", str(path), "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.count(f"config {path}") == 1   # a key given twice is not wrapped again
        assert named in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("change, error", [
        ({"profiles": "profiles.txt"},
         "invalid parameter: profiles (applies to a trace file only)"),
        # read by no source: a trace file's first line gives its format
        ({"trace_format": "one_events"}, "unknown config key: trace_format"),
        ({"router": "epidemic", "strict": True},
         "invalid parameter: strict (applies to the cluster router only)"),
        ({"k_clusters": 3}, "invalid parameter: k_clusters (applies to kmeans mode only)"),
    ], ids=["profiles", "trace_format", "strict", "k_clusters"])
    @pytest.mark.parametrize("command", ["run", "validate", "gen-trace"])
    def test_inert_key_exits_2(self, tmp_path, capsys, command, change, error):
        # the synthetic config's rows of test_bad_value_or_file_exits_2, per command
        path = synthetic_config(tmp_path, categories=[2], seeds=[1], **change)
        before = sorted(tmp_path.rglob("*"))
        assert main([command, "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == f"config error: {error}\n"
        assert sorted(tmp_path.rglob("*")) == before

    @pytest.mark.parametrize("key, where", [
        ("config", "config.json"),
        ("profiles", "summary.csv"),
        ("profiles", "failures.csv"),
        ("trace", "runs/t.txt"),
        ("trace", "runs.partial/n2_s1/t.txt"),
        ("config", "runs/../runs/c.json"),
    ])
    def test_input_among_the_outputs_exits_2(self, tmp_path, monkeypatch, capsys, key,
                                             where):
        # the sweep would remove or rewrite its own input: clearing runs/
        # would delete the trace, and the echo would rewrite the config
        # without `out`, so that the same command would then fail
        monkeypatch.chdir(tmp_path)
        paths = {"config": "config.json", "trace": "trace.txt", "profiles": "profiles.txt",
                 key: f"out/{where}"}
        for name, text in (("trace", TRACE_TEXT), ("profiles", PROFILE_TEXT),
                           ("config", json.dumps({
                               "trace": paths["trace"], "profiles": paths["profiles"],
                               "categories": [2], "seeds": [1], "out": "out"}))):
            Path(paths[name]).parent.mkdir(parents=True, exist_ok=True)
            Path(paths[name]).write_text(text)
        def tree():
            return {p: p.read_bytes() if p.is_file() else None for p in tmp_path.rglob("*")}

        before = tree()
        assert main(["run", "--config", paths["config"]]) == 2
        assert capsys.readouterr().err == (
            f"config error: {paths[key]}: an input file among the sweep's outputs in out\n")
        assert tree() == before

    def test_input_beside_the_outputs_is_kept(self, tmp_path, monkeypatch):
        # only the files and trees that a sweep replaces are refused
        monkeypatch.chdir(tmp_path)
        (tmp_path / "out" / "in").mkdir(parents=True)
        (tmp_path / "out" / "in" / "trace.txt").write_text(TRACE_TEXT)
        (tmp_path / "out" / "runs.txt").write_text(PROFILE_TEXT)
        (tmp_path / "out" / "c.json").write_text(json.dumps({
            "trace": "out/in/trace.txt", "profiles": "out/runs.txt", "categories": [2],
            "seeds": [1], "out": "out"}))
        assert main(["run", "--config", "out/c.json"]) == 0
        assert (tmp_path / "out" / "in" / "trace.txt").read_text() == TRACE_TEXT
        assert (tmp_path / "out" / "runs.txt").read_text() == PROFILE_TEXT
        assert (tmp_path / "out" / "runs" / "n2_s1" / "per_message.csv").exists()

    @pytest.mark.parametrize("path", ["o\u0000x", "o\ud800x"], ids=["nul", "surrogate"])
    @pytest.mark.parametrize("command", ["run", "validate", "gen-trace"])
    def test_out_the_os_cannot_take_exits_2(self, tmp_path, monkeypatch, capsys, command,
                                            path):
        # the record refuses it, so every command names the key, none reaches the OS
        monkeypatch.chdir(tmp_path)
        config = synthetic_config(tmp_path, categories=[2], seeds=[1], out=path)
        assert main([command, "--config", str(config)]) == 2
        assert capsys.readouterr().err == (
            "config error: invalid parameter: out "
            "(holds a NUL or a character the OS cannot encode)\n")
        assert [p.name for p in tmp_path.iterdir()] == ["config.json"]

    @pytest.mark.parametrize("where", ["trace.txt", "profiles.txt", "sub/../trace.txt",
                                       "link/trace.txt", "symlinked"])
    def test_gen_trace_input_among_its_outputs_exits_2(self, tmp_path, monkeypatch, capsys,
                                                       where):
        # gen-trace would write its trace or profiles over its own config, so
        # that the same command would then fail: through `..`, a directory
        # symlink to `gen`, or `gen/trace.txt` a symlink to the config
        monkeypatch.chdir(tmp_path)
        (tmp_path / "gen" / "sub").mkdir(parents=True)
        (tmp_path / "link").symlink_to("gen")
        config = {"symlinked": "c.json", "link/trace.txt": where}.get(where, f"gen/{where}")
        if where == "symlinked":
            (tmp_path / "gen" / "trace.txt").symlink_to("../c.json")
        text = synthetic_config(tmp_path, categories=[2], seeds=[1], out="gen").read_text()
        (tmp_path / "config.json").unlink()
        Path(config).write_text(text)
        before = sorted(tmp_path.rglob("*"))
        assert main(["gen-trace", "--config", config]) == 2
        assert capsys.readouterr().err == (
            f"config error: {config}: an input file among gen-trace's outputs in gen\n")
        assert Path(config).read_text() == text
        assert sorted(tmp_path.rglob("*")) == before

    @pytest.mark.parametrize("command", ["run", "validate"])
    def test_message_count_past_the_limit_exits_2(self, tmp_path, capsys, command):
        path = synthetic_config(tmp_path, message_count=10**8)
        code = main([command, "--config", str(path), "--out", str(tmp_path / "out")])
        assert code == 2
        assert capsys.readouterr().err == (
            f"config error: invalid parameter: message_count "
            f"(need an integer from 0 to {MAX_MESSAGES:,})\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("seeds, flags", [([2**63], []), ([1], ["--seed", "9" * 300])],
                             ids=["key", "flag"])
    @pytest.mark.parametrize("command", ["validate", "gen-trace"])
    def test_seed_past_64_bits_exits_2(self, tmp_path, capsys, command, seeds, flags):
        # the commands that make no run id take the sweep's seed rule too
        path = synthetic_config(tmp_path, categories=[2], seeds=seeds)
        code = main([command, "--config", str(path), *flags, "--out", str(tmp_path / "out")])
        assert code == 2
        assert capsys.readouterr().err == (
            "config error: invalid parameter: seeds (need integers from -2**63 to 2**63 - 1)\n")
        assert not (tmp_path / "out").exists()

    def test_empty_network_leaves_resource_used_empty(self, tmp_path):
        (tmp_path / "empty.txt").write_text("")
        path = write_config(tmp_path, trace=str(tmp_path / "empty.txt"),
                            profiles=None, message_count=0)
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 0
        with open(tmp_path / "out" / "summary.csv", newline="") as f:
            (row,) = csv.DictReader(f)
        assert row["created"] == "0"
        assert row["resource_used"] == ""

    @pytest.mark.parametrize("command", ["run", "validate"])
    def test_empty_network_with_messages_exits_2(self, tmp_path, capsys, command):
        # every point replays the same file, so no point has a node to
        # create messages at
        (tmp_path / "empty.txt").write_text("")
        path = write_config(tmp_path, trace=str(tmp_path / "empty.txt"),
                            profiles=None, categories=[1, 2])
        code = main([command, "--config", str(path), "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 2
        assert (f"config error: {tmp_path / 'empty.txt'}: invalid parameter: schedule "
                "(no nodes to create messages at)") in err
        assert not (tmp_path / "out").exists()

    def test_empty_schedule_warns_once_per_point(self, tmp_path):
        # run as its own process: in-process, pytest's log capture stands
        # in for the handler that writes the warning to stderr
        path = write_config(tmp_path, categories=[1, 2], message_count=0)
        proc = subprocess.run([sys.executable, "-m", "dtn_cluster_sim.cli", "run",
                               "--config", str(path), "--out", str(tmp_path / "out")],
                              env={**os.environ, "PYTHONPATH": _src_dir()},
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0
        assert proc.stderr == "empty message schedule: no messages will be created\n" * 2

    def test_k_clusters_clamped_in_summary(self, tmp_path):
        # PROFILE_TEXT cut to 1 and 2 bits holds 2 and 3 distinct vectors
        path = write_config(tmp_path, categories=[1, 2], mode="kmeans", k_clusters=5)
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 0
        with open(tmp_path / "out" / "summary.csv", newline="") as f:
            k_used = {row["run_id"]: row["k_clusters"] for row in csv.DictReader(f)}
        assert k_used == {"n1_s1": "2", "n2_s1": "3"}

    def test_infinite_synthetic_duration_is_config_error(self, tmp_path):
        # checked through parse_config only: a run with it never ends
        path = synthetic_config(tmp_path, synthetic={
            "node_count": 8, "duration": float("inf"),
            "contact_rate": 0.002, "interest_prob": 0.5})
        assert "Infinity" in path.read_text()
        with pytest.raises(ConfigError, match="synthetic.duration"):
            parse_config(path)
        # an infinite rate never ends either: every draw is 0
        path = synthetic_config(tmp_path, synthetic={
            "node_count": 8, "duration": 300.0, "contact_rate": 1e200,
            "shared_interest_bias": 1e200, "interest_prob": 0.5})
        with pytest.raises(ConfigError, match="shared_interest_bias"):
            parse_config(path)

    def test_int_floats_echo_as_floats(self, tmp_path):
        path = write_config(tmp_path, threshold=1, ttl=600)
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 0
        echo = json.loads((tmp_path / "out" / "config.json").read_text())
        assert echo["threshold"] == 1.0 and isinstance(echo["threshold"], float)
        assert echo["ttl"] == 600.0 and isinstance(echo["ttl"], float)
        # and in the synthetic block, made floats before its record checks them
        path = synthetic_config(tmp_path, synthetic={
            "node_count": 8, "duration": 300, "contact_rate": 1, "interest_prob": 1})
        assert parse_config(path).synthetic == {"node_count": 8, "duration": 300.0,
                                                "contact_rate": 1.0, "interest_prob": 1.0}
        assert ([type(v) for v in parse_config(path).synthetic.values()]
                == [int] + [float] * 3)

    @pytest.mark.parametrize("flag", [["--router", "epidemic"], ["--mode", "kmeans"],
                                      ["--strict"]])
    @pytest.mark.parametrize("command", ["run", "validate", "gen-trace"])
    def test_config_keys_are_not_flags(self, tmp_path, capsys, command, flag):
        path = synthetic_config(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main([command, "--config", str(path), "--out", str(tmp_path / "out"),
                  *flag])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_gen_trace_needs_one_point(self, tmp_path, capsys):
        path = synthetic_config(tmp_path)
        before = sorted(tmp_path.rglob("*"))
        for out in ("gen", "gen/sub"):
            assert main(["gen-trace", "--config", str(path), "--categories", "5",
                         "--out", str(tmp_path / out)]) == 2
            err = capsys.readouterr().err
            assert "has 2" in err and "--categories" in err and "--seed" in err
            assert sorted(tmp_path.rglob("*")) == before

    def test_gen_trace_needs_synthetic(self, tmp_path):
        path = write_config(tmp_path)
        assert main(["gen-trace", "--config", str(path),
                     "--out", str(tmp_path / "gen")]) == 2

    @pytest.mark.parametrize("command", ["run", "validate", "gen-trace"])
    def test_non_integer_categories_exit_2(self, tmp_path, capsys, command):
        path = synthetic_config(tmp_path)
        code = main([command, "--config", str(path), "--categories", "1,a",
                     "--out", str(tmp_path / "out")])
        assert code == 2
        assert "--categories" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("flag, value", [
        ("--seed", "1_0"), ("--seed", "٣"), ("--seed", "２"),
        ("--categories", "1_0"), ("--categories", "٢,3"),
        ("--categories", "1,,2"), ("--categories", "2,"), ("--categories", ",2"),
    ])
    @pytest.mark.parametrize("command", ["run", "validate", "gen-trace"])
    def test_flag_numeral_the_files_reject_exits_2(self, tmp_path, capsys, command,
                                                    flag, value):
        # the input files' rule: int() alone reads `1_0` as 10 and a digit of
        # any script by its value, and a filter of empty items reads `1,,2`
        # as 1,2, so each would name a point that runs
        path = synthetic_config(tmp_path, categories=[2], seeds=[1])
        code = main([command, "--config", str(path), flag, value,
                     "--out", str(tmp_path / "out")])
        assert code == 2
        assert f"config error: {flag} must be" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_categories_flag_reads_spaced_items(self, tmp_path):
        path = synthetic_config(tmp_path, seeds=[1])
        assert main(["run", "--config", str(path), "--categories", "2, 5",
                     "--out", str(tmp_path / "out")]) == 0
        assert sorted(p.name for p in (tmp_path / "out" / "runs").iterdir()) == [
            "n2_s1", "n5_s1"]

    @pytest.mark.parametrize("flag, named", [
        ("--categories", "--categories must be comma-separated integers, got ''"),
        ("--out", "invalid parameter: out (must be a non-empty string or null)"),
    ], ids=["categories", "out"])
    @pytest.mark.parametrize("command", ["run", "validate", "gen-trace"])
    def test_empty_flag_exits_2(self, tmp_path, monkeypatch, capsys, command, flag,
                                named):
        # an empty --categories would keep the config's own, and an empty
        # --out would write the tree into the current directory
        monkeypatch.chdir(tmp_path)
        path = synthetic_config(tmp_path, categories=[2], seeds=[1])
        before = sorted(tmp_path.rglob("*"))
        argv = [command, "--config", str(path), flag, ""]
        if flag != "--out":
            argv += ["--out", str(tmp_path / "out")]
        assert main(argv) == 2
        assert capsys.readouterr().err == f"config error: {named}\n"
        assert sorted(tmp_path.rglob("*")) == before

    @pytest.mark.parametrize("out", ["afile", "afile/x"])
    @pytest.mark.parametrize("command", ["run", "gen-trace"])
    def test_out_that_cannot_be_a_directory_exits_2(self, tmp_path, capsys,
                                                    command, out):
        path = synthetic_config(tmp_path)
        (tmp_path / "afile").write_text("kept\n")
        before = sorted(tmp_path.rglob("*"))
        code = main([command, "--config", str(path), "--out", str(tmp_path / out)])
        assert code == 2
        assert f"output directory {tmp_path / out}" in capsys.readouterr().err
        assert sorted(tmp_path.rglob("*")) == before
        assert (tmp_path / "afile").read_text() == "kept\n"


class TestRunConfigHelpers:
    def test_effective_round_trips_through_json(self, tmp_path):
        config = parse_config(synthetic_config(tmp_path))
        echo = json.loads(json.dumps(config.effective()))
        rebuilt = RunConfig(**{**echo, "out": None})
        assert rebuilt.categories == config.categories
        assert rebuilt.synthetic == config.synthetic

    @pytest.mark.parametrize("change, named", [
        ({"trace": 5}, "trace"),
        ({"profiles": ["profiles.txt"]}, "profiles"),
        ({"out": 5}, "out"),
        ({"categories": []}, "categories"),
        ({"categories": [MAX_CATEGORIES + 1]}, "categories"),
        ({"seeds": []}, "seeds"),
        ({"seeds": [True]}, "seeds"),
        ({"trace": None, "synthetic": [8]}, "synthetic"),
        ({"seeds": [2**63]}, "seeds"),     # a run id names a directory
        ({"synthetic": {}}, "synthetic"),   # and a trace: both sources
        ({"trace": None}, "trace"),         # neither source
        ({"ttl": True}, "ttl"),
        ({"message_count": MAX_MESSAGES + 1}, "message_count"),
        # a synthetic config reads no profiles file, and k-means on a trace
        # file has no vectors without one
        ({"trace": None, "synthetic": {}, "profiles": "profiles.txt"}, "profiles"),
        ({"mode": "kmeans"}, "mode"),
        # after the router's own rules, so that a bad router key is still named
        ({"trace": None, "synthetic": {}, "profiles": "profiles.txt", "ttl": True}, "ttl"),
        # a path the OS cannot take
        ({"out": "o\u0000x"}, "out"),
        ({"trace": "t\ud800"}, "trace"),
    ])
    def test_bad_key_raises_where_built(self, change, named):
        """RunConfig checks itself like every settings record: by keywords,
        by positions and by `_replace`."""
        valid = RunConfig(categories=[2], trace="trace.txt")
        for build in (lambda: RunConfig(**{**valid._asdict(), **change}),
                      lambda: RunConfig(*[change.get(name, value)
                                          for name, value in valid._asdict().items()]),
                      lambda: valid._replace(**change)):
            with pytest.raises(InvalidParams) as err:
                build()
            assert err.value.field == named

    @pytest.mark.parametrize("record", [RunConfig, SyntheticParams, RouterConfig,
                                        ScheduleConfig, Scenario])
    def test_field_annotations_are_values(self, record):
        """The config layer reads field types from `__annotations__`, so no
        field type, nor any type inside one, is text to evaluate: a string,
        or the `ForwardRef` a NamedTuple makes of one."""
        def text(hint) -> bool:
            return isinstance(hint, (str, ForwardRef)) or any(map(text, get_args(hint)))

        assert list(record.__annotations__) == list(record._fields)
        assert [name for name, hint in record.__annotations__.items() if text(hint)] == []


def _src_dir() -> str:
    return str(Path(dtn_cluster_sim.__file__).resolve().parent.parent)


def _loaded_after(code: str, modules: set[str]) -> str:
    """The `modules` that a fresh interpreter holds after running `code`,
    which must exit 0, as a sorted list; a fresh one, since pytest loads
    many itself."""
    env = {**os.environ, "PYTHONPATH": _src_dir()}
    code += f"\nimport sys; print(sorted({modules!r} & set(sys.modules)))"
    return subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True).stdout.splitlines()[-1]


# an atexit hook runs after SystemExit leaves the entry, before the
# interpreter's own exit-time collections
FREEZE_HOOK = ("import atexit, gc, sys\n"
               "atexit.register(lambda: print('frozen', gc.get_freeze_count(), file=sys.stderr))\n")


def _entry_code(path: str) -> str:
    """What `python -m dtn_cluster_sim.cli` runs, or what the installed
    script that `pyproject.toml` declares runs, as `python -c` code."""
    if path == "module":
        return "import runpy; runpy.run_module('dtn_cluster_sim.cli', run_name='__main__')"
    text = (Path(_src_dir()).parent / "pyproject.toml").read_text(encoding="utf-8")
    module, name = re.search(r'^dtn-cluster-sim = "([\w.]+):(\w+)"$', text, re.M).groups()
    return f"from {module} import {name}; sys.exit({name}())"


@pytest.mark.parametrize("path", ["module", "script"])
def test_entry_freezes_and_exits_with_main_status(tmp_path, path):
    """Both ways into the CLI freeze the heap before `main` runs and exit
    with its status: 0, 1 (a scenario with a node that has no profile) and
    2 (a config error)."""
    (tmp_path / "gaps.txt").write_text("0 5 0 1\n2 9 1 5\n")
    (tmp_path / "gap_profiles.txt").write_text("0 1\n1 0\n")
    gaps = tmp_path / "gaps.json"
    gaps.write_text(json.dumps({"trace": str(tmp_path / "gaps.txt"),
                                "profiles": str(tmp_path / "gap_profiles.txt"),
                                "categories": [1]}))
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"categories": [1]}))
    env = {**os.environ, "PYTHONPATH": _src_dir()}
    for config, status in ((write_config(tmp_path), 0), (gaps, 1), (bad, 2)):
        proc = subprocess.run(
            [sys.executable, "-c", FREEZE_HOOK + _entry_code(path),
             "validate", "--config", str(config)],
            env=env, capture_output=True, text=True, timeout=60)
        assert proc.returncode == status, proc.stderr
        assert int(re.search(r"^frozen (\d+)$", proc.stderr, re.M)[1]) > 0


def test_cli_import_leaves_numpy_out():
    """The CLI has no runtime dependency: importing it loads no numpy."""
    assert _loaded_after("import dtn_cluster_sim.cli", {"numpy"}) == "[]"


def test_cli_import_leaves_dataclasses_logging_and_csv_out():
    """Records are NamedTuples or slot classes, `logging` loads only to
    warn and `csv` only to write `failures.csv`, so starting the CLI imports
    none of `dataclasses`, the `inspect` it pulls in, `logging` and `csv`."""
    assert _loaded_after("import dtn_cluster_sim.cli",
                         {"dataclasses", "inspect", "logging", "csv"}) == "[]"


# the replay, buffer and report layers, and what only the replay imports
SWEEP_MODULES = {"dtn_cluster_sim.sim_engine", "dtn_cluster_sim.metrics", "heapq"}
# the k-means layer, which only a k-means `run` loads
KMEANS_MODULES = {"dtn_cluster_sim.clustering"}


@pytest.mark.parametrize("command, inputs", [("validate", "synthetic"), ("validate", "file"),
                                             ("validate", "file kmeans"),
                                             ("gen-trace", "synthetic"), ("run", "synthetic"),
                                             ("run", "file"), ("run", "file kmeans"),
                                             ("run", "synthetic kmeans")])
def test_only_run_loads_the_sweep_layers(tmp_path, command, inputs):
    """`validate` and `gen-trace` compile none of the replay, k-means and
    report layers; an exact-mode `run` loads the replay and report layers
    and no k-means, a k-means `run` every one of them."""
    kmeans = {"mode": "kmeans"} if inputs.endswith("kmeans") else {}
    config = (synthetic_config(tmp_path, **kmeans) if inputs.startswith("synthetic")
              else write_config(tmp_path, **kmeans))
    argv = [command, "--config", str(config), "--categories", "2", "--seed", "1",
            "--out", str(tmp_path / "out")]
    loaded = _loaded_after(f"from dtn_cluster_sim.cli import main\n"
                           f"if main({argv!r}): raise SystemExit(1)",
                           SWEEP_MODULES | KMEANS_MODULES)
    expected = (SWEEP_MODULES | (KMEANS_MODULES if kmeans else set())) if command == "run" else []
    assert loaded == str(sorted(expected))


# the two input paths and the worker pool
PATH_MODULES = {"dtn_cluster_sim.trace_files", "dtn_cluster_sim.synthetic",
                "dtn_cluster_sim.workers"}


@pytest.mark.parametrize("command, inputs", [("validate", "synthetic"), ("validate", "file"),
                                             ("gen-trace", "synthetic"), ("run", "synthetic"),
                                             ("run", "file"), ("run", "two points"),
                                             ("run", "file kmeans"),
                                             ("run", "two points kmeans")])
def test_each_config_loads_only_its_input_path(tmp_path, command, inputs):
    """Given no numeral flag, a synthetic config compiles the generator and
    no file formats but for `gen-trace`'s serializers, a file config the
    file formats and no generator, only `run` every replay and report
    layer, only a k-means `run` the k-means layer, and only a `run` of two
    or more points the worker pool."""
    kmeans = {"mode": "kmeans"} if inputs.endswith("kmeans") else {}
    config = (write_config(tmp_path, **kmeans) if inputs.startswith("file")
              else synthetic_config(tmp_path, categories=[2],
                                    seeds=[1, 2] if inputs.startswith("two") else [1], **kmeans))
    argv = [command, "--config", str(config), "--out", str(tmp_path / "out")]
    loaded = _loaded_after(f"from dtn_cluster_sim.cli import main\n"
                           f"if main({argv!r}): raise SystemExit(1)",
                           PATH_MODULES | SWEEP_MODULES | KMEANS_MODULES)
    expected = {f"dtn_cluster_sim.{'trace_files' if inputs.startswith('file') else 'synthetic'}"}
    if command == "gen-trace":
        expected.add("dtn_cluster_sim.trace_files")
    if command == "run":
        expected |= SWEEP_MODULES | (KMEANS_MODULES if kmeans else set())
    if inputs.startswith("two"):
        expected.add("dtn_cluster_sim.workers")
    assert loaded == str(sorted(expected))


def test_kmeans_loads_before_the_fork(tmp_path):
    """A k-means `run` of two points has loaded the k-means layer when the
    sweep hands its points to the worker pool, so that the forked workers
    inherit it rather than each compiling it."""
    config = synthetic_config(tmp_path, categories=[2], seeds=[1, 2], mode="kmeans")
    argv = ["run", "--config", str(config), "--out", str(tmp_path / "out")]
    code = ("import sys\n"
            "from dtn_cluster_sim import cli, workers\n"
            "real, seen = workers._run_points, []\n"
            "def spy(*args):\n"
            "    seen.append('dtn_cluster_sim.clustering' in sys.modules)\n"
            "    return real(*args)\n"
            "workers._run_points = spy\n"
            f"if cli.main({argv!r}) or seen != [True]: raise SystemExit(1)")
    assert _loaded_after(code, KMEANS_MODULES) == str(sorted(KMEANS_MODULES))


# what argparse loads: gettext, and locale at the first lookup of a text
ARGPARSE_MODULES = {"argparse", "gettext", "locale"}


@pytest.mark.parametrize("command, inputs", [("validate", "synthetic"), ("validate", "file"),
                                             ("run", "synthetic")])
def test_plain_line_leaves_argparse_out(tmp_path, command, inputs):
    """A plain line is read without argparse, so a command given one loads
    none of argparse, gettext and locale."""
    config = (synthetic_config(tmp_path, categories=[2], seeds=[1]) if inputs == "synthetic"
              else write_config(tmp_path))
    argv = [command, "--config", str(config), "--out", str(tmp_path / "out")]
    loaded = _loaded_after(f"from dtn_cluster_sim.cli import main\n"
                           f"if main({argv!r}): raise SystemExit(1)", ARGPARSE_MODULES)
    assert loaded == "[]"


@pytest.mark.parametrize("flags, status, stderr", [
    (["-h"], 0, ""),
    (["--conf", "c.json"], 2, "config error: missing required config key: out\n"),
    (["--config", "c.json", "--router", "x"], 2,
     "usage: dtn-cluster-sim [-h] {run,validate,gen-trace} ...\n"
     "dtn-cluster-sim: error: unrecognized arguments: --router x\n"),
], ids=["help", "abbreviated", "unknown"])
def test_other_lines_go_to_argparse(tmp_path, flags, status, stderr):
    """Help, an abbreviated flag and an unknown flag load argparse and get
    its texts and exit status: help on stdout, the abbreviation read as
    `--config`, and the usage error."""
    synthetic_config(tmp_path).rename(tmp_path / "c.json")
    code = ("import atexit, sys\n"
            f"atexit.register(lambda: print(sorted({ARGPARSE_MODULES!r} & set(sys.modules))))\n"
            + _entry_code("module"))
    proc = subprocess.run([sys.executable, "-c", code, "run", *flags], cwd=tmp_path,
                          env={**os.environ, "PYTHONPATH": _src_dir(), "COLUMNS": "80"},
                          capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stderr) == (status, stderr)
    *out, loaded = proc.stdout.splitlines()
    assert "argparse" in loaded
    assert (out[0] if out else "").startswith(
        "usage: dtn-cluster-sim run [-h] --config CONFIG" if flags == ["-h"] else "")


# the lines perfbench issues: harness.py's `run` and `validate` processes,
# workloads.py's gen-trace, and tracer.py's cli.main call
BENCHMARK_LINES = [
    ["run", "--config", "run.json", "--out", "out/rep1"],
    ["validate", "--config", "run.json"],
    ["gen-trace", "--config", "gen.json", "--categories", "2", "--seed", "1",
     "--out", "inputs/n2_s1"],
]


def _ci_lines() -> list[list[str]]:
    """The command lines that CI's workflow gives the installed script or
    `python -m dtn_cluster_sim.cli`."""
    path = Path(__file__).resolve().parent.parent / ".github" / "workflows" / "tests.yml"
    found = re.findall(r"(?:dtn-cluster-sim|dtn_cluster_sim\.cli) ((?:run|validate|gen-trace)"
                       r" [^\n)\\]*)", path.read_text(encoding="utf-8"))
    return [shlex.split(line) for line in found]


def _differential_lines() -> list[list[str]]:
    """Command lines over the commands and a bogus one, the four flags, an
    abbreviation, a config key, `--flag=value` and `-h`, and values that
    are empty, negative, a flag, spaced or a command: every line of zero to
    two pairs, then random lines of up to five pairs, repeats included,
    some of them cut short."""
    commands = ["run", "validate", "gen-trace", "bogus"]
    flags = [*cli._FLAGS, "--conf", "--router", "--config=x", "-h"]
    values = ["x", "", "-1", "--out", "a b", "run"]
    pairs = [[flag, value] for flag in flags for value in values]
    lines = [[command, *first, *second] for command in commands
             for first in [[], *pairs] for second in ([[]] if not first else [[], *pairs])]
    rng = random.Random(34)
    for _ in range(3000):
        line = [rng.choice(commands)] if rng.random() < 0.9 else []
        for _ in range(rng.randint(0, 5)):
            line += rng.choice(pairs)
        lines.append(line[:-1] if line and rng.random() < 0.2 else line)
    return lines


def test_plain_reader_agrees_with_argparse(capsys):
    """Every line the plain reader accepts, argparse reads without error to
    the same handler and flag values; the lines the benchmark, its tracer
    and CI issue are all among them."""
    ci_lines = _ci_lines()
    assert len(ci_lines) >= 6
    parser = cli._parser()
    accepted = []
    for argv in _differential_lines() + BENCHMARK_LINES + ci_lines:
        plain = cli._plain_args(argv)
        if plain is None:
            continue
        accepted.append(argv)
        try:
            parsed = vars(parser.parse_args(argv))
        except SystemExit:
            pytest.fail(f"argparse rejects the plain line {argv}: {capsys.readouterr().err}")
        del parsed["command"]
        assert plain == parsed, argv
    assert all(argv in accepted for argv in BENCHMARK_LINES + ci_lines)


def test_run_calls_the_name_set_on_the_cli_module(tmp_path):
    """A `run` set on `cli` before `main`, as perfbench's tracer sets its
    wrapper, is the one the sweep calls, also in a fresh interpreter where
    the replay layer is not loaded yet."""
    argv = ["run", "--config", str(synthetic_config(tmp_path)), "--categories", "2",
            "--seed", "1", "--out", str(tmp_path / "out")]
    code = ("from dtn_cluster_sim import cli\n"
            "real, calls = cli.run, []\n"
            "cli.run = lambda scenario: calls.append(scenario.seed) or real(scenario)\n"
            f"if cli.main({argv!r}) or calls != [1]: raise SystemExit(1)")
    assert _loaded_after(code, {"dtn_cluster_sim.sim_engine"}) == "['dtn_cluster_sim.sim_engine']"


def _tracer_targets() -> tuple:
    """perfbench's tracer's `TARGETS`: the names it wraps, each with its
    owner and layer."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = sys.modules[spec.name] = importlib.util.module_from_spec(spec)   # for @dataclass
    spec.loader.exec_module(tracer)
    return tracer.TARGETS


TRACED = _tracer_targets()
TRACED_CLI_NAMES = [target.attr for target in TRACED if target.owner == "cli"]
# the functions the tracer wraps on `sim_engine` in its k-means and group-resolution layers
TRACED_GROUP_NAMES = [target.attr for target in TRACED
                      if target.owner == "sim_engine" and target.layer.startswith("clustering.")]
TRACED_KMEANS_NAMES = {name for name in TRACED_GROUP_NAMES
                       if dtn_cluster_sim._HOME[name] == "clustering"}


@pytest.mark.parametrize("name, inputs, module", [
    *((name, "synthetic" if name == "generate_synthetic_trace" else "file",
       dtn_cluster_sim._HOME.get(name, "cli")) for name in TRACED_CLI_NAMES),
    *((f"sim_engine.{name}", "file" if name in TRACED_KMEANS_NAMES else "exact",
       dtn_cluster_sim._HOME[name]) for name in TRACED_GROUP_NAMES)])
def test_input_path_calls_the_name_set_on_the_cli_module(tmp_path, name, inputs, module):
    """Each name that perfbench's tracer wraps on `cli`, and as
    `sim_engine.<name>` each group-resolution name it wraps on
    `sim_engine`, set there before `main` as the tracer sets its wrapper,
    is the one that a one-point `run` calls: once, or once per category for
    a group resolver. The run is in a fresh interpreter where the name's
    module is loaded only if it is the module the name is set on. The file
    config is in k-means mode, so that `dump_clustering` and the k-means
    names run, but for the exact filter; only k-means loads `clustering`."""
    owner, _, attr = name.rpartition(".")
    owner = owner or "cli"
    config = (synthetic_config(tmp_path, categories=[2], seeds=[1]) if inputs == "synthetic"
              else write_config(tmp_path, mode="kmeans" if inputs == "file" else "exact"))
    argv = ["run", "--config", str(config), "--out", str(tmp_path / "out")]
    count = 2 if attr.startswith("resolve_group") else 1   # the config's 2 categories
    module = f"dtn_cluster_sim.{module}"
    code = ("import sys\n"
            f"from dtn_cluster_sim import cli, {owner}\n"
            f"assert ({module!r} in sys.modules) == {module == f'dtn_cluster_sim.{owner}'}\n"
            f"real, calls = {owner}.{attr}, []\n"
            f"{owner}.{attr} = lambda *args, **kwargs: calls.append(1) or real(*args, **kwargs)\n"
            f"if cli.main({argv!r}) or calls != [1] * {count}: raise SystemExit(1)")
    expected = {module} | (KMEANS_MODULES if inputs == "file" else set())
    assert _loaded_after(code, {module} | KMEANS_MODULES) == str(sorted(expected))


@pytest.mark.parametrize("module, file_kmeans, synthetic_exact", [
    pytest.param("cli", set(TRACED_CLI_NAMES) - {"parse_config", "generate_synthetic_trace"},
                 set(TRACED_CLI_NAMES) - {"parse_config", "parse_contact_trace",
                                          "parse_interest_profiles", "dump_clustering"}, id="cli"),
    pytest.param("sim_engine", TRACED_KMEANS_NAMES | {"points_of"}, set(), id="sim_engine")])
def test_run_binds_only_the_names_the_tracer_wraps(tmp_path, module, file_kmeans,
                                                   synthetic_exact):
    """A k-means file `run` and an exact-mode synthetic `run`, each in a
    fresh interpreter, bind on `module` no package name beyond its imports
    but those given: on `cli` the names of the run's path that perfbench's
    tracer wraps there (it defines `parse_config` itself), on `sim_engine`
    the tracer's k-means names and the `points_of` they read, in k-means
    mode only."""
    bound = []
    for config in (write_config(tmp_path, "file.json", mode="kmeans"),
                   synthetic_config(tmp_path, categories=[2], seeds=[1])):
        argv = ["run", "--config", str(config), "--out", str(tmp_path / "out")]
        code = (f"from dtn_cluster_sim import cli, {module} as module\n"
                "imported = set(vars(module))\n"
                f"if cli.main({argv!r}): raise SystemExit(1)\n"
                "print(' '.join(set(vars(module)) - imported))")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": _src_dir()}, check=True)
        bound.append(set(proc.stdout.split()))
    assert bound == [file_kmeans, synthetic_exact]


def test_package_exports_load_on_first_use():
    """Importing the package loads no submodule; each public name is its
    home module's object, an unknown name is an AttributeError on the
    package, `cli` and `sim_engine`, reading `sim_engine.kmeans` is what
    loads `clustering` and gives its `kmeans`, and `import *` and `dir` see
    every public name."""
    package = Path(dtn_cluster_sim.__file__).parent
    submodules = {f"dtn_cluster_sim.{p.stem}" for p in package.glob("*.py")} - {
        "dtn_cluster_sim.__init__"}
    assert _loaded_after("import dtn_cluster_sim", submodules) == "[]"
    for name in dtn_cluster_sim.__all__:
        value = getattr(dtn_cluster_sim, name)
        assert getattr(importlib.import_module(value.__module__), name) is value
    for module in (dtn_cluster_sim, cli, sim_engine):
        with pytest.raises(AttributeError, match="no_such_name"):
            module.no_such_name
    code = ("import sys\n"
            "from dtn_cluster_sim import sim_engine\n"
            "assert 'dtn_cluster_sim.clustering' not in sys.modules\n"
            "assert sim_engine.kmeans is sys.modules['dtn_cluster_sim.clustering'].kmeans")
    assert _loaded_after(code, KMEANS_MODULES) == str(sorted(KMEANS_MODULES))
    namespace = {}
    exec("from dtn_cluster_sim import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(dtn_cluster_sim.__all__)
    assert set(dtn_cluster_sim.__all__) <= set(dir(dtn_cluster_sim))


def _imports_cli(source: str) -> bool:
    """Whether `source`, a module of the package, imports `cli` anywhere."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = ".".join(filter(None, ("dtn_cluster_sim" if node.level else "", node.module)))
            names = [base, *(f"{base}.{alias.name}" for alias in node.names)]
        else:
            continue
        if "dtn_cluster_sim.cli" in names:
            return True
    return False


def test_no_module_imports_cli():
    """No module of the package imports `cli`: under `python -m
    dtn_cluster_sim.cli`, `cli` runs as `__main__`, so such an import
    would compile and run it a second time, with classes of its own."""
    for form in ("from .cli import ConfigError", "from . import cli", "import dtn_cluster_sim.cli",
                 "from dtn_cluster_sim.cli import main", "def f():\n    from dtn_cluster_sim import cli"):
        assert _imports_cli(form), form
    assert not _imports_cli("from . import clustering\nfrom .trace_files import cli")
    package = Path(dtn_cluster_sim.__file__).parent
    assert [path.name for path in sorted(package.glob("*.py"))
            if _imports_cli(path.read_text(encoding="utf-8"))] == []


# the inputs that test_mutated_inputs_exit_cleanly mutates: a tabular trace
# with both headers, a profile file and a file config over both
FUZZ_TRACE = "1 4 0 1\n3 8 1 2\n6 9 0 2\n12 15 1 3\n# duration: 20\n# nodes: 4\n"
FUZZ_PROFILES = "0 1 0 1\n1 0 1 1\n2 1 1 0\n3 0 0 1\n"
# with `_` and digits of other scripts, which int() and float() would read
FUZZ_CHARS = "0123456789 .-_#:\n\txenaif\u0663\uff12"
FUZZ_VALUES = (None, True, -1, 0, 1, 2, 3, 7, 2.5, 1e300, 10**6, float("nan"), "x",
               "one_events", "kmeans", "epidemic", [], [3], [1, 3], {})
# what only the path fields draw besides: a NUL, and a lone surrogate that no byte gave
FUZZ_PATHS = {key: FUZZ_VALUES + ("t\x00", "t\ud800") for key in ("trace", "profiles", "out")}


def mutate_text(rng, text: str) -> str:
    """One to three character edits, line copies or truncations of `text`."""
    for _ in range(rng.randint(1, 3)):
        at, op = rng.randrange(len(text) + 1), rng.randrange(5)
        if op == 0:
            text = text[:at] + rng.choice(FUZZ_CHARS) + text[at:]
        elif op == 1:
            text = text[:at] + text[at + 1:]
        elif op == 2:
            text = text[:at] + rng.choice(FUZZ_CHARS) + text[at + 1:]
        elif op == 3:
            lines = text.split("\n")
            lines.insert(rng.randrange(len(lines) + 1), rng.choice(lines))
            text = "\n".join(lines)
        else:
            text = text[:at]
    return text


def fuzz_inputs(rng, i: int) -> tuple[str, str, str]:
    """Trace, profile and config text of fuzz case i: one of the three is
    mutated, the config either by its values and keys or as text."""
    trace, profiles = FUZZ_TRACE, FUZZ_PROFILES
    config = {"trace": "trace.txt", "profiles": "profiles.txt", "categories": [2],
              "seeds": [1], "message_count": 4, "ttl": 8.0, "buffer_capacity": 2, "out": "out"}
    if i % 3 == 0:
        trace = mutate_text(rng, trace)
    elif i % 3 == 1:
        profiles = mutate_text(rng, profiles)
    elif i % 6 == 2:
        return trace, profiles, mutate_text(rng, json.dumps(config))
    else:
        # every other such case sets a path field first, so that the path rules are reached
        for n in range(rng.randint(1, 2)):
            key = rng.choice(tuple(FUZZ_PATHS) if n == 0 and i % 12 == 11
                             else (*RunConfig._fields, "unknown"))
            if rng.random() < 0.2:
                config.pop(key, None)
            else:
                config[key] = rng.choice(FUZZ_PATHS.get(key, FUZZ_VALUES))
    return trace, profiles, json.dumps(config)


def names_file_or_key(err: str, config: str) -> bool:
    """Whether a config error names the config file or the trace or profile
    file it names, or a key of the config schema or of the config file."""
    if err.startswith("config error: config config.json "):
        return True
    values = json.loads(config)
    if any(isinstance(values.get(key), str) and err.startswith(f"config error: {values[key]}: ")
           for key in ("trace", "profiles")):
        return True
    said = re.match(r"config error: (invalid parameter|unknown config key|missing required "
                    r"config key): (.+?)(?: \(|\n)", err)
    keys = {*RunConfig._fields, *(f"synthetic.{key}" for key in SyntheticParams._fields)}
    return said is not None and said[2] in keys.union(values)


def test_mutated_inputs_exit_cleanly(tmp_path, monkeypatch, capsys):
    """A seeded mutation fuzz of the three input files: 200 cases, each
    run through `validate` and then `run`. Every command ends in 0, 1 or 2
    with no traceback, and an exit 2 names a file or a config key."""
    rng = random.Random(2018)
    statuses, out_errors = Counter(), 0
    for i in range(200):
        trace, profiles, config = fuzz_inputs(rng, i)
        case = tmp_path / f"case{i}"
        case.mkdir()
        for name, text in (("trace.txt", trace), ("profiles.txt", profiles),
                           ("config.json", config)):
            (case / name).write_text(text, encoding="utf-8")
        monkeypatch.chdir(case)
        for command in ("validate", "run"):
            code = main([command, "--config", "config.json"])
            err = capsys.readouterr().err
            assert code in (0, 1, 2) and "Traceback" not in err, (i, command, err)
            assert code != 2 or names_file_or_key(err, config), (i, command, err)
            statuses[command, code] += 1
            out_errors += code == 2 and re.match(r"config error: [^:\n]+: out\b", err) is not None
    # the fuzz reaches every outcome but a failed point, and a refused `out`
    assert out_errors, statuses
    assert set(statuses) == {("validate", 0), ("validate", 1), ("validate", 2),
                             ("run", 0), ("run", 2)}, statuses
