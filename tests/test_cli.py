import csv
import gc
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import dtn_cluster_sim
from dtn_cluster_sim import cli
from dtn_cluster_sim.cli import (ConfigError, RunConfig, build_scenario, main,
                                 parse_config, run_sweep)
from dtn_cluster_sim.metrics import summary_header
from dtn_cluster_sim.trace_model import InterestProfile, parse_contact_trace


TRACE_TEXT = "1 4 0 1\n3 8 1 2\n6 9 0 2\n# duration: 20\n"
PROFILE_TEXT = "0 1 0 1\n1 0 1 1\n2 1 1 0\n"


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
}


def bad_line(kind: str, name: str, error: str):
    """A case of test_bad_value_or_file_exits_2: the `kind` input (trace,
    one_events trace or profiles) is BAD_FILES[name], and the CLI must name
    the file and `error`."""
    change = {"profiles": name} if kind == "profiles" else {"trace": name}
    if kind == "one_events":
        change["trace_format"] = "one_events"
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
        scenario = build_scenario(config, 2, 1, (None, profiles))
        assert scenario.profiles[0].interests == (1, 0)

    def test_exact_fit_untouched(self, tmp_path):
        config = parse_config(write_config(tmp_path))
        profiles = [InterestProfile(1, (1, 0))]
        scenario = build_scenario(config, 2, 1, (None, profiles))
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

    @pytest.mark.parametrize("stale", ["runs", "summary.csv"])
    def test_earlier_output_that_cannot_be_cleared_exits_2(self, tmp_path, capsys,
                                                           stale):
        # a file where the sweep needs a directory, or the reverse
        out = tmp_path / "out"
        out.mkdir()
        if stale == "runs":
            (out / stale).write_text("not a directory\n")
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
    CLI's own process and the others in forked workers."""

    SIX_POINTS = {"categories": [2, 3, 4], "seeds": [1, 2]}

    def sweep(self, tmp_path, monkeypatch, width, out="out"):
        """run_sweep of the six-point sweep in `width` processes; its exit
        status and the pids of the workers it forked."""
        monkeypatch.setattr(cli, "_processes", lambda n_points: min(n_points, width))
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
        assert "consistent" in capsys.readouterr().out

    @pytest.mark.parametrize("collecting", [True, False], ids=["gc-on", "gc-off"])
    def test_commands_run_without_the_collector(self, tmp_path, monkeypatch, capsys,
                                                collecting):
        """main runs a command with the cyclic collector off and leaves it
        as it found it: after a run, a validate and a config error."""
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
        try:
            (gc.enable if collecting else gc.disable)()
            for argv, code in calls:
                assert main(argv) == code
                assert gc.isenabled() is collecting
        finally:
            (gc.enable if was else gc.disable)()
        assert during == [False] * 3

    def test_validate_flags_gaps(self, tmp_path, capsys):
        (tmp_path / "trace.txt").write_text("0 5 0 1\n2 9 1 5\n")
        (tmp_path / "profiles.txt").write_text("0 1\n1 0\n")
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"trace": str(tmp_path / "trace.txt"),
                                    "profiles": str(tmp_path / "profiles.txt"),
                                    "categories": [1]}))
        assert main(["validate", "--config", str(path)]) == 1
        assert "5" in capsys.readouterr().out

    def test_gen_trace_outputs_parse_back(self, tmp_path, capsys):
        path = synthetic_config(tmp_path)
        assert main(["gen-trace", "--config", str(path), "--categories", "5",
                     "--seed", "1", "--out", str(tmp_path / "gen")]) == 0
        trace = parse_contact_trace((tmp_path / "gen" / "trace.txt").read_text())
        assert trace.node_count == 8
        profile_lines = (tmp_path / "gen" / "profiles.txt").read_text().splitlines()
        assert len(profile_lines) == 8
        assert all(len(line.split()) == 1 + 5 for line in profile_lines)

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
        ({"trace": "nan_down.txt", "trace_format": "one_events"}, "nan_down.txt"),
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
    ])
    def test_bad_value_or_file_exits_2(self, tmp_path, monkeypatch, capsys,
                                       change, named):
        monkeypatch.chdir(tmp_path)
        for name, text in BAD_FILES.items():
            (tmp_path / name).write_text(text)
        path = write_config(tmp_path, **change)
        code = main(["run", "--config", str(path), "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 2
        assert named in err
        assert "Traceback" not in err
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


def _src_dir() -> str:
    return str(Path(dtn_cluster_sim.__file__).resolve().parent.parent)


def _loaded_by_cli_import(modules: set[str]) -> str:
    """The `modules` that a fresh interpreter holds after importing the
    CLI, as a sorted list; a fresh one, since pytest loads many itself."""
    env = {**os.environ, "PYTHONPATH": _src_dir()}
    code = f"import sys, dtn_cluster_sim.cli; print(sorted({modules!r} & set(sys.modules)))"
    return subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True).stdout.strip()


def test_cli_import_leaves_numpy_out():
    """The CLI has no runtime dependency: importing it loads no numpy."""
    assert _loaded_by_cli_import({"numpy"}) == "[]"


def test_cli_import_leaves_dataclasses_logging_and_csv_out():
    """Records are NamedTuples or slot classes, `logging` loads only to
    warn and `csv` only to write `failures.csv`, so starting the CLI imports
    none of `dataclasses`, the `inspect` it pulls in, `logging` and `csv`."""
    assert _loaded_by_cli_import({"dataclasses", "inspect", "logging", "csv"}) == "[]"
