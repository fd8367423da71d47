import csv
import json
from pathlib import Path

import pytest

from dtn_cluster_sim.cli import (ConflictingSources, ConfigError, MissingRequired,
                                 RunConfig, UnknownKey, adapt_profiles, main,
                                 parse_config, run_sweep, sniff_profile_arity)
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
        with pytest.raises(ConflictingSources):
            parse_config(path)

    def test_neither_source(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"categories": [1]}))
        with pytest.raises(MissingRequired):
            parse_config(path)

    def test_seed_flag_overrides_file(self, tmp_path):
        path = write_config(tmp_path, seeds=[3, 4])
        config = parse_config(path, {"seed": 7})
        assert config.seeds == [7]

    def test_categories_and_router_overrides(self, tmp_path):
        config = parse_config(write_config(tmp_path),
                              {"categories": [1, 5], "router": "epidemic",
                               "mode": "kmeans", "strict": True})
        assert config.categories == [1, 5]
        assert config.router == "epidemic"
        assert config.mode == "kmeans"
        assert config.strict is True

    def test_unknown_key(self, tmp_path):
        path = write_config(tmp_path, bogus=1)
        with pytest.raises(UnknownKey):
            parse_config(path)

    def test_unknown_synthetic_key(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({
            "categories": [1],
            "synthetic": {"node_count": 4, "duration": 1.0, "contact_rate": 1.0,
                          "interest_prob": 0.5, "warp": 9}}))
        with pytest.raises(UnknownKey):
            parse_config(path)

    def test_missing_categories(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"trace": "t"}))
        with pytest.raises(MissingRequired):
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
    def test_sniff_arity(self):
        assert sniff_profile_arity(PROFILE_TEXT) == 3
        assert sniff_profile_arity("# only comments\n") == 0

    def test_truncate(self):
        profiles = [InterestProfile(1, (1, 0, 1))]
        assert adapt_profiles(profiles, 2)[0].interests == (1, 0)

    def test_pad_with_zeros(self):
        profiles = [InterestProfile(1, (1, 0))]
        assert adapt_profiles(profiles, 4)[0].interests == (1, 0, 0, 0)

    def test_exact_fit_untouched(self):
        profiles = [InterestProfile(1, (1, 0))]
        assert adapt_profiles(profiles, 2) == profiles


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

    def test_missing_out(self, tmp_path):
        config = parse_config(write_config(tmp_path))
        with pytest.raises(MissingRequired):
            run_sweep(config)


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
        assert main(["gen-trace", "--config", str(path),
                     "--out", str(tmp_path / "gen")]) == 0
        trace = parse_contact_trace((tmp_path / "gen" / "trace.txt").read_text())
        assert trace.node_count == 8
        profile_lines = (tmp_path / "gen" / "profiles.txt").read_text().splitlines()
        assert len(profile_lines) == 8

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
    ])
    def test_bad_value_or_file_exits_2(self, tmp_path, monkeypatch, capsys,
                                       change, named):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "ragged.txt").write_text("0 1 0 1\n1 0 1\n")
        path = write_config(tmp_path, **change)
        code = main(["run", "--config", str(path), "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 2
        assert named in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_int_floats_echo_as_floats(self, tmp_path):
        path = write_config(tmp_path, threshold=1, ttl=600)
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 0
        echo = json.loads((tmp_path / "out" / "config.json").read_text())
        assert echo["threshold"] == 1.0 and isinstance(echo["threshold"], float)
        assert echo["ttl"] == 600.0 and isinstance(echo["ttl"], float)

    def test_gen_trace_needs_synthetic(self, tmp_path):
        path = write_config(tmp_path)
        assert main(["gen-trace", "--config", str(path),
                     "--out", str(tmp_path / "gen")]) == 2


class TestRunConfigHelpers:
    def test_effective_round_trips_through_json(self, tmp_path):
        config = parse_config(synthetic_config(tmp_path))
        echo = json.loads(json.dumps(config.effective()))
        rebuilt = RunConfig(**{**echo, "out": None})
        assert rebuilt.categories == config.categories
        assert rebuilt.synthetic == config.synthetic
