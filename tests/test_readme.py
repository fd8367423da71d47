"""README's contract lists, checked against the code they describe."""

import json
import re
from pathlib import Path

import dtn_cluster_sim
from dtn_cluster_sim.cli import RunConfig
from dtn_cluster_sim.metrics import PER_MESSAGE_COLUMNS, summary_header
from dtn_cluster_sim.synthetic import SyntheticParams
from dtn_cluster_sim.trace_files import parse_contact_trace
from dtn_cluster_sim.trace_model import InterestProfile, validate_scenario

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def section(title: str) -> str:
    """The text of README's section `title`, up to the next heading."""
    start = README.index(f"\n{title}\n")
    end = re.compile(r"^#", re.M).search(README, start + len(title) + 2)
    return README[start:end.start() if end else None]


def test_config_example_names_every_key():
    example = re.search(r"```json\n(.*?)```", section("## CLI"), re.S)[1]
    config = json.loads(re.sub(r"//.*", "", example))
    assert set(config) == set(RunConfig._fields)
    assert set(config["synthetic"]) == set(SyntheticParams._fields) - {"n_categories"}


def test_csv_columns_are_the_written_headers():
    columns = re.findall(r"^ +`([a-z_,]+)`$", section("### Output CSV contracts"), re.M)
    assert columns == [summary_header(), PER_MESSAGE_COLUMNS]


def test_layout_lists_every_module():
    listed = re.findall(r"^\| `dtn_cluster_sim\.(\w+)` \|", section("## Layout"), re.M)
    package = Path(dtn_cluster_sim.__file__).parent
    assert sorted(listed) == sorted(p.stem for p in package.glob("*.py") if p.stem != "__init__")


def test_validate_lines_are_the_written_ones():
    documented = re.search(r"```text\n(.*?)```", section("## CLI"), re.S)[1].splitlines()
    trace = parse_contact_trace("0 1 1 2\n0 1 3 4\n")
    profiles = [InterestProfile(n, (1,)) for n in (1, 2, 8, 9)]
    written = validate_scenario(trace, profiles)
    assert [re.sub(r": [\d ]+$", ": <ids>", line) for line in written] == documented
