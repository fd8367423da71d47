"""Nodes, interest profiles and contact traces.

A scenario is driven entirely by a contact trace: a sequence of
[t_start, t_end] intervals during which two nodes can exchange messages.
Interest profiles attach a fixed-length binary interest vector to each
node. This module holds the data model, parsers for the two supported
on-disk formats, a seeded synthetic generator for desk-scale experiments,
and a scenario consistency check.

Normalization applied by every constructor path:
  * contacts are symmetric, endpoints stored with a < b;
  * overlapping or touching intervals of the same pair are merged;
  * events are sorted by (t_start, t_end, a, b).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable

TRACE_FORMATS = ("tabular", "one_events")


class TraceError(ValueError):
    """Base class for trace and profile input problems."""


class MalformedLine(TraceError):
    def __init__(self, line_no: int, detail: str = ""):
        self.line_no = line_no
        msg = f"line {line_no}: malformed line"
        super().__init__(msg + (f" ({detail})" if detail else ""))


class InvertedInterval(TraceError):
    def __init__(self, line_no: int):
        self.line_no = line_no
        super().__init__(f"line {line_no}: contact interval has t_start >= t_end")


class SelfContact(TraceError):
    def __init__(self, line_no: int):
        self.line_no = line_no
        super().__init__(f"line {line_no}: node in contact with itself")


class WrongArity(TraceError):
    def __init__(self, line_no: int, expected: int, got: int):
        self.line_no = line_no
        self.expected = expected
        self.got = got
        super().__init__(f"line {line_no}: expected {expected} interest bits, got {got}")


class NonBinaryValue(TraceError):
    def __init__(self, line_no: int):
        self.line_no = line_no
        super().__init__(f"line {line_no}: interest values must be 0 or 1")


class DuplicateNode(TraceError):
    def __init__(self, node_id: int):
        self.node_id = node_id
        super().__init__(f"duplicate profile for node {node_id}")


class InvalidParams(ValueError):
    def __init__(self, field: str, detail: str = ""):
        self.field = field
        msg = f"invalid parameter: {field}"
        super().__init__(msg + (f" ({detail})" if detail else ""))


@dataclass(frozen=True)
class ContactEvent:
    """One pairwise connectivity interval: nodes a and b can exchange
    messages at any instant in [t_start, t_end)."""

    t_start: float
    t_end: float
    a: int
    b: int

    def __post_init__(self):
        if self.t_start < 0:
            raise ValueError(f"negative t_start: {self.t_start}")
        if self.t_start >= self.t_end:
            raise ValueError(f"empty interval [{self.t_start}, {self.t_end}]")
        if self.a == self.b:
            raise ValueError(f"self-contact at node {self.a}")
        if self.a < 0 or self.b < 0:
            raise ValueError("node ids must be non-negative")


@dataclass(frozen=True)
class ContactTrace:
    events: tuple[ContactEvent, ...]
    duration: float
    node_count: int

    def nodes(self) -> list[int]:
        """Distinct node ids appearing in the events, ascending."""
        seen = set()
        for e in self.events:
            seen.add(e.a)
            seen.add(e.b)
        return sorted(seen)


@dataclass(frozen=True)
class InterestProfile:
    """A node's declared interests: one bit per category."""

    node: int
    interests: tuple[int, ...]

    def __post_init__(self):
        if self.node < 0:
            raise ValueError("node ids must be non-negative")
        if any(bit not in (0, 1) for bit in self.interests):
            raise ValueError(f"non-binary interest vector for node {self.node}")


@dataclass(frozen=True)
class ScenarioReport:
    """Consistency report: node ids present on one side of the scenario only."""

    missing_profile: tuple[int, ...]
    unused_profile: tuple[int, ...]

    @property
    def ok(self) -> bool:
        return not self.missing_profile and not self.unused_profile

    def lines(self) -> list[str]:
        out = []
        if self.missing_profile:
            out.append("nodes in trace without a profile: "
                       + " ".join(str(n) for n in self.missing_profile))
        if self.unused_profile:
            out.append("profiles for nodes absent from trace: "
                       + " ".join(str(n) for n in self.unused_profile))
        if not out:
            out.append("scenario consistent")
        return out


def _merge_pair_intervals(intervals: list[tuple[float, float]]) -> list[tuple[float, float]]:
    """Union of intervals for one node pair; overlapping or touching runs collapse."""
    intervals.sort()
    merged: list[list[float]] = []
    for start, end in intervals:
        if merged and start <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], end)
        else:
            merged.append([start, end])
    return [(s, e) for s, e in merged]


def build_trace(raw_events: Iterable[tuple[float, float, int, int]],
                duration: float | None = None,
                node_count: int | None = None) -> ContactTrace:
    """Assemble a normalized ContactTrace from (t_start, t_end, a, b) tuples.

    Pair order is canonicalized to a < b, same-pair intervals are merged,
    and events are sorted. duration defaults to the latest t_end and
    node_count to the number of distinct ids; both may only be overridden
    upward.
    """
    by_pair: dict[tuple[int, int], list[tuple[float, float]]] = {}
    for t_start, t_end, a, b in raw_events:
        lo, hi = (a, b) if a < b else (b, a)
        by_pair.setdefault((lo, hi), []).append((t_start, t_end))

    events = []
    for (a, b), intervals in by_pair.items():
        for start, end in _merge_pair_intervals(intervals):
            events.append(ContactEvent(start, end, a, b))
    events.sort(key=lambda e: (e.t_start, e.t_end, e.a, e.b))

    max_end = max((e.t_end for e in events), default=0.0)
    if duration is None:
        duration = max_end
    elif duration < max_end:
        raise InvalidParams("duration", f"{duration} < last contact end {max_end}")

    distinct = len({n for e in events for n in (e.a, e.b)})
    if node_count is None:
        node_count = distinct
    elif node_count < distinct:
        raise InvalidParams("node_count", f"{node_count} < {distinct} distinct ids")

    return ContactTrace(events=tuple(events), duration=float(duration),
                        node_count=node_count)


def _header_value(body: str, key: str) -> str | None:
    if not body.startswith(key):
        return None
    rest = body[len(key):].lstrip()
    if rest.startswith(":") or rest.startswith("="):
        rest = rest[1:]
    return rest.strip()


def _iter_data_lines(text: str):
    """Split text into (line_no, fields) data lines plus duration/nodes headers."""
    headers: dict[str, tuple[int, str]] = {}
    data = []
    for line_no, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped:
            continue
        if stripped.startswith("#"):
            body = stripped.lstrip("#").strip()
            for key in ("duration", "nodes"):
                value = _header_value(body, key)
                if value is not None:
                    headers[key] = (line_no, value)
            continue
        data.append((line_no, stripped.split()))
    return headers, data


def _parse_headers(headers: dict[str, tuple[int, str]]) -> tuple[float | None, int | None]:
    duration = None
    node_count = None
    if "duration" in headers:
        line_no, value = headers["duration"]
        try:
            duration = float(value)
        except ValueError:
            raise MalformedLine(line_no, "bad duration header") from None
    if "nodes" in headers:
        line_no, value = headers["nodes"]
        try:
            node_count = int(value)
        except ValueError:
            raise MalformedLine(line_no, "bad nodes header") from None
    return duration, node_count


def _tabular_events(data: list[tuple[int, list[str]]]):
    for line_no, fields in data:
        if len(fields) != 4:
            raise MalformedLine(line_no, f"expected 4 fields, got {len(fields)}")
        try:
            t_start, t_end = float(fields[0]), float(fields[1])
            a, b = int(fields[2]), int(fields[3])
        except ValueError:
            raise MalformedLine(line_no, "unparsable field") from None
        if a < 0 or b < 0 or t_start < 0:
            raise MalformedLine(line_no, "negative value")
        if a == b:
            raise SelfContact(line_no)
        if t_start >= t_end:
            raise InvertedInterval(line_no)
        yield t_start, t_end, a, b


def _one_events(data: list[tuple[int, list[str]]]):
    """Pair CONN up/down lines per unordered node pair, in file order.

    A stray down (no matching up) is ignored; a repeated up while the pair
    is already open is idempotent; an up never closed ends at the last
    timestamp seen in the file.
    """
    open_since: dict[tuple[int, int], float] = {}
    events = []
    last_time = 0.0
    for line_no, fields in data:
        if len(fields) != 5 or fields[1].upper() != "CONN":
            raise MalformedLine(line_no, "expected `time CONN a b up|down`")
        try:
            time = float(fields[0])
            a, b = int(fields[2]), int(fields[3])
        except ValueError:
            raise MalformedLine(line_no, "unparsable field") from None
        state = fields[4].lower()
        if state not in ("up", "down"):
            raise MalformedLine(line_no, f"unknown state {fields[4]!r}")
        if time < 0 or a < 0 or b < 0:
            raise MalformedLine(line_no, "negative value")
        if a == b:
            raise SelfContact(line_no)
        last_time = max(last_time, time)
        pair = (a, b) if a < b else (b, a)
        if state == "up":
            open_since.setdefault(pair, time)
        else:
            start = open_since.pop(pair, None)
            if start is None:
                continue
            if start >= time:
                raise InvertedInterval(line_no)
            events.append((start, time, pair[0], pair[1]))
    for pair, start in open_since.items():
        if start < last_time:
            events.append((start, last_time, pair[0], pair[1]))
    return events, last_time


def parse_contact_trace(text: str, fmt: str = "tabular") -> ContactTrace:
    """Parse a contact trace from `tabular` or `one_events` text.

    tabular: one interval per line, `t_start t_end node_a node_b`.
    one_events: `time CONN node_a node_b up|down` lines paired in file order.
    Lines starting with `#` are ignored except for optional
    `# duration: <s>` and `# nodes: <count>` headers, which may enlarge the
    derived values.
    """
    if fmt not in TRACE_FORMATS:
        raise ValueError(f"unknown trace format: {fmt!r}")
    headers, data = _iter_data_lines(text)
    duration, node_count = _parse_headers(headers)
    if fmt == "tabular":
        raw = list(_tabular_events(data))
    else:
        raw, last_time = _one_events(data)
        if duration is None and data:
            duration = last_time
    return build_trace(raw, duration=duration, node_count=node_count)


def serialize_contact_trace(trace: ContactTrace) -> str:
    """Canonical tabular text; parsing it back recovers the trace exactly."""
    lines = [f"# duration: {trace.duration!r}", f"# nodes: {trace.node_count}"]
    for e in trace.events:
        lines.append(f"{e.t_start!r} {e.t_end!r} {e.a} {e.b}")
    return "\n".join(lines) + "\n"


def parse_interest_profiles(text: str, n_categories: int) -> list[InterestProfile]:
    """Parse `node_id bit_1 ... bit_n` lines into profiles, sorted by node id."""
    profiles: dict[int, InterestProfile] = {}
    for line_no, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        fields = stripped.split()
        try:
            node = int(fields[0])
        except ValueError:
            raise MalformedLine(line_no, "unparsable node id") from None
        if node < 0:
            raise MalformedLine(line_no, "negative node id")
        if len(fields) - 1 != n_categories:
            raise WrongArity(line_no, n_categories, len(fields) - 1)
        bits = []
        for field in fields[1:]:
            if field not in ("0", "1"):
                raise NonBinaryValue(line_no)
            bits.append(int(field))
        if node in profiles:
            raise DuplicateNode(node)
        profiles[node] = InterestProfile(node, tuple(bits))
    return [profiles[node] for node in sorted(profiles)]


def serialize_profiles(profiles: Iterable[InterestProfile]) -> str:
    lines = []
    for p in sorted(profiles, key=lambda p: p.node):
        lines.append(str(p.node) + " " + " ".join(str(b) for b in p.interests))
    return "\n".join(lines) + ("\n" if lines else "")


@dataclass(frozen=True)
class SyntheticParams:
    """Knobs for the synthetic scenario generator.

    contact_rate is the mean number of meetings per node pair per second;
    pairs sharing at least one interest meet shared_interest_bias times as
    often. Meeting lengths are exponential with mean_contact_duration.
    """

    node_count: int
    duration: float
    contact_rate: float
    n_categories: int
    interest_prob: float
    mean_contact_duration: float = 10.0
    shared_interest_bias: float = 1.0

    def validate(self):
        if self.node_count < 2:
            raise InvalidParams("node_count", "need at least 2 nodes")
        if self.duration <= 0:
            raise InvalidParams("duration", "must be positive")
        if self.contact_rate <= 0:
            raise InvalidParams("contact_rate", "must be positive")
        if self.n_categories < 1:
            raise InvalidParams("n_categories", "need at least 1 category")
        if not 0.0 <= self.interest_prob <= 1.0:
            raise InvalidParams("interest_prob", "must lie in [0, 1]")
        if self.mean_contact_duration <= 0:
            raise InvalidParams("mean_contact_duration", "must be positive")
        if self.shared_interest_bias <= 0:
            raise InvalidParams("shared_interest_bias", "must be positive")


def generate_synthetic_trace(params: SyntheticParams,
                             seed: int) -> tuple[ContactTrace, list[InterestProfile]]:
    """Seeded synthetic scenario: Bernoulli interest bits per node, then a
    memoryless (Poisson) meeting process per node pair.

    A pure function of (params, seed): the same inputs always produce
    byte-identical serialized traces and profiles.
    """
    params.validate()
    rng = random.Random(seed)

    profiles = []
    for node in range(params.node_count):
        bits = tuple(1 if rng.random() < params.interest_prob else 0
                     for _ in range(params.n_categories))
        profiles.append(InterestProfile(node, bits))

    raw = []
    for a in range(params.node_count):
        for b in range(a + 1, params.node_count):
            shared = any(x and y for x, y in zip(profiles[a].interests,
                                                 profiles[b].interests))
            rate = params.contact_rate * (params.shared_interest_bias if shared else 1.0)
            t = rng.expovariate(rate)
            while t < params.duration:
                length = rng.expovariate(1.0 / params.mean_contact_duration)
                end = min(t + length, params.duration)
                if end > t:
                    raw.append((t, end, a, b))
                t += rng.expovariate(rate)

    trace = build_trace(raw, duration=params.duration, node_count=params.node_count)
    return trace, profiles


def validate_scenario(trace: ContactTrace,
                      profiles: Iterable[InterestProfile]) -> ScenarioReport:
    """Report node ids in the trace without a profile and vice versa."""
    trace_nodes = set(trace.nodes())
    profile_nodes = {p.node for p in profiles}
    return ScenarioReport(
        missing_profile=tuple(sorted(trace_nodes - profile_nodes)),
        unused_profile=tuple(sorted(profile_nodes - trace_nodes)),
    )
