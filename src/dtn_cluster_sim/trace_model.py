"""Nodes, interest profiles and contact traces.

A scenario is driven entirely by a contact trace: a sequence of
[t_start, t_end] intervals during which two nodes can exchange messages.
Interest profiles attach a fixed-length binary interest vector to each
node. This module holds the data model, parsers for the two supported
on-disk formats, a seeded synthetic generator for desk-scale experiments,
and a scenario consistency check.

Both parsers and `build_trace`, the entry point for contact tuples from
outside the program, check each contact once, by one rule set, where its
line number (or position) is known: ids and times non-negative, times
finite, two distinct nodes, t_start < t_end. The generator builds each
contact by these rules, so it skips the check. All of them share one
assembly path:
  * contacts are symmetric, endpoints stored with a < b;
  * one sort of all contacts orders each pair's intervals, and overlapping
    or touching intervals of the same pair are merged;
  * events are plain (t_start, t_end, a, b) tuples in their natural order.
"""

from __future__ import annotations

import random
import re
from math import log
from typing import Iterable, NamedTuple

TRACE_FORMATS = ("tabular", "one_events")


class TraceError(ValueError):
    """A trace or profile line that breaks a rule: `line N: <detail>`."""

    def __init__(self, line_no: int, detail: str):
        self.line_no = line_no
        super().__init__(f"line {line_no}: {detail}")


class InvalidParams(ValueError):
    def __init__(self, field: str, detail: str = ""):
        self.field = field
        msg = f"invalid parameter: {field}"
        super().__init__(msg + (f" ({detail})" if detail else ""))


def _checked(record: type) -> type:
    """Class decorator: wrap `__new__` and `_make` of NamedTuple `record`, which
    its body may not define, so that building one runs `_check`, by `_replace` too."""
    new, make = record.__new__, record._make.__func__

    def checked_new(cls, *args, **kwargs):
        self = new(cls, *args, **kwargs)
        self._check()
        return self

    def checked_make(cls, iterable):
        self = make(cls, iterable)
        self._check()
        return self

    checked_new.__wrapped__ = new   # so that inspect.signature shows the fields
    record.__new__, record._make = staticmethod(checked_new), classmethod(checked_make)
    return record


class ContactTrace(NamedTuple):
    # (t_start, t_end, a, b), a < b, ascending: nodes a and b can exchange
    # messages at any instant in [t_start, t_end)
    events: tuple[tuple[float, float, int, int], ...]
    duration: float
    node_count: int
    nodes: tuple[int, ...]  # distinct ids appearing in the events, ascending


@_checked
class InterestProfile(NamedTuple):
    """A node's declared interests: one bit per category."""

    node: int
    interests: tuple[int, ...]

    def _check(self):
        if self.node < 0:
            raise ValueError("node ids must be non-negative")
        if any(bit not in (0, 1) for bit in self.interests):
            raise ValueError(f"non-binary interest vector for node {self.node}")


class ScenarioReport(NamedTuple):
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


_INF = float("inf")
# `# duration: <s>` / `# nodes = <count>`; any other `#` line is a comment
_HEADER = re.compile(r"#+\s*(duration|nodes)\s*[:=](.*)")


def _check_meeting(line_no: int, t: float, a: int, b: int) -> None:
    """The rules for nodes a and b meeting at time t: ids and time
    non-negative, the time finite, the nodes distinct."""
    if a < 0 or b < 0 or t < 0:
        raise TraceError(line_no, "malformed line (negative value)")
    if not t < _INF:  # +inf or NaN
        raise TraceError(line_no, "malformed line (non-finite time)")
    if a == b:
        raise TraceError(line_no, "node in contact with itself")


def _add_contact(contacts: list, line_no: int, t_start: float, t_end: float,
                 a: int, b: int) -> None:
    """Check the contact [t_start, t_end) of a and b and append it to
    `contacts` with a < b. Both parsers and `build_trace` add theirs here."""
    if not (0.0 <= t_start < t_end < _INF and a != b and a >= 0 and b >= 0):
        _check_meeting(line_no, t_start, a, b)  # names the rule broken
        if not t_end < _INF:
            raise TraceError(line_no, "malformed line (non-finite time)")
        raise TraceError(line_no, "contact interval has t_start >= t_end")
    contacts.append((t_start, t_end, a, b) if a < b else (t_start, t_end, b, a))


def _assemble(contacts: list[tuple[float, float, int, int]],
              duration: float | None, node_count: int | None) -> ContactTrace:
    """The trace of checked contacts, normalized as `build_trace` describes:
    in sorted order each contact extends its pair's latest interval or
    starts one. An extended end can pass intervals that start with it, so
    a last sort runs on the nearly sorted events if any end was extended."""
    contacts.sort()
    events = []
    latest: dict[tuple[int, int], int] = {}   # pair -> its last interval in events
    max_end = 0.0
    extended = False
    for contact in contacts:
        s, e, a, b = contact
        if e > max_end:
            max_end = e
        pair = a, b
        i = latest.get(pair)
        if i is not None and s <= events[i][1]:
            if e > events[i][1]:
                events[i] = (events[i][0], e, a, b)
                extended = True
        else:
            latest[pair] = len(events)
            events.append(contact)
    if extended:
        events.sort()

    if duration is None:
        duration = max_end
    elif duration < max_end:
        raise InvalidParams("duration", f"{duration} < last contact end {max_end}")

    nodes = tuple(sorted({n for pair in latest for n in pair}))
    if node_count is None:
        node_count = len(nodes)
    elif node_count < len(nodes):
        raise InvalidParams("node_count", f"{node_count} < {len(nodes)} distinct ids")

    return ContactTrace(events=tuple(events), duration=float(duration),
                        node_count=node_count, nodes=nodes)


def build_trace(raw_events: Iterable[tuple[float, float, int, int]],
                duration: float | None = None,
                node_count: int | None = None) -> ContactTrace:
    """Assemble a normalized ContactTrace from (t_start, t_end, a, b) tuples
    made outside the program, checking each.

    A tuple breaking the parsers' rules raises their TraceError (a
    ValueError), numbered by its 1-based position. duration defaults to
    the latest t_end and node_count to the number of distinct ids; both
    may only be overridden upward.
    """
    contacts: list[tuple[float, float, int, int]] = []
    for position, (t_start, t_end, a, b) in enumerate(raw_events, start=1):
        _add_contact(contacts, position, t_start, t_end, a, b)
    return _assemble(contacts, duration, node_count)


def _data_lines(text: str, headers: dict[str, tuple[int, str]]):
    """Yield (line_no, fields) for each data line of `text`. The last
    `duration` and `nodes` headers land in `headers` as (line_no, value)."""
    for line_no, line in enumerate(text.splitlines(), start=1):
        fields = line.split()
        if not fields:
            continue
        if fields[0][0] == "#":
            header = _HEADER.fullmatch(line.strip())
            if header:
                headers[header[1]] = (line_no, header[2].strip())
            continue
        yield line_no, fields


def _parse_headers(headers: dict[str, tuple[int, str]]) -> tuple[float | None, int | None]:
    duration = None
    node_count = None
    if "duration" in headers:
        line_no, value = headers["duration"]
        try:
            duration = float(value)
            if not -_INF < duration < _INF:
                raise ValueError(value)
        except ValueError:
            raise TraceError(line_no, "malformed line (bad duration header)") from None
    if "nodes" in headers:
        line_no, value = headers["nodes"]
        try:
            node_count = int(value)
        except ValueError:
            raise TraceError(line_no, "malformed line (bad nodes header)") from None
    return duration, node_count


def _tabular(lines, contacts: list) -> None:
    for line_no, fields in lines:
        if len(fields) != 4:
            raise TraceError(line_no, "malformed line "
                                      f"(expected 4 fields, got {len(fields)})")
        try:
            t_start, t_end = float(fields[0]), float(fields[1])
            a, b = int(fields[2]), int(fields[3])
        except ValueError:
            raise TraceError(line_no, "malformed line (unparsable field)") from None
        _add_contact(contacts, line_no, t_start, t_end, a, b)


def _one_events(lines, contacts: list) -> float:
    """Pair CONN up/down lines per unordered node pair, in file order, and
    return the last timestamp seen (0.0 for no lines).

    A stray down (no matching up) is ignored; a repeated up while the pair
    is already open is idempotent; an up never closed ends at the last
    timestamp seen in the file.
    """
    open_since: dict[tuple[int, int], float] = {}
    last_time = 0.0
    for line_no, fields in lines:
        if len(fields) != 5 or fields[1].upper() != "CONN":
            raise TraceError(line_no, "malformed line (expected `time CONN a b up|down`)")
        try:
            time = float(fields[0])
            a, b = int(fields[2]), int(fields[3])
        except ValueError:
            raise TraceError(line_no, "malformed line (unparsable field)") from None
        state = fields[4].lower()
        if state not in ("up", "down"):
            raise TraceError(line_no, f"malformed line (unknown state {fields[4]!r})")
        _check_meeting(line_no, time, a, b)
        last_time = max(last_time, time)
        pair = (a, b) if a < b else (b, a)
        if state == "up":
            open_since.setdefault(pair, time)
        elif pair in open_since:
            _add_contact(contacts, line_no, open_since.pop(pair), time, *pair)
    for (a, b), start in open_since.items():
        if start < last_time:  # checked on its up line, so this cannot fail
            _add_contact(contacts, 0, start, last_time, a, b)
    return last_time


def parse_contact_trace(text: str, fmt: str = "tabular") -> ContactTrace:
    """Parse a contact trace from `tabular` or `one_events` text.

    tabular: one interval per line, `t_start t_end node_a node_b`.
    one_events: `time CONN node_a node_b up|down` lines paired in file order.
    Lines starting with `#` are comments, except `# duration: <s>` and
    `# nodes: <count>` headers (`=` may stand for `:`), which may enlarge
    the derived values.
    """
    if fmt not in TRACE_FORMATS:
        raise ValueError(f"unknown trace format: {fmt!r}")
    headers: dict[str, tuple[int, str]] = {}
    contacts: list[tuple[float, float, int, int]] = []
    lines = _data_lines(text, headers)
    last_time = None
    if fmt == "tabular":
        _tabular(lines, contacts)
    else:
        last_time = _one_events(lines, contacts)
    duration, node_count = _parse_headers(headers)
    return _assemble(contacts, last_time if duration is None else duration,
                     node_count)


def serialize_contact_trace(trace: ContactTrace) -> str:
    """Canonical tabular text; parsing it back recovers the trace exactly."""
    lines = [f"# duration: {trace.duration!r}", f"# nodes: {trace.node_count}"]
    for t_start, t_end, a, b in trace.events:
        lines.append(f"{t_start!r} {t_end!r} {a} {b}")
    return "\n".join(lines) + "\n"


def parse_interest_profiles(text: str) -> list[InterestProfile]:
    """Parse `node_id bit_1 ... bit_n` lines into profiles, sorted by node id.

    Blank and `#` lines are skipped, as in traces. The first data line
    fixes n; a later line with another bit count is a TraceError naming
    that line. Text with no data lines gives [].
    """
    profiles: dict[int, InterestProfile] = {}
    arity = None
    for line_no, fields in _data_lines(text, {}):
        try:
            node = int(fields[0])
        except ValueError:
            raise TraceError(line_no, "malformed line (unparsable node id)") from None
        if node < 0:
            raise TraceError(line_no, "malformed line (negative node id)")
        if arity is None:
            arity = len(fields) - 1
        elif len(fields) - 1 != arity:
            raise TraceError(line_no, f"expected {arity} interest bits, "
                                      f"got {len(fields) - 1}")
        bits = []
        for field in fields[1:]:
            if field not in ("0", "1"):
                raise TraceError(line_no, "interest values must be 0 or 1")
            bits.append(int(field))
        if node in profiles:
            raise TraceError(line_no, f"duplicate profile for node {node}")
        profiles[node] = InterestProfile(node, tuple(bits))
    return [profiles[node] for node in sorted(profiles)]


def serialize_profiles(profiles: Iterable[InterestProfile]) -> str:
    lines = []
    for p in sorted(profiles, key=lambda p: p.node):
        lines.append(str(p.node) + " " + " ".join(str(b) for b in p.interests))
    return "\n".join(lines) + ("\n" if lines else "")


@_checked
class SyntheticParams(NamedTuple):
    """Knobs for the synthetic scenario generator.

    contact_rate is the mean number of meetings per node pair per second;
    pairs sharing at least one interest meet shared_interest_bias times as
    often, and that product must be positive and finite as a float.
    Meeting lengths are exponential with mean_contact_duration.
    """

    node_count: int
    duration: float
    contact_rate: float
    n_categories: int
    interest_prob: float
    mean_contact_duration: float = 10.0
    shared_interest_bias: float = 1.0

    def _check(self):
        if self.node_count < 2:
            raise InvalidParams("node_count", "need at least 2 nodes")
        if not 0 < self.duration < _INF:
            raise InvalidParams("duration", "must be positive and finite")
        if not 0 < self.contact_rate < _INF:
            raise InvalidParams("contact_rate", "must be positive and finite")
        if self.n_categories < 1:
            raise InvalidParams("n_categories", "need at least 1 category")
        if not 0.0 <= self.interest_prob <= 1.0:
            raise InvalidParams("interest_prob", "must lie in [0, 1]")
        if not 0 < self.mean_contact_duration < _INF:
            raise InvalidParams("mean_contact_duration", "must be positive and finite")
        if not 0 < self.shared_interest_bias < _INF:
            raise InvalidParams("shared_interest_bias", "must be positive and finite")
        if not 0 < self.contact_rate * self.shared_interest_bias < _INF:
            raise InvalidParams("shared_interest_bias", "contact_rate times it "
                                "must be positive and finite")


def generate_synthetic_trace(params: SyntheticParams,
                             seed: int) -> tuple[ContactTrace, list[InterestProfile]]:
    """Seeded synthetic scenario: Bernoulli interest bits per node, then a
    memoryless (Poisson) meeting process per node pair.

    A pure function of (params, seed): the same inputs always produce
    byte-identical serialized traces and profiles. Each contact is built
    valid (0 <= t_start < t_end <= duration, a < b), so none is checked.
    """
    rng = random.Random(seed)

    profiles = []
    for node in range(params.node_count):
        bits = tuple(1 if rng.random() < params.interest_prob else 0
                     for _ in range(params.n_categories))
        profiles.append(InterestProfile(node, bits))
    # one bit per category, so two nodes share an interest iff masks overlap
    masks = [sum(bit << i for i, bit in enumerate(p.interests)) for p in profiles]
    shared_rate = params.contact_rate * params.shared_interest_bias

    # exponential draws written out as -log(1 - u) / rate, the formula of
    # `Random.expovariate` in CPython 3.10-3.13: the same floats without a
    # call per draw, and a scenario that rests on `Random.random` alone
    draw = rng.random
    duration = params.duration
    length_rate = 1.0 / params.mean_contact_duration
    raw = []
    for a in range(params.node_count):
        for b in range(a + 1, params.node_count):
            rate = shared_rate if masks[a] & masks[b] else params.contact_rate
            t = -log(1.0 - draw()) / rate
            while t < duration:
                end = t + -log(1.0 - draw()) / length_rate
                if end > duration:
                    end = duration
                if end > t:
                    raw.append((t, end, a, b))
                t += -log(1.0 - draw()) / rate

    return _assemble(raw, params.duration, params.node_count), profiles


def validate_scenario(trace: ContactTrace,
                      profiles: Iterable[InterestProfile]) -> ScenarioReport:
    """Report node ids in the trace without a profile and vice versa."""
    trace_nodes = set(trace.nodes)
    profile_nodes = {p.node for p in profiles}
    return ScenarioReport(
        missing_profile=tuple(sorted(trace_nodes - profile_nodes)),
        unused_profile=tuple(sorted(profile_nodes - trace_nodes)),
    )
