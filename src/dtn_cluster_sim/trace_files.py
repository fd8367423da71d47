"""The file input path: the two on-disk trace formats, the profile format,
their serializers, and the contact rules. Both parsers check each
contact where its line number is known, then hand it to
`trace_model._assemble`."""

import re
from typing import Iterable

from .trace_model import ContactTrace, InterestProfile, TraceError, _assemble

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
    `contacts` with a < b. Both parsers add theirs here."""
    if not (0.0 <= t_start < t_end < _INF and a != b and a >= 0 and b >= 0):
        _check_meeting(line_no, t_start, a, b)  # names the rule broken
        if not t_end < _INF:
            raise TraceError(line_no, "malformed line (non-finite time)")
        raise TraceError(line_no, "contact interval has t_start >= t_end")
    contacts.append((t_start, t_end, a, b) if a < b else (t_start, t_end, b, a))


def _data_lines(lines: list[str], headers: dict[str, tuple[int, str]]):
    """Yield (line_no, fields) for each data line of `lines`. The last
    `duration` and `nodes` headers land in `headers` as (line_no, value)."""
    for line_no, line in enumerate(lines, start=1):
        fields = line.split()
        if not fields:
            continue
        if fields[0][0] == "#":
            header = _HEADER.fullmatch(line.strip())
            if header:
                headers[header[1]] = (line_no, header[2].strip())
            continue
        yield line_no, fields


def _check_ascii(text: str) -> None:
    """Reject what `int()` and `float()` would read silently: `1_0` as 10,
    a digit of any script by its value. A line other than a comment that
    holds `_` or a non-ASCII character is a TraceError naming it. One test
    of the whole text passes the common case."""
    if text.isascii() and "_" not in text:
        return
    for line_no, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if (line.isascii() and "_" not in line) or (
                stripped.startswith("#") and not _HEADER.fullmatch(stripped)):
            continue
        raise TraceError(line_no, "malformed line (`_` or a non-ASCII character)")


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


class _NodeIds(dict):
    """Node-id texts of one file, each read through `int()` once."""
    def __missing__(self, text: str) -> int:
        return self.setdefault(text, int(text))


def _tabular(lines, contacts: list) -> None:
    ids = _NodeIds()
    for line_no, fields in lines:
        if len(fields) != 4:
            raise TraceError(line_no, "malformed line "
                                      f"(expected 4 fields, got {len(fields)})")
        try:
            t_start, t_end = float(fields[0]), float(fields[1])
            a, b = ids[fields[2]], ids[fields[3]]
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
    ids = _NodeIds()
    last_time = 0.0
    for line_no, fields in lines:
        if len(fields) != 5 or fields[1].upper() != "CONN":
            raise TraceError(line_no, "malformed line (expected `time CONN a b up|down`)")
        try:
            time = float(fields[0])
            a, b = ids[fields[2]], ids[fields[3]]
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


def parse_contact_trace(text: str) -> ContactTrace:
    """Parse a contact trace in the format of its first data line.

    one_events, when that line's second field is `CONN` in any case:
    `time CONN node_a node_b up|down` lines paired in file order.
    tabular otherwise: one interval per line, `t_start t_end node_a node_b`.
    Lines starting with `#` are comments, except `# duration: <s>` and
    `# nodes: <count>` headers (`=` may stand for `:`), which may enlarge
    the derived values. Every line but a comment is ASCII without `_`.
    """
    _check_ascii(text)
    lines = text.splitlines()
    headers: dict[str, tuple[int, str]] = {}
    contacts: list[tuple[float, float, int, int]] = []
    _, first = next(_data_lines(lines, {}), (0, ()))
    last_time = None
    if len(first) > 1 and first[1].upper() == "CONN":
        last_time = _one_events(_data_lines(lines, headers), contacts)
    else:
        _tabular(_data_lines(lines, headers), contacts)
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

    Blank and `#` lines are skipped, and every line but a comment is ASCII
    without `_`, as in traces. The first data line fixes n; a later line
    with another bit count is a TraceError naming that line. Text with no
    data lines gives [].
    """
    _check_ascii(text)
    profiles: dict[int, InterestProfile] = {}
    arity = None
    for line_no, fields in _data_lines(text.splitlines(), {}):
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
