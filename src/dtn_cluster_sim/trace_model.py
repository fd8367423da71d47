"""Nodes, interest profiles, contact traces and the checked records of one
replay (`RouterConfig`, `ScheduleConfig` and the `Scenario` that holds
them), with the rules those records share.

The parsers and the generator share one assembly path, `_assemble`:
  * contacts are symmetric, endpoints stored with a < b;
  * one sort of all contacts orders each pair's intervals, and overlapping
    or touching intervals of the same pair are merged;
  * events are plain (t_start, t_end, a, b) tuples in their natural order.
"""

import sys
from typing import Iterable, NamedTuple


class TraceError(ValueError):
    """A trace or profile line that breaks a rule: `line N: <detail>`."""

    def __init__(self, line_no: int, detail: str):
        self.line_no = line_no
        super().__init__(f"line {line_no}: {detail}")


class InvalidParams(ValueError):
    def __init__(self, field: str, detail: str = ""):
        self.field, self.detail = field, detail
        super().__init__(f"invalid parameter: {field}" + (f" ({detail})" if detail else ""))


def _is_int(value) -> bool:
    """An integer setting takes an `int`, never a `bool`."""
    return isinstance(value, int) and not isinstance(value, bool)


def _is_real(value) -> bool:
    """A real-valued setting takes a finite `int` or `float`, never a `bool`."""
    return (_is_int(value) or isinstance(value, float)) and abs(value) <= sys.float_info.max


# the most categories a scenario or the generator takes; at the generator's
# largest node count (4,472) that is 8.9 M interest bits
MAX_CATEGORIES = 2000


def _check_categories(n, field: str = "n_categories") -> None:
    """The category count rule of every record that holds one."""
    if not (_is_int(n) and 1 <= n <= MAX_CATEGORIES):
        raise InvalidParams(field, f"need an integer from 1 to {MAX_CATEGORIES:,}")


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
        if not (_is_int(self.node) and self.node >= 0):
            raise InvalidParams("node", "must be a non-negative integer")
        if not (isinstance(self.interests, tuple)
                and all(bit in (0, 1) for bit in self.interests)):
            raise InvalidParams("interests", f"node {self.node}: must be a tuple "
                                "of 0/1 bits")


ROUTER_KINDS = ("cluster", "epidemic")
GROUP_MODES = ("exact", "kmeans")


@_checked
class RouterConfig(NamedTuple):
    """Forwarding rule plus the group-resolution and buffer settings."""

    kind: str = "cluster"
    mode: str = "exact"
    strict: bool = False
    threshold: float = 0.5
    k_clusters: int | None = None
    buffer_capacity: int | None = 50
    ttl: float | None = None
    max_transfers_per_contact: int | None = None

    def _check(self):
        if self.kind not in ROUTER_KINDS:
            raise InvalidParams("router", f"unknown kind {self.kind!r}")
        if self.mode not in GROUP_MODES:
            raise InvalidParams("mode", f"unknown mode {self.mode!r}")
        if not isinstance(self.strict, bool):
            raise InvalidParams("strict", "must be True or False")
        if not (_is_real(self.threshold) and 0.0 < self.threshold <= 1.0):
            raise InvalidParams("threshold", "must lie in (0, 1]")
        for name in ("k_clusters", "buffer_capacity", "max_transfers_per_contact"):
            value = getattr(self, name)
            if value is not None and not (_is_int(value) and value >= 1):
                raise InvalidParams(name, "must be a positive integer or None")
        if self.ttl is not None and not (_is_real(self.ttl) and self.ttl > 0):
            raise InvalidParams("ttl", "must be positive and finite, or None")
        # after each field's own rule: a setting that the others make inert
        if self.strict and self.kind != "cluster":
            raise InvalidParams("strict", "applies to the cluster router only")
        if self.k_clusters is not None and self.mode != "kmeans":
            raise InvalidParams("k_clusters", "applies to kmeans mode only")


# the most messages a schedule draws, 20 times the 5,000-message flood that
# CI runs; a run of 10^5 messages on a 3-node trace peaked at 86 MB, and the
# memory grows with the count
MAX_MESSAGES = 10**5


@_checked
class ScheduleConfig(NamedTuple):
    """When messages appear: either an explicit tuple of (time, source,
    category) tuples or `count` seeded draws, at most MAX_MESSAGES
    (uniform times unless `interval` is set)."""

    count: int = 0
    interval: float | None = None
    explicit: tuple[tuple[float, int, int], ...] | None = None
    track_final: bool = False

    def _check(self):
        if not (_is_int(self.count) and 0 <= self.count <= MAX_MESSAGES):
            raise InvalidParams("message_count",
                                f"need an integer from 0 to {MAX_MESSAGES:,}")
        if self.interval is not None and not (_is_real(self.interval) and self.interval > 0):
            raise InvalidParams("message_interval", "must be positive and finite, or None")
        if self.explicit is not None and not (
                isinstance(self.explicit, tuple)
                and all(isinstance(e, tuple) and len(e) == 3 for e in self.explicit)):
            raise InvalidParams("explicit", "must be a tuple of (time, source, category) "
                                "tuples, or None")
        if not isinstance(self.track_final, bool):
            raise InvalidParams("track_final", "must be True or False")
        if self.explicit is not None and (self.count or self.interval is not None):
            raise InvalidParams("message_count" if self.count else "message_interval",
                                "an explicit schedule draws no messages")


@_checked
class Scenario(NamedTuple):
    """One replay's inputs, checked when built: from 1 to MAX_CATEGORIES
    categories, one profile per node with one bit per category (at least
    one in kmeans mode), and a schedule that fits the scenario: explicit
    entries within the trace's duration, its categories and its nodes, and
    for drawn messages a node to create them at and an interval schedule
    that ends within the trace."""

    trace: ContactTrace
    profiles: tuple[InterestProfile, ...]
    n_categories: int
    router: RouterConfig = RouterConfig()
    schedule: ScheduleConfig = ScheduleConfig()
    seed: int = 0

    def _check(self):
        for name, kind in (("trace", ContactTrace), ("profiles", tuple),
                           ("router", RouterConfig), ("schedule", ScheduleConfig)):
            if not isinstance(getattr(self, name), kind):
                raise InvalidParams(name, f"must be a {kind.__name__}")
        _check_categories(self.n_categories)
        if not _is_int(self.seed):
            raise InvalidParams("seed", "must be an integer")
        n, nodes = self.n_categories, {p.node for p in self.profiles}
        if len(nodes) < len(self.profiles):
            raise InvalidParams("profiles", "two profiles for one node")
        for p in self.profiles:
            if len(p.interests) != n:
                raise InvalidParams("profiles", f"node {p.node} has arity "
                                    f"{len(p.interests)}, scenario expects {n}")
        if self.router.mode == "kmeans" and not self.profiles:
            raise InvalidParams("profiles", "kmeans mode needs profiles to cluster")
        cfg, duration = self.schedule, self.trace.duration
        for t, source, category in cfg.explicit or ():
            if not (_is_real(t) and 0.0 <= t <= duration):
                raise InvalidParams("schedule", f"creation time {t} outside [0, {duration}]")
            if not (_is_int(category) and 1 <= category <= n):
                raise InvalidParams("schedule", f"category {category} outside [1, {n}]")
            if not (_is_int(source) and (source in nodes or source in self.trace.nodes)):
                raise InvalidParams("schedule", f"unknown source node {source}")
        if cfg.count:
            if not (nodes or self.trace.nodes):
                raise InvalidParams("schedule", "no nodes to create messages at")
            if cfg.interval is not None and cfg.count * cfg.interval > duration:
                raise InvalidParams("schedule", f"interval schedule ends at "
                                    f"{cfg.count * cfg.interval}, past {duration}")


def _assemble(contacts: list[tuple[float, float, int, int]],
              duration: float | None, node_count: int | None) -> ContactTrace:
    """The trace of checked contacts, normalized as the module
    docstring describes: in sorted order each contact extends its pair's
    latest interval or starts one. An extended end can pass intervals that
    start with it, so a last sort runs on the nearly sorted events if any
    end was extended."""
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


def validate_scenario(trace: ContactTrace,
                      profiles: Iterable[InterestProfile]) -> list[str]:
    """One line per gap: trace nodes without a profile, then profiles of
    nodes absent from the trace, ids ascending; empty if there is none."""
    trace_nodes = set(trace.nodes)
    profile_nodes = {p.node for p in profiles}
    gaps = (("nodes in trace without a profile", trace_nodes - profile_nodes),
            ("profiles for nodes absent from trace", profile_nodes - trace_nodes))
    return [f"{label}: " + " ".join(map(str, sorted(ids))) for label, ids in gaps if ids]
