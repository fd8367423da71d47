"""The checked inputs of one replay: router settings, message schedule,
and the scenario that holds them with its trace and profiles. Each record
checks itself when built and names the bad field. They live apart from
`sim_engine`, which imports them back, so that `validate` and `gen-trace`
load none of the replay, k-means, buffer and report layers.
"""

from typing import NamedTuple

from .trace_model import (ContactTrace, InterestProfile, InvalidParams, _check_categories,
                          _checked, _is_int, _is_real)

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


@_checked
class Scenario(NamedTuple):
    """One replay's inputs, checked when built: from 1 to MAX_CATEGORIES
    categories, one profile per node with one bit per category, and a
    schedule that fits the scenario: explicit entries within the trace's
    duration, its categories and its nodes, and for drawn messages a node
    to create them at and an interval schedule that ends within the trace."""

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
        cfg, duration = self.schedule, self.trace.duration
        for t, source, category in cfg.explicit or ():
            if not (_is_real(t) and 0.0 <= t <= duration):
                raise InvalidParams("schedule", f"creation time {t} outside [0, {duration}]")
            if not (_is_int(category) and 1 <= category <= n):
                raise InvalidParams("schedule", f"category {category} outside [1, {n}]")
            if not (_is_int(source) and (source in nodes or source in self.trace.nodes)):
                raise InvalidParams("schedule", f"unknown source node {source}")
        if cfg.explicit is None and cfg.count:
            if not (nodes or self.trace.nodes):
                raise InvalidParams("schedule", "no nodes to create messages at")
            if cfg.interval is not None and cfg.count * cfg.interval > duration:
                raise InvalidParams("schedule", f"interval schedule ends at "
                                    f"{cfg.count * cfg.interval}, past {duration}")
