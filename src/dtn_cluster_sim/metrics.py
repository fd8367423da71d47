"""Aggregation of per-message delivery records into run-level metrics.

Conventions, chosen so rows are auditable and byte-stable:

  * delay and hops average over delivered messages only;
  * cost divides *all* forwards in the run (delivered or not) by the
    number of delivered messages — total network effort per success;
  * resource_used is the fraction of network nodes belonging to at least
    one interest group;
  * summary values print with 6 fixed decimals, per-message times print
    with full float precision so a parse recovers them exactly;
  * absent optional values serialize as empty fields.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .sim_engine import DeliveryRecord, SimResult

SUMMARY_COLUMNS = ("run_id,router,mode,strict,n_categories,k_clusters,seed,"
                   "created,delivered,delivery_ratio,avg_delay,avg_hops,"
                   "avg_cost,resource_used")
PER_MESSAGE_COLUMNS = ("message_id,source,category,created_at,group_size,"
                       "group_delivered_at,first_receiver,hops,forwards_total,"
                       "final_delivered_at")


class NoMessages(ValueError):
    pass


class NothingDelivered(ValueError):
    pass


class EmptyNetwork(ValueError):
    pass


def _delivered(records: Sequence[DeliveryRecord]) -> list[DeliveryRecord]:
    return [r for r in records if r.group_delivered_at is not None]


def delivery_ratio(records: Sequence[DeliveryRecord]) -> float:
    """Delivered messages over created messages."""
    if not records:
        raise NoMessages("no records")
    return len(_delivered(records)) / len(records)


def avg_delay(records: Sequence[DeliveryRecord]) -> float:
    """Mean time from creation to first receipt by a group member."""
    delivered = _delivered(records)
    if not delivered:
        raise NothingDelivered("no delivered records")
    return sum(r.group_delivered_at - r.created_at for r in delivered) / len(delivered)


def avg_hops(records: Sequence[DeliveryRecord]) -> float:
    """Mean hop count of the copy that first reached the group."""
    delivered = _delivered(records)
    if not delivered:
        raise NothingDelivered("no delivered records")
    return sum(r.hops_at_delivery for r in delivered) / len(delivered)


def avg_cost(records: Sequence[DeliveryRecord]) -> float:
    """All forwards in the run divided by the number of delivered messages."""
    delivered = _delivered(records)
    if not delivered:
        raise NothingDelivered("no delivered records")
    return sum(r.forwards_total for r in records) / len(delivered)


def resource_used(group: Iterable[int], all_nodes: int) -> float:
    """Fraction of the network belonging to the given group."""
    if all_nodes <= 0:
        raise EmptyNetwork("network has no nodes")
    return len(set(group)) / all_nodes


@dataclass(frozen=True)
class MetricsReport:
    run_id: str
    router: str
    mode: str
    strict: bool
    n_categories: int
    k_clusters: int | None
    seed: int
    created: int
    delivered: int
    delivery_ratio: float | None
    avg_delay: float | None
    avg_hops: float | None
    avg_cost: float | None
    resource_used: float


def build_report(result: SimResult, run_id: str) -> MetricsReport:
    """Fold one simulation result into the summary metrics."""
    records = result.records
    delivered = _delivered(records)
    sc = result.scenario
    union: set[int] = set()
    for members in result.groups_by_category.values():
        union.update(members)
    return MetricsReport(
        run_id=run_id,
        router=sc.router.kind,
        mode=sc.router.mode,
        strict=sc.router.strict,
        n_categories=sc.n_categories,
        k_clusters=result.k_effective,
        seed=sc.seed,
        created=len(records),
        delivered=len(delivered),
        delivery_ratio=delivery_ratio(records) if records else None,
        avg_delay=avg_delay(records) if delivered else None,
        avg_hops=avg_hops(records) if delivered else None,
        avg_cost=avg_cost(records) if delivered else None,
        resource_used=resource_used(union, result.all_nodes),
    )


def _opt(value) -> str:
    return "" if value is None else str(value)


def _fixed(value: float | None) -> str:
    return "" if value is None else f"{value:.6f}"


def _time(value: float | None) -> str:
    return "" if value is None else repr(float(value))


def summary_header() -> str:
    return SUMMARY_COLUMNS


def summary_row(report: MetricsReport) -> str:
    fields = [
        report.run_id,
        report.router,
        report.mode,
        "true" if report.strict else "false",
        str(report.n_categories),
        _opt(report.k_clusters),
        str(report.seed),
        str(report.created),
        str(report.delivered),
        _fixed(report.delivery_ratio),
        _fixed(report.avg_delay),
        _fixed(report.avg_hops),
        _fixed(report.avg_cost),
        _fixed(report.resource_used),
    ]
    return ",".join(fields)


def per_message_csv(records: Sequence[DeliveryRecord]) -> str:
    """Per-message table; header always present, times at full precision."""
    lines = [PER_MESSAGE_COLUMNS]
    for r in records:
        lines.append(",".join([
            str(r.message_id),
            str(r.source),
            str(r.category),
            _time(r.created_at),
            str(r.group_size),
            _time(r.group_delivered_at),
            _opt(r.first_receiver),
            _opt(r.hops_at_delivery),
            str(r.forwards_total),
            _time(r.final_delivered_at),
        ]))
    return "\n".join(lines) + "\n"
