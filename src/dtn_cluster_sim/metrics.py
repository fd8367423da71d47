"""Aggregation of per-message delivery records into run-level metrics.

Conventions, chosen so rows are auditable and byte-stable:

  * delay and hops average over delivered messages only;
  * cost divides *all* forwards in the run (delivered or not) by the
    number of delivered messages — total network effort per success;
  * resource_used is the fraction of network nodes belonging to at least
    one interest group;
  * summary values print with 6 fixed decimals, per-message times print
    with full float precision so a parse recovers them exactly;
  * a ratio or average with nothing to divide by (no messages, none
    delivered, or no nodes for resource_used) is None, and absent values
    serialize as empty fields.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Sequence

from .sim_engine import DeliveryRecord, SimResult

PER_MESSAGE_COLUMNS = ("message_id,source,category,created_at,group_size,"
                       "group_delivered_at,first_receiver,hops,forwards_total,"
                       "final_delivered_at")


def _delivered(records: Sequence[DeliveryRecord]) -> list[DeliveryRecord]:
    return [r for r in records if r.group_delivered_at is not None]


def delivery_ratio(records: Sequence[DeliveryRecord]) -> float | None:
    """Delivered messages over created messages."""
    if not records:
        return None
    return len(_delivered(records)) / len(records)


def avg_delay(records: Sequence[DeliveryRecord]) -> float | None:
    """Mean time from creation to first receipt by a group member."""
    delivered = _delivered(records)
    if not delivered:
        return None
    return sum(r.group_delivered_at - r.created_at for r in delivered) / len(delivered)


def avg_hops(records: Sequence[DeliveryRecord]) -> float | None:
    """Mean hop count of the copy that first reached the group."""
    delivered = _delivered(records)
    if not delivered:
        return None
    return sum(r.hops_at_delivery for r in delivered) / len(delivered)


def avg_cost(records: Sequence[DeliveryRecord]) -> float | None:
    """All forwards in the run divided by the number of delivered messages."""
    delivered = _delivered(records)
    if not delivered:
        return None
    return sum(r.forwards_total for r in records) / len(delivered)


def resource_used(group: Iterable[int], all_nodes: int) -> float | None:
    """Fraction of the network belonging to the given group."""
    if all_nodes <= 0:
        return None
    return len(set(group)) / all_nodes


class MetricsReport(NamedTuple):
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
    resource_used: float | None


def build_report(result: SimResult, run_id: str) -> MetricsReport:
    """Fold one simulation result into the summary metrics."""
    records = result.records
    union: set[int] = set()
    for members in result.groups_by_category.values():
        union.update(members)
    return MetricsReport(
        run_id=run_id,
        router=result.router.kind,
        mode=result.router.mode,
        strict=result.router.strict,
        n_categories=result.n_categories,
        k_clusters=None if result.clustering is None else result.clustering.k,
        seed=result.seed,
        created=len(records),
        delivered=len(_delivered(records)),
        delivery_ratio=delivery_ratio(records),
        avg_delay=avg_delay(records),
        avg_hops=avg_hops(records),
        avg_cost=avg_cost(records),
        resource_used=resource_used(union, result.all_nodes),
    )


def _opt(value) -> str:
    return "" if value is None else str(value)


def _time(value: float | None) -> str:
    return "" if value is None else repr(float(value))


def summary_header() -> str:
    """`summary.csv` columns: the report's field names, in order."""
    return ",".join(MetricsReport._fields)


def _cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.6f}"
    return _opt(value)


def summary_row(report: MetricsReport) -> str:
    """One `summary.csv` row: one cell per report field."""
    return ",".join(map(_cell, report))


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
