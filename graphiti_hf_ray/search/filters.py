"""SearchFilters (reference graphiti_core/search/search_filters.py:44-56):
node_labels, edge_types, uuid allow-lists, and per-column date filters as
AND-of-ORs. Applied as one vectorized Arrow predicate per batch, in either
placement of ``search.placement`` — filter pushdown happens before any
scoring."""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Any

import pyarrow as pa
import pyarrow.compute as pc

from .placement import Table, map_table


class ComparisonOperator(Enum):
    equals = "="
    not_equals = "<>"
    greater_than = ">"
    less_than = "<"
    greater_than_equal = ">="
    less_than_equal = "<="
    is_null = "IS NULL"
    is_not_null = "IS NOT NULL"


@dataclass
class DateFilter:
    comparison_operator: ComparisonOperator
    date: Any = None  # datetime / pd.Timestamp; None for null checks


@dataclass
class SearchFilters:
    node_labels: list[str] | None = None
    edge_types: list[str] | None = None
    edge_uuids: list[str] | None = None
    # AND of ORs: outer list AND, inner list OR (search_filters.py contract)
    valid_at: list[list[DateFilter]] | None = None
    invalid_at: list[list[DateFilter]] | None = None
    created_at: list[list[DateFilter]] | None = None
    expired_at: list[list[DateFilter]] | None = None


def _date_pred(col: pa.ChunkedArray, f: DateFilter):
    op = f.comparison_operator
    if op == ComparisonOperator.is_null:
        return pc.is_null(col)
    if op == ComparisonOperator.is_not_null:
        return pc.is_valid(col)
    ts = pa.scalar(f.date, pa.timestamp("us"))
    return {
        ComparisonOperator.equals: pc.equal,
        ComparisonOperator.not_equals: pc.not_equal,
        ComparisonOperator.greater_than: pc.greater,
        ComparisonOperator.less_than: pc.less,
        ComparisonOperator.greater_than_equal: pc.greater_equal,
        ComparisonOperator.less_than_equal: pc.less_equal,
    }[op](col, ts)


def filter_columns(filters: SearchFilters | None, kind: str) -> set[str]:
    """Columns ``apply_filters`` will touch — lets callers prune the parquet
    read to exactly the filter + scoring columns (a full-width edges scan
    ships the fact_embedding column, most of the table's bytes, for paths
    that never use it)."""
    if filters is None:
        return set()
    cols: set[str] = set()
    if kind == "edge":
        if filters.edge_types:
            cols.add("name")
        if filters.edge_uuids:
            cols.add("uuid")
        for col_name, groups in (
            ("valid_at", filters.valid_at),
            ("invalid_at", filters.invalid_at),
            ("created_at", filters.created_at),
            ("expired_at", filters.expired_at),
        ):
            if groups:
                cols.add(col_name)
    elif kind == "node" and filters.node_labels:
        cols.add("labels")
    return cols


def filter_batch(t: pa.Table, filters: SearchFilters, kind: str) -> pa.Table:
    """kind: 'node' applies node_labels (vs a ``labels`` list column);
    'edge' applies edge_types/uuids + the four date filter groups."""
    mask = pa.array([True] * t.num_rows, pa.bool_())
    if kind == "edge":
        if filters.edge_types:
            mask = pc.and_(mask, pc.is_in(t.column("name"), value_set=pa.array(filters.edge_types)))
        if filters.edge_uuids:
            mask = pc.and_(mask, pc.is_in(t.column("uuid"), value_set=pa.array(filters.edge_uuids)))
        for col_name, groups in (
            ("valid_at", filters.valid_at),
            ("invalid_at", filters.invalid_at),
            ("created_at", filters.created_at),
            ("expired_at", filters.expired_at),
        ):
            if groups:
                for or_group in groups:  # AND over groups
                    ors = None
                    for df_ in or_group:  # OR within group
                        p = _date_pred(t.column(col_name), df_)
                        ors = p if ors is None else pc.or_kleene(ors, p)
                    if ors is not None:
                        mask = pc.and_kleene(mask, ors)
    elif kind == "node" and filters.node_labels:
        want = set(filters.node_labels)
        hit = pa.array(
            [bool(set(ls or []) & want) for ls in t.column("labels").to_pylist()], pa.bool_()
        )
        mask = pc.and_(mask, hit)
    return t.filter(mask)


def apply_filters(data: Table, filters: SearchFilters | None, kind: str) -> Table:
    """``filter_batch`` over a ``pa.Table`` or a Ray ``Dataset`` (lazy)."""
    if filters is None:
        return data
    return map_table(data, filter_batch, filters=filters, kind=kind)
