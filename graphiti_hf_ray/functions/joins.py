"""Distributed joins (ray_guide.md 'Joins and lookups').

- ``broadcast_lookup`` — small side via ``ray.put`` + per-batch dict/merge
  (no shuffle); used throughout the KG pipeline (J2 rewrite, q04).
- ``hash_join``       — both sides large: explicit partitioned hash join.
  Each side is null-padded to a common schema, tagged, hash-bucketed on its
  key (same bucket function both sides → co-location guarantee), and
  merged with a vectorized ``pd.merge`` per bucket. Skew: a hot key lands
  in one bucket but the per-bucket merge is C-speed; salt hot keys into
  sub-buckets (append ``hash(row)%k`` to the key of the PROBE side and
  replicate the BUILD side k×) when a single key exceeds task memory.
"""

from __future__ import annotations

import pandas as pd
import pyarrow as pa

import ray


def _arrow_types(ds: "ray.data.Dataset") -> dict[str, pa.DataType]:
    """Column → Arrow type for any dataset. Pandas-block schemas report
    numpy dtypes; ``object`` is ambiguous (string vs list vs struct), so
    those columns are resolved by Arrow-inferring a tiny row sample —
    guessing string for a list column poisons the join's null-padding with
    an unmergeable schema. Arrow-schema datasets never pay the sample."""
    sch = ds.schema()
    if sch is None:
        # a fully-empty dataset loses its schema entirely (Ray drops it
        # when every block has zero rows) — callers that can hit this pass
        # explicit type hints to hash_join instead
        return {}
    out: dict[str, pa.DataType] = {}
    ambiguous: list[str] = []
    for n, t in zip(sch.names, sch.types):
        if isinstance(t, pa.DataType):
            out[n] = t
        else:
            try:
                out[n] = pa.from_numpy_dtype(t)
            except (pa.ArrowNotImplementedError, TypeError):
                ambiguous.append(n)
    if ambiguous:
        sample = ds.limit(4).to_pandas()
        if len(sample):
            obs = pa.Table.from_pandas(sample[ambiguous], preserve_index=False).schema
            for n in ambiguous:
                out[n] = obs.field(n).type
        else:
            for n in ambiguous:
                out[n] = pa.string()
    return out


def hash_join(
    left: "ray.data.Dataset",
    right: "ray.data.Dataset",
    left_on: str,
    right_on: str,
    num_buckets: int | None = None,
    how: str = "inner",
    left_types: dict[str, pa.DataType] | None = None,
    right_types: dict[str, pa.DataType] | None = None,
) -> "ray.data.Dataset":
    """Partitioned hash join; output columns = left ∪ right (join keys from
    the left; overlapping non-key names get ``_r`` suffix on the right).
    ``left_types``/``right_types``: explicit column → Arrow type maps for
    sides that may arrive FULLY EMPTY (Ray loses the schema of an all-empty
    dataset, and the null-padding needs types to work from)."""
    from ..stages.shuffle import bucketed_group_apply

    l_types = dict(left_types) if left_types is not None else _arrow_types(left)
    r_types = dict(right_types) if right_types is not None else _arrow_types(right)
    if not l_types or not r_types:
        raise ValueError(
            "hash_join cannot derive a schema from an all-empty side; pass "
            "left_types/right_types explicitly"
        )
    l_cols = list(l_types)
    r_cols = list(r_types)
    overlap = (set(l_cols) & set(r_cols)) - {left_on, right_on}
    r_renamed = {c: (c + "_r" if c in overlap else c) for c in r_cols}

    def pad_left(t: pa.Table) -> pa.Table:
        t = t.append_column("_join_key", t.column(left_on).cast(pa.string()))
        t = t.append_column("_side", pa.array([0] * t.num_rows, pa.int8()))
        for c in r_cols:
            rc = r_renamed[c]
            if rc not in t.column_names:
                t = t.append_column(rc, pa.nulls(t.num_rows, r_types[c]))
        return t

    def pad_right(t: pa.Table) -> pa.Table:
        t = t.rename_columns([r_renamed[c] for c in t.column_names])
        key_col = r_renamed[right_on]
        t = t.append_column("_join_key", t.column(key_col).cast(pa.string()))
        t = t.append_column("_side", pa.array([1] * t.num_rows, pa.int8()))
        for c in l_cols:
            if c not in t.column_names:
                t = t.append_column(c, pa.nulls(t.num_rows, l_types[c]))
        return t

    out_r_cols = [r_renamed[c] for c in r_cols if r_renamed[c] not in l_cols and r_renamed[c] != r_renamed[right_on]]

    combined = left.map_batches(pad_left, batch_format="pyarrow").union(
        right.map_batches(pad_right, batch_format="pyarrow")
    )

    def merge_bucket(df: pd.DataFrame) -> pd.DataFrame:
        lm = df.loc[df["_side"] == 0, l_cols + ["_join_key"]]
        rm = df.loc[df["_side"] == 1, out_r_cols + ["_join_key"]]
        out = lm.merge(rm, on="_join_key", how=how)
        return out.drop(columns=["_join_key"])

    joined = bucketed_group_apply(combined, ["_join_key"], merge_bucket, num_buckets=num_buckets)
    # pandas null-fills right-side columns in unmatched left-join buckets,
    # upcasting int64 → float64 (and the NaN-padding inside the pandas merge
    # can do the same even for inner joins on mixed buckets) — cast the
    # output back to the source Arrow types, exactly as asof_join does.
    target = dict(l_types)
    target.update({r_renamed[c]: r_types[c] for c in r_cols if r_renamed[c] in out_r_cols})
    return joined.map_batches(_restore_types(target), batch_format="pyarrow")


def _restore_types(types: "dict[str, pa.DataType]"):
    """pyarrow map_batches fn casting columns back to their source dtypes.

    The bucketed carry-forward body runs in pandas (map_groups
    batch_format="pandas"); the union of left+right rows null-fills
    left-only columns on right rows, so pandas upcasts int64 → float64 and
    the Arrow blocks coming out of the shuffle keep that float64. Casting
    back (safe cast: fractional values raise rather than truncate) restores
    the caller-visible schema. Caveat: int64 values above 2^53 lose
    precision inside the float64 round-trip before this cast can run — ids
    that large need a string or two-int encoding on the join input.
    """

    norm: dict[str, pa.DataType] = {}
    for name, typ in types.items():
        if not isinstance(typ, pa.DataType):
            # Ray Schema.types yields numpy dtypes for pandas-backed blocks
            try:
                typ = pa.from_numpy_dtype(typ)
            except (pa.ArrowNotImplementedError, TypeError):
                continue  # object dtype etc. — leave as shuffled
        norm[name] = typ

    def f(t: pa.Table) -> pa.Table:
        for name, typ in norm.items():
            idx = t.schema.get_field_index(name)
            if idx >= 0 and t.schema.field(idx).type != typ:
                t = t.set_column(idx, name, t.column(name).cast(typ))
        return t

    return f


def asof_join(
    left: "ray.data.Dataset",
    right: "ray.data.Dataset",
    key_cols: list[str],
    left_ts: str,
    right_ts: str,
    right_value_cols: list[str],
    tiebreak: str | None = None,
    allow_equal: bool = True,
    num_buckets: int | None = None,
) -> "ray.data.Dataset":
    """AS-OF join: each left row gets the LATEST right row with
    ``right_ts <= left_ts`` (or ``<`` when ``allow_equal=False``) per key —
    the temporal dimension lookup Ray Data lacks natively.

    Shuffle shape: tag + union both sides, ONE hash-bucket shuffle on the
    key, and a vectorized carry-forward per bucket: rows sort by
    (key, ts, side, tiebreak) with right rows ordered before left rows at
    equal ts (after, when ``allow_equal=False``), right values are
    forward-filled within each key group, and only left rows are emitted.
    Deterministic under timestamp ties: among right rows sharing (key, ts)
    the one with the greatest ``tiebreak`` wins. This is engine-authoritative
    and applies even when a left row is itself one of the tied right rows —
    it matches the max-tiebreak right row at its own timestamp, not
    necessarily its own twin (SQL oracles encoding both sides from one table
    must express the same rule). Null right values for left rows with no
    prior right row (LEFT-join semantics).
    """
    from ..stages.shuffle import bucketed_group_apply

    l_types = _arrow_types(left)
    r_types = _arrow_types(right)
    l_cols = list(l_types)
    out_r = [c for c in right_value_cols]
    side_right = 0 if allow_equal else 2  # vs left side = 1

    def tag_left(t: pa.Table) -> pa.Table:
        t = t.append_column("_asof_ts", t.column(left_ts))
        t = t.append_column("_side", pa.array([1] * t.num_rows, pa.int8()))
        for c in out_r:
            if c not in t.column_names:
                t = t.append_column(c, pa.nulls(t.num_rows, r_types[c]))
        return t.replace_schema_metadata(None)

    def tag_right(t: pa.Table) -> pa.Table:
        cols = {k: t.column(k) for k in key_cols}
        cols["_asof_ts"] = t.column(right_ts)
        cols["_side"] = pa.array([side_right] * t.num_rows, pa.int8())
        for c in out_r:
            cols[c] = t.column(c)
        if tiebreak and tiebreak not in cols:
            cols[tiebreak] = t.column(tiebreak)
        return pa.table(cols)

    combined = left.map_batches(tag_left, batch_format="pyarrow").union(
        right.map_batches(tag_right, batch_format="pyarrow")
    )

    def carry_forward(df: pd.DataFrame) -> pd.DataFrame:
        import numpy as np

        sort_cols = [*key_cols, "_asof_ts", "_side"] + ([tiebreak] if tiebreak else [])
        df = df.sort_values(sort_cols, kind="mergesort").reset_index(drop=True)
        is_right = (df["_side"] != 1).to_numpy()
        # forward-fill the right ROW POSITION, not the values: a right row
        # whose value column is genuinely NULL (e.g. an open interval end)
        # must still win over an earlier non-null one — value-level ffill
        # would skip it and carry the stale value through
        ridx = pd.Series(np.where(is_right, np.arange(len(df), dtype=float), np.nan))
        filled = ridx.groupby([df[k] for k in key_cols], sort=False).ffill().to_numpy()
        valid = ~np.isnan(filled)
        pos = np.where(valid, filled, 0).astype(np.int64)
        for c in out_r:
            src = df[c].reset_index(drop=True)
            df[c] = src.iloc[pos].reset_index(drop=True).where(pd.Series(valid))
        out = df.loc[~pd.Series(is_right), [c for c in l_cols if c in df.columns] + out_r]
        return out

    joined = bucketed_group_apply(combined, key_cols, carry_forward, num_buckets=num_buckets)
    target = dict(l_types)
    target.update({c: r_types[c] for c in out_r})
    return joined.map_batches(_restore_types(target), batch_format="pyarrow")


def range_join(
    points: "ray.data.Dataset",
    intervals: "ray.data.Dataset",
    key_cols: list[str],
    ts_col: str,
    start_col: str,
    end_col: str,
    value_cols: list[str],
    tiebreak: str | None = None,
    num_buckets: int | None = None,
) -> "ray.data.Dataset":
    """Interval-containment join for NON-OVERLAPPING intervals per key
    (the bi-temporal invariant after invalidation): each point row gets the
    value columns of the interval with ``start <= ts`` and (``end`` NULL or
    ``ts < end``), LEFT-join semantics (no containing interval → nulls).

    Composition: the as-of carry-forward finds the latest interval
    STARTING at-or-before the point (one shuffle); a stateless filter then
    nulls the match when the point falls past that interval's end. With
    non-overlapping intervals this is exactly interval containment —
    overlapping inputs need ``resolve_conflicts`` first."""
    out = asof_join(
        points, intervals, key_cols, ts_col, start_col,
        [*value_cols, end_col], tiebreak=tiebreak, num_buckets=num_buckets,
    )

    def mask(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        contained = pc.or_kleene(
            pc.is_null(t.column(end_col)), pc.less(t.column(ts_col), t.column(end_col))
        )
        contained = pc.fill_null(contained, False)
        for c in value_cols:
            idx = t.schema.get_field_index(c)
            t = t.set_column(idx, c, pc.if_else(contained, t.column(c), pa.nulls(t.num_rows, t.schema.field(c).type)))
        return t.drop_columns([end_col])

    return out.map_batches(mask, batch_format="pyarrow")


def broadcast_lookup(ds: "ray.data.Dataset", key_col: str, mapping: dict, out_col: str) -> "ray.data.Dataset":
    """Small-side join: broadcast ``mapping`` once, vectorized .map per
    batch. Missing keys → null."""
    ref = ray.put(mapping)

    def f(t: pa.Table) -> pa.Table:
        m = ray.get(ref)
        vals = pd.Series(t.column(key_col).to_pandas()).map(m)
        return t.append_column(out_col, pa.Array.from_pandas(vals))

    return ds.map_batches(f, batch_format="pyarrow")


def semi_join(
    data: "ray.data.Dataset",
    keys: "ray.data.Dataset",
    on: str,
    anti: bool = False,
    num_buckets: int | None = None,
    data_types: "dict[str, pa.DataType] | None" = None,
) -> "ray.data.Dataset":
    """Distributed semi-join filter: keep the rows of ``data`` whose ``on``
    value appears in ``keys`` (a Dataset holding at least an ``on`` column);
    ``anti=True`` inverts the predicate (anti-join). One bucketed co-shuffle
    on ``on`` — both sides meet in the same bucket, the filter is a
    vectorized ``isin`` per bucket, and NO driver-side set is built (the
    scale path when the key set outgrows a ``ray.put`` broadcast).

    Nested columns (list/struct) do not survive the pandas bucket body, so
    they ride the shuffle as pickled ``binary`` and decode on the way out —
    the same trick as the migration reader's embedding carry
    (migration.py:84-113). Per-row pickling makes this a maintenance-op
    join; hot per-record paths should broadcast or pre-project instead.
    """
    import pickle

    d_types = dict(data_types) if data_types is not None else _arrow_types(data)
    if not d_types:
        raise ValueError(
            "semi_join cannot derive a schema from an all-empty data side; "
            "pass data_types explicitly"
        )
    ride = [c for c, t in d_types.items() if pa.types.is_nested(t)]

    def enc(t: pa.Table) -> pa.Table:
        for c in ride:
            idx = t.schema.get_field_index(c)
            vals = [None if v is None else pickle.dumps(v) for v in t.column(c).to_pylist()]
            t = t.set_column(idx, c, pa.array(vals, pa.binary()))
        return t.append_column("_side", pa.array([0] * t.num_rows, pa.int8()))

    def pad_keys(t: pa.Table) -> pa.Table:
        n = t.num_rows
        cols = {}
        for c, typ in d_types.items():
            use = pa.binary() if c in ride else typ
            cols[c] = t.column(on).cast(use) if c == on else pa.nulls(n, use)
        cols["_side"] = pa.array([1] * n, pa.int8())
        return pa.table(cols)

    combined = data.map_batches(enc, batch_format="pyarrow").union(
        keys.select_columns([on]).map_batches(pad_keys, batch_format="pyarrow")
    )

    def filter_bucket(df: pd.DataFrame) -> pd.DataFrame:
        present = set(df.loc[df["_side"] == 1, on])
        rows = df.loc[df["_side"] == 0]
        m = rows[on].isin(present)
        return rows.loc[~m if anti else m].drop(columns=["_side"])

    from ..stages.shuffle import bucketed_group_apply

    out = bucketed_group_apply(combined, [on], filter_bucket, num_buckets=num_buckets)

    def dec(t: pa.Table) -> pa.Table:
        for c in ride:
            idx = t.schema.get_field_index(c)
            vals = [None if v is None else pickle.loads(v) for v in t.column(c).to_pylist()]
            t = t.set_column(idx, c, pa.array(vals, d_types[c]))
        return t

    restore = _restore_types(d_types)
    return out.map_batches(lambda t: restore(dec(t)), batch_format="pyarrow")
