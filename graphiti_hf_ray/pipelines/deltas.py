"""Incremental delta application with journal + rollback (SURVEY.md TS8/TS9;
reference graphiti_hf/processing/incremental_updater.py:405-565 apply_delta
with rollback data, :866-911 chunked application).

The bulk incremental path stays the shard-append pipeline (pipelines/kg.py:
append-only episode/triple shards + idempotent re-link). This module covers
the reference's ROW-SCALE delta surface: explicit add/delete/update edge
operations applied atomically to a materialized graph directory, each delta
journaled under ``out_dir/_journal/`` with a rollback sidecar (the affected
rows BEFORE the mutation), so any applied delta can be rolled back exactly —
the reference's ``rollback_data`` made durable instead of in-memory.

Journal layout::

    out_dir/_journal/
      000001-<delta_id>.json          # op summary + status
      000001-<delta_id>.rollback.parquet  # pre-image of touched rows

Every table mutation goes through ``io.rewrite_file_atomic`` /
``write_shard_atomic`` (tmp + rename) — a crash mid-apply leaves every
parquet readable and the journal entry absent or marked, never half-written.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from .. import io as gio

JOURNAL_DIR = "_journal"


@dataclass
class DeltaOp:
    """One operation (incremental_updater.py UpdateOperation analog)."""

    op: str  # add_edge | delete_edge | update_edge_attrs
    rows: pa.Table | None = None  # add_edge payload (EDGES-shaped)
    uuids: list[str] = field(default_factory=list)  # delete/update targets
    attributes: str | None = None  # update_edge_attrs new JSON payload


def _journal_root(out_dir: str) -> str:
    d = os.path.join(out_dir, JOURNAL_DIR)
    os.makedirs(d, exist_ok=True)
    return d


def _next_seq(jroot: str) -> int:
    seqs = [int(f.split("-", 1)[0]) for f in os.listdir(jroot) if f.endswith(".json")]
    return (max(seqs) + 1) if seqs else 1


def _edges_files(out_dir: str) -> list[str]:
    return gio.part_files(os.path.join(out_dir, "edges"))


def _snapshot_rows(out_dir: str, uuids: list[str]) -> pa.Table:
    want = pa.array(sorted(set(uuids)))
    parts = []
    for p in _edges_files(out_dir):
        t = pq.read_table(p)
        hit = t.filter(pc.is_in(t.column("uuid"), value_set=want))
        if hit.num_rows:
            parts.append(hit)
    if not parts:
        return pa.table({"uuid": pa.array([], pa.string())})
    return pa.concat_tables(parts)


def validate_delta(out_dir: str, ops: list[DeltaOp]) -> list[str]:
    """Pre-flight checks (incremental_updater.py:469-520 validate_delta):
    delete/update targets must exist; add payloads must not collide with
    live uuids."""
    errors = []
    live: set[str] = set()
    for p in _edges_files(out_dir):
        live.update(pq.read_table(p, columns=["uuid"]).column("uuid").to_pylist())
    for i, op in enumerate(ops):
        if op.op == "add_edge":
            if op.rows is None or op.rows.num_rows == 0:
                errors.append(f"op{i}: add_edge with no rows")
                continue
            dup = set(op.rows.column("uuid").to_pylist()) & live
            if dup:
                errors.append(f"op{i}: add_edge uuid(s) already exist: {sorted(dup)[:3]}")
        elif op.op in ("delete_edge", "update_edge_attrs"):
            missing = set(op.uuids) - live
            if missing:
                errors.append(f"op{i}: {op.op} unknown uuid(s): {sorted(missing)[:3]}")
        else:
            errors.append(f"op{i}: unknown op {op.op!r}")
    return errors


def apply_delta(out_dir: str, ops: list[DeltaOp], delta_id: str, validate: bool = True) -> dict:
    """Apply a delta atomically-per-file and journal it with a rollback
    pre-image. Returns {delta_id, seq, applied, status}."""
    if validate:
        errs = validate_delta(out_dir, ops)
        if errs:
            raise ValueError(f"delta validation failed: {errs}")
    jroot = _journal_root(out_dir)
    seq = _next_seq(jroot)
    stem = os.path.join(jroot, f"{seq:06d}-{delta_id}")

    # rollback pre-image: rows about to be deleted/updated + uuids added
    touched = [u for op in ops for u in op.uuids]
    pre = _snapshot_rows(out_dir, touched) if touched else None
    if pre is not None and pre.num_rows:
        gio.rewrite_file_atomic(pre, stem + ".rollback.parquet")
    added_uuids: list[str] = []

    applied = 0
    for op in ops:
        if op.op == "add_edge":
            dest = os.path.join(out_dir, "edges", f"delta-{delta_id}-{applied}.parquet")
            gio.rewrite_file_atomic(op.rows, dest)
            added_uuids.extend(op.rows.column("uuid").to_pylist())
        elif op.op == "delete_edge":
            want = pa.array(sorted(set(op.uuids)))
            for p in _edges_files(out_dir):
                t = pq.read_table(p)
                keep = pc.invert(pc.is_in(t.column("uuid"), value_set=want))
                if pc.sum(pc.cast(pc.invert(keep), pa.int64())).as_py():
                    gio.rewrite_file_atomic(t.filter(keep), p)
        elif op.op == "update_edge_attrs":
            want = pa.array(sorted(set(op.uuids)))
            for p in _edges_files(out_dir):
                t = pq.read_table(p)
                hit = pc.is_in(t.column("uuid"), value_set=want)
                if pc.sum(pc.cast(hit, pa.int64())).as_py():
                    idx = t.schema.get_field_index("attributes")
                    new_attrs = pc.if_else(
                        hit, pa.scalar(op.attributes or "{}"), t.column("attributes")
                    )
                    gio.rewrite_file_atomic(t.set_column(idx, "attributes", new_attrs), p)
        applied += 1

    entry = {
        "delta_id": delta_id,
        "seq": seq,
        "applied_at": time.time(),
        "status": "applied",
        "ops": [{"op": o.op, "n": o.rows.num_rows if o.rows is not None else len(o.uuids)} for o in ops],
        "added_uuids": added_uuids,
        "touched_uuids": sorted(set(touched)),
    }
    tmp = stem + ".json.tmp-rw"
    with open(tmp, "w") as f:
        json.dump(entry, f)
    os.replace(tmp, stem + ".json")
    return {"delta_id": delta_id, "seq": seq, "applied": applied, "status": "applied"}


def journal_entries(out_dir: str) -> list[dict]:
    jroot = _journal_root(out_dir)
    out = []
    for fn in sorted(os.listdir(jroot)):
        if fn.endswith(".json"):
            with open(os.path.join(jroot, fn)) as f:
                out.append(json.load(f))
    return out


def rollback_delta(out_dir: str, delta_id: str) -> dict:
    """Exact inverse of ``apply_delta`` (incremental_updater.py
    _rollback_operation, made durable): delete the rows the delta added,
    restore the journal's pre-image of rows it deleted/updated."""
    jroot = _journal_root(out_dir)
    match = [fn for fn in os.listdir(jroot) if fn.endswith(f"-{delta_id}.json")]
    if not match:
        raise KeyError(f"no journal entry for delta {delta_id}")
    path = os.path.join(jroot, match[0])
    with open(path) as f:
        entry = json.load(f)
    if entry["status"] != "applied":
        raise ValueError(f"delta {delta_id} is {entry['status']}, not applied")

    # 1. remove added rows
    if entry["added_uuids"]:
        want = pa.array(sorted(set(entry["added_uuids"])))
        for p in _edges_files(out_dir):
            t = pq.read_table(p)
            keep = pc.invert(pc.is_in(t.column("uuid"), value_set=want))
            dropped = t.num_rows - pc.sum(pc.cast(keep, pa.int64())).as_py()
            if dropped == t.num_rows:
                os.remove(p)  # pure delta file — drop it entirely
            elif dropped:
                gio.rewrite_file_atomic(t.filter(keep), p)
    # 2. restore pre-image rows (delete current versions, re-insert originals)
    rb = path[: -len(".json")] + ".rollback.parquet"
    if os.path.exists(rb):
        pre = pq.read_table(rb)
        want = pa.array(sorted(set(pre.column("uuid").to_pylist())))
        for p in _edges_files(out_dir):
            t = pq.read_table(p)
            keep = pc.invert(pc.is_in(t.column("uuid"), value_set=want))
            if pc.sum(pc.cast(pc.invert(keep), pa.int64())).as_py():
                gio.rewrite_file_atomic(t.filter(keep), p)
        gio.rewrite_file_atomic(
            pre, os.path.join(out_dir, "edges", f"restore-{delta_id}.parquet")
        )

    entry["status"] = "rolled_back"
    entry["rolled_back_at"] = time.time()
    tmp = path + ".tmp-rw"
    with open(tmp, "w") as f:
        json.dump(entry, f)
    os.replace(tmp, path)
    return {"delta_id": delta_id, "status": "rolled_back"}


def apply_delta_chunked(out_dir: str, ops: list[DeltaOp], delta_id: str, chunk_size: int = 100) -> dict:
    """process_large_delta parity (incremental_updater.py:866-911): split a
    large op list into chunked sub-deltas, each journaled independently."""
    results = {"total_chunks": 0, "applied": 0, "chunk_ids": []}
    for i in range(0, len(ops), chunk_size):
        cid = f"{delta_id}-c{i // chunk_size}"
        r = apply_delta(out_dir, ops[i : i + chunk_size], cid, validate=False)
        results["total_chunks"] += 1
        results["applied"] += r["applied"]
        results["chunk_ids"].append(cid)
    return results
