"""Local mimic of the driver's correctness gate: run every queries() entry
at a given sf_dir and compare against oracle_sql() via DuckDB
(row count + sorted-column value comparison). Usage:

    python scripts/check_correctness.py [sf_dir] [query_name ...]
"""

from __future__ import annotations

import os
import sys
import time

import duckdb
import pandas as pd

# this checkout first, so a run from a second checkout checks that one
sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

TABLES = "region nation customer supplier part orders lineitem events documents embeddings".split()


def norm(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        if str(df[c].dtype).startswith("datetime"):
            df[c] = df[c].astype("datetime64[us]")
        if df[c].dtype == object:
            df[c] = df[c].astype(str)
        if str(df[c].dtype).startswith(("int", "uint")):
            df[c] = df[c].astype("int64")
    return df.sort_values(list(df.columns), kind="mergesort").reset_index(drop=True)


def main() -> int:
    sf_dir = sys.argv[1] if len(sys.argv) > 1 else "/root/testdata/sf0.01"
    only = set(sys.argv[2:])

    import ray

    if not ray.is_initialized():
        ray.init(address="local", num_cpus=8, include_dashboard=False, logging_level="ERROR")
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    import __ray_entry__ as entrymod

    qs = entrymod.queries()
    oracles = entrymod.oracle_sql()

    con = duckdb.connect()
    for t in TABLES:
        con.sql(f"CREATE VIEW {t} AS SELECT * FROM '{sf_dir}/{t}.parquet'")

    failures = []
    for name, fn in qs.items():
        if only and name not in only:
            continue
        t0 = time.time()
        try:
            res = fn(sf_dir)
            if hasattr(res, "to_pandas"):
                res = res.to_pandas()
            elif not isinstance(res, pd.DataFrame):
                res = pd.DataFrame(res)
        except Exception as e:  # noqa: BLE001
            print(f"FAIL {name}: query raised {type(e).__name__}: {e}")
            failures.append(name)
            continue
        dt = time.time() - t0
        if name not in oracles:
            print(f"ok   {name}: rows={len(res)} (rows-only, no oracle) [{dt:.1f}s]")
            continue
        try:
            exp = con.sql(oracles[name]).df()
        except Exception as e:  # noqa: BLE001
            print(f"FAIL {name}: oracle raised {type(e).__name__}: {e}")
            failures.append(name)
            continue
        a, b = norm(res), norm(exp)
        if list(a.columns) != list(b.columns):
            print(f"FAIL {name}: columns {list(a.columns)} != {list(b.columns)}")
            failures.append(name)
            continue
        if len(a) != len(b):
            print(f"FAIL {name}: rows {len(a)} != {len(b)}")
            failures.append(name)
            continue
        # the driver hashes VALUES after its own normalization, but a
        # float64-vs-int64 engine column hash-mismatches int64 oracle values
        # (seen r2: q43/q45) — norm() only coerces int widths, so any dtype
        # difference surviving norm() is a driver hash-fail; treat as FAIL.
        dmism = [c for c in a.columns if a[c].dtype != b[c].dtype]
        if dmism:
            print(f"FAIL {name}: dtype mismatch {[(c, str(a[c].dtype), str(b[c].dtype)) for c in dmism]}")
            failures.append(name)
            continue
        try:
            pd.testing.assert_frame_equal(a, b, check_dtype=False, check_exact=True)
            print(f"ok   {name}: rows={len(a)} MATCH [{dt:.1f}s]")
        except AssertionError as e:
            print(f"FAIL {name}: value mismatch: {str(e)[:400]}")
            failures.append(name)
    print()
    if failures:
        print("FAILURES:", failures)
        return 1
    print("ALL MATCH")
    return 0


if __name__ == "__main__":
    rc = main()
    import ray

    ray.shutdown()
    sys.exit(rc)
