"""Partitioned, resumable Parquet IO with per-partition lineage manifests.

North rule: per-partition lineage manifests + triple-count metrics are
checkpointed so any failed shard resumes without recomputation. The
reference's stand-in for this is HF-Hub commit versioning
(huggingface_driver.py:394-419 ``_push_to_hub``); here it is done the way a
batch engine should: one output directory per shard, written atomically
(tmp dir + rename), plus a ``_manifest.json`` recording the input
fingerprint and row/triple counts. A re-run skips shards whose manifest
matches the input fingerprint.

Layout::

    out_dir/
      episodes/shard=0007/part-*.parquet + _manifest.json
      triples/shard=0007/...
      nodes/shard=0000/part-*.parquet + _manifest.json   (global stages)
      edges/part-*.parquet + _manifest.json
"""

from __future__ import annotations

import json
import os
import shutil
import tempfile
import threading
import time

import pyarrow as pa
import pyarrow.parquet as pq

MANIFEST = "_manifest.json"


def manifest_matches(d: str, fingerprint: str) -> bool:
    p = os.path.join(d, MANIFEST)
    if not os.path.exists(p):
        return False
    try:
        with open(p) as f:
            m = json.load(f)
        return m.get("fingerprint") == fingerprint and m.get("complete") is True
    except (json.JSONDecodeError, OSError):
        return False


def write_shard_atomic(table: pa.Table, d: str, fingerprint: str, metrics: dict | None = None) -> dict:
    """Write one shard directory atomically: tmp dir + rename.

    Idempotent: an existing complete shard with the same fingerprint is left
    alone; a stale/partial one is replaced."""
    if manifest_matches(d, fingerprint):
        with open(os.path.join(d, MANIFEST)) as f:
            return json.load(f)
    parent = os.path.dirname(d)
    os.makedirs(parent, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=".tmp-shard-", dir=parent)
    try:
        pq.write_table(table, os.path.join(tmp, "part-0.parquet"))
        man = {
            "fingerprint": fingerprint,
            "rows": table.num_rows,
            "written_at": time.time(),
            "complete": True,
            **(metrics or {}),
        }
        with open(os.path.join(tmp, MANIFEST), "w") as f:
            json.dump(man, f)
        if os.path.exists(d):
            shutil.rmtree(d)
        os.rename(tmp, d)
        return man
    except BaseException:
        shutil.rmtree(tmp, ignore_errors=True)
        raise


class ShardWriter:
    """Incremental atomic shard writer: ``write(table)`` appends one row
    group at a time to ``part-0.parquet`` inside a ``.tmp-`` dir, ``close``
    writes the manifest and renames — the same crash contract as
    write_shard_atomic (a SIGKILL leaves only an ignored ``.tmp-`` dir),
    but the shard's rows never need to be in memory at once. This is what
    lets one extract task process a 10⁶-row shard chunk-by-chunk with
    O(chunk) heap instead of O(shard)."""

    def __init__(self, d: str, fingerprint: str, schema: pa.Schema):
        self._d = d
        self._fp = fingerprint
        parent = os.path.dirname(d)
        os.makedirs(parent, exist_ok=True)
        self._tmp = tempfile.mkdtemp(prefix=".tmp-shard-", dir=parent)
        self._writer = pq.ParquetWriter(os.path.join(self._tmp, "part-0.parquet"), schema)
        self._rows = 0

    def write(self, table: pa.Table) -> None:
        if table.num_rows:
            self._writer.write_table(table)
            self._rows += table.num_rows

    def close(self, metrics: dict | None = None) -> dict:
        self._writer.close()
        man = {
            "fingerprint": self._fp,
            "rows": self._rows,
            "written_at": time.time(),
            "complete": True,
            **(metrics or {}),
        }
        with open(os.path.join(self._tmp, MANIFEST), "w") as f:
            json.dump(man, f)
        if os.path.exists(self._d):
            shutil.rmtree(self._d)
        os.rename(self._tmp, self._d)
        return man

    def abort(self) -> None:
        try:
            self._writer.close()
        finally:
            shutil.rmtree(self._tmp, ignore_errors=True)


# Building a Ray parquet sink resolves its path, which tries an optional
# fsspec import every time; when that import fails, a second thread
# resolving at the same moment can see the half-imported module and raise
# ImportError. Sinks are built under this lock; the writes themselves still
# run concurrently (the KG link phase writes edges ∥ MENTIONS).
_SINK_LOCK = threading.Lock()


def write_table_distributed(ds, d: str, fingerprint: str, metrics: dict | None = None) -> int:
    """Distributed sink: workers stream blocks straight to part files under
    a tmp dir (no driver-side concat), then one atomic rename + manifest.
    Phase-level resumability: a complete manifest with the same fingerprint
    skips the whole write."""
    from ray.data._internal.datasource.parquet_datasink import ParquetDatasink

    if manifest_matches(d, fingerprint):
        with open(os.path.join(d, MANIFEST)) as f:
            return json.load(f).get("rows", 0)
    parent = os.path.dirname(d) or "."
    os.makedirs(parent, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=".tmp-dist-", dir=parent)
    try:
        with _SINK_LOCK:
            sink = ParquetDatasink(tmp)
        ds.write_datasink(sink)
        rows = sum(pq.read_metadata(os.path.join(tmp, f)).num_rows for f in os.listdir(tmp) if f.endswith(".parquet"))
        man = {"fingerprint": fingerprint, "rows": rows, "written_at": time.time(), "complete": True, **(metrics or {})}
        with open(os.path.join(tmp, MANIFEST), "w") as f:
            json.dump(man, f)
        if os.path.exists(d):
            shutil.rmtree(d)
        os.rename(tmp, d)
        return rows
    except BaseException:
        shutil.rmtree(tmp, ignore_errors=True)
        raise


def _synth_html(text: str) -> bytes:
    """Minimal HTML wrapping for text-only crawl records: one escaped
    ``<p>`` per line, so the pinned extractor (extract/html.py, frozen v1)
    round-trips the text EXACTLY (it joins title + <p> groups with \\n and
    unescapes entities). Python-level string assembly is fine here — this
    is input synthesis for records that carried no html, the same standing
    as fixtures/pages.page_html."""
    import html as _htmlmod

    body = "".join(f"<p>{_htmlmod.escape(ln, quote=False)}</p>" for ln in text.split("\n"))
    return f"<html><body>{body}</body></html>".encode("utf-8")


def pages_from_jsonl(
    jsonl_paths: list[str] | str,
    out_dir: str,
    on_bad: str = "error",
    default_lang: str = "en",
    fingerprint: str = "",
) -> list[str]:
    """Normalize newline-delimited-JSON crawl records into PAGES-schema
    Parquet under ``out_dir`` — the second bulk source format beside
    Parquet (reference parity: the JSON episode bodies the ingest routes
    accept, server/graph_service/routers/ingest.py:51-105 and
    EpisodeType.json, graphiti_core/nodes.py; here as a distributed bulk
    path that feeds ``pipelines.kg.kg_build`` unchanged).

    Accepted keys per record: ``url`` (required), ``warc_ts`` (ISO-8601
    string — UTC or offset forms, offsets normalize to UTC — an
    Arrow-inferred timestamp, or epoch SECONDS as int/float — required;
    unparseable values are invalid records, never a crash), ``html``
    (string), ``text`` (string — at least one of html/text required),
    ``lang`` (defaults to ``default_lang``), and optional ``group_id``
    (validated against the reference's group rule; records without one get
    the SAME url-hash default the episode stage derives, so mixed inputs
    stay consistent per row — stages/episodes.py:70). Records
    missing html get a minimal synthesized wrapper the pinned extractor
    round-trips exactly, so text-only corpora flow through the same
    html→text stage. ``on_bad``: ``"error"`` (default) raises on the first
    invalid record, ``"drop"`` filters them (the written manifest's row
    count is the surviving total).

    ``fingerprint`` defaults to an md5 of the input FILE CONTENTS (the
    same contract as pipelines.kg._fingerprint: name/size/mtime mis-fire
    on same-size edits) — pass your own (e.g. object-store etags) to skip
    the driver-side read at scale.

    Returns the ``pages_paths`` list to hand to ``kg_build`` /
    ``extract_phase``. One streaming pass: read_text → per-record decode +
    normalize → distributed Parquet sink with the usual atomic manifest
    (same-fingerprint re-runs skip the write). Decoding IS per record —
    that is the nature of heterogeneous NDJSON (Arrow's JSON reader
    type-infers whole columns and hard-fails on realistic crawl variance
    like mixed-offset timestamps in one file) and matches the reference's
    per-request JSON body parsing; every pipeline stage after this written
    table is the usual vectorized Arrow path."""
    import hashlib
    from datetime import datetime, timedelta, timezone

    import ray.data as rd

    from .ids import episode_uuid
    from .schemas import PAGES
    from .stages.episodes import GROUP_ID_RE

    if on_bad not in ("error", "drop"):
        raise ValueError(f"on_bad must be 'error' or 'drop', got {on_bad!r}")
    paths = [jsonl_paths] if isinstance(jsonl_paths, str) else sorted(jsonl_paths)
    if not fingerprint:
        h = hashlib.md5()
        for p in paths:
            h.update(os.path.basename(p).encode())
            with open(p, "rb") as f:
                for chunk in iter(lambda: f.read(1 << 20), b""):
                    h.update(chunk)
        fingerprint = "jsonl:" + h.hexdigest()

    out_schema = pa.schema(list(PAGES) + [pa.field("group_id", pa.string())])
    _EPOCH = datetime(1970, 1, 1)

    def _ts_us(v) -> int | None:
        if isinstance(v, bool) or v is None:
            return None
        if isinstance(v, (int, float)):  # epoch SECONDS (sub-second floats keep µs)
            return int(round(v * 1_000_000))
        if isinstance(v, str):
            try:
                dt = datetime.fromisoformat(v)  # 3.11+: handles 'Z' + offsets
            except ValueError:
                return None
            if dt.tzinfo is not None:  # offsets normalize to UTC
                dt = dt.astimezone(timezone.utc).replace(tzinfo=None)
            return (dt - _EPOCH) // timedelta(microseconds=1)
        return None

    def norm(t: pa.Table) -> pa.Table:
        cols: dict[str, list] = {k: [] for k in out_schema.names}
        n_bad = 0
        for ln in t.column("text").to_pylist():
            if not ln or not ln.strip():
                continue
            try:
                r = json.loads(ln)
            except ValueError:
                r = None
            url = r.get("url") if isinstance(r, dict) else None
            ts = _ts_us(r.get("warc_ts")) if isinstance(r, dict) else None
            html = r.get("html") if isinstance(r, dict) else None
            text = r.get("text") if isinstance(r, dict) else None
            group = r.get("group_id") if isinstance(r, dict) else None
            if (
                not isinstance(url, str)
                or ts is None
                or not (isinstance(html, str) or isinstance(text, str))
                or not (group is None or (isinstance(group, str) and GROUP_ID_RE.match(group)))
            ):
                n_bad += 1
                continue
            cols["url"].append(url)
            cols["warc_ts"].append(ts)
            cols["html"].append(
                html.encode("utf-8") if isinstance(html, str) else _synth_html(text)
            )
            cols["text"].append(text if isinstance(text, str) else "")
            cols["lang"].append(r.get("lang") if isinstance(r.get("lang"), str) else default_lang)
            # absent group_ids get the episode stage's own default, derived
            # the identical way (first 2 hex chars of the episode uuid), so
            # mixed with/without-key inputs stay consistent per ROW
            cols["group_id"].append(
                group if group is not None else episode_uuid(url)[:2]
            )
        if n_bad and on_bad == "error":
            raise ValueError(
                f"{n_bad} invalid jsonl record(s): url and warc_ts (epoch "
                "seconds or parseable ISO-8601) are required, plus at least "
                "one of html/text; a group_id, if present, must match "
                "^[a-zA-Z0-9_-]+$ (on_bad='drop' filters bad records)"
            )
        arrays = [
            pa.array(cols[f.name], f.type) if f.name != "warc_ts"
            else pa.array(cols["warc_ts"], pa.int64()).cast(pa.timestamp("us"))
            for f in out_schema
        ]
        return pa.Table.from_arrays(arrays, schema=out_schema)

    ds = rd.read_text(paths).map_batches(norm, batch_format="pyarrow")
    write_table_distributed(ds, out_dir, fingerprint)
    return [out_dir]


def _iter_warc_records(f, path: str):
    """Yield ``(headers: dict, payload: bytes)`` per WARC/1.0 record from a
    binary stream. Standard framing: header block ends at CRLFCRLF,
    payload length = Content-Length, records separated by CRLFCRLF.
    Structural corruption (non-WARC boundary, non-numeric Content-Length,
    payload cut short by EOF — a torn download) always raises with file
    context: a torn tail silently dropped would be missing data, not a
    per-record quality problem ``on_bad`` should paper over."""
    while True:
        line = f.readline()
        if not line:
            return
        if line.strip() == b"":
            continue
        if not line.startswith(b"WARC/"):
            raise ValueError(f"{path}: not a WARC record boundary: {line[:40]!r}")
        headers: dict[str, str] = {}
        while True:
            h = f.readline()
            if h in (b"\r\n", b"\n", b""):
                break
            k, _, v = h.decode("utf-8", "replace").partition(":")
            headers[k.strip().lower()] = v.strip()
        cl = headers.get("content-length", "0")
        try:
            n = int(cl)
        except ValueError:
            raise ValueError(f"{path}: non-numeric WARC Content-Length {cl!r}") from None
        payload = f.read(n)
        if len(payload) != n:
            raise ValueError(
                f"{path}: truncated WARC record "
                f"(Content-Length {n}, only {len(payload)} bytes before EOF)"
            )
        yield headers, payload


def _dechunk_http(body: bytes) -> bytes:
    """Decode Transfer-Encoding: chunked framing (hex size line CRLF data
    CRLF, terminated by a 0-size chunk). Raises ValueError on malformed
    framing so the caller's on_bad policy governs."""
    out: list[bytes] = []
    i = 0
    while True:
        j = body.find(b"\r\n", i)
        if j < 0:
            raise ValueError("chunked body: missing size-line terminator")
        tok = body[i:j].split(b";", 1)[0].strip()
        try:
            n = int(tok, 16)
        except ValueError:
            raise ValueError(f"chunked body: bad chunk size {tok[:16]!r}") from None
        if n == 0:
            return b"".join(out)
        start, end = j + 2, j + 2 + n
        if end + 2 > len(body) or body[end : end + 2] != b"\r\n":
            raise ValueError("chunked body: truncated or unterminated chunk")
        out.append(body[start:end])
        i = end + 2


def _http_html_body(payload: bytes) -> bytes | None:
    """Split an HTTP response message into header block + body and return
    the DECODED body iff the response's own Content-Type header says
    text/html — else None (non-HTML and untyped responses are skipped by
    design, matching the source docstring). Header fields are parsed
    line-by-line (a 'text/html' substring in some other header must not
    defeat the filter). Real crawl captures store the wire form, so
    Transfer-Encoding: chunked is de-framed and Content-Encoding
    gzip/x-gzip/deflate decompressed; any other coding (br, zstd — no
    stdlib codec) raises ValueError for the caller's on_bad policy."""
    import gzip
    import zlib

    sep = payload.find(b"\r\n\r\n")
    if sep < 0:
        raise ValueError("response record has no HTTP header/body separator")
    ctype = tenc = cenc = ""
    for ln in payload[:sep].split(b"\r\n")[1:]:  # [0] is the status line
        k, _, v = ln.decode("latin-1").partition(":")
        k = k.strip().lower()
        if k == "content-type":
            ctype = v.strip().lower()
        elif k == "transfer-encoding":
            tenc = v.strip().lower()
        elif k == "content-encoding":
            cenc = v.strip().lower()
    if not ctype.startswith("text/html"):
        return None
    body = payload[sep + 4 :]
    if "chunked" in tenc:
        body = _dechunk_http(body)
    if cenc in ("gzip", "x-gzip"):
        try:
            body = gzip.decompress(body)
        except (OSError, EOFError) as e:
            raise ValueError(f"bad gzip Content-Encoding: {e}") from None
    elif cenc == "deflate":
        try:
            body = zlib.decompress(body)
        except zlib.error:
            try:
                body = zlib.decompress(body, -zlib.MAX_WBITS)  # raw-deflate servers
            except zlib.error as e:
                raise ValueError(f"bad deflate Content-Encoding: {e}") from None
    elif cenc and cenc != "identity":
        raise ValueError(f"unsupported Content-Encoding {cenc!r}")
    return body


# WARC-Identified-Content-Language (Common Crawl WET) uses ISO-639-3; the
# engine's lang column uses 639-1 everywhere else. Normalize the common web
# languages so one language never maps to two vocabulary values in a mixed
# corpus; tags without a 639-1 equivalent (or already 2-letter) pass through.
_ISO639_3TO1 = {
    "eng": "en", "deu": "de", "fra": "fr", "spa": "es", "rus": "ru",
    "zho": "zh", "cmn": "zh", "jpn": "ja", "por": "pt", "ita": "it",
    "nld": "nl", "pol": "pl", "tur": "tr", "ces": "cs", "kor": "ko",
    "ara": "ar", "vie": "vi", "swe": "sv", "ukr": "uk", "ell": "el",
    "ron": "ro", "hun": "hu", "dan": "da", "fin": "fi", "nor": "no",
    "nob": "no", "ind": "id", "tha": "th", "heb": "he", "hin": "hi",
    "fas": "fa", "bul": "bg", "slk": "sk", "hrv": "hr", "srp": "sr",
    "cat": "ca", "lit": "lt", "slv": "sl", "est": "et", "lav": "lv",
}


def pages_from_warc(
    warc_paths: list[str] | str,
    out_dir: str,
    default_lang: str = "en",
    fingerprint: str = "",
    on_bad: str = "error",
) -> list[str]:
    """Normalize WARC/WET files — the actual Common-Crawl containers —
    into PAGES-schema Parquet under ``out_dir``, completing the
    crawl-ingest source family (parquet / JSONL / WARC / WET all feed
    ``kg_build`` unchanged). Stdlib-only reader: per-record-gzip or plain
    streams (gzip.GzipFile reads multi-member transparently). Two record
    kinds become pages:

    - ``WARC-Type: response`` (WARC dumps) whose HTTP Content-Type header
      says ``text/html``: the wire form is decoded (chunked framing,
      gzip/deflate Content-Encoding) and the HTTP body becomes html (the
      pinned extractor derives text downstream, same as every source).
    - ``WARC-Type: conversion`` (WET dumps — Common Crawl's pre-extracted
      text) whose record Content-Type is ``text/plain``: the payload IS
      the text (no HTTP envelope); it fills the text column and a
      minimal synthesized html the pinned extractor round-trips exactly
      (same contract as JSONL text-only records). A
      ``WARC-Identified-Content-Language`` header's first tag becomes
      lang (CC labels WET records this way), else ``default_lang``.

    WARC-Target-URI → url, WARC-Date → warc_ts for both. Other record
    types (warcinfo, request, metadata) and non-HTML/untyped responses /
    non-plain conversions are skipped by design, not errors. BAD records
    — missing URI/date, unparseable WARC-Date, no HTTP header/body
    separator, undecodable body coding — follow ``on_bad``: 'error'
    (default, same as ``pages_from_jsonl``) raises with file context,
    'drop' skips them. Structural file corruption (torn record,
    non-numeric Content-Length) always raises.

    Distribution: one Ray task per WARC file (files are the natural
    parallel unit of a crawl dump; paths must be worker-visible).
    Each file STREAMS record-by-record into chunked output batches —
    task heap is O(chunk), never O(file). Same atomic manifested sink +
    content-digest default fingerprint as ``pages_from_jsonl``; note the
    default digest reads every file on the DRIVER before any task
    launches (paths must be driver-visible too) — pass ``fingerprint=``
    (e.g. a crawl-segment id) to skip that pass at scale."""
    import gzip
    import hashlib

    import ray.data as rd

    from .ids import episode_uuid
    from .schemas import PAGES

    if on_bad not in ("error", "drop"):
        raise ValueError(f"on_bad must be 'error' or 'drop', got {on_bad!r}")

    paths = [warc_paths] if isinstance(warc_paths, str) else sorted(warc_paths)
    if not fingerprint:
        h = hashlib.md5()
        for p in paths:
            h.update(os.path.basename(p).encode())
            with open(p, "rb") as f:
                for chunk in iter(lambda: f.read(1 << 20), b""):
                    h.update(chunk)
        fingerprint = "warc:" + h.hexdigest()

    out_schema = pa.schema(list(PAGES) + [pa.field("group_id", pa.string())])
    chunk_rows = 4096

    def parse_files(t: pa.Table):
        """Generator UDF: yields chunk-sized pages tables as records parse,
        so the streaming executor sees blocks long before a file ends and
        task heap stays O(chunk)."""
        from datetime import datetime, timedelta, timezone

        _EPOCH = datetime(1970, 1, 1)
        cols: dict[str, list] = {k: [] for k in out_schema.names}

        def as_table() -> pa.Table:
            tab = pa.Table.from_arrays(
                [
                    pa.array(cols[f.name], f.type) if f.name != "warc_ts"
                    else pa.array(cols["warc_ts"], pa.int64()).cast(pa.timestamp("us"))
                    for f in out_schema
                ],
                schema=out_schema,
            )
            for v in cols.values():
                v.clear()
            return tab

        def bad(path: str, why: str) -> None:
            if on_bad == "error":
                raise ValueError(
                    f"{path}: bad WARC record: {why} "
                    "(on_bad='drop' skips bad records)"
                )

        emitted = False
        for path in t.column("path").to_pylist():
            with open(path, "rb") as raw:
                head = raw.read(2)
                raw.seek(0)
                f = gzip.GzipFile(fileobj=raw) if head == b"\x1f\x8b" else raw
                for headers, payload in _iter_warc_records(f, path):
                    wtype = headers.get("warc-type")
                    if wtype not in ("response", "conversion"):
                        continue
                    url = headers.get("warc-target-uri")
                    date = headers.get("warc-date")
                    if not url or not date:
                        bad(path, "missing WARC-Target-URI or WARC-Date")
                        continue
                    try:
                        dt = datetime.fromisoformat(date)
                    except ValueError:
                        bad(path, f"unparseable WARC-Date {date!r}")
                        continue
                    if dt.tzinfo is not None:
                        dt = dt.astimezone(timezone.utc).replace(tzinfo=None)
                    lang = default_lang
                    if wtype == "response":
                        try:
                            body = _http_html_body(payload)
                        except ValueError as e:
                            bad(path, f"{e} (url {url})")
                            continue
                        if body is None:  # non-HTML / untyped: by design
                            continue
                        text = ""
                    else:  # conversion (WET): payload is the extracted text
                        # untyped conversions skip, same rule as untyped
                        # responses (a conversion can be any transform)
                        ctype = headers.get("content-type", "")
                        if not ctype.lower().startswith("text/plain"):
                            continue
                        text = payload.decode("utf-8", "replace").replace("\r\n", "\n")
                        body = _synth_html(text)
                        tag = headers.get("warc-identified-content-language", "")
                        tag = tag.split(",")[0].strip().lower()
                        # CC labels WET records in ISO-639-3; the engine's
                        # lang vocabulary is 639-1 ('en'), so normalize the
                        # common web languages (unknown tags pass verbatim)
                        lang = _ISO639_3TO1.get(tag, tag) or default_lang
                    cols["url"].append(url)
                    cols["warc_ts"].append((dt - _EPOCH) // timedelta(microseconds=1))
                    cols["html"].append(body)
                    cols["text"].append(text)
                    cols["lang"].append(lang)
                    cols["group_id"].append(episode_uuid(url)[:2])
                    if len(cols["url"]) >= chunk_rows:
                        emitted = True
                        yield as_table()
        if cols["url"] or not emitted:
            yield as_table()

    items = [{"path": p} for p in paths]
    ds = rd.from_items(items, override_num_blocks=len(items)).map_batches(
        parse_files, batch_format="pyarrow", batch_size=1
    )
    write_table_distributed(ds, out_dir, fingerprint)
    return [out_dir]


def _prune_tmp(dirnames: list[str]) -> None:
    """In-place os.walk pruning: never descend into .tmp-* dirs — a
    SIGKILLed writer leaves its tmp dir behind (cleanup only runs on
    exceptions) and its partial part files must not be read as data.
    Also SORTS dirnames so traversal (hence multi-shard read order) is
    deterministic instead of filesystem-listdir order."""
    dirnames[:] = sorted(d for d in dirnames if not d.startswith(".tmp-"))


def rewrite_file_atomic(table: pa.Table, path: str) -> None:
    """Replace one parquet file atomically (tmp + os.replace): a crash
    mid-write leaves the original intact."""
    tmp = path + ".tmp-rw"
    try:
        pq.write_table(table, tmp)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def refresh_manifest_rows(d: str) -> None:
    """Recount a shard dir's rows from parquet footers and update its
    manifest (used after an in-place mutation like remove_episode so
    job_metrics / resume logic see true counts)."""
    p = os.path.join(d, MANIFEST)
    if not os.path.exists(p):
        return
    rows = sum(
        pq.read_metadata(os.path.join(d, fn)).num_rows
        for fn in os.listdir(d)
        if fn.endswith(".parquet")
    )
    with open(p) as f:
        m = json.load(f)
    m["rows"] = rows
    m["mutated_at"] = time.time()
    tmp = p + ".tmp-rw"
    with open(tmp, "w") as f:
        json.dump(m, f)
    os.replace(tmp, p)


def read_table_dir(out_dir: str, table: str) -> pa.Table:
    """Read every shard of a table directory back into one Arrow table."""
    root = os.path.join(out_dir, table)
    parts = []
    for dirpath, dirnames, filenames in os.walk(root):
        _prune_tmp(dirnames)
        for fn in sorted(filenames):
            if fn.endswith(".parquet"):
                parts.append(pq.read_table(os.path.join(dirpath, fn)))
    if not parts:
        raise FileNotFoundError(f"no parquet under {root}")
    return pa.concat_tables(parts)


def read_table_dir_ds(out_dir: str, table: str, columns: list[str] | None = None):
    """Ray-Dataset reader for a (possibly shard-partitioned) table dir.

    Enumerates part FILES explicitly: reading the directory would both try
    to parse shard manifests and hive-parse ``shard=...`` dir names into a
    phantom ``shard`` column that poisons downstream schema unions."""
    import ray.data as rd

    root = os.path.join(out_dir, table)
    paths = []
    for dirpath, dirnames, filenames in os.walk(root):
        _prune_tmp(dirnames)
        for fn in sorted(filenames):
            if fn.endswith(".parquet"):
                paths.append(os.path.join(dirpath, fn))
    if not paths:
        raise FileNotFoundError(f"no parquet under {root}")
    if columns is not None:
        # an explicit column list already excludes the phantom hive column;
        # combining columns= with partitioning=None trips an UnboundLocalError
        # inside Ray 2.49's parquet datasource
        return rd.read_parquet(paths, columns=columns)
    return rd.read_parquet(paths, partitioning=None)


BRANCHES_DIR = "_branches"


def create_branch(out_dir: str, name: str, tables: list[str] | None = None) -> dict:
    """TS9 branch: an immutable named snapshot of the graph's table dirs
    under ``out_dir/_branches/<name>/`` (reference: HF-Hub branch commits,
    huggingface_driver.py:394-419). Parquet part files are HARDLINKED, not
    copied — O(metadata) regardless of table size; manifests are copied so
    the branch carries its own lineage. In-place mutations rewrite via
    tmp+``os.replace`` (new inode), so the branch's linked files are
    untouched by later edits to main."""
    if not name or "/" in name or name.startswith("."):
        raise ValueError(f"bad branch name {name!r}")
    broot = os.path.join(out_dir, BRANCHES_DIR, name)
    if os.path.exists(broot):
        raise FileExistsError(f"branch {name!r} already exists")
    tmp = broot + ".tmp-branch"
    shutil.rmtree(tmp, ignore_errors=True)
    n_files = 0
    tables = tables or [
        t for t in sorted(os.listdir(out_dir))
        if os.path.isdir(os.path.join(out_dir, t)) and not t.startswith("_")
    ]
    try:
        for table in tables:
            troot = os.path.join(out_dir, table)
            for dirpath, dirnames, files in os.walk(troot):
                _prune_tmp(dirnames)
                rel = os.path.relpath(dirpath, out_dir)
                dest = os.path.join(tmp, rel)
                os.makedirs(dest, exist_ok=True)
                for fn in files:
                    src = os.path.join(dirpath, fn)
                    if fn.endswith(".parquet"):
                        os.link(src, os.path.join(dest, fn))
                        n_files += 1
                    elif fn == MANIFEST:
                        shutil.copy2(src, os.path.join(dest, fn))
        man = {"name": name, "created_at": time.time(), "tables": tables, "files": n_files}
        with open(os.path.join(tmp, "_branch.json"), "w") as f:
            json.dump(man, f)
        os.makedirs(os.path.dirname(broot), exist_ok=True)
        os.rename(tmp, broot)
        return man
    except BaseException:
        shutil.rmtree(tmp, ignore_errors=True)
        raise


def list_branches(out_dir: str) -> list[dict]:
    broot = os.path.join(out_dir, BRANCHES_DIR)
    out = []
    if os.path.isdir(broot):
        for name in sorted(os.listdir(broot)):
            if ".tmp-" in name:
                # a crash between _branch.json write and os.rename leaves a
                # '<name>.tmp-branch' dir that would otherwise be listed
                # under the wrong name (mirrors _prune_tmp)
                continue
            p = os.path.join(broot, name, "_branch.json")
            if os.path.exists(p):
                with open(p) as f:
                    out.append(json.load(f))
    return out


def branch_dir(out_dir: str, name: str) -> str:
    """Root to read a branch's tables from (pass to ``read_table_dir`` /
    ``GraphStore``)."""
    d = os.path.join(out_dir, BRANCHES_DIR, name)
    if not os.path.isdir(d):
        raise FileNotFoundError(f"no branch {name!r} under {out_dir}")
    return d


def delete_branch(out_dir: str, name: str) -> None:
    shutil.rmtree(branch_dir(out_dir, name))


def job_metrics(out_dir: str) -> dict:
    """Aggregate all shard manifests into one job-level metrics dict."""
    agg: dict = {"tables": {}}
    for table in sorted(os.listdir(out_dir)) if os.path.isdir(out_dir) else []:
        troot = os.path.join(out_dir, table)
        if not os.path.isdir(troot) or table.startswith("_"):
            continue  # _branches / _journal / _index_* are not data tables
        rows = 0
        shards = 0
        for dirpath, dirnames, filenames in os.walk(troot):
            _prune_tmp(dirnames)
            if MANIFEST in filenames:
                with open(os.path.join(dirpath, MANIFEST)) as f:
                    m = json.load(f)
                rows += m.get("rows", 0)
                shards += 1
        agg["tables"][table] = {"rows": rows, "shards": shards}
    return agg
