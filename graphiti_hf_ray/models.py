"""Real-model adapters for the engine's injectable seams (ST2 / ST7).

The reference ships concrete model clients (embedders
graphiti_core/embedder/client.py + gemini.py/openai.py/voyageai.py,
cross-encoder graphiti_core/cross_encoder/bge_reranker_client.py); the
engine's pipelines take any callable class with the same batch contract.
This module provides the drop-in classes for the standard open-weights
stack — lazy-imported so the engine has zero hard dependency on torch:

- ``SentenceTransformerEmbedder`` — sentence-transformers model in place
  of ``stages/embed.Embedder`` (same (text_col, out_col) signature); its
  weights make it an actor-pool stage:
  ``map_batches(..., concurrency=N, num_gpus=...)``.
- ``BGECrossEncoderClient``      — ``.rank(query, [(id, passage)])``
  client for ``search/rerank.CrossEncoderScore`` backed by a
  sentence-transformers ``CrossEncoder`` (BGE reranker).
- ``OpenAICompatExtractor``      — the ST1 extraction seam's real-LLM
  form: an OpenAI-compatible ``/chat/completions`` client with the same
  batch contract as ``extract.triples.TripleExtractor``.

Both accept a pre-built ``model`` object (anything with the
``.encode(texts)`` / ``.predict(pairs)`` surface), which is how the
contract tests drive them offline and how a user injects a custom or
quantized model. Without one, the real library import happens inside the
actor's ``__init__`` — once per actor, never per batch — and raises a
clear error when the library/weights are absent (this container ships
neither, by design).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from .functions.vectors import l2_normalize


class SentenceTransformerEmbedder:
    """Actor-pool embedding stage backed by sentence-transformers.

    Batch contract matches ``stages/embed.Embedder``: Arrow batch in,
    same batch + ``<out_col>`` fixed-size-list<float32, dim> out. Newlines
    are normalized to spaces before encoding (reference EmbedderClient
    behavior, graphiti_core/embedder/client.py). The model loads ONCE per
    actor; pass ``model=`` to inject any object with
    ``.encode(list[str]) -> (n, dim) array``.
    """

    def __init__(
        self,
        text_col: str,
        out_col: str,
        model=None,
        model_name: str = "sentence-transformers/all-MiniLM-L6-v2",
        normalize: bool = True,
        dim: int | None = None,
    ):
        self.text_col, self.out_col, self.normalize = text_col, out_col, normalize
        if model is not None:
            self.model = model
        else:
            try:
                from sentence_transformers import SentenceTransformer  # lazy; torch-heavy
            except ImportError as e:  # pragma: no cover - lib absent in CI container
                raise NotImplementedError(
                    "SentenceTransformerEmbedder needs the sentence-transformers "
                    "package (and model weights), which this environment does not "
                    "ship; pass model=<object with .encode(texts)> to inject one"
                ) from e
            self.model = SentenceTransformer(model_name)
        probe = np.asarray(self.model.encode(["dimension probe"]))
        self.dim = int(dim if dim is not None else probe.shape[-1])

    def __call__(self, batch: pa.Table) -> pa.Table:
        texts = [
            (t or "").replace("\n", " ") for t in batch.column(self.text_col).to_pylist()
        ]
        if texts:
            mat = np.asarray(self.model.encode(texts), np.float32).reshape(len(texts), -1)
        else:
            mat = np.zeros((0, self.dim), np.float32)
        if mat.shape[1] != self.dim:
            raise ValueError(f"model returned dim {mat.shape[1]}, stage bound to {self.dim}")
        if self.normalize:
            mat = l2_normalize(mat).astype(np.float32)
        arr = pa.FixedSizeListArray.from_arrays(pa.array(mat.ravel(), pa.float32()), self.dim)
        return batch.append_column(self.out_col, arr)


class BGECrossEncoderClient:
    """``.rank(query, passages)`` client for ``CrossEncoderScore`` backed
    by a BGE reranker (reference bge_reranker_client.py surface: score
    every (query, passage) pair, sort descending). Pass ``model=`` to
    inject any object with ``.predict(list[(q, p)]) -> scores``; without
    one, sentence-transformers' ``CrossEncoder`` loads lazily."""

    def __init__(self, model=None, model_name: str = "BAAI/bge-reranker-v2-m3"):
        if model is not None:
            self.model = model
        else:
            try:
                from sentence_transformers import CrossEncoder  # lazy; torch-heavy
            except ImportError as e:  # pragma: no cover - lib absent in CI container
                raise NotImplementedError(
                    "BGECrossEncoderClient needs the sentence-transformers package "
                    "(and BGE weights), which this environment does not ship; pass "
                    "model=<object with .predict(pairs)> to inject one"
                ) from e
            self.model = CrossEncoder(model_name)

    def rank(self, query: str, passages: list[tuple[str, str]]) -> list[tuple[str, float]]:
        if not passages:
            return []
        scores = np.asarray(self.model.predict([(query, p) for _, p in passages]), np.float64)
        out = [(uid, round(float(s), 6)) for (uid, _), s in zip(passages, scores)]
        # deterministic: score desc, id asc (matches the stub's tie order)
        return sorted(out, key=lambda kv: (-kv[1], kv[0]))


class OpenAICompatEmbedder:
    """Actor-pool embedding stage for any OpenAI-compatible ``/embeddings``
    endpoint (OpenAI, vLLM, TEI, Ollama, LM Studio serve the same shape) —
    the reference's OpenAIEmbedder surface (graphiti_core/embedder/
    openai.py; newline normalization per client.py). stdlib-urllib only;
    one POST per Arrow batch (batched inference), retried with capped
    exponential backoff. ``transport`` injects a ``texts -> [[float]]``
    callable for tests/custom stacks; without it the real HTTP transport
    binds to ``endpoint``.
    """

    def __init__(
        self,
        text_col: str,
        out_col: str,
        endpoint: str = "http://127.0.0.1:8000/v1",
        model: str = "text-embedding-3-small",
        api_key: str | None = None,
        dim: int | None = None,
        normalize: bool = False,
        transport=None,
        max_retries: int = 3,
    ):
        self.text_col, self.out_col = text_col, out_col
        self.normalize, self._dim = normalize, dim
        if transport is not None:
            self._transport = transport
        else:
            url = endpoint.rstrip("/") + "/embeddings"

            def http_transport(texts: list[str]) -> list[list[float]]:
                import json as _json
                import time as _time
                import urllib.request

                body = _json.dumps({"model": model, "input": texts}).encode()
                headers = {"Content-Type": "application/json"}
                if api_key:
                    headers["Authorization"] = f"Bearer {api_key}"
                last = None
                for attempt in range(max_retries):
                    try:
                        req = urllib.request.Request(url, data=body, headers=headers)
                        with urllib.request.urlopen(req) as r:
                            payload = _json.loads(r.read())
                        data = sorted(payload["data"], key=lambda d: d["index"])
                        return [d["embedding"] for d in data]
                    except Exception as e:  # retry transient transport errors
                        last = e
                        _time.sleep(min(2.0, 0.1 * 2**attempt))
                raise RuntimeError(f"embeddings endpoint failed after {max_retries} tries") from last

            self._transport = http_transport

    def __call__(self, batch: pa.Table) -> pa.Table:
        texts = [(t or "").replace("\n", " ") for t in batch.column(self.text_col).to_pylist()]
        if texts:
            mat = np.asarray(self._transport(texts), np.float32)
        else:
            mat = np.zeros((0, self._dim or 0), np.float32)
        if self._dim is None and mat.size:
            self._dim = int(mat.shape[1])
        if mat.size and self._dim and mat.shape[1] != self._dim:
            raise ValueError(f"endpoint returned dim {mat.shape[1]}, stage bound to {self._dim}")
        if self.normalize and mat.size:
            mat = l2_normalize(mat).astype(np.float32)
        arr = pa.FixedSizeListArray.from_arrays(
            pa.array(mat.ravel(), pa.float32()), self._dim or 1
        )
        return batch.append_column(self.out_col, arr)


# ---------------------------------------------------------------------------
# ST1: real-LLM extractor adapter
# ---------------------------------------------------------------------------

# Fused entity+edge extraction prompt modeled on the reference's two-prompt
# flow (graphiti_core/prompts/extract_nodes.py:82-191 asks for entities with
# labels; extract_edges.py:60-128 asks for (source, relation, target, fact,
# valid_at) over those entities) — one structured-output call per episode
# returns both at once, since the engine's triple rows carry the entity
# labels inline.
EXTRACTOR_SYSTEM_PROMPT = (
    "You are an AI assistant that extracts entity relations from text. "
    "Given an episode, extract every factual relation as a JSON object "
    '{"edges": [{"subject": str, "subject_label": str, "predicate": str, '
    '"object": str, "object_label": str, "fact": str, "valid_at": str|null}]}. '
    "Use SCREAMING_SNAKE_CASE predicates; subject/object are entity name "
    "spans exactly as written; labels are entity types (Person, "
    "Organization, Place, Project, Document, Event, ...); fact quotes the "
    "supporting sentence; valid_at is the ISO-8601 time the fact became "
    "true, or null to inherit the episode's reference time. Respond with "
    "JSON only."
)


class OpenAICompatExtractor:
    """Extraction stage for any OpenAI-compatible ``/chat/completions``
    endpoint (OpenAI, vLLM, Ollama, LM Studio) — the real-LLM form of the
    ST1 extractor seam. Batch contract identical to
    ``extract.triples.TripleExtractor``: episodes batch (uuid, group_id,
    content, valid_at) in, ``TRIPLES_SCHEMA`` rows out — so it drops into
    ``extract_phase``'s per-shard tasks without engine changes. One
    request per EPISODE (the reference's per-episode prompt granularity;
    the concurrent shard tasks supply the reference's
    SEMAPHORE_LIMIT-style fan-out), retried with capped backoff.

    stdlib-urllib only. ``transport`` injects a ``messages ->
    assistant_content_str`` callable for tests/custom stacks; without it
    the real HTTP transport binds to ``endpoint``. Responses are parsed
    leniently (code fences stripped), schema-checked, and filtered through
    the type registry's edge legality map — exactly the constraint the
    deterministic extractor enforces at pattern-compile time
    (graphiti_core/graphiti.py:398, 492-497 edge_type_map)."""

    def __init__(
        self,
        endpoint: str = "http://127.0.0.1:8000/v1",
        model: str = "gpt-4o-mini",
        api_key: str | None = None,
        registry=None,
        transport=None,
        max_retries: int = 3,
        temperature: float = 0.0,
    ):
        if registry is None:
            from .state.types import default_registry

            registry = default_registry()
        self._registry = registry
        if transport is not None:
            self._transport = transport
        else:
            url = endpoint.rstrip("/") + "/chat/completions"

            def http_transport(messages: list[dict]) -> str:
                import json as _json
                import time as _time
                import urllib.request

                body = _json.dumps(
                    {
                        "model": model,
                        "messages": messages,
                        "temperature": temperature,
                        "response_format": {"type": "json_object"},
                    }
                ).encode()
                headers = {"Content-Type": "application/json"}
                if api_key:
                    headers["Authorization"] = f"Bearer {api_key}"
                last = None
                for attempt in range(max_retries):
                    try:
                        req = urllib.request.Request(url, data=body, headers=headers)
                        with urllib.request.urlopen(req) as r:
                            payload = _json.loads(r.read())
                        return payload["choices"][0]["message"]["content"]
                    except Exception as e:  # retry transient transport errors
                        last = e
                        _time.sleep(min(2.0, 0.1 * 2**attempt))
                raise RuntimeError(f"chat endpoint failed after {max_retries} tries") from last

            self._transport = http_transport

    @staticmethod
    def _parse_edges(content: str) -> list[dict]:
        import json as _json

        text = content.strip()
        if text.startswith("```"):
            text = text.split("\n", 1)[1] if "\n" in text else ""
            if text.rstrip().endswith("```"):
                text = text.rstrip()[: -3]
        obj = _json.loads(text)
        edges = obj.get("edges", []) if isinstance(obj, dict) else obj
        if not isinstance(edges, list):
            raise ValueError(f"model returned non-list edges: {type(edges).__name__}")
        return edges

    def __call__(self, batch: "pa.Table") -> "pa.Table":
        import pandas as pd

        from .extract.triples import TRIPLES_SCHEMA

        uuids = batch.column("uuid").to_pylist()
        groups = batch.column("group_id").to_pylist()
        contents = batch.column("content").to_pylist()
        valid = batch.column("valid_at").to_pylist()
        cols: dict[str, list] = {k: [] for k in TRIPLES_SCHEMA.names}
        for u, g, c, v in zip(uuids, groups, contents, valid):
            raw = self._transport(
                [
                    {"role": "system", "content": EXTRACTOR_SYSTEM_PROMPT},
                    {"role": "user", "content": f"Episode:\n{c}"},
                ]
            )
            kept = 0
            for e in self._parse_edges(raw):
                need = ("subject", "subject_label", "predicate", "object", "object_label")
                if not all(isinstance(e.get(f), str) and e.get(f) for f in need):
                    continue  # malformed edge — skip, never crash the shard
                if not self._registry.check_edge_legal(
                    e["subject_label"], e["object_label"], e["predicate"]
                ):
                    continue  # edge_type_map legality, same rule as the grammar
                va = v
                if e.get("valid_at"):
                    try:
                        va = pd.Timestamp(e["valid_at"]).tz_localize(None).to_pydatetime()
                    except (ValueError, TypeError):
                        va = v  # unparseable date → episode reference time
                cols["episode_uuid"].append(u)
                cols["group_id"].append(g)
                cols["valid_at"].append(va)
                cols["subj_surface"].append(e["subject"])
                cols["subj_label"].append(e["subject_label"])
                cols["pred"].append(e["predicate"])
                cols["obj_surface"].append(e["object"])
                cols["obj_label"].append(e["object_label"])
                cols["fact"].append(e.get("fact") or f"{e['subject']} {e['predicate']} {e['object']}")
                cols["sent_idx"].append(kept)
                kept += 1
        return pa.table(
            {k: pa.array(cols[k], TRIPLES_SCHEMA.field(k).type) for k in TRIPLES_SCHEMA.names},
            schema=TRIPLES_SCHEMA,
        )


class FastTextQualityScorer:
    """Actor-pool quality-model stage backed by a fasttext classifier
    (the DCLM/CCNet quality-filter shape) — the real-model form of
    ``functions.quality.HashedNgramQuality``'s seam. Appends
    ``quality_prob`` (float64, probability of the positive label) to each
    row; same (text_col,) signature so it drops into ``score_quality``'s
    ``map_batches`` slot unchanged.

    Accepts a pre-built ``model`` (anything with fasttext's
    ``.predict(texts, k)`` surface returning (labels, probs) lists) —
    how the contract tests drive it offline; otherwise lazily loads
    ``model_path`` via the fasttext library inside the actor's
    ``__init__`` (once per actor; raises a clear error when the
    library/weights are absent — this container ships neither)."""

    def __init__(
        self,
        model=None,
        model_path: str | None = None,
        positive_label: str = "__label__hq",
        text_col: str = "text",
    ):
        self.text_col = text_col
        self.positive_label = positive_label
        if model is not None:
            self.model = model
        else:
            try:
                import fasttext  # lazy: engine has no hard dependency
            except ImportError as e:
                raise ImportError(
                    "FastTextQualityScorer needs the 'fasttext' library and "
                    "trained weights (model_path=...); neither ships in this "
                    "container. Pass model= to inject any object with the "
                    ".predict(texts, k) surface."
                ) from e
            if not model_path:
                raise ValueError("model_path is required when no model is injected")
            self.model = fasttext.load_model(model_path)

    def __call__(self, batch: pa.Table) -> pa.Table:
        # fasttext rejects newlines inside a single prediction input
        texts = [t.replace("\n", " ") for t in batch.column(self.text_col).to_pylist()]
        labels, probs = self.model.predict(texts, k=2)
        out = np.empty(len(texts), np.float64)
        for i, (ls, ps) in enumerate(zip(labels, probs)):
            by = dict(zip(ls, ps))
            if self.positive_label in by:
                out[i] = float(by[self.positive_label])
            else:  # binary model that only returned the negative label
                out[i] = 1.0 - float(ps[0]) if len(ps) else 0.0
        return batch.append_column("quality_prob", pa.array(out, pa.float64()))


class KenLMPerplexityScorer:
    """Actor-pool LM-scoring stage backed by a KenLM n-gram model — the
    real-model form of ``functions.quality.unigram_surprisal`` (CCNet
    filters on document perplexity under a 5-gram KenLM; the engine's
    two-pass unigram op is the deterministic stand-in). Appends
    ``lm_perplexity`` (float64) to each row.

    Accepts a pre-built ``model`` (anything with kenlm's
    ``.perplexity(sentence) -> float`` surface) — how the contract tests
    drive it offline; otherwise lazily imports the kenlm library inside
    the actor's ``__init__`` (once per actor; raises a clear error when
    the library/weights are absent — this container ships neither)."""

    def __init__(self, model=None, model_path: str | None = None, text_col: str = "text"):
        self.text_col = text_col
        if model is not None:
            self.model = model
        else:
            try:
                import kenlm  # lazy: engine has no hard dependency
            except ImportError as e:
                raise ImportError(
                    "KenLMPerplexityScorer needs the 'kenlm' library and a "
                    "trained .arpa/.bin model (model_path=...); neither ships "
                    "in this container. Pass model= to inject any object with "
                    "the .perplexity(text) surface."
                ) from e
            if not model_path:
                raise ValueError("model_path is required when no model is injected")
            self.model = kenlm.Model(model_path)

    def __call__(self, batch: pa.Table) -> pa.Table:
        # kenlm scores one sentence string at a time; newlines act as
        # sentence breaks upstream in CCNet — collapse them here so one
        # row = one score, matching the per-document filter semantics
        out = np.array(
            [
                float(self.model.perplexity(t.replace("\n", " ")))
                for t in batch.column(self.text_col).to_pylist()
            ],
            np.float64,
        )
        return batch.append_column("lm_perplexity", pa.array(out, pa.float64()))
