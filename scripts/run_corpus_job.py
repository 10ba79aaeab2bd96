"""Corpus → training-set job driver — the ``ray job submit`` entry point
for ``pipelines/corpus.prepare_training_set`` (the companion to
``run_kg_job.py``'s graph build).

On a real cluster::

    ray job submit --working-dir /root/repo -- \
        python scripts/run_corpus_job.py --docs s3://bucket/docs/*.parquet \
        --out s3://bucket/trainset --benchmark s3://bucket/evals.parquet \
        --fuzzy-jaccard 0.8 --quality-gate --mixture '{"en": 2.0, "de": 0.5}'

In this sandbox (local mode)::

    python scripts/run_corpus_job.py --docs /root/testdata/sf0.01/documents.parquet \
        --out /tmp/trainset --num-cpus 8

The sink is manifest-resumable: re-submitting with identical inputs and
knobs skips finished pack shards. Prints one JSON line of metrics
(``n_packs`` always; per-stage counts with ``--counts``).

Incremental appends (new crawl segments landing beside an existing set)::

    python scripts/run_corpus_job.py --docs s3://bucket/crawl-42/*.parquet \
        --out s3://bucket/trainset --benchmark s3://bucket/evals.parquet \
        --append-batch crawl-42

``--append-batch NAME`` routes to ``corpus.append_training_set`` — the
base set must have been prepared with ``--track-doc-keys`` and without
``--shuffle-seed``; NAME keys idempotence (re-submitting the same batch
is a manifest no-op). Prepare-only knobs (fuzzy dedup, quality gates,
mixtures, BPE, ``--track-minhash-jaccard``) are rejected in append mode —
appends inherit the near-dup screen from the state the base was prepared
with; re-prepare to change the rest.
"""

from __future__ import annotations

import argparse
import json
import sys
import time


def main() -> int:
    ap = argparse.ArgumentParser(description="Prepare an LLM training set from a document corpus")
    ap.add_argument("--docs", nargs="+", required=True, help="input documents parquet path(s)")
    ap.add_argument("--out", required=True, help="output training-set directory")
    ap.add_argument("--id-col", default="doc_id")
    ap.add_argument("--text-col", default="text")
    ap.add_argument("--benchmark", default=None,
                    help="parquet of held-out eval texts to decontaminate against")
    ap.add_argument("--benchmark-col", default="text")
    ap.add_argument("--contam-n", type=int, default=8, help="decontamination n-gram size")
    ap.add_argument("--fuzzy-jaccard", type=float, default=None,
                    help="enable corpus-wide MinHash fuzzy dedup at this Jaccard threshold")
    ap.add_argument("--span-dedup-k", type=int, default=None,
                    help="enable cross-doc duplicated-span removal at this window size")
    ap.add_argument("--quality-gate", action="store_true", help="enable the Gopher quality gate")
    ap.add_argument("--surprisal-max-bits", type=float, default=None,
                    help="enable the unigram-LM surprisal gate (mean bits/token)")
    ap.add_argument("--model-quality-min", type=float, default=None,
                    help="enable the hashed-ngram model quality gate at this mean weight")
    ap.add_argument("--model-quality-weights", default=None,
                    help=".npy file of trained quality weights (stub weights when omitted)")
    ap.add_argument("--fingerprint", default=None,
                    help="resume fingerprint prefix (encode your knob set; default corpus-v1)")
    ap.add_argument("--track-doc-keys", action="store_true",
                    help="persist the input's distinct text fingerprints as <out>/doc_keys "
                         "(the precondition for --append-batch runs later)")
    ap.add_argument("--track-minhash-jaccard", type=float, default=None, metavar="THR",
                    help="widen the doc_keys state with MinHash signatures so appends "
                         "also NEAR-dup-screen new batches at Jaccard >= THR "
                         "(requires --track-doc-keys; appends inherit it from the state)")
    ap.add_argument("--append-batch", default=None, metavar="NAME",
                    help="append this batch to an existing set instead of preparing one; "
                         "NAME (e.g. the crawl-segment id) keys idempotence")
    ap.add_argument("--mixture", default=None,
                    help='JSON per-stratum mixture weights, e.g. \'{"en": 2.0, "de": 0.5}\'')
    ap.add_argument("--mixture-col", default="lang")
    ap.add_argument("--dsir-target", default=None, metavar="PARQUET",
                    help="DSIR importance resampling: parquet of trusted target texts "
                         "(requires --dsir-k)")
    ap.add_argument("--dsir-target-col", default=None, help="text column of --dsir-target (default text)")
    ap.add_argument("--dsir-k", type=int, default=None,
                    help="keep the k docs with the largest Gumbel-perturbed DSIR "
                         "importance weights (requires --dsir-target)")
    ap.add_argument("--dsir-seed", type=int, default=None, help="Gumbel-top-k seed (default 0)")
    ap.add_argument("--bpe-vocab-size", type=int, default=None,
                    help="train a byte-level BPE tokenizer on the survivors and "
                         "ship it as <out>/bpe.json (load with corpus.load_tokenizer)")
    ap.add_argument("--lang-allow", default="en",
                    help="comma-separated LangId allowlist; empty string disables the gate")
    ap.add_argument("--min-tokens", type=int, default=8)
    ap.add_argument("--max-tokens", type=int, default=512)
    ap.add_argument("--overlap", type=int, default=64)
    ap.add_argument("--pack-budget", type=int, default=1024)
    ap.add_argument("--shuffle-seed", type=int, default=None,
                    help="bake a deterministic global shuffle into the file layout")
    ap.add_argument("--shuffle-buckets", type=int, default=None,
                    help="sort width of every exchange (default 2x CPUs, min 64)")
    ap.add_argument("--counts", action="store_true",
                    help="materialize each stage boundary and report per-stage row counts")
    ap.add_argument("--num-cpus", type=int, default=None, help="local-mode CPU count (cluster mode: omit)")
    args = ap.parse_args()
    if args.append_batch is not None:
        unsupported = {
            "--fuzzy-jaccard": args.fuzzy_jaccard, "--span-dedup-k": args.span_dedup_k,
            "--quality-gate": args.quality_gate or None,
            "--surprisal-max-bits": args.surprisal_max_bits,
            "--model-quality-min": args.model_quality_min,
            "--model-quality-weights": args.model_quality_weights, "--mixture": args.mixture,
            "--bpe-vocab-size": args.bpe_vocab_size, "--shuffle-seed": args.shuffle_seed,
            "--counts": args.counts or None,
            "--track-doc-keys": args.track_doc_keys or None,
            "--track-minhash-jaccard": args.track_minhash_jaccard,
            "--dsir-target": args.dsir_target, "--dsir-k": args.dsir_k,
            "--dsir-seed": args.dsir_seed, "--dsir-target-col": args.dsir_target_col,
            "--fingerprint": args.fingerprint,
        }
        bad = [k for k, v in unsupported.items() if v is not None]
        if bad:
            ap.error(f"{', '.join(bad)}: prepare-only knob(s) — appends are "
                     "dedup+decontam+gate+pack only; re-prepare to refresh the rest")
    # prepare-only defaults resolve after the refusal, so an explicit
    # default value is refused in append mode too
    for name, default in (("dsir_seed", 0), ("dsir_target_col", "text"), ("fingerprint", "corpus-v1")):
        if getattr(args, name) is None:
            setattr(args, name, default)

    import ray

    from _bootstrap import init_ray

    init_ray(args.num_cpus)
    import ray.data as rd

    from graphiti_hf_ray.pipelines.corpus import prepare_training_set

    cols = [args.id_col, args.text_col]
    if args.mixture is not None and args.mixture_col not in cols:
        cols.append(args.mixture_col)
    docs = rd.read_parquet(args.docs, columns=cols)

    benchmark_texts: list[str] = []
    if args.benchmark:
        import pyarrow.parquet as pq

        benchmark_texts = [
            x for x in pq.read_table(args.benchmark, columns=[args.benchmark_col])
            .column(args.benchmark_col).to_pylist() if x
        ]

    if args.append_batch is not None:
        from graphiti_hf_ray.pipelines.corpus import append_training_set

        cpus = int(ray.cluster_resources().get("CPU", 16))
        t0 = time.time()
        metrics = append_training_set(
            docs,
            benchmark_texts,
            args.out,
            fingerprint=args.append_batch,
            id_col=args.id_col,
            text_col=args.text_col,
            contam_n=args.contam_n,
            lang_allow=tuple(x.strip() for x in args.lang_allow.split(",") if x.strip()),
            min_tokens=args.min_tokens,
            max_tokens=args.max_tokens,
            overlap=args.overlap,
            pack_budget=args.pack_budget,
            shuffle_buckets=args.shuffle_buckets or max(64, 2 * cpus),
        )
        metrics["wall_sec"] = round(time.time() - t0, 2)
        print(json.dumps(metrics))
        ray.shutdown()
        return 0

    quality_weights = None
    if args.model_quality_weights:
        if args.model_quality_min is None:
            ap.error("--model-quality-weights requires --model-quality-min "
                     "(the gate only runs when a threshold is set)")
        import numpy as np

        quality_weights = np.load(args.model_quality_weights)
    dsir_texts = None
    if (args.dsir_target is None) != (args.dsir_k is None):
        ap.error("--dsir-target and --dsir-k must be passed together")
    if args.dsir_target is not None:
        import pyarrow.parquet as pq

        dsir_texts = [
            x for x in pq.read_table(args.dsir_target, columns=[args.dsir_target_col])
            .column(args.dsir_target_col).to_pylist() if x
        ]
    cpus = int(ray.cluster_resources().get("CPU", 16))
    t0 = time.time()
    metrics = prepare_training_set(
        docs,
        benchmark_texts,
        args.out,
        id_col=args.id_col,
        text_col=args.text_col,
        contam_n=args.contam_n,
        fuzzy_jaccard=args.fuzzy_jaccard,
        span_dedup_k=args.span_dedup_k,
        quality_gate=args.quality_gate,
        model_quality_min=args.model_quality_min,
        model_quality_weights=quality_weights,
        surprisal_max_bits=args.surprisal_max_bits,
        mixture_weights=json.loads(args.mixture) if args.mixture else None,
        mixture_col=args.mixture_col,
        bpe_vocab_size=args.bpe_vocab_size,
        track_doc_keys=args.track_doc_keys,
        track_minhash_jaccard=args.track_minhash_jaccard,
        dsir_target_texts=dsir_texts,
        dsir_k=args.dsir_k,
        dsir_seed=args.dsir_seed,
        lang_allow=tuple(x.strip() for x in args.lang_allow.split(",") if x.strip()),
        fingerprint=args.fingerprint,
        min_tokens=args.min_tokens,
        max_tokens=args.max_tokens,
        overlap=args.overlap,
        pack_budget=args.pack_budget,
        shuffle_seed=args.shuffle_seed,
        collect_counts=args.counts,
        shuffle_buckets=args.shuffle_buckets or max(64, 2 * cpus),
    )
    metrics["wall_sec"] = round(time.time() - t0, 2)
    print(json.dumps(metrics))
    ray.shutdown()
    return 0


if __name__ == "__main__":
    sys.exit(main())
