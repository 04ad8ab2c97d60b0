"""Pipeline configuration.

One frozen dataclass passed through every stage. Defaults mirror the
reference's configuration surface (agraph/config.py:122-127 chunk size 512 /
overlap 100; agraph/extractors/entity_extractor.py:27 confidence threshold
0.5) plus the scale knobs the reference does not have (salting, LSH blocking,
per-block pair caps, partition sizing).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class KGConfig:
    # --- chunking (reference: agraph/config.py:122-127, agraph/chunker.py:21) ---
    chunk_size: int = 512          # max approx tokens per chunk
    chunk_overlap: int = 100       # approx tokens of overlap between chunks

    # --- extraction ---
    confidence_threshold: float = 0.5   # entity + relation floor (entity_extractor.py:27)
    max_keywords: int = 10              # keyword concepts cap (entity_extractor.py:351)

    # --- reassembly / skew ---
    # Conversations with more turns than `hot_conv_turns` are salted into
    # sub-documents of `salt_span` turns each so one giant conversation cannot
    # pin a single shuffle task (SURVEY.md §7.5 item 4).
    hot_conv_turns: int = 8192
    salt_span: int = 4096
    turn_separator: str = "\n"     # document text = separator.join(turn texts)
    # documents with more turns than this bypass the batched actor pool and
    # run one-per-task (straggler guard; see stages/extract.py)
    hot_doc_turns: int = 64

    # --- entity linking (minhash-LSH blocking; replaces the reference's
    #     O(n^2) prefilter, agraph/builders/llm_builders.py:413-435) ---
    shingle_k: int = 3             # char n-gram size for name shingles
    num_perm: int = 32             # minhash permutations
    lsh_bands: int = 8             # bands (rows per band = num_perm // lsh_bands)
    # name-similarity accept threshold for a match edge; containment scores
    # 0.8 (llm_builders.py:450-469) and must pass, matching the reference's
    # >0.7 candidate cut
    link_threshold: float = 0.75
    # weighted entity-similarity accept threshold (0.4 name-word-jaccard +
    # 0.2 type + 0.2 alias-jaccard + 0.2 property,
    # agraph/services/entity_merger.py:193-293); only consulted for pairs
    # with alias/property evidence — see canonicalize.weighted_similarity
    weighted_threshold: float = 0.8
    max_block_pairs: int = 2000    # cap on candidate pairs generated per LSH block
    max_label_prop_iters: int = 25 # bound on connected-components iterations

    # --- execution sizing ---
    # documents per extraction batch — small enough that salted
    # sub-documents of a skewed conversation spread across the actor pool
    # instead of piling into one task (straggler observed at 64), large
    # enough to amortize per-task dispatch (A/B: 16 beats 4 by ~10%)
    extract_batch_size: int = 16
    chunk_batch_size: int = 256

    # --- materialization ---
    min_rows_per_file: int = 200_000

    @classmethod
    def from_env(cls, prefix: str = "AGRAPH_", **overrides) -> "KGConfig":
        """Build a config from environment variables (the reference's
        Settings-from-.env surface, agraph/config.py:10-145):
        ``AGRAPH_CHUNK_SIZE=256`` → ``chunk_size=256``. Explicit keyword
        overrides win over the environment."""
        import os
        kwargs = {}
        for f_ in cls.__dataclass_fields__.values():
            raw = os.environ.get(prefix + f_.name.upper())
            if raw is None:
                continue
            if f_.type == "int":
                kwargs[f_.name] = int(raw)
            elif f_.type == "float":
                kwargs[f_.name] = float(raw)
            else:
                kwargs[f_.name] = raw
        kwargs.update(overrides)
        return cls(**kwargs)
