"""Incremental graph maintenance — add / remove documents.

Reference semantics:
- add: StreamingLLMGraphBuilder.add_documents_async
  (agraph/builders/llm_builders.py:1406-1476) — process new docs, dedup
  against the current graph by (norm name, type), append.
- remove: IncrementalBuilderMixin.remove_documents (agraph/mixins.py:348-379,
  llm_builders.py:1495-1532) — delete the doc-registered entities and
  cascade-delete their relations (agraph/graph.py:109-138).

Ray-Data-native shape: deterministic content-hash ids make ADD an
idempotent union-then-dedup — re-extracting the same conversation produces
identical rows, so "merge into the existing graph" is exactly the
pipeline's own dedup stage over (old ∪ new). REMOVE is an anti-join
against the tombstoned conv_ids, expressed as per-batch filters on the
lineage column (mentions carry conv_id) followed by re-dedup — no shuffle
beyond the dedup the pipeline already runs. Both rewrite the output tables
atomically (write to tmp, swap), and commit a manifest recording the delta.
"""

from __future__ import annotations

import os
import shutil
import time
from typing import Dict, Optional, Sequence

import pyarrow.compute as pc
import pyarrow.dataset as pads

from ..config import KGConfig
from ..stages.extract import extract_mentions
from ..stages.materialize import atomic_write_parquet, commit_manifest
from ..stages.reassemble import reassemble
from .kg_build import KGBuildResult, _mentions_to_outputs


def _finish_mentions_swap(out_dir: str) -> None:
    """Finish a ``remove_documents`` stopped between its two renames. A
    ``mentions.tomb/`` is complete once it exists (atomic_write_parquet
    renames it into place after the write), so with ``mentions/`` gone it
    takes its place; a leftover ``mentions.old/`` is dropped."""
    mentions_dir = os.path.join(out_dir, "mentions")
    if (not os.path.isdir(mentions_dir)
            and os.path.isdir(mentions_dir + ".tomb")):
        os.rename(mentions_dir + ".tomb", mentions_dir)
    shutil.rmtree(mentions_dir + ".old", ignore_errors=True)


def add_documents(out_dir: str, new_transcripts,
                  cfg: Optional[KGConfig] = None,
                  do_canonicalize: bool = True) -> KGBuildResult:
    """Extend an existing build at ``out_dir`` with new transcript rows
    (Dataset or parquet path). Idempotent: re-adding already-processed
    conversations changes nothing (content-hash ids + max/sum merges
    over identical rows)."""
    import ray.data as rd
    from ..sources import sized_read_parquet
    cfg = cfg or KGConfig()
    t0 = time.time()
    _finish_mentions_swap(out_dir)
    if isinstance(new_transcripts, (str, list)):
        new_transcripts = sized_read_parquet(
            new_transcripts, columns=["conv_id", "turn_idx", "text"])

    docs = reassemble(new_transcripts, cfg)
    mentions = extract_mentions(docs, cfg)
    part_dir = os.path.join(out_dir, "mentions",
                            f"delta={int(time.time() * 1000)}")
    n_new = atomic_write_parquet(mentions, part_dir, cfg.min_rows_per_file)

    metrics: Dict[str, float] = {"n_new_mentions": n_new}
    tables = _mentions_to_outputs(out_dir, cfg, do_canonicalize, metrics)
    metrics["wall_sec"] = time.time() - t0
    commit_manifest(out_dir, "add", f"delta-{int(t0)}", metrics)
    return KGBuildResult(out_dir, tables, metrics)


def remove_documents(out_dir: str, conv_ids: Sequence[str],
                     cfg: Optional[KGConfig] = None,
                     do_canonicalize: bool = True) -> KGBuildResult:
    """Remove every mention extracted from the given conversations and
    rebuild the derived tables. Entities whose every witness came from the
    removed conversations disappear; edges cascade with them
    (graph.py:109-138 cascade semantics, expressed as re-derivation from
    the surviving mention set rather than in-place deletes)."""
    import ray.data as rd
    cfg = cfg or KGConfig()
    t0 = time.time()
    _finish_mentions_swap(out_dir)
    tomb = set(conv_ids)

    import pyarrow as pa
    import ray
    tomb_ref = ray.put(tomb)

    def drop_tombstoned(t: "pa.Table") -> "pa.Table":
        dead = ray.get(tomb_ref)
        mask = pc.invert(pc.is_in(t["conv_id"],
                                  value_set=pa.array(sorted(dead))))
        return t.filter(mask)

    mentions_dir = os.path.join(out_dir, "mentions")
    from ..sources import sized_read_parquet
    surviving = sized_read_parquet(mentions_dir).map_batches(
        drop_tombstoned, batch_format="pyarrow")
    # rewrite the mentions checkpoint (atomic swap), then re-derive
    tmp = mentions_dir + ".tomb"
    n_left = atomic_write_parquet(surviving, tmp, cfg.min_rows_per_file,
                                  pads.dataset(mentions_dir).schema)
    old = mentions_dir + ".old"
    os.rename(mentions_dir, old)
    os.rename(tmp, mentions_dir)
    shutil.rmtree(old, ignore_errors=True)

    metrics: Dict[str, float] = {"n_surviving_mentions": n_left,
                                 "n_removed_convs": len(tomb)}
    tables = _mentions_to_outputs(out_dir, cfg, do_canonicalize, metrics)
    metrics["wall_sec"] = time.time() - t0
    commit_manifest(out_dir, "remove", f"tomb-{int(t0)}", metrics)
    return KGBuildResult(out_dir, tables, metrics)
