"""Stage H — materialization, lineage manifests, checkpoint/resume.

Output layout (FIXTURES.md §4):

    out_dir/
      mentions/part=<pid>/*.parquet     extraction checkpoint, per partition
      nodes/*.parquet                   canonical entity table
      edges/*.parquet                   canonical relation table
      chunks/*.parquet                  chunk table
      triples/*.parquet                 deduped (subj, pred, obj) table
      manifests/<stage>-<pid>.json      per-partition lineage + metrics

Commit protocol (BASELINE.json north_rule "resumable from checkpoint with
per-partition lineage + metrics"): a partition's data is written to a temp
directory and atomically renamed into place, then its manifest is written
(write-to-temp + rename as well). A partition is *committed* iff its
manifest exists and parses; resume skips committed partitions and reads
their metrics back from the manifest (``pipelines/kg_build.py::run_phase``),
so a resumed run reports the same counts as the run that committed them.
Deterministic content-hash ids make re-execution of a half-written
partition idempotent.

The reference has no checkpointing at all (SURVEY.md §4.1) — its terminal
artifact is a single graph.json (agraph/builders/llm_builders.py:1280).
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import time
import types
import uuid
from typing import Any, Dict, Optional

# Ray's write path probes `from fsspec.implementations.http import
# HTTPFileSystem` on every path resolution, catching ModuleNotFoundError
# (aiohttp is absent here so the probe always fails). Under concurrent
# writes (thread pool) two threads can race the failing import and one
# observes a partially-initialized module — a plain ImportError that Ray
# does NOT catch. Settle the question once: cache a sentinel module whose
# HTTPFileSystem is a never-instantiated class, so the probe succeeds and
# its isinstance() checks are trivially False.
try:
    from fsspec.implementations.http import HTTPFileSystem  # noqa: F401
except Exception:  # noqa: BLE001 — any import failure gets the stub
    try:
        import fsspec  # noqa: F401

        _stub = types.ModuleType("fsspec.implementations.http")
        _stub.HTTPFileSystem = type("HTTPFileSystem", (), {})
        sys.modules["fsspec.implementations.http"] = _stub
    except ImportError:
        pass


_MANIFEST_KEYS = ("stage", "partition_id", "committed_at")


def manifest_path(out_dir: str, stage: str, partition_id: Any) -> str:
    return os.path.join(out_dir, "manifests", f"{stage}-{partition_id}.json")


def read_manifest(out_dir: str, stage: str,
                  partition_id: Any) -> Optional[Dict[str, Any]]:
    """The metrics a committed partition recorded (without the
    ``stage``/``partition_id``/``committed_at`` keys), or None when its
    manifest is absent or torn, i.e. the partition is not committed."""
    try:
        with open(manifest_path(out_dir, stage, partition_id)) as f:
            doc = json.load(f)
    except (json.JSONDecodeError, OSError):
        return None
    if not doc.get("committed_at"):
        return None
    return {k: v for k, v in doc.items() if k not in _MANIFEST_KEYS}


def is_committed(out_dir: str, stage: str, partition_id: Any) -> bool:
    return read_manifest(out_dir, stage, partition_id) is not None


def commit_manifest(out_dir: str, stage: str, partition_id: Any,
                    metrics: Dict[str, Any]) -> str:
    """Atomically write the lineage manifest that marks a partition done."""
    os.makedirs(os.path.join(out_dir, "manifests"), exist_ok=True)
    path = manifest_path(out_dir, stage, partition_id)
    doc = {"stage": stage, "partition_id": partition_id,
           "committed_at": time.time(), **metrics}
    tmp = f"{path}.tmp-{uuid.uuid4().hex[:8]}"
    with open(tmp, "w") as f:
        json.dump(doc, f, indent=1, default=str)
    os.replace(tmp, path)   # atomic on POSIX
    return path


def atomic_write_parquet(ds, final_dir: str,
                         min_rows_per_file: int = 200_000) -> int:
    """Stream ``ds`` (a Dataset, or a pyarrow Table for driver-sized
    results) to a temp sibling dir, then rename into place.

    Returns the number of rows written. A crash mid-write leaves only the
    temp dir (ignored by readers and cleaned on retry), never a torn final
    directory. The pyarrow-Table path skips the whole-cluster execution a
    Dataset write costs — meaningful when a pipeline ends in several
    dictionary-sized artifacts.
    """
    import glob as _glob

    import pyarrow as pa
    parent = os.path.dirname(final_dir.rstrip("/"))
    os.makedirs(parent, exist_ok=True)
    # Clean stale temp siblings from a prior crashed attempt: a reader of
    # the PARENT directory (the resumable path reads out/mentions/ whole)
    # must never see half-written files, and each retry uses a fresh uuid
    # so the old ones would otherwise linger forever.
    for stale in _glob.glob(f"{final_dir.rstrip('/')}.tmp-*"):
        shutil.rmtree(stale, ignore_errors=True)
    tmp = f"{final_dir.rstrip('/')}.tmp-{uuid.uuid4().hex[:8]}"
    if isinstance(ds, pa.Table):
        import pyarrow.parquet as pq
        os.makedirs(tmp)
        pq.write_table(ds, os.path.join(tmp, "part-0.parquet"))
    else:
        try:
            ds.write_parquet(tmp, min_rows_per_file=min_rows_per_file)
        except TypeError:  # older Ray releases use num_rows_per_file
            ds.write_parquet(tmp, num_rows_per_file=min_rows_per_file)
        # a zero-block dataset writes nothing at all — an empty directory
        # is still a valid (0-row) artifact and keeps the rename atomic.
        # A materialized dataset knows its schema without executing
        # anything: keep it in a 0-row file so readers still see columns.
        os.makedirs(tmp, exist_ok=True)
        schema = None if os.listdir(tmp) \
            else ds.schema(fetch_if_missing=False)
        if schema is not None and isinstance(schema.base_schema, pa.Schema):
            import pyarrow.parquet as pq
            pq.write_table(schema.base_schema.empty_table(),
                           os.path.join(tmp, "part-0.parquet"))
    if os.path.exists(final_dir):
        shutil.rmtree(final_dir)
    os.replace(tmp, final_dir)
    import pyarrow.dataset as pads
    return pads.dataset(final_dir, format="parquet").count_rows()

