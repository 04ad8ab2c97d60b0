"""Checkpoint / resume semantics of the partitioned runner."""

import glob
import json
import os

import duckdb
import pytest

from agraph_ray.config import KGConfig


@pytest.fixture(scope="module")
def resumable_setup(ray_session, tmp_path_factory):
    from agraph_ray.synth import generate_transcripts
    d = str(tmp_path_factory.mktemp("resume_corpus"))
    paths = generate_transcripts(d, n_convs=16, seed=11, num_shards=4,
                                 skew=False)
    return paths


def test_resume_skips_committed_partitions(resumable_setup, tmp_path):
    from agraph_ray.pipelines.kg_build import build_kg_resumable
    paths = resumable_setup
    out = str(tmp_path / "out")
    cfg = KGConfig()
    r1 = build_kg_resumable(paths, out, cfg, shards_per_partition=2,
                            do_canonicalize=False)
    assert r1.metrics["n_partitions"] == 2 and r1.metrics["skipped"] == 0
    manifests = sorted(glob.glob(os.path.join(out, "manifests", "mentions-*.json")))
    assert len(manifests) == 2
    m = json.load(open(manifests[0]))
    assert m["committed_at"] and m["output_rows"] > 0 and m["input_rows"] > 0
    assert m["entities"] + m["triples"] == m["output_rows"]

    # full re-run: everything skipped, outputs identical
    r2 = build_kg_resumable(paths, out, cfg, shards_per_partition=2,
                            do_canonicalize=False)
    assert r2.metrics["skipped"] == 2
    assert r2.metrics["n_triples"] == r1.metrics["n_triples"]
    assert r2.metrics["n_nodes"] == r1.metrics["n_nodes"]

    # kill/restart simulation: drop one manifest → exactly one partition redone
    os.remove(manifests[1])
    r3 = build_kg_resumable(paths, out, cfg, shards_per_partition=2,
                            do_canonicalize=False)
    assert r3.metrics["skipped"] == 1
    assert r3.metrics["n_triples"] == r1.metrics["n_triples"]

    # deterministic ids ⇒ re-executed partition yields identical triple set
    con = duckdb.connect()
    ids = con.execute(
        f"SELECT count(DISTINCT relation_id), count(*) "
        f"FROM parquet_scan('{out}/triples/*.parquet')").fetchone()
    assert ids[0] == ids[1] == r1.metrics["n_triples"]


def test_torn_manifest_not_committed(tmp_path):
    from agraph_ray.stages.materialize import commit_manifest, is_committed
    out = str(tmp_path)
    assert not is_committed(out, "s", 0)
    commit_manifest(out, "s", 0, {"rows": 1})
    assert is_committed(out, "s", 0)
    # torn write → treated as not committed
    p = os.path.join(out, "manifests", "s-1.json")
    os.makedirs(os.path.dirname(p), exist_ok=True)
    with open(p, "w") as f:
        f.write('{"stage": "s", "partition')
    assert not is_committed(out, "s", 1)


def test_concurrent_groups_match_serial(resumable_setup, tmp_path):
    """group_concurrency=2 (overlapped streaming executions) produces the
    same tables as the serial path — commit protocol and deterministic
    ids make the overlap invisible."""
    import duckdb

    from agraph_ray.pipelines.kg_build import build_kg_resumable
    paths = resumable_setup
    cfg = KGConfig()
    out_s = str(tmp_path / "serial")
    out_c = str(tmp_path / "conc")
    rs = build_kg_resumable(paths, out_s, cfg, shards_per_partition=1,
                            do_canonicalize=False, group_concurrency=1)
    rc = build_kg_resumable(paths, out_c, cfg, shards_per_partition=1,
                            do_canonicalize=False, group_concurrency=2)
    assert rs.metrics["n_partitions"] == rc.metrics["n_partitions"] == 4
    assert rc.metrics["n_triples"] == rs.metrics["n_triples"]
    assert rc.metrics["n_nodes"] == rs.metrics["n_nodes"]
    con = duckdb.connect()

    def table_hash(out, t):
        return con.execute(
            f"SELECT count(*), sum(hash(relation_id)) "
            f"FROM parquet_scan('{out}/{t}/*.parquet')").fetchone()

    assert table_hash(out_s, "triples") == table_hash(out_c, "triples")
    # resume over the concurrent run's manifests: all skipped
    r2 = build_kg_resumable(paths, out_c, cfg, shards_per_partition=1,
                            do_canonicalize=False, group_concurrency=2)
    assert r2.metrics["skipped"] == 4


def test_resumable_without_mentions(ray_session, tmp_path):
    """A corpus the extractor finds nothing in builds an empty graph: each
    0-row mentions partition keeps the mentions schema, so dedup finds
    its columns (it raised ``KeyError: 'Column aliases does not exist in
    schema'`` on the schemaless empty partition)."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from agraph_ray.pipelines.kg_build import build_kg_resumable
    from agraph_ray.stages.extract import MENTIONS_SCHEMA
    inp = tmp_path / "in"
    inp.mkdir()
    pq.write_table(pa.table({"conv_id": ["c1", "c1"], "turn_idx": [0, 1],
                             "text": ["...", "1 2 3"]}),
                   str(inp / "s.parquet"))
    out = str(tmp_path / "out")
    res = build_kg_resumable([str(inp / "s.parquet")], out, KGConfig())
    assert (res.metrics["n_nodes"], res.metrics["n_edges"],
            res.metrics["n_triples"]) == (0, 0, 0)
    part = pq.read_table(os.path.join(out, "mentions", "part=0"))
    assert part.num_rows == 0 and part.schema.names == MENTIONS_SCHEMA.names
