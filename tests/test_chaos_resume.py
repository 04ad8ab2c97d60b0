"""Chaos test: kill the resumable build at randomized points INSIDE the
write/commit protocol and prove (a) a half-published partition is never
visible to the global stages, (b) resume never double-counts, (c) the final
tables are value-identical to an unkilled run.

Kill points exercised (one subprocess each, fresh Ray session):

- ``mid_write``   — crash while the partition's parquet tmp dir is half
                    written (torn file on disk);
- ``pre_rename``  — tmp dir fully written, crash before ``os.replace``;
- ``pre_commit``  — final dir renamed into place, crash before the
                    manifest commit (partition must be re-run, and the
                    deterministic ids make the re-run byte-identical).
"""

import glob
import json
import os
import subprocess
import sys
import textwrap

import duckdb
import pytest

from agraph_ray.config import KGConfig

KILL_EXIT = 42

DRIVER = textwrap.dedent("""
    import os, sys
    sys.path.insert(0, {repo!r})
    import ray
    ray.init(address="local", num_cpus=4, include_dashboard=False,
             logging_level="ERROR")
    from ray.data import DataContext
    DataContext.get_current().enable_progress_bars = False
    import agraph_ray.pipelines.kg_build as kgb
    from agraph_ray.config import KGConfig
    from agraph_ray.stages import materialize as mat

    kill_point = {kill_point!r}
    kill_pid = {kill_pid}
    real_write = mat.atomic_write_parquet
    real_commit = mat.commit_manifest

    def chaos_write(ds, final_dir, min_rows_per_file=200_000, schema=None):
        part = os.path.basename(final_dir.rstrip("/"))
        if part == f"part={{kill_pid}}":
            if kill_point == "mid_write":
                tmp = final_dir.rstrip("/") + ".tmp-chaos"
                os.makedirs(tmp, exist_ok=True)
                with open(os.path.join(tmp, "part-0.parquet"), "wb") as f:
                    f.write(b"PAR1 this is a torn parquet file")
                os._exit({kill_exit})
            if kill_point == "pre_rename":
                import uuid
                tmp = final_dir.rstrip("/") + ".tmp-" + uuid.uuid4().hex[:8]
                try:
                    ds.write_parquet(tmp, min_rows_per_file=min_rows_per_file)
                except TypeError:
                    ds.write_parquet(tmp, num_rows_per_file=min_rows_per_file)
                os._exit({kill_exit})
        return real_write(ds, final_dir, min_rows_per_file, schema)

    def chaos_commit(out_dir, stage, partition_id, metrics):
        if kill_point == "pre_commit" and stage == "mentions" \\
                and partition_id == kill_pid:
            os._exit({kill_exit})
        return real_commit(out_dir, stage, partition_id, metrics)

    kgb.atomic_write_parquet = chaos_write
    kgb.commit_manifest = chaos_commit
    kgb.build_kg_resumable({paths!r}, {out!r}, KGConfig(),
                           shards_per_partition=1, do_canonicalize=False,
                           group_concurrency=1)
    os._exit(7)   # must not reach: the kill point always fires
""")


@pytest.fixture(scope="module")
def chaos_corpus(ray_session, tmp_path_factory):
    from agraph_ray.synth import generate_transcripts
    d = str(tmp_path_factory.mktemp("chaos_corpus"))
    paths = generate_transcripts(d, n_convs=8, seed=23, num_shards=4,
                                 skew=False)
    return paths


@pytest.fixture(scope="module")
def reference_build(chaos_corpus, tmp_path_factory):
    from agraph_ray.pipelines.kg_build import build_kg_resumable
    out = str(tmp_path_factory.mktemp("chaos_ref") / "out")
    r = build_kg_resumable(chaos_corpus, out, KGConfig(),
                           shards_per_partition=1, do_canonicalize=False)
    return out, r


def table_fingerprint(out: str, table: str):
    con = duckdb.connect()
    pat = "part=*/*.parquet" if table == "mentions" else "*.parquet"
    return con.execute(
        f"SELECT count(*), sum(hash(to_json(t))) FROM "
        f"parquet_scan('{out}/{table}/{pat}') t").fetchone()


@pytest.mark.parametrize("kill_point", ["mid_write", "pre_rename",
                                        "pre_commit"])
def test_kill_and_resume_matches_unkilled(kill_point, chaos_corpus,
                                          reference_build, tmp_path):
    from agraph_ray.pipelines.kg_build import build_kg_resumable
    from agraph_ray.stages.materialize import is_committed
    ref_out, ref = reference_build
    out = str(tmp_path / "out")
    kill_pid = 2   # partitions 0,1 commit; 2 dies; 3 never starts

    script = DRIVER.format(repo="/root/repo", kill_point=kill_point,
                           kill_pid=kill_pid, kill_exit=KILL_EXIT,
                           paths=list(chaos_corpus), out=out)
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == KILL_EXIT, proc.stderr[-2000:]

    # (a) the killed partition is not committed, whatever is on disk
    assert is_committed(out, "mentions", 0)
    assert is_committed(out, "mentions", 1)
    assert not is_committed(out, "mentions", kill_pid)
    if kill_point == "mid_write":
        # torn tmp dir exists on disk — the crash artifact we must survive
        assert glob.glob(os.path.join(out, "mentions",
                                      f"part={kill_pid}.tmp-*"))
    if kill_point == "pre_rename":
        assert not os.path.exists(
            os.path.join(out, "mentions", f"part={kill_pid}"))

    # (b) resume: exactly the committed partitions are skipped
    r2 = build_kg_resumable(chaos_corpus, out, KGConfig(),
                            shards_per_partition=1, do_canonicalize=False)
    assert r2.metrics["skipped"] == 2
    assert r2.metrics["n_partitions"] == 4

    # stale tmp dirs were cleaned by the retry — nothing half-published
    assert not glob.glob(os.path.join(out, "mentions", "*.tmp-*"))

    # (c) value-identical tables vs the unkilled run (incl. no double
    # count: identical row counts AND whole-row hash sums)
    for table in ("triples", "nodes", "edges", "mentions"):
        assert table_fingerprint(out, table) == \
            table_fingerprint(ref_out, table), table

    # manifests: every partition committed exactly once, rows add up
    total = 0
    for pid in range(4):
        m = json.load(open(os.path.join(out, "manifests",
                                        f"mentions-{pid}.json")))
        assert m["committed_at"]
        total += m["output_rows"]
    assert total == table_fingerprint(out, "mentions")[0]
