"""End-to-end invariants over the shared build (FIXTURES.md §4)."""

import duckdb
import pytest

from agraph_ray.synth import ground_truth_documents
from tests.conftest import TEST_CONVS, TEST_SEED


@pytest.mark.usefixtures("ray_session")
def test_no_dangling_edges(kg_out):
    con = duckdb.connect()
    n = con.execute(f"""
        SELECT count(*) FROM parquet_scan('{kg_out.tables["edges"]}/*.parquet') e
        WHERE e.head_id NOT IN
              (SELECT entity_id FROM parquet_scan('{kg_out.tables["nodes"]}/*.parquet'))
           OR e.tail_id NOT IN
              (SELECT entity_id FROM parquet_scan('{kg_out.tables["nodes"]}/*.parquet'))
    """).fetchone()[0]
    assert n == 0


@pytest.mark.usefixtures("ray_session")
def test_no_self_edges_and_unique_ids(kg_out):
    con = duckdb.connect()
    n_self = con.execute(
        f"SELECT count(*) FROM parquet_scan('{kg_out.tables['edges']}/*.parquet') "
        f"WHERE head_id = tail_id").fetchone()[0]
    assert n_self == 0
    dup_nodes = con.execute(
        f"SELECT count(*) FROM (SELECT entity_id FROM "
        f"parquet_scan('{kg_out.tables['nodes']}/*.parquet') "
        f"GROUP BY entity_id HAVING count(*) > 1)").fetchone()[0]
    assert dup_nodes == 0
    dup_edges = con.execute(
        f"SELECT count(*) FROM (SELECT relation_id FROM "
        f"parquet_scan('{kg_out.tables['triples']}/*.parquet') "
        f"GROUP BY relation_id HAVING count(*) > 1)").fetchone()[0]
    assert dup_edges == 0


@pytest.mark.usefixtures("ray_session")
def test_per_turn_text_equality(kg_out):
    """BASELINE.json input_hint invariant: reassembled documents equal the
    ground-truth per-conversation text byte-for-byte."""
    con = duckdb.connect()
    got = dict(con.execute(
        f"SELECT conv_id, string_agg(text, chr(10) ORDER BY doc_seq) FROM "
        f"parquet_scan('{kg_out.tables['documents']}/*.parquet') "
        f"GROUP BY conv_id").fetchall())
    want = ground_truth_documents(TEST_CONVS, TEST_SEED, skew=False)
    assert got == want


@pytest.mark.usefixtures("ray_session")
def test_chunk_invariants(kg_out):
    from agraph_ray.config import KGConfig
    cfg = KGConfig()
    con = duckdb.connect()
    bad = con.execute(
        f"SELECT count(*) FROM parquet_scan('{kg_out.tables['chunks']}/*.parquet') "
        f"WHERE token_count > {cfg.chunk_size + cfg.chunk_overlap}").fetchone()[0]
    assert bad == 0
    # chunk ids unique
    dup = con.execute(
        f"SELECT count(*) FROM (SELECT chunk_id FROM "
        f"parquet_scan('{kg_out.tables['chunks']}/*.parquet') "
        f"GROUP BY chunk_id HAVING count(*) > 1)").fetchone()[0]
    assert dup == 0


@pytest.mark.usefixtures("ray_session")
def test_deterministic_across_runs(kg_out, corpus_dir, tmp_path):
    """Same input, fresh run → identical triple and node id sets (the
    idempotence property that makes partition re-execution safe)."""
    from agraph_ray.config import KGConfig
    from agraph_ray.pipelines.kg_build import build_kg
    res2 = build_kg(corpus_dir, str(tmp_path / "rerun"), KGConfig(),
                    with_chunks=False)
    con = duckdb.connect()
    for table, key in [("triples", "relation_id"), ("nodes", "entity_id")]:
        a = {r[0] for r in con.execute(
            f"SELECT {key} FROM parquet_scan('{kg_out.tables[table]}/*.parquet')").fetchall()}
        b = {r[0] for r in con.execute(
            f"SELECT {key} FROM parquet_scan('{res2.tables[table]}/*.parquet')").fetchall()}
        assert a == b, table


@pytest.mark.usefixtures("ray_session")
def test_dedup_from_checkpoint_equals_in_memory(kg_out, corpus_dir, tmp_path,
                                                force_side):
    """build_kg dedups from the Parquet mentions checkpoint when the
    in-memory mentions take more than _INMEM_STORE_SHARE of the object
    store: the same node, edge and triple ids and the same mention counts
    as the in-memory side of the shared build."""
    from agraph_ray.config import KGConfig
    from agraph_ray.pipelines.kg_build import build_kg
    with force_side("agraph_ray.pipelines.kg_build", _INMEM_STORE_SHARE=0):
        res2 = build_kg(corpus_dir, str(tmp_path / "ckpt"), KGConfig(),
                        with_chunks=False)
    con = duckdb.connect()
    for table, key in [("nodes", "entity_id"), ("edges", "relation_id"),
                       ("triples", "relation_id")]:
        a, b = (con.execute(
            f"SELECT list_sort(list({key})), sum(n_mentions) FROM "
            f"parquet_scan('{res.tables[table]}/*.parquet')").fetchone()
            for res in (kg_out, res2))
        assert a == b and a[1] > 0, table


def test_empty_and_degenerate_inputs(ray_session, tmp_path):
    """Zero rows and a single extractorless turn must produce valid (0-row
    or 1-row) artifacts, not crashes — poison inputs can't kill a shard."""
    import pyarrow as pa
    import ray.data as rd
    from agraph_ray.config import KGConfig
    from agraph_ray.pipelines.kg_build import build_kg

    empty = rd.from_arrow(pa.table({
        "conv_id": pa.array([], pa.string()),
        "turn_idx": pa.array([], pa.int32()),
        "text": pa.array([], pa.string())}))
    res = build_kg(empty, str(tmp_path / "empty"), KGConfig(),
                   with_chunks=False)
    assert res.metrics["n_nodes"] == 0 and res.metrics["n_triples"] == 0

    one = rd.from_arrow(pa.table({
        "conv_id": ["c1"], "turn_idx": pa.array([0], pa.int32()),
        "text": ["zzz qqq."]}))
    res = build_kg(one, str(tmp_path / "one"), KGConfig(), with_chunks=True)
    assert res.metrics["n_documents"] == 1
