"""Composed production-LLM lifecycle (pipelines/llm_e2e.py): LLM extract
→ dedup → embed → ANN link → LLM pair judge → canonical merge, all
phases checkpointed. Mirrors the reference lifecycle
agraph/builders/llm_builders.py:1035-1097 under the mock-latency
transports (identical client/parse/retry code, no network).
"""

import glob
import os
import signal
import subprocess
import sys
import textwrap

import duckdb
import pytest

from agraph_ray.config import KGConfig

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
KILL_EXIT = 42


def _make_input(base: str) -> list:
    """60 synthetic conversations + one planted shard whose turns
    mention VARIANT surface forms of corpus entities ("Globex" vs
    "Globex Inc") — the near-duplicates the ANN→judge path must find."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from agraph_ray.synth import generate_transcripts
    generate_transcripts(os.path.join(base, "input"), n_convs=60, seed=7,
                         num_shards=8)
    extra = pa.table({
        "conv_id": ["convX"] * 4,
        "turn_idx": [0, 1, 2, 3],
        "text": ["Globex announced a merger with Initech today.",
                 "Alice met with the Stark team about Django.",
                 "The Acme roadmap depends on PyTorch and iOS.",
                 "Wayne said the Facebook deal closed."],
    })
    pq.write_table(extra, os.path.join(base, "input", "extra.parquet"))
    return sorted(glob.glob(os.path.join(base, "input", "*.parquet")))


def _run(files, out, **overrides):
    from agraph_ray.mock_llm import (mock_chat_client,
                                     mock_embedding_client,
                                     mock_llm_engine_factory)
    from agraph_ray.pipelines.llm_e2e import build_kg_llm_e2e
    kw = dict(
        engine_factory=mock_llm_engine_factory(latency_sec=0.01),
        embedder=mock_embedding_client(latency_sec=0.0, embedding_dim=64),
        judge_llm_factory=lambda: mock_chat_client(latency_sec=0.01),
        shards_per_partition=4, embed_dim=64, ann_sim_threshold=0.60,
        llm_opts={"num_actors": 8, "max_concurrent": 8, "batch_size": 16})
    kw.update(overrides)
    return build_kg_llm_e2e(
        files, out, KGConfig(hot_conv_turns=100, salt_span=64), **kw)


def _final_counts(out: str):
    con = duckdb.connect()
    n_nodes = con.execute(
        f"SELECT count(*) FROM read_parquet('{out}/nodes/*.parquet')"
    ).fetchone()[0]
    names = [r[0] for r in con.execute(
        f"SELECT name FROM read_parquet('{out}/nodes/*.parquet') "
        "ORDER BY name").fetchall()]
    dangling = con.execute(f"""
        SELECT count(*) FROM read_parquet('{out}/edges/*.parquet') e
        WHERE e.head_id NOT IN
              (SELECT entity_id FROM read_parquet('{out}/nodes/*.parquet'))
           OR e.tail_id NOT IN
              (SELECT entity_id FROM read_parquet('{out}/nodes/*.parquet'))
    """).fetchone()[0]
    con.close()
    return n_nodes, names, dangling


@pytest.fixture(scope="module")
def e2e_run(ray_session, tmp_path_factory):
    base = str(tmp_path_factory.mktemp("llm_e2e"))
    files = _make_input(base)
    out = os.path.join(base, "out")
    res = _run(files, out)
    return base, files, out, res


def test_e2e_merges_variants(e2e_run):
    _, _, out, res = e2e_run
    m = res.metrics
    # the ANN found candidates, the judge approved a subset, the merge
    # shrank the node table by exactly the approved count
    assert m["n_candidate_pairs"] > 0
    assert 0 < m["n_approved_pairs"] <= m["n_candidate_pairs"]
    assert m["entities_merged_by_ann_judge"] == m["n_approved_pairs"]
    n_nodes, names, dangling = _final_counts(out)
    assert n_nodes == m["n_nodes"]
    assert dangling == 0
    # the planted variants merged into their canonical (min-id) form:
    # each name pair collapses to ONE surviving node
    for a, b in [("globex", "globex inc"), ("stark", "stark organization"),
                 ("alice", "alice johnson")]:
        assert (a in names) != (b in names), (a, b)


def test_e2e_phase_resume_skips_everything(e2e_run):
    """A second run over the committed output skips every phase."""
    _, files, out, _ = e2e_run
    res2 = _run(files, out)
    m = res2.metrics
    assert m["skipped"] == m["n_partitions"]
    for phase in ("dedup", "embed", "ann_link", "judge", "canonicalize"):
        assert m.get(f"skipped_{phase}") == 1, phase
    assert res2.metrics["wall_sec"] < 20


def test_e2e_single_phase_rerun(e2e_run):
    """Deleting one phase manifest re-runs exactly that phase and
    reproduces identical final tables (deterministic ids)."""
    _, files, out, _ = e2e_run
    before = _final_counts(out)
    os.remove(os.path.join(out, "manifests", "llm_e2e-canonicalize.json"))
    res = _run(files, out)
    assert "skipped_canonicalize" not in res.metrics
    assert res.metrics.get("skipped_judge") == 1
    assert _final_counts(out) == before


def test_e2e_threshold_only_canonicalize_rerun(e2e_run):
    """Without a judge the ANN pairs are the merge edges. A resumed run
    whose judge phase is already committed must still merge them:
    re-running only canonicalize reproduces the uninterrupted tables."""
    base, files, _, _ = e2e_run
    out = os.path.join(base, "out_threshold_only")
    res = _run(files, out, judge_llm_factory=None)
    assert res.metrics["entities_merged_by_ann_judge"] > 0
    before = _final_counts(out)
    os.remove(os.path.join(out, "manifests", "llm_e2e-canonicalize.json"))
    res = _run(files, out, judge_llm_factory=None)
    assert "skipped_canonicalize" not in res.metrics
    assert res.metrics.get("skipped_judge") == 1
    assert _final_counts(out) == before


def test_e2e_partition_layout_invariance(e2e_run):
    """The final canonical tables are a pure function of the input —
    regrouping the same shards into different partition counts (4 →
    2 shards per partition) must reproduce identical node names and
    counts (deterministic content-hash ids end to end)."""
    base, files, out_ref, _ = e2e_run
    out2 = os.path.join(base, "out_sp2")
    _run(files, out2, shards_per_partition=2)
    ref = _final_counts(out_ref)
    got = _final_counts(out2)
    assert got[0] == ref[0] and got[1] == ref[1]
    assert got[2] == 0


KILL_DRIVER = textwrap.dedent("""
    import os, sys
    sys.path.insert(0, {repo!r})
    import ray
    ray.init(address="local", num_cpus=4, include_dashboard=False,
             logging_level="ERROR")
    from ray.data import DataContext
    DataContext.get_current().enable_progress_bars = False
    import agraph_ray.pipelines.kg_build as kgb
    import agraph_ray.pipelines.llm_e2e as e2e
    from agraph_ray.config import KGConfig
    from agraph_ray.mock_llm import (mock_chat_client,
                                     mock_embedding_client,
                                     mock_llm_engine_factory)
    real_commit = kgb.commit_manifest
    def chaos_commit(out_dir, stage, partition_id, metrics):
        real_commit(out_dir, stage, partition_id, metrics)
        if (stage, str(partition_id)) == ("mentions", "1"):
            os._exit({kill_exit})   # die right AFTER partition 1 commits
    kgb.commit_manifest = chaos_commit
    e2e.build_kg_llm_e2e(
        {files!r}, {out!r}, KGConfig(hot_conv_turns=100, salt_span=64),
        engine_factory=mock_llm_engine_factory(latency_sec=0.01),
        embedder=mock_embedding_client(latency_sec=0.0, embedding_dim=64),
        judge_llm_factory=lambda: mock_chat_client(latency_sec=0.01),
        shards_per_partition=4, embed_dim=64, ann_sim_threshold=0.60,
        group_concurrency=1,
        llm_opts={{"num_actors": 4, "max_concurrent": 8,
                   "batch_size": 16}})
    os._exit(7)   # must not reach
""")


SMALL_CLUSTER_DRIVER = textwrap.dedent("""
    import sys
    sys.path.insert(0, {repo!r})
    import ray
    ray.init(address="local", num_cpus={cpus}, include_dashboard=False,
             logging_level="ERROR")
    from ray.data import DataContext
    DataContext.get_current().enable_progress_bars = False
    from agraph_ray.config import KGConfig
    from agraph_ray.mock_llm import (mock_chat_client,
                                     mock_embedding_client,
                                     mock_llm_engine_factory)
    from agraph_ray.pipelines.llm_e2e import build_kg_llm_e2e
    build_kg_llm_e2e(
        {files!r}, {out!r}, KGConfig(hot_conv_turns=100, salt_span=64),
        engine_factory=mock_llm_engine_factory(latency_sec=0.01),
        embedder=mock_embedding_client(latency_sec=0.0, embedding_dim=64),
        judge_llm_factory=lambda: mock_chat_client(latency_sec=0.01),
        shards_per_partition=4, embed_dim=64, ann_sim_threshold=0.60,
        llm_opts={{"num_actors": 8, "max_concurrent": 8,
                   "batch_size": 16}})
    ray.shutdown()
""")


@pytest.mark.slow
@pytest.mark.parametrize("cpus", [1, 2])
def test_e2e_completes_on_small_cluster(e2e_run, cpus):
    """Endpoint-bound pools reserve no CPU, so the lifecycle's own read,
    repartition and write tasks always find a free CPU: a 1- or 2-CPU
    session finishes with the same graph as the 4-CPU run."""
    base, files, out_ref, _ = e2e_run
    out = os.path.join(base, f"out_cpus{cpus}")
    script = SMALL_CLUSTER_DRIVER.format(repo=REPO, files=list(files),
                                         out=out, cpus=cpus)
    env = {**os.environ, "RAY_ADDRESS": ""}
    # own process group: a hung run is killed with the Ray processes it
    # started, not just the driver
    p = subprocess.Popen([sys.executable, "-c", script], env=env,
                         stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                         text=True, start_new_session=True)
    try:
        _, err = p.communicate(timeout=300)
    except subprocess.TimeoutExpired:
        os.killpg(p.pid, signal.SIGKILL)
        p.communicate()
        pytest.fail(f"build_kg_llm_e2e did not finish in 300 s at "
                    f"{cpus} CPU(s)")
    assert p.returncode == 0, err[-2000:]
    ref_nodes, ref_names, _ = _final_counts(out_ref)
    got_nodes, got_names, got_dangling = _final_counts(out)
    assert (got_nodes, got_names) == (ref_nodes, ref_names)
    assert got_dangling == 0


@pytest.mark.slow
def test_e2e_kill_mid_extract_then_resume(e2e_run):
    """Kill the job after the second mentions partition commits; the
    resumed run skips the committed partitions and produces final
    tables identical to the uninterrupted run."""
    base, files, out_ref, _ = e2e_run
    out = os.path.join(base, "out_killed")
    script = KILL_DRIVER.format(repo=REPO, files=list(files), out=out,
                                kill_exit=KILL_EXIT)
    env = {**os.environ, "RAY_ADDRESS": ""}
    p = subprocess.run([sys.executable, "-c", script], env=env,
                       capture_output=True, text=True, timeout=600)
    assert p.returncode == KILL_EXIT, p.stderr[-2000:]
    # partitions 0 and 1 committed, nothing else
    committed = sorted(os.listdir(os.path.join(out, "manifests")))
    assert "mentions-0.json" in committed and "mentions-1.json" in committed
    assert not any(c.startswith("llm_e2e") for c in committed)

    res = _run(files, out, group_concurrency=1)
    assert res.metrics["skipped"] == 2
    ref_nodes, ref_names, _ = _final_counts(out_ref)
    got_nodes, got_names, got_dangling = _final_counts(out)
    assert (got_nodes, got_names) == (ref_nodes, ref_names)
    assert got_dangling == 0
