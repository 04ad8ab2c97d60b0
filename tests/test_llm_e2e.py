"""Composed production-LLM lifecycle (pipelines/llm_e2e.py): LLM extract
→ dedup → embed → ANN link → LLM pair judge → canonical merge, all
phases checkpointed. Mirrors the reference lifecycle
agraph/builders/llm_builders.py:1035-1097 under the mock-latency
transports (identical client/parse/retry code, no network).
"""

import glob
import json
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
    """A second run over the committed output skips every phase and
    reads the committed phases' metrics back: it reports the same
    counts as the first run."""
    _, files, out, res1 = e2e_run
    res2 = _run(files, out)
    m = res2.metrics
    assert m["skipped"] == m["n_partitions"]
    for phase in ("dedup", "embed", "ann_link", "judge", "canonicalize"):
        assert m.get(f"skipped_{phase}") == 1, phase
    assert res2.metrics["wall_sec"] < 20
    for key in ("n_nodes", "n_edges", "n_embedded", "n_candidate_pairs",
                "n_approved_pairs", "entities_merged_by_ann_judge"):
        assert m.get(key) == res1.metrics[key], key


def test_e2e_single_phase_rerun(e2e_run):
    """Deleting one phase manifest re-runs exactly that phase and
    reproduces identical final tables (deterministic ids)."""
    _, files, out, _ = e2e_run
    before = _final_counts(out)
    os.remove(os.path.join(out, "manifests",
                           "llm_e2e-canonicalize-llm.json"))
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
    os.remove(os.path.join(out, "manifests",
                           "llm_e2e-canonicalize-none.json"))
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


def test_e2e_judged_resume_over_threshold_only(e2e_run):
    """The judge and canonicalize manifests are keyed by judge mode: a
    threshold-only output directory resumed with a judge re-runs both
    phases and ends with the fresh judged graph, not the threshold-only
    one (it kept 25 nodes against the judged run's 33)."""
    base, files, out_ref, res_ref = e2e_run
    out = os.path.join(base, "out_threshold_then_judged")
    thr = _run(files, out, judge_llm_factory=None)
    assert thr.metrics["n_nodes"] != res_ref.metrics["n_nodes"]
    res = _run(files, out)
    assert res.metrics.get("skipped_ann_link") == 1
    assert "skipped_judge" not in res.metrics
    assert "skipped_canonicalize" not in res.metrics
    assert res.metrics["n_nodes"] == res_ref.metrics["n_nodes"]
    assert _final_counts(out) == _final_counts(out_ref)


def _busy_chat_factory():
    """Zero-arg factory of a chat client whose every call gets a 503."""
    def factory():
        from agraph_ray.clients import (ClientConfig, OpenAICompatClient,
                                        TransportError)

        def busy(url, payload, headers, timeout):
            raise TransportError("503: always busy", status=503)
        return OpenAICompatClient(
            ClientConfig(max_retries=1, backoff_base=0.0, backoff_cap=0.0),
            transport=busy)
    return factory


def _busy_engine_factory():
    chat = _busy_chat_factory()

    def factory():
        from agraph_ray.extract.llm import LLMExtractorEngine
        return LLMExtractorEngine(chat())
    return factory


@pytest.mark.parametrize("down", ["all", "judge"])
def test_e2e_endpoint_outage_counts_failed_calls(e2e_run, down):
    """An always-503 endpoint is reported, not hidden: the run returns,
    and the mention partitions and the judge commit their failed calls.
    With every call down the graph is empty (dedup raised a KeyError on
    the schemaless empty mentions); with the judge down each candidate
    pair counts one failed call and is judged on its names."""
    base, files, _, _ = e2e_run
    out = os.path.join(base, f"out_outage_{down}")
    kw = {"judge_llm_factory": _busy_chat_factory()}
    if down == "all":
        kw["engine_factory"] = _busy_engine_factory()
    m = _run(files, out, **kw).metrics
    parts = [json.load(open(f)) for f in
             glob.glob(os.path.join(out, "manifests", "mentions-*.json"))]
    assert m["extract_failed_calls"] == sum(
        p["extract_failed_calls"] for p in parts)
    judged = json.load(open(os.path.join(out, "manifests",
                                         "llm_e2e-judge-llm.json")))
    assert judged["judge_failed_calls"] == m["judge_failed_calls"]
    if down == "all":
        assert m["extract_failed_calls"] > 0
        assert (m["n_nodes"], m["n_edges"], m["n_candidate_pairs"]) == \
            (0, 0, 0)
        assert m["judge_failed_calls"] == 0
    else:
        assert m["extract_failed_calls"] == 0
        assert m["judge_failed_calls"] == m["n_candidate_pairs"] > 0


def _recording_clients(log_dir: str):
    """Mock extract, judge and embedding clients that touch
    ``<log_dir>/<tag>-<pid>`` on every call."""
    def touch(tag):
        import os
        open(os.path.join(log_dir, f"{tag}-{os.getpid()}"), "a").close()

    def engine_factory():
        from agraph_ray.extract.llm import LLMExtractorEngine
        from agraph_ray.mock_llm import mock_chat_client
        chat = mock_chat_client(latency_sec=0.01)

        def call(prompt):
            touch("extract")
            return chat(prompt)
        return LLMExtractorEngine(call)

    def judge_factory():
        from agraph_ray.mock_llm import mock_chat_client
        chat = mock_chat_client(latency_sec=0.01)

        def call(prompt):
            touch("judge")
            return chat(prompt)
        return call

    class Embedder:
        def __init__(self):
            from agraph_ray.mock_llm import mock_embedding_client
            self.inner = mock_embedding_client(latency_sec=0.0,
                                               embedding_dim=64)

        def embed_batch(self, texts):
            touch("embed")
            return self.inner.embed_batch(texts)

    return engine_factory, judge_factory, Embedder()


def _pids(log_dir: str, tag: str) -> set:
    return {int(f.split("-")[1]) for f in os.listdir(log_dir)
            if f.startswith(tag + "-")}


def test_e2e_one_endpoint_pool_per_run(e2e_run, tmp_path, monkeypatch):
    """Extract, embed and judge share one pool: at most its size of
    endpoint processes serve the run, embed and judge run in processes
    that also served extract, and none is alive once the run returns. A
    resume with every endpoint phase committed starts no pool actor."""
    from test_endpoint_pool import wait_dead

    from agraph_ray.state.endpoint_pool import EndpointPool
    base, files, out_ref, _ = e2e_run
    log_dir = str(tmp_path)
    engine, judge, embedder = _recording_clients(log_dir)
    out = os.path.join(base, "out_shared_pool")
    kw = dict(engine_factory=engine, judge_llm_factory=judge,
              embedder=embedder,
              llm_opts={"num_actors": 2, "max_concurrent": 8,
                        "batch_size": 4},
              judge_opts={"concurrency": 2})
    _run(files, out, **kw)
    extract = _pids(log_dir, "extract")
    served = extract | _pids(log_dir, "embed") | _pids(log_dir, "judge")
    assert 0 < len(served) <= 2 and os.getpid() not in served
    assert _pids(log_dir, "embed") and _pids(log_dir, "embed") <= extract
    assert _pids(log_dir, "judge") and _pids(log_dir, "judge") <= extract
    assert wait_dead(served) == []
    assert _final_counts(out) == _final_counts(out_ref)

    started = []
    real = EndpointPool._acquire
    monkeypatch.setattr(EndpointPool, "_acquire",
                        lambda self: started.append(1) or real(self))
    res = _run(files, out, **kw)
    assert res.metrics.get("skipped_judge") == 1
    assert started == []


def test_e2e_pool_closed_when_judge_raises(e2e_run, tmp_path):
    """A run that raises in the judge phase leaves no pool actor alive."""
    from test_endpoint_pool import wait_dead
    base, files, _, _ = e2e_run
    log_dir = str(tmp_path)
    engine, _, embedder = _recording_clients(log_dir)

    def judge_down():
        raise RuntimeError("judge endpoint down")
    with pytest.raises(RuntimeError, match="judge endpoint down"):
        _run(files, os.path.join(base, "out_judge_raises"),
             engine_factory=engine, embedder=embedder,
             judge_llm_factory=judge_down)
    served = _pids(log_dir, "extract")
    assert served and wait_dead(served) == []


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
        if (stage, str(partition_id)) == {kill_at!r}:
            os._exit({kill_exit})   # die right AFTER that unit commits
    kgb.commit_manifest = chaos_commit
    e2e.build_kg_llm_e2e(
        {files!r}, {out!r}, KGConfig(hot_conv_turns=100, salt_span=64),
        engine_factory=mock_llm_engine_factory(latency_sec=0.01),
        embedder=mock_embedding_client(latency_sec=0.0, embedding_dim=64),
        judge_llm_factory={judge},
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
@pytest.mark.parametrize("with_judge", [True, False],
                         ids=["judge", "no_judge"])
def test_e2e_kill_mid_extract_then_resume(e2e_run, with_judge):
    """Kill the job right after a unit commits: with a judge, the second
    mentions partition; threshold-only, the ann_link phase. The resumed
    run skips what was committed and produces final tables identical to
    the uninterrupted run of the same mode."""
    base, files, out_ref, _ = e2e_run
    judge = ("lambda: mock_chat_client(latency_sec=0.01)" if with_judge
             else "None")
    kill_at = ("mentions", "1") if with_judge else ("llm_e2e", "ann_link")
    out = os.path.join(base, f"out_killed_{kill_at[1]}")
    script = KILL_DRIVER.format(repo=REPO, files=list(files), out=out,
                                kill_exit=KILL_EXIT, kill_at=kill_at,
                                judge=judge)
    env = {**os.environ, "RAY_ADDRESS": ""}
    p = subprocess.run([sys.executable, "-c", script], env=env,
                       capture_output=True, text=True, timeout=600)
    assert p.returncode == KILL_EXIT, p.stderr[-2000:]
    committed = sorted(os.listdir(os.path.join(out, "manifests")))
    overrides = {"group_concurrency": 1}
    if with_judge:
        # partitions 0 and 1 committed, nothing else
        assert "mentions-0.json" in committed
        assert "mentions-1.json" in committed
        assert not any(c.startswith("llm_e2e") for c in committed)
    else:
        # every partition and the phases up to ann_link committed
        assert "llm_e2e-ann_link.json" in committed
        assert not any(c.startswith("llm_e2e-judge") for c in committed)
        overrides["judge_llm_factory"] = None
        out_ref = os.path.join(base, "out_threshold_ref")
        _run(files, out_ref, **overrides)

    res = _run(files, out, **overrides)
    if with_judge:
        assert res.metrics["skipped"] == 2
    else:
        assert res.metrics["skipped"] == res.metrics["n_partitions"]
        assert res.metrics.get("skipped_ann_link") == 1
        assert "skipped_judge" not in res.metrics
    ref_nodes, ref_names, _ = _final_counts(out_ref)
    got_nodes, got_names, got_dangling = _final_counts(out)
    assert (got_nodes, got_names) == (ref_nodes, ref_names)
    assert got_dangling == 0
