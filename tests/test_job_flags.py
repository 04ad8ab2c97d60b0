"""Multi-node scheduling affordances (job.py flags → pool kwargs, and
the pools accepting them end-to-end on a local cluster — SPREAD is a
no-op single-node but must be accepted and forwarded)."""

import argparse

import numpy as np
import pyarrow as pa
import pytest


def _args(**over):
    from agraph_ray.job import main  # noqa: F401 (import check)
    ns = argparse.Namespace(max_concurrent=8, llm_batch_size=32,
                            num_actors=0, spread=False)
    for k, v in over.items():
        setattr(ns, k, v)
    return ns


def test_build_llm_opts_mapping():
    from agraph_ray.job import build_llm_opts
    assert build_llm_opts(_args()) == {"max_concurrent": 8,
                                       "batch_size": 32}
    got = build_llm_opts(_args(num_actors=128, max_concurrent=16,
                               llm_batch_size=64, spread=True))
    assert got == {"max_concurrent": 16, "batch_size": 64,
                   "num_actors": 128, "scheduling_strategy": "SPREAD"}


def test_llm_pool_accepts_spread(ray_session):
    import ray.data as rd
    from agraph_ray.mock_llm import mock_llm_engine_factory
    from agraph_ray.stages.extract import extract_mentions_llm
    docs = rd.from_items([
        {"conv_id": "c1", "doc_seq": 0,
         "text": "Alice Johnson met Bob Smith at Google."}])
    out = extract_mentions_llm(
        docs, engine_factory=mock_llm_engine_factory(latency_sec=0.0),
        num_actors=2, max_concurrent=4,
        scheduling_strategy="SPREAD").take_all()
    assert any(r["kind"] == "entity" for r in out)


def test_judge_pool_accepts_spread(ray_session):
    import json

    import ray.data as rd
    from agraph_ray.extract.llm import judge_match_edges
    pairs = rd.from_items([{"src": "e1", "dst": "e2", "sim": 0.9}])
    nodes = rd.from_items([
        {"entity_id": "e1", "name": "acme", "entity_type": "organization",
         "description": "", "aliases": []},
        {"entity_id": "e2", "name": "acme corp",
         "entity_type": "organization", "description": "", "aliases": []}])
    out = judge_match_edges(
        pairs, nodes,
        lambda: (lambda p: json.dumps({"is_duplicate": True})),
        concurrency=1, scheduling_strategy="SPREAD").take_all()
    assert [(r["src"], r["dst"]) for r in out] == [("e1", "e2")]


def test_ann_pool_accepts_spread(ray_session, tmp_path):
    from agraph_ray.state.ann import AnnShardPool
    rng = np.random.default_rng(0)
    mat = rng.normal(size=(40, 8)).astype("float32")
    ids = [f"v{i}" for i in range(40)]
    pool = AnnShardPool(ids, mat, num_shards=2,
                        scheduling_strategy="SPREAD")
    got_ids, _ = pool.query(mat[:3], k=2)
    assert list(got_ids[:, 0]) == ["v0", "v1", "v2"]
    pool.save(str(tmp_path / "ann"))
    loaded = AnnShardPool.load(str(tmp_path / "ann"),
                               scheduling_strategy="SPREAD")
    got2, _ = loaded.query(mat[:3], k=2)
    assert (got2 == got_ids).all()


def test_job_e2e_flag_wiring(monkeypatch, tmp_path):
    """--e2e routes to build_kg_llm_e2e with the flag-derived pool and
    ANN kwargs (clients are env-built inside; intercepted here)."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    import agraph_ray.job as job

    inp = tmp_path / "in"
    inp.mkdir()
    pq.write_table(pa.table({"conv_id": ["c"], "turn_idx": [0],
                             "text": ["t"]}),
                   str(inp / "s.parquet"))
    captured = {}

    def fake_e2e(paths, out, cfg, **kw):
        captured.update(kw, paths=list(paths), out=out)

        class R:
            metrics = {"ok": 1}
        return R()

    import agraph_ray.pipelines.llm_e2e as e2e
    monkeypatch.setattr(e2e, "build_kg_llm_e2e", fake_e2e)
    monkeypatch.setattr(job, "build_llm_opts", job.build_llm_opts)
    monkeypatch.setenv("AGRAPH_LLM_API_KEY", "test-key")
    rc = job.main(["--input", str(inp), "--output", str(tmp_path / "o"),
                   "--e2e", "--num-actors", "16", "--max-concurrent", "4",
                   "--spread", "--ann-top-k", "7",
                   "--ann-threshold", "0.85"])
    assert rc == 0
    assert captured["llm_opts"]["num_actors"] == 16
    assert captured["llm_opts"]["scheduling_strategy"] == "SPREAD"
    assert captured["ann_top_k"] == 7
    assert captured["ann_sim_threshold"] == 0.85
    assert captured["judge_opts"] == {"max_concurrent": 4,
                                      "scheduling_strategy": "SPREAD"}


@pytest.mark.parametrize("address,starts_session", [
    ("local", True), ("10.0.0.1:6379", False), ("", False), (None, True)])
def test_job_session_flags_only_when_starting_session(
        monkeypatch, tmp_path, address, starts_session):
    """--object-store-memory / --spill-dir reach ray.init only when this
    process starts the session; Ray raises if they are passed while
    connecting to an existing cluster. RAY_ADDRESS=local always starts
    one; unset or empty calls ray.init() without an address, which joins
    the cluster `ray start` left on this host (the "" case) or starts a
    local one (the unset case) — never "auto", which raises when no
    cluster is running."""
    import ray
    import ray._private.services as services

    import agraph_ray.job as job

    class Stop(Exception):
        pass

    seen = {}

    def fake_init(**kw):
        seen.update(kw)
        raise Stop

    monkeypatch.setattr(ray, "is_initialized", lambda: False)
    monkeypatch.setattr(ray, "init", fake_init)
    monkeypatch.setattr(
        services, "find_bootstrap_address",
        lambda temp_dir: None if starts_session else "10.0.0.1:6379")
    if address is None:
        monkeypatch.delenv("RAY_ADDRESS", raising=False)
    else:
        monkeypatch.setenv("RAY_ADDRESS", address)
    with pytest.raises(Stop):
        job.main(["--input", str(tmp_path), "--output",
                  str(tmp_path / "o"), "--object-store-memory",
                  str(1 << 30), "--spill-dir", str(tmp_path / "spill")])
    assert seen.get("address") == (address or None)
    session_kw = {"object_store_memory", "_system_config"}
    if starts_session:
        assert seen["object_store_memory"] == 1 << 30
        assert str(tmp_path / "spill") in \
            seen["_system_config"]["object_spilling_config"]
    else:
        assert not session_kw & set(seen)
