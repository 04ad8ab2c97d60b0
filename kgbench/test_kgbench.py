"""The benchmark's own tests: every workload at its tiny size, and the
failure accounting. Run from the repository root:

    python3 -m pytest kgbench/test_kgbench.py -q

Each case starts and stops its own Ray session (as a benchmark run does),
so the file takes a few minutes.
"""

from __future__ import annotations

import argparse
import json
import os

import pytest

from kgbench import checks, corpus, run, trace
from kgbench.llmcount import AlwaysBusyTransport
from kgbench.workloads import WORKLOADS, RuleBuild

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture(autouse=True)
def _at_root(monkeypatch):
    monkeypatch.chdir(ROOT)
    monkeypatch.setattr(run, "ROOT", ROOT)


def _run(workload, trace_=0, **kw):
    args = argparse.Namespace(workload=workload, seed=3, seconds=0.1,
                              trace=trace_)
    return run.run(args, size="tiny", **kw)


def _check_shape(res, names):
    assert set(res) == {"correct", "attempted", "failed", "metrics",
                        "_detail"}
    assert set(res["metrics"]) == set(names)
    for m in res["metrics"].values():
        assert set(m) == {"value", "unit"}
        assert isinstance(m["value"], (int, float))


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_tiny(name):
    res = _run(name)
    _check_shape(res, run.E2E_UNITS)
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    for k, m in res["metrics"].items():
        assert m["value"] > 0, k
    assert res["_detail"]["killed_after_shutdown"] == 0
    host = res["_detail"]["host"]
    assert host["ray_cpus"] == WORKLOADS[name].ray_cpus and host["nproc"] >= 1
    assert res["_detail"]["hardware_reference"][
        "rules.extract_agg_docs_per_s"] > 0


def test_benchmark_json_lists_every_metric():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E_UNITS
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == [(k, u, b) for k, (u, b) in trace.PER_LAYER.items()]


@pytest.mark.parametrize("name", ["rule_build", "kg_update"])
def test_traced_tiny(name):
    res = _run(name, trace_=1)
    _check_shape(res, trace.PER_LAYER)
    assert res["correct"], res["_detail"]["failures"]
    m = {k: v["value"] for k, v in res["metrics"].items()}
    assert m["extract.mention_rows"] > 0 and m["write.rows"] > 0
    assert m["rules.extract_agg_docs_per_s"] > 0
    assert res["_detail"]["host"]["ray_cpus"] == 1


class _CorruptDigest(RuleBuild):
    """Every op's output is compared against a wrong reference digest."""

    def setup(self):
        super().setup()
        self.digest = "0" * 64


def test_corrupted_digest_counts_failed_ops():
    res = _run("rule_build", workload_cls=_CorruptDigest)
    assert res["attempted"] >= 1
    assert res["failed"] == res["attempted"]
    assert res["correct"] is False
    assert all("digest" in f for f in res["_detail"]["failures"])
    assert res["metrics"]["turns_per_s"]["value"] == 0.0    # not faster


def test_always_503_counts_failed_ops():
    res = _run("llm_lifecycle",
               setup_kw={"transport_factory": AlwaysBusyTransport})
    assert res["failed"] == res["attempted"] >= 1
    assert res["correct"] is False
    assert res["metrics"]["turns_per_s"]["value"] == 0.0
    # the lifecycle either reports the failed requests or, with nothing
    # extracted at all, raises; both are failed ops
    assert all(f for f in res["_detail"]["failures"])


def test_generators_are_seeded(tmp_path):
    kw = dict(n_convs=10, hot_turns=40, person_pool=8, variant_frac=0.5,
              org_pool=4)
    a = corpus.skewed_corpus(str(tmp_path / "a"), 5, **kw)
    b = corpus.skewed_corpus(str(tmp_path / "b"), 5, **kw)
    c = corpus.skewed_corpus(str(tmp_path / "c"), 6, **kw)
    assert a.texts == b.texts and a.truth_pairs == b.truth_pairs
    assert a.texts != c.texts
    assert a.n_turns == c.n_turns == sum(corpus.turn_counts(10, 40))
    assert len(a.truth_pairs) == 4
    for x, y in a.truth_pairs:                  # one-letter variants
        assert len(x) == len(y) and sum(p != q for p, q in zip(x, y)) == 1


def test_merge_quality_counts_names(tmp_path):
    import pyarrow as pa
    import pyarrow.parquet as pq
    os.makedirs(tmp_path / "nodes")
    pq.write_table(pa.table({
        "name": ["ada x", "bo y", "cy z"],
        "display_name": ["Ada X", "Bo Y", "Cy Z"],
        "aliases": [["ada q"], ["bo w", "cy w"], []]}),
        tmp_path / "nodes" / "part-0.parquet")
    universe = {"ada x", "ada q", "bo y", "bo w", "cy w", "cy z"}
    truth = {("ada q", "ada x"), ("bo w", "bo y"), ("cy w", "cy z")}
    recall, precision = checks.merge_quality(str(tmp_path), universe, truth)
    assert recall == pytest.approx(2 / 3)
    # ada x/ada q right; bo y/bo w/cy w share a node with a stranger
    assert precision == pytest.approx(2 / 5)
