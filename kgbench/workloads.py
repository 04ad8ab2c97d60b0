"""The closed-loop workloads.

Each workload owns its inputs (generated from the seed in ``setup``), runs
one untimed warm-up op there, and then exposes ``op()``: one complete
operation through the package's public API, timed around the API call
only, followed by its output checks. A check failure marks the op failed;
it never shortens it. trace.py re-runs the same op stage by stage.
"""

from __future__ import annotations

import os
import shutil
import time
from dataclasses import dataclass, field
from typing import Dict

from agraph_ray.config import KGConfig

from . import checks, corpus

# salting at 256 turns splits the hot conversations into several documents
CFG = dict(hot_conv_turns=512, salt_span=256)


@dataclass
class OpResult:
    seconds: float
    ok: bool
    detail: str = ""
    parts: Dict[str, float] = field(default_factory=dict)


class Workload:
    name = ""
    # Ray logical CPUs, fixed so results do not depend on the host's
    # (or OMP_NUM_THREADS') idea of its width; recorded in every result
    ray_cpus = 1

    def __init__(self, work: str, seed: int, size: str = "full"):
        self.work = work
        self.seed = seed
        self.size = size
        self.cfg = KGConfig(**CFG)
        self.corpus: corpus.Corpus = None     # the input one op processes
        self._n = 0

    @property
    def turns_per_op(self) -> int:
        return self.corpus.n_turns

    def _out(self) -> str:
        self._n += 1
        d = os.path.join(self.work, "ops", f"op-{self._n:04d}")
        shutil.rmtree(d, ignore_errors=True)
        return d

    def _drop(self, out: str) -> None:
        shutil.rmtree(out, ignore_errors=True)

    def merge_quality(self):
        return checks.merge_quality(self.reference_dir, self.corpus.names,
                                    self.corpus.truth_pairs)


# -- build -------------------------------------------------------------------

class RuleBuild(Workload):
    """One op = ``pipelines.build_kg`` with the rule extractor over the
    whole corpus; the warm-up build is the reference."""
    name = "rule_build"
    sizes = {"full": dict(n_convs=80, hot_turns=700, person_pool=40),
             "tiny": dict(n_convs=12, hot_turns=300, person_pool=10)}

    def setup(self) -> None:
        self.corpus = corpus.skewed_corpus(
            os.path.join(self.work, "input"), self.seed, variant_frac=0.5,
            org_pool=12, **self.sizes[self.size])
        self.reference_dir = os.path.join(self.work, "reference")
        shutil.rmtree(self.reference_dir, ignore_errors=True)
        self._build(self.reference_dir)
        self.digest, _ = checks.graph_digest(self.reference_dir)

    def _build(self, out: str):
        from agraph_ray.pipelines.kg_build import build_kg
        return build_kg(self.corpus.files, out, self.cfg)

    def op(self) -> OpResult:
        out = self._out()
        t0 = time.perf_counter()
        self._build(out)
        sec = time.perf_counter() - t0
        ok, detail = self.check(out)
        self._drop(out)
        return OpResult(sec, ok, detail)

    def check(self, out: str):
        digest, counts = checks.graph_digest(out)
        if digest != self.digest:
            return False, f"digest {digest[:12]} != {self.digest[:12]}"
        if counts["dangling"]:
            return False, f"{counts['dangling']} dangling edges"
        if not checks.documents_match(out, self.corpus.texts,
                                      self.cfg.turn_separator):
            return False, "documents differ from generator text"
        return True, ""


# -- incremental update ------------------------------------------------------

class KgUpdate(Workload):
    """One op = ``add_documents(delta)`` then ``remove_documents(delta)``
    on a base graph built once in setup."""
    name = "kg_update"
    sizes = {"full": dict(base=dict(n_convs=60, hot_turns=300),
                          delta=dict(n_convs=12, hot_turns=0)),
             "tiny": dict(base=dict(n_convs=12, hot_turns=0),
                          delta=dict(n_convs=4, hot_turns=0))}

    def setup(self) -> None:
        from agraph_ray.pipelines.kg_build import build_kg
        sz = self.sizes[self.size]
        common = dict(person_pool=30, variant_frac=0.5, org_pool=12)
        self.base = corpus.skewed_corpus(
            os.path.join(self.work, "base"), self.seed, conv_prefix="b",
            **sz["base"], **common)
        self.delta = corpus.skewed_corpus(
            os.path.join(self.work, "delta"), self.seed, conv_prefix="d",
            **sz["delta"], **common)
        self.corpus = self.delta          # turns per op: the delta's
        base = os.path.join(self.work, "base-build")
        shutil.rmtree(base, ignore_errors=True)
        build_kg(self.base.files, base, self.cfg)
        self.base_digest, _ = checks.graph_digest(base)
        self.base_dir = base
        # The fresh build of base ∪ delta is both the reference after an
        # add and the working graph: the untimed warm-up removes the delta
        # from it, which must give the base graph back.
        both = corpus.union_files(self.base, self.delta,
                                  os.path.join(self.work, "union"))
        self.graph = os.path.join(self.work, "graph")
        shutil.rmtree(self.graph, ignore_errors=True)
        build_kg(both, self.graph, self.cfg)
        self.union_digest, _ = checks.graph_digest(self.graph)
        from agraph_ray.pipelines.incremental import remove_documents
        remove_documents(self.graph, self.delta.conv_ids, self.cfg)
        ok, detail = self._expect(self.base_digest, "warm-up remove")
        if not ok:
            raise RuntimeError(f"kg_update warm-up: {detail}")

    def merge_quality(self):
        return checks.merge_quality(self.base_dir, self.base.names,
                                    self.base.truth_pairs)

    def op(self) -> OpResult:
        from agraph_ray.pipelines.incremental import (add_documents,
                                                      remove_documents)
        t0 = time.perf_counter()
        add_documents(self.graph, self.delta.files, self.cfg)
        t_add = time.perf_counter() - t0
        ok, detail = self._expect(self.union_digest, "add")
        t0 = time.perf_counter()
        remove_documents(self.graph, self.delta.conv_ids, self.cfg)
        t_rm = time.perf_counter() - t0
        ok2, detail2 = self._expect(self.base_digest, "remove")
        return OpResult(t_add + t_rm, ok and ok2, detail or detail2,
                        {"add_s": t_add, "remove_s": t_rm})

    def _expect(self, want: str, what: str):
        digest, counts = checks.graph_digest(self.graph)
        if digest != want:
            return False, f"after {what}: digest {digest[:12]} != {want[:12]}"
        if counts["dangling"]:
            return False, f"after {what}: {counts['dangling']} dangling edges"
        return True, ""


# -- LLM lifecycle -----------------------------------------------------------

class LlmLifecycle(Workload):
    """One op = ``pipelines.build_kg_llm_e2e`` through counting mock
    transports with 5% injected first-attempt 503s."""
    name = "llm_lifecycle"
    sizes = {"full": dict(n_convs=24, turns_per_conv=4, org_pool=16,
                          person_pool=12),
             "tiny": dict(n_convs=6, turns_per_conv=2, org_pool=4,
                          person_pool=4)}
    latency_sec = 0.05
    fail_rate = 0.05
    pool = dict(num_actors=4, max_concurrent=8, batch_size=8)

    # build_kg_llm_e2e livelocks with one logical CPU (README: hazards)
    ray_cpus = 2

    def setup(self, transport_factory=None) -> None:
        from .llmcount import MockEndpoint
        self.corpus = corpus.containment_corpus(
            os.path.join(self.work, "input"), self.seed, variant_frac=0.5,
            **self.sizes[self.size])
        self.log_dir = os.path.join(self.work, "llm-log")
        clean = MockEndpoint(self.log_dir, self.latency_sec, 0.0, self.seed)
        self.endpoint = MockEndpoint(self.log_dir, self.latency_sec,
                                     self.fail_rate, self.seed,
                                     transport_factory=transport_factory)
        self.reference_dir = os.path.join(self.work, "reference")
        shutil.rmtree(self.reference_dir, ignore_errors=True)
        self.last = self._run(self.reference_dir, clean)
        self.digest, _ = checks.graph_digest(self.reference_dir)

    def _run(self, out: str, endpoint) -> dict:
        from agraph_ray.pipelines.llm_e2e import build_kg_llm_e2e
        from . import llmcount
        llmcount.reset(self.log_dir)
        res = build_kg_llm_e2e(
            self.corpus.files, out, self.cfg,
            engine_factory=llmcount.EngineFactory(endpoint),
            embedder=endpoint.embedder(),
            judge_llm_factory=llmcount.JudgeFactory(endpoint),
            shards_per_partition=len(self.corpus.files),
            ann_num_shards=1, ann_sim_threshold=0.6,
            judge_opts={"concurrency": 1, "max_concurrent": 8},
            llm_opts=dict(self.pool))
        return {"metrics": dict(res.metrics),
                "counts": llmcount.read_counts(self.log_dir)}

    def op(self) -> OpResult:
        out = self._out()
        t0 = time.perf_counter()
        self.last = self._run(out, self.endpoint)
        sec = time.perf_counter() - t0
        ok, detail = True, ""
        digest, counts = checks.graph_digest(out)
        failed = sum(v for k, v in self.last["counts"].items()
                     if k.endswith(".fail"))
        if failed:
            ok, detail = False, f"{failed:.0f} client requests failed"
        elif digest != self.digest:
            ok, detail = False, f"digest {digest[:12]} != {self.digest[:12]}"
        elif counts["dangling"]:
            ok, detail = False, f"{counts['dangling']} dangling edges"
        self._drop(out)
        parts = {k[4:] + "_s": v for k, v in self.last["metrics"].items()
                 if k.startswith("sec_")}
        return OpResult(sec, ok, detail, parts)


WORKLOADS = {w.name: w for w in (RuleBuild, KgUpdate, LlmLifecycle)}
