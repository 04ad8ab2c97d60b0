"""Endpoint pool: zero-CPU Ray actors that keep endpoint-bound stages.

An endpoint-bound stage (``LLMExtractStage``, ``EmbedStage`` over an API
client, ``LLMPairJudge``, ``ImageCaptioner``) spends its time waiting on
an API, not on a CPU. Ray Data's ``map_batches(cls, concurrency=N)``
starts an actor pool per execution and kills it when the execution
ends; at the LLM lifecycle's sizes that start (0.5-1.9 s) costs more
than the calls it serves. An :class:`EndpointPool` starts its actors on
demand and keeps them until :meth:`EndpointPool.close`: one pool per
``build_kg_llm_e2e`` run, shared by its extract, embed and judge phases,
or one per call when a stage function is called on its own.

The endpoint-bound policy, stated once, here:

- Actors reserve no CPU (``num_cpus=0``). Their per-request CPU work
  (prompt build, JSON parse) is ~ms against ~seconds of latency, so the
  actor count bounds IN-FLIGHT REQUESTS, not CPU use, and the endpoint's
  rate limit, not the cluster CPU count, should pick it. Reserving any
  CPU only takes slots from the pipeline's own read/repartition/write
  tasks: at 1 logical CPU even a 0.01-CPU actor leaves 0.99 CPU, and no
  default 1-CPU task can ever schedule (the pipeline hangs).
- In-flight requests = actors x ``max_concurrent``. Each call of
  :meth:`EndpointPool.map` names how many batches it may have in flight
  (its actor count); an actor runs one batch at a time, and the stage
  fans that batch over its own ``max_concurrent`` threads. Concurrent
  calls (the overlapped mention-partition groups) never share an actor,
  so each keeps its own bound and the pool grows to their sum.
- ``scheduling_strategy="SPREAD"`` places the actors across nodes
  (per-node NIC/connection limits bound a latency pool, not CPUs); a
  no-op on one node.
- Actors restart and their tasks retry without limit, as in Ray Data's
  actor pools.

A stage is built once per actor from ``(class, constructor kwargs)`` and
kept for later calls with the same spec. A stage may expose an int
``failed_calls``: the endpoint calls it gave up on. ``map`` returns the
sum of its growth over the call.

``map`` is not streaming: it returns once every batch of its input is
done, and the output blocks wait in the object store for the consumer
(BASELINE.md, "One endpoint pool", measures what that costs a mention
partition's write).
"""

from __future__ import annotations

import hashlib
import threading
from typing import Any, Dict, List, Optional, Tuple

import ray


@ray.remote
class EndpointActor:
    """Holds built stages keyed by their spec's digest."""

    def __init__(self):
        self._stages: Dict[str, Any] = {}

    @ray.method(num_returns=2)
    def run(self, key: str, spec: List, bounds: List[Tuple[int, int]],
            *blocks):
        """Rows ``bounds[i]`` of ``blocks[i]``, concatenated, through the
        stage as one pyarrow batch; the stage returns a pyarrow Table.
        Returns that block and the stage's failed calls during this
        batch. ``spec`` is a one-item list so that Ray passes the ref
        without fetching it."""
        import pyarrow as pa
        from ray.data.block import BlockAccessor

        stage = self._stages.get(key)
        if stage is None:
            import cloudpickle
            cls, kwargs = cloudpickle.loads(ray.get(spec[0]))
            stage = self._stages[key] = cls(**kwargs)
        failed = getattr(stage, "failed_calls", 0)
        parts = [BlockAccessor.for_block(b).to_arrow().slice(lo, hi - lo)
                 for b, (lo, hi) in zip(blocks, bounds)]
        out = stage(parts[0] if len(parts) == 1 else pa.concat_tables(
            parts, promote_options="default"))
        return out, getattr(stage, "failed_calls", 0) - failed


class EndpointPool:
    """Driver-side handle over the pool's actors (module docstring)."""

    def __init__(self, scheduling_strategy: Optional[str] = None):
        self._opts = {"num_cpus": 0, "max_restarts": -1,
                      "max_task_retries": -1}
        if scheduling_strategy:
            self._opts["scheduling_strategy"] = scheduling_strategy
        self._actors: List = []
        self._idle: List[int] = []      # started actors with no batch
        self._lock = threading.Lock()

    @property
    def size(self) -> int:
        """Actors started so far."""
        return len(self._actors)

    def _acquire(self) -> Tuple[int, Any]:
        """The lowest idle actor, or a new one when none is idle."""
        with self._lock:
            if self._idle:
                i = min(self._idle)
                self._idle.remove(i)
            else:
                i = len(self._actors)
                self._actors.append(
                    EndpointActor.options(**self._opts).remote())
            return i, self._actors[i]

    def _release(self, idx) -> None:
        with self._lock:
            self._idle.extend(idx)

    def map(self, ds, cls, kwargs: Dict[str, Any], *, batch_size: int,
            num_actors: Optional[int] = None
            ) -> Tuple["ray.data.MaterializedDataset", int]:
        """Run ``cls(**kwargs)`` over ``ds`` in batches of ``batch_size``
        rows with at most ``num_actors`` batches in flight (default: the
        actors already started, at least one). Each batch goes to an idle
        actor of the pool; one is started only when none is idle, so a
        small input starts few. The output keeps the input's row order.
        Returns the output as a materialized Dataset over the actors'
        output blocks (no row passes through the driver) and the stage's
        failed endpoint calls."""
        import cloudpickle

        width = max(1, num_actors or self.size)
        blob = cloudpickle.dumps((cls, kwargs))
        key = hashlib.sha1(blob).hexdigest()
        spec = [ray.put(blob)]
        busy: Dict[Any, int] = {}       # failed-count ref -> actor index
        outs: List[Tuple[Any, Any]] = []

        def reap(num: int, timeout: Optional[float]) -> None:
            done, _ = ray.wait(list(busy), num_returns=num, timeout=timeout)
            self._release([busy.pop(r) for r in done])

        def submit(pieces: List[Tuple[Any, int, int]]) -> None:
            if busy:
                # hand finished actors back before taking another
                reap(len(busy), 0)
            if len(busy) >= width:
                reap(1, None)
            i, actor = self._acquire()
            out, failed = actor.run.remote(
                key, spec, [(lo, hi) for _, lo, hi in pieces],
                *[ref for ref, _, _ in pieces])
            busy[failed] = i
            outs.append((out, failed))

        try:
            # batches of exactly batch_size rows (the last may be short),
            # cut across block boundaries as Ray Data's map_batches does
            pieces: List[Tuple[Any, int, int]] = []
            rows = 0
            for bundle in ds.iter_internal_ref_bundles():
                for ref, meta in bundle.blocks:
                    lo = 0
                    while lo < meta.num_rows:
                        hi = min(meta.num_rows, lo + batch_size - rows)
                        pieces.append((ref, lo, hi))
                        rows, lo = rows + hi - lo, hi
                        if rows == batch_size:
                            submit(pieces)
                            pieces, rows = [], 0
            if pieces:
                submit(pieces)
            failed = sum(ray.get([f for _, f in outs]))
        finally:
            self._release(busy.values())
        return ray.data.from_arrow_refs([o for o, _ in outs]), failed

    def close(self) -> None:
        """Kill the pool's actors (idempotent); outputs already returned
        stay readable, they are owned by the caller."""
        with self._lock:
            actors, self._actors, self._idle = self._actors, [], []
        for a in actors:
            ray.kill(a, no_restart=True)

    def __enter__(self) -> "EndpointPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def pool_map(pool: Optional[EndpointPool], ds, cls, kwargs: Dict[str, Any],
             *, batch_size: int, num_actors: Optional[int],
             scheduling_strategy: Optional[str] = None
             ) -> Tuple["ray.data.MaterializedDataset", int]:
    """``pool.map(...)``, or, without a pool, the same call on a pool
    scoped to it (``scheduling_strategy`` places that pool's actors)."""
    if pool is not None:
        return pool.map(ds, cls, kwargs, batch_size=batch_size,
                        num_actors=num_actors)
    with EndpointPool(scheduling_strategy) as own:
        return own.map(ds, cls, kwargs, batch_size=batch_size,
                       num_actors=num_actors)
