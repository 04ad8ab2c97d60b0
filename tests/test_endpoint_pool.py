"""The endpoint pool (state/endpoint_pool.py): batches cut like Ray
Data's ``map_batches``, output in input order, stages kept per actor
across calls with the same spec, failed calls summed, and no actor left
once the pool is closed."""

import os
import time

import pyarrow as pa


def _alive(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


def wait_dead(pids, timeout: float = 30.0) -> list:
    """Pids still alive after ``timeout`` seconds."""
    deadline = time.time() + timeout
    alive = list(pids)
    while alive and time.time() < deadline:
        time.sleep(0.2)
        alive = [p for p in alive if _alive(p)]
    return alive


def _table(ds) -> pa.Table:
    return pa.concat_tables(list(ds.iter_batches(batch_size=None,
                                                 batch_format="pyarrow")))


def _stage_class():
    class Tag:
        """Appends the batch's row count, the stage object's id and the
        process id; counts one failed call per batch."""

        def __init__(self, bump: int):
            self.bump = bump
            self.failed_calls = 0

        def __call__(self, t):
            import os
            self.failed_calls += self.bump
            n = t.num_rows
            return (t.append_column("batch_rows", pa.array([n] * n))
                    .append_column("stage", pa.array([id(self)] * n))
                    .append_column("pid", pa.array([os.getpid()] * n)))
    return Tag


def test_pool_map_batches_order_reuse_and_close(ray_session):
    import ray.data as rd

    from agraph_ray.state.endpoint_pool import EndpointPool, pool_map
    tag = _stage_class()
    # three blocks of 4, 3 and 3 rows
    ds = rd.from_arrow([pa.table({"x": list(range(a, b))})
                        for a, b in ((0, 4), (4, 7), (7, 10))])
    pool = EndpointPool()
    out, failed = pool.map(ds, tag, {"bump": 1}, batch_size=4, num_actors=2)
    t = _table(out)
    assert t["x"].to_pylist() == list(range(10))          # input order
    assert t["batch_rows"].to_pylist() == [4] * 8 + [2] * 2
    assert failed == 3                                     # one per batch
    assert pool.size == 2
    again, _ = pool.map(ds, tag, {"bump": 1}, batch_size=4)
    # the same spec reuses each actor's stage object
    before = dict(zip(t["pid"].to_pylist(), t["stage"].to_pylist()))
    t2 = _table(again)
    for pid, stage in zip(t2["pid"].to_pylist(), t2["stage"].to_pylist()):
        assert before.get(pid, stage) == stage
    assert pool.size == 2
    pool.close()
    assert pool.size == 0
    assert wait_dead(set(t["pid"].to_pylist())) == []
    assert out.count() == 10          # outputs outlive the actors

    # without a pool, the call gets one scoped to it
    scoped, failed = pool_map(None, ds, tag, {"bump": 0}, batch_size=10,
                              num_actors=4)
    ts = _table(scoped)
    assert failed == 0 and ts["batch_rows"].to_pylist() == [10] * 10
    assert wait_dead(set(ts["pid"].to_pylist())) == []


def test_pool_map_empty_input(ray_session):
    import ray.data as rd

    from agraph_ray.state.endpoint_pool import EndpointPool
    ds = rd.from_arrow(pa.table({"x": pa.array([], pa.int64())}))
    with EndpointPool() as pool:
        out, failed = pool.map(ds, _stage_class(), {"bump": 1},
                               batch_size=4, num_actors=2)
        assert (out.count(), failed, pool.size) == (0, 0, 0)


def test_pool_concurrent_calls_keep_their_own_bound(ray_session):
    """Two overlapped calls of width 2 (the mention groups' shape) never
    share an actor: the pool grows to 4, and neither call has more than
    2 batches in flight."""
    import threading

    import ray.data as rd

    from agraph_ray.state.endpoint_pool import EndpointPool

    class Span:
        def __call__(self, t):
            import time
            t0 = time.time()
            time.sleep(0.5)
            n = t.num_rows
            return (t.append_column("t0", pa.array([t0] * n))
                    .append_column("t1", pa.array([time.time()] * n)))

    ds = rd.from_arrow(pa.table({"x": list(range(6))}))
    outs = {}
    with EndpointPool() as pool:
        def call(name):
            outs[name] = _table(pool.map(ds, Span, {}, batch_size=1,
                                         num_actors=2)[0])
        threads = [threading.Thread(target=call, args=(n,)) for n in "ab"]
        for th in threads:
            th.start()
        for th in threads:
            th.join()
        assert pool.size == 4
    for t in outs.values():
        assert t["x"].to_pylist() == list(range(6))
        spans = list(zip(t["t0"].to_pylist(), t["t1"].to_pylist()))
        # batches running at each batch's start
        assert max(sum(a <= s0 < b for a, b in spans)
                   for s0, _ in spans) <= 2
