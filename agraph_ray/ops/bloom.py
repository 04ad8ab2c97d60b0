"""Bloom-filter accelerated semi/anti joins.

The scale problem: ``cogroup_join(probe, build, how="semi")`` ships the
ENTIRE probe side through the hash shuffle even when only a sliver of it
matches. The classic fix (runtime filters in Spark/Presto) is a Bloom
filter: build a fixed-size bitmap over the build side's keys with a
distributed OR-reduce, broadcast it once (``ray.put``), and drop
definitely-non-matching probe rows map-side *before* any shuffle. Only
bloom-positive rows (true matches + a small false-positive tail) enter the
exact verify join, so shuffle volume scales with |matches|, not |probe|.

Results are EXACT: bloom positives are re-verified with ``cogroup_join``
(semi), and for anti joins bloom negatives are definitely-not-present and
pass straight through with zero shuffle — only positives are re-checked.

Sizing: ``m_bits`` should be ~10x the build-side key count for ~1% false
positives with k=7 probes (m/n=10 → fp ≈ 0.0082). The bitmap is fixed
size regardless of data volume (default 8M bits = 1 MiB), so the broadcast
and the OR-reduce are O(1) in the probe size. No reference counterpart —
§2.12 beyond-reference scale operator.
"""

from __future__ import annotations

from typing import Optional

import numpy as np
import pandas as pd
import pyarrow as pa
import ray

from ..stages.common import hash_frame

# two independent 16-byte hash keys for double hashing: g_j = h1 + j*h2
_HK1 = "0123456789123456"
_HK2 = "fedcba9876543210"


def _positions(vals: pd.Series, m_bits: int, k: int) -> np.ndarray:
    """(len(vals), k) uint64 bit positions via double hashing — fully
    vectorized, deterministic across processes (fixed pandas hash keys)."""
    h1 = pd.util.hash_pandas_object(vals, index=False,
                                    hash_key=_HK1).to_numpy()
    h2 = pd.util.hash_pandas_object(vals, index=False,
                                    hash_key=_HK2).to_numpy()
    # force h2 odd so the probe stride never degenerates to 0
    h2 = h2 | np.uint64(1)
    j = np.arange(k, dtype=np.uint64)
    return (h1[:, None] + j[None, :] * h2[:, None]) % np.uint64(m_bits)


def build_bloom(build: "ray.data.Dataset", on: str,
                m_bits: int = 1 << 23, k: int = 7) -> np.ndarray:
    """Distributed Bloom build: per-block bit-set + tree OR-merge via a
    custom AggregateFn. Returns the packed bitmap (m_bits/8 uint8)."""
    from ray.data.aggregate import AggregateFn

    m_bytes = m_bits // 8

    def acc_block(acc: np.ndarray, block) -> np.ndarray:
        t = block if isinstance(block, pa.Table) else pa.Table.from_pandas(
            block)
        if len(t) == 0:
            return acc
        pos = _positions(hash_frame(t, [on])[on], m_bits, k).ravel()
        acc = acc.copy()   # accumulators may be shared plasma buffers
        np.bitwise_or.at(acc, (pos >> np.uint64(3)).astype(np.int64),
                         (np.uint8(1) << (pos & np.uint64(7)).astype(
                             np.uint8)))
        return acc

    agg = AggregateFn(
        init=lambda _k: np.zeros(m_bytes, dtype=np.uint8),
        accumulate_block=acc_block,
        merge=lambda a, b: np.bitwise_or(a, b),
        name="bloom")
    return build.select_columns([on]).aggregate(agg)["bloom"]


def _member_mask(bloom: np.ndarray, vals: pd.Series, m_bits: int,
                 k: int) -> np.ndarray:
    pos = _positions(vals, m_bits, k)
    bits = (bloom[(pos >> np.uint64(3)).astype(np.int64)]
            >> (pos & np.uint64(7)).astype(np.uint8)) & np.uint8(1)
    return bits.all(axis=1)


def bloom_join(probe: "ray.data.Dataset", build: "ray.data.Dataset",
               on: str, how: str = "semi", m_bits: int = 1 << 23,
               k: int = 7, num_buckets: int = 64,
               exact: bool = True) -> "ray.data.Dataset":
    """Exact semi/anti join with a Bloom runtime filter on the probe side.

    ``how='semi'``: bloom-negative rows are dropped map-side (they cannot
    match); positives go through the exact ``cogroup_join`` semi verify.
    ``how='anti'``: bloom-negative rows are emitted map-side (they cannot
    be present); positives go through the exact anti verify. Either way
    the shuffle carries only the bloom-positive slice.

    ``exact=False`` skips the verify join (semi only) — approximate
    membership with fp ≈ (1-e^{-kn/m})^k, for pre-filters where a small
    false-positive tail is acceptable (e.g. candidate generation).
    """
    if how not in ("semi", "anti"):
        raise ValueError(f"bloom_join supports semi/anti, got {how!r}")
    from .join import cogroup_join

    bloom = build_bloom(build, on, m_bits=m_bits, k=k)
    ref = ray.put(bloom)

    def split(t: pa.Table, positive: bool) -> pa.Table:
        if len(t) == 0:
            return t
        m = _member_mask(ray.get(ref), hash_frame(t, [on])[on], m_bits, k)
        return t.filter(pa.array(m if positive else ~m))

    positives = probe.map_batches(lambda t: split(t, True),
                                  batch_format="pyarrow")
    if how == "semi" and not exact:
        return positives
    # exact verify on the (small) positive slice only
    keys = build.select_columns([on])
    verified = cogroup_join(positives, keys, on=[on], how=how,
                            num_buckets=num_buckets)
    if how == "semi":
        return verified
    negatives = probe.map_batches(lambda t: split(t, False),
                                  batch_format="pyarrow")
    return negatives.union(verified)
