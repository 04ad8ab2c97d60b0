"""Deduplication operators (exact + near) for training-data pipelines.

Every variant follows the same scale shape:
  1. vectorized per-batch signature computation (``map_batches``),
  2. one hash shuffle on the signature/bucket key (``groupby``),
  3. per-group resolution (keep-first / pairwise verify) in ``map_groups``.

The quadratic work only ever happens *inside a bucket*, never globally —
the distributed replacement for the reference's O(n²) candidate scan
(agraph/builders/llm_builders.py:413-435).

Size constants, each read on the driver once per call:

- ``_KILL_BROADCAST_ROWS`` (2M rows): the kill lists of
  :func:`line_dedup` and :func:`neardedup_against` ride ``ray.put`` up to
  it, and anti-join back through a co-group above it;
- ``_SEMI_JOIN_IDS`` (20M ids): candidate verification filters the texts
  to the candidates' ids up to it, and shingles every text above it;
- ``_BROADCAST_IDS`` (200k ids) and ``_BROADCAST_BYTES`` (512 MB): up to
  both, the candidates' shingle sets ride ``ray.put`` and scoring needs
  no shuffle; above either, two bucketed shuffles score the pairs;
- ``_DRIVER_SCORE_PAIRS`` (20k pairs): on that broadcast side, up to it
  the pairs are scored on the driver, above it in a ``map_batches``.
"""

from __future__ import annotations

import hashlib
from typing import List, Optional, Tuple

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from .similarity import _unit

_KILL_BROADCAST_ROWS = 2_000_000
_SEMI_JOIN_IDS = 20_000_000
_BROADCAST_IDS = 200_000
_BROADCAST_BYTES = 512 << 20
_DRIVER_SCORE_PAIRS = 20_000

_MERSENNE = (1 << 61) - 1
_TOKEN_HASH_KEY = "agraph-ray-tok!!"          # 16 bytes, fixed -> deterministic
_GRAM_MULT = np.uint64(0x9E3779B97F4A7C15)   # odd golden-ratio constant


def _perm_constants(num_perm: int) -> np.ndarray:
    """(num_perm, 2) deterministic odd multipliers + offsets."""
    stream = b"".join(
        hashlib.md5(f"agraph-ray-minhash-{i}".encode()).digest()
        for i in range(num_perm))
    arr = np.frombuffer(stream, dtype=np.uint64).reshape(num_perm, 2).copy()
    arr[:, 0] |= 1  # odd multipliers
    return arr


def _hash_tokens(tokens) -> np.ndarray:
    """Vectorized stable 64-bit hash of a token/shingle array (SipHash via
    pandas.util.hash_array with a pinned key): one C call for the whole
    array instead of one Python md5 per element. Determinism across
    processes is pinned by tests/test_doc_dedup.py."""
    return pd.util.hash_array(np.asarray(tokens, dtype=object),
                              hash_key=_TOKEN_HASH_KEY, categorize=False)


# ---------------------------------------------------------------------------
# vectorized md5
# ---------------------------------------------------------------------------

_MD5_CON = None


def _md5_hex(arr) -> "pa.Array":
    """Vectorized md5 hex digest of a string Array/ChunkedArray via
    DuckDB's C++ kernel — byte-identical to
    ``hashlib.md5(s.encode()).hexdigest()`` per row (nulls hash as ""),
    so every DuckDB-pinned oracle is untouched, but ~2.4x faster than the
    per-row hashlib loop on short strings and with zero Python boxing of
    the text column. One cached single-threaded connection per worker
    process (threads=1 AND preserve_insertion_order=true pinned
    explicitly: callers zip the result positionally against sibling
    columns, so scan order MUST equal input order even if a future
    DuckDB changes the default). Falls back to the per-row hashlib loop
    when duckdb isn't installed — it is an optional extra, and exact
    dedup must keep working on a base install."""
    global _MD5_CON
    try:
        import duckdb
    except ImportError:
        return _md5_hex_py(arr)
    if _MD5_CON is None:
        _MD5_CON = duckdb.connect()
        _MD5_CON.execute("SET threads=1")
        _MD5_CON.execute("SET preserve_insertion_order=true")
    t = pa.table({"s": arr})
    out = _MD5_CON.execute(
        "SELECT md5(coalesce(s, '')) h FROM t").arrow()
    return out["h"].combine_chunks().cast(pa.string())


def _md5_hex_py(arr) -> "pa.Array":
    """Pure-hashlib fallback for base installs without duckdb."""
    vals = (arr.combine_chunks() if isinstance(arr, pa.ChunkedArray)
            else arr).to_pylist()
    return pa.array(
        [hashlib.md5((s or "").encode()).hexdigest() for s in vals],
        pa.string())

# ---------------------------------------------------------------------------
# exact dedup
# ---------------------------------------------------------------------------


def exact_dedup(ds: "ray.data.Dataset", text_col: str = "text",
                id_col: str = "doc_id") -> "ray.data.Dataset":
    """Keep one representative (min id) per exact text value.

    hash-partition on a content hash + per-group first — only the 16-byte
    hash and the id ride the shuffle, not the document bodies. The keyed
    min runs through the vectorized bucketed reduce (hash cardinality ~
    |corpus|, where the native Aggregate's Python per-row partial merges
    dominate); ``sig`` is also the map-side combiner — one candidate per
    hash per batch before the shuffle.
    """
    from ..stages.common import arrow_col_type, bucketed_group_reduce

    def sig(batch: pa.Table) -> pa.Table:
        t = pa.Table.from_arrays(
            [batch[id_col].combine_chunks(), _md5_hex(batch[text_col])],
            names=[id_col, "content_hash"])
        df = t.to_pandas().sort_values(id_col, kind="mergesort")
        return pa.Table.from_pandas(
            df.drop_duplicates("content_hash", keep="first"),
            preserve_index=False)

    def min_per_hash(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(id_col, kind="mergesort")
        return df.drop_duplicates("content_hash", keep="first")

    id_t = arrow_col_type(ds, id_col)
    reps = bucketed_group_reduce(
        ds.select_columns([id_col, text_col])
        .map_batches(sig, batch_format="pyarrow"),
        ["content_hash"], min_per_hash,
        schema=pa.schema([(id_col, id_t), ("content_hash", pa.string())]))
    return reps.select_columns(["content_hash", id_col])


def exact_dedup_by(ds: "ray.data.Dataset", text_col: str = "text",
                   id_col: str = "doc_id",
                   keep_cols: "List[str]" = (),
                   ascending: "List[bool]" = ()) -> "ray.data.Dataset":
    """Exact dedup with a configurable keep rule (the RefinedWeb/Dolma
    knob): one survivor per distinct ``text_col`` value, chosen as the
    first row under ``ORDER BY keep_cols..., id_col`` (per-column
    ``ascending`` flags; ties always resolve by ascending id). E.g.
    keep_cols=["source_rank"] keeps the most-trusted source's copy;
    keep_cols=["n_chars"], ascending=[False] keeps the longest.

    Scale shape matches exact_dedup: only (16-byte hash, id, keep cols)
    ride the shuffle; a map-side combiner keeps one candidate per hash
    per batch before the keyed reduce."""
    keep_cols = list(keep_cols)
    asc = list(ascending) if ascending else [True] * len(keep_cols)
    if len(asc) != len(keep_cols):
        raise ValueError("ascending must match keep_cols")
    order = keep_cols + [id_col]
    order_asc = asc + [True]

    def best(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(order, ascending=order_asc, kind="mergesort")
        return df.drop_duplicates("content_hash", keep="first")

    def sig(batch: pa.Table) -> pa.Table:
        cols = {id_col: batch[id_col].to_pandas(),
                "content_hash": _md5_hex(batch[text_col]).to_pandas()}
        for c in keep_cols:
            cols[c] = batch[c].to_pandas()
        return pa.Table.from_pandas(best(pd.DataFrame(cols)),
                                    preserve_index=False)

    from ..stages.common import bucketed_group_reduce
    sigs = ds.select_columns(
        [id_col, text_col, *keep_cols]).map_batches(
        sig, batch_format="pyarrow")
    out = bucketed_group_reduce(sigs, ["content_hash"], best)
    return out.drop_columns(["content_hash"])


def line_dedup(ds: "ray.data.Dataset", id_col: str = "conv_id",
               pos_col: str = "turn_idx", text_col: str = "text",
               num_buckets: int = 64) -> "ray.data.Dataset":
    """Corpus-level exact line/turn dedup (the CCNet paragraph-hash rule):
    keep only the globally FIRST occurrence — min ``(id, pos)``
    lexicographic — of every distinct ``text_col`` value; all later
    repetitions anywhere in the corpus are dropped. Run over transcript
    turns this strips boilerplate turns repeated across conversations;
    over newline-split documents it is line-level dedup.

    Scale shape: only ``(16-byte md5, id, pos)`` rides the winner shuffle —
    never the text. The kill list (duplicate occurrences only, bounded by
    the duplicate mass, not the corpus) is broadcast as a set while it has
    <= ``_KILL_BROADCAST_ROWS`` rows; past that it anti-joins back to the
    input via the bucketed co-group (one more shuffle, no driver state).
    """
    import ray
    import ray.data as rd

    from ..stages.common import arrow_col_type, bucketed_group_reduce
    from .join import cogroup_join

    def sig(batch: pa.Table) -> pa.Table:
        return pa.Table.from_arrays(
            [_md5_hex(batch[text_col]), batch[id_col].combine_chunks(),
             batch[pos_col].combine_chunks()],
            names=["h", id_col, pos_col])

    def losers(df: pd.DataFrame) -> pd.DataFrame:
        # global winner per hash = min (id, pos); everything else dies
        df = df.sort_values([id_col, pos_col], kind="stable")
        return df.loc[df.duplicated("h", keep="first"), [id_col, pos_col]]

    id_t = arrow_col_type(ds, id_col)
    pos_t = arrow_col_type(ds, pos_col)
    kill_schema = pa.schema([(id_col, id_t), (pos_col, pos_t)])
    kills = bucketed_group_reduce(
        ds.select_columns([id_col, pos_col, text_col]).map_batches(
            sig, batch_format="pyarrow"),
        ["h"], losers, num_buckets, schema=kill_schema).materialize()

    if kills.count() <= _KILL_BROADCAST_ROWS:
        dead = set()
        for b in kills.iter_batches(batch_size=None, batch_format="pyarrow"):
            dead.update(zip(b[id_col].to_pylist(), b[pos_col].to_pylist()))
        dead_ref = ray.put(dead)

        def keep(batch: pa.Table) -> pa.Table:
            d = ray.get(dead_ref)
            mask = pa.array([(i, p) not in d for i, p in
                             zip(batch[id_col].to_pylist(),
                                 batch[pos_col].to_pylist())])
            return batch.filter(mask)

        return ds.map_batches(keep, batch_format="pyarrow")
    return cogroup_join(ds, kills.union(rd.from_arrow(
        kill_schema.empty_table())), on=[id_col, pos_col], how="anti")


def dedup_against(new: "ray.data.Dataset", existing: "ray.data.Dataset",
                  text_col: str = "text", id_col: str = "doc_id",
                  m_bits: int = 1 << 23) -> "ray.data.Dataset":
    """Incremental exact dedup: rows of ``new`` whose text content does
    NOT already occur in ``existing`` — the corpus-growth primitive (a
    fresh crawl batch against a 100-TB corpus).

    Both sides reduce to 16-byte content hashes map-side; the existing
    side's hashes feed a Bloom bitmap (ops/bloom.py — fixed-size,
    OR-reduced, broadcast once), so the typical mostly-novel batch passes
    through with ZERO shuffle of the existing corpus: only bloom-positive
    new rows (true dups + <1% false positives) are re-verified exactly
    against the existing hash set. Within ``new`` itself, exact
    duplicates collapse to the min-id representative first (same rule as
    :func:`exact_dedup`). Returns (id_col, content_hash) of survivors."""
    from .bloom import bloom_join

    def sig(batch: pa.Table) -> pa.Table:
        return pa.Table.from_arrays(
            [batch[id_col].combine_chunks(), _md5_hex(batch[text_col])],
            names=[id_col, "content_hash"])

    new_reps = exact_dedup(new, text_col=text_col, id_col=id_col)
    old_hashes = (existing.select_columns([id_col, text_col])
                  .map_batches(sig, batch_format="pyarrow")
                  .select_columns(["content_hash"]))
    out = bloom_join(new_reps, old_hashes, on="content_hash", how="anti",
                     m_bits=m_bits)
    return out.select_columns([id_col, "content_hash"])


def neardedup_against(new: "ray.data.Dataset", existing: "ray.data.Dataset",
                      text_col: str = "text", id_col: str = "doc_id",
                      jaccard_threshold: float = 0.8, num_perm: int = 64,
                      bands: int = 16, max_bucket: int = 1000
                      ) -> "ray.data.Dataset":
    """Incremental NEAR-dup filter: rows of ``new`` with no near-duplicate
    (word-shingle Jaccard >= ``jaccard_threshold``) in ``existing`` — the
    crawl-growth sibling of :func:`dedup_against` (exact tier) one rung up
    the curation ladder. Document ids must be DISJOINT across the sides.

    Scale shape: both corpora are signed map-side into ``(id, band,
    bucket)`` rows (never text). Candidate pairs are generated only
    CROSS-side inside each (band, bucket) — new x existing, each side
    capped at ``max_bucket`` ids per bucket — so an all-new or all-old
    bucket emits nothing. Verification co-groups candidate-incident
    shingle sets through the same two bucketed shuffles as
    :func:`minhash_dedup` (semi-join pruned). The kill list (new ids with
    a confirmed existing near-dup, bounded by the duplicate mass) is
    broadcast under ``_KILL_BROADCAST_ROWS`` rows, else anti-joined back
    via the bucketed co-group. Within-batch near-dups are out of scope —
    run :func:`minhash_dedup` on ``new`` first if needed."""
    import ray
    import ray.data as rd

    from ..stages.common import arrow_col_type, bucketed_group_reduce
    from .join import cogroup_join

    signer = MinHashSigner(num_perm, bands, text_col=text_col,
                           id_col=id_col)
    id_t = arrow_col_type(new, id_col)
    pd_id = "int64" if pa.types.is_integer(id_t) else "object"

    def band_side(side: int):
        def f(t: pa.Table) -> pa.Table:
            return t.append_column(
                "side", pa.array(np.full(len(t), side, np.int8)))
        return f

    band_rows = (new.select_columns([id_col, text_col])
                 .map_batches(signer, batch_format="pyarrow")
                 .map_batches(band_side(0), batch_format="pyarrow")
                 .union(existing.select_columns([id_col, text_col])
                        .map_batches(signer, batch_format="pyarrow")
                        .map_batches(band_side(1), batch_format="pyarrow")))

    def cross_pairs(df: pd.DataFrame) -> pd.DataFrame:
        """Per (band, bucket): new_ids x old_ids only. One lexsort +
        boundary scan; the loop touches only buckets holding BOTH sides
        (rare — almost every bucket is a singleton or one-sided)."""
        n = len(df)
        empty = pd.DataFrame({"a": pd.Series(dtype=pd_id),
                              "b": pd.Series(dtype=pd_id)})
        if n == 0:
            return empty
        band = df["band"].to_numpy()
        buck = df["bucket"].to_numpy()
        ids = df[id_col].to_numpy()
        side = df["side"].to_numpy(dtype=np.int8)
        order = np.lexsort((ids, side, buck, band))
        band, buck, ids, side = (band[order], buck[order], ids[order],
                                 side[order])
        new_grp = np.empty(n, dtype=bool)
        new_grp[0] = True
        new_grp[1:] = (band[1:] != band[:-1]) | (buck[1:] != buck[:-1])
        starts = np.flatnonzero(new_grp)
        sizes = np.diff(np.append(starts, n))
        # a bucket can produce cross pairs only if it holds both sides
        out_a, out_b = [], []
        for s, size in zip(starts[sizes >= 2], sizes[sizes >= 2]):
            sl = slice(s, s + size)
            sd = side[sl]
            if sd[0] == sd[-1]:          # one-sided (sorted by side)
                continue
            k = int(np.searchsorted(sd, 1))
            a_ids = np.unique(ids[sl][:k])[:max_bucket]
            b_ids = np.unique(ids[sl][k:])[:max_bucket]
            ai, bi = np.meshgrid(a_ids, b_ids, indexing="ij")
            out_a.append(ai.ravel())
            out_b.append(bi.ravel())
        if not out_a:
            return empty
        return pd.DataFrame({
            "a": pd.Series(np.concatenate(out_a), dtype=pd_id),
            "b": pd.Series(np.concatenate(out_b), dtype=pd_id)})

    pair_schema = pa.schema([("a", id_t), ("b", id_t)])
    cand = bucketed_group_reduce(band_rows, ["band", "bucket"],
                                 cross_pairs, schema=pair_schema).union(
        rd.from_arrow(pair_schema.empty_table()))

    texts_all = (new.select_columns([id_col, text_col])
                 .union(existing.select_columns([id_col, text_col])))
    scored = _jaccard_scored_pairs(texts_all, cand, signer, id_col,
                                   text_col)
    kills = scored.map_batches(
        lambda t: t.filter(pc.greater_equal(
            t["jaccard"], jaccard_threshold)).select(["a"]),
        batch_format="pyarrow").materialize()

    if kills.count() <= _KILL_BROADCAST_ROWS:
        dead: set = set()
        for b in kills.iter_batches(batch_size=None, batch_format="pyarrow"):
            dead.update(b["a"].to_pylist())
        dead_ref = ray.put(dead)

        def keep(batch: pa.Table) -> pa.Table:
            d = ray.get(dead_ref)
            vals = pc.cast(batch[id_col].combine_chunks(),
                           id_t).to_pylist()
            return batch.filter(pa.array([v not in d for v in vals]))

        return new.map_batches(keep, batch_format="pyarrow")
    kills_typed = kills.map_batches(
        lambda t: pa.Table.from_arrays(
            [pc.cast(t["a"].combine_chunks(), id_t)], names=[id_col]),
        batch_format="pyarrow")
    return cogroup_join(new, kills_typed, on=[id_col], how="anti")


# ---------------------------------------------------------------------------
# minhash-LSH near-dup
# ---------------------------------------------------------------------------


class MinHashSigner:
    """map_batches callable: text → minhash band rows.

    Word shingles (w-grams) hashed with a vectorized stable 64-bit scheme —
    per-token SipHash (one pandas C call per document) combined into w-gram
    hashes by a fixed-constant polynomial over uint64 (wraparound) — then
    minhashed by multiply-shift permutations (fixed constants), banded for
    LSH. No per-shingle Python hashing anywhere: the round-1 profile showed
    one md5 call per shingle per document dominating the signer.
    ``stages.canonicalize.MinHashBander`` reuses it with char shingles.
    """

    def __init__(self, num_perm: int = 64, bands: int = 16,
                 shingle_w: int = 3, text_col: str = "text",
                 id_col: str = "doc_id"):
        assert num_perm % bands == 0
        self.num_perm, self.bands = num_perm, bands
        self.rows = num_perm // bands
        self.w = shingle_w
        self.text_col, self.id_col = text_col, id_col
        self.perms = _perm_constants(num_perm)

    def shingles(self, text: str) -> np.ndarray:
        toks = text.lower().split()
        n = len(toks)
        if n < self.w:
            return _hash_tokens([" ".join(toks) if toks else ""])
        th = _hash_tokens(toks)
        m = n - self.w + 1
        with np.errstate(over="ignore"):
            g = np.zeros(m, dtype=np.uint64)
            for k in range(self.w):
                g = g * _GRAM_MULT + th[k:k + m]
        return np.unique(g)

    def signature(self, text: str) -> np.ndarray:
        h = self.shingles(text)
        a, b = self.perms[:, 0][:, None], self.perms[:, 1][:, None]
        return ((a * h[None, :] + b) % _MERSENNE).min(axis=1)

    def batch_shingles(self, texts: List[Optional[str]]
                       ) -> Tuple[np.ndarray, np.ndarray]:
        """(all texts' :meth:`shingles` concatenated, per-text counts)."""
        sets = [self.shingles(t or "") for t in texts]
        lens = np.fromiter((len(s) for s in sets), dtype=np.int64,
                           count=len(sets))
        return (np.concatenate(sets) if sets
                else np.empty(0, dtype=np.uint64)), lens

    def batch_signatures(self, texts: List[Optional[str]]) -> np.ndarray:
        """(n_docs, num_perm) uint64 — identical values to per-doc
        :meth:`signature`, computed with one ``minimum.reduceat`` pass per
        permutation over the batch's concatenated shingle vector instead of
        one (num_perm x n_shingles) matrix op per document. Memory stays
        O(total shingles in batch) regardless of num_perm."""
        h, lens = self.batch_shingles(texts)
        n = len(lens)
        sig = np.empty((n, self.num_perm), dtype=np.uint64)
        if n == 0:
            return sig
        starts = np.zeros(n, dtype=np.int64)
        np.cumsum(lens[:-1], out=starts[1:])
        with np.errstate(over="ignore"):
            for p in range(self.num_perm):
                a, b = self.perms[p, 0], self.perms[p, 1]
                sig[:, p] = np.minimum.reduceat((a * h + b) % _MERSENNE,
                                                starts)
        return sig

    def band_buckets(self, sig: np.ndarray) -> np.ndarray:
        """(n, bands) uint64 LSH bucket per band: a fixed-constant
        polynomial over the band's chunk of the signature."""
        sig3 = sig.reshape(len(sig), self.bands, self.rows)
        with np.errstate(over="ignore"):
            buck = np.zeros(sig3.shape[:2], dtype=np.uint64)
            for r in range(self.rows):
                buck = buck * _GRAM_MULT + sig3[:, :, r]
        return buck

    def __call__(self, batch: pa.Table) -> pa.Table:
        """→ one (id, band, bucket) row per document per band. The bucket
        is a fixed-constant polynomial over the band's signature chunk —
        identical signatures collide identically (all the blocking needs),
        with zero per-document Python hashing (the md5-per-band version
        was 4M md5 calls for a 250k-doc corpus)."""
        buck = self.band_buckets(
            self.batch_signatures(batch[self.text_col].to_pylist()))
        n = len(batch)
        ids = batch[self.id_col].combine_chunks().take(
            pa.array(np.repeat(np.arange(n, dtype=np.int64), self.bands)))
        return pa.Table.from_arrays(
            [ids,
             pa.array(np.tile(np.arange(self.bands, dtype=np.int32), n)),
             pa.array(buck.reshape(-1))],
            names=[self.id_col, "band", "bucket"])


def minhash_lsh_groups(ds: "ray.data.Dataset", text_col: str = "text",
                       id_col: str = "doc_id", num_perm: int = 64,
                       bands: int = 16, max_bucket: int = 1000,
                       dedup: bool = True) -> "ray.data.Dataset":
    """→ candidate near-duplicate pairs (a, b) with a < b.

    Pairs are generated only inside (band, bucket) groups, capped at
    ``max_bucket`` ids per bucket. ``dedup=False`` skips the cross-band
    distinct (one whole shuffle round) — callers whose downstream stage
    already groups by (a, b) (the Jaccard verify) dedup for free and
    should pass False; the duplicate factor is bounded by ``bands``.
    """
    from ..stages.common import arrow_col_type, bucketed_group_reduce, \
        distinct_on
    signer = MinHashSigner(num_perm, bands, text_col=text_col, id_col=id_col)
    bandrows = ds.select_columns([id_col, text_col]).map_batches(
        signer, batch_format="pyarrow")
    # doc ids may be any comparable type (int64 in the bench tables,
    # strings in user corpora) — the lexsort/unique kernels below are
    # dtype-generic, so only the output schema needs to follow the input
    id_type = arrow_col_type(ds, id_col)
    pd_id = "int64" if pa.types.is_integer(id_type) else "object"
    np_id = np.int64 if pa.types.is_integer(id_type) else object

    def pairs(df: pd.DataFrame) -> pd.DataFrame:
        """Vectorized per-bucket pair expansion. Almost every (band,
        bucket) group is a singleton — a pandas ``groupby`` loop here
        dispatches Python once per group (observed: 14 s for 4M band rows
        at 250k docs). Instead: one lexsort, boundary detection, direct
        pairing for the dominant size-2 groups, and a loop only over the
        rare larger buckets."""
        n = len(df)
        if n == 0:
            return pd.DataFrame({"a": pd.Series(dtype=pd_id),
                                 "b": pd.Series(dtype=pd_id)})
        band = df["band"].to_numpy()
        buck = df["bucket"].to_numpy()
        ids = df[id_col].to_numpy()
        order = np.lexsort((ids, buck, band))
        band, buck, ids = band[order], buck[order], ids[order]
        new = np.empty(n, dtype=bool)
        new[0] = True
        new[1:] = (band[1:] != band[:-1]) | (buck[1:] != buck[:-1])
        starts = np.flatnonzero(new)
        sizes = np.diff(np.append(starts, n))
        out_a, out_b = [], []
        two = starts[sizes == 2]
        if len(two):
            a2, b2 = ids[two], ids[two + 1]
            neq = a2 != b2
            out_a.append(a2[neq]); out_b.append(b2[neq])
        for s, size in zip(starts[sizes > 2], sizes[sizes > 2]):
            u = np.unique(ids[s:s + size])[:max_bucket]
            if len(u) >= 2:
                iu, ju = np.triu_indices(len(u), k=1)
                out_a.append(u[iu]); out_b.append(u[ju])
        a = np.concatenate(out_a) if out_a else np.empty(0, np_id)
        b = np.concatenate(out_b) if out_b else np.empty(0, np_id)
        return pd.DataFrame({"a": pd.Series(a, dtype=pd_id),
                             "b": pd.Series(b, dtype=pd_id)})

    import ray.data as rd
    pair_schema = pa.schema([("a", id_type), ("b", id_type)])
    cand = bucketed_group_reduce(bandrows, ["band", "bucket"], pairs,
                                 schema=pair_schema)
    if dedup:
        cand = distinct_on(cand, ["a", "b"])
    # zero-row anchor: a corpus with no candidate pairs must still yield a
    # typed (schema-bearing) dataset for the downstream joins
    return cand.union(rd.from_arrow(pair_schema.empty_table()))


def _shingle_sets(texts: "ray.data.Dataset", signer: "MinHashSigner",
                  id_col: str, text_col: str) -> "ray.data.Dataset":
    """(id, sh: list<uint64>) — each document's word-shingle hash set."""
    def sh(batch: pa.Table) -> pa.Table:
        out = [np.unique(signer.shingles(t or "")).tolist()
               for t in batch[text_col].to_pylist()]
        return pa.Table.from_arrays(
            [batch[id_col].combine_chunks(),
             pa.array(out, pa.list_(pa.uint64()))],
            names=[id_col, "sh"])
    return texts.map_batches(sh, batch_format="pyarrow")


def _jaccard_scored_pairs(texts: "ray.data.Dataset", cand: "ray.data.Dataset",
                          signer: "MinHashSigner", id_col: str,
                          text_col: str) -> "ray.data.Dataset":
    """cand(a, b) → (a, b, jaccard), fully distributed.

    NO driver-side text dict and no corpus broadcast (the round-1 version
    broadcast every document body and crashed past 200k docs). Two regimes:

    **Small candidate set** (≤ ``_BROADCAST_IDS`` distinct endpoints AND
    the candidates' shingle sets fit ``_BROADCAST_BYTES``): the shingle
    sets of CANDIDATE DOCUMENTS ONLY — never the corpus — are computed
    distributed, collected, and broadcast once via ``ray.put``; scoring is
    a single shuffle-free ``map_batches`` over the distinct pairs. This is
    the common case (near-dup candidates are a tiny fraction of the corpus)
    and restores the pre-rewrite wall-time (r2 regression: the general path
    paid two bucketed shuffles for 256 pairs).

    **Large candidate set** (fallback): two bucketed shuffles, reading the
    shingle table exactly once —

      1. key-join by document id: each candidate pair emits a request row
         per endpoint; the shingle table is unioned in and each request
         picks up its document's shingle set (vectorized pandas merge per
         bucket). Only candidate-incident shingle sets leave this stage.
      2. group by (a, b): the two endpoint rows meet and exact Jaccard is
         computed per pair.

    Semi-join reduction: only documents that appear in a candidate pair
    need a shingle set at all — the distinct endpoint *ids* (ids only,
    never text) are collected, broadcast once, and used to filter ``texts``
    before shingling. Above ``_SEMI_JOIN_IDS`` distinct ids the filter is
    skipped and every document's shingle set rides the shuffle as before
    (at 20M ids the broadcast vector is 160 MB — past that, the shuffle
    is the cheaper citizen)."""
    import ray
    from ..stages.common import arrow_col_type, bucketed_group_reduce

    # ids may be int64 (bench tables) or strings (user corpora): every
    # kernel below keys on raw id values and parametrizes dtypes
    id_t = arrow_col_type(texts, id_col)
    int_ids = pa.types.is_integer(id_t)
    pd_id = "int64" if int_ids else "object"

    cand = cand.materialize()   # consumed twice: id collection + requests
    ids: Optional[set] = set()
    pairs: Optional[set] = set()   # distinct (a, b) — collected alongside
    for b in cand.select_columns(["a", "b"]).iter_batches(
            batch_size=None, batch_format="pyarrow"):
        a_l, b_l = b["a"].to_pylist(), b["b"].to_pylist()
        ids.update(a_l)
        ids.update(b_l)
        if pairs is not None:
            pairs.update(zip(a_l, b_l))
            if len(pairs) > 4 * _BROADCAST_IDS:
                pairs = None    # too many pairs to hold → shuffle regime
        if len(ids) > _SEMI_JOIN_IDS:
            ids = None
            pairs = None
            break
    if ids is not None:
        wanted = np.fromiter(ids, dtype=np.int64, count=len(ids)) \
            if int_ids else np.array(sorted(ids), dtype=object)
        wanted.sort()
        wanted_ref = ray.put(wanted)

        def keep(t: pa.Table) -> pa.Table:
            w = ray.get(wanted_ref)   # zero-copy numpy view
            vals = t[id_col].combine_chunks().to_numpy(
                zero_copy_only=False)
            return t.filter(pa.array(np.isin(vals, w, assume_unique=False)))

        texts = texts.map_batches(keep, batch_format="pyarrow")

    sh = _shingle_sets(texts, signer, id_col, text_col)

    if (pairs is not None and ids is not None
            and len(ids) <= _BROADCAST_IDS):
        # ---- broadcast regime: candidate-only shingle sets, no shuffle.
        # Shingling still runs distributed; the driver only collects the
        # candidates' uint64 hash arrays under a hard bytes guard.
        sh_map: Optional[dict] = {}
        nbytes = 0
        for b in sh.iter_batches(batch_size=None, batch_format="pyarrow"):
            for i, s in zip(
                    b[id_col].to_pylist(),
                    b["sh"].combine_chunks()):
                arr = np.asarray(s.values, dtype=np.uint64)
                sh_map[i] = arr
                nbytes += arr.nbytes + 96
            if nbytes > _BROADCAST_BYTES:
                sh_map = None   # candidates too heavy → shuffle regime
                break
        if sh_map is not None:
            import ray.data as rd
            pair_list = sorted(pairs)
            a_col = pa.array([p[0] for p in pair_list], id_t)
            b_col = pa.array([p[1] for p in pair_list], id_t)
            empty_u64 = np.empty(0, dtype=np.uint64)
            if len(pair_list) <= _DRIVER_SCORE_PAIRS:
                # Tiny pair set: score on the driver — the shingle map is
                # already local, and skipping the scoring execution saves a
                # whole streaming-executor round (~0.5 s fixed cost) that
                # dominated this path at bench scale.
                jac = np.empty(len(pair_list), dtype=np.float64)
                for k, (ai, bi) in enumerate(pair_list):
                    sa = sh_map.get(ai, empty_u64)
                    sb = sh_map.get(bi, empty_u64)
                    inter = np.intersect1d(sa, sb, assume_unique=True).size
                    union = sa.size + sb.size - inter
                    jac[k] = (inter / union) if union else 0.0
                return rd.from_arrow(pa.Table.from_arrays(
                    [a_col, b_col, pa.array(jac)],
                    names=["a", "b", "jaccard"]))
            sh_ref = ray.put(sh_map)
            dcand = rd.from_arrow(pa.Table.from_arrays(
                [a_col, b_col], names=["a", "b"]))
            if len(pair_list) > 4096:
                dcand = dcand.repartition(max(
                    2, min(64, len(pair_list) // 4096)))

            def score_bc(t: pa.Table) -> pa.Table:
                m = ray.get(sh_ref)
                a_np = t["a"].to_numpy(zero_copy_only=False)
                b_np = t["b"].to_numpy(zero_copy_only=False)
                jac = np.empty(len(t), dtype=np.float64)
                for k in range(len(t)):
                    sa = m.get(a_np[k], empty_u64)
                    sb = m.get(b_np[k], empty_u64)
                    # shingle sets are sorted-unique (np.unique output)
                    inter = np.intersect1d(sa, sb, assume_unique=True).size
                    union = sa.size + sb.size - inter
                    jac[k] = (inter / union) if union else 0.0
                return pa.Table.from_arrays(
                    [t["a"], t["b"], pa.array(jac)],
                    names=["a", "b", "jaccard"])

            return dcand.map_batches(score_bc, batch_format="pyarrow")

    def tag_sh(t: pa.Table) -> pa.Table:
        return pa.Table.from_arrays(
            [pc.cast(t[id_col].combine_chunks(), id_t),
             pa.nulls(len(t), id_t), pa.nulls(len(t), id_t),
             t["sh"].combine_chunks()],
            names=["key", "a", "b", "sh"])

    def tag_req(t: pa.Table) -> pa.Table:
        a = pc.cast(t["a"].combine_chunks(), id_t)
        b = pc.cast(t["b"].combine_chunks(), id_t)
        empty = pa.nulls(len(t), pa.list_(pa.uint64()))
        ta = pa.Table.from_arrays([a, a, b, empty],
                                  names=["key", "a", "b", "sh"])
        tb = pa.Table.from_arrays([b, a, b, empty],
                                  names=["key", "a", "b", "sh"])
        return pa.concat_tables([ta, tb])

    stage1_schema = pa.schema([("a", id_t), ("b", id_t),
                               ("key", id_t),
                               ("sh", pa.list_(pa.uint64()))])

    def fetch(df: pd.DataFrame) -> pd.DataFrame:
        selfs = df.loc[df["a"].isna(), ["key", "sh"]]
        reqs = df.loc[df["a"].notna(), ["key", "a", "b"]]
        return reqs.merge(selfs, on="key", how="inner")

    tagged = (sh.map_batches(tag_sh, batch_format="pyarrow")
              .union(cand.map_batches(tag_req, batch_format="pyarrow")))
    fetched = bucketed_group_reduce(tagged, ["key"], fetch,
                                    schema=stage1_schema)

    def score(df: pd.DataFrame) -> pd.DataFrame:
        """Each (a, b) group holds exactly two rows — the a-endpoint's and
        the b-endpoint's shingle sets (candidates are distinct ids drawn
        from the shingle table)."""
        a_o, b_o, j_o = [], [], []
        for (a, b), g in df.groupby(["a", "b"], sort=False):
            by_key = {k: set(s) for k, s in zip(g["key"], g["sh"])}
            sa, sb = by_key.get(a, set()), by_key.get(b, set())
            union = len(sa | sb)
            a_o.append(a); b_o.append(b)
            j_o.append((len(sa & sb) / union) if union else 0.0)
        return pd.DataFrame({"a": pd.Series(a_o, dtype=pd_id),
                             "b": pd.Series(b_o, dtype=pd_id),
                             "jaccard": pd.Series(j_o, dtype="float64")})

    return bucketed_group_reduce(
        fetched, ["a", "b"], score,
        schema=pa.schema([("a", id_t), ("b", id_t),
                          ("jaccard", pa.float64())]))


def minhash_dedup(ds: "ray.data.Dataset", text_col: str = "text",
                  id_col: str = "doc_id", jaccard_threshold: float = 0.8,
                  num_perm: int = 64, bands: int = 16) -> "ray.data.Dataset":
    """Near-dup dedup: LSH candidates → exact token-shingle Jaccard verify →
    connected components → survivors (min id per component + singletons).

    The verify stage is fully distributed (``_jaccard_scored_pairs``); only
    the matched-duplicate id set — bounded by the number of near-dups, not
    the corpus — is broadcast for the survivor filter."""
    import ray
    from ..state.unionfind import connected_components

    texts = ds.select_columns([id_col, text_col])
    cand = minhash_lsh_groups(texts, text_col, id_col, num_perm, bands,
                              dedup=False)
    signer = MinHashSigner(num_perm, bands, text_col=text_col, id_col=id_col)
    scored = _jaccard_scored_pairs(texts, cand, signer, id_col, text_col)

    def to_match(batch: pa.Table) -> pa.Table:
        m = batch.filter(pc.greater_equal(batch["jaccard"],
                                          jaccard_threshold))
        return pa.Table.from_arrays(
            [pc.cast(m["a"], pa.string()), pc.cast(m["b"], pa.string())],
            names=["src", "dst"])

    matches = scored.map_batches(to_match, batch_format="pyarrow")
    labels = connected_components(matches)
    # survivor = min id per component, compared in the id column's OWN
    # type — numeric min for integer ids (the string component label is
    # the lexicographic min: "102" < "2"), plain min for string ids.
    # Membership is bounded by the matched-duplicate set, never the corpus.
    from ..stages.common import arrow_col_type
    int_ids = pa.types.is_integer(arrow_col_type(ds, id_col))
    comp_min: dict = {}
    members = []
    for b in labels.iter_batches(batch_size=None, batch_format="pyarrow"):
        for node, lab in zip(b["node"].to_pylist(), b["label"].to_pylist()):
            v = int(node) if int_ids else node
            members.append((v, lab))
            if lab not in comp_min or v < comp_min[lab]:
                comp_min[lab] = v
    dup_ids = {v for v, lab in members if v != comp_min[lab]}

    dup_ref = ray.put(dup_ids)

    def survivors(batch: pa.Table) -> pa.Table:
        dead = ray.get(dup_ref)
        mask = pa.array([i not in dead for i in batch[id_col].to_pylist()])
        return batch.filter(mask)

    return ds.map_batches(survivors, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# simhash near-dup
# ---------------------------------------------------------------------------


from functools import lru_cache


@lru_cache(maxsize=1 << 18)
def _md5_u64(tok: str) -> int:
    """Per-token md5 (the simhash token hash), memoized per worker —
    natural-language token vocabularies repeat heavily, so the md5 runs
    once per distinct token instead of once per occurrence."""
    return int.from_bytes(hashlib.md5(tok.encode()).digest()[:8], "little")


class SimHasher:
    """64-bit simhash over word tokens; bands of 16 bits for blocking
    (hamming distance <= 3 guarantees one of 4 bands matches exactly).

    Output is bit-identical to a per-token md5 loop; the computation is
    restructured as unique-tokens-with-counts + one vectorized bit-matrix
    reduction per document (weighted by occurrence count) instead of 64
    Python bit-ops per token occurrence."""

    def __init__(self, text_col: str = "text", id_col: str = "doc_id"):
        self.text_col, self.id_col = text_col, id_col

    @staticmethod
    def simhash64(tokens: List[str]) -> int:
        if not tokens:
            return 0
        uniq, counts = np.unique(np.asarray(tokens, dtype=object),
                                 return_counts=True)
        h = np.fromiter((_md5_u64(t) for t in uniq),
                        dtype=np.uint64, count=len(uniq))
        shifts = np.arange(64, dtype=np.uint64)
        bits = ((h[:, None] >> shifts[None, :]) & np.uint64(1)).astype(np.int64)
        acc = ((2 * bits - 1) * counts[:, None].astype(np.int64)).sum(axis=0)
        return int(((acc > 0).astype(np.uint64) << shifts).sum())

    def __call__(self, batch: pa.Table) -> pa.Table:
        # Per-doc loop is deliberate: a batch-level occurrence-expansion
        # variant (one np.unique + segment-sum per batch) was measured
        # 3.7x SLOWER — numpy's 2-D cumsum/reduceat run ~10M elem/s while
        # the per-doc path rides the memoized token-md5 cache.
        hashes = [self.simhash64((t or "").lower().split())
                  for t in batch[self.text_col].to_pylist()]
        return pa.Table.from_arrays(
            [batch[self.id_col].combine_chunks(),
             pa.array(np.array(hashes, dtype=np.uint64))],
            names=[self.id_col, "simhash"])


def simhash_signatures(ds: "ray.data.Dataset", text_col: str = "text",
                       id_col: str = "doc_id") -> "ray.data.Dataset":
    return ds.select_columns([id_col, text_col]).map_batches(
        SimHasher(text_col, id_col), batch_format="pyarrow")


def simhash_near_dup_pairs(ds: "ray.data.Dataset", text_col: str = "text",
                           id_col: str = "doc_id", max_hamming: int = 3):
    """Candidate pairs with hamming(simhash) <= max_hamming via 16-bit-band
    blocking, verified exactly inside each block."""
    from ..stages.common import arrow_col_type
    sigs = simhash_signatures(ds, text_col, id_col)
    pd_id = "int64" if pa.types.is_integer(arrow_col_type(ds, id_col)) \
        else "object"

    def band_rows(batch: pa.Table) -> pa.Table:
        """Vectorized (id, band, 16-bit-band-key, simhash) expansion."""
        n = len(batch)
        h = np.asarray(batch["simhash"].to_numpy(zero_copy_only=False),
                       dtype=np.uint64)
        shifts = (np.uint64(16) * np.arange(4, dtype=np.uint64))[None, :]
        keys = ((h[:, None] >> shifts) & np.uint64(0xFFFF)).astype(np.int32)
        rep = pa.array(np.repeat(np.arange(n, dtype=np.int64), 4))
        return pa.Table.from_arrays(
            [batch[id_col].combine_chunks().take(rep),
             pa.array(np.tile(np.arange(4, dtype=np.int32), n)),
             pa.array(keys.reshape(-1)),
             pa.array(np.repeat(h, 4))],
            names=[id_col, "band", "bkey", "simhash"])

    def pairs(df: pd.DataFrame) -> pd.DataFrame:
        """Vectorized within-block pair expansion + hamming filter. A
        pandas groupby loop dispatches Python per (band, bkey) block —
        ~260k blocks at 250k docs. Instead: one lexsort, per-size-class
        triu index construction (few distinct block sizes), and one
        unpackbits popcount over all candidate pairs at once."""
        empty = pd.DataFrame({"a": pd.Series(dtype=pd_id),
                              "b": pd.Series(dtype=pd_id),
                              "hamming": pd.Series(dtype="int32")})
        n = len(df)
        if n == 0:
            return empty
        band = df["band"].to_numpy()
        bkey = df["bkey"].to_numpy()
        ids = df[id_col].to_numpy()
        sims = df["simhash"].to_numpy(dtype=np.uint64)
        order = np.lexsort((ids, bkey, band))
        band, bkey, ids, sims = (band[order], bkey[order], ids[order],
                                 sims[order])
        new = np.empty(n, dtype=bool)
        new[0] = True
        new[1:] = (band[1:] != band[:-1]) | (bkey[1:] != bkey[:-1])
        starts = np.flatnonzero(new)
        sizes = np.diff(np.append(starts, n))
        ii, jj = [], []
        for s in np.unique(sizes):
            if s < 2:
                continue
            st = starts[sizes == s]
            iu, ju = np.triu_indices(int(s), k=1)
            ii.append((st[:, None] + iu[None, :]).reshape(-1))
            jj.append((st[:, None] + ju[None, :]).reshape(-1))
        if not ii:
            return empty
        i = np.concatenate(ii)
        j = np.concatenate(jj)
        x = np.ascontiguousarray(sims[i] ^ sims[j])
        ham = np.unpackbits(x.view(np.uint8)).reshape(-1, 64).sum(
            axis=1).astype(np.int32)
        keep = ham <= max_hamming
        return pd.DataFrame({
            "a": pd.Series(ids[i][keep], dtype="int64"),
            "b": pd.Series(ids[j][keep], dtype="int64"),
            "hamming": pd.Series(ham[keep], dtype="int32")})

    from ..stages.common import bucketed_group_reduce, distinct_on
    cand = bucketed_group_reduce(
        sigs.map_batches(band_rows, batch_format="pyarrow"),
        ["band", "bkey"], pairs)
    return distinct_on(cand, ["a", "b"])


# ---------------------------------------------------------------------------
# n-gram Jaccard pairs (within LSH blocks)
# ---------------------------------------------------------------------------


def ngram_jaccard_pairs(ds: "ray.data.Dataset", threshold: float = 0.5,
                        text_col: str = "text", id_col: str = "doc_id",
                        num_perm: int = 64, bands: int = 16):
    """(a, b, jaccard) for candidate pairs above ``threshold`` — LSH
    blocking + exact word-3-gram Jaccard verification, fully distributed
    (shingle sets shipped to the pairs via bucketed joins; no driver
    materialization of the corpus)."""
    texts = ds.select_columns([id_col, text_col])
    cand = minhash_lsh_groups(texts, text_col, id_col, num_perm, bands,
                              dedup=False)
    signer = MinHashSigner(num_perm, bands, text_col=text_col, id_col=id_col)
    scored = _jaccard_scored_pairs(texts, cand, signer, id_col, text_col)
    return scored.map_batches(
        lambda t: t.filter(pc.greater_equal(t["jaccard"], threshold)),
        batch_format="pyarrow")


# ---------------------------------------------------------------------------
# embedding-cosine near-dup
# ---------------------------------------------------------------------------


def embedding_near_dup_pairs(ds: "ray.data.Dataset",
                             threshold: float = 0.95,
                             vec_col: str = "embedding",
                             id_col: str = "vec_id",
                             num_planes: int = 12,
                             num_tables: int = 4):
    """(a, b, cosine) pairs above ``threshold`` via random-hyperplane LSH:
    ``num_tables`` independent sign-hash buckets; exact cosine verify inside
    each bucket. Plane matrices are deterministic (md5-seeded)."""
    rng = np.random.default_rng(
        int.from_bytes(hashlib.md5(b"agraph-ray-hyperplanes").digest()[:4],
                       "little"))
    planes = [rng.standard_normal((num_planes, 64)) for _ in range(num_tables)]

    def bucket_rows(batch: pa.Table) -> pa.Table:
        vl = batch[vec_col].to_pylist()
        vecs = np.asarray(vl, dtype=np.float32)
        ids = batch[id_col].to_pylist()
        o_ids, o_tbl, o_key, o_vec = [], [], [], []
        for t, P in enumerate(planes):
            signs = (vecs @ P[:, :vecs.shape[1]].T) > 0       # (n, planes)
            keys = (signs.astype(np.uint32)
                    << np.arange(num_planes, dtype=np.uint32)).sum(axis=1)
            o_ids.extend(ids)
            o_tbl.extend([t] * len(ids))
            o_key.extend(keys.tolist())
            o_vec.extend(vl)
        return pa.Table.from_arrays(
            [pa.array(o_ids), pa.array(o_tbl, pa.int32()),
             pa.array(o_key, pa.int64()),
             pa.array(o_vec, batch.schema.field(vec_col).type)],
            names=[id_col, "tbl", "bkey", vec_col])

    def pairs(df: pd.DataFrame) -> pd.DataFrame:
        a, b, c = [], [], []
        for _, g in df.groupby(["tbl", "bkey"], sort=False):
            g = g.drop_duplicates(id_col).sort_values(id_col)
            ids = g[id_col].tolist()
            n = len(ids)
            if n <= 1:
                continue
            unit = _unit(np.asarray(g[vec_col].tolist(), dtype=np.float64))
            sims = unit @ unit.T
            ii, jj = np.triu_indices(n, k=1)
            keep = sims[ii, jj] >= threshold
            a.extend(ids[i] for i in ii[keep])
            b.extend(ids[j] for j in jj[keep])
            c.extend(sims[ii[keep], jj[keep]].tolist())
        return pd.DataFrame({"a": pd.Series(a, dtype="int64"),
                             "b": pd.Series(b, dtype="int64"),
                             "cosine": pd.Series(c, dtype="float64")})

    from ..stages.common import bucketed_group_reduce, distinct_on
    cand = bucketed_group_reduce(
        ds.select_columns([id_col, vec_col]).map_batches(
            bucket_rows, batch_format="pyarrow"),
        ["tbl", "bkey"], pairs)
    return distinct_on(cand, ["a", "b"])


def _gear_table() -> np.ndarray:
    """256 deterministic u64 gear values (md5 of each byte value)."""
    import hashlib
    return np.array([int.from_bytes(
        hashlib.md5(bytes([i])).digest()[:8], "little")
        for i in range(256)], dtype=np.uint64)


def cdc_chunk_stats(ds: "ray.data.Dataset", id_col: str = "doc_id",
                    col: str = "text", mask_bits: int = 11,
                    num_buckets: int = 64) -> "ray.data.Dataset":
    """Content-defined chunking dedup statistics (FastCDC/gear-hash
    family): split every document's bytes at positions where a 64-byte
    gear rolling hash has ``mask_bits`` low zero bits (avg chunk ≈
    2^mask_bits bytes, boundaries move WITH content, so an insertion
    only re-chunks its neighborhood — the storage-dedup property that
    fixed-size blocks lack), then measure corpus-level chunk dedup →
    one row ``(n_chunks, n_distinct, total_bytes, distinct_bytes,
    dedup_ratio_micro)``.

    Vectorized: the rolling recurrence h_i = (h_{i-1}<<1) + gear[b_i]
    expands to 64 shifted vector adds per batch (no per-byte Python);
    chunk hashes ride the shuffle, never chunk bytes."""
    import hashlib

    from ..stages.common import bucketed_group_reduce

    gear = _gear_table()
    mask = np.uint64((1 << mask_bits) - 1)

    def chunk_partial(batch: pa.Table) -> pa.Table:
        texts = batch[col].to_pylist()
        hashes, sizes = [], []
        for s in texts:
            b = np.frombuffer(s.encode("utf-8"), dtype=np.uint8)
            n = len(b)
            if n == 0:
                continue
            g = gear[b]
            acc = np.zeros(n, dtype=np.uint64)
            for j in range(min(64, n)):
                acc[j:] += g[:n - j] << np.uint64(j)
            cut = np.flatnonzero((acc & mask) == 0) + 1
            bounds = np.unique(np.concatenate(([0], cut, [n])))
            for lo, hi in zip(bounds[:-1], bounds[1:]):
                hashes.append(hashlib.md5(
                    b[lo:hi].tobytes()).hexdigest()[:16])
                sizes.append(int(hi - lo))
        return pa.table({"h": pa.array(hashes, pa.string()),
                         "size": pa.array(sizes, pa.int64()),
                         "cnt": pa.array([1] * len(hashes), pa.int64())})

    def combine(df: pd.DataFrame) -> pd.DataFrame:
        return df.groupby(["h", "size"], as_index=False,
                          sort=False)["cnt"].sum()

    per_chunk = bucketed_group_reduce(
        ds.select_columns([id_col, col]).map_batches(
            chunk_partial, batch_format="pyarrow").map_batches(
            combine, batch_format="pandas"),
        ["h"], combine, num_buckets,
        schema=pa.schema([("h", pa.string()), ("size", pa.int64()),
                          ("cnt", pa.int64())]))

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        total_b = int((df["size"] * df["cnt"]).sum())
        dist_b = int(df["size"].sum())
        ratio = 1.0 - (dist_b / total_b if total_b else 0.0)
        return pd.DataFrame({
            "n_chunks": [int(df["cnt"].sum())],
            "n_distinct": [len(df)],
            "total_bytes": [total_b],
            "distinct_bytes": [dist_b],
            "dedup_ratio_micro": [int(np.floor(ratio * 1e6 + 0.5))]})

    return per_chunk.repartition(1).map_batches(finish,
                                                batch_format="pandas")
