"""Shared ANN index actor: the resident placement of the vector search.

Replaces the reference's brute-force cosine scan over an in-heap vector dict
(agraph/storage/vector_storage.py:310-332) with a Ray actor holding a dense
float32 matrix; query batches hit it via vectorized numpy matmul. For
corpora beyond one node's memory, shard the matrix across an actor pool and
merge per-shard top-k on the caller (``AnnShardPool``).

The arithmetic is ops/similarity.py's kernels, the same ones the streamed
scans run: ``_unit`` normalizes, ``_topk`` ranks every query result and
the merge by (-sim, id), ``_probe`` picks the IVF lists, and
``_kmeans_centroids`` trains the IVF quantizer and the PQ codebooks. So a
pool answers the same whatever its shard count.
"""

from __future__ import annotations

import json
import os
from typing import List, Optional, Tuple

import numpy as np
import ray

from ..ops.similarity import (_kmeans_centroids, _l2_assign, _probe, _topk,
                              _unit)


@ray.remote
class AnnIndexActor:
    """One shard of a cosine-similarity index.

    Built either from in-memory (ids, matrix) or from a parquet shard file
    (``path=``) the actor reads itself — on load the driver never touches
    vector data, so pool size is bounded by cluster memory, not driver
    heap."""

    def __init__(self, ids: Optional[List[str]] = None,
                 matrix: Optional[np.ndarray] = None,
                 path: Optional[str] = None, ivf_nlist: int = 0,
                 pq_m: int = 0, hnsw_m: int = 0,
                 hnsw_ef_construction: int = 64,
                 precision: str = "float32"):
        if path is not None:
            import pyarrow.parquet as pq
            t = pq.read_table(path)
            # zero-copy load: read the FixedSizeList values buffer
            # straight into the numpy matrix — to_pylist() would box
            # every float of the shard as a Python object (~10-20x
            # slower and transiently ~4x the memory at 10^8 vectors)
            ids = t["id"].combine_chunks().to_numpy(zero_copy_only=False)
            v = t["vec"].combine_chunks()
            flat = v.flatten().to_numpy(zero_copy_only=False)
            matrix = (flat.reshape(len(t), -1) if len(t)
                      else np.empty((0, 0), dtype=np.float32))
        self.ids = np.asarray(ids)

        def unit_rows(dtype):
            m = np.asarray(matrix, dtype=dtype)
            return _unit(m.reshape(len(self.ids), -1) if m.ndim == 1 else m)

        self.matrix = unit_rows(np.float32)   # normalize once at build time
        # precision="float64": keep a double-normalized copy scored by
        # the exact path — bit-compatible with an external DOUBLE
        # cosine oracle (float32 scoring flips ties at the 1e-6 ulp).
        # 2x shard memory; the ANN structures stay float32.
        self.matrix64 = (unit_rows(np.float64) if precision == "float64"
                         else None)
        # optional in-shard IVF: coarse centroids + member lists built
        # ONCE here (actor __init__), so query_ivf scans ~nprobe/nlist
        # of the shard instead of all of it
        self.ivf = None
        if ivf_nlist and len(self.ids) > ivf_nlist:
            sample = self.matrix[:min(len(self.ids), 4096)] \
                .astype(np.float64)
            cents = _kmeans_centroids(sample, ivf_nlist) \
                .astype(np.float32)
            assign = np.argmax(self.matrix @ cents.T, axis=1)
            order = np.argsort(assign, kind="stable")
            starts = np.searchsorted(assign[order],
                                     np.arange(len(cents) + 1))
            self.ivf = (cents, order, starts)
        # optional product quantization over IVF residuals — the sublinear
        # 100-TB path: codes are n x pq_m uint8 (vs n x d float32), ADC
        # scoring touches only the probed lists' codes, and the exact
        # matrix is consulted just for the final re-rank. Shared-codebook
        # IVF-PQ (one codebook set for all lists; Jegou et al. 2011).
        self.pq = None
        if pq_m and self.ivf is not None:
            dim = self.matrix.shape[1]
            if dim % pq_m:
                raise ValueError(f"pq_m={pq_m} must divide dim={dim}")
            resid = self.matrix - cents[assign]           # (n, d) float32
            dsub = dim // pq_m
            samp = resid[:min(len(resid), 8192)].astype(np.float64)
            ksub = int(min(256, max(2, len(samp))))
            books = np.empty((pq_m, ksub, dsub), dtype=np.float32)
            codes = np.empty((len(resid), pq_m), dtype=np.uint8)
            for j in range(pq_m):
                cols = slice(j * dsub, (j + 1) * dsub)
                # L2 Lloyd's on the residual subvectors of the sample
                cb = _kmeans_centroids(samp[:, cols], ksub, iters=8,
                                       metric="l2")
                books[j] = cb
                codes[:, j] = _l2_assign(resid[:, cols].astype(np.float64),
                                         cb)[0]
            self.pq = (books, codes)

        # optional navigable-small-world graph index (HNSW-family):
        # greedy beam search over a bounded-degree k-NN graph. The graph
        # is built by VECTORIZED NN-descent (Dong et al., WWW 2011 —
        # "neighbors of neighbors are likely neighbors"): start from a
        # deterministic pseudo-random graph, repeatedly score each
        # node's neighbors-of-neighbors in blockwise einsum batches and
        # keep the top-M — no per-insert Python loop, so the build is
        # numpy-bound (~2 s at 20k x 64, vs 220 s for sequential
        # HNSW inserts measured in-sandbox). Query cost is
        # O(hops x M) gathers instead of O(n) — the crossover vs the
        # matmul exact scan sits around 10^6 vectors/shard in pure
        # numpy; below that prefer query()/query_ivf.
        self.hnsw = None
        if hnsw_m and len(self.ids) > 2 * hnsw_m:
            self.hnsw = self._build_hnsw(int(hnsw_m),
                                         int(hnsw_ef_construction))

    def _build_hnsw(self, m: int, efc: int, iters: int = 6,
                    block: int = 4096):
        n = len(self.ids)
        # deterministic pseudo-random init graph (no RNG state): a
        # fixed odd-multiplier hash of (node, slot), self-loops bumped
        idx = np.arange(n, dtype=np.int64)[:, None]
        slot = np.arange(m, dtype=np.int64)[None, :]
        nbrs = ((idx * 2654435761 + slot * 40503 + 7) % n)
        nbrs = np.where(nbrs == idx, (nbrs + 1) % n, nbrs).astype(np.int32)

        def top_m(cand):
            """cand: (b, C) candidate ids for a block of nodes starting
            at offset ``off`` — score against the block's own vectors
            and keep the best m distinct."""
            b = cand.shape[0]
            # score: sims[i, j] = v_i . v_cand[i, j]
            g = self.matrix[cand]                        # (b, C, d)
            sims = np.einsum("bd,bcd->bc", blockv, g)
            # drop self-matches and duplicate candidates (keep first)
            sims[cand == node_ids[:, None]] = -np.inf
            order = np.argsort(-sims, kind="stable", axis=1)
            sc = np.take_along_axis(cand, order, axis=1)
            out = np.empty((b, m), dtype=np.int32)
            for r in range(b):                # cheap: C ~ m + m*m ints
                row = sc[r]
                _, first = np.unique(row, return_index=True)
                keep = np.zeros(len(row), dtype=bool)
                keep[first] = True
                k = row[keep][:m]
                out[r, :len(k)] = k
                if len(k) < m:
                    # pad with the node's GLOBAL id (self-loop, ignored
                    # by the beam) — never the block-local index r
                    out[r, len(k):] = k[-1] if len(k) else node_ids[r]
            return out

        for _ in range(iters):
            new = np.empty_like(nbrs)
            for s in range(0, n, block):
                e = min(s + block, n)
                node_ids = np.arange(s, e, dtype=np.int64)
                blockv = self.matrix[s:e]                # (b, d)
                two_hop = nbrs[nbrs[s:e]].reshape(e - s, -1)
                cand = np.concatenate([nbrs[s:e], two_hop], axis=1)
                new[s:e] = top_m(cand.astype(np.int64))
            if np.array_equal(new, nbrs):
                break
            nbrs = new
        # a pure k-NN graph fragments on clustered data (each cluster
        # becomes its own clique, unreachable from the entry point —
        # measured recall 0.17 on 16-cluster data). Keep a few PERMANENT
        # pseudo-random long-range links per node (the HNSW upper
        # layers' role) so the beam can hop between clusters.
        n_long = max(2, m // 4)
        long_links = ((idx * 97003 + slot[:, :n_long] * 127 + 13) % n)
        long_links = np.where(long_links == idx, (long_links + 1) % n,
                              long_links).astype(np.int32)
        return (np.concatenate([nbrs, long_links], axis=1), None)

    def query_hnsw(self, vecs: np.ndarray, k: int = 10,
                   ef: int = 64) -> Tuple[np.ndarray, np.ndarray]:
        """Approximate top-k via beam search over the NSW graph
        (requires ``hnsw_m`` at build; falls back to the exact scan
        otherwise). ``ef`` >= k is the beam width — recall knob. When
        ``ef`` covers the whole shard the beam degenerates to a full
        scan, so fall through to the exact matmul directly — same
        exact-coverage contract as ``query_ivf`` at nprobe >= nlist
        (this is the oracle-checkable exact-re-rank mode: candidates =
        everything, exact cosine, deterministic vec-id tie order)."""
        if self.hnsw is None or ef >= len(self.ids):
            return self.query(vecs, k)
        nbrs, _ = self.hnsw
        qm = _unit(np.asarray(vecs, dtype=np.float32))
        ef = max(ef, k)
        rows = []
        # several id-spread entry points (plus the long links kept at
        # build) de-fragment clustered data — a single entry can strand
        # the beam inside one cluster's subgraph
        entries = np.unique(np.linspace(
            0, len(self.ids) - 1, 8).astype(np.int64))
        for qi in range(len(qm)):
            v = qm[qi]
            es = self.matrix[entries] @ v
            sims = {int(e): float(s) for e, s in zip(entries, es)}
            visited = set(sims)
            frontier = list(sims)
            best = sorted(sims, key=lambda i: -sims[i])[:ef]
            while frontier:
                cand = np.unique(nbrs[frontier][nbrs[frontier] >= 0])
                cand = np.array([c for c in cand if c not in visited],
                                dtype=np.int64)
                frontier = []
                if len(cand):
                    cs = self.matrix[cand] @ v
                    visited.update(cand.tolist())
                    floor = sims[best[-1]] if len(best) >= ef else -np.inf
                    for c, s in zip(cand.tolist(), cs.tolist()):
                        sims[c] = s
                        if s > floor or len(best) < ef:
                            frontier.append(c)
                    best = sorted(set(best) | set(cand.tolist()),
                                  key=lambda i: -sims[i])[:ef]
            rows.append((np.array([sims[b] for b in best], np.float32),
                         self.ids[best]))
        return _topk(rows, k)

    def save(self, path: str) -> int:
        """Persist this shard (normalized vectors; normalization is
        idempotent on reload) — float64 vectors for a float64 shard, so
        its exact scores survive a reload. Written by the actor — the
        matrix never rides through the driver."""
        import pyarrow as pa
        import pyarrow.parquet as pq
        mat = self.matrix64 if self.matrix64 is not None else self.matrix
        dim = mat.shape[1] if mat.size else 0
        t = pa.table({
            "id": pa.array(self.ids.tolist(), pa.string()),
            "vec": pa.FixedSizeListArray.from_arrays(
                pa.array(mat.reshape(-1)), dim),
        })
        pq.write_table(t, path)
        return len(self.ids)

    def query(self, vecs: np.ndarray, k: int = 10) -> Tuple[np.ndarray, np.ndarray]:
        """(q, d) query matrix → (ids[q,k], sims[q,k]), ranked by
        (-cosine, id)."""
        mat = self.matrix64 if self.matrix64 is not None else self.matrix
        sims = _unit(np.asarray(vecs, dtype=mat.dtype)) @ mat.T   # (q, n)
        return _topk([(s, self.ids) for s in sims], min(k, len(self.ids)))

    def query_ivf(self, vecs: np.ndarray, k: int = 10,
                  nprobe: int = 4) -> Tuple[np.ndarray, np.ndarray]:
        """Approximate top-k: score only the members of each query's
        ``nprobe`` nearest coarse lists. Requires ``ivf_nlist`` at build;
        ``nprobe >= nlist`` (or no IVF built) falls back to the exact
        scan. Rows beyond a query's k pad with id '' / sim -inf."""
        if self.ivf is None or nprobe >= len(self.ivf[0]):
            return self.query(vecs, k)
        cents, order, starts = self.ivf
        qm = _unit(np.asarray(vecs, dtype=np.float32))
        rows = []
        for q, probes in zip(qm, _probe(qm, cents, nprobe)):
            member = np.concatenate([
                order[starts[p]:starts[p + 1]] for p in probes])
            rows.append((self.matrix[member] @ q, self.ids[member]))
        return _topk(rows, k)

    def query_pq(self, vecs: np.ndarray, k: int = 10, nprobe: int = 4,
                 rerank: int = 0) -> Tuple[np.ndarray, np.ndarray]:
        """Sublinear approximate top-k via IVF-PQ asymmetric distance:
        per query, only the ``nprobe`` nearest lists' uint8 codes are
        scored (one (pq_m, ksub) lookup table per query, summed over code
        columns), then the best ``rerank`` candidates (default 4k) are
        re-scored exactly against the float matrix. Requires ``pq_m`` and
        ``ivf_nlist`` at build; falls back to the exact scan otherwise.

        score(x) ≈ q·c_list + Σ_j LUT[j, code_j(x)]   (cosine, since the
        stored vectors are unit-normalized at build)."""
        if self.pq is None:
            return self.query(vecs, k)
        cents, order, starts = self.ivf
        books, codes = self.pq
        pq_m, ksub, dsub = books.shape
        rerank = rerank or 4 * k
        qm = _unit(np.asarray(vecs, dtype=np.float32))
        coarse = qm @ cents.T                            # (Q, nlist)
        col = np.arange(pq_m)
        rows = []
        for qi, probes in enumerate(_probe(qm, cents, nprobe)):
            # one LUT per query: LUT[j, c] = q_sub_j · codebook_j[c]
            lut = np.einsum("jd,jkd->jk",
                            qm[qi].reshape(pq_m, dsub), books)
            members = np.concatenate([
                order[starts[p]:starts[p + 1]] for p in probes])
            lists = np.repeat(probes, starts[probes + 1] - starts[probes])
            adc = coarse[qi, lists] + lut[col, codes[members]].sum(axis=1)
            # the shortlist ranks by (-adc, row); the exact re-rank below
            # ranks what is reported by (-sim, id)
            cand, _ = _topk([(adc, members)], min(rerank, len(members)))
            cand = cand[0].astype(np.int64)
            rows.append((self.matrix[cand] @ qm[qi], self.ids[cand]))
        return _topk(rows, k)

    def hnsw_graph(self) -> Optional[np.ndarray]:
        """Adjacency (n, m + n_long) int32 of the NSW graph, for tests
        and diagnostics; None when no graph was built."""
        return self.hnsw[0] if self.hnsw is not None else None

    def size(self) -> int:
        return len(self.ids)


def _shard_opts(scheduling_strategy: Optional[str] = None):
    """Actor options for shard actors. No explicit num_cpus: a plain
    actor reserves 1 CPU at creation but 0 for its lifetime, so an idle
    pool never starves map tasks. ``scheduling_strategy="SPREAD"``
    places one shard per node so the index's aggregate memory/bandwidth
    scales with the cluster instead of stacking on whichever node has
    room."""
    if scheduling_strategy:
        return AnnIndexActor.options(scheduling_strategy=scheduling_strategy)
    return AnnIndexActor


def merge_topk(parts, k: int):
    """Merge per-shard (ids, sims) top-k results into a global top-k,
    ranked by (-sim, id) like each shard's, so the merged answer does not
    depend on the shard count. Shared by the pool's query methods and by
    map tasks that fan a batch of queries over the shard actors
    themselves."""
    ids = np.concatenate([p[0] for p in parts], axis=1)
    sims = np.concatenate([p[1] for p in parts], axis=1)
    # a shard's '' / -inf pads are not candidates (and '' need not
    # compare with the ids); _topk pads the merged rows again
    real = sims > -np.inf
    return _topk(((s[r], i[r]) for s, i, r in zip(sims, ids, real)),
                 min(k, sims.shape[1]))


class AnnShardPool:
    """Driver-side handle over N index shards; merges per-shard top-k."""

    def __init__(self, ids: List[str], matrix: np.ndarray,
                 num_shards: int = 4, ivf_nlist: int = 0, pq_m: int = 0,
                 hnsw_m: int = 0, precision: str = "float32",
                 scheduling_strategy: Optional[str] = None):
        n = max(1, min(num_shards, len(ids)))
        bounds = np.linspace(0, len(ids), n + 1, dtype=int)
        self.precision = precision
        opts = _shard_opts(scheduling_strategy)
        self.shards = [
            opts.remote(list(np.asarray(ids)[a:b]), matrix[a:b],
                        ivf_nlist=ivf_nlist, pq_m=pq_m,
                        hnsw_m=hnsw_m, precision=precision)
            for a, b in zip(bounds, bounds[1:]) if b > a
        ]

    def query_hnsw(self, vecs: np.ndarray, k: int = 10, ef: int = 64):
        """Merged NSW-graph top-k across shards (same contract as
        query; requires ``hnsw_m`` at build, exact fallback without)."""
        parts = ray.get([s.query_hnsw.remote(vecs, k, ef)
                         for s in self.shards])
        return merge_topk(parts, k)

    def query_pq(self, vecs: np.ndarray, k: int = 10, nprobe: int = 4,
                 rerank: int = 0):
        """Merged IVF-PQ top-k across shards (same contract as query)."""
        parts = ray.get([s.query_pq.remote(vecs, k, nprobe, rerank)
                         for s in self.shards])
        return merge_topk(parts, k)

    def query(self, vecs: np.ndarray, k: int = 10):
        parts = ray.get([s.query.remote(vecs, k) for s in self.shards])
        return merge_topk(parts, k)

    def save(self, out_dir: str) -> dict:
        """Persist the pool as one parquet file per shard + manifest.json.
        Shards write themselves concurrently."""
        os.makedirs(out_dir, exist_ok=True)
        files = [f"shard-{i:05d}.parquet" for i in range(len(self.shards))]
        counts = ray.get([s.save.remote(os.path.join(out_dir, f))
                          for s, f in zip(self.shards, files)])
        manifest = {"shards": files, "counts": counts,
                    "precision": self.precision}
        with open(os.path.join(out_dir, "manifest.json"), "w") as fh:
            json.dump(manifest, fh)
        return manifest

    @classmethod
    def load(cls, out_dir: str, ivf_nlist: int = 0,
             pq_m: int = 0, hnsw_m: int = 0,
             scheduling_strategy: Optional[str] = None) -> "AnnShardPool":
        """Rebuild a pool from :meth:`save` output — each actor reads its
        own shard file; no vector data crosses the driver. The saved
        ``precision`` is restored. Pass ``ivf_nlist``/``pq_m``/``hnsw_m``
        to rebuild the in-shard index on load (each actor trains over its
        own shard, concurrently)."""
        with open(os.path.join(out_dir, "manifest.json")) as fh:
            manifest = json.load(fh)
        pool = cls.__new__(cls)
        pool.precision = manifest.get("precision", "float32")
        opts = _shard_opts(scheduling_strategy)
        pool.shards = [opts.remote(path=os.path.join(out_dir, f),
                                   ivf_nlist=ivf_nlist, pq_m=pq_m,
                                   hnsw_m=hnsw_m, precision=pool.precision)
                       for f in manifest["shards"]]
        return pool
