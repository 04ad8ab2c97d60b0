"""Shared ANN index actor.

Replaces the reference's brute-force cosine scan over an in-heap vector dict
(agraph/storage/vector_storage.py:310-332) with a Ray actor holding a dense
float32 matrix; query batches hit it via vectorized numpy matmul. For
corpora beyond one node's memory, shard the matrix across an actor pool and
merge per-shard top-k on the caller (``AnnShardPool``).
"""

from __future__ import annotations

import json
import os
from typing import List, Optional, Tuple

import numpy as np
import ray


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
        m = np.asarray(matrix, dtype=np.float32)
        if m.ndim == 1:
            m = m.reshape(len(self.ids), -1)
        norms = np.linalg.norm(m, axis=1, keepdims=True)
        norms[norms == 0] = 1.0
        self.matrix = m / norms   # normalize once at build time
        # precision="float64": keep a double-normalized copy scored by
        # the exact path — bit-compatible with an external DOUBLE
        # cosine oracle (float32 scoring flips ties at the 1e-6 ulp).
        # 2x shard memory; the ANN structures stay float32.
        self.matrix64 = None
        if precision == "float64":
            m64 = np.asarray(matrix, dtype=np.float64)
            if m64.ndim == 1:
                m64 = m64.reshape(len(self.ids), -1)
            n64 = np.linalg.norm(m64, axis=1, keepdims=True)
            n64[n64 == 0] = 1.0
            self.matrix64 = m64 / n64
        # optional in-shard IVF: coarse centroids + member lists built
        # ONCE here (actor __init__), so query_ivf scans ~nprobe/nlist
        # of the shard instead of all of it
        self.ivf = None
        if ivf_nlist and len(self.ids) > ivf_nlist:
            from ..ops.similarity import _kmeans_centroids
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
            cents, order, starts = self.ivf
            assign = np.empty(len(self.ids), dtype=np.int64)
            for j in range(len(cents)):
                assign[order[starts[j]:starts[j + 1]]] = j
            resid = self.matrix - cents[assign]          # (n, d) float32
            dsub = dim // pq_m
            samp = resid[:min(len(resid), 8192)].astype(np.float64)
            ksub = int(min(256, max(2, len(samp))))
            from ..ops.similarity import _kmeans_centroids as _km
            books = np.empty((pq_m, ksub, dsub), dtype=np.float32)
            codes = np.empty((len(resid), pq_m), dtype=np.uint8)
            def _l2_assign(x, cb, block: int = 262144):
                # blockwise: the dense (n, ksub) distance matrix for a
                # million-vector shard would be GBs; cap it at ~256k rows
                out = np.empty(len(x), dtype=np.int64)
                cb2 = (cb ** 2).sum(1)[None]
                for s in range(0, len(x), block):
                    xx = x[s:s + block]
                    d2 = ((xx ** 2).sum(1)[:, None] - 2.0 * (xx @ cb.T)
                          + cb2)
                    out[s:s + block] = np.argmin(d2, axis=1)
                return out

            for j in range(pq_m):
                sub = samp[:, j * dsub:(j + 1) * dsub]
                # plain L2 Lloyd's on residual subvectors (deterministic:
                # first-k init over the id-ordered sample, fixed iters)
                cb = sub[:ksub].copy()
                for _ in range(8):
                    lab = _l2_assign(sub, cb)
                    for c in range(ksub):
                        mem = sub[lab == c]
                        cb[c] = mem.mean(0) if len(mem) else sub[c % len(sub)]
                books[j] = cb.astype(np.float32)
                codes[:, j] = _l2_assign(
                    resid[:, j * dsub:(j + 1) * dsub].astype(np.float64),
                    cb).astype(np.uint8)
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
        q = np.asarray(vecs, dtype=np.float32)
        qn = np.linalg.norm(q, axis=1, keepdims=True)
        qn[qn == 0] = 1.0
        qm = q / qn
        ef = max(ef, k)
        out_ids = np.full((len(qm), k), "", dtype=object)
        out_sims = np.full((len(qm), k), -np.inf, dtype=np.float32)
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
            top = best[:k]
            out_ids[qi, :len(top)] = self.ids[top]
            out_sims[qi, :len(top)] = [sims[t] for t in top]
        return out_ids, out_sims

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
        """(q, d) query matrix → (ids[q,k], sims[q,k]), cosine descending."""
        mat = self.matrix64 if self.matrix64 is not None else self.matrix
        q = np.asarray(vecs, dtype=mat.dtype)
        qn = np.linalg.norm(q, axis=1, keepdims=True)
        qn[qn == 0] = 1.0
        sims = (q / qn) @ mat.T                           # (q, n)
        k = min(k, sims.shape[1])
        part = np.argpartition(-sims, k - 1, axis=1)[:, :k]
        row = np.arange(sims.shape[0])[:, None]
        order = np.argsort(-sims[row, part], kind="stable", axis=1)
        top = part[row, order]
        return self.ids[top], sims[row, top]

    def query_ivf(self, vecs: np.ndarray, k: int = 10,
                  nprobe: int = 4) -> Tuple[np.ndarray, np.ndarray]:
        """Approximate top-k: score only the members of each query's
        ``nprobe`` nearest coarse lists. Requires ``ivf_nlist`` at build;
        ``nprobe >= nlist`` (or no IVF built) falls back to the exact
        scan. Rows beyond a query's k pad with id '' / sim -inf."""
        if self.ivf is None or nprobe >= len(self.ivf[0]):
            return self.query(vecs, k)
        cents, order, starts = self.ivf
        q = np.asarray(vecs, dtype=np.float32)
        qn = np.linalg.norm(q, axis=1, keepdims=True)
        qn[qn == 0] = 1.0
        qm = q / qn
        probes = np.argsort(-(qm @ cents.T), kind="stable",
                            axis=1)[:, :nprobe]
        out_ids = np.full((len(qm), k), "", dtype=object)
        out_sims = np.full((len(qm), k), -np.inf, dtype=np.float32)
        for qi in range(len(qm)):
            member = np.concatenate([
                order[starts[p]:starts[p + 1]] for p in probes[qi]])
            if not len(member):
                continue
            sims = self.matrix[member] @ qm[qi]
            kk = min(k, len(sims))
            part = np.argpartition(-sims, kk - 1)[:kk]
            sel = part[np.argsort(-sims[part], kind="stable")]
            out_ids[qi, :kk] = self.ids[member[sel]]
            out_sims[qi, :kk] = sims[sel]
        return out_ids, out_sims

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
        q = np.asarray(vecs, dtype=np.float32)
        qn = np.linalg.norm(q, axis=1, keepdims=True)
        qn[qn == 0] = 1.0
        qm = q / qn
        nprobe = min(nprobe, len(cents))
        coarse = qm @ cents.T                            # (Q, nlist)
        probes = np.argsort(-coarse, kind="stable", axis=1)[:, :nprobe]
        out_ids = np.full((len(qm), k), "", dtype=object)
        out_sims = np.full((len(qm), k), -np.inf, dtype=np.float32)
        col = np.arange(pq_m)
        for qi in range(len(qm)):
            # one LUT per query: LUT[j, c] = q_sub_j · codebook_j[c]
            lut = np.einsum("jd,jkd->jk",
                            qm[qi].reshape(pq_m, dsub), books)
            members, adc = [], []
            for p in probes[qi]:
                mem = order[starts[p]:starts[p + 1]]
                if not len(mem):
                    continue
                members.append(mem)
                adc.append(coarse[qi, p] + lut[col, codes[mem]].sum(axis=1))
            if not members:
                continue
            members = np.concatenate(members)
            adc = np.concatenate(adc)
            rr = min(rerank, len(members))
            cand = members[np.argpartition(-adc, rr - 1)[:rr]]
            sims = self.matrix[cand] @ qm[qi]
            kk = min(k, len(cand))
            part = np.argpartition(-sims, kk - 1)[:kk]
            sel = part[np.argsort(-sims[part], kind="stable")]
            out_ids[qi, :kk] = self.ids[cand[sel]]
            out_sims[qi, :kk] = sims[sel]
        return out_ids, out_sims

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
    """Merge per-shard (ids, sims) top-k results into a global top-k.
    Shared by the pool's query methods and by map tasks that fan a batch
    of queries over the shard actors themselves."""
    ids = np.concatenate([p[0] for p in parts], axis=1)
    sims = np.concatenate([p[1] for p in parts], axis=1)
    kk = min(k, sims.shape[1])
    row = np.arange(sims.shape[0])[:, None]
    part = np.argpartition(-sims, kk - 1, axis=1)[:, :kk]
    order = np.argsort(-sims[row, part], kind="stable", axis=1)
    top = part[row, order]
    return ids[row, top], sims[row, top]


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
