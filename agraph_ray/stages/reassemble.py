"""Stage A — conversation reassembly.

``transcripts(conv_id, turn_idx, role, text, tool, ts)`` →
``documents(conv_id, doc_seq, text, n_turns, first_turn_idx)``

Semantics (BASELINE.json north_star step 1): group turns by ``conv_id``,
sort each group by ``turn_idx`` and concatenate turn texts with
``cfg.turn_separator``, preserving per-turn text equality under stable turn
ordering. The reference's equivalent is restoring input order after its
async fan-out (agraph/builders/llm_builders.py:243-246) — here order lives
inside the group, never across the whole dataset.

Skew handling (SURVEY.md §7.5 item 4): every conversation is *salted* —
its shuffle key is ``conv_id#(turn_idx // cfg.salt_span)``, so a
conversation that fits one span is one group, and a 10^6-turn conversation
becomes ~turns/salt_span independent groups instead of pinning one reducer.
Each salted group emits a sub-document with ``doc_seq = salt``; downstream
extraction treats sub-documents independently (matches cross a sub-document
boundary are lost — bounded, documented approximation).
"""

from __future__ import annotations

from typing import Optional

import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray

from ..config import KGConfig

DOCS_SCHEMA = pa.schema([
    ("conv_id", pa.string()),
    ("doc_seq", pa.int32()),
    ("text", pa.string()),
    ("n_turns", pa.int32()),
    ("first_turn_idx", pa.int32()),
])


def reassemble(ds: "ray.data.Dataset",
               cfg: Optional[KGConfig] = None) -> "ray.data.Dataset":
    """Reassemble conversations into documents (see module docstring)."""
    cfg = cfg or KGConfig()
    span = int(cfg.salt_span)
    sep = cfg.turn_separator

    # Universal salting: group key = conv_id # (turn_idx // span). A
    # conversation whose turn indexes fit inside one span lands in exactly
    # one group — identical to unsalted grouping — while a 10^6-turn
    # conversation splits into turns/span independent groups automatically.
    # No hot-key detection pre-pass needed (the previous design scanned the
    # WHOLE input once just to count turns per conv — a full extra pass
    # over 100 TB).
    def add_group_key(batch: pa.Table) -> pa.Table:
        salt = pc.divide(batch["turn_idx"], span)
        key = pc.binary_join_element_wise(
            batch["conv_id"], pc.cast(salt, pa.string()), "#")
        return batch.append_column("group_key", key)

    def assemble_bucket(df: pd.DataFrame) -> pd.DataFrame:
        """Whole-bucket reduction: one sort + one pandas groupby handles
        every conversation in the bucket (no per-group UDF dispatch)."""
        df = df.sort_values(["group_key", "turn_idx"], kind="mergesort")
        df = df.assign(text=df["text"].fillna(""))   # null turn = ""
        g = df.groupby("group_key", sort=False)
        out = g.agg(conv_id=("conv_id", "first"),
                    text=("text", sep.join),
                    n_turns=("text", "size"),
                    first_turn_idx=("turn_idx", "first"))
        out["doc_seq"] = out["first_turn_idx"] // span
        return out.reset_index(drop=True)[
            ["conv_id", "doc_seq", "text", "n_turns", "first_turn_idx"]]

    keyed = ds.select_columns(["conv_id", "turn_idx", "text"]).map_batches(
        add_group_key, batch_format="pyarrow")
    from .common import bucketed_group_reduce
    return bucketed_group_reduce(keyed, ["group_key"], assemble_bucket,
                                 num_buckets=256, schema=DOCS_SCHEMA)


def conversation_stats(transcripts: "ray.data.Dataset") -> "ray.data.Dataset":
    """Per-conversation shape statistics straight off the turns table —
    the triage pass a transcript corpus gets before any KG work:
    ``(conv_id, n_turns, n_user, n_assistant, n_tool_calls, total_chars,
    max_turn_chars)``. Per-batch combiner (one partial row per conv per
    batch) before a single small groupby-sum — no text ever rides the
    shuffle, only per-conv counters."""
    from ray.data.aggregate import Max, Sum

    def partial(t: pa.Table) -> pa.Table:
        chars = pc.utf8_length(pc.fill_null(t["text"], ""))
        df = pd.DataFrame({
            "conv_id": t["conv_id"].to_pandas(),
            "n_turns": 1,
            "n_user": pc.equal(t["role"], "user").to_pandas().astype(
                "int64"),
            "n_assistant": pc.equal(
                t["role"], "assistant").to_pandas().astype("int64"),
            "n_tool_calls": pc.not_equal(
                pc.fill_null(t["tool"], ""), "").to_pandas().astype("int64"),
            "total_chars": chars.to_pandas().astype("int64"),
            "max_turn_chars": chars.to_pandas().astype("int64"),
        })
        agg = df.groupby("conv_id", as_index=False).agg(
            n_turns=("n_turns", "sum"), n_user=("n_user", "sum"),
            n_assistant=("n_assistant", "sum"),
            n_tool_calls=("n_tool_calls", "sum"),
            total_chars=("total_chars", "sum"),
            max_turn_chars=("max_turn_chars", "max"))
        return pa.Table.from_pandas(agg, preserve_index=False)

    partials = transcripts.select_columns(
        ["conv_id", "role", "text", "tool"]).map_batches(
        partial, batch_format="pyarrow")
    return (partials.groupby("conv_id")
            .aggregate(Sum("n_turns", alias_name="n_turns"),
                       Sum("n_user", alias_name="n_user"),
                       Sum("n_assistant", alias_name="n_assistant"),
                       Sum("n_tool_calls", alias_name="n_tool_calls"),
                       Sum("total_chars", alias_name="total_chars"),
                       Max("max_turn_chars", alias_name="max_turn_chars")))


def render_chat(ds: "ray.data.Dataset", sep_open: str = "<|",
                sep_close: str = "|>", salt_span: int = 100_000,
                num_buckets: int = 128) -> "ray.data.Dataset":
    """Chat-template rendering: turns → one training-ready string per
    conversation, each turn prefixed with its role tag
    (``<|role|>text``), plus the loss-masking statistics an SFT data
    pipeline needs (how much of the sequence is assistant-generated).

    → ``(conv_id, doc_seq, text, n_turns, n_assistant_turns,
    assistant_chars)``. Same universal-salting contract as
    :func:`reassemble`: conversations longer than ``salt_span`` turns
    split into independent sub-renders (doc_seq = span index), so no
    reducer is ever pinned by a mega-conversation.
    """
    import pyarrow.compute as pc

    from .common import bucketed_group_reduce

    def add_key(batch: pa.Table) -> pa.Table:
        salt = pc.divide(batch["turn_idx"], salt_span)
        key = pc.binary_join_element_wise(
            batch["conv_id"], pc.cast(salt, pa.string()), "#")
        return batch.append_column("group_key", key)

    def render(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["group_key", "turn_idx"], kind="mergesort")
        df = df.assign(text=df["text"].fillna(""))   # null turn = ""
        df = df.assign(
            piece=sep_open + df["role"] + sep_close + df["text"],
            is_asst=(df["role"] == "assistant"),
            asst_chars=(df["role"] == "assistant")
            * df["text"].str.len())
        g = df.groupby("group_key", sort=False)
        out = g.agg(conv_id=("conv_id", "first"),
                    text=("piece", "".join),
                    n_turns=("piece", "size"),
                    n_assistant_turns=("is_asst", "sum"),
                    assistant_chars=("asst_chars", "sum"),
                    first_turn_idx=("turn_idx", "first"))
        out["doc_seq"] = out["first_turn_idx"] // salt_span
        return out.reset_index(drop=True)[
            ["conv_id", "doc_seq", "text", "n_turns",
             "n_assistant_turns", "assistant_chars"]]

    schema = pa.schema([("conv_id", pa.string()), ("doc_seq", pa.int32()),
                        ("text", pa.string()), ("n_turns", pa.int64()),
                        ("n_assistant_turns", pa.int64()),
                        ("assistant_chars", pa.int64())])
    keyed = ds.select_columns(
        ["conv_id", "turn_idx", "role", "text"]).map_batches(
        add_key, batch_format="pyarrow")
    return bucketed_group_reduce(keyed, ["group_key"], render,
                                 num_buckets, schema=schema)


def unroll_sft_examples(ds: "ray.data.Dataset", context_turns: int = 4,
                        sep: str = "\n", sep_open: str = "<|",
                        sep_close: str = "|>",
                        num_buckets: int = 64) -> "ray.data.Dataset":
    """Conversation → per-reply SFT examples: ONE training example per
    ASSISTANT turn — ``(conv_id, turn_idx, context, response,
    n_context_turns)`` where ``context`` is the rendered ``<|role|>text``
    of the previous ``context_turns`` whole turns joined by ``sep`` (""
    when nothing precedes) and ``response`` is the assistant turn's text.

    The standard multi-turn→examples expansion for supervised fine-tuning:
    each assistant reply trains against its bounded recent history. The
    window bound keeps output size LINEAR in the input — full-history
    unrolling is quadratic in conversation length, which a 10^6-turn
    conversation cannot afford (the same reasoning as truncate_context's
    suffix rule; compose the two for token- rather than turn-bounded
    context).

    Scale shape: one conv-keyed bucketed shuffle; the per-bucket body is
    ``context_turns`` grouped shifts + one vectorized string fold — no
    per-row Python. Partitioning assumption: all turns of a conversation
    co-hash to one bucket (same contract as reassemble/truncate_context).
    """
    from .common import bucketed_group_reduce

    def unroll(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["conv_id", "turn_idx"], kind="mergesort")
        # null turn text = empty string (otherwise the NaN rendering is
        # silently dropped from downstream contexts)
        df = df.assign(text=df["text"].fillna(""))
        conv = df["conv_id"].to_numpy()
        rend = sep_open + df["role"] + sep_close + df["text"]
        grouped = rend.groupby(conv)
        ctx = pd.Series([""] * len(df), index=df.index, dtype=object)
        for j in range(context_turns, 0, -1):
            p = grouped.shift(j)
            has = p.notna()
            # append p where present: "" stays p, else ctx + sep + p
            cand = (ctx + sep + p).where(ctx != "", p)
            ctx = cand.where(has, ctx)
        pos = df.groupby("conv_id", sort=False).cumcount()
        keep = df["role"] == "assistant"
        out = pd.DataFrame({
            "conv_id": df["conv_id"],
            "turn_idx": df["turn_idx"],
            "context": ctx,
            "response": df["text"],
            "n_context_turns": pos.clip(upper=context_turns)
            .astype("int64")})
        return out.loc[keep].reset_index(drop=True)

    schema = pa.schema([("conv_id", pa.string()), ("turn_idx", pa.int32()),
                        ("context", pa.string()), ("response", pa.string()),
                        ("n_context_turns", pa.int64())])
    keyed = ds.select_columns(["conv_id", "turn_idx", "role", "text"])
    return bucketed_group_reduce(keyed, ["conv_id"], unroll,
                                 num_buckets, schema=schema)


def truncate_context(ds: "ray.data.Dataset", max_tokens: int,
                     conv_col: str = "conv_id", idx_col: str = "turn_idx",
                     role_col: str = "role", text_col: str = "text",
                     num_buckets: int = 64) -> "ray.data.Dataset":
    """Context-window trim: per conversation keep the maximal SUFFIX of
    whole turns whose total whitespace-token count is <= ``max_tokens``
    (the standard chat-history truncation rule — drop oldest turns first,
    never split a turn). Token rule = count of ``\\S+`` runs, identical to
    ops/text.py::add_token_count and the DuckDB oracle's
    ``len(regexp_extract_all(text, '\\S+'))``.

    One conv-keyed bucketed shuffle; the suffix cumsum is a vectorized
    reverse groupby-cumsum per bucket. Scale: text rides the shuffle once;
    skewed mega-conversations are bounded by the bucket fan-out the same
    way reassembly is (a conversation larger than worker memory should be
    pre-filtered by conversation_stats)."""
    import numpy as np

    def per_bucket(df: pd.DataFrame) -> pd.DataFrame:
        df = df.assign(
            __tk=df[text_col].str.count(r"\S+").fillna(0).astype("int64"))
        df = df.sort_values([conv_col, idx_col], ascending=[True, False],
                            kind="mergesort")
        suffix = df.groupby(conv_col, sort=False)["__tk"].cumsum()
        kept = df[suffix <= max_tokens]
        return (kept.sort_values([conv_col, idx_col], kind="mergesort")
                [[conv_col, idx_col, role_col, text_col]])

    from .common import bucketed_group_reduce
    schema = pa.schema([(conv_col, pa.string()), (idx_col, pa.int32()),
                        (role_col, pa.string()), (text_col, pa.string())])
    cols = ds.select_columns([conv_col, idx_col, role_col, text_col])
    return bucketed_group_reduce(cols, [conv_col], per_bucket,
                                 num_buckets, schema=schema)


def validate_conversations(ds: "ray.data.Dataset",
                           conv_col: str = "conv_id",
                           idx_col: str = "turn_idx",
                           role_col: str = "role", text_col: str = "text",
                           num_buckets: int = 64) -> "ray.data.Dataset":
    """Per-conversation well-formedness report for a transcript corpus:
    ``(conv_id, n_turns, n_alternation_violations, n_gaps, n_empty_turns,
    starts_ok, is_wellformed)``. Rules (all pinned, SQL-reproducible):
    alternation violation = adjacent turns with the same role; gap =
    turn_idx not previous+1; empty = zero-length text; starts_ok =
    first turn_idx is 0 AND first role is 'user'. One conv-keyed bucketed
    shuffle, vectorized shift/groupby body — the triage filter before SFT
    rendering or preference-pair extraction."""
    import numpy as np

    def per_bucket(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values([conv_col, idx_col], kind="mergesort")
        c = df[conv_col].to_numpy()
        i = df[idx_col].to_numpy().astype(np.int64)
        r = df[role_col].to_numpy(dtype=object)
        same = np.zeros(len(df), dtype=bool)
        if len(df):
            same[1:] = c[1:] == c[:-1]
        viol = same & (r == np.roll(r, 1))
        gap = same & (i != np.roll(i, 1) + 1)
        empty = (df[text_col].fillna("").str.len() == 0).to_numpy()
        first = ~same
        g = pd.DataFrame({
            conv_col: c,
            "viol": viol.astype("int64"), "gap": gap.astype("int64"),
            "empty": empty.astype("int64"),
            "start_ok": (first & (i == 0) & (r == "user")).astype("int64"),
            "one": 1})
        out = g.groupby(conv_col, as_index=False).agg(
            n_turns=("one", "sum"),
            n_alternation_violations=("viol", "sum"),
            n_gaps=("gap", "sum"),
            n_empty_turns=("empty", "sum"),
            starts_ok=("start_ok", "max"))
        ok = ((out["n_alternation_violations"] == 0) & (out["n_gaps"] == 0)
              & (out["n_empty_turns"] == 0) & (out["starts_ok"] == 1))
        out["is_wellformed"] = ok.astype("int64")
        for col in ("n_turns", "n_alternation_violations", "n_gaps",
                    "n_empty_turns", "starts_ok"):
            out[col] = out[col].astype("int64")
        return out

    from .common import bucketed_group_reduce
    schema = pa.schema([
        (conv_col, pa.string()), ("n_turns", pa.int64()),
        ("n_alternation_violations", pa.int64()), ("n_gaps", pa.int64()),
        ("n_empty_turns", pa.int64()), ("starts_ok", pa.int64()),
        ("is_wellformed", pa.int64())])
    cols = ds.select_columns([conv_col, idx_col, role_col, text_col])
    return bucketed_group_reduce(cols, [conv_col], per_bucket,
                                 num_buckets, schema=schema)


def segment_conversations(ds: "ray.data.Dataset", window_turns: int,
                          stride: int,
                          conv_col: str = "conv_id",
                          idx_col: str = "turn_idx",
                          text_col: str = "text",
                          sep: str = "\n",
                          num_buckets: int = 64) -> "ray.data.Dataset":
    """Split long conversations into overlapping fixed-size windows of
    whole turns — the standard recipe for turning a conversation that
    exceeds the training context into multiple examples with shared
    prefix/suffix context. A conversation with ``n`` turns yields
    ``1 + ceil(max(n - window_turns, 0) / stride)`` segments; segment
    ``j`` covers turn positions ``[j*stride, j*stride + window_turns)``
    (the last segment may be short, and no segment is a pure subset of
    its predecessor). Returns ``(conv_id, seg_id, n_turns,
    first_turn_idx, text)`` with turns joined by ``sep`` in turn order.

    One conv-keyed bucketed shuffle; per bucket the windows are
    materialized with vectorized repeat/arange index arithmetic (each
    turn lands in at most ceil(window/stride) segments — bounded
    duplication, no per-conversation Python loop)."""
    import numpy as np

    if stride <= 0 or window_turns <= 0:
        raise ValueError("window_turns and stride must be positive")

    def per_bucket(df: pd.DataFrame) -> pd.DataFrame:
        if not len(df):
            return pd.DataFrame({conv_col: [], "seg_id": [], "n_turns": [],
                                 "first_turn_idx": [], "text": []})
        df = df.sort_values([conv_col, idx_col], kind="mergesort")
        # dense per-conv position (0..n-1) — segments are defined over
        # positions, robust to sparse turn_idx
        grp = df.groupby(conv_col, sort=False)
        pos = grp.cumcount().to_numpy()
        n = grp[text_col].transform("size").to_numpy()
        # number of segments for this conv (no subset-duplicate tails):
        # 1 + ceil(max(n - window, 0) / stride)
        m = np.maximum(n - window_turns, 0)
        n_segs = 1 + m // stride + (m % stride > 0)
        # segment ids this turn belongs to:
        # ceil((pos-window+1)/stride) .. min(pos//stride, n_segs-1)
        lo = np.maximum(0, -(-(pos - window_turns + 1) // stride))
        hi = np.minimum(pos // stride, n_segs - 1)  # inclusive
        reps = (hi - lo + 1).astype(np.int64)
        total = int(reps.sum())
        # flat [lo_i .. hi_i] ranges without a Python loop
        starts = np.cumsum(reps) - reps
        seg = (np.arange(total, dtype=np.int64)
               - np.repeat(starts, reps) + np.repeat(lo, reps))
        rep_idx = np.repeat(np.arange(len(df)), reps)
        out = pd.DataFrame({
            conv_col: df[conv_col].to_numpy()[rep_idx],
            "seg_id": seg,
            idx_col: df[idx_col].to_numpy()[rep_idx],
            text_col: df[text_col].to_numpy()[rep_idx],
        })
        g = (out.sort_values([conv_col, "seg_id", idx_col],
                             kind="mergesort")
             .groupby([conv_col, "seg_id"], sort=False))
        res = g.agg(n_turns=(text_col, "size"),
                    first_turn_idx=(idx_col, "first"),
                    text=(text_col, sep.join)).reset_index()
        res["seg_id"] = res["seg_id"].astype("int64")
        res["n_turns"] = res["n_turns"].astype("int64")
        return res[[conv_col, "seg_id", "n_turns", "first_turn_idx",
                    "text"]]

    from .common import bucketed_group_reduce
    schema = pa.schema([(conv_col, pa.string()), ("seg_id", pa.int64()),
                        ("n_turns", pa.int64()),
                        ("first_turn_idx", pa.int32()),
                        ("text", pa.string())])
    cols = ds.select_columns([conv_col, idx_col, text_col])
    return bucketed_group_reduce(cols, [conv_col], per_bucket,
                                 num_buckets, schema=schema)


def curate_conversations(ds: "ray.data.Dataset", max_tokens: int,
                         conv_col: str = "conv_id",
                         idx_col: str = "turn_idx",
                         role_col: str = "role", text_col: str = "text",
                         sep_open: str = "<|", sep_close: str = "|>",
                         num_buckets: int = 128) -> "ray.data.Dataset":
    """Fused curation chain: well-formedness gate (the
    validate_conversations rules) → whole-turn suffix truncation to
    ``max_tokens`` (the truncate_context rule) → chat-template render
    (the render_chat format + loss-mask stats). Output is row-identical
    to composing those three ops with a semi join — but every step is
    per-conversation, so the fused path pays ONE conv-keyed shuffle
    instead of four (validate + join + truncate + render). Use the
    composed ops when intermediate tables are needed; use this for the
    end-to-end SFT export."""
    import numpy as np

    def per_bucket(df: pd.DataFrame) -> pd.DataFrame:
        cols = ["conv_id", "doc_seq", "text", "n_turns",
                "n_assistant_turns", "assistant_chars"]
        if not len(df):
            return pd.DataFrame({c: [] for c in cols})
        df = df.sort_values([conv_col, idx_col], kind="mergesort")
        c = df[conv_col].to_numpy()
        i = df[idx_col].to_numpy().astype(np.int64)
        r = df[role_col].to_numpy(dtype=object)
        same = np.zeros(len(df), dtype=bool)
        same[1:] = c[1:] == c[:-1]
        viol = same & (r == np.roll(r, 1))
        gap = same & (i != np.roll(i, 1) + 1)
        empty = (df[text_col].fillna("").str.len() == 0).to_numpy()
        start_bad = (~same) & ((i != 0) | (r != "user"))
        bad_any = viol | gap | empty | start_bad
        # conversations with any bad row drop out (vectorized: max of
        # bad_any per conv broadcast back to rows)
        bad_conv = pd.Series(bad_any).groupby(c).transform("max").to_numpy()
        df = df[~bad_conv]
        if not len(df):
            return pd.DataFrame({col: [] for col in cols})
        # suffix truncation
        tk = df[text_col].str.count(r"\S+").fillna(0).astype("int64")
        rev = df.assign(__tk=tk).sort_values(
            [conv_col, idx_col], ascending=[True, False], kind="mergesort")
        sfx = rev.groupby(conv_col, sort=False)["__tk"].cumsum()
        kept = rev[sfx <= max_tokens].sort_values(
            [conv_col, idx_col], kind="mergesort")
        if not len(kept):
            return pd.DataFrame({col: [] for col in cols})
        # render
        kept = kept.assign(
            piece=sep_open + kept[role_col] + sep_close
            + kept[text_col].fillna(""),   # null turn = ""
            is_asst=(kept[role_col] == "assistant"),
            asst_chars=(kept[role_col] == "assistant")
            * kept[text_col].str.len())
        g = kept.groupby(conv_col, sort=False)
        out = g.agg(text=("piece", "".join),
                    n_turns=("piece", "size"),
                    n_assistant_turns=("is_asst", "sum"),
                    assistant_chars=("asst_chars", "sum")).reset_index()
        out = out.rename(columns={conv_col: "conv_id"})
        out["doc_seq"] = 0
        return out[cols]

    schema = pa.schema([("conv_id", pa.string()), ("doc_seq", pa.int32()),
                        ("text", pa.string()), ("n_turns", pa.int64()),
                        ("n_assistant_turns", pa.int64()),
                        ("assistant_chars", pa.int64())])
    from .common import bucketed_group_reduce
    cols_ds = ds.select_columns([conv_col, idx_col, role_col, text_col])
    return bucketed_group_reduce(cols_ds, [conv_col], per_bucket,
                                 num_buckets, schema=schema)
