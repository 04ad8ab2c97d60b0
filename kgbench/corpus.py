"""Seeded transcript generators owned by the benchmark.

Every generator is a pure function of its arguments: the same seed gives
byte-identical shards and the same ground truth. None of them calls
``agraph_ray.synth``, so a change to the package's own synthetic corpus
does not move the benchmark's inputs.

A corpus is written as conv_id-hash-partitioned Parquet shards with the
transcript schema ``(conv_id, turn_idx, role, text, tool, ts)``; rows are
shuffled inside each shard so the reassembly stage has real work.

Two shapes:

- :func:`skewed_corpus` — mixed relation/filler turns, geometric turn
  counts, one hot conversation long enough to be salted into several
  documents, and planted one-letter person variants;
- :func:`containment_corpus` — org names with planted token-superset
  variants (``"Tolvex Corp"`` / ``"Tolvex Labs Corp"``), the variant kind
  the mock pair judge of the LLM lifecycle can confirm.

``Corpus.truth_pairs`` holds the planted (canonical, variant) name pairs,
lower-cased; ``Corpus.texts`` the ground-truth text of every conversation
(turn texts joined by ``"\\n"`` in turn order).
"""

from __future__ import annotations

import difflib
import os
import zlib
from dataclasses import dataclass, field
from typing import Dict, List, Set, Tuple

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

SCHEMA = pa.schema([
    ("conv_id", pa.string()),
    ("turn_idx", pa.int32()),
    ("role", pa.string()),
    ("text", pa.string()),
    ("tool", pa.string()),
    ("ts", pa.timestamp("us")),
])

_FIRST = ["Ada", "Bram", "Cora", "Dane", "Edda", "Finn", "Gala", "Hugo",
          "Ines", "Joss", "Kara", "Lior", "Mira", "Nils", "Orla", "Pavo",
          "Quin", "Rhea", "Sven", "Tova", "Ulla", "Vito", "Wren", "Yara",
          "Abel", "Brit", "Cyra", "Doran", "Elke", "Faro", "Gwen", "Hale",
          "Ivo", "Juna", "Kip", "Lena", "Milo", "Nora", "Otto", "Pia",
          "Rafe", "Sola", "Theo", "Una", "Vera", "Wim", "Xena", "Zane"]
_SYL_A = ["Bel", "Cor", "Dra", "Fen", "Gor", "Hal", "Jor", "Kel", "Lom",
          "Mar", "Nov", "Pel", "Quo", "Ros", "Sal", "Tam", "Vel", "Wex",
          "Arn", "Bix", "Cal", "Dov", "Eld", "Fal"]
_SYL_M = ["a", "e", "i", "o", "u", "ar", "en", "il", "or", "um", "ev", "ad"]
_SYL_B = ["ando", "berg", "cott", "dane", "esko", "ford", "gren", "holm",
          "insk", "juno", "kvist", "lund", "mont", "nard", "orin", "pike",
          "quist", "rund", "sted", "tova", "urst", "vane", "wick", "zell"]
_ORG_STEM = ["Tolvex", "Brimor", "Quanta", "Selvane", "Orbix", "Kestrel",
             "Lumora", "Vantix", "Zephra", "Corvid", "Halden", "Mirex",
             "Novaro", "Pellix", "Rundak", "Sorvin", "Talmar", "Ubrix"]
_ORG_MID = ["Labs", "Data", "Cloud", "Works", "Group", "Systems"]
_PRODUCTS = ["iPhone", "iPad", "macOS", "Django", "Flask", "Python"]
_CONCEPTS = ["learning method", "systems theory", "design principle",
             "greedy approach", "core concept", "agile method",
             "graph theory", "layered approach"]
_FILLER = ["ok let me check that for you now",
           "running the requested command",
           "here is the output you asked about",
           "that looks correct to me overall",
           "please confirm before we continue",
           "the result was saved successfully",
           "retrying with a different argument",
           "no errors were reported this time"]
_ROLES = ["user", "assistant"]


@dataclass
class Corpus:
    """One generated input set."""
    files: List[str]
    n_turns: int
    texts: Dict[str, str] = field(default_factory=dict)
    truth_pairs: Set[Tuple[str, str]] = field(default_factory=set)
    names: Set[str] = field(default_factory=set)   # every planted name, lower

    @property
    def conv_ids(self) -> List[str]:
        return sorted(self.texts)


def _rng(seed: int, salt: str) -> np.random.Generator:
    return np.random.default_rng([seed & 0x7FFFFFFF,
                                  zlib.crc32(salt.encode())])


def _shape_rng(*size) -> np.random.Generator:
    """The corpus *shape* — sentence templates, slot indices, turn counts —
    depends on the size arguments only, never on the seed. The seed picks
    the vocabulary (which strings fill the slots), the conv ids and the
    row order, so every seed gives a structurally identical corpus and the
    work per op moves little from seed to seed."""
    return np.random.default_rng([zlib.crc32(repr(size).encode())])


def _distinct(sm: difflib.SequenceMatcher, name: str, others: List[str],
              limit: float = 0.7) -> bool:
    """True when ``name`` scores below ``limit`` (the canonicalizer links
    at 0.75) against every name in ``others``."""
    sm.set_seq2(name)
    for o in others:
        sm.set_seq1(o)
        if (sm.real_quick_ratio() >= limit and sm.quick_ratio() >= limit
                and sm.ratio() >= limit):
            return False
    return True


def _people(rng: np.random.Generator, n: int,
            n_variants: int) -> Tuple[List[str], Dict[str, str]]:
    """``n`` ``First Last`` names matching ``[A-Z][a-z]+ [A-Z][a-z]+``,
    pairwise dissimilar (so a merge between two of them is a real error),
    and a one-letter variant for the first ``n_variants`` of them: the
    surname's last letter replaced, which keeps all name shingles but two.
    """
    sm = difflib.SequenceMatcher(None)
    people: List[str] = []
    while len(people) < n:
        # long surnames: a last-letter variant then shares nearly every
        # MinHash shingle, so LSH finds it with probability ~0.999
        name = (_FIRST[rng.integers(len(_FIRST))] + " "
                + _SYL_A[rng.integers(len(_SYL_A))]
                + "".join(_SYL_M[rng.integers(len(_SYL_M))]
                          + _SYL_B[rng.integers(len(_SYL_B))]
                          for _ in range(3)))
        if _distinct(sm, name.lower(), [p.lower() for p in people]):
            people.append(name)
    variants: Dict[str, str] = {}
    lower = [p.lower() for p in people]
    for i, p in enumerate(people):
        if len(variants) == n_variants:
            break
        others = lower[:i] + lower[i + 1:] + [v.lower() for v in variants.values()]
        for c in rng.permutation(26):
            v = p[:-1] + chr(ord("a") + int(c))
            if v != p and _distinct(sm, v.lower(), others):
                variants[p] = v
                break
    return people, variants


def _org_names(rng: np.random.Generator, n: int) -> List[str]:
    stems = list(_ORG_STEM)
    out: List[str] = []
    while len(out) < n:
        for s in stems:
            suffix = "" if len(out) < len(stems) else \
                _SYL_B[int(rng.integers(len(_SYL_B)))]
            name = f"{s}{suffix} Corp"
            if name not in out:
                out.append(name)
            if len(out) == n:
                break
    return out


def turn_counts(n_convs: int, hot_turns: int) -> np.ndarray:
    """Per-conversation turn counts (median ~7), conversation 0 hot."""
    base = 2 + _shape_rng("turns", n_convs).geometric(0.15, size=n_convs)
    if hot_turns:
        base[0] = hot_turns
    return base


def _write_shards(out_dir: str, rows: Dict[str, List[str]], seed: int,
                  num_shards: int) -> List[str]:
    """conv_id → ordered turn texts → shuffled conv_id-partitioned shards."""
    os.makedirs(out_dir, exist_ok=True)
    shard_rows: List[List[tuple]] = [[] for _ in range(num_shards)]
    for conv, turns in rows.items():
        s = zlib.crc32(conv.encode()) % num_shards
        base_ts = 1_700_000_000_000_000 + (zlib.crc32(conv.encode()) % 10**7) * 10**6
        for i, text in enumerate(turns):
            shard_rows[s].append((conv, i, _ROLES[i % 2], text, "",
                                  base_ts + i * 10**6))
    files = []
    for s, rs in enumerate(shard_rows):
        if not rs:
            continue
        perm = _rng(seed, f"shard{s}").permutation(len(rs))
        cols = list(zip(*[rs[i] for i in perm]))
        tbl = pa.Table.from_arrays(
            [pa.array(c, t.type) for c, t in zip(cols, SCHEMA)],
            schema=SCHEMA)
        path = os.path.join(out_dir, f"transcripts-{s:03d}.parquet")
        pq.write_table(tbl, path)
        files.append(path)
    return files


def skewed_corpus(out_dir: str, seed: int, *, n_convs: int, hot_turns: int,
                  person_pool: int, variant_frac: float, org_pool: int,
                  conv_prefix: str = "c", num_shards: int = 4) -> Corpus:
    """Relation/filler turns over a generated vocabulary.

    ``person_pool`` canonical people, of which ``variant_frac`` get one
    planted one-letter variant that replaces the canonical spelling in
    about a third of that person's mentions. Each turn has 1-3 sentences;
    40% of sentences are relations, and 30% of relations are
    ``"<Person> works for <Org>."`` (the rest product/concept templates).
    """
    vocab = _rng(seed, "vocab")
    people, variants = _people(vocab, person_pool,
                               int(round(person_pool * variant_frac)))
    orgs = _org_names(vocab, org_pool)

    counts = turn_counts(n_convs, hot_turns)
    rng = _shape_rng("text", n_convs, hot_turns, person_pool, variant_frac,
                     org_pool)
    # Every planted spelling first appears once at the start of a
    # "<P> works for <Org>." sentence, so no planted pair is missing from
    # the extracted graph by chance (the rule extractor's person pattern
    # reliably matches only a sentence-initial name).
    pending = people + list(variants.values())
    pending = [pending[i] for i in rng.permutation(len(pending))]

    def person() -> str:
        p = people[int(rng.integers(len(people)))]
        if p in variants and rng.random() < 1 / 3:
            return variants[p]
        return p

    def sentence() -> str:
        if pending:
            return (f"{pending.pop()} works for "
                    f"{orgs[int(rng.integers(len(orgs)))]}.")
        if rng.random() >= 0.4:
            return _FILLER[int(rng.integers(len(_FILLER)))] + "."
        if rng.random() < 0.3:
            return f"{person()} works for {orgs[int(rng.integers(len(orgs)))]}."
        k = int(rng.integers(5))
        c = int(rng.integers(len(_CONCEPTS)))
        c1, c2 = _CONCEPTS[c], _CONCEPTS[(c + 1) % len(_CONCEPTS)]
        org = orgs[int(rng.integers(len(orgs)))]
        prod = _PRODUCTS[int(rng.integers(len(_PRODUCTS)))]
        return [f"{org} develops {prod}.",
                f"{c1} is related to {c2}.",
                f"{prod} is related to {c1}.",
                f"{person()} and {person()} are related.",
                f"{c1} and {c2} are similar."][k]

    rows: Dict[str, List[str]] = {}
    for k, n in enumerate(counts):
        conv = f"{conv_prefix}{seed}-{k:06d}"
        rows[conv] = [" ".join(sentence()
                               for _ in range(int(rng.integers(1, 4))))
                      for _ in range(int(n))]
    files = _write_shards(out_dir, rows, seed, num_shards)
    names = {p.lower() for p in people} | {v.lower() for v in variants.values()}
    return Corpus(files=files, n_turns=int(counts.sum()),
                  texts={c: "\n".join(t) for c, t in rows.items()},
                  truth_pairs={_pair(p, v) for p, v in variants.items()},
                  names=names)


def containment_corpus(out_dir: str, seed: int, *, n_convs: int,
                       turns_per_conv: int, org_pool: int,
                       variant_frac: float, person_pool: int,
                       num_shards: int = 2) -> Corpus:
    """``"<Person> works for <Org>."`` turns where ``variant_frac`` of the
    orgs have a planted token-superset variant (``"<Stem> Corp"`` →
    ``"<Stem> <Mid> Corp"``). Every conversation has the same length, so
    the corpus size is fixed by its arguments."""
    vocab = _rng(seed, "vocab")
    people, _ = _people(vocab, person_pool, 0)
    orgs = _org_names(vocab, org_pool)
    variants = {o: o.replace(" Corp", f" {_ORG_MID[i % len(_ORG_MID)]} Corp")
                for i, o in enumerate(orgs[:int(round(org_pool * variant_frac))])}
    rng = _shape_rng("llm", n_convs, turns_per_conv, org_pool, variant_frac,
                     person_pool)

    def org() -> str:
        o = orgs[int(rng.integers(len(orgs)))]
        if o in variants and rng.random() < 0.5:
            return variants[o]
        return o

    rows: Dict[str, List[str]] = {}
    for k in range(n_convs):
        conv = f"l{seed}-{k:06d}"
        rows[conv] = [f"{people[int(rng.integers(len(people)))]} works for "
                      f"{org()}. {_FILLER[int(rng.integers(len(_FILLER)))]}."
                      for _ in range(turns_per_conv)]
    files = _write_shards(out_dir, rows, seed, num_shards)
    names = {o.lower() for o in orgs} | {v.lower() for v in variants.values()}
    return Corpus(files=files, n_turns=n_convs * turns_per_conv,
                  texts={c: "\n".join(t) for c, t in rows.items()},
                  truth_pairs={_pair(o, v) for o, v in variants.items()},
                  names=names)


def _pair(a: str, b: str) -> Tuple[str, str]:
    a, b = a.lower(), b.lower()
    return (a, b) if a < b else (b, a)


def union_files(a: Corpus, b: Corpus, out_dir: str) -> List[str]:
    """Copies of both corpora's shards in one directory (conv_ids are
    disjoint): the input of the fresh base ∪ delta reference build."""
    import shutil
    os.makedirs(out_dir, exist_ok=True)
    files = []
    for i, f in enumerate(list(a.files) + list(b.files)):
        dst = os.path.join(out_dir, f"part-{i:03d}-{os.path.basename(f)}")
        shutil.copyfile(f, dst)
        files.append(dst)
    return files


def sample_texts(n_docs: int, turns_per_doc: int = 8) -> List[str]:
    """A fixed document sample (seed-independent) for single-process
    kernel rates — the hardware reference."""
    d = _rng(0, "kernel")
    people, _ = _people(d, 60, 0)
    orgs = _org_names(d, 18)
    out = []
    for _ in range(n_docs):
        turns = []
        for _ in range(turns_per_doc):
            s = []
            for _ in range(int(d.integers(1, 4))):
                if d.random() < 0.4:
                    s.append(f"{people[int(d.integers(60))]} works for "
                             f"{orgs[int(d.integers(18))]}.")
                else:
                    s.append(_FILLER[int(d.integers(len(_FILLER)))] + ".")
            turns.append(" ".join(s))
        out.append("\n".join(turns))
    return out

