"""LLM-driven entity/relation extraction engine (offline-testable).

Reimplements the reference's production extraction path for the pluggable
``ExtractStage(engine=...)`` slot (stages/extract.py):

- prompt construction:        agraph/extractors/llm_entity_extractor.py:48-74,
                              agraph/extractors/llm_relation_extractor.py:49-79
- JSON parse + repair:        llm_entity_extractor.py:170-182,
                              llm_relation_extractor.py:155-167
- entity-type normalization:  llm_entity_extractor.py:297-344
- relation-type normalization (incl. HAS/MEMBER_OF/... variants):
                              llm_relation_extractor.py:205-260
- fuzzy endpoint resolution:  llm_relation_extractor.py:173-196
- pairwise dedup judge:       llm_entity_extractor.py:77-111,188-255
- per-text error isolation:   a failed call/parse yields [] for that text
                              (llm_entity_extractor.py:184-186)

The LLM itself is a plain ``Callable[[str], str]`` (prompt → completion
text) supplied by the caller: in production an API-client bound method
constructed once per actor in ``__init__``; in tests a deterministic mock.
No network dependency lives in this module.
"""

from __future__ import annotations

import json
import re
import threading
from typing import Callable, Dict, List, Optional, Tuple

from .rules import (ALWAYS_VALID_RELATION_TYPES, VALID_TYPE_COMBOS,
                    EntityRec, RuleExtractor, TripleRec, _entity_confidence)


class FailureCount:
    """Thread-safe count of endpoint calls given up on. Pickles by value
    (a lock does not), so engines keep shipping into tasks."""

    def __init__(self):
        self.n = 0
        self._lock = threading.Lock()

    def bump(self) -> None:
        with self._lock:
            self.n += 1

    def __getstate__(self):
        return {"n": self.n}

    def __setstate__(self, d):
        self.n = d["n"]
        self._lock = threading.Lock()


# ---------------------------------------------------------------------------
# type normalization (llm_entity_extractor.py:297-344, llm_relation_extractor.py:205-260)
# ---------------------------------------------------------------------------

ENTITY_TYPES = frozenset({
    "person", "organization", "location", "concept", "event", "other",
    "table", "column", "database", "document", "keyword", "product",
    "software", "unknown",
})  # agraph/types.py:11-27

RELATION_TYPES = frozenset({
    "contains", "belongs_to", "located_in", "works_for", "causes",
    "part_of", "is_a", "references", "similar_to", "related_to",
    "depends_on", "foreign_key", "mentions", "describes", "synonyms",
    "develops", "creates", "founded_by", "other",
})  # agraph/types.py:30-51

ENTITY_TYPE_MAP: Dict[str, str] = {
    "PERSON": "person", "PEOPLE": "person",
    "ORGANIZATION": "organization", "ORG": "organization",
    "COMPANY": "organization",
    "LOCATION": "location", "PLACE": "location",
    "CONCEPT": "concept", "EVENT": "event",
    "OTHER": "other", "MISC": "other",
    "TABLE": "table", "COLUMN": "column", "DATABASE": "database",
    "DOCUMENT": "document", "KEYWORD": "keyword", "PRODUCT": "product",
    "SOFTWARE": "software", "UNKNOWN": "unknown",
}

RELATION_TYPE_MAP: Dict[str, str] = dict(
    {t.upper(): t for t in RELATION_TYPES},
    # common LLM-output variations (llm_relation_extractor.py:236-243)
    HAS="contains", INCLUDES="contains", MEMBER_OF="belongs_to",
    EMPLOYED_BY="works_for", BASED_IN="located_in", SAME_AS="similar_to",
    ASSOCIATED_WITH="related_to",
)


def normalize_entity_type(raw: str) -> str:
    """Raw LLM type string → canonical entity type; unknown fallback."""
    up = (raw or "").strip().upper()
    hit = ENTITY_TYPE_MAP.get(up)
    if hit:
        return hit
    low = up.lower()
    if low in ENTITY_TYPES:
        return low
    return "unknown"


def normalize_relation_type(raw: str) -> str:
    """Raw LLM type string → canonical relation type; other fallback."""
    up = (raw or "").strip().upper()
    hit = RELATION_TYPE_MAP.get(up)
    if hit:
        return hit
    low = up.lower()
    if low in RELATION_TYPES:
        return low
    return "other"


# ---------------------------------------------------------------------------
# JSON parse with repair
# ---------------------------------------------------------------------------

_JSON_BLOCK_RE = re.compile(r"\{.*\}", re.DOTALL)


def parse_llm_json(content: Optional[str], key: str) -> List[dict]:
    """Parse an LLM completion into ``result[key]`` (a list of dicts).

    Repair path mirrors the reference (llm_entity_extractor.py:170-182):
    if the whole completion is not valid JSON (markdown fences, prose
    around the payload), re-parse the outermost ``{...}`` block; any
    remaining failure yields ``[]`` — per-text error isolation, never an
    exception into the pipeline.
    """
    if not content:
        return []
    for candidate in (content, *(
            (m.group(),) if (m := _JSON_BLOCK_RE.search(content)) else ())):
        try:
            result = json.loads(candidate)
        except json.JSONDecodeError:
            continue
        if isinstance(result, dict):
            items = result.get(key, [])
            return [d for d in items if isinstance(d, dict)] \
                if isinstance(items, list) else []
        return []
    return []


# ---------------------------------------------------------------------------
# prompts
# ---------------------------------------------------------------------------

ENTITY_PROMPT_TEMPLATE = """\
You are an expert knowledge-graph construction assistant. Identify every
significant entity mentioned in the text below.

Text:
{text}

Respond with ONLY a JSON object of this exact shape (no extra prose):
{{
  "entities": [
    {{
      "name": "entity name",
      "type": "one of PERSON/ORGANIZATION/LOCATION/CONCEPT/EVENT/OTHER",
      "description": "one-line description",
      "aliases": ["other names, if any"],
      "properties": {{"key": "value"}}
    }}
  ]
}}
"""

RELATION_PROMPT_TEMPLATE = """\
You are an expert knowledge-graph construction assistant. Extract the
relationships between the listed entities that the text states explicitly.

Text:
{text}

Entities:
{entities}

Respond with ONLY a JSON object of this exact shape (no extra prose):
{{
  "relations": [
    {{
      "head_entity": "head entity name",
      "tail_entity": "tail entity name",
      "relation_type": "one of BELONGS_TO/LOCATED_IN/WORKS_FOR/RELATED_TO/CAUSES/PART_OF/IS_A/OTHER",
      "description": "one-line description",
      "properties": {{"key": "value"}},
      "confidence": 0.9
    }}
  ]
}}

Head and tail entities must come from the entity list.
"""

DEDUP_PROMPT_TEMPLATE = """\
You are an entity-resolution assistant. Decide whether these two entities
refer to the same real-world thing.

Entity 1: name={name1!r} type={type1} description={desc1!r} aliases={aliases1}
Entity 2: name={name2!r} type={type2} description={desc2!r} aliases={aliases2}

Respond with ONLY a JSON object:
{{"is_duplicate": true/false, "confidence": 0.0-1.0, "reason": "short"}}
"""


def build_entity_prompt(text: str) -> str:
    return ENTITY_PROMPT_TEMPLATE.format(text=text)


def build_relation_prompt(text: str, entities: List[EntityRec]) -> str:
    listing = "\n".join(f"- {e.name} ({e.etype})" for e in entities)
    return RELATION_PROMPT_TEMPLATE.format(text=text, entities=listing)


def build_dedup_prompt(e1: dict, e2: dict) -> str:
    return DEDUP_PROMPT_TEMPLATE.format(
        name1=e1.get("name", ""), type1=e1.get("entity_type", ""),
        desc1=e1.get("description", ""), aliases1=list(e1.get("aliases") or []),
        name2=e2.get("name", ""), type2=e2.get("entity_type", ""),
        desc2=e2.get("description", ""), aliases2=list(e2.get("aliases") or []))


# ---------------------------------------------------------------------------
# extraction engine
# ---------------------------------------------------------------------------

def _find_entity(name: str, ordered: List[Tuple[str, EntityRec]]
                 ) -> Optional[EntityRec]:
    """Exact → lowercase → substring → alias fuzzy resolution in entity
    order (llm_relation_extractor.py:173-196)."""
    if not name:
        return None
    low = name.lower()
    for ename, e in ordered:
        if e.name == name or ename == low:
            return e
    for ename, e in ordered:
        if low in ename or ename in low:
            return e
        for alias in e.aliases:
            al = alias.lower()
            if low in al or al in low:
                return e
    return None


class LLMExtractorEngine:
    """``extract(text) -> (entities, triples)`` engine for ExtractStage.

    Two LLM calls per text (entity pass, then relation pass consuming the
    entity list — the reference lifecycle, llm_builders.py:252-296), with
    parse-repair, type normalization, fuzzy endpoint resolution, and the
    same validity filter as the rule engine. Constructed once per actor /
    worker; ``llm`` holds whatever client state it needs.
    """

    def __init__(self, llm: Callable[[str], str],
                 confidence_threshold: float = 0.5,
                 source: str = "llm_extraction"):
        self.llm = llm
        self.confidence_threshold = confidence_threshold
        self.source = source
        self._failed = FailureCount()

    @property
    def failed_calls(self) -> int:
        """LLM calls that raised (each turned into an empty result)."""
        return self._failed.n

    # -- entities ----------------------------------------------------------

    def extract_entities(self, text: str) -> List[EntityRec]:
        try:
            content = self.llm(build_entity_prompt(text))
        except Exception:
            # per-text isolation (llm_entity_extractor.py:184-186),
            # counted so the pool can report it
            self._failed.bump()
            return []
        out: List[EntityRec] = []
        for d in parse_llm_json(content, "entities"):
            name = str(d.get("name") or "").strip()
            if not name:
                continue
            props = d.get("properties")
            out.append(EntityRec(
                name=name,
                etype=normalize_entity_type(str(d.get("type") or "")),
                confidence=_entity_confidence(name),
                source=self.source,
                description=str(d.get("description") or ""),
                aliases=[str(a) for a in (d.get("aliases") or []) if a],
                properties={str(k): str(v) for k, v in props.items()}
                if isinstance(props, dict) else {}))
        return RuleExtractor.dedup_local(out)

    # -- relations ---------------------------------------------------------

    def extract_triples(self, text: str,
                        entities: List[EntityRec]) -> List[TripleRec]:
        if not entities:
            return []
        try:
            content = self.llm(build_relation_prompt(text, entities))
        except Exception:
            self._failed.bump()
            return []
        ordered = [(e.name.lower(), e) for e in entities]
        out: List[TripleRec] = []
        for d in parse_llm_json(content, "relations"):
            head = _find_entity(str(d.get("head_entity") or ""), ordered)
            tail = _find_entity(str(d.get("tail_entity") or ""), ordered)
            if head is None or tail is None:
                continue
            rtype = normalize_relation_type(str(d.get("relation_type") or ""))
            try:
                conf = float(d.get("confidence", 1.0))
            except (TypeError, ValueError):
                conf = 1.0
            props = d.get("properties")
            t = TripleRec(head.key, head.etype, rtype, tail.key, tail.etype,
                          conf, self.source,
                          description=str(d.get("description") or ""),
                          properties={str(k): str(v) for k, v in props.items()}
                          if isinstance(props, dict) else {})
            if self._valid(t):
                out.append(t)
        return out

    def _valid(self, t: TripleRec) -> bool:
        """validate_relation (relation_extractor.py:57-145): distinct
        endpoints, confidence floor, type-combination whitelist."""
        if t.subj == t.obj:
            return False
        if t.confidence < self.confidence_threshold:
            return False
        if t.pred in ALWAYS_VALID_RELATION_TYPES:
            return True
        return (t.subj_type, t.obj_type, t.pred) in VALID_TYPE_COMBOS

    # -- fused entry point -------------------------------------------------

    def extract(self, text: str) -> Tuple[List[EntityRec], List[TripleRec]]:
        ents = self.extract_entities(text)
        return ents, self.extract_triples(text, ents)


# ---------------------------------------------------------------------------
# pairwise dedup judge (endpoint-pool stage over the candidate-pair table)
# ---------------------------------------------------------------------------

def parse_dedup_response(content: Optional[str], name1: str,
                         name2: str) -> bool:
    """``is_duplicate`` from the judge completion; on unparseable output
    fall back to exact lowercase name equality
    (llm_entity_extractor.py:243-255)."""
    if content:
        for candidate in (content, *(
                (m.group(),) if (m := _JSON_BLOCK_RE.search(content)) else ())):
            try:
                result = json.loads(candidate)
            except json.JSONDecodeError:
                continue
            if isinstance(result, dict):
                return bool(result.get("is_duplicate", False))
            break
    return (name1 or "").lower() == (name2 or "").lower()


def judge_match_edges(pairs: "ray.data.Dataset", nodes: "ray.data.Dataset",
                      llm_factory: Callable[[], Callable[[str], str]],
                      concurrency: int = 4,
                      batch_size: int = 16,
                      max_concurrent: int = 8,
                      scheduling_strategy: "str | None" = None,
                      pool=None, metrics: Optional[Dict] = None
                      ) -> "ray.data.Dataset":
    """Filter canonicalize match edges (src, dst, sim) through the LLM
    pairwise judge. Node attributes are broadcast once (``ray.put`` — the
    canonical node table is vocabulary-sized) and attached per batch; the
    judge itself runs on ``concurrency`` actors of the endpoint pool
    (``state/endpoint_pool.py``: zero-CPU actors, SPREAD honoured), each
    fanning its batch over ``max_concurrent`` threads (one ~seconds API
    call per pair; a serial per-actor loop would cap in-flight at the
    actor count). ``pool`` shares a caller's pool; without one, the call
    runs on a pool scoped to it. ``metrics``, when given, gets the
    judge's failed calls added under ``judge_failed_calls``. Drop-in
    between ``link_entities`` and ``connected_components``."""
    import pyarrow as pa
    import ray

    from ..state.endpoint_pool import pool_map

    attrs = {}
    for b in nodes.select_columns(
            ["entity_id", "name", "entity_type", "description", "aliases"]
    ).iter_batches(batch_size=None, batch_format="pyarrow"):
        for r in b.to_pylist():
            attrs[r["entity_id"]] = r
    ref = ray.put(attrs)

    def attach(t: "pa.Table") -> "pa.Table":
        m = ray.get(ref)
        cols = {"name": [], "entity_type": [], "description": [],
                "aliases": []}
        out = t
        for side, col in (("a", "src"), ("b", "dst")):
            vals = {k: [] for k in cols}
            for eid in t[col].to_pylist():
                r = m.get(eid) or {}
                vals["name"].append(r.get("name"))
                vals["entity_type"].append(r.get("entity_type"))
                vals["description"].append(r.get("description"))
                vals["aliases"].append(list(r.get("aliases") or []))
            out = (out.append_column(f"name_{side}",
                                     pa.array(vals["name"], pa.string()))
                   .append_column(f"type_{side}",
                                  pa.array(vals["entity_type"], pa.string()))
                   .append_column(f"desc_{side}",
                                  pa.array(vals["description"], pa.string()))
                   .append_column(f"aliases_{side}",
                                  pa.array(vals["aliases"],
                                           pa.list_(pa.string()))))
        return out

    judged, failed = pool_map(
        pool, pairs.map_batches(attach, batch_format="pyarrow"),
        LLMPairJudge, {"llm_factory": llm_factory,
                       "max_concurrent": max_concurrent},
        batch_size=batch_size, num_actors=concurrency,
        scheduling_strategy=scheduling_strategy)
    if metrics is not None:
        metrics["judge_failed_calls"] = \
            metrics.get("judge_failed_calls", 0) + failed
    return judged.select_columns(list(pairs.schema().names))


class LLMPairJudge:
    """Endpoint-pool stage filtering candidate match edges.

    Input batch: the canonicalize pair table joined with both endpoints'
    node attributes (columns ``src, dst, name_a, name_b`` and optionally
    ``type_a/type_b/desc_a/desc_b/aliases_a/aliases_b``). Output: the rows
    the judge confirms, schema unchanged. The LLM client is built once per
    actor in ``__init__`` via ``llm_factory`` (pickleable callable), the
    batch loop only formats prompts and parses responses
    (llm_entity_extractor.py:188-255 semantics, minus the O(n²) driver
    loop — pair generation stays in the LSH blocker).
    """

    def __init__(self, llm_factory: Callable[[], Callable[[str], str]],
                 max_concurrent: int = 8):
        from concurrent.futures import ThreadPoolExecutor
        self.llm = llm_factory()
        self.pool = ThreadPoolExecutor(max_workers=max_concurrent)
        self._failed = FailureCount()

    @property
    def failed_calls(self) -> int:
        """Judge calls that raised (each judged on the names alone)."""
        return self._failed.n

    def _judge_one(self, r: dict) -> bool:
        e1 = {"name": r.get("name_a"), "entity_type": r.get("type_a"),
              "description": r.get("desc_a"),
              "aliases": r.get("aliases_a")}
        e2 = {"name": r.get("name_b"), "entity_type": r.get("type_b"),
              "description": r.get("desc_b"),
              "aliases": r.get("aliases_b")}
        try:
            content = self.llm(build_dedup_prompt(e1, e2))
        except Exception:
            self._failed.bump()   # judged on the names alone, counted
            content = None
        return parse_dedup_response(
            content, r.get("name_a") or "", r.get("name_b") or "")

    def __call__(self, batch):
        import pyarrow as pa
        # per-pair calls fan out over the actor's thread pool (order
        # preserved by map); per-pair error isolation in _judge_one
        keep = list(self.pool.map(self._judge_one, batch.to_pylist()))
        return batch.filter(pa.array(keep, pa.bool_()))
