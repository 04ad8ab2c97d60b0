from .reassemble import reassemble
from .chunk import ChunkStage, chunk_documents, ApproxTokenChunker
from .extract import ExtractStage, extract_mentions, MENTIONS_SCHEMA
from .dedup import dedup_entities, dedup_edges
from .canonicalize import link_entities, canonicalize

__all__ = [
    "reassemble",
    "ChunkStage", "chunk_documents", "ApproxTokenChunker",
    "ExtractStage", "extract_mentions", "MENTIONS_SCHEMA",
    "dedup_entities", "dedup_edges",
    "link_entities", "canonicalize",
]
