"""Hierarchical metadata-augmented multi-route retrieval engine.

Pipeline: load a corpus of text/markdown documents, parse each into
chapter segments at its numbered headings, cascade the root-to-chapter
title path into every segment's embedding text, then index and query
through three fused routes (vector similarity, BM25, critical
keywords). A log-rank evaluation kit scores full rankings against
ground-truth question banks. A sliding-window converter, which the CLI
does not run, can turn raw text into structured markdown first.
"""

from .corpus import CorpusError, DocumentRecord, ImageAsset, Segment, load_corpus, segment_key
from .evalkit import (
    EvalQuery,
    EvalReport,
    cohesion_stats,
    evaluate_dataset,
    evaluate_query,
    export_coordinates,
    load_question_bank,
    log_rank_score,
)
from .formatter import (
    ConversionError,
    ConverterTurn,
    IdentityConverter,
    convert_document,
    count_words,
    parse_markdown,
    plan_windows,
)
from .hca import (
    augment_document,
    augment_image,
    augment_table,
    without_augmentation,
)
from .index import (
    Bm25Index,
    HashingEmbedder,
    IndexBundle,
    IndexFormatError,
    InvertedLists,
    KeywordTable,
    VectorIndex,
    bm25_route,
    bm25_score,
    bm25_scores,
    build_bm25_index,
    build_indices,
    build_keyword_table,
    build_vector_index,
    extract_keywords,
    load_index,
    save_index,
    tokenize,
)
from .retriever import (
    RankedResult,
    Ranking,
    RetrievalConfig,
    RetrievalOutcome,
    fuse_and_rank,
    keyword_hits,
    keyword_route,
    normalize_scores,
    retrieve,
    vector_route,
)

__version__ = "0.1.0"
