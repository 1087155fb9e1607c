"""Concept-balanced sampling and offline sequence packing for training corpora."""

from .balance import (
    BalanceReport,
    ConceptFrequencyTable,
    balance_report,
    concept_frequencies,
    image_weights,
    sample_balanced,
)
from .concepts import (
    Assignments,
    ConceptAssignment,
    ConceptVocabulary,
    EmbeddingFile,
    build_pseudo_caption,
    l2_normalize,
    load_embeddings,
    save_embeddings,
    topk_concepts,
)
from .manifest import (
    SampleRecord,
    SynthConfig,
    SynthRecords,
    estimate_tokens,
    ingest_manifest,
    synth_corpus,
)
from .packing import (
    Items,
    PackingConfig,
    PackingStats,
    PackItem,
    PackPlan,
    emit_plan,
    load_plan,
    pack,
    pack_bucketed,
    pack_ffd,
    packing_stats,
)

__version__ = "0.1.0"

__all__ = [
    "Assignments",
    "BalanceReport",
    "ConceptAssignment",
    "ConceptFrequencyTable",
    "ConceptVocabulary",
    "EmbeddingFile",
    "Items",
    "PackItem",
    "PackPlan",
    "PackingConfig",
    "PackingStats",
    "SampleRecord",
    "SynthConfig",
    "SynthRecords",
    "balance_report",
    "build_pseudo_caption",
    "concept_frequencies",
    "emit_plan",
    "estimate_tokens",
    "image_weights",
    "ingest_manifest",
    "l2_normalize",
    "load_embeddings",
    "load_plan",
    "pack",
    "pack_bucketed",
    "pack_ffd",
    "packing_stats",
    "sample_balanced",
    "save_embeddings",
    "synth_corpus",
    "topk_concepts",
]
