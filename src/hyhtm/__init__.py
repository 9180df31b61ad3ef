"""Hierarchical topic trees from recursive nonnegative factorization of
hyperbolic-embedding-enriched document representations.

Each exported name is imported from its module on first use (PEP 562), so
`import hyhtm` loads no numpy, and neither does a command that needs none.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "corpus": (
        "Corpus", "DocTermRepresentation", "Document", "PreprocessConfig", "Vocabulary",
        "build_document_representation", "build_tf", "compute_idf", "preprocess",
    ),
    "hierarchy": (
        "assign_documents", "build_hierarchy", "parent_child_reweight", "top_words",
    ),
    "hypspace": (
        "EmbeddingTable", "Neighborhood", "TermHierarchyMatrix", "TermSimilarityMatrix",
        "build_hierarchy_matrix", "build_similarity_matrix", "euclidean_cosine", "knn",
        "load_embeddings", "neighborhood_similarity", "poincare_distance",
    ),
    "metrics": (
        "CooccurrenceStats", "EvalReport", "build_stats", "coherence", "evaluate",
        "hierarchical_affinity", "hierarchical_coherence", "pmi", "topic_specialization",
    ),
    "nmf": ("FactorPair", "factorize", "reconstruction_error"),
    "settings": ("TopicNode", "TopicTree", "TrainConfig"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value

