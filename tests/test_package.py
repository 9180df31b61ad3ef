"""The package's exports, resolved from their modules on first use, and the
numpy-free settings module that `hierarchy` and `hypspace` import back."""

import importlib

import pytest

import hyhtm
from hyhtm import hierarchy, hypspace, settings

EXPORTS = {
    "corpus": [
        "Corpus", "DocTermRepresentation", "Document", "PreprocessConfig", "Vocabulary",
        "build_document_representation", "build_tf", "compute_idf", "preprocess",
    ],
    "hierarchy": [
        "TrainConfig", "assign_documents", "build_hierarchy", "parent_child_reweight", "top_words",
    ],
    "hypspace": [
        "EmbeddingTable", "Neighborhood", "TermHierarchyMatrix", "TermSimilarityMatrix",
        "build_hierarchy_matrix", "build_similarity_matrix", "euclidean_cosine", "knn",
        "load_embeddings", "neighborhood_similarity", "poincare_distance",
    ],
    "metrics": [
        "CooccurrenceStats", "EvalReport", "build_stats", "coherence", "evaluate",
        "hierarchical_affinity", "hierarchical_coherence", "pmi", "topic_specialization",
    ],
    "nmf": ["FactorPair", "factorize", "reconstruction_error"],
    "settings": ["TopicNode", "TopicTree"],
}


def test_all_lists_the_39_exports():
    expected = sorted(name for names in EXPORTS.values() for name in names)
    assert len(expected) == 39
    assert sorted(hyhtm.__all__) == expected


@pytest.mark.parametrize("module", sorted(EXPORTS))
def test_every_export_is_the_object_of_its_module(module):
    owner = importlib.import_module(f"hyhtm.{module}")
    for name in EXPORTS[module]:
        assert getattr(hyhtm, name) is getattr(owner, name), name


def test_star_import_binds_every_export():
    namespace = {}
    exec("from hyhtm import *", namespace)
    assert {name: namespace[name] for name in hyhtm.__all__} == {
        name: getattr(hyhtm, name) for name in hyhtm.__all__
    }


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        hyhtm.no_such_name  # noqa: B018
    with pytest.raises(ImportError):
        exec("from hyhtm import no_such_name", {})
    assert not hasattr(hyhtm, "numpy")


def test_settings_are_imported_back_by_their_old_modules():
    assert hierarchy.TrainConfig is settings.TrainConfig
    assert hypspace.SPACES is settings.SPACES
    assert hypspace.HYPERBOLIC is settings.HYPERBOLIC
    assert hypspace.EUCLIDEAN is settings.EUCLIDEAN
