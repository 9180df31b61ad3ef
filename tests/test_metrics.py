import math

import numpy as np
import pytest

from hyhtm import (
    build_stats,
    coherence,
    evaluate,
    hierarchical_affinity,
    hierarchical_coherence,
    pmi,
    topic_specialization,
)
from hyhtm.errors import ContractError
from hyhtm.hierarchy import TopicNode, TopicTree

from conftest import make_corpus

LN_4_3 = 0.28768207245178092743921900599382743150350971089776


def ids(corpus, *terms):
    return [corpus.vocabulary.index[t] for t in terms]


@pytest.fixture()
def four_doc_stats(four_doc_corpus):
    return build_stats(four_doc_corpus, range(3))


def hand_tree(levels):
    """Build a TopicTree from nested (term_weights, children) tuples per root."""

    def mk(spec, level, prefix, index):
        weights, children = spec
        node = TopicNode(
            node_id=f"{prefix}{index}",
            level=level,
            term_weights=None if weights is None else np.asarray(weights, dtype=float),
            top_terms=(
                []
                if weights is None
                else [
                    (int(j), float(w))
                    for j, w in sorted(
                        enumerate(np.asarray(weights, dtype=float)),
                        key=lambda kv: (-kv[1], kv[0]),
                    )
                    if w > 0
                ]
            ),
            doc_ids=[],
        )
        node.children = [
            mk(child, level + 1, node.node_id + ".", i) for i, child in enumerate(children)
        ]
        return node

    roots = [mk(spec, 1, "", i) for i, spec in enumerate(levels)]
    return TopicTree(roots=roots, config={}, provenance={})


class TestBuildStats:
    def test_hand_counts(self, four_doc_corpus, four_doc_stats):
        a, b, c = ids(four_doc_corpus, "a", "b", "c")
        stats = four_doc_stats
        assert stats.doc_count == 4
        assert stats.doc_freq(a) == 3
        assert stats.doc_freq(b) == 2
        assert stats.doc_freq(c) == 2
        assert stats.joint_doc_freq(a, b) == 2
        assert stats.joint_doc_freq(a, c) == 1
        assert stats.joint_doc_freq(b, c) == 0

    def test_single_document(self):
        corpus = make_corpus([["x", "y", "z"]])
        stats = build_stats(corpus, range(3))
        for i in range(3):
            for j in range(i + 1, 3):
                assert stats.joint_doc_freq(i, j) == 1

    def test_empty_interest_set(self, four_doc_corpus):
        stats = build_stats(four_doc_corpus, [])
        assert stats.doc_count == 4
        assert stats.term_order == []

    def test_joint_bounded_by_marginals_and_symmetric(self):
        rng = np.random.default_rng(41)
        terms = [f"t{i}" for i in range(6)]
        docs = [
            [terms[j] for j in rng.choice(6, size=rng.integers(1, 5), replace=False)]
            for _ in range(30)
        ]
        corpus = make_corpus(docs, terms=terms)
        stats = build_stats(corpus, range(6))
        for i in range(6):
            for j in range(6):
                joint = stats.joint_doc_freq(i, j)
                assert joint == stats.joint_doc_freq(j, i)
                assert joint <= min(stats.doc_freq(i), stats.doc_freq(j))

    def test_out_of_vocabulary_rejected(self, four_doc_corpus):
        with pytest.raises(ContractError):
            build_stats(four_doc_corpus, [99])

    def test_joint_grid_matches_dense_presence_counts(self):
        # Sparse co-occurrence with absent pairs, a term in no document and
        # a subset of the vocabulary as the terms of interest.
        rng = np.random.default_rng(42)
        terms = [f"t{i}" for i in range(12)]
        docs = [
            [terms[j] for j in rng.choice(11, size=rng.integers(1, 4), replace=False)]
            for _ in range(25)
        ]
        corpus = make_corpus(docs, terms=terms)
        presence = np.zeros((corpus.n_docs, 12), dtype=np.int64)
        for i, doc in enumerate(corpus.documents):
            presence[i, sorted(set(doc.tokens))] = 1
        dense = presence.T @ presence
        interest = [0, 2, 3, 5, 7, 8, 10, 11]
        stats = build_stats(corpus, interest)
        rows, cols = [11, 3, 0, 8], [5, 5, 2, 10, 11, 7]
        assert stats.joint_doc_freqs(rows, cols) == dense[np.ix_(rows, cols)].tolist()
        for i in interest:
            for j in interest:
                assert stats.joint_doc_freq(i, j) == dense[i, j]
        with pytest.raises(ContractError):
            stats.joint_doc_freqs([0], [1])

    @pytest.mark.parametrize("n_docs", [1, 7, 8, 9, 13, 17])
    def test_edge_cases_match_dense_presence_counts(self, n_docs):
        # Document counts around the 8-bit packing boundary, empty documents,
        # repeated tokens, a term of interest in no document, and the diagonal.
        rng = np.random.default_rng(100 + n_docs)
        terms = [f"t{i}" for i in range(8)]
        docs = [
            [terms[j] for j in rng.integers(0, 7, size=rng.integers(0, 9))]
            for _ in range(n_docs)
        ]
        docs[0] = [terms[1], terms[1], terms[1]]
        docs[-1] = []
        corpus = make_corpus(docs, terms=terms)
        presence = np.zeros((n_docs, 8), dtype=np.int64)
        for i, doc in enumerate(corpus.documents):
            presence[i, doc.tokens] = 1
        dense = presence.T @ presence
        interest = [0, 1, 3, 6, 7]  # t7 is in no document
        stats = build_stats(corpus, interest)
        assert stats.doc_count == n_docs
        assert stats.joint_doc_freqs(interest, interest) == dense[np.ix_(interest, interest)].tolist()
        for w in interest:
            assert stats.doc_freq(w) == stats.joint_doc_freq(w, w) == dense[w, w]
        assert stats.doc_freq(7) == 0
        assert pmi(stats, 7, 1) == 0.0 and pmi(stats, 7, 7) == 0.0


class TestPmi:
    def test_hand_value(self, four_doc_corpus, four_doc_stats):
        a, b = ids(four_doc_corpus, "a", "b")
        assert pmi(four_doc_stats, a, b) == pytest.approx(LN_4_3, abs=1e-12)

    def test_perfect_dependence(self):
        corpus = make_corpus([["x", "y"], ["x", "y"], ["z"], ["z"]])
        stats = build_stats(corpus, range(3))
        x, y = corpus.vocabulary.index["x"], corpus.vocabulary.index["y"]
        # P(x,y) = P(x) = P(y) = 1/2, so PMI = ln(1 / P(x)) = ln 2
        assert pmi(stats, x, y) == pytest.approx(math.log(2), abs=1e-9)

    def test_never_cooccurring_pair(self, four_doc_corpus, four_doc_stats):
        b, c = ids(four_doc_corpus, "b", "c")
        expected = math.log(1e-12 * 4 / (2 * 2))
        assert pmi(four_doc_stats, b, c) == pytest.approx(expected, abs=1e-9)

    def test_symmetry_exact(self, four_doc_corpus, four_doc_stats):
        a, b, c = ids(four_doc_corpus, "a", "b", "c")
        for wi, wj in ((a, b), (a, c), (b, c)):
            assert pmi(four_doc_stats, wi, wj) == pmi(four_doc_stats, wj, wi)

    def test_self_pair_is_negative_log_marginal(self, four_doc_corpus, four_doc_stats):
        a = ids(four_doc_corpus, "a")[0]
        assert pmi(four_doc_stats, a, a) == pytest.approx(math.log(4 / 3), abs=1e-9)

    def test_unknown_term_rejected(self, four_doc_stats):
        with pytest.raises(ContractError):
            pmi(four_doc_stats, 0, 12)


class TestCoherence:
    def test_single_pair(self, four_doc_corpus, four_doc_stats):
        a, b = ids(four_doc_corpus, "a", "b")
        assert coherence([a, b], four_doc_stats, 2) == pytest.approx(LN_4_3, abs=1e-12)

    def test_independent_terms_score_zero(self):
        # P(x, y) = P(x) P(y) exactly
        corpus = make_corpus([["x", "y"], ["x"], ["y"], ["w"]])
        stats = build_stats(corpus, range(3))
        x, y = corpus.vocabulary.index["x"], corpus.vocabulary.index["y"]
        assert coherence([x, y], stats, 2) == pytest.approx(0.0, abs=1e-9)

    def test_fewer_than_two_terms_absent(self, four_doc_stats):
        assert coherence([0], four_doc_stats, 5) is None

    def test_zero_marginal_term_scores_zero(self):
        corpus = make_corpus([["x"], ["x"]], terms=["x", "ghost"])
        stats = build_stats(corpus, range(2))
        assert coherence([0, 1], stats, 2) == 0.0

    def test_requires_n_at_least_two(self, four_doc_stats):
        with pytest.raises(ContractError):
            coherence([0, 1], four_doc_stats, 1)


class TestHierarchicalCoherence:
    def test_single_terms_reduce_to_pmi(self, four_doc_corpus, four_doc_stats):
        a, b = ids(four_doc_corpus, "a", "b")
        assert hierarchical_coherence([a], [b], four_doc_stats, 1) == pytest.approx(
            LN_4_3, abs=1e-12
        )

    def test_grid_includes_self_pairs(self, four_doc_corpus, four_doc_stats):
        a, b = ids(four_doc_corpus, "a", "b")
        value = hierarchical_coherence([a, b], [a, b], four_doc_stats, 2)
        grid = [
            pmi(four_doc_stats, wi, wj) for wi in (a, b) for wj in (a, b)
        ]
        assert value == pytest.approx(sum(grid) / 4, abs=1e-12)

    def test_self_grid_matches_brute_force_oracle(self):
        rng = np.random.default_rng(42)
        terms = [f"t{i}" for i in range(6)]
        docs = [
            [terms[j] for j in rng.choice(6, size=rng.integers(2, 6), replace=False)]
            for _ in range(25)
        ]
        corpus = make_corpus(docs, terms=terms)
        stats = build_stats(corpus, range(6))
        for n in (2, 3, 6):
            picks = list(range(n))
            value = hierarchical_coherence(picks, picks, stats, n)
            brute = sum(pmi(stats, i, j) for i in picks for j in picks) / (n * n)
            assert value == pytest.approx(brute, abs=1e-12)

    def test_independent_sets_score_near_zero(self):
        corpus = make_corpus([["x", "y"], ["x"], ["y"], ["w"]])
        stats = build_stats(corpus, range(3))
        x, y = corpus.vocabulary.index["x"], corpus.vocabulary.index["y"]
        assert hierarchical_coherence([x], [y], stats, 1) == pytest.approx(0.0, abs=1e-9)

    def test_empty_list_absent(self, four_doc_stats):
        assert hierarchical_coherence([], [0], four_doc_stats, 5) is None


class TestTopicSpecialization:
    def test_proportional_vectors_score_zero(self):
        vec = np.array([1.0, 2.0, 3.0])
        assert topic_specialization(vec * 4.0, vec) == 0.0

    def test_disjoint_support_scores_one(self):
        assert topic_specialization(np.array([1.0, 0.0]), np.array([0.0, 2.0])) == 1.0

    def test_hand_value(self):
        value = topic_specialization(np.array([1.0, 0.0]), np.array([1.0, 1.0]) / math.sqrt(2))
        assert value == pytest.approx(1 - 1 / math.sqrt(2), abs=1e-12)

    def test_zero_topic_vector_absent(self):
        assert topic_specialization(np.zeros(3), np.ones(3)) is None

    def test_rescaling_invariance(self):
        rng = np.random.default_rng(43)
        topic = rng.random(10)
        corpus_vec = rng.random(10)
        base = topic_specialization(topic, corpus_vec)
        assert topic_specialization(topic * 3.7, corpus_vec) == pytest.approx(base, abs=1e-12)
        assert topic_specialization(topic, corpus_vec * 0.02) == pytest.approx(base, abs=1e-12)

    def test_negative_rejected(self):
        with pytest.raises(ContractError):
            topic_specialization(np.array([-1.0, 1.0]), np.ones(2))


class TestHierarchicalAffinity:
    def test_identical_children_score_one(self):
        weights = [0.2, 0.8, 0.0]
        tree = hand_tree(
            [
                (
                    [1.0, 1.0, 1.0],
                    [
                        (weights, [(weights, []), (weights, [])]),
                        ([0.5, 0.1, 0.9], [([0.5, 0.1, 0.9], [])]),
                    ],
                )
            ]
        )
        child, non_child = hierarchical_affinity(tree)
        assert child == pytest.approx(1.0, abs=1e-12)

    def test_single_parent_has_no_non_child(self):
        tree = hand_tree(
            [([1.0, 0.0], [([0.3, 0.7], [([0.3, 0.7], []), ([0.1, 0.2], [])])])]
        )
        child, non_child = hierarchical_affinity(tree)
        assert child is not None
        assert non_child is None

    def test_orthogonal_subtrees_non_child_zero(self):
        tree = hand_tree(
            [
                (
                    [1.0, 1.0, 1.0, 1.0],
                    [
                        ([1.0, 1.0, 0.0, 0.0], [([1.0, 0.5, 0.0, 0.0], [])]),
                        ([0.0, 0.0, 1.0, 1.0], [([0.0, 0.0, 0.5, 1.0], [])]),
                    ],
                )
            ]
        )
        child, non_child = hierarchical_affinity(tree)
        assert non_child == pytest.approx(0.0, abs=1e-12)
        assert child > 0.5

    def test_absent_without_level_three(self):
        tree = hand_tree([([1.0, 0.0], [([0.5, 0.5], [])])])
        assert hierarchical_affinity(tree) == (None, None)

    def test_values_in_unit_interval(self):
        rng = np.random.default_rng(44)
        subtrees = []
        for _ in range(3):
            children = [(rng.random(6).tolist(), []) for _ in range(2)]
            subtrees.append((rng.random(6).tolist(), children))
        tree = hand_tree([(rng.random(6).tolist(), subtrees)])
        child, non_child = hierarchical_affinity(tree)
        assert 0.0 <= child <= 1.0
        assert 0.0 <= non_child <= 1.0


class TestEvaluate:
    def test_empty_tree_reports_absent_sections(self, four_doc_corpus):
        tree = TopicTree(roots=[], config={}, provenance={})
        report = evaluate(tree, four_doc_corpus)
        assert report.topics == [] and report.edges == []
        assert report.summary["mean_coherence"] is None
        assert report.affinity == {"child": None, "non_child": None}

    def test_single_level_tree_has_no_hierarchy_metrics(self, four_doc_corpus):
        tree = hand_tree([([1.0, 1.0, 0.0], []), ([0.0, 1.0, 1.0], [])])
        report = evaluate(tree, four_doc_corpus)
        assert report.edges == []
        assert report.summary["mean_hierarchical_coherence"] is None
        assert report.summary["mean_coherence"] is not None

    def test_hand_tree_coherence_value(self, four_doc_corpus):
        a, b = ids(four_doc_corpus, "a", "b")
        tree = hand_tree([([0.0, 0.0, 0.0], [])])
        tree.roots[0].top_terms = [(a, 1.0), (b, 0.5)]
        tree.roots[0].term_weights = None
        report = evaluate(tree, four_doc_corpus)
        assert report.topics[0]["coherence"] == pytest.approx(LN_4_3, abs=1e-12)

    def test_vocabulary_size_mismatch_rejected(self, four_doc_corpus):
        tree = hand_tree([([1.0, 0.0], [])])
        with pytest.raises(ContractError):
            evaluate(tree, four_doc_corpus)

    def test_recorded_vocab_size_mismatch_rejected(self, four_doc_corpus):
        tree = hand_tree([([1.0, 0.0, 0.0], [])])
        tree.config["vocab_size"] = 17
        with pytest.raises(ContractError):
            evaluate(tree, four_doc_corpus)

    def test_averages_equal_mean_of_items(self, planted_matrices, planted_corpus):
        from hyhtm import TrainConfig, build_hierarchy
        from conftest import (
            PLANTED_ALPHA, PLANTED_K, PLANTED_MAX_DEPTH, PLANTED_MIN_DOCS, PLANTED_N_TOPICS,
        )

        tree = build_hierarchy(
            planted_matrices["a0"],
            planted_matrices["mh"],
            TrainConfig(
                n_topics=PLANTED_N_TOPICS, max_depth=PLANTED_MAX_DEPTH,
                min_docs=PLANTED_MIN_DOCS, alpha=PLANTED_ALPHA,
                k_s=PLANTED_K, k_h=PLANTED_K, seed=0,
            ),
        )
        report = evaluate(tree, planted_corpus)
        coh = [t["coherence"] for t in report.topics if t["coherence"] is not None]
        assert report.summary["mean_coherence"] == pytest.approx(sum(coh) / len(coh), abs=1e-12)
        hc = [e["hcoherence"] for e in report.edges if e["hcoherence"] is not None]
        assert report.summary["mean_hierarchical_coherence"] == pytest.approx(
            sum(hc) / len(hc), abs=1e-12
        )
        for row in report.levels:
            level_topics = [
                t["specialization"]
                for t in report.topics
                if t["level"] == row["level"] and t["specialization"] is not None
            ]
            assert row["specialization"] == pytest.approx(
                sum(level_topics) / len(level_topics), abs=1e-12
            )

    def test_rescaled_weights_leave_report_unchanged(self, four_doc_corpus):
        a, b = ids(four_doc_corpus, "a", "b")
        base = hand_tree([([0.4, 0.2, 0.0], [])])
        scaled = hand_tree([([4.0, 2.0, 0.0], [])])
        r1 = evaluate(base, four_doc_corpus)
        r2 = evaluate(scaled, four_doc_corpus)
        assert r1.topics[0]["coherence"] == r2.topics[0]["coherence"]
        assert r1.topics[0]["specialization"] == pytest.approx(
            r2.topics[0]["specialization"], abs=1e-12
        )

    def test_csv_flattening(self, four_doc_corpus, tmp_path):
        tree = hand_tree([([1.0, 1.0, 0.0], [([1.0, 0.5, 0.0], [])])])
        report = evaluate(tree, four_doc_corpus)
        path = tmp_path / "report.csv"
        report.write_csv(path)
        text = path.read_text(encoding="utf-8")
        lines = text.strip().splitlines()
        assert lines[0].startswith("section,")
        sections = {line.split(",")[0] for line in lines[1:]}
        assert {"topic", "edge", "level", "affinity"} <= sections
