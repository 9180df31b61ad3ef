import json
import math

import numpy as np
import pytest

from hyhtm import sparse_io
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
from hyhtm.settings import TopicNode, TopicTree

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
            term_weights=np.asarray(weights, dtype=float),
            top_terms=[
                (int(j), float(w))
                for j, w in sorted(
                    enumerate(np.asarray(weights, dtype=float)), key=lambda kv: (-kv[1], kv[0])
                )
                if w > 0
            ],
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
        # A vocabulary term outside the statistics' terms of interest.
        stats = build_stats(four_doc_corpus, [0])
        with pytest.raises(ContractError, match="term 1 is not in the statistics"):
            stats.doc_freq(1)
        with pytest.raises(ContractError, match="term 1 is not in the statistics"):
            stats.joint_doc_freq(0, 1)

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

    def test_requires_n_at_least_one(self, four_doc_stats):
        with pytest.raises(ContractError, match="^hierarchical coherence needs n >= 1$"):
            hierarchical_coherence([0], [1], four_doc_stats, 0)


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

    @pytest.mark.parametrize("topic, corpus_vector, message", [
        ([1.0, 1.0], [1.0, -1.0], "specialization expects nonnegative vectors"),
        ([1.0, 1.0, 1.0], [1.0, 1.0], "vector lengths differ: 3 vs 2"),
    ])
    def test_bad_corpus_vector_rejected(self, topic, corpus_vector, message):
        with pytest.raises(ContractError, match=f"^{message}$"):
            topic_specialization(np.array(topic), np.array(corpus_vector))


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
        report = evaluate(tree, four_doc_corpus)
        assert report.topics[0]["coherence"] == pytest.approx(LN_4_3, abs=1e-12)

    def test_vocabulary_size_mismatch_rejected(self, four_doc_corpus):
        tree = hand_tree([([1.0, 0.0], [])])
        with pytest.raises(ContractError):
            evaluate(tree, four_doc_corpus)

    def test_node_without_term_weights_rejected(self, four_doc_corpus):
        # `settings.tree_from_payload` leaves them to `read_model`.
        tree = hand_tree([([1.0, 0.0, 0.0], [])])
        tree.roots[0].term_weights = None
        with pytest.raises(ContractError, match=r"node 0 has term weights of shape \(\)"):
            evaluate(tree, four_doc_corpus)

    @pytest.mark.parametrize("term", [3, -1])
    def test_top_term_outside_the_vocabulary_rejected(self, four_doc_corpus, term):
        tree = hand_tree([([1.0, 0.0, 0.0], [])])
        tree.roots[0].top_terms = [(0, 1.0), (term, 0.5)]
        with pytest.raises(ContractError, match=f"^node 0 references term index {term}$"):
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
            planted_matrices["doc_ids"],
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


# The per-pair evaluation that the one-pass `evaluate` replaced, kept as an
# oracle. Its counts come from a dense document x term presence matrix; it
# scores each pair with a scalar PMI and each pair of topics with its own
# cosine, and sums exactly as the report's definition says.


class ReferenceCounts:
    def __init__(self, corpus):
        presence = np.zeros((corpus.n_docs, len(corpus.vocabulary)))
        for i, doc in enumerate(corpus.documents):
            presence[i, doc.tokens] = 1.0
        self.doc_count = corpus.n_docs
        self.joint = (presence.T @ presence).astype(np.int64)  # exact: sums of 0/1

    def doc_freq(self, t):
        return int(self.joint[t, t])


def reference_pmi(counts, wi, wj):
    df_i, df_j = counts.doc_freq(wi), counts.doc_freq(wj)
    if df_i == 0 or df_j == 0:
        return 0.0
    n = counts.doc_count
    p_joint = (int(counts.joint[wi, wj]) + 1e-12) / n
    return math.log(p_joint * n * n / (df_i * df_j))


def reference_coherence(topic_terms, counts, n):
    terms = list(topic_terms)[:n]
    if len(terms) < 2:
        return None
    total = 0.0
    count = 0
    for i in range(len(terms)):
        for j in range(i + 1, len(terms)):
            total += reference_pmi(counts, terms[i], terms[j])
            count += 1
    return total / count


def reference_hierarchical_coherence(parent_terms, child_terms, counts, n):
    parents = list(parent_terms)[:n]
    children = list(child_terms)[:n]
    if not parents or not children:
        return None
    total = sum(reference_pmi(counts, p, c) for p in parents for c in children)
    return total / (len(parents) * len(children))


def reference_cosine(u, v):
    nu, nv = float(np.linalg.norm(u)), float(np.linalg.norm(v))
    if nu == 0.0 or nv == 0.0:
        return 0.0
    return float(u @ v) / (nu * nv)


def reference_affinity(tree):
    parents, level3 = tree.nodes_at_level(2), tree.nodes_at_level(3)
    if not parents or not level3:
        return None, None
    child_sims, non_child_sims = [], []
    for parent in parents:
        child_ids = {c.node_id for c in parent.children}
        for node in level3:
            sim = reference_cosine(parent.term_weights, node.term_weights)
            (child_sims if node.node_id in child_ids else non_child_sims).append(sim)
    child = sum(child_sims) / len(child_sims) if child_sims else None
    non_child = sum(non_child_sims) / len(non_child_sims) if non_child_sims else None
    return child, non_child


def reference_mean(values):
    values = [v for v in values if v is not None]
    return sum(values) / len(values) if values else None


def reference_report(tree, corpus):
    """The report dict of the per-pair evaluation."""
    m = len(corpus.vocabulary)
    counts = ReferenceCounts(corpus)
    nodes = list(tree.nodes())
    corpus_vector = np.bincount(
        [t for d in corpus.documents for t in d.tokens], minlength=m
    ).astype(float)
    norm = np.linalg.norm(corpus_vector)
    if norm > 0:
        corpus_vector = corpus_vector / norm
    topics = []
    for node in nodes:
        terms = [j for j, _ in node.top_terms]
        c5 = reference_coherence(terms, counts, 5) if len(terms) >= 2 else None
        c10 = reference_coherence(terms, counts, 10) if len(terms) >= 2 else None
        spec = topic_specialization(node.term_weights, corpus_vector)
        topics.append({"id": node.node_id, "level": node.level, "n_docs": len(node.doc_ids),
                       "coherence_top5": c5, "coherence_top10": c10,
                       "coherence": reference_mean([c5, c10]), "specialization": spec})
    edges = []
    for node in nodes:
        parent_terms = [j for j, _ in node.top_terms]
        for child in node.children:
            child_terms = [j for j, _ in child.top_terms]
            h5 = reference_hierarchical_coherence(parent_terms, child_terms, counts, 5)
            h10 = reference_hierarchical_coherence(parent_terms, child_terms, counts, 10)
            edges.append({"parent": node.node_id, "child": child.node_id,
                          "hcoherence_top5": h5, "hcoherence_top10": h10,
                          "hcoherence": reference_mean([h5, h10])})
    levels = []
    for level in sorted({n.level for n in nodes}):
        at_level = [t for t, n in zip(topics, nodes) if n.level == level]
        levels.append({"level": level, "n_topics": len(at_level),
                       "coherence": reference_mean([t["coherence"] for t in at_level]),
                       "specialization": reference_mean([t["specialization"] for t in at_level])})
    child_aff, non_child_aff = reference_affinity(tree)
    return {
        "summary": {
            "doc_count": corpus.n_docs, "n_topics": len(topics), "n_edges": len(edges),
            "mean_coherence": reference_mean([t["coherence"] for t in topics]),
            "mean_hierarchical_coherence": reference_mean([e["hcoherence"] for e in edges]),
            "mean_specialization_by_level": {
                str(row["level"]): row["specialization"] for row in levels
            },
            "child_affinity": child_aff, "non_child_affinity": non_child_aff,
        },
        "affinity": {"child": child_aff, "non_child": non_child_aff},
        "levels": levels, "topics": topics, "edges": edges,
    }


def assert_same_report(report, reference):
    """Equal values, and equal JSON text: every float to the last bit, the
    sign of a zero included, and every None in place."""
    assert report.to_dict() == reference
    assert json.dumps(report.to_dict(), sort_keys=True) == json.dumps(reference, sort_keys=True)


def zipf_corpus(rng, m, n_docs, max_len, ghosts):
    """Documents of 0 to max_len Zipf-drawn tokens; the last `ghosts` of
    the m terms occur in no document."""
    p = 1.0 / np.arange(1, m - ghosts + 1)
    p /= p.sum()
    terms = [f"t{j}" for j in range(m)]
    docs = [[terms[j] for j in rng.choice(m - ghosts, size=rng.integers(0, max_len + 1), p=p)]
            for _ in range(n_docs)]
    return make_corpus(docs, terms=terms)


TERM_LIST_LENGTHS = (0, 1, 2, 5, 7, 12)


def random_tree(rng, m, branching, lengths=TERM_LIST_LENGTHS):
    """A tree with branching[0] roots and branching[d] children per node at
    depth d. Each node ranks a length drawn from `lengths` of distinct terms
    (ghost terms included), and has random sparse or all-zero term weights."""

    def weights():
        if rng.integers(0, 5) < 2:
            return np.zeros(m)
        return rng.random(m) * (rng.random(m) < 0.6)

    def mk(node_id, level):
        terms = rng.choice(m, size=int(rng.choice(lengths)), replace=False)
        node = TopicNode(node_id=node_id, level=level, term_weights=weights(),
                         top_terms=[(int(j), 1.0 - i / 100) for i, j in enumerate(terms)],
                         doc_ids=[f"d{i}" for i in range(int(rng.integers(0, 4)))])
        if level < len(branching):
            node.children = [mk(f"{node_id}.{i}", level + 1) for i in range(branching[level])]
        return node

    return TopicTree(roots=[mk(str(i), 1) for i in range(branching[0])], config={}, provenance={})


class TestMatchesPerPairReference:
    """`evaluate` and the public PMI functions equal the per-pair oracle
    bit for bit."""

    @pytest.mark.parametrize("branching", [(5,), (4, 3), (4, 3, 3), (3, 4, 5)])
    @pytest.mark.parametrize("block", [1, None, 1 << 62])
    def test_random_trees(self, monkeypatch, branching, block):
        if block is not None:
            monkeypatch.setattr(sparse_io, "_BLOCK_WORK", block)
        rng = np.random.default_rng(sum(branching))
        corpus = zipf_corpus(rng, m=60, n_docs=150, max_len=30, ghosts=4)
        tree = random_tree(rng, 60, branching)
        assert_same_report(evaluate(tree, corpus), reference_report(tree, corpus))

    def test_many_distinct_pmi_values(self):
        # About 20,000 pair scores over a corpus whose terms span three
        # orders of magnitude in document frequency: enough distinct PMI
        # arguments for a logarithm or a summation order that differs in
        # the last bit to show.
        rng = np.random.default_rng(17)
        corpus = zipf_corpus(rng, m=400, n_docs=2000, max_len=60, ghosts=5)
        tree = random_tree(rng, 400, (6, 5, 4), lengths=(10, 12))
        assert_same_report(evaluate(tree, corpus), reference_report(tree, corpus))

    @pytest.mark.parametrize("max_depth", [2, 3])
    def test_planted_trees(self, planted_matrices, planted_corpus, max_depth):
        from hyhtm import TrainConfig, build_hierarchy
        from conftest import PLANTED_ALPHA, PLANTED_K, PLANTED_N_TOPICS

        tree = build_hierarchy(
            planted_matrices["a0"], planted_matrices["doc_ids"], planted_matrices["mh"],
            TrainConfig(n_topics=PLANTED_N_TOPICS, max_depth=max_depth, min_docs=20,
                        alpha=PLANTED_ALPHA, k_s=PLANTED_K, k_h=PLANTED_K, seed=0),
        )
        assert tree.depth == max_depth
        assert_same_report(evaluate(tree, planted_corpus), reference_report(tree, planted_corpus))

    def test_zero_norm_weights_score_zero_affinity(self):
        # Every level-3 topic has all-zero weights: each cosine is 0.
        tree = hand_tree([([1.0, 1.0], [([1.0, 0.0], [([0.0, 0.0], [])]),
                                         ([0.0, 1.0], [([0.0, 0.0], [])])])])
        assert hierarchical_affinity(tree) == reference_affinity(tree) == (0.0, 0.0)

    def test_public_functions(self):
        rng = np.random.default_rng(23)
        corpus = zipf_corpus(rng, m=50, n_docs=120, max_len=25, ghosts=3)
        counts = ReferenceCounts(corpus)
        stats = build_stats(corpus, range(50))
        for length in TERM_LIST_LENGTHS:
            for _ in range(4):
                a = rng.choice(50, size=length, replace=False).tolist()
                b = rng.choice(50, size=int(rng.choice(TERM_LIST_LENGTHS)), replace=False).tolist()
                for n in (2, 5, 10, 12):
                    assert coherence(a, stats, n) == reference_coherence(a, counts, n)
                for n in (1, 5, 10, 12):
                    assert (hierarchical_coherence(a, b, stats, n)
                            == reference_hierarchical_coherence(a, b, counts, n))
                for wi in a:
                    for wj in b:
                        assert pmi(stats, wi, wj) == reference_pmi(counts, wi, wj)
