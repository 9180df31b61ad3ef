import logging
import re

import numpy as np
import pytest
from scipy import sparse

from hyhtm import (
    TrainConfig,
    assign_documents,
    build_document_representation,
    build_hierarchy,
    build_hierarchy_matrix,
    build_similarity_matrix,
    build_tf,
    compute_idf,
    evaluate,
    load_embeddings,
    parent_child_reweight,
    top_words,
)
from hyhtm.errors import ConfigurationError, ContractError, DegenerateCorpusError, ShapeError
from hyhtm import hierarchy
from hyhtm.nmf import FactorPair
from hyhtm.settings import tree_from_payload, tree_to_payload
from hyhtm.sparse_io import read_csr, save_csr

from conftest import (
    PLANTED_ALPHA,
    PLANTED_K,
    PLANTED_MAX_DEPTH,
    PLANTED_MIN_DOCS,
    PLANTED_N_TOPICS,
    PLANTED_SEEDS,
    csr_of,
)
from planted import purity


def planted_config(seed=0, **kwargs):
    defaults = dict(
        n_topics=PLANTED_N_TOPICS,
        max_depth=PLANTED_MAX_DEPTH,
        min_docs=PLANTED_MIN_DOCS,
        alpha=PLANTED_ALPHA,
        k_s=PLANTED_K,
        k_h=PLANTED_K,
        seed=seed,
    )
    defaults.update(kwargs)
    return TrainConfig(**defaults)


class TestAssignDocuments:
    def test_argmax_assignment(self):
        parts = assign_documents(np.array([[0.2, 0.7, 0.1]]))
        assert parts == [[], [0], []]

    def test_tie_goes_to_lowest_topic(self):
        parts = assign_documents(np.array([[0.5, 0.5]]))
        assert parts == [[0], []]

    def test_zero_row_unassigned(self):
        parts = assign_documents(np.array([[0.0, 0.0], [0.3, 0.1]]))
        assert parts == [[1], []]

    def test_negative_rejected(self):
        with pytest.raises(ContractError):
            assign_documents(np.array([[-0.1, 0.2]]))

    def test_partition_is_disjoint_and_complete(self):
        rng = np.random.default_rng(31)
        w = rng.random((50, 4)) * (rng.random((50, 4)) < 0.7)
        parts = assign_documents(w)
        seen = [i for cell in parts for i in cell]
        assert len(seen) == len(set(seen))
        nonzero_rows = set(np.flatnonzero(w.any(axis=1)))
        assert set(seen) == nonzero_rows


class TestParentChildReweight:
    @pytest.mark.parametrize("m", [1, 2, 7, 40])
    @pytest.mark.parametrize("weighted", [False, True])
    def test_bitwise_equal_to_sparse_product(self, m, weighted):
        # Random adjacency with empty rows (all of them in the first trial);
        # the reweight for every topic is bitwise scipy's sparse product.
        rng = np.random.default_rng(1000 * m + weighted)
        for trial in range(20):
            dense = (rng.random((m, m)) < 0.3) * (rng.random((m, m)) if weighted else 1.0)
            dense[rng.random(m) < (0.2 if trial else 1.0)] = 0.0
            mh = sparse.csr_matrix(dense)
            h = rng.random((3, m)) * (rng.random((3, m)) < 0.8)
            for i in range(3):
                expected = np.asarray(mh.T @ h[i]).ravel()
                out = parent_child_reweight(h, i, csr_of(mh))
                assert out.shape == (m,)
                assert out.tobytes() == expected.tobytes()

    def test_identity_returns_topic_row(self):
        h = np.array([[0.5, 0.0, 0.2]])
        out = parent_child_reweight(h, 0, csr_of(sparse.identity(3)))
        assert np.allclose(out, [0.5, 0.0, 0.2])

    def test_hand_product(self):
        h = np.array([[0.5, 0.0, 0.2]])
        mh = csr_of(np.array([[1, 1, 0], [0, 1, 0], [0, 0, 1]], dtype=float))
        out = parent_child_reweight(h, 0, mh)
        assert np.allclose(out, [0.5, 0.5, 0.2])

    def test_zero_row_propagates(self):
        h = np.zeros((2, 3))
        mh = csr_of(np.ones((3, 3)))
        assert not parent_child_reweight(h, 1, mh).any()

    def test_shape_errors(self):
        h = np.array([[0.5, 0.1]])
        with pytest.raises(ShapeError):
            parent_child_reweight(h, 3, csr_of(sparse.identity(2)))
        with pytest.raises(ShapeError):
            parent_child_reweight(h, 0, csr_of(sparse.identity(3)))

    def test_nonnegative(self):
        rng = np.random.default_rng(32)
        h = rng.random((3, 10))
        mh = csr_of((rng.random((10, 10)) < 0.3).astype(float))
        assert parent_child_reweight(h, 1, mh).min() >= 0


class TestTopWords:
    @pytest.mark.parametrize("i, n, error, message", [
        (0, 0, ConfigurationError, "n must be >= 1"),
        (2, 3, ShapeError, "topic index 2 out of range for 2 topics"),
        (-1, 3, ShapeError, "topic index -1 out of range for 2 topics"),
    ])
    def test_bad_arguments_are_rejected(self, i, n, error, message):
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            top_words(np.ones((2, 4)), i, n)

    def test_direct_sort(self):
        picks = top_words(np.array([[0.1, 0.9, 0.3]]), 0, 2)
        assert [j for j, _ in picks] == [1, 2]

    def test_uniform_ties_break_by_index(self):
        picks = top_words(np.array([[0.5, 0.5, 0.5]]), 0, 2)
        assert [j for j, _ in picks] == [0, 1]

    def test_one_hot(self):
        picks = top_words(np.array([[0.0, 0.0, 1.0]]), 0, 1)
        assert picks == [(2, 1.0)]

    def test_n_beyond_vocab_returns_all(self):
        picks = top_words(np.array([[0.3, 0.1]]), 0, 10)
        assert len(picks) == 2

    def test_scaling_invariance(self):
        rng = np.random.default_rng(34)
        row = rng.random((1, 30))
        base = [j for j, _ in top_words(row, 0, 10)]
        scaled = [j for j, _ in top_words(row * 7.25, 0, 10)]
        assert base == scaled


class TestBuildHierarchy:
    def test_too_few_documents_raise_degenerate_corpus(self):
        a0 = csr_of(np.abs(np.random.default_rng(0).random((10, 6))))
        doc_ids = [f"d{i}" for i in range(10)]
        with pytest.raises(DegenerateCorpusError,
                           match=r"^root has 10 nonzero rows, fewer than min_docs=50$"):
            build_hierarchy(
                a0, doc_ids, csr_of(sparse.identity(6)), planted_config(min_docs=50, n_topics=2)
            )

    def test_empty_rows_do_not_count_toward_min_docs(self):
        dense = np.zeros((60, 6))
        dense[::6] = np.abs(np.random.default_rng(0).random((10, 6))) + 0.1
        with pytest.raises(DegenerateCorpusError,
                           match=r"^root has 10 nonzero rows, fewer than min_docs=50$"):
            build_hierarchy(csr_of(dense), [f"d{i}" for i in range(60)],
                            csr_of(sparse.identity(6)), planted_config(min_docs=50))

    def test_hierarchy_matrix_of_another_shape_rejected(self):
        a0 = csr_of(np.abs(np.random.default_rng(0).random((10, 6))))
        with pytest.raises(ShapeError, match=r"^hierarchy matrix is \(5, 5\), expected \(6, 6\)$"):
            build_hierarchy(a0, [f"d{i}" for i in range(10)], csr_of(sparse.identity(5)),
                            planted_config())

    @pytest.mark.parametrize("n_ids", [9, 11])
    def test_id_count_other_than_a0_rows_rejected(self, n_ids):
        a0 = csr_of(np.abs(np.random.default_rng(0).random((10, 6))))
        with pytest.raises(ShapeError, match=f"{n_ids} document ids for the 10 rows"):
            build_hierarchy(
                a0, [f"d{i}" for i in range(n_ids)], csr_of(sparse.identity(6)), planted_config()
            )

    def test_depth_cap_one_level(self, planted_matrices):
        tree = build_hierarchy(
            planted_matrices["a0"], planted_matrices["doc_ids"], planted_matrices["mh"],
            planted_config(max_depth=1)
        )
        assert len(tree.roots) == PLANTED_N_TOPICS
        assert all(not node.children for node in tree.roots)

    def test_planted_partition_purity(self, planted_matrices, planted):
        tree = build_hierarchy(
            planted_matrices["a0"], planted_matrices["doc_ids"], planted_matrices["mh"],
            planted_config(seed=0)
        )
        cells = [node.doc_ids for node in tree.roots]
        assert purity(cells, planted.root_labels, 900) >= 0.8

    @pytest.mark.parametrize("n_topics", [4, 5])
    def test_planted_subconcepts_recovered_at_level_2(self, planted_matrices, planted, n_topics):
        # More topics per node than subconcepts per root, as every benchmark
        # workload has. With as many topics as subconcepts, an update rule
        # that fits tighter but splits subconcepts (HALS in place of MU)
        # also scores 1.0; here it scored 0.89-0.96 at 4 topics and
        # 0.77-0.78 at 5, where MU scores 1.0.
        for seed in PLANTED_SEEDS:
            tree = build_hierarchy(
                planted_matrices["a0"], planted_matrices["doc_ids"], planted_matrices["mh"],
                planted_config(seed=seed, n_topics=n_topics),
            )
            cells = [node.doc_ids for node in tree.nodes_at_level(2)]
            assert purity(cells, planted.sub_labels, 900) >= 0.98, seed

    def test_hyperbolic_space_beats_euclidean(self, planted_inputs, planted_corpus, planted):
        """The paper's central claim, that hyperbolic neighbourhoods make
        children specialise their parents, on the planted fixture: over 3-5
        topics and three seeds, hyperbolic level-2 purity is 1.0 and above
        Euclidean's (which scored 0.76-0.99), and its mean hierarchical
        coherence is higher in every run (1.09-1.24 against 0.88-1.09).

        Caveat: the planted embeddings put generality in the radius (root
        words near the origin, subconcept words farther out), which cosine
        similarity ignores by design. This shows that the implementation
        carries the paper's mechanism, not that hyperbolic geometry wins on
        real corpora. S carries the gain: a hyperbolic run with a Euclidean
        S fails here, one with a Euclidean H does not.
        """
        tf = build_tf(planted_corpus)
        doc_ids = [d.id for d in planted_corpus.documents]
        scores = {}
        for space in ("hyperbolic", "euclidean"):
            table = load_embeddings(planted_inputs[1], planted_corpus.vocabulary, space)
            ms = build_similarity_matrix(table, k_s=PLANTED_K, alpha=PLANTED_ALPHA).entries
            mh = build_hierarchy_matrix(table, k_h=PLANTED_K).entries
            a0 = build_document_representation(tf, ms, compute_idf(tf, ms)).values
            for n_topics in (3, 4, 5):
                for seed in PLANTED_SEEDS:
                    config = planted_config(seed=seed, n_topics=n_topics, space=space)
                    tree = build_hierarchy(a0, doc_ids, mh, config)
                    cells = [node.doc_ids for node in tree.nodes_at_level(2)]
                    summary = evaluate(tree, planted_corpus).summary
                    scores[n_topics, seed, space] = (
                        purity(cells, planted.sub_labels, 900),
                        summary["mean_hierarchical_coherence"],
                    )
        for n_topics in (3, 4, 5):
            for seed in PLANTED_SEEDS:
                hyp, euc = scores[n_topics, seed, "hyperbolic"], scores[n_topics, seed, "euclidean"]
                assert hyp[0] == 1.0 and hyp[0] > euc[0], (n_topics, seed, hyp, euc)
                assert hyp[1] > euc[1], (n_topics, seed, hyp, euc)

    def test_tree_structure_invariants(self, planted_matrices):
        tree = build_hierarchy(
            planted_matrices["a0"], planted_matrices["doc_ids"], planted_matrices["mh"],
            planted_config(seed=1)
        )
        assert tree.depth <= PLANTED_MAX_DEPTH
        for node in tree.nodes():
            child_ids = [d for c in node.children for d in c.doc_ids]
            assert len(child_ids) == len(set(child_ids))  # siblings disjoint
            if node.children:
                assert set(child_ids) <= set(node.doc_ids)
                assert len(node.doc_ids) >= PLANTED_MIN_DOCS
                for child in node.children:
                    assert child.level == node.level + 1

    def test_children_confined_to_reweight_support(self, planted_matrices):
        # A term outside a node's expanded term vector cannot enter its
        # children: their input columns and factor weights stay zero there.
        mh = planted_matrices["mh"].tocsr()
        tree = build_hierarchy(
            planted_matrices["a0"], planted_matrices["doc_ids"], planted_matrices["mh"],
            planted_config(seed=2),
        )
        checked = 0
        for node in tree.nodes():
            if not node.children:
                continue
            m_ti = np.asarray(mh.T @ node.term_weights).ravel()
            dead = m_ti == 0
            for child in node.children:
                assert not child.term_weights[dead].any()
                checked += 1
        assert checked > 0

    def test_identity_hierarchy_reduction_runs(self, planted_matrices):
        tree = build_hierarchy(
            planted_matrices["a0"], planted_matrices["doc_ids"], planted_matrices["mh_identity"],
            planted_config(seed=0)
        )
        assert tree.depth == PLANTED_MAX_DEPTH

    def test_deterministic_given_seed(self, planted_matrices, planted_corpus):
        vocabulary = planted_corpus.vocabulary
        trees = [
            build_hierarchy(
                planted_matrices["a0"], planted_matrices["doc_ids"], planted_matrices["mh"],
                planted_config(seed=3),
            )
            for _ in range(2)
        ]
        payloads = [tree_to_payload(t, vocabulary) for t in trees]
        assert payloads[0] == payloads[1]
        weights = [[n.term_weights for n in t.nodes()] for t in trees]
        for w1, w2 in zip(*weights):
            assert np.array_equal(w1, w2)

    @pytest.mark.parametrize("layout", ["dense", "sparse"])
    @pytest.mark.parametrize("hierarchy_matrix", ["hierarchy", "identity"])
    def test_cache_read_arrays_build_the_builders_tree(
        self, planted_matrices, planted_corpus, monkeypatch, tmp_path, hierarchy_matrix, layout
    ):
        # A cache hit hands build_hierarchy the arrays `read_csr` reads back;
        # the tree is identical to the one built from the builders' arrays,
        # with the planted nodes factorized dense (their own layout) or
        # sparse, under the planted hierarchy matrix or the identity.
        if layout == "sparse":
            monkeypatch.setattr(hierarchy, "DENSE_MIN_DENSITY", 1.0)
        a0 = planted_matrices["a0"]
        mh = planted_matrices["mh" if hierarchy_matrix == "hierarchy" else "mh_identity"]

        def cached(matrix):
            save_csr(tmp_path / "m.bin", matrix)
            return read_csr(tmp_path / "m.bin", matrix.shape)

        config = planted_config(seed=4)
        doc_ids = planted_matrices["doc_ids"]
        built = build_hierarchy(a0, doc_ids, mh, config)
        from_cache = build_hierarchy(cached(a0), doc_ids, cached(mh), config)
        vocabulary = planted_corpus.vocabulary
        assert tree_to_payload(from_cache, vocabulary) == tree_to_payload(built, vocabulary)
        assert from_cache.provenance == built.provenance
        for a, b in zip(from_cache.nodes(), built.nodes()):
            assert a.term_weights.tobytes() == b.term_weights.tobytes()

    def test_live_matrix_gauge_bound(self, planted_matrices):
        tree = build_hierarchy(
            planted_matrices["a0"], planted_matrices["doc_ids"], planted_matrices["mh"],
            planted_config(seed=0)
        )
        assert tree.provenance["peak_live_matrices"] <= PLANTED_MAX_DEPTH + 1

    def test_one_node_matrix_alive_at_a_time(self, planted_matrices):
        # A0 and the node matrix being factorized: a parent's matrix kept
        # alive while its children are factorized would raise the peak.
        tree = build_hierarchy(
            planted_matrices["a0"], planted_matrices["doc_ids"], planted_matrices["mh"],
            planted_config(seed=0)
        )
        assert tree.depth == PLANTED_MAX_DEPTH
        assert tree.provenance["peak_live_matrices"] == 2

    def test_gauge_counts_a_node_matrix_until_it_is_freed(self, planted_matrices, monkeypatch):
        kept = []
        real = hierarchy.factorize

        def keeping(matrix, *args):
            kept.append(matrix)
            return real(matrix, *args)

        monkeypatch.setattr(hierarchy, "factorize", keeping)
        tree = build_hierarchy(
            planted_matrices["a0"], planted_matrices["doc_ids"], planted_matrices["mh"],
            planted_config(seed=0)
        )
        assert len(kept) > 2
        assert tree.provenance["peak_live_matrices"] == 1 + len(kept)

    def record_layouts(self, monkeypatch) -> list[bool]:
        """Whether each matrix build_hierarchy factorizes is sparse, in order."""
        layouts = []
        real = hierarchy.factorize

        def recording(matrix, *args):
            layouts.append(sparse.issparse(matrix))
            return real(matrix, *args)

        monkeypatch.setattr(hierarchy, "factorize", recording)
        return layouts

    def test_sparse_and_dense_nodes_build_the_same_tree(
        self, planted_matrices, planted_corpus, monkeypatch
    ):
        # The planted nodes store about 35% of their cells, so they are
        # factorized dense; with the threshold above that they are
        # factorized sparse, and the tree is the same up to rounding.
        layouts = self.record_layouts(monkeypatch)
        a0, doc_ids, mh = planted_matrices["a0"], planted_matrices["doc_ids"], planted_matrices["mh"]
        config = planted_config(seed=4)
        dense_tree = build_hierarchy(a0, doc_ids, mh, config)
        assert layouts and not any(layouts)
        assert [not r["dense"] for r in dense_tree.provenance["factorizations"]] == layouts
        layouts.clear()
        monkeypatch.setattr(hierarchy, "DENSE_MIN_DENSITY", 1.0)
        sparse_tree = build_hierarchy(a0, doc_ids, mh, config)
        assert layouts and all(layouts)
        assert [not r["dense"] for r in sparse_tree.provenance["factorizations"]] == layouts

        def shape(tree):
            return [
                (n.node_id, n.doc_ids, [j for j, _ in n.top_terms], [c.node_id for c in n.children])
                for n in tree.nodes()
            ]

        assert shape(sparse_tree) == shape(dense_tree)
        for a, b in zip(sparse_tree.nodes(), dense_tree.nodes()):
            assert np.allclose(a.term_weights, b.term_weights, rtol=1e-9, atol=1e-12)

    def test_sparse_input_nodes_stay_sparse(self, monkeypatch):
        # Three stored cells in 50 per document (6%): every node matrix is
        # sparse, as a dense one would cost more time and memory.
        rng = np.random.default_rng(8)
        n, m = 80, 50
        cols = np.concatenate([rng.choice(m, 3, replace=False) for _ in range(n)])
        a0 = csr_of(
            sparse.csr_matrix((rng.random(3 * n) + 0.1, cols, np.arange(n + 1) * 3), shape=(n, m))
        )
        layouts = self.record_layouts(monkeypatch)
        tree = build_hierarchy(
            a0,
            [f"d{i}" for i in range(n)],
            csr_of(sparse.identity(m)),
            planted_config(n_topics=2, max_depth=2, min_docs=10),
        )
        assert tree.depth == 2
        assert layouts and all(layouts)
        assert [not r["dense"] for r in tree.provenance["factorizations"]] == layouts

    def test_topic_whose_reweight_vector_vanishes_is_a_leaf(self, monkeypatch, caplog):
        # Topic 0 takes all 12 documents, past min_docs, but its H row is
        # zero, so its hierarchy-expanded weights are too: it gets no children.
        n, m = 12, 5

        def zero_topic(matrix, n_topics, *args):
            w = np.zeros((matrix.shape[0], n_topics))
            w[:, 0] = 1.0
            h = np.ones((n_topics, m))
            h[0] = 0.0
            return FactorPair(W=w, H=h, objective_history=[0.0])

        monkeypatch.setattr(hierarchy, "factorize", zero_topic)
        with caplog.at_level(logging.DEBUG, logger=hierarchy.__name__):
            tree = build_hierarchy(
                csr_of(np.ones((n, m))),
                [f"d{i}" for i in range(n)],
                csr_of(sparse.identity(m)),
                planted_config(n_topics=2, max_depth=2, min_docs=10),
            )
        topic = tree.roots[0]
        assert len(topic.doc_ids) == n
        assert topic.children == []
        assert tree.n_nodes == 2
        assert "topic 0 has an all-zero reweight vector; leaf" in caplog.messages

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            TrainConfig(n_topics=1).validate()
        with pytest.raises(ConfigurationError):
            TrainConfig(max_depth=0).validate()
        with pytest.raises(ConfigurationError):
            TrainConfig(n_topics=10, min_docs=5).validate()
        with pytest.raises(ConfigurationError, match="nmf_max_iter"):
            TrainConfig(nmf_max_iter=0).validate()
        for tol in (0.0, -1e-5, float("nan"), float("inf")):
            with pytest.raises(ConfigurationError, match="nmf_tol"):
                TrainConfig(nmf_tol=tol).validate()
        with pytest.raises(ConfigurationError, match="seed"):
            TrainConfig(seed=-1).validate()

    def test_top_terms_below_one_rejected(self):
        with pytest.raises(ConfigurationError, match="^top_terms must be >= 1$"):
            TrainConfig(top_terms=0).validate()

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("alpha", -0.1, "alpha"), ("alpha", 1.5, "alpha"),
            ("k_s", 0, "k_s"), ("k_h", 0, "k_h"), ("space", "spherical", "space"),
        ],
    )
    def test_geometry_parameters_are_validated(self, field, value, message):
        with pytest.raises(ConfigurationError, match=message):
            TrainConfig(**{field: value}).validate()
        for ok in ({"alpha": 0.0}, {"alpha": 1.0}, {"k_s": 1, "k_h": 1}, {"space": "euclidean"}):
            TrainConfig(**ok).validate()


class TestTreePayload:
    def test_round_trip_preserves_structure(self, planted_matrices, planted_corpus):
        tree = build_hierarchy(
            planted_matrices["a0"], planted_matrices["doc_ids"], planted_matrices["mh"],
            planted_config(seed=0)
        )
        payload = tree_to_payload(tree, planted_corpus.vocabulary)
        rebuilt = tree_from_payload(payload, planted_corpus.vocabulary)
        orig = {n.node_id: n for n in tree.nodes()}
        back = {n.node_id: n for n in rebuilt.nodes()}
        assert orig.keys() == back.keys()
        for node_id, node in orig.items():
            twin = back[node_id]
            assert twin.level == node.level
            assert twin.doc_ids == node.doc_ids
            assert [c.node_id for c in twin.children] == [c.node_id for c in node.children]
            assert twin.top_terms == node.top_terms

    @pytest.mark.parametrize(
        "children, named",
        [
            ({"0.0": ["0.0"]}, "'0.0'"),  # a node that is its own child
            ({"0.0": ["0"]}, "'0'"),  # a two-node cycle
            ({"0": ["0.0", "0.7"]}, "'0.7'"),  # a child that no node has
        ],
    )
    def test_malformed_structure_rejected(self, children, named):
        from hyhtm import Vocabulary

        children = {"0": ["0.0"], "0.0": [], **children}

        def node(node_id, level):
            return {"id": node_id, "level": level, "top_terms": [{"term": "a", "weight": 1.0}],
                    "doc_ids": [], "children": children[node_id]}

        payload = {"config": {}, "nodes": [node("0", 1), node("0.0", 2)]}
        with pytest.raises(ContractError, match=named):
            tree_from_payload(payload, Vocabulary(terms=["a"]))

    def test_payload_records_the_vocabulary_and_is_read_only_over_it(
        self, planted_matrices, planted_corpus
    ):
        # Factor weights are read by term position, so the same terms in
        # another order must not pass for the model's vocabulary.
        from hyhtm import Vocabulary

        vocabulary = planted_corpus.vocabulary
        tree = build_hierarchy(
            planted_matrices["a0"], planted_matrices["doc_ids"], planted_matrices["mh"],
            planted_config(seed=0)
        )
        payload = tree_to_payload(tree, vocabulary)
        assert payload["config"]["vocab_size"] == len(vocabulary)
        assert payload["config"]["vocab_sha256"] == vocabulary.sha256()
        with pytest.raises(ContractError, match="vocab_sha256 .* vocabulary of the corpus"):
            tree_from_payload(payload, Vocabulary(terms=vocabulary.terms[::-1]))

    def test_unknown_term_rejected(self, planted_matrices, planted_corpus):
        from hyhtm import Vocabulary

        tree = build_hierarchy(
            planted_matrices["a0"], planted_matrices["doc_ids"], planted_matrices["mh"],
            planted_config(seed=0)
        )
        payload = tree_to_payload(tree, planted_corpus.vocabulary)
        tiny_vocab = Vocabulary(terms=["unrelated"])
        with pytest.raises(ContractError):
            tree_from_payload(payload, tiny_vocab)
