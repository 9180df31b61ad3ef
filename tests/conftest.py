import numpy as np
import pytest
from scipy import sparse

from hyhtm import (
    Corpus,
    Document,
    PreprocessConfig,
    Vocabulary,
    build_document_representation,
    build_hierarchy_matrix,
    build_similarity_matrix,
    build_tf,
    compute_idf,
    load_embeddings,
    preprocess,
)
from hyhtm.sparse_io import CsrArrays, index_dtype

from planted import make_fixture

# Planted-fixture hyperparameters, shared by hierarchy/acceptance tests.
PLANTED_ALPHA = 0.75
PLANTED_K = 34
PLANTED_N_TOPICS = 3
PLANTED_MAX_DEPTH = 2
PLANTED_MIN_DOCS = 50
PLANTED_SEEDS = (0, 1, 2)


def csr_of(matrix) -> CsrArrays:
    """A scipy matrix as the CSR arrays the pipeline takes: canonical, with
    the builders' dtypes and its stored zeros eliminated."""
    csr = sparse.csr_matrix(matrix, copy=True)
    csr.sum_duplicates()
    csr.eliminate_zeros()
    return CsrArrays(indptr=csr.indptr.astype(np.int64),
                     indices=csr.indices.astype(index_dtype(csr.shape[1])),
                     data=csr.data, shape=(int(csr.shape[0]), int(csr.shape[1])))


def make_corpus(token_docs, terms=None):
    """Corpus straight from token lists, bypassing text preprocessing."""
    if terms is None:
        terms = sorted({t for toks in token_docs for t in toks})
    vocab = Vocabulary(terms=list(terms))
    docs = [
        Document(id=f"d{i}", tokens=[vocab.index[t] for t in toks])
        for i, toks in enumerate(token_docs)
    ]
    return Corpus(documents=docs, vocabulary=vocab)


@pytest.fixture(scope="session")
def four_doc_corpus():
    # Documents {a,b}, {a,b}, {a,c}, {c}: the PMI hand-count fixture.
    return make_corpus([["a", "b"], ["a", "b"], ["a", "c"], ["c"]])


@pytest.fixture(scope="session")
def planted():
    return make_fixture()


@pytest.fixture(scope="session")
def planted_corpus(planted):
    return preprocess(planted.raw_documents, PreprocessConfig(min_doc_freq=5))


@pytest.fixture(scope="session")
def planted_inputs(planted, tmp_path_factory):
    directory = tmp_path_factory.mktemp("planted-inputs")
    corpus_path, emb_path = planted.write_inputs(directory)
    return corpus_path, emb_path


@pytest.fixture(scope="session")
def planted_table(planted_inputs, planted_corpus):
    _, emb_path = planted_inputs
    return load_embeddings(emb_path, planted_corpus.vocabulary, "hyperbolic")


@pytest.fixture(scope="session")
def planted_matrices(planted_table, planted_corpus):
    ms = build_similarity_matrix(planted_table, k_s=PLANTED_K, alpha=PLANTED_ALPHA).entries
    mh = build_hierarchy_matrix(planted_table, k_h=PLANTED_K).entries
    tf = build_tf(planted_corpus)
    idf = compute_idf(tf, ms)
    a0 = build_document_representation(tf, ms, idf).values
    doc_ids = [d.id for d in planted_corpus.documents]
    mh_identity = csr_of(sparse.identity(len(planted_corpus.vocabulary)))
    return {"ms": ms, "mh": mh, "mh_identity": mh_identity, "tf": tf, "idf": idf, "a0": a0,
            "doc_ids": doc_ids}


def write_embedding_file(path, rows, header=True):
    """rows: list of (term, vector). Writes the plain-text embedding format."""
    dim = len(rows[0][1]) if rows else 0
    with open(path, "w", encoding="utf-8") as fh:
        if header:
            fh.write(f"{len(rows)} {dim}\n")
        for term, vec in rows:
            fh.write(term + " " + " ".join(f"{x:.10f}" for x in vec) + "\n")
    return path


def table_from_points(tmp_path, points, space="hyperbolic", terms=None):
    """Embedding table over synthetic 2-D points named t0, t1, ..."""
    if terms is None:
        terms = [f"t{i}" for i in range(len(points))]
    vocab = Vocabulary(terms=sorted(terms))
    path = write_embedding_file(tmp_path / "emb.txt", list(zip(terms, points)))
    return load_embeddings(path, vocab, space), vocab
