"""Corpus ingestion, preprocessing, and enriched document representations.

Raw (id, text) records become an indexed, lexicographically ordered
vocabulary plus token-index documents. From there the module builds the
sparse term-frequency matrix, the similarity-aware inverse document
frequency vector, and the enriched document-term representation that the
factorization stages consume.
"""

from __future__ import annotations

import json
import logging
import string
import struct
from collections import Counter
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .errors import (
    ConfigurationError,
    ContractError,
    CorpusError,
    InvariantError,
    ShapeError,
)
from .sparse_io import csr_from_triplets

if TYPE_CHECKING:
    from scipy import sparse

    from .sparse_io import CsrArrays

log = logging.getLogger(__name__)

_PUNCT_TO_SPACE = str.maketrans({c: " " for c in string.punctuation})
_CORPUS_MAGIC = b"HYC1"


@dataclass
class Document:
    """One document as an ordered list of vocabulary indices."""

    id: str
    tokens: list[int]

    @property
    def is_empty(self) -> bool:
        return not self.tokens


@dataclass
class Vocabulary:
    """Bijection between terms and [0, m), terms kept in lexicographic order."""

    terms: list[str]
    index: dict[str, int] = field(init=False, repr=False)

    def __post_init__(self):
        self.index = {t: i for i, t in enumerate(self.terms)}
        if len(self.index) != len(self.terms):
            raise ContractError("vocabulary terms are not unique")
        if any(not t for t in self.terms):
            raise ContractError("vocabulary contains an empty term")

    def __len__(self) -> int:
        return len(self.terms)


@dataclass
class Corpus:
    """Immutable preprocessed corpus: documents plus their vocabulary."""

    documents: list[Document]
    vocabulary: Vocabulary

    @property
    def n_docs(self) -> int:
        return len(self.documents)

    @property
    def empty_doc_ids(self) -> list[str]:
        return [d.id for d in self.documents if d.is_empty]

    def mean_doc_length(self) -> float:
        if not self.documents:
            return 0.0
        return sum(len(d.tokens) for d in self.documents) / len(self.documents)


@dataclass
class TermFrequencyMatrix:
    """Sparse n x m raw occurrence counts, rows in document ingestion order."""

    counts: sparse.csr_matrix
    doc_ids: list[str]


@dataclass
class DocTermRepresentation:
    """Sparse nonnegative n x m document representation; the CSR arrays
    of a cache hit stand in for the scipy matrix."""

    values: sparse.csr_matrix | CsrArrays
    doc_ids: list[str]


@dataclass
class PreprocessConfig:
    """Knobs for text cleanup and vocabulary filtering.

    `stopwords` lists stopword files; None or an empty list selects the two
    bundled lists (general English plus the SMART list). The ratio filter
    is implemented verbatim as documented and kept off by default;
    `min_doc_freq` is the operative rare-term filter.
    """

    stopwords: list[str] | None = None
    min_doc_freq: int = 5
    min_token_length: int = 1
    ratio_filter: bool = False
    ratio_threshold: float = 0.8
    stem: bool = False

    def validate(self):
        if self.min_doc_freq < 1:
            raise ConfigurationError("min_doc_freq must be >= 1")
        if self.min_token_length < 1:
            raise ConfigurationError("min_token_length must be >= 1")
        if not 0 < self.ratio_threshold < float("inf"):
            raise ConfigurationError(
                f"ratio_threshold must be finite and > 0, got {self.ratio_threshold}"
            )


def bundled_stopword_paths() -> tuple[str, str]:
    """Paths of the two stopword lists shipped with the package."""
    # Imported here: only preprocess needs it, and it costs 20-40 ms to load.
    from importlib import resources

    base = resources.files("hyhtm") / "data"
    return (str(base / "stopwords_english.txt"), str(base / "stopwords_smart.txt"))


def load_stopwords(paths) -> set[str]:
    """Union of stopword files: one token per line, '#' starts a comment."""
    words: set[str] = set()
    for path in paths:
        try:
            with open(path, encoding="utf-8") as fh:
                for line in fh:
                    entry = line.split("#", 1)[0].strip().lower()
                    if entry:
                        words.add(entry)
        except OSError as exc:
            raise ConfigurationError(f"cannot read stopword file {path}: {exc}") from exc
    return words


def _light_stem(token: str) -> str:
    # Deliberately tiny suffix stripper; rules are idempotent.
    if token.endswith("sses"):
        return token[:-2]
    if token.endswith("ies") and len(token) > 4:
        return token[:-3] + "y"
    if token.endswith("ing") and len(token) > 5:
        return token[:-3]
    if token.endswith("ed") and len(token) > 4:
        return token[:-2]
    if token.endswith("s") and len(token) > 3 and not token.endswith(("ss", "us", "is")):
        return token[:-1]
    return token


def tokenize(text: str, stopwords: set[str], config: PreprocessConfig) -> list[str]:
    """Lowercase and split a text, dropping punctuation, numeric and
    non-ASCII tokens, stopwords, and tokens below the length floor."""
    tokens = []
    for tok in text.lower().translate(_PUNCT_TO_SPACE).split():
        if not tok.isascii():
            continue
        if all(ch.isdigit() for ch in tok):
            continue
        if tok in stopwords:
            continue
        if config.stem:
            tok = _light_stem(tok)
        if len(tok) < config.min_token_length:
            continue
        tokens.append(tok)
    return tokens


def preprocess(raw_documents, config: PreprocessConfig | None = None) -> Corpus:
    """Turn raw (id, text) pairs into a tokenized corpus with a vocabulary.

    Documents that lose every token are retained with empty token lists so
    row indexing stays stable; they are reported via Corpus.empty_doc_ids.
    Terms present in fewer than `min_doc_freq` documents are dropped from
    the vocabulary (and therefore from every document).
    """
    config = config or PreprocessConfig()
    config.validate()
    raw_documents = list(raw_documents)
    if not raw_documents:
        raise CorpusError("no documents to preprocess")
    seen_ids = set()
    for doc_id, _ in raw_documents:
        if doc_id in seen_ids:
            raise CorpusError(f"duplicate document id {doc_id!r}")
        seen_ids.add(doc_id)

    stopwords = load_stopwords(config.stopwords or bundled_stopword_paths())

    tokenized = [(doc_id, tokenize(text, stopwords, config)) for doc_id, text in raw_documents]

    doc_freq = Counter()
    total_count = Counter()
    for _, toks in tokenized:
        doc_freq.update(set(toks))
        total_count.update(toks)

    kept = {t for t, df in doc_freq.items() if df >= config.min_doc_freq}
    if config.ratio_filter:
        # Verbatim rule: drop terms whose occurrences-per-containing-document
        # ratio is below the threshold. The ratio is >= 1, so thresholds
        # below 1 cannot exclude anything; the flag exists for fidelity.
        kept = {t for t in kept if total_count[t] / doc_freq[t] >= config.ratio_threshold}

    vocabulary = Vocabulary(terms=sorted(kept))
    documents = [
        Document(id=doc_id, tokens=[vocabulary.index[t] for t in toks if t in kept])
        for doc_id, toks in tokenized
    ]
    if all(d.is_empty for d in documents):
        raise CorpusError("all documents empty after filtering")
    n_empty = sum(d.is_empty for d in documents)
    if n_empty:
        log.info("%d of %d documents empty after preprocessing", n_empty, len(documents))
    return Corpus(documents=documents, vocabulary=vocabulary)


def build_tf(corpus: Corpus) -> TermFrequencyMatrix:
    """Raw occurrence counts as a sparse matrix, one row per document."""
    if corpus.vocabulary is None:
        raise ContractError("corpus has no vocabulary")
    n, m = corpus.n_docs, len(corpus.vocabulary)
    rows, cols, vals = [], [], []
    for i, doc in enumerate(corpus.documents):
        counts = Counter(doc.tokens)
        for j, c in sorted(counts.items()):
            rows.append(i)
            cols.append(j)
            vals.append(c)
    counts = csr_from_triplets(np.array(vals, dtype=np.int64), rows, cols, (n, m), dtype=np.int64)
    return TermFrequencyMatrix(counts=counts, doc_ids=[d.id for d in corpus.documents])


def _entries_of(ms):
    # Accept either the TermSimilarityMatrix wrapper or a bare sparse matrix.
    return getattr(ms, "entries", ms)


def compute_idf(tf: TermFrequencyMatrix, ms) -> np.ndarray:
    """Similarity-aware inverse document frequency.

    For term i, each document contributes the mean similarity between i and
    the document's terms that have nonzero similarity to i (zero if none).
    IDF(i) = ln(n_docs / sum of those contributions). Terms whose sum is
    zero get IDF 0 and are counted in a log message.
    """
    entries = _entries_of(ms)
    n, m = tf.counts.shape
    if entries.shape != (m, m):
        raise ShapeError(f"similarity matrix is {entries.shape}, expected {(m, m)}")

    presence = tf.counts.astype(bool).astype(np.float64).tocsr()
    sim = entries.tocsr().copy()
    sim.eliminate_zeros()
    sim_pattern = sim.copy()
    sim_pattern.data = np.ones_like(sim_pattern.data)

    weight = (sim @ presence.T).tocsr()
    count = (sim_pattern @ presence.T).tocsr()
    weight.sum_duplicates()
    count.sum_duplicates()
    weight.sort_indices()
    count.sort_indices()
    # Similarity values are positive, so both products share one support.
    if not (
        np.array_equal(weight.indptr, count.indptr)
        and np.array_equal(weight.indices, count.indices)
    ):
        raise InvariantError("similarity and pattern products disagree on support")

    ratio = weight.copy()
    ratio.data = weight.data / count.data
    mu_sum = np.asarray(ratio.sum(axis=1)).ravel()

    idf = np.zeros(m)
    covered = mu_sum > 0
    idf[covered] = np.log(n / mu_sum[covered])
    np.maximum(idf, 0.0, out=idf)
    n_zero = int((~covered).sum())
    if n_zero:
        log.info("%d terms have no similar term in any document; their IDF is 0", n_zero)
    return idf


def build_document_representation(
    tf: TermFrequencyMatrix, ms, idf: np.ndarray
) -> DocTermRepresentation:
    """Enriched representation: (TF x similarity) scaled columnwise by IDF."""
    entries = _entries_of(ms)
    n, m = tf.counts.shape
    if entries.shape != (m, m):
        raise ShapeError(f"similarity matrix is {entries.shape}, expected {(m, m)}")
    if idf.shape != (m,):
        raise ShapeError(f"idf vector has length {idf.shape}, expected {m}")
    spread = (tf.counts.astype(np.float64) @ entries.tocsr()).tocsr()
    values = spread.multiply(idf[None, :]).tocsr()
    values.eliminate_zeros()
    values.sort_indices()
    if values.nnz and values.data.min() < 0:
        raise InvariantError("document representation has a negative entry")
    return DocTermRepresentation(values=values, doc_ids=list(tf.doc_ids))


def read_jsonl_documents(path) -> list[tuple[str, str]]:
    """Read {"id":…, "text":…} records, one JSON object per line."""
    docs = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise CorpusError(f"{path}:{lineno}: invalid JSON ({exc.msg})") from None
            if not isinstance(record, dict) or "id" not in record or "text" not in record:
                raise CorpusError(f"{path}:{lineno}: record needs 'id' and 'text' fields")
            docs.append((str(record["id"]), str(record["text"])))
    return docs


def read_text_documents(path) -> list[tuple[str, str]]:
    """Read one document per line; ids are assigned doc-<line#>."""
    docs = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            docs.append((f"doc-{lineno}", line.rstrip("\n")))
    return docs


def write_corpus(corpus: Corpus, path):
    """Serialize a corpus to the compact little-endian binary layout."""
    with open(path, "wb") as fh:
        fh.write(_CORPUS_MAGIC)
        fh.write(struct.pack("<II", len(corpus.vocabulary), corpus.n_docs))
        for term in corpus.vocabulary.terms:
            raw = term.encode("utf-8")
            fh.write(struct.pack("<I", len(raw)))
            fh.write(raw)
        for doc in corpus.documents:
            raw = doc.id.encode("utf-8")
            fh.write(struct.pack("<II", len(raw), len(doc.tokens)))
            fh.write(raw)
            fh.write(np.asarray(doc.tokens, dtype="<u4").tobytes())


def read_corpus(path) -> Corpus:
    """Inverse of write_corpus."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != _CORPUS_MAGIC:
        raise CorpusError(f"{path}: not a corpus file (bad magic)")
    try:
        off = 4
        n_terms, n_docs = struct.unpack_from("<II", blob, off)
        off += 8
        terms = []
        for _ in range(n_terms):
            (tlen,) = struct.unpack_from("<I", blob, off)
            off += 4
            terms.append(blob[off : off + tlen].decode("utf-8"))
            off += tlen
        docs = []
        for _ in range(n_docs):
            idlen, ntok = struct.unpack_from("<II", blob, off)
            off += 8
            doc_id = blob[off : off + idlen].decode("utf-8")
            off += idlen
            tokens = np.frombuffer(blob, dtype="<u4", count=ntok, offset=off)
            off += 4 * ntok
            if ntok and tokens.max() >= n_terms:
                raise CorpusError(
                    f"{path}: document {doc_id!r} has term index {int(tokens.max())} "
                    f"outside the vocabulary of {n_terms} terms"
                )
            tokens = tokens.tolist()
            docs.append(Document(id=doc_id, tokens=tokens))
    except (struct.error, UnicodeDecodeError, ValueError) as exc:
        raise CorpusError(f"{path}: corpus file is truncated or corrupt ({exc})") from None
    return Corpus(documents=docs, vocabulary=Vocabulary(terms=terms))
