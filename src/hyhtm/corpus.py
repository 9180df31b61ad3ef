"""Corpus ingestion, preprocessing, and enriched document representations.

Raw (id, text) records become an indexed, lexicographically ordered
vocabulary plus token-index documents. From there the module builds the
sparse term-frequency matrix, the similarity-aware inverse document
frequency vector, and the enriched document-term representation that the
factorization stages consume.

All three are built with numpy alone, which the builders import when they
run: reading, preprocessing and writing a corpus load no numpy, so
`preprocess` starts without it. TF and A0 are built as dense row blocks
that the one CSR writer, `sparse_io.csr_from_blocks`, stores. The two
sparse products run over `sparse_io.row_blocks`, whose work is products
plus dense output cells; `sparse_io` states the one budget and why it has
its size. Within a block every product is expanded in the order of
scipy's sparse product (Gustavson's row-wise algorithm): by output row,
then the left row's stored order, then the right row's. `np.bincount`
adds each cell's products in that order from 0, as scipy does, so the
results are bitwise those of scipy's products, whatever the budget.
"""

from __future__ import annotations

import itertools
import json
import logging
import string
import struct
from collections import Counter
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from .errors import (
    ConfigurationError,
    ContractError,
    CorpusError,
    InvariantError,
    ShapeError,
)
from .settings import _is_int

if TYPE_CHECKING:
    import numpy as np
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
        for t in self.terms:  # vocab.txt and vocab_sha256 hold one term a line
            if t.split() != [t]:
                raise ContractError(f"vocabulary term {t!r} holds whitespace" if t
                                    else "vocabulary contains an empty term")

    def __len__(self) -> int:
        return len(self.terms)

    def text(self) -> str:
        """The terms as `vocab.txt` holds them, one a line."""
        return "".join(t + "\n" for t in self.terms)

    def sha256(self) -> str:
        """SHA-256 of `text` in UTF-8: the `vocab_sha256` that `train`
        records in tree.json and `evaluate` checks against its corpus."""
        import hashlib

        return hashlib.sha256(self.text().encode("utf-8")).hexdigest()


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
class DocTermRepresentation:
    """Sparse nonnegative n x m document representation, rows in document
    order; no zero is stored."""

    values: CsrArrays


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


def utf8_lines(path, error: type[Exception]):
    """(line number, line) for each line of a UTF-8 text file, numbered
    from 1, without a leading byte-order mark. Only a line feed ends a line,
    and the line keeps it and any carriage return. A file that is not UTF-8
    raises `error` naming the file and its first line that does not decode."""
    with open(path, encoding="utf-8-sig", newline="\n") as fh:
        try:
            yield from enumerate(fh, start=1)
            return
        except UnicodeDecodeError:
            pass
    # Read again with each undecodable byte as a lone surrogate, which
    # UTF-8 text never holds, so the first line that fails to encode is the
    # first bad one; the lines are split exactly as above.
    with open(path, encoding="utf-8-sig", errors="surrogateescape", newline="\n") as fh:
        for lineno, line in enumerate(fh, start=1):
            try:
                line.encode("utf-8")
            except UnicodeEncodeError as exc:
                raise error(f"{path}:{lineno}: not UTF-8 text at column {exc.start + 1}") from None


def load_stopwords(paths) -> set[str]:
    """Union of stopword files: one token per line, '#' starts a comment."""
    words: set[str] = set()
    for path in paths:
        try:
            for _, line in utf8_lines(path, ConfigurationError):
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


class _TermOf(dict):
    """Raw token -> the term it becomes, "" when the token is dropped.

    Each distinct token is judged once, on first lookup; the rule is the
    one `preprocess` documents.
    """

    def __init__(self, stopwords: set[str], config: PreprocessConfig):
        super().__init__()
        self.stopwords = stopwords
        self.stem = config.stem
        self.min_length = config.min_token_length

    def __missing__(self, tok: str) -> str:
        term = ""
        if tok.isascii() and not tok.isdigit() and tok not in self.stopwords:
            term = _light_stem(tok) if self.stem else tok
            if len(term) < self.min_length:
                term = ""
        self[tok] = term
        return term


def preprocess(raw_documents, config: PreprocessConfig | None = None) -> Corpus:
    """Turn raw (id, text) pairs into a tokenized corpus with a vocabulary.

    A text is lowercased, each punctuation character becomes a space, and
    it is split on whitespace. Each token then goes through these steps in
    order: a token that is not ASCII is dropped, then one made only of
    digits, then a stopword (checked before stemming); the token is
    stemmed if `stem` is set; and the result is dropped if shorter than
    `min_token_length`.

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

    term_of = _TermOf(load_stopwords(config.stopwords or bundled_stopword_paths()), config)
    judge = term_of.__getitem__
    tokenized = [
        list(filter(None, map(judge, text.lower().translate(_PUNCT_TO_SPACE).split())))
        for _, text in raw_documents
    ]

    doc_freq = Counter()
    for toks in tokenized:
        doc_freq.update(set(toks))
    kept = {t for t, df in doc_freq.items() if df >= config.min_doc_freq}
    if config.ratio_filter:
        # Verbatim rule: drop terms whose occurrences-per-containing-document
        # ratio is below the threshold. The ratio is >= 1, so thresholds
        # below 1 cannot exclude anything; the flag exists for fidelity.
        total_count = Counter(itertools.chain.from_iterable(tokenized))
        kept = {t for t in kept if total_count[t] / doc_freq[t] >= config.ratio_threshold}

    vocabulary = Vocabulary(terms=sorted(kept))
    index_of = vocabulary.index.get
    documents = [
        Document(id=doc_id, tokens=[i for i in map(index_of, toks) if i is not None])
        for (doc_id, _), toks in zip(raw_documents, tokenized)
    ]
    if all(d.is_empty for d in documents):
        raise CorpusError("all documents empty after filtering")
    n_empty = sum(d.is_empty for d in documents)
    if n_empty:
        log.info("%d of %d documents empty after preprocessing", n_empty, len(documents))
    return Corpus(documents=documents, vocabulary=vocabulary)


def token_arrays(corpus: Corpus):
    """Every token occurrence as two parallel arrays: its document row
    (int64) and its term index (`index_dtype` of the vocabulary size)."""
    import numpy as np
    from .sparse_io import index_dtype

    if corpus.vocabulary is None:
        raise ContractError("corpus has no vocabulary")
    n, m = corpus.n_docs, len(corpus.vocabulary)
    lengths = np.fromiter((len(d.tokens) for d in corpus.documents), dtype=np.int64, count=n)
    terms = np.fromiter(itertools.chain.from_iterable(d.tokens for d in corpus.documents),
                        dtype=index_dtype(m), count=int(lengths.sum()))
    if terms.size and not 0 <= terms.min() <= terms.max() < m:
        raise ContractError(f"a document has a term index outside the vocabulary of {m} terms")
    return np.repeat(np.arange(n, dtype=np.int64), lengths), terms


def build_tf(corpus: Corpus) -> CsrArrays:
    """Raw occurrence counts (int64) as a sparse n x m matrix, one row per
    document in document order; no zero is stored."""
    import numpy as np
    from .sparse_io import csr_from_blocks, row_blocks

    docs, terms = token_arrays(corpus)
    n, m = corpus.n_docs, len(corpus.vocabulary)
    firsts = np.searchsorted(docs, np.arange(n + 1))  # where each document's tokens start

    def blocks():
        for start, stop in row_blocks(np.full(n, m)):
            lo, hi = firsts[start], firsts[stop]
            cells = (docs[lo:hi] - start) * m + terms[lo:hi]
            counts = np.bincount(cells, minlength=(stop - start) * m)
            yield start, stop, counts.reshape(stop - start, m)

    return csr_from_blocks((n, m), terms.size, blocks(), dtype=np.int64)


def _products_per_row(left: CsrArrays, right: CsrArrays) -> np.ndarray:
    """How many products each row of `left @ right` expands to."""
    import numpy as np

    ends = np.diff(right.indptr)[left.indices]
    np.cumsum(ends, out=ends)  # products up to and including each entry of left
    totals = np.zeros(left.shape[0] + 1, dtype=np.int64)
    stored = left.indptr > 0
    totals[stored] = ends[left.indptr[stored] - 1]
    return np.diff(totals)


def _product_blocks(left: CsrArrays, right: CsrArrays):
    """The products of `left @ right`, one row block at a time.

    Yields (start, stop, cells, values): for rows start:stop of the product,
    each product's flat index into the dense (stop - start, right.shape[1])
    block and its value `left[i, j] * right[j, k]`, ordered by row i, then
    by j in left's stored order, then by k in right's stored order.
    """
    import numpy as np
    from .sparse_io import row_blocks, row_positions

    n_cols = right.shape[1]
    for start, stop in row_blocks(_products_per_row(left, right) + n_cols):
        begin, end = left.indptr[start], left.indptr[stop]
        pos, lengths = row_positions(right.indptr, left.indices[begin:end])
        rows = np.repeat(np.arange(stop - start) * n_cols, np.diff(left.indptr[start : stop + 1]))
        cells = np.repeat(rows, lengths)
        cells += right.indices[pos]
        values = np.repeat(left.data[begin:end].astype(np.float64), lengths)
        values *= right.data[pos]
        del pos
        yield start, stop, cells, values


def compute_idf(counts: CsrArrays, ms: CsrArrays) -> np.ndarray:
    """Similarity-aware inverse document frequency.

    For term i, each document contributes the mean similarity between i and
    the document's terms that have nonzero similarity to i (zero if none).
    IDF(i) = ln(n_docs / sum of those contributions). Terms whose sum is
    zero get IDF 0 and are counted in a log message.

    The sum for term i runs over the documents in ascending order, through
    `np.add.reduceat` as scipy's `csr_matrix.sum(axis=1)` does, and each
    document's similarity sum adds in row i's stored order. `ms` is the
    similarity matrix's CSR arrays, which store no zero; `counts` is TF.
    """
    import numpy as np
    from .sparse_io import CsrArrays, index_dtype

    n, m = counts.shape
    if ms.shape != (m, m):
        raise ShapeError(f"similarity matrix is {ms.shape}, expected {(m, m)}")

    # The documents of each term, ascending: TF's pattern transposed. TF's
    # entries run in document order, so a stable sort by term keeps it.
    docs = np.repeat(np.arange(n, dtype=index_dtype(n)), np.diff(counts.indptr))
    docs = docs[np.argsort(counts.indices, kind="stable")]
    indptr = np.concatenate(([0], np.cumsum(np.bincount(counts.indices, minlength=m))))
    docs_of = CsrArrays(indptr, docs, np.broadcast_to(1.0, docs.shape), (m, n))

    mu_sum = np.zeros(m)
    for start, stop, cells, values in _product_blocks(ms, docs_of):
        size = (stop - start) * n
        weight = np.bincount(cells, weights=values, minlength=size)
        count = np.bincount(cells, minlength=size)
        stored = count > 0
        # Similarity values are positive, so both sums share one support.
        if not np.array_equal(stored, weight != 0):
            raise InvariantError("similarity and pattern products disagree on support")
        ratio = weight[stored] / count[stored]
        per_row = stored.reshape(stop - start, n).sum(axis=1)
        rows = np.flatnonzero(per_row)
        mu_sum[start + rows] = np.add.reduceat(ratio, (np.cumsum(per_row) - per_row)[rows])

    idf = np.zeros(m)
    covered = mu_sum > 0
    idf[covered] = np.log(n / mu_sum[covered])
    np.maximum(idf, 0.0, out=idf)
    n_zero = int((~covered).sum())
    if n_zero:
        log.info("%d terms have no similar term in any document; their IDF is 0", n_zero)
    return idf


def build_document_representation(
    counts: CsrArrays, ms: CsrArrays, idf: np.ndarray
) -> DocTermRepresentation:
    """Enriched representation: (TF `counts` x similarity) scaled
    columnwise by IDF.

    Cells whose product sums to exactly zero, or whose scaled value is
    zero, are not stored.
    """
    import numpy as np
    from .sparse_io import csr_from_blocks

    n, m = counts.shape
    if ms.shape != (m, m):
        raise ShapeError(f"similarity matrix is {ms.shape}, expected {(m, m)}")
    if idf.shape != (m,):
        raise ShapeError(f"idf vector has length {idf.shape}, expected {m}")
    # Room for the most entries A0 can store: a row has at most one per
    # product and one per column.
    bound = int(np.minimum(_products_per_row(counts, ms), m).sum())

    def blocks():
        # IDF is finite, so a cell the sparse product does not store is
        # zero once scaled too.
        for start, stop, cells, values in _product_blocks(counts, ms):
            spread = np.bincount(cells, weights=values, minlength=(stop - start) * m)
            yield start, stop, spread.reshape(stop - start, m) * idf

    a0 = csr_from_blocks((n, m), bound, blocks())
    if a0.data.size and a0.data.min() < 0:
        raise InvariantError("document representation has a negative entry")
    return DocTermRepresentation(a0)


def read_jsonl_documents(path) -> list[tuple[str, str]]:
    """Read {"id":…, "text":…} records, one JSON object per line.

    `text` must be a JSON string and `id` an integer (read as its decimal
    digits) or a string without a lone surrogate escape. A record that
    breaks this, or repeats an id, is rejected with its line.
    """
    docs = []
    first_line = {}
    for lineno, line in utf8_lines(path, CorpusError):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except (ValueError, RecursionError) as exc:  # also past the digit or recursion limit
            detail = getattr(exc, "msg", exc)
            raise CorpusError(f"{path}:{lineno}: invalid JSON ({detail})") from None
        if not isinstance(record, dict) or "id" not in record or "text" not in record:
            raise CorpusError(f"{path}:{lineno}: record needs 'id' and 'text' fields")
        doc_id, text = record["id"], record["text"]
        if not isinstance(text, str):
            raise CorpusError(f"{path}:{lineno}: 'text' must be a JSON string")
        if not (isinstance(doc_id, str) or _is_int(doc_id)):
            raise CorpusError(f"{path}:{lineno}: 'id' must be a JSON string or integer")
        doc_id = str(doc_id)
        try:
            doc_id.encode("utf-8")
        except UnicodeEncodeError:
            raise CorpusError(f"{path}:{lineno}: 'id' holds a lone surrogate escape") from None
        if doc_id in first_line:
            raise CorpusError(
                f"{path}:{lineno}: duplicate document id {doc_id!r} "
                f"(first on line {first_line[doc_id]})"
            )
        first_line[doc_id] = lineno
        docs.append((doc_id, text))
    return docs


def read_text_documents(path) -> list[tuple[str, str]]:
    """Read one document per `utf8_lines` line, less its line feed and one
    carriage return before it; ids are assigned doc-<line#>."""
    return [(f"doc-{lineno}", line.removesuffix("\n").removesuffix("\r"))
            for lineno, line in utf8_lines(path, CorpusError)]


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
            fh.write(struct.pack(f"<{len(doc.tokens)}I", *doc.tokens))


def read_corpus(path) -> Corpus:
    """Inverse of write_corpus. A file that is cut short, has bytes past its
    last document, a term index outside the vocabulary, a vocabulary term
    that is empty, repeated or holds whitespace, or a repeated document id
    raises CorpusError naming the file."""
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
        doc_ids = set()
        for _ in range(n_docs):
            idlen, ntok = struct.unpack_from("<II", blob, off)
            off += 8
            doc_id = blob[off : off + idlen].decode("utf-8")
            off += idlen
            if doc_id in doc_ids:
                raise CorpusError(f"{path}: document id {doc_id!r} is repeated")
            doc_ids.add(doc_id)
            tokens = list(struct.unpack_from(f"<{ntok}I", blob, off))
            off += 4 * ntok
            if ntok and max(tokens) >= n_terms:
                raise CorpusError(
                    f"{path}: document {doc_id!r} has term index {max(tokens)} "
                    f"outside the vocabulary of {n_terms} terms"
                )
            docs.append(Document(id=doc_id, tokens=tokens))
    except (struct.error, UnicodeDecodeError) as exc:
        raise CorpusError(f"{path}: corpus file is truncated or corrupt ({exc})") from None
    if off > len(blob):  # a corpus without documents that ends inside its last term
        raise CorpusError(f"{path}: corpus file is truncated or corrupt (it ends in a term)")
    if off < len(blob):
        raise CorpusError(f"{path}: {len(blob) - off} trailing bytes after the last document")
    try:
        vocabulary = Vocabulary(terms=terms)
    except ContractError as exc:
        raise CorpusError(f"{path}: {exc}") from None
    return Corpus(documents=docs, vocabulary=vocabulary)
