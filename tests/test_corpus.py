import json
import math
import string
import struct
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

from hyhtm import (
    Corpus,
    Document,
    PreprocessConfig,
    Vocabulary,
    build_document_representation,
    build_similarity_matrix,
    build_tf,
    compute_idf,
    load_embeddings,
    preprocess,
)
from hyhtm import corpus as corpus_mod
from hyhtm.cli import main
from hyhtm.corpus import (
    _light_stem,
    bundled_stopword_paths,
    load_stopwords,
    read_corpus,
    read_jsonl_documents,
    read_text_documents,
    write_corpus,
)
from hyhtm.errors import ConfigurationError, ContractError, CorpusError, InvariantError, ShapeError

from conftest import csr_of, make_corpus, write_embedding_file


def cfg(**kwargs):
    defaults = dict(min_doc_freq=1)
    defaults.update(kwargs)
    return PreprocessConfig(**defaults)


def reference_tokenize(text, stopwords, config):
    """The token rule as a plain loop over every token: the reference for
    `preprocess`, which judges each distinct token once."""
    tokens = []
    for tok in text.lower().translate(str.maketrans({c: " " for c in string.punctuation})).split():
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


def reference_preprocess(raw_documents, config):
    """The vocabulary and each document's terms, through `reference_tokenize`
    and the document-frequency and ratio filters written out."""
    stopwords = load_stopwords(config.stopwords or bundled_stopword_paths())
    tokenized = [(doc_id, reference_tokenize(text, stopwords, config))
                 for doc_id, text in raw_documents]
    doc_freq, total_count = Counter(), Counter()
    for _, toks in tokenized:
        doc_freq.update(set(toks))
        total_count.update(toks)
    kept = {t for t, df in doc_freq.items() if df >= config.min_doc_freq}
    if config.ratio_filter:
        kept = {t for t in kept if total_count[t] / doc_freq[t] >= config.ratio_threshold}
    return sorted(kept), [(doc_id, [t for t in toks if t in kept]) for doc_id, toks in tokenized]


# Pieces of generated texts: ASCII letters (upper case too), digits and
# punctuation, letters and digits that are not ASCII, bundled stopwords,
# the stemmer's suffixes, and spaces, so tokens form across piece borders.
_TEXT_PIECES = [
    *"abcdestuyzAEST0123456789", *"-.,'!_", "é", "ß", "²", "٣", "the", "and", "of", "is",
    "ies", "sses", "ing", "ed", "s", " ", " ", " ", " ",
]
_words = st.lists(st.sampled_from(_TEXT_PIECES), min_size=1, max_size=12).map("".join)


@st.composite
def _documents(draw):
    """One to six texts, each a few of up to eight drawn words joined by
    spaces, so a term often recurs within a text and across texts."""
    words = draw(st.lists(_words, min_size=1, max_size=8))
    texts = st.lists(st.sampled_from(words), max_size=12).map(" ".join)
    return draw(st.lists(texts, min_size=1, max_size=6))


class TestPreprocessMatchesReference:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        texts=_documents(),
        stem=st.booleans(),
        min_token_length=st.integers(1, 5),
        min_doc_freq=st.integers(1, 3),
        # Exact ratios such as 3/2 land on the sampled thresholds.
        ratio_threshold=st.none() | st.sampled_from([1.5, 2.0, 3.0])
        | st.floats(1.0, 3.0, exclude_min=True),
    )
    def test_generated_texts(self, texts, stem, min_token_length, min_doc_freq,
                             ratio_threshold):
        raw = [(f"d{i}", text) for i, text in enumerate(texts)]
        config = PreprocessConfig(
            stem=stem, min_token_length=min_token_length, min_doc_freq=min_doc_freq,
            ratio_filter=ratio_threshold is not None, ratio_threshold=ratio_threshold or 0.8,
        )
        terms, docs = reference_preprocess(raw, config)
        if not any(toks for _, toks in docs):
            with pytest.raises(CorpusError, match="all documents empty"):
                preprocess(raw, config)
            return
        corpus = preprocess(raw, config)
        assert corpus.vocabulary.terms == terms
        assert [(d.id, [terms[i] for i in d.tokens]) for d in corpus.documents] == docs

    def test_hand_example(self):
        text = "The STUDIES of classes: thes sses, 42 ran-running & wanted café x2 ²3 cats!"
        config = cfg(stem=True, min_token_length=3)
        stopwords = load_stopwords(bundled_stopword_paths())
        # "the" and "of" are stopwords; "thes" is not, and stems to "the".
        # "sses" stems to "ss", under the floor of 3; "x2" is under it too.
        # "42" is all digits; "café" and "²3" are not ASCII.
        expected = ["study", "class", "the", "ran", "runn", "want", "cat"]
        assert reference_tokenize(text, stopwords, config) == expected
        corpus = preprocess([("d1", text)], config)
        assert [corpus.vocabulary.terms[i] for i in corpus.documents[0].tokens] == expected


class TestPreprocess:
    def test_cleanup_example(self):
        corpus = preprocess([("d1", "The CPU runs at 3 GHz!")], cfg())
        tokens = [corpus.vocabulary.terms[i] for i in corpus.documents[0].tokens]
        assert tokens == ["cpu", "runs", "ghz"]

    def test_empty_document_retained_and_flagged(self):
        corpus = preprocess([("d1", ""), ("d2", "quantum widget")], cfg())
        assert corpus.documents[0].is_empty
        assert corpus.documents[0].tokens == []
        assert corpus.empty_doc_ids == ["d1"]

    def test_min_doc_freq_drops_rare_terms(self):
        raw = [("a", "zebra lion"), ("b", "lion tiger"), ("c", "lion tiger")]
        corpus = preprocess(raw, cfg(min_doc_freq=2))
        assert "zebra" not in corpus.vocabulary.index
        assert "lion" in corpus.vocabulary.index

    def test_non_ascii_and_numeric_tokens_dropped(self):
        corpus = preprocess([("d1", "café 663 résumé machine 1,000")], cfg())
        assert corpus.vocabulary.terms == ["machine"]

    def test_all_empty_is_an_error(self):
        with pytest.raises(CorpusError):
            preprocess([("d1", "the and of"), ("d2", "3 5 7")], cfg())

    def test_duplicate_ids_rejected(self):
        with pytest.raises(CorpusError):
            preprocess([("d1", "alpha"), ("d1", "beta")], cfg())

    def test_no_documents_rejected(self):
        with pytest.raises(CorpusError):
            preprocess([], cfg())

    def test_unreadable_stopword_file(self, tmp_path):
        with pytest.raises(ConfigurationError):
            preprocess(
                [("d1", "alpha beta")],
                cfg(stopwords=[str(tmp_path / "missing.txt")]),
            )

    def test_stopword_comments_and_custom_list(self, tmp_path):
        sw = tmp_path / "sw.txt"
        sw.write_text("# comment line\nalpha  # trailing comment\n\nbeta\n", encoding="utf-8")
        corpus = preprocess([("d1", "alpha beta gamma")], cfg(stopwords=[str(sw)]))
        assert corpus.vocabulary.terms == ["gamma"]

    def test_no_or_empty_stopword_list_selects_the_bundled_lists(self):
        raw = [("d1", "the apple and a pear")]
        bundled = preprocess(raw, cfg()).vocabulary.terms
        assert bundled == ["apple", "pear"]
        assert preprocess(raw, cfg(stopwords=[])).vocabulary.terms == bundled

    def test_vocabulary_is_lexicographic(self):
        corpus = preprocess([("d1", "zebra apple mango apple")], cfg())
        assert corpus.vocabulary.terms == sorted(corpus.vocabulary.terms)

    def test_idempotent(self):
        raw = [
            ("d1", "Exploding STARS form nebulae; dust clouds collapse!"),
            ("d2", "Dust and gas orbit stars. Clouds of gas collapse..."),
            ("d3", "Nebulae recycle dust, gas, clouds: stars are reborn"),
        ]
        first = preprocess(raw, cfg())
        texts = [
            (d.id, " ".join(first.vocabulary.terms[i] for i in d.tokens))
            for d in first.documents
        ]
        second = preprocess(texts, cfg())
        for d1, d2 in zip(first.documents, second.documents):
            words1 = sorted(first.vocabulary.terms[i] for i in d1.tokens)
            words2 = sorted(second.vocabulary.terms[i] for i in d2.tokens)
            assert words1 == words2

    def test_ratio_filter_verbatim_cannot_exclude(self):
        raw = [("d1", "alpha beta beta"), ("d2", "alpha gamma")]
        plain = preprocess(raw, cfg())
        filtered = preprocess(raw, cfg(ratio_filter=True, ratio_threshold=0.8))
        assert plain.vocabulary.terms == filtered.vocabulary.terms

    def test_stemmer_off_by_default_and_light_rules(self):
        corpus = preprocess([("d1", "running cats")], cfg())
        assert corpus.vocabulary.terms == ["cats", "running"]
        stemmed = preprocess([("d1", "running cats")], cfg(stem=True))
        assert stemmed.vocabulary.terms == ["cat", "runn"]
        for word in ("studies", "classes", "running", "wanted", "cats", "basis", "focus"):
            once = _light_stem(word)
            assert _light_stem(once) == once

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            PreprocessConfig(min_doc_freq=0).validate()
        with pytest.raises(ConfigurationError):
            PreprocessConfig(ratio_threshold=0.0).validate()


class TestTermFrequency:
    def test_direct_count(self):
        corpus = make_corpus([["a", "a", "b"]], terms=["a", "b"])
        tf = build_tf(corpus)
        assert tf.toarray().tolist() == [[2, 1]]

    def test_empty_document_row(self):
        corpus = make_corpus([["a"], []], terms=["a"])
        tf = build_tf(corpus)
        assert tf.toarray().tolist() == [[1], [0]]

    def test_identity_pattern(self):
        corpus = make_corpus([["a"], ["b"]], terms=["a", "b"])
        tf = build_tf(corpus)
        assert tf.toarray().tolist() == [[1, 0], [0, 1]]

    def test_row_order_follows_ingestion(self):
        corpus = make_corpus([["b"], ["a"]], terms=["a", "b"])
        tf = build_tf(corpus)
        assert tf.toarray().tolist() == [[0, 1], [1, 0]]


class TestIdf:
    def test_identity_similarity_recovers_classic_idf(self):
        corpus = make_corpus([["w"], ["w"], ["x"], ["x"]], terms=["w", "x"])
        tf = build_tf(corpus)
        idf = compute_idf(tf, csr_of(sparse.identity(2)))
        assert idf[0] == pytest.approx(math.log(2), abs=1e-12)

    def test_similar_to_everything_gives_zero(self):
        # One term similar (1.0) to every term of every document: sum of
        # means hits |D| and the log collapses to zero.
        corpus = make_corpus([["a"], ["b"], ["c"]], terms=["a", "b", "c"])
        tf = build_tf(corpus)
        idf = compute_idf(tf, csr_of(np.ones((3, 3))))
        assert idf == pytest.approx([0.0, 0.0, 0.0], abs=1e-12)

    def test_zero_denominator_policy(self):
        # Term b never co-occurs and has no similarity row beyond itself,
        # and appears in no document: IDF must be 0, not infinity.
        corpus = make_corpus([["a"], ["a"]], terms=["a", "b"])
        tf = build_tf(corpus)
        idf = compute_idf(tf, csr_of(sparse.identity(2)))
        assert idf[1] == 0.0

    def test_idf_nonnegative_random(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            n, m = rng.integers(3, 30), rng.integers(3, 20)
            tf_dense = rng.integers(0, 3, size=(n, m))
            corpus_rows = sparse.csr_matrix(tf_dense)
            ms = sparse.random(m, m, density=0.3, random_state=rng.integers(1 << 31))
            ms = sparse.csr_matrix(abs(ms))
            ms.setdiag(1.0)
            tf = build_tf(
                make_corpus(
                    [
                        [f"t{j:03d}" for j in range(m) for _ in range(tf_dense[i, j])]
                        for i in range(n)
                    ],
                    terms=[f"t{j:03d}" for j in range(m)],
                )
            )
            idf = compute_idf(tf, csr_of(ms))
            assert (idf >= 0).all()

    def test_dimension_mismatch(self):
        corpus = make_corpus([["a", "b"]], terms=["a", "b"])
        tf = build_tf(corpus)
        with pytest.raises(ShapeError):
            compute_idf(tf, csr_of(sparse.identity(3)))


class TestDocumentRepresentation:
    def test_identity_reduces_to_classic_tfidf(self):
        rng = np.random.default_rng(5)
        token_docs = []
        terms = [f"t{j:02d}" for j in range(12)]
        for _ in range(40):
            doc = [terms[j] for j in rng.integers(0, 12, size=rng.integers(1, 15))]
            token_docs.append(doc)
        corpus = make_corpus(token_docs, terms=terms)
        tf = build_tf(corpus)
        eye = csr_of(sparse.identity(12))
        idf = compute_idf(tf, eye)
        rep = build_document_representation(tf, eye, idf)

        counts = tf.toarray()
        df = (counts > 0).sum(axis=0)
        classic_idf = np.where(df > 0, np.log(corpus.n_docs / np.maximum(df, 1)), 0.0)
        classic = counts * classic_idf[None, :]
        assert np.abs(rep.values.toarray() - classic).max() < 1e-9

    def test_hand_product(self):
        corpus = make_corpus([["a"]], terms=["a", "b"])
        tf = build_tf(corpus)
        ms = csr_of(np.array([[1.0, 0.5], [0.0, 1.0]]))
        rep = build_document_representation(tf, ms, np.ones(2))
        assert rep.values.toarray().tolist() == [[1.0, 0.5]]

    def test_zero_idf_annihilates(self):
        corpus = make_corpus([["a", "b"]], terms=["a", "b"])
        tf = build_tf(corpus)
        rep = build_document_representation(tf, csr_of(sparse.identity(2)), np.zeros(2))
        assert rep.values.nnz == 0

    def test_nonnegative_for_random_inputs(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            m = 8
            terms = [f"t{j}" for j in range(m)]
            docs = [
                [terms[j] for j in rng.integers(0, m, size=rng.integers(1, 10))]
                for _ in range(15)
            ]
            corpus = make_corpus(docs, terms=terms)
            tf = build_tf(corpus)
            ms = sparse.csr_matrix(np.abs(rng.random((m, m))) * (rng.random((m, m)) < 0.4))
            ms.setdiag(1.0)
            ms = csr_of(ms)
            idf = compute_idf(tf, ms)
            rep = build_document_representation(tf, ms, idf)
            assert rep.values.nnz == 0 or rep.values.data.min() >= 0

    def test_shape_errors(self):
        corpus = make_corpus([["a", "b"]], terms=["a", "b"])
        tf = build_tf(corpus)
        with pytest.raises(ShapeError):
            build_document_representation(tf, csr_of(sparse.identity(3)), np.ones(3))
        with pytest.raises(ShapeError):
            build_document_representation(tf, csr_of(sparse.identity(2)), np.ones(3))


class TestSerialization:
    def test_corpus_round_trip(self, tmp_path):
        corpus = make_corpus([["b", "a"], [], ["c", "c", "a"]], terms=["a", "b", "c"])
        path = tmp_path / "corpus.bin"
        write_corpus(corpus, path)
        loaded = read_corpus(path)
        assert loaded.vocabulary.terms == corpus.vocabulary.terms
        assert [d.id for d in loaded.documents] == [d.id for d in corpus.documents]
        assert [d.tokens for d in loaded.documents] == [d.tokens for d in corpus.documents]

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "corpus.bin"
        path.write_bytes(b"NOPE")
        with pytest.raises(CorpusError):
            read_corpus(path)

    def test_truncated_file(self, tmp_path):
        corpus = make_corpus([["a", "b"], ["b"]], terms=["a", "b"])
        path = tmp_path / "corpus.bin"
        write_corpus(corpus, path)
        path.write_bytes(path.read_bytes()[:-6])
        with pytest.raises(CorpusError, match="truncated or corrupt"):
            read_corpus(path)

    def test_term_index_outside_vocabulary(self, tmp_path):
        corpus = make_corpus([["a", "b"], ["b"]], terms=["a", "b"])
        corpus.documents[1].tokens = [1, 2]
        path = tmp_path / "corpus.bin"
        write_corpus(corpus, path)
        with pytest.raises(CorpusError, match="'d1' has term index 2 outside"):
            read_corpus(path)

    @pytest.mark.parametrize("term", ["apple\nberry", "two words", "tab\t", " lead", "nb\u00a0sp"])
    def test_vocabulary_term_holding_whitespace_is_rejected(self, term):
        with pytest.raises(ContractError) as info:
            Vocabulary(terms=["aaa", term])
        assert str(info.value) == f"vocabulary term {term!r} holds whitespace"

    def test_jsonl_reader(self, tmp_path):
        path = tmp_path / "docs.jsonl"
        path.write_text(
            json.dumps({"id": "x", "text": "alpha"}) + "\n"
            + json.dumps({"id": "y", "text": "beta"}) + "\n",
            encoding="utf-8",
        )
        assert read_jsonl_documents(path) == [("x", "alpha"), ("y", "beta")]

    def test_jsonl_integer_id_reads_as_its_digits(self, tmp_path):
        path = tmp_path / "docs.jsonl"
        path.write_text('{"id": 7, "text": "alpha"}\n{"id": -12, "text": "beta"}\n',
                        encoding="utf-8")
        assert read_jsonl_documents(path) == [("7", "alpha"), ("-12", "beta")]

    def test_jsonl_reader_reports_line(self, tmp_path):
        path = tmp_path / "docs.jsonl"
        path.write_text('{"id": "x", "text": "alpha"}\n{broken\n', encoding="utf-8")
        with pytest.raises(CorpusError, match=r":2:"):
            read_jsonl_documents(path)

    def test_jsonl_reader_requires_fields(self, tmp_path):
        path = tmp_path / "docs.jsonl"
        path.write_text('{"id": "x"}\n', encoding="utf-8")
        with pytest.raises(CorpusError, match=r":1:"):
            read_jsonl_documents(path)

    def test_text_reader_assigns_ids(self, tmp_path):
        path = tmp_path / "docs.txt"
        path.write_text("first doc\nsecond doc\n", encoding="utf-8")
        assert read_text_documents(path) == [("doc-1", "first doc"), ("doc-2", "second doc")]

    def test_crlf_lines_read_as_lf_lines(self, tmp_path):
        path = tmp_path / "docs.txt"
        path.write_bytes("first d\u00f6c\r\nsecond doc\r\n".encode("utf-8"))
        assert read_text_documents(path) == [("doc-1", "first d\u00f6c"), ("doc-2", "second doc")]
        path = tmp_path / "docs.jsonl"
        path.write_bytes(b'{"id": "x", "text": "alpha"}\r\n\r\n{"id": "y", "text": "beta"}\r\n')
        assert read_jsonl_documents(path) == [("x", "alpha"), ("y", "beta")]

    @pytest.mark.parametrize("newline", [b"\n", b"\r\n"])
    def test_undecodable_line_is_named_past_the_first_read_block(self, tmp_path, newline):
        # 3000 lines of 11 bytes: the bad byte sits well past the first
        # block the text reader decodes.
        lines = [b"line %05d" % i for i in range(3000)]
        lines[2716] = b"line \xc3\xa9 \xff"
        path = tmp_path / "docs.txt"
        path.write_bytes(newline.join(lines) + newline)
        with pytest.raises(CorpusError, match=r"docs\.txt:2717: not UTF-8 text at column 8$"):
            read_text_documents(path)

    def test_undecodable_stopword_file_names_the_line(self, tmp_path):
        sw = tmp_path / "sw.txt"
        sw.write_bytes(b"alpha\nbeta\xff\n")
        with pytest.raises(ConfigurationError, match=r"sw\.txt:2: not UTF-8"):
            load_stopwords([str(sw)])

    def test_trailing_bytes_are_rejected(self, tmp_path):
        corpus = make_corpus([["a", "b"], ["b"]], terms=["a", "b"])
        path = tmp_path / "corpus.bin"
        write_corpus(corpus, path)
        path.write_bytes(path.read_bytes() + bytes(9))
        with pytest.raises(CorpusError, match="9 trailing bytes after the last document"):
            read_corpus(path)

    def test_corpus_without_documents_ending_in_a_term_is_truncated(self, tmp_path):
        path = tmp_path / "corpus.bin"
        write_corpus(make_corpus([], terms=["a", "bcd"]), path)
        assert read_corpus(path).vocabulary.terms == ["a", "bcd"]
        path.write_bytes(path.read_bytes()[:-1])
        with pytest.raises(CorpusError, match="truncated or corrupt"):
            read_corpus(path)


# The numpy writer and reader of corpus.bin that the `struct` ones replaced,
# kept as byte-for-byte references.


def reference_write_corpus(corpus, path):
    with open(path, "wb") as fh:
        fh.write(b"HYC1")
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


def reference_read_corpus(path):
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != b"HYC1":
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
            docs.append(Document(id=doc_id, tokens=tokens.tolist()))
    except (struct.error, UnicodeDecodeError, ValueError) as exc:
        raise CorpusError(f"{path}: corpus file is truncated or corrupt ({exc})") from None
    return Corpus(documents=docs, vocabulary=Vocabulary(terms=terms))


_ALPHABET = "abcz_-éßж日本語🙂"


def random_text(rng, low=1, high=8):
    return "".join(rng.choice(list(_ALPHABET), size=int(rng.integers(low, high))))


def random_corpus_file_input(rng, m, n):
    """n documents over m terms with non-ASCII terms and ids, some empty
    documents, and the largest term index m - 1 in one of them."""
    terms = sorted({random_text(rng) for _ in range(3 * m)})[:m]
    m = len(terms)
    docs = []
    for i in range(n):
        size = 0 if rng.random() < 0.25 else int(rng.integers(1, 60))
        docs.append(Document(id=f"{random_text(rng, 0)}-{i}",
                             tokens=rng.integers(0, m, size).tolist()))
    docs[int(rng.integers(n))].tokens.append(m - 1)
    return Corpus(documents=docs, vocabulary=Vocabulary(terms=terms))


class TestCorpusFileMatchesNumpyReference:
    """`write_corpus` and `read_corpus` pack token runs with `struct`; the
    file and the corpus read back are those of the numpy versions."""

    @staticmethod
    def assert_matches(corpus, tmp_path):
        ours, ref = tmp_path / "ours.bin", tmp_path / "ref.bin"
        write_corpus(corpus, ours)
        reference_write_corpus(corpus, ref)
        assert ours.read_bytes() == ref.read_bytes()
        loaded = read_corpus(ours)
        assert loaded == reference_read_corpus(ref)
        assert loaded == corpus
        return ours

    @pytest.mark.parametrize("seed", range(8))
    def test_random_corpora(self, seed, tmp_path):
        rng = np.random.default_rng(seed)
        corpus = random_corpus_file_input(rng, m=int(rng.integers(1, 40)), n=int(rng.integers(1, 30)))
        self.assert_matches(corpus, tmp_path)

    def test_one_term_vocabulary_and_empty_documents(self, tmp_path):
        corpus = Corpus(documents=[Document(id="", tokens=[]), Document(id="é", tokens=[0, 0]),
                                   Document(id="x", tokens=[])],
                        vocabulary=Vocabulary(terms=["日本"]))
        self.assert_matches(corpus, tmp_path)

    def test_long_document_and_largest_index(self, tmp_path):
        rng = np.random.default_rng(11)
        m = 70_000
        tokens = rng.integers(0, m, 100_000).tolist()
        tokens[-1] = m - 1
        corpus = Corpus(documents=[Document(id="long", tokens=tokens)],
                        vocabulary=Vocabulary(terms=[f"t{j:05d}" for j in range(m)]))
        self.assert_matches(corpus, tmp_path)

    def test_every_truncation_fails_like_the_reference(self, tmp_path):
        corpus = random_corpus_file_input(np.random.default_rng(5), m=6, n=5)
        blob = self.assert_matches(corpus, tmp_path).read_bytes()
        path = tmp_path / "cut.bin"
        for size in range(len(blob)):
            path.write_bytes(blob[:size])
            with pytest.raises(CorpusError) as ours:
                read_corpus(path)
            with pytest.raises(CorpusError) as ref:
                reference_read_corpus(path)
            # The detail in parentheses is the packing library's own message.
            assert str(ours.value).split(" (")[0] == str(ref.value).split(" (")[0]

    def test_out_of_vocabulary_index_fails_like_the_reference(self, tmp_path):
        corpus = make_corpus([["a", "b"], ["b"]], terms=["a", "b"])
        corpus.documents[1].tokens = [1, 7, 2]
        path = tmp_path / "corpus.bin"
        write_corpus(corpus, path)
        with pytest.raises(CorpusError) as ours:
            read_corpus(path)
        with pytest.raises(CorpusError) as ref:
            reference_read_corpus(path)
        assert str(ours.value) == str(ref.value)
        assert "document 'd1' has term index 7 outside the vocabulary of 2 terms" in str(ours.value)

    @pytest.mark.parametrize("damage", ["out-of-vocabulary", "truncated", "trailing-bytes"])
    def test_damaged_corpus_exits_2(self, damage, tmp_path, capsys):
        corpus = make_corpus([["a", "b"], ["b"]], terms=["a", "b"])
        path = tmp_path / "corpus.bin"
        if damage == "out-of-vocabulary":
            corpus.documents[1].tokens = [2]
            write_corpus(corpus, path)
            expected = "document 'd1' has term index 2"
        elif damage == "truncated":
            write_corpus(corpus, path)
            path.write_bytes(path.read_bytes()[:-2])
            expected = "corpus file is truncated or corrupt"
        else:
            write_corpus(corpus, path)
            path.write_bytes(path.read_bytes() + bytes(9))
            expected = "9 trailing bytes"
        assert main(["evaluate", "--model", str(tmp_path / "model"), "--corpus", str(path)]) == 2
        err = capsys.readouterr().err
        assert str(path) in err and expected in err

    @pytest.mark.parametrize("damage", ["repeated-term", "empty-term", "whitespace-term",
                                        "repeated-id"])
    @pytest.mark.parametrize("command", ["train", "evaluate"])
    def test_corpus_breaking_its_contract_exits_2(self, damage, command, tmp_path, capsys):
        corpus = make_corpus([["a", "b"], ["b"]], terms=["a", "b"])
        if damage == "repeated-term":
            corpus.vocabulary.terms[1] = "a"
            expected = "vocabulary terms are not unique"
        elif damage == "empty-term":
            corpus.vocabulary.terms[1] = ""
            expected = "vocabulary contains an empty term"
        elif damage == "whitespace-term":
            # "a\nb" and "c" would hash as "a" and "b\nc": vocab.txt and
            # vocab_sha256 hold one term a line.
            corpus.vocabulary.terms[:] = ["a\nb", "c"]
            expected = "vocabulary term 'a\\nb' holds whitespace"
        else:
            corpus.documents[1].id = "d0"
            expected = "document id 'd0' is repeated"
        path = tmp_path / "corpus.bin"
        write_corpus(corpus, path)
        if command == "train":
            emb = write_embedding_file(tmp_path / "emb.txt", [("a", [0.1, 0.0]), ("b", [0.0, 0.1])])
            args = ["train", "--corpus", str(path), "--embeddings", str(emb), "--no-cache",
                    "--output-dir", str(tmp_path / "model")]
        else:
            args = ["evaluate", "--model", str(tmp_path / "model"), "--corpus", str(path)]
        assert main(args) == 2
        assert f"error: {path}: {expected}" in capsys.readouterr().err


# The scipy builders that `build_tf`, `compute_idf` and
# `build_document_representation` replaced, kept as bitwise references.


def reference_tf(corpus):
    """TF from per-document sorted counters and scipy's COO-to-CSR build."""
    rows, cols, vals = [], [], []
    for i, doc in enumerate(corpus.documents):
        for j, c in sorted(Counter(doc.tokens).items()):
            rows.append(i)
            cols.append(j)
            vals.append(c)
    counts = sparse.csr_matrix(
        (np.array(vals, dtype=np.int64), (rows, cols)),
        shape=(corpus.n_docs, len(corpus.vocabulary)), dtype=np.int64,
    )
    counts.sort_indices()
    return counts


def reference_idf(counts, entries):
    """Similarity-aware IDF from two scipy sparse products."""
    n, m = counts.shape
    presence = counts.astype(bool).astype(np.float64).tocsr()
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
    return idf


def reference_representation(counts, entries, idf):
    """(TF x similarity) scaled by IDF through scipy's product and multiply."""
    spread = (counts.astype(np.float64) @ entries.tocsr()).tocsr()
    values = spread.multiply(idf[None, :]).tocsr()
    values.eliminate_zeros()
    values.sort_indices()
    if values.nnz and values.data.min() < 0:
        raise InvariantError("document representation has a negative entry")
    return values


def random_corpus(rng, n, m, empty=2):
    """n documents over m terms; `empty` of them have no tokens and a few
    terms appear in no document."""
    absent = set(rng.choice(m, size=min(3, m - 1), replace=False).tolist())
    pool = [t for t in range(m) if t not in absent]
    docs = []
    for i in range(n):
        size = 0 if i < empty else int(rng.integers(1, 3 * m))
        docs.append(Document(id=f"d{i}", tokens=[pool[j] for j in rng.integers(0, len(pool), size)]))
    rng.shuffle(docs)
    return Corpus(documents=docs, vocabulary=Vocabulary(terms=[f"t{j:03d}" for j in range(m)]))


def random_similarity(rng, m, density, stored_zeros=3):
    """A canonical scipy similarity matrix with a unit diagonal and some
    explicitly stored zeros."""
    ms = sparse.random(m, m, density=density, random_state=int(rng.integers(1 << 31)), format="csr")
    ms.setdiag(1.0)
    ms.sort_indices()
    for k in rng.choice(ms.nnz, size=min(stored_zeros, ms.nnz), replace=False):
        ms.data[k] = 0.0
    return ms


def assert_bitwise_csr(got, want):
    assert got.shape == want.shape
    assert np.array_equal(got.indptr, want.indptr)
    assert np.array_equal(got.indices, want.indices)
    assert got.data.dtype == want.data.dtype
    assert got.data.tobytes() == want.data.tobytes()


def assert_matches_reference(corpus, ms):
    """`ms` is a scipy similarity matrix; the pipeline takes its CSR arrays."""
    tf = build_tf(corpus)
    counts = reference_tf(corpus)
    assert_bitwise_csr(tf, counts)
    idf = compute_idf(tf, csr_of(ms))
    want_idf = reference_idf(counts, ms)
    assert idf.tobytes() == want_idf.tobytes()
    rep = build_document_representation(tf, csr_of(ms), idf)
    assert_bitwise_csr(rep.values, reference_representation(counts, ms, want_idf))
    return idf


class TestMatchesScipyReference:
    """TF, IDF and A0 are bitwise those of the scipy builders, whatever
    the row blocks: one row per block, one block for everything, and a
    budget that a heavy row exceeds on its own."""

    @pytest.fixture(params=[1, 40, 1 << 40], ids=["budget-1", "budget-40", "budget-huge"])
    def budget(self, request, monkeypatch):
        monkeypatch.setattr(corpus_mod, "_BLOCK_WORK", request.param)
        return request.param

    def test_random_sparse_inputs(self, budget):
        rng = np.random.default_rng(41)
        for _ in range(12):
            n, m = int(rng.integers(3, 40)), int(rng.integers(4, 30))
            corpus = random_corpus(rng, n, m)
            ms = random_similarity(rng, m, rng.uniform(0.05, 0.6))
            # A term in no document and similar to no other term: its
            # off-diagonal entries become stored zeros and its IDF is 0.
            used = {t for d in corpus.documents for t in d.tokens}
            lone = min(set(range(m)) - used)
            row = slice(ms.indptr[lone], ms.indptr[lone + 1])
            ms.data[row][ms.indices[row] != lone] = 0.0
            idf = assert_matches_reference(corpus, ms)
            assert idf[lone] == 0.0

    def test_similarity_from_embeddings_at_alpha_0_and_1(self, budget, tmp_path):
        rng = np.random.default_rng(43)
        for space in ("hyperbolic", "euclidean"):
            for alpha in (0.0, 0.1, 1.0):
                m = 24
                corpus = random_corpus(rng, 30, m)
                terms = corpus.vocabulary.terms
                covered = terms[3:]  # three terms without a vector: unit rows only
                points = rng.normal(size=(len(covered), 3)) * 0.2
                path = write_embedding_file(tmp_path / "emb.txt", list(zip(covered, points)))
                table = load_embeddings(path, corpus.vocabulary, space)
                ms = build_similarity_matrix(table, 9, alpha)
                assert_matches_reference(corpus, ms.entries.tocsr())

    def test_heavy_row_over_the_budget(self, monkeypatch):
        # With a budget of 40, the long document's row is a block of its own
        # while the short ones share blocks.
        monkeypatch.setattr(corpus_mod, "_BLOCK_WORK", 40)
        rng = np.random.default_rng(47)
        m = 12
        corpus = random_corpus(rng, 20, m, empty=1)
        corpus.documents[5].tokens = list(range(m)) * 3
        assert_matches_reference(corpus, random_similarity(rng, m, 0.5, stored_zeros=0))

    def test_negative_similarity_fails_like_the_reference(self):
        corpus = make_corpus([["a", "b"], ["b"]], terms=["a", "b"])
        ms = sparse.csr_matrix(np.array([[1.0, -1.0], [0.0, 1.0]]))
        counts = reference_tf(corpus)
        with pytest.raises(InvariantError):
            reference_idf(counts, ms)
        with pytest.raises(InvariantError):
            compute_idf(build_tf(corpus), csr_of(ms))
        ms = sparse.csr_matrix(np.array([[1.0, -2.0], [0.0, 1.0]]))
        with pytest.raises(InvariantError):
            reference_representation(counts, ms, np.ones(2))
        with pytest.raises(InvariantError):
            build_document_representation(build_tf(corpus), csr_of(ms), np.ones(2))
