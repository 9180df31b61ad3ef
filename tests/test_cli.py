import argparse
import json
import os
import re
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import hyhtm

from hyhtm import Corpus, Document, PreprocessConfig, TrainConfig, Vocabulary, hypspace, settings
from hyhtm.cli import (
    _SETTING_TYPES,
    RunConfig,
    _config_keys,
    _load_run_config,
    build_parser,
    main,
)
from hyhtm.corpus import read_corpus, write_corpus
from hyhtm.sparse_io import cache_key, file_sha256, read_csr

from conftest import PLANTED_ALPHA, PLANTED_K


@pytest.fixture()
def fruit_jsonl(tmp_path):
    path = tmp_path / "docs.jsonl"
    rows = [
        {"id": "d1", "text": "apple banana"},
        {"id": "d2", "text": "apple banana cherry"},
        {"id": "d3", "text": "apple"},
        {"id": "d4", "text": "cherry"},
    ]
    path.write_text("".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8")
    return path


@pytest.fixture(scope="module")
def planted_cli(planted_inputs, tmp_path_factory):
    """Preprocessed corpus.bin for the planted fixture, built via the CLI."""
    corpus_jsonl, emb_path = planted_inputs
    out = tmp_path_factory.mktemp("planted-cli")
    code = main(
        [
            "preprocess",
            "--input", str(corpus_jsonl),
            "--output-dir", str(out),
            "--min-doc-freq", "5",
        ]
    )
    assert code == 0
    return out / "corpus.bin", emb_path


def train_args(corpus_bin, emb, out_dir, **extra):
    args = [
        "train",
        "--corpus", str(corpus_bin),
        "--embeddings", str(emb),
        "--output-dir", str(out_dir),
        "--alpha", str(PLANTED_ALPHA),
        "--k-s", str(PLANTED_K),
        "--k-h", str(PLANTED_K),
        "--n-topics", "3",
        "--max-depth", "2",
        "--min-docs", "50",
        "--seed", "0",
    ]
    for key, value in extra.items():
        args += [f"--{key.replace('_', '-')}", str(value)]
    return args


class TestPreprocessCommand:
    def test_summary_line_and_artifacts(self, fruit_jsonl, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(
            [
                "preprocess",
                "--input", str(fruit_jsonl),
                "--output-dir", str(out),
                "--min-doc-freq", "1",
            ]
        )
        assert code == 0
        assert capsys.readouterr().out.strip() == "docs=4 vocab=3 avg_len=1.75"
        assert (out / "corpus.bin").exists()
        vocab = (out / "vocab.txt").read_text(encoding="utf-8").split()
        assert vocab == ["apple", "banana", "cherry"]

    def test_empty_input_exits_2(self, tmp_path, capsys):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("", encoding="utf-8")
        code = main(["preprocess", "--input", str(empty), "--output-dir", str(tmp_path)])
        assert code == 2
        assert "no documents" in capsys.readouterr().err

    def test_missing_input_exits_2(self, tmp_path, capsys):
        code = main(
            ["preprocess", "--input", str(tmp_path / "nope.jsonl"), "--output-dir", str(tmp_path)]
        )
        assert code == 2
        assert "not found" in capsys.readouterr().err

    def test_invalid_jsonl_names_file_and_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"id": "a", "text": "x"}\n{oops\n', encoding="utf-8")
        code = main(["preprocess", "--input", str(bad), "--output-dir", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert "bad.jsonl:2" in err

    @pytest.mark.parametrize("text, message", [
        ('{"id": "a", "text": "apple"}\n\n{"id": "a", "text": "pear"}\n',
         ":3: duplicate document id 'a' (first on line 1)"),
        ('{"id": "a", "text": "the"}\n', ": all documents empty after filtering"),
        ('{"id": "a", "text": "apple"}\n{"id": "b", "text": ["alpha", "beta"]}\n',
         ":2: 'text' must be a JSON string"),
        ('{"text": {"k": 2}, "id": "a"}\n', ":1: 'text' must be a JSON string"),
        ('{"id": "a", "text": null}\n', ":1: 'text' must be a JSON string"),
        ('{"id": "a", "text": 7}\n', ":1: 'text' must be a JSON string"),
        ('{"id": null, "text": "apple"}\n', ":1: 'id' must be a JSON string or integer"),
        ('{"id": true, "text": "apple"}\n', ":1: 'id' must be a JSON string or integer"),
        ('{"id": 1.0, "text": "apple"}\n', ":1: 'id' must be a JSON string or integer"),
        ('{"id": ["a"], "text": "apple"}\n', ":1: 'id' must be a JSON string or integer"),
        ('{"id": %s, "text": "apple"}\n' % ("9" * 5000), ":1: invalid JSON ("),
    ], ids=["duplicate-id", "all-empty", "text-array", "text-object", "text-null", "text-number",
            "id-null", "id-bool", "id-float", "id-array", "id-over-digit-limit"])
    def test_corpus_errors_name_the_input(self, tmp_path, capsys, text, message):
        bad = tmp_path / "bad.jsonl"
        bad.write_text(text, encoding="utf-8")
        out = tmp_path / "pre"
        assert main(["preprocess", "--input", str(bad), "--output-dir", str(out)]) == 2
        assert f"error: {bad}{message}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("threshold", ["nan", "inf", "-inf", "0"])
    def test_ratio_threshold_must_be_finite_and_positive(
        self, fruit_jsonl, tmp_path, capsys, threshold
    ):
        out = tmp_path / "pre"
        code = main(["preprocess", "--input", str(fruit_jsonl), "--output-dir", str(out),
                     "--ratio-filter", f"--ratio-threshold={threshold}"])
        assert code == 2
        assert "ratio_threshold" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flags", [["--input-format", "bogus"], ["--min-doc-freq", "0"],
                                       ["--min-token-length", "0"]])
    def test_bad_preprocess_settings_exit_2_before_any_output(
        self, fruit_jsonl, tmp_path, capsys, flags
    ):
        out = tmp_path / "pre"
        code = main(["preprocess", "--input", str(fruit_jsonl), "--output-dir", str(out), *flags])
        assert code == 2
        assert flags[0][2:].replace("-", "_") in capsys.readouterr().err
        assert not out.exists()

    def test_plain_text_input(self, tmp_path, capsys):
        txt = tmp_path / "docs.txt"
        txt.write_text("quantum widget\nwidget sprocket\n", encoding="utf-8")
        code = main(
            [
                "preprocess",
                "--input", str(txt),
                "--input-format", "text",
                "--output-dir", str(tmp_path / "out"),
                "--min-doc-freq", "1",
            ]
        )
        assert code == 0
        assert "docs=2" in capsys.readouterr().out


class TestUndecodableText:
    """One byte that is not UTF-8 in any text input exits 2 naming the file
    and the line."""

    # The byte is on line 3 of each file.
    BAD_FILES = {
        "jsonl": ("docs.jsonl", b'{"id": "a", "text": "apple"}\n{"id": "b", "text": "pear"}\n'
                                b'{"id": "c", "text": "app\xffle"}\n'),
        "text": ("docs.txt", b"apple banana\ncherry\napp\xffle\n"),
        "stopwords": ("sw.txt", b"# fruit\nthe\n\xffand\n"),
        "embeddings": ("emb.txt", b"apple 0.1 0.0\r\nbanana 0.0 0.1\r\ncherry 0.1 0.1\xff\r\n"),
    }

    @pytest.mark.parametrize("reader", sorted(BAD_FILES))
    def test_exits_2_naming_file_and_line(self, fruit_jsonl, tmp_path, capsys, reader):
        name, blob = self.BAD_FILES[reader]
        bad = tmp_path / name
        bad.write_bytes(blob)
        out = tmp_path / "pre"
        if reader == "embeddings":
            assert main(["preprocess", "--input", str(fruit_jsonl), "--output-dir", str(out),
                         "--min-doc-freq", "1"]) == 0
            # All four documents are usable, or train would stop before the embeddings.
            argv = ["train", "--corpus", str(out / "corpus.bin"), "--embeddings", str(bad),
                    "--output-dir", str(tmp_path / "model"), "--n-topics", "2", "--min-docs", "4"]
        elif reader == "stopwords":
            argv = ["preprocess", "--input", str(fruit_jsonl), "--stopwords", str(bad),
                    "--output-dir", str(out)]
        else:
            argv = ["preprocess", "--input", str(bad), "--output-dir", str(out)]
        assert main(argv) == 2
        assert f"{bad}:3: not UTF-8 text" in capsys.readouterr().err
        assert not (tmp_path / "model" / "tree.json").exists()
        assert reader == "embeddings" or not out.exists()


class TestByteOrderMark:
    """A UTF-8 byte-order mark before the first line of a text input is
    skipped: the run gives the bytes of a run without it."""

    DOCS = ["apple banana cherry apple", "banana cherry grape", "grape apple cherry"] * 20
    INPUTS = {
        "jsonl": "".join(json.dumps({"id": f"d{i}", "text": d}) + "\n" for i, d in enumerate(DOCS)),
        "text": "".join(d + "\n" for d in DOCS),
        "config": json.dumps({"min_doc_freq": 1}),
        "embeddings": "4 2\napple 0.1 0.0\nbanana 0.0 0.1\ncherry 0.1 0.1\ngrape 0.2 0.1\n",
    }

    @pytest.mark.parametrize("kind", sorted(INPUTS))
    def test_runs_with_and_without_a_bom_agree(self, tmp_path, kind):
        docs = tmp_path / "docs.txt"
        docs.write_text(self.INPUTS["text"], encoding="utf-8")
        outputs = []
        for bom in (b"", b"\xef\xbb\xbf"):
            run_dir = tmp_path / f"bom{len(bom)}"
            run_dir.mkdir()
            path = run_dir / ("docs.jsonl" if kind == "jsonl" else f"{kind}.txt")
            path.write_bytes(bom + self.INPUTS[kind].encode("utf-8"))
            pre = run_dir / "pre"
            argv = ["preprocess", "--input", str(path if kind in ("jsonl", "text") else docs),
                    "--output-dir", str(pre)]
            assert main(argv + (["--config", str(path)] if kind == "config" else [])) == 0
            if kind != "embeddings":
                outputs.append((pre / "corpus.bin").read_bytes())
                continue
            assert main(["train", "--corpus", str(pre / "corpus.bin"), "--embeddings", str(path),
                         "--output-dir", str(run_dir / "model"), "--no-cache", "--n-topics", "2",
                         "--min-docs", "2", "--k-s", "3", "--k-h", "3", "--max-depth", "1"]) == 0
            outputs.append((run_dir / "model" / "tree.json").read_bytes())
        assert outputs[0] == outputs[1]


class TestUnusableJson:
    """JSON that parses to nothing the pipeline can use exits with its
    input's code, naming the file (and the line, in a JSONL corpus), and
    writes nothing: a config file or a JSONL corpus exits 2, a tree.json 3."""

    DEEP_ARRAY = "[" * 200_000 + "]" * 200_000
    DEEP = {"jsonl": DEEP_ARRAY, "config": '{"a": ' * 100_000 + "1" + "}" * 100_000,
            "export": DEEP_ARRAY, "evaluate": DEEP_ARRAY}
    # By case: the input kind, its text and what the message says of it.
    LONE = {
        "jsonl-id": ("jsonl", '{"id": "d\\ud800", "text": "alpha"}',
                     "'id' holds a lone surrogate escape"),
        "config-output-dir": ("config", '{"min_doc_freq": 1, "output_dir": "o\\ud800"}',
                              "a JSON string holds a lone surrogate escape"),
        "config-stopwords": ("config", '{"min_doc_freq": 1, "stopwords": ["s\\uDFFF"]}',
                             "a JSON string holds a lone surrogate escape"),
        "tree-node-id": ("export", '{"config": {}, "nodes": [{"id": "\\ud800", "level": 1, '
                                   '"top_terms": [], "doc_ids": [], "children": []}]}',
                         "a JSON string holds a lone surrogate escape"),
    }

    @staticmethod
    def run(kind, text, metric_model, tmp_path, monkeypatch):
        """Run the command that reads `text` as a `kind` input. Return its
        exit code, the file its message must name, and whether tmp_path,
        the working directory, is left as it was."""
        corpus_bin, model = metric_model
        monkeypatch.chdir(tmp_path)
        docs = tmp_path / "docs.jsonl"  # metric_model's corpus
        if kind == "jsonl":
            path = tmp_path / "bad.jsonl"
            path.write_text('{"id": "a", "text": "alpha"}\n' + text + "\n", encoding="utf-8")
            argv = ["preprocess", "--input", str(path), "--output-dir", str(tmp_path / "out")]
            named = f"{path}:2: "
        elif kind == "config":
            path = tmp_path / "run.json"
            path.write_text(text, encoding="utf-8")
            argv = ["preprocess", "--input", str(docs), "--config", str(path)]
            named = f"{path}: "
        else:
            path = model / "tree.json"
            path.write_text(text, encoding="utf-8")
            argv = (["export", "--model", str(model), "--format", "dot"] if kind == "export"
                    else ["evaluate", "--model", str(model), "--corpus", str(corpus_bin)])
            named = f"{path}: "
        before = sorted(tmp_path.rglob("*"))
        code = main(argv)
        return code, named, sorted(tmp_path.rglob("*")) == before

    @pytest.mark.parametrize("kind", sorted(DEEP))
    def test_nesting_past_the_recursion_limit(self, metric_model, tmp_path, monkeypatch, capsys,
                                              kind):
        code, named, untouched = self.run(kind, self.DEEP[kind], metric_model, tmp_path,
                                          monkeypatch)
        assert code == (2 if kind in ("jsonl", "config") else 3)
        err = capsys.readouterr().err
        assert f"error: {named}invalid JSON (maximum recursion depth exceeded" in err
        assert untouched

    @pytest.mark.parametrize("case", sorted(LONE))
    def test_lone_surrogate_escape(self, metric_model, tmp_path, monkeypatch, capsys, case):
        kind, text, what = self.LONE[case]
        code, named, untouched = self.run(kind, text, metric_model, tmp_path, monkeypatch)
        assert code == (3 if kind == "export" else 2)
        assert f"error: {named}{what}" in capsys.readouterr().err
        assert untouched

    def test_paired_surrogate_escapes_read_as_their_character(
        self, metric_model, tmp_path, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        config = tmp_path / "run.json"
        config.write_text('{"output_dir": "o\\ud83d\\ude00", "min_doc_freq": 1}', encoding="utf-8")
        assert main(["preprocess", "--input", "docs.jsonl", "--config", str(config)]) == 0
        assert (tmp_path / "o\U0001F600" / "corpus.bin").exists()

    def test_lone_surrogate_in_a_text_is_a_dropped_token(self, tmp_path):
        corpora = []
        for word in ("", " b\\ud800d"):
            docs = tmp_path / f"docs{len(word)}.jsonl"
            docs.write_text('{"id": "a", "text": "alpha' + word + ' beta"}\n', encoding="utf-8")
            out = tmp_path / f"out{len(word)}"
            assert main(["preprocess", "--input", str(docs), "--output-dir", str(out),
                         "--min-doc-freq", "1"]) == 0
            corpora.append((out / "corpus.bin").read_bytes())
        assert corpora[0] == corpora[1]


class TestTrainCommand:
    def test_planted_shape_and_rerun_identical(self, planted_cli, tmp_path):
        corpus_bin, emb = planted_cli
        out1 = tmp_path / "m1"
        out2 = tmp_path / "m2"
        assert main(train_args(corpus_bin, emb, out1)) == 0
        assert main(train_args(corpus_bin, emb, out2)) == 0
        payload = json.loads((out1 / "tree.json").read_text(encoding="utf-8"))
        roots = [n for n in payload["nodes"] if n["level"] == 1]
        leaves = [n for n in payload["nodes"] if n["level"] == 2]
        assert len(roots) == 3
        assert len(leaves) <= 9
        assert file_sha256(out1 / "tree.json") == file_sha256(out2 / "tree.json")
        provenance = json.loads((out1 / "provenance.json").read_text(encoding="utf-8"))
        assert provenance["peak_live_matrices"] <= 3
        assert provenance["corpus_sha256"] == file_sha256(corpus_bin)

    def test_cold_train_writes_the_pinned_cache_file_names(self, planted_cli, tmp_path):
        # A cache file's name is its key: a changed key silently orphans
        # every cache already on disk.
        corpus_bin, emb = planted_cli
        cache = tmp_path / "cache"
        assert main(train_args(corpus_bin, emb, tmp_path / "model", cache_dir=cache, seed=7)) == 0
        assert sorted(path.name for path in cache.iterdir()) == [
            "693e22f88949b3588b82a71cbac69bdf2af85e4d.bin",
            "6cb77bcae285d819a0d7ae68a51265a16b440bc9.bin",
            "e3426bca2a6881e0ab5eca44ba4a582d3059f5c8.bin",
        ]

    def test_cache_hit_matches_cold_rebuild(self, planted_cli, tmp_path):
        corpus_bin, emb = planted_cli
        cache = tmp_path / "cache"
        warm1 = tmp_path / "w1"
        warm2 = tmp_path / "w2"
        cold = tmp_path / "cold"
        assert main(train_args(corpus_bin, emb, warm1, cache_dir=cache)) == 0
        assert (cache.exists() and any(cache.iterdir()))
        assert main(train_args(corpus_bin, emb, warm2, cache_dir=cache)) == 0
        assert main(train_args(corpus_bin, emb, cold) + ["--no-cache"]) == 0
        h = [file_sha256(p / "tree.json") for p in (warm1, warm2, cold)]
        assert h[0] == h[1] == h[2]

    def test_independent_cache_builds_are_bitwise_equal(self, planted_cli, tmp_path):
        corpus_bin, emb = planted_cli
        caches = (tmp_path / "c1", tmp_path / "c2")
        for i, cache in enumerate(caches):
            assert main(
                train_args(corpus_bin, emb, tmp_path / f"m{i}", cache_dir=cache)
            ) == 0
        files1 = sorted(p.name for p in caches[0].iterdir())
        files2 = sorted(p.name for p in caches[1].iterdir())
        assert files1 == files2 and files1
        for name in files1:
            assert file_sha256(caches[0] / name) == file_sha256(caches[1] / name)

    @pytest.mark.parametrize(
        "damage",
        ["partial-record", "index-beyond-shape", "out-of-order", "truncated-by-one-entry",
         "stored-zero", "flipped-value-bit"],
    )
    def test_damaged_cache_is_rebuilt_to_the_no_cache_tree(
        self, planted_cli, tmp_path, caplog, damage
    ):
        corpus_bin, emb = planted_cli
        cache = tmp_path / "cache"
        assert main(train_args(corpus_bin, emb, tmp_path / "fill", cache_dir=cache)) == 0
        files = sorted(cache.iterdir())
        assert len(files) == 3
        intact = {p.name: p.read_bytes() for p in files}
        for path in files:
            blob = intact[path.name]
            rows, cols, nnz = np.frombuffer(blob, dtype="<u8", count=3).tolist()
            arrays = read_csr(path, (rows, cols))
            entry = arrays.indices.itemsize + 8  # an index and its float64 value
            at = len(blob) - nnz * entry  # the file ends with the indices, then the values
            if damage == "partial-record":
                path.write_bytes(blob[:-3])
            elif damage == "truncated-by-one-entry":
                path.write_bytes(blob[:-entry])
            elif damage == "stored-zero":  # the last stored value set to 0.0
                path.write_bytes(blob[:-8] + bytes(8))
            elif damage == "flipped-value-bit":  # the last stored value, still nonzero
                path.write_bytes(blob[:-3] + bytes([blob[-3] ^ 0x10]) + blob[-2:])
            else:
                indices = arrays.indices.copy()
                if damage == "out-of-order":  # swap two columns of one row
                    first = int(np.flatnonzero(np.diff(arrays.indptr) >= 2)[0])
                    i = int(arrays.indptr[first])
                    indices[[i, i + 1]] = indices[[i + 1, i]]
                else:
                    indices[0] = np.iinfo(indices.dtype).max
                path.write_bytes(blob[:at] + indices.tobytes() + blob[at + indices.nbytes:])
        warm = tmp_path / "warm"
        cold = tmp_path / "cold"
        with caplog.at_level("WARNING"):
            assert main(train_args(corpus_bin, emb, warm, cache_dir=cache)) == 0
        assert sum("rebuilding" in r.message for r in caplog.records) == 3
        provenance = json.loads((warm / "provenance.json").read_text(encoding="utf-8"))
        assert set(provenance["cache"].values()) == {"rebuilt"}
        assert main(train_args(corpus_bin, emb, cold) + ["--no-cache"]) == 0
        assert file_sha256(warm / "tree.json") == file_sha256(cold / "tree.json")
        assert {p.name: p.read_bytes() for p in cache.iterdir()} == intact

    def test_provenance_records_cache_status(self, planted_cli, tmp_path):
        corpus_bin, emb = planted_cli
        cache = tmp_path / "cache"
        kinds = ("similarity", "hierarchy", "representation")

        def status(out):
            return json.loads((out / "provenance.json").read_text(encoding="utf-8"))["cache"]

        assert main(train_args(corpus_bin, emb, tmp_path / "cold", cache_dir=cache)) == 0
        assert status(tmp_path / "cold") == dict.fromkeys(kinds, "miss")
        assert main(train_args(corpus_bin, emb, tmp_path / "warm", cache_dir=cache)) == 0
        assert status(tmp_path / "warm") == dict.fromkeys(kinds, "hit")
        damaged = max(cache.iterdir(), key=lambda p: p.stat().st_size)  # the representation
        damaged.write_bytes(damaged.read_bytes()[:-1])
        assert main(train_args(corpus_bin, emb, tmp_path / "mended", cache_dir=cache)) == 0
        assert status(tmp_path / "mended") == {
            "similarity": "hit", "hierarchy": "hit", "representation": "rebuilt"
        }
        assert main(train_args(corpus_bin, emb, tmp_path / "off") + ["--no-cache"]) == 0
        assert status(tmp_path / "off") == dict.fromkeys(kinds, "off")
        runs = ("cold", "warm", "mended", "off")
        trees = {(tmp_path / run / "tree.json").read_bytes() for run in runs}
        assert len(trees) == 1
        assert "cache" not in json.loads(trees.pop())
        records = [json.loads((tmp_path / run / "provenance.json").read_text(encoding="utf-8"))
                   ["factorizations"] for run in runs]
        assert records[0] and all(r == records[0] for r in records)

    def test_cached_similarity_and_hierarchy_skip_the_embedding_file(
        self, planted_cli, tmp_path, monkeypatch
    ):
        corpus_bin, emb = planted_cli
        cache = tmp_path / "cache"
        assert main(train_args(corpus_bin, emb, tmp_path / "fill", cache_dir=cache)) == 0
        train = TrainConfig(alpha=PLANTED_ALPHA, k_s=PLANTED_K)
        a0_path = cache / (cache_key(
            "representation", corpus=file_sha256(corpus_bin), embeddings=file_sha256(emb),
            space=train.space, alpha=train.alpha, k_s=train.k_s,
        ) + ".bin")
        intact = a0_path.read_bytes()
        a0_path.unlink()
        reads = []
        real = hypspace.load_embeddings
        monkeypatch.setattr(
            hypspace, "load_embeddings", lambda *args: reads.append(args) or real(*args)
        )
        out = tmp_path / "a0-only"
        assert main(train_args(corpus_bin, emb, out, cache_dir=cache)) == 0
        assert reads == []
        provenance = json.loads((out / "provenance.json").read_text(encoding="utf-8"))
        assert provenance["cache"] == {
            "similarity": "hit", "hierarchy": "hit", "representation": "miss"
        }
        assert provenance["embedding_coverage"] is None
        assert a0_path.read_bytes() == intact
        assert main(train_args(corpus_bin, emb, tmp_path / "cold") + ["--no-cache"]) == 0
        assert (out / "tree.json").read_bytes() == (tmp_path / "cold" / "tree.json").read_bytes()

    def test_provenance_records_matrix_sizes(self, planted_cli, tmp_path):
        corpus_bin, emb = planted_cli
        cache = tmp_path / "cache"

        def read(out):
            return json.loads((out / "provenance.json").read_text(encoding="utf-8"))

        assert main(train_args(corpus_bin, emb, tmp_path / "cold", cache_dir=cache)) == 0
        assert main(train_args(corpus_bin, emb, tmp_path / "warm", cache_dir=cache)) == 0
        cold, warm = read(tmp_path / "cold"), read(tmp_path / "warm")
        assert cold["matrices"] == warm["matrices"]
        assert set(cold["matrices"]) == {"similarity", "hierarchy", "representation"}
        built = read_corpus(corpus_bin)
        m, n = len(built.vocabulary), built.n_docs
        shapes = {"similarity": [m, m], "hierarchy": [m, m], "representation": [n, m]}
        for kind, entry in cold["matrices"].items():
            assert set(entry) == {"shape", "nnz", "density"}
            assert entry["shape"] == shapes[kind]
            assert 0 < entry["nnz"] <= entry["shape"][0] * entry["shape"][1]
            assert entry["density"] == entry["nnz"] / (entry["shape"][0] * entry["shape"][1])
        assert cold["matrices"]["hierarchy"]["nnz"] == m * PLANTED_K
        assert "matrices" not in json.loads((tmp_path / "cold" / "tree.json").read_text())

    def test_provenance_schema(self, planted_cli, tmp_path):
        corpus_bin, emb = planted_cli
        out = tmp_path / "m"
        assert main(train_args(corpus_bin, emb, out)) == 0
        provenance = json.loads((out / "provenance.json").read_text(encoding="utf-8"))
        top = {"hyperparameters", "corpus_sha256", "embeddings_sha256", "embedding_coverage",
               "cache", "matrices", "excluded_empty_rows", "factorizations",
               "peak_live_matrices", "tree_sha256", "timings"}
        assert set(provenance) == top
        kinds = {"similarity", "hierarchy", "representation"}
        assert provenance["cache"] == dict.fromkeys(kinds, "miss")
        assert set(provenance["matrices"]) == kinds
        for entry in provenance["matrices"].values():
            assert set(entry) == {"shape", "nnz", "density"}
        record_types = {"node": str, "rows": int, "dense": bool, "n_iter": int,
                        "converged": bool, "objective": float, "unassigned": int}
        assert provenance["factorizations"]
        for record in provenance["factorizations"]:
            assert {key: type(value) for key, value in record.items()} == record_types
        assert set(provenance["timings"]) == {"matrices_s", "hierarchy_s", "total_s"}
        assert set(provenance["hyperparameters"]) == {f.name for f in fields(TrainConfig)}
        # README's model directory block names each key and record field.
        block = re.search(r"## Model directory\n.*?```\n(.*?)```",
                          README.read_text(encoding="utf-8"), re.S).group(1)
        for key in top | set(record_types):
            assert re.search(rf"\b{key}\b", block), key

    def test_provenance_records_nmf_per_level(self, planted_cli, tmp_path):
        corpus_bin, emb = planted_cli
        out = tmp_path / "m"
        assert main(train_args(corpus_bin, emb, out)) == 0
        provenance = json.loads((out / "provenance.json").read_text(encoding="utf-8"))
        records = provenance["factorizations"]
        nodes = json.loads((out / "tree.json").read_text(encoding="utf-8"))["nodes"]
        root = {"id": "", "level": 0, "children": [n["id"] for n in nodes if n["level"] == 1]}
        by_id = {n["id"]: n for n in (root, *nodes)}
        # The root and each node with children, in tree.json's depth-first order.
        assert [r["node"] for r in records] == [i for i, n in by_id.items() if n["children"]]
        assert records[0]["rows"] == read_corpus(corpus_bin).n_docs - provenance["excluded_empty_rows"]
        for record in records[1:]:
            assert record["rows"] == len(by_id[record["node"]]["doc_ids"])
        for record in records:
            kept = sum(len(by_id[c]["doc_ids"]) for c in by_id[record["node"]]["children"])
            assert record["unassigned"] == record["rows"] - kept
            assert 1 <= record["n_iter"] <= 300
        levels = [by_id[r["node"]]["level"] + 1 for r in records]
        assert levels.count(1) == 1
        assert levels.count(2) * 3 == sum(n["level"] == 2 for n in nodes)

    def test_iteration_cap_is_visible_in_provenance(self, planted_cli, tmp_path):
        corpus_bin, emb = planted_cli
        out = tmp_path / "capped"
        assert main(train_args(corpus_bin, emb, out, nmf_max_iter=2)) == 0
        records = json.loads((out / "provenance.json").read_text(encoding="utf-8"))["factorizations"]
        assert records
        for record in records:
            assert record["n_iter"] == 2 and not record["converged"]

    def test_integer_in_a_float_setting_reads_as_its_flag(self, planted_cli, tmp_path):
        # `"alpha": 0` in a config file is the setting `--alpha 0` makes: the
        # second train hits every cache entry the first wrote, and the trees
        # are byte-equal.
        corpus_bin, emb = planted_cli
        cache = tmp_path / "cache"
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps({"alpha": 0}), encoding="utf-8")
        argv = train_args(corpus_bin, emb, tmp_path / "file", cache_dir=cache)
        at = argv.index("--alpha")
        assert main(argv[:at] + argv[at + 2:] + ["--config", str(cfg_path)]) == 0
        assert main(train_args(corpus_bin, emb, tmp_path / "flag", cache_dir=cache, alpha=0)) == 0
        provenance = json.loads((tmp_path / "flag" / "provenance.json").read_text(encoding="utf-8"))
        assert set(provenance["cache"].values()) == {"hit"}
        assert len(list(cache.iterdir())) == 3
        assert (tmp_path / "file" / "tree.json").read_bytes() == (
            tmp_path / "flag" / "tree.json").read_bytes()

    def test_cache_flags_beat_the_config_file(self, planted_cli, tmp_path):
        corpus_bin, emb = planted_cli
        for key, flag, status in ((False, "--cache", {"miss"}), (True, "--no-cache", {"off"})):
            cfg_path = tmp_path / f"cache-{key}.json"
            cfg_path.write_text(json.dumps({"cache": key}), encoding="utf-8")
            out = tmp_path / flag
            argv = train_args(corpus_bin, emb, out) + ["--config", str(cfg_path), flag]
            assert main(argv) == 0
            provenance = json.loads((out / "provenance.json").read_text(encoding="utf-8"))
            assert set(provenance["cache"].values()) == status
            assert (out / "cache").exists() == (flag == "--cache")

    def test_euclidean_space_recorded_in_provenance(self, planted_cli, tmp_path):
        corpus_bin, emb = planted_cli
        out = tmp_path / "euc"
        assert main(train_args(corpus_bin, emb, out, space="euclidean")) == 0
        provenance = json.loads((out / "provenance.json").read_text(encoding="utf-8"))
        assert provenance["hyperparameters"]["space"] == "euclidean"
        assert "space" not in provenance and "seed" not in provenance

    def test_small_corpus_exits_4(self, fruit_jsonl, tmp_path, capsys):
        out = tmp_path / "pre"
        main(["preprocess", "--input", str(fruit_jsonl), "--output-dir", str(out), "--min-doc-freq", "1"])
        emb = tmp_path / "emb.txt"
        emb.write_text("apple 0.1 0.0\nbanana 0.0 0.1\ncherry 0.1 0.1\n", encoding="utf-8")
        code = main(
            [
                "train",
                "--corpus", str(out / "corpus.bin"),
                "--embeddings", str(emb),
                "--output-dir", str(tmp_path / "model"),
                "--n-topics", "2", "--min-docs", "50",
            ]
        )
        assert code == 4

    def test_too_small_corpus_names_its_row_count(self, fruit_jsonl, tmp_path, capsys):
        out = tmp_path / "pre"
        main(["preprocess", "--input", str(fruit_jsonl), "--output-dir", str(out), "--min-doc-freq", "1"])
        emb = tmp_path / "emb.txt"
        emb.write_text("apple 0.1 0.0\nbanana 0.0 0.1\ncherry 0.1 0.1\n", encoding="utf-8")
        capsys.readouterr()
        assert main(train_args(out / "corpus.bin", emb, tmp_path / "model")) == 4
        err = capsys.readouterr().err
        assert "error: root has 4 nonzero rows, fewer than min_docs=50" in err.splitlines()
        assert not (tmp_path / "model" / "tree.json").exists()

    def test_corpus_without_documents_exits_4(self, tmp_path, capsys):
        # read_corpus accepts it; train stops where any too-small corpus stops
        corpus_bin = tmp_path / "corpus.bin"
        vocabulary = Vocabulary(terms=["apple", "banana", "cherry"])
        write_corpus(Corpus(documents=[], vocabulary=vocabulary), corpus_bin)
        emb = tmp_path / "emb.txt"
        emb.write_text("apple 0.1 0.0\nbanana 0.0 0.1\ncherry 0.1 0.1\n", encoding="utf-8")
        args = train_args(corpus_bin, emb, tmp_path / "model", n_topics=2, min_docs=2)
        for cache in ("--cache", "--cache", "--no-cache"):  # cold, from the cache, without one
            assert main(args + [cache]) == 4
            err = capsys.readouterr().err
            assert "error: root has 0 nonzero rows, fewer than min_docs=2" in err.splitlines()
        assert not (tmp_path / "model" / "tree.json").exists()

    def test_too_small_corpus_stops_before_the_embeddings(self, tmp_path, capsys):
        # Two non-empty documents of three, against --min-docs 3: train exits
        # 4 before it reads the malformed embedding file, which would exit 2,
        # and before it makes a cache directory.
        corpus_bin = tmp_path / "corpus.bin"
        vocabulary = Vocabulary(terms=["apple", "banana"])
        documents = [Document("d1", [0, 1]), Document("d2", []), Document("d3", [1])]
        write_corpus(Corpus(documents=documents, vocabulary=vocabulary), corpus_bin)
        emb = tmp_path / "emb.txt"
        emb.write_text("apple 0.1 notanumber\n", encoding="utf-8")
        model = tmp_path / "model"
        capsys.readouterr()
        assert main(train_args(corpus_bin, emb, model, n_topics=2, min_docs=3)) == 4
        err = capsys.readouterr().err
        assert "error: root has 2 nonzero rows, fewer than min_docs=3" in err.splitlines()
        assert not (model / "cache").exists()

    def test_uncovered_vocabulary_exits_3_naming_the_file(self, planted_cli, tmp_path, capsys):
        corpus_bin, _ = planted_cli
        emb = tmp_path / "emb.txt"
        emb.write_text("2 2\nnotaterm 0.1 0.0\nnorthis 0.0 0.1\n", encoding="utf-8")
        capsys.readouterr()
        assert main(train_args(corpus_bin, emb, tmp_path / "model")) == 3
        err = capsys.readouterr().err
        assert f"error: {emb}: no vocabulary term has an embedding vector" in err.splitlines()
        assert not (tmp_path / "model" / "tree.json").exists()

    @pytest.mark.parametrize("component", ["nan", "inf", "-Infinity"])
    def test_non_finite_embedding_exits_2_naming_line(
        self, fruit_jsonl, tmp_path, capsys, component
    ):
        out = tmp_path / "pre"
        main(["preprocess", "--input", str(fruit_jsonl), "--output-dir", str(out), "--min-doc-freq", "1"])
        emb = tmp_path / "emb.txt"
        emb.write_text(
            f"apple 0.1 0.0\nbanana 0.0 0.1\ncherry {component} 0.1\n", encoding="utf-8"
        )
        code = main(
            [
                "train",
                "--corpus", str(out / "corpus.bin"),
                "--embeddings", str(emb),
                "--output-dir", str(tmp_path / "model"),
                # all four documents are usable, so the embeddings are read
                "--n-topics", "2", "--min-docs", "4",
            ]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert f"{emb}:3: non-finite vector component" in err
        assert not (tmp_path / "model" / "tree.json").exists()

    @pytest.mark.parametrize("space", ["hyperbolic", "euclidean"])
    def test_overflowing_embedding_norm_exits_2_naming_line(
        self, planted_cli, tmp_path, capsys, space
    ):
        # A squared norm past float64's range would put the vector at the
        # ball's origin, or make its cosines NaN; 1e10 squares to 1e20.
        corpus_bin, emb = planted_cli
        lines = emb.read_text(encoding="utf-8").splitlines()
        lineno = next(i for i, line in enumerate(lines, 1) if line.startswith("core0item00 "))
        term, x, y = lines[lineno - 1].split()
        x, y = float(x), float(y)
        r = (x * x + y * y) ** 0.5
        for norm, code in ((1e10, 0), (1e155, 2), (1e200, 2), (1e300, 2)):
            lines[lineno - 1] = f"{term} {x / r * norm!r} {y / r * norm!r}"
            path = tmp_path / "emb.txt"
            path.write_text("\n".join(lines) + "\n", encoding="utf-8")
            out = tmp_path / f"model-{norm:g}"
            args = train_args(corpus_bin, path, out, space=space) + ["--no-cache"]
            assert main(args) == code, norm
            err = capsys.readouterr().err
            if code:
                assert f"{path}:{lineno}: vector norm overflows" in err
            assert (out / "tree.json").exists() == (code == 0)

    @pytest.mark.parametrize("space", ["hyperbolic", "euclidean"])
    def test_underflowing_embedding_norm_exits_2_in_euclidean_space(
        self, planted_cli, tmp_path, capsys, space
    ):
        # Below a norm of about 1.5e-162 the squared norm underflows to 0,
        # so a Euclidean vector would read as the zero vector, although
        # cosine ignores scale; in the ball it is at the origin either way.
        corpus_bin, emb = planted_cli
        lines = emb.read_text(encoding="utf-8").splitlines()
        lineno = next(i for i, line in enumerate(lines, 1) if line.startswith("core0item00 "))
        term, x, y = lines[lineno - 1].split()
        x, y = float(x), float(y)
        r = (x * x + y * y) ** 0.5
        for norm in (1.0, 1e-100, 1e-160, 1e-200, 1e-300):
            code = 2 if space == "euclidean" and norm < 1e-162 else 0
            lines[lineno - 1] = f"{term} {x / r * norm!r} {y / r * norm!r}"
            path = tmp_path / "emb.txt"
            path.write_text("\n".join(lines) + "\n", encoding="utf-8")
            out = tmp_path / f"model-{norm:g}"
            args = train_args(corpus_bin, path, out, space=space) + ["--no-cache"]
            assert main(args) == code, norm
            err = capsys.readouterr().err
            if code:
                assert f"{path}:{lineno}: vector norm underflows" in err
            assert (out / "tree.json").exists() == (code == 0)

    def test_missing_inputs_exit_2(self, tmp_path):
        assert main(
            [
                "train",
                "--corpus", str(tmp_path / "nope.bin"),
                "--embeddings", str(tmp_path / "nope.txt"),
                "--output-dir", str(tmp_path),
            ]
        ) == 2

    def test_invalid_alpha_exits_2(self, planted_cli, tmp_path):
        corpus_bin, emb = planted_cli
        code = main(train_args(corpus_bin, emb, tmp_path / "m", alpha=2.0))
        assert code == 2

    def test_config_file_with_flag_override(self, planted_cli, tmp_path, capsys):
        corpus_bin, emb = planted_cli
        config = {
            "corpus": str(corpus_bin),
            "embeddings": str(emb),
            "alpha": PLANTED_ALPHA,
            "k_s": PLANTED_K,
            "k_h": PLANTED_K,
            "n_topics": 3,
            "max_depth": 1,
            "min_docs": 50,
            "seed": 0,
        }
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps(config), encoding="utf-8")
        out = tmp_path / "model"
        code = main(
            ["train", "--config", str(cfg_path), "--output-dir", str(out), "--max-depth", "2"]
        )
        assert code == 0
        payload = json.loads((out / "tree.json").read_text(encoding="utf-8"))
        assert payload["config"]["max_depth"] == 2  # flag beat the file

    def test_unknown_config_key_exits_2(self, tmp_path):
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text('{"mystery": 1}', encoding="utf-8")
        assert main(["train", "--config", str(cfg_path)]) == 2

    @pytest.mark.parametrize(
        "text, named",
        [
            ('{"k_s": "5"}', "'k_s'"),
            ('{"k_s": true}', "'k_s'"),
            ('{"k_s": 5.0}', "'k_s'"),
            ('{"alpha": null}', "'alpha'"),
            ('{"seed": "x"}', "'seed'"),
            ('{"nmf_tol": "1e-5"}', "'nmf_tol'"),
            ('{"nmf_tol": 1%s}' % ("0" * 400), "'nmf_tol'"),
            ('{"cache": 1}', "'cache'"),
            ('{"no_cache": 1}', "'no_cache'"),  # the key before it was renamed `cache`
            ('{"stopwords": "en"}', "'stopwords'"),
            ('{"stopwords": [1]}', "'stopwords'"),
            ('{"corpus": 7}', "'corpus'"),
            ("[1, 2]", "JSON object"),
        ],
    )
    def test_config_file_value_types_exit_2(self, tmp_path, capsys, text, named):
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(text, encoding="utf-8")
        assert main(["train", "--config", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert str(cfg_path) in err and named in err

    def test_config_file_accepts_its_field_types(self, tmp_path):
        values = {
            "corpus": None, "alpha": 1, "nmf_tol": 1e-4, "k_s": 3,
            "cache": False, "stopwords": ["en"],
        }
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps(values), encoding="utf-8")
        args = build_parser().parse_args(["train", "--config", str(cfg_path)])
        config = _load_run_config(args)
        keys = _config_keys(config)
        assert all(getattr(keys[key][0], key) == value for key, value in values.items())

    def test_config_file_keys_land_in_their_sections(self, tmp_path):
        values = {
            "corpus": "c.bin", "cache": False,
            "stopwords": ["sw.txt"], "ratio_filter": True, "stem": True, "min_doc_freq": 2,
            "alpha": 0.3, "nmf_max_iter": 7,
        }
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps(values), encoding="utf-8")
        args = build_parser().parse_args(["train", "--config", str(cfg_path), "--seed", "3"])
        config = _load_run_config(args)
        assert config == RunConfig(
            corpus="c.bin", cache=False,
            preprocess=PreprocessConfig(stopwords=["sw.txt"], ratio_filter=True, stem=True,
                                        min_doc_freq=2),
            train=TrainConfig(alpha=0.3, nmf_max_iter=7, seed=3),
        )

    def test_every_config_key_is_declared_once_and_type_checked(self):
        keys = _config_keys(RunConfig())
        declared = [f.name for cls in (RunConfig, PreprocessConfig, TrainConfig)
                    for f in fields(cls) if f.name not in ("preprocess", "train")]
        assert len(keys) == len(declared) == 24  # no key is declared twice
        for name, (_, f) in keys.items():
            assert f.type.partition(" | ")[0] in _SETTING_TYPES, name

    @pytest.mark.parametrize("flags", [["--nmf-tol", "0"], ["--nmf-tol", "nan"],
                                       ["--nmf-max-iter", "0"], ["--seed", "-1"],
                                       ["--max-depth", "33"], ["--space", "bogus"]])
    def test_bad_train_settings_exit_2_before_any_matrix(
        self, planted_cli, tmp_path, capsys, flags
    ):
        corpus_bin, emb = planted_cli
        cache = tmp_path / "cache"
        args = train_args(corpus_bin, emb, tmp_path / "m", cache_dir=cache) + flags
        assert main(args) == 2
        assert flags[0][2:].replace("-", "_") in capsys.readouterr().err
        assert not cache.exists() and not (tmp_path / "m").exists()

    def test_identical_documents_train_to_the_depth_bound(self, tmp_path, capsys):
        # Every level hands all 40 documents to one topic, so the tree is
        # as deep as max_depth allows.
        docs = tmp_path / "docs.txt"
        docs.write_text("apple banana cherry\n" * 40, encoding="utf-8")
        pre = tmp_path / "pre"
        assert main(["preprocess", "--input", str(docs), "--output-dir", str(pre)]) == 0
        emb = tmp_path / "emb.txt"
        emb.write_text("apple 0.1 0.0\nbanana 0.0 0.1\ncherry 0.1 0.1\n", encoding="utf-8")
        model = tmp_path / "model"
        assert main(["train", "--corpus", str(pre / "corpus.bin"), "--embeddings", str(emb),
                     "--output-dir", str(model), "--no-cache", "--n-topics", "2",
                     "--min-docs", "2", "--k-s", "3", "--k-h", "3", "--max-depth", "32"]) == 0
        assert "depth=32" in capsys.readouterr().out
        n_nodes = len(json.loads((model / "tree.json").read_text(encoding="utf-8"))["nodes"])
        assert n_nodes >= 32
        assert (model / "factors.bin").stat().st_size == 8 * n_nodes * 3

    def test_one_neighbor_table_for_both_widths(self, planted_cli, tmp_path, monkeypatch):
        # k_h > k_s: the hierarchy table is built once at k_h and the
        # similarity build slices it; the cache files equal those of
        # builds that each made their own table.
        corpus_bin, emb = planted_cli
        k_h = PLANTED_K + 10
        real = hypspace._neighbor_table
        builds = []

        def counting(table, k):
            before = table._neighbors
            out = real(table, k)
            if table._neighbors is not before:
                builds.append(k)
            return out

        def unshared(table, k):
            table._neighbors = None
            return real(table, k)

        caches = {}
        for name, wrapper in (("shared", counting), ("unshared", unshared)):
            monkeypatch.setattr(hypspace, "_neighbor_table", wrapper)
            caches[name] = tmp_path / f"cache-{name}"
            args = train_args(corpus_bin, emb, tmp_path / name, cache_dir=caches[name], k_h=k_h)
            assert main(args) == 0
        assert builds == [k_h]
        files = {p.name: p.read_bytes() for p in caches["shared"].iterdir()}
        assert len(files) == 3
        assert files == {p.name: p.read_bytes() for p in caches["unshared"].iterdir()}
        trees = [(tmp_path / name / "tree.json").read_bytes() for name in caches]
        assert trees[0] == trees[1]


class RunCut(Exception):
    """A run stopped part-way; no handler of `main` catches it."""


@pytest.fixture()
def metric_model(tmp_path):
    """Corpus.bin for the 4-document PMI fixture plus a hand-built one-topic
    tree and its factors.bin."""
    docs = tmp_path / "docs.jsonl"
    rows = [
        {"id": "d1", "text": "alpha beta"},
        {"id": "d2", "text": "alpha beta"},
        {"id": "d3", "text": "alpha gamma"},
        {"id": "d4", "text": "gamma"},
    ]
    docs.write_text("".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8")
    out = tmp_path / "corpus-dir"
    assert main(
        ["preprocess", "--input", str(docs), "--output-dir", str(out), "--min-doc-freq", "1"]
    ) == 0
    model = tmp_path / "model"
    model.mkdir()
    payload = {
        "config": {},
        "nodes": [
            {
                "id": "0",
                "level": 1,
                "top_terms": [
                    {"term": "alpha", "weight": 1.0},
                    {"term": "beta", "weight": 0.5},
                ],
                "doc_ids": ["d1", "d2", "d3", "d4"],
                "children": [],
            }
        ],
    }
    (model / "tree.json").write_text(json.dumps(payload), encoding="utf-8")
    np.array([1.0, 0.5, 0.0], dtype="<f8").tofile(model / "factors.bin")
    return out / "corpus.bin", model


class TestEvaluateCommand:
    def test_hand_tree_coherence(self, metric_model, capsys):
        corpus_bin, model = metric_model
        code = main(["evaluate", "--model", str(model), "--corpus", str(corpus_bin)])
        assert code == 0
        report = json.loads((model / "report.json").read_text(encoding="utf-8"))
        assert report["topics"][0]["coherence"] == pytest.approx(0.2876820724517809, abs=1e-9)
        assert (model / "report.csv").exists()

    def test_empty_vocabulary_reports_null_specialization(self, tmp_path):
        # preprocess never writes a corpus without terms; write_corpus can.
        corpus_bin = tmp_path / "corpus.bin"
        write_corpus(Corpus(documents=[Document(id="d1", tokens=[])],
                            vocabulary=Vocabulary(terms=[])), corpus_bin)
        model = tmp_path / "model"
        model.mkdir()
        node = {"id": "0", "level": 1, "top_terms": [], "doc_ids": ["d1"], "children": []}
        (model / "tree.json").write_text(json.dumps({"config": {}, "nodes": [node]}),
                                         encoding="utf-8")
        (model / "factors.bin").write_bytes(b"")  # 0 weights for each of 0 terms
        assert main(["evaluate", "--model", str(model), "--corpus", str(corpus_bin)]) == 0
        report = json.loads((model / "report.json").read_text(encoding="utf-8"))
        assert report["topics"][0]["specialization"] is None

    def test_empty_tree_reports_absent_sections(self, metric_model, tmp_path):
        corpus_bin, _ = metric_model
        model = tmp_path / "empty-model"
        model.mkdir()
        (model / "tree.json").write_text('{"config": {}, "nodes": []}', encoding="utf-8")
        (model / "factors.bin").write_bytes(b"")  # no node, no weights
        code = main(["evaluate", "--model", str(model), "--corpus", str(corpus_bin)])
        assert code == 0
        report = json.loads((model / "report.json").read_text(encoding="utf-8"))
        assert report["topics"] == [] and report["summary"]["mean_coherence"] is None

    def test_reordered_vocabulary_exits_3(self, planted_cli, tmp_path, capsys):
        # The same terms and documents with the vocabulary reversed: factor
        # weights are read by term position, so only the digest tells.
        corpus_bin, emb = planted_cli
        model = tmp_path / "model"
        assert main(train_args(corpus_bin, emb, model) + ["--no-cache"]) == 0
        built = read_corpus(corpus_bin)
        m = len(built.vocabulary)
        reordered = tmp_path / "reordered.bin"
        write_corpus(Corpus(
            documents=[Document(id=d.id, tokens=[m - 1 - t for t in d.tokens])
                       for d in built.documents],
            vocabulary=Vocabulary(terms=built.vocabulary.terms[::-1]),
        ), reordered)
        assert main(["evaluate", "--model", str(model), "--corpus", str(corpus_bin)]) == 0
        capsys.readouterr()
        assert main(["evaluate", "--model", str(model), "--corpus", str(reordered)]) == 3
        err = capsys.readouterr().err
        assert f"error: {model / 'tree.json'}: vocab_sha256" in err and str(reordered) in err

    def test_corrupt_tree_exits_3_with_location(self, metric_model, tmp_path, capsys):
        corpus_bin, _ = metric_model
        model = tmp_path / "bad-model"
        model.mkdir()
        (model / "tree.json").write_text('{"config": {}, "nodes": [oops', encoding="utf-8")
        code = main(["evaluate", "--model", str(model), "--corpus", str(corpus_bin)])
        assert code == 3
        assert "line 1" in capsys.readouterr().err

    def test_vocabulary_mismatch_exits_3(self, metric_model, tmp_path):
        corpus_bin, _ = metric_model
        model = tmp_path / "mismatch-model"
        model.mkdir()
        payload = {
            "config": {},
            "nodes": [
                {
                    "id": "0",
                    "level": 1,
                    "top_terms": [{"term": "zeppelin", "weight": 1.0}],
                    "doc_ids": [],
                    "children": [],
                }
            ],
        }
        (model / "tree.json").write_text(json.dumps(payload), encoding="utf-8")
        assert main(["evaluate", "--model", str(model), "--corpus", str(corpus_bin)]) == 3

    def test_dangling_child_id_exits_3_naming_nodes(self, metric_model, capsys):
        corpus_bin, model = metric_model
        payload = json.loads((model / "tree.json").read_text(encoding="utf-8"))
        payload["nodes"][0]["children"] = ["0.7"]
        (model / "tree.json").write_text(json.dumps(payload), encoding="utf-8")
        assert main(["evaluate", "--model", str(model), "--corpus", str(corpus_bin)]) == 3
        err = capsys.readouterr().err
        assert "'0'" in err and "'0.7'" in err

    @pytest.mark.parametrize("node_id", ["a/b", "../0", "0.0", "", "0.", "٣"])
    def test_id_that_is_no_topic_path_exits_3_naming_node(self, metric_model, capsys, node_id):
        # A level-1 id is one topic number, as `train` writes it.
        corpus_bin, model = metric_model
        payload = json.loads((model / "tree.json").read_text(encoding="utf-8"))
        payload["nodes"][0]["id"] = node_id
        (model / "tree.json").write_text(json.dumps(payload), encoding="utf-8")
        assert main(["evaluate", "--model", str(model), "--corpus", str(corpus_bin)]) == 3
        err = capsys.readouterr().err
        assert f"{model / 'tree.json'}: node {node_id!r}: a level-1 id" in err
        assert not (model / "report.json").exists()

    def test_corpus_term_index_outside_vocabulary_exits_2(self, metric_model, capsys):
        corpus_bin, model = metric_model
        blob = bytearray(corpus_bin.read_bytes())
        blob[-4:] = (7).to_bytes(4, "little")  # the last token of the last document
        corpus_bin.write_bytes(bytes(blob))
        assert main(["evaluate", "--model", str(model), "--corpus", str(corpus_bin)]) == 2
        assert "outside the vocabulary" in capsys.readouterr().err

    def test_missing_model_exits_2(self, metric_model, tmp_path):
        corpus_bin, _ = metric_model
        assert main(
            ["evaluate", "--model", str(tmp_path / "ghost"), "--corpus", str(corpus_bin)]
        ) == 2

    @pytest.mark.parametrize("value, named", [
        (float("nan"), "weight 1 is nan"), (float("inf"), "weight 1 is inf"),
        (-1.0, "weight 1 is -1.0"), (1e200, "sum of squares overflows"),
    ])
    def test_damaged_factor_weights_exit_3_naming_file(self, metric_model, capsys, value, named):
        corpus_bin, model = metric_model
        path = model / "factors.bin"
        np.array([0.5, value, 0.25], dtype="<f8").tofile(path)
        assert main(["evaluate", "--model", str(model), "--corpus", str(corpus_bin)]) == 3
        err = capsys.readouterr().err
        assert f"{path}: node '0': " in err and named in err
        assert not (model / "report.json").exists()

    @pytest.mark.parametrize("cut, extra", [(16, b""), (24, b"\0\0\0"), (24, bytes(8))],
                             ids=["one-weight-short", "partial-value", "one-weight-over"])
    def test_factor_file_of_the_wrong_size_exits_3_naming_file(
        self, metric_model, capsys, cut, extra
    ):
        corpus_bin, model = metric_model
        path = model / "factors.bin"
        weights = np.array([0.5, 0.25, 0.125], dtype="<f8").tobytes()
        path.write_bytes(weights[:cut] + extra)
        assert main(["evaluate", "--model", str(model), "--corpus", str(corpus_bin)]) == 3
        err = capsys.readouterr().err
        assert f"{path}: {path.stat().st_size} bytes" in err and "take 24" in err
        assert not (model / "report.json").exists()

    def test_factor_rows_follow_the_node_list_order(self, metric_model):
        # Row i of factors.bin is the weights of tree.json's node i, also
        # where the list is not in depth-first order.
        corpus_bin, model = metric_model
        payload = json.loads((model / "tree.json").read_text(encoding="utf-8"))
        root = payload["nodes"][0]
        payload["nodes"] = [dict(root, children=["0.0"]), dict(root, id="1"),
                            dict(root, id="0.0", level=2)]
        (model / "tree.json").write_text(json.dumps(payload), encoding="utf-8")
        np.arange(9, dtype="<f8").tofile(model / "factors.bin")
        tree = settings.read_model(model, read_corpus(corpus_bin).vocabulary, str(corpus_bin))
        assert {node.node_id: node.term_weights.tolist() for node in tree.nodes()} == {
            "0": [0, 1, 2], "1": [3, 4, 5], "0.0": [6, 7, 8]}

    def test_per_node_factor_files_of_an_earlier_version_exit_3_naming_model(
        self, metric_model, capsys
    ):
        # They are not read: the model has no factors.bin.
        corpus_bin, model = metric_model
        (model / "factors.bin").unlink()
        (model / "factors").mkdir()
        np.array([1.0, 0.5, 0.0], dtype="<f8").tofile(model / "factors" / "level1-node0.bin")
        assert main(["evaluate", "--model", str(model), "--corpus", str(corpus_bin)]) == 3
        err = capsys.readouterr().err
        assert f"{model / 'factors.bin'}: missing" in err and "retrain" in err
        assert not (model / "report.json").exists()

    @pytest.mark.parametrize("how", ["flag", "config"])
    def test_output_dir_dot_is_the_working_directory(
        self, metric_model, tmp_path, monkeypatch, how
    ):
        corpus_bin, model = metric_model
        work = tmp_path / "work"
        work.mkdir()
        monkeypatch.chdir(work)
        argv = ["evaluate", "--model", str(model), "--corpus", str(corpus_bin)]
        if how == "flag":
            argv += ["--output-dir", "."]
        else:
            (tmp_path / "run.json").write_text('{"output_dir": "."}', encoding="utf-8")
            argv += ["--config", str(tmp_path / "run.json")]
        assert main(argv) == 0
        assert (work / "report.json").exists() and (work / "report.csv").exists()
        assert not (model / "report.json").exists() and not (model / "report.csv").exists()

    def test_retrain_leaves_only_the_new_trees_factor_files(self, planted_cli, tmp_path):
        # An earlier model's factors would be read as the new tree's.
        corpus_bin, emb = planted_cli
        model = tmp_path / "model"
        assert main(train_args(corpus_bin, emb, model)) == 0
        assert main(train_args(corpus_bin, emb, model, max_depth=1)) == 0
        nodes = json.loads((model / "tree.json").read_text(encoding="utf-8"))["nodes"]
        m = len((corpus_bin.parent / "vocab.txt").read_text(encoding="utf-8").split())
        assert (model / "factors.bin").stat().st_size == 8 * len(nodes) * m
        assert main(["evaluate", "--model", str(model), "--corpus", str(corpus_bin)]) == 0
        report = json.loads((model / "report.json").read_text(encoding="utf-8"))
        assert [row["level"] for row in report["levels"]] == [1]
        assert report["levels"][0]["specialization"] is not None

    def test_retrain_removes_the_earlier_models_report(self, planted_cli, tmp_path):
        corpus_bin, emb = planted_cli
        model = tmp_path / "model"
        assert main(train_args(corpus_bin, emb, model, seed=1)) == 0
        assert main(["evaluate", "--model", str(model), "--corpus", str(corpus_bin)]) == 0
        assert (model / "report.json").exists() and (model / "report.csv").exists()
        assert main(train_args(corpus_bin, emb, model, seed=2, max_depth=1)) == 0
        assert not (model / "report.json").exists() and not (model / "report.csv").exists()

    def test_retrain_removes_the_earlier_models_default_exports(self, planted_cli, tmp_path):
        corpus_bin, emb = planted_cli
        model, elsewhere = tmp_path / "model", tmp_path / "elsewhere.dot"
        assert main(train_args(corpus_bin, emb, model, seed=1)) == 0
        for fmt in ("json", "dot"):
            assert main(["export", "--model", str(model), "--format", fmt]) == 0
        assert main(["export", "--model", str(model), "--format", "dot",
                     "--output", str(elsewhere)]) == 0
        assert (model / "tree.export.json").exists() and (model / "tree.dot").exists()
        assert main(train_args(corpus_bin, emb, model, seed=2, max_depth=1)) == 0
        assert not (model / "tree.export.json").exists() and not (model / "tree.dot").exists()
        assert elsewhere.exists()

    @pytest.mark.parametrize("cut", ["in-tree.json", "between-files", "in-factors.bin"])
    def test_cut_retrain_is_never_evaluated(self, planted_cli, tmp_path, monkeypatch, cut):
        # A retrain over a model stops part-way through writing tree.json,
        # after it, or part-way through factors.bin. `evaluate` refuses what
        # is left, and no provenance.json names a tree that is not on disk.
        corpus_bin, emb = planted_cli
        model = tmp_path / "model"
        evaluate = ["evaluate", "--model", str(model), "--corpus", str(corpus_bin)]
        assert main(train_args(corpus_bin, emb, model)) == 0
        assert main(evaluate) == 0
        dump_json, write_model = settings.dump_json, settings.write_model

        def cut_dump_json(payload, path):
            if path.name != "tree.json":
                return dump_json(payload, path)
            if cut == "in-tree.json":
                text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
                path.write_text(text[: len(text) // 2], encoding="utf-8")
            else:
                dump_json(payload, path)
            raise RunCut

        def cut_write_model(*args):
            tree_path = write_model(*args)
            factors = tree_path.parent / "factors.bin"
            factors.write_bytes(factors.read_bytes()[: factors.stat().st_size // 2])
            raise RunCut

        if cut == "in-factors.bin":
            monkeypatch.setattr(settings, "write_model", cut_write_model)
        else:
            monkeypatch.setattr(settings, "dump_json", cut_dump_json)
        with pytest.raises(RunCut):
            main(train_args(corpus_bin, emb, model, max_depth=1))
        monkeypatch.undo()
        assert not (model / "report.json").exists()
        assert main(evaluate) in (2, 3)
        assert not (model / "report.json").exists()
        provenance = model / "provenance.json"
        if provenance.exists():
            recorded = json.loads(provenance.read_text(encoding="utf-8"))["tree_sha256"]
            assert recorded == file_sha256(model / "tree.json")

    def test_planted_end_to_end_evaluate(self, planted_cli, tmp_path):
        corpus_bin, emb = planted_cli
        model = tmp_path / "model"
        assert main(train_args(corpus_bin, emb, model)) == 0
        assert main(["evaluate", "--model", str(model), "--corpus", str(corpus_bin)]) == 0
        report = json.loads((model / "report.json").read_text(encoding="utf-8"))
        assert report["summary"]["mean_hierarchical_coherence"] is not None
        levels = {row["level"]: row for row in report["levels"]}
        assert levels[2]["specialization"] > levels[1]["specialization"]


# Loads hyhtm, then runs the commands given as JSON argv lists through
# cli.main; prints the exit codes and the scipy modules loaded after the
# import and after the commands.
SCIPY_PROBE = """
import json, sys
def loaded(package):
    return sorted(m for m in sys.modules if m.split(".")[0] == package)
import hyhtm
out = {"numpy_import_hyhtm": loaded("numpy")}
from hyhtm.cli import main
out.update({"import": loaded("scipy"), "numpy_import": loaded("numpy"), "codes": [], "numpy": [],
            "hyhtm": []})
for argv in json.loads(sys.argv[1]):
    out["codes"].append(main(argv))
    out["numpy"].append(loaded("numpy"))
    out["hyhtm"].append(loaded("hyhtm"))
out["commands"] = loaded("scipy")
print(json.dumps(out))
"""


def child_env():
    """The environment of a child interpreter that imports this hyhtm."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(Path(hyhtm.__file__).resolve().parents[1]), env.get("PYTHONPATH")])
    )
    return env


def run_scipy_probe(commands, timeout=120):
    """Run CLI commands in a fresh interpreter; what it reports: the scipy
    modules loaded on import and after every command, and the numpy and
    hyhtm modules loaded on import and after each command."""
    proc = subprocess.run(
        [sys.executable, "-c", SCIPY_PROBE, json.dumps(commands)],
        env=child_env(), capture_output=True, text=True, timeout=timeout,
    )
    assert proc.returncode == 0, proc.stderr
    return {**json.loads(proc.stdout.strip().splitlines()[-1]), "stderr": proc.stderr}


class TestScipyStaysUnloaded:
    """Only a sparse node needs scipy, and the planted tree has none;
    loading scipy costs about 0.2 s CPU and 16 MB per process."""

    @pytest.mark.parametrize("cache", ["no-cache", "empty-cache"])
    def test_cold_train_never_imports_scipy(self, planted_cli, tmp_path, cache):
        corpus_bin, emb = planted_cli
        cache_dir = tmp_path / "cache"
        cold, warm = tmp_path / "cold", tmp_path / "warm"
        if cache == "no-cache":
            cold_args = train_args(corpus_bin, emb, cold) + ["--no-cache"]
            assert main(train_args(corpus_bin, emb, tmp_path / "fill", cache_dir=cache_dir)) == 0
        else:
            cold_args = train_args(corpus_bin, emb, cold, cache_dir=cache_dir)
        out = run_scipy_probe([cold_args])
        assert out["codes"] == [0]
        assert out["import"] == []
        assert out["commands"] == []
        assert main(train_args(corpus_bin, emb, warm, cache_dir=cache_dir)) == 0
        provenance = json.loads((warm / "provenance.json").read_text(encoding="utf-8"))
        assert set(provenance["cache"].values()) == {"hit"}
        assert (cold / "tree.json").read_bytes() == (warm / "tree.json").read_bytes()

    def test_warm_train_never_imports_scipy(self, planted_cli, tmp_path):
        corpus_bin, emb = planted_cli
        cache = tmp_path / "cache"
        fill, warm = tmp_path / "fill", tmp_path / "warm"
        assert main(train_args(corpus_bin, emb, fill, cache_dir=cache)) == 0
        out = run_scipy_probe([train_args(corpus_bin, emb, warm, cache_dir=cache)])
        assert out["codes"] == [0]
        assert out["import"] == []
        assert out["commands"] == []
        assert (warm / "tree.json").read_bytes() == (fill / "tree.json").read_bytes()
        provenance = json.loads((warm / "provenance.json").read_text(encoding="utf-8"))
        assert set(provenance["cache"].values()) == {"hit"}

    def test_preprocess_evaluate_and_export_never_import_scipy(
        self, planted_inputs, planted_cli, tmp_path
    ):
        corpus_jsonl, _ = planted_inputs
        corpus_bin, emb = planted_cli
        model = tmp_path / "model"
        assert main(train_args(corpus_bin, emb, model)) == 0
        commands = [
            ["preprocess", "--input", str(corpus_jsonl), "--output-dir", str(tmp_path / "prep")],
            ["evaluate", "--model", str(model), "--corpus", str(corpus_bin)],
            ["export", "--model", str(model), "--format", "dot", "--output", str(tmp_path / "t.dot")],
            ["export", "--model", str(model), "--format", "json", "--output", str(tmp_path / "t.json")],
        ]
        out = run_scipy_probe(commands)
        assert out["codes"] == [0, 0, 0, 0]
        assert out["import"] == []
        assert out["commands"] == []
        assert (model / "report.json").is_file()


class TestHypspaceStaysUnloaded:
    """The geometry module is needed only to build S or H; a warm train
    reads both from the cache. Building them loads no `numpy.ma`."""

    def test_only_a_building_train_imports_hypspace(self, planted_cli, tmp_path):
        corpus_bin, emb = planted_cli
        cache = tmp_path / "cache"
        assert main(train_args(corpus_bin, emb, tmp_path / "fill", cache_dir=cache)) == 0
        warm = run_scipy_probe([train_args(corpus_bin, emb, tmp_path / "warm", cache_dir=cache)])
        cold = run_scipy_probe([train_args(corpus_bin, emb, tmp_path / "cold") + ["--no-cache"]])
        assert warm["codes"] == cold["codes"] == [0]
        assert "hyhtm.hypspace" not in warm["hyhtm"][0]
        assert "hyhtm.hypspace" in cold["hyhtm"][0]
        assert "numpy.ma" not in cold["numpy"][0]


class TestTreeBuilderStaysUnloaded:
    """`evaluate` reads the model directory through `settings`, so it loads
    neither the tree builder nor NMF."""

    def test_evaluate_never_imports_hierarchy_or_nmf(self, planted_cli, tmp_path):
        corpus_bin, emb = planted_cli
        model = tmp_path / "model"
        assert main(train_args(corpus_bin, emb, model)) == 0
        out = run_scipy_probe([["evaluate", "--model", str(model), "--corpus", str(corpus_bin)]])
        assert out["codes"] == [0]
        assert "hyhtm.metrics" in out["hyhtm"][0]
        assert not {"hyhtm.hierarchy", "hyhtm.nmf"} & set(out["hyhtm"][0])
        report = json.loads((model / "report.json").read_text(encoding="utf-8"))
        assert report["summary"]["mean_specialization_by_level"]


class TestNumpyStaysUnloaded:
    """`preprocess` and `export` need no numpy; loading it costs about
    0.13 s CPU per process."""

    def test_preprocess_and_export_never_import_numpy(self, planted_inputs, planted_cli, tmp_path):
        corpus_jsonl, _ = planted_inputs
        corpus_bin, emb = planted_cli
        model = tmp_path / "model"
        assert main(train_args(corpus_bin, emb, model)) == 0
        commands = [
            ["preprocess", "--input", str(corpus_jsonl), "--output-dir", str(tmp_path / "prep")],
            ["export", "--model", str(model), "--format", "json", "--output", str(tmp_path / "t.json")],
            ["export", "--model", str(model), "--format", "dot", "--output", str(tmp_path / "t.dot")],
            ["evaluate", "--model", str(model), "--corpus", str(tmp_path / "prep" / "corpus.bin")],
        ]
        out = run_scipy_probe(commands)
        assert out["codes"] == [0, 0, 0, 0]
        assert out["numpy_import_hyhtm"] == []
        assert out["numpy_import"] == []
        assert out["numpy"][:3] == [[], [], []]
        assert "numpy" in out["numpy"][3]
        assert (tmp_path / "prep" / "corpus.bin").read_bytes() == corpus_bin.read_bytes()
        assert (model / "report.json").is_file()


@pytest.fixture()
def three_node_model(tmp_path):
    model = tmp_path / "tiny-model"
    model.mkdir()
    payload = {
        "config": {},
        "nodes": [
            {
                "id": "0",
                "level": 1,
                "top_terms": [{"term": f"w{i}", "weight": 1.0 - i / 10} for i in range(10)],
                "doc_ids": ["d1"],
                "children": ["0.0", "0.1"],
            },
            {
                "id": "0.0",
                "level": 2,
                "top_terms": [{"term": f"x{i}", "weight": 1.0} for i in range(10)],
                "doc_ids": [],
                "children": [],
            },
            {
                "id": "0.1",
                "level": 2,
                "top_terms": [{"term": f"y{i}", "weight": 1.0} for i in range(10)],
                "doc_ids": [],
                "children": [],
            },
        ],
    }
    (model / "tree.json").write_text(json.dumps(payload), encoding="utf-8")
    return model


class TestExportCommand:
    def test_dot_structure(self, three_node_model, tmp_path):
        out = tmp_path / "tree.dot"
        code = main(
            ["export", "--model", str(three_node_model), "--format", "dot", "--output", str(out)]
        )
        assert code == 0
        text = out.read_text(encoding="utf-8")
        assert text.count("[label=") == 3
        assert text.count("->") == 2
        assert '"0" -> "0.0";' in text

    def test_dot_top_k_truncates_labels(self, three_node_model, tmp_path):
        out = tmp_path / "tree.dot"
        main(
            [
                "export", "--model", str(three_node_model),
                "--format", "dot", "--output", str(out), "--top-k", "5",
            ]
        )
        label_lines = [l for l in out.read_text(encoding="utf-8").splitlines() if "[label=" in l]
        for line in label_lines:
            label = line.split('label="')[1].split('"')[0]
            assert len(label.split()) == 5

    def test_dot_quotes_ids_and_labels(self, tmp_path):
        model = tmp_path / "quoted-model"
        model.mkdir()
        nodes = [
            {"id": 'a"b', "level": 1, "top_terms": [{"term": 'x"y', "weight": 1.0}],
             "doc_ids": [], "children": ["c\\d"]},
            {"id": "c\\d", "level": 2, "top_terms": [{"term": "z\\", "weight": 1.0}],
             "doc_ids": [], "children": []},
        ]
        (model / "tree.json").write_text(json.dumps({"config": {}, "nodes": nodes}),
                                         encoding="utf-8")
        out = tmp_path / "tree.dot"
        assert main(["export", "--model", str(model), "--format", "dot",
                     "--output", str(out)]) == 0
        assert out.read_text(encoding="utf-8") == (
            "digraph topics {\n"
            "  node [shape=box];\n"
            '  "a\\"b" [label="x\\"y"];\n'
            '  "c\\\\d" [label="z\\\\"];\n'
            '  "a\\"b" -> "c\\\\d";\n'
            "}\n"
        )

    def test_json_round_trip_structure(self, three_node_model, tmp_path):
        out = tmp_path / "tree.export.json"
        code = main(
            ["export", "--model", str(three_node_model), "--format", "json", "--output", str(out)]
        )
        assert code == 0
        original = json.loads((three_node_model / "tree.json").read_text(encoding="utf-8"))
        exported = json.loads(out.read_text(encoding="utf-8"))
        assert exported["nodes"] == original["nodes"]

    def test_json_top_k_truncation(self, three_node_model, tmp_path):
        out = tmp_path / "truncated.json"
        main(
            [
                "export", "--model", str(three_node_model),
                "--format", "json", "--output", str(out), "--top-k", "5",
            ]
        )
        exported = json.loads(out.read_text(encoding="utf-8"))
        assert all(len(n["top_terms"]) == 5 for n in exported["nodes"])

    @pytest.mark.parametrize("top_k", ["0", "-2"])
    def test_top_k_below_one_exits_2(self, three_node_model, tmp_path, capsys, top_k):
        out = tmp_path / "t.json"
        code = main(["export", "--model", str(three_node_model), "--output", str(out),
                     "--top-k", top_k])
        assert code == 2
        assert "--top-k" in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_format_exits_2(self, three_node_model):
        with pytest.raises(SystemExit) as err:
            main(["export", "--model", str(three_node_model), "--format", "pdf"])
        assert err.value.code == 2


def _without(key):
    return lambda d: d.pop(key)


def _set(key, value):
    return lambda d: d.__setitem__(key, value)


def _edit(change, node=None):
    """A mutation that applies `change` to the payload, or to one of its nodes."""

    def mutate(payload):
        change(payload if node is None else payload["nodes"][node])
        return payload

    return mutate


# Each mutation of `contract_model`'s tree and a word its error must name.
TREE_MUTATIONS = {
    "self-child": (_edit(_set("children", ["0.0"]), 1), "'0.0'"),
    "two-node-cycle": (_edit(_set("children", ["0"]), 1), "'0.0'"),
    "duplicate-node": (_edit(lambda p: p["nodes"].append(dict(p["nodes"][1]))), "duplicate"),
    "leaf-relabelled-level-7": (_edit(_set("level", 7), 3), "'1'"),
    "root-relabelled-level-7": (_edit(_set("level", 7), 0), "'0'"),
    "second-parent": (_edit(_set("children", ["0.1"]), 3), "'0.1'"),
    "top-level-list": (lambda p: [p], "top level"),
    "missing-nodes": (_edit(_without("nodes")), "nodes"),
    "nodes-object": (_edit(_set("nodes", {})), "nodes"),
    "config-list": (_edit(_set("config", [])), "config"),
    "vocab-size-text": (_edit(lambda p: p["config"].update(vocab_size="three")), "vocab_size"),
    "vocab-digest-number": (_edit(lambda p: p["config"].update(vocab_sha256=3)), "vocab_sha256"),
    "node-not-object": (_edit(lambda n: n.clear() or n.update(x=1), 0), "node 0"),
    "missing-id": (_edit(_without("id"), 0), "node 0"),
    "numeric-id": (_edit(_set("id", 0), 0), "node 0"),
    "missing-level": (_edit(_without("level"), 2), "level"),
    "level-text": (_edit(_set("level", "2"), 2), "level"),
    "level-zero": (_edit(_set("level", 0), 0), "level"),
    "level-bool": (_edit(_set("level", True), 0), "level"),
    "missing-top-terms": (_edit(_without("top_terms"), 2), "top_terms"),
    "top-terms-object": (_edit(_set("top_terms", {"term": "x"}), 2), "top_terms"),
    "missing-term": (_edit(lambda n: n["top_terms"][0].pop("term"), 2), "top_terms"),
    "term-number": (_edit(lambda n: n["top_terms"][0].update(term=3), 2), "top_terms"),
    "weight-text": (_edit(lambda n: n["top_terms"][0].update(weight="1"), 2), "top_terms"),
    "weight-nan": (_edit(lambda n: n["top_terms"][0].update(weight=float("nan")), 2), "top_terms"),
    "weight-huge-int": (_edit(lambda n: n["top_terms"][0].update(weight=10**400), 2), "top_terms"),
    "missing-doc-ids": (_edit(_without("doc_ids"), 2), "doc_ids"),
    "doc-ids-numbers": (_edit(_set("doc_ids", [1, 2]), 2), "doc_ids"),
    "missing-children": (_edit(_without("children"), 0), "children"),
    "children-string": (_edit(_set("children", "0.0"), 0), "children"),
}

# Mutations that made the node walk loop, its stack growing by about 35 MB/s,
# before the contract was checked; they run in a child process so that a
# regression fails on a short timeout.
CYCLES = ("self-child", "two-node-cycle")


@pytest.fixture()
def contract_model(metric_model):
    """`metric_model`'s corpus with a valid two-level tree over its terms."""
    corpus_bin, model = metric_model

    def node(node_id, level, terms, doc_ids, children=()):
        return {
            "id": node_id, "level": level, "doc_ids": doc_ids, "children": list(children),
            "top_terms": [{"term": t, "weight": 1.0 - i / 10} for i, t in enumerate(terms)],
        }

    payload = {
        "config": {"vocab_size": 3},
        "nodes": [
            node("0", 1, ["alpha", "beta"], ["d1", "d2", "d3"], ["0.0", "0.1"]),
            node("0.0", 2, ["beta", "alpha"], ["d1", "d2"]),
            node("0.1", 2, ["gamma", "alpha"], ["d3"]),
            node("1", 1, ["gamma"], ["d4"]),
        ],
    }
    (model / "tree.json").write_text(json.dumps(payload), encoding="utf-8")
    np.ones((4, 3), dtype="<f8").tofile(model / "factors.bin")
    return corpus_bin, model, payload


def reader_commands(corpus_bin, model, out):
    """evaluate and both export formats over one model directory."""
    return [
        ["evaluate", "--model", str(model), "--corpus", str(corpus_bin),
         "--output-dir", str(out / "report")],
        ["export", "--model", str(model), "--format", "dot", "--output", str(out / "t.dot")],
        ["export", "--model", str(model), "--format", "json", "--output", str(out / "t.json")],
    ]


class TestTreeContract:
    def test_integer_past_the_digit_limit_exits_naming_the_file(self, tmp_path, capsys):
        # json.loads raises a plain ValueError, not a JSONDecodeError, for
        # an integer of more than 4300 digits.
        big = "9" * 5000
        model = tmp_path / "model"
        model.mkdir()
        (model / "tree.json").write_text('{"config": {"seed": ' + big + '}, "nodes": []}',
                                         encoding="utf-8")
        assert main(["export", "--model", str(model)]) == 3
        assert f"error: {model / 'tree.json'}: invalid JSON" in capsys.readouterr().err
        (tmp_path / "run.json").write_text('{"seed": ' + big + '}', encoding="utf-8")
        assert main(["train", "--config", str(tmp_path / "run.json")]) == 2
        assert f"error: {tmp_path / 'run.json'}: invalid JSON" in capsys.readouterr().err

    def test_valid_tree_is_read_by_every_command(self, contract_model, tmp_path):
        corpus_bin, model, _ = contract_model
        for argv in reader_commands(corpus_bin, model, tmp_path):
            assert main(argv) == 0

    @pytest.mark.parametrize("mutation", sorted(TREE_MUTATIONS))
    def test_malformed_tree_exits_3_naming_file_and_node(
        self, contract_model, tmp_path, capsys, mutation
    ):
        corpus_bin, model, payload = contract_model
        change, named = TREE_MUTATIONS[mutation]
        payload = change(payload)
        (model / "tree.json").write_text(json.dumps(payload), encoding="utf-8")
        commands = reader_commands(corpus_bin, model, tmp_path)
        if mutation in CYCLES:
            out = run_scipy_probe(commands, timeout=15)
            codes, errors = out["codes"], out["stderr"].splitlines()
        else:
            codes, errors = [], []
            for argv in commands:
                codes.append(main(argv))
                errors.append(capsys.readouterr().err)
        assert codes == [3, 3, 3]
        assert len(errors) == 3
        for err in errors:
            assert "tree.json" in err and named in err, err


class TestCommandFlags:
    """`--output-dir` belongs to the commands that write into a directory
    and `--seed` to `train`; argparse rejects them elsewhere, and rejects
    every prefix of a flag, whose meaning a new flag could change."""

    @pytest.mark.parametrize("prefix", [["--n-top", "3"], ["--cache-d", "x"]])
    def test_flag_prefix_exits_2(self, prefix, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["train", "--corpus", "c", "--embeddings", "e", *prefix])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["export", "--model", "m", "--output-dir", "x"],
        ["preprocess", "--input", "docs.jsonl", "--seed", "1"],
        ["evaluate", "--model", "m", "--corpus", "c.bin", "--seed", "1"],
        ["export", "--model", "m", "--seed", "1"],
    ])
    def test_flag_a_command_ignores_exits_2(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, key, value", [
        (["preprocess", "--input", "d.jsonl", "--output-dir", "x"], "output_dir", "x"),
        (["train", "--corpus", "c", "--embeddings", "e", "--output-dir", "x"], "output_dir", "x"),
        (["evaluate", "--model", "m", "--corpus", "c", "--output-dir", "x"], "output_dir", "x"),
        (["train", "--corpus", "c", "--embeddings", "e", "--seed", "9"], "seed", 9),
    ])
    def test_flag_a_command_uses_is_accepted(self, argv, key, value):
        args = build_parser().parse_args(argv)
        assert getattr(args, key) == value
        config = _load_run_config(args)
        section = config.train if key == "seed" else config
        assert getattr(section, key) == value


class TestRequiredInputs:
    @pytest.mark.parametrize("argv, message", [
        (["train", "--config", "{tmp}/nope.json"], "config file not found: {tmp}/nope.json"),
        (["preprocess"], "preprocess requires --input"),
        (["train"], "train requires --corpus and --embeddings"),
        (["evaluate", "--model", "{tmp}"], "evaluate requires --corpus"),
        (["evaluate", "--model", "{tmp}", "--corpus", "{tmp}/nope.bin"],
         "input file not found: {tmp}/nope.bin"),
    ], ids=["config-file", "preprocess-input", "train-inputs", "evaluate-corpus",
            "evaluate-corpus-file"])
    def test_missing_input_exits_2_naming_it(self, tmp_path, monkeypatch, capsys, argv, message):
        monkeypatch.chdir(tmp_path)
        assert main([arg.format(tmp=tmp_path) for arg in argv]) == 2
        assert f"error: {message.format(tmp=tmp_path)}\n" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())


# The RunConfig fields each command takes as flags, and the section whose
# every field it takes too; then each command's flags that are no setting.
COMMAND_SETTINGS = {
    "preprocess": (("input", "input_format", "output_dir"), PreprocessConfig),
    "train": (("corpus", "embeddings", "output_dir", "cache_dir", "cache"), TrainConfig),
    "evaluate": (("corpus", "output_dir"), None),
    "export": ((), None),
}
OTHER_FLAGS = {
    "preprocess": {"-h", "--help", "--config", "--verbose"},
    "train": {"-h", "--help", "--config", "--verbose"},
    "evaluate": {"-h", "--help", "--config", "--verbose", "--model"},
    "export": {"-h", "--help", "--config", "--verbose", "--model", "--format", "--output",
               "--top-k"},
}

# Every flag spelling the parser took while each flag was declared by hand,
# with the `dest` and value it parsed to then; `--no-cache` set `no_cache`
# to True, and sets the renamed `cache` to False.
FLAG_SPELLINGS = [
    ("preprocess", ["--input", "d.jsonl"], "input", "d.jsonl"),
    ("preprocess", ["--input-format", "text"], "input_format", "text"),
    ("preprocess", ["--output-dir", "x"], "output_dir", "x"),
    ("preprocess", ["--stopwords", "a.txt", "b.txt"], "stopwords", ["a.txt", "b.txt"]),
    ("preprocess", ["--min-doc-freq", "3"], "min_doc_freq", 3),
    ("preprocess", ["--min-token-length", "2"], "min_token_length", 2),
    ("preprocess", ["--ratio-filter"], "ratio_filter", True),
    ("preprocess", ["--no-ratio-filter"], "ratio_filter", False),
    ("preprocess", ["--ratio-threshold", "0.5"], "ratio_threshold", 0.5),
    ("preprocess", ["--stem"], "stem", True),
    ("preprocess", ["--no-stem"], "stem", False),
    ("train", ["--corpus", "c.bin"], "corpus", "c.bin"),
    ("train", ["--embeddings", "e.txt"], "embeddings", "e.txt"),
    ("train", ["--output-dir", "x"], "output_dir", "x"),
    ("train", ["--seed", "7"], "seed", 7),
    ("train", ["--space", "euclidean"], "space", "euclidean"),
    ("train", ["--alpha", "0.25"], "alpha", 0.25),
    ("train", ["--k-s", "30"], "k_s", 30),
    ("train", ["--k-h", "20"], "k_h", 20),
    ("train", ["--n-topics", "8"], "n_topics", 8),
    ("train", ["--max-depth", "2"], "max_depth", 2),
    ("train", ["--min-docs", "10"], "min_docs", 10),
    ("train", ["--top-terms", "5"], "top_terms", 5),
    ("train", ["--cache-dir", "c"], "cache_dir", "c"),
    ("train", ["--no-cache"], "cache", False),
    ("train", ["--nmf-max-iter", "100"], "nmf_max_iter", 100),
    ("train", ["--nmf-tol", "1e-4"], "nmf_tol", 1e-4),
    ("evaluate", ["--corpus", "c.bin"], "corpus", "c.bin"),
    ("evaluate", ["--output-dir", "x"], "output_dir", "x"),
    ("export", ["--format", "dot"], "format", "dot"),
    ("export", ["--output", "t.dot"], "output", "t.dot"),
    ("export", ["--top-k", "3"], "top_k", 3),
] + [(command, ["--config", "c.json"], "config", "c.json") for command in COMMAND_SETTINGS] + [
    (command, ["--verbose"], "verbose", True) for command in COMMAND_SETTINGS
]

# The benchmark's argument lists, each with what it parses to.
BENCH_ARGV = [
    (["preprocess", "--input", "raw.jsonl", "--output-dir", "prep0"],
     {"input": "raw.jsonl", "output_dir": "prep0"}),
    (["evaluate", "--model", "model0", "--corpus", "c.bin"],
     {"model": "model0", "corpus": "c.bin", "output_dir": None}),
] + [
    (["train", "--corpus", "c.bin", "--embeddings", "e.txt", "--output-dir", "model0",
      "--space", space, "--k-s", str(k), "--k-h", str(k), "--n-topics", str(topics),
      "--max-depth", str(depth), "--min-docs", str(docs), "--alpha", str(alpha), *cache],
     {"corpus": "c.bin", "embeddings": "e.txt", "output_dir": "model0", "space": space,
      "k_s": k, "k_h": k, "n_topics": topics, "max_depth": depth, "min_docs": docs,
      "alpha": alpha, "cache": False if cache == ["--no-cache"] else None,
      "cache_dir": "cache0" if cache != ["--no-cache"] else None})
    for space, k, topics, depth, docs, alpha in (("hyperbolic", 30, 8, 2, 10, 0.1),
                                                 ("hyperbolic", 20, 6, 3, 6, 0.1),
                                                 ("euclidean", 100, 8, 2, 10, 0.5))
    for cache in (["--no-cache"], ["--cache-dir", "cache0"])
]


README = Path(__file__).resolve().parents[1] / "README.md"


def subparser(command):
    action = next(a for a in build_parser()._actions
                  if isinstance(a, argparse._SubParsersAction))
    return action.choices[command]


class TestDerivedFlags:
    """Each setting's flag comes from its dataclass field, so a new field
    needs no parser edit."""

    @pytest.mark.parametrize("command", sorted(COMMAND_SETTINGS))
    def test_setting_flags_are_the_fields_a_command_takes(self, command):
        names, section = COMMAND_SETTINGS[command]
        taken = [f for f in fields(RunConfig) if f.name in names]
        taken += fields(section) if section else []
        expected = {flag: "" for flag in OTHER_FLAGS[command]}
        for f in taken:
            flag = f.name.replace("_", "-")
            expected["--" + flag] = f.name
            if f.type == "bool":
                expected["--no-" + flag] = f.name
        actions = subparser(command)._actions
        flags = {s: a.dest for a in actions for s in a.option_strings}
        assert flags.keys() == expected.keys()
        assert all(flags[s] == dest for s, dest in expected.items() if dest)

    def test_readme_lists_the_fields_of_each_settings_class(self):
        text = " ".join(README.read_text(encoding="utf-8").split())
        match = re.search(r"The fields are those of the run's own `cli\.RunConfig` \(([^)]*)\), "
                          r"the library's `PreprocessConfig` \(([^)]*)\) "
                          r"or its `TrainConfig` \(([^)]*)\)", text)
        assert match, "README lost the sentence that lists the setting fields"
        for listed, cls in zip(match.groups(), (RunConfig, PreprocessConfig, TrainConfig)):
            assert re.fullmatch(r"`\w+`(, `\w+`)*", listed), listed
            names = [f.name for f in fields(cls) if f.name not in ("preprocess", "train")]
            assert sorted(re.findall(r"`(\w+)`", listed)) == sorted(names), cls.__name__

    @pytest.mark.parametrize("command", sorted(COMMAND_SETTINGS))
    def test_help_exits_0(self, command):
        proc = subprocess.run([sys.executable, "-m", "hyhtm.cli", command, "--help"],
                              env=child_env(), capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith(f"usage: hyhtm {command} ")

    @pytest.mark.parametrize("command, flags, dest, value", FLAG_SPELLINGS,
                             ids=[f"{c}{f[0]}" for c, f, _, _ in FLAG_SPELLINGS])
    def test_every_earlier_flag_spelling_parses_as_before(self, command, flags, dest, value):
        model = ["--model", "m"] if command in ("evaluate", "export") else []
        args = build_parser().parse_args([command, *model, *flags])
        assert getattr(args, dest) == value
        assert type(getattr(args, dest)) is type(value)

    @pytest.mark.parametrize("argv, parsed", BENCH_ARGV,
                             ids=[f"{a[0]}{i}" for i, (a, _) in enumerate(BENCH_ARGV)])
    def test_bench_argument_lists_parse_as_before(self, argv, parsed):
        args = vars(build_parser().parse_args(argv))
        assert {key: args[key] for key in parsed} == parsed
