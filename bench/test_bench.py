"""Tests of the benchmark itself: the generator, span arithmetic, and a
tiny-size smoke run of every workload in both modes."""

import dataclasses
import itertools
import json
import sys
import types
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import plantgen  # noqa: E402
import run  # noqa: E402
from tracing import Span, Tracer, self_time  # noqa: E402

from hyhtm import corpus  # noqa: E402

TINY = plantgen.PlantSpec(roots=3, subs=2, docs_per_sub=20, root_words=6, sub_words=8,
                          dim=5, doc_len=30)


def _embeddings(path):
    lines = path.read_text(encoding="utf-8").splitlines()[1:]
    return {p[0]: np.array([float(x) for x in p[1:]]) for p in (ln.split() for ln in lines)}


def test_generator_is_deterministic(tmp_path):
    first = plantgen.write_inputs(TINY, 7, tmp_path / "a")
    again = plantgen.write_inputs(TINY, 7, tmp_path / "b")
    other = plantgen.write_inputs(TINY, 8, tmp_path / "c")
    for x, y in zip(first, again):
        assert x.read_bytes() == y.read_bytes()
    for x, y in zip(first, other):
        assert x.read_bytes() != y.read_bytes()


def test_every_planted_term_survives_preprocessing(tmp_path):
    corpus_path, emb_path = plantgen.write_inputs(TINY, 3, tmp_path)
    built = corpus.preprocess(corpus.read_jsonl_documents(corpus_path))
    assert built.n_docs == TINY.n_docs
    assert len(built.vocabulary) == TINY.n_terms
    assert sorted(_embeddings(emb_path)) == built.vocabulary.terms


def test_planted_layout(tmp_path):
    _, emb_path = plantgen.write_inputs(TINY, 5, tmp_path)
    vec = _embeddings(emb_path)
    root_norms = [np.linalg.norm(v) for t, v in vec.items() if t.startswith("core")]
    sub_norms = [np.linalg.norm(v) for t, v in vec.items() if t.startswith("leaf")]
    assert max(root_norms) < min(sub_norms) < max(sub_norms) < 1.0

    def cos(a, b):
        return a @ b / (np.linalg.norm(a) * np.linalg.norm(b))

    leaf = vec[plantgen.sub_word(0, 0, 0)]
    same_sector = cos(leaf, vec[plantgen.root_word(0, 0)])
    other_sector = max(cos(leaf, vec[plantgen.root_word(r, 0)]) for r in range(1, TINY.roots))
    assert same_sector > other_sector


def test_generator_refuses_terms_below_doc_freq_floor(tmp_path):
    sparse_spec = dataclasses.replace(TINY, docs_per_sub=2)
    with pytest.raises(ValueError, match="below doc freq"):
        plantgen.write_inputs(sparse_spec, 1, tmp_path)


def test_root_of_reads_generated_ids():
    assert plantgen.root_of("doc-r12-s3-0004") == 12


def test_self_time_subtracts_direct_children_only():
    spans = [
        Span(0, "a", 0.0, 10.0),
        Span(1, "b", 1.0, 4.0, parent=0),
        Span(2, "c", 5.0, 7.5, parent=0),
        Span(3, "d", 2.0, 3.0, parent=1),
    ]
    assert self_time(spans[0], spans) == 4.5  # b and c, not the grandchild d
    assert self_time(spans[1], spans) == 2.0
    assert self_time(spans[3], spans) == 1.0


def test_tracer_records_parents_and_restores_originals():
    def inner(x):
        return x + 1

    def outer(x):
        return mod.inner(x) * 2

    mod = types.SimpleNamespace(inner=inner, outer=outer)
    tracer = Tracer(clock=itertools.count().__next__)
    tracer.wrap(mod, "inner", "m.inner", observe=lambda r, a, k: {"result": r})
    tracer.wrap(mod, "outer", "m.outer")
    assert tracer.run("op", mod.outer, 1) == 4
    tracer.remove()
    assert mod.inner is inner and mod.outer is outer

    op, out, inn = tracer.spans
    assert (op.parent, out.parent, inn.parent) == (None, op.span_id, out.span_id)
    assert {s.trace for s in tracer.spans} == {"op"}
    assert inn.attrs == {"result": 2}
    assert out.start < inn.start < inn.end < out.end
    assert self_time(out, tracer.spans) == out.duration - inn.duration


def _declared(kind):
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[kind]}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_tiny_smoke_run(tmp_path, name, trace):
    workload = dataclasses.replace(run.WORKLOADS[name], spec=dataclasses.replace(TINY, dim=10))
    result = run.run_workload(workload, seed=1, seconds=0, trace=bool(trace),
                              work=tmp_path / "work", setup_reps=1, min_rounds=1)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 3
    declared = _declared("per_layer" if trace else "end_to_end")
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    if trace and workload.cache == "warm":
        assert result["metrics"]["sparse_io.cache_hits"]["value"] == 3
        assert result["metrics"]["hypspace.build_similarity_matrix_s"]["value"] == 0
