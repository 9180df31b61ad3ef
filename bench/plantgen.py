"""Scaled planted concept hierarchy for the benchmark.

The layout follows the test suite's planted fixture, with every size made a
parameter. Each root concept owns a direction in the embedding space. Its
root words sit near the origin along that direction; each of its
subconcepts owns a direction a fixed angle away, and that subconcept's
words cluster farther out along it. A document belongs to one subconcept.
It draws most tokens from its root's words and its own subconcept's words,
leaks one token into each sibling subconcept (so sibling joint document
frequencies stay positive), and now and then picks up a foreign root word.

The same parameters and seed always give byte-identical files.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np

ROOT_RADIUS = 0.45
SUB_RADIUS = 0.75
RADIUS_JITTER = 0.02
SUB_OFFSET = 0.5  # radians between a root direction and its subconcept directions
ROOT_SPREAD = 0.12  # angular jitter of root words around their direction
SUB_SPREAD = 0.06  # angular jitter of subconcept words around theirs
ROOT_SHARE = 0.4  # share of a document's tokens drawn from its root's words
SPILL_PROB = 0.15  # chance of one foreign root word per document
MIN_DOC_FREQ = 5  # the preprocessing default; every planted term must survive it


@dataclass(frozen=True)
class PlantSpec:
    roots: int
    subs: int  # subconcepts per root
    docs_per_sub: int
    root_words: int
    sub_words: int
    dim: int
    doc_len: int

    @property
    def n_terms(self) -> int:
        return self.roots * (self.root_words + self.subs * self.sub_words)

    @property
    def n_docs(self) -> int:
        return self.roots * self.subs * self.docs_per_sub


def root_word(r: int, k: int) -> str:
    return f"core{r}item{k:03d}"


def sub_word(r: int, s: int, k: int) -> str:
    return f"leaf{r}x{s}item{k:03d}"


def root_of(doc_id: str) -> int:
    """Planted root concept of a generated document id."""
    return int(doc_id.split("-")[1][1:])


def _unit(v: np.ndarray) -> np.ndarray:
    return v / np.linalg.norm(v)


def _jittered(rng, direction: np.ndarray, spread: float, radius: float) -> np.ndarray:
    # Gaussian noise of per-axis scale spread/sqrt(dim) tilts the direction
    # by about `spread` radians whatever the dimension.
    noise = rng.normal(0.0, spread / math.sqrt(direction.size), direction.size)
    r = radius + rng.uniform(-RADIUS_JITTER, RADIUS_JITTER)
    return r * _unit(direction + noise)


def _embedding_rows(spec: PlantSpec, rng) -> list[tuple[str, np.ndarray]]:
    rows = []
    for r in range(spec.roots):
        root_dir = _unit(rng.normal(size=spec.dim))
        for k in range(spec.root_words):
            rows.append((root_word(r, k), _jittered(rng, root_dir, ROOT_SPREAD, ROOT_RADIUS)))
        for s in range(spec.subs):
            side = rng.normal(size=spec.dim)
            side = _unit(side - (side @ root_dir) * root_dir)
            sub_dir = math.cos(SUB_OFFSET) * root_dir + math.sin(SUB_OFFSET) * side
            for k in range(spec.sub_words):
                rows.append((sub_word(r, s, k), _jittered(rng, sub_dir, SUB_SPREAD, SUB_RADIUS)))
    return rows


def _stream(rng, n_words: int, count: int) -> np.ndarray:
    # Back-to-back random permutations: every word comes round once per
    # n_words draws, so document frequencies are set by the sizes, not luck.
    rounds = -(-count // n_words)
    return np.concatenate([rng.permutation(n_words) for _ in range(rounds)])[:count]


def _documents(spec: PlantSpec, rng) -> list[tuple[str, list[str]]]:
    n_root = int(round(ROOT_SHARE * spec.doc_len))
    n_sub = spec.doc_len - n_root - (spec.subs - 1)
    if n_sub < 1:
        raise ValueError("doc_len leaves no room for subconcept words")
    docs = []
    for r in range(spec.roots):
        root_stream = _stream(rng, spec.root_words, spec.subs * spec.docs_per_sub * n_root)
        for s in range(spec.subs):
            sub_stream = _stream(rng, spec.sub_words, spec.docs_per_sub * n_sub)
            for j in range(spec.docs_per_sub):
                at = (s * spec.docs_per_sub + j) * n_root
                tokens = [root_word(r, int(k)) for k in root_stream[at : at + n_root]]
                tokens += [sub_word(r, s, int(k)) for k in sub_stream[j * n_sub : (j + 1) * n_sub]]
                for s_other in range(spec.subs):
                    if s_other != s:
                        tokens.append(sub_word(r, s_other, j % spec.sub_words))
                if spec.roots > 1 and rng.random() < SPILL_PROB:
                    r_other = int((r + 1 + rng.integers(0, spec.roots - 1)) % spec.roots)
                    tokens.append(root_word(r_other, int(rng.integers(0, spec.root_words))))
                perm = rng.permutation(len(tokens))
                docs.append((f"doc-r{r}-s{s}-{j:04d}", [tokens[p] for p in perm]))
    return docs


def write_inputs(spec: PlantSpec, seed: int, directory) -> tuple[Path, Path]:
    """Write corpus.jsonl and embeddings.txt under `directory`.

    Raises ValueError if some planted term would fall below the default
    document-frequency floor, so the vocabulary size is always spec.n_terms.
    """
    rng = np.random.default_rng(seed)
    rows = _embedding_rows(spec, rng)
    docs = _documents(spec, rng)

    doc_freq = Counter()
    for _, tokens in docs:
        doc_freq.update(set(tokens))
    rare = sorted(t for t, _ in rows if doc_freq[t] < MIN_DOC_FREQ)
    if rare:
        raise ValueError(f"{len(rare)} planted terms below doc freq {MIN_DOC_FREQ}, e.g. {rare[0]}")

    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    corpus_path = directory / "corpus.jsonl"
    with open(corpus_path, "w", encoding="utf-8") as fh:
        for doc_id, tokens in docs:
            fh.write(json.dumps({"id": doc_id, "text": " ".join(tokens)}) + "\n")
    emb_path = directory / "embeddings.txt"
    with open(emb_path, "w", encoding="utf-8") as fh:
        fh.write(f"{len(rows)} {spec.dim}\n")
        for term, vec in rows:
            fh.write(term + "".join(f" {x:.8f}" for x in vec) + "\n")
    return corpus_path, emb_path
