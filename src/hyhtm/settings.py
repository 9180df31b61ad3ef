"""Training settings and the model directory, without numpy.

The command line parses flags and config files with these, and reads and
writes a model directory (tree.json and factors.bin) only here, so
`preprocess` and `export` start without numpy and `evaluate` without the
tree builder. `hierarchy`, `hypspace`, `metrics` and `nmf` import from it.
"""

from __future__ import annotations

import json
import math
import re
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING

from .errors import ConfigurationError, ContractError, CorpusError, HyhtmError

if TYPE_CHECKING:
    import numpy as np
    from .corpus import Vocabulary

HYPERBOLIC = "hyperbolic"
EUCLIDEAN = "euclidean"
SPACES = (HYPERBOLIC, EUCLIDEAN)
# Deepest tree `train` builds; the recursion stays far from Python's limit.
MAX_DEPTH = 32


@dataclass
class TrainConfig:
    """Hyperparameters for one tree-building run.

    Defaults follow the best-performing configuration for mid-size corpora:
    threshold 0.1 with 500-term neighborhoods, 10 topics per node, 3 levels.
    """

    n_topics: int = 10
    max_depth: int = 3
    min_docs: int = 50
    alpha: float = 0.1
    k_s: int = 500
    k_h: int = 500
    seed: int = 42
    space: str = HYPERBOLIC
    top_terms: int = 10
    nmf_max_iter: int = 300
    nmf_tol: float = 1e-5

    def validate(self):
        if self.n_topics < 2:
            raise ConfigurationError("n_topics must be >= 2")
        if not 1 <= self.max_depth <= MAX_DEPTH:
            raise ConfigurationError(
                f"max_depth must be in [1, {MAX_DEPTH}], got {self.max_depth}"
            )
        if self.min_docs < self.n_topics:
            raise ConfigurationError("min_docs must be >= n_topics")
        if self.top_terms < 1:
            raise ConfigurationError("top_terms must be >= 1")
        if not 0.0 <= self.alpha <= 1.0:
            raise ConfigurationError("alpha must be in [0, 1]")
        if self.k_s < 1 or self.k_h < 1:
            raise ConfigurationError("k_s and k_h must be >= 1")
        if self.space not in SPACES:
            raise ConfigurationError(f"unknown space {self.space!r}")
        if self.nmf_max_iter < 1:
            raise ConfigurationError("nmf_max_iter must be >= 1")
        if not 0 < self.nmf_tol < float("inf"):
            raise ConfigurationError(f"nmf_tol must be finite and > 0, got {self.nmf_tol}")
        if self.seed < 0:
            raise ConfigurationError("seed must be >= 0")


@dataclass
class TopicNode:
    """One topic: its term weights, ranked terms, documents, and children."""

    node_id: str
    level: int
    term_weights: np.ndarray | None
    top_terms: list[tuple[int, float]]
    doc_ids: list[str]
    children: list["TopicNode"] = field(default_factory=list)


@dataclass
class TopicTree:
    roots: list[TopicNode]
    config: dict
    provenance: dict

    def nodes(self):
        """All nodes in depth-first preorder."""
        stack = list(reversed(self.roots))
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children))

    def nodes_at_level(self, level: int) -> list[TopicNode]:
        return [n for n in self.nodes() if n.level == level]

    @property
    def n_nodes(self) -> int:
        return sum(1 for _ in self.nodes())

    @property
    def depth(self) -> int:
        return max((n.level for n in self.nodes()), default=0)


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_float(value) -> bool:
    """A float, or an int small enough to convert to one."""
    return isinstance(value, float) or _is_int(value) and abs(value) <= sys.float_info.max


def _is_str_list(value) -> bool:
    return isinstance(value, list) and all(isinstance(x, str) for x in value)


def _is_term_entry(item) -> bool:
    return isinstance(item, dict) and isinstance(item.get("term"), str) and (
        _is_float(item.get("weight")) and math.isfinite(item["weight"])
    )


def check_tree_payload(payload) -> dict:
    """`payload` once it meets the contract that `tree_from_payload` relies
    on: a config whose `vocab_size`, if any, is an int and `vocab_sha256`,
    if any, a string; unique string ids, int levels >= 1, finite term
    weights, and every node above level 1 listed as a child by exactly one
    node one level up, which rules out cycles. A violation raises
    ContractError naming the config or the node."""

    def fail(where, what):
        raise ContractError(f"{where}: {what}")

    if not (isinstance(payload, dict) and isinstance(payload.get("nodes"), list)):
        fail("top level", "expected an object with a 'nodes' list")
    config = payload.get("config", {})
    if not (isinstance(config, dict) and _is_int(config.get("vocab_size", 0))):
        fail("config", "expected an object whose 'vocab_size', if any, is an int")
    if not isinstance(config.get("vocab_sha256", ""), str):
        fail("config", "'vocab_sha256', if any, must be a string")
    nodes = {}
    for pos, node in enumerate(payload["nodes"]):
        if not (isinstance(node, dict) and isinstance(node.get("id"), str)):
            fail(f"node {pos}", "expected an object with a string 'id'")
        where = f"node {node['id']!r}"
        if node["id"] in nodes:
            fail(where, "duplicate id")
        if not (_is_int(node.get("level")) and node["level"] >= 1):
            fail(where, "'level' must be an int >= 1")
        if not (isinstance(node.get("top_terms"), list)
                and all(map(_is_term_entry, node["top_terms"]))):
            fail(where, "'top_terms' must be a list of {term: string, weight: finite number}")
        for key in ("doc_ids", "children"):
            if not _is_str_list(node.get(key)):
                fail(where, f"{key!r} must be a list of strings")
        nodes[node["id"]] = node
    parent_of = {}
    for node_id, node in nodes.items():
        for child in node["children"]:
            if nodes.get(child, {}).get("level") != node["level"] + 1:
                fail(f"node {node_id!r}", f"child {child!r} is missing or not one level below")
            if child in parent_of:
                fail(f"node {child!r}", f"has two parents, {parent_of[child]!r} and {node_id!r}")
            parent_of[child] = node_id
    for node_id, node in nodes.items():
        if node["level"] > 1 and node_id not in parent_of:
            fail(f"node {node_id!r}", f"at level {node['level']} has no parent")
    return payload


def tree_to_payload(tree: TopicTree, vocabulary: Vocabulary) -> dict:
    """The serializable tree: config, with the size and digest of the
    vocabulary its term indices refer to, and a flat preorder node list."""
    nodes = [
        {"id": node.node_id, "level": node.level,
         "top_terms": [{"term": vocabulary.terms[j], "weight": w} for j, w in node.top_terms],
         "doc_ids": list(node.doc_ids), "children": [c.node_id for c in node.children]}
        for node in tree.nodes()
    ]
    config = {**tree.config, "vocab_size": len(vocabulary), "vocab_sha256": vocabulary.sha256()}
    return {"config": config, "nodes": nodes}


def tree_from_payload(payload: dict, vocabulary: Vocabulary, corpus="the corpus") -> TopicTree:
    """A TopicTree over `vocabulary`, that of `corpus`, from a payload that
    passes `check_tree_payload`, without term weights. A term outside the
    vocabulary, another vocabulary's `vocab_sha256`, or a node id that is
    not one topic number per level joined by dots (`0`, `0.3`) is a
    ContractError."""
    check_tree_payload(payload)
    by_id: dict[str, TopicNode] = {}
    for entry in payload["nodes"]:
        top_terms = []
        for item in entry["top_terms"]:
            idx = vocabulary.index.get(item["term"])
            if idx is None:
                raise ContractError(f"tree term {item['term']!r} is not in the corpus vocabulary")
            top_terms.append((idx, float(item["weight"])))
        by_id[entry["id"]] = TopicNode(node_id=entry["id"], level=entry["level"], term_weights=None,
                                       top_terms=top_terms, doc_ids=list(entry["doc_ids"]))
    config = dict(payload.get("config", {}))
    digest = config.get("vocab_sha256")
    if digest is not None and digest != vocabulary.sha256():
        # Factor weights are read by term position, so another order of the
        # same terms would be scored without any other error.
        raise ContractError(f"vocab_sha256 is not the digest of the vocabulary of {corpus}; "
                            "the model was trained on another vocabulary")
    for entry in payload["nodes"]:
        # Ids are outside input, named in reports: hold them to train's form.
        numbers, level = entry["id"].split("."), entry["level"]
        if not (len(numbers) == level and all(n.isascii() and n.isdigit() for n in numbers)):
            raise ContractError(f"node {entry['id']!r}: a level-{level} id must be "
                                f"{level} topic numbers joined by dots")
        by_id[entry["id"]].children = [by_id[child] for child in entry["children"]]
    roots = [node for node in by_id.values() if node.level == 1]
    return TopicTree(roots=roots, config=config, provenance={})


def read_json(path: Path, error: type[HyhtmError]):
    """The JSON document in `path`. Text that is not UTF-8 JSON, nests past
    the parser's recursion limit, or holds a lone surrogate escape,
    which no UTF-8 output or file name can hold, raises `error`."""
    try:
        text = path.read_text(encoding="utf-8-sig")
        value = json.loads(text)
    except json.JSONDecodeError as exc:
        where = f"line {exc.lineno} column {exc.colno}"
        raise error(f"{path}: invalid JSON at {where} ({exc.msg})") from None
    except UnicodeDecodeError as exc:
        raise error(f"{path}: not UTF-8 text at byte {exc.start}") from None
    except (ValueError, RecursionError) as exc:  # past Python's digit or recursion limit
        raise error(f"{path}: invalid JSON ({exc})") from None
    if re.search(r"\\u[dD][89a-fA-F]", text):  # \ud800-\udfff; encoding costs more than parsing
        try:
            json.dumps(value, ensure_ascii=False).encode("utf-8")
        except UnicodeEncodeError:
            raise error(f"{path}: a JSON string holds a lone surrogate escape") from None
    return value


def dump_json(payload: dict, path: Path):
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    path.write_text(text + "\n", encoding="utf-8")


def write_model(model_dir: Path, tree: TopicTree, vocabulary: Vocabulary) -> Path:
    """Write tree.json and factors.bin into `model_dir`: each node's m term
    weights as little-endian float64, nodes in tree.json's order, nothing
    else. Return the tree.json path. An earlier model's factors, provenance,
    reports and exports go first, so a run cut short leaves none of them
    beside the new tree, and `read_model` rejects it until factors.bin is whole."""
    model_dir.mkdir(parents=True, exist_ok=True)
    # provenance.json is train's last write; report.* evaluate's default
    # output, tree.dot and tree.export.json export's.
    for name in ("factors.bin", "provenance.json", "report.json", "report.csv",
                 "tree.dot", "tree.export.json"):
        (model_dir / name).unlink(missing_ok=True)
    dump_json(tree_to_payload(tree, vocabulary), model_dir / "tree.json")
    with open(model_dir / "factors.bin", "wb") as fh:
        for node in tree.nodes():
            node.term_weights.astype("<f8").tofile(fh)
    return model_dir / "tree.json"


def read_payload(model_dir: Path, read=check_tree_payload):
    """`read` applied to a model directory's tree.json payload, by default
    `check_tree_payload`; a contract error from either names the file."""
    tree_path = model_dir / "tree.json"
    if not tree_path.exists():
        raise CorpusError(f"model file not found: {tree_path}")
    payload = read_json(tree_path, ContractError)
    try:
        return read(payload)
    except ContractError as exc:
        raise ContractError(f"{tree_path}: {exc}") from None


def read_model(model_dir: Path, vocabulary: Vocabulary, corpus: str) -> TopicTree:
    """The tree of a model directory over `vocabulary`, that of the corpus
    file `corpus`, with the term weights of its factors.bin: m little-endian
    float64 weights per node in tree.json's node order, each finite and
    nonnegative, with a finite sum of squares per node; otherwise, or when
    factors.bin is missing, a ContractError names the file."""
    import numpy as np

    tree, ids = read_payload(model_dir, lambda payload: (
        tree_from_payload(payload, vocabulary, corpus), [entry["id"] for entry in payload["nodes"]]
    ))
    path = model_dir / "factors.bin"
    if not path.exists():
        raise ContractError(f"{path}: missing; retrain the model to write it with tree.json")
    m, size = len(vocabulary), path.stat().st_size
    if size != 8 * len(ids) * m:
        raise ContractError(f"{path}: {size} bytes; {len(ids)} nodes x {m} terms take "
                            f"{8 * len(ids) * m}, 8 per weight")
    nodes = {node.node_id: node for node in tree.nodes()}
    for node_id, row in zip(ids, np.fromfile(path, dtype="<f8").reshape(len(ids), m)):
        bad = np.flatnonzero(~(np.isfinite(row) & (row >= 0)))
        if bad.size:
            raise ContractError(f"{path}: node {node_id!r}: weight {bad[0]} is {row[bad[0]]}; "
                                "weights must be finite and nonnegative")
        with np.errstate(over="ignore"):
            overflows = not np.isfinite(row @ row)  # as metrics._specialization computes it
        if overflows:
            raise ContractError(f"{path}: node {node_id!r}: weights too large, "
                                "their sum of squares overflows")
        nodes[node_id].term_weights = row
    return tree
