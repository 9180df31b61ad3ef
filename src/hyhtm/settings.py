"""Training settings and the tree.json contract, without numpy.

The command line reads these to parse flags and config files and to check
a model before exporting it, so `preprocess` and `export` start without
loading numpy. `hierarchy` and `hypspace` import the names back.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .errors import ConfigurationError, ContractError

HYPERBOLIC = "hyperbolic"
EUCLIDEAN = "euclidean"
SPACES = (HYPERBOLIC, EUCLIDEAN)
# Deepest tree `train` builds. At this depth the longest factor file name,
# level32-node<32 topic numbers joined by dots>.bin, stays under the usual
# 255-byte limit for any n_topics below 10**6, and the recursion stays far
# from Python's limit.
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
    space: str = "hyperbolic"
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
