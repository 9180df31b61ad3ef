"""Command-line pipeline: preprocess, train, evaluate, export.

Exit codes: 0 success, 2 user or input error, 3 data-contract error,
4 degenerate-corpus stop. Every command is deterministic given its config,
inputs, and seed; `train` reruns reproduce tree.json byte for byte. The
matrix cache is keyed by content hashes of the inputs plus hyperparameters
and can be redirected with the HYHTM_CACHE_DIR environment variable.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import os
import sys
import time
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from . import corpus as corpus_mod
from . import hierarchy as hierarchy_mod
from . import hypspace, metrics, sparse_io
from .errors import (
    ConfigurationError,
    ContractError,
    CorpusError,
    DegenerateCorpusError,
    EmbeddingParseError,
    HyhtmError,
)

log = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_CONTRACT = 3
EXIT_DEGENERATE = 4

CACHE_ENV_VAR = "HYHTM_CACHE_DIR"

# Errors that exit EXIT_INPUT; every other package error but a degenerate
# corpus (shapes, contracts, invariants) exits EXIT_CONTRACT.
_INPUT_ERRORS = (ConfigurationError, CorpusError, EmbeddingParseError, OSError)


@dataclass
class RunConfig:
    """Flat run configuration; JSON config files use these exact keys."""

    input: str | None = None
    input_format: str = "auto"
    corpus: str | None = None
    embeddings: str | None = None
    space: str = hypspace.HYPERBOLIC
    alpha: float = 0.1
    k_s: int = 500
    k_h: int = 500
    n_topics: int = 10
    max_depth: int = 3
    min_docs: int = 50
    seed: int = 42
    top_terms: int = 10
    output_dir: str = "."
    cache_dir: str | None = None
    no_cache: bool = False
    write_factors: bool = True
    stopwords: list[str] | None = None
    min_doc_freq: int = 5
    min_token_length: int = 1
    ratio_filter: bool = False
    ratio_threshold: float = 0.8
    stem: bool = False
    nmf_max_iter: int = 300
    nmf_tol: float = 1e-5

    def preprocess_config(self) -> corpus_mod.PreprocessConfig:
        cfg = corpus_mod.PreprocessConfig(
            stopword_lists=tuple(self.stopwords) if self.stopwords else None,
            min_doc_freq=self.min_doc_freq,
            min_token_length=self.min_token_length,
            ratio_filter_enabled=self.ratio_filter,
            ratio_threshold=self.ratio_threshold,
            stemmer_enabled=self.stem,
        )
        cfg.validate()
        return cfg

    def train_config(self) -> hierarchy_mod.TrainConfig:
        cfg = hierarchy_mod.TrainConfig(
            n_topics=self.n_topics,
            max_depth=self.max_depth,
            min_docs=self.min_docs,
            alpha=self.alpha,
            k_s=self.k_s,
            k_h=self.k_h,
            seed=self.seed,
            space=self.space,
            top_terms=self.top_terms,
            nmf_max_iter=self.nmf_max_iter,
            nmf_tol=self.nmf_tol,
        )
        cfg.validate()
        return cfg


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_float(value) -> bool:
    """A float, or an int small enough to convert to one."""
    return isinstance(value, float) or _is_int(value) and abs(value) <= sys.float_info.max


# The JSON values a config-file key takes, by the base type of its RunConfig
# field; a field annotated `... | None` also takes null.
_VALUE_CHECKS = {
    "str": lambda v: isinstance(v, str),
    "int": _is_int,
    "float": _is_float,
    "bool": lambda v: isinstance(v, bool),
    "list[str]": lambda v: isinstance(v, list) and all(isinstance(x, str) for x in v),
}


def _read_json(path: Path, error: type[HyhtmError]):
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise error(
            f"{path}: invalid JSON at line {exc.lineno} column {exc.colno} ({exc.msg})"
        ) from None
    except UnicodeDecodeError as exc:
        raise error(f"{path}: not UTF-8 text at byte {exc.start}") from None


def _load_run_config(args: argparse.Namespace) -> RunConfig:
    """Layer dataclass defaults, then the JSON config file, then CLI flags."""
    merged = asdict(RunConfig())
    if getattr(args, "config", None):
        path = Path(args.config)
        if not path.exists():
            raise ConfigurationError(f"config file not found: {path}")
        file_values = _read_json(path, ConfigurationError)
        if not isinstance(file_values, dict):
            raise ConfigurationError(f"{path}: a config file must hold a JSON object")
        unknown = set(file_values) - set(merged)
        if unknown:
            raise ConfigurationError(f"{path}: unknown config keys: {sorted(unknown)}")
        for f in (f for f in fields(RunConfig) if f.name in file_values):
            value, (base, _, optional) = file_values[f.name], f.type.partition(" | ")
            if not (value is None and optional or _VALUE_CHECKS[base](value)):
                raise ConfigurationError(f"{path}: config key {f.name!r} must be {f.type}")
        merged.update(file_values)
    for f in fields(RunConfig):
        value = getattr(args, f.name, None)
        if value is not None:
            merged[f.name] = value
    return RunConfig(**merged)


def _resolve_cache_dir(config: RunConfig) -> Path | None:
    if config.no_cache:
        return None
    env = os.environ.get(CACHE_ENV_VAR)
    if env:
        return Path(env)
    if config.cache_dir:
        return Path(config.cache_dir)
    return Path(config.output_dir) / "cache"


def _dump_json(payload: dict, path: Path):
    path.write_text(
        json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n",
        encoding="utf-8",
    )


def cmd_preprocess(config: RunConfig) -> int:
    if not config.input:
        raise ConfigurationError("preprocess requires --input")
    path = Path(config.input)
    if not path.exists():
        raise CorpusError(f"input file not found: {path}")
    pre_cfg = config.preprocess_config()

    fmt = config.input_format
    if fmt == "auto":
        fmt = "jsonl" if path.suffix in (".jsonl", ".json") else "text"
    if fmt == "jsonl":
        raw = corpus_mod.read_jsonl_documents(path)
    elif fmt == "text":
        raw = corpus_mod.read_text_documents(path)
    else:
        raise ConfigurationError(f"unknown input format {fmt!r}")
    if not raw:
        raise CorpusError(f"{path}: no documents")

    built = corpus_mod.preprocess(raw, pre_cfg)
    out_dir = Path(config.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    corpus_mod.write_corpus(built, out_dir / "corpus.bin")
    (out_dir / "vocab.txt").write_text(
        "".join(t + "\n" for t in built.vocabulary.terms), encoding="utf-8"
    )
    print(
        f"docs={built.n_docs} vocab={len(built.vocabulary)} "
        f"avg_len={built.mean_doc_length():.2f}"
    )
    return EXIT_OK


def _load_or_build_matrices(config: RunConfig, built: corpus_mod.Corpus):
    """The three heavy artifacts, from cache when possible: the similarity
    matrix, the hierarchy matrix, and the enriched document representation.

    Cache hits are numpy CSR arrays and only a build loads scipy, so a
    train whose three matrices all hit the cache runs without it. The
    cache status of each artifact is `hit`, `miss` (no file), `rebuilt`
    (a damaged file, logged and replaced) or `off` (no cache).
    """
    m = len(built.vocabulary)
    corpus_sha = sparse_io.file_sha256(config.corpus)
    emb_sha = sparse_io.file_sha256(config.embeddings)
    cache_dir = _resolve_cache_dir(config)
    cache = sparse_io.MatrixCache(cache_dir) if cache_dir else None
    status = {}

    def load(kind, key, shape):
        if cache is None:
            status[kind] = "off"
            return None
        existed = cache.has(key)
        matrix = cache.load(key, shape)
        status[kind] = "hit" if matrix is not None else "rebuilt" if existed else "miss"
        return matrix

    sim_key = sparse_io.cache_key(
        "similarity", corpus=corpus_sha, embeddings=emb_sha,
        space=config.space, alpha=config.alpha, k_s=config.k_s,
    )
    hier_key = sparse_io.cache_key(
        "hierarchy", corpus=corpus_sha, embeddings=emb_sha,
        space=config.space, k_h=config.k_h,
    )
    repr_key = sparse_io.cache_key(
        "representation", corpus=corpus_sha, embeddings=emb_sha,
        space=config.space, alpha=config.alpha, k_s=config.k_s,
    )

    sim = load("similarity", sim_key, (m, m))
    hier = load("hierarchy", hier_key, (m, m))
    a0 = load("representation", repr_key, (built.n_docs, m))

    coverage = None
    if sim is None or hier is None or a0 is None:
        table = hypspace.load_embeddings(config.embeddings, built.vocabulary, config.space)
        coverage = table.coverage
        if not table.covered:
            raise ContractError("no vocabulary term has an embedding vector")
        if sim is None and hier is None:  # one kNN pass: the narrower build slices it
            hypspace._neighbor_table(table, max(config.k_s, config.k_h))
        if sim is None:
            sim = hypspace.build_similarity_matrix(table, config.k_s, config.alpha).entries
            if cache:
                cache.save(sim_key, sim)
        if hier is None:
            hier = hypspace.build_hierarchy_matrix(table, config.k_h).entries
            if cache:
                cache.save(hier_key, hier)
        if a0 is None:
            tf = corpus_mod.build_tf(built)
            idf = corpus_mod.compute_idf(tf, sim)
            a0 = corpus_mod.build_document_representation(tf, sim, idf).values
            if cache:
                cache.save(repr_key, a0)
    doc_ids = [d.id for d in built.documents]
    rep = corpus_mod.DocTermRepresentation(values=a0, doc_ids=doc_ids)
    hashes = {"corpus_sha256": corpus_sha, "embeddings_sha256": emb_sha}
    return rep, hier, hashes, coverage, status


def cmd_train(config: RunConfig) -> int:
    if not config.corpus or not config.embeddings:
        raise ConfigurationError("train requires --corpus and --embeddings")
    for path in (config.corpus, config.embeddings):
        if not Path(path).exists():
            raise CorpusError(f"input file not found: {path}")
    train_cfg = config.train_config()

    t_start = time.perf_counter()
    built = corpus_mod.read_corpus(config.corpus)
    rep, hier, hashes, coverage, cache_status = _load_or_build_matrices(config, built)
    t_matrices = time.perf_counter()

    tree = hierarchy_mod.build_hierarchy(rep, hier, train_cfg)
    t_tree = time.perf_counter()
    if not tree.roots:
        diagnostic = tree.provenance.get("diagnostic", "no topics were produced")
        raise DegenerateCorpusError(diagnostic)

    out_dir = Path(config.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    vocab_blob = "".join(t + "\n" for t in built.vocabulary.terms).encode("utf-8")
    payload = hierarchy_mod.tree_to_payload(tree, built.vocabulary.terms)
    payload["config"]["vocab_size"] = len(built.vocabulary)
    payload["config"]["vocab_sha256"] = sparse_io.bytes_sha256(vocab_blob)
    _dump_json(payload, out_dir / "tree.json")

    if config.write_factors:
        factors_dir = out_dir / "factors"
        factors_dir.mkdir(exist_ok=True)
        for node in tree.nodes():
            if node.term_weights is not None:
                node.term_weights.astype("<f8").tofile(
                    factors_dir / f"level{node.level}-node{node.node_id}.bin"
                )

    provenance = dict(tree.provenance)
    provenance.update(hashes)
    provenance["space"] = config.space
    provenance["embedding_coverage"] = coverage
    provenance["cache"] = cache_status
    provenance["tree_sha256"] = sparse_io.file_sha256(out_dir / "tree.json")
    provenance["timings"] = {
        "matrices_s": t_matrices - t_start,
        "hierarchy_s": t_tree - t_matrices,
        "total_s": time.perf_counter() - t_start,
    }
    (out_dir / "provenance.json").write_text(
        json.dumps(provenance, sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )
    print(f"nodes={tree.n_nodes} depth={tree.depth} output={out_dir}")
    return EXIT_OK


def _read_tree_payload(model_dir: Path) -> dict:
    tree_path = model_dir / "tree.json"
    if not tree_path.exists():
        raise CorpusError(f"model file not found: {tree_path}")
    payload = _read_json(tree_path, ContractError)
    _check_tree_payload(payload, tree_path)
    return payload


def _is_term_entry(item) -> bool:
    return isinstance(item, dict) and isinstance(item.get("term"), str) and (
        _is_float(item.get("weight")) and math.isfinite(item["weight"])
    )


def _check_tree_payload(payload, path: Path):
    """The tree.json contract that evaluate and export rely on: unique
    string ids, int levels >= 1, finite term weights, and every node above
    level 1 listed as a child by exactly one node one level up, which rules
    out cycles."""

    def fail(where, what):
        raise ContractError(f"{path}: {where}: {what}")

    if not (isinstance(payload, dict) and isinstance(payload.get("nodes"), list)):
        fail("top level", "expected an object with a 'nodes' list")
    config = payload.get("config", {})
    if not (isinstance(config, dict) and _is_int(config.get("vocab_size", 0))):
        fail("config", "expected an object whose 'vocab_size', if any, is an int")
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
            if not _VALUE_CHECKS["list[str]"](node.get(key)):
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


def _attach_factors(tree: hierarchy_mod.TopicTree, model_dir: Path, m: int):
    factors_dir = model_dir / "factors"
    if not factors_dir.is_dir():
        return
    for node in tree.nodes():
        path = factors_dir / f"level{node.level}-node{node.node_id}.bin"
        if path.exists():
            weights = np.fromfile(path, dtype="<f8")
            if weights.shape[0] != m:
                raise ContractError(
                    f"{path}: {weights.shape[0]} weights for a vocabulary of {m}"
                )
            node.term_weights = weights


def cmd_evaluate(config: RunConfig, model_dir: str) -> int:
    if not config.corpus:
        raise ConfigurationError("evaluate requires --corpus")
    if not Path(config.corpus).exists():
        raise CorpusError(f"input file not found: {config.corpus}")
    model = Path(model_dir)
    payload = _read_tree_payload(model)
    built = corpus_mod.read_corpus(config.corpus)
    tree = hierarchy_mod.tree_from_payload(payload, built.vocabulary)
    _attach_factors(tree, model, len(built.vocabulary))

    report = metrics.evaluate(tree, built)
    out_dir = Path(config.output_dir) if config.output_dir != "." else model
    out_dir.mkdir(parents=True, exist_ok=True)
    _dump_json(report.to_dict(), out_dir / "report.json")
    report.write_csv(out_dir / "report.csv")
    mean_coh = report.summary["mean_coherence"]
    print(
        f"topics={report.summary['n_topics']} edges={report.summary['n_edges']} "
        f"mean_coherence={'absent' if mean_coh is None else format(mean_coh, '.4f')}"
    )
    return EXIT_OK


def cmd_export(config: RunConfig, model_dir: str, fmt: str, output: str | None, top_k: int) -> int:
    model = Path(model_dir)
    payload = _read_tree_payload(model)
    if fmt == "dot":
        lines = ["digraph topics {", '  node [shape=box];']
        for node in payload["nodes"]:
            words = " ".join(t["term"] for t in node["top_terms"][:top_k])
            label = words.replace("\\", "\\\\").replace('"', '\\"')
            lines.append(f'  "{node["id"]}" [label="{label}"];')
        for node in payload["nodes"]:
            for child in node["children"]:
                lines.append(f'  "{node["id"]}" -> "{child}";')
        lines.append("}")
        text = "\n".join(lines) + "\n"
        out_path = Path(output) if output else model / "tree.dot"
        out_path.write_text(text, encoding="utf-8")
    elif fmt == "json":
        for node in payload["nodes"]:
            node["top_terms"] = node["top_terms"][:top_k]
        out_path = Path(output) if output else model / "tree.export.json"
        _dump_json(payload, out_path)
    else:
        raise ConfigurationError(f"unknown export format {fmt!r}")
    print(f"wrote {out_path}")
    return EXIT_OK


def _add_common(parser: argparse.ArgumentParser):
    parser.add_argument("--config", help="JSON config file with RunConfig keys")
    parser.add_argument("--output-dir", dest="output_dir")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--verbose", action="store_true", default=False)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="hyhtm", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("preprocess", help="tokenize a corpus and build its vocabulary")
    _add_common(p)
    p.add_argument("--input")
    p.add_argument("--input-format", dest="input_format", choices=("auto", "jsonl", "text"))
    p.add_argument("--stopwords", nargs="+")
    p.add_argument("--min-doc-freq", dest="min_doc_freq", type=int)
    p.add_argument("--min-token-length", dest="min_token_length", type=int)
    p.add_argument("--ratio-filter", dest="ratio_filter",
                   action=argparse.BooleanOptionalAction, default=None)
    p.add_argument("--ratio-threshold", dest="ratio_threshold", type=float)
    p.add_argument("--stem", action=argparse.BooleanOptionalAction, default=None)

    p = sub.add_parser("train", help="build a topic tree from a corpus and embeddings")
    _add_common(p)
    p.add_argument("--corpus")
    p.add_argument("--embeddings")
    p.add_argument("--space", choices=hypspace.SPACES)
    p.add_argument("--alpha", type=float)
    p.add_argument("--k-s", dest="k_s", type=int)
    p.add_argument("--k-h", dest="k_h", type=int)
    p.add_argument("--n-topics", dest="n_topics", type=int)
    p.add_argument("--max-depth", dest="max_depth", type=int)
    p.add_argument("--min-docs", dest="min_docs", type=int)
    p.add_argument("--top-terms", dest="top_terms", type=int)
    p.add_argument("--cache-dir", dest="cache_dir")
    p.add_argument("--no-cache", dest="no_cache", action="store_true", default=None)
    p.add_argument("--write-factors", dest="write_factors",
                   action=argparse.BooleanOptionalAction, default=None)
    p.add_argument("--nmf-max-iter", dest="nmf_max_iter", type=int)
    p.add_argument("--nmf-tol", dest="nmf_tol", type=float)

    p = sub.add_parser("evaluate", help="score a trained tree against its corpus")
    _add_common(p)
    p.add_argument("--model", required=True)
    p.add_argument("--corpus")

    p = sub.add_parser("export", help="emit a tree as DOT or truncated JSON")
    _add_common(p)
    p.add_argument("--model", required=True)
    p.add_argument("--format", choices=("json", "dot"), default="json")
    p.add_argument("--output")
    p.add_argument("--top-k", dest="top_k", type=int, default=10)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
        stream=sys.stderr,
    )
    try:
        config = _load_run_config(args)
        if args.command == "preprocess":
            return cmd_preprocess(config)
        if args.command == "train":
            return cmd_train(config)
        if args.command == "evaluate":
            return cmd_evaluate(config, args.model)
        if args.command == "export":
            return cmd_export(config, args.model, args.format, args.output, args.top_k)
        raise ConfigurationError(f"unknown command {args.command!r}")
    except (HyhtmError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, DegenerateCorpusError):
            return EXIT_DEGENERATE
        return EXIT_INPUT if isinstance(exc, _INPUT_ERRORS) else EXIT_CONTRACT


def entrypoint():
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
