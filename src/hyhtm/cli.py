"""Command-line pipeline: preprocess, train, evaluate, export.

Exit codes: 0 success, 2 user or input error, 3 data-contract error,
4 degenerate-corpus stop. Every command is deterministic given its config,
inputs, and seed; `train` reruns reproduce tree.json byte for byte. The
matrix cache is keyed by content hashes of the inputs plus hyperparameters.
Each setting is a field of `RunConfig` or of one of its two sections, read
from the field's default, then the JSON config file (`--config`), then its
flag: the field's name with dashes, and `--x/--no-x` for a boolean.

Only `train` and `evaluate` load numpy and the modules built on it, when
they run; `preprocess` and `export` load neither numpy nor scipy.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
import time
from dataclasses import dataclass, field, fields
from pathlib import Path

from . import corpus as corpus_mod
from . import settings
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

# Errors that exit EXIT_INPUT; every other package error but a degenerate
# corpus (shapes, contracts, invariants) exits EXIT_CONTRACT.
_INPUT_ERRORS = (ConfigurationError, CorpusError, EmbeddingParseError, OSError)


@dataclass
class RunConfig:
    """A run's own settings plus the library's preprocessing and training
    settings; JSON config files use every field of all three as a flat key.
    An `output_dir` of None means none was given: `preprocess` and `train`
    then write into the working directory and `evaluate` into the model
    directory."""

    input: str | None = None
    input_format: str = "auto"
    corpus: str | None = None
    embeddings: str | None = None
    output_dir: str | None = None
    cache_dir: str | None = None
    cache: bool = True
    preprocess: corpus_mod.PreprocessConfig = field(default_factory=corpus_mod.PreprocessConfig)
    train: settings.TrainConfig = field(default_factory=settings.TrainConfig)


def _config_keys(config: RunConfig) -> dict:
    """Each flat config key, mapped to the dataclass in `config` that
    declares it and to its field there."""
    sections = {"preprocess": config.preprocess, "train": config.train}
    return {
        f.name: (owner, f)
        for owner in (config, *sections.values()) for f in fields(owner) if f.name not in sections
    }


# By the base type of a setting's field: the check of the JSON values its
# config-file key takes (a field annotated `... | None` also takes null),
# and the `add_argument` keywords of its flag.
_SETTING_TYPES = {
    "str": (lambda v: isinstance(v, str), {}),
    "int": (settings._is_int, {"type": int}),
    "float": (settings._is_float, {"type": float}),
    "bool": (lambda v: isinstance(v, bool), {"action": argparse.BooleanOptionalAction}),
    "list[str]": (settings._is_str_list, {"nargs": "+"}),
}


def _load_run_config(args: argparse.Namespace) -> RunConfig:
    """Layer dataclass defaults, then the JSON config file, then CLI flags;
    each key goes to the dataclass that declares it."""
    config = RunConfig()
    keys = _config_keys(config)
    values = {}
    if getattr(args, "config", None):
        path = Path(args.config)
        if not path.exists():
            raise ConfigurationError(f"config file not found: {path}")
        values = settings.read_json(path, ConfigurationError)
        if not isinstance(values, dict):
            raise ConfigurationError(f"{path}: a config file must hold a JSON object")
        unknown = set(values) - set(keys)
        if unknown:
            raise ConfigurationError(f"{path}: unknown config keys: {sorted(unknown)}")
        for name, value in values.items():
            annotation = keys[name][1].type
            base, _, optional = annotation.partition(" | ")
            if not (value is None and optional or _SETTING_TYPES[base][0](value)):
                raise ConfigurationError(f"{path}: config key {name!r} must be {annotation}")
    for name in keys:
        value = getattr(args, name, None)
        if value is not None:
            values[name] = value
    for name, value in values.items():
        setattr(keys[name][0], name, value)
    return config


def cmd_preprocess(config: RunConfig) -> int:
    if not config.input:
        raise ConfigurationError("preprocess requires --input")
    path = Path(config.input)
    if not path.exists():
        raise CorpusError(f"input file not found: {path}")
    config.preprocess.validate()

    fmt = config.input_format
    if fmt == "auto":
        fmt = "jsonl" if path.suffix in (".jsonl", ".json") else "text"
    if fmt == "jsonl":
        raw = corpus_mod.read_jsonl_documents(path)
    elif fmt == "text":
        raw = corpus_mod.read_text_documents(path)
    else:
        raise ConfigurationError(f"input_format must be auto, jsonl or text, got {fmt!r}")
    try:
        built = corpus_mod.preprocess(raw, config.preprocess)
    except CorpusError as exc:
        raise CorpusError(f"{path}: {exc}") from None
    out_dir = Path(config.output_dir or ".")
    out_dir.mkdir(parents=True, exist_ok=True)
    corpus_mod.write_corpus(built, out_dir / "corpus.bin")
    (out_dir / "vocab.txt").write_text(built.vocabulary.text(), encoding="utf-8")
    print(
        f"docs={built.n_docs} vocab={len(built.vocabulary)} "
        f"avg_len={built.mean_doc_length():.2f}"
    )
    return EXIT_OK


def _load_or_build_matrices(config: RunConfig, built: corpus_mod.Corpus):
    """The three heavy artifacts, from cache when possible: the similarity
    matrix, the hierarchy matrix, and the enriched document representation
    A0. Returns A0 and the hierarchy matrix; A0's rows are `built`'s
    documents in order, so their ids are read from `built`, not the cache.

    Built or read from the cache, each is a `sparse_io.CsrArrays`; neither
    path loads scipy. The embedding file is read only when the similarity
    or the hierarchy matrix is built; A0 needs only the similarity matrix
    and TF. Also returns the run's provenance of the matrices: input hashes,
    embedding coverage (None when the embedding file was not read, which
    includes a train that rebuilds only A0 from cached S and H), the
    cache status of each artifact, which is `hit`, `miss` (no file),
    `rebuilt` (a damaged file, logged and replaced) or `off` (no cache),
    and the shape, stored entries and density of each matrix.
    """
    from . import sparse_io

    train = config.train
    m = len(built.vocabulary)
    corpus_sha = sparse_io.file_sha256(config.corpus)
    emb_sha = sparse_io.file_sha256(config.embeddings)
    cache_dir = config.cache_dir or Path(config.output_dir or ".") / "cache"
    cache = sparse_io.MatrixCache(cache_dir) if config.cache else None

    shared = {"corpus": corpus_sha, "embeddings": emb_sha, "space": train.space}
    sim_inputs = {**shared, "alpha": train.alpha, "k_s": train.k_s}
    # Each artifact's cache key and shape, in load order. A0 is a function
    # of TF and S, so S's inputs key it too.
    artifacts = {
        "similarity": (sparse_io.cache_key("similarity", **sim_inputs), (m, m)),
        "hierarchy": (sparse_io.cache_key("hierarchy", **shared, k_h=train.k_h), (m, m)),
        "representation": (sparse_io.cache_key("representation", **sim_inputs), (built.n_docs, m)),
    }
    status, matrices = {}, {}
    for kind, (key, shape) in artifacts.items():
        if cache is None:
            status[kind], matrices[kind] = "off", None
            continue
        existed = cache.has(key)
        matrices[kind] = cache.load(key, shape)
        status[kind] = "hit" if matrices[kind] is not None else "rebuilt" if existed else "miss"

    def keep(kind, matrix):
        matrices[kind] = matrix
        if cache:
            cache.save(artifacts[kind][0], matrix)

    coverage = None
    build_sim, build_hier = matrices["similarity"] is None, matrices["hierarchy"] is None
    if build_sim or build_hier:
        from . import hypspace  # only a build needs it; a warm train never loads it

        table = hypspace.load_embeddings(config.embeddings, built.vocabulary, train.space)
        coverage = table.coverage
        if not table.term_indices.size:
            raise ContractError(
                f"{config.embeddings}: no vocabulary term has an embedding vector"
            )
        if build_sim and build_hier:  # one kNN pass: the narrower build slices it
            hypspace._neighbor_table(table, max(train.k_s, train.k_h))
        if build_sim:
            keep("similarity",
                 hypspace.build_similarity_matrix(table, train.k_s, train.alpha).entries)
        if build_hier:
            keep("hierarchy", hypspace.build_hierarchy_matrix(table, train.k_h).entries)
        del table  # and its neighbor table, before A0 is built
    if matrices["representation"] is None:
        sim = matrices["similarity"]
        tf = corpus_mod.build_tf(built)
        idf = corpus_mod.compute_idf(tf, sim)
        keep("representation", corpus_mod.build_document_representation(tf, sim, idf).values)
    provenance = {"corpus_sha256": corpus_sha, "embeddings_sha256": emb_sha,
                  "embedding_coverage": coverage, "cache": status,
                  "matrices": {kind: {"shape": list(matrix.shape), "nnz": matrix.nnz,
                                      "density": matrix.nnz / (matrix.shape[0] * matrix.shape[1])}
                               for kind, matrix in matrices.items()}}
    return matrices["representation"], matrices["hierarchy"], provenance


def cmd_train(config: RunConfig) -> int:
    if not config.corpus or not config.embeddings:
        raise ConfigurationError("train requires --corpus and --embeddings")
    for path in (config.corpus, config.embeddings):
        if not Path(path).exists():
            raise CorpusError(f"input file not found: {path}")
    config.train.validate()
    from . import hierarchy as hierarchy_mod, sparse_io

    t_start = time.perf_counter()
    built = corpus_mod.read_corpus(config.corpus)
    a0, hier, matrix_provenance = _load_or_build_matrices(config, built)
    t_matrices = time.perf_counter()

    tree = hierarchy_mod.build_hierarchy(a0, [d.id for d in built.documents], hier, config.train)
    t_tree = time.perf_counter()
    if not tree.roots:
        diagnostic = tree.provenance.get("diagnostic", "no topics were produced")
        raise DegenerateCorpusError(diagnostic)

    out_dir = Path(config.output_dir or ".")
    tree_path = settings.write_model(out_dir, tree, built.vocabulary)

    provenance = dict(tree.provenance)
    provenance.update(matrix_provenance)
    provenance["tree_sha256"] = sparse_io.file_sha256(tree_path)
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


def cmd_evaluate(config: RunConfig, model_dir: str) -> int:
    if not config.corpus:
        raise ConfigurationError("evaluate requires --corpus")
    if not Path(config.corpus).exists():
        raise CorpusError(f"input file not found: {config.corpus}")
    from . import metrics

    model = Path(model_dir)
    built = corpus_mod.read_corpus(config.corpus)
    tree = settings.read_model(model, built.vocabulary, config.corpus)

    report = metrics.evaluate(tree, built)
    out_dir = model if config.output_dir is None else Path(config.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    settings.dump_json(report.to_dict(), out_dir / "report.json")
    report.write_csv(out_dir / "report.csv")
    mean_coh = report.summary["mean_coherence"]
    print(
        f"topics={report.summary['n_topics']} edges={report.summary['n_edges']} "
        f"mean_coherence={'absent' if mean_coh is None else format(mean_coh, '.4f')}"
    )
    return EXIT_OK


def _dot_string(text: str) -> str:
    """`text` as a quoted DOT string, its backslashes and quotes escaped."""
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def cmd_export(config: RunConfig, model_dir: str, fmt: str, output: str | None, top_k: int) -> int:
    if top_k < 1:
        raise ConfigurationError(f"--top-k must be >= 1, got {top_k}")
    model = Path(model_dir)
    payload = settings.read_payload(model)
    if fmt == "dot":
        lines = ["digraph topics {", '  node [shape=box];']
        for node in payload["nodes"]:
            label = " ".join(t["term"] for t in node["top_terms"][:top_k])
            lines.append(f'  {_dot_string(node["id"])} [label={_dot_string(label)}];')
        for node in payload["nodes"]:
            for child in node["children"]:
                lines.append(f'  {_dot_string(node["id"])} -> {_dot_string(child)};')
        lines.append("}")
        text = "\n".join(lines) + "\n"
        out_path = Path(output) if output else model / "tree.dot"
        out_path.write_text(text, encoding="utf-8")
    else:
        for node in payload["nodes"]:
            node["top_terms"] = node["top_terms"][:top_k]
        out_path = Path(output) if output else model / "tree.export.json"
        settings.dump_json(payload, out_path)
    print(f"wrote {out_path}")
    return EXIT_OK


# Each command's help line, the RunConfig fields it takes as flags, and
# the section whose every field it takes too, if any.
_COMMANDS = {
    "preprocess": ("tokenize a corpus and build its vocabulary",
                   ("input", "input_format", "output_dir"), "preprocess"),
    "train": ("build a topic tree from a corpus and embeddings",
              ("corpus", "embeddings", "output_dir", "cache_dir", "cache"), "train"),
    "evaluate": ("score a trained tree against its corpus", ("corpus", "output_dir"), None),
    "export": ("emit a tree as DOT or truncated JSON", (), None),
}


def build_parser() -> argparse.ArgumentParser:
    """The command-line parser: a setting's flag is `--field-name` with
    `dest` the field, and parses as `_SETTING_TYPES` says for its type; a
    flag left out parses as None, so it overrides nothing."""
    parser = argparse.ArgumentParser(prog="hyhtm", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    run_fields = {f.name: f for f in fields(RunConfig)}
    for command, (text, names, section) in _COMMANDS.items():
        p = sub.add_parser(command, help=text, allow_abbrev=False)
        p.add_argument("--config", help="JSON config file with flat setting keys")
        p.add_argument("--verbose", action="store_true", default=False)
        if command in ("evaluate", "export"):
            p.add_argument("--model", required=True)
        taken = [run_fields[name] for name in names]
        if section:
            taken += fields(run_fields[section].default_factory)
        for f in taken:
            flag = _SETTING_TYPES[f.type.partition(" | ")[0]][1]
            p.add_argument("--" + f.name.replace("_", "-"), dest=f.name, **flag)
    p = sub.choices["export"]
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
        return cmd_export(config, args.model, args.format, args.output, args.top_k)
    except (HyhtmError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, DegenerateCorpusError):
            return EXIT_DEGENERATE
        return EXIT_INPUT if isinstance(exc, _INPUT_ERRORS) else EXIT_CONTRACT


def entrypoint():
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
