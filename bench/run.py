"""hyhtm benchmark: planted workloads timed through the real command line.

Usage, from the root of a checkout:

    python3 bench/run.py --workload geometry-cold --seed 1 --seconds 25 --trace 0

The run generates a planted corpus and embedding file from the seed, runs
`hyhtm preprocess` on it (plus, for retrain-warm, a cache-filling `train`),
then repeats `hyhtm train` followed by `hyhtm evaluate` until --seconds have
passed. With --trace 0 every operation is a child process, timed in CPU
seconds from its own rusage, and the last line of stdout is a JSON object
with the end-to-end metrics. With --trace 1 the
same train and evaluate calls run in this process, once bare and once with
span wrappers around the modules' public functions, and the JSON object
carries the per-layer metrics instead. bench/README.md lists every metric.

Every operation is checked: a non-zero exit, a tree.json that differs
between two runs of one config, a warm-cache tree that differs from the
cache-filling tree, or a level-1 root purity below the workload's floor
each count as a failed operation.
"""

from __future__ import annotations

import os
import sys

BLAS_THREADS = 1  # one thread per process: steadier timings than nproc on a shared host
BLAS_ENV_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
CACHE_ENV_VAR = "HYHTM_CACHE_DIR"  # overrides --cache-dir and --no-cache when set

if __name__ == "__main__":
    # Before numpy loads: the traced run computes in this process.
    os.environ.update({var: str(BLAS_THREADS) for var in BLAS_ENV_VARS})
    os.environ.pop(CACHE_ENV_VAR, None)

import argparse
import contextlib
import json
import logging
import platform
import shutil
import statistics
import subprocess
import threading
import time
import traceback
from collections import Counter, defaultdict
from dataclasses import dataclass
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))
import plantgen  # noqa: E402
from tracing import Tracer, self_time  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPS = 3  # setup_s is the median of this many set-ups
MIN_ROUNDS = 3  # timed train+evaluate rounds, even past --seconds
MIN_TRACED_ROUNDS = 2
CHILD_TIMEOUT_S = 60.0  # a child this slow is killed and counted as failed
PURITY_FLOOR = 0.9  # every seed scored 1.0 at the seed commit
CLI = "from hyhtm.cli import entrypoint; entrypoint()"


@dataclass(frozen=True)
class Workload:
    name: str
    spec: plantgen.PlantSpec
    train_args: tuple[str, ...]
    cache: str  # "cold": fresh cache per train; "warm": filled during set-up; "off"


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="geometry-cold",
            spec=plantgen.PlantSpec(roots=4, subs=4, docs_per_sub=20, root_words=8,
                                    sub_words=6, dim=20, doc_len=80),
            train_args=("--space", "hyperbolic", "--k-s", "30", "--k-h", "30",
                        "--n-topics", "8", "--max-depth", "2", "--min-docs", "10",
                        "--alpha", "0.1"),
            cache="cold",
        ),
        Workload(
            name="retrain-warm",
            spec=plantgen.PlantSpec(roots=3, subs=4, docs_per_sub=60, root_words=10,
                                    sub_words=10, dim=10, doc_len=80),
            train_args=("--space", "hyperbolic", "--k-s", "20", "--k-h", "20",
                        "--n-topics", "6", "--max-depth", "3", "--min-docs", "6",
                        "--alpha", "0.1"),
            cache="warm",
        ),
        Workload(
            name="vocab-euclidean",
            spec=plantgen.PlantSpec(roots=4, subs=4, docs_per_sub=12, root_words=30,
                                    sub_words=55, dim=20, doc_len=80),
            train_args=("--space", "euclidean", "--k-s", "100", "--k-h", "100",
                        "--n-topics", "8", "--max-depth", "2", "--min-docs", "10",
                        "--alpha", "0.5"),
            cache="off",
        ),
    )
}


class Checks:
    """Operations attempted, and which of them failed and why."""

    def __init__(self):
        self.attempted = 0
        self.failed_ops: set[int] = set()
        self.reasons: list[str] = []

    def op(self, ok: bool, what: str) -> bool:
        """Count one operation; a false `ok` fails it."""
        self.attempted += 1
        return self.check(ok, what)

    def check(self, ok: bool, what: str) -> bool:
        """A further check on the latest operation."""
        if not ok:
            self.failed_ops.add(self.attempted)
            self.reasons.append(what)
        return ok


def child_env(root: Path) -> dict:
    """The environment every hyhtm child runs in: this checkout's sources,
    pinned BLAS threads, and no cache-directory override."""
    env = dict(os.environ)
    env.pop(CACHE_ENV_VAR, None)
    env["PYTHONPATH"] = str(root / "src")
    env.update({var: str(BLAS_THREADS) for var in BLAS_ENV_VARS})
    return env


@dataclass(frozen=True)
class Usage:
    wall_s: float
    cpu_s: float  # user + system time of the child alone; excludes time stolen from the VM
    peak_rss_mb: float


def run_cli(args: list[str], env: dict, log_path: Path) -> tuple[int, Usage]:
    """Run one hyhtm command as a child; its exit code and resource usage."""
    with open(log_path, "w", encoding="utf-8") as log_fh:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", CLI, *args], env=env,
                                stdout=log_fh, stderr=subprocess.STDOUT)
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, ru = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted: leave no child behind
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, Usage(wall, ru.ru_utime + ru.ru_stime, ru.ru_maxrss / 1024.0)


def root_purity(tree_path: Path, n_docs: int) -> float:
    """Purity of the level-1 partition against the planted root concepts;
    unassigned documents count against it."""
    payload = json.loads(tree_path.read_text(encoding="utf-8"))
    hit = 0
    for node in payload["nodes"]:
        if node["level"] == 1 and node["doc_ids"]:
            hit += max(Counter(plantgen.root_of(d) for d in node["doc_ids"]).values())
    return hit / n_docs


def machine_info() -> dict:
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
    }


class Run:
    """One benchmark run of one workload in a fresh work directory."""

    def __init__(self, workload: Workload, seed: int, root: Path, work: Path):
        self.w = workload
        self.seed = seed
        self.root = root
        self.work = work
        self.env = child_env(root)
        self.checks = Checks()
        self.corpus: Path | None = None
        self.embeddings: Path | None = None
        self.reference_tree: bytes | None = None  # first tree trained in this run
        self.fill_tree: bytes | None = None  # the cache-filling tree (warm only)
        self.samples: dict[str, list[float]] = defaultdict(list)

    def path(self, name: str) -> Path:
        return self.work / name

    def cli(self, tag: str, args: list[str]) -> Usage | None:
        """One counted operation; its usage, or None if it failed."""
        rc, usage = run_cli(args, self.env, self.path(f"logs/{tag}.log"))
        return usage if self.checks.op(rc == 0, f"{tag}: exit {rc}") else None

    def train_args(self, out: str, cache: str | None = None) -> list[str]:
        """A train into `out`; by default warm runs share the cache filled
        first in set-up and cold ones get an empty cache of their own."""
        args = ["train", "--corpus", str(self.corpus), "--embeddings", str(self.embeddings),
                "--output-dir", str(self.path(out)), *self.w.train_args]
        if self.w.cache == "off":
            return args + ["--no-cache"]
        cache = cache or ("cache0" if self.w.cache == "warm" else f"{out}-cache")
        return args + ["--cache-dir", str(self.path(cache))]

    def setup(self, reps: int):
        """Generate inputs, then preprocess (and fill the cache) `reps` times."""
        self.path("logs").mkdir(parents=True)
        raw, self.embeddings = plantgen.write_inputs(self.w.spec, self.seed, self.path("inputs"))
        corpora = []
        for i in range(reps):
            steps = [self.cli(f"preprocess{i}", [
                "preprocess", "--input", str(raw), "--output-dir", str(self.path(f"prep{i}"))])]
            if steps[0]:
                corpora.append(self.path(f"prep{i}/corpus.bin").read_bytes())
            self.corpus = self.path(f"prep{i}/corpus.bin")
            if self.w.cache == "warm":
                steps.append(self.cli(f"fill{i}", self.train_args(f"fill{i}", f"cache{i}")))
                tree_path = self.path(f"fill{i}/tree.json")
                if steps[-1] and self.checks.check(tree_path.is_file(), f"fill{i}: no tree.json"):
                    tree = tree_path.read_bytes()
                    self.fill_tree = self.fill_tree or tree
                    self.checks.check(tree == self.fill_tree, f"fill{i}: tree.json differs from fill0")
            if all(steps):
                self.samples["setup_s"].append(sum(u.cpu_s for u in steps))
                self.samples["setup_wall_s"].append(sum(u.wall_s for u in steps))
        self.checks.check(len(set(corpora)) <= 1, "preprocess: corpus.bin differs between set-ups")
        self.corpus = self.path("prep0/corpus.bin")

    def check_tree(self, tag: str, tree_path: Path) -> float | None:
        """Apply the tree checks to the model a train just wrote; its purity,
        or None if the tree cannot be read."""
        try:
            tree = tree_path.read_bytes()
            purity = root_purity(tree_path, self.w.spec.n_docs)
        except (OSError, ValueError, KeyError) as exc:
            self.checks.check(False, f"{tag}: unreadable tree.json ({exc})")
            return None
        self.reference_tree = self.reference_tree or tree
        self.checks.check(tree == self.reference_tree, f"{tag}: tree.json differs from the first train")
        if self.fill_tree is not None:
            self.checks.check(tree == self.fill_tree, f"{tag}: warm tree.json differs from the filling run")
        self.checks.check(purity >= PURITY_FLOOR,
                          f"{tag}: root purity {purity:.4f} below floor {PURITY_FLOOR}")
        return purity

    def timed(self, seconds: float, min_rounds: int):
        """Train then evaluate, each as a child, until `seconds` have passed."""
        start = time.perf_counter()
        r = 0
        while r < min_rounds or time.perf_counter() - start < seconds:
            train = self.cli(f"train{r}", self.train_args(f"model{r}"))
            if train:
                self.samples["train_cpu_s"].append(train.cpu_s)
                self.samples["train_wall_s"].append(train.wall_s)
                self.samples["train_peak_rss_mb"].append(train.peak_rss_mb)
                purity = self.check_tree(f"train{r}", self.path(f"model{r}/tree.json"))
                if purity is not None:
                    self.samples["root_purity"].append(purity)
                evaluate = self.cli(f"evaluate{r}", [
                    "evaluate", "--model", str(self.path(f"model{r}")), "--corpus", str(self.corpus)])
                if evaluate:
                    self.samples["evaluate_cpu_s"].append(evaluate.cpu_s)
                    self.samples["evaluate_wall_s"].append(evaluate.wall_s)
            r += 1


def _median(values: list[float]) -> float:
    # No samples means every attempt failed, and the run already reports so.
    return statistics.median(values) if values else 0.0


END_TO_END_UNITS = {
    "setup_s": "s", "train_cpu_s": "s", "evaluate_cpu_s": "s",
    "train_peak_rss_mb": "MB", "root_purity": "ratio",
}


def end_to_end(run: Run, seconds: float, setup_reps: int, min_rounds: int) -> dict:
    run.setup(setup_reps)
    run.timed(seconds, min_rounds)
    print("# samples " + json.dumps(run.samples))
    return {
        name: {"value": _median(run.samples[name]), "unit": unit}
        for name, unit in END_TO_END_UNITS.items()
    }


# ---------------------------------------------------------------------------
# Traced run


def install_spans(tracer: Tracer):
    """Wrap the module attributes the CLI calls through."""
    from hyhtm import corpus, hierarchy, hypspace, metrics, sparse_io

    def nnz(attr):
        return lambda result, args, kwargs: {"nnz": getattr(result, attr).nnz}

    def representation(result, args, kwargs):
        n, m = result.values.shape
        return {"nnz": result.values.nnz, "cells": n * m}

    def cache_load(result, args, kwargs):
        if result is None:
            return {"hit": False}
        return {"hit": True, "bytes": args[0].path_for(args[1]).stat().st_size}

    def cache_save(result, args, kwargs):
        return {"bytes": args[0].path_for(args[1]).stat().st_size}

    def tree(result, args, kwargs):
        return {"nodes": result.n_nodes,
                "peak_live_matrices": result.provenance.get("peak_live_matrices", 0)}

    def factors(result, args, kwargs):
        return {"n_iter": result.n_iter, "converged": result.converged}

    targets = [
        (hypspace, "load_embeddings", "hypspace.load_embeddings", None),
        (hypspace, "build_similarity_matrix", "hypspace.build_similarity_matrix", nnz("entries")),
        (hypspace, "build_hierarchy_matrix", "hypspace.build_hierarchy_matrix", nnz("entries")),
        (hypspace, "knn", "hypspace.knn", None),
        (corpus, "preprocess", "corpus.preprocess", None),
        (corpus, "read_corpus", "corpus.read_corpus", None),
        (corpus, "build_tf", "corpus.build_tf", None),
        (corpus, "compute_idf", "corpus.compute_idf", None),
        (corpus, "build_document_representation", "corpus.build_document_representation",
         representation),
        (sparse_io, "file_sha256", "sparse_io.file_sha256", None),
        (sparse_io.MatrixCache, "load", "sparse_io.cache_load", cache_load),
        (sparse_io.MatrixCache, "save", "sparse_io.cache_save", cache_save),
        (hierarchy, "build_hierarchy", "hierarchy.build_hierarchy", tree),
        (hierarchy, "factorize", "nmf.factorize", factors),  # nmf.factorize, as hierarchy calls it
        (metrics, "evaluate", "metrics.evaluate", None),
        (metrics, "build_stats", "metrics.build_stats", None),
    ]
    for owner, attr, name, observe in targets:
        tracer.wrap(owner, attr, name, observe)


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer figures of one traced preprocess + train + evaluate round."""
    spans = tracer.spans

    def named(name):
        return tracer.by_name(name)

    def total(name):
        return sum(s.duration for s in named(name))

    def self_total(name):
        return sum(self_time(s, spans) for s in named(name))

    def attr_sum(name, key):
        return sum(s.attrs.get(key, 0) for s in named(name))

    factorize = named("nmf.factorize")
    iters = attr_sum("nmf.factorize", "n_iter")
    loads = named("sparse_io.cache_load")
    hits = sum(1 for s in loads if s.attrs.get("hit"))
    a0_cells = attr_sum("corpus.build_document_representation", "cells")
    a0_nnz = attr_sum("corpus.build_document_representation", "nnz")
    return {
        "hypspace.build_similarity_matrix_s": total("hypspace.build_similarity_matrix"),
        "hypspace.build_hierarchy_matrix_s": total("hypspace.build_hierarchy_matrix"),
        "hypspace.load_embeddings_s": total("hypspace.load_embeddings"),
        "hypspace.knn_s": total("hypspace.knn"),
        "hypspace.knn_calls": len(named("hypspace.knn")),
        "hypspace.s_nnz": attr_sum("hypspace.build_similarity_matrix", "nnz"),
        "hypspace.h_nnz": attr_sum("hypspace.build_hierarchy_matrix", "nnz"),
        "nmf.factorize_s": total("nmf.factorize"),
        "nmf.factorize_calls": len(factorize),
        "nmf.iters": iters,
        "nmf.converged_ratio": (sum(1 for s in factorize if s.attrs["converged"]) / len(factorize)
                                if factorize else 0.0),
        "nmf.ms_per_iter": 1000.0 * total("nmf.factorize") / iters if iters else 0.0,
        "nmf.root_factorize_s": factorize[0].duration if factorize else 0.0,
        "hierarchy.build_hierarchy_s": total("hierarchy.build_hierarchy"),
        "hierarchy.self_s": self_total("hierarchy.build_hierarchy"),
        "hierarchy.nodes": attr_sum("hierarchy.build_hierarchy", "nodes"),
        "hierarchy.peak_live_matrices": attr_sum("hierarchy.build_hierarchy", "peak_live_matrices"),
        "corpus.preprocess_s": total("corpus.preprocess"),
        "corpus.read_corpus_s": total("corpus.read_corpus"),
        "corpus.build_tf_s": total("corpus.build_tf"),
        "corpus.compute_idf_s": total("corpus.compute_idf"),
        "corpus.build_document_representation_s": total("corpus.build_document_representation"),
        "corpus.a0_nnz": a0_nnz,
        "corpus.a0_density": a0_nnz / a0_cells if a0_cells else 0.0,
        "sparse_io.file_sha256_s": total("sparse_io.file_sha256"),
        "sparse_io.cache_load_s": total("sparse_io.cache_load"),
        "sparse_io.cache_save_s": total("sparse_io.cache_save"),
        "sparse_io.cache_hits": hits,
        "sparse_io.cache_misses": len(loads) - hits,
        "sparse_io.cache_bytes": (attr_sum("sparse_io.cache_load", "bytes")
                                  + attr_sum("sparse_io.cache_save", "bytes")),
        "metrics.evaluate_s": total("metrics.evaluate"),
        "metrics.build_stats_s": total("metrics.build_stats"),
        "metrics.self_s": self_total("metrics.evaluate"),
        "cli.train_self_s": self_total("cli.train"),
    }


LAYER_UNITS = {
    "_s": "s", "_calls": "count", "_nnz": "count", ".iters": "count", "_ratio": "ratio",
    "_per_iter": "ms", ".nodes": "count", "_matrices": "count", "_density": "ratio",
    "_hits": "count", "_misses": "count", "_bytes": "bytes",
}


def layer_unit(name: str) -> str:
    return next(unit for suffix, unit in LAYER_UNITS.items() if name.endswith(suffix))


def traced(run: Run, seconds: float, min_rounds: int) -> dict:
    """In-process rounds: a bare train, then a traced preprocess, train and evaluate."""
    run.setup(1)
    raw = run.path("inputs/corpus.jsonl")
    src = str(run.root / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    from hyhtm import cli

    rounds: list[dict[str, float]] = []
    bare, spanned = [], []
    all_spans = []
    start = time.perf_counter()
    r = 0

    def call(tag, args, tracer=None):
        with open(run.path(f"logs/{tag}.log"), "w", encoding="utf-8") as fh, \
                contextlib.redirect_stdout(fh):
            t0 = time.process_time()
            try:
                rc = tracer.run(f"cli.{args[0]}", cli.main, args) if tracer else cli.main(args)
            except Exception:  # a crash fails this operation, not the whole run
                traceback.print_exc(file=fh)
                rc = "an uncaught exception"
            cpu = time.process_time() - t0
        return run.checks.op(rc == 0, f"{tag}: exit {rc}"), cpu

    # Warnings from the program go to a log file, not this run's output.
    log_handler = logging.FileHandler(run.path("logs/traced.log"), encoding="utf-8")
    logging.getLogger().addHandler(log_handler)
    try:
        while r < min_rounds or time.perf_counter() - start < seconds:
            ok, cpu = call(f"bare{r}", run.train_args(f"bare{r}"))
            if ok:
                bare.append(cpu)
                run.check_tree(f"bare{r}", run.path(f"bare{r}/tree.json"))
            tracer = Tracer(clock=time.process_time)
            install_spans(tracer)
            try:
                call(f"traced-preprocess{r}",
                     ["preprocess", "--input", str(raw), "--output-dir", str(run.path(f"tprep{r}"))], tracer)
                ok, cpu = call(f"traced{r}", run.train_args(f"traced{r}"), tracer)
                if ok:
                    spanned.append(cpu)
                    run.check_tree(f"traced{r}", run.path(f"traced{r}/tree.json"))
                    call(f"traced-evaluate{r}", ["evaluate", "--model", str(run.path(f"traced{r}")),
                                                 "--corpus", str(run.corpus)], tracer)
            finally:
                tracer.remove()
            rounds.append(layer_metrics(tracer))
            all_spans.append(tracer.to_records())
            r += 1
    finally:
        logging.getLogger().removeHandler(log_handler)
        log_handler.close()

    run.path("spans.json").write_text(json.dumps(all_spans), encoding="utf-8")
    metrics = {
        name: {"value": statistics.median(rd[name] for rd in rounds), "unit": layer_unit(name)}
        for name in rounds[0]
    }
    metrics["cli.tracing_overhead_s"] = {"value": _median(spanned) - _median(bare), "unit": "s"}
    print(f"# traced rounds={len(rounds)}")
    return metrics


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool,
                 work: Path | None = None, setup_reps: int = SETUP_REPS,
                 min_rounds: int | None = None) -> dict:
    """One run; the smaller set-up and round counts serve the smoke tests."""
    work = work or ROOT / ".bench_work" / workload.name
    shutil.rmtree(work, ignore_errors=True)
    run = Run(workload, seed, ROOT, work)
    if trace:
        metrics = traced(run, seconds, MIN_TRACED_ROUNDS if min_rounds is None else min_rounds)
    else:
        metrics = end_to_end(run, seconds, setup_reps, MIN_ROUNDS if min_rounds is None else min_rounds)
    for reason in run.checks.reasons:
        print(f"# FAILED {reason}")
    return {
        "correct": not run.checks.failed_ops,
        "attempted": run.checks.attempted,
        "failed": len(run.checks.failed_ops),
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "hyhtm" / "cli.py").is_file():
        print(f"error: no hyhtm sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    info = machine_info()
    print("# machine " + json.dumps(info, sort_keys=True))
    result = run_workload(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
