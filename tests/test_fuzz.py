"""Property tests: damaged inputs end in a documented exit code.

Truncated and bit-flipped `corpus.bin` files go through `train` and
`evaluate`; mutated `tree.json` files go through `evaluate` and both
`export` formats; a truncated or bit-flipped `factors.bin` goes through
`evaluate`; the four text inputs (JSONL and plain-text documents, a
stopword list, the embedding file) with bytes that are not ASCII go through
`preprocess` and `train`; embedding files with mangled lines (wrong
component counts, values that are not finite or overflow, vectors on or
outside the unit sphere, duplicate terms, blank lines, a header alone) go
through `train` in both spaces. Every run must return 0, 2, 3 or 4 from
`cli.main`; any other exception fails the test. A report that `evaluate`
writes must be strict JSON, without NaN or infinity. Matrix cache files
cut short, extended or with bits flipped must each be rebuilt, so `train`
gives the tree of a run without the cache.
"""

import json
import shutil
import signal

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from hyhtm.cli import main

from conftest import write_embedding_file

DOCUMENTED_EXITS = {0, 2, 3, 4}

# Seconds one command may take; every command here takes well under one.
COMMAND_SECONDS = 10

FUZZ_SETTINGS = settings(
    max_examples=40,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)

_WORDS = ["apple", "banana", "cherry", "grape", "lemon", "mango", "olive", "peach"]


@pytest.fixture(scope="module")
def fuzz_model(tmp_path_factory):
    """A small corpus, embeddings for its terms, and a tree trained on them."""
    root = tmp_path_factory.mktemp("fuzz")
    rng = np.random.default_rng(11)
    rows = [
        {"id": f"d{i}", "text": " ".join(rng.choice(_WORDS[(i % 2) * 4 :][:4], size=6))}
        for i in range(24)
    ]
    docs = root / "docs.jsonl"
    docs.write_text("".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8")
    prep = root / "prep"
    assert main(["preprocess", "--input", str(docs), "--output-dir", str(prep),
                 "--min-doc-freq", "1"]) == 0
    emb = write_embedding_file(
        root / "emb.txt", [(w, rng.uniform(-0.4, 0.4, size=3)) for w in _WORDS]
    )
    model = root / "model"
    assert main(train_args(prep / "corpus.bin", emb, model)) == 0
    return {"root": root, "corpus": (prep / "corpus.bin").read_bytes(), "emb": emb,
            "model": model, "tree": (model / "tree.json").read_bytes()}


def train_args(corpus_bin, emb, out, cache_dir=None):
    """A small train; without `cache_dir`, one that uses no cache."""
    cache = ["--cache-dir", str(cache_dir)] if cache_dir else ["--no-cache"]
    return [
        "train", "--corpus", str(corpus_bin), "--embeddings", str(emb),
        "--output-dir", str(out), *cache, "--k-s", "4", "--k-h", "4",
        "--alpha", "0.1", "--n-topics", "2", "--max-depth", "2", "--min-docs", "4",
        "--seed", "0",
    ]


def flipped_bits(blob: bytes):
    """Strategy: `blob` with one to three distinct bits flipped."""
    bits = st.lists(st.integers(0, 8 * len(blob) - 1), min_size=1, max_size=3, unique=True)

    def flip(chosen):
        out = bytearray(blob)
        for bit in chosen:
            out[bit // 8] ^= 1 << (bit % 8)
        return bytes(out)

    return bits.map(flip)


def damaged_bytes(blob: bytes):
    """Strategy: `blob` cut short, or with one to three bits flipped."""
    truncated = st.integers(0, len(blob) - 1).map(lambda n: blob[:n])
    return st.one_of(truncated, flipped_bits(blob))


@pytest.fixture(autouse=True)
def command_alarm():
    """Make a command that runs past COMMAND_SECONDS raise, so that a hang
    (a cyclic tree once looped forever) fails the test instead of the suite."""

    def expire(signum, frame):
        raise TimeoutError(f"command ran past {COMMAND_SECONDS} s")

    previous = signal.signal(signal.SIGALRM, expire)
    yield
    signal.setitimer(signal.ITIMER_REAL, 0)
    signal.signal(signal.SIGALRM, previous)


def run(argv) -> int:
    signal.setitimer(signal.ITIMER_REAL, COMMAND_SECONDS)
    try:
        code = main(argv)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    assert code in DOCUMENTED_EXITS, (argv, code)
    return code


@FUZZ_SETTINGS
@given(data=st.data())
def test_damaged_corpus_exits_with_a_documented_code(fuzz_model, data):
    root = fuzz_model["root"]
    corpus = root / "damaged-corpus.bin"
    corpus.write_bytes(data.draw(damaged_bytes(fuzz_model["corpus"])))
    run(train_args(corpus, fuzz_model["emb"], root / "damaged-train"))
    run(["evaluate", "--model", str(fuzz_model["model"]), "--corpus", str(corpus),
         "--output-dir", str(root / "damaged-report")])


# The cache tests below draw every damage before writing any: an example
# that stops inside a draw then leaves the cache intact for the next one.


def resized_bytes(blob: bytes):
    """Strategy: `blob` cut short, often inside the three counts that open
    its header, or extended by one to 64 drawn bytes."""
    lengths = st.one_of(st.integers(0, min(24, len(blob)) - 1), st.integers(0, len(blob) - 1))
    truncated = lengths.map(lambda n: blob[:n])
    extended = st.binary(min_size=1, max_size=64).map(lambda tail: blob + tail)
    return st.one_of(truncated, extended)


@FUZZ_SETTINGS
@given(data=st.data())
def test_resized_cache_files_are_rebuilt_to_the_no_cache_tree(fuzz_model, data):
    root = fuzz_model["root"]
    corpus, cache = root / "corpus.bin", root / "resized-cache"
    corpus.write_bytes(fuzz_model["corpus"])
    if not cache.exists():
        assert run(train_args(corpus, fuzz_model["emb"], root / "fill", cache)) == 0
    intact = {p: p.read_bytes() for p in sorted(cache.iterdir())}
    assert len(intact) == 3
    damaged = {path: data.draw(resized_bytes(blob)) for path, blob in intact.items()}
    for path, blob in damaged.items():
        path.write_bytes(blob)
    out = root / "resized-train"
    assert run(train_args(corpus, fuzz_model["emb"], out, cache)) == 0
    provenance = json.loads((out / "provenance.json").read_text(encoding="utf-8"))
    assert set(provenance["cache"].values()) == {"rebuilt"}
    assert (out / "tree.json").read_bytes() == fuzz_model["tree"]
    assert {p: p.read_bytes() for p in intact} == intact


@FUZZ_SETTINGS
@given(data=st.data())
def test_bit_flipped_cache_files_are_rebuilt_to_the_no_cache_tree(fuzz_model, data):
    root = fuzz_model["root"]
    corpus, cache = root / "corpus.bin", root / "flipped-cache"
    corpus.write_bytes(fuzz_model["corpus"])
    if not cache.exists():
        assert run(train_args(corpus, fuzz_model["emb"], root / "fill", cache)) == 0
    intact = {p: p.read_bytes() for p in sorted(cache.iterdir())}
    assert len(intact) == 3
    damaged = {path: data.draw(flipped_bits(blob)) for path, blob in intact.items()}
    for path, blob in damaged.items():
        path.write_bytes(blob)
    out = root / "flipped-train"
    assert run(train_args(corpus, fuzz_model["emb"], out, cache)) == 0
    provenance = json.loads((out / "provenance.json").read_text(encoding="utf-8"))
    assert set(provenance["cache"].values()) == {"rebuilt"}
    assert (out / "tree.json").read_bytes() == fuzz_model["tree"]
    assert {p: p.read_bytes() for p in intact} == intact


_JSON_LEAVES = st.one_of(
    st.none(), st.booleans(), st.integers(-2, 8), st.text(max_size=6),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from(["0", "1", "0.0", "0.1", "1.0", "apple", "d1"]),
)
_JSON = st.recursive(
    _JSON_LEAVES,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(
        st.sampled_from(["id", "level", "term", "weight", "children", "x"]), inner, max_size=3
    ),
    max_leaves=6,
)


def _paths(value, path=()):
    """Every location inside a JSON value, as key/index tuples."""
    yield path
    items = value.items() if isinstance(value, dict) else (
        enumerate(value) if isinstance(value, list) else ()
    )
    for key, child in items:
        yield from _paths(child, path + (key,))


def mutated_payload(payload):
    """Strategy: `payload` with one location replaced, deleted or duplicated."""

    @st.composite
    def mutate(draw):
        doc = json.loads(json.dumps(payload))
        path = draw(st.sampled_from(list(_paths(doc))))
        action = draw(st.sampled_from(["replace", "delete", "duplicate"]))
        if not path:
            return draw(_JSON)
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        key = path[-1]
        if action == "replace":
            parent[key] = draw(_JSON)
        elif action == "delete":
            del parent[key]
        elif isinstance(parent, list):
            parent.insert(key, json.loads(json.dumps(parent[key])))
        else:
            parent[key] = [parent[key], parent[key]]
        return doc

    return mutate()


def _read_commands(fuzz_model):
    root, model = fuzz_model["root"], fuzz_model["root"] / "mutated-model"
    model.mkdir(exist_ok=True)
    corpus = root / "corpus.bin"
    corpus.write_bytes(fuzz_model["corpus"])
    return model, [
        ["evaluate", "--model", str(model), "--corpus", str(corpus),
         "--output-dir", str(root / "mutated-report")],
        ["export", "--model", str(model), "--format", "dot", "--output", str(root / "t.dot")],
        ["export", "--model", str(model), "--format", "json", "--output", str(root / "t.json")],
    ]


@FUZZ_SETTINGS
@given(data=st.data())
def test_mutated_tree_exits_with_a_documented_code(fuzz_model, data):
    model, commands = _read_commands(fuzz_model)
    payload = json.loads(fuzz_model["tree"])
    text = json.dumps(data.draw(mutated_payload(payload)))
    (model / "tree.json").write_text(text, encoding="utf-8")
    for argv in commands:
        run(argv)


@FUZZ_SETTINGS
@given(data=st.data())
def test_damaged_tree_bytes_exit_with_a_documented_code(fuzz_model, data):
    model, commands = _read_commands(fuzz_model)
    (model / "tree.json").write_bytes(data.draw(damaged_bytes(fuzz_model["tree"])))
    for argv in commands:
        run(argv)


def _reject_constant(name):
    raise ValueError(f"report holds {name}, which is not JSON")


@FUZZ_SETTINGS
@given(data=st.data())
def test_damaged_factor_file_exits_with_a_documented_code(fuzz_model, data):
    root = fuzz_model["root"]
    model, report = root / "factor-model", root / "factor-report"
    shutil.rmtree(model, ignore_errors=True)
    shutil.rmtree(report, ignore_errors=True)
    shutil.copytree(fuzz_model["model"], model)
    path = model / "factors.bin"
    path.write_bytes(data.draw(damaged_bytes(path.read_bytes())))
    corpus = root / "corpus.bin"
    corpus.write_bytes(fuzz_model["corpus"])
    code = run(["evaluate", "--model", str(model), "--corpus", str(corpus),
                "--output-dir", str(report)])
    assert (report / "report.json").exists() == (code == 0)
    if code == 0:
        json.loads((report / "report.json").read_text(encoding="utf-8"),
                   parse_constant=_reject_constant)


def high_bytes(blob: bytes):
    """Strategy: `blob` with one to three of its bytes replaced by bytes
    0x80-0xFF; in ASCII text most such edits are not UTF-8."""
    edits = st.lists(st.tuples(st.integers(0, len(blob) - 1), st.integers(0x80, 0xFF)),
                     min_size=1, max_size=3)

    def apply(edits):
        out = bytearray(blob)
        for pos, byte in edits:
            out[pos] = byte
        return bytes(out)

    return edits.map(apply)


@FUZZ_SETTINGS
@given(data=st.data())
def test_text_inputs_with_high_bytes_exit_with_a_documented_code(fuzz_model, data, capsys):
    root = fuzz_model["root"]
    docs = root / "docs.jsonl"
    corpus = root / "corpus.bin"
    corpus.write_bytes(fuzz_model["corpus"])
    texts = "".join(json.loads(line)["text"] + "\n"
                    for line in docs.read_text(encoding="utf-8").splitlines())
    originals = {
        "docs.jsonl": docs.read_bytes(),
        "docs.txt": texts.encode("utf-8"),
        "stopwords.txt": b"# fruit we ignore\nkiwi\nlime\n",
        "emb.txt": fuzz_model["emb"].read_bytes(),
    }
    mangled = {name: root / f"mangled-{name}" for name in originals}
    prep = ["preprocess", "--output-dir", str(root / "mangled-prep"), "--min-doc-freq", "1"]
    commands = {
        "docs.jsonl": prep + ["--input", str(mangled["docs.jsonl"])],
        "docs.txt": prep + ["--input", str(mangled["docs.txt"]), "--input-format", "text"],
        "stopwords.txt": prep + ["--input", str(docs),
                                 "--stopwords", str(mangled["stopwords.txt"])],
        "emb.txt": train_args(corpus, mangled["emb.txt"], root / "mangled-train"),
    }
    for name, argv in commands.items():
        mangled[name].write_bytes(data.draw(high_bytes(originals[name])))
        capsys.readouterr()
        if run(argv):
            assert str(mangled[name]) in capsys.readouterr().err


# Component values that parse to something other than a plain small number.
_ODD_COMPONENTS = ["nan", "-nan", "inf", "-Infinity", "1e999", "-1e999", "1e308", "1e-400",
                   "0", "-0.0", "0x1p3", "1_0", "", "abc"]


def mangled_embeddings(text: str):
    """Strategy: an embedding file with one to three of its lines edited,
    each edit made on an intact line, or the file cut to its header."""
    header, *rows = text.splitlines()
    dim = int(header.split()[1])

    @st.composite
    def mangle(draw):
        lines = list(rows)
        for _ in range(draw(st.integers(1, 3))):
            pos = draw(st.integers(0, len(lines) - 1))
            term, *vec = draw(st.sampled_from(rows)).split()
            edit = draw(st.sampled_from(["count", "component", "scale", "blank", "duplicate",
                                         "header-only"]))
            if edit == "count":
                n = draw(st.integers(0, 2 * dim).filter(lambda n: n != dim))
                lines[pos] = " ".join([term] + (vec * 2)[:n])
            elif edit == "component":
                vec[draw(st.integers(0, dim - 1))] = draw(st.sampled_from(_ODD_COMPONENTS))
                lines[pos] = " ".join([term, *vec])
            elif edit == "scale":
                # Norm 0 is the origin, 1 the unit sphere; the larger norms
                # lie outside it, the last so far that its square overflows.
                norm = draw(st.sampled_from([0.0, 1.0, 1.0 + 1e-16, 1.5, 1e10, 1e200]))
                values = np.array([float(x) for x in vec])
                scaled = values * (norm / np.sqrt(values @ values))
                lines[pos] = " ".join([term, *(repr(float(x)) for x in scaled)])
            elif edit == "blank":
                lines.insert(pos, draw(st.sampled_from(["", " ", "\t"])))
            elif edit == "duplicate":
                lines.insert(pos, " ".join([term, *draw(st.sampled_from([vec, vec[::-1]]))]))
            else:
                return header + "\n"
        return "\n".join([header, *lines]) + "\n"

    return mangle()


@FUZZ_SETTINGS
@given(data=st.data())
def test_mangled_embedding_lines_exit_with_a_documented_code(fuzz_model, data, capsys):
    root = fuzz_model["root"]
    corpus = root / "corpus.bin"
    corpus.write_bytes(fuzz_model["corpus"])
    emb = root / "mangled-lines-emb.txt"
    emb.write_text(data.draw(mangled_embeddings(fuzz_model["emb"].read_text(encoding="utf-8"))),
                   encoding="utf-8")
    space = data.draw(st.sampled_from(["hyperbolic", "euclidean"]))
    capsys.readouterr()
    if run(train_args(corpus, emb, root / "mangled-lines-train") + ["--space", space]) == 2:
        assert str(emb) in capsys.readouterr().err
