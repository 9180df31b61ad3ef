"""Sparse matrices as numpy CSR arrays, their binary persistence, and the
content-addressed matrix cache.

Every matrix a `train` builds or loads is a `CsrArrays`: plain numpy CSR
arrays with the attribute names of a scipy CSR matrix, canonical and
storing no zero. It is the one matrix type the pipeline's functions take;
the one writer `csr_from_blocks` makes it so for TF, S, H and A0,
`read_csr` checks it, and no consumer converts or repairs its input. Only
a sparse node matrix needs scipy's arithmetic, through `CsrArrays.tocsr`.

A matrix is stored as a header of three little-endian u64 (rows, cols,
stored entries) and the 32-byte sha256 of the payload, then the payload:
its canonical `indptr` (i64), `indices` (`index_dtype(cols)`) and `data`
(f64) as they are. Cache files are keyed by a hash of the inputs and
hyperparameters that produced the matrix, so an intact hit is bitwise
identical to a cold rebuild. Any change to a file's length, header or
payload, and a structure or a stored zero that no builder writes, is
detected on reading and is a logged miss.

Every blocked loop of the package walks `row_blocks`: ranges of rows
whose work stays within the one budget `_BLOCK_WORK`. A unit of work is a
value a block holds: a product or dense cell of IDF and A0, a dense cell
of TF, S and H, a distance or gathered distance, a cell of `dense_rows`, a
presence word of the joint counts. A unit keeps about 40 bytes alive
(36-42 under tracemalloc for IDF and A0), 0.65 MB a block at `1 << 14`.
In a sweep from `1 << 11` to `1 << 17`, IDF and A0 ran fastest at
`1 << 14` and `1 << 15`, where a block fits a 2 MB L2 cache, and
`1 << 17` raised the peak RSS of a train on a 192-document, 1000-term
corpus from 44.3 to 46.5 MB. Once every kernel shared the budget, that
train peaked at 44.5-44.6 MB at `1 << 14` and 45.3 MB at `1 << 15`, in
six alternating runs each.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from .errors import ContractError

if TYPE_CHECKING:
    from scipy import sparse

log = logging.getLogger(__name__)

# Part of every cache key: bump it when the file layout or the math of a
# cached matrix changes, so old files miss instead of being reused.
CACHE_FORMAT_VERSION = 3
# Units of work per row block; the module docstring says why this size.
_BLOCK_WORK = 1 << 14


def index_dtype(n_cols: int):
    """The column index dtype of a CSR matrix with `n_cols` columns."""
    return np.int32 if n_cols <= np.iinfo(np.int32).max else np.int64


@dataclass(frozen=True)
class CsrArrays:
    """A matrix in CSR layout as bare numpy arrays, without scipy.

    The attribute names are those of a scipy CSR matrix. The arrays are
    canonical, columns increasing strictly within each row, and the pipeline's
    matrices store no zero. `tocsr` builds the scipy matrix for code that
    needs sparse arithmetic.
    """

    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    shape: tuple[int, int]

    @property
    def nnz(self) -> int:
        return int(self.indptr[-1])

    def toarray(self) -> np.ndarray:
        return dense_rows(self, np.arange(self.shape[0])).astype(self.data.dtype, copy=False)

    def tocsr(self) -> sparse.csr_matrix:
        # Imported here: loading scipy.sparse costs about 0.2 s CPU per process.
        from scipy import sparse

        return sparse.csr_matrix((self.data, self.indices, self.indptr), shape=self.shape)


def csr_from_blocks(shape, bound: int, blocks, dtype=np.float64) -> CsrArrays:
    """CSR arrays of a matrix given as dense row blocks: the one writer of
    the pipeline's matrices.

    `blocks` yields (start, stop, dense), rows start:stop as a
    (stop - start, cols) array, block after block over every row. Each
    row's nonzero cells are stored left to right, so the arrays are
    canonical and store no zero. They are allocated for `bound` entries,
    at least what the matrix stores; pages are touched only as entries
    are written, and the unused tail is returned at the end."""
    n_rows, n_cols = shape
    indptr = np.zeros(n_rows + 1, dtype=np.int64)
    indices = np.empty(bound, dtype=index_dtype(n_cols))
    data = np.empty(bound, dtype=dtype)
    for start, stop, dense in blocks:
        keep = dense != 0
        flat = np.flatnonzero(keep)
        at = indptr[start]
        np.cumsum(keep.sum(axis=1), out=indptr[start + 1 : stop + 1])
        indptr[start + 1 : stop + 1] += at
        np.remainder(flat, n_cols, out=indices[at : at + flat.size], casting="unsafe")
        data[at : at + flat.size] = dense.ravel()[flat]
    indices.resize(indptr[-1], refcheck=False)
    data.resize(indptr[-1], refcheck=False)
    return CsrArrays(indptr, indices, data, (int(n_rows), int(n_cols)))


def row_blocks(work: np.ndarray):
    """Consecutive [start, stop) row ranges that cover every row and whose
    summed `work` stays within `_BLOCK_WORK`; a row over the budget is a
    range of its own."""
    ends = np.cumsum(work)
    start = 0
    while start < ends.size:
        done = ends[start - 1] if start else 0
        stop = max(start + 1, int(ends.searchsorted(done + _BLOCK_WORK, side="right")))
        yield start, stop
        start = stop


def row_positions(indptr: np.ndarray, rows: np.ndarray):
    """Positions in `indices` and `data` of the stored entries of `rows`,
    row after row, and the number of entries of each row."""
    starts = indptr[rows]
    lengths = indptr[rows + 1] - starts
    first = np.cumsum(lengths) - lengths  # where each row starts in the gather
    return np.arange(lengths.sum()) + np.repeat(starts - first, lengths), lengths


def dense_rows(matrix: CsrArrays, rows: np.ndarray, scale: np.ndarray | None = None) -> np.ndarray:
    """Rows `rows` of a CSR matrix as a float64 array, then columns scaled
    by `scale`.

    The rows are gathered in `row_blocks` of output cells, so the index
    and value temporaries stay small beside the output."""
    m = matrix.shape[1]
    dense = np.empty((rows.size, m))
    for start, stop in row_blocks(np.full(rows.size, m)):
        block = rows[start:stop]
        pos, lengths = row_positions(matrix.indptr, block)
        flat = np.repeat(np.arange(block.size) * m, lengths) + matrix.indices[pos]
        cells = np.bincount(flat, weights=matrix.data[pos], minlength=block.size * m)
        dense[start:stop] = cells.reshape(block.size, m)
    if scale is not None:
        dense *= scale
    return dense


def _layout(cols: int):
    """The little-endian dtypes of a CSR file's indptr, indices and data."""
    return np.dtype("<i8"), np.dtype(index_dtype(cols)).newbyteorder("<"), np.dtype("<f8")


def save_csr(path, matrix: CsrArrays):
    """Write CSR arrays as a header of three little-endian u64 (rows, cols,
    stored entries) and the sha256 of the payload, then the payload: the
    arrays as they are."""
    digest = hashlib.sha256()
    with open(path, "wb") as fh:
        np.array([*matrix.shape, matrix.nnz], dtype="<u8").tofile(fh)
        fh.write(bytes(digest.digest_size))  # the digest, once the payload is written
        arrays = (matrix.indptr, matrix.indices, matrix.data)
        for array, dtype in zip(arrays, _layout(matrix.shape[1])):
            array = np.ascontiguousarray(array, dtype=dtype)
            digest.update(array)
            array.tofile(fh)
        fh.seek(24)
        fh.write(digest.digest())


def read_csr(path, shape) -> CsrArrays:
    """Read a `save_csr` file of the caller's `shape` into CSR arrays.

    Another shape, a size other than the header implies (checked before any
    array is read), a payload whose sha256 is not the header's, an `indptr`
    that does not rise from 0 to the stored count, an index outside
    `shape`, columns that do not strictly increase within a row or a
    stored zero, which no builder writes, raise ContractError naming the
    file and entry."""
    rows, cols = int(shape[0]), int(shape[1])
    ptr_t, idx_t, val_t = _layout(cols)
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        header = [int(v) for v in np.fromfile(fh, dtype="<u8", count=3)]
        if len(header) < 3 or header[:2] != [rows, cols]:
            raise ContractError(f"{path}: header {header} is not shape {rows}, {cols} and a count")
        nnz = header[2]
        recorded = fh.read(32)
        want = 56 + (rows + 1) * ptr_t.itemsize + nnz * (idx_t.itemsize + val_t.itemsize)
        if size != want:
            raise ContractError(f"{path}: {size} bytes, but its header implies {want}")
        indptr = np.fromfile(fh, dtype=ptr_t, count=rows + 1)
        indices = np.fromfile(fh, dtype=idx_t, count=nnz)
        data = np.fromfile(fh, dtype=val_t, count=nnz)
    digest = hashlib.sha256()
    for array in (indptr, indices, data):
        digest.update(array)
    if digest.digest() != recorded:
        raise ContractError(f"{path}: the payload's sha256 is not the one in its header")
    fall = np.flatnonzero(np.diff(indptr) < 0)
    if indptr[0] != 0 or indptr[-1] != nnz or fall.size:
        where = f" at indptr[{fall[0] + 1}]" if fall.size else ""
        raise ContractError(f"{path}: indptr does not rise from 0 to {nnz}{where}")
    beyond = np.flatnonzero((indices < 0) | (indices >= cols))
    if beyond.size:
        i = beyond[0]
        raise ContractError(f"{path}: entry {i} has col {indices[i]} outside shape {rows, cols}")

    def entry(i):
        return f"entry {i} (row {np.searchsorted(indptr, i, side='right') - 1}, col {indices[i]})"

    disorder = indices[1:] <= indices[:-1]
    starts = indptr[1:-1]
    disorder[starts[(starts > 0) & (starts < nnz)] - 1] = False  # a row's first entry
    disorder = np.flatnonzero(disorder) + 1
    if disorder.size:
        i = disorder[0]
        raise ContractError(f"{path}: {entry(i)} does not follow col {indices[i - 1]} of its row")
    zero = np.flatnonzero(data == 0)
    if zero.size:
        raise ContractError(f"{path}: {entry(zero[0])} stores a zero")
    return CsrArrays(indptr=indptr, indices=indices, data=data, shape=(rows, cols))


def file_sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def cache_key(kind: str, **parts) -> str:
    """Stable cache key from a matrix kind, its producing parameters and
    CACHE_FORMAT_VERSION."""
    payload = json.dumps(
        {"kind": kind, "format_version": CACHE_FORMAT_VERSION, **parts},
        sort_keys=True, separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:40]


class MatrixCache:
    """Directory of CSR files addressed by cache_key."""

    def __init__(self, directory):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)

    def path_for(self, key: str) -> Path:
        return self.directory / f"{key}.bin"

    def has(self, key: str) -> bool:
        return self.path_for(key).exists()

    def load(self, key: str, shape) -> CsrArrays | None:
        """The cached matrix as CSR arrays, or None on a miss. A damaged
        file is a miss, logged, and the caller's rebuild overwrites it."""
        path = self.path_for(key)
        if not path.exists():
            return None
        try:
            return read_csr(path, shape)
        except ContractError as exc:
            log.warning("%s; rebuilding", exc)
            return None

    def save(self, key: str, matrix):
        # A unique temporary file per write: concurrent runs sharing the
        # directory never write to the same file, and the rename is atomic.
        fd, tmp = tempfile.mkstemp(dir=self.directory, prefix=f"{key}.", suffix=".tmp")
        os.close(fd)
        try:
            save_csr(tmp, matrix)
            os.replace(tmp, self.path_for(key))
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)
