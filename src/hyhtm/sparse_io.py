"""Sparse matrices as numpy CSR arrays, their binary persistence, and the
content-addressed matrix cache.

Every matrix a `train` builds or loads is a `CsrArrays`: plain numpy CSR
arrays with the attribute names of a scipy CSR matrix. Functions that
take a matrix also take a scipy one through `csr_arrays`. Only a sparse
node matrix needs scipy's arithmetic, through `CsrArrays.tocsr`.

A matrix is stored as a header of three little-endian u64 (rows, cols,
stored entries), then its canonical `indptr` (i64), `indices`
(`index_dtype(cols)`) and `data` (f64) as they are. Cache files are keyed
by a hash of the inputs and hyperparameters that produced the matrix, so
an intact hit is bitwise identical to a cold rebuild. Any change to a
file's length or structure is detected on reading and is a logged miss;
flipped bits in the stored values are not yet detected.
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
CACHE_FORMAT_VERSION = 2


def index_dtype(n_cols: int):
    """The column index dtype of a CSR matrix with `n_cols` columns."""
    return np.int32 if n_cols <= np.iinfo(np.int32).max else np.int64


@dataclass(frozen=True)
class CsrArrays:
    """A matrix in CSR layout as bare numpy arrays, without scipy.

    The attribute names are those of a scipy CSR matrix, so code that reads
    only `indptr`, `indices`, `data`, `shape` and `nnz` takes either. The
    arrays are canonical: columns increase strictly within each row.
    `tocsr` builds the scipy matrix for code that needs sparse arithmetic.
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


def csr_arrays(matrix) -> CsrArrays:
    """`matrix` as canonical CSR arrays: `CsrArrays` as they are, a scipy
    matrix converted to CSR with its duplicates summed and columns sorted."""
    if isinstance(matrix, CsrArrays):
        return matrix
    csr = matrix.tocsr()
    if not csr.has_canonical_format:
        csr = csr.copy()
        csr.sum_duplicates()  # sorts the indices too
    return CsrArrays(indptr=csr.indptr, indices=csr.indices, data=csr.data,
                     shape=(int(csr.shape[0]), int(csr.shape[1])))


def csr_from_triplets(vals, rows, cols, shape) -> CsrArrays:
    """CSR arrays of (value, row, col) triplets, columns sorted within each
    row; the values of duplicate (row, col) entries are summed."""
    n_rows, n_cols = shape
    keys = np.asarray(rows, dtype=np.int64) * n_cols
    keys += cols
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    vals = np.asarray(vals)[order]
    del order
    first = np.ones(keys.size, dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    first = np.flatnonzero(first)
    data = np.add.reduceat(vals, first)
    keys = keys[first]
    indptr = np.zeros(n_rows + 1, dtype=np.int64)
    np.cumsum(np.bincount(keys // n_cols, minlength=n_rows), out=indptr[1:])
    return CsrArrays(indptr=indptr, indices=(keys % n_cols).astype(index_dtype(n_cols)),
                     data=data, shape=(int(n_rows), int(n_cols)))


def row_positions(indptr: np.ndarray, rows: np.ndarray):
    """Positions in `indices` and `data` of the stored entries of `rows`,
    row after row, and the number of entries of each row."""
    starts = indptr[rows]
    lengths = indptr[rows + 1] - starts
    first = np.cumsum(lengths) - lengths  # where each row starts in the gather
    return np.arange(lengths.sum()) + np.repeat(starts - first, lengths), lengths


def dense_rows(matrix, rows: np.ndarray, scale: np.ndarray | None = None) -> np.ndarray:
    """Rows `rows` of a CSR matrix as a float64 array, then columns scaled
    by `scale`; duplicate entries are summed, as in a sparse matrix."""
    m = matrix.shape[1]
    pos, lengths = row_positions(matrix.indptr, rows)
    flat = np.repeat(np.arange(rows.size) * m, lengths) + matrix.indices[pos]
    dense = np.bincount(flat, weights=matrix.data[pos], minlength=rows.size * m)
    dense = dense.reshape(rows.size, m)
    if scale is not None:
        dense *= scale
    return dense


def _layout(cols: int):
    """The little-endian dtypes of a CSR file's indptr, indices and data."""
    return np.dtype("<i8"), np.dtype(index_dtype(cols)).newbyteorder("<"), np.dtype("<f8")


def save_csr(path, matrix):
    """Write a sparse matrix as a header of three little-endian u64 (rows,
    cols, stored entries), then its canonical CSR arrays as they are."""
    csr = csr_arrays(matrix)
    with open(path, "wb") as fh:
        np.array([*csr.shape, csr.nnz], dtype="<u8").tofile(fh)
        for array, dtype in zip((csr.indptr, csr.indices, csr.data), _layout(csr.shape[1])):
            np.asarray(array, dtype=dtype).tofile(fh)


def read_csr(path, shape) -> CsrArrays:
    """Read a `save_csr` file of the caller's `shape` into CSR arrays.

    Another shape, a size other than the header implies (checked before any
    array is read), an `indptr` that does not rise from 0 to the stored
    count, an index outside `shape` or columns that do not strictly
    increase within a row raise ContractError naming the file and entry."""
    rows, cols = int(shape[0]), int(shape[1])
    ptr_t, idx_t, val_t = _layout(cols)
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        header = [int(v) for v in np.fromfile(fh, dtype="<u8", count=3)]
        if len(header) < 3 or header[:2] != [rows, cols]:
            raise ContractError(f"{path}: header {header} is not shape {rows}, {cols} and a count")
        nnz = header[2]
        want = 24 + (rows + 1) * ptr_t.itemsize + nnz * (idx_t.itemsize + val_t.itemsize)
        if size != want:
            raise ContractError(f"{path}: {size} bytes, but its header implies {want}")
        indptr = np.fromfile(fh, dtype=ptr_t, count=rows + 1)
        indices = np.fromfile(fh, dtype=idx_t, count=nnz)
        data = np.fromfile(fh, dtype=val_t, count=nnz)
    fall = np.flatnonzero(np.diff(indptr) < 0)
    if indptr[0] != 0 or indptr[-1] != nnz or fall.size:
        where = f" at indptr[{fall[0] + 1}]" if fall.size else ""
        raise ContractError(f"{path}: indptr does not rise from 0 to {nnz}{where}")
    beyond = np.flatnonzero((indices < 0) | (indices >= cols))
    if beyond.size:
        i = beyond[0]
        raise ContractError(f"{path}: entry {i} has col {indices[i]} outside shape {rows, cols}")
    disorder = indices[1:] <= indices[:-1]
    starts = indptr[1:-1]
    disorder[starts[(starts > 0) & (starts < nnz)] - 1] = False  # a row's first entry
    disorder = np.flatnonzero(disorder) + 1
    if disorder.size:
        i = disorder[0]
        raise ContractError(
            f"{path}: entry {i} (row {np.searchsorted(indptr, i, side='right') - 1}, "
            f"col {indices[i]}) does not follow col {indices[i - 1]} of its row"
        )
    return CsrArrays(indptr=indptr, indices=indices, data=data, shape=(rows, cols))


def file_sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def bytes_sha256(blob: bytes) -> str:
    return hashlib.sha256(blob).hexdigest()


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
