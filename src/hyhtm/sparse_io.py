"""Binary sparse-matrix persistence and the content-addressed matrix cache.

Matrices are stored as a flat sequence of triplet records, little-endian
u32 row, u32 col, f64 value, in canonical row-major order: rows never
decrease and columns strictly increase within a row. Cache files are keyed
by a hash of the inputs and hyperparameters that produced the matrix, so a
hit is guaranteed to be bitwise identical to a cold rebuild.

A cache hit comes back as `CsrArrays`, plain numpy CSR arrays, so a run
whose matrices all come from the cache never loads scipy.
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

TRIPLET_DTYPE = np.dtype([("row", "<u4"), ("col", "<u4"), ("val", "<f8")])

# Part of every cache key: bump it when the triplet layout or the math of a
# cached matrix changes, so old files miss instead of being reused.
CACHE_FORMAT_VERSION = 1


def csr_from_triplets(vals, rows, cols, shape, dtype=None) -> sparse.csr_matrix:
    """CSR matrix with sorted indices; duplicate (row, col) entries are summed."""
    # Imported here: loading scipy.sparse costs about 0.2 s CPU per process.
    from scipy import sparse

    matrix = sparse.csr_matrix((vals, (rows, cols)), shape=shape, dtype=dtype)
    matrix.sort_indices()
    return matrix


@dataclass(frozen=True)
class CsrArrays:
    """A matrix in CSR layout as bare numpy arrays, without scipy.

    The attribute names are those of a scipy CSR matrix, so code that reads
    only `indptr`, `indices`, `data` and `shape` takes either. `tocsr`
    builds the scipy matrix for code that needs sparse arithmetic.
    """

    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    shape: tuple[int, int]

    format = "csr"

    def tocsr(self) -> sparse.csr_matrix:
        from scipy import sparse

        return sparse.csr_matrix((self.data, self.indices, self.indptr), shape=self.shape)


def save_triplets(path, matrix):
    """Write a sparse matrix as little-endian (u32 row, u32 col, f64 value)
    records in canonical row-major order."""
    csr = matrix.tocsr()
    if not csr.has_canonical_format:
        csr = csr.copy()
        csr.sum_duplicates()  # sorts the indices too
    coo = csr.tocoo()
    records = np.empty(coo.nnz, dtype=TRIPLET_DTYPE)
    records["row"] = coo.row.astype("<u4")
    records["col"] = coo.col.astype("<u4")
    records["val"] = coo.data.astype("<f8")
    with open(path, "wb") as fh:
        records.tofile(fh)


def read_triplets(path, shape) -> CsrArrays:
    """Read a triplet file into CSR arrays; shape is supplied by the caller.

    A partial trailing record, an index outside `shape` or a record out of
    canonical row-major order raises ContractError naming the file and the
    record.
    """
    size = os.path.getsize(path)
    if size % TRIPLET_DTYPE.itemsize:
        raise ContractError(
            f"{path}: {size} bytes is not a whole number of "
            f"{TRIPLET_DTYPE.itemsize}-byte records"
        )
    records = np.fromfile(path, dtype=TRIPLET_DTYPE)
    for axis, limit in zip(("row", "col"), shape):
        beyond = np.flatnonzero(records[axis] >= limit)
        if beyond.size:
            i = int(beyond[0])
            raise ContractError(
                f"{path}: record {i} has {axis} {int(records[axis][i])} "
                f"outside shape {tuple(shape)}"
            )
    rows, cols = records["row"], records["col"]
    disorder = np.flatnonzero(
        (rows[1:] < rows[:-1]) | ((rows[1:] == rows[:-1]) & (cols[1:] <= cols[:-1]))
    )
    if disorder.size:
        i = int(disorder[0]) + 1
        raise ContractError(
            f"{path}: record {i} (row {rows[i]}, col {cols[i]}) is out of "
            f"row-major order after (row {rows[i - 1]}, col {cols[i - 1]})"
        )
    indptr = np.zeros(shape[0] + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=shape[0]), out=indptr[1:])
    index_dtype = np.int32 if shape[1] <= np.iinfo(np.int32).max else np.int64
    return CsrArrays(
        indptr=indptr, indices=cols.astype(index_dtype), data=records["val"].astype(np.float64),
        shape=(int(shape[0]), int(shape[1])),
    )


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
    """Directory of triplet files addressed by cache_key."""

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
            return read_triplets(path, shape)
        except ContractError as exc:
            log.warning("%s; rebuilding", exc)
            return None

    def save(self, key: str, matrix):
        # A unique temporary file per write: concurrent runs sharing the
        # directory never write to the same file, and the rename is atomic.
        fd, tmp = tempfile.mkstemp(dir=self.directory, prefix=f"{key}.", suffix=".tmp")
        os.close(fd)
        try:
            save_triplets(tmp, matrix)
            os.replace(tmp, self.path_for(key))
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)
