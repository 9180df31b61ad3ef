"""Binary sparse-matrix persistence and the content-addressed matrix cache.

Matrices are stored as a flat sequence of triplet records, little-endian
u32 row, u32 col, f64 value, in row-major order. Cache files are keyed by
a hash of the inputs and hyperparameters that produced the matrix, so a
hit is guaranteed to be bitwise identical to a cold rebuild.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import tempfile
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


def save_triplets(path, matrix):
    """Write a sparse matrix as little-endian (u32 row, u32 col, f64 value) records."""
    coo = matrix.tocsr().tocoo()  # csr round-trip canonicalizes row-major order
    records = np.empty(coo.nnz, dtype=TRIPLET_DTYPE)
    records["row"] = coo.row.astype("<u4")
    records["col"] = coo.col.astype("<u4")
    records["val"] = coo.data.astype("<f8")
    with open(path, "wb") as fh:
        records.tofile(fh)


def load_triplets(path, shape) -> sparse.csr_matrix:
    """Read a triplet file back into CSR form; shape is supplied by the caller.

    A partial trailing record or an index outside `shape` raises
    ContractError naming the file.
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
    return csr_from_triplets(
        records["val"], records["row"].astype(np.int64), records["col"].astype(np.int64), shape
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

    def load(self, key: str, shape) -> sparse.csr_matrix | None:
        """The cached matrix, or None on a miss. A damaged file is a miss,
        logged, and the caller's rebuild overwrites it."""
        path = self.path_for(key)
        if not path.exists():
            return None
        try:
            return load_triplets(path, shape)
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
