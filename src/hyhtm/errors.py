"""Exception types shared across the package."""


class HyhtmError(Exception):
    """Base class for all package errors."""


class ConfigurationError(HyhtmError):
    """Invalid or unusable configuration (bad values, unreadable resource files)."""


class CorpusError(HyhtmError):
    """Corpus-level input problem, e.g. no usable documents after filtering."""


class EmbeddingParseError(HyhtmError):
    """Malformed embedding file; the message names the file and line."""


class ShapeError(HyhtmError):
    """Dimension mismatch between matrices or vectors."""


class ContractError(HyhtmError):
    """A data contract between pipeline stages was violated."""


class InvariantError(HyhtmError):
    """An internal invariant failed; indicates a bug, not a user error."""


class DegenerateCorpusError(HyhtmError):
    """Corpus too small or too empty for the requested operation."""
