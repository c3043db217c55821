"""Exception types shared across the package.

``DataError`` subclasses describe problems with user-supplied inputs
(malformed files, schema violations, rejected records) and map to exit
code 2 in the command-line runner; a NaN or Inf raised as
``autodiff.NonFiniteError`` maps to exit code 3. Everything else is a
programming error and is allowed to surface as a traceback.
"""


class DataError(Exception):
    """Invalid or unusable input data."""


class ParseError(DataError):
    """A row or value could not be parsed against the expected schema."""


class SchemaError(DataError):
    """Shapes or columns do not match what a model or pipeline expects."""


class RecordRejectedError(DataError):
    """A record was rejected by a documented quality rule (not a parse bug)."""


class CheckpointError(DataError):
    """A checkpoint or dataset file is missing, corrupt, or incompatible."""


class NotFittedError(RuntimeError):
    """A preprocessor's ``transform`` was called before its ``fit``."""
