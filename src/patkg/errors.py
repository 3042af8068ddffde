"""Exception hierarchy shared across the package."""


class PatkgError(Exception):
    """Base class for all errors raised by this package."""


# -- graph / ingestion ---------------------------------------------------

class SchemaViolation(PatkgError):
    """A triple's head/tail kinds do not match its relation's schema."""


class DuplicateTriple(PatkgError):
    """Triple already present in the store."""


class UnknownEntity(PatkgError):
    """Referenced entity is not in the vocabulary."""


class EmptyStore(PatkgError):
    """Operation requires a non-empty triple store."""


class PoolTooSmall(PatkgError):
    """A corruption pool is empty: no candidate entity can replace the chosen side."""


class InvalidConfig(PatkgError):
    """A configuration value is outside its allowed range."""


class ParseError(PatkgError):
    """Malformed input file; message carries line number and reason."""


# -- models / trainer -----------------------------------------------------

class UnknownOrdinal(PatkgError):
    """Entity ordinal outside the parameter table."""


class NumericalDivergence(PatkgError):
    """Training produced a non-finite parameter or loss."""


class FingerprintMismatch(PatkgError):
    """Model parameters were trained against a different vocabulary."""


class ArchiveError(PatkgError):
    """Archive file is malformed or truncated; message carries byte offset."""


# -- evaluator -------------------------------------------------------------

class EmptyTestSet(PatkgError):
    """Evaluation requires at least one test triple."""


# -- proximity / expansion --------------------------------------------------

class ZeroVector(PatkgError):
    """Cosine similarity is undefined for a zero-norm vector."""


class UnsupportedModel(PatkgError):
    """Cross-kind transformation undefined for this model's relation parameters."""


class EmptyHome(PatkgError):
    """Agent has no home domains."""


class TargetInHome(PatkgError):
    """Requested target group is already a home domain."""


class TooFewTargets(PatkgError):
    """Percentiles need at least two target domains."""


class EmptyPortfolio(PatkgError):
    """Agent portfolio holds no patent records."""


class UnknownGroup(PatkgError):
    """Group code missing from the study universe."""


class EmptyProfile(PatkgError):
    """Operation requires a non-empty expansion profile."""


class InconsistentModelSets(PatkgError):
    """Per-agent AUC maps do not cover the same set of models."""
