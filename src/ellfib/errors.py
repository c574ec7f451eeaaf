"""Exception hierarchy shared across the package.

DomainError covers violations of mathematical preconditions (wrong degree,
empty bundle, incompatible gluing data).  SchemaError covers malformed
input files and CLI payloads.  The CLI maps DomainError to exit code 1 and
SchemaError to exit code 2.
"""


class DomainError(Exception):
    """A mathematically invalid request or object."""


class SchemaError(Exception):
    """Malformed serialized input (missing keys, bad types, bad labels)."""


class BudgetExceeded(SchemaError):
    """A request whose closed-form size exceeds an explicit work budget."""


class WrongDegree(DomainError):
    """Transform input has the wrong fiberwise degree."""


class EmptyBundle(DomainError):
    """A bundle must contain at least one block."""


class NonPositiveRank(DomainError):
    """Block ranks and family ranks must be positive integers."""


class MissingSample(DomainError):
    """Cocycle or section data lacks a value at a required sample point."""


class IncompatibleFamily(DomainError):
    """Chartwise line-bundle data does not glue along the given cocycle."""


class InvalidGerbe(DomainError):
    """Gerbe data violates one of its structural conditions."""


class NonConstantLength(DomainError):
    """A section must assign the same number of points over every sample."""


class OverlapMismatch(DomainError):
    """Section values disagree on an overlap after translation."""


class WrongTotal(DomainError):
    """Point multiset does not sum to the class required by the bundle."""


class InvalidClass(DomainError):
    """Cohomology class input lies outside the admissible subspace."""


class WitnessMismatch(DomainError):
    """A computed certificate fails the identity it is meant to satisfy."""
