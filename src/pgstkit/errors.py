"""Error hierarchy shared across the package.

Three disjoint failure families, plus one that must never be caught in
normal operation:

* DomainError: the input is well formed but outside an operation's
  mathematical domain (a precondition fails, a symbol is missing, a
  pair of vertices is not cospectral, ...).
* StructuralError: the input object itself is malformed (asymmetric
  matrix, partition that does not cover the vertex set, bad index).
* ParseError: text could not be parsed (graph files, polynomials,
  CLI payloads).
* InternalConsistencyError: an identity that must hold by theorem
  failed inside the engine. This always indicates a bug and is raised
  loudly instead of being papered over.
"""

from __future__ import annotations


class PgstError(Exception):
    """Base class for all package errors."""


class DomainError(PgstError):
    """Input outside an operation's mathematical domain."""


class StructuralError(PgstError):
    """Malformed input object (bad index, asymmetry, bad partition)."""


class ParseError(PgstError):
    """Unparseable text input."""


class NotCospectralError(DomainError):
    """The vertex pair is not cospectral, so the decomposition is undefined.

    Raised by ``decompose`` when the closed-walk counts at the pair differ."""


class NotLinearInParamError(DomainError):
    """The polynomial has degree 2 or more in the given parameter symbol."""


class ZeroEigenvalueObstruction(DomainError):
    """The deleted matrix has eigenvalue 0, so every even-length interior
    path shares an eigenvalue with it and no unshifted glue length can pass
    the disjointness check. Callers should switch to a shifted-path
    construction (build_glue_pot / build_change_trace)."""


class ExactDivisionError(PgstError):
    """Polynomial division left a remainder where exactness was required."""


class InternalConsistencyError(PgstError):
    """A theorem-backed identity failed; this is a bug in the engine."""
