"""Cospectrality tests and the relative decomposition of the characteristic
polynomial at a cospectral pair.

For a symmetric matrix M, vertices u and v are cospectral when deleting u
or v leaves the same characteristic polynomial; equivalently (Godsil and
Smith, Strongly cospectral vertices, arXiv 1709.07975), when the closed-walk
counts (M^k)_uu and (M^k)_vv agree for every k. There the walk modules of
e_u + e_v and e_u - e_v are M-invariant and orthogonal, so charpoly(M) is the
product of P_plus and P_minus, the minimal polynomials of M relative to
those two vectors, and a cofactor P_zero of degree n - deg P_plus - deg
P_minus. The triple (P_plus, P_minus, P_zero) with degrees and relative
traces is the decomposition everything downstream certifies against.
Cospectrality has one route, P_plus's Krylov run: see ``is_cospectral``.
"""

from __future__ import annotations

from contextlib import suppress
from dataclasses import dataclass
from functools import cached_property

from .errors import (
    DomainError,
    ExactDivisionError,
    InternalConsistencyError,
    NotCospectralError,
)
from .exact import (
    PolyMatrix,
    SparsePoly,
    _krylov,
    _min_poly,
    charpoly,
    poly_gcd_t,
    poly_trace,
)


@dataclass(frozen=True)
class CospectralDecomposition:
    """Relative factorization of charpoly(M) at a cospectral pair."""

    p_plus: SparsePoly
    p_minus: SparsePoly
    p_zero: SparsePoly
    deg_plus: int
    deg_minus: int
    deg_zero: int
    trace_plus: SparsePoly
    trace_minus: SparsePoly

    @cached_property
    def common_factor(self) -> SparsePoly:
        """gcd(P_plus, P_minus), computed once; 1 exactly when the pair is
        strongly cospectral."""
        return poly_gcd_t(self.p_plus, self.p_minus)

    def as_json_dict(self) -> dict:
        return {
            "p_plus": str(self.p_plus),
            "p_minus": str(self.p_minus),
            "p_zero": str(self.p_zero),
            "deg_plus": self.deg_plus,
            "deg_minus": self.deg_minus,
            "deg_zero": self.deg_zero,
            "trace_plus": str(self.trace_plus),
            "trace_minus": str(self.trace_minus),
        }


def _check_pair(m: PolyMatrix, u: int, v: int) -> None:
    n = m.dimension
    if not (0 <= u < n and 0 <= v < n):
        raise DomainError(f"vertices ({u},{v}) out of range 0..{n - 1}")
    if u == v:
        raise DomainError("cospectrality needs two distinct vertices")


def is_cospectral(m: PolyMatrix, u: int, v: int) -> bool:
    """Closed-walk counts at u and v agree: (M^k)_uu = (M^k)_vv for every k.

    For symmetric M, (M^k)_uu - (M^k)_vv is the u entry minus the v entry
    of M^k (e_u + e_v). That sequence obeys the recurrence of P_plus, so it
    vanishes for all k once it vanishes for k <= deg P_plus, which the exact
    check of P_plus's run (``exact._min_poly``, as in ``decompose``) proves.
    """
    _check_pair(m, u, v)
    with suppress(NotCospectralError):
        _min_poly(*_krylov(m, [int(k in (u, v)) for k in range(m.dimension)], pair=(u, v)), (u, v))
        return True
    return False


def decompose(m: PolyMatrix, u: int, v: int) -> CospectralDecomposition:
    """Relative decomposition at a cospectral pair.

    P_plus and P_minus come from one Krylov run each, on one preparation of
    M for the pair: modular images give a candidate, proven by one exact
    check at a single integer point (``exact._min_poly``). A pair symbol,
    one whose diagonal terms all sit at u and v, takes one grid point: the
    images run on M0, M with the pair symbols at 0. At a cospectral pair
    P_plus and P_minus are linear in the pair symbols' increment g, and each
    candidate is rebuilt from its run's moments as P0 - (g/2) Q. P_plus's
    run also decides the pair, as ``is_cospectral`` does: its images compare
    entries u and v of each M0(a)^k (e_u + e_v) over F_p, where residues
    that differ prove a mismatch, and its exact check compares the exact
    entries of M^k (e_u + e_v) for k <= deg P_plus; a mismatch raises
    NotCospectralError. P_minus's run compares nothing: its candidate
    relies on that proof, so it comes second. P_zero is
    ``charpoly(m, (P_plus, P_minus))``, the cofactor from power sums, and a
    failed check there is an engine bug: InternalConsistencyError. M holds
    at most two symbols, so no step meets a wider frame.
    """
    _check_pair(m, u, v)
    n = m.dimension
    mat, plus, minus = _krylov(m, *([(k == u) + s * (k == v) for k in range(n)] for s in (1, -1)), pair=(u, v))
    p_plus = _min_poly(mat, plus, (u, v))
    p_minus = _min_poly(mat, minus)
    try:
        p_zero = charpoly(m, (p_plus, p_minus))
    except ExactDivisionError as exc:
        raise InternalConsistencyError(
            "charpoly is not divisible by P_plus * P_minus at a cospectral pair"
        ) from exc
    return CospectralDecomposition(
        p_plus=p_plus,
        p_minus=p_minus,
        p_zero=p_zero,
        deg_plus=p_plus.deg_t(),
        deg_minus=p_minus.deg_t(),
        deg_zero=p_zero.deg_t(),
        trace_plus=poly_trace(p_plus),
        trace_minus=poly_trace(p_minus),
    )

