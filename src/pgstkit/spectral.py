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
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .errors import (
    DomainError,
    ExactDivisionError,
    InternalConsistencyError,
)
from .exact import (
    PolyMatrix,
    SparsePoly,
    _krylov,
    _min_poly,
    _powers,
    charpoly,
    krylov_min_poly,
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
    """Closed-walk counts at u and v agree: (M^k)_uu = (M^k)_vv for k < n.

    For symmetric M, (M^k)_uu - (M^k)_vv is the u entry minus the v entry
    of w = M^k (e_u + e_v). That sequence obeys the recurrence of P_plus, so
    it vanishes for all k once it vanishes for k < deg P_plus <= n: n - 1
    sparse products, compared as stored-form term dicts over one frame.
    """
    _check_pair(m, u, v)
    _, rows, z = _krylov(m, [int(k in (u, v)) for k in range(m.dimension)])
    return all(w[u] == w[v] for _, w in zip(range(m.dimension), _powers(rows, z)))


def decompose(m: PolyMatrix, u: int, v: int) -> CospectralDecomposition:
    """Relative decomposition at a cospectral pair.

    P_plus and P_minus come from one Krylov run each: modular images give a
    candidate, proven by one exact check at a single integer point
    (``exact._min_poly``). P_plus's run also decides the pair: its images
    compare entries u and v of each M(a)^k (e_u + e_v) over F_p, where
    residues that differ prove a mismatch, and its exact check compares the
    exact entries for k <= deg P_plus (enough, by the recurrence in
    ``is_cospectral``); a mismatch raises NotCospectralError. P_zero is
    ``charpoly(m, (P_plus, P_minus))``, the cofactor from power sums, and a
    failed check there is an engine bug: InternalConsistencyError. M holds
    at most two symbols, so no step meets a wider frame.
    """
    _check_pair(m, u, v)
    n = m.dimension
    p_plus = _min_poly(*_krylov(m, [int(k in (u, v)) for k in range(n)]), (u, v))
    p_minus = krylov_min_poly(m, [(k == u) - (k == v) for k in range(n)])
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

