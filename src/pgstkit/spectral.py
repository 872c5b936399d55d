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
Cospectrality has one route, P_plus's Krylov run, the first chain of the
decomposition's: see ``is_cospectral``.
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
    _factors,
    _krylov,
    _PROBE_PRIME,
    _images,
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

    @cached_property
    def _texts(self) -> tuple[str, ...]:
        """The five polynomials' strings, formatted once for every report."""
        return tuple(map(str, (self.p_plus, self.p_minus, self.p_zero, self.trace_plus, self.trace_minus)))

    def as_json_dict(self) -> dict:
        p_plus, p_minus, p_zero, trace_plus, trace_minus = self._texts
        return {
            "p_plus": p_plus,
            "p_minus": p_minus,
            "p_zero": p_zero,
            "deg_plus": self.deg_plus,
            "deg_minus": self.deg_minus,
            "deg_zero": self.deg_zero,
            "trace_plus": trace_plus,
            "trace_minus": trace_minus,
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
    check of P_plus's run proves: ``exact._factors`` with e_u + e_v its one
    start vector, the first of ``decompose``'s two.
    """
    _check_pair(m, u, v)
    with suppress(NotCospectralError):
        mat, z = _krylov(m, [int(k in (u, v)) for k in range(m.dimension)], pair=(u, v))
        _factors(mat, [z], (u, v), False)
        return True
    return False


def is_refuted(m: PolyMatrix, u: int, v: int) -> bool:
    """Whether the split at the pair (``exact._KrylovMatrix``) or the first
    images of ``is_cospectral``'s run tell u and v apart, which proves them
    not cospectral; False proves nothing. No candidate, no exact check."""
    _check_pair(m, u, v)
    z = [int(k in (u, v)) for k in range(m.dimension)]
    with suppress(NotCospectralError):
        mat, _ = _krylov(m, z, pair=(u, v))
        if mat.first is None:  # the first prime divides a denominator of M
            return False
        _, diags, edges = mat.first
        _images(diags, [[z]] * len(diags), edges, _PROBE_PRIME, (u, v), False)
        return False
    return True


def decompose(m: PolyMatrix, u: int, v: int) -> CospectralDecomposition:
    """Relative decomposition at a cospectral pair.

    P_plus, P_minus and P_zero come from one loop over primes on one
    preparation of M for the pair (``exact._factors``): each round, at each
    point of a grid, one echelon over F_p of chains from e_u + e_v, from
    e_u - e_v in the quotient by the first chain, then, while P_zero still
    needs primes, from unit vectors. The preparation splits M as M0 +
    g (E_uu + E_vv), g = M_uu, M0 free of diagonal entries at u and v, or
    raises NotCospectralError if M_uu != M_vv. The images run on M0, so a
    symbol found only at the pair takes one grid point, and at a cospectral
    pair each side's candidate is rebuilt from its chain's moments as
    P|₀ - (g/2) Q, with P|₀ M0's relative minimal polynomial, and proven by
    one exact check at a single integer point. The first chain also decides
    the pair, as ``is_cospectral`` does: its images compare entries u and v
    of each M0(a)^k (e_u + e_v) over F_p, where residues that differ prove a
    mismatch, and P_plus's exact check compares the exact entries of
    M^k (e_u + e_v) for k <= deg P_plus; a mismatch raises
    NotCospectralError. P_minus's check compares nothing: its candidate
    relies on that proof, so it is checked only once P_plus is proven. Then
    the walk modules of e_u +- e_v are orthogonal, so they meet only in 0,
    and the second chain, in the quotient by the first, closes at P_minus|₀.
    P_zero is 1 when deg P_plus + deg P_minus = n. Otherwise, as the walk
    modules contain e_u and e_v, M0 and M agree on their orthogonal
    complement, so P_zero is det(tI - M0) / (P_plus|₀ P_minus|₀), with
    det(tI - M0) the product of each point's chain relations. A remainder
    there is an engine bug: InternalConsistencyError.
    """
    _check_pair(m, u, v)
    n = m.dimension
    mat, *sides = _krylov(m, *([(k == u) + s * (k == v) for k in range(n)] for s in (1, -1)), pair=(u, v))
    try:
        (p_plus, p_minus), p_zero = _factors(mat, sides, (u, v), True)
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

