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
    _charpoly,
    _krylov,
    _PROBE_PRIME,
    _images,
    _min_poly,
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
    check of P_plus's run (``exact._min_poly``, as in ``decompose``) proves.
    """
    _check_pair(m, u, v)
    with suppress(NotCospectralError):
        _min_poly(*_krylov(m, [int(k in (u, v)) for k in range(m.dimension)], pair=(u, v)), (u, v))
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
        _images(diags, [z] * len(diags), edges, _PROBE_PRIME, (u, v))
        return False
    return True


def decompose(m: PolyMatrix, u: int, v: int) -> CospectralDecomposition:
    """Relative decomposition at a cospectral pair.

    P_plus and P_minus come from one Krylov run each, on one preparation of
    M for the pair: modular images give a candidate, proven by one exact
    check at a single integer point (``exact._min_poly``). The preparation
    splits M as M0 + g (E_uu + E_vv), g = M_uu, M0 free of diagonal entries
    at u and v, or raises NotCospectralError if M_uu != M_vv. The images run
    on M0, so a symbol found only at the pair takes one grid point, and at a
    cospectral pair each candidate is rebuilt from its run's moments as
    P|₀ - (g/2) Q, with P|₀ M0's relative minimal polynomial. P_plus's run
    also decides the pair, as ``is_cospectral`` does: its images compare
    entries u and v of each M0(a)^k (e_u + e_v) over F_p, where residues
    that differ prove a mismatch, and its exact check compares the exact
    entries of M^k (e_u + e_v) for k <= deg P_plus; a mismatch raises
    NotCospectralError. P_minus's run compares nothing: its candidate
    relies on that proof, so it comes second. P_zero is 1 when deg P_plus +
    deg P_minus = n. Otherwise, as the walk modules of e_u +- e_v contain
    e_u and e_v, M0 and M agree on their orthogonal complement, so P_zero
    is det(tI - M0) / (P_plus|₀ P_minus|₀): ``exact._charpoly`` on the same
    M0, its chains continued from the echelon of P_plus's first images,
    then from e_u - e_v. A remainder there is an engine bug:
    InternalConsistencyError.
    """
    _check_pair(m, u, v)
    n = m.dimension
    sides = [[(k == u) + s * (k == v) for k in range(n)] for s in (1, -1)]
    mat, plus, minus = _krylov(m, *sides, pair=(u, v))
    kept: list = []
    p_plus, plus_m0 = _min_poly(mat, plus, (u, v), kept)
    p_minus, minus_m0 = _min_poly(mat, minus)
    p_zero = SparsePoly.one()
    if p_plus.deg_t() + p_minus.deg_t() != n:
        try:
            p_zero = _charpoly(mat, plus_m0 * minus_m0, kept, sides[1])
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

