"""Cospectrality tests and the relative decomposition of the characteristic
polynomial at a cospectral pair.

For a symmetric matrix M and vertices u, v, cospectrality means the vertex
deleted characteristic polynomials agree. Equivalently (Godsil and Smith,
Strongly cospectral vertices, arXiv 1709.07975), the closed-walk counts
(M^k)_uu and (M^k)_vv agree for every k. Both tests here read them from the
Krylov vectors M^k (e_u + e_v): ``is_cospectral`` for k < n, and
``decompose`` from the vectors that the Krylov run for P_plus builds anyway.
When it holds, the minimal polynomials of M relative to e_u + e_v and
e_u - e_v (written P_plus and P_minus) are coprime-squarefree factors of
the characteristic polynomial, and the quotient

    P_zero = charpoly(M) / (P_plus * P_minus)

is again a polynomial. The triple (P_plus, P_minus, P_zero) together with
degrees and relative traces is the decomposition everything downstream
certifies against.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

from .errors import (
    DomainError,
    ExactDivisionError,
    InternalConsistencyError,
    NotCospectralError,
)
from .exact import (
    MAX_PARAM_SYMBOLS,
    PolyMatrix,
    SparsePoly,
    _krylov,
    _min_poly,
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

    By Godsil and Smith (Strongly cospectral vertices, arXiv 1709.07975)
    this holds for every k exactly when u and v are cospectral. For
    symmetric M the difference (M^k)_uu - (M^k)_vv is the u entry minus
    the v entry of w = M^k (e_u + e_v). That sequence obeys the recurrence
    of P_plus, the minimal polynomial of M relative to e_u + e_v, so it
    vanishes for all k once it vanishes for k < deg P_plus <= n: n - 1
    sparse products, compared as stored-form term dicts over one frame.
    """
    _check_pair(m, u, v)
    _, powers = _krylov(m, [int(k in (u, v)) for k in range(m.dimension)])
    return all(w[u] == w[v] for _, w in zip(range(m.dimension), powers))


def decompose(m: PolyMatrix, u: int, v: int) -> CospectralDecomposition:
    """Relative decomposition at a cospectral pair.

    P_plus and P_minus come from one Krylov run each and P_zero from one
    exact division of charpoly(M). P_plus's run also decides the pair: it
    compares entries u and v of each M^k (e_u + e_v), k <= deg P_plus, before
    eliminating it (enough, by the recurrence in ``is_cospectral``), and a
    mismatch raises NotCospectralError. A frame past the symbol cap, which
    ``charpoly`` refuses, first meets ``is_cospectral``'s own cap checks in
    their order. A failed division of charpoly(M) is an engine bug and
    raises InternalConsistencyError.
    """
    _check_pair(m, u, v)
    n = m.dimension
    if len(m.symbols()) > MAX_PARAM_SYMBOLS and not is_cospectral(m, u, v):
        raise NotCospectralError(f"vertices ({u},{v}) are not cospectral")
    frame, powers = _krylov(m, [int(k in (u, v)) for k in range(n)])

    def closed_walks_agree():
        for w in powers:
            if w[u] != w[v]:
                raise NotCospectralError(f"vertices ({u},{v}) are not cospectral")
            yield w

    p_plus = _min_poly(frame, closed_walks_agree())
    p_minus = krylov_min_poly(m, [(k == u) - (k == v) for k in range(n)])
    phi = charpoly(m)
    try:
        p_zero = phi.divexact(p_plus * p_minus)
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


def is_strongly_cospectral(m: PolyMatrix, u: int, v: int) -> bool:
    """Cospectral with coprime relative factors P_plus and P_minus."""
    try:
        dec = decompose(m, u, v)
    except NotCospectralError:
        return False
    return dec.common_factor.is_one()


def q_expansion_residual(m: PolyMatrix, u: int, v: int, sym: str) -> SparsePoly:
    """Residual of the potential-expansion identity at a cospectral pair.

    For D the diagonal matrix with sym at u and v only,

        charpoly(M + D) - [charpoly(M)
                           - 2*sym*charpoly(M_u)
                           + sym^2*charpoly(M_uv)]

    must vanish identically. The residual is returned so callers can
    assert it is zero; a nonzero residual falsifies the identity.
    """
    _check_pair(m, u, v)
    for row in m.entries:
        for x in row:
            if x.has_sym(sym):
                raise DomainError(f"symbol {sym!r} already occurs in the matrix")
    if not is_cospectral(m, u, v):
        raise NotCospectralError(f"vertices ({u},{v}) are not cospectral")
    q = SparsePoly.sym(sym)
    perturbed_rows = [
        [
            m.entry(i, j) + (q if i == j and i in (u, v) else SparsePoly.zero())
            for j in range(m.dimension)
        ]
        for i in range(m.dimension)
    ]
    perturbed = PolyMatrix(perturbed_rows)
    expected = (
        charpoly(m)
        - q.scale(2) * charpoly(m.delete([u]))
        + q * q * charpoly(m.delete([u, v]))
    )
    return charpoly(perturbed) - expected


class TraceMembership(NamedTuple):
    """Whether trace(P_plus) - sym and trace(P_minus) - sym drop the symbol."""

    plus_in_base: bool
    minus_in_base: bool


def trace_param_membership(dec: CospectralDecomposition, sym: str) -> TraceMembership:
    """Check that each relative trace is sym plus a sym-free constant.

    For a potential placed at the cospectral pair itself, both relative
    traces shift by exactly the symbol; for a potential placed at one
    outside vertex that sees the pair, only trace(P_plus) does.
    """
    plus = dec.trace_plus - SparsePoly.sym(sym)
    minus = dec.trace_minus - SparsePoly.sym(sym)
    return TraceMembership(
        plus_in_base=not plus.has_sym(sym),
        minus_in_base=not minus.has_sym(sym),
    )
