"""Cospectrality tests and the relative decomposition of the characteristic
polynomial at a cospectral pair.

For a symmetric matrix M and vertices u, v, cospectrality means the vertex
deleted characteristic polynomials agree. When it holds, the minimal
polynomials of M relative to e_u + e_v and e_u - e_v (written P_plus and
P_minus) are coprime-squarefree factors of the characteristic polynomial,
and the quotient

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
    PolyMatrix,
    SparsePoly,
    charpoly,
    krylov_min_poly,
    poly_gcd_t,
    poly_trace,
    unit_vector,
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


def is_cospectral(m: PolyMatrix, u: int, v: int, thorough: bool = False) -> bool:
    """Vertex-deleted characteristic polynomials at u and v agree.

    With thorough=True two independent equivalent conditions are also
    evaluated (closed-walk counts at u and v up to length 2n, and
    orthogonality of e_u - e_v against the Krylov space of e_u + e_v);
    disagreement between the three routes raises
    InternalConsistencyError instead of returning.
    """
    _check_pair(m, u, v)
    primary = charpoly(m.delete([u])) == charpoly(m.delete([v]))
    if not thorough:
        return primary

    n = m.dimension
    walks_equal = True
    wu = unit_vector(n, u)
    wv = unit_vector(n, v)
    for _ in range(2 * n):
        wu = m.matvec(wu)
        wv = m.matvec(wv)
        if wu[u] != wv[v]:
            walks_equal = False
            break

    plus = [
        SparsePoly.one() if k in (u, v) else SparsePoly.zero() for k in range(n)
    ]
    ortho = True
    w = plus
    for _ in range(2 * n - 1):
        if w[u] != w[v]:
            ortho = False
            break
        w = m.matvec(w)
    else:
        if w[u] != w[v]:
            ortho = False

    if walks_equal != primary or ortho != primary:
        raise InternalConsistencyError(
            f"cospectrality routes disagree at ({u},{v}): "
            f"charpoly={primary} walks={walks_equal} krylov-orthogonality={ortho}"
        )
    return primary


def decompose(m: PolyMatrix, u: int, v: int) -> CospectralDecomposition:
    """Relative decomposition at a cospectral pair.

    Computes charpoly(M_u) and charpoly(M_v) once; when they differ the
    pair is not cospectral and NotCospectralError is raised carrying both.
    The exact division defining P_zero cannot fail for a genuinely
    cospectral pair; if it does, that is an engine bug and
    InternalConsistencyError propagates.
    """
    _check_pair(m, u, v)
    phi_u, phi_v = charpoly(m.delete([u])), charpoly(m.delete([v]))
    if phi_u != phi_v:
        raise NotCospectralError(f"vertices ({u},{v}) are not cospectral", (phi_u, phi_v))
    n = m.dimension
    e_u = unit_vector(n, u)
    e_v = unit_vector(n, v)
    plus = [a + b for a, b in zip(e_u, e_v)]
    minus = [a - b for a, b in zip(e_u, e_v)]
    p_plus = krylov_min_poly(m, plus)
    p_minus = krylov_min_poly(m, minus)
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
    perturbed = PolyMatrix(perturbed_rows, m.index_labels)
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
