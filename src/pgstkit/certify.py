"""Certificates for pretty good state transfer (PGST) between cospectral
vertices, and constructions that manufacture certifiable instances.

Verdict semantics:

* ProvenPGST: exact sufficient conditions verified symbolically. For a
  graph carrying parameter symbols this certifies the family: transfer
  approaches fidelity 1 for every choice of algebraically independent
  transcendental values of the symbols (and all but countably many
  rational rays).
* ProvenNoPGST: an exact integer eigenvalue relation with odd minus-side
  coefficient sum exists identically in the parameters, so the phase
  alignment required for PGST is impossible no matter the potential.
* HeuristicObstruction: a numerically detected candidate relation at
  finite precision. Never treated as a proof.
* Inconclusive: some hypothesis of the applied sufficient condition
  failed; the certificate names the first one that did.

The trace/degree route is one directional: it proves PGST when it
succeeds, and proves nothing when it fails. Only the parity route may
emit ProvenNoPGST.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, NamedTuple, Sequence

from .errors import (
    DomainError,
    InternalConsistencyError,
    NotCospectralError,
    ZeroEigenvalueObstruction,
)
from .exact import (
    PolyMatrix,
    SparsePoly,
    charpoly,
    is_irreducible_linear_param,
    poly_gcd_t,
    split_linear_param,
)
from .graphs import (
    Graph,
    Partition,
    add_potential,
    coarsest_equitable_refinement,
    glue,
    path_graph,
    to_matrix,
    verify_equitable,
)
from .spectral import CospectralDecomposition, decompose, is_cospectral

if TYPE_CHECKING:  # numpy loads in the functions that use it
    import numpy as np


class Verdict(str, enum.Enum):
    PROVEN_PGST = "ProvenPGST"
    PROVEN_NO_PGST = "ProvenNoPGST"
    HEURISTIC_OBSTRUCTION = "HeuristicObstruction"
    INCONCLUSIVE = "Inconclusive"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass(frozen=True)
class Certificate:
    verdict: Verdict
    evidence: dict

    def as_json_dict(self) -> dict:
        return {"verdict": self.verdict.value, "evidence": self.evidence}


class Relation(NamedTuple):
    """Integer relation sum(l_i * lambda_i) + sum(m_j * mu_j) ~ 0 with
    sum(l) + sum(m) = 0 and sum(m) odd."""

    l: tuple[int, ...]
    m: tuple[int, ...]
    residual: float


# ---------------------------------------------------------------------------
# the trace/degree sufficient condition


def _inconclusive(failed: str, dec: CospectralDecomposition, **details) -> Certificate:
    evidence = {"failed_hypothesis": failed}
    evidence.update(dec.as_json_dict())
    evidence.update({k: v for k, v in details.items()})
    return Certificate(Verdict.INCONCLUSIVE, evidence)


def _run_tr_deg_checks(
    dec: CospectralDecomposition,
    sym: str,
    extra: dict,
    membership_sym: str | None = None,
) -> Certificate:
    """Shared certificate core: strong cospectrality, then irreducibility of
    both relative factors (linear in sym over the remaining coefficient
    field), then separation of the average relative eigenvalues.

    With membership_sym set, separation is instead decided by one-sided
    trace membership: trace_plus must contain that symbol and trace_minus
    must not. That implies the generic separation, which is still recorded
    and double-checked.
    """
    g = dec.common_factor
    if not g.is_one():
        return _inconclusive("strong_cospectrality", dec, common_factor=str(g), **extra)
    for tag, p in (("plus", dec.p_plus), ("minus", dec.p_minus)):
        if p.deg_in(sym) != 1:
            return _inconclusive(
                f"irreducibility_{tag}",
                dec,
                reason=f"P_{tag} is not linear in {sym}",
                **extra,
            )
        if not is_irreducible_linear_param(p, sym):
            return _inconclusive(
                f"irreducibility_{tag}",
                dec,
                reason=f"P_{tag} factors over the coefficient field",
                **extra,
            )
    separation = dec.trace_plus.scale(dec.deg_minus) - dec.trace_minus.scale(dec.deg_plus)
    evidence = {
        "strongly_cospectral": True,
        "irreducible_plus": True,
        "irreducible_minus": True,
        "separation": str(separation),
        "symbol": sym,
    }
    if membership_sym is None:
        if separation.is_zero():
            return _inconclusive(
                "trace_degree_separation",
                dec,
                reason="average relative eigenvalues coincide identically",
                **extra,
            )
    else:
        plus_has = dec.trace_plus.has_sym(membership_sym)
        minus_has = dec.trace_minus.has_sym(membership_sym)
        if not plus_has or minus_has:
            return _inconclusive(
                "trace_degree_separation",
                dec,
                reason=(
                    f"expected {membership_sym} in the plus trace only; "
                    f"found plus={plus_has}, minus={minus_has}"
                ),
                **extra,
            )
        if separation.is_zero():
            raise InternalConsistencyError(
                "one-sided trace membership with identically zero separation"
            )
        evidence["trace_membership_symbol"] = membership_sym
    evidence.update(dec.as_json_dict())
    evidence.update(extra)
    return Certificate(Verdict.PROVEN_PGST, evidence)


def certify_tr_deg(
    g: Graph, u: int, v: int, sym: str, dec: CospectralDecomposition | None = None
) -> Certificate:
    """Certify PGST for a graph carrying the symbol sym at u and v.

    Preconditions (DomainError when violated): u, v distinct; sym occurs
    with coefficient exactly 1 in the potentials at u and at v and nowhere
    else; substituting sym = 0 leaves a cospectral pair.

    dec, when given, must be decompose(to_matrix(g), u, v); a caller that
    already holds it saves recomputing it. A cospectral pair stays
    cospectral at sym = 0, so only a failed decomposition needs the base
    check: ``is_cospectral`` on the graph with -sym added at u and v, which
    is the graph at sym = 0 because sym has coefficient 1 there.

    Verdict is ProvenPGST or Inconclusive; this route never proves a
    negative.
    """
    if u == v:
        raise DomainError("need two distinct vertices")
    _require_symbol_at_pair(g, u, v, sym)
    if dec is None:
        try:
            dec = decompose(to_matrix(g), u, v)
        except NotCospectralError as exc:
            base = add_potential(g, (u, v), -SparsePoly.sym(sym))
            if not is_cospectral(to_matrix(base), u, v):
                raise DomainError(
                    f"vertices ({u},{v}) are not cospectral once {sym} is set to 0"
                ) from exc
            raise InternalConsistencyError(
                "pair potential broke cospectrality; the expansion identity must have failed"
            ) from exc
    return _run_tr_deg_checks(dec, sym, {})


def _require_symbol_at_pair(g: Graph, u: int, v: int, sym: str) -> None:
    for x in (u, v):
        p = g.potential(x)
        if p.deg_in(sym) != 1:
            raise DomainError(
                f"potential at vertex {x} must carry {sym} linearly, got {p}"
            )
        _, coeff = split_linear_param(p, sym)
        if not coeff.is_one():
            raise DomainError(
                f"potential at vertex {x} must carry {sym} with coefficient 1, got {p}"
            )
    for x in range(g.n):
        if x in (u, v):
            continue
        if g.potential(x).has_sym(sym):
            raise DomainError(f"symbol {sym!r} also occurs at vertex {x}")


# ---------------------------------------------------------------------------
# the parity obstruction


def parity_obstruction(dec: CospectralDecomposition) -> Certificate | None:
    """ProvenNoPGST certificate from the all-ones relation, when it applies.

    If both relative factors have the same odd degree r and identical
    traces, then taking every l_i = 1 and every m_j = -1 gives an exact
    eigenvalue relation with coefficient sum 0 and minus-side sum -r odd.
    Such a relation makes the phase alignment required for PGST impossible.
    When the traces carry a parameter symbol, equality as polynomials means
    the obstruction holds for every value of the potential. Returns None
    when the conditions do not hold.
    """
    r, s = dec.deg_plus, dec.deg_minus
    if r != s or r % 2 == 0:
        return None
    if dec.trace_plus != dec.trace_minus:
        return None
    evidence = {
        "relation_l": [1] * r,
        "relation_m": [-1] * s,
        "coefficient_sum": 0,
        "minus_side_sum": -s,
        "trace_difference": "0",
        "holds_for_every_potential_value": bool(
            dec.trace_plus.symbols or dec.trace_minus.symbols
        ),
    }
    evidence.update(dec.as_json_dict())
    return Certificate(Verdict.PROVEN_NO_PGST, evidence)


# ---------------------------------------------------------------------------
# numeric integer relation search (heuristic only)


EXHAUSTIVE_LIMIT = 10**7


def _searched_bound(count: int, bound: int) -> int:
    """Largest b <= bound whose coefficient box (2b + 1)^count has at most
    EXHAUSTIVE_LIMIT points; 0 when even b = 1 does not fit."""
    if (2 * bound + 1) ** count <= EXHAUSTIVE_LIMIT:
        return bound
    # the float root is within 1/2 of the true one, so rounding gives the
    # integer root or one more
    side = round(EXHAUSTIVE_LIMIT ** (1.0 / count))
    side -= side**count > EXHAUSTIVE_LIMIT
    return (side - 1) // 2


def _check_relation_limits(bound: int, precision: float) -> None:
    """Refuse a coefficient bound below 1 or a non-positive or non-finite precision."""
    if bound < 1:
        raise DomainError(f"coefficient bound must be >= 1, got {bound}")
    if not 0 < precision < float("inf"):
        raise DomainError(f"precision must be positive and finite, got {precision}")


def integer_relation_search(
    lambdas: Sequence[float],
    mus: Sequence[float],
    bound: int,
    precision: float,
) -> list[Relation]:
    """Every relation sum(l.lam) + sum(m.mu) ~ 0 within precision, subject
    to sum(l) + sum(m) = 0, sum(m) odd, and |coefficients| <= b.

    b is the requested bound, lowered where needed so that the box
    (2b + 1)^(r + s) has at most EXHAUSTIVE_LIMIT = 10^7 points; with more
    than 14 values even b = 1 does not fit, and the result is empty. The
    box is searched completely, so an empty result means that no relation
    exists within b.

    Split and match (Horowitz-Sahni): each half of the box is enumerated,
    grouped by coefficient sum and minus-side parity and sorted by value,
    and halves whose sums and values cancel are matched. Relations have
    their first nonzero coefficient positive and are sorted by coefficient
    mass.
    """
    import numpy as np

    _check_relation_limits(bound, precision)
    r, d = len(lambdas), len(lambdas) + len(mus)
    xs = [float(x) for x in lambdas] + [float(x) for x in mus]
    if not all(math.isfinite(x) for x in xs):
        raise DomainError("relation search needs finite values")
    b = _searched_bound(d, bound)
    if d < 2 or b == 0:  # a nonzero vector with coefficient sum 0 has two entries
        return []
    h = d // 2
    left, right = _half_box(h, b), _half_box(d - h, b)
    lv, rv = left @ np.array(xs[:h]), right @ np.array(xs[h:])
    minus = np.arange(d) >= r
    # a left half with key k pairs with right halves whose wanted key is k:
    # the sums cancel and the two minus-side parities add up to odd
    lkey = 2 * left.sum(axis=1) + left[:, minus[:h]].sum(axis=1) % 2
    rkey = -2 * right.sum(axis=1) + 1 - right[:, minus[h:]].sum(axis=1) % 2
    order = np.lexsort((rv, rkey))
    right, rv, rkey = right[order], rv[order], rkey[order]
    # matches within precision plus the rounding of the two float sums
    slack = precision + d * 2.0**-52 * b * sum(abs(x) for x in xs)
    pairs = []
    for key in np.unique(lkey):
        lo, hi = np.searchsorted(rkey, key), np.searchsorted(rkey, key, side="right")
        rows = np.flatnonzero(lkey == key)
        start = lo + np.searchsorted(rv[lo:hi], -lv[rows] - slack)
        stop = lo + np.searchsorted(rv[lo:hi], -lv[rows] + slack, side="right")
        counts = stop - start
        # left row rows[i] pairs with right rows start[i] .. stop[i] - 1
        matched = np.arange(counts.sum()) + np.repeat(start - np.cumsum(counts) + counts, counts)
        pairs.append(np.hstack([left[np.repeat(rows, counts)], right[matched]]))
    vecs = np.concatenate(pairs)
    # the residual is summed on the representative whose first nonzero
    # coefficient is negative, then negated: an exact cancellation reads -0.0
    first = vecs[np.arange(len(vecs)), (vecs != 0).argmax(axis=1)]
    found = []
    for coeffs in vecs[first < 0].tolist():
        residual = sum(c * x for c, x in zip(coeffs, xs))
        if abs(residual) < precision:
            vec = tuple(-c for c in coeffs)
            found.append(Relation(vec[:r], vec[r:], -residual))
    return sorted(found, key=lambda rel: (sum(abs(c) for c in rel.l + rel.m), rel.l + rel.m))


def _half_box(k: int, b: int) -> np.ndarray:
    """All coefficient vectors in [-b, b]^k, one per row, in lexicographic order."""
    import numpy as np

    return np.indices((2 * b + 1,) * k).reshape(k, -1).T - b


def heuristic_obstruction(
    lambdas: Sequence[float],
    mus: Sequence[float],
    bound: int,
    precision: float,
) -> Certificate | None:
    """Wrap surviving relations in a HeuristicObstruction certificate.

    Each candidate must re-verify at four times tighter precision; ones
    that only barely passed are dropped. Returns None when nothing
    survives. The evidence's "bound" is the bound actually searched, which
    integer_relation_search may have lowered to fit its box limit. Never a
    proof: eigenvalues are floating point.
    """
    relations = integer_relation_search(lambdas, mus, bound, precision)
    verified = [rel for rel in relations if abs(rel.residual) < precision / 4]
    if not verified:
        return None
    evidence = {
        "relations": [
            {"l": list(rel.l), "m": list(rel.m), "residual": rel.residual}
            for rel in verified
        ],
        "bound": _searched_bound(len(lambdas) + len(mus), bound),
        "precision": precision,
        "reverified_at": precision / 4,
        "lambdas": [float(x) for x in lambdas],
        "mus": [float(x) for x in mus],
    }
    return Certificate(Verdict.HEURISTIC_OBSTRUCTION, evidence)


# ---------------------------------------------------------------------------
# constructions


def path_charpoly(m: int) -> SparsePoly:
    """Characteristic polynomial of the unweighted path on m vertices."""
    if m < 0:
        raise DomainError(f"negative path size {m}")
    prev, cur = SparsePoly.zero(), SparsePoly.one()  # P_{-1} and P_0
    for _ in range(m):
        prev, cur = cur, SparsePoly.t() * cur - prev
    return cur


def _primes_upto(limit: int) -> list[int]:
    sieve = [True] * (limit + 1)
    sieve[0:2] = [False, False]
    for i in range(2, int(limit**0.5) + 1):
        if sieve[i]:
            sieve[i * i :: i] = [False] * len(sieve[i * i :: i])
    return [i for i, ok in enumerate(sieve) if ok]


def _require_cospectral(g: Graph, u: int, v: int) -> PolyMatrix:
    """The matrix of g; DomainError unless u and v are cospectral in it."""
    m = to_matrix(g)
    if not is_cospectral(m, u, v):
        raise DomainError(f"vertices ({u},{v}) are not cospectral")
    return m


MAX_GLUE_PRIME = 1000


def choose_glue_length(g: Graph, u: int, v: int) -> int:
    """Smallest even glue length q = 2p, p prime <= 1000, whose interior
    path spectrum avoids the spectrum of the graph with u and v deleted.

    The interior of an even-length path always has eigenvalue 0, so if the
    deleted matrix is singular no q can work and
    ZeroEigenvalueObstruction is raised: use build_glue_pot or
    build_change_trace instead, which shift the path spectrum away.
    """
    deleted = charpoly(_require_cospectral(g, u, v).delete([u, v]))
    if deleted.coeff_t(0).is_zero():
        raise ZeroEigenvalueObstruction(
            "the matrix with u and v deleted has eigenvalue 0, which every "
            "even glue length shares; use build_glue_pot or build_change_trace"
        )
    for p in _primes_upto(MAX_GLUE_PRIME):
        interior = path_charpoly(2 * p - 1)
        if poly_gcd_t(deleted, interior).is_one():
            return 2 * p
    raise DomainError(
        f"no prime p <= {MAX_GLUE_PRIME} gives a disjoint interior path spectrum"
    )


MAX_PATH_SHIFT = 100000


def choose_path_shift(g: Graph, u: int, v: int, k: int) -> int:
    """Smallest integer c >= 0 such that the interior of a k-vertex path with
    constant potential c has spectrum disjoint from the (u,v)-deleted
    spectrum of g. Terminates because the path spectrum lies in
    (c - 2, c + 2) and the deleted spectrum is bounded. DomainError unless
    u and v are cospectral in g, checked on the one matrix of g it builds."""
    if k < 3:
        raise DomainError(f"need at least 3 path vertices, got {k}")
    deleted = charpoly(_require_cospectral(g, u, v).delete([u, v]))
    interior = path_charpoly(k - 2)
    for c in range(MAX_PATH_SHIFT):
        if poly_gcd_t(deleted, interior.shift_t(c)).is_one():
            return c
    raise InternalConsistencyError("no shift found; the spectra are bounded, so this is a bug")


def build_glue_pot(g: Graph, u: int, v: int, k: int) -> Graph:
    """Glue a k-vertex path (k odd) carrying a constant integer potential
    between u and v, choosing the potential so the exact disjointness check
    passes.

    The identified endpoints receive the path potential on top of whatever
    they carry, which is what keeps the attachment a clean two-sum.
    """
    if k < 3 or k % 2 == 0:
        raise DomainError(f"glue-pot path needs an odd vertex count >= 3, got {k}")
    path = path_graph(k)  # checks the vertex bound before choose_path_shift's O(k^2) work
    c = choose_path_shift(g, u, v, k)  # and the base check
    shifted = Graph(k, path.edges, dict.fromkeys(range(k), c), path.labels)
    return glue(g, u, v, shifted, 0, k - 1)


def build_change_trace(g: Graph, u: int, v: int, k: int, sym: str) -> Graph:
    """Glue a k-vertex path (k odd) with a fresh symbol at its center.

    The center sits at equal distance from both endpoints, so the geodesic
    walk count that feeds the center potential into the plus-side trace is
    2 and never vanishes; the minus-side trace is left alone. That
    one-sided trace shift is what the certificate exploits downstream.
    """
    if k < 3 or k % 2 == 0:
        raise DomainError(f"change-trace path needs an odd vertex count >= 3, got {k}")
    if sym in g.symbols():
        raise DomainError(f"symbol {sym!r} already occurs in the graph")
    _require_cospectral(g, u, v)
    p = add_potential(path_graph(k), (k - 1) // 2, SparsePoly.sym(sym))
    return glue(g, u, v, p, 0, k - 1)


# ---------------------------------------------------------------------------
# the equitable-partition certificate


def certify_equitable(g: Graph, u: int, v: int, w: int, sym1: str, sym2: str) -> Certificate:
    """Certify PGST after placing sym1 at a cospectral pair {u, v} and sym2
    at a vertex w, where some equitable partition of g has {u, v} and {w}
    as parts.

    Preconditions (DomainError): distinct vertices; distinct fresh symbols
    absent from g; u, v cospectral; the coarsest equitable refinement of
    the seed partition {{u, v}, {w}, rest} keeps {u, v} and {w} intact
    (equivalently, some equitable partition does).
    """
    if len({u, v, w}) != 3:
        raise DomainError("u, v, w must be three distinct vertices")
    if sym1 == sym2:
        raise DomainError("the two potential symbols must differ")
    taken = g.symbols()
    for s in (sym1, sym2):
        if s in taken:
            raise DomainError(f"symbol {s!r} already occurs in the graph")
    _require_cospectral(g, u, v)

    seed_parts = [[u, v], [w]]
    rest = [x for x in range(g.n) if x not in (u, v, w)]
    if rest:
        seed_parts.append(rest)
    refined = coarsest_equitable_refinement(g, Partition(g.n, seed_parts))
    pair = tuple(sorted((u, v)))
    if pair not in refined.parts or (w,) not in refined.parts:
        raise DomainError(
            "no equitable partition keeps {u,v} and {w} as parts; "
            "the coarsest refinement splits them"
        )

    perturbed = add_potential(g, (u, v), SparsePoly.sym(sym1))
    perturbed = add_potential(perturbed, w, SparsePoly.sym(sym2))
    if not verify_equitable(perturbed, refined):
        raise InternalConsistencyError(
            "adding constant potentials on whole parts broke equitability"
        )
    extra = {
        "partition": [list(part) for part in refined.parts],
        "pair_symbol": sym1,
        "outside_symbol": sym2,
    }
    try:
        dec = decompose(to_matrix(perturbed), u, v)
    except NotCospectralError:
        return Certificate(
            Verdict.INCONCLUSIVE,
            dict(failed_hypothesis="cospectrality_after_perturbation", **extra),
        )
    return _run_tr_deg_checks(dec, sym1, extra, membership_sym=sym2)
