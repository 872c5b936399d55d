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
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Sequence

from .errors import (
    DomainError,
    InternalConsistencyError,
    NotCospectralError,
    ZeroEigenvalueObstruction,
)
from .exact import (
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
    check, which substitutes sym = 0 into the two vertex-deleted
    characteristic polynomials the failure carries.

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
            phi_u, phi_v = (p.subs_sym(sym, 0) for p in exc.charpolys)
            if phi_u != phi_v:
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


def integer_relation_search(
    lambdas: Sequence[float],
    mus: Sequence[float],
    bound: int,
    precision: float,
) -> list[Relation]:
    """Candidate relations sum(l.lam) + sum(m.mu) ~ 0 within precision,
    subject to sum(l) + sum(m) = 0, sum(m) odd, and |coefficients| <= bound.

    One route per question. When the search box has at most
    EXHAUSTIVE_LIMIT = 10^7 points, an enumeration with branch pruning
    visits all of it, so every relation within the bound is found.
    Otherwise a lattice-reduction (LLL) probe proposes candidates, which
    may miss relations. Results are deduplicated with the first nonzero
    coefficient normalized positive, and sorted by coefficient mass.
    """
    if bound < 1:
        raise DomainError(f"coefficient bound must be >= 1, got {bound}")
    if not 0 < precision < float("inf"):
        raise DomainError(f"precision must be positive and finite, got {precision}")
    r, s = len(lambdas), len(mus)
    if r + s == 0:
        return []
    xs = [float(x) for x in lambdas] + [float(x) for x in mus]
    found: dict[tuple[int, ...], Relation] = {}

    def consider(coeffs: Sequence[int]) -> None:
        if all(c == 0 for c in coeffs):
            return
        if any(abs(c) > bound for c in coeffs):
            return
        if sum(coeffs) != 0:
            return
        m_part = coeffs[r:]
        if sum(m_part) % 2 == 0:
            return
        residual = sum(c * x for c, x in zip(coeffs, xs))
        if abs(residual) >= precision:
            return
        vec = tuple(coeffs)
        first = next(c for c in vec if c != 0)
        if first < 0:
            vec = tuple(-c for c in vec)
            residual = -residual
        if vec not in found:
            found[vec] = Relation(vec[:r], vec[r:], residual)

    if (2 * bound + 1) ** (r + s) <= EXHAUSTIVE_LIMIT:
        _exhaustive_search(xs, r, bound, precision, consider)
    else:
        for cand in _lll_candidates(xs, bound, precision):
            consider(cand)

    return sorted(
        found.values(), key=lambda rel: (sum(abs(c) for c in rel.l + rel.m), rel.l + rel.m)
    )


def _exhaustive_search(xs, r, bound, precision, consider) -> None:
    d = len(xs)
    suffix_mass = [0.0] * (d + 1)
    for i in range(d - 1, -1, -1):
        suffix_mass[i] = suffix_mass[i + 1] + bound * abs(xs[i])
    coeffs = [0] * d

    def walk(i: int, partial: float, coef_sum: int) -> None:
        if i == d:
            if coef_sum == 0:
                consider(list(coeffs))
            return
        # residual can still be pulled back by at most suffix_mass[i]
        if abs(partial) - suffix_mass[i] >= precision:
            return
        # coefficient sum can change by at most bound per remaining slot
        if abs(coef_sum) > bound * (d - i):
            return
        for c in range(-bound, bound + 1):
            coeffs[i] = c
            walk(i + 1, partial + c * xs[i], coef_sum + c)
        coeffs[i] = 0

    walk(0, 0.0, 0)


def _lll_candidates(xs: Sequence[float], bound: int, precision: float) -> list[list[int]]:
    d = len(xs)
    scale = int(round(10.0 / precision))
    sum_weight = max(1000, scale // 1000)
    basis = []
    for i, x in enumerate(xs):
        row = [0] * d + [int(round(x * scale)), sum_weight]
        row[i] = 1
        basis.append(row)
    reduced = _lll(basis)
    return [row[:d] for row in reduced]


def _lll(basis: list[list[int]], delta: Fraction = Fraction(3, 4)) -> list[list[int]]:
    """Textbook LLL over exact rationals; returns a reduced integer basis.

    A size reduction b_k -= m b_j keeps every b* and ||b*||^2 and only
    shifts row k of mu, which is updated in place; Gram-Schmidt is redone
    only after a swap. Gives up (best effort) after 10 000 rounds.
    """
    b = [[Fraction(x) for x in row] for row in basis]
    n = len(b)

    def dot(u, v):
        return sum(a * c for a, c in zip(u, v))

    def gramschmidt():
        star = []
        mu = [[Fraction(0)] * n for _ in range(n)]
        norms = []
        for i in range(n):
            w = list(b[i])
            for j in range(i):
                if norms[j] == 0:
                    mu[i][j] = Fraction(0)
                    continue
                mu[i][j] = dot(b[i], star[j]) / norms[j]
                w = [a - mu[i][j] * c for a, c in zip(w, star[j])]
            star.append(w)
            norms.append(dot(w, w))
        return mu, norms

    mu, norms = gramschmidt()
    k = 1
    guard = 0
    while k < n:
        guard += 1
        if guard > 10000:
            break  # defensive: reduction is best effort for candidate generation
        for j in range(k - 1, -1, -1):
            q = mu[k][j]
            if abs(q) > Fraction(1, 2):
                m = int(q + Fraction(1, 2)) if q > 0 else -int(-q + Fraction(1, 2))
                b[k] = [a - m * c for a, c in zip(b[k], b[j])]
                for i in range(j):
                    mu[k][i] -= m * mu[j][i]
                mu[k][j] -= m
        if norms[k] >= (delta - mu[k][k - 1] ** 2) * norms[k - 1]:
            k += 1
        else:
            b[k], b[k - 1] = b[k - 1], b[k]
            mu, norms = gramschmidt()
            k = max(k - 1, 1)
    return [[int(x) for x in row] for row in b]


def heuristic_obstruction(
    lambdas: Sequence[float],
    mus: Sequence[float],
    bound: int,
    precision: float,
) -> Certificate | None:
    """Wrap surviving relations in a HeuristicObstruction certificate.

    Each candidate must re-verify at four times tighter precision; ones
    that only barely passed are dropped. Returns None when nothing
    survives. Never a proof: eigenvalues are floating point.
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
        "bound": bound,
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
    prev, cur = SparsePoly.one(), SparsePoly.t()
    if m == 0:
        return prev
    for _ in range(m - 1):
        prev, cur = cur, SparsePoly.t() * cur - prev
    return cur


def _primes_upto(limit: int) -> list[int]:
    sieve = [True] * (limit + 1)
    sieve[0:2] = [False, False]
    for i in range(2, int(limit**0.5) + 1):
        if sieve[i]:
            sieve[i * i :: i] = [False] * len(sieve[i * i :: i])
    return [i for i, ok in enumerate(sieve) if ok]


MAX_GLUE_PRIME = 1000


def choose_glue_length(g: Graph, u: int, v: int) -> int:
    """Smallest even glue length q = 2p, p prime <= 1000, whose interior
    path spectrum avoids the spectrum of the graph with u and v deleted.

    The interior of an even-length path always has eigenvalue 0, so if the
    deleted matrix is singular no q can work and
    ZeroEigenvalueObstruction is raised: use build_glue_pot or
    build_change_trace instead, which shift the path spectrum away.
    """
    m = to_matrix(g)
    if not is_cospectral(m, u, v):
        raise DomainError(f"vertices ({u},{v}) are not cospectral")
    deleted = charpoly(m.delete([u, v]))
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
    (c - 2, c + 2) and the deleted spectrum is bounded."""
    if k < 3:
        raise DomainError(f"need at least 3 path vertices, got {k}")
    deleted = charpoly(to_matrix(g).delete([u, v]))
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
    m = to_matrix(g)
    if not is_cospectral(m, u, v):
        raise DomainError(f"vertices ({u},{v}) are not cospectral")
    c = choose_path_shift(g, u, v, k)
    p = path_graph(k)
    if c:
        for x in range(k):
            p = add_potential(p, x, c)
    return glue(g, u, v, p, 0, k - 1)


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
    m = to_matrix(g)
    if not is_cospectral(m, u, v):
        raise DomainError(f"vertices ({u},{v}) are not cospectral")
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
    m = to_matrix(g)
    if not is_cospectral(m, u, v):
        raise DomainError(f"vertices ({u},{v}) are not cospectral")

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

    perturbed = add_potential(add_potential(g, u, SparsePoly.sym(sym1)), v, SparsePoly.sym(sym1))
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
