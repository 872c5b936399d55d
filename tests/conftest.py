"""Shared generators and identity checks for property-style tests.

Random instances are built from seeded Random objects so every run is
reproducible; no global random state is touched. A mirror graph's pair is
swapped by an automorphism; the pair of ``asymmetric_cospectral_graph``
is swapped by none, as the paper's constructions assume. ``q_expansion_residual``
and ``trace_param_membership`` check identities of the exact lane that no
command needs. ``relation_search_by_key`` is an oracle for
``integer_relation_search``: the same relations, found key by key, as
``Relation`` rows, which ``relation_rows`` makes of a search's table. The
other oracles answer questions that no command asks: real roots by Sturm
isolation, strong cospectrality as a yes/no, the quotient matrix of an
equitable partition, and a transfer amplitude from the plain eigenbasis.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from types import SimpleNamespace
from typing import NamedTuple

import numpy as np

from pgstkit import (
    CospectralDecomposition,
    DomainError,
    Graph,
    NotCospectralError,
    Partition,
    PolyMatrix,
    SparsePoly,
    charpoly,
    decompose,
    get_fixture,
    is_cospectral,
    poly_gcd_t,
    to_matrix,
    verify_equitable,
)
from pgstkit.certify import RelationTable, _check_relation_limits, _half_box, _searched_bound
from pgstkit.spectral import _check_pair


def assert_stored_form(p: SparsePoly) -> None:
    """Each stored coefficient is an int, or a Fraction that is not integral."""
    for c in p._terms.values():
        assert type(c) is int or (type(c) is Fraction and c.denominator != 1), (p, c)


def swap01(i: int) -> int:
    return {0: 1, 1: 0}.get(i, i)


def random_cospectral_graph(
    rng: random.Random,
    n: int | None = None,
    weighted: bool = False,
    with_potentials: bool = False,
) -> tuple[Graph, int, int]:
    """Graph with an automorphism exchanging vertices 0 and 1.

    The transposition (0 1) preserves adjacency and potentials by
    construction, so the pair is cospectral; nothing stronger is promised.
    """
    if n is None:
        n = rng.randint(4, 8)
    edges: dict[tuple[int, int], Fraction] = {}
    for i in range(n):
        for j in range(i + 1, n):
            if (i, j) in edges:
                continue
            if rng.random() < 0.45:
                if weighted:
                    w = Fraction(rng.choice([1, 1, 2, 3, -1]))
                else:
                    w = Fraction(1)
                edges[(i, j)] = w
                mi, mj = sorted((swap01(i), swap01(j)))
                edges[(mi, mj)] = w
    potentials: dict[int, SparsePoly] = {}
    if with_potentials:
        for i in range(n):
            if i in potentials:
                continue
            if rng.random() < 0.4:
                val = rng.randint(-2, 2)
                if val:
                    potentials[i] = SparsePoly.const(val)
                    potentials[swap01(i)] = SparsePoly.const(val)
    return Graph(n, edges, potentials), 0, 1


def maps_by_automorphism(g: Graph, u: int, v: int) -> bool:
    """Whether some automorphism of g, keeping weights and potentials, maps
    u to v: a backtracking search over the vertices in breadth-first order
    from u, each image checked against the images of the earlier ones."""
    nbrs = [dict() for _ in range(g.n)]
    for (i, j), w in g.edges.items():
        nbrs[i][j] = nbrs[j][i] = w
    order = [u]
    for x in order:
        order += [y for y in sorted(nbrs[x]) if y not in order]
    order += [x for x in range(g.n) if x not in order]

    def fits(x: int, y: int, image: dict[int, int]) -> bool:
        if len(nbrs[x]) != len(nbrs[y]) or g.potential(x) != g.potential(y):
            return False
        return all(nbrs[x].get(a) == nbrs[y].get(b) for a, b in image.items())

    def extend(image: dict[int, int]) -> bool:
        if len(image) == g.n:
            return True
        x = order[len(image)]
        taken = set(image.values())
        return any(
            extend({**image, x: y}) for y in range(g.n) if y not in taken and fits(x, y, image)
        )

    return fits(u, v, {}) and extend({u: v})


def asymmetric_cospectral_graph(rng: random.Random) -> tuple[Graph, int, int]:
    """G_C with the same random weighted rooted tree, of 1 or 2 vertices
    besides its root, attached at its hubs 8 and 9 (n = 12 or 14).

    Attaching one rooted graph at both vertices of a cospectral pair keeps
    it cospectral. An instance is kept only if ``is_cospectral`` confirms
    that and no automorphism maps 8 to 9; the next draw is tried otherwise.
    """
    base = get_fixture("G_C").graph
    for _ in range(20):
        size = rng.randint(1, 2)
        tree = [(rng.randrange(k), k, rng.choice([1, 2, 3])) for k in range(1, size + 1)]
        edges = dict(base.edges)
        for u, first in ((8, base.n), (9, base.n + size)):
            at = [u] + [first + k for k in range(size)]  # the root is u
            edges.update({(at[a], at[b]): Fraction(w) for a, b, w in tree})
        g = Graph(base.n + 2 * size, edges)
        if is_cospectral(to_matrix(g), 8, 9) and not maps_by_automorphism(g, 8, 9):
            return g, 8, 9
    raise AssertionError("no asymmetric cospectral instance in 20 draws")


def random_graph(
    rng: random.Random,
    n: int | None = None,
    weighted: bool = False,
    with_potentials: bool = False,
) -> Graph:
    """Unstructured random graph, used for round-trips and numerics."""
    if n is None:
        n = rng.randint(2, 9)
    edges = {}
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.4:
                if weighted:
                    edges[(i, j)] = Fraction(rng.choice([1, 2, -1, 3])) / rng.choice([1, 2])
                else:
                    edges[(i, j)] = Fraction(1)
    potentials = {}
    if with_potentials:
        for i in range(n):
            if rng.random() < 0.3:
                val = Fraction(rng.randint(-3, 3), rng.choice([1, 1, 2]))
                if val:
                    potentials[i] = SparsePoly.const(val)
    return Graph(n, edges, potentials)


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
    if sym in m.symbols():
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


class Relation(NamedTuple):
    """Integer relation sum(l_i * lambda_i) + sum(m_j * mu_j) ~ 0 with
    sum(l) + sum(m) = 0 and sum(m) odd."""

    l: tuple[int, ...]
    m: tuple[int, ...]
    residual: float


def relation_rows(table: RelationTable) -> list[Relation]:
    """The rows of a relation table, in order, as ``Relation`` tuples of
    Python ints and floats."""
    columns = table.l.tolist(), table.m.tolist(), table.residual.tolist()
    return [Relation(tuple(l), tuple(m), x) for l, m, x in zip(*columns)]


def relation_search_by_key(lambdas, mus, bound: int, precision: float) -> list[Relation]:
    """``integer_relation_search`` with one window search per key group and
    a Python sort key over the relations, in place of one search over all
    left halves and ``np.lexsort``."""
    _check_relation_limits(bound, precision)
    r, d = len(lambdas), len(lambdas) + len(mus)
    xs = [float(x) for x in lambdas] + [float(x) for x in mus]
    if not all(math.isfinite(x) for x in xs):
        raise DomainError("relation search needs finite values")
    b = _searched_bound(d, bound)
    if d < 2 or b == 0:
        return []
    h = d // 2
    left, right = _half_box(h, b), _half_box(d - h, b)
    lv, rv = left @ np.array(xs[:h]), right @ np.array(xs[h:])
    minus = np.arange(d) >= r
    lkey = 2 * left.sum(axis=1) + left[:, minus[:h]].sum(axis=1) % 2
    rkey = -2 * right.sum(axis=1) + 1 - right[:, minus[h:]].sum(axis=1) % 2
    order = np.lexsort((rv, rkey))
    right, rv, rkey = right[order], rv[order], rkey[order]
    slack = precision + d * 2.0**-52 * b * sum(abs(x) for x in xs)
    pairs = []
    for key in np.unique(lkey):
        lo, hi = np.searchsorted(rkey, key), np.searchsorted(rkey, key, side="right")
        rows = np.flatnonzero(lkey == key)
        start = lo + np.searchsorted(rv[lo:hi], -lv[rows] - slack)
        stop = lo + np.searchsorted(rv[lo:hi], -lv[rows] + slack, side="right")
        counts = stop - start
        matched = np.arange(counts.sum()) + np.repeat(start - np.cumsum(counts) + counts, counts)
        pairs.append(np.hstack([left[np.repeat(rows, counts)], right[matched]]))
    vecs = np.concatenate(pairs)
    first = vecs[np.arange(len(vecs)), (vecs != 0).argmax(axis=1)]
    found = []
    for coeffs in vecs[first < 0].tolist():
        residual = sum(c * x for c, x in zip(coeffs, xs))
        if abs(residual) < precision:
            vec = tuple(-c for c in coeffs)
            found.append(Relation(vec[:r], vec[r:], -residual))
    return sorted(found, key=lambda rel: (sum(abs(c) for c in rel.l + rel.m), rel.l + rel.m))


def univariate_t_coeffs(p: SparsePoly) -> list[Fraction]:
    """Coefficients by ascending t power, each a Fraction (integral ones
    too, though stored as int); requires no symbols."""
    if p.symbols:
        raise DomainError(f"polynomial has unbound symbols {p.symbols!r}")
    return [c.constant_value() for c in p.t_coeffs()]


def isolate_real_roots(p: SparsePoly, width: Fraction = Fraction(1, 10**12)) -> list[float]:
    """Distinct real roots of a univariate polynomial in t, sorted ascending.

    Sturm sequence on the squarefree part, bisected down to intervals of
    the requested width with exact rational evaluation throughout. The
    returned floats are interval midpoints.
    """
    if p.symbols:
        raise DomainError("root isolation needs a univariate polynomial")
    if p.deg_t() < 1:
        if p.is_zero():
            raise DomainError("zero polynomial has every point as a root")
        return []
    g = p.divexact(poly_gcd_t(p, p.derivative_t()))
    coeffs = univariate_t_coeffs(g)

    def poly_eval(cs: list[Fraction], x: Fraction) -> Fraction:
        acc = Fraction(0)
        for c in reversed(cs):
            acc = acc * x + c
        return acc

    def poly_rem(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
        # Every list in the chain ends in a nonzero coefficient.
        a = list(a)
        while len(a) >= len(b):
            f = a[-1] / b[-1]
            shift = len(a) - len(b)
            for i, bc in enumerate(b):
                a[shift + i] -= f * bc
            while a and a[-1] == 0:
                a.pop()
        return a

    chain = [coeffs, [c * i for i, c in enumerate(coeffs)][1:]]
    while len(chain[-1]) > 1:
        r = poly_rem(chain[-2], chain[-1])
        if not r:
            break
        chain.append([-c for c in r])

    def variations(x: Fraction) -> int:
        signs = [v > 0 for cs in chain if (v := poly_eval(cs, x))]
        return sum(a != b for a, b in zip(signs, signs[1:]))

    lead = coeffs[-1]
    bound = Fraction(1) + max(abs(c / lead) for c in coeffs)
    roots: list[Fraction] = []
    stack = [(-bound - 1, bound + 1)]
    while stack:
        lo, hi = stack.pop()
        count = variations(lo) - variations(hi)
        if count == 1 and hi - lo < width:
            roots.append((lo + hi) / 2)
        elif count:
            mid = (lo + hi) / 2
            if poly_eval(coeffs, mid) == 0:
                # nudge the split point off the root
                mid += (hi - lo) / 7
            stack += [(lo, mid), (mid, hi)]
    return [float(r) for r in sorted(roots)]


def is_strongly_cospectral(m: PolyMatrix, u: int, v: int) -> bool:
    """Cospectral with coprime relative factors P_plus and P_minus."""
    try:
        dec = decompose(m, u, v)
    except NotCospectralError:
        return False
    return dec.common_factor.is_one()


def quotient_matrix(g: Graph, partition: Partition) -> SimpleNamespace:
    """Quotient over an equitable partition (DomainError otherwise), with
    ``parts`` and ``entries``: entry (i, j) is the row sum of the dense
    matrix from the first vertex of part i into part j."""
    if not verify_equitable(g, partition):
        raise DomainError("partition is not equitable for this graph")
    m = to_matrix(g)
    entries = [
        [sum((m.entry(part[0], y) for y in other), SparsePoly.zero()) for other in partition.parts]
        for part in partition.parts
    ]
    return SimpleNamespace(parts=partition.parts, entries=entries)


def transfer_amplitude(spectrum, u: int, v: int, t: float) -> complex:
    """U(t)[u, v] where U(t) = exp(i t M), as the (u, v) entry of the dense
    V diag(exp(i t lambda)) V^T over the eigenbasis: no clusters."""
    vecs = spectrum.eigenvectors
    return complex((vecs[u] * np.exp(1j * t * spectrum.eigenvalues)) @ vecs[v])
