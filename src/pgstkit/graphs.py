"""Weighted graphs with diagonal potentials, gluing surgery, and equitable
partitions.

A graph here is a finite simple weighted graph together with a potential:
a t-free polynomial attached to each vertex (usually a rational number or
a single parameter symbol). Its matrix is the weighted adjacency matrix
plus the diagonal potential, built by ``to_matrix``.

All surgery returns new values; nothing mutates in place.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence, Union

from .errors import DomainError, ParseError, StructuralError
from .exact import PolyMatrix, Scalar, SparsePoly, _coerce

PotentialValue = Union[SparsePoly, Fraction, int]

# Both lanes build dense n x n grids of 8 n^2 bytes, 128 MiB here: to_matrix
# holds two grids of references at its peak, numeric_adjacency one float64 array.
MAX_VERTICES = 4096


def _coerce_potential(value: PotentialValue) -> SparsePoly:
    p = _coerce(value)
    if p is NotImplemented:
        raise StructuralError(f"bad potential value {value!r}")
    if not p.is_t_free():
        raise StructuralError(f"potential {p} involves t")
    return p


class Graph:
    """Immutable weighted graph with vertex potentials.

    Vertices are 0..n-1. Edges are stored on ordered pairs (i, j) with
    i < j and carry nonzero rational weights. Potentials are t-free
    polynomials; zero potentials are dropped.
    """

    __slots__ = ("_n", "_edges", "_potentials", "_labels")

    def __init__(
        self,
        n: int,
        edges: Mapping[tuple[int, int], Scalar] | Iterable[tuple[int, int, Scalar]] = (),
        potentials: Mapping[int, PotentialValue] | None = None,
        labels: Sequence[str] | None = None,
    ):
        if not isinstance(n, int) or n < 0:
            raise StructuralError(f"bad vertex count {n!r}")
        if n > MAX_VERTICES:
            raise StructuralError(f"at most {MAX_VERTICES} vertices, got {n}")
        self._n = n
        acc: dict[tuple[int, int], Fraction] = {}
        if isinstance(edges, Mapping):
            items = [(i, j, w) for (i, j), w in edges.items()]
        else:
            items = [(i, j, w) for i, j, w in edges]
        for i, j, w in items:
            if not (0 <= i < n and 0 <= j < n):
                raise StructuralError(f"edge ({i},{j}) out of range for n={n}")
            if i == j:
                raise StructuralError(f"loop at vertex {i}; use a potential instead")
            key = (min(i, j), max(i, j))
            w = Fraction(w)
            s = acc.get(key, Fraction(0)) + w
            if s:
                acc[key] = s
            elif key in acc:
                del acc[key]
        self._edges = acc
        pots: dict[int, SparsePoly] = {}
        for v, value in (potentials or {}).items():
            if not (0 <= v < n):
                raise StructuralError(f"potential vertex {v} out of range for n={n}")
            p = _coerce_potential(value)
            if not p.is_zero():
                pots[v] = p
        self._potentials = pots
        if labels is None:
            self._labels = tuple(str(i) for i in range(n))
        else:
            self._labels = tuple(labels)
            if len(self._labels) != n:
                raise StructuralError("label count does not match vertex count")

    @property
    def n(self) -> int:
        return self._n

    @property
    def edges(self) -> dict[tuple[int, int], Fraction]:
        return dict(self._edges)

    @property
    def potentials(self) -> dict[int, SparsePoly]:
        return dict(self._potentials)

    @property
    def labels(self) -> tuple[str, ...]:
        return self._labels

    def weight(self, i: int, j: int) -> Fraction:
        if i == j:
            raise StructuralError("no diagonal edges; query potentials instead")
        return self._edges.get((min(i, j), max(i, j)), Fraction(0))

    def potential(self, v: int) -> SparsePoly:
        return self._potentials.get(v, SparsePoly.zero())

    def symbols(self) -> tuple[str, ...]:
        syms: set[str] = set()
        for p in self._potentials.values():
            syms.update(p.symbols)
        return tuple(sorted(syms))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return (
            self._n == other._n
            and self._edges == other._edges
            and self._potentials == other._potentials
            and self._labels == other._labels
        )

    def __repr__(self) -> str:
        return f"Graph(n={self._n}, edges={len(self._edges)}, potentials={len(self._potentials)})"


@dataclass(frozen=True)
class Partition:
    """Ordered partition of 0..n-1; parts sorted, ordered by least member."""

    n: int
    parts: tuple[tuple[int, ...], ...]

    def __init__(self, n: int, parts: Iterable[Iterable[int]]):
        norm = tuple(sorted((tuple(sorted(set(p))) for p in parts), key=lambda p: p[0] if p else -1))
        seen: set[int] = set()
        for part in norm:
            if not part:
                raise StructuralError("empty part in partition")
            for v in part:
                if not (0 <= v < n):
                    raise StructuralError(f"partition member {v} out of range for n={n}")
                if v in seen:
                    raise StructuralError(f"vertex {v} appears in two parts")
                seen.add(v)
        if len(seen) != n:
            raise StructuralError("partition does not cover the vertex set")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "parts", norm)

    def __len__(self) -> int:
        return len(self.parts)


@dataclass(frozen=True)
class QuotientMatrix:
    """Quotient of a graph matrix over an equitable partition.

    Entries are t-free polynomials: entry (i, j) is the common row sum from
    any vertex of part i into part j, diagonal potentials included.
    """

    parts: tuple[tuple[int, ...], ...]
    entries: tuple[tuple[SparsePoly, ...], ...]


# ---------------------------------------------------------------------------
# matrix construction and surgery


def to_matrix(g: Graph) -> PolyMatrix:
    """Weighted adjacency matrix plus diagonal potential."""
    n = g.n
    zero = SparsePoly.zero()
    rows: list[list[SparsePoly]] = [[zero] * n for _ in range(n)]
    for (i, j), w in g.edges.items():
        rows[i][j] = rows[j][i] = SparsePoly.const(w)
    for v, p in g.potentials.items():
        rows[v][v] = p
    return PolyMatrix(rows)


def add_potential(g: Graph, v: int | Iterable[int], value: PotentialValue) -> Graph:
    """Add value to the potential at v, or at each vertex of an iterable v,
    summing with whatever is there. Every vertex is range-checked before the
    value is, and the graph is rebuilt once however many vertices there are."""
    vertices = list(v) if isinstance(v, Iterable) else [v]
    for x in vertices:
        if not (0 <= x < g.n):
            raise StructuralError(f"vertex {x} out of range for n={g.n}")
    p = _coerce_potential(value)
    pots = g.potentials
    for x in vertices:
        pots[x] = pots.get(x, SparsePoly.zero()) + p
    return Graph(g.n, g.edges, pots, g.labels)


def _fresh_label(name: str, taken: set[str]) -> str:
    while name in taken:
        name = name + "'"
    return name


def glue(g1: Graph, u1: int, v1: int, g2: Graph, u2: int, v2: int) -> Graph:
    """Two-sum: disjoint union with u1 identified to u2 and v1 to v2.

    Both edge sets go to ``Graph``, which adds the weights of parallel
    edges and drops a zero sum; potentials at the identified vertices add,
    and a zero sum is dropped too. Vertices of g1 keep their indices; the
    surviving vertices of g2 are appended in index order.
    """
    for name, (gg, a, b) in {"g1": (g1, u1, v1), "g2": (g2, u2, v2)}.items():
        if not (0 <= a < gg.n and 0 <= b < gg.n):
            raise StructuralError(f"glue vertices out of range in {name}")
        if a == b:
            raise DomainError(f"glue vertices must be distinct in {name}")

    mapping: dict[int, int] = {u2: u1, v2: v1}
    labels = list(g1.labels)
    taken = set(labels)
    for x in range(g2.n):
        if x not in mapping:
            mapping[x] = len(labels)
            labels.append(_fresh_label(g2.labels[x], taken))
            taken.add(labels[-1])

    edges = [(i, j, w) for (i, j), w in g1.edges.items()]
    edges += [(mapping[i], mapping[j], w) for (i, j), w in g2.edges.items()]
    pots = g1.potentials
    for x, p in g2.potentials.items():
        pots[mapping[x]] = pots.get(mapping[x], SparsePoly.zero()) + p
    return Graph(len(labels), edges, pots, labels)


def path_graph(m: int) -> Graph:
    """Unweighted path on m >= 2 vertices, endpoints labeled u and v."""
    if not 2 <= m <= MAX_VERTICES:
        raise DomainError(f"path needs 2 to {MAX_VERTICES} vertices, got {m}")
    labels = ["u"] + [f"x{i}" for i in range(1, m - 1)] + ["v"]
    return Graph(m, [(i, i + 1, 1) for i in range(m - 1)], labels=labels)


def glue_path(g: Graph, u: int, v: int, q: int) -> Graph:
    """Attach a path of q edges between u and v; q = 0 returns g unchanged.

    q = 1 adds (or reinforces) the edge uv; q >= 2 inserts q - 1 fresh
    interior vertices.
    """
    if q < 0:
        raise DomainError(f"path length must be nonnegative, got {q}")
    if not (0 <= u < g.n and 0 <= v < g.n):
        raise StructuralError("glue vertices out of range")
    if u == v:
        raise DomainError("glue vertices must be distinct")
    if q == 0:
        return g
    return glue(g, u, v, path_graph(q + 1), 0, q)


# ---------------------------------------------------------------------------
# equitable partitions


def _row_sums(g: Graph, parts: Sequence[Sequence[int]]) -> list[dict[int, SparsePoly]]:
    """Each vertex's row sums of g's matrix into the parts, read off the edge list and
    keyed by part position; the potential counts in its own part, zero sums are left out."""
    part_of = {x: k for k, part in enumerate(parts) for x in part}
    sums: list[dict[int, Fraction | SparsePoly]] = [{} for _ in range(g.n)]
    for (i, j), w in g.edges.items():
        for a, b in ((i, j), (j, i)):
            sums[a][part_of[b]] = sums[a].get(part_of[b], 0) + w
    for v, p in g.potentials.items():  # a sum with a potential becomes a SparsePoly
        sums[v][part_of[v]] = p + sums[v].get(part_of[v], 0)
    return [{k: _coerce(s) for k, s in row.items() if s} for row in sums]


def verify_equitable(g: Graph, partition: Partition) -> bool:
    """True iff every part has constant row sums into every part.

    Row sums use the full matrix, so potentials count: two vertices in a
    common part must agree on potential plus internal weighted degree. A
    partition is equitable exactly when it is its own coarsest equitable
    refinement, which is how this is decided.
    """
    return coarsest_equitable_refinement(g, partition) == partition


def coarsest_equitable_refinement(g: Graph, seed: Partition) -> Partition:
    """Coarsest equitable partition refining the seed.

    Each round takes every vertex's row sums into the current parts
    (potential included, from the edge list) and splits each part by them;
    it stops when no part splits. How the parts are numbered cannot change
    the result, since ``Partition`` orders its parts by least member.
    """
    if seed.n != g.n:
        raise StructuralError("partition size does not match graph")
    parts = list(seed.parts)
    while True:
        sums = _row_sums(g, parts)
        groups: dict[tuple, list[int]] = {}  # (part position, row sums) -> members
        for k, part in enumerate(parts):
            for v in part:
                groups.setdefault((k, frozenset(sums[v].items())), []).append(v)
        if len(groups) == len(parts):
            return Partition(g.n, parts)
        parts = list(groups.values())


def quotient_matrix(g: Graph, partition: Partition) -> QuotientMatrix:
    """Quotient matrix over an equitable partition; DomainError otherwise."""
    if not verify_equitable(g, partition):
        raise DomainError("partition is not equitable for this graph")
    sums = _row_sums(g, partition.parts)
    entries = tuple(
        tuple(sums[part[0]].get(j, SparsePoly.zero()) for j in range(len(partition)))
        for part in partition.parts
    )
    return QuotientMatrix(partition.parts, entries)


def add_apex(g: Graph, u: int, v: int) -> tuple[Graph, int]:
    """Append one new vertex, labeled w, joined to u and v by unit edges.

    Returns the new graph and the index of the new vertex. This is the
    standard way to manufacture a singleton part adjacent to a cospectral
    pair when the graph has none.
    """
    if not (0 <= u < g.n and 0 <= v < g.n) or u == v:
        raise StructuralError("apex endpoints must be distinct in-range vertices")
    w = g.n
    edges = [(i, j, wt) for (i, j), wt in g.edges.items()]
    edges += [(u, w, 1), (v, w, 1)]
    labels = list(g.labels) + [_fresh_label("w", set(g.labels))]
    return Graph(g.n + 1, edges, g.potentials, labels), w


# ---------------------------------------------------------------------------
# text format

# Line oriented:
#   n <count>
#   e <i> <j> [weight]      weight defaults to 1
#   p <i> <value>           value is a rational or a t-free polynomial
#   # comment / blank lines ignored


def parse_graph_text(text: str) -> Graph:
    n: int | None = None
    edges: list[tuple[int, int, Fraction]] = []
    potentials: dict[int, SparsePoly] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        kind = fields[0]
        try:
            if kind == "n":
                if n is not None:
                    raise ParseError(f"line {lineno}: duplicate n line")
                if len(fields) != 2:
                    raise ParseError(f"line {lineno}: expected 'n <count>'")
                n = int(fields[1])
            elif kind == "e":
                if len(fields) not in (3, 4):
                    raise ParseError(f"line {lineno}: expected 'e <i> <j> [weight]'")
                i, j = int(fields[1]), int(fields[2])
                w = Fraction(fields[3]) if len(fields) == 4 else Fraction(1)
                edges.append((i, j, w))
            elif kind == "p":
                if len(fields) < 3:
                    raise ParseError(f"line {lineno}: expected 'p <i> <value>'")
                v = int(fields[1])
                value = SparsePoly.parse(" ".join(fields[2:]))
                if not value.is_t_free():
                    raise ParseError(f"line {lineno}: potential involves t")
                if v in potentials:
                    raise ParseError(f"line {lineno}: duplicate potential for vertex {v}")
                potentials[v] = value
            else:
                raise ParseError(f"line {lineno}: unknown statement {kind!r}")
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"line {lineno}: {exc}") from exc
    if n is None:
        raise ParseError("missing 'n <count>' line")
    try:
        return Graph(n, edges, potentials)
    except StructuralError as exc:
        raise ParseError(str(exc)) from exc


def serialize_graph_text(g: Graph) -> str:
    lines = [f"n {g.n}"]
    for (i, j) in sorted(g.edges):
        w = g.weight(i, j)
        lines.append(f"e {i} {j}" if w == 1 else f"e {i} {j} {w}")
    for v in sorted(g.potentials):
        lines.append(f"p {v} {g.potential(v)}")
    return "\n".join(lines) + "\n"


def graph_digest(g: Graph) -> str:
    """Short stable digest of the serialized structure (labels excluded)."""
    return hashlib.sha256(serialize_graph_text(g).encode()).hexdigest()[:12]
