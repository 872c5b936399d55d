"""Shared generators for property-style tests.

Random instances are built from seeded Random objects so every run is
reproducible; no global random state is touched.
"""

from __future__ import annotations

import random
from fractions import Fraction

from pgstkit import Graph, SparsePoly


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
