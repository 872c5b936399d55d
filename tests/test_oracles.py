"""Differential tests of the exact kernels against sympy.

sympy is a test-only dependency: it computes the same objects by routes
that share no code with pgstkit. Instances are seeded sparse weighted
symmetric matrices with one or two parameter symbols on the diagonal.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from pgstkit import PolyMatrix, SparsePoly, charpoly, krylov_min_poly

sympy = pytest.importorskip("sympy")
from sympy.polys.matrices import DomainMatrix  # noqa: E402

T = sympy.Symbol("t")
SYMBOLS = ("Q", "R")
# Explicit names: a bare sympify would read Q as sympy's assumptions object.
LOCALS = {"t": T, **{s: sympy.Symbol(s) for s in SYMBOLS}}
SEEDS = range(20)


def _instance(seed: int) -> tuple[PolyMatrix, int, int]:
    rng = random.Random(seed)
    n = rng.randint(3, 9)
    rows = [[SparsePoly.zero()] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.25:
                w = Fraction(rng.choice([1, 2, -1, 3]), rng.choice([1, 2]))
                rows[i][j] = rows[j][i] = SparsePoly.const(w)
        if rng.random() < 0.4:
            rows[i][i] = SparsePoly.const(rng.randint(-2, 2))
    # The placements the program certifies: a pair symbol at u and v, and
    # optionally a second symbol at one other vertex. The second symbol is
    # kept to n <= 7: at n = 8-9 one Krylov case takes 5-10 s on each side.
    u, v, w = rng.sample(range(n), 3)
    q, r = (SparsePoly.sym(s) for s in SYMBOLS)
    rows[u][u] = rows[u][u] + q
    rows[v][v] = rows[v][v] + q
    if n <= 7 and rng.random() < 0.5:
        rows[w][w] = rows[w][w] + r
    return PolyMatrix(rows), u, v


def _to_sympy(p: SparsePoly):
    return sympy.sympify(str(p).replace("^", "**"), locals=LOCALS)


def _sympy_matrix(m: PolyMatrix):
    return sympy.Matrix(
        [[_to_sympy(m.entry(i, j)) for j in range(m.dimension)] for i in range(m.dimension)]
    )


def _sympy_min_poly(a, z):
    """Monic generator of the relations among z, Az, A^2 z, ...: the first
    Krylov block with a nullspace over Q(symbols) has a one-dimensional one."""
    field = sympy.QQ.frac_field(*(LOCALS[s] for s in SYMBOLS))
    a = DomainMatrix.from_Matrix(a).convert_to(field)
    cols = [DomainMatrix.from_Matrix(z).convert_to(field)]
    while True:
        cols.append(a * cols[-1])
        null = DomainMatrix.hstack(*cols).nullspace().to_Matrix()
        if null.rows:
            k = len(cols) - 1
            return sympy.expand(sum(sympy.cancel(null[0, j] / null[0, k]) * T**j for j in range(k + 1)))


@pytest.mark.parametrize("seed", SEEDS)
def test_charpoly_matches_sympy(seed):
    m, _, _ = _instance(seed)
    expected = _sympy_matrix(m).charpoly(T).as_expr()
    assert sympy.expand(_to_sympy(charpoly(m)) - expected) == 0


@pytest.mark.parametrize("seed", SEEDS)
def test_krylov_min_poly_matches_sympy_nullspace(seed):
    m, u, v = _instance(seed)
    a = _sympy_matrix(m)
    n = m.dimension
    for sign in (1, -1):
        z = [SparsePoly.const((k == u) + sign * (k == v)) for k in range(n)]
        expected = _sympy_min_poly(a, sympy.Matrix([_to_sympy(x) for x in z]))
        assert sympy.expand(_to_sympy(krylov_min_poly(m, z)) - expected) == 0
