"""Differential tests of the exact kernels against sympy.

sympy is a test-only dependency: it computes the same objects by routes
that share no code with pgstkit. Instances are seeded sparse weighted
symmetric matrices with one or two parameter symbols on the diagonal, and
seeded sparse polynomials over each symbol set (), (Q), (R) and (Q, R).
Every result is also checked for the stored coefficient form: an int when
integral, otherwise a Fraction in lowest terms, and never a float.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from pgstkit import (
    PolyMatrix,
    SparsePoly,
    charpoly,
    is_irreducible_linear_param,
    isolate_real_roots,
    krylov_min_poly,
    poly_gcd_t,
    split_linear_param,
)

from conftest import assert_stored_form

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
    got = charpoly(m)
    assert_stored_form(got)
    assert sympy.expand(_to_sympy(got) - expected) == 0


@pytest.mark.parametrize("seed", SEEDS)
def test_krylov_min_poly_matches_sympy_nullspace(seed):
    m, u, v = _instance(seed)
    a = _sympy_matrix(m)
    n = m.dimension
    for sign in (1, -1):
        z = [SparsePoly.const((k == u) + sign * (k == v)) for k in range(n)]
        expected = _sympy_min_poly(a, sympy.Matrix([_to_sympy(x) for x in z]))
        got = krylov_min_poly(m, z)
        assert_stored_form(got)
        assert sympy.expand(_to_sympy(got) - expected) == 0


def _relative_factors(seed: int) -> tuple[SparsePoly, SparsePoly]:
    m, u, v = _instance(seed)
    n = m.dimension
    return tuple(
        krylov_min_poly(m, [SparsePoly.const((k == u) + sign * (k == v)) for k in range(n)])
        for sign in (1, -1)
    )


@pytest.mark.parametrize("seed", SEEDS)
def test_is_irreducible_linear_param_matches_factor_list(seed):
    # Irreducible over Q(R) exactly when one factor, of multiplicity 1,
    # involves t or Q; a factor in R alone is a unit there. Times t - 1,
    # the same polynomial stays monic and linear in Q but factors.
    for p in _relative_factors(seed):
        if p.deg_in("Q") != 1:
            continue
        for q in (p, p * SparsePoly.parse("t - 1")):
            _, factors = sympy.factor_list(_to_sympy(q), T, LOCALS["Q"], LOCALS["R"])
            moving = [k for f, k in factors if f.has(T) or f.has(LOCALS["Q"])]
            assert is_irreducible_linear_param(q, "Q") == (moving == [1])


@pytest.mark.parametrize("seed", range(8))
def test_isolate_real_roots_matches_sympy(seed):
    # At rational symbol values the charpoly has only real roots; its
    # square doubles each of them, and a shift leaves some non-real.
    # Eight seeds: one isolation at degree 9 takes up to 0.7 s.
    m, _, _ = _instance(seed)
    rng = random.Random(f"roots{seed}")
    p = charpoly(m)
    for s in SYMBOLS:
        p = p.subs_sym(s, Fraction(rng.randint(-3, 3), rng.choice([1, 2, 3])))
    for q in (p * p, p + SparsePoly.const(3)):
        roots = sympy.Poly(_to_sympy(q), T).sqf_part().real_roots()
        expected = [float(r.evalf(30)) for r in roots]
        got = isolate_real_roots(q)
        assert len(got) == len(expected)
        assert all(abs(a - b) <= 1e-12 * max(1.0, abs(b)) for a, b in zip(got, expected))


# ---------------------------------------------------------------------------
# polynomial arithmetic

SYMBOL_SETS = [(), ("Q",), ("R",), ("Q", "R")]
SYMBOL_IDS = ["none", "Q", "R", "QR"]


def _random_poly(rng: random.Random, symbols: tuple[str, ...], terms: int = 4) -> SparsePoly:
    return SparsePoly(
        [
            (
                (rng.randint(0, 3), *(rng.randint(0, 2) for _ in symbols)),
                Fraction(rng.randint(-4, 4), rng.choice([1, 2, 3])),
            )
            for _ in range(terms)
        ],
        symbols,
    )


def _assert_same(got: SparsePoly, expected) -> None:
    assert_stored_form(got)
    assert sympy.expand(_to_sympy(got) - expected) == 0
    # canonical form: exactly the symbols that occur, sorted
    assert got.symbols == tuple(s for s in SYMBOLS if sympy.expand(expected).has(LOCALS[s]))


@pytest.mark.parametrize("syms_b", SYMBOL_SETS, ids=SYMBOL_IDS)
@pytest.mark.parametrize("syms_a", SYMBOL_SETS, ids=SYMBOL_IDS)
def test_arithmetic_matches_sympy(syms_a, syms_b):
    rng = random.Random(f"{syms_a}{syms_b}")
    for _ in range(5):
        a, b = _random_poly(rng, syms_a), _random_poly(rng, syms_b)
        x, y = _to_sympy(a), _to_sympy(b)
        _assert_same(a + b, sympy.expand(x + y))
        _assert_same(a - b, sympy.expand(x - y))
        _assert_same(a * b, sympy.expand(x * y))
        _assert_same(a - a, 0)


def test_cancellation_prunes_symbols():
    q = SparsePoly.sym("Q")
    assert (SparsePoly.t() + q) - q == SparsePoly.t()
    assert ((SparsePoly.t() + q) - q).symbols == ()
    p = SparsePoly.parse("t^2*Q*R - 1/2*R + 3")
    assert (p - p).is_zero() and (p - p).symbols == ()
    assert (p + p.scale(-1) + 1).is_one()


@pytest.mark.parametrize("syms", SYMBOL_SETS, ids=SYMBOL_IDS)
def test_subs_sym_matches_sympy(syms):
    rng = random.Random(f"subs{syms}")
    q = LOCALS["Q"]
    for _ in range(5):
        p = _random_poly(rng, syms)
        c = Fraction(rng.randint(-3, 3), rng.choice([1, 2]))
        value = _random_poly(rng, ("R",), terms=2)
        for by, expr in ((c, sympy.Rational(c.numerator, c.denominator)), (value, _to_sympy(value))):
            _assert_same(p.subs_sym("Q", by), sympy.expand(_to_sympy(p).subs(q, expr)))


@pytest.mark.parametrize("syms", SYMBOL_SETS, ids=SYMBOL_IDS)
def test_split_linear_param_matches_sympy(syms):
    rng = random.Random(f"split{syms}")
    q = LOCALS["Q"]
    rest = tuple(s for s in syms if s != "Q")
    for _ in range(5):
        # p = S + Q*R, with R = 0 when Q is not among the symbols
        s_part, r_part = _random_poly(rng, rest), _random_poly(rng, rest)
        p = s_part + (SparsePoly.sym("Q") * r_part if "Q" in syms else SparsePoly.zero())
        expected = sympy.expand(_to_sympy(p))
        s, r = split_linear_param(p, "Q")
        _assert_same(s, expected.coeff(q, 0))
        _assert_same(r, expected.coeff(q, 1))


@pytest.mark.parametrize("syms", SYMBOL_SETS, ids=SYMBOL_IDS)
def test_poly_gcd_t_matches_sympy(syms):
    rng = random.Random(f"gcd{syms}")
    gens = (T, *(LOCALS[s] for s in syms))
    for _ in range(4):
        g, f1, f2 = (_random_poly(rng, syms, terms=3) for _ in range(3))
        a, b = g * f1, g * f2
        if a.is_zero() and b.is_zero():
            continue
        got = poly_gcd_t(a, b)
        assert_stored_form(got)
        expected = sympy.gcd(_to_sympy(a), _to_sympy(b), *gens)
        # equal up to a nonzero rational factor; sympy normalizes differently
        ratio = sympy.cancel(_to_sympy(got) / expected)
        assert ratio.is_Rational and ratio != 0
        if sympy.Poly(expected, *gens).is_ground:
            assert got.is_one()


def test_division_leaves_exact_fractions():
    # An inexact int division and a 1/lc scaling by an int lead coefficient
    # must build exact Fractions, never floats.
    third = SparsePoly.parse("3*t + 1").divexact(SparsePoly.const(3))
    assert_stored_form(third)
    assert third == SparsePoly.parse("t + 1/3")
    assert third.univariate_t_coeffs() == [Fraction(1, 3), 1]
    for a, b, expected in [
        ("2*t^2 + 2*t - 4", "2*t^2 - 8*t + 6", "t - 1"),
        ("2*t^2*Q + 2*t*Q + 3*t + 3", "2*t^2*Q - 2*t*Q + 3*t - 3", "t*Q + 3/2"),
    ]:
        g = poly_gcd_t(SparsePoly.parse(a), SparsePoly.parse(b))
        assert_stored_form(g)
        assert g == SparsePoly.parse(expected)


def test_public_accessors_return_fractions():
    p = SparsePoly.parse("2*t^2 - 3")
    assert all(type(c) is Fraction for c in p.univariate_t_coeffs())
    assert type(p.eval_t(2)) is Fraction and p.eval_t(2) == 5
    assert type(SparsePoly.zero().eval_t(2)) is Fraction
    for c in (SparsePoly.const(4), SparsePoly.zero()):
        assert type(c.constant_value()) is Fraction
