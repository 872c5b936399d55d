"""Exact polynomial and matrix kernel tests.

Oracles here are deliberately independent implementations: Laplace
expansion for determinants, plain Gaussian elimination over Fraction for
ranks and evaluated determinants, and explicitly factored polynomials for
root isolation.
"""

from __future__ import annotations

import operator
import random
from fractions import Fraction

import pytest

from pgstkit import (
    DomainError,
    ExactDivisionError,
    PolyMatrix,
    SparsePoly,
    bareiss_det,
    charpoly,
    is_irreducible_linear_param,
    isolate_real_roots,
    krylov_min_poly,
    path_graph,
    poly_gcd_t,
    poly_trace,
    split_linear_param,
    to_matrix,
)
from pgstkit import exact
from pgstkit.errors import NotLinearInParamError, ParseError, StructuralError

from conftest import random_graph

T = SparsePoly.t()
ONE = SparsePoly.one()


def P(text: str) -> SparsePoly:
    return SparsePoly.parse(text)


# ---------------------------------------------------------------------------
# arithmetic and canonical form


def test_zero_and_one():
    assert SparsePoly.zero().is_zero()
    assert ONE.is_one()
    assert (T - T).is_zero()
    assert SparsePoly.const(Fraction(3, 2)).constant_value() == Fraction(3, 2)
    assert SparsePoly.zero().deg_t() == -1


def test_addition_and_multiplication_agree_with_parse():
    q = SparsePoly.sym("Q")
    p = (T + q) * (T - q)
    assert p == P("t^2 - Q^2")
    assert (T + ONE) ** 3 == P("t^3 + 3*t^2 + 3*t + 1")
    assert (T - ONE) * (T + ONE) + ONE == T * T


def test_str_parse_round_trip():
    rng = random.Random(7)
    for _ in range(60):
        terms = {}
        for _ in range(rng.randint(1, 6)):
            e = (rng.randint(0, 4), rng.randint(0, 2), rng.randint(0, 2))
            terms[e] = Fraction(rng.randint(-5, 5), rng.choice([1, 2, 3]))
        p = SparsePoly(terms, ("Q", "R"))
        assert SparsePoly.parse(str(p)) == p


def test_parse_rejects_garbage():
    for bad in ("t +", "t^", "t^-1", "&", ""):
        with pytest.raises(Exception):
            SparsePoly.parse(bad)
    with pytest.raises(ParseError, match="zero denominator"):
        SparsePoly.parse("Q + 3/0")
    # juxtaposition is tolerated on input, normalized on output
    assert str(SparsePoly.parse("2t")) == "2*t"


@pytest.mark.parametrize("op", [operator.mul, operator.add], ids=["mul", "add"])
def test_symbol_cap_enforced(op):
    a = SparsePoly.sym("A") * SparsePoly.sym("B")
    with pytest.raises(DomainError, match="more than 2 symbols"):
        op(a, SparsePoly.sym("C"))


def test_substitution_and_eval():
    p = P("t^2 - Q*t + 1")
    assert p.subs_sym("Q", Fraction(2)) == P("t^2 - 2*t + 1")
    assert p.subs_sym("Q", SparsePoly.sym("R")) == P("t^2 - R*t + 1")
    assert abs(P("t^2 - 2").eval_float(1.5, {}) - 0.25) < 1e-12


def test_shift_and_derivative():
    p = P("t^2")
    assert p.shift_t(Fraction(1)) == P("t^2 - 2*t + 1")
    assert p.derivative_t() == P("2*t")
    assert P("Q").derivative_t().is_zero()


# ---------------------------------------------------------------------------
# exact division and gcd


def test_divexact_inverts_multiplication():
    rng = random.Random(11)
    for _ in range(40):
        a = _random_poly(rng)
        b = _random_poly(rng)
        if b.is_zero():
            continue
        assert (a * b).divexact(b) == a


def test_divexact_rejects_non_divisor():
    with pytest.raises(ExactDivisionError):
        P("t^2 + 1").divexact(P("t + 1"))
    with pytest.raises(ExactDivisionError):
        P("t^2 - Q").divexact(P("t - 1"))


def _random_poly(rng: random.Random) -> SparsePoly:
    p = SparsePoly.zero()
    for _ in range(rng.randint(1, 4)):
        c = Fraction(rng.randint(-4, 4))
        if not c:
            continue
        term = SparsePoly.const(c)
        for _ in range(rng.randint(0, 3)):
            term = term * rng.choice([T, SparsePoly.sym("Q")])
        p = p + term
    return p


def test_gcd_examples():
    a = (T - ONE) * P("t^2 + 1")
    b = (T - ONE) * (T + SparsePoly.const(3))
    assert poly_gcd_t(a, b) == T - ONE
    assert poly_gcd_t(P("t^2 - 2"), T).is_one()
    assert poly_gcd_t(SparsePoly.zero(), P("t - 5")) == P("t - 5")
    with pytest.raises(DomainError):
        poly_gcd_t(SparsePoly.zero(), SparsePoly.zero())


def test_gcd_divides_both_and_is_symmetric():
    rng = random.Random(13)
    for _ in range(25):
        a = _random_poly(rng)
        b = _random_poly(rng)
        if a.is_zero() or b.is_zero():
            continue
        g = poly_gcd_t(a, b)
        assert poly_gcd_t(b, a) == g
        a.divexact(g)
        b.divexact(g)


def test_gcd_finds_planted_common_factor():
    rng = random.Random(17)
    for _ in range(25):
        f = T - SparsePoly.const(rng.randint(-3, 3))
        a = f * _random_poly(rng)
        b = f * _random_poly(rng)
        if a.is_zero() or b.is_zero():
            continue
        g = poly_gcd_t(a, b)
        g.divexact(f)  # planted factor divides the gcd


def test_gcd_with_parameters():
    q = SparsePoly.sym("Q")
    a = (T - q) * (T + ONE)
    b = (T - q) * (T - ONE)
    assert poly_gcd_t(a, b) == T - q


# The coprimality probe may only ever answer "coprime"; every other case
# must reach the full gcd and come back exactly as before.


def test_probe_falls_back_where_the_images_mislead():
    # Q's probe value is a root of t - Q's image, so the images of t - Q and
    # t - c share it although the polynomials are coprime.
    c = SparsePoly.const(exact._probe_value("Q"))
    a, b = T - SparsePoly.sym("Q"), T - c
    assert not exact._coprime_probe(a, b)
    assert poly_gcd_t(a, b).is_one()
    assert poly_gcd_t(a, T - c - ONE).is_one() and exact._coprime_probe(a, T - c - ONE)
    # A common factor free of t maps to a unit, so coprime images prove
    # nothing unless one side has a constant leading t-coefficient.
    r = SparsePoly.sym("R")
    a, b = r * (T + ONE), r * (T - ONE)
    assert not exact._coprime_probe(a, b)
    assert poly_gcd_t(a, b) == r


def test_probe_keys_symbol_values_by_name():
    # p over (Q,), q over (P, Q): keyed by position, Q in p would take P's
    # value in q and the images of t - Q and (t - Q)(t + P) would be coprime.
    q, p_sym = SparsePoly.sym("Q"), SparsePoly.sym("P")
    a, b = T - q, (T - q) * (T + p_sym)
    assert a.symbols == ("Q",) and b.symbols == ("P", "Q")
    assert not exact._coprime_probe(a, b)
    assert poly_gcd_t(a, b) == T - q
    assert not is_irreducible_linear_param(P("t^2 - Q*t - t + Q"), "Q")


def test_probe_leaves_a_planted_two_symbol_factor_to_the_gcd():
    g = P("t^2 + P*t - Q")
    for a, b in ((g * P("t - 1"), g * P("t + P")), (g, g * P("Q*t + 1"))):
        assert not exact._coprime_probe(a, b)
        assert poly_gcd_t(a, b) == g


def test_probe_skips_a_denominator_divisible_by_its_prime():
    ell = 2**61 - 1
    a = T - SparsePoly.const(Fraction(1, ell))
    for b in (T, T - SparsePoly.const(Fraction(1, ell))):
        assert not exact._coprime_probe(a, b)
    assert poly_gcd_t(a, T).is_one()
    assert poly_gcd_t(a, T.scale(ell) - ONE) == a
    # a leading coefficient that vanishes mod l keeps no degree; t still does
    assert exact._coprime_probe(T.scale(ell) + ONE, T)
    assert not exact._coprime_probe(T.scale(ell) + ONE, SparsePoly.const(ell))


# ---------------------------------------------------------------------------
# traces and the linear-parameter split


def test_poly_trace():
    assert poly_trace(P("t^3 - 5*t^2 + 1")) == SparsePoly.const(5)
    assert poly_trace(P("t - Q - 1")) == P("Q + 1")
    with pytest.raises(DomainError):
        poly_trace(P("2*t - 1"))  # not monic
    with pytest.raises(DomainError):
        poly_trace(ONE)  # degree zero


def test_split_linear_param():
    s, r = split_linear_param(P("t^2 - Q*t - 1"), "Q")
    assert s == P("t^2 - 1")
    assert r == P("-t")
    s, r = split_linear_param(P("t^2 - 2"), "Q")
    assert s == P("t^2 - 2") and r.is_zero()
    with pytest.raises(NotLinearInParamError):
        split_linear_param(P("Q^2*t - 1"), "Q")


def test_is_irreducible_linear_param():
    assert is_irreducible_linear_param(P("t^2 - Q*t - 1"), "Q")
    # (t - Q)(t - 1) = t^2 - (Q+1) t + Q factors, gcd(S, R) = t - 1
    assert not is_irreducible_linear_param(P("t^2 - Q*t - t + Q"), "Q")
    with pytest.raises(DomainError):
        is_irreducible_linear_param(P("t^2 - 2"), "Q")  # no Q at all


# ---------------------------------------------------------------------------
# determinants and characteristic polynomials


def _laplace_det(entries: list[list[SparsePoly]]) -> SparsePoly:
    n = len(entries)
    if n == 0:
        return ONE
    if n == 1:
        return entries[0][0]
    total = SparsePoly.zero()
    for j in range(n):
        minor = [row[:j] + row[j + 1 :] for row in entries[1:]]
        term = entries[0][j] * _laplace_det(minor)
        if j % 2:
            total = total - term
        else:
            total = total + term
    return total


def test_charpoly_matches_laplace_expansion():
    rng = random.Random(23)
    for _ in range(12):
        g = random_graph(rng, n=rng.randint(1, 5), weighted=True, with_potentials=True)
        m = to_matrix(g)
        n = m.dimension
        shifted = [
            [
                (T if i == j else SparsePoly.zero()) - m.entry(i, j)
                for j in range(n)
            ]
            for i in range(n)
        ]
        assert charpoly(m) == _laplace_det(shifted)


def test_charpoly_eval_matches_fraction_elimination():
    rng = random.Random(29)
    for _ in range(15):
        g = random_graph(rng, n=rng.randint(2, 8), weighted=True, with_potentials=True)
        m = to_matrix(g)
        p = charpoly(m)
        t0 = Fraction(rng.randint(-6, 6), rng.choice([1, 2, 3]))
        n = m.dimension
        a = [
            [
                (t0 if i == j else Fraction(0)) - m.entry(i, j).constant_value()
                for j in range(n)
            ]
            for i in range(n)
        ]
        assert sum(c * t0**k for k, c in enumerate(p.univariate_t_coeffs())) == _fraction_det(a)


def _fraction_det(a: list[list[Fraction]]) -> Fraction:
    a = [row[:] for row in a]
    n = len(a)
    det = Fraction(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            det = -det
        det *= a[col][col]
        inv = 1 / a[col][col]
        for r in range(col + 1, n):
            factor = a[r][col] * inv
            if factor:
                a[r] = [x - factor * y for x, y in zip(a[r], a[col])]
    return det


def test_charpoly_k2_with_symbol():
    q = SparsePoly.sym("Q")
    m = PolyMatrix([[q, ONE], [ONE, q]])
    assert charpoly(m) == P("t^2 - 2*Q*t + Q^2 - 1")


def test_charpoly_empty_matrix():
    assert charpoly(PolyMatrix([])).is_one()


def test_bareiss_matches_laplace():
    rng = random.Random(31)
    for _ in range(10):
        g = random_graph(rng, n=rng.randint(1, 5), weighted=True, with_potentials=True)
        m = to_matrix(g)
        rows = [[m.entry(i, j) for j in range(m.dimension)] for i in range(m.dimension)]
        assert bareiss_det(rows) == _laplace_det(rows)


def test_polymatrix_validation():
    z = SparsePoly.zero()
    q = SparsePoly.sym("Q")
    with pytest.raises(StructuralError):
        PolyMatrix([[ONE, T], [T, ONE]])  # t in an entry
    with pytest.raises(StructuralError):
        PolyMatrix([[ONE, ONE]])  # not square
    with pytest.raises(StructuralError):
        PolyMatrix([[z, q], [q, z]])  # symbol off the diagonal
    with pytest.raises(StructuralError):
        PolyMatrix([[z, ONE], [z, z]])  # asymmetric


# ---------------------------------------------------------------------------
# Krylov minimal polynomials


def test_krylov_examples():
    p3 = to_matrix(path_graph(3))
    assert krylov_min_poly(p3, [1, 0, 1]) == P("t^2 - 2")
    assert krylov_min_poly(p3, [1, 0, -1]) == T


def test_krylov_annihilates_and_divides_charpoly():
    rng = random.Random(37)
    for _ in range(15):
        g = random_graph(rng, n=rng.randint(2, 7), weighted=True, with_potentials=True)
        m = to_matrix(g)
        n = m.dimension
        i, j = rng.sample(range(n), 2) if n >= 2 else (0, 0)
        z = [int(k == i) + int(k == j) for k in range(n)]
        p = krylov_min_poly(m, z)
        assert p.is_monic_t()
        charpoly(m).divexact(p)  # divides exactly or raises
        # annihilation: sum_k c_k M^k z = 0, checked over plain Fractions
        zf = [Fraction(c) for c in z]
        mat = [
            [m.entry(r, c).constant_value() for c in range(n)] for r in range(n)
        ]
        coeffs = p.univariate_t_coeffs()
        acc = [Fraction(0)] * n
        power = zf[:]
        for k in range(len(coeffs)):
            ck = coeffs[k]
            if ck:
                acc = [a + ck * w for a, w in zip(acc, power)]
            if k + 1 < len(coeffs):
                power = [
                    sum(row[c] * power[c] for c in range(n)) for row in mat
                ]
        assert all(x == 0 for x in acc)
        # minimality: degree equals the rank of the Krylov family
        assert p.deg_t() == _krylov_rank(mat, zf)


def _krylov_rank(mat: list[list[Fraction]], z: list[Fraction]) -> int:
    n = len(mat)
    vecs = []
    cur = z[:]
    for _ in range(n + 1):
        vecs.append(cur[:])
        cur = [sum(row[c] * cur[c] for c in range(n)) for row in mat]
    # row-reduce the collected power vectors
    rank = 0
    rows = [v[:] for v in vecs]
    for col in range(n):
        piv = next((r for r in range(rank, len(rows)) if rows[r][col] != 0), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = 1 / rows[rank][col]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                f = rows[r][col] * inv
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def test_krylov_zero_vector_rejected():
    m = to_matrix(path_graph(2))
    with pytest.raises(DomainError):
        krylov_min_poly(m, [SparsePoly.zero(), SparsePoly.zero()])


def test_symbol_cap_in_the_matrix_kernels(monkeypatch):
    # charpoly(M) holds every symbol of M, so a matrix with more than two is
    # refused before any product (the stubbed kernel would raise TypeError);
    # krylov_min_poly accepts symbols that z never reaches and refuses once
    # an entry it builds holds more than two.
    n = 12
    rows = [[SparsePoly.zero()] * n for _ in range(n)]
    rows[0][1] = rows[1][0] = rows[1][2] = rows[2][1] = SparsePoly.one()
    for i in range(3, n):
        rows[i][i] = SparsePoly.sym(f"S{i}")
    wide = PolyMatrix(rows)
    with monkeypatch.context() as patch:
        patch.setattr(exact, "_accumulate", None)
        with pytest.raises(DomainError, match="more than 2 symbols"):
            charpoly(wide)
    assert krylov_min_poly(wide, [1] + [0] * (n - 1)) == P("t^3 - 2*t")
    path = PolyMatrix([[P("Q"), 1, 0], [1, P("R"), 1], [0, 1, P("S")]])
    with pytest.raises(DomainError, match="more than 2 symbols"):
        krylov_min_poly(path, [1, 0, 0])


# ---------------------------------------------------------------------------
# real root isolation


def test_isolate_known_roots():
    roots = isolate_real_roots(P("t^2 - 2"))
    assert len(roots) == 2
    assert abs(roots[0] + 2 ** 0.5) < 1e-9
    assert abs(roots[1] - 2 ** 0.5) < 1e-9
    # multiplicity collapses
    p = (T - ONE) * (T - ONE) * (T + SparsePoly.const(2))
    assert [round(r) for r in isolate_real_roots(p)] == [-2, 1]
    triple = isolate_real_roots(T * T * T)
    assert len(triple) == 1 and abs(triple[0]) < 1e-9


def test_isolate_constructed_factorizations():
    rng = random.Random(41)
    for _ in range(20):
        roots = sorted(rng.sample(range(-8, 9), rng.randint(1, 4)))
        p = ONE
        for r in roots:
            p = p * (T - SparsePoly.const(r)) ** rng.randint(1, 2)
        if rng.random() < 0.5:
            p = p * P("t^2 + 1")  # no real roots from this factor
        found = isolate_real_roots(p)
        assert len(found) == len(roots)
        for expected, got in zip(roots, found):
            assert abs(expected - got) < 1e-9
