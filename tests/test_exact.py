"""Exact polynomial and matrix kernel tests.

Oracles here are deliberately independent implementations: Laplace
expansion for determinants, plain Gaussian elimination over Fraction for
ranks and evaluated determinants, and explicitly factored polynomials for
root isolation.
"""

from __future__ import annotations

import inspect
import operator
import random
from fractions import Fraction

import pytest

from pgstkit import (
    DomainError,
    ExactDivisionError,
    Graph,
    PolyMatrix,
    SparsePoly,
    bareiss_det,
    charpoly,
    is_irreducible_linear_param,
    krylov_min_poly,
    path_graph,
    poly_gcd_t,
    poly_trace,
    split_linear_param,
    to_matrix,
)
from pgstkit import exact
from pgstkit.errors import NotLinearInParamError, ParseError, StructuralError

from conftest import assert_stored_form, isolate_real_roots, random_graph, univariate_t_coeffs

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


def test_equal_constants_hash_equal():
    # A constant polynomial equals its value, so it hashes as that value.
    for c in (0, 3, -2, Fraction(3), Fraction(-1, 3), Fraction(0)):
        p = SparsePoly.const(c)
        assert p == c and hash(p) == hash(c)
        assert len({c, p}) == 1
    assert hash(SparsePoly.zero()) == hash(0)
    assert len({3, SparsePoly.const(3), ONE + 2, P("3")}) == 1


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


def _monic_poly(rng: random.Random) -> SparsePoly:
    """A random polynomial plus t to one more than its t-degree."""
    p = _random_poly(rng)
    return p + T ** (p.deg_t() + 1)


def test_gcd_divides_both_and_is_symmetric():
    rng = random.Random(13)
    for _ in range(25):
        a = _monic_poly(rng)
        b = _random_poly(rng)
        if b.is_zero():
            continue
        g = poly_gcd_t(a, b)
        assert poly_gcd_t(b, a) == g
        assert g.is_monic_t()
        a.divexact(g)
        b.divexact(g)


def test_gcd_finds_planted_common_factor():
    rng = random.Random(17)
    for _ in range(25):
        f = T - SparsePoly.const(rng.randint(-3, 3))
        a = f * _monic_poly(rng)
        b = f * _random_poly(rng)
        if b.is_zero():
            continue
        g = poly_gcd_t(a, b)
        g.divexact(f)  # planted factor divides the gcd


def test_gcd_with_parameters():
    q = SparsePoly.sym("Q")
    a = (T - q) * (T + ONE)
    b = (T - q) * (T - ONE)
    assert poly_gcd_t(a, b) == T - q


def test_gcd_needs_a_constant_leading_coefficient():
    # R is a common factor of both, but neither leading t-coefficient is
    # constant: the gcd is outside its domain.
    r = SparsePoly.sym("R")
    with pytest.raises(DomainError, match="constant leading coefficient"):
        poly_gcd_t(r * (T + ONE), r * (T - ONE))
    with pytest.raises(DomainError, match="constant leading coefficient"):
        poly_gcd_t(SparsePoly.zero(), r)


# Every image has degree at least deg gcd, so one of degree 0 proves the
# answer 1; any other answer must be lifted and divide both exactly.


def _spy(monkeypatch, name: str) -> list:
    """Record (the prime p, the result) of every call to exact.<name>."""
    seen, fn = [], getattr(exact, name)
    where = list(inspect.signature(fn).parameters).index("p")

    def spy(*args):
        seen.append((args[where], out := fn(*args)))
        return out

    monkeypatch.setattr(exact, name, spy)
    return seen


def test_gcd_where_the_first_image_misleads(monkeypatch):
    # Q's first value is a root of t - Q's image, so at the first point the
    # images of t - Q and t - c share it although the polynomials are
    # coprime. b is free of Q, so that is the first round's one point, and
    # it gives no candidate that divides a (t - c would not); the next
    # prime's point proves them coprime.
    c = SparsePoly.const(exact._probe_value("Q"))
    calls = _spy(monkeypatch, "_euclid")
    a, b = T - SparsePoly.sym("Q"), T - c
    assert poly_gcd_t(a, b).is_one()
    (p0, first), (p1, second) = calls
    assert p0 == exact._PROBE_PRIME != p1 and (len(first), len(second)) == (2, 1)
    calls.clear()
    assert poly_gcd_t(a, T - c - ONE).is_one() and len(calls) == 1


def test_gcd_refuses_a_spurious_extra_root(monkeypatch):
    # (t - Q)(t - 1) and (t - c)(t - 1) agree at Q = c. b is free of Q, so
    # the first round has that one point, of degree 2, and gives no
    # candidate that divides a ((t - c)(t - 1) would not): the next prime's
    # round gives t - 1.
    c = SparsePoly.const(exact._probe_value("Q"))
    calls = _spy(monkeypatch, "_lifted")
    a, b = (T - SparsePoly.sym("Q")) * (T - ONE), (T - c) * (T - ONE)
    assert poly_gcd_t(a, b) == T - ONE
    (p0, _), (p1, (_, _, coeffs)) = calls
    assert p0 == exact._PROBE_PRIME != p1 and len(coeffs) == 2  # of t^0 and t^1
    # With Q in b too, the first round's second point has degree 1: the
    # round is dropped, with no candidate.
    calls.clear()
    assert poly_gcd_t(a, b * P("t - Q - 5")) == T - ONE
    assert [coeffs is None for _, (_, _, coeffs) in calls] == [True, False]


def test_gcd_keys_symbol_values_by_name():
    # p over (Q,), q over (P, Q): keyed by position, Q in p would take P's
    # value in q and the images of t - Q and (t - Q)(t + P) would be coprime.
    q, p_sym = SparsePoly.sym("Q"), SparsePoly.sym("P")
    a, b = T - q, (T - q) * (T + p_sym)
    assert a.symbols == ("Q",) and b.symbols == ("P", "Q")
    assert poly_gcd_t(a, b) == T - q
    assert not is_irreducible_linear_param(P("t^2 - Q*t - t + Q"), "Q")


def test_gcd_lifts_a_planted_two_symbol_factor():
    g = P("t^2 + P*t - Q")
    for a, b in ((g * P("t - 1"), g * P("t + P")), (g, g * P("Q*t + 1"))):
        assert poly_gcd_t(a, b) == g
        assert poly_gcd_t(b, a) == g


def test_gcd_coefficient_above_one_prime_needs_two(monkeypatch):
    # A coefficient above 2^61 has no reconstruction modulo one prime below
    # it; the Chinese remainder theorem combines two.
    big = SparsePoly.const(2**64 + 1)
    calls = _spy(monkeypatch, "_lifted")
    a, b = (T - big) * (T + ONE), (T - big) * P("t^2 - Q")
    assert poly_gcd_t(a, b) == T - big
    assert len(calls) == 2


def test_gcd_skips_a_prime_that_divides_a_denominator(monkeypatch):
    ell = 2**61 - 1
    a = T - SparsePoly.const(Fraction(1, ell))
    calls = _spy(monkeypatch, "_euclid")
    assert poly_gcd_t(a, T).is_one()
    assert poly_gcd_t(a, a) == a
    assert poly_gcd_t(a, T.scale(ell) - ONE) == a
    # a leading coefficient divisible by l puts l in f's denominators
    assert poly_gcd_t(T.scale(ell) + ONE, T).is_one()
    assert poly_gcd_t(T.scale(ell) + ONE, SparsePoly.const(ell)).is_one()
    assert calls and ell not in [p for p, _ in calls]


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
        assert sum(c * t0**k for k, c in enumerate(univariate_t_coeffs(p))) == _fraction_det(a)


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


def _seeded_symmetric_rows(rng: random.Random, n: int) -> list[list[SparsePoly]]:
    """A symmetric n x n matrix as dense rows: rational off-diagonal entries,
    about half of them zero, and a diagonal of rationals, zeros and Q, R terms."""
    rows = [[SparsePoly.zero()] * n for _ in range(n)]
    for i in range(n):
        for j in range(i):
            if rng.random() < 0.5:
                rows[i][j] = rows[j][i] = SparsePoly.const(Fraction(rng.randint(-3, 3), rng.randint(1, 2)))
        rows[i][i] = rng.choice([SparsePoly.zero(), SparsePoly.const(rng.randint(-2, 2)), P("Q"), P("2*R - 1")])
    return rows


def test_mapping_rows_build_the_same_matrix_as_dense_rows():
    rng = random.Random(2003)
    for _ in range(30):
        n = rng.randint(1, 7)
        rows = _seeded_symmetric_rows(rng, n)
        dense = PolyMatrix(rows)
        # absent columns are zero; a zero given explicitly is dropped too
        sparse = PolyMatrix([{j: x for j, x in enumerate(row) if x or rng.random() < 0.2} for row in rows])
        assert dense.dimension == sparse.dimension == n
        for i in range(n):
            for j in range(n):
                assert dense.entry(i, j) == sparse.entry(i, j) == rows[i][j]
                assert_stored_form(sparse.entry(i, j))
        assert dense.symbols() == sparse.symbols()
        assert charpoly(dense) == charpoly(sparse)


@pytest.mark.parametrize(
    "rows, message",
    [
        ([{0: ONE}, {2: ONE}], "vertex index 2 out of range"),  # column n
        ([{-1: ONE}, {}], "vertex index -1 out of range"),
        ([{1: ONE}, {}], "not symmetric at \\(1,0\\)"),  # no mirror entry
        ([{1: P("Q")}, {0: P("Q")}], "carries a parameter symbol"),
        ([{0: P("t + 1")}, {}], "involves t"),
    ],
    ids=["column-n", "column-minus-1", "no-mirror", "symbol-off-diagonal", "t-in-entry"],
)
def test_mapping_rows_are_validated(rows, message):
    with pytest.raises(StructuralError, match=message):
        PolyMatrix(rows)


@pytest.mark.parametrize("i, j", [(-1, 0), (0, 3), (3, 3)])
def test_entry_refuses_an_index_out_of_range(i, j):
    m = to_matrix(path_graph(3))
    with pytest.raises(StructuralError, match="out of range 0..2"):
        m.entry(i, j)


def test_polymatrix_attributes_are_read_only():
    m = to_matrix(path_graph(3))
    with pytest.raises(AttributeError):
        m.dimension = 4
    with pytest.raises(AttributeError):
        m.entries = ()


def test_to_matrix_memory_grows_with_the_edges_not_n_squared():
    # A seeded tree on 2000 vertices: 3998 nonzero entries, so the matrix is
    # far below one n x n grid of references (32 MB).
    import tracemalloc

    rng = random.Random(2000)
    g = Graph(2000, [(rng.randrange(i), i, rng.randint(1, 3)) for i in range(1, 2000)], {0: P("Q")})
    tracemalloc.start()
    try:
        m = to_matrix(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert m.dimension == 2000 and m.entry(0, 0) == P("Q")
    assert peak < 8 * 2**20, peak


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
        coeffs = univariate_t_coeffs(p)
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
    with pytest.raises(DomainError) as err:
        krylov_min_poly(m, [SparsePoly.zero(), SparsePoly.zero()])
    assert str(err.value) == "relative minimal polynomial of the zero vector"


def _two_symbol_matrix(seed: int) -> tuple[PolyMatrix, int, int]:
    """A seeded sparse weighted symmetric matrix of order 8 or 9 with Q at u
    and v and R at a third vertex w."""
    rng = random.Random(f"twosym{seed}")
    n = rng.choice([8, 9])
    rows = [[SparsePoly.zero()] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.3:
                rows[i][j] = rows[j][i] = SparsePoly.const(Fraction(rng.choice([1, 2, -1, 3]), rng.choice([1, 2])))
        if rng.random() < 0.4:
            rows[i][i] = SparsePoly.const(rng.randint(-2, 2))
    u, v, w = rng.sample(range(n), 3)
    rows[u][u] += P("Q")
    rows[v][v] += P("Q")
    rows[w][w] += P("R")
    return PolyMatrix(rows), u, v


@pytest.mark.parametrize("seed", range(40))
def test_two_symbol_krylov_above_n_7_is_the_minimal_polynomial(seed):
    # p(M) z = 0 exactly, so the minimal polynomial divides p; and deg p is
    # the Krylov rank at a rational point, which no specialization raises
    # above the degree of the minimal polynomial. So p is that polynomial.
    m, u, v = _two_symbol_matrix(seed)
    n = m.dimension
    assert m.symbols() == ("Q", "R")
    rng = random.Random(seed)
    point = {s: Fraction(rng.randint(-20, 20), rng.randint(1, 7)) for s in ("Q", "R")}
    nonzero = [[(j, m.entry(i, j)) for j in range(n) if m.entry(i, j)] for i in range(n)]
    at_point = [[Fraction(0)] * n for _ in range(n)]
    for i, row in enumerate(nonzero):
        for j, x in row:
            at_point[i][j] = x.subs_sym("Q", point["Q"]).subs_sym("R", point["R"]).constant_value()
    for sign in (1, -1):
        z = [int(k == u) + sign * int(k == v) for k in range(n)]
        p = krylov_min_poly(m, z)
        assert p.is_monic_t()
        assert_stored_form(p)
        w = [SparsePoly.const(x) for x in z]
        acc = [SparsePoly.zero()] * n
        for c in p.t_coeffs():
            acc = [a + c * x for a, x in zip(acc, w)]
            w = [sum((x * w[j] for j, x in row), SparsePoly.zero()) for row in nonzero]
        assert all(a.is_zero() for a in acc)
        assert p.deg_t() == _krylov_rank(at_point, [Fraction(x) for x in z])


def test_symbol_cap_where_a_matrix_frame_is_formed():
    # Nine symbols on isolated vertices: the matrix is refused when built,
    # from dense rows or from column maps, whichever of its vertices a
    # later question would ask about. A polynomial may declare unused
    # symbols, since only the ones that occur count against the cap.
    n = 12
    rows = [[SparsePoly.zero()] * n for _ in range(n)]
    rows[0][1] = rows[1][0] = rows[1][2] = rows[2][1] = SparsePoly.one()
    for i in range(3, n):
        rows[i][i] = SparsePoly.sym(f"S{i}")
    message = f"operation would mix more than 2 symbols: {tuple(sorted(f'S{i}' for i in range(3, n)))!r}"
    for wide in (rows, [{j: x for j, x in enumerate(row) if x} for row in rows]):
        with pytest.raises(DomainError) as err:
            PolyMatrix(wide)
        assert str(err.value) == message
    within = PolyMatrix([[P("Q"), 1, 0], [1, P("R"), 1], [0, 1, P("R")]])
    assert within.symbols() == ("Q", "R")
    assert within.delete([0]).symbols() == ("R",)
    assert SparsePoly({(1, 0, 0, 0): 1}, ("A", "B", "C")) == T


def test_symbol_cap_where_z_widens_the_frame():
    # z may add a symbol to the matrix's frame within the cap; one that
    # takes the frame past two is refused before the first product.
    path = PolyMatrix([[P("Q"), 1, 0], [1, P("R"), 1], [0, 1, 0]])
    assert krylov_min_poly(PolyMatrix([[0, 1], [1, 0]]), [P("S"), 0]) == P("t^2 - 1")
    assert krylov_min_poly(path, [1, 0, 0]).symbols == ("Q", "R")
    with pytest.raises(DomainError) as err:
        krylov_min_poly(path, [P("S"), 0, 0])
    assert str(err.value) == "operation would mix more than 2 symbols: ('Q', 'R', 'S')"


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
