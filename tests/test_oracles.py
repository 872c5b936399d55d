"""Differential tests of the exact kernels against sympy.

sympy is a test-only dependency: it computes the same objects by routes
that share no code with pgstkit. Instances are seeded sparse weighted
symmetric matrices with one or two parameter symbols on the diagonal, and
seeded sparse polynomials over each symbol set (), (Q), (R) and (Q, R).
The cofactor P_zero of a decomposition is checked against charpoly on
cospectral pairs: paths, stars, G_C and mirror graphs.
Every result is also checked for the stored coefficient form: an int when
integral, otherwise a Fraction in lowest terms, and never a float.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import prod

import pytest

from pgstkit import (
    ExactDivisionError,
    Graph,
    InternalConsistencyError,
    NotCospectralError,
    PolyMatrix,
    SparsePoly,
    add_apex,
    add_potential,
    bareiss_det,
    charpoly,
    decompose,
    exact,
    get_fixture,
    is_cospectral,
    is_irreducible_linear_param,
    krylov_min_poly,
    path_graph,
    poly_gcd_t,
    spectral,
    split_linear_param,
    to_matrix,
)

from conftest import (
    assert_stored_form,
    asymmetric_cospectral_graph,
    isolate_real_roots,
    random_cospectral_graph,
    univariate_t_coeffs,
)

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
    # kept to n <= 7, where sympy's nullspace oracle takes well under a
    # second; test_exact checks two symbols at n = 8-9 without it.
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


def _charpoly_matrix(case) -> PolyMatrix:
    """A seeded instance; a seeded weighted tree with Q at two vertices, R
    at a third too (QR), or three-digit rational weights (rational); or a
    matrix that ``construct`` takes the charpoly of: a fixture with its
    pair deleted, or a star K_{1,k}."""
    if isinstance(case, int):
        return _instance(case)[0]
    if case.startswith("K1,"):
        return _cofactor_case("star", int(case.removeprefix("K1,")), 0)[0]
    if case in ("Q", "QR", "rational"):
        rng = random.Random(f"charpoly-{case}")
        n = 7
        rows = [[SparsePoly.zero()] * n for _ in range(n)]
        for i in range(1, n):
            j = rng.randrange(i)
            w = Fraction(rng.randint(100, 999), rng.randint(100, 999)) if case == "rational" else rng.choice([1, 2, -1])
            rows[i][j] = rows[j][i] = SparsePoly.const(w)
        rows[1][1] = rows[5][5] = SparsePoly.sym("Q")
        if case == "QR":
            rows[3][3] = SparsePoly.parse("R + 1")
        return PolyMatrix(rows)
    f = get_fixture(case)
    return to_matrix(f.graph).delete((f.u, f.v))


CHARPOLY_CASES = [*SEEDS, "Q", "QR", "rational", "G_A", "G_B", "G_C", "G_D", *(f"K1,{k}" for k in range(3, 11))]


@pytest.mark.parametrize("case", CHARPOLY_CASES)
def test_charpoly_matches_sympy(case):
    m = _charpoly_matrix(case)
    expected = _sympy_matrix(m).charpoly(T).as_expr()
    got = charpoly(m)
    assert_stored_form(got)
    assert sympy.expand(_to_sympy(got) - expected) == 0


def test_charpoly_combines_primes_past_twice_the_bound():
    # A path with weights near 10^7 and Q at a middle vertex: 2H, about
    # 2^96, needs two 61-bit primes, and the constant coefficient, about
    # 10^28, is wrong modulo one; Chinese remaindering that stops a prime
    # early fails here.
    w = [10**7 + 1, 10**7 + 3, 10**7 + 7]
    m = PolyMatrix([[0, w[0], 0, 0], [w[0], 0, w[1], 0], [0, w[1], SparsePoly.sym("Q"), w[2]], [0, 0, w[2], 0]])
    assert exact._PROBE_PRIME < 2 * (1 + w[0]) * (1 + w[0] + w[1]) * (1 + w[1] + w[2] + 1) * (1 + w[2]) < 2**120
    _assert_same(charpoly(m), _sympy_matrix(m).charpoly(T).as_expr())


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


# Seeds of _instance per symbol set; for () the pair symbol Q is bound to 1/2.
ROUND_SEEDS = {(): (0, 2, 6), ("Q",): (0, 2, 9), ("Q", "R"): (5, 8, 11)}


def _round_cases(symbols: tuple[str, ...]):
    """(matrix, z) for both sides of the pair of each seed in ROUND_SEEDS."""
    for seed in ROUND_SEEDS[symbols]:
        m, u, v = _instance(seed)
        n = m.dimension
        if not symbols:
            m = PolyMatrix(
                [[m.entry(i, j).subs_sym("Q", Fraction(1, 2)) for j in range(n)] for i in range(n)]
            )
        assert m.symbols() == symbols
        for sign in (1, -1):
            yield m, [SparsePoly.const((k == u) + sign * (k == v)) for k in range(n)]


def _oracle(m: PolyMatrix, z: list[SparsePoly]):
    return _sympy_min_poly(_sympy_matrix(m), sympy.Matrix([_to_sympy(x) for x in z]))


def _one_prime(monkeypatch) -> None:
    """Let every modular run take the first prime only: a second round fails."""

    def first_only():
        yield next(primes())
        raise AssertionError("a second round")

    primes = exact._primes
    monkeypatch.setattr(exact, "_primes", first_only)


@pytest.mark.parametrize("symbols", list(ROUND_SEEDS), ids=["none", "Q", "QR"])
def test_krylov_min_poly_proves_its_first_round(monkeypatch, symbols):
    # Small coefficients reconstruct from one prime, so when every image is
    # right the first candidate passes the exact check: a wrong image or a
    # wrong interpolation would cost a second prime.
    _one_prime(monkeypatch)
    for m, z in _round_cases(symbols):
        _assert_same(krylov_min_poly(m, z), _oracle(m, z))


def _pair_round_cases(symbols: tuple[str, ...]):
    """(matrix, u, v) for each seed in ROUND_SEEDS: a weighted graph whose
    automorphism exchanges u = 0 and v = 1, with Q at both and, for (Q, R),
    R at a vertex the automorphism fixes."""
    for seed in ROUND_SEEDS[symbols]:
        g, u, v = random_cospectral_graph(random.Random(seed), weighted=True)
        g = add_potential(g, (u, v), SparsePoly.sym("Q"))
        if "R" in symbols:
            g = add_potential(g, (g.n - 1,), SparsePoly.sym("R"))
        yield to_matrix(g), u, v


def _assert_sides(m: PolyMatrix, u: int, v: int, dec) -> None:
    """P_plus and P_minus of ``dec`` are the oracle's relative minimal polynomials."""
    for sign, got in ((1, dec.p_plus), (-1, dec.p_minus)):
        _assert_same(got, _oracle(m, [SparsePoly.const((k == u) + sign * (k == v)) for k in range(m.dimension)]))


@pytest.mark.parametrize("symbols", [("Q",), ("Q", "R")], ids=["Q", "QR"])
def test_decompose_proves_its_first_round(monkeypatch, symbols):
    # Q, only at the pair, takes one point: P = P|₀ - (g/2) Q(t), with
    # g = Q here, comes from the images of M0, which lacks Q, and their
    # moments (see exact._min_poly). A wrong correction (its factor, sign
    # or moment index) gives a candidate the exact check refuses, which
    # would cost a second prime.
    _one_prime(monkeypatch)
    for m, u, v in _pair_round_cases(symbols):
        _assert_sides(m, u, v, decompose(m, u, v))


def _first_round_refuted(monkeypatch, how: str) -> list[int]:
    """Make the first round's candidate wrong. A spurious reconstruction:
    the first nonzero coefficient reconstructs one too large, and the list
    returned records that modulus. An unlucky round: every image of the
    first round has degree one less (its relation less the constant term,
    divided by t), as at points where the Krylov rank drops, and the list
    records the prime of every round."""
    primes: list[int] = []
    if how == "spurious-reconstruction":
        rational = exact._rational

        def planted(u, m):
            c = rational(u, m)
            if not primes and c:
                primes.append(m)
                return c + 1
            return c

        monkeypatch.setattr(exact, "_rational", planted)
    else:
        images = exact._images

        def planted(diags, zs, edges, p, pair, *rest):
            relations, moments = images(diags, zs, edges, p, pair, *rest)
            primes.append(p)
            return [rel[1:] for rel in relations] if len(primes) == 1 else relations, moments

        monkeypatch.setattr(exact, "_images", planted)
    return primes


@pytest.mark.parametrize("how", ["spurious-reconstruction", "unlucky-round"])
@pytest.mark.parametrize("symbols", list(ROUND_SEEDS), ids=["none", "Q", "QR"])
def test_a_wrong_candidate_is_refused_by_the_exact_check(monkeypatch, symbols, how):
    # The first round yields a wrong monic candidate, the exact check refuses
    # it, and the next prime gives the minimal polynomial.
    primes = _first_round_refuted(monkeypatch, how)
    for m, z in _round_cases(symbols):
        primes.clear()
        _assert_same(krylov_min_poly(m, z), _oracle(m, z))
        assert len(primes) == 2 if how == "unlucky-round" else primes == [exact._PROBE_PRIME]


def test_a_denominator_of_the_first_prime_skips_it(monkeypatch):
    # A weight 1/(2^61 - 1) has no residue modulo the first prime, 2^61 - 1
    # itself, so every image comes from later primes.
    images = exact._images
    primes = []

    def spy(diags, zs, edges, p, pair, *rest):
        primes.append(p)
        return images(diags, zs, edges, p, pair, *rest)

    monkeypatch.setattr(exact, "_images", spy)
    w = SparsePoly.const(Fraction(1, exact._PROBE_PRIME))
    q, zero, one = SparsePoly.sym("Q"), SparsePoly.zero(), SparsePoly.one()
    m = PolyMatrix([[q, w, zero, zero], [w, zero, one, zero], [zero, one, zero, w], [zero, zero, w, q]])
    for sign in (1, -1):
        z = [one, zero, zero, SparsePoly.const(sign)]
        _assert_same(krylov_min_poly(m, z), _oracle(m, z))
    assert primes and exact._PROBE_PRIME not in primes


def test_rational_coefficients_need_more_than_one_prime(monkeypatch):
    # Weights with three-digit numerators and denominators give both sides
    # rational coefficients that one 61-bit prime cannot reconstruct; the
    # Chinese remainder theorem combines rounds until every one does.
    images = exact._images
    primes = []

    def spy(diags, zs, edges, p, pair, *rest):
        primes.append(p)
        return images(diags, zs, edges, p, pair, *rest)

    monkeypatch.setattr(exact, "_images", spy)
    rng = random.Random("rational")
    n = 6
    rows = [[SparsePoly.zero()] * n for _ in range(n)]
    for i in range(n - 1):
        rows[i][i + 1] = rows[i + 1][i] = SparsePoly.const(Fraction(rng.randint(100, 999), rng.randint(100, 999)))
    rows[0][0] = rows[n - 1][n - 1] = SparsePoly.sym("Q")
    rows[2][2] = SparsePoly.const(Fraction(rng.randint(100, 999), rng.randint(100, 999)))
    m = PolyMatrix(rows)
    for sign in (1, -1):
        primes.clear()
        z = [SparsePoly.const((k == 0) + sign * (k == n - 1)) for k in range(n)]
        got = krylov_min_poly(m, z)
        _assert_same(got, _oracle(m, z))
        assert len(primes) > 1
        assert any(type(c) is Fraction for c in got._terms.values())


def test_grid_points_of_one_round_may_finish_at_different_steps(monkeypatch):
    # M = diag(Q, c) with c the first round's value of Q at its first point:
    # there M is cI and z's image closes at degree 1, at the second point at
    # degree 2. The short image sinks its round, and later rounds give
    # (t - Q)(t - c).
    images = exact._images
    degrees = []

    def spy(diags, zs, edges, p, pair, *rest):
        relations, moments = images(diags, zs, edges, p, pair, *rest)
        degrees.append([len(rel) - 1 for rel in relations])
        return relations, moments

    monkeypatch.setattr(exact, "_images", spy)
    c = exact._probe_value("Q")
    m = PolyMatrix([[SparsePoly.sym("Q"), 0], [0, c]])
    z = [SparsePoly.one()] * 2
    _assert_same(krylov_min_poly(m, z), _oracle(m, z))
    assert degrees[0] == [1, 2] and len(degrees) > 1


def test_grid_points_of_one_round_may_restart_at_different_steps(monkeypatch):
    # At the first point, Q = c, the chain from e_0 closes at rank 2 (M^2 e_0
    # is 2 e_0 + c M e_0) and restarts from e_2; at the second it reaches
    # rank 3. Each closure multiplies into the point's relation.
    mul_mod = exact._mul_mod
    closures = []

    def spy(a, b, p):
        if p == exact._PROBE_PRIME:
            closures.append((len(a) - 1, len(b) - 1))
        return mul_mod(a, b, p)

    monkeypatch.setattr(exact, "_mul_mod", spy)
    c = exact._probe_value("Q")
    m = PolyMatrix([[0, 1, 1], [1, SparsePoly.sym("Q"), 0], [1, 0, c]])
    _assert_same(charpoly(m), _sympy_matrix(m).charpoly(T).as_expr())
    assert sorted(closures) == [(0, 2), (0, 3), (2, 1)]


@pytest.mark.parametrize(
    "images_compare, entry",
    [
        pytest.param(True, decompose, id="images"),
        pytest.param(False, decompose, id="exact-only"),
        pytest.param(True, is_cospectral, id="is_cospectral-images"),
        pytest.param(False, is_cospectral, id="is_cospectral-exact-only"),
    ],
)
def test_a_pair_cospectral_modulo_the_first_prime_is_refused(monkeypatch, images_compare, entry):
    # A path a-u-...-v-b with end edges of weight 1 and 2^61: modulo the
    # first prime, 2^61 - 1, the two ends weigh the same, so every image of
    # the first round sees a cospectral pair. Over Q the walk counts at u
    # and v differ, so a later prime's images or the exact check refuse it;
    # with images that compare nothing, the exact check alone. decompose
    # raises, and is_cospectral, which is the same run, answers False.
    images = exact._images
    rounds = []

    def spy(diags, zs, edges, p, pair, *kept):
        rounds.append([p, "raised"])
        relations = images(diags, zs, edges, p, pair if images_compare else None, *kept)
        rounds[-1][1] = "returned"
        return relations

    monkeypatch.setattr(exact, "_images", spy)
    n = 8
    edges = [(i, i + 1, 1) for i in range(n - 2)] + [(n - 2, n - 1, 2**61)]
    g = add_potential(Graph(n, edges), (1, n - 2), SparsePoly.sym("Q"))
    if entry is decompose:
        with pytest.raises(NotCospectralError):
            decompose(to_matrix(g), 1, n - 2)
    else:
        assert is_cospectral(to_matrix(g), 1, n - 2) is False
    assert rounds[0] == [exact._PROBE_PRIME, "returned"]


@pytest.mark.parametrize("symbols", [("Q",), ("Q", "R")], ids=["Q", "QR"])
def test_a_candidate_that_vanishes_at_a_small_power_of_two_is_refused(monkeypatch, symbols):
    # The first candidate gets Q - 4 added to its constant term, so its
    # residual is (Q - 4) z: zero at Q = 4, the point 2^2, but not at the
    # point the exact check picks, which is larger than every coefficient.
    lifted = exact._lifted
    rounds = []

    def planted(images, degree, axes, p, combined, modulus):
        combined, modulus, coeffs = lifted(images, degree, axes, p, combined, modulus)
        rounds.append(p)
        if coeffs and len(rounds) == 1:
            const = coeffs[0] = dict(coeffs[0])
            for e, c in [((0,) * (1 + len(axes)), -4), ((0, 1) + (0,) * (len(axes) - 1), 1)]:
                if x := const.pop(e, 0) + c:
                    const[e] = x
        return combined, modulus, coeffs

    monkeypatch.setattr(exact, "_lifted", planted)
    for m, z in _round_cases(symbols):
        rounds.clear()
        _assert_same(krylov_min_poly(m, z), _oracle(m, z))
        assert len(rounds) == 2


def _with_pendants(g: Graph, u: int, v: int, potential: SparsePoly) -> Graph:
    """g with a new pendant vertex at u and one at v, both carrying the
    potential: one rooted graph attached at both vertices of a cospectral
    pair keeps it cospectral."""
    n = g.n
    return add_potential(Graph(n + 2, {**g.edges, (u, n): 1, (v, n + 1): 1}), (n, n + 1), potential)


# A potential at the pair, and one at pendant vertices attached to both.
PAIR_POTENTIALS = {
    "Q^2+1/3": ("Q^2 + 1/3", None),
    "2/3*Q": ("2/3*Q", None),
    "Q*R": ("Q*R", None),
    "Q,R^2-off-the-pair": ("Q", "R^2"),
    "Q,Q-off-the-pair": ("Q", "Q"),
    "3": ("3", None),  # g is a constant: the moment correction runs with no symbol
    "Q+2": ("Q + 2", None),
}


@pytest.mark.parametrize("case", list(PAIR_POTENTIALS))
@pytest.mark.parametrize("seed", range(2))
def test_pair_potentials_match_sympy_at_an_asymmetric_pair(monkeypatch, seed, case):
    # Small coefficients: one prime, so a wrong candidate fails at once.
    _one_prime(monkeypatch)
    g, u, v = asymmetric_cospectral_graph(random.Random(seed))
    at_pair, off_pair = PAIR_POTENTIALS[case]
    if off_pair:
        g = _with_pendants(g, u, v, SparsePoly.parse(off_pair))
    m = to_matrix(add_potential(g, (u, v), SparsePoly.parse(at_pair)))
    _assert_sides(m, u, v, decompose(m, u, v))


@pytest.mark.parametrize("at_v", ["2*Q", "Q + R"])
@pytest.mark.parametrize("base", ["G_B", "asymmetric"])
def test_unequal_increments_at_the_pair_are_refused_in_one_prime(monkeypatch, base, at_v):
    # Q at u and 2Q or Q + R at v: M_uu != M_vv, so entries u and v of
    # M (e_u + e_v) differ, and the split of M at the pair refuses it
    # before any image runs.
    _one_prime(monkeypatch)
    if base == "G_B":
        f = get_fixture("G_B")
        g, u, v = f.graph, f.u, f.v
    else:
        g, u, v = asymmetric_cospectral_graph(random.Random(0))
    m = to_matrix(add_potential(add_potential(g, (u,), SparsePoly.sym("Q")), (v,), SparsePoly.parse(at_v)))

    def spy(*args):
        raise AssertionError("an image ran")

    monkeypatch.setattr(exact, "_images", spy)
    with pytest.raises(NotCospectralError):
        decompose(m, u, v)
    assert is_cospectral(m, u, v) is False


@pytest.mark.parametrize("at_centre, points", [(None, 1), ("R^2", 3), ("Q", 2)], ids=["Q", "R^2", "Q-off-the-pair"])
def test_a_pair_symbol_takes_one_grid_point(monkeypatch, at_centre, points):
    # A path 0..6 with Q at the pair (0, 6): the images run on M0, M with
    # no diagonal entry at the pair, so Q takes one point per prime. R^2 at
    # the centre adds B_R + 1 = 3 points; Q at the centre too gives M0 only
    # that Q, so B_Q = 1 and Q takes 2.
    images = exact._images
    widths = []

    def spy(diags, zs, edges, p, pair, *kept):
        widths.append(len(zs))
        return images(diags, zs, edges, p, pair, *kept)

    monkeypatch.setattr(exact, "_images", spy)
    g = add_potential(path_graph(7), (0, 6), SparsePoly.sym("Q"))
    if at_centre:
        g = add_potential(g, (3,), SparsePoly.parse(at_centre))
    decompose(to_matrix(g), 0, 6)
    assert widths and set(widths) == {points}


def test_a_refusal_by_the_images_prepares_no_exact_check(monkeypatch):
    # G_B's (0, 1) is refused by the first images, before any candidate:
    # the exact check's integral rows are never built.
    def prepared(*args):
        raise AssertionError("the exact check was prepared")

    monkeypatch.setattr(exact, "_integral", prepared)
    m = to_matrix(get_fixture("G_B").graph)
    assert is_cospectral(m, 0, 1) is False
    with pytest.raises(NotCospectralError):
        decompose(m, 0, 1)


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
# frame boundaries: a symbol of the matrix or of z that the result lacks

FRAME_CASES = ["plus", "minus", "other-component", "z-scaled-by-R"]


def _frame_case(seed: int, case: str) -> tuple[PolyMatrix, list[SparsePoly], str]:
    """Two weighted paths, 0..k-1 with Q at u and v, and k..k+2 with R at
    one vertex (no R in the matrix for z-scaled-by-R). Returns the matrix,
    z, and the symbol the relative minimal polynomial must lack."""
    rng = random.Random(f"frame{seed}")
    k = rng.randint(3, 5)
    n = k + 3
    rows = [[SparsePoly.zero()] * n for _ in range(n)]
    for i in range(1, n):
        if i != k:  # no edge joins the two paths
            rows[i - 1][i] = rows[i][i - 1] = SparsePoly.const(
                Fraction(rng.choice([1, 2, -1, 3]), rng.choice([1, 2]))
            )
    u, v = rng.sample(range(k), 2)
    q, r = (SparsePoly.sym(s) for s in SYMBOLS)
    rows[u][u] = rows[v][v] = q
    if case != "z-scaled-by-R":
        x = rng.randrange(k, n)
        rows[x][x] = r + rng.randint(-1, 1)
    m = PolyMatrix(rows)
    if case == "other-component":
        return m, [SparsePoly.const(int(i >= k) * rng.randint(1, 2)) for i in range(n)], "Q"
    sign = -1 if case == "minus" else 1
    z = [SparsePoly.const((i == u) + sign * (i == v)) for i in range(n)]
    if case == "z-scaled-by-R":
        z = [x * r for x in z]
    return m, z, "R"


@pytest.mark.parametrize("case", FRAME_CASES)
@pytest.mark.parametrize("seed", range(5))
def test_frame_symbols_absent_from_the_result_are_pruned(seed, case):
    m, z, absent = _frame_case(seed, case)
    assert absent in m.symbols() or any(x.has_sym(absent) for x in z)
    got = krylov_min_poly(m, z)
    _assert_same(got, _sympy_min_poly(_sympy_matrix(m), sympy.Matrix([_to_sympy(x) for x in z])))
    assert not got.has_sym(absent)
    phi = charpoly(m)
    _assert_same(phi, _sympy_matrix(m).charpoly(T).as_expr())
    assert phi.symbols == m.symbols()


# ---------------------------------------------------------------------------
# the cofactor P_zero of P_plus and P_minus, from the charpoly of M0


def _cofactor_case(
    kind: str, size: int, symbols: int
) -> tuple[PolyMatrix, int, int, int | None]:
    """A cospectral pair with 0, 1 or 2 symbols, and its d0 where it is known.

    A path's end vertices have d0 = 0, and G_C's pair d0 = 4. On the star
    K_{1,size} with Q at the leaves 1 and 2, P_minus has degree 1 and P_plus
    degree 3 (e_1 + e_2, the center, the other leaves), so d0 = size - 3.
    A mirror graph exchanges 0 and 1 and fixes a third of its vertices.
    """
    q, r = (SparsePoly.sym(s) for s in SYMBOLS)
    if kind == "path":
        g, u, v, d0, fixed = path_graph(size), 0, size - 1, 0, None
    elif kind == "star":
        g = Graph(size + 1, [(0, i, 1) for i in range(1, size + 1)])
        u, v, d0, fixed = 1, 2, size - 3, 0
    elif kind == "G_C":
        f = get_fixture("G_C")
        g, u, v, d0, fixed = f.graph, f.u, f.v, 4, None
    elif kind == "equitable":  # G_C with the apex construct equitable adds, R at the apex
        f = get_fixture("G_C")
        (g, fixed), u, v, d0 = add_apex(f.graph, f.u, f.v), f.u, f.v, 4
    else:
        rng = random.Random(size)
        g, u, v = random_cospectral_graph(rng, n=size, weighted=True, with_potentials=True)
        d0, fixed = None, size - 1
    if symbols >= 1:
        g = add_potential(g, (u, v), q)
    if symbols == 2:
        g = add_potential(g, fixed, r)
    return to_matrix(g), u, v, d0


COFACTOR_CASES = [
    *(("path", n, s) for n in (4, 7) for s in (0, 1)),
    *(("star", leaves, leaves % 3) for leaves in range(3, 11)),  # d0 = 0..7
    ("G_C", 0, 0),
    ("G_C", 0, 1),
    ("equitable", 0, 2),  # d0 = 4, and M0 keeps R, off the pair
    *(("mirror", n, n % 3) for n in range(5, 11)),
]


@pytest.mark.parametrize("case", COFACTOR_CASES, ids=lambda c: "-".join(map(str, c)))
def test_cofactor_times_relative_factors_is_charpoly(case):
    m, u, v, d0 = _cofactor_case(*case)
    dec = decompose(m, u, v)
    assert d0 is None or dec.deg_zero == d0
    phi = charpoly(m)
    assert dec.p_zero == phi.divexact(dec.p_plus * dec.p_minus)
    assert dec.p_plus * dec.p_minus * dec.p_zero == phi
    _assert_same(dec.p_plus * dec.p_minus * dec.p_zero, _sympy_matrix(m).charpoly(T).as_expr())
    assert_stored_form(dec.p_zero)


@pytest.mark.parametrize("seed", SEEDS)
def test_cofactor_of_no_factors_is_charpoly(seed):
    # d0 = n: the cofactor is det(tI - M) from modular images, and Bareiss
    # elimination of tI - M is a second route to it
    m, _, _ = _instance(seed)
    n, t = m.dimension, SparsePoly.t()
    assert charpoly(m) == bareiss_det([[t * (i == j) - m.entry(i, j) for j in range(n)] for i in range(n)])


@pytest.mark.parametrize("name", ["G_A", "G_B", "G_C"])
def test_cofactor_guard_refuses_a_wrong_factor(monkeypatch, name):
    f = get_fixture(name)
    m = to_matrix(add_potential(f.graph, (f.u, f.v), SparsePoly.sym("Q")))
    dec = decompose(m, f.u, f.v)
    wrong = dec.p_plus.shift_t(1)  # every root moved up by 1
    for factors in [
        (wrong, dec.p_minus),
        (dec.p_plus + 1, dec.p_minus),  # d0 = 0 on G_B: the division is the only check
        (dec.p_plus, dec.p_minus, SparsePoly.t(dec.deg_zero + 1)),  # degree past n
        (dec.p_plus + SparsePoly.sym("Z"), dec.p_minus),  # a symbol M lacks
    ]:
        with pytest.raises(ExactDivisionError):
            exact._charpoly(exact._KrylovMatrix(m._frame, m._rows, None), prod(factors))
    # decompose reports a failed guard as an engine bug
    monkeypatch.setattr(spectral, "_min_poly", lambda *args: (wrong, wrong))
    with pytest.raises(InternalConsistencyError) as err:
        decompose(m, f.u, f.v)
    assert str(err.value) == "charpoly is not divisible by P_plus * P_minus at a cospectral pair"


@pytest.mark.parametrize("seed", range(6))
def test_decomposition_at_an_asymmetric_pair_is_charpoly(seed):
    # The paper's subject: a cospectral pair that no automorphism swaps,
    # with the pair symbol Q at both of its vertices.
    g, u, v = asymmetric_cospectral_graph(random.Random(seed))
    m = to_matrix(add_potential(g, (u, v), SparsePoly.sym("Q")))
    dec = decompose(m, u, v)
    assert dec.deg_plus + dec.deg_minus + dec.deg_zero == m.dimension
    _assert_same(dec.p_plus * dec.p_minus * dec.p_zero, _sympy_matrix(m).charpoly(T).as_expr())


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
        # a is monic in t, as one argument must have a constant leading t-coefficient
        g, f1 = (_monic(rng, syms, rng.randint(1, 2), 3) for _ in range(2))
        a, b = g * f1, g * _random_poly(rng, syms, terms=3)
        got = poly_gcd_t(a, b)
        assert_stored_form(got)
        expected = sympy.gcd(_to_sympy(a), _to_sympy(b), *gens)
        # equal up to a nonzero rational factor; sympy normalizes differently
        ratio = sympy.cancel(_to_sympy(got) / expected)
        assert ratio.is_Rational and ratio != 0
        if sympy.Poly(expected, *gens).is_ground:
            assert got.is_one()


def _monic(rng: random.Random, symbols: tuple[str, ...], degree: int, terms: int) -> SparsePoly:
    """t^degree plus random terms of lower t-degree."""
    p = _random_poly(rng, symbols, terms)
    return SparsePoly.t(degree) + sum((p.coeff_t(k) * SparsePoly.t(k) for k in range(degree)), SparsePoly.zero())


@pytest.mark.parametrize("syms", SYMBOL_SETS, ids=SYMBOL_IDS)
def test_coprimality_and_irreducibility_match_sympy(syms):
    # Pairs with a monic-in-t side, half of them with a planted common
    # factor.
    rng = random.Random(f"probe{syms}")
    gens = (T, *(LOCALS[s] for s in syms))
    rest = tuple(s for s in syms if s != "Q")
    for _ in range(12):
        a, b = _monic(rng, syms, rng.randint(1, 3), 3), _random_poly(rng, syms, terms=4)
        if rng.random() < 0.5:
            f = _monic(rng, syms, rng.randint(1, 2), 2)
            a, b = a * f, b * f
        if b.is_zero():
            continue
        coprime = sympy.Poly(sympy.gcd(_to_sympy(a), _to_sympy(b), *gens), *gens).is_ground
        assert poly_gcd_t(a, b).is_one() == poly_gcd_t(b, a).is_one() == coprime
        # p = S + Q*R, monic in t and of degree 1 in Q
        s_part, r_part = _monic(rng, rest, 3, 3), _monic(rng, rest, 2, 2) - SparsePoly.t(2)
        if r_part.is_zero():
            continue
        if rng.random() < 0.4:
            g = _monic(rng, rest, 1, 1)
            s_part, r_part = s_part * g, r_part * g
        p = s_part + SparsePoly.sym("Q") * r_part
        _, factors = sympy.factor_list(_to_sympy(p), T, LOCALS["Q"], LOCALS["R"])
        moving = [k for fac, k in factors if fac.has(T) or fac.has(LOCALS["Q"])]
        assert is_irreducible_linear_param(p, "Q") == (moving == [1])


def test_division_leaves_exact_fractions():
    # An inexact int division and a 1/lc scaling by an int lead coefficient
    # must build exact Fractions, never floats.
    third = SparsePoly.parse("3*t + 1").divexact(SparsePoly.const(3))
    assert_stored_form(third)
    assert third == SparsePoly.parse("t + 1/3")
    assert univariate_t_coeffs(third) == [Fraction(1, 3), 1]
    for a, b, expected in [
        ("2*t^2 + 2*t - 4", "2*t^2 - 8*t + 6", "t - 1"),
        ("2*t^2 + 3*t + 1", "2*t^2*Q + t*Q + 4*t + 2", "t + 1/2"),
    ]:
        g = poly_gcd_t(SparsePoly.parse(a), SparsePoly.parse(b))
        assert_stored_form(g)
        assert g == SparsePoly.parse(expected)


def test_public_accessors_return_fractions():
    p = SparsePoly.parse("2*t^2 - 3")
    assert all(type(c) is Fraction for c in univariate_t_coeffs(p))
    for c in (SparsePoly.const(4), SparsePoly.zero()):
        assert type(c.constant_value()) is Fraction
