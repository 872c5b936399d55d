"""Certificate routes: tr/deg, parity, relation search, constructions."""

from __future__ import annotations

import itertools
import json
import math
import operator
import random
import sys

import numpy as np
import pytest

from pgstkit import certify
from pgstkit import (
    DomainError,
    InternalConsistencyError,
    NotCospectralError,
    SparsePoly,
    Verdict,
    ZeroEigenvalueObstruction,
    add_apex,
    add_potential,
    build_change_trace,
    build_glue_pot,
    certify_equitable,
    certify_tr_deg,
    charpoly,
    choose_glue_length,
    choose_path_shift,
    decompose,
    get_fixture,
    heuristic_obstruction,
    integer_relation_search,
    is_cospectral,
    parity_obstruction,
    path_charpoly,
    path_graph,
    to_matrix,
)

from conftest import (
    is_strongly_cospectral,
    isolate_real_roots,
    random_cospectral_graph,
    relation_search_by_key,
)

Q = SparsePoly.sym("Q")


def _with_q(g, u, v, sym="Q"):
    s = SparsePoly.sym(sym)
    return add_potential(add_potential(g, u, s), v, s)


# ---------------------------------------------------------------------------
# certify_tr_deg


def test_tr_deg_k2():
    cert = certify_tr_deg(_with_q(path_graph(2), 0, 1), 0, 1, "Q")
    assert cert.verdict is Verdict.PROVEN_PGST
    assert cert.evidence["trace_plus"] == "Q + 1"
    assert cert.evidence["trace_minus"] == "Q - 1"
    assert cert.evidence["deg_plus"] == 1
    assert cert.evidence["deg_minus"] == 1


def test_tr_deg_gb():
    fb = get_fixture("G_B")
    cert = certify_tr_deg(_with_q(fb.graph, fb.u, fb.v), fb.u, fb.v, "Q")
    assert cert.verdict is Verdict.PROVEN_PGST
    assert cert.evidence["trace_plus"] == "Q - 1"
    assert cert.evidence["trace_minus"] == "Q + 1"
    assert (cert.evidence["deg_plus"], cert.evidence["deg_minus"]) == (7, 2)


def test_tr_deg_gd_inconclusive():
    fd = get_fixture("G_D")
    cert = certify_tr_deg(_with_q(fd.graph, fd.u, fd.v), fd.u, fd.v, "Q")
    assert cert.verdict is Verdict.INCONCLUSIVE
    assert cert.evidence["failed_hypothesis"] == "trace_degree_separation"
    assert cert.evidence["trace_plus"] == "Q"
    assert cert.evidence["trace_minus"] == "Q"


def test_tr_deg_ga_inconclusive():
    fa = get_fixture("G_A")
    cert = certify_tr_deg(_with_q(fa.graph, fa.u, fa.v), fa.u, fa.v, "Q")
    assert cert.verdict is Verdict.INCONCLUSIVE
    assert cert.evidence["failed_hypothesis"] == "trace_degree_separation"


def test_tr_deg_preconditions():
    fb = get_fixture("G_B")
    # symbol absent entirely
    with pytest.raises(DomainError):
        certify_tr_deg(fb.graph, fb.u, fb.v, "Q")
    # symbol at only one endpoint
    half = add_potential(fb.graph, fb.u, Q)
    with pytest.raises(DomainError):
        certify_tr_deg(half, fb.u, fb.v, "Q")
    # wrong coefficient
    twice = add_potential(add_potential(fb.graph, fb.u, Q + Q), fb.v, Q + Q)
    with pytest.raises(DomainError):
        certify_tr_deg(twice, fb.u, fb.v, "Q")
    # symbol leaking onto a third vertex
    leaky = add_potential(_with_q(fb.graph, fb.u, fb.v), 0, Q)
    with pytest.raises(DomainError):
        certify_tr_deg(leaky, fb.u, fb.v, "Q")
    # base pair not cospectral
    p3 = _with_q(path_graph(3), 0, 1)
    with pytest.raises(DomainError, match=r"^vertices \(0,1\) are not cospectral once Q is set to 0$"):
        certify_tr_deg(p3, 0, 1, "Q")
    with pytest.raises(DomainError):
        certify_tr_deg(_with_q(path_graph(2), 0, 1), 0, 0, "Q")


def test_tr_deg_failed_decomposition_over_a_cospectral_base_is_a_fault(monkeypatch):
    # A pair potential cannot break cospectrality: when the decomposition
    # fails but the base pair at Q = 0 is cospectral, the engine is at fault.
    def not_cospectral(m, u, v):
        raise NotCospectralError("injected")

    monkeypatch.setattr(certify, "decompose", not_cospectral)
    fb = get_fixture("G_B")
    with pytest.raises(InternalConsistencyError):
        certify_tr_deg(_with_q(fb.graph, fb.u, fb.v), fb.u, fb.v, "Q")


def test_tr_deg_never_affirms_without_strong_cospectrality():
    rng = random.Random(331)
    for _ in range(20):
        g, u, v = random_cospectral_graph(rng, weighted=True, with_potentials=True)
        cert = certify_tr_deg(_with_q(g, u, v), u, v, "Q")
        if cert.verdict is Verdict.PROVEN_PGST:
            assert is_strongly_cospectral(to_matrix(_with_q(g, u, v)), u, v)


# ---------------------------------------------------------------------------
# parity obstruction


def test_parity_gd_with_symbol():
    fd = get_fixture("G_D")
    dec = decompose(to_matrix(_with_q(fd.graph, fd.u, fd.v)), fd.u, fd.v)
    cert = parity_obstruction(dec)
    assert cert is not None
    assert cert.verdict is Verdict.PROVEN_NO_PGST
    assert cert.evidence["relation_l"] == [1] * 5
    assert cert.evidence["relation_m"] == [-1] * 5
    assert cert.evidence["coefficient_sum"] == 0
    assert cert.evidence["minus_side_sum"] == -5
    assert cert.evidence["holds_for_every_potential_value"] is True
    assert cert.evidence["trace_difference"] == "0"


def test_parity_gd_bare():
    fd = get_fixture("G_D")
    dec = decompose(to_matrix(fd.graph), fd.u, fd.v)
    cert = parity_obstruction(dec)
    assert cert is not None and cert.verdict is Verdict.PROVEN_NO_PGST
    assert cert.evidence["holds_for_every_potential_value"] is False


def test_parity_returns_none_when_inapplicable():
    # K2 + Q: odd equal degrees but distinct traces
    dec = decompose(to_matrix(_with_q(path_graph(2), 0, 1)), 0, 1)
    assert parity_obstruction(dec) is None
    # P3: unequal degrees
    dec = decompose(to_matrix(path_graph(3)), 0, 2)
    assert parity_obstruction(dec) is None
    # G_A: equal degrees and traces, but even
    fa = get_fixture("G_A")
    dec = decompose(to_matrix(fa.graph), fa.u, fa.v)
    assert parity_obstruction(dec) is None


# ---------------------------------------------------------------------------
# numeric relation search


def test_relation_search_empty():
    assert integer_relation_search([], [], 2, 1e-9) == []


def test_relation_search_finds_gd_all_ones():
    fd = get_fixture("G_D")
    dec = decompose(to_matrix(fd.graph), fd.u, fd.v)
    lambdas = isolate_real_roots(dec.p_plus)
    mus = isolate_real_roots(dec.p_minus)
    assert len(lambdas) == 5 and len(mus) == 5
    found = integer_relation_search(lambdas, mus, 1, 1e-9)
    assert ((1, 1, 1, 1, 1), (-1, -1, -1, -1, -1)) in {(r.l, r.m) for r in found}


def test_relation_search_k2_pi_finds_nothing():
    lam = [math.pi + 1.0]
    mu = [math.pi - 1.0]
    assert integer_relation_search(lam, mu, 3, 1e-9) == []


def test_relation_search_constraints_hold():
    rng = random.Random(337)
    for _ in range(5):
        lambdas = sorted(rng.uniform(-3, 3) for _ in range(3))
        mus = sorted(rng.uniform(-3, 3) for _ in range(2))
        for rel in integer_relation_search(lambdas, mus, 2, 1e-6):
            coeffs = list(rel.l) + list(rel.m)
            assert any(coeffs)
            assert sum(coeffs) == 0
            assert sum(rel.m) % 2 == 1
            assert all(abs(c) <= 2 for c in coeffs)
            # canonical sign
            first = next(c for c in coeffs if c)
            assert first > 0
            resid = sum(l * x for l, x in zip(rel.l, lambdas)) + sum(
                m * y for m, y in zip(rel.m, mus)
            )
            assert abs(resid) < 1e-6
            assert abs(rel.residual - resid) < 1e-12


def test_relation_search_planted_relation_found():
    # 2 lambda1 + lambda2 - 3 mu = 0 with all values irrational; the
    # minus-side sum -3 is odd, so the relation is admissible
    rng = random.Random(341)
    for _ in range(5):
        a = rng.uniform(0.5, 1.5) * math.sqrt(2)
        b = rng.uniform(0.5, 1.5) * math.sqrt(3)
        lambdas = [a, b]
        mus = [(2 * a + b) / 3.0]
        found = integer_relation_search(lambdas, mus, 3, 1e-9)
        assert ((2, 1), (-3,)) in {(r.l, r.m) for r in found}


def _spectrum(name):
    f = get_fixture(name)
    dec = decompose(to_matrix(f.graph), f.u, f.v)
    return isolate_real_roots(dec.p_plus), isolate_real_roots(dec.p_minus)


def _half_split_oracle(lambdas, mus, bound, precision):
    """Independent enumeration: pair every lambda-side vector with every
    mu-side vector, keep admissible near-zero sums, sign-normalized."""
    left, right = (
        np.array(list(itertools.product(range(-bound, bound + 1), repeat=len(xs))))
        for xs in (lambdas, mus)
    )
    left_val, right_val = left @ np.array(lambdas), right @ np.array(mus)
    left_sum = left.sum(axis=1)
    found = set()
    for j, row in enumerate(right):  # the mu side: its sum must be odd
        if row.sum() % 2 == 0:
            continue
        hits = (left_sum + row.sum() == 0) & (np.abs(left_val + right_val[j]) < precision)
        for i in np.flatnonzero(hits):
            vec = tuple(int(c) for c in left[i]) + tuple(int(c) for c in row)
            if any(vec):
                first = next(c for c in vec if c)
                found.add(vec if first > 0 else tuple(-c for c in vec))
    return found


def _vectors(relations):
    return [rel.l + rel.m for rel in relations]


def test_relation_search_ga_box_is_exhaustive_alone():
    # G_A has 4 + 4 supported eigenvalues, so bound 3 gives a box of
    # 7^8 <= EXHAUSTIVE_LIMIT points, searched in full at the requested bound
    lambdas, mus = _spectrum("G_A")
    assert len(lambdas) == len(mus) == 4
    assert 7**8 <= certify.EXHAUSTIVE_LIMIT
    relations = integer_relation_search(lambdas, mus, 3, 1e-9)
    found = _vectors(relations)
    assert len(found) == 486  # frozen regression
    assert set(found) == _half_split_oracle(lambdas, mus, 3, 1e-9)
    assert found == sorted(found, key=lambda vec: (sum(abs(c) for c in vec), vec))
    # the 104 exact cancellations print as -0.0 in CLI reports (frozen), and
    # the matching window keeps them at any precision
    assert [repr(rel.residual) for rel in relations].count("-0.0") == 104
    assert len(integer_relation_search(lambdas, mus, 3, 1e-300)) == 104


def test_relation_search_matches_python_enumeration():
    # one-decimal values cancel exactly in a left-to-right Python sum where
    # the float sums of the two halves may not, so precision 1e-300 keeps
    # only what the rounding allowance of the matching window lets through
    rng = random.Random(353)
    for _ in range(6):
        lambdas = [round(rng.uniform(0, 1), 1) for _ in range(3)]
        mus = [sum(lambdas) / 3, round(rng.uniform(0, 2), 1)]
        for precision in (1e-300, 1e-9):
            expected = []
            for vec in itertools.product(range(-3, 4), repeat=5):
                first = next((c for c in vec if c), 0)
                if first < 0 and sum(vec) == 0 and sum(vec[3:]) % 2:
                    residual = sum(c * x for c, x in zip(vec, lambdas + mus))
                    if abs(residual) < precision:
                        pos = tuple(-c for c in vec)
                        expected.append((pos[:3], pos[3:], repr(-residual)))
            got = integer_relation_search(lambdas, mus, 3, precision)
            assert sorted(expected) == sorted((rel.l, rel.m, repr(rel.residual)) for rel in got)


def test_relation_search_matches_the_per_key_search_in_order():
    # one-pass matching against a per-key search, relation for relation and
    # in order: d = 2..10 values split every way between the sides,
    # one-decimal values that cancel exactly (-0.0 residuals), and bounds
    # lowered to fit the box (d >= 9 at bound 3, any d at bound 10^6)
    rng = random.Random(359)
    found = cancelled = lowered = 0
    for d in range(2, 11):
        for trial in range(4):
            r = rng.randint(0, d)
            if trial % 2:
                xs = [round(rng.uniform(-2, 2), 1) for _ in range(d)]
            else:
                xs = [rng.uniform(-3, 3) for _ in range(d)]
            bound = (1, 2, 3, 10**6)[trial]
            for precision in (1e-300, 1e-9, 0.05):
                want = relation_search_by_key(xs[:r], xs[r:], bound, precision)
                got = integer_relation_search(xs[:r], xs[r:], bound, precision)
                assert [(rel.l, rel.m, repr(rel.residual)) for rel in got] == [
                    (rel.l, rel.m, repr(rel.residual)) for rel in want
                ], (xs, r, bound, precision)
                found += bool(want)
                cancelled += any(repr(rel.residual) == "-0.0" for rel in want)
                lowered += bool(want) and certify._searched_bound(d, bound) < bound
    assert (found, cancelled, lowered) == (28, 21, 18)
    lambdas, mus = _spectrum("G_A")
    assert integer_relation_search(lambdas, mus, 3, 1e-9) == relation_search_by_key(
        lambdas, mus, 3, 1e-9
    )


def _planted(rng, r, coeffs, bound, low, integral):
    """Values of magnitude 10^low to 10^6 carrying the relation coeffs +
    [last], last = -sum(coeffs), and its residual as the search sums it
    (the builtin sum of the products); None unless 0 < |last| <= bound and
    the minus-side sum is odd. The last value is solved from the others
    with a left-to-right sum, the same on every Python, exactly when
    ``integral`` and else up to 1000 ulps."""
    last = -sum(coeffs)
    if not 0 < abs(last) <= bound or (sum(coeffs[r:]) + last) % 2 == 0:
        return None
    xs = [rng.choice([-1, 1]) * 10.0 ** rng.uniform(low, 6) for _ in range(len(coeffs) + 1)]
    if integral:
        xs = [float(round(x)) for x in xs]
    xs[-1] = -_sequential_sum(map(operator.mul, coeffs, xs)) / last
    if not integral:
        xs[-1] += rng.randint(-1000, 1000) * math.ulp(xs[-1])
    return xs, sum(map(operator.mul, coeffs + [last], xs))


def _same_relations(xs, r, bound, precision):
    got = integer_relation_search(xs[:r], xs[r:], bound, precision)
    want = relation_search_by_key(xs[:r], xs[r:], bound, precision)
    assert [(rel.l, rel.m, rel.residual.hex()) for rel in got] == [
        (rel.l, rel.m, rel.residual.hex()) for rel in want
    ], (xs, r, bound, precision)
    return got


def test_relation_search_matches_the_per_key_search_at_large_magnitudes():
    # values of 1e3 to 1e6 with a planted relation, exact or not: the
    # relations are the per-key search's, in order and bit for bit, at
    # precisions below, around and far above the planted residual
    rng = random.Random(373)
    found = exact = trial = 0
    while trial < 40:
        d = rng.randint(3, 9)
        r, bound = rng.randint(1, d - 1), rng.choice([1, 2, 3])
        coeffs = [rng.randint(-bound, bound) for _ in range(d - 1)]
        if (planted := _planted(rng, r, coeffs, bound, 3, trial % 2 == 0)) is None:
            continue
        xs, residual = planted
        for precision in (1e-300, 1e-9, 1e-3, 10.0, math.nextafter(abs(residual), 1.0)):
            got = _same_relations(xs, r, bound, precision)
            found += len(got)
            exact += sum(rel.residual == 0 for rel in got)
        trial += 1
    assert (found, exact) == (161, 90)


def test_relations_at_their_windows_end_under_a_far_key_are_found():
    # a left half of coefficients all b has a key far from 0, where key +
    # scale * value rounds more coarsely than a window is wide, and a
    # precision just above the planted relation's residual puts that
    # relation at its window's end: the window's ends must round as the rows
    # do (about 5 in 200 of these are lost when an end is rounded from the
    # window's centre instead)
    rng = random.Random(389)
    checked = 0
    while checked < 300:
        d = rng.randint(3, 6)
        r, b = rng.randint(1, d - 1), rng.choice([2, 3])
        coeffs = [b] * (d // 2) + [rng.randint(-b, b) for _ in range(d - d // 2 - 1)]
        if (planted := _planted(rng, r, coeffs, b, 0, False)) is None or planted[1] == 0:
            continue
        xs, residual = planted
        got = _same_relations(xs, r, b, math.nextafter(abs(residual), 1.0))
        vec = tuple(coeffs + [-sum(coeffs)])
        assert vec in {rel.l + rel.m for rel in got} | {tuple(-c for c in rel.l + rel.m) for rel in got}
        checked += 1


def _sequential_sum(products) -> float:
    """sum() of floats before Python 3.12: left to right from 0."""
    total = 0
    for x in products:
        total += x
    return total


def _compensated_sum(products) -> float:
    """sum() of floats from Python 3.12 on, as CPython's builtin_sum_impl
    computes it: 0 plus the first item, then Neumaier's compensated
    summation, the compensation added at the end when nonzero and finite."""
    rest = iter(products)
    total, compensation = 0 + next(rest), 0.0
    for x in rest:
        t = total + x
        if abs(total) >= abs(x):
            compensation += (total - t) + x
        else:
            compensation += (x - t) + total
        total = t
    return total + compensation if compensation and math.isfinite(compensation) else total


def test_residuals_are_the_builtin_sum():
    # column by column, the residuals are sum(map(mul, row, xs)) bit for bit
    # on this Python, and each of the two ways sum() has added floats is
    # reproduced on any Python: -0.0 products sum to +0.0, and
    # 1e16 + 1 - 1e16 reads 0.0 left to right but 1.0 compensated
    rng = random.Random(379)
    cases = [
        ([0.0, -0.0], [[-1, 1], [1, -1], [0, 0], [2, -3]]),
        ([1e16, 1.0, -1e16], [[1, 1, 1], [1, -1, 1], [-1, 1, -1], [3, 2, 3]]),
        ([0.1, 0.2, 0.3, -0.6], [[1, 1, 1, 1], [3, 3, 3, 3], [-1, 2, -3, 1], [1, 0, 0, 1]]),
    ]
    for d in range(2, 9):
        xs = [rng.choice([-1, 1]) * 10.0 ** rng.uniform(-3, 6) for _ in range(d)]
        cases.append((xs, [[rng.randint(-3, 3) for _ in xs] for _ in range(200)]))
    this_python = _compensated_sum if sys.version_info >= (3, 12) else _sequential_sum
    differ = 0
    for xs, rows in cases:
        vecs = np.array(rows)
        products = [list(map(operator.mul, row, xs)) for row in rows]
        builtin = [sum(row).hex() for row in products]
        assert [this_python(row).hex() for row in products] == builtin, xs
        assert [x.hex() for x in certify._residuals(vecs, xs).tolist()] == builtin, xs
        for compensated, model in ((False, _sequential_sum), (True, _compensated_sum)):
            got = certify._residuals(vecs, xs, compensated).tolist()
            assert [x.hex() for x in got] == [model(row).hex() for row in products], (xs, compensated)
        sequential = certify._residuals(vecs, xs, False).tolist()
        differ += sum(map(operator.ne, sequential, certify._residuals(vecs, xs, True).tolist()))
    assert certify._residuals(np.array([[1, 1, 1]]), [1e16, 1.0, -1e16], True).tolist() == [1.0]
    assert differ > 100


def test_relation_search_refuses_sums_that_overflow():
    # sums of these values overflow a float: refused, not searched on
    # infinite sums; a tenth of them still fits
    with pytest.raises(DomainError, match="overflow"):
        integer_relation_search([1e308, 1e308], [1e308], 3, 1e-9)
    lambdas, mus = [1e307, 1e307], [1e307]
    assert integer_relation_search(lambdas, mus, 3, 1e-9) == relation_search_by_key(lambdas, mus, 3, 1e-9)


def test_relation_search_lowers_the_bound_to_fit_the_box():
    # G_D has 5 + 5 values: 7^10 points exceed the limit, 5^10 fit
    lambdas, mus = _spectrum("G_D")
    found = _vectors(integer_relation_search(lambdas, mus, 3, 1e-9))
    assert len(found) == 571
    assert set(found) == _half_split_oracle(lambdas, mus, 2, 1e-9)
    # the six relations an LLL probe returns at bound 3 (frozen) lie in the
    # bound-2 box
    assert {
        (0, 0, 0, 1, 0, 0, 0, 0, -1, 0),
        (0, 1, 0, 0, 0, 0, -1, 0, 0, 0),
        (0, 1, -1, 1, 0, 0, 0, -1, 0, 0),
        (0, 1, 0, 1, -1, -1, 0, 0, 0, 0),
        (1, 0, 0, 0, 0, 0, -1, 0, -1, 1),
        (1, 0, 1, 0, 1, -1, 0, -1, 0, -1),
    } <= set(found)
    cert = heuristic_obstruction(lambdas, mus, 3, 1e-9)
    assert cert.evidence["bound"] == 2


def test_relation_search_respects_a_smaller_limit(monkeypatch):
    # 5^8 <= 6^8 < 7^8: G_A at requested bound 3 is searched at bound 2
    monkeypatch.setattr(certify, "EXHAUSTIVE_LIMIT", 6**8)
    lambdas, mus = _spectrum("G_A")
    found = _vectors(integer_relation_search(lambdas, mus, 3, 1e-9))
    assert found and set(found) == _half_split_oracle(lambdas, mus, 2, 1e-9)
    assert heuristic_obstruction(lambdas, mus, 3, 1e-9).evidence["bound"] == 2
    # with more values than the limit allows at bound 1, nothing is searched
    monkeypatch.setattr(certify, "EXHAUSTIVE_LIMIT", 3**8 - 1)
    assert integer_relation_search(lambdas, mus, 3, 1e-9) == []


def test_relation_search_huge_bound_is_lowered_at_once():
    # 215^3 <= 10^7 < 217^3, so bound 10^12 is searched at bound 107, found
    # in closed form (counting down from 10^12 would not finish);
    # dyadic values make every sum exact, so the oracle agrees bit for bit
    lambdas, mus = [1.0, 2.5], [3.5]
    found = _vectors(integer_relation_search(lambdas, mus, 10**12, 1e-9))
    assert found and set(found) == _half_split_oracle(lambdas, mus, 107, 1e-9)
    assert heuristic_obstruction(lambdas, mus, 10**12, 1e-9).evidence["bound"] == 107


def test_heuristic_obstruction_gd_and_k2():
    fd = get_fixture("G_D")
    dec = decompose(to_matrix(fd.graph), fd.u, fd.v)
    cert = heuristic_obstruction(
        isolate_real_roots(dec.p_plus), isolate_real_roots(dec.p_minus), 1, 1e-9
    )
    assert cert is not None and cert.verdict is Verdict.HEURISTIC_OBSTRUCTION
    assert cert.evidence["reverified_at"] == 1e-9 / 4
    assert all(abs(r["residual"]) < 1e-9 / 4 for r in cert.evidence["relations"])
    assert heuristic_obstruction([math.pi + 1], [math.pi - 1], 3, 1e-9) is None


# ---------------------------------------------------------------------------
# glue length and shift selection


def test_path_charpoly_values():
    assert str(path_charpoly(0)) == "1"
    assert str(path_charpoly(1)) == "t"
    assert str(path_charpoly(2)) == "t^2 - 1"
    for m in range(2, 9):
        assert path_charpoly(m) == charpoly(to_matrix(path_graph(m)))


def test_choose_glue_length_k2():
    assert choose_glue_length(path_graph(2), 0, 1) == 4


def test_choose_glue_length_zero_obstructions():
    with pytest.raises(ZeroEigenvalueObstruction):
        choose_glue_length(path_graph(3), 0, 2)
    # the deleted matrix of this fixture pair is exactly singular, so the
    # even-length route can never apply; frozen as a regression
    fb = get_fixture("G_B")
    with pytest.raises(ZeroEigenvalueObstruction):
        choose_glue_length(fb.graph, fb.u, fb.v)


def test_choose_path_shift_values():
    assert choose_path_shift(path_graph(3), 0, 2, 3) == 1
    fb = get_fixture("G_B")
    assert choose_path_shift(fb.graph, fb.u, fb.v, 5) == 2
    assert choose_path_shift(fb.graph, fb.u, fb.v, 7) == 3
    assert choose_path_shift(fb.graph, fb.u, fb.v, 11) == 2


def test_build_glue_pot_p3():
    gp = build_glue_pot(path_graph(3), 0, 2, 3)
    assert gp.n == 4  # n + k - 2
    assert {i: str(p) for i, p in sorted(gp.potentials.items())} == {
        0: "1",
        2: "1",
        3: "1",
    }
    assert is_cospectral(to_matrix(gp), 0, 2)


def test_build_glue_pot_validation():
    with pytest.raises(DomainError):
        build_glue_pot(path_graph(3), 0, 2, 4)  # even k
    with pytest.raises(DomainError):
        build_glue_pot(path_graph(3), 0, 2, 1)  # too short


def test_build_change_trace():
    fa = get_fixture("G_A")
    ct = build_change_trace(fa.graph, fa.u, fa.v, 3, "Qp")
    assert ct.n == fa.graph.n + 1  # k=3 adds one interior vertex
    assert {i: str(p) for i, p in ct.potentials.items()} == {9: "Qp"}
    with pytest.raises(DomainError):
        build_change_trace(fa.graph, fa.u, fa.v, 4, "Qp")
    with pytest.raises(DomainError):
        build_change_trace(_with_q(fa.graph, fa.u, fa.v, "Qp"), fa.u, fa.v, 3, "Qp")


def test_change_trace_pipeline_ga():
    fa = get_fixture("G_A")
    ct = build_change_trace(fa.graph, fa.u, fa.v, 3, "Qp")
    cert = certify_tr_deg(_with_q(ct, fa.u, fa.v), fa.u, fa.v, "Q")
    assert cert.verdict is Verdict.PROVEN_PGST
    assert cert.evidence["trace_plus"] == "Q + Qp"
    assert cert.evidence["trace_minus"] == "Q"


# ---------------------------------------------------------------------------
# equitable route


def test_certify_equitable_k3():
    k3, w = add_apex(path_graph(2), 0, 1)
    cert = certify_equitable(k3, 0, 1, w, "Q1", "Q2")
    assert cert.verdict is Verdict.PROVEN_PGST
    assert cert.evidence["trace_plus"] == "Q1 + Q2 + 1"
    assert cert.evidence["trace_minus"] == "Q1 - 1"
    assert cert.evidence["p_minus"] == "t - Q1 + 1"
    assert cert.evidence["partition"] == [[0, 1], [2]]
    assert cert.evidence["trace_membership_symbol"] == "Q2"


def test_certify_equitable_gc_needs_apex():
    fc = get_fixture("G_C")
    for w in (0, 3, 7):
        with pytest.raises(DomainError):
            certify_equitable(fc.graph, 8, 9, w, "Q1", "Q2")
    aug, w = add_apex(fc.graph, 8, 9)
    cert = certify_equitable(aug, 8, 9, w, "Q1", "Q2")
    assert cert.verdict is Verdict.PROVEN_PGST
    assert cert.evidence["partition"] == [list(range(8)), [8, 9], [10]]
    assert cert.evidence["trace_plus"] == "Q1 + Q2 + 2"
    assert cert.evidence["trace_minus"] == "Q1"
    assert (cert.evidence["deg_plus"], cert.evidence["deg_minus"]) == (3, 4)


def test_certify_equitable_validation():
    k3, w = add_apex(path_graph(2), 0, 1)
    with pytest.raises(DomainError):
        certify_equitable(k3, 0, 1, w, "Q1", "Q1")  # same symbol twice
    with pytest.raises(DomainError):
        certify_equitable(k3, 0, 1, 0, "Q1", "Q2")  # w collides with u
    salted = add_potential(k3, 2, SparsePoly.sym("Q2"))
    with pytest.raises(DomainError):
        certify_equitable(salted, 0, 1, w, "Q1", "Q2")  # symbol not fresh
    with pytest.raises(DomainError):
        certify_equitable(path_graph(3), 0, 1, 2, "Q1", "Q2")  # not cospectral


# ---------------------------------------------------------------------------
# certificates serialize


def test_certificates_are_json_serializable():
    fb = get_fixture("G_B")
    cert = certify_tr_deg(_with_q(fb.graph, fb.u, fb.v), fb.u, fb.v, "Q")
    blob = json.dumps(cert.as_json_dict())
    parsed = json.loads(blob)
    assert parsed["verdict"] == "ProvenPGST"
    assert parsed["evidence"]["deg_plus"] == 7
