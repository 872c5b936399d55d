"""Certificate routes: tr/deg, parity, relation search, constructions."""

from __future__ import annotations

import itertools
import json
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from pgstkit import certify
from pgstkit import (
    DomainError,
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
    is_strongly_cospectral,
    isolate_real_roots,
    parity_obstruction,
    path_charpoly,
    path_graph,
    to_matrix,
)

from conftest import random_cospectral_graph

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
    with pytest.raises(DomainError):
        certify_tr_deg(p3, 0, 1, "Q")
    with pytest.raises(DomainError):
        certify_tr_deg(_with_q(path_graph(2), 0, 1), 0, 0, "Q")


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


def test_relation_search_ga_box_is_exhaustive_alone(monkeypatch):
    # G_A has 4 + 4 supported eigenvalues, so bound 3 gives a box of
    # 7^8 <= EXHAUSTIVE_LIMIT points, searched by enumeration alone
    fa = get_fixture("G_A")
    dec = decompose(to_matrix(fa.graph), fa.u, fa.v)
    lambdas = isolate_real_roots(dec.p_plus)
    mus = isolate_real_roots(dec.p_minus)
    assert len(lambdas) == len(mus) == 4
    assert 7**8 <= certify.EXHAUSTIVE_LIMIT

    def no_lll(*args):
        raise AssertionError("LLL probe ran inside the exhaustive box")

    monkeypatch.setattr(certify, "_lll_candidates", no_lll)
    found = [rel.l + rel.m for rel in integer_relation_search(lambdas, mus, 3, 1e-9)]

    # independent enumeration: pair every left half (lambda side) with
    # every right half (mu side) and keep admissible near-zero sums
    half = np.array(list(itertools.product(range(-3, 4), repeat=4)))
    left, right = half @ np.array(lambdas), half @ np.array(mus)
    right_sum = half.sum(axis=1)
    expected = set()
    for i, row in enumerate(half):
        hits = (row.sum() + right_sum == 0) & (right_sum % 2 == 1)
        hits &= np.abs(left[i] + right) < 1e-9
        for j in np.flatnonzero(hits):
            vec = tuple(int(c) for c in row) + tuple(int(c) for c in half[j])
            first = next(c for c in vec if c)
            expected.add(vec if first > 0 else tuple(-c for c in vec))
    assert len(found) == 486  # frozen regression
    assert set(found) == expected
    assert found == sorted(found, key=lambda vec: (sum(abs(c) for c in vec), vec))


def _gram_schmidt(basis):
    """Fraction Gram-Schmidt: returns mu and the squared norms of b*."""
    star, norms = [], []
    mu = [[Fraction(0)] * len(basis) for _ in basis]
    for i, row in enumerate(basis):
        w = [Fraction(x) for x in row]
        for j in range(i):
            mu[i][j] = sum(Fraction(a) * c for a, c in zip(row, star[j])) / norms[j]
            w = [a - mu[i][j] * c for a, c in zip(w, star[j])]
        star.append(w)
        norms.append(sum(a * a for a in w))
    return mu, norms


def test_lll_reduces_and_keeps_the_lattice():
    rng = random.Random(347)
    bases = []
    for _ in range(8):
        n = rng.randint(2, 5)
        width = n + rng.randint(0, 2)
        bases.append([[rng.randint(-60, 60) for _ in range(width)] for _ in range(n)])
    for _ in range(4):  # the shape the relation probe builds
        xs = [rng.uniform(-3, 3) for _ in range(rng.randint(2, 5))]
        bases.append(
            [[int(i == j) for j in range(len(xs))] + [round(x * 10**6), 1000] for i, x in enumerate(xs)]
        )
    for basis in bases:
        _, before = _gram_schmidt(basis)
        reduced = certify._lll(basis)
        mu, norms = _gram_schmidt(reduced)
        n = len(reduced)
        assert all(abs(mu[k][j]) <= Fraction(1, 2) for k in range(n) for j in range(k))
        assert all(
            norms[k] >= (Fraction(3, 4) - mu[k][k - 1] ** 2) * norms[k - 1] for k in range(1, n)
        )
        # equal Gram determinants: the rows still span a lattice of the same volume
        assert math.prod(norms) == math.prod(before)


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
