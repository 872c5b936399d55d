"""Certificate routes: tr/deg, parity, relation search, constructions."""

from __future__ import annotations

import itertools
import json
import math
import random

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
