"""Cospectrality, decomposition, and perturbation identity tests."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from pgstkit import (
    DomainError,
    Graph,
    NotCospectralError,
    SparsePoly,
    add_potential,
    charpoly,
    decompose,
    get_fixture,
    is_cospectral,
    path_graph,
    spectral,
    to_matrix,
)

from conftest import (
    asymmetric_cospectral_graph,
    is_strongly_cospectral,
    maps_by_automorphism,
    q_expansion_residual,
    random_cospectral_graph,
    random_graph,
    trace_param_membership,
)

P = SparsePoly.parse


def _with_pair_potential(g, u, v, value):
    return add_potential(add_potential(g, u, value), v, value)


# ---------------------------------------------------------------------------
# cospectrality decisions


def test_is_cospectral_examples():
    fa = get_fixture("G_A")
    assert is_cospectral(to_matrix(fa.graph), fa.u, fa.v)
    k2 = to_matrix(path_graph(2))
    assert is_cospectral(k2, 0, 1)
    p3 = to_matrix(path_graph(3))
    assert not is_cospectral(p3, 0, 1)  # endpoint vs middle
    with pytest.raises(DomainError):
        is_cospectral(p3, 1, 1)


def _deleted_charpolys_agree(m, u, v):
    # the definition: the charpolys of both vertex-deleted matrices
    return charpoly(m.delete([u])) == charpoly(m.delete([v]))


def _cospectrality_cases():
    """Seeded (matrix, u, v): mirror pairs, random pairs of unstructured
    graphs, and both kinds again with Q at the pair and R elsewhere."""
    rng = random.Random(211)
    q, r = SparsePoly.sym("Q"), SparsePoly.sym("R")
    cases = []
    for _ in range(20):
        g, u, v = random_cospectral_graph(rng, weighted=True, with_potentials=True)
        cases.append((g, u, v))
    for _ in range(20):
        g = random_graph(rng, n=rng.randint(3, 9), weighted=True, with_potentials=True)
        cases.append((g, *rng.sample(range(g.n), 2)))
    # two symbols: R at a vertex the mirror fixes keeps the pair cospectral,
    # R at u usually breaks it; the oracle decides either way
    for _ in range(8):
        g, u, v = random_cospectral_graph(rng, n=rng.randint(4, 6), weighted=True, with_potentials=True)
        w = rng.choice([u, rng.randrange(2, g.n)])
        cases.append((add_potential(_with_pair_potential(g, u, v, q), w, r), u, v))
    for _ in range(8):
        g = random_graph(rng, n=rng.randint(3, 6), weighted=True, with_potentials=True)
        u, v, w = rng.sample(range(g.n), 3)
        cases.append((add_potential(_with_pair_potential(g, u, v, q), w, r), u, v))
    # every pair of a few graphs: decompose reads the pair off P_plus's own
    # Krylov run, for k <= deg P_plus only
    for _ in range(4):
        g, _, _ = random_cospectral_graph(rng, n=rng.randint(4, 7), weighted=True, with_potentials=True)
        cases += [(g, u, v) for u in range(g.n) for v in range(u + 1, g.n)]
    return [(to_matrix(g), u, v) for g, u, v in cases]


def test_is_cospectral_agrees_with_deleted_charpolys():
    seen = set()
    for m, u, v in _cospectrality_cases():
        expected = _deleted_charpolys_agree(m, u, v)
        assert is_cospectral(m, u, v) == expected
        if expected:
            decompose(m, u, v)
        else:
            with pytest.raises(NotCospectralError):
                decompose(m, u, v)
        seen.add((expected, len(m.symbols())))
    assert seen == {(True, 0), (False, 0), (True, 2), (False, 2)}


@pytest.mark.parametrize("n", [4, 6, 8])
def test_is_cospectral_checks_up_to_the_last_power(n):
    # Path with a potential next to the middle, nearer v = n-1: a closed walk
    # from v meets it at length n-1 at the earliest, and one from u = 0 only
    # at n+1, so (M^k)_uu and (M^k)_vv first differ at k = n-1.
    m = to_matrix(add_potential(path_graph(n), n // 2, 1))
    power = [[int(i == j) for j in range(n)] for i in range(n)]
    dense = [[m.entry(i, j).constant_value() for j in range(n)] for i in range(n)]
    for k in range(1, n):
        power = [[sum(a * b for a, b in zip(row, col)) for col in zip(*dense)] for row in power]
        assert (power[0][0] == power[n - 1][n - 1]) == (k < n - 1)
    assert not is_cospectral(m, 0, n - 1)
    assert not _deleted_charpolys_agree(m, 0, n - 1)
    with pytest.raises(NotCospectralError):
        decompose(m, 0, n - 1)


def test_asymmetric_pairs_are_swapped_by_no_automorphism():
    # The search finds the swap of a mirror pair and of a path's ends, and
    # none for G_C's hubs or for the generated instances built on them.
    for seed in range(6):
        g, u, v = random_cospectral_graph(random.Random(seed), weighted=True, with_potentials=True)
        assert maps_by_automorphism(g, u, v)
        g, u, v = asymmetric_cospectral_graph(random.Random(seed))
        assert g.n in (12, 14) and is_cospectral(to_matrix(g), u, v)
        assert not maps_by_automorphism(g, u, v)
    assert maps_by_automorphism(path_graph(5), 0, 4)
    assert not maps_by_automorphism(path_graph(5), 0, 1)
    assert not maps_by_automorphism(get_fixture("G_C").graph, 8, 9)


def test_a_wide_graph_is_refused_at_every_pair():
    # Five symbols: the exact matrix is refused when it is formed, so a
    # cospectral pair and a non-cospectral one get the same error, before
    # either question is asked.
    n = 10
    edges = [(i, i + 1) for i in range(n - 1)] + [(0, 5), (2, 7), (4, 9)]
    pots = {1: "B", 2: "C", 3: "E", 4: "D", 5: "D", 6: "D", 7: "C", 8: "B"}
    g = Graph(n, {e: 1 for e in edges}, {i: SparsePoly.sym(name) for i, name in pots.items()})
    with pytest.raises(DomainError) as err:
        to_matrix(g)
    assert str(err.value) == "operation would mix more than 2 symbols: ('B', 'C', 'D', 'E')"


def test_decompose_examples():
    p3 = decompose(to_matrix(path_graph(3)), 0, 2)
    assert p3.p_plus == P("t^2 - 2")
    assert p3.p_minus == P("t")
    assert p3.p_zero.is_one()
    k2 = decompose(to_matrix(path_graph(2)), 0, 1)
    assert k2.p_plus == P("t - 1")
    assert k2.p_minus == P("t + 1")
    assert k2.p_zero.is_one()


def test_decompose_fixture_regressions():
    expected = {
        # frozen from the first verified runs of the exact engine
        "G_A": ("t^4 - 4*t^2 - t + 2", "t^4 - 4*t^2 + t + 2", "t", 4, 4, 1, "0", "0"),
        "G_B": (
            "t^7 + t^6 - 8*t^5 - 10*t^4 + 10*t^3 + 12*t^2 - 2*t - 2",
            "t^2 - t - 2",
            "1",
            7,
            2,
            0,
            "-1",
            "1",
        ),
        "G_C": (
            "t^2 - 2*t - 4",
            "t^4 - 6*t^2 + 4",
            "t^4 + 2*t^3 - 2*t^2 - 4*t",
            2,
            4,
            4,
            "2",
            "0",
        ),
        "G_D": (
            "t^5 - 5*t^3 - 2*t^2 + 4*t + 2",
            "t^5 - 5*t^3 + 2*t^2 + 4*t - 2",
            "1",
            5,
            5,
            0,
            "0",
            "0",
        ),
    }
    for name, (pp, pm, pz, dp, dm, dz, tp, tm) in expected.items():
        f = get_fixture(name)
        dec = decompose(to_matrix(f.graph), f.u, f.v)
        assert str(dec.p_plus) == pp
        assert str(dec.p_minus) == pm
        assert str(dec.p_zero) == pz
        assert (dec.deg_plus, dec.deg_minus, dec.deg_zero) == (dp, dm, dz)
        assert (str(dec.trace_plus), str(dec.trace_minus)) == (tp, tm)


def test_decompose_product_identity_and_degrees():
    rng = random.Random(223)
    for _ in range(25):
        g, u, v = random_cospectral_graph(rng, weighted=True, with_potentials=True)
        m = to_matrix(g)
        dec = decompose(m, u, v)
        assert dec.p_plus * dec.p_minus * dec.p_zero == charpoly(m)
        assert dec.deg_plus + dec.deg_minus + dec.deg_zero == g.n
        assert dec.p_plus.is_monic_t() and dec.p_minus.is_monic_t()


def test_decompose_rejects_non_cospectral():
    with pytest.raises(NotCospectralError):
        decompose(to_matrix(path_graph(3)), 0, 1)


def test_unequal_increments_at_the_pair_are_refuted():
    # Q at u and 2Q at v: M_uu != M_vv, which the split at the pair refuses
    # before any image, and is_refuted reads that refusal as a refutation.
    f = get_fixture("G_B")
    g = add_potential(add_potential(f.graph, (f.u,), SparsePoly.sym("Q")), (f.v,), P("2*Q"))
    assert spectral.is_refuted(to_matrix(g), f.u, f.v) is True


def test_squarefree_relative_factors():
    rng = random.Random(227)
    for _ in range(15):
        g, u, v = random_cospectral_graph(rng, weighted=True)
        dec = decompose(to_matrix(g), u, v)
        for p in (dec.p_plus, dec.p_minus):
            if p.deg_t() == 0:
                continue
            from pgstkit import poly_gcd_t

            assert poly_gcd_t(p, p.derivative_t()).is_one()


def test_strong_cospectrality_examples():
    assert is_strongly_cospectral(to_matrix(path_graph(3)), 0, 2)
    fb = get_fixture("G_B")
    assert not is_strongly_cospectral(to_matrix(fb.graph), fb.u, fb.v)
    q = SparsePoly.sym("Q")
    gq = _with_pair_potential(fb.graph, fb.u, fb.v, q)
    assert is_strongly_cospectral(to_matrix(gq), fb.u, fb.v)


# ---------------------------------------------------------------------------
# perturbation identities


def test_q_expansion_residual_zero_on_fixtures():
    for name in ("G_A", "G_B", "G_C", "G_D"):
        f = get_fixture(name)
        assert q_expansion_residual(to_matrix(f.graph), f.u, f.v, "Q").is_zero()


def test_q_expansion_residual_zero_on_random_instances():
    rng = random.Random(229)
    for _ in range(30):
        g, u, v = random_cospectral_graph(rng, weighted=True, with_potentials=True)
        assert q_expansion_residual(to_matrix(g), u, v, "Q").is_zero()


def test_q_expansion_rejects_used_symbol():
    g, u, v = random_cospectral_graph(random.Random(5), with_potentials=False)
    gq = _with_pair_potential(g, u, v, SparsePoly.sym("Q"))
    with pytest.raises(DomainError):
        q_expansion_residual(to_matrix(gq), u, v, "Q")


def test_cospectrality_preserved_under_diagonal_perturbation():
    rng = random.Random(233)
    for _ in range(20):
        g, u, v = random_cospectral_graph(rng, weighted=True, with_potentials=True)
        val = rng.choice(
            [SparsePoly.sym("Q"), SparsePoly.const(Fraction(rng.randint(-3, 3)))]
        )
        gq = _with_pair_potential(g, u, v, val)
        assert is_cospectral(to_matrix(gq), u, v)


# ---------------------------------------------------------------------------
# trace memberships


def test_trace_membership_k2():
    q = SparsePoly.sym("Q")
    gq = _with_pair_potential(path_graph(2), 0, 1, q)
    dec = decompose(to_matrix(gq), 0, 1)
    assert str(dec.trace_plus) == "Q + 1"
    assert str(dec.trace_minus) == "Q - 1"
    mem = trace_param_membership(dec, "Q")
    assert mem.plus_in_base and mem.minus_in_base


def test_trace_membership_gd():
    f = get_fixture("G_D")
    gq = _with_pair_potential(f.graph, f.u, f.v, SparsePoly.sym("Q"))
    dec = decompose(to_matrix(gq), f.u, f.v)
    assert str(dec.trace_plus) == "Q"
    assert str(dec.trace_minus) == "Q"
    mem = trace_param_membership(dec, "Q")
    assert mem.plus_in_base and mem.minus_in_base


def test_trace_membership_single_vertex_variant():
    # symbol on one extra vertex only: shows up in the plus trace alone
    from pgstkit import build_change_trace

    f = get_fixture("G_A")
    ct = build_change_trace(f.graph, f.u, f.v, 3, "Qp")
    dec = decompose(to_matrix(ct), f.u, f.v)
    mem = trace_param_membership(dec, "Qp")
    assert mem.plus_in_base and not mem.minus_in_base
    assert dec.trace_plus.has_sym("Qp")
    assert not dec.trace_minus.has_sym("Qp")


def test_trace_membership_random_instances():
    rng = random.Random(239)
    for _ in range(20):
        g, u, v = random_cospectral_graph(rng, weighted=True)
        gq = _with_pair_potential(g, u, v, SparsePoly.sym("Q"))
        dec = decompose(to_matrix(gq), u, v)
        mem = trace_param_membership(dec, "Q")
        assert mem.plus_in_base and mem.minus_in_base
