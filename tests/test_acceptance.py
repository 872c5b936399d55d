"""Acceptance suite.

One test per criterion; each prints a single PASS/FAIL line (visible with
-v via the test outcome, and in captured output on failure) and enforces
its runtime budget. Numeric regression constants are frozen from the
first verified runs of this implementation.
"""

from __future__ import annotations

import math
import random
import time

import numpy as np

from pgstkit import (
    Partition,
    SparsePoly,
    Verdict,
    add_apex,
    add_potential,
    build_change_trace,
    build_glue_pot,
    certify_equitable,
    certify_tr_deg,
    charpoly,
    choose_path_shift,
    decompose,
    fidelity_scan,
    get_fixture,
    glue,
    is_cospectral,
    is_strongly_cospectral,
    numeric_adjacency,
    parity_obstruction,
    path_graph,
    pgst_ceiling,
    poly_gcd_t,
    q_expansion_residual,
    sym_eig,
    to_matrix,
    trace_param_membership,
    transfer_amplitude,
    verify_equitable,
)

from conftest import random_cospectral_graph, random_graph

Q = SparsePoly.sym("Q")


class _Budget:
    """Wall-clock guard that also prints the one-line verdict."""

    def __init__(self, criterion: int, limit_s: float, summary: str):
        self.criterion = criterion
        self.limit = limit_s
        self.summary = summary

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.monotonic() - self.start
        status = "PASS" if exc_type is None and elapsed <= self.limit else "FAIL"
        print(
            f"ACCEPTANCE criterion {self.criterion}: {status} "
            f"({elapsed:.2f}s / {self.limit:.0f}s) {self.summary}"
        )
        if exc_type is None:
            assert elapsed <= self.limit, (
                f"criterion {self.criterion} exceeded its {self.limit}s budget "
                f"({elapsed:.2f}s)"
            )
        return False


def _with_pair(g, u, v, value):
    return add_potential(add_potential(g, u, value), v, value)


def test_criterion_1_gd_parity_certificate():
    with _Budget(1, 5.0, "degenerate trace/degree data forces the parity route"):
        fd = get_fixture("G_D")
        dec = decompose(to_matrix(_with_pair(fd.graph, fd.u, fd.v, Q)), fd.u, fd.v)
        assert dec.deg_plus == 5
        assert dec.deg_minus == 5
        assert dec.trace_plus == Q
        assert dec.trace_minus == Q
        cert = parity_obstruction(dec)
        assert cert is not None
        assert cert.verdict is Verdict.PROVEN_NO_PGST


def test_criterion_2_gb_tr_deg_certificate():
    with _Budget(2, 5.0, "potential upgrades cospectral to strongly cospectral"):
        fb = get_fixture("G_B")
        bare = to_matrix(fb.graph)
        assert is_cospectral(bare, fb.u, fb.v)
        assert not is_strongly_cospectral(bare, fb.u, fb.v)
        withq = _with_pair(fb.graph, fb.u, fb.v, Q)
        assert is_strongly_cospectral(to_matrix(withq), fb.u, fb.v)
        cert = certify_tr_deg(withq, fb.u, fb.v, "Q")
        assert cert.verdict is Verdict.PROVEN_PGST


def test_criterion_3_ga_change_trace_pipeline():
    with _Budget(3, 10.0, "center-vertex symbol separates the traces"):
        fa = get_fixture("G_A")
        direct = certify_tr_deg(_with_pair(fa.graph, fa.u, fa.v, Q), fa.u, fa.v, "Q")
        assert direct.verdict is Verdict.INCONCLUSIVE
        assert direct.evidence["deg_plus"] == direct.evidence["deg_minus"]
        assert direct.evidence["trace_plus"] == direct.evidence["trace_minus"]
        built = build_change_trace(fa.graph, fa.u, fa.v, 3, "Qp")
        cert = certify_tr_deg(_with_pair(built, fa.u, fa.v, Q), fa.u, fa.v, "Q")
        assert cert.verdict is Verdict.PROVEN_PGST
        dec = decompose(to_matrix(_with_pair(built, fa.u, fa.v, Q)), fa.u, fa.v)
        assert dec.trace_plus.has_sym("Qp")
        assert not dec.trace_minus.has_sym("Qp")


def test_criterion_4_gc_equitable_certificate():
    with _Budget(4, 30.0, "two-part caption partition plus an apex singleton"):
        fc = get_fixture("G_C")
        caption = Partition(fc.graph.n, [list(range(8)), [8, 9]])
        assert verify_equitable(fc.graph, caption)
        aug, w = add_apex(fc.graph, 8, 9)
        cert = certify_equitable(aug, 8, 9, w, "Q1", "Q2")
        assert cert.verdict is Verdict.PROVEN_PGST
        assert cert.evidence["trace_plus"] == "Q1 + Q2 + 2"
        assert cert.evidence["trace_minus"] == "Q1"


def test_criterion_5_gluing_degree_laws():
    with _Budget(5, 60.0, "shifted even-length paths glued onto the pair"):
        fb = get_fixture("G_B")
        base_with_q = _with_pair(fb.graph, fb.u, fb.v, Q)
        dec1 = decompose(to_matrix(base_with_q), fb.u, fb.v)
        checked = 0
        for p in (2, 3, 5):
            k = 2 * p + 1  # glued path has q = 2p edges
            c = choose_path_shift(fb.graph, fb.u, fb.v, k)
            shifted_path = path_graph(k)
            for i in range(k):
                shifted_path = add_potential(shifted_path, i, SparsePoly.const(c))
            dec2 = decompose(to_matrix(shifted_path), 0, k - 1)
            # exact interior disjointness is the theorem's hypothesis
            d1 = charpoly(to_matrix(fb.graph).delete((fb.u, fb.v)))
            d2 = charpoly(to_matrix(shifted_path).delete((0, k - 1)))
            assert poly_gcd_t(d1, d2).is_one()
            glued = _with_pair(build_glue_pot(fb.graph, fb.u, fb.v, k), fb.u, fb.v, Q)
            dg = decompose(to_matrix(glued), fb.u, fb.v)
            assert dg.deg_plus == dec1.deg_plus + dec2.deg_plus - 1
            assert dg.deg_minus == dec1.deg_minus + dec2.deg_minus - 1
            assert dg.p_zero == dec1.p_zero * dec2.p_zero
            checked += 1
        assert checked == 3


def test_criterion_6_path_facts():
    with _Budget(6, 60.0, "path degree formulas and interior spectra"):
        for q in range(1, 21):
            m = q + 1
            dec = decompose(to_matrix(path_graph(m)), 0, m - 1)
            assert dec.deg_plus == math.ceil((q + 1) / 2)
            assert dec.deg_minus == math.floor((q + 1) / 2)
            if q < 2:
                continue  # no interior vertices
            full = numeric_adjacency(path_graph(m))
            interior = full[1:-1, 1:-1]
            spec = sym_eig(interior)
            expected = sorted(2.0 * math.cos(j * math.pi / q) for j in range(1, q))
            assert len(spec.eigenvalues) == q - 1
            assert max(
                abs(a - b) for a, b in zip(spec.eigenvalues, expected)
            ) < 1e-10


def test_criterion_7_exact_identity_suites():
    with _Budget(7, 120.0, "symbolic identities on random instances"):
        rng = random.Random(20260819)
        # expansion of the characteristic polynomial in the pair potential
        for _ in range(100):
            g, u, v = random_cospectral_graph(rng, weighted=True, with_potentials=True)
            assert q_expansion_residual(to_matrix(g), u, v, "Q").is_zero()
        # determinant expansion for the two-sum along the deleted column
        t = SparsePoly.t()
        for _ in range(25):
            g1 = random_graph(rng, n=rng.randint(3, 6), weighted=True, with_potentials=True)
            g2 = random_graph(rng, n=rng.randint(3, 6), weighted=True, with_potentials=True)
            u1, v1 = 0, g1.n - 1
            u2, v2 = 0, g2.n - 1
            glued = glue(g1, u1, v1, g2, u2, v2)
            m1, m2 = to_matrix(g1), to_matrix(g2)
            phi_1u = charpoly(m1.delete((u1,)))
            phi_2u = charpoly(m2.delete((u2,)))
            phi_1uv = charpoly(m1.delete((u1, v1)))
            phi_2uv = charpoly(m2.delete((u2, v2)))
            lhs = charpoly(to_matrix(glued).delete((u1,)))
            assert lhs == phi_1u * phi_2uv + phi_2u * phi_1uv - t * phi_1uv * phi_2uv
        # diagonal perturbations keep the pair cospectral
        for _ in range(25):
            g, u, v = random_cospectral_graph(rng, weighted=True, with_potentials=True)
            for value in (Q, SparsePoly.const(rng.randint(-5, 5))):
                assert is_cospectral(to_matrix(_with_pair(g, u, v, value)), u, v)
        # trace lemma: the pair symbol enters both traces with coefficient one
        for _ in range(25):
            g, u, v = random_cospectral_graph(rng, weighted=True)
            dec = decompose(to_matrix(_with_pair(g, u, v, Q)), u, v)
            mem = trace_param_membership(dec, "Q")
            assert mem.plus_in_base and mem.minus_in_base


def test_criterion_8_numeric_sanity():
    with _Budget(8, 120.0, "transfer peaks, unitarity, and ceiling bounds"):
        spec = sym_eig(numeric_adjacency(path_graph(2)))
        assert abs(abs(transfer_amplitude(spec, 0, 1, math.pi / 2)) - 1.0) < 1e-9
        spec = sym_eig(numeric_adjacency(path_graph(3)))
        amp = transfer_amplitude(spec, 0, 2, math.pi / math.sqrt(2))
        assert abs(abs(amp) - 1.0) < 1e-6

        rng = random.Random(8675309)
        for _ in range(100):
            g = random_graph(rng, n=rng.randint(2, 9), weighted=True, with_potentials=True)
            nspec = sym_eig(numeric_adjacency(g))
            u = rng.randrange(g.n)
            t = rng.uniform(0.0, 50.0)
            total = sum(
                abs(transfer_amplitude(nspec, u, w, t)) ** 2 for w in range(g.n)
            )
            assert abs(total - 1.0) < 1e-8
            v = rng.randrange(g.n)
            if v != u:
                ceiling = pgst_ceiling(nspec, u, v)
                assert abs(transfer_amplitude(nspec, u, v, t)) <= ceiling + 1e-8

        # ceilings hit 1 exactly when the exact engine certifies strength
        strongly = [
            (path_graph(2), 0, 1),
            (path_graph(3), 0, 2),
            (path_graph(4), 0, 3),
            (get_fixture("G_A").graph, 3, 6),
            (get_fixture("G_C").graph, 8, 9),
        ]
        count = 0
        rng2 = random.Random(424243)
        while count < 10:
            g, u, v = random_cospectral_graph(rng2, weighted=True, with_potentials=True)
            if is_strongly_cospectral(to_matrix(g), u, v):
                strongly.append((g, u, v))
                count += 1
        for g, u, v in strongly:
            assert is_strongly_cospectral(to_matrix(g), u, v)
            nspec = sym_eig(numeric_adjacency(g))
            assert abs(pgst_ceiling(nspec, u, v) - 1.0) < 1e-6

        fb = get_fixture("G_B")
        bare = sym_eig(numeric_adjacency(fb.graph))
        assert pgst_ceiling(bare, fb.u, fb.v) < 1.0 - 1e-3


def test_criterion_9_fidelity_growth():
    with _Budget(9, 120.0, "running maxima grow toward the ceiling"):
        fb = get_fixture("G_B")
        g = _with_pair(fb.graph, fb.u, fb.v, Q)
        nspec = sym_eig(numeric_adjacency(g, {"Q": math.pi}))
        best = []
        for t_max in (1e2, 1e3, 1e4):
            steps = int(20 * t_max) + 1  # shared 0.05 grid pitch nests the scans
            scan = fidelity_scan(nspec, fb.u, fb.v, t_max, steps)
            best.append(scan.best_fidelity)
        assert best[0] <= best[1] + 1e-12
        assert best[1] <= best[2] + 1e-12
        # frozen from the first verified run of this simulator
        assert abs(best[2] - 0.988827203255) < 1e-6
