"""Numeric spectral decomposition and quantum-walk simulation tests."""

from __future__ import annotations

import io
import math
import random

import numpy as np
import pytest

from pgstkit import (
    DomainError,
    SparsePoly,
    add_potential,
    charpoly,
    classify_spectrum,
    decompose,
    fidelity_scan,
    get_fixture,
    is_strongly_cospectral,
    isolate_real_roots,
    numeric_adjacency,
    numeric_strong_cospectral,
    path_graph,
    pgst_ceiling,
    sym_eig,
    to_matrix,
    transfer_amplitude,
    write_fidelity_csv,
)

from conftest import random_cospectral_graph, random_graph


def _pair_with(g, u, v, sym="Q"):
    s = SparsePoly.sym(sym)
    return add_potential(add_potential(g, u, s), v, s)


# ---------------------------------------------------------------------------
# eigensolver


def test_sym_eig_k2_and_p3():
    spec = sym_eig(numeric_adjacency(path_graph(2)))
    assert np.allclose(spec.eigenvalues, [-1.0, 1.0], atol=1e-12)
    spec = sym_eig(numeric_adjacency(path_graph(3)))
    root2 = math.sqrt(2)
    assert np.allclose(spec.eigenvalues, [-root2, 0.0, root2], atol=1e-11)


def test_sym_eig_interior_path_eigenvalues():
    q = 6
    interior = path_graph(q - 1)
    spec = sym_eig(numeric_adjacency(interior))
    expected = sorted(2.0 * math.cos(j * math.pi / q) for j in range(1, q))
    assert np.allclose(spec.eigenvalues, expected, atol=1e-10)


def test_sym_eig_rejects_asymmetry():
    with pytest.raises(DomainError):
        sym_eig(np.array([[0.0, 1.0], [0.5, 0.0]]))


@pytest.mark.parametrize("matrix", [[[1e308, 0.0], [0.0, 1.0]], [[math.inf]], [[math.nan]]])
def test_sym_eig_rejects_non_finite(matrix):
    # 1e308 is finite but overflows when the matrix is symmetrized
    with pytest.raises(DomainError, match="non-finite"):
        sym_eig(matrix)


def _oracle_matrices():
    rng = random.Random(433)
    for n in (2, 3, 5, 8, 13, 21, 30, 40):
        yield numeric_adjacency(random_graph(rng, n=n, weighted=True, with_potentials=True))
    yield np.ones((12, 12)) - np.eye(12)  # K_12: eigenvalue -1 eleven times
    star = np.zeros((16, 16))
    star[0, 1:] = star[1:, 0] = 1.0  # K_{1,15}: eigenvalue 0 fourteen times
    yield star


@pytest.mark.parametrize("index", range(10))
def test_sym_eig_matches_mpmath(index):
    mpmath = pytest.importorskip("mpmath")
    m = list(_oracle_matrices())[index]
    with mpmath.workdps(40):
        expected = sorted(float(x) for x in mpmath.eigsy(mpmath.matrix(m.tolist()), eigvals_only=True))
    spec = sym_eig(m)
    tol = 1e-10 * max(1.0, float(np.linalg.norm(m, 2)))
    assert np.max(np.abs(spec.eigenvalues - np.array(expected))) <= tol


def test_projector_invariants():
    rng = random.Random(401)
    for _ in range(20):
        g = random_graph(rng, weighted=True, with_potentials=True)
        m = numeric_adjacency(g)
        spec = sym_eig(m)
        total = np.zeros_like(m)
        recon = np.zeros_like(m)
        for lam, proj in zip(spec.cluster_values, spec.projectors):
            total += proj
            recon += lam * proj
        assert np.max(np.abs(total - np.eye(g.n))) < 1e-9
        assert np.max(np.abs(recon - m)) < 1e-9
        # mutual orthogonality and residual per cluster
        k = len(spec.projectors)
        for i in range(k):
            for j in range(i + 1, k):
                assert np.max(np.abs(spec.projectors[i] @ spec.projectors[j])) < 1e-9
        for lam, proj in zip(spec.cluster_values, spec.projectors):
            norm = np.linalg.norm(proj)
            if norm > 0:
                assert np.linalg.norm(m @ proj - lam * proj) / norm < 1e-9


def test_eigenvalue_residuals_tight():
    for name in ("G_A", "G_B", "G_C", "G_D"):
        g = get_fixture(name).graph
        m = numeric_adjacency(g)
        spec = sym_eig(m)
        for lam, proj in zip(spec.cluster_values, spec.projectors):
            for col in proj.T:
                nrm = np.linalg.norm(col)
                if nrm > 1e-8:
                    x = col / nrm
                    assert np.linalg.norm(m @ x - lam * x) < 1e-10


def test_exact_numeric_eigenvalue_agreement():
    for name in ("G_A", "G_B", "G_C", "G_D"):
        g = get_fixture(name).graph
        exact_roots = isolate_real_roots(charpoly(to_matrix(g)))
        spec = sym_eig(numeric_adjacency(g))
        for lam in spec.eigenvalues:
            assert min(abs(lam - r) for r in exact_roots) < 1e-8
        for r in exact_roots:
            assert min(abs(lam - r) for lam in spec.eigenvalues) < 1e-8


# ---------------------------------------------------------------------------
# transfer amplitudes and scans


def test_transfer_identity_at_zero():
    rng = random.Random(409)
    for _ in range(5):
        g = random_graph(rng, n=rng.randint(2, 6), weighted=True)
        spec = sym_eig(numeric_adjacency(g))
        assert abs(transfer_amplitude(spec, 0, g.n - 1, 0.0)) < 1e-12 or g.n == 1


def test_k2_perfect_transfer():
    spec = sym_eig(numeric_adjacency(path_graph(2)))
    assert abs(abs(transfer_amplitude(spec, 0, 1, math.pi / 2)) - 1.0) < 1e-9


def test_p3_perfect_transfer():
    spec = sym_eig(numeric_adjacency(path_graph(3)))
    amp = transfer_amplitude(spec, 0, 2, math.pi / math.sqrt(2))
    assert abs(abs(amp) - 1.0) < 1e-6


def test_fidelity_scan_k2():
    spec = sym_eig(numeric_adjacency(path_graph(2)))
    scan = fidelity_scan(spec, 0, 1, 2 * math.pi, 400)
    assert abs(scan.best_fidelity - 1.0) < 1e-9
    ratio = scan.best_time / (math.pi / 2)
    assert abs(ratio - round(ratio)) < 1e-3 and round(ratio) % 2 == 1
    assert all(0.0 <= f <= 1.0 + 1e-9 for f in scan.fidelities)


def test_fidelity_scan_p4_regression():
    spec = sym_eig(numeric_adjacency(path_graph(4)))
    scan = fidelity_scan(spec, 0, 3, 1000.0, 20001)
    assert scan.best_fidelity < 1.0
    # frozen from the first verified run
    assert abs(scan.best_fidelity - 0.999988101135) < 1e-6


def test_scan_validation():
    spec = sym_eig(numeric_adjacency(path_graph(2)))
    with pytest.raises(DomainError):
        fidelity_scan(spec, 0, 1, 0.0, 100)
    with pytest.raises(DomainError):
        fidelity_scan(spec, 0, 1, 10.0, 1)
    # t_max = 1.5e308 is finite, but the phase 1.5e308 * sqrt(2) is not
    with pytest.raises(DomainError, match="overflow"):
        fidelity_scan(sym_eig(numeric_adjacency(path_graph(3))), 0, 2, 1.5e308, 100)


def test_unitarity_random_instances():
    rng = random.Random(419)
    for _ in range(25):
        g = random_graph(rng, n=rng.randint(2, 10), weighted=True, with_potentials=True)
        spec = sym_eig(numeric_adjacency(g))
        t = rng.uniform(0.0, 100.0)
        u = rng.randrange(g.n)
        row = sum(
            abs(transfer_amplitude(spec, u, w, t)) ** 2 for w in range(g.n)
        )
        assert abs(row - 1.0) < 1e-8


def test_ceiling_bounds_scans():
    rng = random.Random(421)
    for _ in range(10):
        g, u, v = random_cospectral_graph(rng, weighted=True)
        spec = sym_eig(numeric_adjacency(g))
        ceiling = pgst_ceiling(spec, u, v)
        scan = fidelity_scan(spec, u, v, 50.0, 2000)
        assert max(scan.fidelities) <= ceiling + 1e-8
        assert scan.best_fidelity <= ceiling + 1e-8


# ---------------------------------------------------------------------------
# strong cospectrality diagnostics


def test_pgst_ceiling_examples():
    spec = sym_eig(numeric_adjacency(path_graph(2)))
    assert abs(pgst_ceiling(spec, 0, 1) - 1.0) < 1e-12
    fb = get_fixture("G_B")
    bare = sym_eig(numeric_adjacency(fb.graph))
    ceiling = pgst_ceiling(bare, fb.u, fb.v)
    assert ceiling < 1.0 - 1e-3
    assert abs(ceiling - 0.6) < 1e-9  # frozen regression
    withq = sym_eig(numeric_adjacency(_pair_with(fb.graph, fb.u, fb.v), {"Q": math.pi}))
    assert abs(pgst_ceiling(withq, fb.u, fb.v) - 1.0) < 1e-6


def test_numeric_strong_cospectral_examples():
    spec = sym_eig(numeric_adjacency(path_graph(3)))
    assert numeric_strong_cospectral(spec, 0, 2)
    fb = get_fixture("G_B")
    assert not numeric_strong_cospectral(sym_eig(numeric_adjacency(fb.graph)), fb.u, fb.v)


def test_numeric_matches_exact_engine_on_fixtures():
    for name in ("G_A", "G_B", "G_C", "G_D"):
        f = get_fixture(name)
        exact = is_strongly_cospectral(to_matrix(f.graph), f.u, f.v)
        spec = sym_eig(numeric_adjacency(f.graph))
        assert numeric_strong_cospectral(spec, f.u, f.v) == exact


def test_classify_spectrum_partitions_supports():
    f = get_fixture("G_C")
    dec = decompose(to_matrix(f.graph), f.u, f.v)
    spec = sym_eig(numeric_adjacency(f.graph))
    plus, minus = classify_spectrum(spec, f.u, f.v)
    assert len(plus) == dec.deg_plus
    assert len(minus) == dec.deg_minus
    # strongly cospectral here, so the two supports are disjoint
    assert not set(plus) & set(minus)
    roots_plus = isolate_real_roots(dec.p_plus)
    for lam in plus:
        assert min(abs(lam - r) for r in roots_plus) < 1e-8


def test_csv_export():
    spec = sym_eig(numeric_adjacency(path_graph(2)))
    scan = fidelity_scan(spec, 0, 1, 1.0, 5)
    buf = io.StringIO()
    write_fidelity_csv(scan, buf)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0] == "t,fidelity"
    assert len(lines) == 6
    t0, f0 = lines[1].split(",")
    assert float(t0) == 0.0
    assert 0.0 <= float(f0) <= 1.0
