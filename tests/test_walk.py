"""Numeric spectral decomposition and quantum-walk simulation tests."""

from __future__ import annotations

import dataclasses
import io
import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from pgstkit import walk
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


def _projectors(spec):
    """Dense cluster projectors (B B^T + (B B^T)^T) / 2, B the cluster's
    eigenvector columns, shape (k, n, n).

    The copy makes B B^T a general matrix product. Without it numpy hands
    ``block @ block.T`` to BLAS syrk, which rounds some entries of
    multi-eigenvalue clusters differently (K_n and cycles from n = 12).
    """
    out = []
    for idx in spec.clusters:
        block = spec.eigenvectors[:, idx]
        proj = block @ block.T.copy()
        out.append((proj + proj.T) / 2.0)
    return np.array(out)


def test_projector_invariants():
    rng = random.Random(401)
    for _ in range(20):
        g = random_graph(rng, weighted=True, with_potentials=True)
        m = numeric_adjacency(g)
        spec = sym_eig(m)
        projectors = _projectors(spec)
        total = np.zeros_like(m)
        recon = np.zeros_like(m)
        for lam, proj in zip(spec.cluster_values, projectors):
            total += proj
            recon += lam * proj
        assert np.max(np.abs(total - np.eye(g.n))) < 1e-9
        assert np.max(np.abs(recon - m)) < 1e-9
        # mutual orthogonality and residual per cluster
        k = len(projectors)
        for i in range(k):
            for j in range(i + 1, k):
                assert np.max(np.abs(projectors[i] @ projectors[j])) < 1e-9
        for lam, proj in zip(spec.cluster_values, projectors):
            norm = np.linalg.norm(proj)
            if norm > 0:
                assert np.linalg.norm(m @ proj - lam * proj) / norm < 1e-9


def test_eigenvalue_residuals_tight():
    for name in ("G_A", "G_B", "G_C", "G_D"):
        g = get_fixture(name).graph
        m = numeric_adjacency(g)
        spec = sym_eig(m)
        for lam, proj in zip(spec.cluster_values, _projectors(spec)):
            for col in proj.T:
                nrm = np.linalg.norm(col)
                if nrm > 1e-8:
                    x = col / nrm
                    assert np.linalg.norm(m @ x - lam * x) < 1e-10


def _degenerate_matrices():
    def cycle(n):
        return np.roll(np.eye(n), 1, axis=0) + np.roll(np.eye(n), -1, axis=0)

    def hypercube(d):
        return np.array([[float(bin(i ^ j).count("1") == 1) for j in range(2**d)] for i in range(2**d)])

    for n in (3, 8, 12, 20):
        yield np.ones((n, n)) - np.eye(n)
    for n in (4, 9, 12, 16):
        yield cycle(n)
    for d in (3, 4, 5):
        yield hypercube(d)
    for name in ("G_A", "G_B", "G_C", "G_D"):
        yield numeric_adjacency(get_fixture(name).graph)
    rng = random.Random(439)
    for _ in range(6):
        yield numeric_adjacency(random_graph(rng, n=rng.randint(5, 24), weighted=True, with_potentials=True))


def test_pair_weights_equal_the_dense_projector_entries():
    # Every pair, so that clusters of many eigenvalues are summed in many
    # row orders; a plain dot product V[u, idx] @ V[v, idx] fails on K_20.
    multi = 0
    for m in _degenerate_matrices():
        spec = sym_eig(m)
        dense = _projectors(spec)
        multi += sum(len(idx) > 1 for idx in spec.clusters)
        phases = np.exp(1j * 1.7 * spec.cluster_values)
        for u, v in itertools.combinations(range(spec.dimension), 2):
            expected = dense[:, u, v]
            assert np.array_equal(walk._weights(spec, u, v), expected)
            assert np.array_equal(walk._weights(spec, v, u), expected)
            assert pgst_ceiling(spec, u, v) == float(np.sum(np.abs(expected)))
            assert transfer_amplitude(spec, u, v, 1.7) == complex(np.sum(phases * expected))
    assert multi > 20


def test_support_tests_equal_a_per_cluster_loop():
    # The support tests take all cluster norms in one axis reduction, which
    # sums in another order than a norm of one row: the norms agree to a few
    # ulps (every norm here is at most 2), and a norm within that of
    # SUPPORT_TOL could flip a decision. Here no decision moves.
    def loop(spec, u, v):
        strong, lambdas, mus, norms = True, [], [], []
        for value, (row_u, row_v) in zip(spec.cluster_values, walk._rows(spec, u, v)):
            nu, nv = float(np.linalg.norm(row_u)), float(np.linalg.norm(row_v))
            summ, diff = float(np.linalg.norm(row_u + row_v)), float(np.linalg.norm(row_u - row_v))
            if (nu > walk.SUPPORT_TOL or nv > walk.SUPPORT_TOL) and diff * summ > walk.SUPPORT_TOL * nu * nu:
                strong = False
            if summ > walk.SUPPORT_TOL:
                lambdas.append(float(value))
            if diff > walk.SUPPORT_TOL:
                mus.append(float(value))
            norms.append((nu, nv, summ, diff))
        return (strong, (lambdas, mus)), np.array(norms).T

    strong = 0
    for m in _degenerate_matrices():
        spec = sym_eig(m)
        for u, v in itertools.permutations(range(spec.dimension), 2):
            expected, norms = loop(spec, u, v)
            assert (numeric_strong_cospectral(spec, u, v), classify_spectrum(spec, u, v)) == expected
            np.testing.assert_allclose(walk._support_norms(spec, u, v), norms, rtol=0, atol=8 * 2.0**-52)
            strong += expected[0]
    assert strong > 0


def test_spectrum_holds_no_array_above_n_squared_entries():
    for m in (np.ones((12, 12)) - np.eye(12), numeric_adjacency(get_fixture("G_B").graph)):
        spec = sym_eig(m)
        n = spec.dimension
        for field in dataclasses.fields(spec):
            value = getattr(spec, field.name)
            for array in value if isinstance(value, tuple) else (value,):
                assert np.asarray(array).size <= n * n, field.name


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
    p3 = sym_eig(numeric_adjacency(path_graph(3)))
    with pytest.raises(DomainError, match="overflow"):
        fidelity_scan(p3, 0, 2, 1.5e308, 100)
    # 1e10 * sqrt(2) > 2^33: one ulp of the phase exceeds 1e-6 rad
    with pytest.raises(DomainError, match="overflow"):
        fidelity_scan(p3, 0, 2, 1e10, 100)
    assert fidelity_scan(p3, 0, 2, 1e9, 100).best_fidelity <= 1.0 + 1e-9


def _scan_cases():
    # G_B (8 clusters) and a seeded spectrum of 110 clusters
    fb = get_fixture("G_B")
    a = np.random.default_rng(1201).standard_normal((110, 110))
    wide = sym_eig((a + a.T) / 2.0)
    assert len(wide.cluster_values) == 110
    return {"G_B": (sym_eig(numeric_adjacency(fb.graph)), fb.u, fb.v), "k110": (wide, 3, 70)}


SCAN_CASES = _scan_cases()
_EXACT_AMPLITUDES: dict = {}


def _exact_fidelity(name, t):
    """|sum_k w_k exp(i lambda_k t)| at 32 digits, from the float data."""
    mpmath = pytest.importorskip("mpmath")
    if (name, t) not in _EXACT_AMPLITUDES:
        spec, u, v = SCAN_CASES[name]
        pairs = zip(spec.cluster_values.tolist(), walk._weights(spec, u, v).tolist())
        with mpmath.workdps(32):
            amp = mpmath.fsum(mpmath.mpf(w) * mpmath.expj(mpmath.mpf(lam) * mpmath.mpf(t)) for lam, w in pairs)
            _EXACT_AMPLITUDES[name, t] = float(abs(amp))
    return _EXACT_AMPLITUDES[name, t]


@pytest.mark.parametrize("name", sorted(SCAN_CASES))
@pytest.mark.parametrize("chunk", [3, 16, walk.SCAN_CHUNK])
@pytest.mark.parametrize("steps", [2, 7, 4001, 20001])
def test_fidelity_scan_is_within_its_error_bound(monkeypatch, name, chunk, steps):
    # The bound of the fidelity_scan docstring, checked against mpmath at
    # every block start and head-row start +-1 (the first and last 16 of
    # each, where there are more), the last grid point and a seeded sample.
    # Every grid point is also checked against the direct per-point grid,
    # at twice the bound. A chunk of 3, and of 16 on k110, leaves one grid
    # point per block; 16 on G_B makes blocks of two head rows of two.
    monkeypatch.setattr(walk, "SCAN_CHUNK", chunk)
    spec, u, v = SCAN_CASES[name]
    t_max = 1000.0
    scan = fidelity_scan(spec, u, v, t_max, steps)
    times = np.linspace(0.0, t_max, steps)
    assert np.array_equal(scan.times, times)
    values, weights = spec.cluster_values, walk._weights(spec, u, v)
    k, eps = len(values), np.finfo(float).eps
    phase_ulp = math.ulp(t_max * float(np.max(np.abs(values))))
    bound = (8 * phase_ulp + 2 * (k + 8) * eps) * float(np.sum(np.abs(weights)))
    b = max(1, min(steps, chunk // k))
    heads = list(range(0, steps, b))
    blocks = list(range(0, steps, b * max(1, chunk // max(b, k))))
    marks = heads[:16] + heads[-16:] + blocks[:16] + blocks[-16:]
    checked = {s + d for s in marks for d in (-1, 0, 1)}
    checked |= {steps - 1, *random.Random(steps).sample(range(steps), min(steps, 32))}
    for i in sorted(checked & set(range(steps))):
        assert abs(scan.fidelities[i] - _exact_fidelity(name, float(times[i]))) <= bound, i
    direct = np.abs(np.exp(1j * np.outer(times, values)) @ weights)
    assert float(np.max(np.abs(scan.fidelities - direct))) <= 2 * bound


@pytest.mark.parametrize("name", sorted(SCAN_CASES))
def test_fidelity_scan_memory_beyond_its_grid_does_not_grow_with_steps(name):
    # times and fidelities take 16 bytes a grid point; every other temporary
    # is bounded by SCAN_CHUNK, so what lies above 16 * steps stays put.
    import tracemalloc

    spec, u, v = SCAN_CASES[name]
    extra = []
    for steps in (200_000, 2_000_000):
        fidelity_scan(spec, u, v, 1000.0, 20)  # warm every lazy allocation
        tracemalloc.start()
        try:
            scan = fidelity_scan(spec, u, v, 1000.0, steps)
            extra.append(tracemalloc.get_traced_memory()[1] - 16 * steps)
        finally:
            tracemalloc.stop()
        assert scan.fidelities.size == steps
        del scan
    assert extra[1] - extra[0] < 256 * 1024, extra


def test_numeric_adjacency_matches_entrywise_evaluation():
    rng = random.Random(421)
    for _ in range(10):
        g = random_graph(rng, n=rng.randint(2, 10), weighted=True, with_potentials=True)
        g = add_potential(g, rng.randrange(g.n), SparsePoly.sym("Q") * Fraction(1, 3) + 1)
        params = {"Q": rng.uniform(-2.0, 2.0)}
        expected = [[x.eval_float(params=params) for x in row] for row in to_matrix(g).entries]
        assert np.array_equal(numeric_adjacency(g, params), np.array(expected))
    with pytest.raises(DomainError, match="no value"):
        numeric_adjacency(g)


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
