"""Floating point continuous-time quantum walk simulation.

Exact machinery proves; this module measures. Eigenvalues and
eigenvectors come from LAPACK's symmetric solver (``numpy.linalg.eigh``),
get clustered at relative tolerance 1e-8 so that a numerically split
multiple eigenvalue is treated as one spectral point, and each cluster
stands for the projector onto its eigenvectors. No projector is formed:
a question about the pair (u, v) reads only rows u and v of each one.
Transfer amplitudes and fidelity scans weigh cluster k by the mean of
its (u, v) and (v, u) entries, so |U(t)[u,v]| equals |U(t)[v,u]|.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence, TextIO

import numpy as np

from .errors import DomainError, StructuralError
from .graphs import Graph

CLUSTER_RTOL = 1e-8
SYMMETRY_TOL = 1e-12
SUPPORT_TOL = 1e-9
# Grid times clusters per fidelity-scan block, so that each complex
# temporary of a block stays within 128 KiB. A block has at least 3 grid
# rows, so that no block has one row (a one-row product takes another
# BLAS path and may differ by an ulp).
SCAN_CHUNK = 8192


@dataclass(frozen=True)
class NumericSpectrum:
    """Clustered eigendecomposition of a symmetric matrix.

    Cluster k owns the eigenvector columns ``clusters[k]``; with B those
    columns, its projector is E_k = B B^T. Nothing here is larger than
    the n x n eigenvector matrix.
    """

    eigenvalues: np.ndarray  # all n, ascending
    cluster_values: np.ndarray  # one representative per cluster, ascending
    eigenvectors: np.ndarray  # (n, n), column i belongs to eigenvalues[i]
    clusters: tuple[np.ndarray, ...]  # column indices per cluster, ascending

    @property
    def dimension(self) -> int:
        return self.eigenvectors.shape[0]

    def rows(self, u: int, v: int) -> np.ndarray:
        """Rows u and v of every cluster projector, shape (k, 2, n)."""
        n = self.dimension
        for x in (u, v):
            if not (0 <= x < n):
                raise StructuralError(f"vertex {x} out of range 0..{n - 1}")
        vecs = self.eigenvectors
        pair = vecs[[u, v]]
        return np.array([pair[:, idx] @ vecs[:, idx].T for idx in self.clusters])


@dataclass(frozen=True)
class FidelityScan:
    """Grid scan of |U(t)[u,v]| with a refined best point."""

    u: int
    v: int
    t_max: float
    times: np.ndarray
    fidelities: np.ndarray
    best_time: float
    best_fidelity: float


def numeric_adjacency(g: Graph, params: Mapping[str, float] | None = None) -> np.ndarray:
    """Graph matrix as floats; every potential symbol must get a value, and a
    weight or potential beyond float range is a DomainError."""
    a = np.zeros((g.n, g.n))
    try:
        for (i, j), w in g.edges.items():
            a[i, j] = a[j, i] = float(w)
        for v, p in sorted(g.potentials.items()):
            a[v, v] = p.eval_float(params=params)
    except OverflowError:
        raise DomainError("a weight or potential is beyond float range") from None
    return a


def sym_eig(matrix: np.ndarray | Sequence[Sequence[float]]) -> NumericSpectrum:
    """Clustered spectral decomposition of a symmetric matrix.

    Asymmetry beyond 1e-12 (relative to the largest entry) is rejected, and
    so is a symmetrized matrix with a non-finite entry (an overflow).
    Adjacent eigenvalues closer than CLUSTER_RTOL times the spectral
    diameter fall into one cluster, whose projector spans all of their
    eigenvectors.
    """
    a = np.array(matrix, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise StructuralError("need a square matrix")
    n = a.shape[0]
    if n == 0:
        raise DomainError("empty matrix has no spectrum")
    with np.errstate(over="ignore", invalid="ignore"):
        scale = max(1.0, float(np.max(np.abs(a))))
        if float(np.max(np.abs(a - a.T))) > SYMMETRY_TOL * scale:
            raise DomainError("matrix is not symmetric within 1e-12")
        a = (a + a.T) / 2.0
    if not np.all(np.isfinite(a)):
        raise DomainError("matrix has a non-finite entry (inf, nan or overflow)")

    eigs, vecs = np.linalg.eigh(a)

    gap = CLUSTER_RTOL * max(float(eigs[-1] - eigs[0]), 1.0)
    clusters = tuple(np.split(np.arange(n), np.flatnonzero(np.diff(eigs) > gap) + 1))
    values = np.array([float(np.mean(eigs[idx])) for idx in clusters])
    return NumericSpectrum(eigenvalues=eigs, cluster_values=values, eigenvectors=vecs, clusters=clusters)


def transfer_amplitude(spectrum: NumericSpectrum, u: int, v: int, t: float) -> complex:
    """U(t)[u, v] where U(t) = exp(i t M), from the clustered data."""
    phases = np.exp(1j * t * spectrum.cluster_values)
    return complex(np.sum(phases * _weights(spectrum, u, v)))


def pgst_ceiling(spectrum: NumericSpectrum, u: int, v: int) -> float:
    """sum_k |E_k[u, v]|: an upper bound on |U(t)[u, v]| over all times.

    Equals 1 up to numerical error exactly when the pair is strongly
    cospectral; strictly smaller ceilings certify (numerically) that
    fidelity can never reach 1.
    """
    return float(np.sum(np.abs(_weights(spectrum, u, v))))


def numeric_strong_cospectral(spectrum: NumericSpectrum, u: int, v: int) -> bool:
    """Every cluster projector satisfies E e_u = +-E e_v up to SUPPORT_TOL.

    E is symmetric, so E e_u is row u of E. Parallelism up to sign is
    tested in product form: one of the two norms ||E(e_u - e_v)||,
    ||E(e_u + e_v)|| must vanish, so their product is compared against
    SUPPORT_TOL * ||E e_u||^2. Clusters whose u and v projections are both
    below SUPPORT_TOL are neutral and impose no constraint.
    """
    for row_u, row_v in spectrum.rows(u, v):
        nu = float(np.linalg.norm(row_u))
        nv = float(np.linalg.norm(row_v))
        if nu <= SUPPORT_TOL and nv <= SUPPORT_TOL:
            continue
        diff = float(np.linalg.norm(row_u - row_v))
        summ = float(np.linalg.norm(row_u + row_v))
        if diff * summ > SUPPORT_TOL * nu * nu:
            return False
    return True


def classify_spectrum(spectrum: NumericSpectrum, u: int, v: int) -> tuple[list[float], list[float]]:
    """Split cluster values into plus-support and minus-support lists.

    A cluster supports the plus (minus) side when its projector applied to
    e_u + e_v (e_u - e_v) has norm above SUPPORT_TOL; the projector is
    symmetric, so that image is row u plus (minus) row v. For strongly
    cospectral pairs the two lists are disjoint; both-sided clusters land
    in both lists.
    """
    lambdas: list[float] = []
    mus: list[float] = []
    for value, (row_u, row_v) in zip(spectrum.cluster_values, spectrum.rows(u, v)):
        if float(np.linalg.norm(row_u + row_v)) > SUPPORT_TOL:
            lambdas.append(float(value))
        if float(np.linalg.norm(row_u - row_v)) > SUPPORT_TOL:
            mus.append(float(value))
    return lambdas, mus


def fidelity_scan(
    spectrum: NumericSpectrum,
    u: int,
    v: int,
    t_max: float,
    steps: int = 2000,
) -> FidelityScan:
    """Scan |U(t)[u, v]| on a uniform grid over [0, t_max] and refine the
    best grid point by golden-section search in its bracket.

    The grid is evaluated in blocks of at most SCAN_CHUNK grid-times-cluster
    entries (at least 3 grid rows). A phase t_max * max|lambda| whose ulp
    exceeds 1e-6 rad (from 2^33, about 8.6e9) is rejected. The best
    fidelity is never below the grid maximum.
    """
    weights = _weights(spectrum, u, v)
    if not 0 < t_max < math.inf:
        raise DomainError(f"t_max must be positive and finite, got {t_max}")
    if steps < 2:
        raise DomainError(f"need at least 2 grid points, got {steps}")
    values = spectrum.cluster_values
    if not math.ulp(t_max * float(np.max(np.abs(values)))) <= 1e-6:
        raise DomainError(
            f"phases t*lambda overflow float precision on [0, {t_max}] "
            "(an ulp above 1e-6 rad); lower t_max"
        )

    def fid(ts: np.ndarray) -> np.ndarray:
        return np.abs(np.exp(1j * np.outer(ts, values)) @ weights)

    times = np.linspace(0.0, t_max, steps)
    per_block = max(3, SCAN_CHUNK // len(values))
    blocks = np.array_split(times, -(-steps // per_block))
    fids = np.concatenate([fid(block) for block in blocks])
    k = int(np.argmax(fids))
    lo = times[max(0, k - 1)]
    hi = times[min(steps - 1, k + 1)]
    best_t, best_f = _golden_max(lambda t: float(fid(np.array([t]))[0]), lo, hi)
    if best_f < float(fids[k]):
        best_t, best_f = float(times[k]), float(fids[k])
    return FidelityScan(
        u=u,
        v=v,
        t_max=float(t_max),
        times=times,
        fidelities=fids,
        best_time=best_t,
        best_fidelity=best_f,
    )


def _golden_max(f, lo: float, hi: float) -> tuple[float, float]:
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(200):
        if b - a < 1e-12 * max(1.0, abs(b)):
            break
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = f(d)
    t = (a + b) / 2.0
    return t, f(t)


def write_fidelity_csv(scan: FidelityScan, stream: TextIO) -> None:
    stream.write("t,fidelity\n")
    for t, f in zip(scan.times.tolist(), scan.fidelities.tolist()):
        stream.write(f"{t!r},{f!r}\n")


def _weights(spectrum: NumericSpectrum, u: int, v: int) -> np.ndarray:
    """(E_k[u, v] + E_k[v, u]) / 2 for every cluster k."""
    r = spectrum.rows(u, v)
    return (r[:, 0, v] + r[:, 1, u]) / 2.0
