"""Floating point continuous-time quantum walk simulation.

Exact machinery proves; this module measures. Eigenvalues and
eigenvectors come from LAPACK's symmetric solver (``numpy.linalg.eigh``),
get clustered at relative tolerance 1e-8 so that a numerically split
multiple eigenvalue is treated as one spectral point, and each cluster
contributes a symmetric projector. Transfer amplitudes and fidelity scans
are assembled from the clustered spectral data, so |U(t)[u,v]| equals
|U(t)[v,u]| exactly by construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence, TextIO

import numpy as np

from .errors import DomainError, StructuralError
from .graphs import Graph, to_matrix

CLUSTER_RTOL = 1e-8
SYMMETRY_TOL = 1e-12
SUPPORT_TOL = 1e-9


@dataclass(frozen=True)
class NumericSpectrum:
    """Clustered eigendecomposition of a symmetric matrix."""

    eigenvalues: np.ndarray  # all n, ascending
    cluster_values: np.ndarray  # one representative per cluster, ascending
    projectors: np.ndarray  # shape (k, n, n), symmetric, sum to identity

    @property
    def dimension(self) -> int:
        return self.projectors.shape[1]


@dataclass(frozen=True)
class FidelityScan:
    """Grid scan of |U(t)[u,v]| with a refined best point."""

    u: int
    v: int
    t_max: float
    times: list[float]
    fidelities: list[float]
    best_time: float
    best_fidelity: float


def numeric_adjacency(g: Graph, params: Mapping[str, float] | None = None) -> np.ndarray:
    """Graph matrix as floats; every potential symbol must get a value."""
    return np.array(to_matrix(g).to_float(params), dtype=float)


def sym_eig(matrix: np.ndarray | Sequence[Sequence[float]]) -> NumericSpectrum:
    """Clustered spectral decomposition of a symmetric matrix.

    Asymmetry beyond 1e-12 (relative to the largest entry) is rejected, and
    so is a symmetrized matrix with a non-finite entry (an overflow).
    Eigenvalues closer than CLUSTER_RTOL times the spectral diameter are
    merged into one cluster with a single summed projector.
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

    diam = float(eigs[-1] - eigs[0])
    gap = CLUSTER_RTOL * max(diam, 1.0)
    clusters: list[list[int]] = [[0]]
    for i in range(1, n):
        if eigs[i] - eigs[i - 1] <= gap:
            clusters[-1].append(i)
        else:
            clusters.append([i])

    values = np.array([float(np.mean(eigs[idx])) for idx in clusters])
    projectors = np.empty((len(clusters), n, n))
    for k, idx in enumerate(clusters):
        block = vecs[:, idx]
        proj = block @ block.T
        projectors[k] = (proj + proj.T) / 2.0
    return NumericSpectrum(eigenvalues=eigs, cluster_values=values, projectors=projectors)


def transfer_amplitude(spectrum: NumericSpectrum, u: int, v: int, t: float) -> complex:
    """U(t)[u, v] where U(t) = exp(i t M), from the clustered data."""
    _check_indices(spectrum, u, v)
    weights = spectrum.projectors[:, u, v]
    phases = np.exp(1j * t * spectrum.cluster_values)
    return complex(np.sum(phases * weights))


def pgst_ceiling(spectrum: NumericSpectrum, u: int, v: int) -> float:
    """sum_k |E_k[u, v]|: an upper bound on |U(t)[u, v]| over all times.

    Equals 1 up to numerical error exactly when the pair is strongly
    cospectral; strictly smaller ceilings certify (numerically) that
    fidelity can never reach 1.
    """
    _check_indices(spectrum, u, v)
    return float(np.sum(np.abs(spectrum.projectors[:, u, v])))


def numeric_strong_cospectral(spectrum: NumericSpectrum, u: int, v: int) -> bool:
    """Every cluster projector satisfies E e_u = +-E e_v up to SUPPORT_TOL.

    Parallelism up to sign is tested in product form: one of the two
    norms ||E(e_u - e_v)||, ||E(e_u + e_v)|| must vanish, so their
    product is compared against SUPPORT_TOL * ||E e_u||^2. Clusters whose
    u and v projections are both below SUPPORT_TOL are neutral and impose
    no constraint.
    """
    _check_indices(spectrum, u, v)
    for proj in spectrum.projectors:
        row_u = proj[u]
        row_v = proj[v]
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
    exactly symmetric, so that image is row u plus (minus) row v. For
    strongly cospectral pairs the two lists are disjoint; both-sided
    clusters land in both lists.
    """
    _check_indices(spectrum, u, v)
    lambdas: list[float] = []
    mus: list[float] = []
    for value, proj in zip(spectrum.cluster_values, spectrum.projectors):
        if float(np.linalg.norm(proj[u] + proj[v])) > SUPPORT_TOL:
            lambdas.append(float(value))
        if float(np.linalg.norm(proj[u] - proj[v])) > SUPPORT_TOL:
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

    The reported best fidelity is never below the grid maximum.
    """
    _check_indices(spectrum, u, v)
    if not 0 < t_max < math.inf:
        raise DomainError(f"t_max must be positive and finite, got {t_max}")
    if steps < 2:
        raise DomainError(f"need at least 2 grid points, got {steps}")
    weights = spectrum.projectors[:, u, v]
    values = spectrum.cluster_values
    if not math.isfinite(t_max * float(np.max(np.abs(values)))):
        raise DomainError(f"phases t*lambda overflow on [0, {t_max}]; lower t_max")

    def fid(ts: np.ndarray) -> np.ndarray:
        return np.abs(np.exp(1j * np.outer(ts, values)) @ weights)

    times = np.linspace(0.0, t_max, steps)
    fids = fid(times)
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
        times=[float(t) for t in times],
        fidelities=[float(f) for f in fids],
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
    for t, f in zip(scan.times, scan.fidelities):
        stream.write(f"{t!r},{f!r}\n")


def _check_indices(spectrum: NumericSpectrum, u: int, v: int) -> None:
    n = spectrum.dimension
    for x in (u, v):
        if not (0 <= x < n):
            raise StructuralError(f"vertex {x} out of range 0..{n - 1}")
