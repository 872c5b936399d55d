"""Floating point continuous-time quantum walk simulation.

Exact machinery proves; this module measures. Eigenvalues and
eigenvectors come from LAPACK's symmetric solver (``numpy.linalg.eigh``),
get clustered at relative tolerance 1e-8 so that a numerically split
multiple eigenvalue is treated as one spectral point, and each cluster
stands for the projector onto its eigenvectors. No projector is formed:
a question about the pair (u, v) reads only rows u and v of each one.
Transfer amplitudes and fidelity scans weigh cluster k by the mean of
its (u, v) and (v, u) entries, so |U(t)[u,v]| equals |U(t)[v,u]|. A scan
splits each grid time into a block start plus an offset, so it takes one
complex matrix product per block, not an exponential per point and cluster.

numpy is imported inside the functions that use it, so it loads only for
``simulate`` and ``analyze --simulate``, never at CLI start-up.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping, Sequence, TextIO

from .errors import DomainError, StructuralError
from .graphs import Graph

if TYPE_CHECKING:  # numpy loads in the functions that use it
    import numpy as np

CLUSTER_RTOL = 1e-8
SYMMETRY_TOL = 1e-12
SUPPORT_TOL = 1e-9
# Entries of each fidelity-scan temporary (offsets, block starts, block
# product), so that each stays within 128 KiB whatever the grid size.
SCAN_CHUNK = 8192
# A fidelity scan holds its grid and fidelities whole, 16 bytes a point;
# nothing else it allocates grows with the number of points.
MAX_STEPS = 10**7


@dataclass(frozen=True, eq=False)  # hashed by identity: _rows keys on it
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
        import numpy as np

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
    import numpy as np

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
    import numpy as np

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
    import numpy as np

    phases = np.exp(1j * t * spectrum.cluster_values)
    return complex(np.sum(phases * _weights(spectrum, u, v)))


def pgst_ceiling(spectrum: NumericSpectrum, u: int, v: int) -> float:
    """sum_k |E_k[u, v]|: an upper bound on |U(t)[u, v]| over all times.

    Equals 1 up to numerical error exactly when the pair is strongly
    cospectral; strictly smaller ceilings certify (numerically) that
    fidelity can never reach 1.
    """
    import numpy as np

    return float(np.sum(np.abs(_weights(spectrum, u, v))))


def numeric_strong_cospectral(spectrum: NumericSpectrum, u: int, v: int) -> bool:
    """Every cluster projector satisfies E e_u = +-E e_v up to SUPPORT_TOL.

    E is symmetric, so E e_u is row u of E. Parallelism up to sign is
    tested in product form: one of the two norms ||E(e_u - e_v)||,
    ||E(e_u + e_v)|| must vanish, so their product is compared against
    SUPPORT_TOL * ||E e_u||^2. Clusters whose u and v projections are both
    below SUPPORT_TOL are neutral and impose no constraint.
    """
    nu, nv, summ, diff = _support_norms(spectrum, u, v)
    neutral = (nu <= SUPPORT_TOL) & (nv <= SUPPORT_TOL)
    return not (~neutral & (diff * summ > SUPPORT_TOL * nu * nu)).any()


def classify_spectrum(spectrum: NumericSpectrum, u: int, v: int) -> tuple[list[float], list[float]]:
    """Split cluster values into plus-support and minus-support lists.

    A cluster supports the plus (minus) side when its projector applied to
    e_u + e_v (e_u - e_v) has norm above SUPPORT_TOL; the projector is
    symmetric, so that image is row u plus (minus) row v. For strongly
    cospectral pairs the two lists are disjoint; both-sided clusters land
    in both lists.
    """
    _, _, summ, diff = _support_norms(spectrum, u, v)
    values = spectrum.cluster_values
    return values[summ > SUPPORT_TOL].tolist(), values[diff > SUPPORT_TOL].tolist()


def fidelity_scan(
    spectrum: NumericSpectrum,
    u: int,
    v: int,
    t_max: float,
    steps: int = 2000,
) -> FidelityScan:
    """Scan |U(t)[u, v]| on a uniform grid over [0, t_max] and refine the
    best grid point by golden-section search in its bracket.

    The grid of 2 to MAX_STEPS points t_i is evaluated in factored form,
    exp(i lambda t_{jb+m}) = exp(i lambda t_jb) exp(i lambda t_m) with b =
    SCAN_CHUNK // k offsets m (k clusters): one matrix product of block
    starts by offsets per block, and no temporary above SCAN_CHUNK entries.
    Each grid fidelity is within (8 ulp(t_max max|lambda|) + 2 (k + 8) eps)
    sum_k |w_k| of the exact |sum_k w_k exp(i lambda_k t_i)|: t_jb + t_m is
    within 3 ulp(t_max) of t_i, and the rest is the rounding of phases,
    exponentials and the k-term sum. A phase t_max * max|lambda| whose ulp
    exceeds 1e-6 rad (from 2^33, about 8.6e9) is rejected. The best
    fidelity is never below the grid maximum.
    """
    import numpy as np

    weights = _weights(spectrum, u, v)
    if not 0 < t_max < math.inf:
        raise DomainError(f"t_max must be positive and finite, got {t_max}")
    if not 2 <= steps <= MAX_STEPS:
        raise DomainError(f"need 2 to {MAX_STEPS} grid points, got {steps}")
    values = spectrum.cluster_values
    if not math.ulp(t_max * float(np.max(np.abs(values)))) <= 1e-6:
        raise DomainError(
            f"phases t*lambda overflow float precision on [0, {t_max}] "
            "(an ulp above 1e-6 rad); lower t_max"
        )

    def fid(ts: np.ndarray) -> np.ndarray:
        return np.abs(np.exp(1j * np.outer(ts, values)) @ weights)

    times = np.linspace(0.0, t_max, steps)
    fids = np.empty(steps)
    b = max(1, min(steps, SCAN_CHUNK // len(values)))
    span = b * max(1, SCAN_CHUNK // max(b, len(values)))
    offsets = np.exp(1j * np.outer(values, times[:b]))
    for first in range(0, steps, span):
        heads = np.exp(1j * np.outer(times[first : first + span : b], values)) * weights
        fids[first : first + span] = np.abs(heads @ offsets).ravel()[: steps - first]
    k = int(np.argmax(fids))
    lo = times[max(0, k - 1)]
    hi = times[min(steps - 1, k + 1)]
    best_t, best_f = _golden_max(lambda t: float(fid(np.array([t]))[0]), lo, hi)
    if best_f < float(fids[k]):
        best_t, best_f = float(times[k]), float(fids[k])
    return FidelityScan(u, v, float(t_max), times, fids, best_t, best_f)


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


@functools.lru_cache(maxsize=1)
def _rows(spectrum: NumericSpectrum, u: int, v: int) -> np.ndarray:
    """spectrum.rows(u, v), kept for the last pair asked: one projection a question."""
    return spectrum.rows(u, v)


def _weights(spectrum: NumericSpectrum, u: int, v: int) -> np.ndarray:
    """(E_k[u, v] + E_k[v, u]) / 2 for every cluster k."""
    r = _rows(spectrum, u, v)
    return (r[:, 0, v] + r[:, 1, u]) / 2.0


def _support_norms(spectrum: NumericSpectrum, u: int, v: int) -> tuple[np.ndarray, ...]:
    """||E_k e_u||, ||E_k e_v||, ||E_k (e_u + e_v)|| and ||E_k (e_u - e_v)||
    for every cluster k, as four arrays; E_k is symmetric, so E_k e_u is
    row u of E_k."""
    import numpy as np

    r = _rows(spectrum, u, v)
    row_u, row_v = r[:, 0], r[:, 1]
    return tuple(np.linalg.norm(x, axis=1) for x in (row_u, row_v, row_u + row_v, row_u - row_v))
