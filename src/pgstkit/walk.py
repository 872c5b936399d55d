"""Floating point continuous-time quantum walk simulation.

Exact machinery proves; this module measures. Eigenvalues and
eigenvectors come from LAPACK's symmetric solver (``numpy.linalg.eigh``),
get clustered at relative tolerance 1e-8 so that a numerically split
multiple eigenvalue is treated as one spectral point, and each cluster
stands for the projector E_k = B B^T onto its eigenvector columns B. No
projector is formed: a pair (u, v) needs only rows u and v of the
eigenvectors. Fidelity scans and transfer ceilings weigh cluster k by
(E_k[u,v] + E_k[v,u]) / 2, so |U(t)[u,v]| equals |U(t)[v,u]|. A scan
splits each grid time into a block start plus an offset, so it takes one
complex matrix product per block, not an exponential per point and cluster.

numpy is imported inside the functions that use it, so it loads only for
``simulate`` and ``analyze --simulate``, never at CLI start-up.
"""

from __future__ import annotations

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


@dataclass(frozen=True, eq=False)  # == on array fields is ambiguous; compare by identity
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

    a = np.asarray(matrix, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise StructuralError("need a square matrix")
    n = a.shape[0]
    if n == 0:
        raise DomainError("empty matrix has no spectrum")
    # one n x n buffer for every step; the input is only read
    buf = np.abs(a)
    with np.errstate(over="ignore", invalid="ignore"):
        scale = max(1.0, float(np.max(buf)))
        np.subtract(a, a.T, out=buf)
        if float(np.max(np.abs(buf, out=buf))) > SYMMETRY_TOL * scale:
            raise DomainError("matrix is not symmetric within 1e-12")
        a = np.divide(np.add(a, a.T, out=buf), 2.0, out=buf)
    if not np.all(np.isfinite(a)):
        raise DomainError("matrix has a non-finite entry (inf, nan or overflow)")

    eigs, vecs = np.linalg.eigh(a)

    gap = CLUSTER_RTOL * max(float(eigs[-1] - eigs[0]), 1.0)
    bounds = [0, *(np.flatnonzero(np.diff(eigs) > gap) + 1).tolist(), n]
    columns = np.arange(n)
    clusters = tuple([columns[i:j] for i, j in zip(bounds, bounds[1:])])
    values = eigs[bounds[:-1]]  # a singleton's value is its eigenvalue
    for k in _multiple(bounds[:-1], n):
        values[k] = np.mean(eigs[clusters[k]])
    return NumericSpectrum(eigenvalues=eigs, cluster_values=values, eigenvectors=vecs, clusters=clusters)


def pgst_ceiling(spectrum: NumericSpectrum, u: int, v: int) -> float:
    """sum_k |E_k[u, v]|: an upper bound on |U(t)[u, v]| over all times.

    Equals 1 up to numerical error exactly when the pair is strongly cospectral;
    a smaller ceiling certifies (numerically) that fidelity never reaches 1.
    """
    import numpy as np

    return float(np.sum(np.abs(_weights(spectrum, u, v))))


def numeric_strong_cospectral(spectrum: NumericSpectrum, u: int, v: int) -> bool:
    """Every cluster projector satisfies E e_u = +-E e_v up to SUPPORT_TOL.

    Parallelism up to sign is tested in product form: one of the norms
    ||E(e_u - e_v)||, ||E(e_u + e_v)|| must vanish, so their product is
    compared against SUPPORT_TOL * ||E e_u||^2. Clusters whose u and v
    projections are both below SUPPORT_TOL are neutral: no constraint.
    """
    nu, nv, summ, diff = _support_norms(spectrum, u, v)
    neutral = (nu <= SUPPORT_TOL) & (nv <= SUPPORT_TOL)
    return not (~neutral & (diff * summ > SUPPORT_TOL * nu * nu)).any()


def classify_spectrum(spectrum: NumericSpectrum, u: int, v: int) -> tuple[list[float], list[float]]:
    """Split cluster values into plus-support and minus-support lists.

    A cluster supports the plus (minus) side when its projector applied to
    e_u + e_v (e_u - e_v) has norm above SUPPORT_TOL. For strongly cospectral
    pairs the two lists are disjoint; both-sided clusters land in both.
    """
    _, _, summ, diff = _support_norms(spectrum, u, v)
    values = spectrum.cluster_values
    return values[summ > SUPPORT_TOL].tolist(), values[diff > SUPPORT_TOL].tolist()


def _check_grid(t_max: float, steps: int) -> None:
    if not 0 < t_max < math.inf:
        raise DomainError(f"t_max must be positive and finite, got {t_max}")
    if not 2 <= steps <= MAX_STEPS:
        raise DomainError(f"need 2 to {MAX_STEPS} grid points, got {steps}")


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
    _check_grid(t_max, steps)
    values = spectrum.cluster_values
    if not math.ulp(t_max * float(np.max(np.abs(values)))) <= 1e-6:
        raise DomainError(
            f"phases t*lambda overflow float precision on [0, {t_max}] "
            "(an ulp above 1e-6 rad); lower t_max"
        )

    times = np.linspace(0.0, t_max, steps)
    fids = np.empty(steps)
    b = max(1, min(steps, SCAN_CHUNK // len(values)))
    span = b * max(1, SCAN_CHUNK // max(b, len(values)))
    offsets = np.exp(1j * np.outer(values, times[:b]))
    for first in range(0, steps, span):
        heads = np.exp(1j * np.outer(times[first : first + span : b], values)) * weights
        fids[first : first + span] = np.abs(heads @ offsets).ravel()[: steps - first]
    k = int(np.argmax(fids))
    lo, hi = times[max(0, k - 1)], times[min(steps - 1, k + 1)]
    best_t, best_f = _golden_max(
        lambda t: float(np.abs(np.exp(1j * (t * values))[None] @ weights)[0]), lo, hi
    )
    if best_f < float(fids[k]):
        best_t, best_f = float(times[k]), float(fids[k])
    return FidelityScan(u, v, float(t_max), times, fids, float(best_t), best_f)


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


def _pair(spectrum: NumericSpectrum, u: int, v: int) -> np.ndarray:
    """Rows u and v of the eigenvectors; a vertex outside 0..n-1 is refused."""
    n = spectrum.dimension
    for x in (u, v):
        if not (0 <= x < n):
            raise StructuralError(f"vertex {x} out of range 0..{n - 1}")
    return spectrum.eigenvectors[[u, v]]


def _starts(spectrum: NumericSpectrum) -> list[int]:
    """The first eigenvector column of each cluster."""
    return [idx[0] for idx in spectrum.clusters]


def _multiple(starts: list[int], n: int) -> list[int]:
    """Positions of the clusters with more than one column, given each cluster's first column."""
    import numpy as np

    return np.flatnonzero(np.diff(starts, append=n) > 1).tolist()


def _weights(spectrum: NumericSpectrum, u: int, v: int) -> np.ndarray:
    """(E_k[u, v] + E_k[v, u]) / 2 per cluster k. A singleton's is ab, since
    (ab + ba) / 2 = ab; a larger cluster's comes from its 2 x 2 block, where
    the copy avoids syrk, which rounds differently."""
    pair = _pair(spectrum, u, v)
    starts = _starts(spectrum)
    weights = pair[0, starts] * pair[1, starts]
    for k in _multiple(starts, spectrum.dimension):
        cols = pair[:, spectrum.clusters[k]]
        block = cols @ cols.T.copy()
        weights[k] = (block[0, 1] + block[1, 0]) / 2.0
    return weights


def _support_norms(spectrum: NumericSpectrum, u: int, v: int) -> tuple[np.ndarray, ...]:
    """||E_k x|| = ||B^T x|| per cluster k for x = e_u, e_v, e_u + e_v, e_u - e_v."""
    import numpy as np

    a, b = _pair(spectrum, u, v)
    starts = _starts(spectrum)
    return tuple(np.sqrt(np.add.reduceat(x * x, starts)) for x in (a, b, a + b, a - b))
