"""Seeded question streams for the three benchmark workloads.

A workload is an endless sequence of rounds. Every round has the same
slots (a fixed question kind at a fixed size), and the seed only decides
the details inside a slot: edge weights, vertex pairs, symbol names and
rational values. That keeps the work per round nearly independent of the
seed, so runs with different seeds agree closely, while no question text
repeats within a run.

Generated graphs are written to files before timing starts; the program
under test receives only those files or ``@G_*`` fixture references.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from typing import Callable

import numpy as np

# Placeholder in argv for the path of the question's graph file.
GRAPH_FILE = "{graph}"

WEIGHTS = (1, 2, 3)


@dataclass
class Question:
    """One CLI invocation. Every pair asked about by ``analyze`` is exchanged
    by a graph automorphism, so the exact lane must find it cospectral."""

    index: int
    slot: str
    argv: list[str]
    graph_text: str | None
    base: str  # identifies the base graph, for the reuse share
    n: int
    u: int
    v: int

    def key(self) -> str:
        """Path-independent identity of the question (argv plus graph text)."""
        blob = json.dumps([self.argv, self.graph_text], separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()

    def resolved_argv(self, path: str | None) -> list[str]:
        return [path if a == GRAPH_FILE else a for a in self.argv]


# ---------------------------------------------------------------------------
# graph generators


def _graph_text(n: int, edges: dict[tuple[int, int], int]) -> str:
    lines = [f"n {n}"] + [f"e {i} {j} {w}" for (i, j), w in sorted(edges.items())]
    return "\n".join(lines) + "\n"


def mirror_graph(rng: random.Random, n: int, extra: int) -> dict[tuple[int, int], int]:
    """Weighted graph with the involution (0 1)(2 3)... as an automorphism.

    About a third of the vertices are fixed points. A random spanning tree
    plus ``extra`` random edges are added together with their mirror
    images, so vertices 0 and 1 are exchanged by an automorphism and are
    cospectral by construction.
    """
    npairs = (n - n // 3) // 2
    sigma = list(range(n))
    for k in range(npairs):
        sigma[2 * k], sigma[2 * k + 1] = 2 * k + 1, 2 * k
    edges: dict[tuple[int, int], int] = {}

    def add(i: int, j: int, w: int) -> None:
        for x, y in ((i, j), (sigma[i], sigma[j])):
            if x != y:
                edges[(min(x, y), max(x, y))] = w

    for i in range(1, n):
        add(i, rng.randrange(i), rng.choice(WEIGHTS))
    for _ in range(extra):
        i, j = rng.sample(range(n), 2)
        add(i, j, rng.choice(WEIGHTS))
    return edges


def palindromic_path(rng: random.Random, n: int) -> dict[tuple[int, int], int]:
    """Weighted path whose weights read the same from both ends, so the
    reflection i -> n-1-i is an automorphism."""
    half = [rng.choice(WEIGHTS) for _ in range(n // 2)]
    return {(i, i + 1): half[min(i, n - 2 - i)] for i in range(n - 1)}


def random_graph(rng: random.Random, n: int) -> dict[tuple[int, int], int]:
    """Connected weighted graph with average degree about four."""
    edges: dict[tuple[int, int], int] = {}
    for i in range(1, n):
        edges[(rng.randrange(i), i)] = rng.choice(WEIGHTS)
    for _ in range(n):
        i, j = sorted(rng.sample(range(n), 2))
        edges[(i, j)] = rng.choice(WEIGHTS)
    return edges


def support_sizes(n: int, edges: dict[tuple[int, int], int], u: int, v: int) -> tuple[int, int]:
    """Numbers of distinct eigenvalues supported on e_u + e_v and e_u - e_v.

    Mirrors the numeric lane's clustering (relative gap 1e-8, support
    threshold 1e-9) with numpy alone, so the generator can pick graphs
    whose relation search takes a given route without calling the
    program under test.
    """
    a = np.zeros((n, n))
    for (i, j), w in edges.items():
        a[i, j] = a[j, i] = w
    eigs, vecs = np.linalg.eigh(a)
    gap = 1e-8 * max(float(eigs[-1] - eigs[0]), 1.0)
    clusters = [[0]]
    for i in range(1, n):
        if eigs[i] - eigs[i - 1] <= gap:
            clusters[-1].append(i)
        else:
            clusters.append([i])
    plus = np.zeros(n)
    plus[[u, v]] = 1.0
    minus = np.zeros(n)
    minus[u], minus[v] = 1.0, -1.0
    r = s = 0
    for idx in clusters:
        block = vecs[:, idx]
        proj = block @ block.T
        r += float(np.linalg.norm(proj @ plus)) > 1e-9
        s += float(np.linalg.norm(proj @ minus)) > 1e-9
    return r, s


# ---------------------------------------------------------------------------
# workloads


@dataclass(frozen=True)
class Workload:
    name: str
    rounds: Callable[[random.Random, int], list[dict]]  # (rng, round) -> question specs
    # Percentile for latency_tail_s, chosen so that about ten questions of a
    # run lay beyond it when the benchmark was defined. It is fixed, so a
    # faster program is not judged on a different percentile.
    tail_percentile: int
    # Questions in a traced run: a fixed prefix, so traced counts repeat.
    trace_questions: int


# name -> (u label, v label, u index, v index, vertex count)
FIXTURES = {
    "G_A": ("3", "6", 3, 6, 9),
    "G_B": ("1", "8", 1, 8, 9),
    "G_C": ("8", "9", 8, 9, 10),
    "G_D": ("h1", "h4", 1, 4, 10),
}


def _fixture(slot: str, command: list[str], name: str, args: list[str]) -> dict:
    ul, vl, u, v, n = FIXTURES[name]
    argv = command + [f"@{name}", "--u", ul, "--v", vl] + args
    return dict(slot=slot, argv=argv, graph_text=None, base=name, n=n, u=u, v=v)


def _file(slot: str, command: list[str], edges: dict, n: int, u: int, v: int, args: list[str]) -> dict:
    text = _graph_text(n, edges)
    return dict(
        slot=slot,
        argv=command + [GRAPH_FILE, "--u", str(u), "--v", str(v)] + args,
        graph_text=text,
        base=hashlib.sha256(text.encode()).hexdigest(),
        n=n,
        u=u,
        v=v,
    )


def _mirror_with_supports(rng: random.Random, n: int, extra: int, total: int, distinct: bool = False) -> dict:
    """Mirror graph whose pair (0, 1) has r + s == total supported
    eigenvalues. Fixing the total (the most common one for the slot's size)
    keeps a slot's cost steady across seeds. With ``distinct``, also
    r != s, so the parity obstruction cannot settle the pair before
    relation search runs."""
    while True:
        edges = mirror_graph(rng, n, extra)
        r, s = support_sizes(n, edges, 0, 1)
        if r + s == total and not (distinct and r == s):
            return edges


ANALYZE = ["analyze"]
SIMULATE = ["simulate"]

# Slots within a round alternate cheap and expensive questions, so a run
# that ends inside a round sees a mix close to a whole round's.


def certify_batch_round(rng: random.Random, r: int) -> list[dict]:
    q, p = f"Q{r}", f"P{r}"

    def fixture(name: str) -> dict:
        return _fixture(f"fixture_{name}", ANALYZE, name, ["--potential", q])

    def mirror(n: int, extra: int, total: int) -> dict:
        edges = _mirror_with_supports(rng, n, extra, total)
        return _file(f"mirror_{n}", ANALYZE, edges, n, 0, 1, ["--potential", "Q"])

    return [
        fixture("G_B"),
        mirror(6, 3, 6),
        _fixture("glue_pot", ["construct", "glue-pot"], "G_B", ["--k", "3", "--potential", p]),
        fixture("G_A"),
        mirror(9, 2, 9),
        mirror(7, 3, 6),
        fixture("G_D"),
        _fixture("equitable", ["construct", "equitable"], "G_C", ["--sym1", f"A{r}", "--sym2", f"B{r}"]),
        mirror(8, 2, 8),
        fixture("G_C"),
        _fixture("glue_path", ["construct", "glue-path"], "G_A", ["--q", "4", "--potential", p]),
        _fixture("change_trace", ["construct", "change-trace"], "G_A", ["--k", "3", "--potential", p, "--sym", f"S{r}"]),
    ]


def certify_large_round(rng: random.Random, r: int) -> list[dict]:
    def path(n: int) -> dict:
        return _file(f"path_{n}", ANALYZE, palindromic_path(rng, n), n, 1, n - 2, ["--potential", "Q"])

    def sparse_mirror(n: int, total: int) -> dict:
        edges = _mirror_with_supports(rng, n, 1, total)
        return _file(f"sparse_mirror_{n}", ANALYZE, edges, n, 0, 1, ["--potential", "Q"])

    return [
        path(16),
        path(12),
        sparse_mirror(13, 12),
        sparse_mirror(11, 10),
        _fixture("glue_pot_k5", ["construct", "glue-pot"], "G_B", ["--k", "5", "--potential", f"P{r}"]),
        path(14),
    ]


def _rational(rng: random.Random) -> str:
    den = rng.randint(2, 9)
    return f"{rng.randint(1, 4 * den)}/{den}"


def numeric_scan_round(rng: random.Random, r: int) -> list[dict]:
    def simulate(n: int) -> dict:
        u, v = rng.sample(range(n), 2)
        args = ["--potential", "P", "--potential-value", _rational(rng), "--tmax", "500", "--steps", "20001"]
        return _file(f"simulate_{n}", SIMULATE, random_graph(rng, n), n, u, v, args)

    # r + s = 7 keeps the box 7^7 under the exhaustive limit; 7^9 exceeds it.
    def relations(slot: str, n: int, total: int) -> dict:
        edges = _mirror_with_supports(rng, n, 2, total, distinct=True)
        return _file(slot, ANALYZE, edges, n, 0, 1, ["--simulate", "--tmax", "100"])

    def relations_G_A(j: int) -> dict:
        tmax = str(100 + 3 * r + j)
        return _fixture("relations_G_A", ANALYZE, "G_A", ["--simulate", "--tmax", tmax])

    # Three cheap slots and six expensive ones of similar cost (G_A relation
    # search, simulate at n=120, the lattice route). The median and the p75
    # tail then both fall inside the expensive group whatever its internal
    # order, which shifts as the machine's speed drifts.
    return [
        simulate(40),
        relations_G_A(0),
        simulate(120),
        simulate(60),
        relations_G_A(1),
        relations("relations_lll", 9, 9),
        relations("relations_exhaustive", 8, 7),
        simulate(120),
        relations_G_A(2),
    ]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("certify_batch", certify_batch_round, tail_percentile=90, trace_questions=24),
        Workload("certify_large", certify_large_round, tail_percentile=75, trace_questions=12),
        Workload("numeric_scan", numeric_scan_round, tail_percentile=75, trace_questions=18),
    )
}


def generate(workload: Workload, seed: int, limit: int) -> list[Question]:
    """The first ``limit`` questions of the workload's stream for ``seed``.

    A spec whose text already occurred is drawn again, so no question
    repeats within a run.
    """
    rng = random.Random(f"{workload.name}:{seed}")
    questions: list[Question] = []
    seen: set[str] = set()
    r = 0
    while len(questions) < limit:
        for spec in workload.rounds(rng, r):
            if len(questions) == limit:
                break
            q = Question(index=len(questions), **spec)
            while q.key() in seen:
                q = Question(index=len(questions), **_redraw(workload, rng, r, spec["slot"]))
            seen.add(q.key())
            questions.append(q)
        r += 1
    return questions


def _redraw(workload: Workload, rng: random.Random, r: int, slot: str) -> dict:
    return next(s for s in workload.rounds(rng, r) if s["slot"] == slot)
